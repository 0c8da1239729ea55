#!/usr/bin/env bash
# Builds and runs one scc-perf benchmark run. Call it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# It builds the serving binaries (root workspace) and the benchmark
# (its own workspace) into one target directory, CARGO_TARGET_DIR or
# `.bench_build`, so `scc-perf` finds `scc-serve` and `scc-route` next to
# itself. Scratch files go under that directory too. Build output goes
# to stderr; stdout carries only the benchmark's own lines.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f perfbench/Cargo.toml || ! -d crates/serve ]]; then
    echo "perfbench/run.sh: run it from the repository root" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p scc-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/scc-perf" --work-dir "$CARGO_TARGET_DIR/scc-perf" "$@"
