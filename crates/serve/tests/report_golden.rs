//! Byte pins for the `run` reply renderer.
//!
//! The `run` frames of one small and one large result must match
//! `tests/golden/run_frames.ndjson` byte for byte. The results are
//! synthetic — every counter, energy term, register and memory word is
//! set by formula — so the pin depends on the renderer alone, never on
//! the simulator. Re-bless only for a deliberate wire change:
//!
//! ```text
//! SCC_BLESS=1 cargo test -p scc-serve --test report_golden
//! ```

use scc_pipeline::PipelineStats;
use scc_serve::protocol::{arch_digest, report_json, run_one_response, run_response, Proto};
use scc_sim::{OptLevel, RunOne, SimResult};
use std::path::PathBuf;
use std::sync::Arc;

/// Every counter set to a distinct value derived from `seed`, so a
/// metric rendered under the wrong name or in the wrong order shows up
/// in the pin.
fn filled_stats(seed: u64) -> PipelineStats {
    let mut s = PipelineStats::default();
    let h = &mut s.hierarchy;
    let (u, o) = (&mut s.unopt, &mut s.opt);
    let counters: [&mut u64; 56] = [
        &mut s.cycles,
        &mut s.committed_uops,
        &mut s.program_uops,
        &mut s.committed_ghosts,
        &mut s.live_out_writes,
        &mut s.uops_from_icache,
        &mut s.uops_from_unopt,
        &mut s.uops_from_opt,
        &mut s.squashed_uops,
        &mut s.squashes,
        &mut s.scc_data_squashes,
        &mut s.scc_control_squashes,
        &mut s.branch_squashes,
        &mut s.branches_resolved,
        &mut s.branches_mispredicted,
        &mut s.vp_trains,
        &mut s.vp_forwards,
        &mut s.vp_forward_fails,
        &mut s.vp_probes,
        &mut s.invariants_validated,
        &mut s.invariants_failed,
        &mut s.compactions,
        &mut s.streams_committed,
        &mut s.compactions_discarded,
        &mut s.compactions_aborted,
        &mut s.scc_busy_cycles,
        &mut s.scc_alu_ops,
        &mut s.renamed_uops,
        &mut s.exec_alu,
        &mut s.exec_muldiv,
        &mut s.exec_fp,
        &mut s.exec_loads,
        &mut s.exec_stores,
        &mut s.bp_lookups,
        &mut s.uopcache_lookups,
        &mut s.decoded_macros,
        &mut h.l1i.hits,
        &mut h.l1i.misses,
        &mut h.l1d.hits,
        &mut h.l1d.misses,
        &mut h.l2.hits,
        &mut h.l2.misses,
        &mut h.l3.hits,
        &mut h.l3.misses,
        &mut h.dram,
        &mut u.hits,
        &mut u.misses,
        &mut u.fills,
        &mut u.evictions,
        &mut u.fill_rejects,
        &mut o.hits,
        &mut o.misses,
        &mut o.inserts,
        &mut o.evictions,
        &mut o.phased_out,
        &mut o.insert_rejects,
    ];
    for (i, c) in counters.into_iter().enumerate() {
        *c = seed.wrapping_mul(1_000_003).wrapping_add(7_919 * i as u64 + 13);
    }
    s
}

/// A synthetic result with `mem_words` memory words: the small one is
/// shaped like a compute kernel's image, the large one like mcf's.
fn synthetic(workload: &str, level: OptLevel, mem_words: u64, seed: u64) -> SimResult {
    let mut r = SimResult {
        workload: workload.to_string(),
        level,
        stats: filled_stats(seed),
        energy: Default::default(),
        snapshot: scc_isa::ArchSnapshot {
            regs: std::array::from_fn(|i| (i as i64 - 16) * 0x0123_4567_89ab + seed as i64),
            cc: scc_isa::CcFlags { zf: true, sf: false, of: true, cf: seed.is_multiple_of(2) },
            mem: (0..mem_words)
                .map(|i| (0x10_0000 + 8 * i, (i ^ seed).wrapping_mul(0x9E37_79B9) as i64 - 1))
                .collect(),
        },
        halted: true,
    };
    r.energy.frontend_pj = 1234.567890123 * seed as f64;
    r.energy.backend_pj = 98_765.432_1;
    r.energy.memory_pj = 0.000_123;
    r.energy.static_pj = 42.0;
    r
}

fn small() -> SimResult {
    synthetic("perlbench", OptLevel::Full, 600, 3)
}

fn large() -> SimResult {
    synthetic("mcf", OptLevel::Baseline, 131_072, 8)
}

/// The pinned frames, in file order.
fn frames() -> Vec<String> {
    let (s, l) = (small(), large());
    let audit = "{\"a\":1}\n\n{\"b\":\"x\"}\n";
    vec![
        run_response(Proto::V2, Some("g\"2"), &s, None),
        run_response(Proto::V2, Some("g-3"), &s, Some(audit)),
        run_response(Proto::V2, Some("g-5"), &l, None),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_frames.ndjson")
}

#[test]
fn run_frames_match_the_committed_bytes() {
    let got: String = frames().concat();
    let path = golden_path();
    if std::env::var_os("SCC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "frame {i} drifted from {}", path.display());
    }
    assert_eq!(got, want, "frame count or trailing bytes drifted");
}

/// The server renders runner resolutions with the digest memoised on the
/// cache entry; the bytes must equal the recomputing renderer's.
#[test]
fn memoised_digest_replies_match_the_pinned_frames() {
    let one = |res: SimResult, audit: Option<&str>| RunOne {
        digest: arch_digest(&res),
        result: Arc::new(res),
        cached: true,
        audit_jsonl: audit.map(str::to_string),
    };
    let audit = "{\"a\":1}\n\n{\"b\":\"x\"}\n";
    let replies = [
        run_one_response(Some("g\"2"), &one(small(), None)),
        run_one_response(Some("g-3"), &one(small(), Some(audit))),
        run_one_response(Some("g-5"), &one(large(), None)),
    ];
    assert_eq!(replies.concat(), frames().concat());
    // `report_json` is the same object the frames embed.
    let report = report_json(&small());
    assert!(replies[0].contains(&format!("\"report\":{report}}}")));
}
