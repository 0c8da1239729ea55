//! Parallel experiment engine with a cross-figure result cache.
//!
//! Every figure and table in the evaluation boils down to the same unit
//! of work: *simulate one workload under one pipeline configuration*.
//! The runner fans those jobs out over a scoped worker pool (plain
//! `std::thread::scope`, no external dependencies) and memoizes each
//! result in a content-keyed LRU that the runner owns, so e.g. the 19
//! baseline runs that Figures 6, 9, 10, and 11 all need are simulated
//! exactly once when one runner renders all four. Clones of a runner
//! share its cache and log; two runners built with [`Runner::new`] share
//! nothing.
//!
//! Determinism: each simulation is single-threaded and fully
//! deterministic, and results are returned in job order regardless of
//! which worker finished first — so report output is byte-identical to
//! the serial path (`tests/` assert this).
//!
//! Worker count defaults to the host's available parallelism;
//! binaries that honor the `SCC_JOBS` convention read the environment
//! once at their edge (via [`scc_jobs`]) and pass the count in
//! explicitly with [`Runner::with_jobs`] — the library itself never
//! consults the environment. Every job a [`Runner::try_run`] batch
//! resolves, fresh or cached, appends one [`RunTiming`] to the runner's
//! log ([`Runner::timings`]): the throughput record behind
//! `results/BENCH_throughput.json` ([`Runner::write_throughput_json`]).
//! The serving path ([`Runner::try_cached`], [`Runner::run_fresh`])
//! writes no log, so a resident service keeps no per-request state.

use crate::{arch_digest, energy_events, persist, OptLevel, SimOptions, SimResult};
use scc_core::AuditLog;
use scc_energy::EnergyModel;
use scc_isa::trace::{shared, SharedSink};
use scc_pipeline::{Metric, MetricValue, Pipeline, PipelineConfig, RunOutcome};
use scc_store::{RecoveryReport, Store, StoreConfig, StoreStats};
use scc_workloads::{Scale, Workload};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Duration, Instant};

/// One simulation job: a workload under a concrete pipeline
/// configuration.
///
/// Jobs borrow their workload, so batches can be built over a locally
/// generated suite without cloning programs.
#[derive(Clone, Debug)]
pub struct Job<'a> {
    /// The workload to simulate.
    pub workload: &'a Workload,
    /// The exact pipeline configuration to run it under.
    pub config: PipelineConfig,
    /// Cycle budget (safety net; workloads halt well before).
    pub max_cycles: u64,
    /// Level label recorded on the result (and in throughput logs).
    pub level: OptLevel,
}

impl<'a> Job<'a> {
    /// A job described by high-level [`SimOptions`] (the common case for
    /// the figure harnesses).
    pub fn new(workload: &'a Workload, opts: &SimOptions) -> Job<'a> {
        Job {
            workload,
            config: opts.to_pipeline_config(),
            max_cycles: opts.max_cycles,
            level: opts.level,
        }
    }

    /// A job with an explicit raw [`PipelineConfig`] (the ablation
    /// sweeps mutate configs directly). Uses the default cycle budget.
    pub fn from_config(
        workload: &'a Workload,
        config: PipelineConfig,
        level: OptLevel,
    ) -> Job<'a> {
        Job { workload, config, max_cycles: crate::build::DEFAULT_MAX_CYCLES, level }
    }

    /// The content key identifying this job's result — a thin wrapper
    /// over [`job_key`], which is the single canonical serialization
    /// shared by the result cache, the persistent store, and the
    /// `scc-route` shard router.
    pub fn key(&self) -> String {
        job_key(
            &self.workload.name,
            self.workload.scale.iters,
            self.level,
            self.max_cycles,
            &self.config,
        )
    }
}

/// **The canonical content-key serialization.** This string is the
/// identity of a simulation result everywhere in the system:
///
/// - the runner's in-memory LRU cache keys entries on it,
/// - `scc-store` persists records under it (so a key change invalidates
///   every stored result — bump [`crate::persist::SCHEMA_VERSION`] when
///   deliberately changing the encoding),
/// - `scc-route` consistent-hashes it to place jobs on shards (so equal
///   keys land on the same shard and per-shard cache locality falls out
///   for free), and
/// - the `key` service verb returns it to clients.
///
/// Workload generation is deterministic, so `(name, iters)` pins the
/// program; [`PipelineConfig::content_key`] pins every knob of the
/// machine by explicit field-by-field serialization (a `Debug`
/// rendering is *not* a stable identity — format changes or skipped
/// fields would silently alias or split cache entries). Two jobs with
/// equal keys are guaranteed to produce identical results.
///
/// The encoding is covered by a stability test
/// (`key_encoding_is_stable` below) that fails if it drifts; any
/// intentional change must update that test *and* the store schema
/// version together.
pub fn job_key(
    workload: &str,
    iters: i64,
    level: OptLevel,
    max_cycles: u64,
    config: &PipelineConfig,
) -> String {
    format!("{workload}|iters={iters}|{level}|max={max_cycles}|{}", config.content_key())
}

/// The synthetic workload name for an ingested `SCCTRACE1` program:
/// `trace:` plus the trace's 16-hex-digit content digest (see
/// `scc_lang::trace::program_digest`). Registry workload names never
/// contain `:`, so the namespaces cannot collide.
///
/// Trace jobs get no special identity machinery: the digest-derived
/// name flows through [`job_key`] exactly like a registry name, so the
/// result cache, the persistent store, and the `scc-route` hash ring
/// place trace jobs uniformly — two clients submitting byte-identical
/// traces share a cache entry and a shard.
pub fn trace_workload_name(digest: u64) -> String {
    format!("trace:{digest:016x}")
}

/// True if `name` identifies an ingested trace job (see
/// [`trace_workload_name`]) rather than a registry workload.
pub fn is_trace_workload(name: &str) -> bool {
    name.starts_with("trace:")
}

/// A job that could not produce a measurement. Each variant carries
/// enough identity to reproduce the failure — and none of them panic,
/// so a long-running process (the `scc-serve` service) turns every one
/// into a clean protocol error instead of a dead worker.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The workload exhausted its cycle budget without halting.
    BudgetExhausted {
        /// Workload name.
        workload: String,
        /// Optimization level label of the failing job.
        level: OptLevel,
        /// The cycle budget that was exhausted.
        max_cycles: u64,
        /// Stable content key of the pipeline configuration (see
        /// [`PipelineConfig::content_key`]).
        config_key: String,
    },
    /// The requested workload name does not exist in the suite (see
    /// [`resolve_workload`]); client-supplied names reach the runner
    /// unvalidated, so this must be an error, not a panic.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// The run was cancelled by its deadline / cancellation check before
    /// it halted (see [`Runner::run_fresh`]).
    Cancelled {
        /// Workload name.
        workload: String,
        /// Optimization level label of the cancelled job.
        level: OptLevel,
        /// Cycles simulated before the cancellation check tripped.
        cycles_run: u64,
    },
}

impl JobError {
    /// A stable machine-readable discriminant, used as the protocol
    /// error kind by the serving layer.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::BudgetExhausted { .. } => "budget_exhausted",
            JobError::UnknownWorkload { .. } => "unknown_workload",
            JobError::Cancelled { .. } => "deadline_exceeded",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::BudgetExhausted { workload, level, max_cycles, config_key } => write!(
                f,
                "workload `{workload}` did not halt within {max_cycles} cycles at {level} \
                 (config {config_key})"
            ),
            JobError::UnknownWorkload { name } => {
                write!(f, "unknown workload `{name}` (see `se --list-workloads`)")
            }
            JobError::Cancelled { workload, level, cycles_run } => write!(
                f,
                "workload `{workload}` at {level} cancelled after {cycles_run} simulated cycles"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Looks a workload up by name, failing with [`JobError::UnknownWorkload`]
/// instead of forcing callers into `unwrap`. Every path that accepts a
/// workload name from outside the process (service requests, CLI flags,
/// bench sweeps) should resolve through here.
pub fn resolve_workload(name: &str, scale: Scale) -> Result<Workload, JobError> {
    scc_workloads::workload(name, scale)
        .ok_or_else(|| JobError::UnknownWorkload { name: name.to_string() })
}

/// Name-only validation: checks that `name` is a known workload without
/// generating any program. Admission paths (the serving I/O thread
/// rejecting typos before spending a queue slot) must use this rather
/// than [`resolve_workload`] — resolving builds the workload's whole
/// micro-op program, which is milliseconds of work the fast path cannot
/// afford per request.
pub fn validate_workload_name(name: &str) -> Result<(), JobError> {
    if scc_workloads::workload_exists(name) {
        Ok(())
    } else {
        Err(JobError::UnknownWorkload { name: name.to_string() })
    }
}

/// Worker count from the environment: `SCC_JOBS` if set to a positive
/// integer, otherwise [`default_jobs`].
///
/// This is a *binary-edge* helper: the `scc-bench` and `scc-check`
/// entry points call it exactly once at startup and pass the result to
/// [`Runner::with_jobs`]. Library code never reads the environment —
/// [`Runner::new`] uses [`default_jobs`] directly, so embedding the
/// crate in another process can't be perturbed by ambient variables.
pub fn scc_jobs() -> usize {
    std::env::var("SCC_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(default_jobs)
}

/// The environment-free default worker count: the host's available
/// parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One entry of a runner's log: one job a [`Runner::try_run`] batch
/// resolved — a fresh simulation or a cache hit — and the host wall time
/// it took (zero for hits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTiming {
    /// Workload name.
    pub workload: String,
    /// Optimization-level label.
    pub level: &'static str,
    /// Committed micro-ops of the result.
    pub uops: u64,
    /// True when the result came from the runner's LRU or its store
    /// tier instead of a fresh simulation.
    pub cached: bool,
    /// Host wall time of the simulation (zero for cache hits).
    pub wall: Duration,
}

impl RunTiming {
    fn new(r: &SimResult, cached: bool, wall: Duration) -> RunTiming {
        RunTiming {
            workload: r.workload.clone(),
            level: r.level.label(),
            uops: r.stats.committed_uops,
            cached,
            wall,
        }
    }

    /// Host wall-clock seconds the resolution took (0 for cache hits).
    pub fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Simulated micro-ops per host second (0 for cache hits).
    pub fn uops_per_sec(&self) -> f64 {
        let secs = self.wall_secs();
        if secs > 0.0 {
            self.uops as f64 / secs
        } else {
            0.0
        }
    }
}

/// Locks a mutex, recovering the data of a poisoned one. Every lock in
/// this module is poison-tolerant: a panicking job in one worker (or
/// one service request) must not wedge every later request in a
/// long-running process. The protected structures are plain logs and
/// maps whose invariants hold between every individual mutation, so the
/// data a panicking thread left behind is safe to keep using.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Capacity of each runner's result cache, in entries. Each entry holds
/// a full [`SimResult`] (including the final memory image), so an
/// unbounded cache is not an option for a resident service; the figure
/// harnesses need well under this many distinct configurations.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Point-in-time counters of a runner's result cache (see
/// [`Runner::cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries before eviction.
    pub capacity: usize,
    /// Lookups that found a resident result.
    pub hits: u64,
    /// Lookups that missed (and went to the store tier or simulation).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// One resident result plus its [`arch_digest`], computed at most once
/// — by whichever publish or hit first needs it — and shared by every
/// later hit.
struct Resident {
    result: Arc<SimResult>,
    digest: OnceLock<u64>,
}

impl Resident {
    fn new(result: Arc<SimResult>) -> Arc<Resident> {
        Arc::new(Resident { result, digest: OnceLock::new() })
    }

    /// The memoised digest. Callers compute it outside the cache lock:
    /// on a 100K-word image it takes milliseconds.
    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| arch_digest(&self.result))
    }

    /// The reply half of a resolution: the shared result and its digest.
    fn run_one(&self, cached: bool, audit_jsonl: Option<String>) -> RunOne {
        RunOne { result: Arc::clone(&self.result), digest: self.digest(), cached, audit_jsonl }
    }
}

/// The content-keyed result cache: bounded, exact LRU by access tick
/// (evicting the stalest entry on overflow), with hit/miss/eviction
/// accounting. Ticks are unique, so `by_tick` orders the entries by
/// recency and eviction pops its first element in O(log n).
struct ResultCache {
    /// key → (last-use tick, entry).
    map: HashMap<Arc<str>, (u64, Arc<Resident>)>,
    /// last-use tick → key; exactly one element per `map` entry.
    by_tick: BTreeMap<u64, Arc<str>>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            by_tick: BTreeMap::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Moves the entry last used at `old` to the current tick.
    fn retick(by_tick: &mut BTreeMap<u64, Arc<str>>, old: &mut u64, now: u64) {
        let key = by_tick.remove(old).expect("every entry is indexed by its tick");
        *old = now;
        by_tick.insert(now, key);
    }

    /// Looks `key` up, bumping its recency and the hit/miss counters.
    fn get(&mut self, key: &str) -> Option<Arc<Resident>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((last_used, r)) => {
                Self::retick(&mut self.by_tick, last_used, self.tick);
                self.hits += 1;
                Some(Arc::clone(r))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry if the
    /// cache is full. A capacity of zero disables residency entirely.
    fn insert(&mut self, key: &str, r: Arc<Resident>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((last_used, slot)) = self.map.get_mut(key) {
            Self::retick(&mut self.by_tick, last_used, self.tick);
            *slot = r;
            return;
        }
        self.evict_down_to(self.capacity.saturating_sub(1));
        let key: Arc<str> = key.into();
        self.by_tick.insert(self.tick, Arc::clone(&key));
        self.map.insert(key, (self.tick, r));
    }

    /// Evicts least-recently-used entries until at most `target` remain.
    fn evict_down_to(&mut self, target: usize) {
        while self.map.len() > target {
            let (_, stalest) = self.by_tick.pop_first().expect("non-empty cache has a stalest entry");
            self.map.remove(&stalest);
            self.evictions += 1;
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// How often the background compactor wakes to check the segment tiers.
const COMPACTOR_POLL: Duration = Duration::from_millis(200);

/// The persistent result tier: an [`scc_store::Store`] of encoded
/// [`SimResult`]s keyed by the runner's content key, sitting beneath the
/// in-memory LRU.
///
/// * **Write-through** — every freshly simulated result is appended to
///   the store (see [`Runner::with_store`]); `put` does not fsync, so a
///   crash can lose the page-cache tail but `kill -9` cannot (the
///   service's drain path calls [`StoreTier::flush`] before exit).
/// * **Read-through** — an LRU miss probes the store before simulating;
///   a hit decodes and is promoted back into the LRU.
/// * **Staleness** — segments are stamped with
///   [`persist::SCHEMA_VERSION`] and the engine revision; recovery
///   refuses mismatched segments wholesale, so a warm start can never
///   serve results encoded by a different codec or simulator build.
/// * **Compaction** — a detached background thread periodically merges
///   sealed segments (newest record per key wins); it holds only a
///   [`Weak`] reference and exits when the last tier handle drops.
///
/// All methods are `&self` and internally locked, so one tier is shared
/// across the service's worker pool behind an [`Arc`].
pub struct StoreTier {
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    decode_rejects: AtomicU64,
    preloaded: AtomicU64,
    io_errors: AtomicU64,
}

impl std::fmt::Debug for StoreTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreTier")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("writes", &self.writes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn compactor_loop(tier: Weak<StoreTier>) {
    loop {
        std::thread::sleep(COMPACTOR_POLL);
        // Upgrade per iteration: when the last real handle drops, the
        // upgrade fails and the thread exits — no shutdown signal needed.
        let Some(tier) = tier.upgrade() else { return };
        let mut store = lock_unpoisoned(&tier.store);
        if store.needs_compaction() {
            // Best-effort: the next poll tries again.
            let _ = store.maybe_compact();
        }
    }
}

impl StoreTier {
    /// Opens (or creates) the persistent tier at `dir`, running
    /// checksummed recovery, stamping new segments with
    /// [`persist::SCHEMA_VERSION`] and [`git_rev`], and starting the
    /// background compactor.
    pub fn open(dir: &Path) -> std::io::Result<Arc<StoreTier>> {
        StoreTier::open_with(dir, persist::SCHEMA_VERSION, &git_rev())
    }

    /// [`StoreTier::open`] with an explicit schema version and engine
    /// revision — the staleness tests use this to prove that bumping
    /// either invalidates every warm hit.
    pub fn open_with(
        dir: &Path,
        schema_version: u32,
        engine_rev: &str,
    ) -> std::io::Result<Arc<StoreTier>> {
        let store = Store::open(dir, StoreConfig::new(schema_version, engine_rev))?;
        let tier = Arc::new(StoreTier {
            store: Mutex::new(store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            decode_rejects: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&tier);
        // Detached on purpose: the loop owns no real handle and dies with
        // the tier. Spawn failure only loses background compaction.
        let _ = std::thread::Builder::new()
            .name("scc-store-compact".into())
            .spawn(move || compactor_loop(weak));
        Ok(tier)
    }

    /// Looks a content key up in the store, decoding on hit. Any failure
    /// — absent key, I/O error, CRC reject inside the store, stale or
    /// damaged encoding — degrades to `None` (a miss), never an error.
    pub fn get(&self, key: &str) -> Option<Arc<SimResult>> {
        // The guard is a temporary: the store lock is released at the end
        // of this statement, before decoding.
        let looked_up = lock_unpoisoned(&self.store).get(key);
        let bytes = match looked_up {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match persist::decode_result(&bytes) {
            Some(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(result))
            }
            None => {
                // Bytes survived the store's CRC but don't decode: not
                // this codec's output. Count it loudly and miss.
                self.decode_rejects.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends one result under its content key. Best-effort: an I/O
    /// error is counted (`runner.store.io_errors`) and dropped — a full
    /// disk must not fail the simulation that produced the result.
    pub fn put(&self, key: &str, result: &SimResult) {
        let bytes = persist::encode_result(result);
        match lock_unpoisoned(&self.store).put(key, &bytes) {
            Ok(()) => self.writes.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.io_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Fsyncs the active segment — the drain path's durability barrier.
    pub fn flush(&self) -> std::io::Result<()> {
        lock_unpoisoned(&self.store).sync()
    }

    /// The tier's counters as registry metrics (`runner.store.*`), in the
    /// same shape as [`Runner::cache_metrics`]; the service's `stats` verb
    /// reports these alongside the LRU's.
    pub fn metrics(&self) -> Vec<Metric> {
        let (stats, recovery, segments) = {
            let s = lock_unpoisoned(&self.store);
            (s.stats(), s.recovery(), s.segment_count())
        };
        let counter = |name: &str, v: u64| Metric {
            name: name.to_string(),
            value: MetricValue::Counter(v),
        };
        vec![
            counter("runner.store.hits", self.hits.load(Ordering::Relaxed)),
            counter("runner.store.misses", self.misses.load(Ordering::Relaxed)),
            counter("runner.store.writes", self.writes.load(Ordering::Relaxed)),
            counter("runner.store.decode_rejects", self.decode_rejects.load(Ordering::Relaxed)),
            counter("runner.store.preloaded", self.preloaded.load(Ordering::Relaxed)),
            counter("runner.store.io_errors", self.io_errors.load(Ordering::Relaxed)),
            counter("runner.store.segments", segments as u64),
            counter("runner.store.bytes_written", stats.bytes_written),
            counter("runner.store.compactions", stats.compactions),
            counter("runner.store.compaction_dups_dropped", stats.compaction_dups_dropped),
            counter("runner.store.recovered_records", recovery.records_indexed),
            counter("runner.store.recovery_corrupt_skipped", recovery.corrupt_records_skipped),
            counter("runner.store.recovery_torn_truncations", recovery.torn_truncations),
            counter(
                "runner.store.recovery_invalidated_segments",
                recovery.invalidated_segments(),
            ),
        ]
    }

    /// The recovery report of the open that created this tier.
    pub fn recovery(&self) -> RecoveryReport {
        lock_unpoisoned(&self.store).recovery()
    }

    /// Counters of the underlying segment store.
    pub fn store_stats(&self) -> StoreStats {
        lock_unpoisoned(&self.store).stats()
    }
}

/// Runs one job to completion (the same semantics as
/// [`crate::run_workload`], but from a raw config), optionally bounded
/// by a wall-clock deadline and optionally with the SCC decision audit
/// log attached.
///
/// A workload that exhausts its cycle budget (or trips its deadline)
/// returns a [`JobError`] instead of panicking: a panic inside a scoped
/// worker would abort the whole pool mid-run, whereas the error
/// propagates to the submitting thread with the job's identity attached.
fn execute(
    job: &Job<'_>,
    deadline: Option<Instant>,
    audit: bool,
) -> Result<(SimResult, Option<String>), JobError> {
    let mut pipe = Pipeline::new(&job.workload.program, job.config.clone());
    if let Some(deadline) = deadline {
        pipe.set_cancel_check(Box::new(move || Instant::now() >= deadline));
    }
    let audit_log = if audit {
        let log = shared(AuditLog::new());
        pipe.attach_sink(log.clone() as SharedSink);
        Some(log)
    } else {
        None
    };
    let res = pipe.run(job.max_cycles);
    match res.outcome {
        RunOutcome::Halted => {}
        RunOutcome::Cancelled => {
            return Err(JobError::Cancelled {
                workload: job.workload.name.to_string(),
                level: job.level,
                cycles_run: res.stats.cycles,
            })
        }
        RunOutcome::CyclesExhausted => {
            return Err(JobError::BudgetExhausted {
                workload: job.workload.name.to_string(),
                level: job.level,
                max_cycles: job.max_cycles,
                config_key: job.config.content_key(),
            })
        }
    }
    let energy = EnergyModel::icelake().energy(&energy_events(&res.stats));
    let audit_jsonl = audit_log.map(|a| a.borrow().to_jsonl());
    Ok((
        SimResult {
            workload: job.workload.name.to_string(),
            level: job.level,
            stats: res.stats,
            energy,
            snapshot: res.snapshot,
            halted: true,
        },
        audit_jsonl,
    ))
}

/// Fans `items` out over up to `workers` scoped threads, applying `f`
/// to each and returning the results in item order regardless of which
/// worker finished first. This is the pool underneath [`Runner::run`],
/// exported so other harnesses (the `scc-check` differential driver)
/// share one worker-pool implementation.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, items.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            let f = &f;
            let next = &next;
            let done = &done;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                done.lock().unwrap().push((i, r));
            });
        }
    });
    let mut done = done.into_inner().unwrap();
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// What every clone of one [`Runner`] shares: its result cache and its
/// log. Neither lock is held while the other is taken, nor across a
/// store-tier call or a simulation.
struct RunnerState {
    cache: Mutex<ResultCache>,
    log: Mutex<Vec<RunTiming>>,
}

/// The experiment runner: a worker pool plus its own result cache and
/// log, optionally backed by a persistent [`StoreTier`].
///
/// Clones share the cache and the log (the service's workers each hold
/// one); a runner from [`Runner::new`] or [`Runner::with_jobs`] starts
/// with an empty cache and an empty log.
///
/// Every resolution takes one of two paths: a *probe* (LRU, then the
/// store tier, promoting a store hit into the LRU) or an execution
/// followed by a *publish* (LRU insert, store write-through).
/// [`Runner::try_run`] and [`Runner::try_cached`] probe;
/// [`Runner::try_run`] and [`Runner::run_fresh`] publish. Only
/// [`Runner::try_run`] writes the log, one entry per distinct job it
/// resolves, so the log grows with the batches submitted and never with
/// the requests a resident service answers.
#[derive(Clone)]
pub struct Runner {
    jobs: usize,
    store: Option<Arc<StoreTier>>,
    state: Arc<RunnerState>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("jobs", &self.jobs)
            .field("store", &self.store)
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl Default for Runner {
    fn default() -> Runner {
        Runner::new()
    }
}

impl Runner {
    /// The standard runner: one worker per available core, an empty
    /// cache. Environment-free — binaries honoring `SCC_JOBS` resolve it
    /// once via [`scc_jobs`] and use [`Runner::with_jobs`].
    pub fn new() -> Runner {
        Runner::with_jobs(default_jobs())
    }

    /// A runner with an explicit worker count and an empty cache.
    pub fn with_jobs(jobs: usize) -> Runner {
        Runner {
            jobs: jobs.max(1),
            store: None,
            state: Arc::new(RunnerState {
                cache: Mutex::new(ResultCache::new(DEFAULT_CACHE_CAPACITY)),
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Attaches a persistent tier beneath the LRU: fresh results are
    /// written through to it, and an LRU miss probes it before paying
    /// for a simulation.
    pub fn with_store(mut self, store: Arc<StoreTier>) -> Runner {
        self.store = Some(store);
        self
    }

    /// The attached persistent tier, if any.
    pub fn store_tier(&self) -> Option<&Arc<StoreTier>> {
        self.store.as_ref()
    }

    /// Worker count this runner fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch of jobs, returning results in job order.
    ///
    /// # Panics
    ///
    /// Panics on the submitting thread if any job fails to halt within
    /// its cycle budget, naming the workload and config; use
    /// [`Runner::try_run`] to handle the failure instead.
    pub fn run(&self, jobs: &[Job<'_>]) -> Vec<Arc<SimResult>> {
        self.try_run(jobs).unwrap_or_else(|e| panic!("simulation job failed: {e}"))
    }

    /// Runs a batch of jobs, returning results in job order.
    ///
    /// Each distinct key is probed once; misses are simulated on the
    /// worker pool and published in submission order. Results land back
    /// in their submission slots, so output ordering (and therefore any
    /// report built from it) is independent of worker scheduling. The
    /// batch then appends one [`RunTiming`] per distinct key to the
    /// runner's log: the hits in probe order, then the fresh runs in
    /// submission order.
    ///
    /// A job whose workload does not halt within its cycle budget does
    /// not panic inside the pool (which would abort every in-flight
    /// worker); the failure propagates here as a [`JobError`] carrying
    /// the workload name and full config key. Successfully simulated
    /// jobs from the same batch are still published.
    pub fn try_run(&self, jobs: &[Job<'_>]) -> Result<Vec<Arc<SimResult>>, JobError> {
        let keys: Vec<String> = jobs.iter().map(Job::key).collect();
        let mut out: Vec<Option<Arc<SimResult>>> = vec![None; jobs.len()];

        // Probe each job and collect the unique misses; a later job with
        // a missed key waits for that key's simulation.
        let mut misses: Vec<usize> = Vec::new();
        let mut simulated_by: HashMap<&str, usize> = HashMap::new();
        let mut log: Vec<RunTiming> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if simulated_by.contains_key(key.as_str()) {
                continue;
            }
            match self.probe(key) {
                Some(r) => {
                    log.push(RunTiming::new(&r.result, true, Duration::ZERO));
                    out[i] = Some(Arc::clone(&r.result));
                }
                None => {
                    simulated_by.insert(key.as_str(), i);
                    misses.push(i);
                }
            }
        }

        // Fan the misses out over the pool; each simulation is
        // independent and results come back in submission order.
        let computed = parallel_map(self.jobs, &misses, |&i| {
            let start = Instant::now();
            let r = execute(&jobs[i], None, false).map(|(r, _)| r);
            (r, start.elapsed())
        });

        // Publish in submission order. The good results of a batch with
        // one bad job are still published; the first error (by
        // submission order) propagates after.
        let mut first_err: Option<JobError> = None;
        for (&i, (res, wall)) in misses.iter().zip(computed) {
            match res {
                Ok(r) => {
                    let r = Arc::clone(&self.publish(&keys[i], r).result);
                    log.push(RunTiming::new(&r, false, wall));
                    out[i] = Some(r);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        lock_unpoisoned(&self.state.log).append(&mut log);
        if let Some(e) = first_err {
            return Err(e);
        }
        for i in 0..out.len() {
            if out[i].is_none() {
                out[i] = out[simulated_by[keys[i].as_str()]].clone();
            }
        }
        Ok(out.into_iter().map(|r| r.expect("every job resolved")).collect())
    }

    /// Executes `job` unconditionally — no probe — and publishes the
    /// result to the LRU and the store tier: the miss half of
    /// one `scc-serve` worker's path, after [`Runner::try_cached`]
    /// missed. The returned digest is memoised on the published entry,
    /// so later hits on it do not recompute it.
    ///
    /// * `deadline` — wall-clock bound; the cancellation check threaded
    ///   into the simulation loop trips at the first 4096-cycle poll past
    ///   it and the job fails with [`JobError::Cancelled`]. Cancelled
    ///   runs publish nothing (their stats are partial), and an
    ///   already-expired deadline cancels before simulating a cycle.
    /// * `audit` — attach an [`AuditLog`] sink to the run and return its
    ///   decisions as JSON Lines. Audit is a property of an *execution*,
    ///   not a result, so audit requests skip the probe; the observability
    ///   layer guarantees an attached sink does not perturb the
    ///   simulation.
    pub fn run_fresh(
        &self,
        job: &Job<'_>,
        deadline: Option<Instant>,
        audit: bool,
    ) -> Result<RunOne, JobError> {
        let (result, audit_jsonl) = execute(job, deadline, audit)?;
        Ok(self.publish(&job.key(), result).run_one(false, audit_jsonl))
    }

    /// Probes the result tiers (LRU, then the persistent store,
    /// promoting a store hit into the LRU) by canonical key alone,
    /// without resolving a workload or building its program.
    ///
    /// This is the serving fast path: [`job_key`] is a pure string
    /// computation over the request fields, so a cache hit costs a map
    /// lookup instead of a program build. Callers that miss execute via
    /// [`Runner::run_fresh`], so the miss is counted exactly once.
    ///
    /// A hit costs the same whatever the result's size: the digest comes
    /// from the entry, computed once on its first use, and a hit writes
    /// no log.
    ///
    /// The second parameter is ignored. It remains only because the
    /// benchmark package (`perfbench/`) calls `try_cached(key, None)`;
    /// it goes when that caller changes.
    pub fn try_cached(&self, key: &str, _request: Option<&str>) -> Option<RunOne> {
        Some(self.probe(key)?.run_one(true, None))
    }

    /// Decodes every live record of the attached store tier into this
    /// runner's LRU (the `scc-serve` `warm` verb). Returns how many
    /// entries were promoted — 0 without a store; undecodable values are
    /// counted as the tier's `decode_rejects` and skipped.
    pub fn warm_from_store(&self) -> std::io::Result<usize> {
        let Some(tier) = &self.store else { return Ok(0) };
        let live = lock_unpoisoned(&tier.store).snapshot_live()?;
        let mut promoted = 0usize;
        for (key, bytes) in live {
            match persist::decode_result(&bytes) {
                Some(result) => {
                    lock_unpoisoned(&self.state.cache).insert(&key, Resident::new(Arc::new(result)));
                    promoted += 1;
                }
                None => {
                    tier.decode_rejects.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        tier.preloaded.fetch_add(promoted as u64, Ordering::Relaxed);
        Ok(promoted)
    }

    /// Snapshot of this runner's cache occupancy and hit/miss/eviction
    /// counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.state.cache).stats()
    }

    /// The cache counters as registry metrics (`runner.cache.*`), in the
    /// same [`Metric`] shape as [`scc_pipeline::PipelineStats::metrics`] —
    /// the service's `stats` verb reports these alongside its queue gauges.
    pub fn cache_metrics(&self) -> Vec<Metric> {
        let s = self.cache_stats();
        let counter = |name: &str, v: u64| Metric {
            name: name.to_string(),
            value: MetricValue::Counter(v),
        };
        vec![
            counter("runner.cache.len", s.len as u64),
            counter("runner.cache.capacity", s.capacity as u64),
            counter("runner.cache.hits", s.hits),
            counter("runner.cache.misses", s.misses),
            counter("runner.cache.evictions", s.evictions),
        ]
    }

    /// Snapshot of this runner's log, oldest first: every job its
    /// [`Runner::try_run`] batches resolved, fresh and cached. Feed it
    /// to [`crate::report::throughput_json`].
    pub fn timings(&self) -> Vec<RunTiming> {
        lock_unpoisoned(&self.state.log).clone()
    }

    /// Writes this runner's log as throughput JSON (see
    /// [`crate::report::throughput_json`]) to `path`, creating parent
    /// directories as needed and tagging the snapshot with the schema
    /// version and [`git_rev`]. Returns the rendered JSON.
    pub fn write_throughput_json(&self, path: impl AsRef<Path>) -> std::io::Result<String> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let json = crate::report::throughput_json(&self.timings(), &git_rev());
        let mut f = std::fs::File::create(path)?;
        f.write_all(json.as_bytes())?;
        Ok(json)
    }

    /// The probe: LRU, then the store tier (promoting a hit into the
    /// LRU).
    fn probe(&self, key: &str) -> Option<Arc<Resident>> {
        let lru = lock_unpoisoned(&self.state.cache).get(key);
        if lru.is_some() {
            return lru;
        }
        let r = Resident::new(self.store.as_ref()?.get(key)?);
        lock_unpoisoned(&self.state.cache).insert(key, Arc::clone(&r));
        Some(r)
    }

    /// The publish: LRU insert, then store write-through.
    fn publish(&self, key: &str, result: SimResult) -> Arc<Resident> {
        let resident = Resident::new(Arc::new(result));
        lock_unpoisoned(&self.state.cache).insert(key, Arc::clone(&resident));
        if let Some(tier) = &self.store {
            tier.put(key, &resident.result);
        }
        resident
    }
}

/// Outcome of [`Runner::run_fresh`] and [`Runner::try_cached`]: the
/// simulation result plus how it was produced.
#[derive(Clone, Debug)]
pub struct RunOne {
    /// The simulation result (shared with the cache).
    pub result: Arc<SimResult>,
    /// [`arch_digest`] of `result`, memoised on its cache entry.
    pub digest: u64,
    /// True when the result came from the runner's cache or store tier.
    pub cached: bool,
    /// The run's SCC decision audit log (JSON Lines), present only when
    /// auditing was requested (audited runs are always fresh).
    pub audit_jsonl: Option<String>,
}

/// The source revision to tag throughput snapshots with: the
/// `SCC_GIT_REV` environment variable when set (CI pins the exact value),
/// otherwise `git rev-parse --short=12 HEAD`, otherwise `"unknown"`
/// (tarball builds without git).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("SCC_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_workloads::{workload, Scale};

    #[test]
    fn scc_jobs_is_positive() {
        assert!(scc_jobs() >= 1);
    }

    #[test]
    fn batch_results_are_in_job_order() {
        let scale = Scale::custom(200);
        let ws: Vec<_> =
            ["exchange", "freqmine", "leela"].iter().map(|n| workload(n, scale).unwrap()).collect();
        let jobs: Vec<Job> = ws
            .iter()
            .map(|w| Job::new(w, &SimOptions::new(OptLevel::Baseline)))
            .collect();
        let rs = Runner::with_jobs(3).run(&jobs);
        assert_eq!(rs.len(), 3);
        for (w, r) in ws.iter().zip(&rs) {
            assert_eq!(r.workload, w.name);
        }
    }

    #[test]
    fn duplicate_jobs_in_one_batch_share_a_simulation() {
        let scale = Scale::custom(210);
        let w = workload("exchange", scale).unwrap();
        let opts = SimOptions::new(OptLevel::Baseline);
        let jobs = vec![Job::new(&w, &opts), Job::new(&w, &opts)];
        let runner = Runner::with_jobs(1);
        let rs = runner.run(&jobs);
        assert_eq!(rs[0].stats, rs[1].stats);
        assert!(Arc::ptr_eq(&rs[0], &rs[1]), "one simulation serves both slots");
        let s = runner.cache_stats();
        assert_eq!((s.len, s.hits, s.misses), (1, 0, 1), "the key is probed once");
        assert_eq!(runner.timings().len(), 1, "one fresh run logged");
    }

    #[test]
    fn cached_results_match_fresh_runs_exactly() {
        let scale = Scale::custom(220);
        let w = workload("freqmine", scale).unwrap();
        let opts = SimOptions::new(OptLevel::Full);
        let runner = Runner::with_jobs(2);
        let first = runner.run(&[Job::new(&w, &opts)]);
        let second = runner.run(&[Job::new(&w, &opts)]);
        assert!(Arc::ptr_eq(&first[0], &second[0]), "second run must be a cache hit");
        let s = runner.cache_stats();
        assert_eq!((s.len, s.hits, s.misses, s.evictions), (1, 1, 1, 0));
        let fresh = crate::run_workload(&w, &opts);
        assert_eq!(first[0].stats, fresh.stats);
        assert_eq!(first[0].snapshot, fresh.snapshot);
        assert_eq!(first[0].energy, fresh.energy);
    }

    #[test]
    fn parallel_equals_serial() {
        let scale = Scale::custom(230);
        let ws: Vec<_> = ["exchange", "gcc", "lbm", "vips"]
            .iter()
            .map(|n| workload(n, scale).unwrap())
            .collect();
        fn build(ws: &[Workload]) -> Vec<Job<'_>> {
            ws.iter()
                .flat_map(|w| {
                    [OptLevel::Baseline, OptLevel::Full]
                        .into_iter()
                        .map(move |l| Job::new(w, &SimOptions::new(l)))
                })
                .collect()
        }
        let serial = Runner::with_jobs(1).run(&build(&ws));
        let parallel = Runner::with_jobs(1).run(&build(&ws)); // a new runner: fresh again
        let wide = Runner::with_jobs(4).run(&build(&ws));
        for ((a, b), c) in serial.iter().zip(&parallel).zip(&wide) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.stats, c.stats);
            assert_eq!(a.snapshot, c.snapshot);
        }
    }

    #[test]
    fn job_keys_are_explicit_and_distinct() {
        let scale = Scale::custom(250);
        let w = workload("exchange", scale).unwrap();
        let opts = SimOptions::new(OptLevel::Baseline);
        let a = Job::new(&w, &opts);
        let b = Job::new(&w, &opts);
        assert_eq!(a.key(), b.key(), "identical jobs share a key");
        let mut c = Job::new(&w, &opts);
        c.config.core.rob_entries = 16;
        assert_ne!(a.key(), c.key(), "a config edit must change the cache key");
        let mut d = Job::new(&w, &opts);
        d.max_cycles = 123;
        assert_ne!(a.key(), d.key(), "the cycle budget is part of the key");
    }

    /// The canonical key encoding must not drift: the in-memory cache,
    /// the persistent store, and the `scc-route` hash ring all identify
    /// results by this exact string. If this test fails, the encoding
    /// changed — that invalidates every `scc-store` record and remaps
    /// every job across shards, so it must be a deliberate decision:
    /// update this golden string *and* bump `persist::SCHEMA_VERSION`
    /// in the same change.
    #[test]
    fn key_encoding_is_stable() {
        let opts = SimOptions::new(OptLevel::Full);
        let got = job_key("freqmine", 800, opts.level, opts.max_cycles, &opts.to_pipeline_config());
        let want = "freqmine|iters=800|full-scc|max=400000000|\
                    core:6,5,6,8,352,140,160,4,2,1,2,5,12,3,18,4,5,true;\
                    l1i:32768,8,64,lru;l1d:49152,12,64,lru;l2:524288,8,64,lru;\
                    l3:8388608,16,64,rand;memlat:5,14,42,200;\
                    fe:scc;unopt:24,8,6,3,8,28;opt:24,4,6,3,8,3;\
                    opts:true,true,true,true,true,true,true,false;scc:5,4,2,2,18,1,none,6;\
                    bp:tage;vp:eves;fuw:64;vpf:none;ff:true";
        assert_eq!(got, want, "canonical job-key encoding drifted");

        // The baseline frontend serializes through a different arm;
        // pin it too so both shapes of the key are covered.
        let base = SimOptions::new(OptLevel::Baseline);
        let got = job_key("mcf", 1000, base.level, base.max_cycles, &base.to_pipeline_config());
        let want = "mcf|iters=1000|baseline|max=400000000|\
                    core:6,5,6,8,352,140,160,4,2,1,2,5,12,3,18,4,5,true;\
                    l1i:32768,8,64,lru;l1d:49152,12,64,lru;l2:524288,8,64,lru;\
                    l3:8388608,16,64,rand;memlat:5,14,42,200;\
                    fe:baseline;uc:48,8,6,3,8,28;bp:tage;vp:eves;fuw:64;vpf:none;ff:true";
        assert_eq!(got, want, "canonical job-key encoding drifted (baseline frontend)");

        // Trace-ingest jobs use the same canonical encoding with a
        // digest-derived name; pin that shape too so ring placement and
        // store records for `run-trace` jobs stay stable.
        let opts = SimOptions::new(OptLevel::Full);
        let name = trace_workload_name(0x00ab_cdef_0123_4567);
        let got = job_key(&name, 1, opts.level, opts.max_cycles, &opts.to_pipeline_config());
        let want = "trace:00abcdef01234567|iters=1|full-scc|max=400000000|\
                    core:6,5,6,8,352,140,160,4,2,1,2,5,12,3,18,4,5,true;\
                    l1i:32768,8,64,lru;l1d:49152,12,64,lru;l2:524288,8,64,lru;\
                    l3:8388608,16,64,rand;memlat:5,14,42,200;\
                    fe:scc;unopt:24,8,6,3,8,28;opt:24,4,6,3,8,3;\
                    opts:true,true,true,true,true,true,true,false;scc:5,4,2,2,18,1,none,6;\
                    bp:tage;vp:eves;fuw:64;vpf:none;ff:true";
        assert_eq!(got, want, "canonical trace-job key encoding drifted");
        assert!(is_trace_workload(&name));
        assert!(!is_trace_workload("freqmine"));

        // And `Job::key` must be exactly the free function over the
        // job's own fields — no second serialization path.
        let w = workload("freqmine", Scale::custom(800)).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Full));
        assert_eq!(
            job.key(),
            job_key("freqmine", 800, job.level, job.max_cycles, &job.config)
        );
    }

    #[test]
    fn budget_exhaustion_propagates_as_error_not_pool_abort() {
        let scale = Scale::custom(260);
        let ws: Vec<_> =
            ["exchange", "freqmine"].iter().map(|n| workload(n, scale).unwrap()).collect();
        let opts = SimOptions::new(OptLevel::Baseline);
        let mut bad = Job::new(&ws[0], &opts);
        bad.max_cycles = 2; // cannot halt in two cycles
        let good = Job::new(&ws[1], &opts);
        let runner = Runner::with_jobs(2);
        let err = runner.try_run(&[bad, good.clone()]).unwrap_err();
        match &err {
            JobError::BudgetExhausted { workload, max_cycles, .. } => {
                assert_eq!(workload, "exchange");
                assert_eq!(*max_cycles, 2);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(err.kind(), "budget_exhausted");
        let msg = err.to_string();
        assert!(msg.contains("did not halt within 2 cycles"), "{msg}");
        assert!(msg.contains("core:"), "error must name the config: {msg}");
        // The good job from the poisoned batch still completed and was
        // cached; a retry without the bad job succeeds immediately.
        let again = runner.try_run(&[good]).expect("good job survives the bad batch");
        assert_eq!(again[0].workload, "freqmine");
        assert_eq!(runner.cache_stats().hits, 1, "the retry is a hit");
        let log = runner.timings();
        assert_eq!(log.len(), 2, "failed runs are not logged");
        assert!(log.iter().all(|t| t.workload == "freqmine"));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &empty, |&x: &u64| x).is_empty());
    }

    #[test]
    fn timings_record_fresh_and_cached_runs() {
        let scale = Scale::custom(240);
        let w = workload("leela", scale).unwrap();
        let opts = SimOptions::new(OptLevel::Baseline);
        let runner = Runner::with_jobs(1);
        runner.run(&[Job::new(&w, &opts)]);
        runner.run(&[Job::new(&w, &opts)]);
        let log = runner.timings();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|t| t.workload == "leela" && t.uops > 0));
        assert!(!log[0].cached, "fresh run recorded");
        assert!(log[1].cached, "cache hit recorded");
    }

    #[test]
    fn runner_new_is_environment_free() {
        // `Runner::new` must not consult SCC_JOBS — only the binary-edge
        // helper does.
        assert_eq!(Runner::new().jobs(), default_jobs());
    }

    fn dummy_result(name: &str) -> Arc<Resident> {
        Resident::new(Arc::new(SimResult {
            workload: name.to_string(),
            level: OptLevel::Baseline,
            stats: Default::default(),
            energy: Default::default(),
            snapshot: scc_isa::ArchSnapshot {
                regs: [0; scc_isa::NUM_REGS],
                cc: Default::default(),
                mem: Vec::new(),
            },
            halted: true,
        }))
    }

    /// The eviction model the indexed cache must reproduce: the same
    /// tick accounting, with the stalest entry found by a full scan.
    struct ScanModel {
        map: HashMap<String, u64>,
        tick: u64,
        capacity: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ScanModel {
        fn get(&mut self, key: &str) -> bool {
            self.tick += 1;
            match self.map.get_mut(key) {
                Some(t) => {
                    *t = self.tick;
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, key: &str) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if !self.map.contains_key(key) {
                self.evict_down_to(self.capacity.saturating_sub(1));
            }
            self.map.insert(key.to_string(), self.tick);
        }

        fn evict_down_to(&mut self, target: usize) {
            while self.map.len() > target {
                let stalest =
                    self.map.iter().min_by_key(|(_, t)| **t).map(|(k, _)| k.clone()).unwrap();
                self.map.remove(&stalest);
                self.evictions += 1;
            }
        }
    }

    #[test]
    fn indexed_eviction_matches_the_full_scan_model() {
        let mut rng = scc_isa::rand_prog::SplitMix64::new(0x5eed_cace);
        for round in 0..4 {
            let capacity = [1usize, 3, 8, 16][round];
            let mut cache = ResultCache::new(capacity);
            let mut model = ScanModel {
                map: HashMap::new(),
                tick: 0,
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            };
            for step in 0..4000 {
                let key = format!("k{}", rng.next_u64() % 24);
                match rng.next_u64() % 10 {
                    0..=4 => {
                        let got = cache.get(&key).map(|r| r.result.workload.clone());
                        let want = model.get(&key);
                        assert_eq!(got.is_some(), want, "round {round} step {step}: get {key}");
                        if let Some(name) = got {
                            assert_eq!(name, key, "a hit returns that key's result");
                        }
                    }
                    5..=8 => {
                        cache.insert(&key, dummy_result(&key));
                        model.insert(&key);
                    }
                    _ => {
                        // A capacity shrink (or regrow).
                        let to = (rng.next_u64() % (capacity as u64 + 1)) as usize;
                        cache.capacity = to;
                        cache.evict_down_to(to);
                        model.capacity = to;
                        model.evict_down_to(to);
                    }
                }
                let s = cache.stats();
                assert_eq!(
                    (s.len, s.hits, s.misses, s.evictions),
                    (model.map.len(), model.hits, model.misses, model.evictions),
                    "round {round} step {step}: counters diverged"
                );
                assert_eq!(cache.by_tick.len(), cache.map.len(), "one index entry per key");
            }
            let mut resident: Vec<&str> = cache.map.keys().map(|k| &**k).collect();
            let mut want: Vec<&str> = model.map.keys().map(String::as_str).collect();
            resident.sort_unstable();
            want.sort_unstable();
            assert_eq!(resident, want, "round {round}: the same keys stay resident");
        }
    }

    #[test]
    fn result_cache_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert("a", dummy_result("a"));
        c.insert("b", dummy_result("b"));
        assert!(c.get("a").is_some(), "touch `a` so `b` is stalest");
        c.insert("c", dummy_result("c"));
        let s = c.stats();
        assert_eq!((s.len, s.capacity, s.evictions), (2, 2, 1));
        assert!(c.get("b").is_none(), "`b` was least recently used");
        assert!(c.get("a").is_some() && c.get("c").is_some());
        assert_eq!(c.stats().hits, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn result_cache_capacity_zero_disables_residency() {
        let mut c = ResultCache::new(0);
        c.insert("a", dummy_result("a"));
        assert!(c.get("a").is_none());
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn result_cache_reinsert_does_not_evict() {
        let mut c = ResultCache::new(2);
        c.insert("a", dummy_result("a"));
        c.insert("b", dummy_result("b"));
        c.insert("a", dummy_result("a"));
        let s = c.stats();
        assert_eq!((s.len, s.evictions), (2, 0), "overwrite needs no room");
    }

    #[test]
    fn runner_state_survives_a_poisoning_panic() {
        // A panicking thread holding the runner's locks poisons them; a
        // long-running service must shrug that off, not wedge forever.
        let runner = Runner::with_jobs(1);
        let state = Arc::clone(&runner.state);
        let _ = std::thread::spawn(move || {
            let _cache = state.cache.lock().unwrap_or_else(|p| p.into_inner());
            let _log = state.log.lock().unwrap_or_else(|p| p.into_inner());
            panic!("poison the runner's locks");
        })
        .join();
        assert!(runner.state.cache.is_poisoned() && runner.state.log.is_poisoned());
        assert_eq!(runner.cache_stats().len, 0); // must not panic
        assert!(runner.timings().is_empty());
        let scale = Scale::custom(280);
        let w = workload("exchange", scale).unwrap();
        let r = runner
            .try_run(&[Job::new(&w, &SimOptions::new(OptLevel::Baseline))])
            .expect("runner works after a poisoning panic");
        assert_eq!(r[0].workload, "exchange");
        assert_eq!(runner.cache_stats().len, 1);
        assert_eq!(runner.timings().len(), 1);
    }

    #[test]
    fn runners_share_results_only_through_clones() {
        let w = workload("exchange", Scale::custom(285)).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Baseline));
        let key = job.key();
        let first = Runner::with_jobs(1);
        let computed = first.run(std::slice::from_ref(&job));

        // A second runner has its own, empty cache and log.
        let second = Runner::with_jobs(1);
        assert!(second.try_cached(&key, None).is_none(), "a new runner starts cold");
        let cold = CacheStats { capacity: DEFAULT_CACHE_CAPACITY, misses: 1, ..Default::default() };
        assert_eq!(second.cache_stats(), cold);
        assert!(second.timings().is_empty());

        // A clone shares the first runner's cache and log.
        let clone = first.clone();
        let hit = clone.try_cached(&key, None).expect("a clone shares the cache");
        assert!(hit.cached && Arc::ptr_eq(&hit.result, &computed[0]));
        let warm = CacheStats { len: 1, hits: 1, ..cold };
        assert_eq!(first.cache_stats(), warm);
        clone.run(&[job]);
        let log = first.timings();
        assert_eq!(log.iter().map(|t| t.cached).collect::<Vec<_>>(), [false, true]);
    }

    #[test]
    fn resolve_workload_is_fallible() {
        let err = resolve_workload("quantum-doom", Scale::custom(100)).unwrap_err();
        assert_eq!(err.kind(), "unknown_workload");
        assert!(err.to_string().contains("quantum-doom"));
        assert!(resolve_workload("freqmine", Scale::custom(100)).is_ok());
    }

    /// One `scc-serve` worker's path: a plain request probes by key
    /// first; a miss, or an audit request, simulates.
    fn try_run_one(runner: &Runner, job: &Job<'_>, audit: bool) -> RunOne {
        let hit = if audit { None } else { runner.try_cached(&job.key(), None) };
        hit.unwrap_or_else(|| runner.run_fresh(job, None, audit).unwrap())
    }

    /// The serving path writes no log: a miss resolved by `run_fresh`
    /// and the hits after it leave `timings()` as it was, and only a
    /// `try_run` batch appends, one entry per job.
    #[test]
    fn only_batches_write_the_log() {
        let scale = Scale::custom(290);
        let w = workload("leela", scale).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Full));
        let runner = Runner::with_jobs(1);
        let first = try_run_one(&runner, &job, false);
        assert!(!first.cached);
        let second = try_run_one(&runner, &job, false);
        assert!(second.cached, "second identical request is a hit");
        assert!(Arc::ptr_eq(&first.result, &second.result));
        assert!(runner.timings().is_empty(), "neither the miss nor the hit logged");
        runner.run(&[job]);
        let log = runner.timings();
        assert_eq!(log.len(), 1, "the batch logged its one job");
        assert_eq!((log[0].workload.as_str(), log[0].level), ("leela", "full-scc"));
        assert_eq!((log[0].cached, log[0].wall), (true, Duration::ZERO));
        assert_eq!(log[0].uops, first.result.stats.committed_uops);
    }

    #[test]
    fn keyed_probe_resolves_without_the_workload_and_counts_once() {
        let scale = Scale::custom(291);
        let w = workload("leela", scale).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Full));
        let runner = Runner::with_jobs(1);
        let key = job.key();
        assert!(runner.try_cached(&key, None).is_none(), "cold key must miss");
        let fresh = runner.run_fresh(&job, None, false).unwrap();
        assert!(!fresh.cached);
        let s = runner.cache_stats();
        assert_eq!((s.len, s.hits, s.misses), (1, 0, 1), "run_fresh does not probe");
        // The probe resolves by key alone — no Workload in sight — and
        // the hit is counted like any other cached resolution.
        let hit = runner.try_cached(&key, None).unwrap();
        assert!(Arc::ptr_eq(&fresh.result, &hit.result));
        assert_eq!(hit.digest, arch_digest(&hit.result));
        assert_eq!(hit.digest, fresh.digest, "the hit reuses the published digest");
        let s = runner.cache_stats();
        assert_eq!((s.len, s.hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn try_run_one_deadline_cancels_without_polluting_the_cache() {
        let scale = Scale::custom(300);
        let w = workload("gcc", scale).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Full));
        let runner = Runner::with_jobs(1);
        // An already-expired deadline cancels before the first cycle.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = runner.run_fresh(&job, Some(past), false).unwrap_err();
        match &err {
            JobError::Cancelled { workload, cycles_run, .. } => {
                assert_eq!(workload, "gcc");
                assert_eq!(*cycles_run, 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(err.kind(), "deadline_exceeded");
        // The cancelled run left nothing behind: the retry is fresh.
        assert_eq!(runner.cache_stats().len, 0, "a cancelled run must not enter the cache");
        assert!(runner.timings().is_empty(), "nor the log");
        let ok = try_run_one(&runner, &job, false);
        assert!(!ok.cached);
        assert!(ok.result.halted);
    }

    /// A unique, initially-absent store directory. Tests here probe a
    /// tier through a new runner, whose LRU starts empty, so the store
    /// is the only cache in play.
    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("scc-runner-store-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_tier_serves_results_across_a_restart_byte_identically() {
        let dir = temp_store_dir("restart");
        let w = workload("exchange", Scale::custom(320)).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Full));

        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-test").unwrap();
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let first = try_run_one(&runner, &job, false);
        assert!(!first.cached, "empty store: the first run simulates");
        let other = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let second = try_run_one(&other, &job, false);
        assert!(second.cached, "a second runner is served from the persistent tier");
        assert_eq!(first.result.stats, second.result.stats);
        assert_eq!(first.result.snapshot, second.result.snapshot);
        assert_eq!(
            persist::encode_result(&first.result),
            persist::encode_result(&second.result),
            "the round trip through disk is byte-identical"
        );
        let metric = |name: &str| {
            tier.metrics()
                .into_iter()
                .find(|m| m.name == name)
                .map(|m| match m.value {
                    MetricValue::Counter(v) => v,
                    _ => panic!("store metrics are counters"),
                })
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert_eq!(metric("runner.store.writes"), 1);
        assert_eq!(metric("runner.store.hits"), 1);
        assert_eq!(metric("runner.store.misses"), 1);
        assert_eq!(metric("runner.store.decode_rejects"), 0);
        tier.flush().unwrap();
        drop(runner);
        drop(tier);

        // Restart: a fresh tier over the same directory recovers the
        // record and serves it without simulating.
        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-test").unwrap();
        assert_eq!(tier.recovery().records_indexed, 1);
        assert_eq!(tier.recovery().invalidated_segments(), 0);
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let warm = try_run_one(&runner, &job, false);
        assert!(warm.cached, "results survive a restart");
        assert_eq!(warm.result.stats, first.result.stats);
        assert_eq!(warm.result.snapshot, first.result.snapshot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_tier_version_bump_invalidates_every_warm_hit() {
        let dir = temp_store_dir("version");
        let w = workload("freqmine", Scale::custom(330)).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Baseline));

        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-a").unwrap();
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        try_run_one(&runner, &job, false);
        tier.flush().unwrap();
        drop(runner);
        drop(tier);

        // A different engine revision refuses the whole segment: the
        // reopened store is empty and the run simulates fresh.
        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-b").unwrap();
        assert!(tier.recovery().version_mismatch_segments >= 1);
        assert_eq!(tier.recovery().records_indexed, 0);
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let rerun = try_run_one(&runner, &job, false);
        assert!(!rerun.cached, "a stale engine revision must not serve warm hits");
        tier.flush().unwrap();
        drop(runner);
        drop(tier);

        // Same story for a schema (codec) bump.
        let tier =
            StoreTier::open_with(&dir, persist::SCHEMA_VERSION + 1, "rev-b").unwrap();
        assert!(tier.recovery().version_mismatch_segments >= 1);
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let rerun = try_run_one(&runner, &job, false);
        assert!(!rerun.cached, "a schema bump must not serve warm hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_tier_batch_runs_write_through_and_read_through() {
        let dir = temp_store_dir("batch");
        let scale = Scale::custom(340);
        let ws: Vec<_> =
            ["exchange", "leela"].iter().map(|n| workload(n, scale).unwrap()).collect();
        let jobs: Vec<Job> =
            ws.iter().map(|w| Job::new(w, &SimOptions::new(OptLevel::Baseline))).collect();

        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-test").unwrap();
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let cold = runner.run(&jobs);
        assert_eq!(tier.store_stats().puts, 2, "both batch results written through");
        drop(runner);
        drop(tier);

        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-test").unwrap();
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let warm = runner.run(&jobs);
        assert_eq!(tier.store_stats().puts, 0, "warm batch simulates nothing");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.snapshot, b.snapshot);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_tier_degrades_to_miss_on_undecodable_values() {
        let dir = temp_store_dir("reject");
        // Plant a value that passes the store's CRC but is not a result
        // encoding, under a key the runner will ask for.
        let w = workload("vips", Scale::custom(350)).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Baseline));
        let key = job.key();
        {
            let mut raw = Store::open(
                &dir,
                StoreConfig::new(persist::SCHEMA_VERSION, "rev-test"),
            )
            .unwrap();
            raw.put(&key, b"not a simresult").unwrap();
            raw.sync().unwrap();
        }
        let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "rev-test").unwrap();
        let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));
        let r = try_run_one(&runner, &job, false);
        assert!(!r.cached, "an undecodable value is a miss, not data");
        assert!(r.result.halted);
        let rejects = tier
            .metrics()
            .into_iter()
            .find(|m| m.name == "runner.store.decode_rejects")
            .unwrap();
        assert_eq!(rejects.value, MetricValue::Counter(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_run_one_audit_is_fresh_and_returns_jsonl() {
        let scale = Scale::custom(310);
        let w = workload("freqmine", scale).unwrap();
        let job = Job::new(&w, &SimOptions::new(OptLevel::Full));
        let runner = Runner::with_jobs(1);
        let plain = try_run_one(&runner, &job, false);
        let audited = try_run_one(&runner, &job, true);
        assert!(!audited.cached, "audit runs bypass the cache lookup");
        assert!(plain.audit_jsonl.is_none());
        let jsonl = audited.audit_jsonl.expect("audit payload present");
        assert!(!jsonl.is_empty(), "full-scc run produces audit decisions");
        assert_eq!(
            plain.result.stats, audited.result.stats,
            "the audit sink must not perturb the simulation"
        );
    }
}
