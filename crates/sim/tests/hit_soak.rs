//! Soak test for the warm-hit path: 100K hits through
//! `Runner::try_cached`, each under its own request id, must leave the
//! runner's logs and LRU bounded and must hand out the digest memoised on
//! each resident result — including one large enough that recomputing
//! its digest per hit would dominate the run.
//!
//! This binary holds a single test because the cache and the logs are
//! process-wide.

use scc_sim::runner::{schedule, timings};
use scc_sim::{
    arch_digest, cache_stats, persist, set_cache_capacity, OptLevel, Runner, SimResult, StoreTier,
    LOG_CAP,
};
use std::collections::HashMap;
use std::sync::Arc;

const HITS: usize = 100_000;
const CAPACITY: usize = 8;

fn result(workload: &str, mem_words: u64) -> SimResult {
    SimResult {
        workload: workload.to_string(),
        level: OptLevel::Full,
        stats: Default::default(),
        energy: Default::default(),
        snapshot: scc_isa::ArchSnapshot {
            regs: std::array::from_fn(|i| i as i64 * 3 - 7),
            cc: scc_isa::CcFlags { zf: true, ..Default::default() },
            mem: (0..mem_words).map(|i| (0x2000 + 8 * i, (i * i) as i64)).collect(),
        },
        halted: true,
    }
}

#[test]
fn warm_hits_leave_bounded_logs_and_reuse_memoised_digests() {
    set_cache_capacity(CAPACITY);
    let dir = std::env::temp_dir().join(format!("scc-hit-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "soak").unwrap();

    // Four hot keys (one with a 100K-word image) that stay resident, and
    // 64 cold keys only in the store, promoted when probed and then
    // evicted again by the hot traffic.
    let hot: Vec<String> = (0..4).map(|i| format!("hot-{i}")).collect();
    let cold: Vec<String> = (0..64).map(|i| format!("cold-{i}")).collect();
    let mut want: HashMap<&str, u64> = HashMap::new();
    for (i, key) in hot.iter().chain(&cold).enumerate() {
        let r = result(key, if i == 0 { 100_000 } else { 64 });
        tier.put(key, &r);
        want.insert(key.as_str(), arch_digest(&r));
    }
    let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));

    let before = cache_stats();
    for i in 0..HITS {
        let key = if i % 1000 == 999 { &cold[(i / 1000) % cold.len()] } else { &hot[i % hot.len()] };
        let hit = runner.try_cached(key, Some(&format!("soak-{i}"))).expect("every key is warm");
        assert!(hit.cached);
        assert_eq!(hit.digest, want[key.as_str()], "hit {i} on {key}");
    }

    // Both kinds of hit happened: LRU hits and store promotions.
    let after = cache_stats();
    let store_hits = tier
        .metrics()
        .into_iter()
        .find(|m| m.name == "runner.store.hits")
        .map(|m| m.value);
    assert_eq!(store_hits, Some(scc_pipeline::MetricValue::Counter(4 + 100)));
    assert_eq!(after.hits - before.hits, (HITS - 4 - 100) as u64);

    // Bounded: the logs keep their newest LOG_CAP entries, the LRU its
    // capacity.
    assert_eq!(timings().len(), LOG_CAP);
    let sched = schedule();
    assert_eq!(sched.len(), LOG_CAP);
    assert!(after.len <= CAPACITY, "{} resident > capacity {CAPACITY}", after.len);
    assert!(tier.trace_events().len() <= LOG_CAP);
    let newest = format!("soak-{}", HITS - 1);
    assert_eq!(sched.last().and_then(|t| t.request.as_deref()), Some(newest.as_str()));
    let oldest_kept = format!("soak-{}", HITS - LOG_CAP);
    assert_eq!(sched[0].request.as_deref(), Some(oldest_kept.as_str()));

    drop(runner);
    drop(tier);
    let _ = std::fs::remove_dir_all(&dir);
}
