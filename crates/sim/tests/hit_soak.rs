//! Soak test for the warm-hit path: 100K hits through
//! `Runner::try_cached` must write nothing to the runner's log, must
//! leave the LRU at its capacity, and must hand out the digest memoised
//! on each resident result — including one large enough that
//! recomputing its digest per hit would dominate the run.

use scc_sim::{arch_digest, persist, OptLevel, Runner, SimResult, StoreTier, DEFAULT_CACHE_CAPACITY};
use std::collections::HashMap;
use std::sync::Arc;

const HITS: usize = 100_000;
/// Every `COLD_EVERY`-th hit probes the next cold key.
const COLD_EVERY: usize = 50;
/// More cold keys than the LRU holds, so cycling through them evicts
/// each one before it comes round again.
const COLD_KEYS: usize = DEFAULT_CACHE_CAPACITY + 64;

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
    let dir = std::env::temp_dir().join(format!("scc-hit-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = StoreTier::open_with(&dir, persist::SCHEMA_VERSION, "soak").unwrap();

    // Four hot keys (one with a 100K-word image) that stay resident, and
    // COLD_KEYS cold keys only in the store, promoted when probed and
    // evicted again before their next turn.
    let hot: Vec<String> = (0..4).map(|i| format!("hot-{i}")).collect();
    let cold: Vec<String> = (0..COLD_KEYS).map(|i| format!("cold-{i}")).collect();
    let mut want: HashMap<&str, u64> = HashMap::new();
    for (i, key) in hot.iter().chain(&cold).enumerate() {
        let r = result(key, if i == 0 { 100_000 } else { 64 });
        tier.put(key, &r);
        want.insert(key.as_str(), arch_digest(&r));
    }
    let runner = Runner::with_jobs(1).with_store(Arc::clone(&tier));

    for i in 0..HITS {
        let key = if i % COLD_EVERY == COLD_EVERY - 1 {
            &cold[(i / COLD_EVERY) % cold.len()]
        } else {
            &hot[i % hot.len()]
        };
        let hit = runner.try_cached(key, None).expect("every key is warm");
        assert!(hit.cached);
        assert_eq!(hit.digest, want[key.as_str()], "hit {i} on {key}");
    }

    // Both kinds of hit happened: LRU hits and store promotions, and
    // every cold probe found its key evicted.
    let cold_probes = HITS / COLD_EVERY;
    let stats = runner.cache_stats();
    let store_hits = tier
        .metrics()
        .into_iter()
        .find(|m| m.name == "runner.store.hits")
        .map(|m| m.value);
    assert_eq!(store_hits, Some(scc_pipeline::MetricValue::Counter((4 + cold_probes) as u64)));
    assert_eq!(stats.hits, (HITS - 4 - cold_probes) as u64);
    assert_eq!(stats.misses, (4 + cold_probes) as u64);
    assert_eq!(stats.evictions, (4 + cold_probes - DEFAULT_CACHE_CAPACITY) as u64);

    // Bounded: a hit writes no log at all, and the LRU holds exactly
    // its capacity.
    assert!(runner.timings().is_empty(), "a hit writes no log entry");
    assert_eq!(stats.len, DEFAULT_CACHE_CAPACITY);

    drop(runner);
    drop(tier);
    let _ = std::fs::remove_dir_all(&dir);
}
