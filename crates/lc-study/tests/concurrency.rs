//! Concurrency model tests for the campaign executor's sharing surface.
//!
//! A campaign runs units through [`Pool::run_with_state`]: each worker
//! owns its scratch state and its unit's [`UnitPrefixCache`], and the
//! *only* cross-thread traffic is the shared [`CacheStats`] atomics
//! (hits/misses/lookups, evictions, resident-byte gauge). These tests
//! hammer that surface with deterministic pseudo-random schedules and
//! assert the invariants a model checker would:
//!
//! * **Exactly-once claiming** — the pool's dynamic scheduler hands
//!   every unit index to exactly one worker, and each worker sees its
//!   claims in increasing order (the property `LookbackScan` leans on).
//! * **Stats conservation** — after any interleaving of unit caches,
//!   `hits + misses == lookups` and the eviction count matches what the
//!   per-unit LRU actually dropped.
//! * **Resident gauge saturation** — concurrent unit-cache drops racing
//!   inserts never wrap the resident-bytes counter below zero; it ends
//!   at exactly zero once every cache is gone.
//!
//! Run with `cargo test -p lc-study --features model-check`.

#![cfg(feature = "model-check")]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lc_core::KernelStats;
use lc_parallel::Pool;
use lc_study::prefix::UnitPrefixCache;
use lc_study::runner::{ChunkedData, StageOutcome};
use lc_study::CacheStats;

/// splitmix64: deterministic schedule/workload perturbation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn step(&mut self) {
        match self.next() % 8 {
            0 => std::thread::yield_now(),
            1..=2 => {
                for _ in 0..(self.next() % 64) {
                    std::hint::spin_loop();
                }
            }
            _ => {}
        }
    }
}

fn entry(payload_bytes: usize) -> StageOutcome {
    StageOutcome {
        output: ChunkedData {
            chunks: vec![vec![0u8; payload_bytes]],
        },
        enc: KernelStats::new(),
        dec: KernelStats::new(),
        applied: 1,
        skipped: 0,
    }
}

/// Drive many units through `run_with_state`, each opening its own
/// `UnitPrefixCache` against one shared `CacheStats`, with workloads
/// sized to force evictions. Afterwards the shared stats must balance.
#[test]
fn run_with_state_unit_caches_keep_shared_stats_consistent() {
    const UNITS: usize = 64;
    const ITERS: u64 = 8;

    for iter in 0..ITERS {
        let stats = CacheStats::default();
        let computed = AtomicU64::new(0);
        let pool = Pool::new(8);
        pool.run_with_state(
            UNITS,
            Vec::<u8>::new, // per-worker scratch (contents irrelevant here)
            |_scratch, unit| {
                let mut rng = Rng::new(iter * 10_000 + unit as u64);
                // A cap that fits ~2 of the ~4 KiB entries: every unit
                // evicts, so eviction accounting races drops elsewhere.
                let mut cache = UnitPrefixCache::new(Some(9000), &stats);
                cache
                    .level1(|| -> Result<_, ()> {
                        computed.fetch_add(1, Ordering::Relaxed);
                        Ok(entry(1000))
                    })
                    .unwrap();
                for _ in 0..40 {
                    let key = (rng.next() % 6) as usize;
                    cache
                        .level2(key, || -> Result<_, ()> {
                            computed.fetch_add(1, Ordering::Relaxed);
                            Ok(entry(4096))
                        })
                        .unwrap();
                    rng.step();
                }
                // Cache drops here, returning its residency to the gauge.
            },
        );
        let report = stats.report(); // debug-asserts hits + misses == lookups
        assert_eq!(
            report.hits + report.misses,
            (UNITS * 41) as u64,
            "iteration {iter}: every level1/level2 call is one classified lookup"
        );
        assert_eq!(
            report.misses,
            computed.load(Ordering::Relaxed),
            "iteration {iter}: every miss computed exactly once"
        );
        assert_eq!(
            stats.resident_bytes(),
            0,
            "iteration {iter}: all unit caches dropped, residency must return to zero"
        );
        assert!(
            report.peak_resident_bytes > 0 && report.peak_resident_bytes < u64::MAX / 2,
            "iteration {iter}: peak plausible, no wrap ({})",
            report.peak_resident_bytes
        );
    }
}

/// A monitor thread samples the resident gauge while unit caches churn
/// on pool workers. A wrap (the pre-saturation bug: a release racing a
/// concurrent add driving the counter below zero) would surface as a
/// sample near `u64::MAX`.
#[test]
fn resident_gauge_never_wraps_under_concurrent_unit_churn() {
    const UNITS: usize = 128;

    let stats = CacheStats::default();
    let done = AtomicU64::new(0);
    let max_seen = AtomicU64::new(0);
    std::thread::scope(|s| {
        let stats = &stats;
        let done = &done;
        let max_seen = &max_seen;
        s.spawn(move || {
            while done.load(Ordering::Acquire) == 0 {
                max_seen.fetch_max(stats.resident_bytes(), Ordering::Relaxed);
                std::hint::spin_loop();
            }
        });
        s.spawn(move || {
            let pool = Pool::new(8);
            pool.run_with_state(
                UNITS,
                || (),
                |_, unit| {
                    let mut rng = Rng::new(unit as u64);
                    let mut cache = UnitPrefixCache::new(Some(5000), stats);
                    for _ in 0..20 {
                        let key = (rng.next() % 4) as usize;
                        cache
                            .level2(key, || -> Result<_, ()> { Ok(entry(4096)) })
                            .unwrap();
                        rng.step();
                    }
                },
            );
            done.store(1, Ordering::Release);
        });
    });
    let peak = max_seen.load(Ordering::Relaxed);
    // 8 workers × at most 2 resident ~4 KiB entries each, plus slack.
    // A wrapped counter would read ~2^64.
    assert!(peak < 64 * 1024 * 1024, "gauge wrapped or leaked: {peak}");
    assert_eq!(stats.resident_bytes(), 0, "residency returns to zero");
}

/// The dynamic scheduler claims every index exactly once, and each
/// worker's claim sequence is strictly increasing — the monotonicity
/// guarantee the decoupled look-back scan relies on to avoid deadlock.
#[test]
fn pool_claims_are_exactly_once_and_per_worker_monotonic() {
    const TASKS: usize = 5000;
    const ITERS: u64 = 10;

    for iter in 0..ITERS {
        let hits: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        let pool = Pool::new(8);
        pool.run_with_state(TASKS, Vec::<usize>::new, |claimed, i| {
            let mut rng = Rng::new(iter * 31 + i as u64);
            if let Some(&prev) = claimed.last() {
                assert!(
                    prev < i,
                    "iteration {iter}: worker claimed {i} after {prev} — \
                         claims must be increasing"
                );
            }
            claimed.push(i);
            hits[i].fetch_add(1, Ordering::Relaxed);
            if rng.next().is_multiple_of(16) {
                rng.step();
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "iteration {iter}: some index claimed zero or multiple times"
        );
    }
}
