//! Concurrency model tests for the campaign executor's sharing surface.
//!
//! A campaign runs units through the pool's dynamic scheduler; each unit
//! holds its own prefix outputs as locals, and the only cross-thread
//! traffic is the pool's claim counter and the shared `CacheStats`
//! atomics. These tests hammer the claim counter with deterministic
//! pseudo-random schedules and assert the invariant a model checker
//! would:
//!
//! * **Exactly-once claiming** — the pool's dynamic scheduler hands
//!   every unit index to exactly one worker, and each worker sees its
//!   claims in increasing order (the property `LookbackScan` leans on).
//!
//! Run with `cargo test -p lc-study --features model-check`.

#![cfg(feature = "model-check")]

use std::sync::atomic::{AtomicUsize, Ordering};

use lc_parallel::Pool;

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
