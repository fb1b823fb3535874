//! Single-pass decoupled look-back prefix scan (Merrill & Garland).
//!
//! The LC encoder must place each compressed chunk at the cumulative offset
//! of all prior chunks' compressed sizes. On the GPU this is done with the
//! decoupled look-back technique: every thread block publishes its local
//! aggregate, then walks backwards over its predecessors' published state —
//! summing aggregates until it reaches a block that already knows its
//! inclusive prefix — and finally publishes its own inclusive prefix.
//!
//! This module implements the same protocol with CPU atomics. It is used by
//! `lc-core`'s parallel encoder, making the "framework-level operation" the
//! paper identifies as the locus of the Clang/NVCC performance split a real
//! piece of executed code in this reproduction.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Entry has published nothing yet.
pub(crate) const SCAN_STATUS_INVALID: u8 = 0;
/// Entry has published its local aggregate.
pub(crate) const SCAN_STATUS_AGGREGATE: u8 = 1;
/// Entry has published its inclusive prefix.
pub(crate) const SCAN_STATUS_PREFIX: u8 = 2;

/// Spins a waiter in [`LookbackScan::publish`] makes between two
/// `yield_now` calls: about 0.7 ms of `pause`, longer than the 0.5 ms a
/// Linux task counts as cache-hot after it last ran.
const SPINS_PER_YIELD: u32 = 1 << 16;

/// A single-use decoupled look-back scan over `n` participants.
///
/// Each participant `i` calls [`LookbackScan::publish`] exactly once with
/// its local value and receives the *exclusive* prefix sum of all
/// participants `0..i`. Participants may call `publish` in any order from
/// any thread, provided that whenever participant `i` is running, every
/// participant `j < i` has been claimed by some thread that will eventually
/// call `publish(j, ..)` (the in-order claiming of [`crate::Pool`]
/// guarantees this).
pub struct LookbackScan {
    status: Vec<AtomicU8>,
    aggregate: Vec<AtomicU64>,
    prefix: Vec<AtomicU64>,
}

impl LookbackScan {
    /// Create a scan over `n` participants, all in the invalid state.
    pub fn new(n: usize) -> Self {
        Self {
            status: (0..n).map(|_| AtomicU8::new(SCAN_STATUS_INVALID)).collect(),
            aggregate: (0..n).map(|_| AtomicU64::new(0)).collect(),
            prefix: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// Whether the scan has zero participants.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Publish participant `i`'s local `value`; returns the exclusive prefix
    /// (sum of values of participants `0..i`).
    ///
    /// Spins while a predecessor has published neither aggregate nor
    /// prefix, and hands the CPU over only once per `SPINS_PER_YIELD`
    /// spins. The predecessor is claimed, so with a core per worker the
    /// wait is a fraction of one task. Yielding every few microseconds
    /// instead is faster while two workers share a core, and keeps them
    /// there: each hands the core straight back to the other, neither ever
    /// waits long enough to stop looking cache-hot, and the kernel leaves
    /// both where they are beside an idle core (a whole 20 s `codec_kernel`
    /// run at one-thread speed on the 2-vCPU benchmark box). A spinning
    /// waiter is preempted like any busy thread, the predecessor then
    /// waits in plain sight and is moved within a few calls. The rare
    /// yield keeps the wait live under a strict-priority policy, where a
    /// spinner is never preempted by its equal.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or if `i` publishes twice.
    pub fn publish(&self, i: usize, value: u64) -> u64 {
        assert!(
            self.status[i].load(Ordering::Relaxed) == SCAN_STATUS_INVALID,
            "participant {i} published twice"
        );
        // Publish the aggregate so later participants can make progress
        // past us while we look back.
        self.aggregate[i].store(value, Ordering::Relaxed);
        self.status[i].store(SCAN_STATUS_AGGREGATE, Ordering::Release);

        let exclusive = if i == 0 {
            0
        } else {
            let mut running: u64 = 0;
            let mut j = i - 1;
            loop {
                let mut spins = 0u32;
                let st = loop {
                    let st = self.status[j].load(Ordering::Acquire);
                    if st != SCAN_STATUS_INVALID {
                        break st;
                    }
                    spins = spins.wrapping_add(1);
                    if spins.is_multiple_of(SPINS_PER_YIELD) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                };
                if st == SCAN_STATUS_PREFIX {
                    // Acquire on the status load above orders this read
                    // after the predecessor's prefix store.
                    running = running.wrapping_add(self.prefix[j].load(Ordering::Relaxed));
                    break;
                }
                running = running.wrapping_add(self.aggregate[j].load(Ordering::Relaxed));
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            running
        };

        self.prefix[i].store(exclusive.wrapping_add(value), Ordering::Relaxed);
        self.status[i].store(SCAN_STATUS_PREFIX, Ordering::Release);
        exclusive
    }

    /// Total of all published values. Only meaningful after every
    /// participant has published.
    pub fn total(&self) -> u64 {
        match self.status.last() {
            None => 0,
            Some(st) => {
                assert!(
                    st.load(Ordering::Acquire) == SCAN_STATUS_PREFIX,
                    "total() requires all participants to have published"
                );
                self.prefix[self.len() - 1].load(Ordering::Relaxed)
            }
        }
    }
}

/// Convenience: exclusive prefix sums of `values`, computed with the
/// decoupled look-back protocol over `pool`. Returns `(prefixes, total)`.
pub fn parallel_exclusive_scan(pool: &crate::Pool, values: &[u64]) -> (Vec<u64>, u64) {
    let scan = LookbackScan::new(values.len());
    let mut out = vec![0u64; values.len()];
    {
        let slots = crate::DisjointSlice::new(&mut out);
        pool.run(values.len(), |i| {
            let excl = scan.publish(i, values[i]);
            // SAFETY: pool.run claims each index exactly once.
            unsafe { *slots.get_mut(i) = excl };
        });
    }
    let total = scan.total();
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    fn reference_scan(values: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(values.len());
        let mut acc = 0u64;
        for &v in values {
            out.push(acc);
            acc = acc.wrapping_add(v);
        }
        (out, acc)
    }

    #[test]
    fn empty_scan() {
        let pool = Pool::new(4);
        let (pfx, total) = parallel_exclusive_scan(&pool, &[]);
        assert!(pfx.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_element() {
        let pool = Pool::new(4);
        let (pfx, total) = parallel_exclusive_scan(&pool, &[7]);
        assert_eq!(pfx, vec![0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn matches_reference_small() {
        let pool = Pool::new(8);
        let values: Vec<u64> = (0..100).map(|i| (i * 37 + 11) % 255).collect();
        let (pfx, total) = parallel_exclusive_scan(&pool, &values);
        let (rpfx, rtotal) = reference_scan(&values);
        assert_eq!(pfx, rpfx);
        assert_eq!(total, rtotal);
    }

    #[test]
    fn matches_reference_large_many_threads() {
        let pool = Pool::new(16);
        let values: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 1000)
            .collect();
        let (pfx, total) = parallel_exclusive_scan(&pool, &values);
        let (rpfx, rtotal) = reference_scan(&values);
        assert_eq!(pfx, rpfx);
        assert_eq!(total, rtotal);
    }

    #[test]
    fn sequential_publish_in_order() {
        let scan = LookbackScan::new(4);
        assert_eq!(scan.publish(0, 5), 0);
        assert_eq!(scan.publish(1, 3), 5);
        assert_eq!(scan.publish(2, 0), 8);
        assert_eq!(scan.publish(3, 2), 8);
        assert_eq!(scan.total(), 10);
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let scan = LookbackScan::new(2);
        scan.publish(0, 1);
        scan.publish(0, 1);
    }

    #[test]
    fn wrapping_does_not_panic() {
        let scan = LookbackScan::new(2);
        scan.publish(0, u64::MAX);
        let excl = scan.publish(1, 5);
        assert_eq!(excl, u64::MAX);
        assert_eq!(scan.total(), 4); // wrapped
    }
}
