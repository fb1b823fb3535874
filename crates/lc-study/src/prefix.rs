//! Prefix-memoized sweep execution over the campaign's 3-level pipeline
//! trie.
//!
//! A work unit owns the pipeline range `(s1, *, *)`: every pipeline in it
//! shares the stage-1 output, and every `(s1, s2, *)` row shares the
//! stage-2 output. The unit walks its rows on the outside and its
//! reducers on the inside, so the loop nest is the memoization: the
//! stage-1 [`StageOutcome`] and the current row's stage-2 outcome are two
//! `Option` locals, filled at the first measured cell that needs them
//! (`CacheStats::prefix`); the row's outcome is dropped when the row
//! ends, since no later pipeline reads it. A unit of `nc` × `nr` cells
//! thus runs `1 + nc + nc·nr` stages instead of the naive `3·nc·nr`.
//! [`SweepMode::Naive`] is the test oracle: it never reuses a slot.
//!
//! Every lookup counts as one hit or one miss in the campaign-wide
//! `CacheStats` (reported as a [`CacheReport`], mirrored to the
//! telemetry counters `campaign.prefix_cache.{hits,misses}`). Stages are
//! deterministic, so both modes give byte-identical results (a test in
//! `campaign.rs` enforces this).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::runner::StageOutcome;

/// How the campaign executor walks a unit's pipeline range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SweepMode {
    /// Compute each shared prefix once per unit (stage 1) or per row
    /// (stage 2) and reuse it for every pipeline below it (the default).
    #[default]
    Memoized,
    /// Recompute every stage of every pipeline from scratch. ~3× the
    /// stage work; the oracle the memoized sweep is tested and
    /// benchmarked against.
    Naive,
}

/// The campaign's sweep mode plus its prefix statistics, shared by every
/// unit.
///
/// The counters are relaxed atomics: units on different workers bump
/// them concurrently, and only totals are reported.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
    sweep: SweepMode,
    /// Lookups observed at [`Self::prefix`] (every lookup is then
    /// classified as exactly one hit or miss — `report` checks that).
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Largest number of prefix-output bytes one unit held at once.
    peak_resident: AtomicU64,
}

impl CacheStats {
    /// Statistics for a campaign walking its units in `sweep` mode.
    pub(crate) fn new(sweep: SweepMode) -> Self {
        Self {
            sweep,
            ..Self::default()
        }
    }

    /// Look up one prefix held in `slot`: reuse it when the sweep is
    /// memoized and it is filled, otherwise compute it into the slot.
    /// A failed computation leaves the slot empty.
    pub(crate) fn prefix<'a, E>(
        &self,
        slot: &'a mut Option<StageOutcome>,
        compute: impl FnOnce() -> Result<StageOutcome, E>,
    ) -> Result<&'a StageOutcome, E> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self.sweep == SweepMode::Memoized && slot.is_some();
        let (count, name) = if hit {
            (&self.hits, "campaign.prefix_cache.hits")
        } else {
            (&self.misses, "campaign.prefix_cache.misses")
        };
        count.fetch_add(1, Ordering::Relaxed);
        if lc_telemetry::enabled() {
            lc_telemetry::counter(name).add(1);
        }
        if !hit {
            // Drop a stale outcome before computing its replacement.
            *slot = None;
            *slot = Some(compute()?);
        }
        Ok(slot.as_ref().expect("slot filled above")) // invariant: hit or just computed
    }

    /// Record that one unit held `bytes` of prefix outputs at once.
    /// Naive sweeps hold nothing between pipelines and record nothing.
    pub(crate) fn held(&self, bytes: u64) {
        if self.sweep == SweepMode::Memoized {
            self.peak_resident.fetch_max(bytes, Ordering::Relaxed);
        }
    }

    /// Snapshot the totals.
    pub(crate) fn report(&self) -> CacheReport {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        debug_assert_eq!(
            hits + misses,
            self.lookups.load(Ordering::Relaxed),
            "every lookup must be classified as exactly one hit or miss"
        );
        CacheReport {
            hits,
            misses,
            evictions: 0,
            peak_resident_bytes: self.peak_resident.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the campaign's prefix statistics, attached to a campaign
/// outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Prefix lookups that reused a held outcome.
    pub hits: u64,
    /// Prefix lookups that had to compute (naive mode: every one).
    pub misses: u64,
    /// Always 0: nothing is evicted. Kept because the repository
    /// benchmark's harness reads it.
    pub evictions: u64,
    /// Largest number of prefix-output bytes one unit held at once: its
    /// stage-1 output plus one row's stage-2 output. 0 in naive mode,
    /// which holds nothing between pipelines.
    pub peak_resident_bytes: u64,
}

impl CacheReport {
    /// Fraction of lookups served from a held prefix (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Peak held bytes in MiB. Kept because the repository benchmark's
    /// harness reads it.
    pub fn peak_resident_mb(&self) -> f64 {
        self.peak_resident_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ChunkedData;
    use lc_core::KernelStats;

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

    #[test]
    fn level1_computes_once_then_hits() {
        let stats = CacheStats::default();
        let mut slot = None;
        let mut computed = 0;
        for _ in 0..5 {
            let e = stats
                .prefix(&mut slot, || -> Result<_, ()> {
                    computed += 1;
                    Ok(entry(100))
                })
                .unwrap();
            assert_eq!(e.output.total_bytes(), 100);
        }
        assert_eq!(computed, 1);
        let r = stats.report();
        assert_eq!((r.hits, r.misses), (4, 1));
    }

    #[test]
    fn report_hit_rate() {
        let stats = CacheStats::default();
        let mut slot = None;
        for _ in 0..4 {
            stats
                .prefix(&mut slot, || -> Result<_, ()> { Ok(entry(1)) })
                .unwrap();
        }
        let r = stats.report();
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheReport::default().hit_rate(), 0.0);
    }

    #[test]
    fn naive_cache_retains_nothing() {
        let stats = CacheStats::new(SweepMode::Naive);
        let mut slot = None;
        let mut computed = 0;
        for _ in 0..6 {
            stats
                .prefix(&mut slot, || -> Result<_, ()> {
                    computed += 1;
                    Ok(entry(100))
                })
                .unwrap();
            stats.held(100);
        }
        assert_eq!(computed, 6, "every lookup recomputes");
        let r = stats.report();
        assert_eq!((r.hits, r.misses), (0, 6));
        assert_eq!(r.peak_resident_bytes, 0);
    }

    #[test]
    fn errors_propagate_without_caching() {
        let stats = CacheStats::default();
        let mut slot = None;
        let r = stats.prefix(&mut slot, || -> Result<StageOutcome, &str> { Err("boom") });
        assert_eq!(r.err(), Some("boom"));
        // The failed compute must not have filled anything: the next
        // call is a miss again.
        let mut computed = false;
        stats
            .prefix(&mut slot, || -> Result<_, ()> {
                computed = true;
                Ok(entry(10))
            })
            .unwrap();
        assert!(computed);
    }
}
