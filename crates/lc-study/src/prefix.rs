//! Prefix-memoized sweep execution: the shared-stage cache behind the
//! campaign's 3-level pipeline trie.
//!
//! A work unit owns the contiguous pipeline range `(s1, *, *)`: every
//! pipeline in it shares the stage-1 output, and every `(s1, s2, *)`
//! row shares the stage-2 output. The campaign exploits that by keying
//! intermediate [`StageOutcome`]s (plus their precomputed per-platform
//! stage times) on the pipeline *prefix*:
//!
//! * **level 1** — the `(s1)` prefix: one entry, computed on first use
//!   and pinned for the unit's lifetime;
//! * **level 2** — the `(s1, s2)` prefixes: an LRU map bounded by a
//!   byte cap, so sweeping wide spaces at paper scale cannot hold all
//!   62 stage-2 outputs resident at once.
//!
//! With the cache, a unit of `nc` stage-2 components × `nr` reducers
//! costs `1 + nc + nc·nr` stage executions instead of the naive
//! `3·nc·nr` — asymptotically a 3× cut, ~2.6× at the quick space's
//! shape. [`SweepMode::Naive`] is the library's test oracle: the same
//! cache retains nothing, so every lookup misses and recomputes from
//! scratch through the one stage-evaluation path.
//!
//! Observability: every lookup, miss, and eviction is counted in a
//! campaign-wide [`CacheStats`] (returned to callers as a
//! [`CacheReport`]) and mirrored to `lc-telemetry` counters
//! (`campaign.prefix_cache.{hits,misses,evictions}`) plus a resident-
//! bytes gauge, so traces show cache behavior over time.
//!
//! Correctness note: stage execution is deterministic, so a cache hit,
//! a fresh computation, and a post-eviction recomputation all yield
//! bit-identical outcomes — sweep results are byte-identical across
//! modes and cap sizes (a test in `campaign.rs` enforces this).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::runner::StageOutcome;

/// Default level-2 cache budget for a whole campaign, in MiB.
pub const DEFAULT_CACHE_MB: usize = 512;

/// How the campaign executor walks a unit's pipeline range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Share stage prefixes through a byte-capped cache (the default).
    /// `cache_mb` is the campaign-wide level-2 budget; each concurrent
    /// unit gets an equal slice of it.
    Memoized {
        /// Campaign-wide level-2 cache budget in MiB.
        cache_mb: usize,
    },
    /// Recompute every stage of every pipeline from scratch. ~3× the
    /// stage work; the oracle the memoized sweep is tested and
    /// benchmarked against.
    Naive,
}

impl Default for SweepMode {
    fn default() -> Self {
        SweepMode::Memoized {
            cache_mb: DEFAULT_CACHE_MB,
        }
    }
}

impl SweepMode {
    /// Stable journal/report label for the mode.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMode::Memoized { .. } => "memoized",
            SweepMode::Naive => "naive",
        }
    }

    /// Per-unit level-2 byte budget, splitting the campaign-wide cap
    /// evenly across `workers` concurrently-running units. `None` in
    /// naive mode.
    pub fn per_unit_cap_bytes(&self, workers: usize) -> Option<u64> {
        match self {
            SweepMode::Memoized { cache_mb } => {
                Some((*cache_mb as u64 * 1024 * 1024) / workers.max(1) as u64)
            }
            SweepMode::Naive => None,
        }
    }
}

/// Campaign-wide cache statistics, shared by every unit's cache.
///
/// All fields are relaxed atomics: units on different workers bump them
/// concurrently, and only totals are reported.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups observed at the cache entry points (every lookup is then
    /// classified as exactly one hit or miss — `report` checks that).
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Computed entries refused admission (memory budget pressure or a
    /// chaos allocation denial) — handed to the caller uncached.
    sheds: AtomicU64,
    /// Bytes currently resident across all live unit caches.
    resident: AtomicU64,
    /// High-water mark of `resident`.
    peak_resident: AtomicU64,
}

impl CacheStats {
    /// Record `n` prefix-cache lookups, before classification. Called at
    /// every lookup entry point ([`UnitPrefixCache::level1`]/[`UnitPrefixCache::level2`]).
    pub fn lookup(&self, n: u64) {
        self.lookups.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` prefix-cache hits.
    pub fn hit(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        if lc_telemetry::enabled() {
            lc_telemetry::counter("campaign.prefix_cache.hits").add(n);
        }
    }

    /// Record `n` prefix-cache misses (a naive-mode recomputation is an
    /// unconditional miss).
    pub fn miss(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
        if lc_telemetry::enabled() {
            lc_telemetry::counter("campaign.prefix_cache.misses").add(n);
        }
    }

    fn evict(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
        if lc_telemetry::enabled() {
            lc_telemetry::counter("campaign.prefix_cache.evictions").add(n);
        }
    }

    fn shed(&self, n: u64) {
        self.sheds.fetch_add(n, Ordering::Relaxed);
        if lc_telemetry::enabled() {
            lc_telemetry::counter("campaign.prefix_cache.sheds").add(n);
        }
    }

    fn resident_add(&self, bytes: u64) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
        if lc_telemetry::enabled() {
            lc_telemetry::gauge("campaign.prefix_cache.resident_bytes").set(now);
        }
    }

    fn resident_sub(&self, bytes: u64) {
        // Saturate instead of wrapping: a release racing another
        // thread's concurrent add could otherwise momentarily drive the
        // counter below zero and leave a ~u64::MAX residency on the
        // gauge for the rest of the campaign.
        let prev = self
            .resident
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        let now = match prev {
            Ok(p) | Err(p) => p.saturating_sub(bytes),
        };
        if lc_telemetry::enabled() {
            lc_telemetry::gauge("campaign.prefix_cache.resident_bytes").set(now);
        }
    }

    /// Bytes currently resident across all live unit caches. Exposed for
    /// diagnostics and the concurrency model tests, which assert the
    /// counter returns to zero (and never wraps) once every unit cache
    /// has dropped.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Snapshot the totals.
    pub fn report(&self) -> CacheReport {
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
            evictions: self.evictions.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of [`CacheStats`], attached to a campaign outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Prefix lookups served from the cache.
    pub hits: u64,
    /// Prefix lookups that had to compute (naive mode: every one).
    pub misses: u64,
    /// Level-2 entries dropped to stay under the byte cap.
    pub evictions: u64,
    /// Computed entries never admitted (memory-budget pressure or chaos
    /// allocation denial); the caller used them uncached.
    pub sheds: u64,
    /// High-water mark of resident cache bytes across the campaign.
    pub peak_resident_bytes: u64,
}

impl CacheReport {
    /// Fraction of lookups served from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Peak resident bytes in MiB.
    pub fn peak_resident_mb(&self) -> f64 {
        self.peak_resident_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// A memoized pipeline prefix: the stage's transformed data plus the
/// per-platform (encode, decode) stage times derived from its kernel
/// statistics — everything downstream pipelines need, so a hit skips
/// both the stage execution and the platform-time recomputation.
#[derive(Debug, Clone)]
pub struct PrefixEntry {
    /// The stage execution result (output chunks + kernel stats).
    pub outcome: StageOutcome,
    /// Per-platform `(encode, decode)` stage times, config-indexed.
    pub times: Vec<(f64, f64)>,
}

impl PrefixEntry {
    /// Approximate resident size: chunk payloads dominate; per-chunk Vec
    /// headers and the times table are accounted as flat overhead.
    fn bytes(&self) -> u64 {
        self.outcome.output.total_bytes()
            + self.outcome.output.chunk_count() as u64 * 24
            + self.times.len() as u64 * 16
    }
}

/// The prefix cache of one work unit. Owned by a single worker; cross-
/// unit sharing is structurally impossible (units partition the space
/// by stage-1 component), so there is no locking on the lookup path —
/// only the shared [`CacheStats`] atomics.
pub struct UnitPrefixCache<'s> {
    /// Level-2 byte cap; `None` retains nothing (naive sweep), so every
    /// lookup is a miss that recomputes.
    cap_bytes: Option<u64>,
    level1: Option<Arc<PrefixEntry>>,
    /// `s2 index -> (entry, last-use tick)`.
    level2: HashMap<usize, (Arc<PrefixEntry>, u64)>,
    level2_resident: u64,
    level1_resident: u64,
    tick: u64,
    stats: &'s CacheStats,
    /// Campaign-wide residency ceiling from the soft memory budget
    /// (`--mem-budget-mb`): a level-2 insert that would push the global
    /// resident gauge past it is shed instead of admitted.
    shed_limit: Option<u64>,
}

impl<'s> UnitPrefixCache<'s> {
    /// Create a cache with a level-2 byte cap ([`SweepMode::per_unit_cap_bytes`];
    /// `None` retains nothing). The cap is *soft*: the most-recently-inserted
    /// entry is always retained (evicting the data a pipeline is about to
    /// read would thrash), so residency can exceed the cap by at most one
    /// entry.
    pub fn new(cap_bytes: Option<u64>, stats: &'s CacheStats) -> Self {
        Self {
            cap_bytes,
            level1: None,
            level2: HashMap::new(),
            level2_resident: 0,
            level1_resident: 0,
            tick: 0,
            stats,
            shed_limit: None,
        }
    }

    /// Attach a campaign-wide residency ceiling (see
    /// [`Self::shed_limit`]). `None` leaves admission ungoverned.
    pub fn with_shed_limit(mut self, limit: Option<u64>) -> Self {
        self.shed_limit = limit;
        self
    }

    /// Look up the unit's `(s1)` prefix, computing and pinning it on
    /// first use. Every call counts: per-pipeline lookups are what make
    /// the hit/miss telemetry meaningful.
    pub fn level1<E>(
        &mut self,
        compute: impl FnOnce() -> Result<PrefixEntry, E>,
    ) -> Result<Arc<PrefixEntry>, E> {
        self.stats.lookup(1);
        if let Some(e) = &self.level1 {
            self.stats.hit(1);
            return Ok(Arc::clone(e));
        }
        self.stats.miss(1);
        let entry = Arc::new(compute()?);
        if self.cap_bytes.is_none() {
            return Ok(entry);
        }
        self.level1_resident = entry.bytes();
        self.stats.resident_add(self.level1_resident);
        self.level1 = Some(Arc::clone(&entry));
        Ok(entry)
    }

    /// Look up the `(s1, s2)` prefix for stage-2 component `key`,
    /// computing it on miss and evicting least-recently-used peers until
    /// the level-2 residency is back under the cap.
    pub fn level2<E>(
        &mut self,
        key: usize,
        compute: impl FnOnce() -> Result<PrefixEntry, E>,
    ) -> Result<Arc<PrefixEntry>, E> {
        self.stats.lookup(1);
        self.tick += 1;
        if let Some((e, last)) = self.level2.get_mut(&key) {
            *last = self.tick;
            self.stats.hit(1);
            return Ok(Arc::clone(e));
        }
        self.stats.miss(1);
        let entry = Arc::new(compute()?);
        let Some(cap_bytes) = self.cap_bytes else {
            return Ok(entry);
        };
        let bytes = entry.bytes();
        // Admission control: under memory pressure (global residency
        // would cross the budget's shed limit) or a chaos allocation
        // denial, hand the entry to the caller without caching it. The
        // result is bit-identical either way — a future lookup simply
        // recomputes.
        let over_budget = self
            .shed_limit
            .is_some_and(|lim| self.stats.resident_bytes().saturating_add(bytes) > lim);
        if over_budget || !lc_chaos::alloc_allowed(bytes) {
            self.stats.shed(1);
            return Ok(entry);
        }
        self.level2_resident += bytes;
        self.stats.resident_add(bytes);
        self.level2.insert(key, (Arc::clone(&entry), self.tick));
        // Evict LRU entries (never the one just inserted) until under
        // cap. Entries handed out as `Arc`s stay alive for any borrower;
        // eviction only drops the cache's reference.
        while self.level2_resident > cap_bytes && self.level2.len() > 1 {
            let lru = self
                .level2
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| *k)
                .expect("len > 1 guarantees a peer"); // invariant: len > 1 checked above
            let (victim, _) = self.level2.remove(&lru).expect("lru key present"); // invariant: key chosen from this map
            let freed = victim.bytes();
            self.level2_resident -= freed;
            self.stats.resident_sub(freed);
            self.stats.evict(1);
        }
        Ok(entry)
    }

    /// Number of level-2 entries currently resident.
    pub fn level2_len(&self) -> usize {
        self.level2.len()
    }
}

impl Drop for UnitPrefixCache<'_> {
    fn drop(&mut self) {
        // Return the unit's residency to the campaign-wide gauge; these
        // are natural end-of-unit releases, not evictions.
        self.stats
            .resident_sub(self.level1_resident + self.level2_resident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ChunkedData;
    use lc_core::KernelStats;

    fn entry(payload_bytes: usize) -> PrefixEntry {
        PrefixEntry {
            outcome: StageOutcome {
                output: ChunkedData {
                    chunks: vec![vec![0u8; payload_bytes]],
                },
                enc: KernelStats::new(),
                dec: KernelStats::new(),
                applied: 1,
                skipped: 0,
            },
            times: vec![(1.0, 2.0)],
        }
    }

    #[test]
    fn level1_computes_once_then_hits() {
        let stats = CacheStats::default();
        let mut cache = UnitPrefixCache::new(Some(u64::MAX), &stats);
        let mut computed = 0;
        for _ in 0..5 {
            let e = cache
                .level1(|| -> Result<_, ()> {
                    computed += 1;
                    Ok(entry(100))
                })
                .unwrap();
            assert_eq!(e.outcome.output.total_bytes(), 100);
        }
        assert_eq!(computed, 1);
        let r = stats.report();
        assert_eq!((r.hits, r.misses), (4, 1));
    }

    #[test]
    fn level2_lru_eviction_under_byte_cap() {
        let stats = CacheStats::default();
        // Each entry is ~4120 bytes; cap fits two entries, not three.
        let mut cache = UnitPrefixCache::new(Some(9000), &stats);
        for key in 0..3usize {
            cache
                .level2(key, || -> Result<_, ()> { Ok(entry(4096)) })
                .unwrap();
        }
        assert_eq!(cache.level2_len(), 2, "third insert evicts the LRU");
        // Key 0 was least recently used — re-requesting it is a miss.
        let mut recomputed = false;
        cache
            .level2(0, || -> Result<_, ()> {
                recomputed = true;
                Ok(entry(4096))
            })
            .unwrap();
        assert!(recomputed);
        let r = stats.report();
        assert_eq!(r.evictions, 2, "one for key 0, one for its successor");
    }

    #[test]
    fn touched_entries_survive_eviction() {
        let stats = CacheStats::default();
        let mut cache = UnitPrefixCache::new(Some(9000), &stats);
        for key in 0..2usize {
            cache
                .level2(key, || -> Result<_, ()> { Ok(entry(4096)) })
                .unwrap();
        }
        // Touch key 0 so key 1 becomes the LRU, then overflow.
        cache
            .level2(0, || -> Result<_, ()> { panic!("must be a hit") })
            .unwrap();
        cache
            .level2(2, || -> Result<_, ()> { Ok(entry(4096)) })
            .unwrap();
        let mut hit = true;
        cache
            .level2(0, || -> Result<_, ()> {
                hit = false;
                Ok(entry(4096))
            })
            .unwrap();
        assert!(hit, "recently-touched entry must not be the evictee");
    }

    #[test]
    fn soft_cap_always_keeps_the_live_entry() {
        let stats = CacheStats::default();
        let mut cache = UnitPrefixCache::new(Some(1), &stats); // absurdly small
        let e = cache
            .level2(7, || -> Result<_, ()> { Ok(entry(4096)) })
            .unwrap();
        assert_eq!(cache.level2_len(), 1, "the sole entry is never evicted");
        assert_eq!(e.outcome.output.total_bytes(), 4096);
    }

    #[test]
    fn residency_peaks_then_returns_to_zero_after_drop() {
        let stats = CacheStats::default();
        {
            let mut cache = UnitPrefixCache::new(Some(u64::MAX), &stats);
            cache
                .level1(|| -> Result<_, ()> { Ok(entry(1000)) })
                .unwrap();
            cache
                .level2(0, || -> Result<_, ()> { Ok(entry(2000)) })
                .unwrap();
        }
        let r = stats.report();
        assert!(r.peak_resident_bytes >= 3000);
        assert_eq!(stats.resident.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shed_limit_refuses_admission_under_pressure() {
        let stats = CacheStats::default();
        // entry(500).bytes() is 540; the limit admits one entry and
        // sheds the second (540 + 540 > 1000).
        let mut cache = UnitPrefixCache::new(Some(u64::MAX), &stats).with_shed_limit(Some(1000));
        cache
            .level2(0, || -> Result<_, ()> { Ok(entry(500)) })
            .unwrap();
        assert_eq!(cache.level2_len(), 1);
        let e = cache
            .level2(1, || -> Result<_, ()> { Ok(entry(500)) })
            .unwrap();
        assert_eq!(
            e.outcome.output.total_bytes(),
            500,
            "a shed entry is still handed to the caller"
        );
        assert_eq!(cache.level2_len(), 1, "shed entries are not admitted");
        assert_eq!(stats.report().sheds, 1);
        // A later lookup for the shed key recomputes: still a
        // correctly-classified miss, bit-identical result.
        let mut recomputed = false;
        cache
            .level2(1, || -> Result<_, ()> {
                recomputed = true;
                Ok(entry(500))
            })
            .unwrap();
        assert!(recomputed);
        let r = stats.report();
        assert_eq!(r.hits + r.misses, 3);
    }

    #[test]
    fn report_hit_rate() {
        let stats = CacheStats::default();
        stats.lookup(4);
        stats.hit(3);
        stats.miss(1);
        let r = stats.report();
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheReport::default().hit_rate(), 0.0);
    }

    #[test]
    fn sweep_mode_labels_and_caps() {
        assert_eq!(SweepMode::default().label(), "memoized");
        assert_eq!(SweepMode::Naive.label(), "naive");
        assert_eq!(SweepMode::Naive.per_unit_cap_bytes(8), None);
        assert_eq!(
            SweepMode::Memoized { cache_mb: 64 }.per_unit_cap_bytes(4),
            Some(16 * 1024 * 1024)
        );
    }

    #[test]
    fn naive_cache_retains_nothing() {
        let stats = CacheStats::default();
        let mut cache = UnitPrefixCache::new(SweepMode::Naive.per_unit_cap_bytes(2), &stats);
        let mut computed = 0;
        for _ in 0..3 {
            cache
                .level1(|| -> Result<_, ()> {
                    computed += 1;
                    Ok(entry(100))
                })
                .unwrap();
            cache
                .level2(0, || -> Result<_, ()> {
                    computed += 1;
                    Ok(entry(100))
                })
                .unwrap();
        }
        assert_eq!(computed, 6, "every lookup recomputes");
        assert_eq!(cache.level2_len(), 0);
        let r = stats.report();
        assert_eq!((r.hits, r.misses, r.sheds), (0, 6, 0));
        assert_eq!(r.peak_resident_bytes, 0);
    }

    #[test]
    fn errors_propagate_without_caching() {
        let stats = CacheStats::default();
        let mut cache = UnitPrefixCache::new(Some(u64::MAX), &stats);
        let r = cache.level1(|| -> Result<PrefixEntry, &str> { Err("boom") });
        assert_eq!(r.err(), Some("boom"));
        // The failed compute must not have pinned anything: the next
        // call is a miss again.
        let mut computed = false;
        cache
            .level1(|| -> Result<_, ()> {
                computed = true;
                Ok(entry(10))
            })
            .unwrap();
        assert!(computed);
    }
}
