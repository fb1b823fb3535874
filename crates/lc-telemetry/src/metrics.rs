//! Counters and fixed-bucket histograms.
//!
//! Both are process-global, registered by name on first use, and updated
//! with relaxed atomics only — a counter bump or histogram record is a
//! handful of uncontended atomic adds. Registration takes a mutex, so
//! hot paths should resolve their handle once (`let h = histogram(...)`)
//! and reuse it inside loops.
//!
//! Histograms use 64 power-of-two buckets: bucket *i* counts values in
//! `[2^i, 2^(i+1))` (bucket 0 additionally holds 0). That gives ~2×
//! resolution over the full `u64` range with a fixed 512-byte footprint,
//! which is exactly what nanosecond latency distributions need. Reported
//! percentiles locate the requested rank's bucket and **linearly
//! interpolate** within it by the rank's position among the bucket's
//! samples, so quantiles are no longer pinned to power-of-two bucket
//! edges; a rank that consumes its whole bucket still reports the
//! bucket's inclusive upper bound (conservative, ≤ 2× error).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing named counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Add `n` (relaxed; only when metrics are recording).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::metrics_on() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A last-value gauge that also tracks its high-water mark.
///
/// Counters only go up; a gauge models a level (bytes resident in a
/// cache, queue depth) that rises and falls. `set` records the current
/// level and folds it into the maximum, so a snapshot shows both where
/// the level ended and how high it ever got.
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// Record the current level (relaxed; only when metrics are recording).
    #[inline]
    pub fn set(&self, v: u64) {
        if crate::metrics_on() {
            self.value.store(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The most recently recorded level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever recorded.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Number of power-of-two buckets.
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram of `u64` samples.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Snapshot of a histogram: count, sum, and interpolated percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// 50th-percentile sample value, interpolated within its bucket.
    pub p50: u64,
    /// Same for the 90th percentile.
    pub p90: u64,
    /// Same for the 99th percentile.
    pub p99: u64,
}

/// Bucket index for a sample: `floor(log2(v))`, with 0 and 1 in bucket 0.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (63 - v.max(1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Inclusive lower bound of bucket `i` (bucket 0 starts at 0).
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i.min(63)
    }
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample (relaxed atomics; only when metrics are recording).
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::metrics_on() {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            // Saturating add via CAS-free approximation: a u64 ns sum
            // overflows after ~584 years of accumulated time, so a plain
            // wrapping add is fine in practice; keep it simple.
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Percentile with within-bucket linear interpolation. The sample of
    /// rank `ceil(q * count)` is located in its log₂ bucket, then its
    /// value is estimated by interpolating between the bucket's bounds
    /// according to the rank's position among the bucket's samples. A
    /// rank that consumes the whole bucket still reports the bucket's
    /// inclusive upper bound, so a single-sample histogram reports the
    /// same conservative bound at every quantile and estimates never
    /// leave the true sample's bucket. `q` is clamped to `(0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                let lower = bucket_lower_bound(i);
                let upper = bucket_upper_bound(i);
                let frac = (target - cum) as f64 / n as f64;
                let width = (upper - lower) as f64;
                return lower
                    .saturating_add((frac * width).round() as u64)
                    .min(upper);
            }
            cum += n;
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Snapshot count, sum, and p50/p90/p99.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

struct Registry {
    counters: Mutex<HashMap<String, &'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<HashMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(HashMap::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(HashMap::new()),
    })
}

/// Look up (or create) the counter registered under `name`.
///
/// Accepts dynamic names (e.g. `"component.RLE_4.encode.bytes"`).
/// Counters live for the process lifetime (handle and name are leaked
/// on first registration); resolve once and reuse the handle on hot
/// paths.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if let Some(c) = reg.get(name) {
        return c;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name: leaked,
        value: AtomicU64::new(0),
    }));
    reg.insert(leaked.to_string(), c);
    c
}

/// Look up (or create) the gauge registered under `name`.
///
/// Gauges live for the process lifetime (they are leaked on first
/// registration); resolve once and reuse the handle on hot paths.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry().gauges.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(g) = reg.iter().find(|g| g.name == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        value: AtomicU64::new(0),
        max: AtomicU64::new(0),
    }));
    reg.push(g);
    g
}

/// Look up (or create) the histogram registered under `name`.
///
/// Accepts dynamic names (e.g. `"stage.encode.ns/RLE_4"`); the handle is
/// `'static`, so hot paths should resolve it once outside their loop.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry()
        .histograms
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if let Some(h) = reg.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.insert(name.to_string(), h);
    h
}

/// Snapshot every registered counter as `(name, value)`, name-sorted.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    let reg = registry()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let mut out: Vec<(&'static str, u64)> = reg.values().map(|c| (c.name, c.get())).collect();
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Snapshot every registered gauge as `(name, value, max)`, name-sorted.
pub fn gauge_snapshot() -> Vec<(&'static str, u64, u64)> {
    let reg = registry().gauges.lock().unwrap_or_else(|p| p.into_inner());
    let mut out: Vec<(&'static str, u64, u64)> =
        reg.iter().map(|g| (g.name, g.get(), g.max())).collect();
    out.sort_by_key(|(n, _, _)| *n);
    out
}

/// Snapshot every registered histogram as `(name, summary)`, name-sorted.
pub(crate) fn histogram_snapshot() -> Vec<(String, HistogramSummary)> {
    let reg = registry()
        .histograms
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let mut out: Vec<(String, HistogramSummary)> =
        reg.iter().map(|(n, h)| (n.clone(), h.summary())).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Zero every registered counter and histogram (registrations persist).
pub fn reset() {
    for c in registry()
        .counters
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .values()
    {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in registry()
        .gauges
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
    {
        g.value.store(0, Ordering::Relaxed);
        g.max.store(0, Ordering::Relaxed);
    }
    for h in registry()
        .histograms
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .values()
    {
        h.zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let _g = locked();
        crate::enable();
        let h = Histogram::new();
        // 90 fast samples (~100ns bucket [64,127]) + 10 slow (~1µs bucket
        // [1024,2047]): p50 and p90 land in the fast bucket, p99 in the slow.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        crate::disable();
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 1500);
        // p50: rank 50 of 90 in [64,127] → 64 + (50/90)·63 = 99.
        assert_eq!(s.p50, 99);
        // p90: rank 90 consumes the whole fast bucket → its upper bound.
        assert_eq!(s.p90, 127);
        // p99: rank 99 is the 9th of 10 in [1024,2047] → 1024 + 0.9·1023.
        assert_eq!(s.p99, 1945);
    }

    #[test]
    fn interpolated_percentiles_are_not_bucket_edges() {
        let _g = locked();
        crate::enable();
        let h = Histogram::new();
        // Uniform fill of one wide bucket: quantiles should spread across
        // it instead of all collapsing onto the 8191 edge.
        for v in 4096u64..8192 {
            h.record(v);
        }
        crate::disable();
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        assert!(p50 > 4096 && p50 < 8191, "p50 {p50} inside the bucket");
        assert!(p90 > p50 && p90 < 8191, "p90 {p90} above p50, below edge");
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let _g = locked();
        crate::enable();
        let h = Histogram::new();
        h.record(5000);
        crate::disable();
        let ub = bucket_upper_bound(bucket_index(5000));
        assert_eq!(h.percentile(0.01), ub);
        assert_eq!(h.percentile(0.5), ub);
        assert_eq!(h.percentile(1.0), ub);
    }

    #[test]
    fn counters_accumulate_only_when_enabled() {
        let _g = locked();
        let c = counter("test.counter.gated");
        c.value.store(0, Ordering::Relaxed);
        crate::disable();
        c.add(5);
        assert_eq!(c.get(), 0);
        crate::enable();
        c.add(5);
        c.add(2);
        crate::disable();
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn gauge_tracks_level_and_high_water_mark() {
        let _g = locked();
        let g = gauge("test.gauge.level");
        g.value.store(0, Ordering::Relaxed);
        g.max.store(0, Ordering::Relaxed);
        crate::disable();
        g.set(100);
        assert_eq!(g.get(), 0, "disabled gauge records nothing");
        crate::enable();
        g.set(100);
        g.set(700);
        g.set(300);
        crate::disable();
        assert_eq!(g.get(), 300);
        assert_eq!(g.max(), 700);
        let snap = gauge_snapshot();
        let row = snap.iter().find(|(n, _, _)| *n == "test.gauge.level");
        assert_eq!(row, Some(&("test.gauge.level", 300, 700)));
    }

    #[test]
    fn registry_returns_same_handle() {
        let a = histogram("test.hist.same") as *const Histogram;
        let b = histogram("test.hist.same") as *const Histogram;
        assert_eq!(a, b);
        let c = counter("test.counter.same") as *const Counter;
        let d = counter("test.counter.same") as *const Counter;
        assert_eq!(c, d);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let _g = locked();
        crate::enable();
        let h = histogram("test.hist.concurrent");
        h.zero();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        h.record(i);
                    }
                });
            }
        });
        crate::disable();
        assert_eq!(h.count(), 4000);
    }
}
