//! Kernel execution statistics.
//!
//! While a component transforms a chunk it records what the equivalent GPU
//! kernel would have done: how many words it touched, how much arithmetic
//! each thread performed, its global/shared memory traffic, and how often
//! it synchronized (warp shuffles, `__syncthreads`, atomics, scan steps).
//! `gpu-sim` converts these counters into simulated kernel time for a given
//! (GPU, compiler, optimization level) — this is the substitution that
//! stands in for the paper's physical measurements.

/// Counters describing one kernel execution (or an aggregate of many).
///
/// All counters are totals across the whole (simulated) grid, not
/// per-thread values; `gpu-sim` divides by the configured parallelism.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Words processed (word size is a property of the component).
    pub words: u64,
    /// Total arithmetic/logical operations across all threads.
    pub thread_ops: u64,
    /// Bytes read from (simulated) global memory.
    pub global_reads: u64,
    /// Bytes written to (simulated) global memory.
    pub global_writes: u64,
    /// Bytes moved through (simulated) shared memory.
    pub shared_traffic: u64,
    /// Warp shuffle operations (`__shfl_*`), counted per participating lane.
    pub warp_shuffles: u64,
    /// Warp-scope synchronizations (`__syncwarp`).
    pub warp_syncs: u64,
    /// Block-scope synchronizations (`__syncthreads`).
    pub block_syncs: u64,
    /// Atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Log-depth steps of intra-chunk prefix scans / reductions.
    pub scan_steps: u64,
    /// Branches whose outcome diverges within a warp.
    pub divergent_branches: u64,
}

impl KernelStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another counter set into this one (saturating; the
    /// counters are 64-bit so saturation is unreachable in practice but
    /// keeps aggregation panic-free under adversarial inputs).
    pub fn merge(&mut self, other: &KernelStats) {
        self.words = self.words.saturating_add(other.words);
        self.thread_ops = self.thread_ops.saturating_add(other.thread_ops);
        self.global_reads = self.global_reads.saturating_add(other.global_reads);
        self.global_writes = self.global_writes.saturating_add(other.global_writes);
        self.shared_traffic = self.shared_traffic.saturating_add(other.shared_traffic);
        self.warp_shuffles = self.warp_shuffles.saturating_add(other.warp_shuffles);
        self.warp_syncs = self.warp_syncs.saturating_add(other.warp_syncs);
        self.block_syncs = self.block_syncs.saturating_add(other.block_syncs);
        self.atomic_ops = self.atomic_ops.saturating_add(other.atomic_ops);
        self.scan_steps = self.scan_steps.saturating_add(other.scan_steps);
        self.divergent_branches = self
            .divergent_branches
            .saturating_add(other.divergent_branches);
    }

    /// Number of counters in [`Self::counters`].
    pub const COUNTERS: usize = 11;

    /// Every counter, in declaration order: a flat encoding for
    /// serializers (the campaign journal stores kernel statistics this
    /// way).
    pub fn counters(&self) -> [u64; Self::COUNTERS] {
        [
            self.words,
            self.thread_ops,
            self.global_reads,
            self.global_writes,
            self.shared_traffic,
            self.warp_shuffles,
            self.warp_syncs,
            self.block_syncs,
            self.atomic_ops,
            self.scan_steps,
            self.divergent_branches,
        ]
    }

    /// Inverse of [`Self::counters`].
    pub fn from_counters(c: [u64; Self::COUNTERS]) -> Self {
        KernelStats {
            words: c[0],
            thread_ops: c[1],
            global_reads: c[2],
            global_writes: c[3],
            shared_traffic: c[4],
            warp_shuffles: c[5],
            warp_syncs: c[6],
            block_syncs: c[7],
            atomic_ops: c[8],
            scan_steps: c[9],
            divergent_branches: c[10],
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Scale every counter by `factor` (rounding to nearest).
    ///
    /// Kernel counters are extensive quantities — proportional to the
    /// amount of data processed — so a measurement taken on a reduced
    /// input extrapolates to the full-size input by scaling. The study
    /// harness uses this to evaluate the cost model at the paper's
    /// operating point while only transforming scaled-down data.
    pub fn scaled(&self, factor: f64) -> KernelStats {
        let f = |v: u64| (v as f64 * factor).round() as u64;
        KernelStats {
            words: f(self.words),
            thread_ops: f(self.thread_ops),
            global_reads: f(self.global_reads),
            global_writes: f(self.global_writes),
            shared_traffic: f(self.shared_traffic),
            warp_shuffles: f(self.warp_shuffles),
            warp_syncs: f(self.warp_syncs),
            block_syncs: f(self.block_syncs),
            atomic_ops: f(self.atomic_ops),
            scan_steps: f(self.scan_steps),
            divergent_branches: f(self.divergent_branches),
        }
    }
}

/// Per-stage aggregate over every chunk of an encode or decode run.
#[derive(Debug, Default, Clone)]
pub struct StageStats {
    /// Component name (e.g. `"RLE_4"`).
    pub component: String,
    /// Kernel counters summed over all chunks where the stage ran.
    pub kernel: KernelStats,
    /// Chunks on which the stage was applied.
    pub chunks_applied: u64,
    /// Chunks on which the stage was skipped (copy-on-expand, or an earlier
    /// reducer left nothing for it to do).
    pub chunks_skipped: u64,
    /// Total bytes entering the stage (applied chunks only).
    pub bytes_in: u64,
    /// Total bytes leaving the stage (applied chunks only).
    pub bytes_out: u64,
}

/// Aggregate statistics for one whole-pipeline encode or decode run.
#[derive(Debug, Default, Clone)]
pub struct PipelineStats {
    /// One entry per pipeline stage, in stage order.
    pub stages: Vec<StageStats>,
    /// Number of chunks processed.
    pub chunks: u64,
    /// Uncompressed bytes.
    pub uncompressed_bytes: u64,
    /// Compressed bytes (payload + per-chunk metadata, excluding the fixed
    /// archive header).
    pub compressed_bytes: u64,
}

impl PipelineStats {
    /// Compression ratio (uncompressed / compressed). Returns 0.0 for an
    /// empty input.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.uncompressed_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = KernelStats {
            words: 1,
            thread_ops: 2,
            global_reads: 3,
            global_writes: 4,
            shared_traffic: 5,
            warp_shuffles: 6,
            warp_syncs: 7,
            block_syncs: 8,
            atomic_ops: 9,
            scan_steps: 10,
            divergent_branches: 11,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.words, 2);
        assert_eq!(a.thread_ops, 4);
        assert_eq!(a.global_reads, 6);
        assert_eq!(a.global_writes, 8);
        assert_eq!(a.shared_traffic, 10);
        assert_eq!(a.warp_shuffles, 12);
        assert_eq!(a.warp_syncs, 14);
        assert_eq!(a.block_syncs, 16);
        assert_eq!(a.atomic_ops, 18);
        assert_eq!(a.scan_steps, 20);
        assert_eq!(a.divergent_branches, 22);
    }

    #[test]
    fn merge_saturates() {
        let mut a = KernelStats {
            words: u64::MAX,
            ..Default::default()
        };
        let b = KernelStats {
            words: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.words, u64::MAX);
    }

    #[test]
    fn scaled_multiplies_counters() {
        let s = KernelStats {
            words: 10,
            thread_ops: 100,
            ..Default::default()
        };
        let t = s.scaled(2.5);
        assert_eq!(t.words, 25);
        assert_eq!(t.thread_ops, 250);
        assert_eq!(t.global_reads, 0);
    }

    #[test]
    fn counters_round_trip_in_declaration_order() {
        let c: [u64; KernelStats::COUNTERS] = std::array::from_fn(|i| i as u64 + 1);
        let s = KernelStats::from_counters(c);
        assert_eq!((s.words, s.divergent_branches), (1, 11));
        assert_eq!(s.counters(), c);
    }

    #[test]
    fn zero_detection() {
        assert!(KernelStats::new().is_zero());
        let s = KernelStats {
            atomic_ops: 1,
            ..Default::default()
        };
        assert!(!s.is_zero());
    }

    #[test]
    fn ratio_handles_empty() {
        let p = PipelineStats::default();
        assert_eq!(p.ratio(), 0.0);
        let p = PipelineStats {
            uncompressed_bytes: 100,
            compressed_bytes: 50,
            ..Default::default()
        };
        assert!((p.ratio() - 2.0).abs() < 1e-12);
    }
}
