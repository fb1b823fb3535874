//! Analytical kernel cost model.
//!
//! One 16 kB chunk maps to one 512-thread block; the GPU schedules
//! `blocks_in_flight()` blocks at a time and drains the grid in waves
//! (paper §5). LC loads each chunk into shared memory once and runs all
//! pipeline stages there (paper §7), so the model charges:
//!
//! * **global memory** once per direction — the uncompressed side plus the
//!   compressed side of the archive;
//! * **per stage**: ALU time (with a divergence penalty), shared-memory
//!   traffic, warp shuffles, and serialized latency for `__syncthreads`
//!   and intra-chunk scan steps (multiplied by the number of waves);
//! * **framework**: kernel launch plus the inter-block synchronization
//!   that the paper identifies as the locus of the compiler differences —
//!   the encoder's decoupled look-back chain and the decoder's block
//!   prefix sum, both with a per-chunk serial term and a per-wave term.
//!
//! The split between supplied and calibrated inputs is the split between
//! two types. A [`GpuSpec`] holds spec-sheet and paper-table values; a
//! [`Model`] holds every calibrated constant, and [`Model::PAPER`] is the
//! calibration the study prices with. The calibration reproduces the
//! *shape* of the paper's figures, not absolute numbers (the substitution
//! contract in DESIGN.md). An ablation is a transformed `Model`
//! (`Model::no_framework` and friends) and a multi-socket build a
//! transformed `GpuSpec` (`GpuSpec::numa`); both are priced by the same
//! methods as the campaign, and both exist only under `#[cfg(test)]`,
//! behind the §6.1/§7 tests in `ablation/tests.rs` and `numa/tests.rs`.

use lc_core::KernelStats;

use crate::compiler::{CodegenProfile, CompilerId, OptLevel, ProfileTable, PAPER_PROFILES};
use crate::specs::GpuSpec;

/// Direction of a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Compression.
    Encode,
    /// Decompression.
    Decode,
}

/// A (GPU, compiler, optimization level) execution context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Target GPU.
    pub gpu: GpuSpec,
    /// Compiler that produced the executable.
    pub compiler: CompilerId,
    /// Optimization flag of the build.
    pub opt: OptLevel,
}

impl SimConfig {
    /// Create a config, validating that the compiler targets the GPU.
    ///
    /// ```
    /// use gpu_sim::{SimConfig, CompilerId, OptLevel, RTX_4090};
    /// let cfg = SimConfig::new(&RTX_4090, CompilerId::Clang, OptLevel::O3);
    /// assert_eq!(cfg.label(), "RTX 4090/Clang/-O3");
    /// ```
    ///
    /// ```should_panic
    /// use gpu_sim::{SimConfig, CompilerId, OptLevel, MI100};
    /// SimConfig::new(&MI100, CompilerId::Nvcc, OptLevel::O3); // NVCC is NVIDIA-only
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the compiler cannot target the GPU's vendor.
    pub fn new(gpu: &GpuSpec, compiler: CompilerId, opt: OptLevel) -> Self {
        assert!(
            compiler.supports(gpu.vendor),
            "{} cannot target {}",
            compiler.label(),
            gpu.name
        );
        Self {
            gpu: *gpu,
            compiler,
            opt,
        }
    }

    /// Short label like `"RTX 4090/Clang/-O3"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.gpu.name,
            self.compiler.label(),
            match self.opt {
                OptLevel::O1 => "-O1",
                OptLevel::O3 => "-O3",
            }
        )
    }
}

/// How a pipeline's in-SM work and its DRAM traffic combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// `max(Σ stage, DRAM)`: the two overlap and the slower bounds the
    /// kernel.
    Roofline,
    /// `Σ stage + DRAM`: no overlap.
    Additive,
}

/// The cost model's calibrated constants. Units are cycles unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// Effective cycles per recorded ALU op (dependency stalls, address
    /// arithmetic, imperfect ILP fold into this).
    pub cycles_per_op: f64,
    /// Extra ops charged per divergent branch (a warp's masked lanes
    /// re-execute).
    pub divergence_ops: f64,
    /// Cycles per warp-shuffle per lane.
    pub shuffle_cycles: f64,
    /// Achieved shared-memory bytes per SM per cycle (bank conflicts and
    /// ld/st issue limits fold into this; peak is 128).
    pub shared_bytes_per_sm_cycle: f64,
    /// Serialized latency of one `__syncthreads`.
    pub block_sync_cycles: f64,
    /// Serialized latency of one `__syncwarp`.
    pub warp_sync_cycles: f64,
    /// Serialized latency of one intra-chunk scan/reduction step
    /// (shared-memory round trip + sync for a 512-thread block).
    pub scan_step_cycles: f64,
    /// Cycles per global atomic, serialized per SM.
    pub atomic_cycles: f64,
    /// Encoder: serial decoupled look-back chain cycles per chunk.
    pub enc_lookback_chain_cycles: f64,
    /// Encoder: per-wave look-back polling/publication overhead.
    pub enc_lookback_wave_cycles: f64,
    /// Decoder: serial block-prefix-sum chain cycles per chunk.
    pub dec_scan_chain_cycles: f64,
    /// Decoder: per-wave prefix-sum overhead.
    pub dec_scan_wave_cycles: f64,
    /// Codegen multipliers per compiler, vendor and opt level.
    pub profiles: ProfileTable,
    /// How stage time and DRAM time add up.
    pub combine: Combine,
    /// Width of the run-to-run jitter the median-of-three protocol draws
    /// each run's relative time error from (0.008 = ±0.4 %).
    pub run_jitter: f64,
}

/// One stage's cycle counts before the GPU's lanes, clock and waves turn
/// them into seconds: the terms [`Model::stage_time`] and the event
/// simulator both price.
pub(crate) struct CycleTerms {
    /// ALU lane-cycles, divergence penalty included.
    pub compute: f64,
    /// Warp-shuffle lane-cycles.
    pub shuffle: f64,
    /// Serialized `__syncthreads`, `__syncwarp` and scan-step cycles.
    pub latency: f64,
}

impl Model {
    /// The calibration every figure is priced with.
    pub const PAPER: Model = Model {
        cycles_per_op: 40.0,
        divergence_ops: 24.0,
        shuffle_cycles: 4.0,
        shared_bytes_per_sm_cycle: 32.0,
        block_sync_cycles: 40.0,
        warp_sync_cycles: 8.0,
        scan_step_cycles: 600.0,
        atomic_cycles: 20.0,
        enc_lookback_chain_cycles: 60.0,
        enc_lookback_wave_cycles: 400.0,
        dec_scan_chain_cycles: 45.0,
        dec_scan_wave_cycles: 300.0,
        profiles: PAPER_PROFILES,
        combine: Combine::Roofline,
        run_jitter: 0.008,
    };

    /// The codegen profile of `cfg`'s compiler, opt level and vendor.
    pub fn profile(&self, cfg: &SimConfig) -> &CodegenProfile {
        self.profiles.get(cfg.compiler, cfg.opt, cfg.gpu.vendor)
    }

    pub(crate) fn cycle_terms(
        &self,
        gpu: &GpuSpec,
        p: &CodegenProfile,
        stats: &KernelStats,
    ) -> CycleTerms {
        // Warp-64 GPUs pay double per divergent branch (twice as many
        // masked lanes).
        let div_ops = stats.divergent_branches as f64
            * self.divergence_ops
            * (f64::from(gpu.warp_size) / 32.0);
        // log2(warp) shuffle steps were recorded per scan; a warp-64
        // machine runs one extra shuffle level but over half as many warps.
        let shuffle_scale = (f64::from(gpu.warp_size).log2() / 5.0).max(1.0);
        CycleTerms {
            compute: (stats.thread_ops as f64 + div_ops) * self.cycles_per_op * p.compute,
            shuffle: stats.warp_shuffles as f64 * self.shuffle_cycles * shuffle_scale * p.shuffle,
            latency: stats.block_syncs as f64 * self.block_sync_cycles
                + stats.warp_syncs as f64 * self.warp_sync_cycles
                + stats.scan_steps as f64 * self.scan_step_cycles,
        }
    }

    /// Time for one pipeline-stage kernel phase, excluding global memory
    /// (charged once per direction by [`Model::pipeline_time`]).
    pub fn stage_time(&self, cfg: &SimConfig, stats: &KernelStats, chunks: u64) -> f64 {
        if chunks == 0 {
            return 0.0;
        }
        let gpu = &cfg.gpu;
        let clock = gpu.clock_hz();
        let occupancy = occupancy(gpu, chunks);
        let lanes = f64::from(gpu.alu_per_sm) * f64::from(gpu.sms) * occupancy;
        let terms = self.cycle_terms(gpu, self.profile(cfg), stats);
        let t_compute = terms.compute / lanes / clock;
        let t_shuffle = terms.shuffle / lanes / clock;
        // Inter-stage data stays in shared memory.
        let shared_bw = self.shared_bytes_per_sm_cycle * f64::from(gpu.sms) * occupancy * clock;
        let t_shared = stats.shared_traffic as f64 / shared_bw;
        // Serialized per-block latency, overlapped across a wave.
        let t_latency = waves(gpu, chunks) * (terms.latency / chunks as f64) / clock;
        let t_atomic = stats.atomic_ops as f64 * self.atomic_cycles / f64::from(gpu.sms) / clock;
        t_compute + t_shuffle + t_shared + t_latency + t_atomic
    }

    /// Framework overhead for one direction: kernel launch plus the
    /// inter-block synchronization (encoder look-back / decoder block
    /// scan).
    pub(crate) fn framework_time(&self, cfg: &SimConfig, direction: Direction, chunks: u64) -> f64 {
        let p = self.profile(cfg);
        let (chain, wave, multiplier) = match direction {
            Direction::Encode => (
                self.enc_lookback_chain_cycles,
                self.enc_lookback_wave_cycles,
                p.lookback,
            ),
            Direction::Decode => (
                self.dec_scan_chain_cycles,
                self.dec_scan_wave_cycles,
                p.block_scan,
            ),
        };
        let w = waves(&cfg.gpu, chunks);
        p.launch_us * 1e-6 + (chunks as f64 * chain + w * wave) * multiplier / cfg.gpu.clock_hz()
    }

    /// Seconds per byte of DRAM traffic at the achieved bandwidth.
    pub(crate) fn dram_seconds_per_byte(&self, cfg: &SimConfig) -> f64 {
        1.0 / (cfg.gpu.mem_bandwidth_gbs * 1e9 * self.profile(cfg).memory_efficiency)
    }

    /// One direction's pipeline time on `cfg` over a grid of `chunks`,
    /// as a function of the summed stage time and the bytes the pipeline
    /// moves through DRAM. The framework and DRAM terms the platform and
    /// the chunk count fix are computed here, once: a caller pricing many
    /// pipelines over one grid calls this once per platform and direction.
    ///
    /// The roofline matters for the figures' *shape*: cheap kernels
    /// (mutator decoders, skipped reducers) pile up against the bandwidth
    /// ceiling, which produces the dense top edge — the "skews towards
    /// higher throughputs" — of the paper's decoding distributions (§6.1),
    /// while work-heavy encoders spread out below it.
    pub fn grid_time(
        &self,
        cfg: &SimConfig,
        direction: Direction,
        chunks: u64,
    ) -> impl Fn(f64, u64) -> f64 {
        let framework = self.framework_time(cfg, direction, chunks);
        let dram_seconds_per_byte = self.dram_seconds_per_byte(cfg);
        let combine = self.combine;
        move |stages, dram_bytes| {
            let dram = dram_bytes as f64 * dram_seconds_per_byte;
            match combine {
                Combine::Roofline => stages.max(dram) + framework,
                Combine::Additive => stages + dram + framework,
            }
        }
    }

    /// Total simulated time for one pipeline run.
    ///
    /// * `stage_kernels` — per-stage aggregated [`KernelStats`] for this
    ///   direction (encode stats when encoding, decode stats when
    ///   decoding).
    /// * `chunks` — number of 16 kB chunks.
    /// * `uncompressed`/`compressed` — bytes on the two sides of the
    ///   archive; both cross DRAM exactly once per direction.
    pub fn pipeline_time(
        &self,
        cfg: &SimConfig,
        direction: Direction,
        stage_kernels: &[KernelStats],
        chunks: u64,
        uncompressed: u64,
        compressed: u64,
    ) -> f64 {
        let stages: f64 = stage_kernels
            .iter()
            .map(|s| self.stage_time(cfg, s, chunks))
            .sum();
        self.grid_time(cfg, direction, chunks)(stages, uncompressed + compressed)
    }
}

/// Fractional wave count: the per-wave latency terms scale with how many
/// times the grid refills the GPU. A partial wave costs proportionally
/// (its blocks' latencies overlap with nothing extra), so this is not
/// rounded up — which also makes per-chunk costs scale-invariant, a
/// property the reduced-scale campaign relies on.
fn waves(gpu: &GpuSpec, chunks: u64) -> f64 {
    if chunks == 0 {
        0.0
    } else {
        (chunks as f64 / f64::from(gpu.blocks_in_flight())).max(1.0)
    }
}

/// Fraction of the GPU's throughput resources a grid of `chunks` blocks
/// can use (1.0 when the GPU is fully occupied; paper §5 notes all tested
/// inputs fully occupy all tested GPUs, so this matters only for tiny
/// inputs and partial final waves).
fn occupancy(gpu: &GpuSpec, chunks: u64) -> f64 {
    if chunks == 0 {
        return 1.0;
    }
    let bif = f64::from(gpu.blocks_in_flight());
    let w = waves(gpu, chunks);
    (chunks as f64 / (w * bif)).min(1.0)
}

/// [`Model::pipeline_time`] under [`Model::PAPER`].
pub fn pipeline_time(
    cfg: &SimConfig,
    direction: Direction,
    stage_kernels: &[KernelStats],
    chunks: u64,
    uncompressed: u64,
    compressed: u64,
) -> f64 {
    Model::PAPER.pipeline_time(
        cfg,
        direction,
        stage_kernels,
        chunks,
        uncompressed,
        compressed,
    )
}

/// Throughput in uncompressed GB/s for a run of `uncompressed` bytes
/// taking `seconds` (the paper's metric: uncompressed bytes processed per
/// second).
pub fn throughput_gbs(uncompressed: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        uncompressed as f64 / 1e9 / seconds
    }
}

/// The §6.1 ablations: transformed models priced by the campaign's own
/// methods. Only the tests in `ablation/` consume them.
#[cfg(test)]
impl Model {
    /// Ablation: framework operations (look-back, block scan, launch) cost
    /// nothing. The §6.1 Clang/NVCC split should vanish.
    pub(crate) fn no_framework(&self) -> Model {
        let mut m = *self;
        for p in m.profiles.0.iter_mut().flatten() {
            p.lookback = 0.0;
            p.block_scan = 0.0;
            p.launch_us = 0.0;
        }
        m
    }

    /// Ablation: divergent branches cost nothing.
    pub(crate) fn no_divergence(&self) -> Model {
        Model {
            divergence_ops: 0.0,
            ..*self
        }
    }

    /// Ablation: syncs and scan steps cost nothing.
    pub(crate) fn no_latency(&self) -> Model {
        Model {
            block_sync_cycles: 0.0,
            warp_sync_cycles: 0.0,
            scan_step_cycles: 0.0,
            ..*self
        }
    }

    /// Ablation: stage time and DRAM time add instead of overlapping.
    pub(crate) fn no_roofline(&self) -> Model {
        Model {
            combine: Combine::Additive,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{MI100, RTX_3080_TI, RTX_4090, TITAN_V};

    fn cfg(compiler: CompilerId, opt: OptLevel) -> SimConfig {
        SimConfig::new(&RTX_4090, compiler, opt)
    }

    /// Typical per-chunk stats for a mid-weight component over `chunks`
    /// 16 kB chunks at word size 4.
    fn typical_stats(chunks: u64) -> KernelStats {
        let words = chunks * 4096;
        KernelStats {
            words,
            thread_ops: words * 3,
            global_reads: chunks * 16384,
            global_writes: chunks * 16384,
            shared_traffic: chunks * 32768,
            warp_shuffles: words / 8,
            warp_syncs: chunks * 16,
            block_syncs: chunks * 4,
            atomic_ops: chunks,
            scan_steps: chunks * 13,
            divergent_branches: chunks * 10,
        }
    }

    #[test]
    #[should_panic(expected = "cannot target")]
    fn clang_on_amd_rejected() {
        SimConfig::new(&MI100, CompilerId::Clang, OptLevel::O3);
    }

    #[test]
    fn zero_chunks_zero_stage_time() {
        let c = cfg(CompilerId::Nvcc, OptLevel::O3);
        assert_eq!(Model::PAPER.stage_time(&c, &KernelStats::new(), 0), 0.0);
    }

    #[test]
    fn more_work_takes_longer() {
        let c = cfg(CompilerId::Nvcc, OptLevel::O3);
        let t1 = Model::PAPER.stage_time(&c, &typical_stats(64), 64);
        let mut heavy = typical_stats(64);
        heavy.thread_ops *= 10;
        let t2 = Model::PAPER.stage_time(&c, &heavy, 64);
        assert!(t2 > t1);
    }

    #[test]
    fn throughput_scales_with_gpu_generation() {
        // The paper's Fig. 2 staircase: TITAN V < 3080 Ti < 4090 for the
        // same work.
        let chunks = 6400u64; // ~100 MB
        let bytes = chunks * 16384;
        let stats = [typical_stats(chunks); 3];
        let mut previous = 0.0;
        for gpu in [&TITAN_V, &RTX_3080_TI, &RTX_4090] {
            let c = SimConfig::new(gpu, CompilerId::Nvcc, OptLevel::O3);
            let t = pipeline_time(&c, Direction::Encode, &stats, chunks, bytes, bytes / 2);
            let tp = throughput_gbs(bytes, t);
            assert!(tp > previous, "{}: {tp} vs {previous}", gpu.name);
            previous = tp;
        }
    }

    #[test]
    fn simulated_throughputs_are_plausible() {
        // Sanity: a mid-weight 3-stage pipeline on the 4090 should land in
        // the tens-to-hundreds of GB/s, as in the paper's figures.
        let chunks = 6400u64;
        let bytes = chunks * 16384;
        let stats = [typical_stats(chunks); 3];
        let c = cfg(CompilerId::Nvcc, OptLevel::O3);
        let t = pipeline_time(&c, Direction::Encode, &stats, chunks, bytes, bytes / 2);
        let tp = throughput_gbs(bytes, t);
        assert!(tp > 20.0 && tp < 2000.0, "throughput {tp} GB/s");
    }

    #[test]
    fn clang_encodes_slower_decodes_faster_than_nvcc() {
        let chunks = 6400u64;
        let bytes = chunks * 16384;
        let stats = [typical_stats(chunks); 3];
        let enc = |comp| {
            pipeline_time(
                &cfg(comp, OptLevel::O3),
                Direction::Encode,
                &stats,
                chunks,
                bytes,
                bytes / 2,
            )
        };
        let dec = |comp| {
            pipeline_time(
                &cfg(comp, OptLevel::O3),
                Direction::Decode,
                &stats,
                chunks,
                bytes,
                bytes / 2,
            )
        };
        assert!(
            enc(CompilerId::Clang) > enc(CompilerId::Nvcc),
            "Clang encode slower"
        );
        assert!(
            dec(CompilerId::Clang) < dec(CompilerId::Nvcc),
            "Clang decode faster"
        );
        // NVCC ≈ HIPCC on NVIDIA (within 2%).
        let ratio = enc(CompilerId::Hipcc) / enc(CompilerId::Nvcc);
        assert!((ratio - 1.0).abs() < 0.02, "NVCC vs HIPCC ratio {ratio}");
    }

    #[test]
    fn clang_o3_encode_regression_o1_baseline() {
        // Fig. 14: Clang -O1 → -O3 encode speedup < 1 on NVIDIA.
        let chunks = 6400u64;
        let bytes = chunks * 16384;
        let stats = [typical_stats(chunks); 3];
        let t_o1 = pipeline_time(
            &cfg(CompilerId::Clang, OptLevel::O1),
            Direction::Encode,
            &stats,
            chunks,
            bytes,
            bytes / 2,
        );
        let t_o3 = pipeline_time(
            &cfg(CompilerId::Clang, OptLevel::O3),
            Direction::Encode,
            &stats,
            chunks,
            bytes,
            bytes / 2,
        );
        // Mixed effect: framework regresses, compute improves. Net must
        // not be a clear speedup.
        let speedup = t_o1 / t_o3;
        assert!(speedup < 1.05, "Clang O3 encode speedup {speedup}");
    }

    #[test]
    fn framework_time_scales_with_chunks() {
        let c = cfg(CompilerId::Nvcc, OptLevel::O3);
        let t1 = Model::PAPER.framework_time(&c, Direction::Encode, 100);
        let t2 = Model::PAPER.framework_time(&c, Direction::Encode, 10_000);
        assert!(t2 > t1 * 10.0, "chain term dominates for large grids");
    }

    #[test]
    fn warp64_changes_latency_profile() {
        // The MI100 (warp 64) pays more for divergence than a warp-32 GPU
        // of equal spec would; assert the divergence multiplier engages.
        let c64 = SimConfig::new(&MI100, CompilerId::Hipcc, OptLevel::O3);
        let mut divergent = typical_stats(64);
        divergent.divergent_branches *= 100;
        let smooth = {
            let mut s = typical_stats(64);
            s.divergent_branches = 0;
            s
        };
        let penalty64 = Model::PAPER.stage_time(&c64, &divergent, 64)
            / Model::PAPER.stage_time(&c64, &smooth, 64);
        assert!(penalty64 > 1.0);
    }

    #[test]
    fn throughput_zero_for_zero_time() {
        assert_eq!(throughput_gbs(100, 0.0), 0.0);
    }

    #[test]
    fn occupancy_partial_grid() {
        // 1 chunk on a 4090 (384 blocks in flight) → heavy underutilization.
        let c = cfg(CompilerId::Nvcc, OptLevel::O3);
        let t_small = Model::PAPER.stage_time(&c, &typical_stats(1), 1);
        let t_full = Model::PAPER.stage_time(&c, &typical_stats(384), 384);
        // Full grid processes 384× the work in far less than 384× the time.
        assert!(t_full < t_small * 96.0);
    }
}
