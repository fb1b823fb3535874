//! Model ablations: variants of the cost model with one mechanism
//! disabled, used to show *which* modeling choice produces which paper
//! phenomenon.
//!
//! | variant              | disables                         | paper phenomenon it should break |
//! |----------------------|----------------------------------|----------------------------------|
//! | `NoRoofline`         | the `max(compute, DRAM)` ceiling | decode's upward skew (§6.1)      |
//! | `NoFramework`        | look-back / block-scan terms     | the Clang encode/decode split (§6.1) |
//! | `NoDivergence`       | divergence penalty               | part of RLE/RRE's data dependence |
//! | `NoLatency`          | sync/scan serialized latency     | predictors' slow decode (§6.3)   |
//! | `Full`               | nothing (the real model)         | —                                |

use lc_core::KernelStats;

use crate::cost::{framework_time, memory_time, stage_time, Direction, SimConfig};

/// Which mechanism to knock out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The complete model (reference).
    Full,
    /// Additive instead of roofline combination with DRAM time.
    NoRoofline,
    /// Zero framework (look-back / block scan / launch) cost.
    NoFramework,
    /// Divergent branches cost nothing.
    NoDivergence,
    /// Syncs and scan steps cost nothing.
    NoLatency,
}

impl Variant {
    /// All variants, reference first.
    pub const ALL: [Variant; 5] = [
        Variant::Full,
        Variant::NoRoofline,
        Variant::NoFramework,
        Variant::NoDivergence,
        Variant::NoLatency,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Full => "full",
            Variant::NoRoofline => "no-roofline",
            Variant::NoFramework => "no-framework",
            Variant::NoDivergence => "no-divergence",
            Variant::NoLatency => "no-latency",
        }
    }
}

fn strip(stats: &KernelStats, variant: Variant) -> KernelStats {
    let mut s = *stats;
    match variant {
        Variant::NoDivergence => s.divergent_branches = 0,
        Variant::NoLatency => {
            s.block_syncs = 0;
            s.warp_syncs = 0;
            s.scan_steps = 0;
        }
        _ => {}
    }
    s
}

/// Pipeline time under a model variant (same signature as
/// [`crate::pipeline_time`] plus the variant).
pub fn pipeline_time_ablated(
    cfg: &SimConfig,
    direction: Direction,
    stage_kernels: &[KernelStats],
    chunks: u64,
    uncompressed: u64,
    compressed: u64,
    variant: Variant,
) -> f64 {
    let stages: f64 = stage_kernels
        .iter()
        .map(|s| stage_time(cfg, &strip(s, variant), chunks))
        .sum();
    let mem = memory_time(cfg, uncompressed + compressed);
    let fw = if variant == Variant::NoFramework {
        0.0
    } else {
        framework_time(cfg, direction, chunks)
    };
    match variant {
        Variant::NoRoofline => stages + mem + fw,
        _ => stages.max(mem) + fw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompilerId, OptLevel};
    use crate::specs::RTX_4090;

    fn stats() -> KernelStats {
        KernelStats {
            words: 4096 * 64,
            thread_ops: 4096 * 64 * 4,
            global_reads: 16384 * 64,
            global_writes: 16384 * 64,
            shared_traffic: 32768 * 64,
            warp_shuffles: 4096 * 8,
            warp_syncs: 64 * 16,
            block_syncs: 64 * 4,
            atomic_ops: 64,
            scan_steps: 64 * 13,
            divergent_branches: 64 * 500,
        }
    }

    fn cfg(c: CompilerId) -> SimConfig {
        SimConfig::new(&RTX_4090, c, OptLevel::O3)
    }

    #[test]
    fn full_matches_public_pipeline_time() {
        let s = [stats(); 3];
        let a = pipeline_time_ablated(
            &cfg(CompilerId::Nvcc),
            Direction::Encode,
            &s,
            64,
            64 * 16384,
            64 * 9000,
            Variant::Full,
        );
        let b = crate::pipeline_time(
            &cfg(CompilerId::Nvcc),
            Direction::Encode,
            &s,
            64,
            64 * 16384,
            64 * 9000,
        );
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn each_ablation_is_no_slower_than_full() {
        let s = [stats(); 3];
        let full = pipeline_time_ablated(
            &cfg(CompilerId::Nvcc),
            Direction::Encode,
            &s,
            64,
            64 * 16384,
            64 * 9000,
            Variant::Full,
        );
        for v in [
            Variant::NoFramework,
            Variant::NoDivergence,
            Variant::NoLatency,
        ] {
            let t = pipeline_time_ablated(
                &cfg(CompilerId::Nvcc),
                Direction::Encode,
                &s,
                64,
                64 * 16384,
                64 * 9000,
                v,
            );
            assert!(t <= full, "{}: {t} > {full}", v.label());
        }
        // NoRoofline is additive and therefore never faster.
        let add = pipeline_time_ablated(
            &cfg(CompilerId::Nvcc),
            Direction::Encode,
            &s,
            64,
            64 * 16384,
            64 * 9000,
            Variant::NoRoofline,
        );
        assert!(add >= full);
    }

    #[test]
    fn no_framework_erases_the_compiler_split() {
        // The paper's Clang/NVCC encode split lives in the framework terms;
        // with them removed only the small compute multiplier remains.
        // Use a light, mutator-like kernel so the framework share is
        // representative of the fast end of the distribution.
        let light = KernelStats {
            words: 4096 * 64,
            thread_ops: 4096 * 64 * 2,
            global_reads: 16384 * 64,
            global_writes: 16384 * 64,
            shared_traffic: 32768 * 64,
            ..Default::default()
        };
        let s = [light; 3];
        let t = |c, v| {
            pipeline_time_ablated(&cfg(c), Direction::Encode, &s, 64, 64 * 16384, 64 * 9000, v)
        };
        let split_full = t(CompilerId::Clang, Variant::Full) / t(CompilerId::Nvcc, Variant::Full);
        let split_ablated =
            t(CompilerId::Clang, Variant::NoFramework) / t(CompilerId::Nvcc, Variant::NoFramework);
        assert!(
            split_full > 1.01,
            "full model shows the split: {split_full}"
        );
        assert!(
            split_ablated - 1.0 < (split_full - 1.0) * 0.7,
            "ablating the framework shrinks the split: {split_ablated} vs {split_full}"
        );
    }

    #[test]
    fn no_divergence_helps_divergent_kernels_most() {
        let divergent = [stats(); 3];
        let mut smooth_stats = stats();
        smooth_stats.divergent_branches = 0;
        let smooth = [smooth_stats; 3];
        let t = |s: &[KernelStats], v| {
            pipeline_time_ablated(
                &cfg(CompilerId::Nvcc),
                Direction::Encode,
                s,
                64,
                64 * 16384,
                64 * 9000,
                v,
            )
        };
        let gain_divergent = t(&divergent, Variant::Full) / t(&divergent, Variant::NoDivergence);
        let gain_smooth = t(&smooth, Variant::Full) / t(&smooth, Variant::NoDivergence);
        assert!(
            gain_divergent > gain_smooth,
            "{gain_divergent} vs {gain_smooth}"
        );
    }
}
