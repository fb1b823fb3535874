//! Model ablations: each one is a `fn(&Model) -> Model` that disables one
//! mechanism, priced by the same methods as the campaign, to show *which*
//! modeling choice produces which paper phenomenon.
//!
//! | transform                | disables                         | paper phenomenon it should break |
//! |--------------------------|----------------------------------|----------------------------------|
//! | `Model::no_roofline`     | the `max(compute, DRAM)` ceiling | decode's upward skew (§6.1)      |
//! | `Model::no_framework`    | look-back / block-scan / launch  | the Clang encode/decode split (§6.1) |
//! | `Model::no_divergence`   | divergence penalty               | part of RLE/RRE's data dependence |
//! | `Model::no_latency`      | sync/scan serialized latency     | predictors' slow decode (§6.3)   |

use lc_core::KernelStats;

use crate::{CompilerId, Direction, Model, OptLevel, SimConfig, RTX_4090};

/// A knock-out of one mechanism.
type Ablation = fn(&Model) -> Model;

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

/// Encode time of `s` over 64 chunks under `model`.
fn encode(model: &Model, c: CompilerId, s: &[KernelStats]) -> f64 {
    model.pipeline_time(&cfg(c), Direction::Encode, s, 64, 64 * 16384, 64 * 9000)
}

#[test]
fn full_matches_public_pipeline_time() {
    // The full model is `PAPER` untransformed, and the public function
    // prices with it, bit for bit.
    let s = [stats(); 3];
    let a = encode(&Model::PAPER, CompilerId::Nvcc, &s);
    let b = crate::pipeline_time(
        &cfg(CompilerId::Nvcc),
        Direction::Encode,
        &s,
        64,
        64 * 16384,
        64 * 9000,
    );
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn each_ablation_is_no_slower_than_full() {
    let s = [stats(); 3];
    let full = encode(&Model::PAPER, CompilerId::Nvcc, &s);
    let ablations: [(&str, Ablation); 3] = [
        ("no-framework", Model::no_framework),
        ("no-divergence", Model::no_divergence),
        ("no-latency", Model::no_latency),
    ];
    for (label, ablate) in ablations {
        let t = encode(&ablate(&Model::PAPER), CompilerId::Nvcc, &s);
        assert!(t <= full, "{label}: {t} > {full}");
    }
    // No roofline is additive and therefore never faster.
    let add = encode(&Model::PAPER.no_roofline(), CompilerId::Nvcc, &s);
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
    let split = |m: &Model| encode(m, CompilerId::Clang, &s) / encode(m, CompilerId::Nvcc, &s);
    let split_full = split(&Model::PAPER);
    let split_ablated = split(&Model::PAPER.no_framework());
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
    let gain = |s: &[KernelStats]| {
        encode(&Model::PAPER, CompilerId::Nvcc, s)
            / encode(&Model::PAPER.no_divergence(), CompilerId::Nvcc, s)
    };
    let gain_divergent = gain(&divergent);
    let gain_smooth = gain(&smooth);
    assert!(
        gain_divergent > gain_smooth,
        "{gain_divergent} vs {gain_smooth}"
    );
}
