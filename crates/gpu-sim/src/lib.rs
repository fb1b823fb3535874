//! Analytical GPU + compiler performance model.
//!
//! This crate is the substitution for the paper's measurement substrate:
//! five physical GPUs (paper Tables 4/5) running binaries from NVCC,
//! Clang, and HIPCC at `-O1`/`-O3`. Components in `lc-components` report
//! what their GPU kernels *would do* ([`lc_core::KernelStats`]); this
//! crate converts those counters into simulated kernel time for any
//! (GPU, compiler, optimization level) combination.
//!
//! A [`GpuSpec`] holds what the paper's tables and vendor spec sheets
//! supply; one [`Model`] value holds everything calibrated, and
//! [`Model::PAPER`] is the calibration the study prices with. The paper's
//! two mechanism claims are tests over transformed values priced by the
//! campaign's own methods: §6.1's compiler split lives in the framework
//! terms ([`Model::no_framework`] and the other ablations), and §7's
//! findings survive a multi-socket build ([`GpuSpec::numa`]).
//!
//! See DESIGN.md §"GPU + compiler model" for the substitution argument and
//! `compiler.rs` for the provenance of every calibration constant.

#![forbid(unsafe_code)]

pub mod compiler;
pub mod cost;
pub mod event_sim;
pub mod specs;

pub use compiler::{CodegenProfile, CompilerId, OptLevel, ProfileTable};
pub use cost::{pipeline_time, throughput_gbs, Combine, Direction, Model, SimConfig};
pub use specs::{
    fastest, GpuSpec, Vendor, ALL_GPUS, MI100, RTX_3080_TI, RTX_4090, RX_7900_XTX, TITAN_V,
};

/// Every (GPU, compiler) platform combination the paper evaluates:
/// 3 NVIDIA GPUs × {NVCC, Clang, HIPCC} + 2 AMD GPUs × {HIPCC} = 11.
pub fn all_platforms(opt: OptLevel) -> Vec<SimConfig> {
    let mut v = Vec::new();
    for gpu in ALL_GPUS {
        for compiler in CompilerId::for_vendor(gpu.vendor) {
            v.push(SimConfig::new(gpu, compiler, opt));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_platform_combinations() {
        assert_eq!(all_platforms(OptLevel::O3).len(), 11);
        let nvidia = all_platforms(OptLevel::O3)
            .iter()
            .filter(|c| c.gpu.vendor == Vendor::Nvidia)
            .count();
        assert_eq!(nvidia, 9);
    }

    #[test]
    fn labels_are_informative() {
        let c = SimConfig::new(&RTX_4090, CompilerId::Clang, OptLevel::O1);
        assert_eq!(c.label(), "RTX 4090/Clang/-O1");
    }
}

// The §6.1 and §7 claims, each priced under a transformed `Model` or
// `GpuSpec` by the same methods the campaign uses.
#[cfg(test)]
mod ablation {
    mod tests;
}
#[cfg(test)]
mod numa {
    mod tests;
}
