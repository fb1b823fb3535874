//! Cross-crate shape invariants of the GPU/compiler model when driven by
//! *real* component statistics (not synthetic ones): the relative effects
//! the paper reports must emerge from measured kernels.

use gpu_sim::{
    pipeline_time, throughput_gbs, CompilerId, Direction, OptLevel, SimConfig, ALL_GPUS, MI100,
    RTX_4090,
};
use lc_repro::lc_data::{file_by_name, Scale};
use lc_repro::lc_study::runner::{run_at_paper_scale, PaperScaleRun};

/// Run a pipeline's stages on a synthetic file, extrapolated to paper
/// scale.
fn measure(desc: &str, file: &str) -> PaperScaleRun {
    let stages: Vec<_> = desc
        .split_whitespace()
        .map(|name| lc_repro::lc_components::lookup(name).expect(name))
        .collect();
    run_at_paper_scale(file_by_name(file).unwrap(), Scale::tiny(), &stages)
}

fn enc_tp(cfg: &SimConfig, m: &PaperScaleRun) -> f64 {
    throughput_gbs(m.uncompressed, m.time(cfg, Direction::Encode))
}

fn dec_tp(cfg: &SimConfig, m: &PaperScaleRun) -> f64 {
    throughput_gbs(m.uncompressed, m.time(cfg, Direction::Decode))
}

#[test]
fn per_pipeline_compiler_ordering_on_real_kernels() {
    // §6.1 on several concrete pipelines and inputs.
    for (desc, file) in [
        ("DBEFS_4 DIFF_4 RZE_4", "num_brain"),
        ("TCMS_2 BIT_2 CLOG_2", "obs_temp"),
        ("RARE_4 DIFFMS_4 RRE_4", "msg_bt"),
    ] {
        let m = measure(desc, file);
        let nvcc = SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O3);
        let clang = SimConfig::new(&RTX_4090, CompilerId::Clang, OptLevel::O3);
        let hipcc = SimConfig::new(&RTX_4090, CompilerId::Hipcc, OptLevel::O3);
        assert!(
            enc_tp(&clang, &m) < enc_tp(&nvcc, &m),
            "{desc} on {file}: Clang encode"
        );
        assert!(
            dec_tp(&clang, &m) > dec_tp(&nvcc, &m),
            "{desc} on {file}: Clang decode"
        );
        let ratio = enc_tp(&hipcc, &m) / enc_tp(&nvcc, &m);
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "{desc} on {file}: NVCC/HIPCC {ratio}"
        );
    }
}

#[test]
fn staircase_holds_on_real_kernels() {
    let m = measure("TCMS_4 DIFF_4 CLOG_4", "obs_error");
    let mut last = 0.0;
    for gpu in ["TITAN V", "RTX 3080 Ti", "RTX 4090"] {
        let spec = ALL_GPUS.iter().find(|g| g.name == gpu).unwrap();
        let cfg = SimConfig::new(spec, CompilerId::Nvcc, OptLevel::O3);
        let tp = enc_tp(&cfg, &m);
        assert!(tp > last, "{gpu}: {tp} <= {last}");
        last = tp;
    }
}

#[test]
fn throughputs_land_in_the_papers_order_of_magnitude() {
    // The paper's figures span roughly 10–700 GB/s; our simulated values
    // must land in the same order of magnitude on comparable hardware.
    let m = measure("DBEFS_4 DIFF_4 RZE_4", "num_control");
    let cfg = SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O3);
    let e = enc_tp(&cfg, &m);
    let d = dec_tp(&cfg, &m);
    assert!(e > 10.0 && e < 1500.0, "encode {e} GB/s");
    assert!(d > 10.0 && d < 1500.0, "decode {d} GB/s");
    assert!(d > e, "decode should beat encode for this pipeline");
}

#[test]
fn mi100_uses_warp64_accounting() {
    // The MI100 result must reflect its 64-thread wavefronts: hold every
    // other spec constant and flip only the warp size — divergent kernels
    // (RLE-heavy) must pay more on the warp-64 machine (§4's porting
    // trade-off as the cost model sees it).
    let divergent = measure("RLE_4 RLE_4 RLE_4", "obs_temp");
    let mi_w32 = gpu_sim::GpuSpec {
        warp_size: 32,
        ..MI100
    };
    let w64 = SimConfig::new(&MI100, CompilerId::Hipcc, OptLevel::O3);
    let w32 = SimConfig::new(&mi_w32, CompilerId::Hipcc, OptLevel::O3);
    let t64 = divergent.time(&w64, Direction::Encode);
    let t32 = divergent.time(&w32, Direction::Encode);
    assert!(t64 > t32, "warp-64 divergence penalty: {t64} vs {t32}");
}

#[test]
fn compression_reduces_decode_memory_traffic() {
    // A pipeline that compresses well moves fewer DRAM bytes than one that
    // doesn't — and the model must therefore decode it faster than an
    // identical-cost pipeline with incompressible output.
    let good = measure("DBESF_4 DIFFMS_4 RARE_4", "obs_temp");
    let (unc, comp) = (good.uncompressed, good.compressed);
    assert!(comp < unc, "pipeline compresses: {comp} < {unc}");
    let cfg = SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O3);
    let t_small = good.time(&cfg, Direction::Decode);
    let t_big = pipeline_time(&cfg, Direction::Decode, &good.dec, good.chunks, unc, unc);
    assert!(t_small <= t_big, "less DRAM traffic cannot be slower");
}

#[test]
fn opt_level_effects_match_section_6_5_on_real_kernels() {
    let m = measure("BIT_4 DIFF_4 RZE_4", "msg_sweep3d");
    let o1 = SimConfig::new(&RTX_4090, CompilerId::Clang, OptLevel::O1);
    let o3 = SimConfig::new(&RTX_4090, CompilerId::Clang, OptLevel::O3);
    let enc_speedup = enc_tp(&o3, &m) / enc_tp(&o1, &m);
    let dec_speedup = dec_tp(&o3, &m) / dec_tp(&o1, &m);
    assert!(
        enc_speedup < 1.0,
        "Clang -O3 encode regression: {enc_speedup}"
    );
    assert!(
        dec_speedup > 1.0 && dec_speedup < 1.10,
        "Clang -O3 decode gain: {dec_speedup}"
    );
    // NVCC barely moves.
    let n1 = SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O1);
    let n3 = SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O3);
    let nvcc_speedup = enc_tp(&n3, &m) / enc_tp(&n1, &m);
    assert!(
        (nvcc_speedup - 1.0).abs() < 0.06,
        "NVCC speedup {nvcc_speedup}"
    );
}
