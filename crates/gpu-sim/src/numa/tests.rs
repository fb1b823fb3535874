//! NUMA / multi-chip GPUs (paper §7's forward-looking claim).
//!
//! The paper's conclusion predicts: *"We expect the relative findings to
//! hold for emerging technologies like NUMA-aware multi-socket GPUs or
//! multi-chip GPUs … This is because LC loads entire chunks of data into
//! shared memory before performing any computation. Since this load is
//! performed only once, NUMA latencies would not incur a significant
//! penalty."*
//!
//! A multi-socket build is the `GpuSpec` transform [`GpuSpec::numa`],
//! which folds the link into the spec's memory bandwidth, so the §7
//! claim is one more priced configuration. The penalty of a slow link is measured
//! against the same build with a link as fast as local DRAM — a
//! monolithic GPU of the same size.

use lc_core::KernelStats;

use crate::event_sim::simulate_from_stats;
use crate::specs::GpuSpec;
use crate::{throughput_gbs, CompilerId, Direction, Model, OptLevel, SimConfig, RTX_4090};

fn stats(chunks: u64, heavy: bool) -> KernelStats {
    let words = chunks * 4096;
    KernelStats {
        words,
        thread_ops: words * if heavy { 10 } else { 3 },
        global_reads: chunks * 16384,
        global_writes: chunks * 16384,
        shared_traffic: chunks * 32768,
        scan_steps: if heavy { chunks * 26 } else { 0 },
        block_syncs: if heavy { chunks * 26 } else { 0 },
        divergent_branches: if heavy { chunks * 200 } else { 0 },
        ..Default::default()
    }
}

/// Two sockets joined by an NVLink-class link at 0.4× local bandwidth.
fn two_socket() -> GpuSpec {
    RTX_4090.numa(2, 0.4)
}

/// The same two-socket build with a link as fast as local DRAM.
fn ideal_link() -> GpuSpec {
    RTX_4090.numa(2, 1.0)
}

/// Time of three `s` stages over 6400 chunks on `gpu`.
fn time(
    gpu: &GpuSpec,
    compiler: CompilerId,
    direction: Direction,
    s: &[KernelStats],
    compressed_per_chunk: u64,
) -> f64 {
    let cfg = SimConfig::new(gpu, compiler, OptLevel::O3);
    Model::PAPER.pipeline_time(
        &cfg,
        direction,
        s,
        6400,
        6400 * 16384,
        6400 * compressed_per_chunk,
    )
}

#[test]
fn monolithic_matches_plain_model() {
    // One socket is the identity transform, whatever the link, and the
    // price is bit-identical.
    let one = RTX_4090.numa(1, 0.4);
    assert_eq!(one, RTX_4090);
    assert_eq!(RTX_4090.numa(1, 1.0), RTX_4090);
    let s = [stats(6400, true); 3];
    let a = time(&one, CompilerId::Nvcc, Direction::Encode, &s, 9000);
    let b = crate::pipeline_time(
        &SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O3),
        Direction::Encode,
        &s,
        6400,
        6400 * 16384,
        6400 * 9000,
    );
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn remote_fraction_formula() {
    // Uniform chunk placement: (sockets − 1) / sockets of the chunk
    // traffic is remote and runs at the link's bandwidth.
    for (sockets, remote) in [(1, 0.0), (2, 0.5), (4, 0.75)] {
        let aggregate = RTX_4090.mem_bandwidth_gbs * f64::from(sockets);
        let want = aggregate / ((1.0 - remote) + remote / 0.4);
        assert_eq!(RTX_4090.numa(sockets, 0.4).mem_bandwidth_gbs, want);
    }
    // An ideal link leaves the aggregate bandwidth.
    assert_eq!(
        ideal_link().mem_bandwidth_gbs,
        2.0 * RTX_4090.mem_bandwidth_gbs
    );
}

#[test]
fn numa_spec_scales_resources() {
    let spec = two_socket();
    assert_eq!(spec.sms, 256);
    assert_eq!(spec.memory_gb, 48);
    assert!(spec.name.contains("RTX 4090"));
    assert_eq!(spec.warp_size, RTX_4090.warp_size);
}

#[test]
fn section7_claim_compiler_ordering_survives_numa() {
    // The paper's §7 prediction: the relative compiler findings hold
    // on NUMA GPUs because only the one-time load crosses sockets.
    let s = [stats(6400, true); 3];
    let t = |c, d| time(&two_socket(), c, d, &s, 9000);
    assert!(
        t(CompilerId::Clang, Direction::Encode) > t(CompilerId::Nvcc, Direction::Encode),
        "Clang still encodes slower under NUMA"
    );
    assert!(
        t(CompilerId::Clang, Direction::Decode) < t(CompilerId::Nvcc, Direction::Decode),
        "Clang still decodes faster under NUMA"
    );
}

#[test]
fn section7_claim_component_ranking_survives_numa() {
    let light = [stats(6400, false); 3];
    let heavy = [stats(6400, true); 3];
    let t = |s: &[KernelStats]| time(&two_socket(), CompilerId::Nvcc, Direction::Encode, s, 9000);
    assert!(
        t(&heavy) > t(&light),
        "heavy components stay slower under NUMA"
    );
}

#[test]
fn numa_penalty_is_bounded_for_compute_bound_pipelines() {
    // §7: "NUMA latencies would not incur a significant penalty" —
    // true exactly when the pipeline is not memory-ceiling-bound,
    // because the in-SM work is socket-local.
    let heavy = [stats(6400, true); 3];
    let t = |gpu: &GpuSpec| time(gpu, CompilerId::Nvcc, Direction::Encode, &heavy, 9000);
    let penalty = t(&two_socket()) / t(&ideal_link());
    assert!(penalty < 1.10, "compute-bound NUMA penalty {penalty}");
}

#[test]
fn memory_bound_pipelines_do_pay_the_link() {
    // The flip side: a pipeline pinned to the bandwidth ceiling sees
    // the interconnect, bounding the §7 claim's domain of validity.
    let light = [stats(6400, false); 3];
    let t = |gpu: &GpuSpec| time(gpu, CompilerId::Nvcc, Direction::Decode, &light, 16000);
    let penalty = t(&two_socket()) / t(&ideal_link());
    assert!(penalty > 1.2, "memory-bound NUMA penalty {penalty}");
}

#[test]
fn throughput_helper_sanity() {
    let s = [stats(6400, false); 3];
    let t = time(&two_socket(), CompilerId::Nvcc, Direction::Encode, &s, 9000);
    let tp = throughput_gbs(6400 * 16384, t);
    assert!(tp > 1.0 && tp < 5000.0, "{tp}");
}

#[test]
fn event_simulator_pays_the_same_link() {
    // The event simulator, the analytical model's reference, sees the
    // link through the same spec: a memory-bound kernel slows down by the
    // same factor in both when the link drops from 1.0 to 0.4. The grid
    // is whole waves (10 × 768 blocks), where the two models agree.
    let chunks = 10 * u64::from(two_socket().blocks_in_flight());
    let s = KernelStats {
        global_reads: chunks * 16384,
        global_writes: chunks * 16384,
        ..Default::default()
    };
    let analytical = |gpu: &GpuSpec| {
        let cfg = SimConfig::new(gpu, CompilerId::Nvcc, OptLevel::O3);
        Model::PAPER.stage_time(&cfg, &s, chunks)
            + (s.global_reads + s.global_writes) as f64 * Model::PAPER.dram_seconds_per_byte(&cfg)
    };
    let event = |gpu: &GpuSpec| {
        let cfg = SimConfig::new(gpu, CompilerId::Nvcc, OptLevel::O3);
        simulate_from_stats(&Model::PAPER, &cfg, &s, chunks)
    };
    let ratio = event(&two_socket()) / analytical(&two_socket());
    assert!((0.95..1.05).contains(&ratio), "event vs analytical {ratio}");
    let slowdown = |t: &dyn Fn(&GpuSpec) -> f64| t(&two_socket()) / t(&ideal_link());
    let (a, e) = (slowdown(&analytical), slowdown(&event));
    assert!((a - 1.75).abs() < 1e-9, "analytical link slowdown {a}");
    assert!((e / a - 1.0).abs() < 0.02, "event {e} vs analytical {a}");
}
