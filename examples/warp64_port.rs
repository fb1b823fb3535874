//! Reproduce the paper's §4 porting exercise in simulation: how does the
//! same pipeline behave on a warp-32 GPU (RTX 4090) versus the warp-64
//! MI100, and what do the warp-size-sensitive kernel statistics look like?
//!
//! The paper had to rewrite warp-level prefix sums (Listing 1) for
//! 64-thread wavefronts; our cost model charges `log2(warp)` shuffle steps
//! per scan and double divergence cost on warp-64 hardware, so the same
//! recorded statistics produce different times per GPU.
//!
//! ```text
//! cargo run --release --example warp64_port
//! ```

use gpu_sim::{throughput_gbs, CompilerId, Direction, OptLevel, SimConfig, MI100, RTX_4090};
use lc_repro::lc_data::{file_by_name, Scale};
use lc_repro::lc_study::runner::run_at_paper_scale;

fn main() {
    let file = file_by_name("num_plasma").unwrap();

    // Pipelines with different warp-level behaviour: BIT_8 (shuffle-based
    // transpose), DIFF decode (warp-scan heavy), RLE (divergent).
    for desc in [
        "BIT_8 DIFF_8 CLOG_8",
        "TCMS_4 DIFF_4 RLE_4",
        "DBEFS_4 DIFFMS_4 RARE_4",
    ] {
        let stages: Vec<_> = desc
            .split_whitespace()
            .map(|name| lc_repro::lc_components::lookup(name).expect(name))
            .collect();
        let run = run_at_paper_scale(file, Scale::denominator(1024), &stages);
        println!("pipeline: {desc}");
        for gpu in [&RTX_4090, &MI100] {
            let cfg = SimConfig::new(gpu, CompilerId::Hipcc, OptLevel::O3);
            println!(
                "  {:12} (warp {:2}, {:3} {}): encode {:7.1} GB/s   decode {:7.1} GB/s",
                gpu.name,
                gpu.warp_size,
                gpu.sms,
                if gpu.vendor == gpu_sim::Vendor::Amd {
                    "CUs"
                } else {
                    "SMs"
                },
                throughput_gbs(run.uncompressed, run.time(&cfg, Direction::Encode)),
                throughput_gbs(run.uncompressed, run.time(&cfg, Direction::Decode)),
            );
        }
        println!();
    }
    println!(
        "note: the MI100 runs {} warps per 512-thread block (vs {} on the 4090),\n\
         so warp scans take one extra shuffle level but half as many warps\n\
         participate — the §4 porting trade-off, visible above as a different\n\
         encode/decode balance rather than a uniform slowdown.",
        MI100.warps_per_block(),
        RTX_4090.warps_per_block()
    );
}
