//! Compress the (synthetic) SP dataset with a handful of classic LC
//! pipelines and report per-file compression ratios — the workload the
//! paper's introduction motivates: high-speed lossless compression of
//! single-precision scientific data.
//!
//! ```text
//! cargo run --release --example sp_compressor
//! ```

use lc_repro::lc_core::archive;
use lc_repro::lc_data::{generate, Scale, SP_FILES};
use lc_repro::lc_parallel::Pool;

fn main() {
    // Pipelines resembling the published LC compressors: float-aware
    // mutation, prediction, then a reducer.
    let candidates = [
        "DBEFS_4 DIFF_4 RZE_4",    // SPspeed-style
        "DBESF_4 DIFFMS_4 RARE_4", // SPratio-style
        "TUPL2_1 BIT_1 RLE_1",     // bit-plane route
        "TCMS_4 DIFF_4 CLOG_4",    // integer-style route
    ];
    let pool = Pool::with_default_threads();
    let scale = Scale::denominator(2048);

    println!("{:12} {:>10}  best pipeline (ratio)", "file", "bytes");
    let mut grand: Vec<(String, f64)> = candidates.iter().map(|c| (c.to_string(), 0.0)).collect();
    for file in &SP_FILES {
        let data = generate(file, scale);
        let mut best: Option<(&str, f64)> = None;
        for (ci, cand) in candidates.iter().enumerate() {
            let pipeline = lc_repro::lc_components::parse_pipeline(cand).expect("pipeline");
            let archive = archive::encode(&pipeline, &data, &pool);
            let ratio = data.len() as f64 / archive.len() as f64;
            grand[ci].1 += ratio.ln();
            if best.is_none() || ratio > best.unwrap().1 {
                best = Some((cand, ratio));
            }
            // Every candidate must round-trip.
            let back =
                archive::decode(&archive, lc_repro::lc_components::lookup, &pool).expect("decode");
            assert_eq!(back, data, "{cand} corrupted {}", file.name);
        }
        let (name, ratio) = best.unwrap();
        println!(
            "{:12} {:>10}  {} ({:.3})",
            file.name,
            data.len(),
            name,
            ratio
        );
    }
    println!("\ngeometric-mean ratio across the dataset:");
    for (name, log_sum) in &grand {
        println!(
            "  {:26} {:.3}",
            name,
            (log_sum / SP_FILES.len() as f64).exp()
        );
    }
}
