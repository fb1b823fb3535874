//! Quickstart: build a pipeline, compress a buffer, decompress it back.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lc_repro::lc_core::{archive, verify};
use lc_repro::lc_parallel::Pool;

fn main() {
    // 1. Pick a pipeline — the same syntax the paper uses (Fig. 1):
    //    three data transformations, reducer last.
    let pipeline = lc_repro::lc_components::parse_pipeline("DBEFS_4 DIFF_4 RZE_4")
        .expect("valid pipeline description");

    // 2. Some single-precision data worth compressing: a smooth field.
    let values: Vec<f32> = (0..500_000)
        .map(|i| 300.0 + (i as f32 * 1e-4).sin())
        .collect();
    let input: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();

    // 3. Compress. Chunks are processed in parallel; output placement uses
    //    the same decoupled look-back scan as the GPU encoder.
    let pool = Pool::with_default_threads();
    let result = archive::encode_with(&pipeline, &input, &pool, None).expect("no cancel token");
    println!(
        "compressed {} -> {} bytes (ratio {:.2})",
        input.len(),
        result.archive.len(),
        input.len() as f64 / result.archive.len() as f64
    );
    for stage in &result.stats.stages {
        println!(
            "  {:8}: applied to {} chunks, skipped on {} (copy-on-expand)",
            stage.component, stage.chunks_applied, stage.chunks_skipped
        );
    }

    // 4. Decompress and check.
    let restored = archive::decode(&result.archive, lc_repro::lc_components::lookup, &pool)
        .expect("well-formed archive");
    assert_eq!(restored, input);
    println!("round-trip OK");

    // 5. The one-liner for tests and experiments:
    let size =
        verify::roundtrip_pipeline(&pipeline, &input, lc_repro::lc_components::lookup, &pool)
            .expect("round-trip");
    println!("verify::roundtrip_pipeline agrees: {size} bytes");
}
