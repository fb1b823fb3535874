//! Golden archive bytes: the v3 encoder must reproduce, byte for byte,
//! an archive written before the single-pass rewrite, and the decoder
//! must still read both committed format versions.
//!
//! The fixtures under `tests/fixtures/` were produced by the commit
//! preceding the rewrite (v2 by dropping the per-chunk CRCs from that
//! commit's v3 bytes, since no v2 encoder exists any more). They are
//! never regenerated from the code under test.

use lc_repro::lc_components::{lookup, parse_pipeline};
use lc_repro::lc_core::{archive, CHUNK_SIZE};
use lc_repro::lc_parallel::Pool;

const PIPELINE: &str = "DBEFS_4 DIFF_4 RZE_4";

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// One chunk of an f32 staircase (every stage applies).
fn stair_chunk() -> Vec<u8> {
    (0..CHUNK_SIZE / 4)
        .flat_map(|i| ((i / 64) as f32 * 0.25).to_le_bytes())
        .collect()
}

/// One chunk of xorshift noise: RZE_4 cannot shrink it, so the chunk is
/// stored with the reducer's mask bit clear (copy-on-expand).
fn noise_chunk() -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..CHUNK_SIZE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

/// Staircase, noise, zeros, and a ragged 333-byte tail.
fn v3_input() -> Vec<u8> {
    let mut data = stair_chunk();
    data.extend(noise_chunk());
    data.extend(vec![0u8; CHUNK_SIZE]);
    data.extend((0..333).map(|i| (i / 64) as u8));
    data
}

/// Staircase, zeros, and a ragged 100-byte tail.
fn v2_input() -> Vec<u8> {
    let mut data = stair_chunk();
    data.extend(vec![0u8; CHUNK_SIZE]);
    data.extend((0..100).map(|i| (i / 32) as u8));
    data
}

#[test]
fn encode_reproduces_the_golden_v3_bytes() {
    let golden = fixture("golden_v3.lc");
    let pipeline = parse_pipeline(PIPELINE).unwrap();
    let input = v3_input();
    for threads in [1, 2, 5] {
        let res = archive::encode_with_stats(&pipeline, &input, &Pool::new(threads));
        assert_eq!(res.archive, golden, "{threads} threads");
        // The fixture really covers copy-on-expand and a ragged tail.
        assert_eq!(res.stats.chunks, 4);
        assert_eq!(res.stats.stages[2].chunks_skipped, 1);
        assert_eq!(res.stats.stages[0].chunks_applied, 4);
    }
}

#[test]
fn golden_v3_and_v2_archives_decode() {
    let pool = Pool::new(3);
    for (name, version, input) in [
        ("golden_v3.lc", 3, v3_input()),
        ("golden_v2.lc", 2, v2_input()),
    ] {
        let bytes = fixture(name);
        assert_eq!(archive::parse_header(&bytes).unwrap().version, version);
        assert_eq!(archive::decode(&bytes, lookup, &pool).unwrap(), input);
        let (out, report) = archive::decode_salvage(&bytes, lookup, &pool).unwrap();
        assert_eq!(out, input, "{name} salvage");
        assert!(report.is_clean(), "{name}: {report:?}");
    }
}
