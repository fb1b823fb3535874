//! Golden archive bytes: the v3 encoder must reproduce, byte for byte,
//! an archive written before the single-pass rewrite, the stream encoder
//! a stream written before it shared the archive's chunk engine, and the
//! decoders must still read every committed format version.
//!
//! The fixtures under `tests/fixtures/` were produced by the commit
//! preceding the rewrite (v2 by dropping the per-chunk CRCs from that
//! commit's v3 bytes, since no v2 encoder exists any more),
//! `golden_v3_bit4_rre1_rze1.lc` by the commit preceding the LUT-shuffle
//! bitmap kernels and the blocked bit-plane transpose, and
//! `golden_stream_v2.lcrs` by the commit preceding the shared chunk
//! engine. They are never regenerated from the code under test.

use lc_repro::lc_components::kernels::{self, Variant};
use lc_repro::lc_components::{lookup, parse_pipeline};
use lc_repro::lc_core::stream::{decode_stream, StreamEncoder};
use lc_repro::lc_core::{archive, CHUNK_SIZE};
use lc_repro::lc_parallel::Pool;

const PIPELINE: &str = "DBEFS_4 DIFF_4 RZE_4";
/// The bitmap-reducer pipeline of the `codec_kernel` benchmark workload.
const KERNEL_PIPELINE: &str = "BIT_4 RRE_1 RZE_1";
/// An all-reducer pipeline, so a chunk can skip every stage.
const STREAM_PIPELINE: &str = "RZE_4 RRE_1";

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

/// One chunk of a slow f32 random walk: after BIT_4 the high planes are
/// constant runs and the low planes noise, so RRE_1 sees mixed bitmap
/// bytes on a full chunk.
fn walk_chunk() -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut v = 20.0f32;
    (0..CHUNK_SIZE / 4)
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v += ((x >> 40) as i32 % 5 - 2) as f32 * 0.125;
            v.to_le_bytes()
        })
        .collect()
}

/// One chunk whose 8-word groups are all-zero or noise with equal
/// odds: BIT_4 turns each zero group into a zero byte in every plane,
/// so RRE_1 and then RZE_1 both shrink a full chunk of mixed bitmap
/// bytes.
fn sparse_chunk() -> Vec<u8> {
    let mut x = 0xD1B5_4A32_D192_ED03u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..CHUNK_SIZE / 32)
        .flat_map(|_| {
            let keep = next() >> 63 == 0;
            (0..32)
                .map(|_| if keep { (next() >> 32) as u8 } else { 0 })
                .collect::<Vec<u8>>()
        })
        .collect()
}

/// Walk, sparse, staircase, noise, zeros, and a ragged 333-byte tail.
fn kernel_input() -> Vec<u8> {
    let mut data = walk_chunk();
    data.extend(sparse_chunk());
    data.extend(stair_chunk());
    data.extend(noise_chunk());
    data.extend(vec![0u8; CHUNK_SIZE]);
    data.extend(&walk_chunk()[..333]);
    data
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

/// Two full stream windows and a ragged tail, mostly zeros: a
/// staircase, a noise chunk and a sparse chunk early in the first
/// window, a walk chunk in the second, and 333 bytes of walk as the
/// final chunk.
fn stream_input() -> Vec<u8> {
    let chunks = 2 * StreamEncoder::WINDOW_CHUNKS + 3;
    let mut data = vec![0u8; chunks * CHUNK_SIZE + 333];
    for (chunk, bytes) in [
        (1, stair_chunk()),
        (2, noise_chunk()),
        (3, sparse_chunk()),
        (300, walk_chunk()),
        (chunks, walk_chunk()[..333].to_vec()),
    ] {
        data[chunk * CHUNK_SIZE..][..bytes.len()].copy_from_slice(&bytes);
    }
    data
}

/// The chunk counts of a stream's batches and the stage masks of its
/// chunks, read straight from the framing.
fn stream_masks(stream: &[u8]) -> (Vec<usize>, Vec<u8>) {
    let mut pos = 6;
    for _ in 0..stream[5] {
        pos += 1 + stream[pos] as usize;
    }
    let le_u32 = |at: usize| u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    let (mut batches, mut masks) = (Vec::new(), Vec::new());
    loop {
        let n = le_u32(pos);
        pos += 4;
        if n == 0 {
            return (batches, masks);
        }
        batches.push(n);
        let mut payload = 0;
        for row in (pos..pos + 5 * n).step_by(5) {
            masks.push(stream[row]);
            payload += le_u32(row + 1);
        }
        pos += 5 * n + payload;
    }
}

#[test]
fn stream_encoder_reproduces_the_golden_lcrs_bytes() {
    let golden = fixture("golden_stream_v2.lcrs");
    let pipeline = parse_pipeline(STREAM_PIPELINE).unwrap();
    let input = stream_input();
    for cap in [Variant::Scalar, Variant::Avx2] {
        kernels::set_tier_cap(cap);
        for threads in [1, 2, 5] {
            let mut encoded = Vec::new();
            let encoder = StreamEncoder::new(&pipeline, Pool::new(threads));
            encoder.encode(&mut &input[..], &mut encoded).unwrap();
            assert!(encoded == golden, "{cap:?}, {threads} threads");
            let mut decoded = Vec::new();
            let pool = Pool::new(threads);
            decode_stream(&mut &golden[..], &mut decoded, lookup, &pool).unwrap();
            assert!(decoded == input, "{cap:?}, {threads} threads");
        }
    }
    // The fixture really spans two windows and a ragged tail, and holds
    // every mask of a two-reducer pipeline: both stages skipped, one
    // skipped by copy-on-expand (either one), and both applied.
    let (batches, masks) = stream_masks(&golden);
    assert_eq!(batches, [256, 256, 4]);
    for mask in 0..4u8 {
        assert!(masks.contains(&mask), "no chunk with mask {mask}");
    }
}

#[test]
fn encode_reproduces_the_golden_v3_bytes() {
    let golden = fixture("golden_v3.lc");
    let pipeline = parse_pipeline(PIPELINE).unwrap();
    let input = v3_input();
    for threads in [1, 2, 5] {
        let res = archive::encode_with(&pipeline, &input, &Pool::new(threads), None).unwrap();
        assert_eq!(res.archive, golden, "{threads} threads");
        // The fixture really covers copy-on-expand and a ragged tail.
        assert_eq!(res.stats.chunks, 4);
        assert_eq!(res.stats.stages[2].chunks_skipped, 1);
        assert_eq!(res.stats.stages[0].chunks_applied, 4);
    }
}

#[test]
fn golden_v3_bytes_are_reproduced_at_every_kernel_tier() {
    // The vector kernels are a pure performance overlay: an archive a
    // parent-commit encoder wrote comes out byte for byte with the
    // kernels pinned to the portable loops and at the detected tier, at
    // any thread count, and decodes back to its input at both.
    let kernel_input = kernel_input();
    for (name, pipeline, input) in [
        ("golden_v3.lc", PIPELINE, &v3_input()),
        (
            "golden_v3_bit4_rre1_rze1.lc",
            KERNEL_PIPELINE,
            &kernel_input,
        ),
    ] {
        let golden = fixture(name);
        let pipeline = parse_pipeline(pipeline).unwrap();
        for cap in [Variant::Scalar, Variant::Avx2] {
            kernels::set_tier_cap(cap);
            for threads in [1, 2, 5] {
                let pool = Pool::new(threads);
                let encoded = archive::encode(&pipeline, input, &pool);
                assert_eq!(encoded, golden, "{name} {cap:?}, {threads} threads");
                let decoded = archive::decode(&golden, lookup, &pool).unwrap();
                assert_eq!(&decoded, input, "{name} {cap:?}, {threads} threads");
            }
        }
    }
    // The kernel fixture really has both reducers applied on some chunks
    // (full chunks of mixed bitmap bytes) and skipped on others.
    let pipeline = parse_pipeline(KERNEL_PIPELINE).unwrap();
    let stats = archive::encode_with(&pipeline, &kernel_input, &Pool::new(1), None)
        .unwrap()
        .stats;
    let applied: Vec<u64> = stats.stages.iter().map(|s| s.chunks_applied).collect();
    assert_eq!((stats.chunks, applied), (6, vec![6, 5, 2]));
}

#[test]
fn golden_v3_and_v2_archives_decode() {
    let pool = Pool::new(3);
    for (name, version, input) in [
        ("golden_v3.lc", 3, v3_input()),
        ("golden_v2.lc", 2, v2_input()),
        ("golden_v3_bit4_rre1_rze1.lc", 3, kernel_input()),
    ] {
        let bytes = fixture(name);
        assert_eq!(archive::parse_header(&bytes).unwrap().version, version);
        assert_eq!(archive::decode(&bytes, lookup, &pool).unwrap(), input);
        let decoder = archive::Decoder::new(&bytes, lookup, None).unwrap();
        let (out, report) = decoder.salvage(&pool).unwrap();
        assert_eq!(out, input, "{name} salvage");
        assert!(report.is_clean(), "{name}: {report:?}");
    }
}
