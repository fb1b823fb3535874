//! Systematic fault injection: corrupt every byte position class of
//! encoded payloads and archives, and require that decoders fail *softly*
//! — an error or a differing (but bounded) output, never a panic, hang,
//! or unbounded allocation.

use lc_repro::lc_components::{all, lookup, parse_pipeline};
use lc_repro::lc_core::archive::SalvageReport;
use lc_repro::lc_core::checksum::crc32;
use lc_repro::lc_core::stream::{decode_stream, StreamEncoder, StreamError};
use lc_repro::lc_core::{archive, DecodeError, KernelStats, CHUNK_SIZE};
use lc_repro::lc_parallel::Pool;

fn salvage(bytes: &[u8], pool: &Pool) -> Result<(Vec<u8>, SalvageReport), DecodeError> {
    archive::Decoder::new(bytes, lookup, None).and_then(|d| d.salvage(pool))
}

/// Deterministic pattern with mixed structure so every reducer both
/// applies and skips somewhere.
fn test_chunk() -> Vec<u8> {
    let mut v = Vec::with_capacity(CHUNK_SIZE);
    for i in 0..CHUNK_SIZE / 4 {
        let word: u32 = match i % 7 {
            0 | 1 => 0,                               // zero runs
            2 => 0xDEAD_BEEF,                         // repeated value
            3 => (i as u32).wrapping_mul(2654435761), // noise
            _ => 1000 + (i as u32 % 50),              // small values
        };
        v.extend_from_slice(&word.to_le_bytes());
    }
    v
}

#[test]
fn single_bitflips_in_every_component_payload() {
    let chunk = test_chunk();
    for c in all() {
        let mut enc = Vec::new();
        c.encode_chunk(&chunk, &mut enc, &mut KernelStats::new());
        // Flip one bit in a spread of positions (every ~97th byte, all 8
        // bit positions cycled) — cheap but position-diverse.
        for (k, pos) in (0..enc.len()).step_by(97).enumerate() {
            let mut bad = enc.clone();
            bad[pos] ^= 1 << (k % 8);
            let mut out = Vec::new();
            // Must return (Ok with different bytes, or Err) — not panic.
            let _ = c.decode_chunk(&bad, &mut out, &mut KernelStats::new());
            // Defensive: decoders must not explode output unboundedly.
            assert!(
                out.len() <= CHUNK_SIZE * 4 + 64,
                "{}: output ballooned to {} bytes",
                c.name(),
                out.len()
            );
        }
    }
}

#[test]
fn truncations_at_every_length_for_every_component() {
    let chunk = &test_chunk()[..2048];
    for c in all() {
        let mut enc = Vec::new();
        c.encode_chunk(chunk, &mut enc, &mut KernelStats::new());
        for cut in 0..enc.len().min(256) {
            let mut out = Vec::new();
            let _ = c.decode_chunk(&enc[..cut], &mut out, &mut KernelStats::new());
        }
        // Also truncate from a spread of longer positions.
        for cut in (256..enc.len()).step_by(53) {
            let mut out = Vec::new();
            let _ = c.decode_chunk(&enc[..cut], &mut out, &mut KernelStats::new());
        }
    }
}

#[test]
fn extended_payloads_do_not_confuse_decoders() {
    // Trailing garbage after a valid encoding: decoders either ignore it
    // (framing gives exact lengths in real archives) or error — no panic.
    let chunk = &test_chunk()[..4096];
    for c in all() {
        let mut enc = Vec::new();
        c.encode_chunk(chunk, &mut enc, &mut KernelStats::new());
        enc.extend_from_slice(&[0xAA; 64]);
        let mut out = Vec::new();
        let _ = c.decode_chunk(&enc, &mut out, &mut KernelStats::new());
    }
}

#[test]
fn archive_header_field_fuzzing() {
    let data = test_chunk().repeat(3);
    let pool = Pool::new(2);
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let enc = archive::encode(&p, &data, &pool);
    // Mutate every header byte through several values.
    let header_len = archive::parse_header(&enc).unwrap().payload_offset.min(64);
    for pos in 0..header_len {
        for val in [0x00u8, 0xFF, 0x80, enc[pos].wrapping_add(1)] {
            let mut bad = enc.clone();
            bad[pos] = val;
            let _ = archive::decode(&bad, lookup, &pool); // must not panic
        }
    }
}

#[test]
fn archive_chunk_table_lies() {
    // Declare wrong stored lengths in the chunk table specifically.
    let data = test_chunk().repeat(2);
    let pool = Pool::new(2);
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let enc = archive::encode(&p, &data, &pool);
    let h = archive::parse_header(&enc).unwrap();
    for chunk_idx in 0..h.chunks as usize {
        let len_pos = h.table_offset + chunk_idx * h.entry_size() + 1;
        for lie in [0u32, 1, u32::MAX, 0x7FFF_FFFF] {
            let mut bad = enc.clone();
            bad[len_pos..len_pos + 4].copy_from_slice(&lie.to_le_bytes());
            let _ = archive::decode(&bad, lookup, &pool);
            // Salvage must also survive table lies: it either hard-errors
            // or returns a report, never panics.
            if let Ok((out, report)) = salvage(&bad, &pool) {
                assert_eq!(out.len() as u64, h.original_len);
                assert_eq!(report.recovered + report.lost, h.chunks);
            }
        }
    }
}

/// splitmix64 — tiny seeded generator so the corruption fuzz below is
/// reproducible from the printed seed without external dependencies.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn seeded_multibyte_corruption_decode_and_salvage() {
    let data = test_chunk().repeat(4);
    let pool = Pool::new(4);
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let enc = archive::encode(&p, &data, &pool);
    let h = archive::parse_header(&enc).unwrap();
    for seed in 0..64u64 {
        let mut rng = Mix(seed);
        let mut bad = enc.clone();
        // 1..=8 corrupted bytes scattered anywhere in the archive.
        let hits = 1 + (rng.next() % 8) as usize;
        for _ in 0..hits {
            let pos = (rng.next() % bad.len() as u64) as usize;
            bad[pos] ^= (rng.next() % 255 + 1) as u8;
        }
        // Strict decode: error or (if the corruption landed in slack
        // bytes) success — never a panic.
        let strict = archive::decode(&bad, lookup, &pool);
        // Salvage: same no-panic guarantee, plus a coherent report
        // whenever the header survived.
        match salvage(&bad, &pool) {
            Ok((out, report)) => {
                let bh = archive::parse_header(&bad).unwrap();
                assert_eq!(out.len() as u64, bh.original_len, "seed {seed}");
                assert_eq!(report.recovered + report.lost, bh.chunks, "seed {seed}");
                assert_eq!(report.lost as usize, report.errors.len(), "seed {seed}");
                // Salvage never does worse than strict decode: if strict
                // succeeded the archive was intact enough for a full
                // recovery of every chunk.
                if strict.is_ok() {
                    assert_eq!(report.lost, 0, "seed {seed}");
                    assert_eq!(report.recovered, h.chunks, "seed {seed}");
                }
            }
            Err(_) => {
                // Hard salvage errors are reserved for unusable headers /
                // tables / unknown components; strict decode must agree
                // that this archive is undecodable.
                assert!(
                    strict.is_err(),
                    "seed {seed}: salvage refused a decodable archive"
                );
            }
        }
    }
}

#[test]
fn header_field_mutation_against_salvage() {
    let data = test_chunk().repeat(3);
    let pool = Pool::new(2);
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let enc = archive::encode(&p, &data, &pool);
    let header_len = archive::parse_header(&enc).unwrap().payload_offset.min(64);
    for pos in 0..header_len {
        for val in [0x00u8, 0xFF, 0x80, enc[pos].wrapping_add(1)] {
            let mut bad = enc.clone();
            bad[pos] = val;
            let _ = salvage(&bad, &pool); // must not panic
        }
    }
}

#[test]
fn mid_stream_truncation_decode_and_salvage() {
    let data = test_chunk().repeat(4);
    let pool = Pool::new(4);
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let enc = archive::encode(&p, &data, &pool);
    let h = archive::parse_header(&enc).unwrap();
    let step = (enc.len() / 150).max(1);
    for cut in (0..enc.len()).step_by(step) {
        let trunc = &enc[..cut];
        // Strict decode of a truncated archive must error (the payload
        // size check catches every cut past the header).
        assert!(archive::decode(trunc, lookup, &pool).is_err(), "cut {cut}");
        match salvage(trunc, &pool) {
            Ok((out, report)) => {
                // Header + table survived: salvage recovers the chunks
                // whose payload extent is still fully present.
                assert!(cut >= h.payload_offset, "cut {cut} inside header salvaged");
                assert_eq!(out.len() as u64, h.original_len);
                assert_eq!(report.recovered + report.lost, h.chunks);
                assert!(report.lost >= 1, "cut {cut}: truncation must lose a chunk");
            }
            Err(_) => {
                assert!(cut < h.payload_offset, "cut {cut} past header must salvage");
            }
        }
    }
    // Full-length sanity: untruncated archive salvages cleanly.
    let (out, report) = salvage(&enc, &pool).unwrap();
    assert_eq!(out, data);
    assert!(report.is_clean());
}

#[test]
fn mask_lies_flip_stage_application() {
    // Claim stages were (not) applied: the decoder must process whatever
    // the mask says against whatever bytes exist and fail gracefully.
    let data = test_chunk();
    let pool = Pool::new(2);
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let enc = archive::encode(&p, &data, &pool);
    let h = archive::parse_header(&enc).unwrap();
    for mask in 0..8u8 {
        let mut bad = enc.clone();
        bad[h.table_offset] = mask;
        let _ = archive::decode(&bad, lookup, &pool);
    }
}

fn decode_lcrs(stream: &[u8], pool: &Pool) -> Result<Vec<u8>, StreamError> {
    let mut out = Vec::new();
    decode_stream(&mut &stream[..], &mut out, lookup, pool).map(|_| out)
}

/// A two-batch stream: one full window of mostly zeros with the test
/// pattern every 64th chunk, then a ragged four-chunk tail.
fn small_stream() -> (Vec<u8>, Vec<u8>) {
    let mut data = vec![0u8; (StreamEncoder::WINDOW_CHUNKS + 3) * CHUNK_SIZE + 100];
    for chunk in (0..data.len() / CHUNK_SIZE).step_by(64) {
        data[chunk * CHUNK_SIZE..][..CHUNK_SIZE].copy_from_slice(&test_chunk());
    }
    let p = parse_pipeline("TCMS_4 DIFF_4 RZE_4").unwrap();
    let mut stream = Vec::new();
    StreamEncoder::new(&p, Pool::new(2))
        .encode(&mut &data[..], &mut stream)
        .unwrap();
    (data, stream)
}

/// Where a stream's framing fields start and end, and the byte ranges
/// of its chunk tables and payloads.
struct Framing {
    boundaries: Vec<usize>,
    tables: Vec<std::ops::Range<usize>>,
    payloads: Vec<std::ops::Range<usize>>,
}

fn framing(stream: &[u8]) -> Framing {
    let mut boundaries = vec![0, 4, 5, 6];
    let mut pos = 6;
    for _ in 0..stream[5] {
        let name = pos + 1;
        pos = name + stream[pos] as usize;
        boundaries.extend([name, pos]);
    }
    let le_u32 = |at: usize| u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    let (mut tables, mut payloads) = (Vec::new(), Vec::new());
    loop {
        let n = le_u32(pos);
        pos += 4;
        boundaries.push(pos);
        if n == 0 {
            break;
        }
        let table = pos..pos + 5 * n;
        boundaries.extend(table.clone().step_by(5).flat_map(|row| [row + 1, row + 5]));
        let payload_len: usize = table.clone().step_by(5).map(|row| le_u32(row + 1)).sum();
        pos = table.end + payload_len;
        boundaries.push(pos);
        payloads.push(table.end..pos);
        tables.push(table);
    }
    boundaries.extend([pos + 8, pos + 12]);
    assert_eq!(pos + 12, stream.len(), "framing walk ends at the trailer");
    Framing {
        boundaries,
        tables,
        payloads,
    }
}

#[test]
fn lcrs_cuts_and_flips_error_never_panic() {
    let pool = Pool::new(2);
    let (data, stream) = small_stream();
    assert_eq!(decode_lcrs(&stream, &pool).unwrap(), data);
    let f = framing(&stream);
    assert_eq!(f.tables.len(), 2, "the stream spans two batches");
    // Every cut is an error: at each framing boundary, and at a stride.
    let stride = (stream.len() / 97).max(1);
    let mut cuts: Vec<usize> = f
        .boundaries
        .iter()
        .copied()
        .filter(|&c| c < stream.len())
        .collect();
    cuts.extend((0..stream.len()).step_by(stride));
    for cut in cuts {
        assert!(decode_lcrs(&stream[..cut], &pool).is_err(), "cut at {cut}");
    }
    // Every flipped table or payload byte is an error too: a structural
    // one, a per-chunk length, or the trailer's CRC.
    let mut rng = Mix(0x51);
    for region in f.tables.iter().chain(&f.payloads) {
        for _ in 0..24 {
            let pos = region.start + (rng.next() % region.len() as u64) as usize;
            let mut bad = stream.clone();
            bad[pos] ^= (rng.next() % 255 + 1) as u8;
            assert!(decode_lcrs(&bad, &pool).is_err(), "flip at {pos}");
        }
    }
}

#[test]
fn lcrs_wrong_length_chunk_fails_where_it_is() {
    // A hand-framed batch of three stored (mask 0) chunks whose middle
    // one holds 100 bytes. The trailer is consistent with the bytes, so
    // only the per-chunk length check can reject it.
    let chunks = [vec![1u8; CHUNK_SIZE], vec![2u8; 100], vec![3u8; CHUNK_SIZE]];
    let mut stream = b"LCRS\x02\x01\x05RZE_4".to_vec();
    stream.extend_from_slice(&3u32.to_le_bytes());
    for chunk in &chunks {
        stream.push(0);
        stream.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    }
    let plain = chunks.concat();
    stream.extend_from_slice(&plain);
    stream.extend_from_slice(&0u32.to_le_bytes());
    stream.extend_from_slice(&(plain.len() as u64).to_le_bytes());
    stream.extend_from_slice(&crc32(&plain).to_le_bytes());
    match decode_lcrs(&stream, &Pool::new(2)) {
        Err(StreamError::Decode(DecodeError::LengthMismatch { expected, actual })) => {
            assert_eq!((expected, actual), (CHUNK_SIZE as u64, 100));
        }
        other => panic!(
            "expected the chunk's LengthMismatch, got {:?}",
            other.map(|out| out.len())
        ),
    }
}
