//! CLOG and HCLOG: leading-zero width packing (paper §3.2.4).
//!
//! CLOG breaks each chunk into 32 subchunks, finds the smallest number of
//! leading zero bits across all values of a subchunk, records the
//! remaining bit-width per subchunk, and stores only those bits of every
//! value. HCLOG additionally applies the TCMS transformation to any
//! subchunk that yields no leading zero bits under plain CLOG, which
//! rescues subchunks of small-magnitude *negative* values (whose sign bits
//! defeat CLOG); a per-subchunk flag bit records the choice.
//!
//! Body layout after the shared reducer frame:
//!
//! ```text
//! u8 × 32      bit widths per subchunk (0..=8·W)
//! u8 × 4       HCLOG only: TCMS flag bit per subchunk
//! bits         values, subchunk-major, width_j bits each, MSB-first
//! ```

use lc_core::{
    Complexity, Component, ComponentKind, Contract, DecodeError, ExpansionBound, KernelStats,
    SpanClass, WorkClass,
};

use super::{read_frame, write_frame};
use crate::util::bitpack::{BitReader, BitWriter};
use crate::util::codec;
use crate::util::words;

/// Number of subchunks a chunk is split into (paper §3.2.4).
pub(crate) const SUBCHUNKS: usize = 32;

/// Word range of subchunk `j` when splitting `n` words into
/// [`SUBCHUNKS`] nearly-equal parts (first `n % SUBCHUNKS` parts get one
/// extra word).
pub(crate) fn subchunk_range(j: usize, n: usize) -> std::ops::Range<usize> {
    let q = n / SUBCHUNKS;
    let r = n % SUBCHUNKS;
    let start = j * q + j.min(r);
    let len = q + usize::from(j < r);
    start..start + len
}

fn width_of(max: u64, bits: u32) -> u32 {
    if max == 0 {
        0
    } else {
        bits - (max << (64 - bits)).leading_zeros()
    }
}

fn account_encode(stats: &mut KernelStats, n: usize, in_len: usize, out_len: usize, ops: u64) {
    stats.words += n as u64;
    stats.thread_ops += n as u64 * ops;
    stats.global_reads += in_len as u64;
    stats.global_writes += out_len as u64;
    stats.shared_traffic += (in_len + out_len) as u64;
    // Max-reduction within each subchunk: a fixed-depth tree (the subchunk
    // size is bounded by chunk/32), modeled as warp-level reduction steps.
    stats.warp_shuffles += (n as u64).div_ceil(32) * 5;
    stats.block_syncs += 2;
}

macro_rules! clog_like {
    ($name:ident, $prefix:literal, $hybrid:literal) => {
        #[doc = concat!($prefix, " at a const word size; see the module docs.")]
        pub struct $name<const W: usize>;

        impl<const W: usize> Component for $name<W> {
            fn name(&self) -> &'static str {
                match W {
                    1 => concat!($prefix, "_1"),
                    2 => concat!($prefix, "_2"),
                    4 => concat!($prefix, "_4"),
                    8 => concat!($prefix, "_8"),
                    _ => unreachable!("unsupported word size"),
                }
            }
            fn kind(&self) -> ComponentKind {
                ComponentKind::Reducer
            }
            fn word_size(&self) -> usize {
                W
            }
            fn complexity(&self) -> Complexity {
                // Θ(n) work, Θ(1) span in both directions (paper Table 2).
                Complexity::new(
                    WorkClass::N,
                    SpanClass::Const,
                    WorkClass::N,
                    SpanClass::Const,
                )
            }
            fn contract(&self) -> Contract {
                // Packed widths never exceed the word width, so the body
                // is at most n·W bytes (+1 padding); the fixed header is
                // 32 width bytes (+4 HCLOG flag bytes) and the frame adds
                // ≤ W + 3. Declared as max_bytes(len) = len + 64.
                Contract::reducer(W, ExpansionBound::affine(1, 1, 64))
            }
            fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
                encode::<W>(input, out, stats, $hybrid);
            }
            fn decode_chunk(
                &self,
                input: &[u8],
                out: &mut Vec<u8>,
                stats: &mut KernelStats,
            ) -> Result<(), DecodeError> {
                decode::<W>(input, out, stats, $hybrid)
            }
        }
    };
}

clog_like!(Clog, "CLOG", false);
clog_like!(Hclog, "HCLOG", true);

fn encode<const W: usize>(input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats, hybrid: bool) {
    let n = write_frame::<W>(input, out);
    if n == 0 {
        account_encode(stats, 0, input.len(), out.len(), 0);
        return;
    }
    let bits = words::bits::<W>();
    let vals = words::to_vec::<W>(input);

    // Pass 1: per-subchunk widths (and, for HCLOG, the TCMS fallback).
    let mut widths = [0u8; SUBCHUNKS];
    let mut flags = [false; SUBCHUNKS];
    for j in 0..SUBCHUNKS {
        let r = subchunk_range(j, n);
        let max = vals[r.clone()].iter().copied().max().unwrap_or(0);
        let mut w = width_of(max, bits);
        if hybrid && w == bits {
            // No leading zeros: try magnitude-sign, which shrinks
            // sign-extended negatives (paper §3.2.4).
            let max_ms = vals[r]
                .iter()
                .map(|&v| codec::to_magnitude_sign::<W>(v))
                .max()
                .unwrap_or(0);
            let w_ms = width_of(max_ms, bits);
            if w_ms < w {
                flags[j] = true;
                w = w_ms;
            }
        }
        widths[j] = w as u8;
    }
    out.extend_from_slice(&widths);
    if hybrid {
        let mut flag_bytes = [0u8; 4];
        for (j, &f) in flags.iter().enumerate() {
            if f {
                flag_bytes[j / 8] |= 1 << (j % 8);
            }
        }
        out.extend_from_slice(&flag_bytes);
    }

    // Pass 2: pack the surviving low bits, subchunk-major.
    let mut writer = BitWriter::new(out);
    for j in 0..SUBCHUNKS {
        let width = u32::from(widths[j]);
        for &v in &vals[subchunk_range(j, n)] {
            let v = if flags[j] {
                codec::to_magnitude_sign::<W>(v)
            } else {
                v
            };
            writer.put(v, width);
        }
    }
    writer.finish();
    let ops = if hybrid { 6 } else { 3 };
    account_encode(stats, n, input.len(), out.len(), ops);
    // No Θ(log n) compaction scan here: output positions derive from a
    // constant-size (32-entry) width prefix, so CLOG/HCLOG keep the Θ(1)
    // encode span of paper Table 2.
}

fn decode<const W: usize>(
    input: &[u8],
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
    hybrid: bool,
) -> Result<(), DecodeError> {
    let frame = read_frame::<W>(input)?;
    let n = frame.n_words;
    let bits = words::bits::<W>();
    let mut pos = frame.body;
    if n == 0 {
        if pos != input.len() {
            return Err(DecodeError::Corrupt {
                context: "CLOG trailing bytes",
            });
        }
        out.extend_from_slice(frame.tail);
        return Ok(());
    }
    if pos + SUBCHUNKS > input.len() {
        return Err(DecodeError::Truncated {
            context: "CLOG widths",
        });
    }
    let widths = &input[pos..pos + SUBCHUNKS];
    pos += SUBCHUNKS;
    let mut flags = [false; SUBCHUNKS];
    if hybrid {
        if pos + 4 > input.len() {
            return Err(DecodeError::Truncated {
                context: "HCLOG flags",
            });
        }
        for j in 0..SUBCHUNKS {
            flags[j] = input[pos + j / 8] & (1 << (j % 8)) != 0;
        }
        pos += 4;
    }
    let mut reader = BitReader::new(&input[pos..]);
    out.reserve(n * W + frame.tail.len());
    for j in 0..SUBCHUNKS {
        let width = u32::from(widths[j]);
        if width > bits {
            return Err(DecodeError::Corrupt {
                context: "CLOG width exceeds word",
            });
        }
        for _ in subchunk_range(j, n) {
            let v = reader.get(width)?;
            let v = if flags[j] {
                codec::from_magnitude_sign::<W>(v)
            } else {
                v
            };
            words::put::<W>(out, v);
        }
    }
    out.extend_from_slice(frame.tail);
    stats.words += n as u64;
    stats.thread_ops += n as u64 * if hybrid { 4 } else { 2 };
    stats.global_reads += input.len() as u64;
    stats.global_writes += out.len() as u64;
    stats.shared_traffic += (n * W) as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::verify::roundtrip_component;

    fn float_bytes(vals: &[f32]) -> Vec<u8> {
        vals.iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect()
    }

    #[test]
    fn subchunk_ranges_tile() {
        for n in [0usize, 1, 31, 32, 33, 100, 4096, 16384] {
            let mut covered = 0;
            for j in 0..SUBCHUNKS {
                let r = subchunk_range(j, n);
                assert_eq!(r.start, covered, "n={n} j={j}");
                covered = r.end;
            }
            assert_eq!(covered, n, "n={n}");
        }
    }

    #[test]
    fn width_of_edges() {
        assert_eq!(width_of(0, 32), 0);
        assert_eq!(width_of(1, 32), 1);
        assert_eq!(width_of(255, 8), 8);
        assert_eq!(width_of(u64::MAX, 64), 64);
        assert_eq!(width_of(0x8000_0000, 32), 32);
    }

    #[test]
    fn clog_roundtrips() {
        for len in [0usize, 1, 5, 64, 100, 1000, 16384] {
            let data: Vec<u8> = (0..len).map(|i| ((i * 31) % 256) as u8).collect();
            roundtrip_component(&Clog::<1>, &data);
            roundtrip_component(&Clog::<2>, &data);
            roundtrip_component(&Clog::<4>, &data);
            roundtrip_component(&Clog::<8>, &data);
            roundtrip_component(&Hclog::<1>, &data);
            roundtrip_component(&Hclog::<2>, &data);
            roundtrip_component(&Hclog::<4>, &data);
            roundtrip_component(&Hclog::<8>, &data);
        }
    }

    #[test]
    fn clog_compresses_leading_zeros() {
        // Small u32 values: at most 10 bits each → ~3.2× compression.
        let vals: Vec<u32> = (0..4096).map(|i| i % 1000).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let size = roundtrip_component(&Clog::<4>, &data);
        assert!(size < data.len() / 2, "{size} vs {}", data.len());
    }

    #[test]
    fn clog_does_not_compress_random_bits() {
        let data: Vec<u8> = (0..4096)
            .map(|i| (((i * 2654435761u64) >> 13) & 0xFF) as u8)
            .collect();
        let size = roundtrip_component(&Clog::<4>, &data);
        assert!(size >= data.len(), "full-width values cannot shrink");
    }

    #[test]
    fn hclog_beats_clog_on_negative_values() {
        // Small-magnitude negatives: sign extension gives CLOG nothing,
        // TCMS maps them to small codes.
        let vals: Vec<i32> = (0..4096i32).map(|i| -(i % 100) - 1).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let clog_size = roundtrip_component(&Clog::<4>, &data);
        let hclog_size = roundtrip_component(&Hclog::<4>, &data);
        assert!(
            hclog_size < clog_size,
            "HCLOG {hclog_size} vs CLOG {clog_size}"
        );
        assert!(hclog_size < data.len());
    }

    #[test]
    fn clog_on_smooth_floats_after_nothing_is_modest() {
        // Raw floats all share high exponent bits but CLOG sees full-width
        // values; it should survive round-trip regardless.
        let vals: Vec<f32> = (0..2048).map(|i| 1.0 + i as f32 * 1e-4).collect();
        roundtrip_component(&Clog::<4>, &float_bytes(&vals));
        roundtrip_component(&Hclog::<4>, &float_bytes(&vals));
    }

    #[test]
    fn decode_rejects_bad_width() {
        let data: Vec<u8> = (0..64).collect();
        let mut enc = Vec::new();
        Clog::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        // Corrupt a width byte to an impossible value.
        // Frame: varint(16) = 1 byte, tail_len byte, no tail → widths at 2.
        enc[2] = 99;
        let mut out = Vec::new();
        assert!(Clog::<4>
            .decode_chunk(&enc, &mut out, &mut KernelStats::new())
            .is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let data: Vec<u8> = (0..=255).collect();
        let mut enc = Vec::new();
        Clog::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        for cut in [0, 1, 2, 10, enc.len() - 1] {
            let mut out = Vec::new();
            assert!(
                Clog::<4>
                    .decode_chunk(&enc[..cut], &mut out, &mut KernelStats::new())
                    .is_err(),
                "cut={cut}"
            );
        }
    }
}
