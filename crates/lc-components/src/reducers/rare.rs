//! RARE and RAZE: adaptive upper-bit repetition/zero elimination
//! (paper §3.2.4).
//!
//! RARE splits every word into its upper `k` bits and lower `B−k` bits,
//! applies the RRE procedure to the upper parts only (repeat bitmap +
//! surviving uppers), and always keeps the lower bits. It picks the
//! optimal `k` for each chunk automatically. RAZE is identical except the
//! upper parts are zero-eliminated (RZE).
//!
//! The per-chunk `k` search is what makes these the slowest encoders in
//! the library (paper Figs. 8 and 12): it is implemented with a
//! leading-zero histogram — `upper_k(w[i])` equals `upper_k(w[i−1])` iff
//! `clz(w[i] XOR w[i−1]) ≥ k`, so one O(n + B) pass yields the surviving
//! count for every `k` at once — followed by a second full packing pass.
//!
//! Body layout after the shared reducer frame:
//!
//! ```text
//! u8            k (1..=8·W)
//! bitmap-block  over the upper parts (see `rre` module)
//! bits          surviving upper parts, k bits each
//! bits          all lower parts, (8·W − k) bits each
//! ```

use lc_core::{
    Complexity, Component, ComponentKind, Contract, DecodeError, ExpansionBound, KernelStats,
    SpanClass, WorkClass,
};

use super::rre::{levels_len, read_bitmap_block, write_bitmap_block, STACK_LEVELS};
use super::{account_compaction_scan, read_frame, write_frame};
use crate::util::bitpack::{bytes_for_bits, BitReader, BitWriter};
use crate::util::words;

/// Upper-part elimination rule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Upper {
    /// Keep uppers that differ from their predecessor (RARE).
    Repeat,
    /// Keep nonzero uppers (RAZE).
    Zero,
}

/// Leading zeros of `v` within a `bits`-wide word (`v == 0` → `bits`).
#[inline(always)]
fn clz_width(v: u64, bits: u32) -> u32 {
    if v == 0 {
        bits
    } else {
        (v << (64 - bits)).leading_zeros()
    }
}

/// Choose the `k` minimizing the packed size estimate. Returns
/// `(k, kept_count_at_k)`.
fn choose_k(vals: &[u64], bits: u32, upper: Upper) -> (u32, usize) {
    let n = vals.len();
    // hist[c] = number of words whose relevant leading-zero count is c.
    let mut hist = vec![0usize; bits as usize + 1];
    match upper {
        Upper::Repeat => {
            // Word 0 always survives; count it as lz = 0.
            hist[0] += 1;
            for i in 1..n {
                hist[clz_width(vals[i] ^ vals[i - 1], bits) as usize] += 1;
            }
        }
        Upper::Zero => {
            for &v in vals {
                hist[clz_width(v, bits) as usize] += 1;
            }
        }
    }
    // kept(k) = # words with lz < k; grows cumulatively in k.
    let mut best = (1u32, usize::MAX, u64::MAX);
    let mut kept = 0usize;
    for k in 1..=bits {
        kept += hist[(k - 1) as usize];
        let cost = bytes_for_bits(kept as u64 * u64::from(k))
            + bytes_for_bits(n as u64 * u64::from(bits - k));
        if cost < best.2 {
            best = (k, kept, cost);
        }
    }
    (best.0, best.1)
}

fn encode<const W: usize>(input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats, upper: Upper) {
    let n = write_frame::<W>(input, out);
    let bits = words::bits::<W>();
    let vals = words::to_vec::<W>(input);
    if n == 0 {
        out.push(1); // degenerate k so the frame stays parseable
        write_bitmap_block(&mut [], 0, out, stats);
        return;
    }
    let (k, _) = choose_k(&vals, bits, upper);
    let shift = bits - k;
    let upper_of = |v: u64| v >> shift;

    // Bitmap over the upper parts, with room for its levels behind it.
    let bm_len = n.div_ceil(8);
    let mut bm = vec![0u8; levels_len(bm_len)];
    let mut kept = 0usize;
    for i in 0..n {
        let marked = match upper {
            Upper::Repeat => i > 0 && upper_of(vals[i]) == upper_of(vals[i - 1]),
            Upper::Zero => upper_of(vals[i]) == 0,
        };
        if marked {
            bm[i / 8] |= 1 << (i % 8);
        } else {
            kept += 1;
        }
    }
    out.push(k as u8);
    write_bitmap_block(&mut bm, bm_len, out, stats);
    let mut writer = BitWriter::new(out);
    for i in 0..n {
        if bm[i / 8] & (1 << (i % 8)) == 0 {
            writer.put(upper_of(vals[i]), k);
        }
    }
    for &v in &vals {
        writer.put(v, shift); // low `shift` bits
    }
    writer.finish();

    stats.words += n as u64;
    // Histogram pass + bitmap pass + two packing passes: the adaptive
    // overhead relative to plain RRE/RZE.
    stats.thread_ops += n as u64 * 10 + u64::from(bits);
    stats.global_reads += input.len() as u64;
    stats.global_writes += out.len() as u64;
    stats.shared_traffic += (n * W) as u64 * 2 + bm_len as u64;
    stats.divergent_branches += (n - kept) as u64 / 8 + 1;
    stats.atomic_ops += 2; // histogram accumulation uses shared atomics
    account_compaction_scan(stats, n);
    account_compaction_scan(stats, n); // second scan for the packed uppers
}

fn decode<const W: usize>(
    input: &[u8],
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
    upper: Upper,
) -> Result<(), DecodeError> {
    let frame = read_frame::<W>(input)?;
    let n = frame.n_words;
    let bits = words::bits::<W>();
    let mut pos = frame.body;
    let k = u32::from(
        *input
            .get(pos)
            .ok_or(DecodeError::Truncated { context: "RARE k" })?,
    );
    pos += 1;
    if k == 0 || k > bits {
        return Err(DecodeError::Corrupt {
            context: "RARE k out of range",
        });
    }
    let (mut stack, mut heap) = ([0u8; STACK_LEVELS], Vec::new());
    let bm = read_bitmap_block(input, &mut pos, stats, &mut stack, &mut heap)?;
    if n == 0 {
        out.extend_from_slice(frame.tail);
        return Ok(());
    }
    if bm.len() != n.div_ceil(8) {
        return Err(DecodeError::Corrupt {
            context: "RARE bitmap size",
        });
    }
    let shift = bits - k;
    let mut reader = BitReader::new(&input[pos..]);
    // Pass 1: surviving uppers, in order.
    let mut kept_uppers = Vec::new();
    for i in 0..n {
        if bm[i / 8] & (1 << (i % 8)) == 0 {
            kept_uppers.push(reader.get(k)?);
        }
    }
    // Pass 2: reconstruct uppers while reading the lowers.
    out.reserve(n * W + frame.tail.len());
    let mut next_kept = kept_uppers.iter();
    let mut uppers = Vec::with_capacity(n);
    let mut prev_upper = 0u64;
    for i in 0..n {
        let marked = bm[i / 8] & (1 << (i % 8)) != 0;
        let u = if marked {
            match upper {
                Upper::Repeat => {
                    if i == 0 {
                        return Err(DecodeError::Corrupt {
                            context: "RARE repeat at index 0",
                        });
                    }
                    prev_upper
                }
                Upper::Zero => 0,
            }
        } else {
            *next_kept.next().expect("kept count matches bitmap") // invariant: kept count derives from this bitmap
        };
        uppers.push(u);
        prev_upper = u;
    }
    for &u in &uppers {
        let low = reader.get(shift)?;
        words::put::<W>(out, (u << shift) | low);
    }
    out.extend_from_slice(frame.tail);
    stats.words += n as u64;
    stats.thread_ops += n as u64 * 5;
    stats.global_reads += input.len() as u64;
    stats.global_writes += out.len() as u64;
    account_compaction_scan(stats, n);
    Ok(())
}

macro_rules! rare_like {
    ($name:ident, $prefix:literal, $upper:expr) => {
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
                Complexity::new(WorkClass::N, SpanClass::LogN, WorkClass::N, SpanClass::LogN)
            }
            fn contract(&self) -> Contract {
                // Upper + lower bit streams together hold ≤ 8·W bits per
                // word; the upper-part bitmap adds ≤ n/7 bytes and the `k`
                // byte, stream padding, and frame are constant. Declared
                // as max_bytes(len) = len·(W+2)/W + 64.
                Contract::reducer(W, ExpansionBound::affine(W as u64 + 2, W as u64, 64))
            }
            fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
                encode::<W>(input, out, stats, $upper);
            }
            fn decode_chunk(
                &self,
                input: &[u8],
                out: &mut Vec<u8>,
                stats: &mut KernelStats,
            ) -> Result<(), DecodeError> {
                decode::<W>(input, out, stats, $upper)
            }
        }
    };
}

rare_like!(Rare, "RARE", Upper::Repeat);
rare_like!(Raze, "RAZE", Upper::Zero);

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::verify::roundtrip_component;

    #[test]
    fn roundtrips_all_widths_and_lengths() {
        for len in [0usize, 1, 3, 4, 8, 100, 1000, 16384] {
            let data: Vec<u8> = (0..len).map(|i| ((i * 37 + i / 9) % 256) as u8).collect();
            roundtrip_component(&Rare::<1>, &data);
            roundtrip_component(&Rare::<2>, &data);
            roundtrip_component(&Rare::<4>, &data);
            roundtrip_component(&Rare::<8>, &data);
            roundtrip_component(&Raze::<1>, &data);
            roundtrip_component(&Raze::<2>, &data);
            roundtrip_component(&Raze::<4>, &data);
            roundtrip_component(&Raze::<8>, &data);
        }
    }

    #[test]
    fn rare_compresses_stable_upper_bits() {
        // Floats in a narrow range share sign+exponent (top 9+ bits).
        let vals: Vec<f32> = (0..4096).map(|i| 1.5 + (i % 97) as f32 * 1e-5).collect();
        let data: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let size = roundtrip_component(&Rare::<4>, &data);
        assert!(
            size < data.len(),
            "shared upper bits must shrink: {size} vs {}",
            data.len()
        );
    }

    #[test]
    fn raze_compresses_zero_upper_bits() {
        // Small positive values: upper bits are all zero.
        let vals: Vec<u32> = (0..4096).map(|i| i % 500).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let size = roundtrip_component(&Raze::<4>, &data);
        assert!(size < data.len() / 2, "{size} vs {}", data.len());
    }

    #[test]
    fn choose_k_prefers_large_k_on_constant_uppers() {
        // All words share their top 24 bits while their low bytes look
        // random (an LCG), so kept(k) stays 1 up to k = 24 and roughly
        // doubles at k = 25 → the cost minimum sits exactly at 24.
        let mut x = 17u64;
        let vals: Vec<u64> = (0..256u64)
            .map(|_| {
                x = (x.wrapping_mul(1103515245).wrapping_add(12345)) >> 3;
                0xABCDEF00 | (x & 0xFF)
            })
            .collect();
        let (k, kept) = choose_k(&vals, 32, Upper::Repeat);
        assert_eq!(k, 24);
        assert_eq!(kept, 1);
    }

    #[test]
    fn choose_k_zero_variant() {
        // Values < 2^10 → top 22 bits zero.
        let vals: Vec<u64> = (0..512u64).map(|i| i * 2 % 1024).collect();
        let (k, _) = choose_k(&vals, 32, Upper::Zero);
        assert_eq!(k, 22);
    }

    #[test]
    fn clz_width_edges() {
        assert_eq!(clz_width(0, 8), 8);
        assert_eq!(clz_width(1, 8), 7);
        assert_eq!(clz_width(0x80, 8), 0);
        assert_eq!(clz_width(0, 64), 64);
        assert_eq!(clz_width(u64::MAX, 64), 0);
    }

    #[test]
    fn incompressible_data_expands() {
        let vals: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(roundtrip_component(&Rare::<4>, &data) > data.len() * 9 / 10);
    }

    #[test]
    fn decode_rejects_bad_k() {
        let data: Vec<u8> = (0..64).collect();
        let mut enc = Vec::new();
        Rare::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        // Frame: varint(16)=1 byte + tail_len(0)=1 byte → k at offset 2.
        enc[2] = 0;
        assert!(Rare::<4>
            .decode_chunk(&enc, &mut Vec::new(), &mut KernelStats::new())
            .is_err());
        enc[2] = 33; // > 32 bits
        assert!(Rare::<4>
            .decode_chunk(&enc, &mut Vec::new(), &mut KernelStats::new())
            .is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let vals: Vec<u32> = (0..512).map(|i| i % 100).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut enc = Vec::new();
        Raze::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        for cut in [0usize, 1, 2, 3, 10, enc.len() / 2, enc.len() - 1] {
            assert!(
                Raze::<4>
                    .decode_chunk(&enc[..cut], &mut Vec::new(), &mut KernelStats::new())
                    .is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn adaptive_encode_costs_more_ops_than_plain_rre() {
        use crate::reducers::rre::Rre;
        let vals: Vec<u32> = (0..4096).map(|i| i % 77).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut s_rare = KernelStats::new();
        Rare::<4>.encode_chunk(&data, &mut Vec::new(), &mut s_rare);
        let mut s_rre = KernelStats::new();
        Rre::<4>.encode_chunk(&data, &mut Vec::new(), &mut s_rre);
        assert!(
            s_rare.thread_ops > s_rre.thread_ops,
            "adaptivity costs work"
        );
        assert!(s_rare.scan_steps > s_rre.scan_steps);
    }
}
