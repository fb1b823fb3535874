//! RRE and RZE: bitmap-based repetition/zero elimination (paper §3.2.4).
//!
//! RRE creates a bitmap marking every word that repeats its predecessor,
//! outputs only the non-repeating words, and compresses the bitmap
//! *repeatedly with the same algorithm*: the bitmap's bytes are themselves
//! bitmap-compressed (a repeat-bitmap over bitmap bytes plus the
//! non-repeating bytes), recursing until the residue is at most
//! [`BITMAP_RAW_LIMIT`] bytes. RZE is identical except the bitmap marks
//! zero words (and, in the recursion, zero bitmap bytes).
//!
//! Body layout after the shared reducer frame:
//!
//! ```text
//! bitmap-block(level 0 bitmap)     recursive, see below
//! word × kept                      surviving words, in order
//!
//! bitmap-block(bm):
//!   varint len(bm)
//!   if len ≤ BITMAP_RAW_LIMIT: bm verbatim
//!   else: bitmap-block(bitmap over bm's bytes) then surviving bytes
//! ```

use lc_core::{
    Complexity, Component, ComponentKind, Contract, DecodeError, ExpansionBound, KernelStats,
    SizeDeterminant, SpanClass, WorkClass,
};

use super::{account_compaction_scan, read_frame, write_frame};
use crate::kernels::bitmap;
use crate::util::varint;

pub(crate) use crate::kernels::bitmap::Mark;

/// Bitmaps at or below this many bytes are stored verbatim instead of
/// recursing further.
pub(crate) const BITMAP_RAW_LIMIT: usize = 16;

/// Bytes a bitmap of `len` bytes and every level below it take: each
/// level above [`BITMAP_RAW_LIMIT`] bytes adds a meta level an eighth
/// its size.
pub(crate) const fn levels_len(len: usize) -> usize {
    let (mut total, mut level) = (len, len);
    while level > BITMAP_RAW_LIMIT {
        level = level.div_ceil(8);
        total += level;
    }
    total
}

/// Bytes of bitmap levels kept on the stack: all of them for a 16 KiB
/// chunk at `W = 1`, the largest bitmap a chunk-sized input has
/// (2,340 bytes).
pub(crate) const STACK_LEVELS: usize = levels_len(lc_core::CHUNK_SIZE / 8);

/// `levels_len(len)` zeroed bytes for a bitmap of `len` bytes and its
/// levels: on the stack for a chunk-sized input, on the heap past it.
fn level_scratch<'a>(
    stack: &'a mut [u8; STACK_LEVELS],
    heap: &'a mut Vec<u8>,
    len: usize,
) -> &'a mut [u8] {
    let total = levels_len(len);
    if total <= STACK_LEVELS {
        &mut stack[..total]
    } else {
        heap.resize(total, 0);
        &mut heap[..]
    }
}

/// Recursively emit the bitmap block for the bitmap in `levels[..len]`.
///
/// Every recursion level marks bitmap bytes that repeat their predecessor,
/// independent of the word-level rule: bitmaps are run-heavy for both
/// repeat-marked and zero-marked data, so repeat-marking collapses them in
/// O(log) levels either way. (The paper only says the bitmap is
/// "repeatedly compressed with the same algorithm"; the exact byte-level
/// rule is an implementation choice, documented here.)
///
/// `levels[len..levels_len(len)]` must be zeroed: it receives the deeper
/// levels, each an eighth of the one above, behind it.
pub(crate) fn write_bitmap_block(
    levels: &mut [u8],
    len: usize,
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
) {
    varint::write(out, len as u64);
    if len <= BITMAP_RAW_LIMIT {
        out.extend_from_slice(&levels[..len]);
        return;
    }
    let (bm, below) = levels.split_at_mut(len);
    let meta = len.div_ceil(8);
    let kept = bitmap::build_into::<1>(Mark::RepeatsPrior, bm, &mut below[..meta]);
    stats.thread_ops += len as u64 * 2;
    write_bitmap_block(below, meta, out, stats);
    bitmap::emit::<1>(bm, &below[..meta], kept, out);
}

/// Read the bitmap block starting at `*pos` and return its level-0
/// bitmap, decoded in [`level_scratch`] over `stack` and `heap`.
pub(crate) fn read_bitmap_block<'a>(
    buf: &[u8],
    pos: &mut usize,
    stats: &mut KernelStats,
    stack: &'a mut [u8; STACK_LEVELS],
    heap: &'a mut Vec<u8>,
) -> Result<&'a [u8], DecodeError> {
    let len = read_level_len(buf, pos, None)?;
    let levels = level_scratch(stack, heap, len);
    read_level(buf, pos, stats, len, levels)?;
    Ok(&levels[..len])
}

/// Read a level's length; `expect` is the size the level above needs it
/// to be. Checking it before descending bounds the recursion by the 8×
/// shrink per level instead of by the input length.
fn read_level_len(
    buf: &[u8],
    pos: &mut usize,
    expect: Option<usize>,
) -> Result<usize, DecodeError> {
    let len = varint::read(buf, pos)? as usize;
    // A level-0 bitmap covers at most 2·CHUNK_SIZE words → bound every
    // level by that to stop corrupt archives from over-allocating.
    if len > lc_core::CHUNK_SIZE * 2 {
        return Err(DecodeError::Corrupt {
            context: "bitmap block too large",
        });
    }
    if expect.is_some_and(|e| e != len) {
        return Err(DecodeError::Corrupt {
            context: "bitmap meta level size",
        });
    }
    Ok(len)
}

/// Decode the level of `len` bytes whose length was just read into
/// `levels[..len]`, and the levels below it behind it.
fn read_level(
    buf: &[u8],
    pos: &mut usize,
    stats: &mut KernelStats,
    len: usize,
    levels: &mut [u8],
) -> Result<(), DecodeError> {
    let (bm, below) = levels.split_at_mut(len);
    if len <= BITMAP_RAW_LIMIT {
        let raw = buf.get(*pos..*pos + len).ok_or(DecodeError::Truncated {
            context: "raw bitmap block",
        })?;
        bm.copy_from_slice(raw);
        *pos += len;
        return Ok(());
    }
    let meta = read_level_len(buf, pos, Some(len.div_ceil(8)))?;
    read_level(buf, pos, stats, meta, below)?;
    stats.thread_ops += len as u64 * 2;
    bitmap::expand_into::<1>(Mark::RepeatsPrior, &below[..meta], buf, pos, bm)
}

fn encode<const W: usize>(input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats, mark: Mark) {
    let n = write_frame::<W>(input, out);
    let src = &input[..n * W];
    // The bitmap and every level below it, in one scratch.
    let len = n.div_ceil(8);
    let (mut stack, mut heap) = ([0u8; STACK_LEVELS], Vec::new());
    let levels = level_scratch(&mut stack, &mut heap, len);
    let kept = bitmap::build_into::<W>(mark, src, &mut levels[..len]);
    write_bitmap_block(levels, len, out, stats);
    bitmap::emit::<W>(src, &levels[..len], kept, out);
    stats.words += n as u64;
    stats.thread_ops += n as u64 * 3;
    stats.global_reads += input.len() as u64;
    stats.global_writes += out.len() as u64;
    stats.shared_traffic += (n * W + len) as u64;
    stats.divergent_branches += (n - kept) as u64 / 8 + 1;
    account_compaction_scan(stats, n);
}

fn decode<const W: usize>(
    input: &[u8],
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
    mark: Mark,
) -> Result<(), DecodeError> {
    let frame = read_frame::<W>(input)?;
    let n = frame.n_words;
    let mut pos = frame.body;
    let (mut stack, mut heap) = ([0u8; STACK_LEVELS], Vec::new());
    let bm = read_bitmap_block(input, &mut pos, stats, &mut stack, &mut heap)?;
    if bm.len() != n.div_ceil(8) {
        return Err(DecodeError::Corrupt {
            context: "bitmap size vs word count",
        });
    }
    out.reserve(n * W + frame.tail.len());
    bitmap::expand::<W>(mark, bm, n, input, &mut pos, out)?;
    out.extend_from_slice(frame.tail);
    stats.words += n as u64;
    stats.thread_ops += n as u64 * 2;
    stats.global_reads += input.len() as u64;
    stats.global_writes += out.len() as u64;
    // Scattering survivors back to their positions needs an intra-chunk
    // prefix sum over the bitmap (Θ(log n) span; paper Table 2).
    account_compaction_scan(stats, n);
    Ok(())
}

macro_rules! rre_like {
    ($name:ident, $prefix:literal, $mark:expr) => {
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
            fn kernel_variant(&self) -> lc_core::KernelVariant {
                bitmap::variant::<W>()
            }
            fn contract(&self) -> Contract {
                // Worst case nothing is eliminated: all n·W word bytes
                // survive and the recursive bitmap costs ≤ n/8 · 8/7 bytes
                // plus per-level varints — well under 2 extra bytes per
                // word. Declared as max_bytes(len) = len·(W+2)/W + 64.
                //
                // Size determinant: the output consists of the recursive
                // bitmap (a function of which words are marked) plus the
                // kept words verbatim — so |output| and the kernel
                // statistics in both directions are functions of the
                // input length and the mark pattern alone. For RRE the
                // mark pattern is the adjacent-equality pattern of the
                // complete W-byte words; for RZE it is the zero/nonzero
                // pattern.
                Contract::reducer(W, ExpansionBound::affine(W as u64 + 2, W as u64, 64))
                    .with_size_determinant(match $mark {
                        Mark::RepeatsPrior => SizeDeterminant::EqualityPattern,
                        Mark::IsZero => SizeDeterminant::ZeroPattern,
                    })
            }
            fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
                encode::<W>(input, out, stats, $mark);
            }
            fn decode_chunk(
                &self,
                input: &[u8],
                out: &mut Vec<u8>,
                stats: &mut KernelStats,
            ) -> Result<(), DecodeError> {
                decode::<W>(input, out, stats, $mark)
            }
        }
    };
}

rre_like!(Rre, "RRE", Mark::RepeatsPrior);
rre_like!(Rze, "RZE", Mark::IsZero);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{with_tier_cap, Variant};
    use lc_core::verify::roundtrip_component;

    fn read_block(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, DecodeError> {
        let (mut stack, mut heap) = ([0u8; STACK_LEVELS], Vec::new());
        let bm = read_bitmap_block(buf, pos, &mut KernelStats::new(), &mut stack, &mut heap)?;
        Ok(bm.to_vec())
    }

    fn write_block(bm: &[u8], out: &mut Vec<u8>) {
        let mut levels = bm.to_vec();
        levels.resize(levels_len(bm.len()), 0);
        write_bitmap_block(&mut levels, bm.len(), out, &mut KernelStats::new());
    }

    #[test]
    fn roundtrips_all_widths_and_lengths() {
        for len in [0usize, 1, 3, 4, 8, 100, 1000, 16384] {
            let data: Vec<u8> = (0..len).map(|i| ((i / 3) % 256) as u8).collect();
            roundtrip_component(&Rre::<1>, &data);
            roundtrip_component(&Rre::<2>, &data);
            roundtrip_component(&Rre::<4>, &data);
            roundtrip_component(&Rre::<8>, &data);
            roundtrip_component(&Rze::<1>, &data);
            roundtrip_component(&Rze::<2>, &data);
            roundtrip_component(&Rze::<4>, &data);
            roundtrip_component(&Rze::<8>, &data);
        }
    }

    #[test]
    fn rre_compresses_repeats() {
        let vals = vec![0xDEADBEEFu32; 4096];
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let size = roundtrip_component(&Rre::<4>, &data);
        // One surviving word + a recursively-collapsed all-ones bitmap.
        assert!(size < 100, "fully repetitive data must collapse: {size}");
    }

    #[test]
    fn rze_compresses_zeros() {
        let mut vals = vec![0u32; 4000];
        vals.extend((1..=96).map(|i| i * 7)); // nonzero survivors
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let size = roundtrip_component(&Rze::<4>, &data);
        assert!(size < 96 * 4 + 600, "zeros must vanish: {size}");
    }

    #[test]
    fn rre_vs_rze_prefer_different_data() {
        let repeats: Vec<u8> = vec![9u8; 8192];
        let zeros: Vec<u8> = vec![0u8; 8192];
        assert!(roundtrip_component(&Rre::<1>, &repeats) < 100);
        assert!(roundtrip_component(&Rze::<1>, &zeros) < 100);
    }

    #[test]
    fn incompressible_data_expands() {
        let vals: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(roundtrip_component(&Rre::<4>, &data) > data.len());
        assert!(roundtrip_component(&Rze::<4>, &data) > data.len());
    }

    #[test]
    fn bitmap_block_roundtrip_various_sizes() {
        for len in [0usize, 1, 16, 17, 100, 2048] {
            let bm: Vec<u8> = (0..len).map(|i| ((i / 5) % 256) as u8).collect();
            let mut out = Vec::new();
            write_block(&bm, &mut out);
            let mut pos = 0;
            let back = read_block(&out, &mut pos).unwrap();
            assert_eq!(back, bm, "len={len}");
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn bitmap_block_rejects_truncation() {
        let bm: Vec<u8> = (0..200).map(|i| (i % 7) as u8).collect();
        let mut out = Vec::new();
        write_block(&bm, &mut out);
        for cut in 0..out.len() {
            assert!(read_block(&out[..cut], &mut 0).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn nested_bitmap_headers_are_rejected_without_recursing() {
        // 20,000 level headers of 17 bytes each: every level claims to
        // need a meta level, none has the size the level above implies.
        // (Descending first and checking after overflowed a 2 MiB stack.)
        let mut enc = vec![100u8, 0]; // frame: 100 words, no tail
        enc.resize(20_002, 17);
        let err = Rre::<1>
            .decode_chunk(&enc, &mut Vec::new(), &mut KernelStats::new())
            .unwrap_err();
        assert_eq!(
            err,
            DecodeError::Corrupt {
                context: "bitmap meta level size"
            }
        );
    }

    /// Decode `enc` with the kernels capped at `cap`.
    fn decode_at<const W: usize>(
        cap: Variant,
        comp: &dyn Component,
        enc: &[u8],
    ) -> Result<Vec<u8>, DecodeError> {
        with_tier_cap(cap, || {
            let mut out = Vec::new();
            comp.decode_chunk(enc, &mut out, &mut KernelStats::new())?;
            Ok(out)
        })
    }

    #[test]
    fn every_tier_reports_the_portable_loops_errors() {
        // The vector paths never raise an error of their own: they stop
        // and the portable loop decides. So every prefix of an encoded
        // 16 KiB chunk, and a bitmap whose word 0 is marked, must fail
        // identically — variant and context — with the kernels capped at
        // scalar and uncapped.
        fn check<const W: usize>(comp: &dyn Component) {
            let mut s = 0x5DEE_CE66_D1CE_4E5Bu64;
            // Runs of zero, repeated and fresh words: mixed bitmap bytes
            // for both reducers.
            let mut data = Vec::with_capacity(lc_core::CHUNK_SIZE);
            while data.len() < lc_core::CHUNK_SIZE {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let word = match s >> 62 {
                    0 => [0u8; 8],
                    1 if data.len() >= W => {
                        let mut w = [0u8; 8];
                        w[..W].copy_from_slice(&data[data.len() - W..]);
                        w
                    }
                    _ => (s | 1).to_le_bytes(),
                };
                data.extend_from_slice(&word[..W]);
            }
            let mut enc = Vec::new();
            comp.encode_chunk(&data, &mut enc, &mut KernelStats::new());
            assert_eq!(
                decode_at::<W>(Variant::Avx2, comp, &enc).as_ref(),
                Ok(&data)
            );
            for cut in 0..enc.len() {
                let scalar = decode_at::<W>(Variant::Scalar, comp, &enc[..cut]);
                assert!(scalar.is_err(), "{} cut={cut}", comp.name());
                let full = decode_at::<W>(Variant::Avx2, comp, &enc[..cut]);
                assert_eq!(full, scalar, "{} cut={cut}", comp.name());
            }
            // Mark word 0 in the level-0 bitmap. 64 words keep the bitmap
            // a raw 8-byte block right behind the frame and its length.
            let small = &data[..64 * W];
            let mut enc = Vec::new();
            comp.encode_chunk(small, &mut enc, &mut KernelStats::new());
            assert_eq!(&enc[..3], &[64, 0, 8], "frame, then a raw 8-byte bitmap");
            enc[3] |= 1;
            let scalar = decode_at::<W>(Variant::Scalar, comp, &enc);
            assert_eq!(decode_at::<W>(Variant::Avx2, comp, &enc), scalar);
            if comp.name().starts_with("RRE") {
                assert_eq!(
                    scalar,
                    Err(DecodeError::Corrupt {
                        context: "word repeat at index 0"
                    })
                );
            }
        }
        check::<1>(&Rre::<1>);
        check::<2>(&Rre::<2>);
        check::<4>(&Rre::<4>);
        check::<8>(&Rre::<8>);
        check::<1>(&Rze::<1>);
        check::<2>(&Rze::<2>);
        check::<4>(&Rze::<4>);
        check::<8>(&Rze::<8>);
    }

    #[test]
    fn decode_rejects_wrong_bitmap_size() {
        let data = vec![5u8; 100];
        let mut enc = Vec::new();
        Rre::<1>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        // Shrink the declared word count: bitmap size check must fire.
        enc[0] = 50; // varint(100) is one byte
        let mut out = Vec::new();
        assert!(Rre::<1>
            .decode_chunk(&enc, &mut out, &mut KernelStats::new())
            .is_err());
    }

    #[test]
    fn rre_marks_nothing_on_alternating_data() {
        let data: Vec<u8> = (0..512).map(|i| (i % 2) as u8 * 255).collect();
        let size = roundtrip_component(&Rre::<1>, &data);
        assert!(size > data.len(), "alternating data has no repeats");
    }
}
