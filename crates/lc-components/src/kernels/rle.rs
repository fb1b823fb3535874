//! RLE kernels: record segmentation over a repeat bitmap, the record
//! writer, and the record replay for decode.
//!
//! The RLE encoder's record structure falls out of the neighbor-repeat
//! bitmap (bit `j` ⇔ word `j` equals word `j − 1`, built 16–32 words at
//! a time by [`super::bitmap`]). A record starts one word before each
//! stretch of repeat bits and its run ends at the first clear bit after
//! that stretch, so two bit streams derived 64 words at a time from the
//! bitmap `b` mark every boundary (each shift carries in the edge bit of
//! the neighbouring 64-bit word):
//!
//! * record starts `S = (b >> 1 | carry) & !b`;
//! * run ends `Z = !b & (b << 1 | carry)`.
//!
//! [`for_each_record`] walks both in lockstep with `trailing_zeros` and
//! clear-lowest-bit; the one special case is record 0, a run of one word
//! when bit 1 is clear. [`encode_records`] writes the records into one
//! region sized up front, and [`decode_records`] replays them into the
//! reserved words, so no record pays a `Vec` capacity check or a
//! `memcpy` call. The walk is safe portable code; the SIMD content of
//! the RLE kernel family lives in the bitmap build, so [`variant`]
//! reports the bitmap kernel's tier.

use lc_core::{DecodeError, CHUNK_SIZE};

use super::bitmap::{self, Mark};
use super::Variant;
use crate::util::varint;

/// Which tier the RLE encoder's bitmap scan dispatches to.
pub fn variant<const W: usize>() -> Variant {
    super::bitmap::variant::<W>()
}

/// Set-bit positions of a bit stream stored as `u64` words, ascending.
struct SetBits<'a> {
    words: &'a [u64],
    k: usize,
    bits: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        let bits = words.first().copied().unwrap_or(0);
        Self { words, k: 0, bits }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.k += 1;
            self.bits = *self.words.get(self.k)?;
        }
        let at = 64 * self.k + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(at)
    }
}

/// Bitmap words (of 64 words each) that [`for_each_record`] keeps on the
/// stack: one 16 KiB chunk at `W = 1`.
const STACK_WORDS: usize = CHUNK_SIZE / 64;

/// Walk the RLE records of `n` words whose neighbor-repeat bitmap is
/// `bm` (bit `j` ⇔ word `j` equals word `j − 1`, so bit 0 is clear),
/// calling `emit(start, run_end, lit_end)` for each, in order: words
/// `start..run_end` are one run of equal values and `run_end..lit_end`
/// the literals that follow it, up to the word before the next run of
/// two or more. The records tile `0..n`.
pub fn for_each_record(bm: &[u8], n: usize, mut emit: impl FnMut(usize, usize, usize)) {
    if n == 0 {
        return;
    }
    // Both boundary streams, derived a bitmap word at a time: `starts`
    // in the first half of `streams`, `ends` in the second. They live on
    // the stack for a chunk-sized input.
    let words = n.div_ceil(64);
    let mut stack = [0u64; 2 * STACK_WORDS];
    let mut heap = Vec::new();
    let streams = if words <= STACK_WORDS {
        &mut stack[..2 * words]
    } else {
        heap.resize(2 * words, 0);
        &mut heap[..]
    };
    let (starts, ends) = streams.split_at_mut(words);
    // Word `k` of the bitmap, zero past bit `n`.
    let bitmap_word = |k: usize| -> u64 {
        let mut buf = [0u8; 8];
        match bm.get(8 * k..8 * k + 8) {
            Some(bytes) => buf.copy_from_slice(bytes),
            None => {
                let bytes = &bm[8 * k..n.div_ceil(8)];
                buf[..bytes.len()].copy_from_slice(bytes);
            }
        }
        let w = u64::from_le_bytes(buf);
        match n - 64 * k {
            rest @ 0..64 => w & ((1u64 << rest) - 1),
            _ => w,
        }
    };
    let (mut carry, mut cur) = (0u64, bitmap_word(0));
    for k in 0..words {
        let next = if k + 1 < words { bitmap_word(k + 1) } else { 0 };
        starts[k] = (cur >> 1 | next << 63) & !cur;
        ends[k] = !cur & (cur << 1 | carry);
        carry = cur >> 63;
        cur = next;
    }
    let mut starts = SetBits::new(starts);
    let mut ends = SetBits::new(ends);
    let mut next = starts.next();
    if next != Some(0) {
        // Bit 1 is clear: record 0 is a run of one word.
        emit(0, 1, next.unwrap_or(n));
    }
    while let Some(start) = next {
        // Each start opens one stretch of repeat bits, and each stretch
        // closes at one run end, or runs to the last word.
        let run_end = ends.next().unwrap_or(n);
        next = starts.next();
        emit(start, run_end, next.unwrap_or(n));
    }
}

/// Bytes a literal copy may write past its end: literals move in whole
/// 32-byte blocks.
const SLACK: usize = 32;

/// Most bytes the two varints of a record take (ten each for a `u64`).
const VARINTS_MAX: usize = 20;

/// Store `v` as an unsigned LEB128 varint at `dst + *at` and advance
/// `*at` past it.
///
/// # Safety
///
/// `dst + *at` must have ten writable bytes.
#[inline]
unsafe fn put_varint(dst: *mut u8, at: &mut usize, mut v: usize) {
    while v >= 0x80 {
        dst.add(*at).write(v as u8 | 0x80);
        *at += 1;
        v >>= 7;
    }
    dst.add(*at).write(v as u8);
    *at += 1;
}

/// Append the RLE records of the complete `W`-byte words of `src` to
/// `out` (the body layout of `reducers::rle`) and return how many there
/// are.
///
/// The repeat bitmap lives on the stack for a chunk-sized input. The
/// output region is reserved once, from the kept-word count the bitmap
/// build returns: the records store every kept word once (each record's
/// run value and literals are exactly the unmarked words) plus two
/// varints each. There are at most `min(kept, n − kept + 1)` records
/// (each starts at a kept word, and all but record 0 hold a repeat), and
/// a varint byte past the first needs a count of at least 128, whose
/// words the counts share: at most `n/128 + n/16384 + … < n/64` such
/// bytes. That bound stays near the output size, far below the format's
/// worst case, so a reused output buffer does not grow past what the
/// chunk needs. Records are then written straight into the reserved
/// capacity — varints byte by byte, the run word as one `W`-byte move,
/// literals as 32-byte block moves — with one bounds assertion per
/// record in place of a capacity check and a `memcpy` call per field.
pub(crate) fn encode_records<const W: usize>(src: &[u8], out: &mut Vec<u8>) -> u64 {
    let n = src.len() / W;
    let src = &src[..n * W];
    let mut stack = [0u8; CHUNK_SIZE / 8];
    let mut heap = Vec::new();
    let bm = if n.div_ceil(8) <= stack.len() {
        &mut stack[..n.div_ceil(8)]
    } else {
        heap.resize(n.div_ceil(8), 0);
        &mut heap[..]
    };
    let kept = bitmap::build_into::<W>(Mark::RepeatsPrior, src, bm);
    let bound = W * kept + 2 * kept.min(n - kept + 1) + n / 64;
    out.reserve(bound + VARINTS_MAX + SLACK);
    let base = out.len();
    let spare = out.spare_capacity_mut();
    let (room, dst) = (spare.len(), spare.as_mut_ptr().cast::<u8>());
    let mut at = 0usize;
    let mut records = 0u64;
    for_each_record(bm, n, |i, run_end, lit_end| {
        let (from, len) = (run_end * W, (lit_end - run_end) * W);
        // The record's varints, run word and literal blocks all end
        // before this; the bound above keeps it from ever firing.
        assert!(
            at + VARINTS_MAX + W + len + SLACK <= room,
            "RLE records overran their reserved bound"
        );
        // safety: every write below lands in `dst[at..at + VARINTS_MAX
        // + W + len + SLACK]`, inside the spare capacity (asserted
        // above); every read is inside `src` (`i < n`, and literal
        // blocks only over-read where `src` extends past them).
        unsafe {
            put_varint(dst, &mut at, run_end - i);
            put_varint(dst, &mut at, lit_end - run_end);
            std::ptr::copy_nonoverlapping(src.as_ptr().add(i * W), dst.add(at), W);
            at += W;
            if from + len.next_multiple_of(SLACK) <= src.len() {
                let mut k = 0;
                while k < len {
                    let (s, d) = (src.as_ptr().add(from + k), dst.add(at + k));
                    std::ptr::copy_nonoverlapping(s, d, SLACK);
                    k += SLACK;
                }
            } else {
                std::ptr::copy_nonoverlapping(src.as_ptr().add(from), dst.add(at), len);
            }
        }
        at += len;
        records += 1;
    });
    // safety: the records wrote every byte of `dst[..at]`, in order,
    // within the spare capacity.
    unsafe { out.set_len(base + at) };
    records
}

/// Replay the RLE records of `n` words from `input[*pos..]` onto `out`
/// (the inverse of [`encode_records`]), advancing `*pos` past them, and
/// return `(records, run words, literal words)`.
///
/// The `n` words are reserved once; each record then passes its checks
/// and is written straight into that capacity — the run as 32-byte
/// blocks of its repeated word, the literals as 32-byte block moves —
/// instead of a zero-filling `resize` and a `memcpy` call each.
///
/// Errors: `Corrupt` for a zero run or a record past `n` words,
/// `Truncated` when the input ends inside a record. On error `out` holds
/// the records before the bad one.
pub(crate) fn decode_records<const W: usize>(
    input: &[u8],
    pos: &mut usize,
    n: usize,
    out: &mut Vec<u8>,
) -> Result<(u64, u64, u64), DecodeError> {
    out.reserve(n * W + SLACK);
    let base = out.len();
    let spare = out.spare_capacity_mut();
    assert!(spare.len() >= n * W + SLACK, "reserve grants the words");
    let dst = spare.as_mut_ptr().cast::<u8>();
    let mut produced = 0usize;
    let mut counts = (0u64, 0u64, 0u64);
    // safety: `dst` has `n·W + SLACK` writable bytes (asserted above).
    let result = unsafe { replay::<W>(input, pos, n, dst, &mut produced, &mut counts) };
    // safety: `replay` wrote every byte of `dst[..produced·W]`, and
    // `produced ≤ n`.
    unsafe { out.set_len(base + produced * W) };
    result.map(|()| counts)
}

/// The record loop of [`decode_records`]: on return `*produced` words
/// are written, all of them checked records.
///
/// # Safety
///
/// `dst` must have `n·W + SLACK` writable bytes.
unsafe fn replay<const W: usize>(
    input: &[u8],
    pos: &mut usize,
    n: usize,
    dst: *mut u8,
    produced: &mut usize,
    (records, run_words, lit_words): &mut (u64, u64, u64),
) -> Result<(), DecodeError> {
    while *produced < n {
        let run = varint::read(input, pos)?;
        let lits = varint::read(input, pos)?;
        // Compared before any arithmetic, so no corrupt count overflows.
        let left = (n - *produced) as u64;
        if run == 0 || run > left || lits > left - run {
            return Err(DecodeError::Corrupt {
                context: "RLE record overruns words",
            });
        }
        let (run, lits) = (run as usize, lits as usize);
        let lit_bytes = lits * W;
        if input.len() - *pos < W + lit_bytes {
            return Err(DecodeError::Truncated {
                context: "RLE record values",
            });
        }
        let mut fill = [0u8; SLACK];
        for word in fill.chunks_exact_mut(W) {
            word.copy_from_slice(&input[*pos..*pos + W]);
        }
        *pos += W;
        // Writes: the run's blocks end before `at + run·W + SLACK`, the
        // literals' before `at + (run + lits)·W + SLACK`, and
        // `produced + run + lits ≤ n` (checked above).
        let at = *produced * W;
        let mut k = 0;
        while k < run * W {
            std::ptr::copy_nonoverlapping(fill.as_ptr(), dst.add(at + k), SLACK);
            k += SLACK;
        }
        let (from, to) = (input.as_ptr().add(*pos), dst.add(at + run * W));
        if *pos + lit_bytes.next_multiple_of(SLACK) <= input.len() {
            // Whole blocks, reading no further than `input` goes.
            let mut k = 0;
            while k < lit_bytes {
                std::ptr::copy_nonoverlapping(from.add(k), to.add(k), SLACK);
                k += SLACK;
            }
        } else {
            std::ptr::copy_nonoverlapping(from, to, lit_bytes);
        }
        *pos += lit_bytes;
        *produced += run + lits;
        *records += 1;
        *run_words += run as u64;
        *lit_words += lits as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: scan record by record, where a run is `1 +` the set
    /// bits after its first word and its literals reach the word before
    /// the next set bit.
    fn naive_records(bm: &[u8], n: usize) -> Vec<(usize, usize, usize)> {
        let set = |i: usize| i < n && bm[i / 8] & (1 << (i % 8)) != 0;
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let run_end = (i + 1..=n).find(|&j| !set(j)).unwrap_or(n);
            let lit_end = (run_end + 1..n).find(|&j| set(j)).map_or(n, |q| q - 1);
            out.push((i, run_end, lit_end));
            i = lit_end;
        }
        out
    }

    #[test]
    fn bit_scans_match_naive() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 2, 3, 63, 64, 65, 127, 128, 129, 200, 1000] {
            for case in 0..8 {
                let mut bm = vec![0u8; n.div_ceil(8)];
                for i in 1..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let set = match case {
                        0 => false,                    // no repeats
                        1 => true,                     // one run of everything
                        2 => !i.is_multiple_of(64),    // runs broken at word 64k
                        3 => (i + 1) % 64 > 1,         // runs straddling 64k
                        4 => i.is_multiple_of(3),      // a run every third word
                        _ => !state.is_multiple_of(4), // random, mostly repeats
                    };
                    bm[i / 8] |= u8::from(set) << (i % 8);
                }
                let mut got = Vec::new();
                for_each_record(&bm, n, |s, r, l| got.push((s, r, l)));
                assert_eq!(got, naive_records(&bm, n), "n={n} case={case}");
            }
        }
    }

    #[test]
    fn encode_records_matches_a_push_per_field_writer() {
        fn reference<const W: usize>(src: &[u8]) -> (Vec<u8>, u64) {
            let n = src.len() / W;
            let mut bm = Vec::new();
            bitmap::build::<W>(Mark::RepeatsPrior, &src[..n * W], &mut bm);
            let (mut out, mut records) = (vec![0xAB], 0);
            for_each_record(&bm, n, |i, r, l| {
                varint::write(&mut out, (r - i) as u64);
                varint::write(&mut out, (l - r) as u64);
                out.extend_from_slice(&src[i * W..(i + 1) * W]);
                out.extend_from_slice(&src[r * W..l * W]);
                records += 1;
            });
            (out, records)
        }
        fn check<const W: usize>(src: &[u8]) {
            let mut out = vec![0xAB];
            let records = encode_records::<W>(src, &mut out);
            assert_eq!(
                (out, records),
                reference::<W>(src),
                "W={W} len={}",
                src.len()
            );
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Runs of every length from 1 to 300 (varints past one byte),
        // literal stretches up to 70 words, long all-literal inputs, a
        // whole chunk and past it (the heap bitmap), and ragged tails.
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new(), vec![5], vec![0; 3 * CHUNK_SIZE]];
        for len in [
            1usize,
            15,
            16,
            17,
            63,
            64,
            65,
            1000,
            CHUNK_SIZE - 3,
            CHUNK_SIZE + 9,
        ] {
            let mut v = Vec::with_capacity(len);
            while v.len() < len {
                let byte = rng() as u8;
                let run = match rng() % 4 {
                    0 => 1 + (rng() % 300) as usize,
                    1 => 1 + (rng() % 3) as usize,
                    _ => 1,
                };
                v.extend(std::iter::repeat_n(byte, run));
            }
            v.truncate(len);
            inputs.push(v);
            inputs.push((0..len).map(|_| rng() as u8).collect());
        }
        for src in &inputs {
            check::<1>(src);
            check::<2>(src);
            check::<4>(src);
            check::<8>(src);
        }
    }
}
