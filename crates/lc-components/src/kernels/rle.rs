//! RLE scan helpers: record segmentation over a repeat bitmap, and
//! memset-shaped run replay for decode.
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
//! when bit 1 is clear. The walk is safe portable code; the SIMD content
//! of the RLE kernel family lives in the bitmap build, so [`variant`]
//! reports the bitmap kernel's tier.

use super::Variant;

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
    // The bitmap as 64-bit words, zero past bit `n`, then both boundary
    // streams derived a word at a time: `starts` in the first half of
    // `streams`, `ends` in the second.
    let words = n.div_ceil(64);
    let mut b = vec![0u64; words + 1];
    for (w, bytes) in b.iter_mut().zip(bm[..n.div_ceil(8)].chunks(8)) {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        *w = u64::from_le_bytes(buf);
    }
    if !n.is_multiple_of(64) {
        b[words - 1] &= (1u64 << (n % 64)) - 1;
    }
    let mut streams = vec![0u64; 2 * words];
    let (starts, ends) = streams.split_at_mut(words);
    let mut carry = 0u64;
    for (k, (s, z)) in starts.iter_mut().zip(ends.iter_mut()).enumerate() {
        let (cur, next) = (b[k], b[k + 1]);
        *s = (cur >> 1 | next << 63) & !cur;
        *z = !cur & (cur << 1 | carry);
        carry = cur >> 63;
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

/// Append `count` copies of the `W`-byte word at `word[..W]` — the RLE
/// run replay, shaped as resize + fixed-width block copies so LLVM
/// lowers it to a wide fill instead of per-word `Vec` pushes.
pub fn fill_words<const W: usize>(word: &[u8], count: usize, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + count * W, 0);
    for d in out[start..].chunks_exact_mut(W) {
        d.copy_from_slice(&word[..W]);
    }
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
    fn fill_words_replays_runs() {
        let mut out = vec![9u8];
        fill_words::<4>(&[1, 2, 3, 4, 99], 3, &mut out);
        assert_eq!(out, vec![9, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]);
        fill_words::<1>(&[7], 4, &mut out);
        assert_eq!(&out[13..], &[7, 7, 7, 7]);
        fill_words::<2>(&[5, 6], 0, &mut out);
        assert_eq!(out.len(), 17);
    }
}
