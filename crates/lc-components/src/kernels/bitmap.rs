//! Mark-bitmap kernels for the repetition-removing reducers (RRE, RZE).
//!
//! Both reducers classify every word of a chunk — "repeats the prior
//! word" (RRE) or "is zero" (RZE) — into an LSB-first bitmap
//! (`bm[i/8] & (1 << (i%8))`, set = removed), then emit only the
//! unmarked survivors. Classification is a pure compare, which SIMD does
//! 16–32 words at a time: `cmpeq` against either a zero register or a
//! one-word-shifted load, then `movemask` to compress the lane masks
//! into bitmap bits — the movemask bit order is exactly the LSB-first
//! convention the serialized format already uses, so the vector path
//! produces the stored bytes directly.
//!
//! The other half of both reducers — [`emit`] (compaction: keep the
//! unmarked words) and [`expand`] (its inverse) — has a serial cursor:
//! where survivor `k` lands depends on how many words before it
//! survived. The AVX2 tier takes the cursor off the per-word path with
//! table-driven shuffles: one bitmap byte (8 words) indexes a 2 KiB
//! table of byte-granular shuffle controls, a single `pshufb` (`W` ≤ 2)
//! or `vpermd` (`W` ≥ 4) moves all 8 words, and `popcnt` of the same
//! byte advances the cursor. For [`Mark::RepeatsPrior`] expansion the
//! survivor load starts one word *before* the cursor, so "repeat the
//! prior word" is just lane `l` reading "survivors seen in lanes
//! `0..=l`" — no carried `prev`. DESIGN §15 has the derivation.
//!
//! The portable loops stay as the group-tail path, the whole path on
//! lower tiers, and the only place truncation or corruption is detected:
//! the vector path stops before any group it cannot fully load.

use lc_core::DecodeError;

use super::Variant;

/// Which property marks a word for removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Word equals its predecessor (word 0 is never marked) — RRE.
    RepeatsPrior,
    /// Word is all-zero — RZE.
    IsZero,
}

impl Mark {
    /// Both marks, for the differential tests.
    pub const ALL: [Mark; 2] = [Mark::RepeatsPrior, Mark::IsZero];
}

/// Portable reference: mark words `from..to` of `src` into `bm`, and
/// return how many it marked.
///
/// Word equality is LE byte-slice equality, so no word loads are needed.
fn portable_mark<const W: usize>(
    mk: Mark,
    src: &[u8],
    bm: &mut [u8],
    from: usize,
    to: usize,
) -> usize {
    let mut marks = 0;
    for i in from..to {
        let marked = match mk {
            Mark::IsZero => src[i * W..(i + 1) * W].iter().all(|&b| b == 0),
            Mark::RepeatsPrior => i > 0 && src[i * W..(i + 1) * W] == src[(i - 1) * W..i * W],
        };
        bm[i / 8] |= u8::from(marked) << (i % 8);
        marks += usize::from(marked);
    }
    marks
}

/// Which tier bitmap dispatch resolves to for this word size.
pub fn variant<const W: usize>() -> Variant {
    #[cfg(target_arch = "x86_64")]
    {
        let t = super::tier();
        if t >= Variant::Sse2 {
            return t;
        }
    }
    Variant::Scalar
}

/// Append the mark bitmap for the words of `src` (`src.len()` must be a
/// multiple of `W`; `(n+7)/8` bytes, LSB-first) to `bm`. Returns the
/// number of *kept* (unmarked, surviving) words.
pub fn build<const W: usize>(mk: Mark, src: &[u8], bm: &mut Vec<u8>) -> usize {
    build_with::<W>(variant::<W>(), mk, src, bm)
}

/// [`build`] pinned to a tier (clamped to the detected CPU).
pub fn build_with<const W: usize>(v: Variant, mk: Mark, src: &[u8], bm: &mut Vec<u8>) -> usize {
    let start = bm.len();
    bm.resize(start + (src.len() / W).div_ceil(8), 0);
    mark_with::<W>(v, mk, src, &mut bm[start..])
}

/// [`build`] into a caller-provided slice of exactly `(n+7)/8` zeroed
/// bytes (the bitmap recursion keeps all its levels in one buffer).
pub(crate) fn build_into<const W: usize>(mk: Mark, src: &[u8], bm: &mut [u8]) -> usize {
    mark_with::<W>(variant::<W>(), mk, src, bm)
}

fn mark_with<const W: usize>(v: Variant, mk: Mark, src: &[u8], bmr: &mut [u8]) -> usize {
    let n = src.len() / W;
    debug_assert_eq!(src.len(), n * W, "src must be whole words");
    debug_assert_eq!(bmr.len(), n.div_ceil(8), "bitmap slice must match");
    // The vector markers count their marks as they go (`popcnt` on each
    // group's mask at the AVX2 tier), so the kept count costs no second
    // pass over the bitmap.
    // safety: tier clamped to CPUID detection before calling
    // `#[target_feature]` bodies.
    #[cfg(target_arch = "x86_64")]
    let (covered_from, covered_to, vector_marks) = match v.min(super::detected()) {
        Variant::Avx2 => unsafe { x86::mark_avx2::<W>(mk, src, bmr) },
        Variant::Sse2 => unsafe { x86::mark_sse2::<W>(mk, src, bmr) },
        Variant::Scalar => (0, 0, 0),
    };
    #[cfg(not(target_arch = "x86_64"))]
    let (covered_from, covered_to, vector_marks) = {
        let _ = v;
        (0, 0, 0)
    };
    let marks = vector_marks
        + portable_mark::<W>(mk, src, bmr, 0, covered_from)
        + portable_mark::<W>(mk, src, bmr, covered_to, n);
    n - marks
}

/// Whether the LUT-shuffle emit/expand kernels run at tier `v` (there
/// is no SSE2 flavour: `pshufb` is SSSE3, which only AVX2 implies).
#[cfg(target_arch = "x86_64")]
fn shuffles_at(v: Variant) -> bool {
    v.min(super::detected()) >= Variant::Avx2
}

/// Append every unmarked word of `src` to `out` (compaction). `kept`
/// is the number of unmarked words, as [`build`] returned it.
pub fn emit<const W: usize>(src: &[u8], bm: &[u8], kept: usize, out: &mut Vec<u8>) {
    emit_with::<W>(super::tier(), src, bm, kept, out)
}

/// [`emit`] pinned to a tier (clamped to the detected CPU).
pub fn emit_with<const W: usize>(
    v: Variant,
    src: &[u8],
    bm: &[u8],
    kept: usize,
    out: &mut Vec<u8>,
) {
    let n = src.len() / W;
    debug_assert_eq!(src.len(), n * W, "src must be whole words");
    // Grow once, by what will be kept: `out` is often a buffer its owner
    // retains, and capacity it never needed is memory held for nothing.
    let kept_bytes = kept * W;
    out.reserve(kept_bytes + 8 * W);
    let mut i = 0usize;
    #[cfg(target_arch = "x86_64")]
    if shuffles_at(v) && n >= 8 {
        let groups = n / 8;
        let start = out.len();
        // The shuffles store whole groups at the cursor, so the last
        // store may run a group past the survivors; truncate after.
        out.resize(start + (kept_bytes + 8 * W).min(groups * 8 * W), 0);
        // safety: `shuffles_at` clamps to the CPUID-detected tier.
        let written = unsafe {
            x86::emit_avx2::<W>(&src[..groups * 8 * W], &bm[..groups], &mut out[start..])
        };
        out.truncate(start + written);
        i = groups * 8;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = v;
    while i < n {
        if i.is_multiple_of(8) && i + 8 <= n {
            match bm[i / 8] {
                0x00 => {
                    out.extend_from_slice(&src[i * W..(i + 8) * W]);
                    i += 8;
                    continue;
                }
                0xFF => {
                    i += 8;
                    continue;
                }
                _ => {}
            }
        }
        if bm[i / 8] & (1 << (i % 8)) == 0 {
            out.extend_from_slice(&src[i * W..(i + 1) * W]);
        }
        i += 1;
    }
}

/// Inverse of [`emit`]: append `n` reconstructed words to `out`, reading
/// the packed survivors from `src` at `*pos` (advanced past what was
/// consumed) and refilling marked words — with zero under
/// [`Mark::IsZero`], with the preceding word under
/// [`Mark::RepeatsPrior`].
///
/// Errors: `Truncated` when `src` ends before the bitmap's survivors
/// do, `Corrupt` when word 0 is marked as a repeat. On error `out`
/// holds unspecified bytes past its original length.
pub fn expand<const W: usize>(
    mk: Mark,
    bm: &[u8],
    n: usize,
    src: &[u8],
    pos: &mut usize,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    expand_with::<W>(super::tier(), mk, bm, n, src, pos, out)
}

/// [`expand`] pinned to a tier (clamped to the detected CPU).
pub fn expand_with<const W: usize>(
    v: Variant,
    mk: Mark,
    bm: &[u8],
    n: usize,
    src: &[u8],
    pos: &mut usize,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    debug_assert!(bm.len() >= n.div_ceil(8), "bitmap must cover n words");
    let start = out.len();
    out.resize(start + n * W, 0);
    let dst = &mut out[start..];
    let mut i = 0usize;
    // A marked word 0 has no prior word to repeat: leave the whole input
    // to the portable loop, which reports it.
    #[cfg(target_arch = "x86_64")]
    if shuffles_at(v) && n >= 8 && !(mk == Mark::RepeatsPrior && bm[0] & 1 != 0) {
        // safety: `shuffles_at` clamps to the CPUID-detected tier.
        i = unsafe { x86::expand_avx2::<W>(mk, &bm[..n / 8], src, pos, dst) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = v;
    let word = |i: usize| i * W..(i + 1) * W;
    while i < n {
        let b = bm[i / 8];
        // Whole-bitmap-byte fast paths: 0x00 = eight survivors streamed
        // straight from the input, 0xFF = eight zero words.
        if i.is_multiple_of(8) && i + 8 <= n {
            let group = i * W..(i + 8) * W;
            match b {
                0x00 => {
                    dst[group].copy_from_slice(src.get(*pos..*pos + 8 * W).ok_or(TRUNCATED)?);
                    *pos += 8 * W;
                    i += 8;
                    continue;
                }
                0xFF if mk == Mark::IsZero => {
                    dst[group].fill(0);
                    i += 8;
                    continue;
                }
                _ => {}
            }
        }
        if b & (1 << (i % 8)) == 0 {
            dst[word(i)].copy_from_slice(src.get(*pos..*pos + W).ok_or(TRUNCATED)?);
            *pos += W;
        } else if mk == Mark::IsZero {
            dst[word(i)].fill(0);
        } else if i == 0 {
            return Err(DecodeError::Corrupt {
                context: "word repeat at index 0",
            });
        } else {
            dst.copy_within(word(i - 1), i * W);
        }
        i += 1;
    }
    Ok(())
}

const TRUNCATED: DecodeError = DecodeError::Truncated {
    context: "surviving words",
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::vecio::{load128, load256, store128, store256};
    use super::Mark;
    use std::arch::x86_64::*;

    // ---- lane-mask → bitmap-bits helpers (one per word size) ----

    #[target_feature(enable = "sse2")]
    fn eq8(a: __m128i, b: __m128i) -> u32 {
        _mm_movemask_epi8(_mm_cmpeq_epi8(a, b)) as u32 // 16 bits
    }

    #[target_feature(enable = "sse2")]
    fn eq16(a: __m128i, b: __m128i) -> u32 {
        let m = _mm_packs_epi16(_mm_cmpeq_epi16(a, b), _mm_setzero_si128());
        _mm_movemask_epi8(m) as u32 & 0xFF // 8 bits
    }

    #[target_feature(enable = "sse2")]
    fn eq32(a: __m128i, b: __m128i) -> u32 {
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a, b))) as u32 // 4 bits
    }

    #[target_feature(enable = "sse2")]
    fn eq64(a: __m128i, b: __m128i) -> u32 {
        // SSE2 has no cmpeq_epi64: compare 32-bit halves and AND each
        // half with its pair-swapped neighbor.
        let m = _mm_cmpeq_epi32(a, b);
        let m = _mm_and_si128(m, _mm_shuffle_epi32(m, 0b10_11_00_01));
        _mm_movemask_pd(_mm_castsi128_pd(m)) as u32 // 2 bits
    }

    /// SSE2 marker: 16-word groups, two bitmap bytes per group. Returns
    /// the word range `(from, to)` it covered (`(0, 0)` if none) and the
    /// number of words it marked there.
    #[target_feature(enable = "sse2")]
    pub(super) fn mark_sse2<const W: usize>(
        mk: Mark,
        src: &[u8],
        bm: &mut [u8],
    ) -> (usize, usize, usize) {
        let n = src.len() / W;
        let per = 16 / W; // words per 128-bit vector
                          // RepeatsPrior needs a load one word back; start a full group in
                          // so the shifted load stays in bounds (word 0 is portable's job).
        let start = match mk {
            Mark::IsZero => 0usize,
            Mark::RepeatsPrior => 16,
        };
        let zero = _mm_setzero_si128();
        let mut w = start;
        let mut marks = 0usize;
        while w + 16 <= n {
            let mut bits: u32 = 0;
            let mut k = 0usize;
            while k < 16 {
                // safety: `cur` reads 16 bytes ending at `(w+k+per)*W ≤
                // n*W`; the RepeatsPrior load starts one word earlier and
                // `w+k ≥ 16` keeps it in bounds.
                unsafe {
                    let cur = _mm_loadu_si128(src.as_ptr().add((w + k) * W).cast());
                    let rhs = match mk {
                        Mark::IsZero => zero,
                        Mark::RepeatsPrior => {
                            _mm_loadu_si128(src.as_ptr().add((w + k - 1) * W).cast())
                        }
                    };
                    let m = match W {
                        1 => eq8(cur, rhs),
                        2 => eq16(cur, rhs),
                        4 => eq32(cur, rhs),
                        _ => eq64(cur, rhs),
                    };
                    bits |= m << k;
                }
                k += per;
            }
            bm[w / 8] = bits as u8;
            bm[w / 8 + 1] = (bits >> 8) as u8;
            marks += bits.count_ones() as usize;
            w += 16;
        }
        if w == start {
            (0, 0, 0)
        } else {
            (start, w, marks)
        }
    }

    #[target_feature(enable = "avx2")]
    fn eq8x(a: __m256i, b: __m256i) -> u32 {
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)) as u32 // 32 bits
    }

    /// 32 words of 16 bits in two registers: the two 16-lane compares
    /// pack to bytes (per 128-bit half, so the qwords come out as
    /// `a.lo b.lo a.hi b.hi` and are put back in order) before one
    /// movemask.
    #[target_feature(enable = "avx2")]
    fn eq16x2(a0: __m256i, b0: __m256i, a1: __m256i, b1: __m256i) -> u32 {
        let m = _mm256_packs_epi16(_mm256_cmpeq_epi16(a0, b0), _mm256_cmpeq_epi16(a1, b1));
        _mm256_movemask_epi8(_mm256_permute4x64_epi64(m, 0b11_01_10_00)) as u32 // 32 bits
    }

    #[target_feature(enable = "avx2")]
    fn eq32x(a: __m256i, b: __m256i) -> u32 {
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))) as u32
        // 8 bits
    }

    #[target_feature(enable = "avx2")]
    fn eq64x(a: __m256i, b: __m256i) -> u32 {
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b))) as u32
        // 4 bits
    }

    // ---- LUT-shuffle compaction / expansion ----
    //
    // Three tables of 256 rows x 8 bytes, one row per bitmap byte, each
    // row a byte-granular lane map that every word size widens on the
    // fly (W=1: the row is the `pshufb` control; W=2: doubled into byte
    // pairs; W=4: `vpmovsxbd` into a `vpermd` control; W=8: the row's
    // low four lanes, per nibble, as dword pairs). 6 KiB in all.

    /// Row `b` of the pack table: byte `j` is the lane of the `j`-th
    /// clear (surviving) bit of `b`; bytes past the survivor count are
    /// don't-care zeros.
    const fn pack_row(b: usize) -> u64 {
        let mut row = [0u8; 8];
        let mut j = 0usize;
        let mut lane = 0usize;
        while lane < 8 {
            if b & (1 << lane) == 0 {
                row[j] = lane as u8;
                j += 1;
            }
            lane += 1;
        }
        u64::from_le_bytes(row)
    }

    /// Row `b` of a spread table: byte `l` is the slot of the loaded
    /// survivor window that lane `l` reads.
    ///
    /// * `IsZero`: the window starts at the cursor; a clear lane reads
    ///   slot "survivors in lanes `0..l`", a marked lane gets `0x80`
    ///   (`pshufb` zeroes it; the `vpermd` paths mask on the sign).
    /// * `RepeatsPrior`: the window starts one word *before* the cursor,
    ///   so slot 0 is the last word already written, and every lane —
    ///   clear or marked — reads slot "survivors in lanes `0..=l`": a
    ///   survivor reads itself, a repeat reads the survivor before it.
    ///   That needs 9 slots only when all 8 lanes survive, so row 0 is
    ///   the identity over a window that starts *at* the cursor.
    const fn spread_row(b: usize, zero_marked: bool) -> u64 {
        let mut row = [0u8; 8];
        let mut seen = 0u8; // survivors in lanes 0..l
        let mut lane = 0usize;
        while lane < 8 {
            let clear = b & (1 << lane) == 0;
            row[lane] = if zero_marked {
                if clear {
                    seen
                } else {
                    0x80
                }
            } else if b == 0 {
                lane as u8
            } else {
                seen + clear as u8
            };
            seen += clear as u8;
            lane += 1;
        }
        u64::from_le_bytes(row)
    }

    const fn pack_table() -> [u64; 256] {
        let mut t = [0u64; 256];
        let mut b = 0usize;
        while b < 256 {
            t[b] = pack_row(b);
            b += 1;
        }
        t
    }

    const fn spread_table(zero_marked: bool) -> [u64; 256] {
        let mut t = [0u64; 256];
        let mut b = 0usize;
        while b < 256 {
            t[b] = spread_row(b, zero_marked);
            b += 1;
        }
        t
    }

    static PACK: [u64; 256] = pack_table();
    static SPREAD_REPEAT: [u64; 256] = spread_table(false);
    static SPREAD_ZERO: [u64; 256] = spread_table(true);

    /// A table row in the low half of a register.
    #[target_feature(enable = "sse2")]
    fn row(r: u64) -> __m128i {
        _mm_cvtsi64_si128(r as i64)
    }

    /// Widen 8 byte-lane indices to the `pshufb` control that moves
    /// 16-bit words: `[2i, 2i+1]` per lane, saturating so a `0x80`
    /// "zero this lane" stays ≥ `0x80` in both bytes.
    #[target_feature(enable = "sse2")]
    fn ctl16(r: u64) -> __m128i {
        let c = row(r);
        let c = _mm_unpacklo_epi8(c, c);
        _mm_adds_epu8(_mm_adds_epu8(c, c), _mm_set1_epi16(0x0100))
    }

    /// Widen 8 byte-lane indices to a `vpermd` control (sign-extended,
    /// so a `0x80` lane is negative).
    #[target_feature(enable = "avx2")]
    fn ctl32(r: u64) -> __m256i {
        _mm256_cvtepi8_epi32(row(r))
    }

    /// Widen the low 4 byte-lane indices to the `vpermd` control that
    /// moves 4 qwords as dword pairs `[2i, 2i+1]` (negative where the
    /// index was `0x80`).
    #[target_feature(enable = "avx2")]
    fn ctl64(r: u64) -> __m256i {
        let q = _mm256_cvtepi8_epi64(row(r));
        let d = _mm256_shuffle_epi32(q, 0b10_10_00_00); // [q, q] per qword
        _mm256_add_epi32(_mm256_add_epi32(d, d), _mm256_set1_epi64x(1 << 32))
    }

    /// `vpermd`, then zero every lane whose control is negative.
    #[target_feature(enable = "avx2")]
    fn permute_or_zero(v: __m256i, ctl: __m256i) -> __m256i {
        let moved = _mm256_permutevar8x32_epi32(v, ctl);
        _mm256_andnot_si256(_mm256_srai_epi32(ctl, 31), moved)
    }

    /// The low 8 bytes of `s` in the low half of a register.
    #[target_feature(enable = "sse2")]
    fn load64(s: &[u8]) -> __m128i {
        let mut b = [0u8; 8];
        b.copy_from_slice(&s[..8]);
        row(u64::from_le_bytes(b))
    }

    #[target_feature(enable = "sse2")]
    fn store64(d: &mut [u8], v: __m128i) {
        d[..8].copy_from_slice(&_mm_cvtsi128_si64(v).to_le_bytes());
    }

    /// Words moved per shuffle: a bitmap byte's 8, except at `W = 8`
    /// where a register holds 4 qwords and each nibble is its own step.
    const fn lanes<const W: usize>() -> usize {
        if W == 8 {
            4
        } else {
            8
        }
    }

    /// The mark bits of step `k`.
    fn step_bits<const W: usize>(bm: &[u8], k: usize) -> usize {
        if W == 8 {
            (bm[k / 2] as usize >> (4 * (k % 2))) & 0xF
        } else {
            bm[k] as usize
        }
    }

    /// Survivor emission over the whole 8-word groups `bm` covers: per
    /// step, shuffle the survivors to the front, store the whole step at
    /// the output cursor, advance the cursor by the survivor count — no
    /// per-word branch. Returns bytes written.
    ///
    /// Step `k` stores `lanes·W` bytes at the cursor `o`. `o` is at most
    /// `k·lanes·W` (earlier steps kept at most `lanes` words each) and at
    /// most the total kept, so the store ends within both
    /// `(k+1)·lanes·W` and `kept + lanes·W`; `dst` is as long as the
    /// smaller of the two, and the slice index checks exactly that.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn emit_avx2<const W: usize>(src: &[u8], bm: &[u8], dst: &mut [u8]) -> usize {
        let mut o = 0usize;
        for (k, grp) in src.chunks_exact(lanes::<W>() * W).enumerate() {
            // At W = 8 the other nibble's lanes count as marked, which
            // turns the byte row into a 4-lane row.
            let bits = step_bits::<W>(bm, k) | if W == 8 { 0xF0 } else { 0 };
            let to = &mut dst[o..];
            match W {
                1 => store64(to, _mm_shuffle_epi8(load64(grp), row(PACK[bits]))),
                2 => store128(to, _mm_shuffle_epi8(load128(grp), ctl16(PACK[bits]))),
                4 => store256(
                    to,
                    _mm256_permutevar8x32_epi32(load256(grp), ctl32(PACK[bits])),
                ),
                _ => store256(
                    to,
                    _mm256_permutevar8x32_epi32(load256(grp), ctl64(PACK[bits])),
                ),
            }
            o += W * (8 - bits.count_ones() as usize);
        }
        o
    }

    /// Inverse of [`emit_avx2`]: per step, load a window of packed
    /// survivors at the cursor, spread them to their lanes
    /// ([`spread_row`]), store the step. Stops before the first step
    /// whose window is not fully inside `src` (the portable loop
    /// finishes and owns every error). Returns the words written, with
    /// `*pos` advanced past the survivors consumed.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn expand_avx2<const W: usize>(
        mk: Mark,
        bm: &[u8],
        src: &[u8],
        pos: &mut usize,
        dst: &mut [u8],
    ) -> usize {
        let (lut, back_w) = match mk {
            Mark::RepeatsPrior => (&SPREAD_REPEAT, W),
            Mark::IsZero => (&SPREAD_ZERO, 0),
        };
        let step = lanes::<W>() * W;
        let mut p = *pos;
        let mut done = 0usize;
        for (k, slot) in dst
            .chunks_exact_mut(step)
            .enumerate()
            .take(bm.len() * 8 / lanes::<W>())
        {
            let bits = step_bits::<W>(bm, k);
            let back = if bits != 0 { back_w } else { 0 };
            // `p ≥ back` keeps the one-word-back window inside `src`.
            // (Spelled out: `Option::and_then` with a closure is not
            // inlined into a `#[target_feature]` function.)
            let Some(start) = p.checked_sub(back) else {
                break;
            };
            // The first decode stage reads its input cold, and the loads
            // run barely a cache line ahead of the cursor. Eight steps
            // consume at most one line.
            if k % 8 == 0 {
                _mm_prefetch::<_MM_HINT_T0>(src.as_ptr().wrapping_add(p + 1024).cast());
            }
            let Some(win) = src.get(start..start + step) else {
                break;
            };
            match W {
                1 => store64(slot, _mm_shuffle_epi8(load64(win), row(lut[bits]))),
                2 => store128(slot, _mm_shuffle_epi8(load128(win), ctl16(lut[bits]))),
                4 => store256(slot, permute_or_zero(load256(win), ctl32(lut[bits]))),
                _ => store256(slot, permute_or_zero(load256(win), ctl64(lut[bits]))),
            }
            p += W * (lanes::<W>() - bits.count_ones() as usize);
            done += lanes::<W>();
        }
        *pos = p;
        done
    }

    /// AVX2 marker: 32-word groups, four bitmap bytes per group; the same
    /// contract as [`mark_sse2`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn mark_avx2<const W: usize>(
        mk: Mark,
        src: &[u8],
        bm: &mut [u8],
    ) -> (usize, usize, usize) {
        let n = src.len() / W;
        // Words per step: one register, or both 16-word registers at W = 2.
        let step = if W == 2 { 32 } else { 32 / W };
        let start = match mk {
            Mark::IsZero => 0usize,
            Mark::RepeatsPrior => 32,
        };
        let zero = _mm256_setzero_si256();
        let mut w = start;
        let mut marks = 0usize;
        while w + 32 <= n {
            let mut bits: u32 = 0;
            let mut k = 0usize;
            while k < 32 {
                // safety: same bounds argument as `mark_sse2` with
                // 32-byte vectors and a 32-word lead-in; at W = 2 the
                // second pair of loads ends at `(w+32)·W ≤ n·W`.
                unsafe {
                    let at = |i: usize| src.as_ptr().add(i * W).cast::<__m256i>();
                    let cur = _mm256_loadu_si256(at(w + k));
                    let rhs = match mk {
                        Mark::IsZero => zero,
                        Mark::RepeatsPrior => _mm256_loadu_si256(at(w + k - 1)),
                    };
                    let m = match W {
                        1 => eq8x(cur, rhs),
                        2 => {
                            let cur1 = _mm256_loadu_si256(at(w + k + 16));
                            let rhs1 = match mk {
                                Mark::IsZero => zero,
                                Mark::RepeatsPrior => _mm256_loadu_si256(at(w + k + 15)),
                            };
                            eq16x2(cur, rhs, cur1, rhs1)
                        }
                        4 => eq32x(cur, rhs),
                        _ => eq64x(cur, rhs),
                    };
                    bits |= m << k;
                }
                k += step;
            }
            bm[w / 8..w / 8 + 4].copy_from_slice(&bits.to_le_bytes());
            marks += bits.count_ones() as usize;
            w += 32;
        }
        if w == start {
            (0, 0, 0)
        } else {
            (start, w, marks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize, mut s: u64) -> Vec<u8> {
        // Zero runs, repeats, and noise — exercises both marks.
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            match (s >> 60) & 3 {
                0 => v.extend(std::iter::repeat_n(0u8, (s as usize % 23) + 1)),
                1 => v.extend(std::iter::repeat_n((s >> 8) as u8, (s as usize % 17) + 1)),
                _ => v.extend_from_slice(&s.to_le_bytes()),
            }
        }
        v.truncate(len);
        v
    }

    fn check<const W: usize>() {
        for len_w in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 130] {
            let src = patterned(len_w * W, 0xB17_0000 + (len_w * 8 + W) as u64);
            for mk in Mark::ALL {
                let mut reference = Vec::new();
                let kept_ref = build_with::<W>(Variant::Scalar, mk, &src, &mut reference);
                for v in super::super::available() {
                    let mut bm = Vec::new();
                    let kept = build_with::<W>(v, mk, &src, &mut bm);
                    assert_eq!(bm, reference, "W={W} {mk:?} {v:?} len_w={len_w}");
                    assert_eq!(kept, kept_ref);
                    let mut survivors = Vec::new();
                    emit_with::<W>(v, &src, &bm, kept, &mut survivors);
                    assert_eq!(survivors.len(), kept * W);
                    let (mut pos, mut back) = (0, Vec::new());
                    expand_with::<W>(v, mk, &bm, len_w, &survivors, &mut pos, &mut back).unwrap();
                    assert_eq!(back, src, "W={W} {mk:?} {v:?} len_w={len_w}");
                    assert_eq!(pos, survivors.len());
                }
            }
        }
    }

    #[test]
    fn all_tiers_agree() {
        check::<1>();
        check::<2>();
        check::<4>();
        check::<8>();
    }

    /// Kept words counted straight from the words, sharing no code with
    /// the markers.
    fn naive_kept<const W: usize>(mk: Mark, src: &[u8]) -> usize {
        let words: Vec<&[u8]> = src.chunks_exact(W).collect();
        (0..words.len())
            .filter(|&i| match mk {
                Mark::IsZero => words[i].iter().any(|&b| b != 0),
                Mark::RepeatsPrior => i == 0 || words[i] != words[i - 1],
            })
            .count()
    }

    fn check_kept<const W: usize>() {
        for len_w in 0..=130usize {
            let src = patterned(len_w * W, 0x6E7_0000 + (len_w * 8 + W) as u64);
            for mk in Mark::ALL {
                let want = naive_kept::<W>(mk, &src);
                for v in super::super::available() {
                    let kept = build_with::<W>(v, mk, &src, &mut Vec::new());
                    assert_eq!(kept, want, "W={W} {mk:?} {v:?} len_w={len_w}");
                }
            }
        }
    }

    #[test]
    fn kept_count_matches_naive_count() {
        check_kept::<1>();
        check_kept::<2>();
        check_kept::<4>();
        check_kept::<8>();
    }

    #[test]
    fn survivors_match_naive_filter() {
        let src = patterned(64 * 4, 99);
        let mut bm = Vec::new();
        let kept = build::<4>(Mark::IsZero, &src, &mut bm);
        let mut got = Vec::new();
        emit::<4>(&src, &bm, kept, &mut got);
        let want: Vec<u8> = src
            .chunks_exact(4)
            .filter(|w| w.iter().any(|&b| b != 0))
            .flatten()
            .copied()
            .collect();
        assert_eq!(got, want);
    }
}
