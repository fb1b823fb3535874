//! BIT shuffler kernels: bit-plane transpose.
//!
//! The serialized format is a continuous MSB-first bit stream: plane
//! `b−1` (one bit from every word, word 0 first) then plane `b−2`, and
//! so on. When the word count `n` is a multiple of 8 — true for every
//! full 16 kB chunk at every word size — each plane occupies exactly
//! `n/8` whole bytes, and the transform becomes a byte-granular 8×8 bit
//! transpose per 8-word group:
//!
//! * the **portable grouped** path uses the classic three-step delta-swap
//!   `u64` bit-matrix transpose (8 words per 18 ALU ops per byte column);
//! * the **SSE2** paths (`W` = 1 and 4) extract a whole plane byte per
//!   `movemask` after shifting the target bit into the lane sign
//!   position;
//! * the **AVX2** path is blocked: 32 words are byte-transposed into `W`
//!   byte-plane registers (byte `m` of all 32 words side by side), so
//!   every `movemask_epi8` / `add_epi8` step finishes four plane bytes
//!   at once and stores them as one `u32`; decode rebuilds each
//!   byte-plane register from its 8 rows with the delta-swap transpose
//!   on four 64-bit lanes at once, then undoes the byte transpose
//!   (DESIGN §15);
//! * when `n % 8 != 0` (reducer outputs of any length, short trailing
//!   chunks), plane boundaries straddle bytes: the first `n & !7` words
//!   go through the same tiered transpose into temporary plane rows, and
//!   each row is then shifted into place at bit offset `r·n` of the
//!   stream, followed by its `n % 8` tail bits. Decode gathers each row
//!   back with a shifted read, runs the aligned decode, and rebuilds the
//!   ≤ 7 tail words bit by bit.
//!
//! Every tier produces the stream of the bit-at-a-time reference
//! encoder, which the tests below keep as their oracle (with the
//! differential tests in `tests/kernels_differential.rs`).

use super::Variant;
use crate::util::words;
use lc_core::DecodeError;

/// Bit-reversal table: `REV8[b] == b.reverse_bits()`. `movemask` packs
/// lane 0 into bit 0 (LSB-first) while the plane byte wants word 0 at
/// the MSB, so every mask byte is reversed on the way through.
#[cfg(target_arch = "x86_64")]
static REV8: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        t[i] = (i as u8).reverse_bits();
        i += 1;
    }
    t
};

/// 8×8 bit-matrix transpose: bit `8i+j` of the result is bit `8j+i` of
/// `x` (three delta-swaps; Hacker's Delight §7-3).
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Grouped portable encoder over words `from..n` (`n % 8 == 0`,
/// `from % 8 == 0`): one `u64` transpose per (8-word group × byte
/// column).
fn portable_encode_grouped<const W: usize>(src: &[u8], dst: &mut [u8], n: usize, from: usize) {
    let stride = n / 8; // bytes per plane
    let b = 8 * W;
    let mut w = from;
    while w < n {
        for m in 0..W {
            // Reversed byte order puts word 0 at the matrix row that maps
            // to the plane byte's MSB.
            let x = u64::from_le_bytes([
                src[(w + 7) * W + m],
                src[(w + 6) * W + m],
                src[(w + 5) * W + m],
                src[(w + 4) * W + m],
                src[(w + 3) * W + m],
                src[(w + 2) * W + m],
                src[(w + 1) * W + m],
                src[w * W + m],
            ]);
            let y = transpose8(x).to_le_bytes();
            for (qp, &pb) in y.iter().enumerate() {
                let p = b - 1 - (8 * m + qp); // plane index for bit 8m+qp
                dst[p * stride + w / 8] = pb;
            }
        }
        w += 8;
    }
}

/// Grouped portable decoder (inverse of [`portable_encode_grouped`]; the
/// transpose is an involution).
fn portable_decode_grouped<const W: usize>(src: &[u8], dst: &mut [u8], n: usize, from: usize) {
    let stride = n / 8;
    let b = 8 * W;
    let mut w = from;
    while w < n {
        for m in 0..W {
            let mut yb = [0u8; 8];
            for (qp, slot) in yb.iter_mut().enumerate() {
                let p = b - 1 - (8 * m + qp);
                *slot = src[p * stride + w / 8];
            }
            let x = transpose8(u64::from_le_bytes(yb)).to_le_bytes();
            for k in 0..8 {
                dst[(w + k) * W + m] = x[7 - k];
            }
        }
        w += 8;
    }
}

/// Which tier BIT dispatch resolves to for this word size.
pub fn variant<const W: usize>() -> Variant {
    #[cfg(target_arch = "x86_64")]
    {
        let t = super::tier();
        // The blocked AVX2 transpose covers every word size; SSE2 only
        // has plane extraction for W = 1 and 4.
        if t >= Variant::Avx2 || (t >= Variant::Sse2 && (W == 1 || W == 4)) {
            return t;
        }
    }
    Variant::Scalar
}

/// Transpose the complete words of `input` into bit planes, appending
/// `n·W` plane bytes then the incomplete tail verbatim.
pub fn encode<const W: usize>(input: &[u8], out: &mut Vec<u8>) -> Variant {
    let v = variant::<W>();
    encode_with::<W>(v, input, out);
    v
}

/// [`encode`] pinned to a tier (clamped to the detected CPU).
pub fn encode_with<const W: usize>(v: Variant, input: &[u8], out: &mut Vec<u8>) {
    let n = input.len() / W;
    let start = out.len();
    out.resize(start + n * W, 0);
    let dst = &mut out[start..];
    if n.is_multiple_of(8) {
        encode_aligned::<W>(v, &input[..n * W], dst, n);
    } else {
        encode_off_grid::<W>(v, &input[..n * W], dst, n);
    }
    out.extend_from_slice(&input[n * W..]);
}

/// The tiered transpose of `n` words (`n % 8 == 0`) into `n/8`-byte
/// plane rows.
fn encode_aligned<const W: usize>(v: Variant, src: &[u8], dst: &mut [u8], n: usize) {
    // safety: tier clamped to CPUID detection before calling
    // `#[target_feature]` bodies.
    #[cfg(target_arch = "x86_64")]
    let done = match v.min(super::detected()) {
        Variant::Avx2 => unsafe { x86::encode_avx2::<W>(src, dst, n) },
        Variant::Sse2 => unsafe { x86::encode_sse2::<W>(src, dst, n) },
        Variant::Scalar => 0,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = {
        let _ = v;
        0
    };
    portable_encode_grouped::<W>(src, dst, n, done);
}

/// Encode `n` words (`n % 8 != 0`) into the zeroed `n·W`-byte `dst`:
/// the aligned transpose of the first `m = n & !7` words, then row `r`
/// shifted to bit offset `r·n` and followed by its `n − m` tail bits.
fn encode_off_grid<const W: usize>(v: Variant, src: &[u8], dst: &mut [u8], n: usize) {
    let m = n & !7;
    let stride = m / 8;
    let mut rows = vec![0u8; m * W];
    encode_aligned::<W>(v, &src[..m * W], &mut rows, m);
    let mut tail = [0u64; 7];
    for (word, w) in tail.iter_mut().zip(m..n) {
        *word = words::get::<W>(src, w);
    }
    for r in 0..8 * W {
        let row = &rows[r * stride..(r + 1) * stride];
        let (at, s) = ((r * n) / 8, (r * n) % 8);
        // `dst[at]` may already hold the previous row's last bits in its
        // top `s` bits; every later byte of this row is still zero.
        if s == 0 {
            dst[at..at + stride].copy_from_slice(row);
        } else if let (Some(&first), Some(&last)) = (row.first(), row.last()) {
            dst[at] |= first >> s;
            for (d, pair) in dst[at + 1..at + stride].iter_mut().zip(row.windows(2)) {
                *d = (pair[0] << (8 - s)) | (pair[1] >> s);
            }
            dst[at + stride] = last << (8 - s);
        }
        let plane = 8 * W - 1 - r;
        for (i, &word) in tail[..n - m].iter().enumerate() {
            let k = r * n + m + i;
            dst[k / 8] |= (((word >> plane) & 1) as u8) << (7 - k % 8);
        }
    }
}

/// Invert [`encode`], appending the reconstructed words then the tail.
pub fn decode<const W: usize>(input: &[u8], out: &mut Vec<u8>) -> Result<Variant, DecodeError> {
    let v = variant::<W>();
    decode_with::<W>(v, input, out)?;
    Ok(v)
}

/// [`decode`] pinned to a tier (clamped to the detected CPU). Every input
/// decodes: the word count is read off its length.
pub fn decode_with<const W: usize>(
    v: Variant,
    input: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let n = input.len() / W;
    let start = out.len();
    out.resize(start + n * W, 0);
    let dst = &mut out[start..];
    if n.is_multiple_of(8) {
        decode_aligned::<W>(v, &input[..n * W], dst, n);
    } else {
        decode_off_grid::<W>(v, &input[..n * W], dst, n);
    }
    out.extend_from_slice(&input[n * W..]);
    Ok(())
}

/// Inverse of [`encode_aligned`].
fn decode_aligned<const W: usize>(v: Variant, src: &[u8], dst: &mut [u8], n: usize) {
    // safety: tier clamped to CPUID detection before calling
    // `#[target_feature]` bodies.
    #[cfg(target_arch = "x86_64")]
    let done = match v.min(super::detected()) {
        Variant::Avx2 => unsafe { x86::decode_avx2::<W>(src, dst, n) },
        Variant::Sse2 => unsafe { x86::decode_sse2::<W>(src, dst, n) },
        Variant::Scalar => 0,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = {
        let _ = v;
        0
    };
    portable_decode_grouped::<W>(src, dst, n, done);
}

/// Inverse of [`encode_off_grid`]: gather row `r` from bit offset `r·n`
/// into an aligned plane row, decode the first `m` words through
/// [`decode_aligned`], then rebuild the tail words from their bits.
fn decode_off_grid<const W: usize>(v: Variant, src: &[u8], dst: &mut [u8], n: usize) {
    let m = n & !7;
    let stride = m / 8;
    let mut rows = vec![0u8; m * W];
    let mut tail = [0u64; 7];
    for r in 0..8 * W {
        let (at, s) = ((r * n) / 8, (r * n) % 8);
        let row = &mut rows[r * stride..(r + 1) * stride];
        if s == 0 {
            row.copy_from_slice(&src[at..at + stride]);
        } else {
            // The row's bits end before its tail bits do, so the byte
            // after its last whole byte is still inside `src`.
            for (d, pair) in row.iter_mut().zip(src[at..=at + stride].windows(2)) {
                *d = (pair[0] << s) | (pair[1] >> (8 - s));
            }
        }
        let plane = 8 * W - 1 - r;
        for (i, word) in tail[..n - m].iter_mut().enumerate() {
            let k = r * n + m + i;
            *word |= u64::from((src[k / 8] >> (7 - k % 8)) & 1) << plane;
        }
    }
    decode_aligned::<W>(v, &rows, &mut dst[..m * W], m);
    for (d, word) in dst[m * W..].chunks_exact_mut(W).zip(tail) {
        d.copy_from_slice(&word.to_le_bytes()[..W]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::vecio::{load128, load256, store256};
    use super::REV8;
    use std::arch::x86_64::*;

    /// SSE2 plane extraction for `W` ∈ {1, 4}; returns words covered
    /// (multiple of 8).
    #[target_feature(enable = "sse2")]
    pub(super) fn encode_sse2<const W: usize>(src: &[u8], dst: &mut [u8], n: usize) -> usize {
        let stride = n / 8;
        match W {
            1 => {
                let groups = n / 16;
                for g in 0..groups {
                    // safety: group `g` reads 16 bytes at `g*16`,
                    // `groups*16 ≤ n = src.len()`.
                    unsafe {
                        let v = _mm_loadu_si128(src.as_ptr().add(g * 16).cast());
                        for bit in 0..8usize {
                            // Shift bit `bit` into each byte's sign slot;
                            // 16-bit lane shifts leak only into the
                            // neighbor's low bits, never its bit 7.
                            let s = _mm_cvtsi32_si128(7 - bit as i32);
                            let m = _mm_movemask_epi8(_mm_sll_epi16(v, s)) as u32;
                            let p = 7 - bit;
                            dst[p * stride + g * 2] = REV8[(m & 0xFF) as usize];
                            dst[p * stride + g * 2 + 1] = REV8[(m >> 8) as usize];
                        }
                    }
                }
                groups * 16
            }
            4 => {
                let groups = n / 8;
                for g in 0..groups {
                    // safety: group `g` reads 32 bytes at `g*32`,
                    // `groups*32 ≤ n*4 = src.len()`.
                    unsafe {
                        let v0 = _mm_loadu_si128(src.as_ptr().add(g * 32).cast());
                        let v1 = _mm_loadu_si128(src.as_ptr().add(g * 32 + 16).cast());
                        for bit in 0..32usize {
                            let s = _mm_cvtsi32_si128(31 - bit as i32);
                            let m0 = _mm_movemask_ps(_mm_castsi128_ps(_mm_sll_epi32(v0, s)));
                            let m1 = _mm_movemask_ps(_mm_castsi128_ps(_mm_sll_epi32(v1, s)));
                            let p = 31 - bit;
                            dst[p * stride + g] = REV8[m0 as usize] | (REV8[m1 as usize] >> 4);
                        }
                    }
                }
                groups * 8
            }
            _ => 0,
        }
    }

    // ---- blocked AVX2 transpose ----
    //
    // A block is 32 words. `gather` turns it into `W` byte-plane
    // registers: register `m` holds byte `m` of every word, and inside
    // each 8-byte group the words run backwards (byte `8j+k` is word
    // `8j+7−k`), so that `movemask_epi8` — lane 0 into bit 0 — puts word
    // `8j` at the MSB of mask byte `j`, which is the stored format.
    // `scatter` is the exact inverse.

    /// In-lane byte shuffles that split 16 bytes of `W`-byte words into
    /// per-byte runs with the word order reversed, and their inverses.
    const REVERSE8: [u8; 16] = [7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8];
    const SPLIT2: [u8; 16] = [14, 12, 10, 8, 6, 4, 2, 0, 15, 13, 11, 9, 7, 5, 3, 1];
    const JOIN2: [u8; 16] = [7, 15, 6, 14, 5, 13, 4, 12, 3, 11, 2, 10, 1, 9, 0, 8];
    const SPLIT4: [u8; 16] = [12, 8, 4, 0, 13, 9, 5, 1, 14, 10, 6, 2, 15, 11, 7, 3];
    const JOIN4: [u8; 16] = [3, 7, 11, 15, 2, 6, 10, 14, 1, 5, 9, 13, 0, 4, 8, 12];

    /// The same 16-byte `pshufb` control in both lanes.
    #[target_feature(enable = "avx2")]
    fn both_lanes(c: [u8; 16]) -> __m256i {
        _mm256_broadcastsi128_si256(load128(&c))
    }

    /// 4×4 transpose of dwords inside each 128-bit lane (its own inverse).
    #[target_feature(enable = "avx2")]
    fn transpose4(r: [__m256i; 4]) -> [__m256i; 4] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        [
            _mm256_unpacklo_epi64(t0, t2),
            _mm256_unpackhi_epi64(t0, t2),
            _mm256_unpacklo_epi64(t1, t3),
            _mm256_unpackhi_epi64(t1, t3),
        ]
    }

    /// 32 dwords (four registers) → their four byte planes.
    #[target_feature(enable = "avx2")]
    fn gather4(r: [__m256i; 4]) -> [__m256i; 4] {
        let split = both_lanes(SPLIT4);
        // Lane → [byte 0 of w3..w0 | byte 1 | byte 2 | byte 3]; the
        // transpose then collects dword m of all eight lanes in plane m
        // as [low lanes | high lanes]; vpermd interleaves them so each
        // register's 8 words are adjacent, high lane (w7..w4) first.
        let order = _mm256_setr_epi32(4, 0, 5, 1, 6, 2, 7, 3);
        transpose4(r.map(|v| _mm256_shuffle_epi8(v, split)))
            .map(|p| _mm256_permutevar8x32_epi32(p, order))
    }

    /// Inverse of [`gather4`].
    #[target_feature(enable = "avx2")]
    fn scatter4(p: [__m256i; 4]) -> [__m256i; 4] {
        let join = both_lanes(JOIN4);
        let order = _mm256_setr_epi32(1, 3, 5, 7, 0, 2, 4, 6);
        transpose4(p.map(|v| _mm256_permutevar8x32_epi32(v, order)))
            .map(|v| _mm256_shuffle_epi8(v, join))
    }

    /// Byte planes of the 32-word block at `src` (`32·W` bytes); only
    /// the first `W` entries are meaningful.
    #[target_feature(enable = "avx2")]
    fn gather<const W: usize>(src: &[u8]) -> [__m256i; 8] {
        let mut p = [_mm256_setzero_si256(); 8];
        let reg = |i: usize| load256(&src[32 * i..]);
        match W {
            1 => p[0] = _mm256_shuffle_epi8(reg(0), both_lanes(REVERSE8)),
            2 => {
                // Lane → [low bytes of w7..w0 | high bytes]; pair up the
                // halves of both registers, then put the lanes in order.
                let split = both_lanes(SPLIT2);
                let (a, b) = (
                    _mm256_shuffle_epi8(reg(0), split),
                    _mm256_shuffle_epi8(reg(1), split),
                );
                p[0] = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(a, b), 0b11_01_10_00);
                p[1] = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(a, b), 0b11_01_10_00);
            }
            4 => p[..4].copy_from_slice(&gather4([reg(0), reg(1), reg(2), reg(3)])),
            _ => {
                // Split each qword into its low and high dword, giving
                // two blocks of 32 dwords in word order.
                let halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
                let mut lo = [p[0]; 4];
                let mut hi = [p[0]; 4];
                for k in 0..4 {
                    let a = _mm256_permutevar8x32_epi32(reg(2 * k), halves);
                    let b = _mm256_permutevar8x32_epi32(reg(2 * k + 1), halves);
                    lo[k] = _mm256_permute2x128_si256(a, b, 0x20);
                    hi[k] = _mm256_permute2x128_si256(a, b, 0x31);
                }
                p[..4].copy_from_slice(&gather4(lo));
                p[4..].copy_from_slice(&gather4(hi));
            }
        }
        p
    }

    /// Inverse of [`gather`]: write the block's `32·W` bytes to `dst`.
    #[target_feature(enable = "avx2")]
    fn scatter<const W: usize>(p: [__m256i; 8], dst: &mut [u8]) {
        let mut put = |i: usize, v: __m256i| store256(&mut dst[32 * i..], v);
        match W {
            1 => put(0, _mm256_shuffle_epi8(p[0], both_lanes(REVERSE8))),
            2 => {
                let join = both_lanes(JOIN2);
                let a = _mm256_permute4x64_epi64(p[0], 0b11_01_10_00);
                let b = _mm256_permute4x64_epi64(p[1], 0b11_01_10_00);
                put(0, _mm256_shuffle_epi8(_mm256_unpacklo_epi64(a, b), join));
                put(1, _mm256_shuffle_epi8(_mm256_unpackhi_epi64(a, b), join));
            }
            4 => {
                for (i, v) in scatter4([p[0], p[1], p[2], p[3]]).into_iter().enumerate() {
                    put(i, v);
                }
            }
            _ => {
                let halves = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
                let lo = scatter4([p[0], p[1], p[2], p[3]]);
                let hi = scatter4([p[4], p[5], p[6], p[7]]);
                for k in 0..4 {
                    let a = _mm256_permute2x128_si256(lo[k], hi[k], 0x20);
                    let b = _mm256_permute2x128_si256(lo[k], hi[k], 0x31);
                    put(2 * k, _mm256_permutevar8x32_epi32(a, halves));
                    put(2 * k + 1, _mm256_permutevar8x32_epi32(b, halves));
                }
            }
        }
    }

    /// Blocked AVX2 plane extraction; returns words covered (a multiple
    /// of 32). Byte plane `m` holds bits `8m..8m+8` of every word; its
    /// sign bits are plane row `8·(W−1−m)` (MSB plane first), and each
    /// `add_epi8` shifts the next bit into the sign position.
    #[target_feature(enable = "avx2")]
    pub(super) fn encode_avx2<const W: usize>(src: &[u8], dst: &mut [u8], n: usize) -> usize {
        let stride = n / 8;
        for (blk, block) in src.chunks_exact(32 * W).enumerate() {
            // The first stage of an encode reads its input cold.
            _mm_prefetch::<_MM_HINT_T0>(block.as_ptr().wrapping_add(1024).cast());
            let planes = gather::<W>(block);
            for (m, &plane) in planes[..W].iter().enumerate() {
                let mut v = plane;
                for t in 0..8 {
                    let o = (8 * (W - 1 - m) + t) * stride + 4 * blk;
                    let mask = _mm256_movemask_epi8(v) as u32;
                    dst[o..o + 4].copy_from_slice(&mask.to_le_bytes());
                    v = _mm256_add_epi8(v, v);
                }
            }
        }
        n / 32 * 32
    }

    /// SSE2 inverse-movemask decode for `W` = 1; returns words covered.
    #[target_feature(enable = "sse2")]
    pub(super) fn decode_sse2<const W: usize>(src: &[u8], dst: &mut [u8], n: usize) -> usize {
        if W != 1 {
            return 0;
        }
        let stride = n / 8;
        let groups = n / 16;
        let bitsel = _mm_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
        for g in 0..groups {
            let mut acc = _mm_setzero_si128();
            for bit in 0..8usize {
                let p = 7 - bit;
                let b0 = REV8[src[p * stride + g * 2] as usize];
                let b1 = REV8[src[p * stride + g * 2 + 1] as usize];
                // Inverse movemask: broadcast each plane byte, test the
                // per-lane selector bit, fold the result into bit `bit`.
                let sel = _mm_unpacklo_epi64(_mm_set1_epi8(b0 as i8), _mm_set1_epi8(b1 as i8));
                let hit = _mm_cmpeq_epi8(_mm_and_si128(sel, bitsel), bitsel);
                acc = _mm_or_si128(acc, _mm_and_si128(hit, _mm_set1_epi8((1u8 << bit) as i8)));
            }
            // safety: the store writes 16 bytes at `g*16`, `groups*16 ≤
            // n = dst.len()`.
            unsafe {
                _mm_storeu_si128(dst.as_mut_ptr().add(g * 16).cast(), acc);
            }
        }
        groups * 16
    }

    /// [`super::transpose8`] on each of the four qwords.
    #[target_feature(enable = "avx2")]
    fn transpose8x4(x: __m256i) -> __m256i {
        let t = _mm256_and_si256(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 7)),
            _mm256_set1_epi64x(0x00AA_00AA_00AA_00AA),
        );
        let x = _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 7)));
        let t = _mm256_and_si256(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 14)),
            _mm256_set1_epi64x(0x0000_CCCC_0000_CCCC),
        );
        let x = _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 14)));
        let t = _mm256_and_si256(
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 28)),
            _mm256_set1_epi64x(0x0000_0000_F0F0_F0F0),
        );
        _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 28)))
    }

    /// Blocked AVX2 decode; returns words covered (a multiple of 32).
    ///
    /// Pass 1 rebuilds byte planes, one per `(block, m)`, and parks each
    /// in its block of `dst`: the block's four bytes of each of the 8
    /// plane rows of byte `m` go into one register (row 0 = bit 7
    /// first), the per-register half of [`gather4`] regroups them so
    /// qword `j` holds the 8 row bytes of words `8j..8j+8` (bit 0's row
    /// first), and an 8×8 bit transpose of each qword turns 8 row bytes
    /// into 8 word bytes — in the reversed order [`scatter`] expects.
    /// Pass 2 scatters every block's planes back into words, in place.
    #[target_feature(enable = "avx2")]
    pub(super) fn decode_avx2<const W: usize>(src: &[u8], dst: &mut [u8], n: usize) -> usize {
        let stride = n / 8;
        let blocks = n / 32;
        let split = both_lanes(SPLIT4);
        let order = _mm256_setr_epi32(4, 0, 5, 1, 6, 2, 7, 3);
        // Highest byte first: its rows come first in `src`.
        for m in (0..W).rev() {
            // The 8 plane rows of byte m as 4-byte columns, cut to the
            // block count so the loop below indexes them unchecked.
            let rows: [&[[u8; 4]]; 8] = std::array::from_fn(|t| {
                let row = &src[(8 * (W - 1 - m) + t) * stride..][..stride];
                &row.as_chunks().0[..blocks]
            });
            for (blk, block) in (0..blocks).zip(dst.chunks_exact_mut(32 * W)) {
                // Eight short streams are more than the hardware
                // prefetcher follows when `src` is cold: on entering a
                // cache line, ask for the same column 8 rows further on
                // (the next byte's rows, or whatever follows `src`).
                if blk % 16 == 0 {
                    for row in rows {
                        let ahead = row.as_ptr().wrapping_add(blk + 2 * stride);
                        _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
                    }
                }
                let col = |t: usize| i32::from_le_bytes(rows[t][blk]);
                let cols = _mm256_setr_epi32(
                    col(0),
                    col(1),
                    col(2),
                    col(3),
                    col(4),
                    col(5),
                    col(6),
                    col(7),
                );
                let by_group = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(cols, split), order);
                store256(&mut block[32 * m..], transpose8x4(by_group));
            }
        }
        for block in dst.chunks_exact_mut(32 * W) {
            let mut planes = [_mm256_setzero_si256(); 8];
            for (m, plane) in planes[..W].iter_mut().enumerate() {
                *plane = load256(&block[32 * m..]);
            }
            scatter::<W>(planes, block);
        }
        blocks * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::bitpack::{BitReader, BitWriter};

    /// The oracle encoder: the bit-at-a-time stream writer.
    fn reference_encode<const W: usize>(input: &[u8], n: usize, out: &mut Vec<u8>) {
        let b = words::bits::<W>();
        let vals = words::to_vec::<W>(input);
        let mut writer = BitWriter::new(out);
        for bit in (0..b).rev() {
            for &v in vals.iter().take(n) {
                writer.put((v >> bit) & 1, 1);
            }
        }
        writer.finish();
    }

    /// The oracle decoder: the bit-at-a-time stream reader.
    fn reference_decode<const W: usize>(src: &[u8], n: usize) -> Vec<u8> {
        let b = words::bits::<W>();
        let mut vals = vec![0u64; n];
        let mut reader = BitReader::new(src);
        for bit in (0..b).rev() {
            for v in vals.iter_mut() {
                *v |= reader.get(1).unwrap() << bit;
            }
        }
        let mut out = Vec::new();
        words::extend_from_words::<W>(&mut out, &vals);
        out
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_add(43).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    fn check<const W: usize>() {
        // Every residue of the word count mod 8, on and around the 8-,
        // 16- and 32-word SIMD group boundaries and a 16 KiB chunk, each
        // with and without an incomplete trailing word.
        for base in [0usize, 8, 16, 24, 32, 40, 64, 96, 256, 16384 / W - 8] {
            for n in base..base + 8 {
                for len in [n * W, n * W + W - 1] {
                    let input = sample(len);
                    let mut reference = Vec::new();
                    reference_encode::<W>(&input, n, &mut reference);
                    reference.extend_from_slice(&input[n * W..]);
                    // Any byte string is a valid stream: decode the input
                    // itself as one too.
                    let mut unplaned = reference_decode::<W>(&input[..n * W], n);
                    unplaned.extend_from_slice(&input[n * W..]);
                    for v in super::super::available() {
                        let mut enc = vec![0xEE]; // both directions append
                        encode_with::<W>(v, &input, &mut enc);
                        assert_eq!(enc[1..], reference, "enc W={W} {v:?} len={len}");
                        let mut dec = vec![0xEE];
                        decode_with::<W>(v, &enc[1..], &mut dec).unwrap();
                        assert_eq!(dec[1..], input, "roundtrip W={W} {v:?} len={len}");
                        let mut dec = Vec::new();
                        decode_with::<W>(v, &input, &mut dec).unwrap();
                        assert_eq!(dec, unplaned, "dec W={W} {v:?} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_tiers_match_the_bitstream_reference() {
        check::<1>();
        check::<2>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn transpose8_is_an_involution_and_transposes() {
        let x = 0x8040_2010_0804_0201u64; // identity matrix
        assert_eq!(transpose8(x), x);
        // Single off-diagonal bit moves to its mirror: bit (8·2+5) → (8·5+2).
        let x = 1u64 << (8 * 2 + 5);
        assert_eq!(transpose8(x), 1u64 << (8 * 5 + 2));
        for seed in [0x1234_5678u64, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(transpose8(transpose8(seed)), seed);
        }
    }
}
