//! CRC-32 (IEEE 802.3) integrity checksums.
//!
//! Bit-flip fault injection shows that a corrupted archive can decode
//! "successfully" into different bytes (e.g. a flipped value inside an
//! RLE literal region is indistinguishable from data). Version 2 of the
//! archive format therefore records a CRC-32 of the original input; the
//! decoder verifies it and turns silent corruption into a
//! [`crate::DecodeError::ChecksumMismatch`].
//!
//! Implemented from scratch (reflected polynomial `0xEDB8_8320`). The
//! archive checksums every byte it touches once per direction, and a
//! table-driven CRC (1.4 GB/s) is slower than the stage chain it guards
//! (3 GB/s on the benchmark's message data), so [`Crc32::update`] has
//! two bodies:
//!
//! * **carry-less multiply** (x86-64 with PCLMULQDQ, detected at run
//!   time): four 128-bit lanes are folded forward 64 bytes per step,
//!   then reduced to 32 bits by Barrett reduction (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ");
//! * **slice-by-8** tables everywhere else, for the sub-16-byte tail of
//!   the fast path, under Miri, and when `LC_KERNELS=scalar` pins the
//!   portable kernels.
//!
//! The byte-at-a-time loop is kept as [`Crc32::update_scalar`]; the
//! differential tests assert all bodies produce identical digests at
//! every length, alignment and stream split.
//!
//! CRCs of adjacent pieces merge without touching the data again:
//! [`combine`] multiplies the left CRC by `x^(8·len)` modulo the
//! polynomial. The archive checksums each chunk once, in parallel, and
//! folds the whole-input CRC from the per-chunk values.

use crate::chunk::CHUNK_SIZE;

/// The reflected CRC-32 polynomial: bit `31 - k` holds the coefficient
/// of `x^k`.
const POLY: u32 = 0xEDB8_8320;

/// Eight lazily built 256-entry CRC tables.
///
/// `t[0]` is the classic byte-at-a-time table; `t[k][i]` extends the
/// lookup to a byte `k` positions earlier in the 8-byte word
/// (`t[k][i] = (t[k-1][i] >> 8) ^ t[0][t[k-1][i] & 0xFF]`).
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes. Digest-identical to [`Crc32::update_scalar`] at
    /// every split point, so streaming callers may mix chunk sizes
    /// freely.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        let data = if data.len() >= clmul::MIN_LEN && clmul::enabled() {
            // SAFETY: `enabled()` saw the CPU report the two features
            // `fold` is compiled for.
            let (state, tail) = unsafe { clmul::fold(self.state, data) };
            self.state = state;
            tail
        } else {
            data
        };
        self.update_table(data);
    }

    /// Slice-by-8 over the 8-byte body, byte-at-a-time over the tail.
    fn update_table(&mut self, data: &[u8]) {
        let t = tables();
        let mut state = self.state;
        let mut words = data.chunks_exact(8);
        for w in words.by_ref() {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        self.state = state;
    }

    /// Absorb bytes one at a time — the reference implementation the
    /// other bodies are differentially tested against.
    pub fn update_scalar(&mut self, data: &[u8]) {
        let t = &tables()[0];
        for &b in data {
            self.state = t[((self.state ^ u32::from(b)) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// Final digest.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// `a(x) · b(x) mod P` on reflected 32-bit polynomials.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `x^(8·len) mod P` by square-and-multiply: the operator that moves a
/// CRC past `len` further bytes.
const fn shift_operator(mut len: usize) -> u32 {
    let mut square = 1u32 << (31 - 8); // x^8
    let mut op = 1u32 << 31; // x^0
    while len != 0 {
        if len & 1 != 0 {
            op = multmodp(square, op);
        }
        square = multmodp(square, square);
        len >>= 1;
    }
    op
}

/// The operator for one full chunk, which is every [`combine`] of an
/// archive but the last.
const CHUNK_SHIFT: u32 = shift_operator(CHUNK_SIZE);

/// CRC-32 of `A ‖ B` from `crc32(A)`, `crc32(B)` and `B`'s length.
pub fn combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let shift = if len_b == CHUNK_SIZE {
        CHUNK_SHIFT
    } else {
        shift_operator(len_b)
    };
    multmodp(shift, crc_a) ^ crc_b
}

/// PCLMULQDQ folding (see the module doc). `fold` is the only entry.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input `fold` consumes anything of: four 128-bit lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants for the reflected polynomial, each
    // `x^n mod P` bit-reversed and shifted left by one: K1/K2 advance a
    // lane by 512 bits, K3/K4 by 128, K5 by 64 during the final
    // reduction; MU and P_X are the Barrett pair.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether the CPU has the instructions and nothing pins the
    /// portable path. `LC_KERNELS=scalar` is the same switch that caps
    /// the component kernels, so one scalar pass covers both.
    pub(super) fn enabled() -> bool {
        static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ENABLED.get_or_init(|| {
            std::env::var("LC_KERNELS").as_deref() != Ok("scalar")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse2")
        })
    }

    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Advance `lane` past the bits `k` encodes and absorb `next`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn step(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Absorb every whole 16-byte block of `data` into the raw
    /// (un-finalized) `state`; returns the new state and the unabsorbed
    /// tail. Inputs under [`MIN_LEN`] come back untouched.
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub(super) fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let Some((head, mut blocks)) = blocks.split_first_chunk::<4>() else {
            return (state, data);
        };
        let mut lanes = [
            load(&head[0]),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k = _mm_set_epi64x(K2, K1);
        while let Some((next, rest)) = blocks.split_first_chunk::<4>() {
            for (lane, block) in lanes.iter_mut().zip(next) {
                *lane = step(*lane, k, load(block));
            }
            blocks = rest;
        }
        // Four lanes into one, then the remaining single blocks.
        let k = _mm_set_epi64x(K4, K3);
        let mut acc = lanes[0];
        for lane in &lanes[1..] {
            acc = step(acc, k, *lane);
        }
        for block in blocks {
            acc = step(acc, k, load(block));
        }
        // 128 -> 64 bits.
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k),
        );
        let acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        );
        // Barrett reduction, 64 -> 32 bits.
        let barrett = _mm_set_epi64x(MU, P_X);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), barrett);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), barrett);
        let acc = _mm_xor_si128(acc, t);
        (_mm_cvtsi128_si32(_mm_srli_si128::<4>(acc)) as u32, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut c = Crc32::new();
        for part in data.chunks(97) {
            c.update(part);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    /// xorshift64*: deterministic pseudo-random bytes for the
    /// differential test, no RNG dependency needed.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    fn scalar(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update_scalar(data);
        c.finish()
    }

    /// `update` dispatches to carry-less multiply where the CPU has it
    /// and to the tables under `LC_KERNELS=scalar` and Miri, so one test
    /// body checks whichever path a CI pass reaches.
    #[test]
    fn update_matches_scalar_at_every_length_and_offset() {
        // 0..=300 crosses the 64-byte threshold, every count of single
        // 16-byte blocks after the four lanes, and every tail length;
        // the longer sizes run the 64-byte loop for many rounds.
        let step = if cfg!(miri) { 7 } else { 1 };
        let lens = (0..=300usize)
            .step_by(step)
            .chain(CHUNK_SIZE - 9..=CHUNK_SIZE + 9)
            .chain([100_003]);
        for len in lens {
            let data = random_bytes(0x9E37_79B9_7F4A_7C15 ^ len as u64, len + 15);
            let offsets = if len > 300 || cfg!(miri) { 0..2 } else { 0..16 };
            for offset in offsets {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), scalar(slice), "len={len} offset={offset}");
            }
        }
    }

    #[test]
    fn update_matches_scalar_across_stream_splits() {
        let data = random_bytes(42, 4096);
        let expected = scalar(&data);
        for split in [0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 79, 1000, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), expected, "split at {split}");
        }
        // Many uneven pieces, so fast-path calls follow table-path calls.
        let mut c = Crc32::new();
        let mut rest = &data[..];
        for piece in [3, 64, 1, 200, 15, 80, 1000].iter().cycle() {
            let (head, tail) = rest.split_at((*piece).min(rest.len()));
            c.update(head);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(c.finish(), expected);
    }

    #[test]
    fn combine_matches_oneshot() {
        let data = random_bytes(7, 3 * CHUNK_SIZE + 333);
        let whole = crc32(&data);
        // Random splits, both empty halves, and a chunk-sized right half
        // (the precomputed operator).
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut splits = vec![0, data.len(), data.len() - CHUNK_SIZE, 1, data.len() - 1];
        for _ in 0..50 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            splits.push(x as usize % (data.len() + 1));
        }
        for split in splits {
            let (a, b) = data.split_at(split);
            assert_eq!(
                combine(crc32(a), crc32(b), b.len()),
                whole,
                "split at {split}"
            );
        }
        assert_eq!(combine(0, 0, 0), 0);
    }

    #[test]
    fn combine_folds_chunk_crcs_with_a_short_tail() {
        let data = random_bytes(11, 5 * CHUNK_SIZE + 77);
        let folded = data
            .chunks(CHUNK_SIZE)
            .fold(0, |acc, c| combine(acc, crc32(c), c.len()));
        assert_eq!(folded, crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..4096).map(|i| (i * 7 % 256) as u8).collect();
        let reference = crc32(&data);
        for pos in (0..data.len()).step_by(127) {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[pos] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "missed flip at {pos}.{bit}");
            }
        }
    }
}
