//! Adversarial input corpus for differential contract checking.
//!
//! Deterministic by construction (no RNG state outside this module): the
//! same corpus is generated on every run, so a differential failure is
//! always reproducible from the diagnostic alone. The patterns are chosen
//! to stress the claims components actually make:
//!
//! * constant / run-heavy data — best case for RLE/RRE, exercises maximal
//!   elimination paths;
//! * high-entropy data — worst case for every reducer, exercises the
//!   expansion bounds and copy-on-expand framing;
//! * smooth ramps and float ramps — the paper's scientific-data shape,
//!   exercises predictors and CLOG width selection;
//! * sign-heavy data — exercises TCMS/HCLOG magnitude-sign paths;
//! * lengths covering empty, sub-word, unaligned-tail, and full-chunk
//!   geometry for every word size up to 8.

use lc_core::CHUNK_SIZE;

/// Lengths used for the full corpus. Every word size in {1,2,4,8} sees
/// empty input, an incomplete word, an unaligned tail, and exact
/// alignment; the final entry is a full 16 kB chunk.
pub const LENGTHS: &[usize] = &[0, 1, 3, 7, 8, 9, 63, 64, 65, 255, 1000, 4096, CHUNK_SIZE];

/// Deterministic xorshift64* stream, fixed seed per pattern.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Generate all corpus inputs of length `len`, most adversarial first.
pub fn inputs(len: usize) -> Vec<Vec<u8>> {
    let mut rng = xorshift(0x9E37_79B9_7F4A_7C15 ^ len as u64);
    let mut random = vec![0u8; len];
    for b in random.iter_mut() {
        *b = rng() as u8;
    }
    let patterns: Vec<Vec<u8>> = vec![
        // High-entropy: worst case for every reducer.
        random,
        // All-zero: maximal elimination for RZE/RAZE/CLOG.
        vec![0u8; len],
        // Constant non-zero: maximal runs at every word size.
        vec![0xA5u8; len],
        // Byte ramp: no runs at word size 1, smooth at larger sizes.
        (0..len).map(|i| i as u8).collect(),
        // Alternating pair: runs of exactly 1, record-dense for RLE.
        (0..len)
            .map(|i| if i % 2 == 0 { 0x11 } else { 0xEE })
            .collect(),
        // Short runs: run/literal boundary churn (i/7 plateaus).
        (0..len).map(|i| ((i / 7) % 256) as u8).collect(),
        // u32 ramp: predictor-friendly, word-aligned structure.
        (0..len)
            .map(|i| (1000u32 + 3 * (i as u32 / 4)).to_le_bytes()[i % 4])
            .collect(),
        // f32 ramp: IEEE-754 shape for DBEFS/DBESF/HCLOG.
        (0..len)
            .map(|i| (1.0f32 + (i as f32 / 4.0) * 1e-3).to_bits().to_le_bytes()[i % 4])
            .collect(),
        // Sign-heavy: small-magnitude negatives defeat plain CLOG.
        (0..len)
            .map(|i| (-3i32 - (i as i32 / 4)).to_le_bytes()[i % 4])
            .collect(),
    ];
    patterns
}

/// The reduced corpus used for the expensive structure probes
/// (permutation reconstruction, pointwise locality): two unaligned and
/// one aligned length, large enough to cover several 8-byte tuples.
pub(crate) const PROBE_LENGTHS: &[usize] = &[64, 197, 256];

/// Near-miss refuters for the abstract interpreter's certificate checker:
/// inputs on which *almost*-sound rewrites diverge. Each entry targets a
/// family of plausible-but-wrong merges the seeded-bug harness injects:
///
/// * short random chunks (10/20 bytes) — TUPL pseudo-commutations that
///   hold on long aligned data diverge on lengths with partial tuples;
/// * `0x8000`-style sign-boundary u16 words — TCMS and TCNB agree on a
///   surprising number of small values but split at the sign boundary,
///   refuting granularity-blind bijection drops;
/// * zero words embedded in nonzero runs — refutes conflating the
///   zero pattern with the equality pattern (RLE literal words can be
///   zero; RZE cares, RLE does not);
/// * `f32` data containing exact zeros — refutes treating DBEFS/DBESF as
///   zero-fixing (the de-biased exponent of 0.0 is nonzero);
/// * sub-word and sub-tuple lengths — refutes over-wide no-op claims.
pub(crate) fn refuters() -> Vec<Vec<u8>> {
    let mut rng = xorshift(0xD1F7_0000_5EED_CAFE);
    let mut out: Vec<Vec<u8>> = Vec::new();
    for len in [10usize, 20] {
        let mut v = vec![0u8; len];
        for b in v.iter_mut() {
            *b = rng() as u8;
        }
        out.push(v);
    }
    // Sign-boundary words at every power-of-two width: 0x80, 0x8000, …
    let mut sign = Vec::with_capacity(64);
    for i in 0..8u32 {
        sign.extend_from_slice(&(0x8000u16.wrapping_add(i as u16)).to_le_bytes());
        sign.extend_from_slice(&(0x8000_0000u32 | i).to_le_bytes());
    }
    out.push(sign);
    // Zero words inside nonzero runs (and vice versa), 8-byte aligned.
    let mut holes = Vec::with_capacity(64);
    for i in 0..8u64 {
        holes.extend_from_slice(
            &(if i % 3 == 0 {
                0u64
            } else {
                0x4242_4242_4242_4242
            })
            .to_le_bytes(),
        );
    }
    out.push(holes);
    // f32 ramp with exact zeros every fourth value.
    let floats: Vec<u8> = (0..16u32)
        .map(|i| if i % 4 == 0 { 0.0f32 } else { 1.5 + i as f32 })
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    out.push(floats);
    // Sub-word / sub-tuple geometry.
    for len in [1usize, 3, 7] {
        out.push((0..len).map(|i| (0x90 + i) as u8).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(inputs(100), inputs(100));
        assert_ne!(inputs(100)[0], inputs(100)[1]);
    }

    #[test]
    fn lengths_cover_geometry() {
        assert!(LENGTHS.contains(&0));
        assert!(LENGTHS.contains(&CHUNK_SIZE));
        // Unaligned for every word size.
        for w in [2usize, 4, 8] {
            assert!(LENGTHS.iter().any(|&l| l > 0 && l % w != 0), "w={w}");
        }
    }

    #[test]
    fn patterns_have_requested_length() {
        for len in [0usize, 17, 64] {
            for p in inputs(len) {
                assert_eq!(p.len(), len);
            }
        }
    }
}
