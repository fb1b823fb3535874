//! The adversarial inputs the kernel test binaries share: byte lengths
//! around every vector-block boundary, and byte patterns that hit each
//! kernel's special cases (zeros, constants, ramps, alternations, float
//! shapes, high entropy).

/// Byte lengths covering empty, sub-word, odd tails, and ±1 around the
/// 16/32/64/96-byte SSE2/AVX2 block boundaries.
pub const LENGTHS: &[usize] = &[
    0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 256, 257,
    1000, 1024,
];

/// Deterministic xorshift64* stream (same construction as the lc-analyze
/// corpus, which this crate cannot depend on).
pub fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Adversarial byte patterns of length `len`.
pub fn patterns(len: usize) -> Vec<Vec<u8>> {
    let mut rng = xorshift(0x9E37_79B9_7F4A_7C15 ^ len as u64);
    let mut random = vec![0u8; len];
    for b in random.iter_mut() {
        *b = rng() as u8;
    }
    vec![
        random,
        vec![0u8; len],
        vec![0xFFu8; len],
        vec![0xA5u8; len],
        (0..len).map(|i| i as u8).collect(),
        (0..len)
            .map(|i| if i % 2 == 0 { 0x11 } else { 0xEE })
            .collect(),
        (0..len).map(|i| ((i / 7) % 256) as u8).collect(),
        (0..len)
            .map(|i| (1.0f32 + (i as f32 / 4.0) * 1e-3).to_bits().to_le_bytes()[i % 4])
            .collect(),
        (0..len)
            .map(|i| (-3i32 - (i as i32 / 4)).to_le_bytes()[i % 4])
            .collect(),
    ]
}
