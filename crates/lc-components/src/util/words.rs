//! Little-endian word views over byte buffers.
//!
//! Components operate at a word granularity `W ∈ {1,2,4,8}` bytes. All word
//! arithmetic is done in the `u64` domain masked to the word width, which
//! keeps every component a single generic implementation monomorphized per
//! `W` (one `match` per chunk, zero per word).

/// Bit width of a `W`-byte word.
pub(crate) const fn bits<const W: usize>() -> u32 {
    8 * W as u32
}

/// All-ones mask of a `W`-byte word, as `u64`.
pub const fn mask<const W: usize>() -> u64 {
    if W == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * W)) - 1
    }
}

/// Read word `i` (little-endian) from `buf`.
#[inline(always)]
pub fn get<const W: usize>(buf: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b[..W].copy_from_slice(&buf[i * W..i * W + W]);
    u64::from_le_bytes(b)
}

/// Append word `v` (little-endian, `W` bytes) to `out`.
#[inline(always)]
pub(crate) fn put<const W: usize>(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes()[..W]);
}

/// Number of complete `W`-byte words in `len` bytes.
#[inline(always)]
pub fn count<const W: usize>(len: usize) -> usize {
    len / W
}

/// Decode the complete-word region of `buf` into a `u64` vector.
pub fn to_vec<const W: usize>(buf: &[u8]) -> Vec<u64> {
    let n = count::<W>(buf.len());
    let mut v = Vec::with_capacity(n);
    for i in 0..n {
        v.push(get::<W>(buf, i));
    }
    v
}

/// Number of trailing bytes of `len` that do not form a complete word.
#[cfg(test)]
#[inline(always)]
pub(crate) fn tail_len<const W: usize>(len: usize) -> usize {
    len % W
}

/// Append all of `words` to `out`, `W` bytes each.
#[cfg(test)]
pub(crate) fn extend_from_words<const W: usize>(out: &mut Vec<u8>, words: &[u64]) {
    out.reserve(words.len() * W);
    for &w in words {
        put::<W>(out, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_bits() {
        assert_eq!(mask::<1>(), 0xFF);
        assert_eq!(mask::<2>(), 0xFFFF);
        assert_eq!(mask::<4>(), 0xFFFF_FFFF);
        assert_eq!(mask::<8>(), u64::MAX);
        assert_eq!(bits::<1>(), 8);
        assert_eq!(bits::<8>(), 64);
    }

    #[test]
    fn get_put_roundtrip_all_widths() {
        fn check<const W: usize>() {
            let values = [0u64, 1, mask::<W>(), 0x1234_5678_9ABC_DEF0 & mask::<W>()];
            let mut buf = Vec::new();
            for &v in &values {
                put::<W>(&mut buf, v);
            }
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(get::<W>(&buf, i), v, "W={W} i={i}");
            }
        }
        check::<1>();
        check::<2>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn counts_and_tails() {
        assert_eq!(count::<4>(10), 2);
        assert_eq!(tail_len::<4>(10), 2);
        assert_eq!(count::<8>(7), 0);
        assert_eq!(tail_len::<8>(7), 7);
        assert_eq!(tail_len::<1>(7), 0);
    }

    #[test]
    fn vec_roundtrip() {
        let buf: Vec<u8> = (0..20).collect();
        let words = to_vec::<4>(&buf);
        assert_eq!(words.len(), 5);
        let mut out = Vec::new();
        extend_from_words::<4>(&mut out, &words);
        assert_eq!(out, buf);
    }

    #[test]
    fn little_endian_layout() {
        let mut out = Vec::new();
        put::<4>(&mut out, 0x0403_0201);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }
}
