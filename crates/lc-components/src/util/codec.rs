//! Value codecs shared by mutators and predictors: magnitude-sign (zigzag),
//! negabinary, and IEEE-754 field surgery.
//!
//! All functions operate on `u64` values masked to a `W`-byte word width
//! and are exact bijections on that domain (asserted by the property tests
//! below).

use super::words::{bits, mask};

/// Two's complement → magnitude-sign ("zigzag"): 0, −1, 1, −2, … map to
/// 0, 1, 2, 3, … so small-magnitude values get small codes (TCMS).
#[inline(always)]
pub(crate) fn to_magnitude_sign<const W: usize>(v: u64) -> u64 {
    let b = bits::<W>();
    // Sign-extend the W-byte value to 64 bits, zigzag, re-mask.
    let sx = ((v << (64 - b)) as i64) >> (64 - b);
    (((sx << 1) ^ (sx >> 63)) as u64) & mask::<W>()
}

/// Inverse of [`to_magnitude_sign`].
#[inline(always)]
pub(crate) fn from_magnitude_sign<const W: usize>(v: u64) -> u64 {
    ((v >> 1) ^ (v & 1).wrapping_neg()) & mask::<W>()
}

/// Alternating-bit mask 0b…1010 of the word width, used by the negabinary
/// conversion trick.
#[inline(always)]
pub(crate) const fn negabinary_mask<const W: usize>() -> u64 {
    0xAAAA_AAAA_AAAA_AAAAu64 & mask::<W>()
}

/// Two's complement → base −2 (negabinary) representation (TCNB):
/// `nb = (v + M) ^ M` with `M = 0b…1010`, arithmetic mod 2^bits.
#[inline(always)]
pub(crate) fn to_negabinary<const W: usize>(v: u64) -> u64 {
    let m = negabinary_mask::<W>();
    (v.wrapping_add(m) & mask::<W>()) ^ m
}

/// Inverse of [`to_negabinary`]: `v = (nb ^ M) − M`.
#[inline(always)]
pub(crate) fn from_negabinary<const W: usize>(v: u64) -> u64 {
    let m = negabinary_mask::<W>();
    (v ^ m).wrapping_sub(m) & mask::<W>()
}

/// IEEE-754 geometry for a `W`-byte float (W = 4 or 8).
pub(crate) struct FloatGeometry {
    /// Exponent field width in bits (8 or 11).
    pub exp_bits: u32,
    /// Fraction field width in bits (23 or 52).
    pub frac_bits: u32,
    /// Exponent bias (127 or 1023).
    pub bias: u64,
}

/// Geometry for `W ∈ {4, 8}`.
///
/// # Panics
///
/// Panics for other widths (DBEFS/DBESF only exist at 4 and 8 bytes).
pub(crate) const fn float_geometry<const W: usize>() -> FloatGeometry {
    match W {
        4 => FloatGeometry {
            exp_bits: 8,
            frac_bits: 23,
            bias: 127,
        },
        8 => FloatGeometry {
            exp_bits: 11,
            frac_bits: 52,
            bias: 1023,
        },
        _ => panic!("float components require W = 4 or 8"),
    }
}

/// DBEFS: de-bias the exponent and rearrange the fields from
/// (sign, exponent, fraction) to (de-biased exponent, fraction, sign).
#[inline(always)]
pub(crate) fn dbefs_encode<const W: usize>(v: u64) -> u64 {
    let g = float_geometry::<W>();
    let emask = (1u64 << g.exp_bits) - 1;
    let fmask = (1u64 << g.frac_bits) - 1;
    let s = v >> (g.exp_bits + g.frac_bits);
    let e = (v >> g.frac_bits) & emask;
    let f = v & fmask;
    let e_db = e.wrapping_sub(g.bias) & emask;
    (e_db << (g.frac_bits + 1)) | (f << 1) | s
}

/// Inverse of [`dbefs_encode`].
#[inline(always)]
pub(crate) fn dbefs_decode<const W: usize>(v: u64) -> u64 {
    let g = float_geometry::<W>();
    let emask = (1u64 << g.exp_bits) - 1;
    let fmask = (1u64 << g.frac_bits) - 1;
    let s = v & 1;
    let f = (v >> 1) & fmask;
    let e_db = (v >> (g.frac_bits + 1)) & emask;
    let e = e_db.wrapping_add(g.bias) & emask;
    (s << (g.exp_bits + g.frac_bits)) | (e << g.frac_bits) | f
}

/// DBESF: like DBEFS but rearranges to (de-biased exponent, sign, fraction).
#[inline(always)]
pub(crate) fn dbesf_encode<const W: usize>(v: u64) -> u64 {
    let g = float_geometry::<W>();
    let emask = (1u64 << g.exp_bits) - 1;
    let fmask = (1u64 << g.frac_bits) - 1;
    let s = v >> (g.exp_bits + g.frac_bits);
    let e = (v >> g.frac_bits) & emask;
    let f = v & fmask;
    let e_db = e.wrapping_sub(g.bias) & emask;
    (e_db << (g.frac_bits + 1)) | (s << g.frac_bits) | f
}

/// Inverse of [`dbesf_encode`].
#[inline(always)]
pub(crate) fn dbesf_decode<const W: usize>(v: u64) -> u64 {
    let g = float_geometry::<W>();
    let emask = (1u64 << g.exp_bits) - 1;
    let fmask = (1u64 << g.frac_bits) - 1;
    let f = v & fmask;
    let s = (v >> g.frac_bits) & 1;
    let e_db = (v >> (g.frac_bits + 1)) & emask;
    let e = e_db.wrapping_add(g.bias) & emask;
    (s << (g.exp_bits + g.frac_bits)) | (e << g.frac_bits) | f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_u8<F: Fn(u64) -> u64, G: Fn(u64) -> u64>(enc: F, dec: G) {
        for v in 0..=255u64 {
            assert_eq!(dec(enc(v)), v, "value {v}");
        }
        // Bijectivity: all encodings distinct.
        let mut seen = [false; 256];
        for v in 0..=255u64 {
            let e = enc(v) as usize;
            assert!(e < 256, "encoding escaped the width");
            assert!(!seen[e], "collision at {v}");
            seen[e] = true;
        }
    }

    #[test]
    fn magnitude_sign_exhaustive_u8() {
        exhaustive_u8(to_magnitude_sign::<1>, from_magnitude_sign::<1>);
    }

    #[test]
    fn negabinary_exhaustive_u8() {
        exhaustive_u8(to_negabinary::<1>, from_negabinary::<1>);
    }

    #[test]
    fn magnitude_sign_small_values_get_small_codes() {
        // 0 → 0, −1 → 1, 1 → 2, −2 → 3, 2 → 4 at W = 4.
        assert_eq!(to_magnitude_sign::<4>(0), 0);
        assert_eq!(to_magnitude_sign::<4>((-1i32) as u32 as u64), 1);
        assert_eq!(to_magnitude_sign::<4>(1), 2);
        assert_eq!(to_magnitude_sign::<4>((-2i32) as u32 as u64), 3);
        assert_eq!(to_magnitude_sign::<4>(2), 4);
    }

    #[test]
    fn negabinary_known_values() {
        // In base −2: 1 = 1, −1 = 11 (3), 2 = 110 (6), −2 = 10 (2).
        assert_eq!(to_negabinary::<4>(0), 0);
        assert_eq!(to_negabinary::<4>(1), 1);
        assert_eq!(to_negabinary::<4>((-1i32) as u32 as u64), 3);
        assert_eq!(to_negabinary::<4>(2), 6);
        assert_eq!(to_negabinary::<4>((-2i32) as u32 as u64), 2);
    }

    #[test]
    fn roundtrips_at_word_boundaries() {
        for v in [0u64, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF] {
            assert_eq!(from_magnitude_sign::<4>(to_magnitude_sign::<4>(v)), v);
            assert_eq!(from_negabinary::<4>(to_negabinary::<4>(v)), v);
        }
        for v in [0u64, 1, i64::MAX as u64, 1u64 << 63, u64::MAX] {
            assert_eq!(from_magnitude_sign::<8>(to_magnitude_sign::<8>(v)), v);
            assert_eq!(from_negabinary::<8>(to_negabinary::<8>(v)), v);
        }
    }

    #[test]
    fn dbefs_roundtrip_special_floats() {
        for f in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-42, // subnormal
        ] {
            let v = f.to_bits() as u64;
            assert_eq!(dbefs_decode::<4>(dbefs_encode::<4>(v)), v, "f = {f}");
            assert_eq!(dbesf_decode::<4>(dbesf_encode::<4>(v)), v, "f = {f}");
        }
        for f in [0.0f64, -1.5, f64::MAX, f64::INFINITY, f64::NAN, 5e-324] {
            let v = f.to_bits();
            assert_eq!(dbefs_decode::<8>(dbefs_encode::<8>(v)), v, "f = {f}");
            assert_eq!(dbesf_decode::<8>(dbesf_encode::<8>(v)), v, "f = {f}");
        }
    }

    #[test]
    fn dbefs_field_order() {
        // 1.0f32 = s=0, e=127, f=0. De-biased exponent = 0, so the DBEFS
        // encoding must be all-zero.
        assert_eq!(dbefs_encode::<4>(1.0f32.to_bits() as u64), 0);
        // -1.0f32: only the sign bit (now the LSB) differs.
        assert_eq!(dbefs_encode::<4>((-1.0f32).to_bits() as u64), 1);
        // DBESF puts the sign between exponent and fraction.
        assert_eq!(dbesf_encode::<4>((-1.0f32).to_bits() as u64), 1u64 << 23);
    }

    #[test]
    fn dbefs_encoding_stays_in_width() {
        for v in [0u64, u32::MAX as u64, 0x7F80_0000, 0x0080_0000] {
            assert!(dbefs_encode::<4>(v) <= u32::MAX as u64);
            assert!(dbesf_encode::<4>(v) <= u32::MAX as u64);
        }
    }
}
