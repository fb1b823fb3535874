//! MSB-first bit packing.
//!
//! Used by BIT (bit-plane transpose), CLOG/HCLOG (width-limited value
//! packing), and RARE/RAZE (k-bit upper-part packing). Bits are written
//! most-significant-first into consecutive bytes; a final partial byte is
//! zero-padded.

use lc_core::DecodeError;

/// Streaming MSB-first bit writer appending to a `Vec<u8>`.
pub(crate) struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    /// Bits currently buffered in `acc` (< 8 after every `put`).
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    /// Start writing at the current end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Append the low `width` bits of `v` (MSB of the field first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 57` is combined with buffered bits that would
    /// overflow the accumulator; callers never exceed 64-bit fields split
    /// below that bound (enforced by an assert).
    #[inline]
    pub(crate) fn put(&mut self, v: u64, width: u32) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let v = if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        };
        if width > 56 {
            // Split so the accumulator (max 7 buffered bits) cannot overflow.
            self.put(v >> 32, width - 32);
            self.put(v & 0xFFFF_FFFF, 32);
            return;
        }
        self.acc = (self.acc << width) | v;
        self.nbits += width;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Flush a trailing partial byte (zero-padded).
    pub fn finish(mut self) {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
            self.nbits = 0;
        }
    }
}

/// Streaming MSB-first bit reader over a byte slice.
pub(crate) struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Read `width` bits (MSB-first). Fails on exhausted input.
    #[inline]
    pub fn get(&mut self, width: u32) -> Result<u64, DecodeError> {
        debug_assert!(width <= 64);
        if width == 0 {
            return Ok(0);
        }
        if width > 56 {
            let hi = self.get(width - 32)?;
            let lo = self.get(32)?;
            return Ok((hi << 32) | lo);
        }
        while self.nbits < width {
            let byte = *self.buf.get(self.pos).ok_or(DecodeError::Truncated {
                context: "bit stream",
            })?;
            self.pos += 1;
            self.acc = (self.acc << 8) | u64::from(byte);
            self.nbits += 8;
        }
        self.nbits -= width;
        let v = (self.acc >> self.nbits)
            & if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
        Ok(v)
    }
}

/// Bytes needed for `bits` packed bits.
pub(crate) const fn bytes_for_bits(bits: u64) -> u64 {
    bits.div_ceil(8)
}

#[cfg(test)]
impl BitWriter<'_> {
    /// Append a single bit.
    #[inline]
    pub(crate) fn put_bit(&mut self, bit: bool) {
        self.put(u64::from(bit), 1);
    }
}

#[cfg(test)]
impl BitReader<'_> {
    /// Read a single bit.
    #[inline]
    pub(crate) fn get_bit(&mut self) -> Result<bool, DecodeError> {
        Ok(self.get(1)? != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let fields: Vec<(u64, u32)> = vec![
            (1, 1),
            (0, 1),
            (0b101, 3),
            (0xFF, 8),
            (0x1234, 16),
            (0xDEAD_BEEF, 32),
            (u64::MAX, 64),
            (0x0FFF_FFFF_FFFF_FFFF, 60),
            (0, 64),
            (1, 57),
        ];
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for &(v, width) in &fields {
            w.put(v, width);
        }
        w.finish();
        let mut r = BitReader::new(&buf);
        for &(v, width) in &fields {
            assert_eq!(r.get(width).unwrap(), v, "width {width}");
        }
    }

    #[test]
    fn zero_width_is_noop() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        w.put(123, 0);
        w.finish();
        assert!(buf.is_empty());
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get(0).unwrap(), 0);
    }

    #[test]
    fn exhausted_reader_errors() {
        let buf = [0xABu8];
        let mut r = BitReader::new(&buf);
        assert!(r.get(8).is_ok());
        assert!(r.get(1).is_err());
    }

    #[test]
    fn partial_final_byte_zero_padded() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        w.put(0b1, 1);
        w.finish();
        assert_eq!(buf, vec![0b1000_0000]);
    }

    #[test]
    fn bit_helpers() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for i in 0..16 {
            w.put_bit(i % 3 == 0);
        }
        w.finish();
        let mut r = BitReader::new(&buf);
        for i in 0..16 {
            assert_eq!(r.get_bit().unwrap(), i % 3 == 0);
        }
    }

    #[test]
    fn bytes_for_bits_rounds_up() {
        assert_eq!(bytes_for_bits(0), 0);
        assert_eq!(bytes_for_bits(1), 1);
        assert_eq!(bytes_for_bits(8), 1);
        assert_eq!(bytes_for_bits(9), 2);
    }

    #[test]
    fn many_random_fields_roundtrip() {
        // Deterministic LCG so the test needs no rand dependency here.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let fields: Vec<(u64, u32)> = (0..10_000)
            .map(|_| {
                let width = (next() % 64 + 1) as u32;
                let v = next()
                    & if width == 64 {
                        u64::MAX
                    } else {
                        (1 << width) - 1
                    };
                (v, width)
            })
            .collect();
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for &(v, width) in &fields {
            w.put(v, width);
        }
        w.finish();
        let mut r = BitReader::new(&buf);
        for &(v, width) in &fields {
            assert_eq!(r.get(width).unwrap(), v);
        }
    }
}
