//! LEB128 variable-length integers for reducer framing.

use lc_core::DecodeError;

/// Append `v` as an unsigned LEB128 varint.
#[inline]
pub fn write(out: &mut Vec<u8>, v: u64) {
    // Single-byte fast path: RLE run/literal counts and reducer frame
    // fields are < 128 for almost every record, and keeping the common
    // case branch-free-inlinable keeps it off the encoder's hot-loop
    // flame graph.
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    write_slow(out, v);
}

fn write_slow(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint starting at `*pos`, advancing `*pos`.
#[inline]
pub fn read(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    // Mirror of the `write` fast path: a first byte without the
    // continuation bit is the whole value.
    if let Some(&byte) = buf.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    read_slow(buf, pos)
}

fn read_slow(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or(DecodeError::Truncated { context: "varint" })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(DecodeError::Corrupt {
                context: "varint overflow",
            });
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::Corrupt {
                context: "varint too long",
            });
        }
    }
}

/// Encoded size of `v` in bytes.
#[cfg(test)]
fn size(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write(&mut buf, v);
            assert_eq!(buf.len(), size(v), "size mismatch for {v}");
            let mut pos = 0;
            assert_eq!(read(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_fails() {
        let mut buf = Vec::new();
        write(&mut buf, 1_000_000);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(read(&buf[..cut], &mut pos).is_err());
        }
    }

    #[test]
    fn overlong_fails() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(read(&buf, &mut pos).is_err());
    }

    #[test]
    fn max_u64_roundtrip_exactly_10_bytes() {
        let mut buf = Vec::new();
        write(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn sequential_reads_advance_position() {
        let mut buf = Vec::new();
        write(&mut buf, 300);
        write(&mut buf, 5);
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos).unwrap(), 300);
        assert_eq!(read(&buf, &mut pos).unwrap(), 5);
        assert_eq!(pos, buf.len());
    }
}
