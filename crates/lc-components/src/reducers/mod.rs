//! Reducers: the only components that can compress (paper §3.2.4).
//!
//! Every reducer operates on the complete `W`-byte words of its chunk and
//! shares a small frame so its decoder can recover the original chunk
//! geometry (which is *not* implied by the encoded length):
//!
//! ```text
//! varint  n_words       complete words in the original chunk
//! u8      tail_len      trailing bytes (< W) that form no complete word
//! bytes   tail          those bytes, verbatim
//! bytes   body          reducer-specific payload
//! ```
//!
//! The framework skips a reducer on any chunk where its output is not
//! strictly smaller than its input (copy-on-expand), so reducers may
//! freely "fail" to compress — the frame overhead then simply makes the
//! chunk expand and the stage is dropped for that chunk.

pub(crate) mod clog;
pub mod rare;
pub mod rle;
pub mod rre;

pub use clog::{Clog, Hclog};
pub use rare::{Rare, Raze};
pub(crate) use rle::Rle;
pub use rre::{Rre, Rze};

use lc_core::{DecodeError, KernelStats};

use crate::util::varint;
use crate::util::words;

/// Write the shared reducer frame; returns the number of complete words.
pub(crate) fn write_frame<const W: usize>(input: &[u8], out: &mut Vec<u8>) -> usize {
    let n = words::count::<W>(input.len());
    let tail = &input[n * W..];
    varint::write(out, n as u64);
    out.push(tail.len() as u8);
    out.extend_from_slice(tail);
    n
}

/// Parsed reducer frame.
pub(crate) struct Frame<'a> {
    /// Number of complete words encoded in the body.
    pub n_words: usize,
    /// Verbatim trailing bytes to re-append after the decoded words.
    pub tail: &'a [u8],
    /// Offset where the reducer-specific body starts.
    pub body: usize,
}

/// Read the shared reducer frame starting at offset 0 of `buf`.
pub(crate) fn read_frame<const W: usize>(buf: &[u8]) -> Result<Frame<'_>, DecodeError> {
    let mut pos = 0usize;
    let n_words = varint::read(buf, &mut pos)? as usize;
    let tail_len = *buf.get(pos).ok_or(DecodeError::Truncated {
        context: "reducer tail length",
    })? as usize;
    pos += 1;
    if tail_len >= W {
        return Err(DecodeError::Corrupt {
            context: "reducer tail length >= word size",
        });
    }
    if pos + tail_len > buf.len() {
        return Err(DecodeError::Truncated {
            context: "reducer tail bytes",
        });
    }
    // Guard against absurd word counts that would make decoders allocate
    // unbounded memory from a corrupt varint.
    if n_words > lc_core::CHUNK_SIZE * 2 {
        return Err(DecodeError::Corrupt {
            context: "reducer word count",
        });
    }
    let tail = &buf[pos..pos + tail_len];
    Ok(Frame {
        n_words,
        tail,
        body: pos + tail_len,
    })
}

/// Account the Θ(log n)-span output-compaction scan that compressing GPU
/// reducers perform when gathering their survivors (paper Table 2).
pub(crate) fn account_compaction_scan(stats: &mut KernelStats, n_words: usize) {
    if n_words > 1 {
        let steps = (n_words as u64).ilog2() as u64 + 1;
        stats.scan_steps += steps;
        stats.block_syncs += steps;
        stats.warp_shuffles += n_words as u64;
        stats.atomic_ops += 1; // block aggregate publication
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let input: Vec<u8> = (0..23).collect(); // 5 u32 words + 3 tail bytes
        let mut out = Vec::new();
        let n = write_frame::<4>(&input, &mut out);
        assert_eq!(n, 5);
        let f = read_frame::<4>(&out).unwrap();
        assert_eq!(f.n_words, 5);
        assert_eq!(f.tail, &input[20..]);
        assert_eq!(f.body, out.len());
    }

    #[test]
    fn frame_empty_input() {
        let mut out = Vec::new();
        let n = write_frame::<8>(&[], &mut out);
        assert_eq!(n, 0);
        let f = read_frame::<8>(&out).unwrap();
        assert_eq!(f.n_words, 0);
        assert!(f.tail.is_empty());
    }

    #[test]
    fn frame_rejects_truncation() {
        let input: Vec<u8> = (0..23).collect();
        let mut out = Vec::new();
        write_frame::<4>(&input, &mut out);
        assert!(read_frame::<4>(&out[..0]).is_err());
        assert!(read_frame::<4>(&out[..1]).is_err());
        assert!(read_frame::<4>(&out[..3]).is_err());
    }

    #[test]
    fn frame_rejects_oversized_tail() {
        // tail_len = 7 is invalid for W = 4.
        let buf = [0u8, 7, 1, 2, 3, 4, 5, 6, 7];
        assert!(read_frame::<4>(&buf).is_err());
    }

    #[test]
    fn frame_rejects_absurd_word_count() {
        let mut buf = Vec::new();
        varint::write(&mut buf, u32::MAX as u64);
        buf.push(0);
        assert!(read_frame::<4>(&buf).is_err());
    }

    #[test]
    fn compaction_scan_accounting() {
        let mut s = KernelStats::new();
        account_compaction_scan(&mut s, 1);
        assert_eq!(s, KernelStats::default(), "single word needs no scan");
        account_compaction_scan(&mut s, 4096);
        assert_eq!(s.scan_steps, 13);
        assert_eq!(s.block_syncs, 13);
        assert_eq!(s.atomic_ops, 1);
    }
}
