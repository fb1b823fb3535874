//! Chunk geometry.
//!
//! LC operates on fixed 16 kB chunks: each chunk is assigned to one
//! 512-thread block on the GPU (here: one pool task), and all intra-chunk
//! state fits in shared memory. The last chunk of a file may be short.

/// Chunk size in bytes (16 kB, matching LC).
pub const CHUNK_SIZE: usize = 16 * 1024;

/// Number of chunks needed for `len` input bytes. Zero-length input has
/// zero chunks.
pub fn chunk_count(len: usize) -> usize {
    len.div_ceil(CHUNK_SIZE)
}

/// Byte range of chunk `i` within an input of `len` bytes.
///
/// # Panics
///
/// Panics if `i >= chunk_count(len)`.
pub(crate) fn chunk_range(i: usize, len: usize) -> std::ops::Range<usize> {
    let start = i * CHUNK_SIZE;
    assert!(start < len, "chunk index {i} out of range for {len} bytes");
    start..(start + CHUNK_SIZE).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_zero() {
        assert_eq!(chunk_count(0), 0);
    }

    #[test]
    fn count_exact_multiple() {
        assert_eq!(chunk_count(CHUNK_SIZE), 1);
        assert_eq!(chunk_count(4 * CHUNK_SIZE), 4);
    }

    #[test]
    fn count_with_tail() {
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(CHUNK_SIZE + 1), 2);
        assert_eq!(chunk_count(3 * CHUNK_SIZE - 1), 3);
    }

    #[test]
    fn ranges_tile_the_input() {
        let len = 5 * CHUNK_SIZE + 123;
        let n = chunk_count(len);
        let mut covered = 0;
        for i in 0..n {
            let r = chunk_range(i, len);
            assert_eq!(r.start, covered);
            covered = r.end;
            if i + 1 < n {
                assert_eq!(r.len(), CHUNK_SIZE);
            }
        }
        assert_eq!(covered, len);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_out_of_bounds_panics() {
        chunk_range(1, CHUNK_SIZE);
    }
}
