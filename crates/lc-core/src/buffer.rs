//! Fresh large byte buffers, faulted in 2 MiB pages where the kernel
//! allows it.
//!
//! Every archive call returns a fresh buffer as large as its input: the
//! encoder's archive, the decoder's output, and `lc`'s whole-file read.
//! At 64 MiB such a buffer is its own mapping (above glibc's mmap
//! threshold), and filling it took one minor fault per 4 KiB page —
//! 16,385 of them, a third of a one-thread 64 MiB encode. Advising the
//! allocation's 2 MiB-aligned interior as `MADV_HUGEPAGE` before
//! anything touches it lets the kernel fault it in 2 MiB at a time
//! (DESIGN §11).
//!
//! The hint has no setting. It does nothing off Linux, under Miri, when
//! the allocation holds no aligned 2 MiB block, or when transparent huge
//! pages are off; its result is ignored either way, because the buffer
//! is the same buffer with or without it.

use std::io::Read;
use std::path::Path;

/// A transparent huge page on x86-64 and on 4 KiB-page aarch64.
const HUGE_PAGE: usize = 2 << 20;

/// An empty `Vec` with room for `capacity` bytes, hinted before first
/// touch.
pub(crate) fn with_capacity(capacity: usize) -> Vec<u8> {
    let buf = Vec::with_capacity(capacity);
    advise_huge_pages(&buf);
    buf
}

/// `len` zero bytes, hinted before first touch. A large `vec![0; len]`
/// comes from `calloc`, which maps fresh zero pages without writing
/// them, so the hint still lands before the first fault.
pub(crate) fn zeroed(len: usize) -> Vec<u8> {
    let buf = vec![0u8; len];
    advise_huge_pages(&buf);
    buf
}

/// Read a whole file into a buffer hinted before the read fills it: the
/// same as `std::fs::read`, for inputs an archive call is about to take.
/// Like it, a file too large to allocate is an error, not an abort.
pub fn read_file(path: impl AsRef<Path>) -> std::io::Result<Vec<u8>> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut buf = Vec::new();
    buf.try_reserve_exact(usize::try_from(len).unwrap_or(usize::MAX))?;
    advise_huge_pages(&buf);
    file.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Advise the 2 MiB-aligned interior of `buf`'s allocation, capacity
/// included, as `MADV_HUGEPAGE`. Pages already faulted in stay as they
/// are; the bytes, pointer, length and capacity never change.
fn advise_huge_pages(buf: &Vec<u8>) {
    let start = buf.as_ptr() as usize;
    let from = start.next_multiple_of(HUGE_PAGE);
    let to = (start + buf.capacity()) / HUGE_PAGE * HUGE_PAGE;
    if from < to {
        madvise_huge(from, to - from);
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
fn madvise_huge(addr: usize, len: usize) {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    /// `MADV_HUGEPAGE` in Linux's generic `mman-common.h`.
    const MADV_HUGEPAGE: i32 = 14;
    // SAFETY: `[addr, addr + len)` lies inside one live allocation and is
    // page-aligned. `MADV_HUGEPAGE` only sets how the kernel backs the
    // range's future faults; it neither maps, unmaps nor writes memory.
    unsafe {
        madvise(addr as *mut std::ffi::c_void, len, MADV_HUGEPAGE);
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn madvise_huge(_addr: usize, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the hint must leave alone: where the buffer is, how long it
    /// is, how much room it has, and what it holds.
    fn advise_keeps_the_buffer(mut buf: Vec<u8>, fill: usize) {
        for i in 0..fill.min(buf.capacity()) {
            buf.push((i * 31 % 251) as u8);
        }
        let (ptr, len, cap) = (buf.as_ptr(), buf.len(), buf.capacity());
        let before = buf.clone();
        advise_huge_pages(&buf);
        assert_eq!((buf.as_ptr(), buf.len(), buf.capacity()), (ptr, len, cap));
        assert_eq!(buf, before);
    }

    #[test]
    fn advising_a_small_buffer_changes_nothing() {
        advise_keeps_the_buffer(Vec::new(), 0);
        advise_keeps_the_buffer(Vec::with_capacity(100), 37);
    }

    #[test]
    #[cfg_attr(miri, ignore = "a 9 MiB fill is minutes under the interpreter")]
    fn advising_a_large_buffer_changes_nothing() {
        // 9 MiB holds at least three aligned 2 MiB blocks wherever the
        // allocation starts; half of it is written before the hint, the
        // rest is spare capacity.
        advise_keeps_the_buffer(Vec::with_capacity(9 << 20), 9 << 19);
        let zeros = zeroed(9 << 20);
        assert!(zeros.iter().all(|&b| b == 0));
        advise_keeps_the_buffer(zeros, 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "the interpreter isolates the file system")]
    fn read_file_reads_what_fs_read_reads() {
        let path = std::env::temp_dir().join(format!("lc-core-read-file-{}", std::process::id()));
        let data: Vec<u8> = (0..70_000u32).map(|i| (i % 253) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let back = read_file(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.unwrap(), data);
        assert!(read_file(std::env::temp_dir().join("lc-core-no-such-file")).is_err());
    }
}
