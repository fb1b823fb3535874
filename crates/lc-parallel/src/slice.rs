//! Disjoint-index shared slice writes.
//!
//! GPU kernels routinely have every thread block write its own disjoint
//! region of a shared output buffer. Safe Rust has no direct equivalent for
//! dynamically-scheduled indices, so [`DisjointSlice`] provides the minimal
//! unsafe core: a `Sync` wrapper over `&mut [T]` whose `get_mut` hands out
//! raw disjoint element access. The (small) proof obligation is on the
//! caller: no index may be accessed by two tasks.

use std::cell::UnsafeCell;

/// A shared view over a mutable slice permitting concurrent writes to
/// *disjoint* indices.
///
/// # Safety contract
///
/// [`DisjointSlice::get_mut`] is `unsafe`: callers must guarantee that no
/// index is handed to two concurrently running tasks. [`crate::Pool::run`]
/// provides exactly that guarantee (each index claimed once), which is why
/// `Pool::map` can use this soundly.
pub struct DisjointSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: `DisjointSlice` only exposes element access through the unsafe
// `get_mut`, whose contract forbids aliased concurrent access. `T: Send` is
// required because elements are written from other threads.
unsafe impl<'a, T: Send> Sync for DisjointSlice<'a, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap a mutable slice. The borrow is held for `'a`, so the original
    /// slice is inaccessible while the wrapper lives.
    pub fn new(slice: &'a mut [T]) -> Self {
        let len = slice.len();
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<T>;
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, and we
        // hold the unique borrow of the slice for 'a.
        let data = unsafe { std::slice::from_raw_parts(ptr, len) };
        Self { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Obtain a mutable reference to element `i`.
    ///
    /// # Safety
    ///
    /// The caller must ensure `i` is not accessed (read or written) by any
    /// other thread while the returned reference is live, and that no two
    /// calls with the same `i` overlap.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.data[i].get()
    }

    /// Obtain a mutable view of the elements in `range` — one task's
    /// region of a shared output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within the slice.
    ///
    /// # Safety
    ///
    /// The caller must ensure no element of `range` is accessed (read or
    /// written) by any other thread, or through another view, while the
    /// returned slice is live.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        let cells = &self.data[range];
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so
        // `cells` is `cells.len()` contiguous `T`s that may be mutated
        // through a shared reference; the caller guarantees exclusivity.
        std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn parallel_disjoint_writes_land() {
        let mut v = vec![0usize; 4096];
        {
            let cells = DisjointSlice::new(&mut v);
            Pool::new(8).run(4096, |i| unsafe { *cells.get_mut(i) = i + 1 });
        }
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i + 1);
        }
    }

    #[test]
    fn parallel_disjoint_regions_land() {
        let mut v = vec![0usize; 4096 + 5];
        {
            let cells = DisjointSlice::new(&mut v);
            Pool::new(8).run(65, |i| {
                let end = (i * 64 + 64).min(cells.len());
                unsafe { cells.slice_mut(i * 64..end) }.fill(i + 1);
            });
        }
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i / 64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn region_past_the_end_panics() {
        let mut v = vec![0u8; 8];
        let cells = DisjointSlice::new(&mut v);
        let _ = unsafe { cells.slice_mut(4..9) };
    }

    #[test]
    fn len_and_empty() {
        let mut v = vec![1u8; 3];
        let s = DisjointSlice::new(&mut v);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let mut e: Vec<u8> = vec![];
        let s = DisjointSlice::new(&mut e);
        assert!(s.is_empty());
    }
}
