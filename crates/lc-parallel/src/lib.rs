//! Chunk-parallel execution substrate for the LC reproduction.
//!
//! The GPU version of LC assigns one 16 kB chunk to each 512-thread block
//! and synchronizes the blocks' output placement with a single-pass
//! decoupled look-back prefix scan (Merrill & Garland, NVR-2016-002).
//! This crate provides the CPU equivalents used by `lc-core`:
//!
//! * [`Pool`] — a fixed-size scoped thread pool with dynamic (atomic
//!   work-index) scheduling, standing in for the GPU's block scheduler;
//! * [`LookbackScan`] — a faithful decoupled look-back scan used by the
//!   encoder to compute compressed-chunk output offsets in one pass;
//! * [`DisjointSlice`] — a sound disjoint-index writer so that each task
//!   can fill exactly one slot of a shared output slice without locks.
//!
//! All atomics use the acquire/release protocol described in
//! "Rust Atomics and Locks" ch. 3: a publisher performs its payload writes
//! before a `Release` status store, and consumers `Acquire`-load the status
//! before reading the payload.

pub mod cancel;
pub mod pool;
pub mod scan;
pub mod slice;

pub use cancel::{signal_count, CancelToken, SignalWatchError};
pub use pool::Pool;
pub use scan::LookbackScan;
pub use slice::DisjointSlice;

/// Default worker count: the machine's available parallelism, clamped to
/// `[1, 32]` so oversubscribed CI machines do not thrash.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 32)
}

/// Deliver `SIGKILL` to the current process and never return.
///
/// This is the muscle behind `lc-chaos`'s `Site::UnitBoundary` kill
/// fault: the chaos crate (which forbids `unsafe`) only *schedules* the
/// kill; the campaign executor calls this to actually die. SIGKILL
/// cannot be caught or blocked, so the process ends exactly as if an
/// external `kill -9` had struck — no destructors, no atexit, no
/// buffered-write flushes. On non-unix targets it degrades to
/// `abort()`, which has the same "no cleanup runs" property.
#[cfg(unix)]
pub fn raise_sigkill() -> ! {
    extern "C" {
        fn raise(signum: i32) -> i32;
    }
    loop {
        // SAFETY: `raise(2)` is async-signal-safe and takes no pointers;
        // SIGKILL (9) is a valid signal number. The loop guards against
        // the (theoretical) window between raise returning and delivery.
        unsafe {
            raise(9);
        }
        std::thread::yield_now();
    }
}

/// Non-unix fallback: abort. Same contract — the process dies without
/// running any cleanup.
#[cfg(not(unix))]
pub fn raise_sigkill() -> ! {
    std::process::abort()
}

/// Extract a human-readable message from a `catch_unwind` payload.
///
/// Panic payloads are `&str` for `panic!("literal")` and `String` for
/// formatted panics; anything else (custom `panic_any` values) degrades to
/// a fixed marker rather than dropping the event.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

// The §4 Listing 1 warp-64 port, kept as its bug test.
#[cfg(test)]
mod warp;
