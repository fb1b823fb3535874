//! Vectorized inner-loop kernels with runtime CPUID dispatch.
//!
//! This module is the single audited home of every `unsafe` block in the
//! component library (an xtask lint enforces the confinement). Each
//! kernel family exposes:
//!
//! * a **portable** implementation — safe, autovectorization-shaped Rust
//!   that is also the semantic reference (Miri-clean by construction);
//! * optional **explicit SIMD** implementations (`std::arch` SSE2/AVX2)
//!   selected at runtime by CPUID detection;
//! * an `apply`-style dispatching entry point plus a `*_with(variant, …)`
//!   twin that forces a specific tier — the hook the differential tests
//!   use to prove every SIMD kernel bitwise-equal to its scalar twin;
//! * a `variant::<W>()` probe reporting which tier dispatch selects, so
//!   components can answer [`lc_core::Component::kernel_variant`] and the
//!   cost-attribution layer can tag `component.<name>.*` rows.
//!
//! # Dispatch model
//!
//! The selected tier is `min(detected, cap)` where `detected` comes from
//! `is_x86_feature_detected!` (cached) and `cap` defaults to the
//! `LC_KERNELS` environment variable (`scalar` | `sse2` | `avx2`; unset
//! means "no cap"). [`set_tier_cap`] lowers the cap at runtime — used by
//! the equivalence tests and by operators who need to pin the portable
//! path. On non-x86_64 targets everything resolves to
//! [`Variant::Scalar`].
//!
//! # Safety audit boundary
//!
//! All `unsafe` here is of exactly two shapes: (1) calling a
//! `#[target_feature]` function after the matching runtime detection
//! (the AVX2 tier is only reported when `avx2` *and* `popcnt` are both
//! detected, so AVX2 bodies may enable either), and (2) unaligned vector
//! loads/stores through raw pointers whose bounds are checked either by
//! the surrounding loop (`i + STEP <= len`) or — in the LUT-shuffle
//! bitmap kernels and the blocked bit-plane transpose — by the
//! [`vecio`] helpers, which slice their argument to exactly the vector
//! width (`&s[..32]`) on the line before the pointer is formed, so the
//! bound is a safe index check next to the access. Narrower stores (the
//! `u32` plane masks, the 8-byte `W = 1` shuffle results) are plain
//! `copy_from_slice` calls with no `unsafe` at all. Kernels never
//! allocate, never transmute, and write only into caller-provided slices
//! that are sized before the call. Everything else in the crate is
//! `#![deny(unsafe_code)]`-clean.
#![allow(unsafe_code)]

pub mod bitmap;
pub mod bitplane;
pub mod diff;
pub mod pointwise;
pub mod rle;
pub mod tuple;

pub use lc_core::KernelVariant as Variant;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Sentinel: the runtime cap has not been set, fall back to `LC_KERNELS`.
const CAP_UNSET: u8 = u8::MAX;

static CAP: AtomicU8 = AtomicU8::new(CAP_UNSET);
static ENV_CAP: OnceLock<Variant> = OnceLock::new();
static DETECTED: OnceLock<Variant> = OnceLock::new();

fn to_u8(v: Variant) -> u8 {
    match v {
        Variant::Scalar => 0,
        Variant::Sse2 => 1,
        Variant::Avx2 => 2,
    }
}

fn from_u8(v: u8) -> Variant {
    match v {
        0 => Variant::Scalar,
        1 => Variant::Sse2,
        _ => Variant::Avx2,
    }
}

/// Strongest tier the running CPU supports (cached CPUID probe).
fn detected() -> Variant {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // Every AVX2 part also has POPCNT; requiring it here lets
            // AVX2 bodies count bitmap bits with one instruction.
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                Variant::Avx2
            } else if std::arch::is_x86_feature_detected!("sse2") {
                Variant::Sse2
            } else {
                Variant::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Variant::Scalar
    })
}

/// Cap requested through the `LC_KERNELS` environment variable.
fn env_cap() -> Variant {
    *ENV_CAP.get_or_init(|| match std::env::var("LC_KERNELS").as_deref() {
        Ok("scalar") => Variant::Scalar,
        Ok("sse2") => Variant::Sse2,
        // Unset, "avx2", or anything unrecognized: no cap. An unknown
        // value must not silently disable SIMD in production.
        _ => Variant::Avx2,
    })
}

/// The kernel tier dispatch resolves to on this machine right now:
/// `min(detected CPU features, configured cap)`.
pub fn tier() -> Variant {
    let cap = match CAP.load(Ordering::Relaxed) {
        CAP_UNSET => env_cap(),
        v => from_u8(v),
    };
    detected().min(cap)
}

/// Cap the dispatch tier at runtime, overriding `LC_KERNELS`.
///
/// `set_tier_cap(Variant::Scalar)` forces every kernel onto the portable
/// path; `set_tier_cap(Variant::Avx2)` removes the cap (detection still
/// applies). Takes effect for all subsequent kernel calls process-wide.
pub fn set_tier_cap(cap: Variant) {
    CAP.store(to_u8(cap), Ordering::Relaxed);
}

/// Run `f` with the dispatch cap at `cap`, then put the previous cap
/// back. The cap is process-wide and `cargo test` runs tests on parallel
/// threads, so every test that moves it goes through this lock.
#[cfg(test)]
pub(crate) fn with_tier_cap<R>(cap: Variant, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = CAP.swap(to_u8(cap), Ordering::Relaxed);
    let r = f();
    CAP.store(before, Ordering::Relaxed);
    r
}

/// Every tier currently reachable through dispatch, weakest first.
///
/// The differential tests iterate this list to compare each reachable
/// SIMD tier against the portable reference on the same inputs.
pub fn available() -> Vec<Variant> {
    let mut v = vec![Variant::Scalar];
    if tier() >= Variant::Sse2 {
        v.push(Variant::Sse2);
    }
    if tier() >= Variant::Avx2 {
        v.push(Variant::Avx2);
    }
    v
}

/// Unaligned vector loads and stores that carry their own bound: each
/// helper slices its argument to the vector width before forming the
/// pointer, so a caller can only ever get a panic, never an
/// out-of-bounds access.
#[cfg(target_arch = "x86_64")]
pub(crate) mod vecio {
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn load128(s: &[u8]) -> __m128i {
        let s = &s[..16];
        // safety: `s` is exactly 16 readable bytes; `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn store128(d: &mut [u8], v: __m128i) {
        let d = &mut d[..16];
        // safety: `d` is exactly 16 writable bytes.
        unsafe { _mm_storeu_si128(d.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn load256(s: &[u8]) -> __m256i {
        let s = &s[..32];
        // safety: `s` is exactly 32 readable bytes.
        unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn store256(d: &mut [u8], v: __m256i) {
        let d = &mut d[..32];
        // safety: `d` is exactly 32 writable bytes.
        unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_never_exceeds_detection_and_cap_lowers_it() {
        assert!(tier() <= detected());
        with_tier_cap(Variant::Scalar, || {
            assert_eq!(tier(), Variant::Scalar);
            // set_tier_cap(Avx2) overrides LC_KERNELS entirely (docs above).
            set_tier_cap(Variant::Avx2);
            assert_eq!(tier(), detected());
            // The env-derived default: other tests in this binary
            // dispatch, and an LC_KERNELS pin must keep applying to them.
            CAP.store(CAP_UNSET, Ordering::Relaxed);
            assert_eq!(tier(), detected().min(env_cap()));
        });
    }

    #[test]
    fn available_is_monotone_from_scalar() {
        let avail = available();
        assert_eq!(avail[0], Variant::Scalar);
        for pair in avail.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
