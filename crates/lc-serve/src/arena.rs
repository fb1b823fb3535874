//! Request-memory governance: the serving reuse of the campaign's
//! `--mem-budget-mb` idea.
//!
//! Every request must lease its working-set estimate from the server's
//! [`MemGovernor`] before any payload-sized allocation happens. A lease
//! that would push residency past the budget is refused — the server
//! sheds the request with a `retry_after` hint instead of growing — and
//! the chaos layer's allocation-denial faults ([`lc_chaos::alloc_allowed`])
//! inject refusals on top, so the shed path is exercised even when the
//! budget itself never fills.
//!
//! Leases are RAII ([`MemLease`]): dropping one returns its bytes, which
//! is what makes "no leaked scratch arenas" a checkable invariant —
//! after a request terminates (response, error, *or* deadline-out),
//! [`MemGovernor::resident_bytes`] must be back at its baseline. The
//! deadline table-test asserts exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use lc_telemetry::Gauge;

/// `serve.mem_resident_bytes`, resolved once per process: every lease
/// sets it, so the request path never takes the registry's lock.
fn resident_gauge() -> &'static Gauge {
    static G: OnceLock<&'static Gauge> = OnceLock::new();
    G.get_or_init(|| lc_telemetry::gauge("serve.mem_resident_bytes"))
}

/// Shared request-memory budget and residency accounting.
#[derive(Debug)]
pub struct MemGovernor {
    /// Budget in bytes; `u64::MAX` means ungoverned.
    budget: u64,
    resident: AtomicU64,
}

impl MemGovernor {
    /// A governor with a byte budget (`None` = ungoverned).
    pub fn new(budget_bytes: Option<u64>) -> Arc<Self> {
        Arc::new(Self {
            budget: budget_bytes.unwrap_or(u64::MAX),
            resident: AtomicU64::new(0),
        })
    }

    /// Bytes currently leased by in-flight requests.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The configured budget (`u64::MAX` when ungoverned).
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Try to lease `bytes` for one request. Refused when the budget
    /// would be exceeded or the chaos plan denies the admission; the
    /// caller sheds. The gauge `serve.mem_resident_bytes` tracks the
    /// post-decision level either way.
    pub(crate) fn try_lease(self: &Arc<Self>, bytes: u64) -> Option<MemLease> {
        if !lc_chaos::alloc_allowed(bytes) {
            return None;
        }
        // CAS loop: concurrent admissions must not jointly overshoot.
        let mut cur = self.resident.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(bytes)?;
            if next > self.budget {
                return None;
            }
            match self.resident.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        resident_gauge().set(self.resident_bytes());
        Some(MemLease {
            gov: Arc::clone(self),
            bytes,
        })
    }
}

/// RAII lease of request memory; dropping returns the bytes.
#[derive(Debug)]
pub(crate) struct MemLease {
    gov: Arc<MemGovernor>,
    bytes: u64,
}

impl MemLease {
    /// Grow the lease by `extra` bytes (an unpack that learned its
    /// declared output size). `false` leaves the lease unchanged — the
    /// caller sheds or errors, and the original bytes still release on
    /// drop.
    pub(crate) fn grow(&mut self, extra: u64) -> bool {
        if !lc_chaos::alloc_allowed(extra) {
            return false;
        }
        let mut cur = self.gov.resident.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(extra) {
                Some(n) if n <= self.gov.budget => n,
                _ => return false,
            };
            match self.gov.resident.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.bytes += extra;
        resident_gauge().set(self.gov.resident_bytes());
        true
    }
}

impl Drop for MemLease {
    fn drop(&mut self) {
        self.gov.resident.fetch_sub(self.bytes, Ordering::Relaxed);
        resident_gauge().set(self.gov.resident_bytes());
    }
}

#[cfg(test)]
impl MemLease {
    /// Bytes this lease currently holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_account_and_release() {
        let gov = MemGovernor::new(Some(1000));
        assert_eq!(gov.resident_bytes(), 0);
        let a = gov.try_lease(400).unwrap();
        let b = gov.try_lease(500).unwrap();
        assert_eq!(gov.resident_bytes(), 900);
        assert!(gov.try_lease(200).is_none(), "budget refuses overshoot");
        drop(a);
        assert_eq!(gov.resident_bytes(), 500);
        let c = gov.try_lease(200).unwrap();
        assert_eq!(gov.resident_bytes(), 700);
        drop(b);
        drop(c);
        assert_eq!(gov.resident_bytes(), 0, "all leases return to baseline");
    }

    #[test]
    fn grow_respects_budget() {
        let gov = MemGovernor::new(Some(1000));
        let mut lease = gov.try_lease(300).unwrap();
        assert!(lease.grow(600));
        assert_eq!(lease.bytes(), 900);
        assert!(!lease.grow(200), "grow past budget refused");
        assert_eq!(lease.bytes(), 900, "failed grow leaves lease unchanged");
        drop(lease);
        assert_eq!(gov.resident_bytes(), 0);
    }

    #[test]
    fn ungoverned_admits_everything() {
        let gov = MemGovernor::new(None);
        let lease = gov.try_lease(u64::MAX / 4).unwrap();
        drop(lease);
        assert_eq!(gov.resident_bytes(), 0);
    }
}
