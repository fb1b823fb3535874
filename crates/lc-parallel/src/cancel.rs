//! Cooperative cancellation for long fan-out jobs.
//!
//! A [`CancelToken`] is a cloneable flag that workers poll between task
//! claims. Cancellation is *cooperative*: nothing is interrupted
//! mid-task — a worker finishes the unit it holds, observes the token at
//! its next claim, and stops. That granularity is exactly what the
//! campaign runner needs: every completed unit has already been
//! journaled, so a cancelled campaign is simply a resumable one.
//!
//! Tokens can additionally carry a **deadline** ([`CancelToken::with_deadline`]):
//! once the instant passes, the token reads as cancelled at every poll.
//! This is how `lc-serve` bounds per-request work — the request's stage
//! loop and the pool's claim loop both poll the same token, so a blown
//! deadline stops chunk fan-out at the next claim boundary.
//!
//! [`CancelToken::watching_signals`] additionally arms the token on
//! SIGINT/SIGTERM via a process-global flag set from an async-signal-safe
//! handler (one atomic store plus one atomic increment). The handler
//! installation is **shared and idempotent**: any number of subsystems
//! (`reproduce`, `lc serve`) may request it, the first call installs, and
//! every later call reuses the same registration. If some *other* code
//! already installed a foreign SIGINT/SIGTERM handler, installation fails
//! with a descriptive [`SignalWatchError`] instead of silently clobbering
//! it; a signal the process inherited as *ignored* (`nohup`, shell
//! background jobs) is respected per-signal — it stays ignored while the
//! rest are watched. The handler also counts deliveries ([`signal_count`]), which is
//! what lets a draining server treat a second Ctrl-C as "stop waiting,
//! exit now".

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set by the signal handler; read by every signal-watching token.
static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);
/// Number of SIGINT/SIGTERM deliveries since handler installation.
static SIGNAL_COUNT: AtomicU64 = AtomicU64::new(0);

/// Installing the shared SIGINT/SIGTERM handler failed because a foreign
/// handler is already registered for `signal`.
///
/// The install never clobbers an existing registration: whoever owns the
/// process's signal disposition keeps it, and the caller gets this error
/// to surface ("cannot watch signals: ...") instead of UB or a silent
/// double-install race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalWatchError {
    /// The signal whose disposition conflicted (2 = SIGINT, 15 = SIGTERM).
    pub signal: i32,
}

impl fmt::Display for SignalWatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.signal {
            2 => "SIGINT",
            15 => "SIGTERM",
            other => return write!(f, "a conflicting handler is installed for signal {other}"),
        };
        write!(
            f,
            "a conflicting {name} handler is already installed by other code; \
             refusing to replace it (signal watching is shared — install it \
             through lc-parallel everywhere or nowhere)"
        )
    }
}

impl std::error::Error for SignalWatchError {}

#[cfg(unix)]
mod sys {
    use super::{SignalWatchError, SIGNAL_COUNT, SIGNAL_FLAG};
    use std::sync::atomic::Ordering;
    use std::sync::Mutex;

    pub(super) const SIGINT: i32 = 2;
    pub(super) const SIGTERM: i32 = 15;

    /// POSIX `SIG_DFL`. (`SIG_IGN` is 1; anything else is a handler.)
    const SIG_DFL: usize = 0;
    /// POSIX `SIG_IGN`: the signal is deliberately ignored.
    const SIG_IGN: usize = 1;
    /// POSIX `signal(2)` error return (`SIG_ERR`, i.e. `-1`).
    const SIG_ERR: usize = usize::MAX;

    /// Async-signal-safe by construction: the body is two lock-free
    /// atomic ops (no allocation, no locks, no formatting).
    pub(super) extern "C" fn handle_signal(_signum: i32) {
        SIGNAL_FLAG.store(true, Ordering::SeqCst);
        SIGNAL_COUNT.fetch_add(1, Ordering::SeqCst);
    }

    extern "C" {
        // POSIX `signal(2)`, declared locally to avoid a libc
        // dependency. The handler and the returned previous handler are
        // both pointer-sized.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Whether installation already succeeded. A `Mutex` (not `Once`)
    /// so concurrent first-installs serialize and a failed attempt can
    /// be retried after the conflict is resolved.
    static INSTALLED: Mutex<bool> = Mutex::new(false);

    /// Classify the previous disposition `signal(2)` returned: only the
    /// default disposition (or our own handler, for an idempotent
    /// re-install) may be replaced. Foreign handlers are conflicts;
    /// `SIG_IGN` is neither (see [`respected`]).
    pub(super) fn replaceable(prev: usize) -> bool {
        prev == SIG_DFL || prev == handle_signal as *const () as usize
    }

    /// `SIG_IGN` is a deliberate disposition the process inherited —
    /// `nohup`, or a non-interactive shell backgrounding a job sets
    /// SIGINT to ignore. The POSIX convention is to honor it: leave the
    /// signal ignored rather than either clobbering it or refusing the
    /// whole install (a backgrounded `lc serve &` must still drain on
    /// SIGTERM even though its SIGINT arrives ignored).
    pub(super) fn respected(prev: usize) -> bool {
        prev == SIG_IGN
    }

    pub(super) fn install_handlers() -> Result<(), SignalWatchError> {
        let mut installed = INSTALLED.lock().unwrap_or_else(|p| p.into_inner());
        if *installed {
            return Ok(());
        }
        for sig in [SIGINT, SIGTERM] {
            let prev = unsafe { signal(sig, handle_signal as *const () as usize) };
            if prev == SIG_ERR || respected(prev) || !replaceable(prev) {
                // Restore whatever was there (best-effort for SIG_ERR,
                // where nothing was changed).
                if prev != SIG_ERR {
                    unsafe { signal(sig, prev) };
                }
                if prev != SIG_ERR && respected(prev) {
                    // Inherited-ignored: keep it ignored, keep going —
                    // the other signals still arm the flag.
                    continue;
                }
                // Foreign handler (or SIG_ERR): report which signal
                // conflicted. A SIGINT already swapped to our handler
                // stays ours only if it was replaceable, which the loop
                // order guarantees.
                return Err(SignalWatchError { signal: sig });
            }
        }
        *installed = true;
        Ok(())
    }

    /// Tear down for unit tests only: restore the default disposition so
    /// a test can exercise the first-install and conflict paths.
    #[cfg(test)]
    pub(super) fn reset_for_test() {
        let mut installed = INSTALLED.lock().unwrap_or_else(|p| p.into_inner());
        unsafe {
            signal(SIGINT, SIG_DFL);
            signal(SIGTERM, SIG_DFL);
        }
        *installed = false;
        SIGNAL_FLAG.store(false, Ordering::SeqCst);
        SIGNAL_COUNT.store(0, Ordering::SeqCst);
    }

    /// Install a foreign (non-lc) handler, for conflict tests.
    #[cfg(test)]
    pub(super) fn install_foreign_for_test(sig: i32) {
        extern "C" fn foreign(_signum: i32) {}
        unsafe {
            signal(sig, foreign as *const () as usize);
        }
    }

    /// Set `SIG_IGN`, simulating the disposition a backgrounded job
    /// inherits from a non-interactive shell (or `nohup`).
    #[cfg(test)]
    pub(super) fn set_ignored_for_test(sig: i32) {
        unsafe {
            signal(sig, SIG_IGN);
        }
    }

    /// Query the current disposition without changing it (set + restore).
    #[cfg(test)]
    pub(super) fn disposition_for_test(sig: i32) -> usize {
        let prev = unsafe { signal(sig, SIG_DFL) };
        unsafe { signal(sig, prev) };
        prev
    }

    /// Address of our shared handler, for disposition assertions.
    #[cfg(test)]
    pub(super) fn own_handler_addr() -> usize {
        handle_signal as *const () as usize
    }
}

#[cfg(not(unix))]
mod sys {
    pub(super) fn install_handlers() -> Result<(), super::SignalWatchError> {
        Ok(())
    }
}

/// Number of SIGINT/SIGTERM deliveries observed by the shared handler
/// since installation. `0` until the first signal; a drain loop that
/// sees this reach `2` knows the operator pressed Ctrl-C again and wants
/// out *now*.
pub fn signal_count() -> u64 {
    SIGNAL_COUNT.load(Ordering::SeqCst)
}

/// A cloneable cancellation flag polled by [`crate::Pool`] workers
/// between task claims. All clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    watch_signals: bool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only trips via [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally trips once `deadline` passes. The
    /// deadline is evaluated lazily at each [`is_cancelled`]
    /// (Self::is_cancelled) poll — there is no timer thread.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// A clone sharing this token's flag (and signal watch) but with its
    /// own `deadline`: tripping the parent trips the child, and the
    /// child additionally trips when its deadline passes. This is the
    /// request-scoped shape `lc-serve` uses — one server-wide abort
    /// token, one deadline per request.
    pub fn child_with_deadline(&self, deadline: Instant) -> Self {
        Self {
            flag: Arc::clone(&self.flag),
            watch_signals: self.watch_signals,
            deadline: Some(deadline),
        }
    }

    /// A token that additionally trips when the process receives SIGINT
    /// or SIGTERM. The process-global handler is installed on first use,
    /// shared by every later caller, and **never replaces a foreign
    /// handler**: if other code already owns the signal disposition this
    /// returns a [`SignalWatchError`] instead of racing it.
    pub fn watching_signals() -> Result<Self, SignalWatchError> {
        sys::install_handlers()?;
        Ok(Self {
            flag: Arc::new(AtomicBool::new(false)),
            watch_signals: true,
            deadline: None,
        })
    }

    /// Trip the token: workers stop at their next claim.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested — manually, by a passed
    /// deadline, or (for a signal-watching token) by SIGINT/SIGTERM.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || (self.watch_signals && SIGNAL_FLAG.load(Ordering::Relaxed))
            || self.deadline_exceeded()
    }

    /// Whether this token's deadline (if any) has passed. Distinguishes
    /// "request ran out of time" from "server is shutting down" when
    /// both share a flag via [`child_with_deadline`](Self::child_with_deadline).
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The token's deadline, if it carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

#[cfg(test)]
impl CancelToken {
    /// Whether this token's cancellation came from a signal rather than
    /// a manual [`cancel`](Self::cancel) call or a deadline.
    pub(crate) fn cancelled_by_signal(&self) -> bool {
        self.watch_signals && SIGNAL_FLAG.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Signal installation state is process-global; every test that
    /// installs, resets, or fires handlers holds this lock.
    static SIGNAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SIGNAL_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn manual_cancel_trips_all_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled() && !u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
        assert!(!t.cancelled_by_signal(), "manual cancel is not a signal");
        assert!(!t.deadline_exceeded(), "manual cancel is not a deadline");
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        a.cancel();
        let b = CancelToken::new();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn past_deadline_reads_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(t.deadline_exceeded());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
        assert!(!future.deadline_exceeded());
        assert!(future.deadline().is_some());
    }

    #[test]
    fn child_deadline_shares_parent_flag() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled(), "parent cancel reaches the child");
        assert!(!child.deadline_exceeded(), "but not via the deadline");

        let parent = CancelToken::new();
        let expired = parent.child_with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        assert!(!parent.is_cancelled(), "child deadline never trips parent");
    }

    #[cfg(unix)]
    #[test]
    fn signal_flag_trips_watching_tokens_only() {
        let _serial = serial();
        sys::reset_for_test();
        let watching = CancelToken::watching_signals().unwrap();
        let manual = CancelToken::new();
        assert!(!watching.is_cancelled());
        assert_eq!(signal_count(), 0);
        sys::handle_signal(2); // exactly what the kernel would invoke
        assert!(watching.is_cancelled());
        assert!(watching.cancelled_by_signal());
        assert!(!manual.is_cancelled(), "plain tokens ignore signals");
        assert_eq!(signal_count(), 1);
        sys::handle_signal(15);
        assert_eq!(signal_count(), 2, "each delivery counts");
        sys::reset_for_test();
        assert!(!watching.is_cancelled());
    }

    #[cfg(unix)]
    #[test]
    fn install_is_idempotent_and_shared() {
        let _serial = serial();
        sys::reset_for_test();
        // Two subsystems (think `reproduce` and `lc serve`) both request
        // signal watching; both must succeed against one registration.
        let a = CancelToken::watching_signals().unwrap();
        let b = CancelToken::watching_signals().unwrap();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        sys::handle_signal(15);
        assert!(a.is_cancelled() && b.is_cancelled(), "watch is shared");
        sys::reset_for_test();
    }

    #[cfg(unix)]
    #[test]
    fn foreign_handler_is_a_reported_conflict_not_a_clobber() {
        let _serial = serial();
        sys::reset_for_test();
        sys::install_foreign_for_test(2); // someone else owns SIGINT
        let err = CancelToken::watching_signals().unwrap_err();
        assert_eq!(err.signal, 2);
        let msg = err.to_string();
        assert!(
            msg.contains("SIGINT") && msg.contains("conflicting"),
            "{msg}"
        );
        // The failed install must not leave our handler half-registered:
        // after the foreign handler is removed, installation succeeds.
        sys::reset_for_test();
        let t = CancelToken::watching_signals().unwrap();
        assert!(!t.is_cancelled());
        sys::reset_for_test();
    }

    #[cfg(unix)]
    #[test]
    fn foreign_sigterm_conflict_restores_sigint() {
        let _serial = serial();
        sys::reset_for_test();
        sys::install_foreign_for_test(15); // SIGTERM owned, SIGINT free
        let err = CancelToken::watching_signals().unwrap_err();
        assert_eq!(err.signal, 15);
        // SIGINT was swapped to ours and rolled back to SIG_DFL, so a
        // fresh install after clearing the conflict sees no residue.
        sys::reset_for_test();
        assert!(CancelToken::watching_signals().is_ok());
        sys::reset_for_test();
    }

    #[cfg(unix)]
    #[test]
    fn replaceable_classification() {
        assert!(sys::replaceable(0), "SIG_DFL is replaceable");
        assert!(
            sys::replaceable(sys::handle_signal as *const () as usize),
            "our own handler re-installs"
        );
        assert!(!sys::replaceable(1), "SIG_IGN is a deliberate disposition");
        assert!(sys::respected(1), "… and it is respected, not a conflict");
        assert!(!sys::respected(0), "SIG_DFL is replaced, not respected");
        assert!(!sys::replaceable(0xDEAD_BEE0), "foreign handlers conflict");
        assert!(!sys::respected(0xDEAD_BEE0), "foreign handlers conflict");
    }

    /// A non-interactive shell backgrounding `lc serve &` hands the
    /// child SIGINT = SIG_IGN. That must not refuse the install: SIGINT
    /// stays ignored (honoring the nohup convention) while SIGTERM is
    /// still watched — otherwise a scripted server could never drain.
    #[cfg(unix)]
    #[test]
    fn inherited_sig_ign_is_respected_not_a_conflict() {
        let _serial = serial();
        sys::reset_for_test();
        sys::set_ignored_for_test(2);
        let t = CancelToken::watching_signals().expect("SIG_IGN must not refuse the install");
        assert!(!t.is_cancelled());
        assert_eq!(sys::disposition_for_test(2), 1, "SIGINT left ignored");
        assert_eq!(
            sys::disposition_for_test(15),
            sys::own_handler_addr(),
            "SIGTERM is ours"
        );
        sys::handle_signal(15);
        assert!(t.is_cancelled(), "drain still reachable via SIGTERM");
        sys::reset_for_test();
    }
}
