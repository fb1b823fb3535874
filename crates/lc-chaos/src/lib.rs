//! Deterministic fault injection for the campaign runtime's durable-state
//! paths, plus the hardened I/O layer ([`fs`]) built to survive it.
//!
//! # Why a chaos layer
//!
//! A full characterization sweep is a multi-hour batch job. Its failure
//! handling (checkpoint/resume, torn-tail recovery, quarantine) is only
//! trustworthy if the failure paths are *exercised*, and real disks do not
//! fail on demand. This crate makes them fail on demand, deterministically:
//! a [`FaultPlan`] is a pure function of a seed (splitmix64, the same
//! idiom as the campaign's run-jitter model and the PR 4 model checks)
//! that decides, for every instrumented I/O call index, whether to inject
//! a fault and which one:
//!
//! * `EINTR` — the call fails with [`std::io::ErrorKind::Interrupted`];
//!   a correct caller retries immediately.
//! * **Short write** — only a prefix of the buffer is accepted (`Ok(n)`
//!   with `n < len`); a correct caller continues with the remainder.
//! * `ENOSPC` — [`std::io::ErrorKind::StorageFull`]; a correct caller
//!   retries with bounded backoff (space may be freed) and eventually
//!   gives up cleanly.
//! * **Torn crash** — a prefix of the buffer reaches the file and then
//!   the call dies, simulating a process kill mid-`write`: the torn
//!   bytes stay on disk. Recovery happens at *resume* time, not in the
//!   writer.
//! * **Fsync failure** — `sync_data` fails. Never retried: after a
//!   failed fsync the kernel may have dropped the dirty pages, so the
//!   only safe response is to treat the file state as unknown.
//! * **Allocation denial** — an `lc-serve` arena lease or growth is
//!   refused, forcing the server to shed the request instead of grow.
//! * **Worker stall** — a pool worker sleeps briefly mid-claim,
//!   perturbing completion order the way an oversubscribed host would.
//!
//! Injection is process-global and off by default; the disabled cost on
//! every instrumented path is a single relaxed atomic load (the same
//! contract as `lc-telemetry`). Tests [`install`] a plan for a scoped
//! region and the guard restores the real world on drop.
//!
//! The injected-fault *site indices* are claimed from a global atomic
//! counter, so which operation a fault lands on depends on thread
//! interleaving — the plan is deterministic per seed, the schedule is
//! not. That is exactly the property the chaos soak suite wants: the
//! recovery invariant ("complete, or resume to a bitwise-identical
//! result") must hold for *every* schedule, not one blessed ordering.

#![forbid(unsafe_code)]

pub mod fs;
pub mod net;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// splitmix64: cheap, well-mixed deterministic hash. Identical to the
/// campaign's run-jitter mixer; duplicated here so the fault layer stays
/// dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The faults a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Fail with `ErrorKind::Interrupted` before touching the file.
    Eintr,
    /// Accept only a prefix of the buffer (`Ok(n)`, `n < len`).
    ShortWrite,
    /// Fail with `ErrorKind::StorageFull` before touching the file.
    Enospc,
    /// Write a prefix of the buffer, then die — the torn bytes persist.
    TornCrash,
    /// `sync_data` fails.
    FsyncFail,
    /// Refuse an arena allocation.
    AllocDeny,
    /// Sleep briefly (worker-schedule perturbation).
    Stall,
    /// Kill the process (SIGKILL) at a work-unit boundary. The chaos
    /// layer only *schedules* the kill ([`kill_requested`]); the caller
    /// performs it (`lc_parallel::raise_sigkill`), because this crate
    /// forbids `unsafe` and a raw signal raise needs one.
    Kill,
}

/// Instrumented call sites. Each site draws independently from the plan,
/// so (for example) a high write-fault rate does not starve sync faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// File creation (journal create, temp files for atomic writes).
    Create,
    /// A `write` syscall on a durable file.
    Write,
    /// `sync_data` on a durable file.
    Sync,
    /// The rename that publishes an atomic whole-file write.
    Rename,
    /// An `lc-serve` arena lease or growth ([`alloc_allowed`]).
    Alloc,
    /// A pool worker claiming its next task.
    Worker,
    /// A `read` on a live socket (`lc-serve` request path).
    NetRead,
    /// A `write` on a live socket (`lc-serve` response path).
    NetWrite,
    /// A campaign work-unit boundary (the unit just finished and its
    /// journal record was appended). The one fault this site carries is
    /// [`FaultKind::Kill`] — a seeded SIGKILL, the process-level
    /// analogue of [`FaultKind::TornCrash`], used to soak the shard
    /// supervisor the same way torn writes soak the journal layer.
    UnitBoundary,
}

impl Site {
    fn salt(self) -> u64 {
        match self {
            Site::Create => 0xC0DE_0001,
            Site::Write => 0xC0DE_0002,
            Site::Sync => 0xC0DE_0003,
            Site::Rename => 0xC0DE_0004,
            Site::Alloc => 0xC0DE_0005,
            Site::Worker => 0xC0DE_0006,
            Site::NetRead => 0xC0DE_0007,
            Site::NetWrite => 0xC0DE_0008,
            Site::UnitBoundary => 0xC0DE_0009,
        }
    }
}

/// A seed-deterministic fault plan: `decide(site, op)` is a pure
/// function, so the same seed always produces the same fault sequence
/// for the same sequence of operation indices.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    /// Per-site injection rates in permille (‰ of operations faulted).
    write_permille: u64,
    sync_permille: u64,
    create_permille: u64,
    rename_permille: u64,
    alloc_permille: u64,
    worker_permille: u64,
    net_read_permille: u64,
    net_write_permille: u64,
    unit_permille: u64,
}

impl FaultPlan {
    /// The soak-suite default mix: frequent-but-absorbable transients
    /// (EINTR, short writes, retried ENOSPC) plus enough hard faults
    /// (torn crashes, fsync failures) that a meaningful fraction of
    /// seeded campaigns actually crash and must prove resume converges.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            write_permille: 180,
            sync_permille: 100,
            create_permille: 30,
            rename_permille: 30,
            alloc_permille: 0,
            worker_permille: 20,
            net_read_permille: 0,
            net_write_permille: 0,
            unit_permille: 0,
        }
    }

    /// The serving-soak mix: faults land on the live socket paths
    /// (interrupted and short reads/writes, dropped connections), arena
    /// allocations, and worker schedules, while the durable-file sites
    /// stay clean so drain-time telemetry flushes are not the thing
    /// under test. Every fault here is one a correct server absorbs
    /// into exactly one of {response, structured error, shed} — never
    /// a silent drop.
    pub fn serve(seed: u64) -> Self {
        Self {
            seed,
            write_permille: 0,
            sync_permille: 0,
            create_permille: 0,
            rename_permille: 0,
            alloc_permille: 60,
            worker_permille: 25,
            net_read_permille: 70,
            net_write_permille: 70,
            unit_permille: 0,
        }
    }

    /// A transients-only plan: every injected fault is absorbable by a
    /// correct retry loop (no torn crashes, no fsync failures), so a
    /// hardened writer must complete *successfully* under it.
    pub fn transient_only(seed: u64) -> Self {
        Self {
            seed,
            write_permille: 1000, // every write op draws; hard kinds remapped below
            sync_permille: 0,
            create_permille: 0,
            rename_permille: 0,
            alloc_permille: 0,
            worker_permille: 0,
            net_read_permille: 0,
            net_write_permille: 0,
            unit_permille: 0,
        }
    }

    /// The supervisor-soak mix: a seeded SIGKILL at ~15% of work-unit
    /// boundaries and nothing else. The I/O sites stay clean because
    /// the fault under test is process death itself — every kill lands
    /// *after* a completed unit's journal append, so a correct
    /// supervisor + resume pair must converge with no lost or
    /// duplicated units.
    pub fn kill(seed: u64) -> Self {
        Self {
            seed,
            write_permille: 0,
            sync_permille: 0,
            create_permille: 0,
            rename_permille: 0,
            alloc_permille: 0,
            worker_permille: 0,
            net_read_permille: 0,
            net_write_permille: 0,
            unit_permille: 150,
        }
    }

    fn is_transient_only(&self) -> bool {
        self.write_permille == 1000
    }

    /// The plan's seed (diagnostics).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide the fault (if any) for operation number `op` at `site`.
    /// Pure: no global state involved.
    pub(crate) fn decide(&self, site: Site, op: u64) -> Option<FaultKind> {
        let rate = match site {
            Site::Create => self.create_permille,
            Site::Write => self.write_permille,
            Site::Sync => self.sync_permille,
            Site::Rename => self.rename_permille,
            Site::Alloc => self.alloc_permille,
            Site::Worker => self.worker_permille,
            Site::NetRead => self.net_read_permille,
            Site::NetWrite => self.net_write_permille,
            Site::UnitBoundary => self.unit_permille,
        };
        if rate == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ site.salt() ^ op.wrapping_mul(0xA24BAED4963EE407));
        if h % 1000 >= rate {
            return None;
        }
        let pick = (h >> 32) % 100;
        Some(match site {
            Site::Write => {
                if self.is_transient_only() {
                    // Only kinds a correct writer absorbs without error.
                    if pick < 50 {
                        FaultKind::Eintr
                    } else {
                        FaultKind::ShortWrite
                    }
                } else if pick < 35 {
                    FaultKind::Eintr
                } else if pick < 60 {
                    FaultKind::ShortWrite
                } else if pick < 80 {
                    FaultKind::Enospc
                } else {
                    FaultKind::TornCrash
                }
            }
            Site::Sync => FaultKind::FsyncFail,
            Site::Create | Site::Rename => {
                if pick < 60 {
                    FaultKind::Enospc
                } else {
                    FaultKind::Eintr
                }
            }
            Site::Alloc => FaultKind::AllocDeny,
            Site::Worker => FaultKind::Stall,
            // Socket faults: EINTR retries immediately, a short write
            // continues with the remainder, and TornCrash stands in for
            // "peer reset / connection dropped mid-transfer" — the server
            // must still account the request (error or shed), never lose it.
            Site::NetRead => {
                if pick < 60 {
                    FaultKind::Eintr
                } else {
                    FaultKind::TornCrash
                }
            }
            Site::NetWrite => {
                if pick < 40 {
                    FaultKind::Eintr
                } else if pick < 75 {
                    FaultKind::ShortWrite
                } else {
                    FaultKind::TornCrash
                }
            }
            Site::UnitBoundary => FaultKind::Kill,
        })
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static OP_COUNTER: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Per-kind injection totals since the last [`install`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Instrumented operations consulted while a plan was active.
    pub consults: u64,
    /// `ErrorKind::Interrupted` injections.
    pub eintr: u64,
    /// Short-write injections.
    pub short_writes: u64,
    /// `ErrorKind::StorageFull` injections.
    pub enospc: u64,
    /// Torn-crash injections (partial bytes persisted, then death).
    pub torn_crashes: u64,
    /// Failed `sync_data` injections.
    pub fsync_failures: u64,
    /// Refused cache admissions.
    pub alloc_denials: u64,
    /// Worker stalls.
    pub stalls: u64,
    /// Scheduled process kills (unit-boundary SIGKILLs).
    pub kills: u64,
}

impl InjectionReport {
    /// Total faults injected, all kinds.
    pub fn total(&self) -> u64 {
        self.eintr
            + self.short_writes
            + self.enospc
            + self.torn_crashes
            + self.fsync_failures
            + self.alloc_denials
            + self.stalls
            + self.kills
    }
}

static CONSULTS: AtomicU64 = AtomicU64::new(0);
static N_EINTR: AtomicU64 = AtomicU64::new(0);
static N_SHORT: AtomicU64 = AtomicU64::new(0);
static N_ENOSPC: AtomicU64 = AtomicU64::new(0);
static N_TORN: AtomicU64 = AtomicU64::new(0);
static N_FSYNC: AtomicU64 = AtomicU64::new(0);
static N_ALLOC: AtomicU64 = AtomicU64::new(0);
static N_STALL: AtomicU64 = AtomicU64::new(0);
static N_KILL: AtomicU64 = AtomicU64::new(0);

fn count(kind: FaultKind) {
    let c = match kind {
        FaultKind::Eintr => &N_EINTR,
        FaultKind::ShortWrite => &N_SHORT,
        FaultKind::Enospc => &N_ENOSPC,
        FaultKind::TornCrash => &N_TORN,
        FaultKind::FsyncFail => &N_FSYNC,
        FaultKind::AllocDeny => &N_ALLOC,
        FaultKind::Stall => &N_STALL,
        FaultKind::Kill => &N_KILL,
    };
    c.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot the injection totals since the last [`install`].
pub fn report() -> InjectionReport {
    InjectionReport {
        consults: CONSULTS.load(Ordering::Relaxed),
        eintr: N_EINTR.load(Ordering::Relaxed),
        short_writes: N_SHORT.load(Ordering::Relaxed),
        enospc: N_ENOSPC.load(Ordering::Relaxed),
        torn_crashes: N_TORN.load(Ordering::Relaxed),
        fsync_failures: N_FSYNC.load(Ordering::Relaxed),
        alloc_denials: N_ALLOC.load(Ordering::Relaxed),
        stalls: N_STALL.load(Ordering::Relaxed),
        kills: N_KILL.load(Ordering::Relaxed),
    }
}

fn reset_counters() {
    for c in [
        &CONSULTS, &N_EINTR, &N_SHORT, &N_ENOSPC, &N_TORN, &N_FSYNC, &N_ALLOC, &N_STALL, &N_KILL,
    ] {
        c.store(0, Ordering::Relaxed);
    }
    OP_COUNTER.store(0, Ordering::Relaxed);
}

/// RAII scope for an installed plan: dropping it deactivates injection.
#[must_use = "dropping the guard immediately uninstalls the plan"]
pub struct ChaosGuard {
    _priv: (),
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *lock_plan() = None;
    }
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<FaultPlan>> {
    // A panic while holding this mutex cannot corrupt the Option; recover
    // the guard instead of poisoning every later chaos test.
    PLAN.lock().unwrap_or_else(|p| p.into_inner())
}

/// Install `plan` process-wide and reset the injection counters. Faults
/// are injected on every instrumented path of every thread until the
/// returned guard drops. Installing is last-writer-wins; callers running
/// concurrent chaos scopes must serialize themselves (the soak suite
/// runs its seeds sequentially in one test).
pub fn install(plan: FaultPlan) -> ChaosGuard {
    reset_counters();
    *lock_plan() = Some(plan);
    ACTIVE.store(true, Ordering::SeqCst);
    ChaosGuard { _priv: () }
}

/// Whether a plan is currently installed (one relaxed load).
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Consult the installed plan for the next operation at `site`.
/// Returns `None` (at the cost of one relaxed load) when no plan is
/// installed.
pub(crate) fn fault_at(site: Site) -> Option<FaultKind> {
    if !active() {
        return None;
    }
    let plan = (*lock_plan())?;
    let op = OP_COUNTER.fetch_add(1, Ordering::Relaxed);
    CONSULTS.fetch_add(1, Ordering::Relaxed);
    let fault = plan.decide(site, op);
    if let Some(kind) = fault {
        count(kind);
    }
    fault
}

/// Allocation gate for `lc-serve`'s arena: `false` means the chaos plan
/// denies this allocation and the caller must shed instead of grow.
/// Always `true` with no plan installed.
pub fn alloc_allowed(_bytes: u64) -> bool {
    !matches!(fault_at(Site::Alloc), Some(FaultKind::AllocDeny))
}

/// Process-kill gate, consulted by the campaign executor at each
/// work-unit boundary (after the unit's journal append). `true` means
/// the installed plan schedules a SIGKILL here; the caller must then
/// actually die (`lc_parallel::raise_sigkill`) — everything journaled
/// so far survives, everything else is the supervisor's problem.
/// Always `false` with no plan installed (one relaxed load).
pub fn kill_requested() -> bool {
    matches!(fault_at(Site::UnitBoundary), Some(FaultKind::Kill))
}

/// Worker-schedule perturbation point: sleeps ~1 ms when the plan says
/// so, otherwise costs one relaxed load.
pub fn maybe_stall() {
    if matches!(fault_at(Site::Worker), Some(FaultKind::Stall)) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Marker payload for injected torn-crash errors, so recovery code can
/// distinguish "the process (simulatedly) died mid-write" — where no
/// in-process repair is possible and torn bytes persist — from ordinary
/// write errors, where the writer truncates back to the last good
/// record.
#[derive(Debug)]
struct CrashMarker;

impl std::fmt::Display for CrashMarker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos: simulated crash mid-write")
    }
}

impl std::error::Error for CrashMarker {}

/// Build the error a torn-crash injection surfaces as.
pub(crate) fn crash_error() -> std::io::Error {
    std::io::Error::other(CrashMarker)
}

/// Whether `e` is an injected torn-crash (see [`crash_error`]).
pub(crate) fn is_crash(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<CrashMarker>())
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Mutex;

    /// Chaos installation is process-global while `cargo test` runs this
    /// crate's unit tests concurrently; every test that installs a plan
    /// (or asserts fault-free file behavior) holds this lock.
    pub static CHAOS_TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn serial() -> std::sync::MutexGuard<'static, ()> {
        CHAOS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        let c = FaultPlan::from_seed(8);
        let seq = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..512).map(|op| p.decide(Site::Write, op)).collect()
        };
        assert_eq!(seq(&a), seq(&b), "same seed, same plan");
        assert_ne!(seq(&a), seq(&c), "different seeds diverge");
    }

    #[test]
    fn default_mix_injects_every_write_kind() {
        let p = FaultPlan::from_seed(3);
        let mut kinds = std::collections::BTreeSet::new();
        for op in 0..20_000 {
            if let Some(k) = p.decide(Site::Write, op) {
                kinds.insert(format!("{k:?}"));
            }
        }
        for want in ["Eintr", "ShortWrite", "Enospc", "TornCrash"] {
            assert!(kinds.contains(want), "missing {want} in {kinds:?}");
        }
    }

    #[test]
    fn transient_only_plans_never_inject_hard_faults() {
        let p = FaultPlan::transient_only(11);
        for op in 0..20_000 {
            for site in [
                Site::Create,
                Site::Write,
                Site::Sync,
                Site::Rename,
                Site::Alloc,
                Site::Worker,
                Site::NetRead,
                Site::NetWrite,
                Site::UnitBoundary,
            ] {
                match p.decide(site, op) {
                    None | Some(FaultKind::Eintr) | Some(FaultKind::ShortWrite) => {}
                    Some(hard) => panic!("transient-only plan injected {hard:?} at {site:?}"),
                }
            }
        }
    }

    #[test]
    fn serve_plan_faults_sockets_not_durable_files() {
        let p = FaultPlan::serve(29);
        let mut net_kinds = std::collections::BTreeSet::new();
        for op in 0..20_000 {
            for site in [Site::Create, Site::Write, Site::Sync, Site::Rename] {
                assert_eq!(
                    p.decide(site, op),
                    None,
                    "serve plan must leave durable-file site {site:?} clean"
                );
            }
            for site in [Site::NetRead, Site::NetWrite] {
                if let Some(k) = p.decide(site, op) {
                    net_kinds.insert(format!("{k:?}"));
                    assert!(
                        matches!(
                            k,
                            FaultKind::Eintr | FaultKind::ShortWrite | FaultKind::TornCrash
                        ),
                        "unexpected socket fault {k:?}"
                    );
                }
            }
        }
        for want in ["Eintr", "ShortWrite", "TornCrash"] {
            assert!(net_kinds.contains(want), "missing {want} in {net_kinds:?}");
        }
    }

    #[test]
    fn inactive_layer_injects_nothing() {
        let _serial = test_support::serial();
        assert!(!active());
        for _ in 0..100 {
            assert_eq!(fault_at(Site::Write), None);
            assert!(alloc_allowed(1 << 20));
        }
    }

    #[test]
    fn install_scopes_injection_and_counts() {
        let _serial = test_support::serial();
        {
            let _guard = install(FaultPlan::from_seed(1));
            assert!(active());
            let mut injected = 0;
            for _ in 0..5_000 {
                if fault_at(Site::Write).is_some() {
                    injected += 1;
                }
            }
            assert!(injected > 0, "the default mix must fire at ~18%");
            let r = report();
            assert_eq!(r.consults, 5_000);
            assert_eq!(r.total(), injected);
        }
        assert!(!active(), "guard drop uninstalls");
        assert_eq!(fault_at(Site::Write), None);
    }

    #[test]
    fn crash_errors_are_recognizable() {
        let e = crash_error();
        assert!(is_crash(&e));
        assert!(!is_crash(&std::io::Error::other("ordinary")));
        assert!(!is_crash(&std::io::Error::from(
            std::io::ErrorKind::StorageFull
        )));
    }
}
