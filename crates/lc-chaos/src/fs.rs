//! Hardened durable-state I/O: the writer side of the crash-consistency
//! contract, instrumented with the chaos sites from the crate root.
//!
//! Three primitives cover every durable artifact the campaign runtime
//! produces:
//!
//! * [`DurableFile`] — append-only record files (the campaign journal).
//!   Each record is issued as a **single** `write_all` of one buffer, so
//!   a crash can tear at most the final record, never interleave two.
//!   Once an append fails the file refuses further appends: torn bytes
//!   can therefore only ever exist at end-of-file, which is exactly the
//!   case journal recovery knows how to truncate away.
//! * [`atomic_write`] — whole-file artifacts (`run.json`, telemetry
//!   exports, bench snapshots): write to a temp file in the same
//!   directory, sync, rename over the target. Readers observe the old
//!   bytes or the new bytes, never a mixture.
//! * [`LockFile`] — one campaign per output directory, with stale-lock
//!   reclamation keyed on `/proc/<pid>`.
//!
//! Transient errors (`EINTR`, `ENOSPC`, `EAGAIN`, timeouts) are retried
//! with bounded exponential backoff and *deterministic* jitter (splitmix64
//! of the attempt index — no wall-clock entropy, so chaos-soak runs are
//! reproducible). Fsync failures are **never** retried: after a failed
//! fsync the kernel may have discarded the dirty pages, so the only
//! honest response is to mark the file failed and surface the error.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::{crash_error, fault_at, is_crash, splitmix64, FaultKind, Site};

/// When durable files issue `fsync` (`reproduce --fsync {never,checkpoint,always}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync. Fastest; a host crash can lose the buffered tail
    /// (process crashes still lose at most the final record).
    Never,
    /// Fsync at checkpoints (after each completed input file and at
    /// campaign end/interrupt). The default.
    #[default]
    Checkpoint,
    /// Fsync after every record append. Slowest, smallest loss window.
    Always,
}

impl SyncPolicy {
    /// Parse a `--fsync` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "never" => Some(Self::Never),
            "checkpoint" => Some(Self::Checkpoint),
            "always" => Some(Self::Always),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Never => "never",
            Self::Checkpoint => "checkpoint",
            Self::Always => "always",
        }
    }
}

/// Maximum attempts for a transiently-failing operation (initial try +
/// retries). ENOSPC storms beyond this surface as errors.
pub const MAX_ATTEMPTS: u32 = 5;
/// EINTR is retried immediately (no backoff) with its own, much higher
/// bound: "interrupted" means "call again", and the bound only exists so
/// a pathological fault plan cannot spin forever.
pub(crate) const MAX_EINTR: u32 = 64;
/// Base backoff unit; attempt `k` sleeps ~`BASE << k` plus jitter.
pub(crate) const BACKOFF_BASE_US: u64 = 200;

/// The exact sleep (µs) before retrying attempt `attempt` (0-based) of
/// the operation tagged `tag`: an exponential step plus seed-pure jitter.
///
/// Pure and deterministic — no wall-clock entropy — so a chaos soak's
/// retry timing is byte-reproducible from its seed, and so the `lc-serve`
/// client can reuse the same shape for shed-retry backoff. The tag is
/// mixed through splitmix64 *before* combining with the attempt index;
/// the previous `tag ^ attempt` fold made schedules collide between
/// distinct call sites (`tag=8, attempt=9` and `tag=9, attempt=8` drew
/// identical jitter), which correlated retries that must be independent.
pub fn backoff_us(tag: u64, attempt: u32) -> u64 {
    let step = BACKOFF_BASE_US << attempt;
    let jitter = splitmix64(splitmix64(tag).wrapping_add(u64::from(attempt))) % BACKOFF_BASE_US;
    step + jitter
}

/// Whether `e` is worth a bounded retry. Interrupted and StorageFull are
/// the kinds the chaos layer injects; WouldBlock/TimedOut are their
/// real-world cousins.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::StorageFull
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// Run `f`, retrying transient failures up to [`MAX_ATTEMPTS`] times with
/// exponential backoff and deterministic jitter. Non-transient errors
/// (including injected torn-crashes) propagate immediately.
pub(crate) fn retry_io<T>(tag: u64, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt: u32 = 0;
    let mut eintr: u32 = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            // EINTR means "call again now": no backoff, and its own much
            // larger bound so interrupt storms don't eat the backoff
            // budget meant for ENOSPC-style conditions.
            Err(e) if e.kind() == io::ErrorKind::Interrupted && eintr + 1 < MAX_EINTR => {
                eintr += 1;
            }
            Err(e) if is_transient(&e) && attempt + 1 < MAX_ATTEMPTS => {
                std::thread::sleep(Duration::from_micros(backoff_us(tag, attempt)));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One `write` syscall with chaos consulted first. Short writes and torn
/// crashes put a *real* prefix of `buf` into the file so the torn state
/// is physically present for recovery code to deal with.
fn chaos_write(file: &mut File, buf: &[u8]) -> io::Result<usize> {
    match fault_at(Site::Write) {
        None | Some(FaultKind::Stall) | Some(FaultKind::AllocDeny) => file.write(buf),
        Some(FaultKind::Eintr) => Err(io::Error::from(io::ErrorKind::Interrupted)),
        Some(FaultKind::Enospc) => Err(io::Error::from(io::ErrorKind::StorageFull)),
        Some(FaultKind::ShortWrite) => {
            let n = (buf.len() / 2).max(1);
            file.write(&buf[..n])
        }
        Some(FaultKind::TornCrash) => {
            let n = (buf.len() / 2).max(1);
            file.write_all(&buf[..n])?;
            Err(crash_error())
        }
        // Wrong-site kinds; ignore. Kill only ever fires at
        // Site::UnitBoundary via `kill_requested`.
        Some(FaultKind::FsyncFail) | Some(FaultKind::Kill) => file.write(buf),
    }
}

/// Write all of `buf`, absorbing short writes and retrying transients.
fn write_all_chaos(file: &mut File, mut buf: &[u8], tag: u64) -> io::Result<()> {
    while !buf.is_empty() {
        match retry_io(tag, || chaos_write(file, buf)) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => buf = &buf[n..],
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `sync_data` with chaos consulted. Never retried (see module docs).
fn chaos_sync(file: &File) -> io::Result<()> {
    match fault_at(Site::Sync) {
        Some(FaultKind::FsyncFail) => Err(io::Error::other("chaos: fsync failed")),
        _ => file.sync_data(),
    }
}

fn failed_state_error() -> io::Error {
    io::Error::other(
        "durable file is in a failed state after an earlier write error; \
         refusing further appends so torn bytes stay at end-of-file",
    )
}

/// Append-only record file with crash-consistent appends.
///
/// Invariants:
/// * every successful [`append`](Self::append) put the whole record into
///   the file with a single `write_all` of one buffer;
/// * after any failed append the file is either repaired back to the last
///   good length (ordinary errors) or frozen (`failed`, crash/fsync
///   errors) — so torn bytes can only exist at end-of-file, after the
///   last complete record.
#[derive(Debug)]
pub struct DurableFile {
    file: File,
    path: PathBuf,
    /// Bytes of complete, successfully-appended records.
    good_len: u64,
    policy: SyncPolicy,
    failed: bool,
}

impl DurableFile {
    /// Create (truncate) `path` for appending.
    pub fn create(path: &Path, policy: SyncPolicy) -> io::Result<Self> {
        let file = retry_io(0x11, || {
            match fault_at(Site::Create) {
                Some(FaultKind::Eintr) => return Err(io::Error::from(io::ErrorKind::Interrupted)),
                Some(FaultKind::Enospc) => return Err(io::Error::from(io::ErrorKind::StorageFull)),
                _ => {}
            }
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)
        })?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            good_len: 0,
            policy,
            failed: false,
        })
    }

    /// Reopen `path` for appending after recovery decided the first
    /// `valid_len` bytes are good: truncates anything past `valid_len`
    /// (a torn tail from a previous crash) and positions at end.
    pub fn resume(path: &Path, valid_len: u64, policy: SyncPolicy) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            good_len: valid_len,
            policy,
            failed: false,
        })
    }

    /// Append one complete record (caller includes any terminator) as a
    /// single buffer. On ordinary failure the file is truncated back to
    /// the last good record; on crash/fsync failure it is frozen.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        if self.failed {
            return Err(failed_state_error());
        }
        let tag = self.good_len ^ 0x5EED_F00D;
        if let Err(e) = write_all_chaos(&mut self.file, record, tag) {
            if is_crash(&e) {
                // Simulated process death mid-write: the torn bytes are
                // on disk and "we" are gone — no repair is possible, and
                // freezing keeps the tear at EOF.
                self.failed = true;
            } else if self.repair().is_err() {
                self.failed = true;
            }
            return Err(e);
        }
        self.good_len += record.len() as u64;
        if self.policy == SyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Truncate back to the last complete record after a partial write.
    fn repair(&mut self) -> io::Result<()> {
        self.file.set_len(self.good_len)?;
        self.file.seek(SeekFrom::Start(self.good_len))?;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Err(e) = chaos_sync(&self.file) {
            self.failed = true;
            return Err(e);
        }
        Ok(())
    }

    /// Durability barrier per the file's [`SyncPolicy`]: fsyncs unless
    /// the policy is [`SyncPolicy::Never`]. Call after each completed
    /// input file and at campaign end/interrupt.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        if self.failed {
            return Err(failed_state_error());
        }
        match self.policy {
            SyncPolicy::Never => Ok(()),
            SyncPolicy::Checkpoint | SyncPolicy::Always => self.sync(),
        }
    }

    /// Bytes of complete records appended or resumed so far.
    pub fn len(&self) -> u64 {
        self.good_len
    }

    /// Whether no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.good_len == 0
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Atomically replace `path` with `bytes`: write a temp file in the same
/// directory, optionally fsync it, then rename over the target. Any
/// reader — and any crash — observes either the old contents or the new
/// contents, never a mixture. On failure the temp file is removed
/// (best-effort) and the original file is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8], policy: SyncPolicy) -> io::Result<()> {
    let tmp = tmp_path(path);
    let result = atomic_write_inner(path, &tmp, bytes, policy);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = std::ffi::OsString::from(".");
    name.push(path.file_name().unwrap_or_else(|| "artifact".as_ref()));
    name.push(".tmp");
    path.with_file_name(name)
}

fn atomic_write_inner(path: &Path, tmp: &Path, bytes: &[u8], policy: SyncPolicy) -> io::Result<()> {
    let mut file = retry_io(0x22, || {
        match fault_at(Site::Create) {
            Some(FaultKind::Eintr) => return Err(io::Error::from(io::ErrorKind::Interrupted)),
            Some(FaultKind::Enospc) => return Err(io::Error::from(io::ErrorKind::StorageFull)),
            _ => {}
        }
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)
    })?;
    write_all_chaos(&mut file, bytes, bytes.len() as u64 ^ 0xA70A)?;
    if policy != SyncPolicy::Never {
        chaos_sync(&file)?;
    }
    drop(file);
    retry_io(0x33, || {
        match fault_at(Site::Rename) {
            Some(FaultKind::Eintr) => return Err(io::Error::from(io::ErrorKind::Interrupted)),
            Some(FaultKind::Enospc) => return Err(io::Error::from(io::ErrorKind::StorageFull)),
            _ => {}
        }
        std::fs::rename(tmp, path)
    })?;
    // Make the rename itself durable. Best-effort: some filesystems
    // refuse to open directories for writing, and the data rename above
    // already succeeded.
    if policy != SyncPolicy::Never {
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Advisory lock claiming an output directory for one campaign.
///
/// Created with `O_EXCL` so exactly one process wins; the file records
/// the owner pid. A lock whose pid no longer exists (per `/proc`) is
/// stale — left by a killed campaign — and is silently reclaimed.
/// Dropping the guard releases the lock.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
}

impl LockFile {
    /// The lock file name inside the governed directory.
    pub const NAME: &'static str = ".campaign.lock";

    /// Claim `dir` for this process, or fail with a descriptive error if
    /// a live campaign already holds it.
    pub fn acquire(dir: &Path) -> io::Result<Self> {
        Self::acquire_named(dir, Self::NAME)
    }

    /// Claim `dir` under a caller-chosen lock name. Shard campaigns use
    /// `.campaign.lock.K-of-N` so N shards sharing one output directory
    /// contend only with their own previous incarnation, never with
    /// siblings; stale-pid reclaim works per lock file.
    pub fn acquire_named(dir: &Path, name: &str) -> io::Result<Self> {
        let path = dir.join(name);
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    match holder_pid(&path) {
                        Some(pid) if pid_alive(pid) => {
                            return Err(io::Error::other(format!(
                                "output directory {} is locked by a running campaign \
                                 (pid {pid}, {name}); use a different --out or wait for it \
                                 to finish",
                                dir.display()
                            )));
                        }
                        _ => {
                            // Stale (dead pid or unreadable) — reclaim
                            // and retry the exclusive create once.
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::other(format!(
            "could not acquire campaign lock in {} (contended)",
            dir.display()
        )))
    }

    /// The lock file's path (diagnostics/tests).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn holder_pid(path: &Path) -> Option<u32> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    // No portable liveness check: assume the holder is alive and make
    // the user delete the lock by hand. Conservative but safe.
    true
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
impl DurableFile {
    /// Whether an earlier failure froze the file.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::serial;
    use crate::{install, report, FaultPlan};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lc-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sync_policy_parses_and_labels() {
        for p in [
            SyncPolicy::Never,
            SyncPolicy::Checkpoint,
            SyncPolicy::Always,
        ] {
            assert_eq!(SyncPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        assert_eq!(SyncPolicy::default(), SyncPolicy::Checkpoint);
    }

    #[test]
    fn durable_append_roundtrip_without_chaos() {
        let _serial = serial();
        let dir = tmp_dir("plain");
        let path = dir.join("records.jsonl");
        let mut f = DurableFile::create(&path, SyncPolicy::Always).unwrap();
        for i in 0..10 {
            f.append(format!("record {i}\n").as_bytes()).unwrap();
        }
        f.checkpoint().unwrap();
        let expect: String = (0..10).map(|i| format!("record {i}\n")).collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        assert_eq!(f.len(), expect.len() as u64);
        assert!(!f.is_empty());

        // Resume from a prefix and append more.
        drop(f);
        let keep = "record 0\nrecord 1\n".len() as u64;
        let mut f = DurableFile::resume(&path, keep, SyncPolicy::Checkpoint).unwrap();
        f.append(b"record 9\n").unwrap();
        f.checkpoint().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "record 0\nrecord 1\nrecord 9\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_are_absorbed_completely() {
        let _serial = serial();
        let dir = tmp_dir("transient");
        let path = dir.join("records.jsonl");
        let expect: String = (0..40).map(|i| format!("transient record {i}\n")).collect();
        let _guard = install(FaultPlan::transient_only(42));
        let mut f = DurableFile::create(&path, SyncPolicy::Never).unwrap();
        for i in 0..40 {
            f.append(format!("transient record {i}\n").as_bytes())
                .unwrap();
        }
        let r = report();
        assert!(
            r.eintr + r.short_writes > 0,
            "transient plan must actually fire: {r:?}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under the full default mix, every seed must uphold the writer
    /// invariant: the file is always a prefix of the intended records
    /// plus (after a crash) one torn tail, and a frozen writer refuses
    /// further appends. The seed range is wide enough that crash,
    /// fsync-failure, and clean-completion outcomes all occur.
    #[test]
    fn default_mix_keeps_torn_bytes_at_eof_only() {
        let _serial = serial();
        let dir = tmp_dir("mix");
        let records: Vec<String> = (0..25)
            .map(|i| format!("mixed record number {i}\n"))
            .collect();
        let full: String = records.concat();
        let (mut crashes, mut fsync_fails, mut clean) = (0, 0, 0);
        for seed in 0..120u64 {
            let path = dir.join(format!("seed-{seed}.jsonl"));
            let guard = install(FaultPlan::from_seed(seed));
            let mut f = DurableFile::create(&path, SyncPolicy::Always).unwrap();
            let mut good = String::new();
            let mut froze = false;
            for rec in &records {
                match f.append(rec.as_bytes()) {
                    Ok(()) => good.push_str(rec),
                    Err(e) => {
                        if is_crash(&e) {
                            crashes += 1;
                        } else {
                            fsync_fails += 1;
                        }
                        froze = f.is_failed();
                        break;
                    }
                }
            }
            if froze {
                let err = f.append(b"after failure\n").unwrap_err();
                assert!(err.to_string().contains("failed state"));
            } else {
                clean += 1;
                assert_eq!(good, full);
            }
            drop(guard);
            let on_disk = std::fs::read_to_string(&path).unwrap();
            assert!(
                on_disk.starts_with(&good),
                "seed {seed}: good records must be intact"
            );
            let tail = &on_disk[good.len()..];
            assert!(
                tail.is_empty() || !on_disk[..good.len()].is_empty() || froze,
                "seed {seed}: unexpected tail state"
            );
            if !froze {
                assert_eq!(
                    tail, "",
                    "seed {seed}: non-failed writer leaves no torn tail"
                );
            } else if !tail.is_empty() {
                // The torn tail is a strict prefix of some record — the
                // single-buffer append means it can never contain a
                // complete record followed by garbage.
                assert!(
                    records.iter().any(|r| r.starts_with(tail)),
                    "seed {seed}: torn tail {tail:?} is not a record prefix"
                );
            }
        }
        assert!(crashes > 0, "seed range must include torn crashes");
        assert!(fsync_fails > 0, "seed range must include fsync failures");
        assert!(clean > 0, "seed range must include clean completions");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_is_old_or_new_under_chaos() {
        let _serial = serial();
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.json");
        let old = b"{\"version\": \"old\"}\n";
        let new = b"{\"version\": \"new\", \"longer\": true}\n";
        let (mut succeeded, mut failed) = (0, 0);
        for seed in 0..120u64 {
            atomic_write(&path, old, SyncPolicy::Never).unwrap();
            let guard = install(FaultPlan::from_seed(seed));
            let r = atomic_write(&path, new, SyncPolicy::Checkpoint);
            drop(guard);
            let got = std::fs::read(&path).unwrap();
            match r {
                Ok(()) => {
                    succeeded += 1;
                    assert_eq!(got, new, "seed {seed}: success must publish new bytes");
                }
                Err(_) => {
                    failed += 1;
                    assert_eq!(got, old, "seed {seed}: failure must leave old bytes");
                    assert!(
                        !tmp_path(&path).exists(),
                        "seed {seed}: temp file must be cleaned up"
                    );
                }
            }
        }
        assert!(succeeded > 0 && failed > 0, "{succeeded} ok / {failed} err");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_file_excludes_and_releases() {
        let dir = tmp_dir("lock");
        let lock = LockFile::acquire(&dir).unwrap();
        let err = LockFile::acquire(&dir).unwrap_err();
        assert!(err.to_string().contains("locked by a running campaign"));
        drop(lock);
        let relock = LockFile::acquire(&dir).unwrap();
        drop(relock);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        let dir = tmp_dir("stale");
        // A pid that cannot exist (beyond PID_MAX_LIMIT) and a garbage
        // lock both count as stale.
        std::fs::write(dir.join(LockFile::NAME), "4194304999\n").unwrap();
        let lock = LockFile::acquire(&dir);
        #[cfg(target_os = "linux")]
        {
            let lock = lock.unwrap();
            drop(lock);
            std::fs::write(dir.join(LockFile::NAME), "not a pid\n").unwrap();
            let lock2 = LockFile::acquire(&dir).unwrap();
            drop(lock2);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = lock;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The exact retry schedules for the tags this module actually uses,
    /// pinned to literal microsecond values: any change to the mixer, the
    /// base, or the tag handling shows up as a diff here, which is the
    /// property that keeps chaos-soak timing byte-reproducible per seed.
    #[test]
    fn backoff_schedules_are_pinned_per_tag() {
        let schedule = |tag: u64| -> Vec<u64> { (0..4).map(|a| backoff_us(tag, a)).collect() };
        assert_eq!(schedule(0x11), vec![248, 493, 965, 1610]);
        assert_eq!(schedule(0x22), vec![322, 573, 961, 1747]);
        assert_eq!(schedule(0x33), vec![275, 417, 956, 1671]);
        assert_eq!(schedule(9), vec![326, 413, 811, 1793]);
    }

    #[test]
    fn backoff_is_deterministic_and_tag_independent() {
        for tag in 0..64u64 {
            for attempt in 0..MAX_ATTEMPTS {
                assert_eq!(backoff_us(tag, attempt), backoff_us(tag, attempt));
                let step = BACKOFF_BASE_US << attempt;
                let b = backoff_us(tag, attempt);
                assert!(
                    (step..step + BACKOFF_BASE_US).contains(&b),
                    "jitter bounded by base: {b} for step {step}"
                );
            }
        }
        // The old `tag ^ attempt` fold collided: these pairs drew the
        // same jitter. The mixed form must keep them distinct.
        assert_ne!(
            backoff_us(8, 9) - (BACKOFF_BASE_US << 9),
            backoff_us(9, 8) - (BACKOFF_BASE_US << 8),
            "cross-site schedules must not be correlated"
        );
    }

    /// The generous EINTR bound: interrupts retry immediately (without
    /// consuming the backoff budget) up to [`MAX_EINTR`], after which
    /// further interrupts fall through to the bounded-backoff path.
    #[test]
    fn eintr_bound_is_generous_and_separate_from_backoff_budget() {
        // A storm of MAX_EINTR-2 interrupts is absorbed silently with no
        // backoff attempts consumed.
        let mut remaining = MAX_EINTR - 2;
        let mut calls = 0u32;
        let v = retry_io(9, || {
            calls += 1;
            if remaining > 0 {
                remaining -= 1;
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(5u8)
            }
        })
        .unwrap();
        assert_eq!(v, 5);
        assert_eq!(calls, MAX_EINTR - 1, "storm + final success");

        // An unbounded interrupt storm terminates: MAX_EINTR-1 immediate
        // retries, then the backoff path's MAX_ATTEMPTS, then the error
        // surfaces instead of spinning forever.
        let mut calls = 0u32;
        let e = retry_io(9, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::from(io::ErrorKind::Interrupted))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert_eq!(calls, (MAX_EINTR - 1) + MAX_ATTEMPTS);
    }

    #[test]
    fn retry_absorbs_bounded_transients() {
        let mut remaining = 3;
        let v = retry_io(9, || {
            if remaining > 0 {
                remaining -= 1;
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(77)
            }
        })
        .unwrap();
        assert_eq!(v, 77);

        let mut calls = 0;
        let e = retry_io(9, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::from(io::ErrorKind::StorageFull))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(calls, MAX_ATTEMPTS, "retries are bounded");

        let mut calls = 0;
        let e = retry_io(9, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::other("hard"))
        })
        .unwrap_err();
        assert_eq!(calls, 1, "non-transient errors do not retry");
        assert_eq!(e.to_string(), "hard");
    }
}
