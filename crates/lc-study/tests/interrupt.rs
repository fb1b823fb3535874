//! End-to-end interrupt and lock semantics of the `reproduce` binary:
//!
//! * SIGINT mid-campaign exits with code 7 (interrupted-but-resumable)
//!   after checkpointing the journal; a `--resume` rerun completes and
//!   writes a `run.json` byte-identical to an uninterrupted run.
//! * A second campaign on a locked output directory exits 1 without
//!   touching the journal.
//! * A stale lock left by a dead process is reclaimed, not fatal.
//! * Removed mode flags are usage errors (exit 1), not silent no-ops.
//! * A stage-2 CSV that cannot be written fails the run (exit 1), like
//!   every other figure output.
//!
//! Signal delivery and `/proc`-based liveness are Linux-specific, so
//! the whole suite is gated on `target_os = "linux"`.
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Exit code the binary documents for a resumable interrupt.
const EXIT_INTERRUPTED: i32 = 7;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc-interrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A campaign small enough to finish in seconds but long enough that a
/// signal sent shortly after the journal appears lands mid-campaign:
/// about 1 s alone on a 2-vCPU VM, against the 0.3 s the signal waits
/// (at `--scale 64` it finished in 0.2 s, before the signal).
fn reproduce(out: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args([
        "--families",
        "DIFF,RZE",
        "--files",
        "msg_bt",
        "--scale",
        "16",
        "--threads",
        "2",
        "--quiet",
        "--out",
    ])
    .arg(out)
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    cmd
}

fn wait_for(path: &Path, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if path.exists() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn sigint_exits_7_and_resume_produces_identical_run_json() {
    // Uninterrupted reference run.
    let ref_dir = scratch_dir("sigint-ref");
    let status = reproduce(&ref_dir).status().expect("spawn reference run");
    assert!(status.success(), "reference run failed: {status:?}");
    let reference = std::fs::read(ref_dir.join("run.json")).expect("reference run.json");

    // Interrupted run: wait for the journal to appear (campaign underway),
    // give it a moment to complete some units, then SIGINT.
    let dir = scratch_dir("sigint");
    let mut child = reproduce(&dir).spawn().expect("spawn campaign");
    assert!(
        wait_for(&dir.join("journal.jsonl"), Duration::from_secs(30)),
        "journal never appeared — campaign did not start"
    );
    std::thread::sleep(Duration::from_millis(300));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success(), "kill -INT failed");
    let status = child.wait().expect("wait for interrupted child");
    assert_eq!(
        status.code(),
        Some(EXIT_INTERRUPTED),
        "SIGINT mid-campaign must exit with the resumable-interrupt code"
    );
    assert!(
        !dir.join("run.json").exists(),
        "an interrupted campaign must not publish run.json"
    );

    // Resume must converge to the byte-identical artifact.
    let mut resume = reproduce(&dir);
    resume.arg("--resume");
    let status = resume.status().expect("spawn resume run");
    assert!(status.success(), "resume run failed: {status:?}");
    let resumed = std::fs::read(dir.join("run.json")).expect("resumed run.json");
    assert_eq!(
        resumed, reference,
        "resumed run.json differs from uninterrupted reference"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_campaign_on_locked_dir_exits_1() {
    let dir = scratch_dir("locked");
    let _lock = lc_chaos::fs::LockFile::acquire(&dir).expect("take the lock first");
    let out = reproduce(&dir).output().expect("spawn contender");
    assert_eq!(
        out.status.code(),
        Some(1),
        "contender should fail fast with exit 1"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("kind=lock"),
        "stderr should blame the lock, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_lock_from_dead_process_is_reclaimed() {
    let dir = scratch_dir("stale");
    // PID 4194305 exceeds the kernel's default pid_max, so no live
    // process can own it; the lock is provably stale.
    std::fs::write(dir.join(lc_chaos::fs::LockFile::NAME), "4194305\n").expect("plant stale lock");
    let status = reproduce(&dir).status().expect("spawn campaign");
    assert!(
        status.success(),
        "stale lock must be reclaimed, got {status:?}"
    );
    assert!(dir.join("run.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_mode_flags_are_usage_errors() {
    let dir = scratch_dir("removed-flags");
    for flags in [
        &["--no-analyze-prune"][..],
        &["--no-prefix-cache"],
        &["--prune", "commute"],
        &["--prefix-cache-mb", "64"],
    ] {
        let out = reproduce(&dir).args(flags).output().expect("run reproduce");
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "{flags:?}: {stderr}"
        );
        assert!(
            !dir.join("journal.jsonl").exists(),
            "{flags:?} must fail before any work"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_stage2_csv_exits_1() {
    let dir = scratch_dir("stage2-csv");
    // A directory where the CSV goes: the atomic rename onto it fails.
    std::fs::create_dir(dir.join("stage2_encode.csv")).expect("plant directory");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--figure", "2", "--stage2", "--families", "DIFF,RZE"])
        .args(["--files", "msg_bt", "--scale", "4096", "--threads", "2"])
        .args(["--quiet", "--out"])
        .arg(&dir)
        .stdout(Stdio::null())
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: cannot write") && l.contains("stage2_encode.csv")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
