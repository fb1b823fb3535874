//! Chaos soak: the capstone crash-consistency suite.
//!
//! For every seed in a fixed range, a tiny measurement campaign runs
//! under a seed-derived fault plan (`lc_chaos::FaultPlan::from_seed`)
//! that injects EINTR, short writes, ENOSPC, torn crashes, fsync
//! failures, allocation denials, and worker stalls into the journal
//! and artifact write paths. The invariant under test:
//!
//! > For every seed, the campaign either completes with results
//! > byte-identical to a fault-free run, or fails leaving on-disk
//! > state from which a fault-free `--resume` converges to results
//! > byte-identical to the fault-free run. It never panics and never
//! > silently produces wrong numbers.
//!
//! Fault injection is process-global, so every `#[test]` here holds
//! [`CHAOS`] for its whole body (libtest would otherwise run them on
//! parallel threads, each seeing the other's plan); as its own
//! integration test binary it cannot interfere with other suites.
//! Override the seed count with `LC_CHAOS_SOAK_SEEDS=n` (default 64,
//! the CI floor).

use lc_chaos::fs::SyncPolicy;
use lc_chaos::FaultPlan;
use lc_study::campaign::{run_campaign_with, CampaignOptions, StudyConfig};
use lc_study::{report, Space};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file: an installed fault plan is live
/// for every thread of the process, reference runs included.
static CHAOS: Mutex<()> = Mutex::new(());

/// Take [`CHAOS`], even after another test panicked while holding it.
fn exclusive() -> MutexGuard<'static, ()> {
    CHAOS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Small but non-trivial: two stage-1 families, two inputs, so the
/// campaign journals multiple units per file and exercises the
/// per-file checkpoint path.
fn soak_config() -> StudyConfig {
    let mut sc = StudyConfig::quick();
    sc.space = Space::restricted_to_families(&["DIFF", "RZE"]);
    sc.files = vec![&lc_data::SP_FILES[0], &lc_data::SP_FILES[10]];
    sc
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc-chaos-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create soak scratch dir");
    dir
}

fn seeds() -> u64 {
    std::env::var("LC_CHAOS_SOAK_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

#[test]
fn every_seed_completes_or_resumes_to_identical_results() {
    let _exclusive = exclusive();
    let sc = soak_config();

    // Fault-free reference: no journal, no chaos.
    let reference = run_campaign_with(&sc, &CampaignOptions::default())
        .expect("reference campaign must succeed");
    let reference_json = report::to_json(&reference.measurements, &[]);

    let n = seeds();
    let (mut clean, mut recovered) = (0u64, 0u64);
    for seed in 0..n {
        let dir = scratch_dir(&seed.to_string());
        let journal = dir.join("journal.jsonl");
        // Cycle the durability policy so every mode soaks.
        let fsync = match seed % 3 {
            0 => SyncPolicy::Never,
            1 => SyncPolicy::Checkpoint,
            _ => SyncPolicy::Always,
        };
        let opts = CampaignOptions {
            journal: Some(journal.clone()),
            fsync,
            mem_budget_mb: if seed % 4 == 0 { Some(64) } else { None },
            ..Default::default()
        };

        let chaotic = {
            let _guard = lc_chaos::install(FaultPlan::from_seed(seed));
            run_campaign_with(&sc, &opts)
        };
        match chaotic {
            Ok(outcome) => {
                let json = report::to_json(&outcome.measurements, &[]);
                assert_eq!(
                    json, reference_json,
                    "seed {seed}: campaign completed under chaos but results differ"
                );
                clean += 1;
            }
            Err(err) => {
                // The run died mid-campaign. Whatever it left behind —
                // no journal, a torn meta line, a torn unit record, a
                // frozen checkpointed prefix — a fault-free resume must
                // converge to the reference results.
                let resume_opts = CampaignOptions {
                    journal: Some(journal.clone()),
                    resume: true,
                    ..Default::default()
                };
                let resumed = run_campaign_with(&sc, &resume_opts).unwrap_or_else(|e| {
                    panic!("seed {seed}: chaos error ({err}) then resume failed: {e}")
                });
                let json = report::to_json(&resumed.measurements, &[]);
                assert_eq!(
                    json, reference_json,
                    "seed {seed}: resumed results differ from fault-free run"
                );
                recovered += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The soak is only meaningful if both classes actually occurred:
    // all-clean means the fault rates are too low to exercise recovery,
    // all-error means completion under transient faults is broken.
    assert!(clean > 0, "no seed completed under chaos ({n} seeds)");
    assert!(
        recovered > 0,
        "no seed exercised crash recovery ({n} seeds)"
    );
    println!(
        "chaos soak: {n} seeds, {clean} completed under faults, {recovered} recovered via resume"
    );
}

/// Transient-only plans (EINTR + short writes at 100% op rate) must be
/// absorbed invisibly: the campaign completes and matches the
/// fault-free reference without any resume.
#[test]
fn transient_only_plans_complete_without_recovery() {
    let _exclusive = exclusive();
    let mut sc = soak_config();
    sc.files = vec![&lc_data::SP_FILES[0]];
    let reference =
        run_campaign_with(&sc, &CampaignOptions::default()).expect("reference campaign");
    let reference_json = report::to_json(&reference.measurements, &[]);

    for seed in 0..8 {
        let dir = scratch_dir(&format!("transient-{seed}"));
        let opts = CampaignOptions {
            journal: Some(dir.join("journal.jsonl")),
            ..Default::default()
        };
        let outcome = {
            let _guard = lc_chaos::install(FaultPlan::transient_only(seed));
            run_campaign_with(&sc, &opts)
        };
        let outcome = outcome.unwrap_or_else(|e| {
            panic!("seed {seed}: transient-only faults must be absorbed, got: {e}")
        });
        assert_eq!(
            report::to_json(&outcome.measurements, &[]),
            reference_json,
            "seed {seed}: transient-only run produced different results"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
