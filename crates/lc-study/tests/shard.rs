//! Shard partition, merge, and per-shard lock semantics.
//!
//! Library-level: the round-robin partition is a true partition (union
//! of N shards == the full unit space, pairwise disjoint) and is stable
//! under every `--prune` mode; the merge refusal matrix rejects
//! incomplete, mixed-campaign, renamed, and cross-dataset shard sets.
//!
//! Binary-level: `reproduce --shard K/N` for every K followed by
//! `reproduce --merge` produces a `run.json` byte-identical to the
//! single-process sweep; per-shard locks neither false-conflict across
//! shards nor lose stale-lock reclaim.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use lc_study::campaign::{run_campaign_with, CampaignOptions, StudyConfig};
use lc_study::{journal, shard, PruneMode, ShardSpec, Space};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc-shard-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One-file, two-family config: enough units (one per stage-1
/// component) that a 3-way partition is non-trivial, small enough that
/// each campaign finishes in about a second.
fn tiny_config() -> StudyConfig {
    let mut sc = StudyConfig::quick();
    sc.space = Space::restricted_to_families(&["DIFF", "RZE"]);
    sc.files = vec![&lc_data::SP_FILES[0]];
    sc
}

/// Run one shard of `sc` into `dir`, returning its journaled unit keys.
fn run_shard(
    sc: &StudyConfig,
    dir: &Path,
    spec: ShardSpec,
    prune: PruneMode,
) -> BTreeSet<(u64, u64)> {
    let opts = CampaignOptions {
        journal: Some(dir.join(spec.journal_file())),
        shard: Some(spec),
        prune,
        ..Default::default()
    };
    run_campaign_with(sc, &opts).expect("shard campaign");
    let j = journal::load(&dir.join(spec.journal_file())).expect("load shard journal");
    j.units
        .iter()
        .map(|u| {
            (
                u.get("file_index").and_then(|v| v.as_u64()).unwrap(),
                u.get("s1_index").and_then(|v| v.as_u64()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn partition_is_disjoint_complete_and_prune_stable() {
    let sc = tiny_config();
    let nc = sc.space.components.len() as u64;
    let full: BTreeSet<(u64, u64)> = (0..sc.files.len() as u64)
        .flat_map(|fi| (0..nc).map(move |i1| (fi, i1)))
        .collect();

    let n = 3;
    let mut per_mode: Vec<Vec<BTreeSet<(u64, u64)>>> = Vec::new();
    for prune in [PruneMode::Exact, PruneMode::Canonical, PruneMode::Off] {
        let dir = scratch_dir(&format!("partition-{}", prune.label()));
        let shards: Vec<BTreeSet<(u64, u64)>> = (0..n)
            .map(|index| run_shard(&sc, &dir, ShardSpec { index, count: n }, prune))
            .collect();
        // Pairwise disjoint…
        for a in 0..n {
            for b in (a + 1)..n {
                assert!(
                    shards[a].is_disjoint(&shards[b]),
                    "{}: shards {a} and {b} overlap",
                    prune.label()
                );
            }
        }
        // …and the union is exactly the full pruned space's unit set
        // (pruning skips cells inside units, never whole units).
        let union: BTreeSet<(u64, u64)> = shards.iter().flatten().copied().collect();
        assert_eq!(union, full, "{}: union != full space", prune.label());
        per_mode.push(shards);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Membership is identical across prune modes.
    for shards in &per_mode[1..] {
        for (k, s) in shards.iter().enumerate() {
            assert_eq!(
                s, &per_mode[0][k],
                "shard {k} owns different units under different prune modes"
            );
        }
    }
}

#[test]
fn merge_refusal_matrix() {
    let sc = tiny_config();
    let mk = |spec: ShardSpec, prune: PruneMode, sc: &StudyConfig, dir: &Path| {
        let opts = CampaignOptions {
            journal: Some(dir.join(spec.journal_file())),
            shard: Some(spec),
            prune,
            ..Default::default()
        };
        run_campaign_with(sc, &opts).expect("shard campaign");
    };
    let merge_err = |dir: &Path| -> String {
        shard::merge_shards(dir, &dir.join("journal.jsonl")).expect_err("merge must refuse")
    };

    // Missing shard: only 1 of 2 present.
    let dir = scratch_dir("refuse-missing");
    mk(
        ShardSpec { index: 0, count: 2 },
        PruneMode::Exact,
        &sc,
        &dir,
    );
    let err = merge_err(&dir);
    assert!(err.contains("missing"), "{err}");

    // Mixed prune modes across shards.
    let dir2 = scratch_dir("refuse-prune");
    mk(
        ShardSpec { index: 0, count: 2 },
        PruneMode::Exact,
        &sc,
        &dir2,
    );
    mk(ShardSpec { index: 1, count: 2 }, PruneMode::Off, &sc, &dir2);
    let err = merge_err(&dir2);
    assert!(err.contains("prune mode"), "{err}");

    // Shards run on different input data: refused naming the dataset
    // difference, not as a generic fingerprint mismatch.
    let dir3 = scratch_dir("refuse-dataset");
    mk(
        ShardSpec { index: 0, count: 2 },
        PruneMode::Exact,
        &sc,
        &dir3,
    );
    let mut other = tiny_config();
    other.files = vec![&lc_data::SP_FILES[1]];
    mk(
        ShardSpec { index: 1, count: 2 },
        PruneMode::Exact,
        &other,
        &dir3,
    );
    let err = merge_err(&dir3);
    assert!(err.contains("different inputs"), "{err}");

    // A renamed journal (shard 1's file posing as shard 2): the meta's
    // own shard identity wins.
    let dir4 = scratch_dir("refuse-renamed");
    mk(
        ShardSpec { index: 0, count: 2 },
        PruneMode::Exact,
        &sc,
        &dir4,
    );
    std::fs::copy(
        dir4.join("journal.1-of-2.jsonl"),
        dir4.join("journal.2-of-2.jsonl"),
    )
    .unwrap();
    let err = merge_err(&dir4);
    assert!(err.contains("claims to be shard"), "{err}");

    // Inconsistent shard counts in one directory.
    let dir5 = scratch_dir("refuse-counts");
    mk(
        ShardSpec { index: 0, count: 1 },
        PruneMode::Exact,
        &sc,
        &dir5,
    );
    mk(
        ShardSpec { index: 0, count: 2 },
        PruneMode::Exact,
        &sc,
        &dir5,
    );
    let err = merge_err(&dir5);
    assert!(err.contains("inconsistent shard counts"), "{err}");

    for d in [dir, dir2, dir3, dir4, dir5] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

// ---- binary-level ----

fn reproduce(out: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args([
        "--families",
        "DIFF,RZE",
        "--files",
        "msg_bt",
        "--scale",
        "64",
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

#[test]
fn shard_runs_plus_merge_match_single_process_byte_for_byte() {
    // Single-process reference.
    let ref_dir = scratch_dir("merge-ref");
    let status = reproduce(&ref_dir).status().expect("reference run");
    assert!(status.success(), "reference run failed: {status:?}");
    let reference = std::fs::read(ref_dir.join("run.json")).expect("reference run.json");

    // The same campaign as two shard processes plus a merge.
    let dir = scratch_dir("merge");
    for k in ["1/2", "2/2"] {
        let out = reproduce(&dir)
            .args(["--shard", k])
            .output()
            .expect("shard run");
        assert!(
            out.status.success(),
            "shard {k} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !dir.join("run.json").exists(),
            "a shard child must not publish run.json"
        );
    }
    let out = reproduce(&dir).arg("--merge").output().expect("merge run");
    assert!(
        out.status.success(),
        "merge failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let merged = std::fs::read(dir.join("run.json")).expect("merged run.json");
    assert_eq!(
        merged, reference,
        "merged run.json differs from the single-process sweep"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_shard_locks_do_not_false_conflict_and_reclaim_stale() {
    let dir = scratch_dir("locks");

    // A live lock on shard 1 must not block shard 2…
    let spec1 = ShardSpec::parse("1/2").unwrap();
    let _held =
        lc_chaos::fs::LockFile::acquire_named(&dir, &spec1.lock_name()).expect("hold shard 1 lock");
    let out = reproduce(&dir)
        .args(["--shard", "2/2"])
        .output()
        .expect("shard 2 run");
    assert!(
        out.status.success(),
        "shard 2 must not conflict with shard 1's lock: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // …but it does block a second shard 1.
    let out = reproduce(&dir)
        .args(["--shard", "1/2"])
        .output()
        .expect("shard 1 contender");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kind=lock"), "{stderr}");
    drop(_held);

    // A stale per-shard lock (dead pid) is reclaimed, per shard.
    std::fs::write(dir.join(spec1.lock_name()), "4194305\n").expect("plant stale lock");
    let out = reproduce(&dir)
        .args(["--shard", "1/2"])
        .output()
        .expect("shard 1 after stale lock");
    assert!(
        out.status.success(),
        "stale per-shard lock must be reclaimed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
