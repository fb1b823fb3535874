//! Golden campaign digest: the numbers the reproduction computes, pinned.
//!
//! The archive goldens pin the bytes the codec writes; this pins what the
//! study derives from the kernels — the `KernelStats` every component
//! counts and the `run.json` plus findings table the model prices from
//! them. One small campaign (BIT, DIFF and RLE over the three snapshot
//! files, each at its 64 KiB floor) is swept, then priced for Fig. 2 (`-O3`) and, by a zero-unit
//! resume of the same journal, for Fig. 14 (`-O1` and `-O3`). Every path
//! below must land on the one committed digest:
//!
//! * 1 and 2 worker threads;
//! * kernels capped at the scalar tier and at the detected tier;
//! * two shards fused by `merge_shards`, then resumed.
//!
//! The tier cap is process-wide, so this file holds a single `#[test]`
//! and runs in its own test binary.
//!
//! A change that moves the digest is a change to the reproduction's
//! numbers: say why in CHANGES.md and update [`GOLDEN`]. The geomean goes
//! through libm `ln`/`exp`, so the digest is pinned on x86-64 glibc.
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};

use gpu_sim::OptLevel;
use lc_components::kernels::{self, Variant};
use lc_study::{
    figure, merge_shards, report, run_campaign_with, CampaignOptions, FigId, ShardSpec, Space,
    StudyConfig,
};

/// FNV-1a 64 of the two priced renderings, as 16 hex digits.
const GOLDEN: &str = "84b23a3f07e272f9";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lc-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(threads: usize, opt_levels: Vec<OptLevel>) -> StudyConfig {
    StudyConfig {
        space: Space::restricted_to_families(&["BIT", "DIFF", "RLE"]),
        scale: lc_data::Scale::tiny(),
        threads,
        files: ["msg_bt", "num_brain", "obs_temp"]
            .iter()
            .map(|n| lc_data::file_by_name(n).expect("file of Table 3"))
            .collect(),
        opt_levels,
        verify: true,
    }
}

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xCBF2_9CE4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Resume the complete journal at `path` (executing nothing) and price
/// it for `fig`: its `run.json` bytes, then the findings table as
/// `reproduce` prints it.
fn price(path: &Path, threads: usize, fig: FigId, opt_levels: Vec<OptLevel>) -> String {
    let opts = CampaignOptions {
        journal: Some(path.to_path_buf()),
        resume: true,
        ..Default::default()
    };
    let outcome = run_campaign_with(&config(threads, opt_levels), &opts).expect("resume");
    assert_eq!(outcome.executed_units, 0, "a complete journal re-prices");
    let m = outcome.measurements;
    let mut text = report::to_json(&m, &[figure(&m, fig)]);
    for f in report::findings(&m) {
        let mark = if f.holds { "ok" } else { "MISS" };
        text.push_str(&format!("  [{mark}] {:32} {}\n", f.id, f.measured));
    }
    text
}

/// The digest of the Fig. 2 and Fig. 14 renderings of one journal.
fn digest_of_journal(path: &Path, threads: usize) -> String {
    let fig2 = price(path, threads, FigId::Fig2, vec![OptLevel::O3]);
    let fig14 = price(
        path,
        threads,
        FigId::Fig14,
        vec![OptLevel::O1, OptLevel::O3],
    );
    format!("{:016x}", fnv1a(fig2.bytes().chain(fig14.bytes())))
}

/// Sweep the campaign into a fresh journal, then digest it.
fn digest_single(threads: usize, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let path = dir.join("journal.jsonl");
    let opts = CampaignOptions {
        journal: Some(path.clone()),
        ..Default::default()
    };
    run_campaign_with(&config(threads, vec![OptLevel::O3]), &opts).expect("campaign");
    let d = digest_of_journal(&path, threads);
    let _ = std::fs::remove_dir_all(&dir);
    d
}

/// Sweep the campaign as two shards, fuse them, then digest the merge.
fn digest_sharded(tag: &str) -> String {
    let dir = scratch_dir(tag);
    for index in 0..2 {
        let spec = ShardSpec { index, count: 2 };
        let opts = CampaignOptions {
            journal: Some(dir.join(spec.journal_file())),
            shard: Some(spec),
            ..Default::default()
        };
        run_campaign_with(&config(2, vec![OptLevel::O3]), &opts).expect("shard campaign");
    }
    let merged = dir.join("journal.jsonl");
    merge_shards(&dir, &merged).expect("merge shards");
    let d = digest_of_journal(&merged, 2);
    let _ = std::fs::remove_dir_all(&dir);
    d
}

#[test]
fn every_path_hits_the_golden_campaign_digest() {
    let detected = kernels::tier();
    let mut runs = Vec::new();
    for cap in [Variant::Scalar, detected] {
        kernels::set_tier_cap(cap);
        runs.push((format!("{cap:?} 1 thread"), digest_single(1, "t1")));
        runs.push((format!("{cap:?} 2 threads"), digest_single(2, "t2")));
    }
    kernels::set_tier_cap(detected);
    runs.push((format!("{detected:?} 2 shards"), digest_sharded("shards")));
    for (path, digest) in &runs {
        assert_eq!(
            digest, GOLDEN,
            "{path}: the campaign's numbers moved (all paths: {runs:?})"
        );
    }
}
