//! Experiment harness reproducing the paper's evaluation (§5–§6).
//!
//! * [`space`] — the 62 × 62 × 28 pipeline space and each figure's subset;
//! * [`runner`] — stage execution with copy-on-expand and stats capture;
//! * [`campaign`] — the measurement protocol: stage-tree memoization over
//!   the 13 inputs, simulated runtimes on all 11 platform combinations,
//!   median-of-3 runs, geometric mean across inputs;
//! * [`stats`] — letter-value ("boxen") summaries with the paper's fixed
//!   0.7% outlier rate;
//! * [`figures`] — one generator per paper figure (Figs. 2–15);
//! * [`report`] — the EXPERIMENTS.md paper-vs-measured report;
//! * [`shard`] / [`supervise`] — deterministic partitioning of the
//!   campaign into independently journaled shard subprocesses, the
//!   crash-supervising scheduler that retries/quarantines them, and the
//!   byte-identical merge back into one run.
//!
//! The `reproduce` binary drives all of it:
//!
//! ```text
//! cargo run --release -p lc-study --bin reproduce -- --figure all
//! ```

#![forbid(unsafe_code)]

pub mod campaign;
pub mod compare;
pub mod figures;
pub mod journal;
pub mod prefix;
pub mod progress;
pub mod prune;
pub mod ratio;
pub mod report;
pub mod runner;
pub mod shard;
pub mod space;
pub mod stats;
pub mod supervise;
pub mod svg;
pub mod tables;

pub use campaign::{
    run_campaign, run_campaign_with, CampaignOptions, CampaignOutcome, Measurements,
    QuarantineEntry, QuarantineReason, StudyConfig, UnitTiming,
};
pub use figures::{figure, render, to_csv, FigId, Figure, Group};
pub use prefix::{CacheReport, SweepMode};
pub use prune::{PruneMode, PrunePlan, PruneReport};
pub use shard::{merge_shards, MergeReport, ShardSpec};
pub use space::{PipelineId, Space};
pub use supervise::{run_supervisor, ShardOutcome, ShardRun, SupervisorReport};
