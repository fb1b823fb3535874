//! The measurement campaign: run the stage tree over every input,
//! journal each work unit's kernel statistics, price them as simulated
//! runtimes for every (GPU, compiler, opt-level) platform, and aggregate
//! with the paper's protocol — median of 3 runs per input, geometric mean
//! across the 13 inputs (§5).
//!
//! A unit flows through four steps: **execute** (`run_unit` runs the
//! real components and returns integers only — the unit's table of
//! kernel statistics), **journal** (the table is appended as one
//! record), **price** (`price_unit`, the only caller of the `gpu-sim`
//! cost model) and **accumulate** (log-throughputs summed in fixed
//! `(file, i1)` order).
//! Resumed units skip the first two steps, so resuming a complete journal
//! under a different set of opt levels executes nothing and only
//! re-prices.
//!
//! # Fault tolerance
//!
//! A campaign is hours of compute at paper scale; [`run_campaign_with`]
//! makes it restartable and fault-isolated:
//!
//! * **Checkpoint/resume** — with [`CampaignOptions::journal`] set, every
//!   completed work unit (one `(input file, stage-1 component)` pair,
//!   i.e. one task of the stage-tree fan-out) is appended to a JSON-lines
//!   journal as soon as it finishes. With [`CampaignOptions::resume`],
//!   units already in the journal are loaded instead of recomputed. The
//!   journal stores integer kernel counters, and pricing and accumulation
//!   run in a fixed order, so a resumed campaign produces
//!   **byte-identical** reports to an uninterrupted one.
//! * **Panic isolation & quarantine** — each stage executes behind a
//!   `catch_unwind` fence with a cooperative monotonic-deadline watchdog
//!   ([`crate::runner::run_stage_checked`]). A work unit that panics or
//!   overruns [`CampaignOptions::unit_deadline`] is recorded as a
//!   [`QuarantineEntry`] (with a stage trace pinpointing where it died)
//!   and the campaign continues; the pipelines covered by a quarantined
//!   unit keep zero contributions and must be interpreted via
//!   [`CampaignOutcome::quarantined`]. [`run_campaign`] panics on any.
//! * **Crash consistency & interruption** — journal appends are single-
//!   buffer crash-consistent writes ([`lc_chaos::fs::DurableFile`]) under
//!   a [`SyncPolicy`]; the journal is fsynced at each completed input
//!   file and at campaign end. A [`CampaignOptions::cancel`] token
//!   (SIGINT/SIGTERM via `reproduce`) stops workers cooperatively at the
//!   next unit boundary, checkpoints, and returns with
//!   [`CampaignOutcome::interrupted`] set — every completed unit is
//!   already journaled, so the run is resumable.
//! * **Memory governance** — [`CampaignOptions::mem_budget_mb`] caps the
//!   worker count (degrading to serial under pressure). Sweep results are
//!   bit-identical either way; only speed changes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lc_chaos::fs::SyncPolicy;
use lc_core::KernelStats;
use lc_json::Value;
use lc_parallel::{CancelToken, Pool};

use gpu_sim::{all_platforms, throughput_gbs, Direction, Model, OptLevel, SimConfig};
use lc_data::{Scale, SpFile, SP_FILES};

use crate::journal::{self, JournalWriter};
use crate::prefix::{CacheReport, CacheStats, SweepMode};
use crate::progress::Heartbeat;
use crate::prune::{PruneMode, PrunePlan, PruneReport};
use crate::runner::{
    paper_compressed_bytes, run_stage_checked, ChunkedData, StageBufs, StageFault, StageOutcome,
    StageTally, Watchdog,
};
use crate::space::Space;

/// Campaign parameters.
#[derive(Clone)]
pub struct StudyConfig {
    /// The pipeline space to measure (full = the paper's 107,632).
    pub space: Space,
    /// Input scale (see `lc_data::Scale`).
    pub scale: Scale,
    /// Worker threads.
    pub threads: usize,
    /// Input files (default: all 13 of Table 3).
    pub files: Vec<&'static SpFile>,
    /// Optimization levels to simulate (`[O3]` for Figs. 2–13; `[O1, O3]`
    /// for Figs. 14/15).
    pub opt_levels: Vec<OptLevel>,
    /// Verify every chunk round-trip while measuring (slower; tests use it).
    pub verify: bool,
}

impl StudyConfig {
    /// The paper's full campaign at the default reduced input scale.
    pub fn paper(opt_levels: Vec<OptLevel>) -> Self {
        Self {
            space: Space::full(),
            scale: Scale::default_study(),
            threads: lc_parallel::default_threads(),
            files: SP_FILES.iter().collect(),
            opt_levels,
            verify: false,
        }
    }

    /// A small, fast configuration for tests and examples: a restricted
    /// family set, tiny inputs, and verification on.
    pub fn quick() -> Self {
        Self {
            space: Space::restricted_to_families(&["TCMS", "DIFF", "RLE", "RZE"]),
            scale: Scale::tiny(),
            threads: lc_parallel::default_threads(),
            files: vec![&SP_FILES[0], &SP_FILES[6], &SP_FILES[12]],
            opt_levels: vec![OptLevel::O3],
            verify: true,
        }
    }
}

/// Measured (simulated) throughputs for every pipeline on every platform.
pub struct Measurements {
    /// The measured space.
    pub space: Space,
    /// Platform configurations, in `opt_levels × all_platforms` order.
    pub configs: Vec<SimConfig>,
    /// Input file names.
    pub files: Vec<&'static str>,
    /// Encoding throughput in GB/s, flat-indexed `[config][pipeline]`
    /// (geometric mean across inputs of the median of 3 runs).
    enc: Vec<f64>,
    /// Decoding throughput, same layout.
    dec: Vec<f64>,
    /// Total uncompressed bytes across inputs (paper scale).
    total_uncompressed: u64,
    /// Per-pipeline compressed bytes summed across inputs (paper scale).
    compressed: Vec<u64>,
}

impl Measurements {
    fn slot(&self, config: usize, pipeline: usize) -> usize {
        config * self.space.len() + pipeline
    }

    /// Throughput of one pipeline on one platform.
    pub fn throughput(&self, config: usize, pipeline: usize, dir: Direction) -> f64 {
        let i = self.slot(config, pipeline);
        match dir {
            Direction::Encode => self.enc[i],
            Direction::Decode => self.dec[i],
        }
    }

    /// All throughputs for a platform, pipeline-indexed.
    pub fn series(&self, config: usize, dir: Direction) -> &[f64] {
        let p = self.space.len();
        let base = config * p;
        match dir {
            Direction::Encode => &self.enc[base..base + p],
            Direction::Decode => &self.dec[base..base + p],
        }
    }

    /// Throughputs of a pipeline subset on a platform.
    pub(crate) fn select(
        &self,
        config: usize,
        dir: Direction,
        ids: &[crate::space::PipelineId],
    ) -> Vec<f64> {
        ids.iter()
            .map(|&id| self.throughput(config, self.space.index(id), dir))
            .collect()
    }

    /// Compression ratio of a pipeline across the whole dataset
    /// (uncompressed / compressed, sizes summed over the input files —
    /// the dataset-level ratio a user of the compressor would see).
    pub fn ratio(&self, pipeline: usize) -> f64 {
        self.total_uncompressed as f64 / self.compressed[pipeline].max(1) as f64
    }

    /// Find a platform config by GPU name, compiler, and opt level.
    pub fn config_index(
        &self,
        gpu: &str,
        compiler: gpu_sim::CompilerId,
        opt: OptLevel,
    ) -> Option<usize> {
        self.configs
            .iter()
            .position(|c| c.gpu.name == gpu && c.compiler == compiler && c.opt == opt)
    }
}

/// splitmix64: cheap, well-mixed deterministic hash for run jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Simulate the paper's "run three times, keep the median" protocol:
/// apply three deterministic jitters drawn from `±jitter / 2` (the
/// model's [`Model::run_jitter`]) and take the median.
pub(crate) fn median_of_three_runs(t: f64, seed: u64, jitter: f64) -> f64 {
    let mut eps = [0f64; 3];
    for (k, e) in eps.iter_mut().enumerate() {
        let h = splitmix64(seed ^ (k as u64).wrapping_mul(0xA24BAED4963EE407));
        *e = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * jitter;
    }
    eps.sort_by(|a, b| a.partial_cmp(b).unwrap()); // invariant: eps values are finite
    t * (1.0 + eps[1])
}

/// Fault-tolerance options for [`run_campaign_with`].
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Journal path. `Some` enables checkpointing: every finished work
    /// unit is appended (and flushed) immediately.
    pub journal: Option<PathBuf>,
    /// Skip work units already present in the journal. Requires
    /// [`CampaignOptions::journal`]; the journal's fingerprint must match
    /// this campaign's configuration exactly. A complete journal resumes
    /// with zero executed units: the campaign only re-prices it.
    pub resume: bool,
    /// Cooperative per-unit deadline. A unit still running past this
    /// budget is quarantined at the next stage boundary.
    pub unit_deadline: Option<Duration>,
    /// Emit a progress line to stderr at this interval (units done,
    /// units/s, ETA, quarantine count). `None` disables the heartbeat.
    pub heartbeat: Option<Duration>,
    /// How to walk each unit's pipeline range: prefix-memoized (the
    /// default) or naive per-pipeline recomputation. Both produce
    /// bit-identical statistics; see [`crate::prefix`].
    pub sweep: SweepMode,
    /// Whether to statically deduplicate provably-equivalent pipelines
    /// before the sweep (on by default; see [`crate::prune`]). Unlike
    /// `sweep`, this changes journaled records — pruned cells are written
    /// as zeros and filled from their representative at aggregation —
    /// so the mode is part of the journal resume fingerprint.
    pub prune: PruneMode,
    /// When the journal issues `fsync`: never, at checkpoints (default),
    /// or after every record. Informational only — not part of the
    /// resume fingerprint, so a campaign may be resumed under a
    /// different policy than it started with.
    pub fsync: SyncPolicy,
    /// Soft memory budget in MiB. Caps the per-file worker count: a
    /// file whose working set would overflow the budget runs with fewer
    /// workers, down to serial. Purely a resource governor: measurements
    /// are bit-identical with or without it.
    pub mem_budget_mb: Option<usize>,
    /// Cooperative cancellation (SIGINT/SIGTERM in `reproduce`).
    /// When the token trips, workers stop claiming new units, the
    /// journal is checkpointed, and the campaign returns early with
    /// [`CampaignOutcome::interrupted`] set.
    pub cancel: Option<CancelToken>,
    /// Run only the work units this shard owns (round-robin over the
    /// global unit index `file_i * nc + i1`; see [`crate::shard`]).
    /// The journal meta gains a `"shard": "K/N"` field so a shard
    /// journal can be neither resumed under the wrong identity nor
    /// merged into the wrong campaign. Unowned units contribute
    /// nothing: a sharded outcome's measurements are partial by design
    /// and only meaningful after [`crate::shard::merge_shards`].
    pub shard: Option<crate::shard::ShardSpec>,
}

/// Wall-clock timing of one work unit, recorded for every unit (healthy
/// or quarantined) and attached to its journal record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitTiming {
    /// Total wall time of the unit in milliseconds.
    pub elapsed_ms: u64,
    /// Accumulated milliseconds per stage position (s1, s2, s3). For a
    /// quarantined unit the failing stage's partial time is included.
    pub stage_ms: [u64; 3],
}

/// Why a work unit was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A stage panicked; the payload message is preserved.
    Panic(String),
    /// The unit exceeded its watchdog deadline.
    DeadlineExceeded {
        /// Elapsed milliseconds when the expiry was observed.
        elapsed_ms: u64,
        /// The configured budget in milliseconds.
        limit_ms: u64,
    },
}

/// One quarantined work unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Input file name.
    pub file: String,
    /// Index of the file in the campaign's file list.
    pub file_index: usize,
    /// Stage-1 component name (the work-unit key's second half).
    pub component: String,
    /// Index of that component in the space.
    pub s1_index: usize,
    /// What went wrong.
    pub reason: QuarantineReason,
    /// Which stages were executing when the unit died, e.g.
    /// `"s1=TCMS_4 s2=DIFF_4 s3=RZE_4"`.
    pub stage_trace: String,
    /// How long the unit ran before dying, and where the time went.
    pub timing: UnitTiming,
}

/// Result of [`run_campaign_with`].
pub struct CampaignOutcome {
    /// The measurements (pipelines covered by quarantined units carry
    /// zero contributions — consult [`CampaignOutcome::quarantined`]).
    pub measurements: Measurements,
    /// Quarantined work units, sorted by (file, stage-1 component).
    pub quarantined: Vec<QuarantineEntry>,
    /// Work units loaded from the journal instead of recomputed.
    pub resumed_units: usize,
    /// Work units actually executed this run (including quarantined).
    pub executed_units: usize,
    /// Prefix lookup totals for the run (all zeros when nothing executed;
    /// in naive mode every lookup is a miss).
    pub cache: CacheReport,
    /// Contract-driven pruning summary: which part of the enumeration
    /// was proven redundant and copied instead of measured.
    pub prune: PruneReport,
    /// True when a [`CampaignOptions::cancel`] token stopped the run
    /// before all units executed. The journal holds every completed
    /// unit (checkpointed), so the campaign is resumable; the
    /// measurements in this outcome are partial and must not be
    /// reported as final.
    pub interrupted: bool,
}

/// Encode and decode kernel statistics of one stage execution.
type StagePair = [KernelStats; 2];

/// Journal values per [`StagePair`].
const PAIR: usize = 2 * KernelStats::COUNTERS;

/// One work unit's measurements: stage 1 once, stage 2 once per `i2`,
/// stage 3 once per cell (`i2 · nr + ir`) with the cell's raw output
/// bytes. Pruned cells, and `i2` rows with no measured cell, stay zero.
/// This is the cost model's complete input, and it holds only integers.
struct UnitStats {
    s1: StagePair,
    s2: Vec<StagePair>,
    s3: Vec<(StagePair, u64)>,
}

impl UnitStats {
    fn zeroed(nc: usize, nr: usize) -> Self {
        Self {
            s1: StagePair::default(),
            s2: vec![StagePair::default(); nc],
            s3: vec![(StagePair::default(), 0); nc * nr],
        }
    }

    /// Length of the flat encoding of an `nc × nr` unit.
    fn flat_len(nc: usize, nr: usize) -> usize {
        (1 + nc) * PAIR + nc * nr * (PAIR + 1)
    }

    /// The journal encoding: every counter of stage 1, then of each
    /// stage-2 row, then of each cell followed by its output bytes.
    fn to_flat(&self) -> Vec<u64> {
        let pair = |[e, d]: &StagePair| e.counters().into_iter().chain(d.counters());
        let cells = self
            .s3
            .iter()
            .flat_map(|(p, bytes)| pair(p).chain([*bytes]));
        pair(&self.s1)
            .chain(self.s2.iter().flat_map(pair))
            .chain(cells)
            .collect()
    }

    /// Inverse of [`Self::to_flat`]; `flat` must be `flat_len(nc, nr)`
    /// long.
    fn from_flat(flat: &[u64], nc: usize) -> Self {
        let one = |c: &[u64]| KernelStats::from_counters(c.try_into().unwrap_or_default());
        let pair = |c: &[u64]| {
            [
                one(&c[..KernelStats::COUNTERS]),
                one(&c[KernelStats::COUNTERS..PAIR]),
            ]
        };
        let (head, cells) = flat.split_at((1 + nc) * PAIR);
        let mut rows = head.chunks_exact(PAIR).map(pair);
        Self {
            s1: rows.next().unwrap_or_default(),
            s2: rows.collect(),
            s3: cells
                .chunks_exact(PAIR + 1)
                .map(|c| (pair(c), c[PAIR]))
                .collect(),
        }
    }
}

/// One unit's priced rows: log-throughputs `[config][cell]` for encode
/// and decode, and compressed bytes per cell.
type UnitRows = (Vec<f64>, Vec<f64>, Vec<u64>);

/// Per-file constants pricing needs: the paper-scale operating point the
/// reduced-scale statistics are extrapolated to.
struct FileCtx {
    extrapolate: f64,
    chunks: u64,
    unc: u64,
    file_i: usize,
}

/// Run the campaign with default options (no journal).
///
/// # Panics
///
/// Panics if a work unit was quarantined, naming the first one.
pub fn run_campaign(sc: &StudyConfig) -> Measurements {
    let outcome = run_campaign_with(sc, &CampaignOptions::default())
        .expect("campaign without journal cannot fail recoverably"); // invariant: no journal => no recoverable error
    if let Some(entry) = outcome.quarantined.first() {
        panic!(
            "campaign unit file={} s1={} failed ({}): {}",
            entry.file,
            entry.component,
            entry.stage_trace,
            match &entry.reason {
                QuarantineReason::Panic(m) => m.clone(),
                QuarantineReason::DeadlineExceeded {
                    elapsed_ms,
                    limit_ms,
                } => format!("deadline: {elapsed_ms} ms of {limit_ms} ms"),
            }
        );
    }
    outcome.measurements
}

/// Run the campaign with checkpoint/resume and quarantine support.
///
/// Errors are reserved for journal problems (I/O failures, fingerprint
/// mismatch on resume, corrupt journal); a work unit that panics or
/// overruns its deadline lands in [`CampaignOutcome::quarantined`].
///
/// # Panics
///
/// Panics if `sc` has no files or no opt levels.
pub fn run_campaign_with(
    sc: &StudyConfig,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    assert!(
        !sc.files.is_empty(),
        "campaign needs at least one input file"
    );
    assert!(
        !sc.opt_levels.is_empty(),
        "campaign needs at least one opt level"
    );
    let configs: Vec<SimConfig> = sc
        .opt_levels
        .iter()
        .flat_map(|&o| all_platforms(o))
        .collect();
    let nc = sc.space.components.len();
    let nr = sc.space.reducers.len();
    let stride = nc * nr;
    let p_total = sc.space.len();
    let c_total = configs.len();
    let cache_stats = CacheStats::new(opts.sweep);

    // Dedup from the rewrite system, once, before any unit runs: the
    // exact tier or the full certified class map. With PruneMode::Off
    // every cell is its own representative and the sweep is the paper's
    // full enumeration. Computed before the journal meta: the skip
    // table's fingerprint is part of the resume fingerprint.
    let plan = PrunePlan::for_space(&sc.space, opts.prune);
    // The dataset digest list costs one generation pass over the input
    // files, so it is only computed when a journal will actually carry
    // the fingerprint.
    let meta = journal_meta(sc, &plan, opts.shard.as_ref(), opts.journal.is_some());
    // Shard ownership of a global work-unit index; `None` owns all.
    let owns = |fi: usize, i1: usize| {
        opts.shard
            .is_none_or(|s| s.owns(crate::shard::unit_index(fi, i1, nc)))
    };
    if lc_telemetry::enabled() {
        lc_telemetry::counter("campaign.analyze.pruned_pipelines")
            .add(plan.pruned_pipelines() as u64);
        lc_telemetry::counter("campaign.analyze.classes").add(plan.classes as u64);
        lc_telemetry::counter("campaign.analyze.plan_us").add(plan.analysis.as_micros() as u64);
    }

    // Resume: load prior units and quarantine records, keyed by
    // (file index, stage-1 index).
    let mut prior_units: HashMap<(usize, usize), UnitStats> = HashMap::new();
    let mut prior_quarantine: HashMap<(usize, usize), QuarantineEntry> = HashMap::new();
    let mut journal_valid_len: Option<u64> = None;
    if opts.resume {
        let path = opts
            .journal
            .as_ref()
            .ok_or_else(|| "resume requires a journal path".to_string())?;
        if path.exists() && journal::effectively_empty(path)? {
            // Crash during the very first append: the whole file is one
            // torn line (or empty). Nothing valid to resume from — not
            // even a fingerprint — so recreate instead of failing.
            eprintln!(
                "warning: journal {} holds no complete record (crash during the first \
                 append) — starting fresh",
                path.display()
            );
        } else if path.exists() {
            let j = journal::load(path)?;
            if j.torn_bytes > 0 {
                // The expected artifact of a kill mid-append: a partial
                // final record. Not an error — truncate and re-run that
                // unit. Corruption anywhere else already failed `load`.
                eprintln!(
                    "warning: journal {} ends in a torn record ({} bytes past the last \
                     complete line) — truncating; the interrupted unit will be re-run",
                    path.display(),
                    j.torn_bytes
                );
            }
            // Cross-prune-mode resume gets a structured refusal naming
            // both modes: pruned cells are journaled as zeros, so mixing
            // modes would silently corrupt the pruned slots.
            if j.meta["prune"] != meta["prune"] {
                return Err(format!(
                    "journal {} was written under prune mode {} but this campaign \
                     uses {}; pruned cells are journaled as zeros, so resuming \
                     across prune modes would corrupt results — rerun with the \
                     journal's mode or start a fresh journal",
                    path.display(),
                    j.meta["prune"].dump(),
                    meta["prune"].dump()
                ));
            }
            // Shard identity gets its own refusal: resuming shard 2/4's
            // journal as shard 3/4 (or as a whole campaign) would treat
            // another shard's units as already-done and silently skip
            // work this process owns.
            let j_shard = j.meta.get("shard").and_then(|v| v.as_str());
            let our_shard = opts.shard.map(|s| s.meta_label());
            if j_shard != our_shard.as_deref() {
                return Err(format!(
                    "journal {} belongs to {} but this campaign is {}; resuming \
                     across shard identities would skip or duplicate work units — \
                     use the matching --shard (or --merge to fuse a complete \
                     shard set)",
                    path.display(),
                    j_shard
                        .map(|s| format!("shard {s}"))
                        .unwrap_or_else(|| "the whole campaign (no shard)".to_string()),
                    our_shard
                        .map(|s| format!("shard {s}"))
                        .unwrap_or_else(|| "the whole campaign (no shard)".to_string()),
                ));
            }
            // Dataset digests get their own refusal naming the first
            // differing input, so a journal from a different dataset is
            // an operator-actionable error instead of a generic
            // fingerprint mismatch.
            let (jd, md) = (
                j.meta.get("dataset").and_then(Value::as_array),
                meta.get("dataset").and_then(Value::as_array),
            );
            if jd != md {
                let detail = crate::shard::first_dataset_difference(jd, md)
                    .unwrap_or_else(|| "dataset digest lists differ".to_string());
                return Err(format!(
                    "journal {} was written against different input data: {detail}; \
                     resuming would mix measurements from two datasets",
                    path.display()
                ));
            }
            if j.meta != meta {
                return Err(format!(
                    "journal {} was written by a different campaign configuration \
                     (space, files, scale, or verify flag differ); refusing to \
                     resume from it",
                    path.display()
                ));
            }
            for u in &j.units {
                let (key, stats) = unit_from_value(u, nc, nr)?;
                prior_units.insert(key, stats);
            }
            for q in &j.quarantined {
                let entry = quarantine_from_value(q)?;
                prior_quarantine.insert((entry.file_index, entry.s1_index), entry);
            }
            journal_valid_len = Some(j.valid_len);
        }
    }
    let writer: Option<JournalWriter> = match (&opts.journal, journal_valid_len) {
        (Some(path), Some(len)) => Some(JournalWriter::resume(path, len, opts.fsync)?),
        (Some(path), None) => Some(JournalWriter::create(path, &meta, opts.fsync)?),
        (None, _) => None,
    };

    let resumed_units = prior_units.len();
    let mut executed_units = 0usize;
    // A unit executes when this process owns it and the journal holds
    // neither its statistics nor its quarantine record.
    let to_execute = |fi: usize, i1: usize| {
        owns(fi, i1)
            && !prior_units.contains_key(&(fi, i1))
            && !prior_quarantine.contains_key(&(fi, i1))
    };
    // Units this run will actually execute — the heartbeat's denominator.
    let planned = (0..sc.files.len())
        .map(|fi| (0..nc).filter(|&i1| to_execute(fi, i1)).count())
        .sum();
    let heartbeat = opts.heartbeat.map(|iv| Heartbeat::start(planned, iv));
    let heartbeat = heartbeat.as_ref();
    let mut quarantined: Vec<QuarantineEntry> = prior_quarantine.values().cloned().collect();

    // Soft memory budget for the per-worker working sets.
    let budget_bytes = opts.mem_budget_mb.map(|mb| (mb as u64) << 20);
    let mut interrupted = false;

    let mut enc_log = vec![0f64; c_total * p_total];
    let mut dec_log = vec![0f64; c_total * p_total];
    let mut compressed = vec![0u64; p_total];
    let mut total_uncompressed = 0u64;

    for (file_i, file) in sc.files.iter().enumerate() {
        let data = lc_data::generate(file, sc.scale);
        let input = ChunkedData::from_bytes(&data);
        // Extrapolate to the paper's operating point: kernel counters are
        // extensive (per-byte-proportional), so measurements taken on the
        // reduced input scale to the full Table 3 file size. This keeps
        // kernel-launch overhead and occupancy at the paper's regime —
        // §5 notes every tested input fully occupies every tested GPU —
        // instead of letting fixed costs dominate tiny inputs.
        let measured_bytes = input.total_bytes();
        // Memory governor: a work unit holds the input plus its held
        // prefix outputs, the current stage's output and scratch arenas —
        // conservatively ~8× the measured input bytes. Run only as many
        // workers as fit in the budget, degrading to serial rather than
        // failing.
        let workers = match budget_bytes {
            Some(budget) => {
                let est_unit = measured_bytes.saturating_mul(8).max(1);
                let fit = (budget / est_unit).max(1) as usize;
                let w = sc.threads.min(fit).max(1);
                if w < sc.threads && lc_telemetry::enabled() {
                    lc_telemetry::counter("campaign.mem.shed_workers").add((sc.threads - w) as u64);
                }
                w
            }
            None => sc.threads,
        };
        let pool = Pool::new(workers);
        let paper_bytes = file.paper_size_tenth_mb as u64 * 100_000;
        total_uncompressed += paper_bytes;
        let ctx = FileCtx {
            extrapolate: paper_bytes as f64 / measured_bytes as f64,
            chunks: paper_bytes.div_ceil(lc_core::CHUNK_SIZE as u64),
            unc: paper_bytes,
            file_i,
        };
        let price = |i1: usize, stats: &UnitStats| {
            let _span =
                lc_telemetry::span_in!("campaign", "price", file = file.name, s1_index = i1);
            price_unit(&Model::PAPER, stats, &ctx, &configs, &plan, i1)
        };

        // One task per stage-1 component; each owns the contiguous
        // pipeline-index range [i1·nc·nr, (i1+1)·nc·nr). Units already in
        // the journal (measured or quarantined) are not re-run.
        let pending: Vec<usize> = (0..nc).filter(|&i1| to_execute(file_i, i1)).collect();

        let journal_err: Mutex<Option<String>> = Mutex::new(None);
        let record_err = |e: String| {
            journal_err
                .lock()
                .expect("journal error mutex") // invariant: holders never panic
                .get_or_insert(e);
        };
        // The Err variant is boxed: quarantine is the cold path, and the
        // entry (with its timing and trace) dwarfs the Ok rows pointer.
        let work = |k: usize| -> Result<UnitRows, Box<QuarantineEntry>> {
            let i1 = pending[k];
            let s1_name = sc.space.components[i1].name();
            let mut unit_span = lc_telemetry::span_in!(
                "campaign",
                "unit",
                file = file.name,
                s1 = s1_name,
                s1_index = i1,
            );
            let watchdog = opts.unit_deadline.map(Watchdog::new);
            let unit_start = Instant::now();
            let mut stage_ns = [0u64; 3];
            let result = run_unit(
                sc,
                &input,
                &plan,
                i1,
                &cache_stats,
                watchdog.as_ref(),
                &mut stage_ns,
            );
            let timing = UnitTiming {
                elapsed_ms: unit_start.elapsed().as_millis() as u64,
                stage_ms: stage_ns.map(|n| n / 1_000_000),
            };
            unit_span.arg("elapsed_ms", timing.elapsed_ms);
            unit_span.arg("ok", result.is_ok());
            drop(unit_span);
            let out = match result {
                Ok(stats) => {
                    if let Some(w) = &writer {
                        let _span = lc_telemetry::span_in!("campaign", "journal", s1_index = i1);
                        let v = unit_value(file_i, file.name, i1, &sc.space, &stats, timing);
                        if let Err(e) = w.append(&v) {
                            record_err(e);
                        }
                    }
                    Ok(price(i1, &stats))
                }
                Err((fault, stage_trace)) => {
                    // Black-box breadcrumb: quarantines are exactly the
                    // events a post-mortem wants, so they always land in
                    // the flight recorder when it is armed.
                    lc_telemetry::flight::note(
                        "campaign.quarantine",
                        &[("file", file_i as u64), ("s1", i1 as u64)],
                    );
                    let entry = QuarantineEntry {
                        file: file.name.to_string(),
                        file_index: file_i,
                        component: s1_name.to_string(),
                        s1_index: i1,
                        reason: match fault {
                            StageFault::Panic(msg) => QuarantineReason::Panic(msg),
                            StageFault::DeadlineExceeded {
                                elapsed_ms,
                                limit_ms,
                            } => QuarantineReason::DeadlineExceeded {
                                elapsed_ms,
                                limit_ms,
                            },
                        },
                        stage_trace,
                        timing,
                    };
                    if let Some(w) = &writer {
                        if let Err(e) = w.append(&quarantine_value(&entry)) {
                            record_err(e);
                        }
                    }
                    if let Some(hb) = heartbeat {
                        hb.unit_quarantined();
                    }
                    Err(Box::new(entry))
                }
            };
            if let Some(hb) = heartbeat {
                hb.unit_done();
            }
            // Chaos: seeded SIGKILL at the unit boundary (supervisor
            // soak). Consulted strictly *after* this unit's journal
            // append, so every attempt makes durable progress and the
            // supervisor's retry-with-resume loop must converge in at
            // most (owned units + 1) launches. One relaxed load when no
            // plan is installed.
            if lc_chaos::kill_requested() {
                lc_parallel::raise_sigkill();
            }
            out
        };
        // With a cancel token, workers stop claiming at the next unit
        // boundary and unclaimed slots come back `None` — those units
        // were neither executed nor journaled and simply rerun on
        // resume. Without a token the fan-out is the historical
        // drain-everything map.
        let computed: Vec<Option<Result<UnitRows, Box<QuarantineEntry>>>> = match &opts.cancel {
            Some(token) => pool.map_cancellable(pending.len(), token, work),
            None => pool
                .map(pending.len(), work)
                .into_iter()
                .map(Some)
                .collect(),
        };
        executed_units += computed.iter().filter(|r| r.is_some()).count();
        // invariant: holders never panic
        if let Some(e) = journal_err.into_inner().expect("journal error mutex") {
            return Err(e);
        }
        // Per-file durability barrier: everything this file journaled is
        // on disk before the next file starts (under `--fsync never`
        // this is a no-op).
        if let Some(w) = &writer {
            w.checkpoint()?;
        }

        // Assemble this file's rows in stage-1 order: journaled units are
        // priced through the same function and slot in exactly where a
        // live computation would have.
        let mut unit_of: Vec<Option<UnitRows>> = Vec::new();
        unit_of.resize_with(nc, || None);
        for (k, res) in computed.into_iter().enumerate() {
            match res {
                None => {} // cancelled before this unit was claimed
                Some(Ok(rows)) => unit_of[pending[k]] = Some(rows),
                Some(Err(entry)) => quarantined.push(*entry),
            }
        }
        let resumed: Vec<(usize, &UnitStats)> = (0..nc)
            .filter_map(|i1| prior_units.get(&(file_i, i1)).map(|s| (i1, s)))
            .collect();
        let repriced = pool.map(resumed.len(), |k| price(resumed[k].0, resumed[k].1));
        for ((i1, _), rows) in resumed.iter().zip(repriced) {
            unit_of[*i1] = Some(rows);
        }

        // Sequential accumulation in fixed (file, i1) order: floating-
        // point addition order is identical whether a unit was computed
        // or journaled — this is what makes resume byte-identical.
        for (i1, maybe) in unit_of.into_iter().enumerate() {
            let Some((row_enc, row_dec, row_comp)) = maybe else {
                continue; // quarantined: contributes nothing
            };
            for c in 0..c_total {
                let dst = c * p_total + i1 * stride;
                for k in 0..stride {
                    enc_log[dst + k] += row_enc[c * stride + k];
                    dec_log[dst + k] += row_dec[c * stride + k];
                }
            }
            for k in 0..stride {
                compressed[i1 * stride + k] += row_comp[k];
            }
        }

        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            // Everything completed so far is journaled and checkpointed;
            // stop claiming files and hand back a resumable state.
            interrupted = true;
            break;
        }
    }

    // Final durability barrier: an uninterrupted campaign's journal is
    // fully on disk before the caller writes derived artifacts.
    if let Some(w) = &writer {
        w.checkpoint()?;
    }

    // Fill each pruned slot from its representative. The rewrite system
    // guarantees identical reducer output sizes, so the compressed bytes
    // are exact. At the exact tier the stage timings are the member's
    // own as well, modulo the per-pipeline jitter seed whose run-to-run
    // noise the slot inherits; canonical pattern-tier members may
    // genuinely time differently, which is that mode's documented
    // trade-off.
    for (p, q) in plan.pruned_cells() {
        for c in 0..c_total {
            enc_log[c * p_total + p] = enc_log[c * p_total + q];
            dec_log[c * p_total + p] = dec_log[c * p_total + q];
        }
        compressed[p] = compressed[q];
    }

    let n_files = sc.files.len() as f64;
    let finish =
        |log: Vec<f64>| -> Vec<f64> { log.into_iter().map(|s| (s / n_files).exp()).collect() };
    quarantined.sort_by_key(|q| (q.file_index, q.s1_index));
    Ok(CampaignOutcome {
        measurements: Measurements {
            space: sc.space.clone(),
            configs,
            files: sc.files.iter().map(|f| f.name).collect(),
            enc: finish(enc_log),
            dec: finish(dec_log),
            total_uncompressed,
            compressed,
        },
        quarantined,
        resumed_units,
        executed_units,
        cache: cache_stats.report(),
        prune: plan.report(),
        interrupted,
    })
}

/// Run one stage of a unit's walk behind the panic fence and watchdog,
/// handing its output chunks to `sink`. `ns_slot` accrues the stage's
/// wall nanoseconds (including a failing stage's partial time, so
/// quarantine records show where a dying unit spent its budget).
fn eval_stage(
    comp: &dyn lc_core::Component,
    input: &ChunkedData,
    verify: bool,
    watchdog: Option<&Watchdog>,
    bufs: &mut StageBufs,
    sink: impl FnMut(&[u8]),
    ns_slot: &mut u64,
) -> Result<StageTally, StageFault> {
    let t = Instant::now();
    let r = run_stage_checked(comp, input, verify, watchdog, bufs, sink);
    *ns_slot += t.elapsed().as_nanos() as u64;
    r
}

/// [`eval_stage`] for a prefix stage, whose output the unit holds.
fn eval_prefix(
    comp: &dyn lc_core::Component,
    input: &ChunkedData,
    verify: bool,
    watchdog: Option<&Watchdog>,
    bufs: &mut StageBufs,
    ns_slot: &mut u64,
) -> Result<StageOutcome, StageFault> {
    let mut chunks = Vec::with_capacity(input.chunk_count());
    let t = eval_stage(
        comp,
        input,
        verify,
        watchdog,
        bufs,
        |c| chunks.push(c.to_vec()),
        ns_slot,
    )?;
    Ok(t.with_output(chunks))
}

/// Execute one work unit: every measured pipeline in the contiguous range
/// `(i1, *, *)`, returning its [`UnitStats`] table. The loop nest is the
/// prefix memoization (see [`crate::prefix`]): the `(s1)` outcome lives
/// for the whole unit and the `(s1, s2)` outcome for one row, each
/// computed at the first measured cell that needs it, so fully pruned
/// rows never run stage 2. Only the final reducer stage runs per cell.
/// Every stage runs behind the panic fence and watchdog of
/// [`run_stage_checked`], through one set of stage buffers for the whole
/// unit; the reducer stage only counts its output bytes. On fault, the
/// returned trace names the stages that were executing.
///
/// `stage_ns` accumulates wall nanoseconds per stage position; reused
/// prefixes contribute nothing there (no stage ran).
fn run_unit(
    sc: &StudyConfig,
    input: &ChunkedData,
    plan: &PrunePlan,
    i1: usize,
    prefixes: &CacheStats,
    watchdog: Option<&Watchdog>,
    stage_ns: &mut [u64; 3],
) -> Result<UnitStats, (StageFault, String)> {
    let nc = sc.space.components.len();
    let nr = sc.space.reducers.len();
    let s1_name = sc.space.components[i1].name();
    let mut stats = UnitStats::zeroed(nc, nr);
    let mut s1: Option<StageOutcome> = None;
    let mut held = 0u64;
    let mut bufs = StageBufs::default();

    for i2 in 0..nc {
        let s2_name = sc.space.components[i2].name();
        let mut s2: Option<StageOutcome> = None;
        for ir in 0..nr {
            let local = i2 * nr + ir;
            // A pruned cell never executes; it stays zero (and is
            // journaled as zero) until aggregation copies its
            // representative's sums in.
            if !plan.measures(i1 * nc * nr + local) {
                if lc_telemetry::enabled() {
                    lc_telemetry::counter("campaign.analyze.skipped_cells").add(1);
                }
                continue;
            }
            let e1 = prefixes.prefix(&mut s1, || {
                eval_prefix(
                    sc.space.components[i1].as_ref(),
                    input,
                    sc.verify,
                    watchdog,
                    &mut bufs,
                    &mut stage_ns[0],
                )
                .map_err(|f| (f, format!("s1={s1_name}")))
            })?;
            let e2 = prefixes.prefix(&mut s2, || {
                eval_prefix(
                    sc.space.components[i2].as_ref(),
                    &e1.output,
                    sc.verify,
                    watchdog,
                    &mut bufs,
                    &mut stage_ns[1],
                )
                .map_err(|f| (f, format!("s1={s1_name} s2={s2_name}")))
            })?;
            held = held.max(e1.output.total_bytes() + e2.output.total_bytes());
            // Final reducer: unique to this pipeline, always executed.
            // No later stage reads its output, so only its size is kept.
            let mut s3_bytes = 0u64;
            let s3 = eval_stage(
                sc.space.reducers[ir].as_ref(),
                &e2.output,
                sc.verify,
                watchdog,
                &mut bufs,
                |c| s3_bytes += c.len() as u64,
                &mut stage_ns[2],
            )
            .map_err(|f| {
                let s3_name = sc.space.reducers[ir].name();
                (f, format!("s1={s1_name} s2={s2_name} s3={s3_name}"))
            })?;
            stats.s1 = [e1.enc, e1.dec];
            stats.s2[i2] = [e2.enc, e2.dec];
            stats.s3[local] = ([s3.enc, s3.dec], s3_bytes);
        }
    }
    prefixes.held(held);
    Ok(stats)
}

/// Price one unit's statistics on every platform in `configs`: the only
/// place the `gpu-sim` cost model is consulted. Counters are
/// extrapolated to the paper-scale file, each measured cell is timed by
/// `model`'s own methods (per-stage times, then the platform's
/// [`Model::grid_time`], built once per unit — the path
/// [`Model::pipeline_time`] takes), jittered by the
/// median-of-three protocol, and stored as a log-throughput. The f64
/// operation order is fixed, so a unit priced straight after execution
/// and one replayed from the journal give the same bits. Unmeasured
/// cells stay zero.
fn price_unit(
    model: &Model,
    stats: &UnitStats,
    ctx: &FileCtx,
    configs: &[SimConfig],
    plan: &PrunePlan,
    i1: usize,
) -> UnitRows {
    let (extrapolate, chunks, unc) = (ctx.extrapolate, ctx.chunks, ctx.unc);
    let stride = stats.s3.len();
    let nr = stride / stats.s2.len().max(1);
    let c_total = configs.len();
    let mut row_enc = vec![0f64; c_total * stride];
    let mut row_dec = vec![0f64; c_total * stride];
    let mut row_comp = vec![0u64; stride];

    // Per-platform (encode, decode) time over this unit's grid.
    let grids: Vec<_> = configs
        .iter()
        .map(|cfg| {
            (
                model.grid_time(cfg, Direction::Encode, chunks),
                model.grid_time(cfg, Direction::Decode, chunks),
            )
        })
        .collect();
    // Per-platform (encode, decode) time of one extrapolated stage.
    let times = |[e, d]: &StagePair| -> Vec<(f64, f64)> {
        let (e, d) = (e.scaled(extrapolate), d.scaled(extrapolate));
        configs
            .iter()
            .map(|cfg| {
                (
                    model.stage_time(cfg, &e, chunks),
                    model.stage_time(cfg, &d, chunks),
                )
            })
            .collect()
    };
    let st1 = times(&stats.s1);
    for (i2, s2) in stats.s2.iter().enumerate() {
        let st2 = times(s2);
        for local in i2 * nr..(i2 + 1) * nr {
            let p_idx = i1 * stride + local;
            if !plan.measures(p_idx) {
                continue;
            }
            let ([s3e, s3d], bytes) = &stats.s3[local];
            let (s3e, s3d) = (s3e.scaled(extrapolate), s3d.scaled(extrapolate));
            let comp_bytes = paper_compressed_bytes(*bytes, extrapolate, chunks);
            row_comp[local] = comp_bytes;
            for (c, cfg) in configs.iter().enumerate() {
                let (grid_enc, grid_dec) = &grids[c];
                let st3_enc = model.stage_time(cfg, &s3e, chunks);
                let st3_dec = model.stage_time(cfg, &s3d, chunks);
                let bytes = unc + comp_bytes;
                let t_enc = grid_enc(st1[c].0 + st2[c].0 + st3_enc, bytes);
                let t_dec = grid_dec(st1[c].1 + st2[c].1 + st3_dec, bytes);
                let seed = (ctx.file_i as u64) << 48 | (p_idx as u64) << 8 | c as u64;
                let t_enc = median_of_three_runs(t_enc, splitmix64(seed), model.run_jitter);
                let t_dec =
                    median_of_three_runs(t_dec, splitmix64(seed ^ 0xDEC0), model.run_jitter);
                row_enc[c * stride + local] =
                    throughput_gbs(unc, t_enc).max(f64::MIN_POSITIVE).ln();
                row_dec[c * stride + local] =
                    throughput_gbs(unc, t_dec).max(f64::MIN_POSITIVE).ln();
            }
        }
    }
    (row_enc, row_dec, row_comp)
}

/// The journal fingerprint: everything that determines a unit's
/// journaled statistics. Resume refuses a journal whose meta record
/// differs, and merge refuses shards that differ in anything but
/// `shard`. The opt levels are not part of it: they only decide how the
/// statistics are priced, so a journal resumes under any of them.
fn journal_meta(
    sc: &StudyConfig,
    plan: &PrunePlan,
    shard: Option<&crate::shard::ShardSpec>,
    with_dataset: bool,
) -> Value {
    let comp_sig: Vec<&str> = sc.space.components.iter().map(|c| c.name()).collect();
    let red_sig: Vec<&str> = sc.space.reducers.iter().map(|c| c.name()).collect();
    let mut fields = vec![
        ("kind", Value::from("meta")),
        ("journal_version", Value::from(journal::JOURNAL_VERSION)),
        (
            "space",
            Value::from(format!("{}|{}", comp_sig.join(","), red_sig.join(","))),
        ),
        (
            "files",
            Value::array(sc.files.iter().map(|f| Value::from(f.name))),
        ),
        ("scale", Value::from(sc.scale.divisor() as u64)),
        ("verify", Value::from(sc.verify)),
    ];
    // A shard journal holds only its owned units, so its identity pins
    // both resume (same shard only) and merge (complete set only).
    if let Some(s) = shard {
        fields.push(("shard", Value::from(s.meta_label())));
    }
    // The digests pin the exact input bytes the statistics were measured
    // on: two journals that disagree here must never be mixed — resume
    // and merge both refuse with the first differing file.
    if with_dataset {
        fields.push((
            "dataset",
            Value::array(sc.files.iter().map(|f| {
                let data = lc_data::generate(f, sc.scale);
                Value::from(format!(
                    "{}:{:08x}",
                    f.name,
                    lc_core::checksum::crc32(&data)
                ))
            })),
        ));
    }
    // Pruned cells are journaled as zeros, so a journal written under one
    // prune tier must not be resumed under another, nor under a
    // different skip table (a changed rewrite system must not resume old
    // records).
    fields.push(("prune", Value::from(plan.mode.label())));
    fields.push(("class_map", Value::from(format!("{:016x}", plan.class_map))));
    Value::object(fields)
}

/// Serialize timing as a nested object — `DeadlineExceeded` records carry
/// their own top-level `elapsed_ms`, so the unit timing must not collide.
fn timing_value(t: UnitTiming) -> Value {
    Value::object([
        ("elapsed_ms", Value::from(t.elapsed_ms)),
        (
            "stage_ms",
            Value::array(t.stage_ms.iter().map(|&v| Value::from(v))),
        ),
    ])
}

fn timing_from_value(record: &Value) -> Result<UnitTiming, String> {
    let v = record
        .get("timing")
        .ok_or_else(|| "record missing timing".to_string())?;
    let elapsed_ms = v
        .get("elapsed_ms")
        .and_then(Value::as_u64)
        .ok_or_else(|| "record missing timing.elapsed_ms".to_string())?;
    let arr = v
        .get("stage_ms")
        .and_then(Value::as_array)
        .ok_or_else(|| "record missing timing.stage_ms".to_string())?;
    if arr.len() != 3 {
        return Err(format!("stage_ms has {} entries, expected 3", arr.len()));
    }
    let mut stage_ms = [0u64; 3];
    for (dst, x) in stage_ms.iter_mut().zip(arr) {
        *dst = x
            .as_u64()
            .ok_or_else(|| "non-integer value in stage_ms".to_string())?;
    }
    Ok(UnitTiming {
        elapsed_ms,
        stage_ms,
    })
}

fn unit_value(
    file_i: usize,
    file_name: &str,
    i1: usize,
    space: &Space,
    stats: &UnitStats,
    timing: UnitTiming,
) -> Value {
    Value::object([
        ("kind", Value::from("unit")),
        ("file_index", Value::from(file_i as u64)),
        ("file", Value::from(file_name)),
        ("s1_index", Value::from(i1 as u64)),
        ("s1", Value::from(space.components[i1].name())),
        ("timing", timing_value(timing)),
        (
            "stats",
            Value::array(stats.to_flat().into_iter().map(Value::from)),
        ),
    ])
}

fn unit_from_value(v: &Value, nc: usize, nr: usize) -> Result<((usize, usize), UnitStats), String> {
    let idx = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("unit record missing {key}"))
    };
    let key = (idx("file_index")?, idx("s1_index")?);
    let arr = v
        .get("stats")
        .and_then(Value::as_array)
        .ok_or_else(|| "unit record missing stats".to_string())?;
    let want = UnitStats::flat_len(nc, nr);
    if arr.len() != want {
        return Err(format!(
            "unit record stats has {} values, campaign expects {want}",
            arr.len()
        ));
    }
    let flat = arr
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| "non-integer value in stats".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok((key, UnitStats::from_flat(&flat, nc)))
}

fn quarantine_value(q: &QuarantineEntry) -> Value {
    let mut fields = vec![
        ("kind", Value::from("quarantine")),
        ("file_index", Value::from(q.file_index as u64)),
        ("file", Value::from(q.file.as_str())),
        ("s1_index", Value::from(q.s1_index as u64)),
        ("s1", Value::from(q.component.as_str())),
        ("trace", Value::from(q.stage_trace.as_str())),
        ("timing", timing_value(q.timing)),
    ];
    match &q.reason {
        QuarantineReason::Panic(msg) => {
            fields.push(("reason", Value::from("panic")));
            fields.push(("message", Value::from(msg.as_str())));
        }
        QuarantineReason::DeadlineExceeded {
            elapsed_ms,
            limit_ms,
        } => {
            fields.push(("reason", Value::from("deadline")));
            fields.push(("elapsed_ms", Value::from(*elapsed_ms)));
            fields.push(("limit_ms", Value::from(*limit_ms)));
        }
    }
    Value::object(fields)
}

fn quarantine_from_value(v: &Value) -> Result<QuarantineEntry, String> {
    let s = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("quarantine record missing {key}"))
    };
    let n = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("quarantine record missing {key}"))
    };
    let reason = match s("reason")?.as_str() {
        "panic" => QuarantineReason::Panic(s("message")?),
        "deadline" => QuarantineReason::DeadlineExceeded {
            elapsed_ms: n("elapsed_ms")?,
            limit_ms: n("limit_ms")?,
        },
        other => return Err(format!("unknown quarantine reason {other:?}")),
    };
    Ok(QuarantineEntry {
        file: s("file")?,
        file_index: n("file_index")? as usize,
        component: s("s1")?,
        s1_index: n("s1_index")? as usize,
        reason,
        stage_trace: s("trace")?,
        timing: timing_from_value(v)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Combine, CompilerId};

    fn quick_measurements() -> Measurements {
        run_campaign(&StudyConfig::quick())
    }

    #[test]
    fn campaign_produces_positive_throughputs() {
        let m = quick_measurements();
        assert_eq!(m.configs.len(), 11);
        assert_eq!(m.space.len(), 16 * 16 * 8);
        for c in 0..m.configs.len() {
            for dir in [Direction::Encode, Direction::Decode] {
                for &v in m.series(c, dir) {
                    assert!(v > 0.0 && v.is_finite(), "{v}");
                }
            }
        }
    }

    #[test]
    fn decode_is_generally_faster_than_encode() {
        // Paper §6.1: decoding throughputs are generally higher.
        let m = quick_measurements();
        let c = m
            .config_index("RTX 4090", CompilerId::Nvcc, OptLevel::O3)
            .unwrap();
        let enc_med = crate::stats::median(m.series(c, Direction::Encode));
        let dec_med = crate::stats::median(m.series(c, Direction::Decode));
        assert!(
            dec_med > enc_med,
            "decode median {dec_med} vs encode median {enc_med}"
        );
    }

    #[test]
    fn clang_encode_slower_decode_faster() {
        let m = quick_measurements();
        let nv = m
            .config_index("RTX 4090", CompilerId::Nvcc, OptLevel::O3)
            .unwrap();
        let cl = m
            .config_index("RTX 4090", CompilerId::Clang, OptLevel::O3)
            .unwrap();
        let enc_nv = crate::stats::median(m.series(nv, Direction::Encode));
        let enc_cl = crate::stats::median(m.series(cl, Direction::Encode));
        let dec_nv = crate::stats::median(m.series(nv, Direction::Decode));
        let dec_cl = crate::stats::median(m.series(cl, Direction::Decode));
        assert!(enc_cl < enc_nv, "Clang encode {enc_cl} vs NVCC {enc_nv}");
        assert!(dec_cl > dec_nv, "Clang decode {dec_cl} vs NVCC {dec_nv}");
    }

    #[test]
    fn nvcc_hipcc_close_on_nvidia() {
        let m = quick_measurements();
        let nv = m
            .config_index("RTX 4090", CompilerId::Nvcc, OptLevel::O3)
            .unwrap();
        let hip = m
            .config_index("RTX 4090", CompilerId::Hipcc, OptLevel::O3)
            .unwrap();
        let a = crate::stats::median(m.series(nv, Direction::Encode));
        let b = crate::stats::median(m.series(hip, Direction::Encode));
        assert!((a / b - 1.0).abs() < 0.03, "{a} vs {b}");
    }

    #[test]
    fn gpu_staircase() {
        let m = quick_measurements();
        let titan = m
            .config_index("TITAN V", CompilerId::Nvcc, OptLevel::O3)
            .unwrap();
        let ti = m
            .config_index("RTX 3080 Ti", CompilerId::Nvcc, OptLevel::O3)
            .unwrap();
        let k90 = m
            .config_index("RTX 4090", CompilerId::Nvcc, OptLevel::O3)
            .unwrap();
        let med = |c| crate::stats::median(m.series(c, Direction::Encode));
        assert!(med(titan) < med(ti), "TITAN V < 3080 Ti");
        assert!(med(ti) < med(k90), "3080 Ti < 4090");
    }

    #[test]
    fn median_of_three_runs_is_deterministic_and_small() {
        let a = median_of_three_runs(1.0, 42, Model::PAPER.run_jitter);
        let b = median_of_three_runs(1.0, 42, Model::PAPER.run_jitter);
        assert_eq!(a, b);
        assert!((a - 1.0).abs() < 0.005);
        let c = median_of_three_runs(1.0, 43, Model::PAPER.run_jitter);
        assert_ne!(a, c, "different seeds give different jitter");
    }

    // ---- pricing ---------------------------------------------------------

    /// One stage's statistics over `n` measured chunks, every counter
    /// nonzero. A light stage leaves every platform DRAM-bound; a heavy
    /// one (divergent, atomics, scans) makes every platform compute-bound.
    fn stage_stats(n: u64, heavy: bool) -> KernelStats {
        let k = |light: u64, heavy_value: u64| n * if heavy { heavy_value } else { light };
        KernelStats {
            words: n * 4096,
            thread_ops: k(256, 4096 * 20),
            global_reads: n * 16384,
            global_writes: n * 16384,
            shared_traffic: k(1024, 65536),
            warp_shuffles: k(8, 4096),
            warp_syncs: k(1, 64),
            block_syncs: k(1, 32),
            atomic_ops: k(1, 64),
            scan_steps: k(1, 26),
            divergent_branches: k(1, 2000),
        }
    }

    /// A 4 × 4 unit (RZE_{1,2,4,8} in stages 1–2, same as reducers) whose
    /// light first stages are shared by alternating light and heavy
    /// reducers, extrapolated ×2 to 6400 chunks, priced on all 22
    /// platform × opt configs with no pruning.
    struct PricingFixture {
        stats: UnitStats,
        ctx: FileCtx,
        configs: Vec<SimConfig>,
        plan: PrunePlan,
    }

    impl PricingFixture {
        fn new() -> Self {
            let (n, nc, nr) = (3200, 4, 4);
            let pair = |heavy| [stage_stats(n, heavy), stage_stats(n, heavy)];
            let mut stats = UnitStats::zeroed(nc, nr);
            stats.s1 = pair(false);
            stats.s2 = vec![pair(false); nc];
            for (local, cell) in stats.s3.iter_mut().enumerate() {
                let heavy = local % 2 == 1;
                *cell = (pair(heavy), n * if heavy { 8000 } else { 16384 });
            }
            Self {
                stats,
                ctx: FileCtx {
                    extrapolate: 2.0,
                    chunks: 2 * n,
                    unc: 2 * n * 16384,
                    file_i: 1,
                },
                configs: [OptLevel::O1, OptLevel::O3]
                    .iter()
                    .flat_map(|&o| all_platforms(o))
                    .collect(),
                plan: PrunePlan::for_space(
                    &Space::restricted_to_families(&["RZE"]),
                    PruneMode::Off,
                ),
            }
        }

        fn price(&self, model: &Model) -> UnitRows {
            price_unit(model, &self.stats, &self.ctx, &self.configs, &self.plan, 0)
        }
    }

    #[test]
    fn price_unit_is_model_pipeline_time() {
        // Without jitter, every cell price_unit writes is the
        // log-throughput of `Model::pipeline_time` on the cell's three
        // extrapolated stages, bit for bit: the campaign has no pricing
        // formula of its own.
        let f = PricingFixture::new();
        assert_eq!(f.configs.len(), 22);
        let (x, chunks, unc) = (f.ctx.extrapolate, f.ctx.chunks, f.ctx.unc);
        let nr = f.stats.s3.len() / f.stats.s2.len();
        for combine in [Combine::Roofline, Combine::Additive] {
            let model = Model {
                run_jitter: 0.0,
                combine,
                ..Model::PAPER
            };
            let (enc, dec, comp) = f.price(&model);
            for (local, (s3, bytes)) in f.stats.s3.iter().enumerate() {
                assert_eq!(comp[local], paper_compressed_bytes(*bytes, x, chunks));
                let stages = |d: usize| {
                    [&f.stats.s1, &f.stats.s2[local / nr], s3].map(|pair| pair[d].scaled(x))
                };
                for (c, cfg) in f.configs.iter().enumerate() {
                    for (row, dir, d) in
                        [(&enc, Direction::Encode, 0), (&dec, Direction::Decode, 1)]
                    {
                        let t = model.pipeline_time(cfg, dir, &stages(d), chunks, unc, comp[local]);
                        let want = throughput_gbs(unc, t).max(f64::MIN_POSITIVE).ln();
                        let got = row[c * f.stats.s3.len() + local];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} cell {local} {dir:?}: {got} vs {want}",
                            cfg.label()
                        );
                    }
                }
            }
        }
    }

    /// A named accessor of one calibrated value inside `T`.
    type Field<T> = (&'static str, fn(&mut T) -> &mut f64);

    #[test]
    fn every_calibrated_constant_moves_the_prices() {
        // A 0.1 % change to any calibrated value must change what the
        // campaign reports; a constant that moves nothing is dead.
        let f = PricingFixture::new();
        let base = f.price(&Model::PAPER);
        let moves = |model: &Model| {
            let rows = f.price(model);
            rows.0 != base.0 || rows.1 != base.1
        };
        let fields: [Field<Model>; 13] = [
            ("cycles_per_op", |m| &mut m.cycles_per_op),
            ("divergence_ops", |m| &mut m.divergence_ops),
            ("shuffle_cycles", |m| &mut m.shuffle_cycles),
            ("shared_bytes_per_sm_cycle", |m| {
                &mut m.shared_bytes_per_sm_cycle
            }),
            ("block_sync_cycles", |m| &mut m.block_sync_cycles),
            ("warp_sync_cycles", |m| &mut m.warp_sync_cycles),
            ("scan_step_cycles", |m| &mut m.scan_step_cycles),
            ("atomic_cycles", |m| &mut m.atomic_cycles),
            ("enc_lookback_chain_cycles", |m| {
                &mut m.enc_lookback_chain_cycles
            }),
            ("enc_lookback_wave_cycles", |m| {
                &mut m.enc_lookback_wave_cycles
            }),
            ("dec_scan_chain_cycles", |m| &mut m.dec_scan_chain_cycles),
            ("dec_scan_wave_cycles", |m| &mut m.dec_scan_wave_cycles),
            ("run_jitter", |m| &mut m.run_jitter),
        ];
        for (name, field) in fields {
            let mut m = Model::PAPER;
            *field(&mut m) *= 1.001;
            assert!(moves(&m), "{name} +0.1 % changes no price");
        }
        let profile_fields: [Field<gpu_sim::CodegenProfile>; 6] = [
            ("compute", |p| &mut p.compute),
            ("memory_efficiency", |p| &mut p.memory_efficiency),
            ("shuffle", |p| &mut p.shuffle),
            ("lookback", |p| &mut p.lookback),
            ("block_scan", |p| &mut p.block_scan),
            ("launch_us", |p| &mut p.launch_us),
        ];
        for platform in 0..4 {
            for opt in 0..2 {
                for (name, field) in profile_fields {
                    let mut m = Model::PAPER;
                    *field(&mut m.profiles.0[platform][opt]) *= 1.001;
                    assert!(
                        moves(&m),
                        "profile [{platform}][{opt}].{name} +0.1 % changes no price"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_files_rejected() {
        let mut sc = StudyConfig::quick();
        sc.files.clear();
        run_campaign(&sc);
    }

    // ---- fault tolerance -------------------------------------------------

    use std::sync::Arc;

    use lc_core::{Component, ComponentKind, KernelStats};

    fn tiny_config() -> StudyConfig {
        let mut sc = StudyConfig::quick();
        sc.space = Space::restricted_to_families(&["DIFF", "RZE"]);
        sc.files = vec![&SP_FILES[0], &SP_FILES[10]];
        sc
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lc-campaign-test-{}-{tag}.jsonl",
            std::process::id()
        ));
        p
    }

    fn assert_bitwise_equal(a: &Measurements, b: &Measurements) {
        assert_eq!(a.enc.len(), b.enc.len());
        for (x, y) in a.enc.iter().zip(&b.enc) {
            assert_eq!(x.to_bits(), y.to_bits(), "enc differs: {x} vs {y}");
        }
        for (x, y) in a.dec.iter().zip(&b.dec) {
            assert_eq!(x.to_bits(), y.to_bits(), "dec differs: {x} vs {y}");
        }
        assert_eq!(a.compressed, b.compressed);
        assert_eq!(a.total_uncompressed, b.total_uncompressed);
    }

    #[test]
    fn journaling_does_not_change_results() {
        let sc = tiny_config();
        let plain = run_campaign(&sc);
        let path = temp_journal("nochange");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        let journaled = run_campaign_with(&sc, &opts).unwrap();
        assert_bitwise_equal(&plain, &journaled.measurements);
        assert_eq!(journaled.resumed_units, 0);
        assert_eq!(journaled.executed_units, 2 * sc.space.components.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_after_partial_journal_is_byte_identical() {
        let sc = tiny_config();
        let path = temp_journal("resume");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        let uninterrupted = run_campaign_with(&sc, &opts).unwrap();

        // Simulate a kill after 3 completed work units: keep the meta
        // line plus the first 3 unit records, plus a torn tail.
        let full = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();
        let total_units = lines.len() - 1;
        lines.truncate(4);
        let mut partial = lines.join("\n");
        partial.push_str("\n{\"kind\":\"unit\",\"file_ind");
        std::fs::write(&path, partial).unwrap();

        let opts = CampaignOptions {
            journal: Some(path.clone()),
            resume: true,
            ..Default::default()
        };
        let resumed = run_campaign_with(&sc, &opts).unwrap();
        assert_eq!(resumed.resumed_units, 3);
        assert_eq!(resumed.executed_units, total_units - 3);
        assert_bitwise_equal(&uninterrupted.measurements, &resumed.measurements);

        // And a second resume from the now-complete journal recomputes
        // nothing at all.
        let again = run_campaign_with(&sc, &opts).unwrap();
        assert_eq!(again.executed_units, 0);
        assert_eq!(again.resumed_units, total_units);
        assert_bitwise_equal(&uninterrupted.measurements, &again.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let sc = tiny_config();
        let path = temp_journal("foreign");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        run_campaign_with(&sc, &opts).unwrap();

        // A different input set trips the dataset-digest refusal, which
        // names the data mismatch rather than the generic fingerprint.
        let mut other = sc.clone();
        other.files = vec![&SP_FILES[0]];
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            resume: true,
            ..Default::default()
        };
        let err = match run_campaign_with(&other, &opts) {
            Err(e) => e,
            Ok(_) => panic!("resuming under a different input set must fail"),
        };
        assert!(err.contains("different input data"), "{err}");

        // A non-dataset config change (verify flag) still lands on the
        // generic fingerprint refusal.
        let mut other = sc.clone();
        other.verify = !other.verify;
        let err = match run_campaign_with(&other, &opts) {
            Err(e) => e,
            Ok(_) => panic!("resuming under a different configuration must fail"),
        };
        assert!(err.contains("different campaign configuration"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_campaign_merges_byte_identical() {
        let sc = tiny_config();
        let dir = std::env::temp_dir().join(format!("lc-shard-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Reference: one journaled single-process run.
        let single = CampaignOptions {
            journal: Some(dir.join("single.jsonl")),
            ..Default::default()
        };
        let reference = run_campaign_with(&sc, &single).unwrap();

        // The same campaign as 3 independent shards, then merged.
        let n = 3;
        let nc = sc.space.components.len();
        let mut sharded_executed = 0;
        for index in 0..n {
            let spec = crate::shard::ShardSpec { index, count: n };
            let opts = CampaignOptions {
                journal: Some(dir.join(spec.journal_file())),
                shard: Some(spec),
                ..Default::default()
            };
            sharded_executed += run_campaign_with(&sc, &opts).unwrap().executed_units;
        }
        assert_eq!(
            sharded_executed,
            sc.files.len() * nc,
            "shards together must execute exactly the full unit space"
        );
        let merged = dir.join("journal.jsonl");
        let rep = crate::shard::merge_shards(&dir, &merged).unwrap();
        assert_eq!(rep.units, sc.files.len() * nc);

        let opts = CampaignOptions {
            journal: Some(merged),
            resume: true,
            ..Default::default()
        };
        let fused = run_campaign_with(&sc, &opts).unwrap();
        assert_eq!(
            fused.executed_units, 0,
            "merge must leave nothing to recompute"
        );
        assert_eq!(fused.resumed_units, sc.files.len() * nc);
        assert_bitwise_equal(&reference.measurements, &fused.measurements);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrite a journal's meta line as an older format version wrote it.
    fn downgrade_journal(path: &std::path::Path, version: u64) {
        let text = std::fs::read_to_string(path).unwrap();
        let (meta, rest) = text.split_once('\n').unwrap();
        let mut meta = Value::parse(meta).unwrap();
        meta["journal_version"] = Value::from(version);
        std::fs::write(path, format!("{}\n{rest}", meta.dump())).unwrap();
    }

    #[test]
    fn resume_refuses_a_v3_journal() {
        let sc = tiny_config();
        let path = temp_journal("v3");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        run_campaign_with(&sc, &opts).unwrap();
        downgrade_journal(&path, 3);
        let err = match run_campaign_with(
            &sc,
            &CampaignOptions {
                resume: true,
                ..opts
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("a v3 journal must not resume"),
        };
        assert!(err.contains("journal format v3"), "{err}");
        assert!(err.contains("re-run the campaign"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The opt levels only decide pricing: a journal written at `[O3]`
    /// resumes at `[O1, O3]` without executing a unit, and the result is
    /// the fresh `[O1, O3]` campaign's, bit for bit.
    #[test]
    fn resume_under_other_opt_levels_only_reprices() {
        let sc = tiny_config();
        let path = temp_journal("reprice");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        run_campaign_with(&sc, &opts).unwrap();
        let mut both = sc.clone();
        both.opt_levels = vec![OptLevel::O1, OptLevel::O3];
        let repriced = run_campaign_with(
            &both,
            &CampaignOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(repriced.executed_units, 0);
        assert_eq!(repriced.resumed_units, 2 * sc.space.components.len());
        assert_eq!(repriced.measurements.configs.len(), 22);
        assert_bitwise_equal(&run_campaign(&both), &repriced.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_shard_identity() {
        let sc = tiny_config();
        let path = temp_journal("shardid");
        let spec = crate::shard::ShardSpec { index: 0, count: 2 };
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            shard: Some(spec),
            ..Default::default()
        };
        run_campaign_with(&sc, &opts).unwrap();

        // Wrong shard index.
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            resume: true,
            shard: Some(crate::shard::ShardSpec { index: 1, count: 2 }),
            ..Default::default()
        };
        let err = match run_campaign_with(&sc, &opts) {
            Err(e) => e,
            Ok(_) => panic!("resuming under the wrong shard index must fail"),
        };
        assert!(err.contains("shard 1/2"), "{err}");

        // Whole-campaign resume from a shard journal.
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            resume: true,
            ..Default::default()
        };
        let err = match run_campaign_with(&sc, &opts) {
            Err(e) => e,
            Ok(_) => panic!("whole-campaign resume from a shard journal must fail"),
        };
        assert!(err.contains("whole campaign"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Identity mutator that panics when fed its trigger bytes — the raw
    /// first chunk of an input file, so it detonates exactly when it runs
    /// as stage 1 (or after another identity-on-this-input stage).
    struct BoomComponent {
        trigger: Vec<u8>,
    }

    impl Component for BoomComponent {
        fn name(&self) -> &'static str {
            "BOOM_1"
        }
        fn kind(&self) -> ComponentKind {
            ComponentKind::Mutator
        }
        fn word_size(&self) -> usize {
            1
        }
        fn complexity(&self) -> lc_core::Complexity {
            lc_core::Complexity::new(
                lc_core::WorkClass::N,
                lc_core::SpanClass::Const,
                lc_core::WorkClass::N,
                lc_core::SpanClass::Const,
            )
        }
        fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _: &mut KernelStats) {
            assert!(input != self.trigger.as_slice(), "intentional test panic");
            out.extend_from_slice(input);
        }
        fn decode_chunk(
            &self,
            input: &[u8],
            out: &mut Vec<u8>,
            _: &mut KernelStats,
        ) -> Result<(), lc_core::DecodeError> {
            out.extend_from_slice(input);
            Ok(())
        }
    }

    fn booby_trapped_config() -> (StudyConfig, usize) {
        let mut sc = tiny_config();
        sc.files = vec![&SP_FILES[0]];
        let data = lc_data::generate(sc.files[0], sc.scale);
        let trigger = data[..lc_core::CHUNK_SIZE.min(data.len())].to_vec();
        sc.space
            .components
            .push(Arc::new(BoomComponent { trigger }));
        let boom = sc.space.components.len() - 1;
        (sc, boom)
    }

    #[test]
    fn panicking_component_is_quarantined_not_fatal() {
        let (sc, boom) = booby_trapped_config();
        let path = temp_journal("quarantine");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        let outcome = run_campaign_with(&sc, &opts).unwrap();
        assert!(
            !outcome.quarantined.is_empty(),
            "boom unit must be quarantined"
        );
        assert!(
            outcome.quarantined.len() < sc.space.components.len(),
            "healthy units must survive the bad component"
        );
        for q in &outcome.quarantined {
            assert!(
                q.stage_trace.contains("BOOM_1"),
                "trace {:?}",
                q.stage_trace
            );
            match &q.reason {
                QuarantineReason::Panic(msg) => {
                    assert!(msg.contains("intentional test panic"), "{msg}")
                }
                other => panic!("expected Panic, got {other:?}"),
            }
        }
        let direct = outcome
            .quarantined
            .iter()
            .find(|q| q.s1_index == boom)
            .expect("the boom-as-stage-1 unit is quarantined");
        assert_eq!(direct.stage_trace, "s1=BOOM_1");
        assert_eq!(direct.component, "BOOM_1");
        assert_eq!(direct.file, "msg_bt");

        // Resume: quarantined units stay quarantined (not re-run) and the
        // numbers stay byte-identical.
        let opts = CampaignOptions {
            resume: true,
            ..opts
        };
        let resumed = run_campaign_with(&sc, &opts).unwrap();
        assert_eq!(resumed.executed_units, 0);
        assert_eq!(resumed.quarantined, outcome.quarantined);
        assert_bitwise_equal(&outcome.measurements, &resumed.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "intentional test panic")]
    fn without_isolation_a_unit_panic_propagates() {
        let (sc, _) = booby_trapped_config();
        let _ = run_campaign(&sc);
    }

    #[test]
    fn quarantine_record_round_trips_timing() {
        let entry = QuarantineEntry {
            file: "msg_bt".to_string(),
            file_index: 0,
            component: "BOOM_1".to_string(),
            s1_index: 7,
            reason: QuarantineReason::DeadlineExceeded {
                elapsed_ms: 9000,
                limit_ms: 5000,
            },
            stage_trace: "s1=BOOM_1 s2=DIFF_4".to_string(),
            timing: UnitTiming {
                elapsed_ms: 9001,
                stage_ms: [100, 8900, 0],
            },
        };
        let v = quarantine_value(&entry);
        assert_eq!(quarantine_from_value(&v).unwrap(), entry);
    }

    // ---- prefix-memoized sweeps ------------------------------------------

    /// The tentpole guarantee: the prefix-memoized executor and the naive
    /// per-pipeline executor produce byte-identical measurements on the
    /// quick space.
    #[test]
    fn memoized_and_naive_sweeps_are_bitwise_identical() {
        let sc = StudyConfig::quick();
        let memoized = run_campaign_with(&sc, &CampaignOptions::default()).unwrap();
        let naive = run_campaign_with(
            &sc,
            &CampaignOptions {
                sweep: SweepMode::Naive,
                ..Default::default()
            },
        )
        .unwrap();
        assert_bitwise_equal(&memoized.measurements, &naive.measurements);

        // Cache accounting sanity. Per unit: 2·nc·nr lookups; memoized
        // mode misses once for s1 and once per s2 (no evictions at the
        // default cap), naive mode misses every lookup.
        let nc = sc.space.components.len() as u64;
        let nr = sc.space.reducers.len() as u64;
        let units = sc.files.len() as u64 * nc;
        let lookups = units * 2 * nc * nr;
        let m = memoized.cache;
        assert_eq!(m.hits + m.misses, lookups);
        assert_eq!(m.misses, units * (1 + nc));
        assert_eq!(m.evictions, 0);
        assert!(m.hit_rate() > 0.9, "hit rate {}", m.hit_rate());
        assert!(m.peak_resident_bytes > 0);
        let n = naive.cache;
        assert_eq!(n.hits, 0);
        assert_eq!(n.misses, lookups);
        assert_eq!(n.hit_rate(), 0.0);
    }

    /// A unit holds its stage-1 output and one row's stage-2 output at a
    /// time, never every row it has walked: on one thread the campaign's
    /// peak is bounded by the largest unit's stage-1 output plus its
    /// largest stage-2 output.
    #[test]
    fn a_unit_holds_one_row_of_prefixes_at_a_time() {
        let mut sc = tiny_config();
        sc.threads = 1;
        sc.files.truncate(1);
        let outcome = run_campaign_with(&sc, &CampaignOptions::default()).unwrap();
        let input = ChunkedData::from_bytes(&lc_data::generate(sc.files[0], sc.scale));
        let comps = &sc.space.components;
        let bound = comps
            .iter()
            .map(|c1| {
                let e1 = crate::runner::run_stage(c1.as_ref(), &input, sc.verify);
                let widest_row = comps
                    .iter()
                    .map(|c2| {
                        crate::runner::run_stage(c2.as_ref(), &e1.output, sc.verify)
                            .output
                            .total_bytes()
                    })
                    .max()
                    .unwrap_or(0);
                e1.output.total_bytes() + widest_row
            })
            .max()
            .unwrap();
        let peak = outcome.cache.peak_resident_bytes;
        assert!(comps.len() > 1, "needs more than one row per unit");
        assert!(peak > 0);
        assert!(peak <= bound, "peak {peak} B exceeds one row's {bound} B");
    }

    /// Strip the `timing` field from a journal unit record — the only
    /// part that may differ between sweep modes.
    fn without_timing(v: &Value) -> Value {
        match v {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k.as_str() != "timing")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn sweep_modes_write_identical_journal_units_modulo_timing() {
        let sc = tiny_config();
        let path_m = temp_journal("sweep-memo");
        let path_n = temp_journal("sweep-naive");
        run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path_m.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path_n.clone()),
                sweep: SweepMode::Naive,
                ..Default::default()
            },
        )
        .unwrap();
        let jm = journal::load(&path_m).unwrap();
        let jn = journal::load(&path_n).unwrap();
        // The sweep mode is not recorded: the meta records are equal.
        assert_eq!(jm.meta, jn.meta);
        // Unit records are identical modulo timing. Journal order is
        // completion order (nondeterministic under the pool), so compare
        // keyed by (file_index, s1_index).
        let key = |v: &Value| {
            (
                v.get("file_index").and_then(Value::as_u64).unwrap(),
                v.get("s1_index").and_then(Value::as_u64).unwrap(),
            )
        };
        let m: HashMap<_, _> = jm
            .units
            .iter()
            .map(|u| (key(u), without_timing(u)))
            .collect();
        let n: HashMap<_, _> = jn
            .units
            .iter()
            .map(|u| (key(u), without_timing(u)))
            .collect();
        assert_eq!(m.len(), n.len());
        assert!(!m.is_empty());
        assert_eq!(m, n);
        std::fs::remove_file(&path_m).ok();
        std::fs::remove_file(&path_n).ok();
    }

    /// Sweep mode is informational: a journal written by one mode resumes
    /// under the other, recomputing nothing.
    #[test]
    fn resume_crosses_sweep_modes() {
        let sc = tiny_config();
        let path = temp_journal("sweep-cross");
        let memoized = run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let resumed = run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path.clone()),
                resume: true,
                sweep: SweepMode::Naive,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.executed_units, 0);
        assert_bitwise_equal(&memoized.measurements, &resumed.measurements);
        std::fs::remove_file(&path).ok();
    }

    // ---- contract-driven pruning -----------------------------------------

    /// A space with commuting stage pairs: TCMS mutators × TUPL
    /// shufflers (10 pairs — TUPL field sizes 1/2/4 each admit the
    /// mutator word sizes dividing them), RZE as the reducer family.
    fn tupl_config() -> StudyConfig {
        let mut sc = StudyConfig::quick();
        sc.space = Space::restricted_to_families(&["TCMS", "TUPL", "RZE"]);
        sc.files = vec![&SP_FILES[0], &SP_FILES[10]];
        sc
    }

    /// Satellite guarantee: pruning changes nothing it didn't prove.
    /// Non-deduplicated slots are bitwise identical to full enumeration;
    /// deduplicated slots equal their representative exactly and the
    /// full-enumeration value up to the modeled run-to-run jitter; the
    /// pruned count is accounted exactly.
    #[test]
    fn pruned_and_full_enumeration_agree() {
        let sc = tupl_config();
        let pruned = run_campaign_with(&sc, &CampaignOptions::default()).unwrap();
        let full = run_campaign_with(
            &sc,
            &CampaignOptions {
                prune: PruneMode::Off,
                ..Default::default()
            },
        )
        .unwrap();

        // Exact accounting.
        let plan = PrunePlan::for_space(&sc.space, PruneMode::Exact);
        let nr = sc.space.reducers.len();
        assert_eq!(
            plan.pruned_pipelines(),
            10 * nr,
            "TCMS × TUPL commuting pairs"
        );
        assert_eq!(pruned.prune.pruned_pipelines, plan.pruned_pipelines());
        assert_eq!(pruned.prune.mode, "exact");
        assert_eq!(full.prune.pruned_pipelines, 0);
        assert_eq!(full.prune.mode, "off");

        // Compressed sizes carry no jitter: every slot, including the
        // deduplicated ones, must agree exactly — the commutation proof
        // says both orders feed the reducer identical bytes.
        assert_eq!(pruned.measurements.compressed, full.measurements.compressed);
        assert_eq!(
            pruned.measurements.total_uncompressed,
            full.measurements.total_uncompressed
        );

        let p_total = sc.space.len();
        let c_total = pruned.measurements.configs.len();
        let mut dup_slots = 0usize;
        for p in 0..p_total {
            let is_dup = !plan.measures(p);
            if is_dup {
                dup_slots += 1;
            }
            for c in 0..c_total {
                let i = c * p_total + p;
                let (pe, fe) = (pruned.measurements.enc[i], full.measurements.enc[i]);
                let (pd, fd) = (pruned.measurements.dec[i], full.measurements.dec[i]);
                if is_dup {
                    // Same pipeline, different jitter seed (the pruned
                    // slot inherits its representative's ±0.4% draw).
                    assert!((pe / fe - 1.0).abs() < 0.02, "enc {pe} vs {fe} at {p}");
                    assert!((pd / fd - 1.0).abs() < 0.02, "dec {pd} vs {fd} at {p}");
                } else {
                    assert_eq!(pe.to_bits(), fe.to_bits(), "enc differs at {p}");
                    assert_eq!(pd.to_bits(), fd.to_bits(), "dec differs at {p}");
                }
            }
        }
        assert!(dup_slots > 0, "the TUPL space must actually deduplicate");
        assert_eq!(dup_slots, pruned.prune.pruned_pipelines);

        // Deduplicated slots are exact copies of their representative.
        for (p, q) in plan.pruned_cells() {
            assert_eq!(
                pruned.measurements.compressed[p],
                pruned.measurements.compressed[q]
            );
            for c in 0..c_total {
                assert_eq!(
                    pruned.measurements.enc[c * p_total + p].to_bits(),
                    pruned.measurements.enc[c * p_total + q].to_bits()
                );
                assert_eq!(
                    pruned.measurements.dec[c * p_total + p].to_bits(),
                    pruned.measurements.dec[c * p_total + q].to_bits()
                );
            }
        }
    }

    /// Pruning participates in the journal fingerprint: rows written
    /// under one mode (pruned slots as zeros) must not be resumed under
    /// the other.
    #[test]
    fn resume_refuses_crossing_prune_modes() {
        let sc = tupl_config();
        let path = temp_journal("prune-cross");
        run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let err = match run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path.clone()),
                resume: true,
                prune: PruneMode::Off,
                ..Default::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("resuming across prune modes must fail"),
        };
        assert!(err.contains("prune mode \"exact\""), "{err}");
        assert!(err.contains("uses \"off\""), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A pruned campaign resumes byte-identically, same as an unpruned
    /// one — the fill pass runs at aggregation time, on journaled rows
    /// too.
    #[test]
    fn pruned_resume_is_byte_identical() {
        let sc = tupl_config();
        let path = temp_journal("prune-resume");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        let first = run_campaign_with(&sc, &opts).unwrap();
        assert!(first.prune.pruned_pipelines > 0);
        let resumed = run_campaign_with(
            &sc,
            &CampaignOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.executed_units, 0);
        assert_bitwise_equal(&first.measurements, &resumed.measurements);
        std::fs::remove_file(&path).ok();
    }

    /// Space with real canonical pruning: TCMS/TCNB are zero-fixing
    /// pointwise bijections, so the abstract interpreter drops them
    /// before the zero-pattern RZE reducers and swaps them past TUPL
    /// permutations — exact- and pattern-tier certificates both fire.
    fn canonical_config() -> StudyConfig {
        let mut sc = StudyConfig::quick();
        sc.space = Space::restricted_to_families(&["TCMS", "TCNB", "TUPL", "RZE"]);
        sc.files = vec![&SP_FILES[0], &SP_FILES[10]];
        sc
    }

    /// Canonical pruning changes nothing it didn't prove: compressed
    /// sizes are bitwise identical to full enumeration *everywhere*
    /// (that is the certificate's claim), non-pruned slots are bitwise
    /// identical in throughput too, and sampled equivalence classes
    /// really do produce identical measurements across members in the
    /// full run.
    #[test]
    fn canonical_and_full_enumeration_agree() {
        let sc = canonical_config();
        let canonical = run_campaign_with(
            &sc,
            &CampaignOptions {
                prune: PruneMode::Canonical,
                ..Default::default()
            },
        )
        .unwrap();
        let full = run_campaign_with(
            &sc,
            &CampaignOptions {
                prune: PruneMode::Off,
                ..Default::default()
            },
        )
        .unwrap();

        let plan = PrunePlan::for_space(&sc.space, PruneMode::Canonical);
        assert!(plan.pruned_pipelines() > 0, "space must actually prune");
        assert_eq!(canonical.prune.mode, "canonical");
        assert_eq!(canonical.prune.pruned_pipelines, plan.pruned_pipelines());
        assert_eq!(canonical.prune.classes, plan.classes);
        assert_eq!(canonical.prune.class_map, plan.class_map);

        // The certified claim: compressed sizes agree exactly at every
        // slot, pruned or not.
        assert_eq!(
            canonical.measurements.compressed,
            full.measurements.compressed
        );
        assert_eq!(
            canonical.measurements.total_uncompressed,
            full.measurements.total_uncompressed
        );

        // Non-pruned slots are untouched by the mode: bitwise-equal
        // throughputs. Pruned slots carry the representative's numbers
        // (verified below), not the member's own.
        let p_total = sc.space.len();
        let c_total = canonical.measurements.configs.len();
        for p in 0..p_total {
            if !plan.measures(p) {
                continue;
            }
            for c in 0..c_total {
                let i = c * p_total + p;
                assert_eq!(
                    canonical.measurements.enc[i].to_bits(),
                    full.measurements.enc[i].to_bits(),
                    "enc differs at non-pruned slot {p}"
                );
                assert_eq!(
                    canonical.measurements.dec[i].to_bits(),
                    full.measurements.dec[i].to_bits(),
                    "dec differs at non-pruned slot {p}"
                );
            }
        }

        // Pruned slots are exact copies of their representative.
        for (p, q) in plan.pruned_cells() {
            assert_eq!(
                canonical.measurements.compressed[p],
                canonical.measurements.compressed[q]
            );
            for c in 0..c_total {
                assert_eq!(
                    canonical.measurements.enc[c * p_total + p].to_bits(),
                    canonical.measurements.enc[c * p_total + q].to_bits()
                );
                assert_eq!(
                    canonical.measurements.dec[c * p_total + p].to_bits(),
                    canonical.measurements.dec[c * p_total + q].to_bits()
                );
            }
        }

        // Property check on sampled equivalence classes: in the *full*
        // (unpruned) run, every member of a class compresses to exactly
        // the representative's sizes — the equivalence is real, not an
        // artifact of the fill-in.
        let mut sampled = 0usize;
        for (p, q) in plan.pruned_cells().step_by(7) {
            assert_eq!(
                full.measurements.compressed[p], full.measurements.compressed[q],
                "class member {p} diverges from representative {q} in the full run"
            );
            sampled += 1;
        }
        assert!(sampled >= 10, "sampled too few classes ({sampled})");
    }

    /// A canonical campaign resumes byte-identically and its journal
    /// meta pins the class-map fingerprint.
    #[test]
    fn canonical_resume_is_byte_identical() {
        let sc = canonical_config();
        let path = temp_journal("canonical-resume");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            prune: PruneMode::Canonical,
            ..Default::default()
        };
        let first = run_campaign_with(&sc, &opts).unwrap();
        assert!(first.prune.pruned_pipelines > 0);

        let j = journal::load(&path).unwrap();
        assert_eq!(
            j.meta.get("prune").and_then(|v| v.as_str()),
            Some("canonical")
        );
        let plan = PrunePlan::for_space(&sc.space, PruneMode::Canonical);
        assert_eq!(
            j.meta.get("class_map").and_then(|v| v.as_str()),
            Some(format!("{:016x}", plan.class_map).as_str())
        );

        let resumed = run_campaign_with(
            &sc,
            &CampaignOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.executed_units, 0);
        assert_bitwise_equal(&first.measurements, &resumed.measurements);
        std::fs::remove_file(&path).ok();
    }

    /// A canonical journal refuses to resume under the exact tier (and
    /// names both modes in the error).
    #[test]
    fn canonical_journal_refuses_exact_resume() {
        let sc = canonical_config();
        let path = temp_journal("canonical-cross");
        run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path.clone()),
                prune: PruneMode::Canonical,
                ..Default::default()
            },
        )
        .unwrap();
        let err = match run_campaign_with(
            &sc,
            &CampaignOptions {
                journal: Some(path.clone()),
                resume: true,
                prune: PruneMode::Exact,
                ..Default::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("canonical journal must not resume under exact"),
        };
        assert!(err.contains("prune mode \"canonical\""), "{err}");
        assert!(err.contains("uses \"exact\""), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unit_records_carry_timing() {
        let sc = tiny_config();
        let path = temp_journal("timing");
        let opts = CampaignOptions {
            journal: Some(path.clone()),
            ..Default::default()
        };
        run_campaign_with(&sc, &opts).unwrap();
        let j = journal::load(&path).unwrap();
        assert!(!j.units.is_empty());
        for u in &j.units {
            let t = timing_from_value(u).expect("unit record has timing");
            // Stage time cannot exceed the unit's wall time (ms rounding
            // can make tiny units report 0 everywhere, which is fine).
            assert!(t.stage_ms.iter().sum::<u64>() <= t.elapsed_ms.max(1) * 2);
        }
        std::fs::remove_file(&path).ok();
    }
}
