//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [--figure all|2|3|…|15] [--scale D] [--threads N]
//!           [--families TCMS,BIT,…] [--verify] [--out DIR] [--full]
//! ```
//!
//! By default this runs the *full* pipeline space (107,632 pipelines) over
//! all 13 synthetic SP inputs at 1/512 of the paper's input sizes (the
//! kernel statistics are extrapolated back to paper scale — see
//! `lc_study::campaign`), simulates all 11 platform combinations at both
//! `-O1` and `-O3`, prints every figure as a letter-value table, writes
//! per-figure CSVs under `--out` (default `experiments/`), and emits
//! `EXPERIMENTS.md` with the paper-vs-measured findings checklist.
//!
//! `--families` restricts the component set for a fast smoke run.
//!
//! Fault tolerance: every run journals completed work units' kernel
//! statistics to `<out>/journal.jsonl`; `--resume` picks up where a
//! killed run left off (byte-identical `run.json`) — and on a complete
//! journal with a different `--figure` selection it executes nothing and
//! only re-prices the statistics — `--unit-deadline SECS` quarantines
//! overtime work units instead of hanging, and any quarantined unit
//! turns the exit code to 5 after all outputs are still written.
//! Journal appends are crash-consistent single-buffer writes with an
//! `--fsync {never,checkpoint,always}` durability policy; every other
//! artifact is published by atomic temp-file+rename, so readers see old
//! or new bytes, never a mixture. A lock file in `--out` rejects
//! concurrent campaigns on the same directory. SIGINT/SIGTERM stop the
//! campaign cooperatively at the next unit boundary, checkpoint the
//! journal, and exit with code 7 (interrupted-but-resumable);
//! `--mem-budget-mb MB` caps memory by shedding prefix-cache bytes and
//! degrading the worker count.
//!
//! Observability: a progress heartbeat (units done, units/s, ETA,
//! quarantine count) prints to stderr every 10 s when stderr is a
//! terminal — `--heartbeat SECS` forces it on with a custom interval,
//! `--quiet` silences it. `--telemetry-dir DIR` enables span/metric
//! collection and writes `trace.json` (Chrome trace-event format,
//! loadable in Perfetto), `events.jsonl`, and `metrics.json` there.
//!
//! Performance: the campaign memoizes shared stage-1 and (stage-1,
//! stage-2) prefix outputs in a byte-capped per-unit cache (default
//! 512 MB campaign-wide). `--prefix-cache-mb MB` resizes the budget.
//!
//! Static analysis: the campaign deduplicates provably-equivalent
//! pipelines up front from the abstract interpreter's rewrite system.
//! The default `--prune exact` tier merges stage-1/2 prefixes with one
//! exact normal form (the commuting mutator × tuple-shuffler stage
//! pairs — 616 of the 107,632 full-space pipelines are measured as
//! copies of their representative ordering). `--prune canonical`
//! deduplicates whole equivalence classes instead (8,178 certified
//! members on the full registry; compressed sizes exact, member
//! throughputs inherited from the class representative); `--prune off`
//! restores the paper's full enumeration.
//!
//! Sharded execution: `--shard K/N` runs only the work units shard K
//! owns (deterministic round-robin partition), journaling to
//! `journal.K-of-N.jsonl` under its own `.campaign.lock.K-of-N`, and
//! produces no figures — shards are meaningful only merged.
//! `--supervise N [--workers M]` spawns the N shards as subprocesses,
//! retries crashed shards with bounded deterministic backoff (resume
//! continues from the shard journal), quarantines a shard that fails
//! more than `--max-shard-retries` times (exit 5) instead of failing
//! the campaign, then merges and finishes the run in-process.
//! `--merge` fuses an existing complete shard set into `journal.jsonl`
//! and completes the campaign from it; the result is byte-identical to
//! the single-process run. `--chaos-kill SEED` arms the lc-chaos
//! unit-boundary SIGKILL site (in shard children the supervisor derives
//! a distinct sub-seed per shard and attempt) — the soak harness for
//! the supervisor itself.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpu_sim::OptLevel;
use lc_chaos::fs::{atomic_write, LockFile, SyncPolicy};
use lc_data::Scale;
use lc_parallel::CancelToken;
use lc_study::{
    figures, report, run_campaign_with, shard, supervise, CampaignOptions, FigId, PruneMode,
    ShardSpec, Space, StudyConfig, SweepMode, DEFAULT_CACHE_MB,
};

/// Exit code when work units were quarantined (run completed, but some
/// pipelines carry no data).
const EXIT_QUARANTINE: u8 = 5;
/// Exit code when SIGINT/SIGTERM stopped the campaign at a unit
/// boundary: the journal is checkpointed and `--resume` continues to a
/// byte-identical `run.json`.
const EXIT_INTERRUPTED: u8 = 7;

struct Args {
    figures: Vec<FigId>,
    ratio: bool,
    stage2: bool,
    svg: bool,
    baseline: Option<PathBuf>,
    scale: u32,
    threads: usize,
    families: Option<Vec<String>>,
    files: Option<Vec<String>>,
    verify: bool,
    out: PathBuf,
    resume: bool,
    unit_deadline: Option<Duration>,
    heartbeat: Option<Duration>,
    quiet: bool,
    telemetry_dir: Option<PathBuf>,
    prefix_cache_mb: usize,
    prune: PruneMode,
    fsync: SyncPolicy,
    mem_budget_mb: Option<usize>,
    shard: Option<ShardSpec>,
    supervise: Option<usize>,
    workers: Option<usize>,
    max_shard_retries: u32,
    chaos_kill: Option<u64>,
    merge: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figures: FigId::ALL.to_vec(),
        ratio: false,
        stage2: false,
        svg: true,
        baseline: None,
        scale: 512,
        threads: lc_parallel::default_threads(),
        families: None,
        files: None,
        verify: false,
        out: PathBuf::from("experiments"),
        resume: false,
        unit_deadline: None,
        heartbeat: None,
        quiet: false,
        telemetry_dir: None,
        prefix_cache_mb: DEFAULT_CACHE_MB,
        prune: PruneMode::default(),
        fsync: SyncPolicy::default(),
        mem_budget_mb: None,
        shard: None,
        supervise: None,
        workers: None,
        max_shard_retries: 3,
        chaos_kill: None,
        merge: false,
    };
    // Heartbeat defaults on for interactive runs; --quiet suppresses it,
    // --heartbeat forces it (e.g. for log-captured batch runs).
    let mut heartbeat_flag: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--figure" => {
                let v = value("--figure")?;
                if v == "all" {
                    args.figures = FigId::ALL.to_vec();
                } else {
                    args.figures = v
                        .split(',')
                        .map(|f| {
                            FigId::parse(f).ok_or_else(|| format!("unknown figure {f:?} (2..15)"))
                        })
                        .collect::<Result<_, _>>()?;
                }
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if args.scale == 0 {
                    return Err("--scale must be positive (1 = paper size)".into());
                }
            }
            "--full" => args.scale = 1,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--families" => {
                args.families = Some(
                    value("--families")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--files" => {
                args.files = Some(value("--files")?.split(',').map(str::to_string).collect());
            }
            "--tables" => {
                print!("{}", lc_study::tables::all_tables());
                std::process::exit(0);
            }
            "--ratio" => args.ratio = true,
            "--stage2" => args.stage2 = true,
            "--no-svg" => args.svg = false,
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--verify" => args.verify = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--resume" => args.resume = true,
            "--quiet" => args.quiet = true,
            "--heartbeat" => {
                let secs: u64 = value("--heartbeat")?
                    .parse()
                    .map_err(|e| format!("--heartbeat: {e}"))?;
                if secs == 0 {
                    return Err("--heartbeat must be positive (seconds)".into());
                }
                heartbeat_flag = Some(secs);
            }
            "--telemetry-dir" => {
                args.telemetry_dir = Some(PathBuf::from(value("--telemetry-dir")?));
            }
            "--prefix-cache-mb" => {
                args.prefix_cache_mb = value("--prefix-cache-mb")?
                    .parse()
                    .map_err(|e| format!("--prefix-cache-mb: {e}"))?;
            }
            "--fsync" => {
                let v = value("--fsync")?;
                args.fsync = SyncPolicy::parse(&v)
                    .ok_or_else(|| format!("--fsync: {v:?} is not never|checkpoint|always"))?;
            }
            "--mem-budget-mb" => {
                let mb: usize = value("--mem-budget-mb")?
                    .parse()
                    .map_err(|e| format!("--mem-budget-mb: {e}"))?;
                if mb == 0 {
                    return Err("--mem-budget-mb must be positive".into());
                }
                args.mem_budget_mb = Some(mb);
            }
            "--prune" => {
                let v = value("--prune")?;
                args.prune = PruneMode::from_label(&v)
                    .ok_or_else(|| format!("--prune: unknown mode {v:?} (exact|canonical|off)"))?;
            }
            "--shard" => {
                let v = value("--shard")?;
                args.shard = Some(ShardSpec::parse(&v).map_err(|e| format!("--shard: {e}"))?);
            }
            "--supervise" => {
                let n: usize = value("--supervise")?
                    .parse()
                    .map_err(|e| format!("--supervise: {e}"))?;
                if n == 0 || n > shard::MAX_SHARDS {
                    return Err(format!(
                        "--supervise: shard count must be 1..={}",
                        shard::MAX_SHARDS
                    ));
                }
                args.supervise = Some(n);
            }
            "--workers" => {
                let m: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if m == 0 {
                    return Err("--workers must be positive".into());
                }
                args.workers = Some(m);
            }
            "--max-shard-retries" => {
                args.max_shard_retries = value("--max-shard-retries")?
                    .parse()
                    .map_err(|e| format!("--max-shard-retries: {e}"))?;
            }
            "--chaos-kill" => {
                args.chaos_kill = Some(
                    value("--chaos-kill")?
                        .parse()
                        .map_err(|e| format!("--chaos-kill: {e}"))?,
                );
            }
            "--merge" => args.merge = true,
            "--unit-deadline" => {
                let secs: u64 = value("--unit-deadline")?
                    .parse()
                    .map_err(|e| format!("--unit-deadline: {e}"))?;
                if secs == 0 {
                    return Err("--unit-deadline must be positive (seconds)".into());
                }
                args.unit_deadline = Some(Duration::from_secs(secs));
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [--figure all|2,3,…] [--tables] [--scale D] [--full] \
                     [--threads N] [--families A,B,…] [--files f,…] [--verify] [--out DIR] \
                     [--resume] [--unit-deadline SECS] [--heartbeat SECS] [--quiet] \
                     [--telemetry-dir DIR] [--prefix-cache-mb MB] \
                     [--prune exact|canonical|off] \
                     [--fsync never|checkpoint|always] [--mem-budget-mb MB] \
                     [--shard K/N] [--supervise N [--workers M] [--max-shard-retries R]] \
                     [--merge] [--chaos-kill SEED]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.shard.is_some() && (args.supervise.is_some() || args.merge) {
        return Err("--shard runs one shard; it cannot combine with --supervise or --merge".into());
    }
    if args.supervise.is_some() && args.merge {
        return Err("--supervise merges automatically; drop --merge".into());
    }
    if args.workers.is_some() && args.supervise.is_none() {
        return Err("--workers only applies with --supervise N".into());
    }
    args.heartbeat = match (args.quiet, heartbeat_flag) {
        (true, _) => None,
        (false, Some(secs)) => Some(Duration::from_secs(secs)),
        (false, None) => {
            use std::io::IsTerminal;
            std::io::stderr()
                .is_terminal()
                .then(|| Duration::from_secs(10))
        }
    };
    Ok(args)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Arm the unit-boundary SIGKILL site for processes that actually run
    // work units. The supervisor never installs it in-process: it hands
    // each shard launch a derived sub-seed instead, so the post-merge
    // finishing run cannot be killed by its own soak harness.
    if let Some(seed) = args.chaos_kill {
        if args.supervise.is_none() && !args.merge {
            std::mem::forget(lc_chaos::install(lc_chaos::FaultPlan::kill(seed)));
        }
    }

    let space = match &args.families {
        None => Space::full(),
        Some(fams) => {
            let refs: Vec<&str> = fams.iter().map(String::as_str).collect();
            Space::restricted_to_families(&refs)
        }
    };
    let files: Vec<_> = match &args.files {
        None => lc_data::SP_FILES.iter().collect(),
        Some(names) => {
            let mut v = Vec::new();
            for n in names {
                match lc_data::file_by_name(n) {
                    Some(f) => v.push(f),
                    None => {
                        eprintln!("error: unknown SP file {n:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            v
        }
    };

    let needs_o1 = args
        .figures
        .iter()
        .any(|f| matches!(f, FigId::Fig14 | FigId::Fig15));
    let opt_levels = if needs_o1 {
        vec![OptLevel::O1, OptLevel::O3]
    } else {
        vec![OptLevel::O3]
    };

    let sc = StudyConfig {
        space,
        scale: Scale::denominator(args.scale),
        threads: args.threads,
        files,
        opt_levels,
        verify: args.verify,
    };
    if args.telemetry_dir.is_some() {
        lc_telemetry::enable();
    }
    if !args.quiet {
        eprintln!(
            "campaign: {} pipelines x {} inputs (scale 1/{}) on {} threads…",
            sc.space.len(),
            sc.files.len(),
            args.scale,
            sc.threads
        );
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    // Always-on black box: armed for the whole campaign regardless of
    // --telemetry-dir, dumped to the output directory on the abnormal
    // exit paths (panic, interrupt, quarantine) where the last recorded
    // events are exactly what a post-mortem needs. Shard children get
    // their own file so N shards never clobber one black box.
    let flight_path = match &args.shard {
        Some(spec) => args.out.join(format!("flight.{}.jsonl", spec.label())),
        None => args.out.join("flight.jsonl"),
    };
    lc_telemetry::flight::arm(0);
    lc_telemetry::flight::dump_on_panic(flight_path.clone());
    // Held until process exit: a second campaign on the same output
    // directory would interleave journal appends and corrupt state.
    // A shard child locks only its own shard identity, so N shards
    // sharing one output directory never false-conflict (the supervisor
    // holds the whole-campaign lock around them).
    let _lock = match &args.shard {
        Some(spec) => LockFile::acquire_named(&args.out, &spec.lock_name()),
        None => LockFile::acquire(&args.out),
    };
    let _lock = match _lock {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: kind=lock exit=1 {e}");
            return ExitCode::FAILURE;
        }
    };
    let cancel = match CancelToken::watching_signals() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: kind=signal exit=1 {e}");
            return ExitCode::FAILURE;
        }
    };

    // Supervised mode: run the N shards as subprocesses, then fall
    // through to the single-process path which resumes from the merged
    // journal (recomputing nothing) and writes all artifacts.
    if let Some(n) = args.supervise {
        match run_supervised(&args, n, &cancel) {
            Ok(()) => args.resume = true,
            Err(code) => {
                if code == ExitCode::from(EXIT_INTERRUPTED) {
                    dump_flight(&flight_path, args.quiet);
                }
                return code;
            }
        }
    } else if args.merge {
        if let Err(code) = merge(&args) {
            return code;
        }
        args.resume = true;
    }
    let args = args; // mode dispatch done; immutable from here on

    let t0 = Instant::now();
    let journal_path = match &args.shard {
        Some(spec) => args.out.join(spec.journal_file()),
        None => args.out.join("journal.jsonl"),
    };
    let opts = CampaignOptions {
        journal: Some(journal_path),
        resume: args.resume,
        unit_deadline: args.unit_deadline,
        isolate: true,
        heartbeat: args.heartbeat,
        sweep: SweepMode::Memoized {
            cache_mb: args.prefix_cache_mb,
        },
        prune: args.prune,
        fsync: args.fsync,
        mem_budget_mb: args.mem_budget_mb,
        cancel: Some(cancel.clone()),
        shard: args.shard,
    };
    let outcome = match run_campaign_with(&sc, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: kind=journal exit=1 {e}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.interrupted {
        dump_flight(&flight_path, args.quiet);
        eprintln!(
            "error: kind=interrupt exit={EXIT_INTERRUPTED} campaign stopped by signal after \
             {} unit(s); journal is checkpointed — rerun with --resume to continue",
            outcome.executed_units + outcome.resumed_units
        );
        return ExitCode::from(EXIT_INTERRUPTED);
    }
    // A shard child's job ends at its journal: figures, run.json, and
    // EXPERIMENTS.md only make sense for the merged whole.
    if let Some(spec) = &args.shard {
        if !args.quiet {
            eprintln!(
                "shard {}: done in {:.1}s ({} units executed, {} resumed, {} quarantined)",
                spec.label(),
                t0.elapsed().as_secs_f64(),
                outcome.executed_units,
                outcome.resumed_units,
                outcome.quarantined.len()
            );
        }
        if !outcome.quarantined.is_empty() {
            dump_flight(&flight_path, args.quiet);
            eprintln!(
                "error: kind=quarantine exit={EXIT_QUARANTINE} shard {} quarantined {} work \
                 unit(s); their records are in the shard journal",
                spec.label(),
                outcome.quarantined.len()
            );
            return ExitCode::from(EXIT_QUARANTINE);
        }
        return ExitCode::SUCCESS;
    }
    let m = outcome.measurements;
    if !args.quiet {
        eprintln!(
            "campaign done in {:.1}s ({} units executed, {} resumed from journal)",
            t0.elapsed().as_secs_f64(),
            outcome.executed_units,
            outcome.resumed_units
        );
        eprintln!(
            "prefix cache: {:.1}% hit rate ({} hits, {} misses, {} evictions, \
             {} shed, peak {:.1} MB resident)",
            100.0 * outcome.cache.hit_rate(),
            outcome.cache.hits,
            outcome.cache.misses,
            outcome.cache.evictions,
            outcome.cache.sheds,
            outcome.cache.peak_resident_mb()
        );
        eprintln!(
            "analyze prune: {} tier, {} pipelines measured, {} deduplicated, \
             class map {:016x} (plan in {:.1} ms)",
            outcome.prune.mode,
            outcome.prune.classes,
            outcome.prune.pruned_pipelines,
            outcome.prune.class_map,
            outcome.prune.analysis.as_secs_f64() * 1e3
        );
    }

    // Telemetry exports: everything the instrumented campaign recorded.
    if let Some(dir) = &args.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let events = lc_telemetry::drain();
        let write = |name: &str, contents: String| -> Result<(), String> {
            let path = dir.join(name);
            atomic_write(&path, contents.as_bytes(), args.fsync)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        let result = write("trace.json", lc_telemetry::export::chrome_trace(&events))
            .and_then(|()| write("events.jsonl", lc_telemetry::export::events_jsonl(&events)))
            .and_then(|()| {
                write(
                    "metrics.json",
                    lc_telemetry::export::metrics_value().pretty(),
                )
            });
        if let Err(e) = result {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!(
                "telemetry: {} events -> {}/{{trace.json,events.jsonl,metrics.json}}",
                events.len(),
                dir.display()
            );
        }
    }

    let mut figs = Vec::new();
    for id in &args.figures {
        let fig = figures::figure(&m, *id);
        print!("{}", figures::render(&fig));
        println!();
        let csv_path = args.out.join(format!("fig{:02}.csv", id.number()));
        if let Err(e) = atomic_write(&csv_path, figures::to_csv(&fig).as_bytes(), args.fsync) {
            eprintln!("error: cannot write {}: {e}", csv_path.display());
            return ExitCode::FAILURE;
        }
        if args.svg {
            let svg_path = args.out.join(format!("fig{:02}.svg", id.number()));
            if let Err(e) = atomic_write(
                &svg_path,
                lc_study::svg::figure_svg(&fig).as_bytes(),
                args.fsync,
            ) {
                eprintln!("error: cannot write {}: {e}", svg_path.display());
                return ExitCode::FAILURE;
            }
        }
        figs.push(fig);
    }

    if args.stage2 {
        for dir in [gpu_sim::Direction::Encode, gpu_sim::Direction::Decode] {
            let fig = figures::stage2_figure(&m, dir);
            println!(
                "Extension: {:?} throughputs by component in Stage 2 (paper omits this plot)",
                dir
            );
            print!("{}", figures::render(&fig));
            println!();
            let name = format!(
                "stage2_{}.csv",
                if dir == gpu_sim::Direction::Encode {
                    "encode"
                } else {
                    "decode"
                }
            );
            let _ = atomic_write(
                &args.out.join(name),
                figures::to_csv(&fig).as_bytes(),
                args.fsync,
            );
        }
    }
    if args.ratio {
        print!("{}", lc_study::ratio::render_report(&m, 15));
        println!();
    }

    // Machine-readable dump for downstream tooling.
    let current_json = report::to_json(&m, &figs);
    let json_path = args.out.join("run.json");
    if let Err(e) = atomic_write(&json_path, current_json.as_bytes(), args.fsync) {
        eprintln!("error: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    if let Some(baseline_path) = &args.baseline {
        match std::fs::read_to_string(baseline_path) {
            Ok(baseline_json) => {
                match lc_study::compare::compare(&baseline_json, &current_json, 0.05) {
                    Ok(cmp) => {
                        println!(
                            "--- drift vs {} (5% threshold) ---",
                            baseline_path.display()
                        );
                        print!("{}", lc_study::compare::render(&cmp, 0.05));
                    }
                    Err(e) => eprintln!("baseline comparison failed: {e}"),
                }
            }
            Err(e) => eprintln!("cannot read baseline {}: {e}", baseline_path.display()),
        }
    }

    // Findings checklist + EXPERIMENTS.md.
    let md = report::experiments_markdown(&m, &figs);
    let md_path = args.out.join("EXPERIMENTS.md");
    if let Err(e) = atomic_write(&md_path, md.as_bytes(), args.fsync) {
        eprintln!("error: cannot write {}: {e}", md_path.display());
        return ExitCode::FAILURE;
    }
    let findings = report::findings(&m);
    let held = findings.iter().filter(|f| f.holds).count();
    println!(
        "findings: {held}/{} paper claims reproduced",
        findings.len()
    );
    for f in &findings {
        println!(
            "  [{}] {:32} {}",
            if f.holds { "ok" } else { "MISS" },
            f.id,
            f.measured
        );
    }
    println!(
        "wrote {} and per-figure CSVs to {}",
        md_path.display(),
        args.out.display()
    );

    if !outcome.quarantined.is_empty() {
        let report_path = args.out.join("quarantine.txt");
        let mut lines = String::new();
        for q in &outcome.quarantined {
            lines.push_str(&format!(
                "file={} s1={} trace=[{}] elapsed_ms={} stage_ms={:?} reason={:?}\n",
                q.file,
                q.component,
                q.stage_trace,
                q.timing.elapsed_ms,
                q.timing.stage_ms,
                q.reason
            ));
        }
        let _ = atomic_write(&report_path, lines.as_bytes(), args.fsync);
        dump_flight(&flight_path, args.quiet);
        eprintln!(
            "error: kind=quarantine exit={EXIT_QUARANTINE} {} work unit(s) quarantined; \
             affected pipelines carry no data (see {})",
            outcome.quarantined.len(),
            report_path.display()
        );
        return ExitCode::from(EXIT_QUARANTINE);
    }
    ExitCode::SUCCESS
}

/// Run the N shard subprocesses under the crash supervisor. `Ok(())`
/// means every shard completed (unit-level quarantines included — they
/// surface through the merged journal) and the merged `journal.jsonl`
/// is in place; the caller finishes the campaign by resuming from it.
fn run_supervised(args: &Args, n: usize, cancel: &CancelToken) -> Result<(), ExitCode> {
    let exe = std::env::current_exe().map_err(|e| {
        eprintln!("error: kind=supervise exit=1 cannot locate own binary: {e}");
        ExitCode::FAILURE
    })?;
    let workers = args.workers.unwrap_or_else(|| n.min(4));
    if !args.quiet {
        eprintln!(
            "supervise: {n} shards, {workers} concurrent, {} retries per shard",
            args.max_shard_retries
        );
    }
    let command_for = |spec: &ShardSpec, attempt: u32| {
        let mut c = std::process::Command::new(&exe);
        c.arg("--shard").arg(spec.meta_label());
        // Resume unconditionally: attempt > 0 continues the crashed
        // run's journal, attempt 0 picks up a pre-existing one (e.g. a
        // supervisor that was itself killed and relaunched).
        c.arg("--resume");
        // Everything fingerprint-relevant must match across shards and
        // the finishing run, or resume/merge will (correctly) refuse.
        c.arg("--scale").arg(args.scale.to_string());
        c.arg("--threads").arg(args.threads.to_string());
        if let Some(fams) = &args.families {
            c.arg("--families").arg(fams.join(","));
        }
        if let Some(files) = &args.files {
            c.arg("--files").arg(files.join(","));
        }
        if args.verify {
            c.arg("--verify");
        }
        c.arg("--out").arg(&args.out);
        c.arg("--prune").arg(args.prune.label());
        c.arg("--fsync").arg(args.fsync.label());
        c.arg("--prefix-cache-mb")
            .arg(args.prefix_cache_mb.to_string());
        if let Some(d) = args.unit_deadline {
            c.arg("--unit-deadline").arg(d.as_secs().to_string());
        }
        if let Some(mb) = args.mem_budget_mb {
            c.arg("--mem-budget-mb").arg(mb.to_string());
        }
        c.arg("--quiet");
        // Soak mode: each (shard, attempt) gets a distinct derived
        // seed, so a relaunch is not doomed to die at the same unit
        // boundary and the retry loop demonstrably converges.
        if let Some(base) = args.chaos_kill {
            let sub = lc_chaos::splitmix64(
                base ^ lc_chaos::splitmix64(((spec.index as u64) << 32) | attempt as u64),
            );
            c.arg("--chaos-kill").arg(sub.to_string());
        }
        c.stdout(std::process::Stdio::null());
        c.stderr(std::process::Stdio::inherit());
        c
    };
    let report = supervise::run_supervisor(n, workers, args.max_shard_retries, cancel, command_for)
        .map_err(|e| {
            eprintln!("error: kind=supervise exit=1 {e}");
            ExitCode::FAILURE
        })?;
    if report.interrupted {
        eprintln!(
            "error: kind=interrupt exit={EXIT_INTERRUPTED} supervision stopped by signal; \
             shard journals are checkpointed — rerun the same command to continue"
        );
        return Err(ExitCode::from(EXIT_INTERRUPTED));
    }
    if !args.quiet {
        for s in &report.shards {
            eprintln!(
                "supervise: shard {} -> {:?} in {} attempt(s)",
                s.spec.label(),
                s.outcome,
                s.attempts
            );
        }
        eprintln!(
            "supervise: {n} shards finished in {:.1}s wall",
            report.wall.as_secs_f64()
        );
    }
    if !report.all_done() {
        // Shard-level quarantine: the campaign is not failed — every
        // other shard's journal holds its completed units — but there
        // is no complete set to merge. Record what happened and hand
        // the operator the exit-5 contract.
        let report_path = args.out.join("shard_quarantine.txt");
        let mut lines = String::new();
        for s in report.quarantined() {
            if let supervise::ShardOutcome::ShardQuarantined { last_status } = &s.outcome {
                lines.push_str(&format!(
                    "shard={} attempts={} last_status={}\n",
                    s.spec.label(),
                    s.attempts,
                    last_status
                ));
            }
        }
        let _ = atomic_write(&report_path, lines.as_bytes(), args.fsync);
        eprintln!(
            "error: kind=shard-quarantine exit={EXIT_QUARANTINE} {} shard(s) failed \
             persistently (see {}); completed shards keep their journals — fix the cause, \
             re-run the failed shard(s) with --shard, then --merge",
            report.quarantined().count(),
            report_path.display()
        );
        return Err(ExitCode::from(EXIT_QUARANTINE));
    }
    merge(args)
}

/// Fuse the complete shard set in `--out` into its `journal.jsonl`, from
/// which the caller finishes the campaign by resuming.
fn merge(args: &Args) -> Result<(), ExitCode> {
    let merged = args.out.join("journal.jsonl");
    let rep = shard::merge_shards(&args.out, &merged).map_err(|e| {
        eprintln!("error: kind=merge exit=1 {e}");
        ExitCode::FAILURE
    })?;
    if !args.quiet {
        eprintln!(
            "merge: fused {} shard journals into {} ({} units, {} quarantined, {} torn \
             bytes dropped)",
            rep.shards,
            merged.display(),
            rep.units,
            rep.quarantined,
            rep.torn_bytes
        );
    }
    Ok(())
}

/// Publish the flight-recorder black box; failure to dump is reported
/// but never masks the campaign's own exit code.
fn dump_flight(path: &std::path::Path, quiet: bool) {
    match lc_telemetry::flight::dump_to(path) {
        Ok(()) => {
            if !quiet {
                eprintln!("flight recorder: dumped to {}", path.display());
            }
        }
        Err(e) => eprintln!(
            "warning: flight recorder dump to {} failed: {e}",
            path.display()
        ),
    }
}
