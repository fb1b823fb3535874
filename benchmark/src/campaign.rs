//! `campaign_sweep`: `run_campaign_with` over a 3,200-pipeline space on
//! three files, as `reproduce` runs it by default.

use std::time::Instant;

use gpu_sim::{Direction, OptLevel};
use lc_data::{Scale, SpFile};
use lc_study::runner::{run_stage, ChunkedData};
use lc_study::{
    merge_shards, report, run_campaign_with, CampaignOptions, CampaignOutcome, PruneMode,
    PrunePlan, ShardSpec, Space, StudyConfig, SweepMode,
};

use crate::codec::{median_setup, nproc, peak_rss_mb, CodecSet, Report};
use crate::inputs;
use crate::layers::out_dir;
use crate::metrics::{Outcome, Tally, Values};
use crate::stats::median;
use crate::trace::Tracer;

/// 20 components x 20 x 8 reducers: the space of the repo's own
/// `bench --bin snapshot`. A sweep takes 0.8 s here, so a run collects
/// some 20 of them; the 12,288-pipeline space of eight families takes
/// 3 s a sweep, and a median of six is at the mercy of one noisy burst.
const FAMILIES: [&str; 5] = ["TCMS", "BIT", "DIFF", "RLE", "RZE"];

struct Setup {
    config: StudyConfig,
    files: Vec<Vec<u8>>,
    generate_s: f64,
    canonicalize_s: f64,
    classes: usize,
}

fn config(files: Vec<&'static SpFile>) -> StudyConfig {
    StudyConfig {
        space: Space::restricted_to_families(&FAMILIES),
        scale: Scale::default_study(),
        threads: nproc(),
        files,
        opt_levels: vec![OptLevel::O3],
        verify: false,
    }
}

fn setup(seed: u64, tracer: &mut Tracer) -> Setup {
    let config = config(inputs::campaign_files(seed));
    let (files, generate_s) = tracer.timed("lc-data.generate", |_| {
        config
            .files
            .iter()
            .map(|f| lc_data::generate(f, config.scale))
            .collect()
    });
    // The class map a `--prune canonical` campaign builds up front.
    let (plan, canonicalize_s) = tracer.timed("lc-analyze.canonicalize", |_| {
        PrunePlan::for_space(&config.space, PruneMode::Canonical)
    });
    Setup {
        config,
        files,
        generate_s,
        canonicalize_s,
        classes: plan.classes,
    }
}

fn sweep(
    config: &StudyConfig,
    opts: &CampaignOptions,
    tracer: &mut Tracer,
) -> (CampaignOutcome, f64) {
    tracer.timed("lc-study.run_campaign", |_| {
        run_campaign_with(config, opts).expect("a campaign without a journal to resume cannot fail")
    })
}

/// The run's result document; two sweeps of one configuration must
/// produce the same bytes.
fn result_json(outcome: &CampaignOutcome) -> String {
    report::to_json(&outcome.measurements, &[])
}

struct CampaignRun {
    /// The swept files with the pipeline the sweep ranks best by ratio:
    /// what the traced run probes the layers on.
    pub set: CodecSet,
    pub generate_s: f64,
    pub setup_s: f64,
    pub tally: Tally,
    setup: Setup,
    walls: Vec<f64>,
    last: CampaignOutcome,
    reference: String,
}

/// Set-up and main loop, the same in both modes: sweeps for `seconds`
/// after one discarded warm-up sweep.
fn run_main(seed: u64, seconds: f64, tracer: &mut Tracer) -> CampaignRun {
    let (mut setup, setup_s) = median_setup(tracer, |t| setup(seed, t));
    let opts = CampaignOptions::default();
    let (warm, _) = sweep(&setup.config, &opts, &mut Tracer::new(false));
    let reference = result_json(&warm);
    let m = &warm.measurements;
    let best = (0..m.space.len())
        .max_by(|&a, &b| m.ratio(a).total_cmp(&m.ratio(b)).then(b.cmp(&a)))
        .expect("non-empty space");
    let files = std::mem::take(&mut setup.files);
    let set = CodecSet::build(files, &m.space.describe(m.space.id_at(best)));

    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut last = warm;
    let start = Instant::now();
    while walls.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        tracer.set_run(walls.len() as u64 + 1);
        let (outcome, wall) = sweep(&setup.config, &opts, tracer);
        walls.push(wall);
        let same = result_json(&outcome) == reference && outcome.quarantined.is_empty();
        tally.op(same, || {
            "a repeated sweep gave a different result document".into()
        });
        last = outcome;
    }
    CampaignRun {
        set,
        generate_s: setup.generate_s,
        setup_s,
        tally,
        setup,
        walls,
        last,
        reference,
    }
}

/// End-to-end metrics. Native here: `pipelines_per_s` (pipelines x files
/// per second of sweep). One operation is one sweep, so `goodput_rps`
/// counts sweeps per second and the latencies are a sweep's time. A sweep
/// evaluates every pipeline in both directions at once and has no
/// one-worker configuration here, so the four rates all read the swept
/// input MB (files x pipelines) per second; `compression_ratio` is input
/// over output bytes summed over the whole space.
pub fn end_to_end(seed: u64, seconds: f64) -> Report {
    let run = run_main(seed, seconds, &mut Tracer::new(false));
    let mut values = Values::default();
    let m = &run.last.measurements;
    let pipelines = m.space.len();
    let inverse_ratios: f64 = (0..pipelines).map(|p| 1.0 / m.ratio(p)).sum();
    values.set("compression_ratio", pipelines as f64 / inverse_ratios);
    let evaluations = (pipelines * run.setup.config.files.len()) as f64;
    values.set_median("pipelines_per_s", &run.walls, |s| evaluations / s);
    let swept_mb = run.set.mb() * pipelines as f64;
    for rate in [
        "encode_mb_s",
        "decode_mb_s",
        "encode_1t_mb_s",
        "decode_1t_mb_s",
    ] {
        values.set_median(rate, &run.walls, |s| swept_mb / s);
    }
    values.set(
        "goodput_rps",
        run.walls.len() as f64 / run.walls.iter().sum::<f64>(),
    );
    values.set_latency(&run.walls.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    values.set("setup_s", run.setup_s);
    values.set("peak_rss_mb", peak_rss_mb());
    run.report(values)
}

/// The traced run: a shorter main loop with spans kept, the layer probes
/// on the swept files, then the `lc-study`, `gpu-sim` and `lc-analyze`
/// layers.
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut run = run_main(seed, seconds, tracer);
    let mut values = crate::layers::probe(&run.set, None, run.generate_s, tracer, &mut run.tally);
    layer_values(&mut run, tracer, &mut values);
    run.report(values)
}

/// The traced run's `lc-study`, `gpu-sim` and `lc-analyze` metrics.
fn layer_values(run: &mut CampaignRun, tracer: &mut Tracer, values: &mut Values) {
    let config = &run.setup.config;
    let plain_s = median(&run.walls);
    tracer.set_run(0);

    // One stage at a time, as a sweep's cache misses run them.
    let best = &run.set.pipeline;
    let mut stage_stats = Vec::new();
    let (_, stage_s) = tracer.timed("lc-study.run_stage", |_| {
        for file in &run.set.payloads {
            let mut data = ChunkedData::from_bytes(file);
            stage_stats.clear();
            for stage in best.stages() {
                let out = run_stage(stage.as_ref(), &data, false);
                stage_stats.push(out.enc);
                data = out.output;
            }
        }
    });
    values.set("lc-study.run_stage_mb_s", run.set.mb() / stage_s);

    let cache = &run.last.cache;
    values.set("lc-study.prefix.hit_rate", cache.hit_rate());
    values.set("lc-study.prefix.evictions", cache.evictions as f64);
    values.set("lc-study.prefix.peak_resident_mb", cache.peak_resident_mb());

    // The sweep with its prefix cache bypassed, on one file.
    let one_file = StudyConfig {
        files: config.files[..1].to_vec(),
        ..config.clone()
    };
    let (memo, memo_s) = sweep(&one_file, &CampaignOptions::default(), tracer);
    let naive_opts = CampaignOptions {
        sweep: SweepMode::Naive,
        ..Default::default()
    };
    let (naive, naive_s) = sweep(&one_file, &naive_opts, tracer);
    run.tally.op(result_json(&memo) == result_json(&naive), || {
        "naive and memoized sweeps disagree".into()
    });
    values.set("lc-study.sweep.memo_speedup", naive_s / memo_s);

    let dir = out_dir().join(format!("campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the campaign scratch directory");
    let journaled = CampaignOptions {
        journal: Some(dir.join("whole.jsonl")),
        ..Default::default()
    };
    let (_, journal_s) = sweep(config, &journaled, tracer);
    values.set("lc-study.journal.overhead_share", journal_s / plain_s - 1.0);

    const SHARDS: usize = 4;
    for index in 0..SHARDS {
        let spec = ShardSpec {
            index,
            count: SHARDS,
        };
        let opts = CampaignOptions {
            journal: Some(dir.join(spec.journal_file())),
            shard: Some(spec),
            ..Default::default()
        };
        sweep(config, &opts, tracer);
    }
    let merged = dir.join("journal.jsonl");
    let (report, merge_s) = tracer.timed("lc-study.shard.merge", |_| merge_shards(&dir, &merged));
    values.set("lc-study.shard.merge_ms", merge_s * 1e3);
    let resumed = CampaignOptions {
        journal: Some(merged),
        resume: true,
        ..Default::default()
    };
    let (fused, _) = sweep(config, &resumed, tracer);
    let identical =
        report.is_ok() && fused.executed_units == 0 && result_json(&fused) == run.reference;
    run.tally.op(identical, || {
        format!("merged shards differ from the whole sweep ({report:?})")
    });
    let _ = std::fs::remove_dir_all(&dir);

    let (json, json_s) = tracer.timed("lc-study.report.to_json", |_| result_json(&run.last));
    run.tally
        .op(json == run.reference, || "result document changed".into());
    values.set("lc-study.report.to_json_ms", json_s * 1e3);

    let platform = &gpu_sim::all_platforms(OptLevel::O3)[0];
    let chunks = run
        .set
        .payloads
        .last()
        .expect("three files")
        .len()
        .div_ceil(lc_core::CHUNK_SIZE) as u64;
    const EVALUATIONS: usize = 100_000;
    let (_, model_s) = tracer.timed("gpu-sim.pipeline_time", |_| {
        for _ in 0..EVALUATIONS {
            std::hint::black_box(gpu_sim::cost::pipeline_time(
                platform,
                Direction::Encode,
                std::hint::black_box(&stage_stats),
                chunks,
                1 << 20,
                1 << 19,
            ));
        }
    });
    values.set(
        "gpu-sim.pipeline_time_ns",
        model_s * 1e9 / EVALUATIONS as f64,
    );
    values.set("lc-analyze.canonicalize_ms", run.setup.canonicalize_s * 1e3);
}

impl CampaignRun {
    fn report(self, values: Values) -> Report {
        let detail = describe(&self);
        Report {
            outcome: Outcome {
                tally: self.tally,
                values,
            },
            set: self.set,
            detail,
        }
    }
}

/// What the environment record says of the campaign.
fn describe(run: &CampaignRun) -> String {
    format!(
        "{} pipelines x {:?} at scale 1/{}, {} canonical classes, best-ratio pipeline {:?}, {} sweeps",
        run.setup.config.space.len(),
        run.setup.config.files.iter().map(|f| f.name).collect::<Vec<_>>(),
        run.setup.config.scale.divisor(),
        run.setup.classes,
        run.set.pipeline_text,
        run.walls.len(),
    )
}
