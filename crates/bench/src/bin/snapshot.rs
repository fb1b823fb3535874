//! `cargo run --release -p bench --bin snapshot` — emit
//! `BENCH_campaign.json`, a small machine-readable performance snapshot
//! of a fixed tiny-scale campaign (run both prefix-memoized and naive,
//! with the cache hit rate and sweep speedup) plus archive encode/decode
//! throughput and the telemetry A/B overhead, for tracking across
//! commits.
//!
//! A single-shot snapshot: medians of a few repetitions, done in
//! seconds, with a stable JSON schema that diffs cleanly. The repo
//! benchmark under `benchmark/` is the statistical measurement.

use std::time::Instant;

use lc_core::archive;
use lc_data::{Scale, SP_FILES};
use lc_json::Value;
use lc_parallel::Pool;
use lc_study::{
    merge_shards, report, run_campaign_with, CampaignOptions, PruneMode, PrunePlan, ShardSpec,
    Space, StudyConfig, SweepMode,
};

const PIPELINE: &str = "DBEFS_4 DIFF_4 RZE_4";
const REPS: usize = 9;

fn median_secs(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Median wall time of `f` over [`REPS`] repetitions.
fn time_median(mut f: impl FnMut()) -> f64 {
    let times = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median_secs(times)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_campaign.json".to_string());

    // 1. The fixed tiny-scale campaign: the five-family space the repo
    //    benchmark's campaign_sweep also sweeps.
    let sc = StudyConfig {
        space: Space::restricted_to_families(&["TCMS", "BIT", "DIFF", "RLE", "RZE"]),
        scale: Scale::tiny(),
        threads: lc_parallel::default_threads(),
        files: vec![&SP_FILES[0], &SP_FILES[5], &SP_FILES[12]],
        opt_levels: vec![gpu_sim::OptLevel::O1, gpu_sim::OptLevel::O3],
        verify: false,
    };
    let units = sc.files.len() * sc.space.components.len();
    eprintln!("campaign: {units} units ({} pipelines) ...", sc.space.len());
    let run_sweep = |sweep: SweepMode| {
        let opts = CampaignOptions {
            sweep,
            ..Default::default()
        };
        let t0 = Instant::now();
        let outcome = run_campaign_with(&sc, &opts).expect("campaign failed");
        assert!(outcome.quarantined.is_empty(), "campaign quarantined units");
        (outcome, t0.elapsed().as_secs_f64())
    };
    let (outcome, campaign_s) = run_sweep(SweepMode::default());
    let m = outcome.measurements;
    let cache = outcome.cache;
    eprintln!(
        "campaign (memoized): {campaign_s:.2}s ({:.1} units/s, {:.1}% cache hit rate)",
        units as f64 / campaign_s,
        100.0 * cache.hit_rate()
    );
    let (naive_outcome, naive_s) = run_sweep(SweepMode::Naive);
    drop(naive_outcome);
    eprintln!(
        "campaign (naive):    {naive_s:.2}s ({:.1} units/s)",
        units as f64 / naive_s
    );

    // 2. Archive encode/decode throughput on the shared bench input.
    let input = bench::sample_input();
    let pool = Pool::with_default_threads();
    let pipeline = lc_components::parse_pipeline(PIPELINE).unwrap();
    let encoded = archive::encode(&pipeline, &input, &pool);
    let enc_s = time_median(|| {
        std::hint::black_box(archive::encode(
            &pipeline,
            std::hint::black_box(&input),
            &pool,
        ));
    });
    let dec_s = time_median(|| {
        std::hint::black_box(
            archive::decode(std::hint::black_box(&encoded), lc_components::lookup, &pool).unwrap(),
        );
    });
    let mb = input.len() as f64 / 1e6;
    eprintln!(
        "archive: encode {:.1} MB/s, decode {:.1} MB/s",
        mb / enc_s,
        mb / dec_s
    );

    // 3. Telemetry A/B: the same encode with recording on. The disabled
    //    arm above is the default state (one relaxed load on the hot
    //    path); `overhead_pct` is the full cost of recording.
    lc_telemetry::enable();
    let enc_tel_s = time_median(|| {
        std::hint::black_box(archive::encode(
            &pipeline,
            std::hint::black_box(&input),
            &pool,
        ));
        std::hint::black_box(lc_telemetry::drain());
    });
    lc_telemetry::disable();
    lc_telemetry::reset();
    let overhead_pct = (enc_tel_s / enc_s - 1.0) * 100.0;
    eprintln!(
        "telemetry: enabled encode {:.1} MB/s ({overhead_pct:+.1}%)",
        mb / enc_tel_s
    );

    // 4. Kernel layer: single-thread throughput through the batch stage
    //    entry points, i.e. what one CPU core does with the SIMD kernels
    //    and no pool. The pipeline number chains all three stages
    //    per chunk (including copy-on-expand stage skips), so it is the
    //    honest "1 GB/s single-thread encode" figure; the per-component
    //    numbers isolate each kernel family.
    let kernel_tier = lc_components::kernels::tier().label();
    let chunks: Vec<&[u8]> = input.chunks(lc_core::CHUNK_SIZE).collect();
    // Ping-pong between two retained buffers, exactly like a pool
    // worker's Scratch arena: after the first chunk the loop allocates
    // nothing, so the number measures the kernels, not the allocator.
    let mut ping = Vec::new();
    let mut pong = Vec::new();
    let st_enc_s = time_median(|| {
        let mut stats = lc_core::KernelStats::new();
        for chunk in &chunks {
            ping.clear();
            ping.extend_from_slice(chunk);
            for stage in pipeline.stages() {
                if lc_core::encode_stage(stage.as_ref(), &ping, &mut pong, &mut stats) {
                    std::mem::swap(&mut ping, &mut pong);
                }
            }
            std::hint::black_box(&ping);
        }
    });
    // Encode once outside the timer to get decodable chunks + stage masks.
    let st_encoded: Vec<(Vec<u8>, Vec<bool>)> = chunks
        .iter()
        .map(|chunk| {
            let mut stats = lc_core::KernelStats::new();
            let mut cur = chunk.to_vec();
            let mut applied = Vec::with_capacity(pipeline.len());
            for stage in pipeline.stages() {
                let mut out = Vec::new();
                let a = lc_core::encode_stage(stage.as_ref(), &cur, &mut out, &mut stats);
                if a {
                    cur = out;
                }
                applied.push(a);
            }
            (cur, applied)
        })
        .collect();
    let st_dec_s = time_median(|| {
        let mut stats = lc_core::KernelStats::new();
        for (enc, applied) in &st_encoded {
            ping.clear();
            ping.extend_from_slice(enc);
            for (stage, a) in pipeline.stages().iter().zip(applied).rev() {
                if !a {
                    continue;
                }
                lc_core::decode_stage(stage.as_ref(), &ping, &mut pong, &mut stats)
                    .expect("snapshot pipeline decodes its own output");
                std::mem::swap(&mut ping, &mut pong);
            }
            std::hint::black_box(&ping);
        }
    });
    eprintln!(
        "kernels ({kernel_tier}): pipeline single-thread encode {:.1} MB/s, decode {:.1} MB/s",
        mb / st_enc_s,
        mb / st_dec_s
    );
    let mut kernel_entries: Vec<(String, Value)> = vec![
        ("variant".to_string(), Value::from(kernel_tier)),
        ("pipeline".to_string(), Value::from(PIPELINE)),
        (
            "pipeline_st_enc_mb_s".to_string(),
            Value::from(mb / st_enc_s),
        ),
        (
            "pipeline_st_dec_mb_s".to_string(),
            Value::from(mb / st_dec_s),
        ),
    ];
    // Whole 16 KiB chunks, plus BIT_4 on 16,380-byte chunks: 4,095 words,
    // off the 8-word grid, the shape reducer outputs give stage-2 BIT in
    // a campaign sweep.
    let off_grid: Vec<&[u8]> = input.chunks(16_380).collect();
    for (key, name, chunks) in [
        ("tcms_4", "TCMS_4", &chunks),
        ("dbefs_4", "DBEFS_4", &chunks),
        ("bit_1", "BIT_1", &chunks),
        ("bit_4", "BIT_4", &chunks),
        ("bit_4_off_grid", "BIT_4", &off_grid),
        ("diff_4", "DIFF_4", &chunks),
        ("rle_1", "RLE_1", &chunks),
        ("rle_4", "RLE_4", &chunks),
        ("rre_1", "RRE_1", &chunks),
        ("rre_4", "RRE_4", &chunks),
        ("rze_1", "RZE_1", &chunks),
        ("rze_4", "RZE_4", &chunks),
    ] {
        let comp = lc_components::lookup(name).expect("snapshot component exists");
        let enc_s = time_median(|| {
            let mut stats = lc_core::KernelStats::new();
            for chunk in chunks {
                ping.clear();
                comp.encode_chunk(chunk, &mut ping, &mut stats);
                std::hint::black_box(&ping);
            }
        });
        let encoded_chunks: Vec<Vec<u8>> = chunks
            .iter()
            .map(|chunk| {
                let mut stats = lc_core::KernelStats::new();
                let mut out = Vec::new();
                comp.encode_chunk(chunk, &mut out, &mut stats);
                out
            })
            .collect();
        let dec_s = time_median(|| {
            let mut stats = lc_core::KernelStats::new();
            for enc in &encoded_chunks {
                ping.clear();
                comp.decode_chunk(enc, &mut ping, &mut stats)
                    .expect("snapshot component decodes its own output");
                std::hint::black_box(&ping);
            }
        });
        eprintln!(
            "kernels: {key} ({}) encode {:.1} MB/s, decode {:.1} MB/s",
            comp.kernel_variant().label(),
            mb / enc_s,
            mb / dec_s
        );
        kernel_entries.push((
            key.to_string(),
            Value::object([
                ("variant", Value::from(comp.kernel_variant().label())),
                ("enc_mb_s", Value::from(mb / enc_s)),
                ("dec_mb_s", Value::from(mb / dec_s)),
            ]),
        ));
    }

    // 5. Static analysis: contract-check the full registry and compute
    //    the default (exact-tier) pruning plan over the paper's full
    //    107,632-pipeline space, so the analyzer's runtime and the
    //    pruned-pipeline count are tracked across commits alongside the
    //    raw throughputs. (The tiny bench space above has no commuting
    //    pairs by construction, so its own prune report is always zero;
    //    the full space is what the analyzer earns its keep on.)
    let analysis = lc_analyze::analyze_registry();
    let full = Space::full();
    let prune = PrunePlan::for_space(&full, PruneMode::Exact).report();
    eprintln!(
        "analyze: {} checks on {} components in {:.1} ms; {} commuting pairs; exact tier prunes {} of {} pipelines",
        analysis.checks,
        analysis.components,
        analysis.runtime.as_secs_f64() * 1e3,
        analysis.commuting_pairs,
        prune.pruned_pipelines,
        full.len(),
    );

    // 6. Canonicalization: the abstract-interpretation class map over
    //    the same full space. Its wall time is the cost a canonical-mode
    //    campaign pays up front, and the class/pruned counts are the
    //    census numbers CI gates on — tracking them here catches both
    //    performance regressions and accidental rule-table drift.
    let t0 = Instant::now();
    let canonical_plan = PrunePlan::for_space(&full, PruneMode::Canonical);
    let canonical_s = t0.elapsed().as_secs_f64();
    let canonical = canonical_plan.report();
    eprintln!(
        "canonicalize: {} classes over {} pipelines, {} certified-redundant, class map {:016x} in {:.1} ms",
        canonical.classes,
        full.len(),
        canonical.pruned_pipelines,
        canonical.class_map,
        canonical_s * 1e3,
    );

    // 7. Sharded execution: the same tiny campaign as 4 sequential
    //    in-process shards (journaled, with dataset digests), then a
    //    merge and a resume from the merged journal, which executes no
    //    unit and only re-prices. `identical` checks the fused
    //    measurements are bit-for-bit the single-process run's; the
    //    wall times track per-shard overhead (journal appends + input
    //    digests), merge cost and re-pricing cost, and the full-space
    //    extrapolation is the headline the sharding exists for: what
    //    the whole 107,632-pipeline space costs at this rate of pipeline
    //    evaluations (a full-space unit holds 62 × 28 pipelines, a
    //    snapshot unit 20 × 8, so units are the wrong scale).
    let shard_dir = std::env::temp_dir().join(format!("lc-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&shard_dir);
    std::fs::create_dir_all(&shard_dir).expect("create shard scratch dir");
    let shard_n = 4;
    let mut shard_walls = Vec::new();
    for index in 0..shard_n {
        let spec = ShardSpec {
            index,
            count: shard_n,
        };
        let opts = CampaignOptions {
            journal: Some(shard_dir.join(spec.journal_file())),
            shard: Some(spec),
            ..Default::default()
        };
        let t0 = Instant::now();
        let outcome = run_campaign_with(&sc, &opts).expect("shard campaign failed");
        assert!(outcome.quarantined.is_empty(), "shard quarantined units");
        shard_walls.push(t0.elapsed().as_secs_f64());
    }
    let shard_total_s: f64 = shard_walls.iter().sum();
    let shard_max_s = shard_walls.iter().copied().fold(0.0, f64::max);
    let merged_path = shard_dir.join("journal.jsonl");
    let t0 = Instant::now();
    let merge_report = merge_shards(&shard_dir, &merged_path).expect("merge failed");
    let merge_s = t0.elapsed().as_secs_f64();
    // The zero-unit resume executes nothing: it re-prices the merged
    // journal's kernel statistics on every platform.
    let t0 = Instant::now();
    let fused = run_campaign_with(
        &sc,
        &CampaignOptions {
            journal: Some(merged_path),
            resume: true,
            ..Default::default()
        },
    )
    .expect("resume from merged journal failed");
    let reprice_s = t0.elapsed().as_secs_f64();
    let identical = fused.executed_units == 0
        && report::to_json(&m, &[]) == report::to_json(&fused.measurements, &[]);
    let _ = std::fs::remove_dir_all(&shard_dir);
    let full_units = sc.files.len() * full.components.len();
    eprintln!(
        "shard: {shard_n} shards in {shard_total_s:.2}s (max {shard_max_s:.2}s), merge {:.1} ms, \
         re-price {:.1} ms, {} units fused, identical={identical}",
        merge_s * 1e3,
        reprice_s * 1e3,
        merge_report.units,
    );

    let snapshot = Value::object([
        ("schema", Value::from("lc-bench-campaign/v3")),
        (
            "campaign",
            Value::object([
                ("space", Value::from("TCMS+BIT+DIFF+RLE+RZE")),
                ("pipelines", Value::from(m.space.len() as u64)),
                (
                    "files",
                    Value::array(sc.files.iter().map(|f| Value::from(f.name))),
                ),
                ("units", Value::from(units as u64)),
                ("wall_s", Value::from(campaign_s)),
                ("units_per_s", Value::from(units as f64 / campaign_s)),
            ]),
        ),
        (
            "sweep",
            Value::object([
                (
                    "memoized_units_per_s",
                    Value::from(units as f64 / campaign_s),
                ),
                ("naive_units_per_s", Value::from(units as f64 / naive_s)),
                ("speedup", Value::from(naive_s / campaign_s)),
            ]),
        ),
        (
            "cache",
            Value::object([
                ("hit_rate", Value::from(cache.hit_rate())),
                ("resident_mb", Value::from(cache.peak_resident_mb())),
                ("evictions", Value::from(cache.evictions)),
            ]),
        ),
        (
            "archive",
            Value::object([
                ("pipeline", Value::from(PIPELINE)),
                ("input_bytes", Value::from(input.len() as u64)),
                ("archive_bytes", Value::from(encoded.len() as u64)),
                ("encode_mb_s", Value::from(mb / enc_s)),
                ("decode_mb_s", Value::from(mb / dec_s)),
            ]),
        ),
        ("kernels", Value::Object(kernel_entries)),
        (
            "telemetry",
            Value::object([
                ("encode_disabled_mb_s", Value::from(mb / enc_s)),
                ("encode_enabled_mb_s", Value::from(mb / enc_tel_s)),
                ("enabled_overhead_pct", Value::from(overhead_pct)),
            ]),
        ),
        (
            "analyze",
            Value::object([
                ("components", Value::from(analysis.components as u64)),
                ("checks", Value::from(analysis.checks as u64)),
                ("violations", Value::from(analysis.diagnostics.len() as u64)),
                (
                    "runtime_ms",
                    Value::from(analysis.runtime.as_secs_f64() * 1e3),
                ),
                ("full_space_pipelines", Value::from(full.len() as u64)),
                (
                    "full_space_commuting_pairs",
                    Value::from(analysis.commuting_pairs as u64),
                ),
                (
                    "full_space_pruned_pipelines",
                    Value::from(prune.pruned_pipelines as u64),
                ),
                ("plan_ms", Value::from(prune.analysis.as_secs_f64() * 1e3)),
                (
                    "bench_campaign_pruned_pipelines",
                    Value::from(outcome.prune.pruned_pipelines as u64),
                ),
                ("canonicalize_ms", Value::from(canonical_s * 1e3)),
                ("canonical_classes", Value::from(canonical.classes as u64)),
                (
                    "canonical_pruned_pipelines",
                    Value::from(canonical.pruned_pipelines as u64),
                ),
                (
                    "canonical_class_map",
                    Value::from(format!("{:016x}", canonical.class_map).as_str()),
                ),
            ]),
        ),
        (
            "shard",
            Value::object([
                ("shards", Value::from(shard_n as u64)),
                ("wall_s", Value::from(shard_total_s)),
                ("max_shard_s", Value::from(shard_max_s)),
                ("merge_ms", Value::from(merge_s * 1e3)),
                ("reprice_ms", Value::from(reprice_s * 1e3)),
                ("merged_units", Value::from(merge_report.units as u64)),
                ("identical", Value::from(identical)),
                (
                    "overhead_vs_single",
                    Value::from(shard_total_s / campaign_s),
                ),
                ("full_space_units", Value::from(full_units as u64)),
            ]),
        ),
    ]);
    let policy = lc_chaos::fs::SyncPolicy::default();
    lc_chaos::fs::atomic_write(
        std::path::Path::new(&out_path),
        snapshot.pretty().as_bytes(),
        policy,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("{out_path} written");
}
