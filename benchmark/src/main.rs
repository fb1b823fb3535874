//! The repo benchmark. See README.md beside this package for the
//! workloads, the metrics and what each is expected to move.
//!
//! ```text
//! lc-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! lc-benchmark [--seed N] [--seconds S] [--traced]              every workload, each in its own process
//! lc-benchmark --check-repeat [--seed N] [--seconds S]         two sets of runs, gaps against the bounds
//! ```

mod campaign;
mod codec;
mod inputs;
mod layers;
mod metrics;
mod repeat;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use lc_core::checksum::crc32;
use lc_json::Value;

use crate::codec::CodecSet;
use crate::metrics::contract;
use crate::trace::Tracer;

/// Share of `--seconds` a traced run gives its main loop; the layer
/// probes take the rest and more.
const TRACED_MAIN_SHARE: f64 = 0.4;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                let known = &contract().workloads;
                if !known.contains(&w) {
                    return Err(format!("unknown workload {w:?}; one of {known:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn cache_size(index: usize) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or("unknown".into(), |s| s.trim().to_string())
}

/// What the numbers were measured on and from: enough for two commits'
/// runs to be seen to have had the same machine and the same inputs.
fn environment(args: &Args, set: &CodecSet, detail: String) -> Vec<(String, Value)> {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    let crcs: Vec<String> = set
        .payloads
        .iter()
        .map(|p| format!("{:08x}", crc32(p)))
        .collect();
    let crc_of_crcs = crc32(crcs.concat().as_bytes());
    vec![
        (
            "workload".into(),
            Value::from(args.workload.as_deref().unwrap_or("")),
        ),
        ("seed".into(), Value::from(args.seed)),
        ("seconds".into(), Value::from(args.seconds)),
        ("nproc".into(), Value::from(codec::nproc())),
        (
            "kernel_tier".into(),
            Value::from(lc_components::kernels::tier().label()),
        ),
        ("LC_KERNELS".into(), Value::from(var("LC_KERNELS"))),
        ("l2_per_core".into(), Value::from(cache_size(2))),
        ("l3_host_shared".into(), Value::from(cache_size(3))),
        ("rustc".into(), Value::from(var("LC_BENCH_RUSTC"))),
        ("git_commit".into(), Value::from(var("LC_BENCH_COMMIT"))),
        ("pipeline".into(), Value::from(set.pipeline_text.as_str())),
        ("input_bytes".into(), Value::from(set.bytes())),
        ("input_count".into(), Value::from(set.payloads.len())),
        (
            "input_crc32".into(),
            Value::from(format!("{crc_of_crcs:08x}")),
        ),
        ("input_crc32_first".into(), Value::from(crcs[0].as_str())),
        ("detail".into(), Value::from(detail)),
    ]
}

fn run_workload(args: &Args, workload: &str) -> ExitCode {
    let (seed, seconds) = (args.seed, args.seconds);
    let mut tracer = Tracer::new(args.traced);
    let main_seconds = seconds * TRACED_MAIN_SHARE;
    let framework = workload == "codec_framework";
    let report = match (workload, args.traced) {
        ("codec_framework" | "codec_kernel", false) => codec::end_to_end(framework, seed, seconds),
        ("codec_framework" | "codec_kernel", true) => {
            codec::traced(framework, seed, main_seconds, &mut tracer)
        }
        ("campaign_sweep", false) => campaign::end_to_end(seed, seconds),
        ("campaign_sweep", true) => campaign::traced(seed, main_seconds, &mut tracer),
        ("serve_mixed", false) => serve::end_to_end(seed, seconds),
        ("serve_mixed", true) => serve::traced(seed, main_seconds, &mut tracer),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let env = environment(args, &report.set, report.detail);
    let outcome = report.outcome;

    println!(
        "== {workload} (seed {seed}, {seconds} s, {})",
        if args.traced { "traced" } else { "untraced" }
    );
    for (k, v) in &env {
        println!("  env {k} = {v}");
    }
    outcome.print_table(args.traced);
    if args.traced {
        let path = layers::out_dir().join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(layers::out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(env).dump()));
        match written {
            Ok(()) => println!(
                "  trace: {} spans in {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", outcome.result_json(args.traced).dump());
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: lc-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--check-repeat]");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return repeat::check_repeat(&args);
    }
    match &args.workload {
        Some(w) => run_workload(&args, w),
        None => repeat::run_all(&args),
    }
}
