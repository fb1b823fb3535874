//! `cargo run -p bench --bin diff` — the perf-regression gate.
//!
//! ```text
//! diff --kind campaign|serve --baseline PATH --current PATH
//!      [--fail-pct 15] [--warn-pct 5]
//! ```
//!
//! Compares a fresh snapshot against the committed baseline and prints
//! a per-metric table, then checks the current snapshot against the
//! absolute floors (`--kind campaign`: 1 GB/s single-thread pipeline
//! encode and decode, decode at least half of encode per kernel). Exit
//! codes: 0 clean (warnings allowed, reported on stderr), 2 when any
//! gated metric regressed past the fail threshold or fell below a
//! floor, 1 on usage or unreadable/unparseable snapshots.

use std::process::ExitCode;

use bench::diff::{
    check_floors, compare, render, render_floors, worst, Severity, Thresholds, CAMPAIGN_FLOORS,
    CAMPAIGN_METRICS, SERVE_METRICS,
};
use lc_json::Value;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e:?}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "diff — compare a bench snapshot against its committed baseline\n\
             --kind campaign|serve  which metric set to gate (required)\n\
             --baseline PATH        committed snapshot (required)\n\
             --current PATH         freshly generated snapshot (required)\n\
             --fail-pct P           gated-regression failure threshold (default 15)\n\
             --warn-pct P           regression warning threshold (default 5)"
        );
        return Ok(ExitCode::SUCCESS);
    }
    let kind = flag(&args, "--kind").ok_or("missing --kind campaign|serve")?;
    let (specs, floors) = match kind {
        "campaign" => (CAMPAIGN_METRICS, CAMPAIGN_FLOORS),
        "serve" => (SERVE_METRICS, &[][..]),
        other => return Err(format!("--kind {other:?}: expected campaign or serve")),
    };
    let baseline = load(flag(&args, "--baseline").ok_or("missing --baseline PATH")?)?;
    let current = load(flag(&args, "--current").ok_or("missing --current PATH")?)?;
    let parse_pct = |name: &str, default: f64| -> Result<f64, String> {
        match flag(&args, name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{name}: {e}")),
        }
    };
    let thresholds = Thresholds {
        warn_pct: parse_pct("--warn-pct", 5.0)?,
        fail_pct: parse_pct("--fail-pct", 15.0)?,
    };

    let outcomes = compare(&baseline, &current, specs, thresholds);
    print!("{}", render(&outcomes));
    // Floors bind the current snapshot alone; a miss fails the build
    // however the baseline reads.
    let floored = check_floors(&current, floors);
    print!("{}", render_floors(&floored));
    let below: Vec<&str> = floored
        .iter()
        .filter(|o| o.severity == Severity::Fail)
        .map(|o| o.label.as_str())
        .collect();
    if !below.is_empty() {
        eprintln!(
            "error: kind=perf-floor exit=2 below floor: {}",
            below.join(", ")
        );
        return Ok(ExitCode::from(2));
    }
    match worst(&outcomes) {
        Severity::Ok => Ok(ExitCode::SUCCESS),
        Severity::Warn => {
            eprintln!(
                "warning: {} metric(s) regressed past {}% (or were missing); not gating",
                outcomes
                    .iter()
                    .filter(|o| o.severity == Severity::Warn)
                    .count(),
                thresholds.warn_pct
            );
            Ok(ExitCode::SUCCESS)
        }
        Severity::Fail => {
            eprintln!(
                "error: kind=perf-regression exit=2 gated metric(s) regressed past {}%",
                thresholds.fail_pct
            );
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: kind=usage exit=1 {msg}");
            ExitCode::FAILURE
        }
    }
}
