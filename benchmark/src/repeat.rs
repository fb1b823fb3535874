//! Running every workload, each in a process of its own, and checking
//! that two sets of runs of the same code agree within the bounds.

use std::process::{Command, ExitCode, Stdio};

use lc_json::Value;

use crate::metrics::{contract, Better};
use crate::stats::median;
use crate::Args;

/// Runs of each workload in each set of `--check-repeat`: single runs of
/// `codec_kernel` have differed by 34 % inside one noisy minute.
const CHECK_REPEAT_RUNS: usize = 3;

fn child(args: &Args, workload: &str, traced: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    cmd
}

/// Every workload untraced, then (with `--traced`) every workload
/// traced; fails when any run does.
pub fn run_all(args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for traced in [false, true] {
        if traced && !args.traced {
            break;
        }
        for w in &contract().workloads {
            let ok = child(args, w, traced)
                .status()
                .is_ok_and(|status| status.success());
            if !ok {
                failed.push(format!("{w} (trace {})", u8::from(traced)));
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: failed runs: {}", failed.join(", "));
        ExitCode::from(1)
    }
}

/// One untraced run's result object, or why there is none.
fn result_of(args: &Args, workload: &str) -> Result<Value, String> {
    let out = child(args, workload, false)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("no output")?;
    Value::parse(last).map_err(|e| format!("{workload}: last line is not a result: {e}"))
}

/// How much worse `second` is than `first`, as a share of `first`;
/// negative when it is better.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// Two full sets with one seed, [`CHECK_REPEAT_RUNS`] runs of every
/// workload in each. The sets' runs alternate, so a noisy minute falls on both, and
/// a set's value is the median over its runs, as in the driver's own
/// comparison. Prints, per workload and end-to-end metric, both medians
/// and the gap between them against the metric's bound; a gap counts in
/// either direction, since neither set is the parent. With one seed the
/// inputs are identical, so `compression_ratio` must not move at all.
pub fn check_repeat(args: &Args) -> ExitCode {
    // results[workload][set] holds that set's runs.
    let workloads = &contract().workloads;
    let mut results: Vec<[Vec<Value>; 2]> = workloads.iter().map(|_| Default::default()).collect();
    for run in 1..=CHECK_REPEAT_RUNS {
        for (w, per_set) in workloads.iter().zip(&mut results) {
            for (set, runs) in per_set.iter_mut().enumerate() {
                eprintln!(
                    "check-repeat: run {run} of {CHECK_REPEAT_RUNS}, set {}, {w}",
                    set + 1
                );
                match result_of(args, w) {
                    Ok(r) => runs.push(r),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
    }
    let mut over = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "gap", "bound"
    );
    for (w, per_set) in workloads.iter().zip(&results) {
        for m in &contract().end_to_end {
            let median_of = |runs: &Vec<Value>| {
                let values: Option<Vec<f64>> = runs
                    .iter()
                    .map(|r| r["metrics"][m.name.as_str()]["value"].as_f64())
                    .collect();
                values.map(|v| median(&v))
            };
            let (Some(a), Some(b)) = (median_of(&per_set[0]), median_of(&per_set[1])) else {
                eprintln!("error: {w} printed no {}", m.name);
                return ExitCode::from(1);
            };
            let gap = worsening(m.better, a, b).max(worsening(m.better, b, a));
            let limit = if m.name == "compression_ratio" {
                0.0
            } else {
                m.bound.expect("an end-to-end metric has a bound")
            };
            let verdict = if gap > limit {
                over += 1;
                "OVER"
            } else {
                ""
            };
            println!(
                "{w:<16} {:<18} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.1}% {verdict}",
                m.name,
                gap * 100.0,
                limit * 100.0
            );
        }
    }
    let failed_ops: u64 = results
        .iter()
        .flatten()
        .flatten()
        .map(|r| r["failed"].as_u64().unwrap_or(1))
        .sum();
    println!("{over} metric(s) over their bound, {failed_ops} failed operation(s)");
    if over == 0 && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!(worsening(Better::Lower, 2.0, 1.0) < 0.0);
        assert_eq!(worsening(Better::Higher, 3.0, 3.0), 0.0);
    }
}
