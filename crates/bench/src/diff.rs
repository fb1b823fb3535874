//! Perf-regression comparison between two bench snapshots.
//!
//! `bench diff` reads a committed baseline (`BENCH_campaign.json` /
//! `BENCH_serve.json`) and a freshly generated snapshot of the same
//! schema, compares a fixed set of gated metrics, and classifies each
//! as ok / warn / fail. The thresholds implement the repo's regression
//! policy: a gated metric more than 15 % worse than baseline fails the
//! build, more than 5 % worse warns. Latency percentiles and sweep-knee
//! metrics are compared warn-only — they are real signals but too noisy
//! on shared CI runners to gate merges on.
//!
//! "Worse" is direction-aware: throughput shrinking is a regression,
//! latency growing is a regression.

use lc_json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput, speedup, hit rate).
    HigherIsBetter,
    /// Smaller numbers are better (latency, overhead).
    LowerIsBetter,
}

/// One metric the differ tracks.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Dot-separated path into the snapshot JSON (`"archive.encode_mb_s"`).
    pub path: &'static str,
    /// Which way the metric improves.
    pub direction: Direction,
    /// Whether a fail-severity regression on this metric fails the
    /// build. Ungated metrics cap out at warn.
    pub gate: bool,
}

/// The gated metric set for `BENCH_campaign.json`.
pub const CAMPAIGN_METRICS: &[MetricSpec] = &[
    MetricSpec {
        path: "campaign.units_per_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "sweep.speedup",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "archive.encode_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "archive.decode_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "telemetry.enabled_overhead_pct",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    // Kernel-layer single-thread throughput (the SIMD dispatch path).
    // The chained pipeline number is the headline gate; the per-family
    // numbers localize a regression to one kernel.
    MetricSpec {
        path: "kernels.pipeline_st_enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.pipeline_st_dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.dbefs_4.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.diff_4.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.diff_4.dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rze_4.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.bit_1.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rle_1.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rle_4.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    // The bitmap-reducer family and its usual shuffler, both ways: the
    // LUT-shuffle compaction/expansion and the blocked bit-plane
    // transpose.
    MetricSpec {
        path: "kernels.bit_4.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.bit_4.dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    // BIT_4 on chunks whose word count is not a multiple of 8.
    MetricSpec {
        path: "kernels.bit_4_off_grid.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.bit_4_off_grid.dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rre_1.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rre_1.dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rze_1.enc_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rze_1.dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "kernels.rre_4.dec_mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    // Up-front cost of the canonical-mode class map over the full
    // 107,632-pipeline space. Warn-only: it runs once per campaign and
    // is dominated by allocator noise on shared runners.
    MetricSpec {
        path: "analyze.canonicalize_ms",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    // Sharded-execution path: total wall across the 4 sequential
    // in-process shards and the journal-merge cost. Warn-only — shard
    // wall is campaign wall plus journal/digest overhead, all of it
    // dominated by scheduler noise at tiny scale — but a sustained
    // drift here is the first sign the sharded full-space path got
    // more expensive.
    MetricSpec {
        path: "shard.wall_s",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    MetricSpec {
        path: "shard.merge_ms",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    // Re-pricing the merged journal (a zero-unit resume): the cost of
    // evaluating the GPU model alone. Warn-only, like the rest of the
    // shard section.
    MetricSpec {
        path: "shard.reprice_ms",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
];

/// A bound the current snapshot must meet on its own, whatever the
/// baseline says: the value at `path`, or its ratio to the value at
/// `over`, must be at least `min`.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// Dot-separated path of the value (the numerator of a ratio).
    pub path: &'static str,
    /// Path of the denominator, when the floor is on a ratio.
    pub over: Option<&'static str>,
    /// Smallest acceptable value.
    pub min: f64,
}

/// Decode at least half as fast as encode, for one kernel.
const fn parity(dec: &'static str, enc: &'static str) -> Floor {
    Floor {
        path: dec,
        over: Some(enc),
        min: 0.5,
    }
}

/// The floors on `BENCH_campaign.json`: 1 GB/s through the chained
/// snapshot pipeline on one thread, both directions, and decode/encode
/// parity for the kernels whose decode has a vector path, and for
/// `rle_4`, whose encoder walks its records off the repeat bitmap.
/// (`diff_4` joins the parity list with the two-chunk DIFF decode, an
/// open ROADMAP item.)
pub const CAMPAIGN_FLOORS: &[Floor] = &[
    Floor {
        path: "kernels.pipeline_st_enc_mb_s",
        over: None,
        min: 1000.0,
    },
    Floor {
        path: "kernels.pipeline_st_dec_mb_s",
        over: None,
        min: 1000.0,
    },
    parity("kernels.bit_4.dec_mb_s", "kernels.bit_4.enc_mb_s"),
    parity("kernels.rre_1.dec_mb_s", "kernels.rre_1.enc_mb_s"),
    parity("kernels.rze_1.dec_mb_s", "kernels.rze_1.enc_mb_s"),
    parity("kernels.rre_4.dec_mb_s", "kernels.rre_4.enc_mb_s"),
    parity("kernels.rze_4.dec_mb_s", "kernels.rze_4.enc_mb_s"),
    parity("kernels.rle_4.dec_mb_s", "kernels.rle_4.enc_mb_s"),
];

/// The gated metric set for `BENCH_serve.json`.
pub const SERVE_METRICS: &[MetricSpec] = &[
    MetricSpec {
        path: "reqs_per_sec",
        direction: Direction::HigherIsBetter,
        gate: true,
    },
    MetricSpec {
        path: "p50_us",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    MetricSpec {
        path: "p90_us",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    MetricSpec {
        path: "p99_us",
        direction: Direction::LowerIsBetter,
        gate: false,
    },
    MetricSpec {
        path: "rate_sweep.knee_goodput_rps",
        direction: Direction::HigherIsBetter,
        gate: false,
    },
];

/// How one metric's comparison came out, worst first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Within the warn threshold (or improved).
    Ok,
    /// Worse than the warn threshold, or the metric is missing from
    /// one of the snapshots (schema drift is worth a look, not a block).
    Warn,
    /// A gated metric worse than the fail threshold.
    Fail,
}

/// One metric's comparison.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The metric's JSON path.
    pub path: &'static str,
    /// Baseline value, if present.
    pub baseline: Option<f64>,
    /// Current value, if present.
    pub current: Option<f64>,
    /// Regression percentage (positive = worse, direction-adjusted);
    /// `None` when either side is missing.
    pub regression_pct: Option<f64>,
    /// Classification under the thresholds.
    pub severity: Severity,
}

/// Comparison thresholds, as regression percentages.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Regressions beyond this warn.
    pub warn_pct: f64,
    /// Gated regressions beyond this fail.
    pub fail_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            warn_pct: 5.0,
            fail_pct: 15.0,
        }
    }
}

/// Walk a dot-separated path into a snapshot.
fn lookup(v: &Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    cur.as_f64()
}

/// Compare `current` against `baseline` over `specs`.
pub fn compare(
    baseline: &Value,
    current: &Value,
    specs: &[MetricSpec],
    thresholds: Thresholds,
) -> Vec<DiffOutcome> {
    specs
        .iter()
        .map(|spec| {
            let base = lookup(baseline, spec.path);
            let cur = lookup(current, spec.path);
            let (regression_pct, severity) = match (base, cur) {
                (Some(b), Some(c)) if b.abs() > f64::EPSILON => {
                    let pct = match spec.direction {
                        Direction::HigherIsBetter => (b - c) / b * 100.0,
                        Direction::LowerIsBetter => (c - b) / b * 100.0,
                    };
                    let severity = if pct > thresholds.fail_pct && spec.gate {
                        Severity::Fail
                    } else if pct > thresholds.warn_pct {
                        Severity::Warn
                    } else {
                        Severity::Ok
                    };
                    (Some(pct), severity)
                }
                // A zero baseline cannot express a percentage; treat as
                // schema drift rather than inventing an infinity.
                (Some(_), Some(_)) | (None, _) | (_, None) => (None, Severity::Warn),
            };
            DiffOutcome {
                path: spec.path,
                baseline: base,
                current: cur,
                regression_pct,
                severity,
            }
        })
        .collect()
}

/// One floor's check.
#[derive(Debug, Clone)]
pub struct FloorOutcome {
    /// What was bounded (`a` or `a / b`).
    pub label: String,
    /// The value found, if every path resolved.
    pub value: Option<f64>,
    /// The bound.
    pub min: f64,
    /// `Fail` below the bound, `Warn` when a path is missing.
    pub severity: Severity,
}

/// Check `current` against `floors`.
pub fn check_floors(current: &Value, floors: &[Floor]) -> Vec<FloorOutcome> {
    floors
        .iter()
        .map(|f| {
            let value = match f.over {
                None => lookup(current, f.path),
                Some(over) => lookup(current, f.path)
                    .zip(lookup(current, over))
                    .filter(|(_, d)| d.abs() > f64::EPSILON)
                    .map(|(n, d)| n / d),
            };
            FloorOutcome {
                label: match f.over {
                    None => f.path.to_string(),
                    Some(over) => format!("{} / {over}", f.path),
                },
                value,
                min: f.min,
                severity: match value {
                    Some(v) if v >= f.min => Severity::Ok,
                    Some(_) => Severity::Fail,
                    None => Severity::Warn,
                },
            }
        })
        .collect()
}

/// Render the floor checks, one line each.
pub fn render_floors(outcomes: &[FloorOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let value = o.value.map_or("-".to_string(), |v| format!("{v:.2}"));
        let status = match o.severity {
            Severity::Ok => "ok",
            Severity::Warn => "WARN",
            Severity::Fail => "FAIL",
        };
        out.push_str(&format!(
            "floor {:<62} {:>10} >= {:<8} {status}\n",
            o.label, value, o.min
        ));
    }
    out
}

/// The worst severity in a comparison (what the exit code reports).
pub fn worst(outcomes: &[DiffOutcome]) -> Severity {
    outcomes
        .iter()
        .map(|o| o.severity)
        .max()
        .unwrap_or(Severity::Ok)
}

/// Render the comparison as an aligned plain-text table.
pub fn render(outcomes: &[DiffOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>14} {:>14} {:>9}  {}\n",
        "metric", "baseline", "current", "delta", "status"
    ));
    for o in outcomes {
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.2}"),
            None => "-".to_string(),
        };
        let delta = match o.regression_pct {
            // regression_pct is positive-is-worse; readers expect a
            // signed delta where minus means "got worse".
            Some(pct) => format!("{:+.1}%", -pct),
            None => "-".to_string(),
        };
        let status = match o.severity {
            Severity::Ok => "ok",
            Severity::Warn => "WARN",
            Severity::Fail => "FAIL",
        };
        out.push_str(&format!(
            "{:<36} {:>14} {:>14} {:>9}  {}\n",
            o.path,
            fmt(o.baseline),
            fmt(o.current),
            delta,
            status
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, f64)]) -> Value {
        // One-level-deep builder: "a.b" becomes {"a": {"b": v}}.
        let mut root: Vec<(String, Value)> = Vec::new();
        for (path, v) in pairs {
            match path.split_once('.') {
                None => root.push((path.to_string(), Value::from(*v))),
                Some((head, rest)) => {
                    let entry = root.iter_mut().find(|(k, _)| k == head);
                    let obj = match entry {
                        Some((_, Value::Object(fields))) => fields,
                        _ => {
                            root.push((head.to_string(), Value::Object(Vec::new())));
                            match &mut root.last_mut().unwrap().1 {
                                Value::Object(fields) => fields,
                                _ => unreachable!(),
                            }
                        }
                    };
                    obj.push((rest.to_string(), Value::from(*v)));
                }
            }
        }
        Value::Object(root)
    }

    const SPEC_UP: &[MetricSpec] = &[MetricSpec {
        path: "t.mb_s",
        direction: Direction::HigherIsBetter,
        gate: true,
    }];

    #[test]
    fn within_noise_is_ok_and_improvement_is_ok() {
        for cur in [98.0, 100.0, 150.0] {
            let out = compare(
                &snap(&[("t.mb_s", 100.0)]),
                &snap(&[("t.mb_s", cur)]),
                SPEC_UP,
                Thresholds::default(),
            );
            assert_eq!(out[0].severity, Severity::Ok, "current {cur}");
        }
    }

    #[test]
    fn thresholds_split_warn_from_fail() {
        let base = snap(&[("t.mb_s", 100.0)]);
        let warn = compare(
            &base,
            &snap(&[("t.mb_s", 90.0)]),
            SPEC_UP,
            Thresholds::default(),
        );
        assert_eq!(warn[0].severity, Severity::Warn);
        let fail = compare(
            &base,
            &snap(&[("t.mb_s", 80.0)]),
            SPEC_UP,
            Thresholds::default(),
        );
        assert_eq!(fail[0].severity, Severity::Fail);
        assert!((fail[0].regression_pct.unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn lower_is_better_inverts_the_direction() {
        let spec = &[MetricSpec {
            path: "p99_us",
            direction: Direction::LowerIsBetter,
            gate: true,
        }];
        let base = snap(&[("p99_us", 1000.0)]);
        let worse = compare(
            &base,
            &snap(&[("p99_us", 1300.0)]),
            spec,
            Thresholds::default(),
        );
        assert_eq!(worse[0].severity, Severity::Fail);
        let better = compare(
            &base,
            &snap(&[("p99_us", 500.0)]),
            spec,
            Thresholds::default(),
        );
        assert_eq!(better[0].severity, Severity::Ok);
    }

    #[test]
    fn ungated_metrics_cap_at_warn() {
        let spec = &[MetricSpec {
            path: "p99_us",
            direction: Direction::LowerIsBetter,
            gate: false,
        }];
        let out = compare(
            &snap(&[("p99_us", 1000.0)]),
            &snap(&[("p99_us", 5000.0)]),
            spec,
            Thresholds::default(),
        );
        assert_eq!(out[0].severity, Severity::Warn);
        assert_eq!(worst(&out), Severity::Warn);
    }

    #[test]
    fn missing_metric_warns_instead_of_failing() {
        let out = compare(
            &snap(&[("t.mb_s", 100.0)]),
            &snap(&[("unrelated", 1.0)]),
            SPEC_UP,
            Thresholds::default(),
        );
        assert_eq!(out[0].severity, Severity::Warn);
        assert_eq!(out[0].current, None);
        assert_eq!(out[0].regression_pct, None);
    }

    #[test]
    fn render_lists_every_metric_with_status() {
        let out = compare(
            &snap(&[("t.mb_s", 100.0)]),
            &snap(&[("t.mb_s", 80.0)]),
            SPEC_UP,
            Thresholds::default(),
        );
        let table = render(&out);
        assert!(table.contains("t.mb_s"));
        assert!(table.contains("FAIL"));
        assert!(table.contains("-20.0%"));
    }

    #[test]
    fn floors_bound_values_and_ratios_of_the_current_snapshot() {
        let floors = &[
            Floor {
                path: "k.dec",
                over: None,
                min: 1000.0,
            },
            parity("k.dec", "k.enc"),
        ];
        let ok = check_floors(&snap(&[("k.dec", 1200.0), ("k.enc", 2000.0)]), floors);
        assert!(ok.iter().all(|o| o.severity == Severity::Ok), "{ok:?}");
        // 900 MB/s is under the absolute floor; 900 / 2000 under parity.
        let slow = check_floors(&snap(&[("k.dec", 900.0), ("k.enc", 2000.0)]), floors);
        assert!(
            slow.iter().all(|o| o.severity == Severity::Fail),
            "{slow:?}"
        );
        assert!(render_floors(&slow).contains("k.dec / k.enc"));
        // A snapshot without the kernel warns, as a missing metric does.
        let missing = check_floors(&snap(&[("k.enc", 2000.0)]), floors);
        assert!(missing.iter().all(|o| o.severity == Severity::Warn));
    }

    #[test]
    fn committed_baseline_meets_its_own_gates() {
        // The committed baseline must resolve every gated path and clear
        // every floor, or the CI gate fails on an unchanged tree.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
        let v = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let out = compare(&v, &v, CAMPAIGN_METRICS, Thresholds::default());
        assert_eq!(worst(&out), Severity::Ok, "{}", render(&out));
        let floors = check_floors(&v, CAMPAIGN_FLOORS);
        assert!(
            floors.iter().all(|o| o.severity == Severity::Ok),
            "{}",
            render_floors(&floors)
        );
    }

    #[test]
    fn real_snapshot_shapes_resolve() {
        // Mirrors the committed BENCH_campaign.json nesting.
        let v = Value::parse(
            r#"{"campaign":{"units_per_s":31.9},"sweep":{"speedup":4.1},
                "archive":{"encode_mb_s":177.1,"decode_mb_s":225.4},
                "kernels":{"pipeline_st_enc_mb_s":1100.0,"pipeline_st_dec_mb_s":900.0,
                           "dbefs_4":{"enc_mb_s":4000.0},
                           "diff_4":{"enc_mb_s":3000.0,"dec_mb_s":2500.0},
                           "rze_4":{"enc_mb_s":2000.0},
                           "bit_1":{"enc_mb_s":1500.0},
                           "rle_1":{"enc_mb_s":1100.0},
                           "rle_4":{"enc_mb_s":1800.0},
                           "bit_4":{"enc_mb_s":5000.0,"dec_mb_s":5500.0},
                           "bit_4_off_grid":{"enc_mb_s":2500.0,"dec_mb_s":2500.0},
                           "rre_1":{"enc_mb_s":3000.0,"dec_mb_s":4000.0},
                           "rze_1":{"enc_mb_s":3000.0,"dec_mb_s":4000.0},
                           "rre_4":{"dec_mb_s":9000.0}},
                "telemetry":{"enabled_overhead_pct":13.1},
                "analyze":{"canonicalize_ms":222.2},
                "shard":{"wall_s":1.9,"merge_ms":3.2,"reprice_ms":40.0}}"#,
        )
        .unwrap();
        let out = compare(&v, &v, CAMPAIGN_METRICS, Thresholds::default());
        assert_eq!(worst(&out), Severity::Ok);
        assert!(out.iter().all(|o| o.regression_pct == Some(0.0)));
    }
}
