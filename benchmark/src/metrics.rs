//! The workloads and metrics `BENCHMARK.json` declares, and the result a
//! run prints. The contract file is compiled in and read once, so the
//! program emits exactly the names it declares and nothing is listed
//! twice.

use std::sync::OnceLock;

use lc_json::Value;

use crate::stats::{percentile, Summary, TAIL_QUANTILE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    /// Measured with tracing and `lc-telemetry` off. README.md defines
    /// each metric on each workload.
    pub end_to_end: Vec<Metric>,
    /// Measured by the traced run only. A layer a workload does not
    /// exercise reads 0 there.
    pub per_layer: Vec<Metric>,
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let list = |key: &str| doc[key].as_array().expect("a list").iter();
        let text = |v: &Value| v.as_str().expect("a string").to_string();
        let metrics = |key: &str| {
            list(key)
                .map(|m| Metric {
                    name: text(&m["name"]),
                    unit: text(&m["unit"]),
                    better: match m["better"].as_str() {
                        Some("higher") => Better::Higher,
                        Some("lower") => Better::Lower,
                        other => panic!("better is higher or lower, not {other:?}"),
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: list("workloads").map(|w| text(&w["name"])).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// The eight components measured alone, lower-cased as in metric names.
pub const COMPONENTS: [&str; 8] = [
    "dbefs_4", "diff_4", "rze_4", "bit_4", "rre_1", "rze_1", "rle_4", "rre_4",
];

/// Operations whose output was checked, and how many were wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; a failure is also said on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Measured values by metric name, with the sample behind each median.
#[derive(Default)]
pub struct Values(Vec<(String, f64, Option<Summary>)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        let c = contract();
        let mut declared = c.end_to_end.iter().chain(&c.per_layer);
        assert!(
            declared.any(|m| m.name == name),
            "BENCHMARK.json declares no metric {name}"
        );
        assert!(value.is_finite(), "{name} = {value}");
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name.to_string(), value, None));
    }

    /// A metric that is the median of `samples` after `map` (for a rate,
    /// `map` turns seconds into MB/s).
    pub fn set_median(&mut self, name: &str, samples: &[f64], map: impl Fn(f64) -> f64) {
        let mapped: Vec<f64> = samples.iter().map(|&s| map(s)).collect();
        let summary = Summary::of(&mapped);
        self.set(name, summary.median);
        self.0.last_mut().expect("just pushed").2 = Some(summary);
    }

    /// `latency_p50_ms` and `latency_p90_ms` of one sample of waits in
    /// milliseconds. The tail is one fixed quantile on every workload,
    /// whatever the sample count, so two commits are read at the same
    /// statistic; the count is printed beside the median.
    pub fn set_latency(&mut self, ms: &[f64]) {
        self.set_median("latency_p50_ms", ms, |ms| ms);
        self.set("latency_p90_ms", percentile(ms, TAIL_QUANTILE));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    fn summary(&self, name: &str) -> Option<Summary> {
        self.0.iter().find(|e| e.0 == name).and_then(|e| e.2)
    }
}

/// What one run of one workload found.
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
}

impl Outcome {
    /// The lines a person reads: every metric of the run's mode by name
    /// with its unit, quartiles and sample count beside each median.
    pub fn print_table(&self, traced: bool) {
        for m in metrics_of(traced) {
            let (name, unit) = (&m.name, &m.unit);
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let Some(v) = self.values.get(name) else {
                println!(
                    "  {name:<40} {:>14} {unit:<8} {better:<6} (layer not exercised)",
                    0
                );
                continue;
            };
            match self.values.summary(name) {
                Some(s) => println!(
                    "  {name:<40} {v:>14.4} {unit:<8} {better:<6} q1 {:.4} q3 {:.4} n {}",
                    s.q1, s.q3, s.n
                ),
                None => println!("  {name:<40} {v:>14.4} {unit:<8} {better}"),
            }
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.tally.attempted, self.tally.failed
        );
    }

    /// The contract's result object: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn result_json(&self, traced: bool) -> Value {
        let metrics: Vec<(String, Value)> = metrics_of(traced)
            .iter()
            .map(|m| {
                let value = match self.values.get(&m.name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("workload did not measure {}", m.name),
                };
                let entry = [
                    ("value", Value::from(value)),
                    ("unit", Value::from(m.unit.as_str())),
                ];
                (m.name.clone(), Value::object(entry))
            })
            .collect();
        Value::object([
            ("correct", Value::from(self.tally.failed == 0)),
            ("attempted", Value::from(self.tally.attempted)),
            ("failed", Value::from(self.tally.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

fn metrics_of(traced: bool) -> &'static [Metric] {
    if traced {
        &contract().per_layer
    } else {
        &contract().end_to_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_file_names_the_workloads_the_harness_runs() {
        let c = contract();
        assert_eq!(
            c.workloads,
            [
                "codec_framework",
                "codec_kernel",
                "campaign_sweep",
                "serve_mixed"
            ]
        );
        for m in &c.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
    }

    #[test]
    fn result_object_has_the_contract_shape() {
        let mut values = Values::default();
        for m in &contract().end_to_end {
            values.set(&m.name, 1.5);
        }
        let outcome = Outcome {
            tally: Tally {
                attempted: 3,
                failed: 1,
            },
            values,
        };
        let j = outcome.result_json(false);
        assert_eq!(j["correct"], false);
        assert_eq!(j["attempted"], 3u64);
        assert_eq!(j["failed"], 1u64);
        assert_eq!(j["metrics"]["setup_s"]["value"], 1.5);
        assert_eq!(j["metrics"]["setup_s"]["unit"], "s");
        let Value::Object(fields) = &j else { panic!() };
        assert_eq!(fields.len(), 4);
        let traced = outcome.result_json(true);
        let Value::Object(layers) = &traced["metrics"] else {
            panic!()
        };
        assert_eq!(layers.len(), contract().per_layer.len());
    }

    #[test]
    fn the_tail_is_p90_whatever_the_sample_count() {
        for n in [15, 28, 2500] {
            let ms: Vec<f64> = (0..n).map(f64::from).collect();
            let mut values = Values::default();
            values.set_latency(&ms);
            let last = f64::from(n - 1);
            assert_eq!(values.get("latency_p50_ms"), Some(0.5 * last));
            assert!((values.get("latency_p90_ms").unwrap() - 0.9 * last).abs() < 1e-9);
        }
    }
}
