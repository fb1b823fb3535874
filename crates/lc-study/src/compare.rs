//! Run-to-run regression comparison.
//!
//! `reproduce` writes `run.json` (see [`crate::report::to_json`]); this
//! module diffs two such dumps so CI — or a user who just tweaked a cost
//! constant — can see exactly which figure groups moved and whether any
//! finding flipped.

use lc_json::Value;

/// A change between two runs for one figure group.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Figure number.
    pub figure: u32,
    /// Group label.
    pub group: String,
    /// Compiler legend entry.
    pub compiler: String,
    /// Baseline median.
    pub baseline: f64,
    /// Current median.
    pub current: f64,
}

impl Drift {
    /// Relative change, signed (`+0.08` = 8% higher than baseline).
    pub(crate) fn relative(&self) -> f64 {
        if self.baseline == 0.0 {
            f64::INFINITY
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// Outcome of comparing two `run.json` dumps.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Groups whose median moved more than the threshold.
    pub drifted: Vec<Drift>,
    /// Findings that hold in one run but not the other (`(id, baseline
    /// holds, current holds)`).
    pub flipped_findings: Vec<(String, bool, bool)>,
    /// Groups present in exactly one of the runs.
    pub unmatched_groups: usize,
}

fn groups_of(run: &Value) -> Vec<(u32, String, String, f64)> {
    let mut out = Vec::new();
    let Some(figures) = run["figures"].as_array() else {
        return out;
    };
    for fig in figures {
        let number = fig["figure"].as_u64().unwrap_or(0) as u32;
        let Some(groups) = fig["groups"].as_array() else {
            continue;
        };
        for g in groups {
            out.push((
                number,
                g["group"].as_str().unwrap_or("").to_string(),
                g["compiler"].as_str().unwrap_or("").to_string(),
                g["lv"]["median"].as_f64().unwrap_or(f64::NAN),
            ));
        }
    }
    out
}

/// Compare two run dumps; medians moving more than `threshold`
/// (relative, e.g. 0.05 = 5%) are reported as drift.
///
/// Returns an error string when either input is not a `run.json` dump.
pub fn compare(
    baseline_json: &str,
    current_json: &str,
    threshold: f64,
) -> Result<Comparison, String> {
    let baseline = Value::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let current = Value::parse(current_json).map_err(|e| format!("current: {e}"))?;
    for (name, v) in [("baseline", &baseline), ("current", &current)] {
        if !v["figures"].is_array() || !v["findings"].is_array() {
            return Err(format!("{name}: not a reproduce run.json dump"));
        }
    }

    let mut cmp = Comparison::default();
    let base_groups = groups_of(&baseline);
    let cur_groups = groups_of(&current);
    for (fig, group, compiler, b_median) in &base_groups {
        match cur_groups
            .iter()
            .find(|(f, g, c, _)| f == fig && g == group && c == compiler)
        {
            Some((_, _, _, c_median)) => {
                let d = Drift {
                    figure: *fig,
                    group: group.clone(),
                    compiler: compiler.clone(),
                    baseline: *b_median,
                    current: *c_median,
                };
                if d.relative().abs() > threshold {
                    cmp.drifted.push(d);
                }
            }
            None => cmp.unmatched_groups += 1,
        }
    }
    cmp.unmatched_groups += cur_groups
        .iter()
        .filter(|(f, g, c, _)| {
            !base_groups
                .iter()
                .any(|(bf, bg, bc, _)| bf == f && bg == g && bc == c)
        })
        .count();

    // Findings that flipped.
    let findings = |v: &Value| -> Vec<(String, bool)> {
        v["findings"]
            .as_array()
            .map(|a| {
                a.iter()
                    .map(|f| {
                        (
                            f["id"].as_str().unwrap_or("").to_string(),
                            f["holds"].as_bool().unwrap_or(false),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_f = findings(&baseline);
    for (id, cur_holds) in findings(&current) {
        if let Some((_, base_holds)) = base_f.iter().find(|(bid, _)| *bid == id) {
            if *base_holds != cur_holds {
                cmp.flipped_findings.push((id, *base_holds, cur_holds));
            }
        }
    }
    Ok(cmp)
}

/// Render a comparison as text.
pub fn render(cmp: &Comparison, threshold: f64) -> String {
    let mut out = String::new();
    if cmp.drifted.is_empty() && cmp.flipped_findings.is_empty() {
        out.push_str(&format!(
            "no drift beyond {:.1}% and no finding flips\n",
            threshold * 100.0
        ));
    }
    for d in &cmp.drifted {
        out.push_str(&format!(
            "fig{:02} {:24} {:6} {:9.2} -> {:9.2} ({:+.1}%)\n",
            d.figure,
            d.group,
            d.compiler,
            d.baseline,
            d.current,
            d.relative() * 100.0
        ));
    }
    for (id, was, now) in &cmp.flipped_findings {
        out.push_str(&format!(
            "finding {id}: holds {was} -> {now}  <-- REGRESSION\n"
        ));
    }
    if cmp.unmatched_groups > 0 {
        out.push_str(&format!(
            "{} groups present in only one run\n",
            cmp.unmatched_groups
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, StudyConfig};
    use crate::figures::{figure, FigId};
    use crate::report::to_json;

    fn run_json() -> String {
        let m = run_campaign(&StudyConfig::quick());
        let figs = vec![figure(&m, FigId::Fig2), figure(&m, FigId::Fig3)];
        to_json(&m, &figs)
    }

    #[test]
    fn identical_runs_show_no_drift() {
        let j = run_json();
        let cmp = compare(&j, &j, 0.01).unwrap();
        assert!(cmp.drifted.is_empty());
        assert!(cmp.flipped_findings.is_empty());
        assert_eq!(cmp.unmatched_groups, 0);
        assert!(render(&cmp, 0.01).contains("no drift"));
    }

    #[test]
    fn perturbed_medians_are_reported() {
        let j = run_json();
        let mut v = Value::parse(&j).unwrap();
        let median = &mut v["figures"][0]["groups"][0]["lv"]["median"];
        let old = median.as_f64().unwrap();
        *median = Value::from(old * 1.5);
        let perturbed = v.dump();
        let cmp = compare(&j, &perturbed, 0.05).unwrap();
        assert_eq!(cmp.drifted.len(), 1);
        assert!((cmp.drifted[0].relative() - 0.5).abs() < 1e-9);
        assert!(render(&cmp, 0.05).contains("+50.0%"));
    }

    #[test]
    fn flipped_finding_is_a_regression() {
        let j = run_json();
        let mut v = Value::parse(&j).unwrap();
        let holds = &mut v["findings"][0]["holds"];
        *holds = Value::from(!holds.as_bool().unwrap());
        let perturbed = v.dump();
        let cmp = compare(&j, &perturbed, 0.05).unwrap();
        assert_eq!(cmp.flipped_findings.len(), 1);
        assert!(render(&cmp, 0.05).contains("REGRESSION"));
    }

    #[test]
    fn garbage_inputs_error() {
        assert!(compare("not json", "{}", 0.05).is_err());
        assert!(compare("{}", "{}", 0.05).is_err());
    }
}
