//! Compression-ratio analysis (extension).
//!
//! The paper characterizes *throughput*; its related-work section points
//! at Azami & Burtscher (ISPASS'25), who analyze the *importance of
//! components in terms of compression ratio* — which stages prefer which
//! component types, and how the preferred word size tracks the input's
//! data type. This module implements that companion analysis on top of
//! the same campaign, as the "future work" the paper inherits:
//!
//! * per-pipeline dataset-level ratios (uncompressed / compressed);
//! * per-(stage, family) ratio distributions — the component-importance
//!   measure;
//! * the best pipelines overall, with their simulated throughputs.

use gpu_sim::{CompilerId, Direction, OptLevel};
use lc_core::component::family_of;

use crate::campaign::Measurements;
use crate::stats::{letter_values, LetterValues};

/// Ratio distribution of one (stage, family) pin.
#[derive(Debug, Clone)]
pub(crate) struct FamilyImportance {
    /// Pipeline stage (0-based) the family was pinned to.
    pub stage: usize,
    /// Component family (e.g. `"DIFF"`).
    pub family: String,
    /// Distribution of dataset-level ratios across pipelines with the
    /// family at that stage.
    pub ratios: LetterValues,
}

/// Per-(stage, family) ratio distributions, stages 0..3, families in
/// registry order. Families that cannot occupy a stage (non-reducers at
/// stage 3) are omitted.
pub(crate) fn family_importance(m: &Measurements) -> Vec<FamilyImportance> {
    let mut out = Vec::new();
    let families = lc_components::families();
    for stage in 0..3usize {
        for fam in &families {
            let ids: Vec<_> = m
                .space
                .iter()
                .filter(|&id| family_of(m.space.stages(id)[stage].name()) == *fam)
                .collect();
            if ids.is_empty() {
                continue;
            }
            let ratios: Vec<f64> = ids.iter().map(|&id| m.ratio(m.space.index(id))).collect();
            out.push(FamilyImportance {
                stage,
                family: fam.to_string(),
                ratios: letter_values(&ratios),
            });
        }
    }
    out
}

/// One entry of the best-pipeline leaderboard.
#[derive(Debug, Clone)]
pub(crate) struct Leader {
    /// Pipeline description.
    pub pipeline: String,
    /// Dataset-level compression ratio.
    pub ratio: f64,
    /// Simulated encode throughput on the reference platform (GB/s).
    pub encode_gbs: f64,
    /// Simulated decode throughput on the reference platform (GB/s).
    pub decode_gbs: f64,
}

/// The `n` best pipelines by ratio, with throughputs from the fastest
/// NVIDIA platform at `-O3` (falling back to config 0 for restricted
/// campaigns).
pub(crate) fn leaderboard(m: &Measurements, n: usize) -> Vec<Leader> {
    let cfg = m
        .config_index("RTX 4090", CompilerId::Nvcc, OptLevel::O3)
        .unwrap_or(0);
    let mut indexed: Vec<usize> = (0..m.space.len()).collect();
    indexed.sort_by(|&a, &b| m.ratio(b).partial_cmp(&m.ratio(a)).unwrap()); // invariant: ratios are finite
    indexed
        .into_iter()
        .take(n)
        .map(|p| Leader {
            pipeline: m.space.describe(m.space.id_at(p)),
            ratio: m.ratio(p),
            encode_gbs: m.throughput(cfg, p, Direction::Encode),
            decode_gbs: m.throughput(cfg, p, Direction::Decode),
        })
        .collect()
}

/// Render the importance table + leaderboard as text.
pub fn render_report(m: &Measurements, top_n: usize) -> String {
    let mut out = String::from("Compression-ratio analysis (extension; ISPASS'25-style)\n\n");
    out.push_str("Per-(stage, family) dataset ratio medians:\n");
    out.push_str(&format!("{:8}", "family"));
    for stage in 1..=3 {
        out.push_str(&format!("  stage{stage:>2}"));
    }
    out.push('\n');
    let imp = family_importance(m);
    let families: Vec<String> = {
        let mut seen = Vec::new();
        for i in &imp {
            if !seen.contains(&i.family) {
                seen.push(i.family.clone());
            }
        }
        seen
    };
    for fam in &families {
        out.push_str(&format!("{fam:8}"));
        for stage in 0..3 {
            match imp.iter().find(|i| i.stage == stage && &i.family == fam) {
                Some(i) => out.push_str(&format!(" {:7.3}", i.ratios.median)),
                None => out.push_str(&format!(" {:>7}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("\nTop {top_n} pipelines by dataset ratio:\n"));
    for l in leaderboard(m, top_n) {
        out.push_str(&format!(
            "  {:32} ratio {:6.3}  enc {:7.1} GB/s  dec {:7.1} GB/s\n",
            l.pipeline, l.ratio, l.encode_gbs, l.decode_gbs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, StudyConfig};

    fn measurements() -> Measurements {
        run_campaign(&StudyConfig::quick())
    }

    #[test]
    fn ratios_are_sane() {
        let m = measurements();
        for p in 0..m.space.len() {
            let r = m.ratio(p);
            assert!(r > 0.2 && r < 100.0, "pipeline {p}: ratio {r}");
        }
    }

    #[test]
    fn some_pipeline_compresses_the_dataset() {
        let m = measurements();
        let best = leaderboard(&m, 1);
        assert!(best[0].ratio > 1.0, "best ratio {}", best[0].ratio);
        assert!(best[0].encode_gbs > 0.0);
    }

    #[test]
    fn leaderboard_is_sorted_and_sized() {
        let m = measurements();
        let top = leaderboard(&m, 10);
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].ratio >= w[1].ratio);
        }
    }

    #[test]
    fn importance_covers_reducer_families_at_stage3_only_where_legal() {
        let m = measurements();
        let imp = family_importance(&m);
        // Stage 3 entries must all be reducer families.
        for i in imp.iter().filter(|i| i.stage == 2) {
            assert!(
                ["CLOG", "HCLOG", "RARE", "RAZE", "RLE", "RRE", "RZE"].contains(&i.family.as_str()),
                "{} at stage 3",
                i.family
            );
        }
        // The quick space has TCMS at stages 1/2 but never at stage 3.
        assert!(imp.iter().any(|i| i.stage == 0 && i.family == "TCMS"));
        assert!(!imp.iter().any(|i| i.stage == 2 && i.family == "TCMS"));
    }

    #[test]
    fn report_renders() {
        let m = measurements();
        let r = render_report(&m, 5);
        assert!(r.contains("stage 1"));
        assert!(r.contains("Top 5"));
    }
}
