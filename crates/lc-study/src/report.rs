//! Paper-vs-measured report: the qualitative findings of §6 checked
//! against the campaign's measurements, plus the EXPERIMENTS.md emitter.
//!
//! The reproduction contract (DESIGN.md) is *shape*, not absolute numbers:
//! each [`Finding`] states one claim from the paper and whether this run
//! reproduces it.

use gpu_sim::{CompilerId, Direction, OptLevel};
use lc_core::ComponentKind;

use crate::campaign::Measurements;
use crate::figures::{self, Figure};
use crate::stats::{letter_values, median};

/// One qualitative claim from the paper, checked against measurements.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Short identifier, e.g. `"clang-encode-slower"`.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub source: &'static str,
    /// The claim, as stated by the paper.
    pub paper: &'static str,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement reproduces the claim.
    pub holds: bool,
}

fn med(
    m: &Measurements,
    gpu: &str,
    comp: CompilerId,
    opt: OptLevel,
    dir: Direction,
) -> Option<f64> {
    let c = m.config_index(gpu, comp, opt)?;
    let s = m.series(c, dir);
    if s.is_empty() {
        None
    } else {
        Some(median(s))
    }
}

fn subset_median(
    m: &Measurements,
    gpu: &str,
    dir: Direction,
    ids: &[crate::space::PipelineId],
) -> Option<f64> {
    if ids.is_empty() {
        return None;
    }
    let c = m
        .config_index(gpu, CompilerId::Nvcc, OptLevel::O3)
        .or_else(|| m.config_index(gpu, CompilerId::Hipcc, OptLevel::O3))?;
    Some(median(&m.select(c, dir, ids)))
}

/// Check every §6 claim the campaign's data can address.
///
/// Findings whose required subset or platform is absent from `m` (e.g.
/// restricted test spaces, single-opt-level campaigns) are skipped.
pub fn findings(m: &Measurements) -> Vec<Finding> {
    let mut out = Vec::new();
    let nv = "RTX 4090";
    let amd = "RX 7900 XTX";

    // §6.1: decoding throughputs are generally higher than encoding.
    if let (Some(e), Some(d)) = (
        med(m, nv, CompilerId::Nvcc, OptLevel::O3, Direction::Encode),
        med(m, nv, CompilerId::Nvcc, OptLevel::O3, Direction::Decode),
    ) {
        out.push(Finding {
            id: "decode-faster-than-encode",
            source: "§6.1",
            paper: "Decoding throughputs are generally higher than encoding throughputs",
            measured: format!("decode median {d:.1} GB/s vs encode median {e:.1} GB/s"),
            holds: d > e,
        });
    }

    // §6.1: GPU generation staircase.
    let stair: Vec<Option<f64>> = ["TITAN V", "RTX 3080 Ti", "RTX 4090"]
        .iter()
        .map(|g| med(m, g, CompilerId::Nvcc, OptLevel::O3, Direction::Encode))
        .collect();
    if let [Some(a), Some(b), Some(c)] = stair[..] {
        out.push(Finding {
            id: "nvidia-staircase",
            source: "§6.1 Fig. 2",
            paper: "Newer/larger GPUs have higher overall performance (staircase shape)",
            measured: format!("TITAN V {a:.1} < 3080 Ti {b:.1} < 4090 {c:.1} GB/s"),
            holds: a < b && b < c,
        });
    }
    if let (Some(a), Some(b)) = (
        med(
            m,
            "MI100",
            CompilerId::Hipcc,
            OptLevel::O3,
            Direction::Encode,
        ),
        med(m, amd, CompilerId::Hipcc, OptLevel::O3, Direction::Encode),
    ) {
        out.push(Finding {
            id: "amd-staircase",
            source: "§6.1 Fig. 2",
            paper: "MI100 to RX 7900 XTX shows the same staircase on AMD",
            measured: format!("MI100 {a:.1} < 7900 XTX {b:.1} GB/s"),
            holds: a < b,
        });
    }

    // §6.1: Clang encode slower / decode faster; NVCC ≈ HIPCC.
    if let (Some(en), Some(ec), Some(eh)) = (
        med(m, nv, CompilerId::Nvcc, OptLevel::O3, Direction::Encode),
        med(m, nv, CompilerId::Clang, OptLevel::O3, Direction::Encode),
        med(m, nv, CompilerId::Hipcc, OptLevel::O3, Direction::Encode),
    ) {
        out.push(Finding {
            id: "clang-encode-slower",
            source: "§6.1 Fig. 2",
            paper: "Clang's encoding throughputs are consistently lower than NVCC's and HIPCC's",
            measured: format!("Clang {ec:.1} vs NVCC {en:.1} vs HIPCC {eh:.1} GB/s"),
            holds: ec < en && ec < eh,
        });
        out.push(Finding {
            id: "nvcc-hipcc-match",
            source: "§6.1",
            paper: "NVCC and HIPCC distributions are always close on NVIDIA GPUs",
            measured: format!("median ratio {:.4}", eh / en),
            holds: (eh / en - 1.0).abs() < 0.02,
        });
    }
    if let (Some(dn), Some(dc)) = (
        med(m, nv, CompilerId::Nvcc, OptLevel::O3, Direction::Decode),
        med(m, nv, CompilerId::Clang, OptLevel::O3, Direction::Decode),
    ) {
        out.push(Finding {
            id: "clang-decode-faster",
            source: "§6.1 Fig. 3",
            paper: "Clang's decoding throughputs are consistently higher than NVCC's and HIPCC's",
            measured: format!("Clang {dc:.1} vs NVCC {dn:.1} GB/s"),
            holds: dc > dn,
        });
    }

    // §6.1: decode distributions skew towards higher throughputs.
    if let Some(c) = m.config_index(nv, CompilerId::Nvcc, OptLevel::O3) {
        let enc_lv = letter_values(m.series(c, Direction::Encode));
        let dec_lv = letter_values(m.series(c, Direction::Decode));
        out.push(Finding {
            id: "decode-skews-up",
            source: "§6.1 Fig. 3",
            paper: "Decoding distributions are not symmetric but skew towards higher throughputs",
            measured: format!(
                "decode skew {:.3} vs encode skew {:.3}",
                dec_lv.upward_skew(),
                enc_lv.upward_skew()
            ),
            holds: dec_lv.upward_skew() > enc_lv.upward_skew() && dec_lv.upward_skew() > 0.0,
        });
    }

    // §6.2: encoding throughput generally increases with word size.
    {
        let w1 = subset_median(m, nv, Direction::Encode, &m.space.uniform_word_size(1));
        let w8 = subset_median(m, nv, Direction::Encode, &m.space.uniform_word_size(8));
        if let (Some(w1), Some(w8)) = (w1, w8) {
            out.push(Finding {
                id: "encode-wordsize-scaling",
                source: "§6.2 Fig. 4",
                paper: "Encoding throughput generally increases with the word size",
                measured: format!("w=1 median {w1:.1} vs w=8 median {w8:.1} GB/s"),
                holds: w8 > w1,
            });
        }
    }
    // §6.2: 8-byte decoding trends highest.
    {
        let medians: Vec<Option<f64>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| subset_median(m, nv, Direction::Decode, &m.space.uniform_word_size(w)))
            .collect();
        if medians.iter().all(|v| v.is_some()) {
            let v: Vec<f64> = medians.into_iter().map(|x| x.unwrap()).collect(); // invariant: all() checked Some
            out.push(Finding {
                id: "decode-wordsize-8-highest",
                source: "§6.2 Fig. 5",
                paper: "Decoding throughputs trend highest for 8-byte components",
                measured: format!(
                    "medians w=1..8: {:.1}/{:.1}/{:.1}/{:.1}",
                    v[0], v[1], v[2], v[3]
                ),
                holds: v[3] >= v[0] && v[3] >= v[1] && v[3] >= v[2],
            });
        }
    }

    // §6.3: reducers encode slowest; predictors decode slowest.
    {
        let kinds = ComponentKind::ALL;
        let enc: Vec<Option<f64>> = kinds
            .iter()
            .map(|&k| subset_median(m, nv, Direction::Encode, &m.space.kind_pair(k)))
            .collect();
        if enc.iter().all(|v| v.is_some()) {
            let v: Vec<f64> = enc.into_iter().map(|x| x.unwrap()).collect(); // invariant: all() checked Some
            let reducer = v[3];
            out.push(Finding {
                id: "reducers-encode-slowest",
                source: "§6.3 Fig. 6",
                paper: "Component types yield similar encoding throughputs except reducers, which are slower",
                measured: format!(
                    "medians mut/shuf/pred/red: {:.1}/{:.1}/{:.1}/{:.1}",
                    v[0], v[1], v[2], v[3]
                ),
                holds: reducer < v[0] && reducer < v[1] && reducer < v[2],
            });
        }
        let dec: Vec<Option<f64>> = kinds
            .iter()
            .map(|&k| subset_median(m, nv, Direction::Decode, &m.space.kind_pair(k)))
            .collect();
        if dec.iter().all(|v| v.is_some()) {
            let v: Vec<f64> = dec.into_iter().map(|x| x.unwrap()).collect(); // invariant: all() checked Some
            out.push(Finding {
                id: "predictors-decode-slowest",
                source: "§6.3 Fig. 7",
                paper:
                    "Pipelines with predictors yield the lowest decoding throughputs (prefix sums)",
                measured: format!(
                    "medians mut/shuf/pred/red: {:.1}/{:.1}/{:.1}/{:.1}",
                    v[0], v[1], v[2], v[3]
                ),
                holds: v[2] < v[0] && v[2] < v[1] && v[2] < v[3],
            });
        }
    }

    // §6.4: RARE and RAZE have the lowest stage-1 encoding throughputs.
    {
        let families: Vec<&str> = lc_components::families();
        let meds: Vec<(String, Option<f64>)> = families
            .iter()
            .map(|f| {
                (
                    f.to_string(),
                    subset_median(m, nv, Direction::Encode, &m.space.stage1_family(f)),
                )
            })
            .collect();
        if meds.iter().all(|(_, v)| v.is_some()) && meds.len() >= 6 {
            let mut ranked: Vec<(String, f64)> =
                meds.into_iter().map(|(f, v)| (f, v.unwrap())).collect(); // invariant: all() checked Some
            ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap()); // invariant: medians are finite
            let slowest2: Vec<&str> = ranked.iter().take(2).map(|(f, _)| f.as_str()).collect();
            out.push(Finding {
                id: "rare-raze-encode-slowest",
                source: "§6.4 Fig. 8",
                paper: "Pipelines with RARE/RAZE in Stage 1 have significantly lower encoding throughputs",
                measured: format!("slowest two stage-1 families: {slowest2:?}"),
                holds: slowest2.contains(&"RARE") && slowest2.contains(&"RAZE"),
            });
        }
    }

    // §6.4 Fig. 11: RLE_4 decodes slower than RLE_1/2/8 in stage 1.
    {
        let meds: Vec<Option<f64>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                subset_median(
                    m,
                    nv,
                    Direction::Decode,
                    &m.space.stage1_component(&format!("RLE_{w}")),
                )
            })
            .collect();
        if meds.iter().all(|v| v.is_some()) {
            let v: Vec<f64> = meds.into_iter().map(|x| x.unwrap()).collect(); // invariant: all() checked Some
            out.push(Finding {
                id: "rle4-decode-slowest",
                source: "§6.4 Fig. 11",
                paper: "RLE_4 decodes slower than RLE_1/2/8 on single-precision inputs (it actually compresses, so it must decompress)",
                measured: format!(
                    "decode medians RLE_1/2/4/8: {:.1}/{:.1}/{:.1}/{:.1} GB/s",
                    v[0], v[1], v[2], v[3]
                ),
                holds: v[2] < v[0] && v[2] < v[1] && v[2] < v[3],
            });
        }
    }

    // §6.4 prose: at Stage 2, RLE's word-size discrepancies alleviate —
    // the preceding component's output is "more likely to be similarly
    // compressible by RLE components of different word sizes".
    {
        let spread = |stage1: bool| -> Option<f64> {
            let mut meds = Vec::new();
            for w in [1usize, 2, 4, 8] {
                let name = format!("RLE_{w}");
                let ids = if stage1 {
                    m.space.stage1_component(&name)
                } else {
                    m.space
                        .iter()
                        .filter(|&id| m.space.stages(id)[1].name() == name)
                        .collect()
                };
                meds.push(subset_median(m, nv, Direction::Decode, &ids)?);
            }
            let max = meds.iter().cloned().fold(f64::MIN, f64::max);
            let min = meds.iter().cloned().fold(f64::MAX, f64::min);
            Some((max - min) / max)
        };
        if let (Some(sp1), Some(sp2)) = (spread(true), spread(false)) {
            out.push(Finding {
                id: "rle-stage2-uniform",
                source: "§6.4",
                paper: "RLE's per-word-size decode discrepancies alleviate when it moves from Stage 1 to Stage 2",
                measured: format!(
                    "relative spread of RLE_1/2/4/8 decode medians: stage-1 {sp1:.3} vs stage-2 {sp2:.3}"
                ),
                holds: sp2 < sp1,
            });
        }
    }

    // §6.5: Clang -O1→-O3 encode regression, decode gain < 10%.
    if let (Some(c1), Some(c3)) = (
        m.config_index(nv, CompilerId::Clang, OptLevel::O1),
        m.config_index(nv, CompilerId::Clang, OptLevel::O3),
    ) {
        let enc_speedup = median(
            &m.series(c1, Direction::Encode)
                .iter()
                .zip(m.series(c3, Direction::Encode))
                .map(|(a, b)| b / a)
                .collect::<Vec<_>>(),
        );
        let dec_speedup = median(
            &m.series(c1, Direction::Decode)
                .iter()
                .zip(m.series(c3, Direction::Decode))
                .map(|(a, b)| b / a)
                .collect::<Vec<_>>(),
        );
        out.push(Finding {
            id: "clang-o3-encode-regression",
            source: "§6.5 Fig. 14",
            paper: "Clang's encoding throughput tends to decrease from -O1 to -O3 on NVIDIA GPUs",
            measured: format!("median encode speedup {enc_speedup:.3}"),
            holds: enc_speedup < 1.0,
        });
        out.push(Finding {
            id: "clang-o3-decode-gain-small",
            source: "§6.5 Fig. 15",
            paper: "Clang's decoding improves from -O1 to -O3, but by less than 10%",
            measured: format!("median decode speedup {dec_speedup:.3}"),
            holds: dec_speedup > 1.0 && dec_speedup < 1.10,
        });
    }

    out
}

/// Emit the EXPERIMENTS.md document: per-figure letter-value tables plus
/// the paper-vs-measured findings checklist.
pub fn experiments_markdown(m: &Measurements, figs: &[Figure]) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    out.push_str(
        "Reproduction of \"Characterizing the Performance of Parallel \
         Data-Compression Algorithms across Compilers and GPUs\" (SC Workshops '25).\n\n\
         All throughputs come from the analytical GPU/compiler model driven by real \
         kernel statistics of the Rust LC implementation (see DESIGN.md for the \
         substitution argument); the comparison target is the *shape* of each paper \
         figure, not its absolute numbers.\n\n",
    );
    out.push_str(&format!(
        "Campaign: {} pipelines × {} inputs × {} platform configs.\n\n",
        m.space.len(),
        m.files.len(),
        m.configs.len()
    ));

    out.push_str("## Findings checklist (§6 claims)\n\n");
    out.push_str("| ✓ | Claim (paper) | Measured | Source |\n|---|---|---|---|\n");
    let fs = findings(m);
    for f in &fs {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            if f.holds { "✅" } else { "❌" },
            f.paper,
            f.measured,
            f.source
        ));
    }
    let held = fs.iter().filter(|f| f.holds).count();
    out.push_str(&format!("\n**{held}/{} claims reproduced.**\n\n", fs.len()));

    for fig in figs {
        out.push_str(&format!(
            "## Figure {}: {}\n\n```text\n",
            fig.id.number(),
            fig.id.title()
        ));
        out.push_str(&figures::render(fig));
        out.push_str("```\n\n");
    }
    out.push_str("## Compression-ratio extension\n\n```text\n");
    out.push_str(&crate::ratio::render_report(m, 10));
    out.push_str("```\n");
    out
}

/// JSON rendering of a letter-value summary (field order mirrors the
/// struct so run dumps stay stable across refactors).
pub(crate) fn letter_values_json(lv: &crate::stats::LetterValues) -> lc_json::Value {
    use lc_json::Value;
    Value::object([
        ("n", Value::from(lv.n)),
        ("median", Value::from(lv.median)),
        (
            "boxes",
            Value::array(
                lv.boxes
                    .iter()
                    .map(|&(lo, hi)| Value::array([Value::from(lo), Value::from(hi)])),
            ),
        ),
        ("outliers_low", Value::from(lv.outliers_low)),
        ("outliers_high", Value::from(lv.outliers_high)),
        ("min", Value::from(lv.min)),
        ("max", Value::from(lv.max)),
    ])
}

/// Machine-readable dump of the whole run: findings plus every figure's
/// letter-value rows, for downstream plotting/regression tooling.
///
/// The emitter is deterministic (ordered objects, shortest round-trip
/// floats), which is what lets a resumed campaign promise a byte-identical
/// `run.json`.
pub fn to_json(m: &Measurements, figs: &[Figure]) -> String {
    use lc_json::Value;
    let run = Value::object([
        ("pipelines", Value::from(m.space.len())),
        (
            "inputs",
            Value::array(m.files.iter().map(|f| Value::from(*f))),
        ),
        (
            "platforms",
            Value::array(m.configs.iter().map(|c| Value::from(c.label()))),
        ),
        (
            "findings",
            Value::array(findings(m).iter().map(|f| {
                Value::object([
                    ("id", Value::from(f.id)),
                    ("source", Value::from(f.source)),
                    ("paper", Value::from(f.paper)),
                    ("measured", Value::from(f.measured.as_str())),
                    ("holds", Value::from(f.holds)),
                ])
            })),
        ),
        (
            "figures",
            Value::array(figs.iter().map(|f| {
                Value::object([
                    ("figure", Value::from(f.id.number())),
                    ("title", Value::from(f.id.title())),
                    ("unit", Value::from(f.unit)),
                    (
                        "groups",
                        Value::array(f.groups.iter().map(|g| {
                            Value::object([
                                ("group", Value::from(g.group.as_str())),
                                ("compiler", Value::from(g.compiler)),
                                ("lv", letter_values_json(&g.lv)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ]);
    run.pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, StudyConfig};

    #[test]
    fn findings_on_quick_campaign() {
        let mut sc = StudyConfig::quick();
        sc.opt_levels = vec![OptLevel::O1, OptLevel::O3];
        let m = run_campaign(&sc);
        let fs = findings(&m);
        assert!(!fs.is_empty());
        // The compiler-level findings must hold even on the restricted space.
        for id in [
            "clang-encode-slower",
            "clang-decode-faster",
            "nvcc-hipcc-match",
            "nvidia-staircase",
            "clang-o3-encode-regression",
            "clang-o3-decode-gain-small",
        ] {
            let f = fs
                .iter()
                .find(|f| f.id == id)
                .unwrap_or_else(|| panic!("missing {id}"));
            assert!(f.holds, "{id}: {}", f.measured);
        }
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let m = run_campaign(&StudyConfig::quick());
        let figs = vec![crate::figures::figure(&m, crate::figures::FigId::Fig2)];
        let json = to_json(&m, &figs);
        let v = lc_json::Value::parse(&json).expect("valid JSON");
        assert_eq!(v["pipelines"], 16 * 16 * 8);
        assert!(v["findings"].as_array().unwrap().len() > 3);
        assert_eq!(v["figures"][0]["figure"], 2);
        assert!(
            v["figures"][0]["groups"][0]["lv"]["median"]
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn markdown_report_structure() {
        let m = run_campaign(&StudyConfig::quick());
        let figs = vec![crate::figures::figure(&m, crate::figures::FigId::Fig2)];
        let md = experiments_markdown(&m, &figs);
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("Findings checklist"));
        assert!(md.contains("## Figure 2"));
    }
}
