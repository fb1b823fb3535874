//! Figure generators: one per figure of the paper's evaluation (§6).
//!
//! Each generator selects the figure's pipeline subset, groups it the way
//! the paper's x-axis does, and computes the letter-value summary that the
//! paper draws as a boxen plot. The output is a [`Figure`] that renders to
//! an aligned text table and to CSV (written under `experiments/` by the
//! `reproduce` binary).

use gpu_sim::{CompilerId, Direction, OptLevel, Vendor, ALL_GPUS};
use lc_core::ComponentKind;

use crate::campaign::Measurements;
use crate::space::PipelineId;
use crate::stats::{letter_values, LetterValues};

/// Identifier of a reproducible figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigId {
    /// Encoding throughputs by GPU (Fig. 2).
    Fig2,
    /// Decoding throughputs by GPU (Fig. 3).
    Fig3,
    /// Encoding throughputs by word size (Fig. 4).
    Fig4,
    /// Decoding throughputs by word size (Fig. 5).
    Fig5,
    /// Encoding throughputs by component type (Fig. 6).
    Fig6,
    /// Decoding throughputs by component type (Fig. 7).
    Fig7,
    /// Encoding throughputs by component in stage 1 (Fig. 8).
    Fig8,
    /// Decoding throughputs by component in stage 1 (Fig. 9).
    Fig9,
    /// Decoding throughputs of BIT-led pipelines by word size (Fig. 10).
    Fig10,
    /// Decoding throughputs of RLE-led pipelines by word size (Fig. 11).
    Fig11,
    /// Encoding throughputs by component in stage 3 (Fig. 12).
    Fig12,
    /// Decoding throughputs by component in stage 3 (Fig. 13).
    Fig13,
    /// Encoding speedups from -O1 to -O3 by GPU (Fig. 14).
    Fig14,
    /// Decoding speedups from -O1 to -O3 by GPU (Fig. 15).
    Fig15,
}

impl FigId {
    /// All figures, paper order.
    pub const ALL: [FigId; 14] = [
        FigId::Fig2,
        FigId::Fig3,
        FigId::Fig4,
        FigId::Fig5,
        FigId::Fig6,
        FigId::Fig7,
        FigId::Fig8,
        FigId::Fig9,
        FigId::Fig10,
        FigId::Fig11,
        FigId::Fig12,
        FigId::Fig13,
        FigId::Fig14,
        FigId::Fig15,
    ];

    /// Parse `"2"`, `"fig2"`, `"Fig2"`, ….
    pub fn parse(s: &str) -> Option<FigId> {
        let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
        match digits.as_str() {
            "2" => Some(FigId::Fig2),
            "3" => Some(FigId::Fig3),
            "4" => Some(FigId::Fig4),
            "5" => Some(FigId::Fig5),
            "6" => Some(FigId::Fig6),
            "7" => Some(FigId::Fig7),
            "8" => Some(FigId::Fig8),
            "9" => Some(FigId::Fig9),
            "10" => Some(FigId::Fig10),
            "11" => Some(FigId::Fig11),
            "12" => Some(FigId::Fig12),
            "13" => Some(FigId::Fig13),
            "14" => Some(FigId::Fig14),
            "15" => Some(FigId::Fig15),
            _ => None,
        }
    }

    /// Figure number in the paper.
    pub fn number(&self) -> u32 {
        match self {
            FigId::Fig2 => 2,
            FigId::Fig3 => 3,
            FigId::Fig4 => 4,
            FigId::Fig5 => 5,
            FigId::Fig6 => 6,
            FigId::Fig7 => 7,
            FigId::Fig8 => 8,
            FigId::Fig9 => 9,
            FigId::Fig10 => 10,
            FigId::Fig11 => 11,
            FigId::Fig12 => 12,
            FigId::Fig13 => 13,
            FigId::Fig14 => 14,
            FigId::Fig15 => 15,
        }
    }

    /// Paper caption.
    pub(crate) fn title(&self) -> &'static str {
        match self {
            FigId::Fig2 => "Encoding throughputs by GPU",
            FigId::Fig3 => "Decoding throughputs by GPU",
            FigId::Fig4 => "Encoding throughputs by wordsize",
            FigId::Fig5 => "Decoding throughputs by wordsize",
            FigId::Fig6 => "Encoding throughputs by component type",
            FigId::Fig7 => "Decoding throughputs by component type",
            FigId::Fig8 => "Encoding throughputs by component in Stage 1",
            FigId::Fig9 => "Decoding throughputs by component in Stage 1",
            FigId::Fig10 => "Decoding throughputs of pipelines with a BIT component in Stage 1",
            FigId::Fig11 => "Decoding throughputs of pipelines with an RLE component in Stage 1",
            FigId::Fig12 => "Encoding throughputs by component in Stage 3",
            FigId::Fig13 => "Decoding throughputs by component in Stage 3",
            FigId::Fig14 => "Encoding speedups from -O1 to -O3 by GPU",
            FigId::Fig15 => "Decoding speedups from -O1 to -O3 by GPU",
        }
    }
}

/// One box group of a figure (one x position × one compiler color).
#[derive(Debug, Clone)]
pub struct Group {
    /// X-axis group label (GPU name, word size, component type, family…).
    pub group: String,
    /// Compiler legend entry.
    pub compiler: &'static str,
    /// Letter-value summary of the group's distribution.
    pub lv: LetterValues,
}

/// A reproduced figure: letter-value rows per (group, compiler).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Which paper figure this reproduces.
    pub id: FigId,
    /// Unit of the values ("GB/s" or "speedup").
    pub unit: &'static str,
    /// The groups, x-axis order then legend order.
    pub groups: Vec<Group>,
}

fn push_group(
    groups: &mut Vec<Group>,
    m: &Measurements,
    label: &str,
    cfg: usize,
    dir: Direction,
    ids: Option<&[PipelineId]>,
) {
    let values = match ids {
        None => m.series(cfg, dir).to_vec(),
        Some(ids) => m.select(cfg, dir, ids),
    };
    if values.is_empty() {
        return; // restricted spaces may lack a subset; omit the box
    }
    groups.push(Group {
        group: label.to_string(),
        compiler: m.configs[cfg].compiler.label(),
        lv: letter_values(&values),
    });
}

/// Configs at `opt` for one GPU, legend order.
fn gpu_configs(m: &Measurements, gpu: &str, opt: OptLevel) -> Vec<usize> {
    let vendor = ALL_GPUS.iter().find(|g| g.name == gpu).map(|g| g.vendor);
    let Some(vendor) = vendor else { return vec![] };
    CompilerId::for_vendor(vendor)
        .into_iter()
        .filter_map(|c| m.config_index(gpu, c, opt))
        .collect()
}

/// The fastest tested GPU per vendor (Figs. 4–13 show only these).
fn fastest_gpus() -> [&'static str; 2] {
    [
        gpu_sim::fastest(Vendor::Nvidia).name,
        gpu_sim::fastest(Vendor::Amd).name,
    ]
}

/// Generate a figure from campaign measurements.
///
/// Figures 14/15 require the campaign to include both `-O1` and `-O3`.
pub fn figure(m: &Measurements, id: FigId) -> Figure {
    let mut groups = Vec::new();
    match id {
        FigId::Fig2 | FigId::Fig3 => {
            let dir = if id == FigId::Fig2 {
                Direction::Encode
            } else {
                Direction::Decode
            };
            for gpu in ALL_GPUS {
                for cfg in gpu_configs(m, gpu.name, OptLevel::O3) {
                    push_group(&mut groups, m, gpu.name, cfg, dir, None);
                }
            }
        }
        FigId::Fig4 | FigId::Fig5 => {
            let dir = if id == FigId::Fig4 {
                Direction::Encode
            } else {
                Direction::Decode
            };
            for gpu in fastest_gpus() {
                for w in [1usize, 2, 4, 8] {
                    let ids = m.space.uniform_word_size(w);
                    for cfg in gpu_configs(m, gpu, OptLevel::O3) {
                        push_group(
                            &mut groups,
                            m,
                            &format!("{gpu} w={w}"),
                            cfg,
                            dir,
                            Some(&ids),
                        );
                    }
                }
            }
        }
        FigId::Fig6 | FigId::Fig7 => {
            let dir = if id == FigId::Fig6 {
                Direction::Encode
            } else {
                Direction::Decode
            };
            for gpu in fastest_gpus() {
                for kind in ComponentKind::ALL {
                    let ids = m.space.kind_pair(kind);
                    for cfg in gpu_configs(m, gpu, OptLevel::O3) {
                        push_group(
                            &mut groups,
                            m,
                            &format!("{gpu} {}", kind.label()),
                            cfg,
                            dir,
                            Some(&ids),
                        );
                    }
                }
            }
        }
        FigId::Fig8 | FigId::Fig9 => {
            let dir = if id == FigId::Fig8 {
                Direction::Encode
            } else {
                Direction::Decode
            };
            // Alphabetical family order, as in the paper's figures.
            let mut families = lc_components::families();
            families.sort_unstable();
            for gpu in fastest_gpus() {
                for fam in &families {
                    let ids = m.space.stage1_family(fam);
                    for cfg in gpu_configs(m, gpu, OptLevel::O3) {
                        push_group(
                            &mut groups,
                            m,
                            &format!("{gpu} {fam}"),
                            cfg,
                            dir,
                            Some(&ids),
                        );
                    }
                }
            }
        }
        FigId::Fig10 | FigId::Fig11 => {
            let fam = if id == FigId::Fig10 { "BIT" } else { "RLE" };
            for gpu in fastest_gpus() {
                for w in [1usize, 2, 4, 8] {
                    let name = format!("{fam}_{w}");
                    let ids = m.space.stage1_component(&name);
                    for cfg in gpu_configs(m, gpu, OptLevel::O3) {
                        push_group(
                            &mut groups,
                            m,
                            &format!("{gpu} {name}"),
                            cfg,
                            Direction::Decode,
                            Some(&ids),
                        );
                    }
                }
            }
        }
        FigId::Fig12 | FigId::Fig13 => {
            let dir = if id == FigId::Fig12 {
                Direction::Encode
            } else {
                Direction::Decode
            };
            let mut families: Vec<&str> = m
                .space
                .reducers
                .iter()
                .map(|c| lc_core::component::family_of(c.name()))
                .collect();
            families.sort_unstable();
            families.dedup();
            for gpu in fastest_gpus() {
                for fam in &families {
                    let ids = m.space.stage3_family(fam);
                    for cfg in gpu_configs(m, gpu, OptLevel::O3) {
                        push_group(
                            &mut groups,
                            m,
                            &format!("{gpu} {fam}"),
                            cfg,
                            dir,
                            Some(&ids),
                        );
                    }
                }
            }
        }
        FigId::Fig14 | FigId::Fig15 => {
            let dir = if id == FigId::Fig14 {
                Direction::Encode
            } else {
                Direction::Decode
            };
            for gpu in ALL_GPUS {
                let vendor_compilers = CompilerId::for_vendor(gpu.vendor);
                for compiler in vendor_compilers {
                    let (Some(c1), Some(c3)) = (
                        m.config_index(gpu.name, compiler, OptLevel::O1),
                        m.config_index(gpu.name, compiler, OptLevel::O3),
                    ) else {
                        continue;
                    };
                    let o1 = m.series(c1, dir);
                    let o3 = m.series(c3, dir);
                    let speedups: Vec<f64> = o1.iter().zip(o3).map(|(a, b)| b / a).collect();
                    if speedups.is_empty() {
                        continue;
                    }
                    groups.push(Group {
                        group: gpu.name.to_string(),
                        compiler: compiler.label(),
                        lv: letter_values(&speedups),
                    });
                }
            }
            return Figure {
                id,
                unit: "speedup",
                groups,
            };
        }
    }
    Figure {
        id,
        unit: "GB/s",
        groups,
    }
}

/// Extension figures: the paper's §6.4 describes the Stage 2 results but
/// omits their plots ("the trends echo Stage 1 with minor exceptions").
/// These generators produce them, letter-value form, same grouping as
/// Figs. 8/9.
pub fn stage2_figure(m: &Measurements, dir: Direction) -> Figure {
    let mut groups = Vec::new();
    let mut families = lc_components::families();
    families.sort_unstable();
    for gpu in fastest_gpus() {
        for fam in &families {
            let ids = m.space.stage2_family(fam);
            for cfg in gpu_configs(m, gpu, OptLevel::O3) {
                push_group(
                    &mut groups,
                    m,
                    &format!("{gpu} {fam}"),
                    cfg,
                    dir,
                    Some(&ids),
                );
            }
        }
    }
    // Reuse Fig8/Fig9 identity for rendering; the caption distinguishes.
    Figure {
        id: if dir == Direction::Encode {
            FigId::Fig8
        } else {
            FigId::Fig9
        },
        unit: "GB/s",
        groups,
    }
}

/// Render a figure as an aligned text table. Throughputs print with one
/// decimal; speedup ratios (Figs. 14/15) need three.
pub fn render(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure {}: {} [{}]\n",
        fig.id.number(),
        fig.id.title(),
        fig.unit
    ));
    let width = fig
        .groups
        .iter()
        .map(|g| g.group.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let prec = if fig.unit == "speedup" { 3 } else { 1 };
    for g in &fig.groups {
        let (q25, q75) = g.lv.fourths();
        out.push_str(&format!(
            "  {:w$}  {:6}  median {:9.p$} [{:9.p$}, {:9.p$}] n={} outliers={}\n",
            g.group,
            g.compiler,
            g.lv.median,
            q25,
            q75,
            g.lv.n,
            g.lv.outliers_low + g.lv.outliers_high,
            w = width,
            p = prec,
        ));
    }
    out
}

/// Render a figure as CSV (`group,compiler,n,median,q25,q75,min,max,outliers,skew`).
pub fn to_csv(fig: &Figure) -> String {
    let mut out = String::from("group,compiler,n,median,q25,q75,min,max,outliers,upward_skew\n");
    for g in &fig.groups {
        let (q25, q75) = g.lv.fourths();
        out.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{},{:.4}\n",
            g.group,
            g.compiler,
            g.lv.n,
            g.lv.median,
            q25,
            q75,
            g.lv.min,
            g.lv.max,
            g.lv.outliers_low + g.lv.outliers_high,
            g.lv.upward_skew(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, StudyConfig};

    fn measurements() -> Measurements {
        let mut sc = StudyConfig::quick();
        // Include BIT so Figs. 10/11 have data in the restricted space.
        sc.space = crate::space::Space::restricted_to_families(&["TCMS", "BIT", "RLE", "RZE"]);
        sc.opt_levels = vec![OptLevel::O1, OptLevel::O3];
        run_campaign(&sc)
    }

    #[test]
    fn parse_fig_ids() {
        assert_eq!(FigId::parse("2"), Some(FigId::Fig2));
        assert_eq!(FigId::parse("fig11"), Some(FigId::Fig11));
        assert_eq!(FigId::parse("Fig15"), Some(FigId::Fig15));
        assert_eq!(FigId::parse("1"), None);
        assert_eq!(FigId::parse("16"), None);
    }

    #[test]
    fn all_figures_generate_nonempty_groups() {
        let m = measurements();
        for id in FigId::ALL {
            let f = figure(&m, id);
            assert!(!f.groups.is_empty(), "figure {:?} empty", id);
            let text = render(&f);
            assert!(text.contains("median"), "{text}");
            let csv = to_csv(&f);
            assert!(csv.lines().count() > 1);
        }
    }

    #[test]
    fn fig2_has_five_gpu_groups_with_platform_compilers() {
        let m = measurements();
        let f = figure(&m, FigId::Fig2);
        // 3 NVIDIA GPUs × 3 compilers + 2 AMD × 1 = 11 boxes.
        assert_eq!(f.groups.len(), 11);
        let nvcc_boxes = f.groups.iter().filter(|g| g.compiler == "NVCC").count();
        assert_eq!(nvcc_boxes, 3);
        let amd_boxes = f
            .groups
            .iter()
            .filter(|g| g.group.contains("MI100"))
            .count();
        assert_eq!(amd_boxes, 1, "MI100 is HIPCC-only");
    }

    #[test]
    fn fig14_speedups_cluster_near_one() {
        let m = measurements();
        let f = figure(&m, FigId::Fig14);
        assert_eq!(f.unit, "speedup");
        for g in &f.groups {
            assert!(
                g.lv.median > 0.8 && g.lv.median < 1.3,
                "{}: {}",
                g.group,
                g.lv.median
            );
        }
    }

    #[test]
    fn fig14_clang_regresses_on_nvidia() {
        let m = measurements();
        let f = figure(&m, FigId::Fig14);
        for g in f.groups.iter().filter(|g| g.compiler == "Clang") {
            assert!(
                g.lv.median < 1.0,
                "Clang -O3 encode regression on {}: {}",
                g.group,
                g.lv.median
            );
        }
    }

    #[test]
    fn fig15_clang_improves_but_less_than_10_percent() {
        let m = measurements();
        let f = figure(&m, FigId::Fig15);
        for g in f.groups.iter().filter(|g| g.compiler == "Clang") {
            assert!(g.lv.median > 1.0, "Clang -O3 decode speedup on {}", g.group);
            assert!(
                g.lv.median < 1.10,
                "speedup must stay below 10%: {}",
                g.lv.median
            );
        }
    }

    #[test]
    fn fig14_amd_is_stable() {
        let m = measurements();
        let f = figure(&m, FigId::Fig14);
        for g in f.groups.iter().filter(|g| g.group.contains("MI100")) {
            assert!(
                (g.lv.median - 1.0).abs() < 0.05,
                "MI100 stability: {}",
                g.lv.median
            );
        }
    }
}
