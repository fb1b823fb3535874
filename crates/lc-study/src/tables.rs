//! Textual regeneration of the paper's tables (1–5).
//!
//! Figures 2–15 are produced by [`crate::figures`]; the static tables are
//! reproduced here directly from the registry, the complexity metadata,
//! the dataset descriptors, and the GPU spec constants — so a diff against
//! the paper is a diff against the code that drives the whole study.

use gpu_sim::{GpuSpec, Vendor, ALL_GPUS};
use lc_core::component::family_of;
use lc_core::{ComponentKind, SpanClass, WorkClass};

/// Table 1: the component list by category.
pub(crate) fn table1() -> String {
    let mut out = String::from("Table 1: List of LC components by category\n");
    let mut columns: Vec<(ComponentKind, Vec<&'static str>)> = ComponentKind::ALL
        .iter()
        .map(|&k| (k, Vec::new()))
        .collect();
    for c in lc_components::all() {
        let fam = family_of(c.name());
        let col = &mut columns.iter_mut().find(|(k, _)| *k == c.kind()).unwrap().1; // invariant: every kind has a column
        if !col.contains(&fam) {
            col.push(fam);
        }
    }
    out.push_str(&format!(
        "{:10} {:10} {:10} {:10}\n",
        "Mutators", "Shufflers", "Predictors", "Reducers"
    ));
    let rows = columns.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    for r in 0..rows {
        for (_, col) in &columns {
            let cell = col.get(r).copied().unwrap_or("");
            out.push_str(&format!("{cell:10} "));
        }
        out.push('\n');
    }
    out
}

fn work_str(w: WorkClass) -> &'static str {
    match w {
        WorkClass::N => "n",
        WorkClass::NLogW => "n log w",
    }
}

fn span_str(s: SpanClass) -> &'static str {
    match s {
        SpanClass::Const => "1",
        SpanClass::LogW => "log w",
        SpanClass::LogN => "log n",
    }
}

/// Table 2: work/span per family, from the components' declared metadata.
pub fn table2() -> String {
    let mut out = String::from("Table 2: Component work complexity and span (big-O)\n");
    out.push_str(&format!(
        "{:10} {:>9} {:>9} {:>9} {:>9}\n",
        "family", "enc work", "enc span", "dec work", "dec span"
    ));
    let mut seen = Vec::new();
    for c in lc_components::all() {
        let fam = family_of(c.name());
        if seen.contains(&fam) {
            continue;
        }
        seen.push(fam);
        let cx = c.complexity();
        out.push_str(&format!(
            "{:10} {:>9} {:>9} {:>9} {:>9}\n",
            fam,
            work_str(cx.enc_work),
            span_str(cx.enc_span),
            work_str(cx.dec_work),
            span_str(cx.dec_span),
        ));
    }
    out
}

/// Table 3: the SP dataset.
pub(crate) fn table3() -> String {
    let mut out = String::from("Table 3: SP dataset\n");
    out.push_str(&format!("{:14} {:>10}\n", "file", "size (MB)"));
    for f in &lc_data::SP_FILES {
        out.push_str(&format!(
            "{:14} {:>10.1}\n",
            f.name,
            f.paper_size_tenth_mb as f64 / 10.0
        ));
    }
    out.push_str(&format!(
        "{:14} {:>10.1}\n",
        "total",
        lc_data::paper_total_mb()
    ));
    out
}

fn gpu_table(title: &str, vendor: Vendor) -> String {
    let gpus: Vec<&GpuSpec> = ALL_GPUS
        .iter()
        .filter(|g| g.vendor == vendor)
        .copied()
        .collect();
    let mut out = String::from(title);
    out.push('\n');
    let row = |label: &str, f: &dyn Fn(&GpuSpec) -> String| {
        let mut line = format!("{label:22}");
        for g in &gpus {
            line.push_str(&format!(" {:>12}", f(g)));
        }
        line.push('\n');
        line
    };
    out.push_str(&row("", &|g| g.name.to_string()));
    out.push_str(&row("Clock Freq. (MHz)", &|g| g.clock_mhz.to_string()));
    out.push_str(&row(
        if vendor == Vendor::Nvidia {
            "SMs"
        } else {
            "CUs"
        },
        &|g| g.sms.to_string(),
    ));
    out.push_str(&row("Max Threads per SM/CU", &|g| {
        g.max_threads_per_sm.to_string()
    }));
    out.push_str(&row("Warp Size", &|g| g.warp_size.to_string()));
    out.push_str(&row("Memory (GB)", &|g| g.memory_gb.to_string()));
    out.push_str(&row(
        if vendor == Vendor::Nvidia {
            "Compute Capability"
        } else {
            "Target Processor"
        },
        &|g| g.arch.to_string(),
    ));
    out
}

/// Table 4: NVIDIA GPU specifications.
pub(crate) fn table4() -> String {
    gpu_table("Table 4: NVIDIA GPU specifications", Vendor::Nvidia)
}

/// Table 5: AMD GPU specifications.
pub(crate) fn table5() -> String {
    gpu_table("Table 5: AMD GPU specifications", Vendor::Amd)
}

/// All five tables concatenated.
pub fn all_tables() -> String {
    [table1(), table2(), table3(), table4(), table5()].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_16_families_in_their_columns() {
        let t = table1();
        for fam in ["DBEFS", "BIT", "TUPL", "DIFF", "CLOG", "RZE"] {
            assert!(t.contains(fam), "{t}");
        }
        // Reducer column is the longest: 7 families.
        assert!(t.lines().count() >= 7 + 2);
    }

    #[test]
    fn table2_matches_paper_rows() {
        let t = table2();
        assert!(t.contains("BIT"), "{t}");
        // BIT is the only n log w row.
        let bit_row = t.lines().find(|l| l.starts_with("BIT")).unwrap();
        assert!(bit_row.contains("n log w"), "{bit_row}");
        let rle_row = t.lines().find(|l| l.starts_with("RLE")).unwrap();
        assert!(
            rle_row.trim_end().ends_with('1'),
            "RLE dec span is 1: {rle_row}"
        );
    }

    #[test]
    fn table3_totals_and_smallest() {
        let t = table3();
        assert!(t.contains("obs_info"));
        assert!(t.contains("9.5"));
        assert!(t.contains("959.4"));
    }

    #[test]
    fn gpu_tables_match_paper_values() {
        let t4 = table4();
        assert!(t4.contains("TITAN V"));
        assert!(t4.contains("2625"), "{t4}");
        let t5 = table5();
        assert!(t5.contains("gfx908"), "{t5}");
        assert!(t5.contains("gfx1100"), "{t5}");
    }

    #[test]
    fn all_tables_concatenates_five() {
        let all = all_tables();
        for t in ["Table 1", "Table 2", "Table 3", "Table 4", "Table 5"] {
            assert!(all.contains(t));
        }
    }
}
