//! The component registry: all 62 components of paper Table 1.
//!
//! Word sizes are 1/2/4/8 bytes except: DBEFS/DBESF exist only at 4 and 8
//! (IEEE-754 widths), and the six TUPL variants are TUPL2_1, TUPL2_2,
//! TUPL4_1, TUPL4_2, TUPL8_1, TUPL8_4 — the paper states six TUPL
//! components over tuple sizes {2,4,8} without listing their word sizes;
//! this assignment is forced up to permutation by the per-word-size
//! single-word-size pipeline counts of §6.2 (16/15/16/15 components at
//! word size 1/2/4/8) and is documented as a deviation in DESIGN.md.
//!
//! Counts: 12 mutators + 10 shufflers + 12 predictors + 28 reducers = 62,
//! and 62 × 62 × 28 = 107,632 three-stage pipelines (§5).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use lc_core::{Component, ComponentKind, Pipeline, PipelineError};

use crate::mutators::{Dbefs, Dbesf, Tcms, Tcnb};
use crate::predictors::{Diff, DiffMs, DiffNb};
use crate::reducers::{Clog, Hclog, Rare, Raze, Rle, Rre, Rze};
use crate::shufflers::{Bit, Tupl};

/// Total number of components (paper §1).
pub const COMPONENT_COUNT: usize = 62;
/// Number of reducers (valid final stages; paper §5).
pub const REDUCER_COUNT: usize = 28;
/// Number of generated three-stage pipelines: 62 × 62 × 28 (paper §5).
pub const PIPELINE_COUNT: usize = COMPONENT_COUNT * COMPONENT_COUNT * REDUCER_COUNT;

fn build_all() -> Vec<Arc<dyn Component>> {
    macro_rules! four {
        ($t:ident) => {
            vec![
                Arc::new($t::<1>) as Arc<dyn Component>,
                Arc::new($t::<2>),
                Arc::new($t::<4>),
                Arc::new($t::<8>),
            ]
        };
    }
    let mut v: Vec<Arc<dyn Component>> = Vec::with_capacity(COMPONENT_COUNT);
    // Mutators (12), in Table 1 order.
    v.push(Arc::new(Dbefs::<4>));
    v.push(Arc::new(Dbefs::<8>));
    v.push(Arc::new(Dbesf::<4>));
    v.push(Arc::new(Dbesf::<8>));
    v.extend(four!(Tcms));
    v.extend(four!(Tcnb));
    // Shufflers (10).
    v.extend(four!(Bit));
    v.push(Arc::new(Tupl::<2, 1>));
    v.push(Arc::new(Tupl::<2, 2>));
    v.push(Arc::new(Tupl::<4, 1>));
    v.push(Arc::new(Tupl::<4, 2>));
    v.push(Arc::new(Tupl::<8, 1>));
    v.push(Arc::new(Tupl::<8, 4>));
    // Predictors (12).
    v.extend(four!(Diff));
    v.extend(four!(DiffMs));
    v.extend(four!(DiffNb));
    // Reducers (28).
    v.extend(four!(Clog));
    v.extend(four!(Hclog));
    v.extend(four!(Rare));
    v.extend(four!(Raze));
    v.extend(four!(Rle));
    v.extend(four!(Rre));
    v.extend(four!(Rze));
    v
}

type Registry = (Vec<Arc<dyn Component>>, HashMap<&'static str, usize>);

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| {
        let all = build_all();
        let index = all.iter().enumerate().map(|(i, c)| (c.name(), i)).collect();
        (all, index)
    })
}

/// All 62 components, in stable Table 1 order.
pub fn all() -> &'static [Arc<dyn Component>] {
    &registry().0
}

/// The 28 reducers, in stable order.
pub fn reducers() -> Vec<Arc<dyn Component>> {
    all()
        .iter()
        .filter(|c| c.kind() == ComponentKind::Reducer)
        .cloned()
        .collect()
}

/// Look a component up by canonical name (e.g. `"RLE_4"`).
///
/// ```
/// let c = lc_components::lookup("RLE_4").unwrap();
/// assert_eq!(c.kind(), lc_core::ComponentKind::Reducer);
/// assert_eq!(c.word_size(), 4);
/// assert!(lc_components::lookup("LZ77_4").is_none());
/// ```
pub fn lookup(name: &str) -> Option<Arc<dyn Component>> {
    let (all, index) = registry();
    index.get(name).map(|&i| all[i].clone())
}

/// Parse a pipeline description against this registry.
///
/// ```
/// let p = lc_components::parse_pipeline("BIT_4 DIFF_4 RZE_4").unwrap();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.uniform_word_size(), Some(4));
/// ```
pub fn parse_pipeline(text: &str) -> Result<Pipeline, PipelineError> {
    Pipeline::parse(text, lookup)
}

/// Distinct family names (word-size-collapsed), in first-appearance order.
pub fn families() -> Vec<&'static str> {
    let mut seen = Vec::new();
    for c in all() {
        let fam = lc_core::component::family_of(c.name());
        if !seen.contains(&fam) {
            seen.push(fam);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Components of a given kind, in stable order.
    fn of_kind(kind: ComponentKind) -> Vec<Arc<dyn Component>> {
        all().iter().filter(|c| c.kind() == kind).cloned().collect()
    }

    #[test]
    fn exactly_62_components() {
        assert_eq!(all().len(), COMPONENT_COUNT);
    }

    #[test]
    fn kind_counts_match_table1() {
        assert_eq!(of_kind(ComponentKind::Mutator).len(), 12);
        assert_eq!(of_kind(ComponentKind::Shuffler).len(), 10);
        assert_eq!(of_kind(ComponentKind::Predictor).len(), 12);
        assert_eq!(of_kind(ComponentKind::Reducer).len(), REDUCER_COUNT);
    }

    #[test]
    fn pipeline_count_is_107632() {
        assert_eq!(PIPELINE_COUNT, 107_632);
    }

    #[test]
    fn word_size_counts_match_section_6_2() {
        // §6.2: 1792/1575/1792/1575 single-word-size pipelines at word
        // sizes 1/2/4/8 = s²·7 with s components of that size.
        let count_ws = |w: usize| all().iter().filter(|c| c.word_size() == w).count();
        assert_eq!(count_ws(1), 16);
        assert_eq!(count_ws(2), 15);
        assert_eq!(count_ws(4), 16);
        assert_eq!(count_ws(8), 15);
        let reducers_ws = |w: usize| reducers().iter().filter(|c| c.word_size() == w).count();
        for w in [1, 2, 4, 8] {
            assert_eq!(reducers_ws(w), 7);
        }
        assert_eq!(16 * 16 * 7, 1792);
        assert_eq!(15 * 15 * 7, 1575);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for c in all() {
            assert!(seen.insert(c.name()), "duplicate {}", c.name());
            let found = lookup(c.name()).expect("lookup");
            assert_eq!(found.name(), c.name());
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(lookup("NOPE_4").is_none());
    }

    #[test]
    fn families_match_table1() {
        let fams = families();
        assert_eq!(
            fams,
            vec![
                "DBEFS", "DBESF", "TCMS", "TCNB", "BIT", "TUPL", "DIFF", "DIFFMS", "DIFFNB",
                "CLOG", "HCLOG", "RARE", "RAZE", "RLE", "RRE", "RZE",
            ]
        );
        assert_eq!(fams.len(), 16);
    }

    #[test]
    fn parse_pipeline_against_registry() {
        let p = parse_pipeline("BIT_4 DIFF_4 RZE_4").unwrap();
        assert_eq!(p.describe(), "BIT_4 DIFF_4 RZE_4");
        assert!(parse_pipeline("BIT_4 NOPE RZE_4").is_err());
    }

    #[test]
    fn stage1_pin_counts_match_section_6_4() {
        // §6.4: pinning a family to stage 1 yields (variants × 62 × 28)
        // pipelines: 6944 for 4-variant families, 3472 for DBEFS/DBESF,
        // 10416 for TUPL.
        let variants = |fam: &str| {
            all()
                .iter()
                .filter(|c| lc_core::component::family_of(c.name()) == fam)
                .count()
        };
        assert_eq!(variants("RLE") * 62 * 28, 6944);
        assert_eq!(variants("DBEFS") * 62 * 28, 3472);
        assert_eq!(variants("TUPL") * 62 * 28, 10416);
    }

    #[test]
    fn stage3_pin_counts_match_section_6_4() {
        // §6.4: each reducer family pinned to stage 3 → 62 × 62 × 4 = 15376.
        assert_eq!(62 * 62 * 4, 15_376);
    }

    #[test]
    fn component_type_pair_counts_match_section_6_3() {
        // §6.3: stages 1–2 of the same kind.
        let m = of_kind(ComponentKind::Mutator).len();
        let s = of_kind(ComponentKind::Shuffler).len();
        let p = of_kind(ComponentKind::Predictor).len();
        let r = of_kind(ComponentKind::Reducer).len();
        assert_eq!(m * m * 28, 4032);
        assert_eq!(s * s * 28, 2800);
        assert_eq!(p * p * 28, 4032);
        assert_eq!(r * r * 28, 21_952);
    }
}
