//! Pipeline-space pruning from the abstract interpreter's rewrite system.
//!
//! Every pruning decision comes from `lc-analyze`'s rewrite system
//! ([`lc_analyze::absint`]) and lands in one dense table: for each
//! pipeline, the dense index of the pipeline measured in its place. The
//! campaign skips every cell whose representative is not itself, and
//! after accumulation copies the representative's finished sums into the
//! skipped slots. The one observable difference from full enumeration is
//! the per-pipeline measurement jitter seed: a pruned slot inherits its
//! representative's simulated run-to-run noise (±0.4%) instead of drawing
//! its own.
//!
//! Three tiers, one table:
//!
//! * [`PruneMode::Exact`] (the default) runs only the exact phase of the
//!   rewrite system ([`lc_analyze::absint::exact_prefix_reps`]): each
//!   stage-1/2 prefix is de-fused and rewritten to its exact normal form,
//!   and every cell `(s1, s2, r)` whose prefix is not the least of its
//!   normal-form group is measured as the least prefix's cell with the
//!   same reducer. Group members compose to identical bytes. On the
//!   shipped registry the groups are exactly the 22 mutator × TUPL stage
//!   pairs that [`lc_core::Contract::commutes_with`] proves commute, whose
//!   stages have length-only statistics — so the timing claim holds too.
//!   22 × 28 reducers = 616 of the 107,632 pipelines (~0.6%) are copies.
//! * [`PruneMode::Canonical`] runs the whole abstract interpreter
//!   ([`lc_analyze::absint::classify`]) under the ⊤ input shape, with a
//!   machine-checkable [certificate] per non-representative member. On the
//!   full registry it certifies 8,178 of the 107,632 pipelines (~7.6%) as
//!   redundant. The *pattern* tier among them guarantees identical reducer
//!   **output sizes** (hence identical compressed bytes) but not identical
//!   intermediate bytes or stage timings, so a canonical-pruned slot's
//!   throughput is its representative's. Use it for ratio-focused studies.
//! * [`PruneMode::Off`] measures every pipeline (paper-faithful).
//!
//! The table's [fingerprint] is journaled with the tier (`prune` and
//! `class_map` meta fields) for every tier, `off` included, and resume
//! refuses a journal whose tier or fingerprint differs.
//!
//! [certificate]: lc_analyze::absint::Certificate
//! [fingerprint]: lc_analyze::absint::prune_fingerprint

use std::time::{Duration, Instant};

use lc_analyze::absint::{classify, exact_prefix_reps, prune_fingerprint, RuleTable};

use crate::space::Space;

/// How the campaign treats provably-equivalent pipelines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PruneMode {
    /// Deduplicate pipelines whose stage-1/2 prefixes share an exact
    /// normal form (the default). The pruned pipeline's slots are copies
    /// of the representative's measurements.
    #[default]
    Exact,
    /// Deduplicate whole equivalence classes from the abstract
    /// interpreter's certified class map: one representative pipeline is
    /// measured per class, members copy its numbers. Compressed sizes
    /// are provably exact; throughput at member slots is the
    /// representative's (pattern-tier members may genuinely time
    /// differently).
    Canonical,
    /// Paper-faithful full enumeration: measure every pipeline,
    /// including provably-redundant orderings.
    Off,
}

impl PruneMode {
    /// Stable journal/report label for the mode.
    pub fn label(&self) -> &'static str {
        match self {
            PruneMode::Exact => "exact",
            PruneMode::Canonical => "canonical",
            PruneMode::Off => "off",
        }
    }

    /// Inverse of [`PruneMode::label`] (CLI flag parsing).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "exact" => Some(PruneMode::Exact),
            "canonical" => Some(PruneMode::Canonical),
            "off" => Some(PruneMode::Off),
            _ => None,
        }
    }
}

/// The pruning decisions for one campaign, computed once up front.
#[derive(Debug, Clone)]
pub struct PrunePlan {
    /// The mode the plan was computed under.
    pub mode: PruneMode,
    /// Dense pipeline index → dense index of the pipeline measured in its
    /// place (always the lower of the two). `rep[p] == p` ⇔ `p` is
    /// measured.
    rep: Vec<usize>,
    /// Measured pipelines: one per equivalence class.
    pub classes: usize,
    /// [`prune_fingerprint`] of the skip table.
    pub class_map: u64,
    /// Wall time spent computing the plan.
    pub analysis: Duration,
}

impl PrunePlan {
    /// Compute the skip table of `space` under `mode`.
    pub fn for_space(space: &Space, mode: PruneMode) -> Self {
        let t0 = Instant::now();
        let nr = space.reducers.len();
        let mut rep: Vec<usize> = (0..space.len()).collect();
        match mode {
            PruneMode::Exact => {
                // ⊤ input shape (`lengths = &[]`), as in canonical mode.
                let prefix = exact_prefix_reps(&space.components, &[], &RuleTable::SOUND);
                for (p, r) in rep.iter_mut().enumerate() {
                    *r = prefix[p / nr] * nr + p % nr;
                }
            }
            PruneMode::Canonical => {
                // ⊤ input shape (`lengths = &[]`): the certificates hold
                // for every chunk length the campaign can feed, and the
                // length-bounded absorb-noop rule never fires.
                let map = classify(&space.components, &space.reducers, &[], &RuleTable::SOUND);
                for cert in &map.certificates {
                    rep[map.index(cert.member)] = map.index(cert.representative);
                }
            }
            PruneMode::Off => {}
        }
        Self {
            mode,
            classes: rep.len() - pruned_cells(&rep).count(),
            class_map: prune_fingerprint(pruned_cells(&rep)),
            rep,
            analysis: t0.elapsed(),
        }
    }

    /// Whether the sweep measures the pipeline at dense index `p`.
    pub(crate) fn measures(&self, p: usize) -> bool {
        self.rep[p] == p
    }

    /// Every skipped `(pipeline, representative)` pair, in ascending
    /// pipeline order.
    pub(crate) fn pruned_cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        pruned_cells(&self.rep)
    }

    /// Number of pipelines the plan removes from the sweep.
    pub fn pruned_pipelines(&self) -> usize {
        self.rep.len() - self.classes
    }

    /// Snapshot for campaign outcomes and bench reports.
    pub fn report(&self) -> PruneReport {
        PruneReport {
            mode: self.mode.label(),
            pruned_pipelines: self.pruned_pipelines(),
            classes: self.classes,
            class_map: self.class_map,
            analysis: self.analysis,
        }
    }
}

fn pruned_cells(rep: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    rep.iter()
        .enumerate()
        .filter(|&(p, &r)| p != r)
        .map(|(p, &r)| (p, r))
}

/// Immutable pruning summary attached to a campaign outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// [`PruneMode::label`] of the plan.
    pub mode: &'static str,
    /// Pipelines deduplicated (copied from a representative).
    pub pruned_pipelines: usize,
    /// Pipelines measured.
    pub classes: usize,
    /// Skip-table fingerprint.
    pub class_map: u64,
    /// Wall time spent computing the plan.
    pub analysis: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference skip table from pairwise contract commutation: for every
    /// commuting unordered pair `{i, j}` (`i < j`), each `(j, i, r)` is
    /// measured as `(i, j, r)`.
    fn commute_oracle(space: &Space) -> Vec<usize> {
        let contracts: Vec<_> = space.components.iter().map(|c| c.contract()).collect();
        let (nc, nr) = (contracts.len(), space.reducers.len());
        let mut rep: Vec<usize> = (0..space.len()).collect();
        for i in 0..nc {
            for j in i + 1..nc {
                if contracts[i].commutes_with(&contracts[j]) {
                    for r in 0..nr {
                        rep[(j * nc + i) * nr + r] = (i * nc + j) * nr + r;
                    }
                }
            }
        }
        rep
    }

    fn table(plan: &PrunePlan, space: &Space) -> Vec<usize> {
        let mut rep: Vec<usize> = (0..space.len()).collect();
        for (p, r) in plan.pruned_cells() {
            rep[p] = r;
        }
        rep
    }

    #[test]
    fn exact_tier_equals_the_pairwise_commute_oracle() {
        for families in [
            &["TCMS", "TUPL", "RZE"][..],
            &["TCMS", "DIFF", "RLE", "RZE"],
            &["TCMS", "BIT", "DIFF", "RLE", "RZE"],
        ] {
            let space = Space::restricted_to_families(families);
            let plan = PrunePlan::for_space(&space, PruneMode::Exact);
            assert_eq!(table(&plan, &space), commute_oracle(&space), "{families:?}");
        }
    }

    #[test]
    fn full_space_finds_the_registry_pairs() {
        let space = Space::full();
        let plan = PrunePlan::for_space(&space, PruneMode::Exact);
        // 22 mutator × TUPL pairs × 28 reducers; see lc-analyze's registry
        // test for the per-pair derivation.
        assert_eq!(plan.pruned_pipelines(), 616);
        assert_eq!(table(&plan, &space), commute_oracle(&space));
        for (p, r) in plan.pruned_cells() {
            assert!(r < p, "the representative is the lower index");
            assert!(plan.measures(r), "a representative is never skipped");
        }
    }

    #[test]
    fn off_mode_prunes_nothing() {
        let plan = PrunePlan::for_space(&Space::full(), PruneMode::Off);
        assert_eq!(plan.pruned_cells().count(), 0);
        assert_eq!(plan.pruned_pipelines(), 0);
        assert_eq!(plan.report().mode, "off");
    }

    #[test]
    fn quick_space_has_no_commuting_pairs() {
        // The tests' quick space (no TUPL) must be unaffected by the
        // default-on pruning: same numbers with or without it.
        let space = Space::restricted_to_families(&["TCMS", "DIFF", "RLE", "RZE"]);
        let plan = PrunePlan::for_space(&space, PruneMode::Exact);
        assert_eq!(plan.pruned_pipelines(), 0);
    }

    #[test]
    fn report_counts() {
        let plan = PrunePlan::for_space(&Space::full(), PruneMode::Exact);
        let r = plan.report();
        assert_eq!(r.mode, "exact");
        assert_eq!(r.pruned_pipelines, 616);
        assert_eq!(r.classes, 107_632 - 616);
        assert_eq!(r.class_map, prune_fingerprint(plan.pruned_cells()));
    }

    #[test]
    fn canonical_full_space_matches_the_certified_census() {
        let space = Space::full();
        let plan = PrunePlan::for_space(&space, PruneMode::Canonical);
        // The absint census on the shipped registry (see lc-analyze's
        // full_space_partition_counts): 107,632 pipelines fall into
        // 99,454 classes, certifying 8,178 members as redundant.
        assert_eq!(plan.classes, 99_454);
        assert_eq!(plan.pruned_pipelines(), 8_178);
        assert_eq!(plan.class_map, 0x8434_8d3b_115f_203d);
        for (p, r) in plan.pruned_cells() {
            assert!(r < p, "rep is the class min");
            assert!(plan.measures(r), "a representative is never pruned");
        }
        // Canonical subsumes the exact tier: every exact-pruned pipeline
        // is also a certified class member.
        let exact = PrunePlan::for_space(&space, PruneMode::Exact);
        for (p, _) in exact.pruned_cells() {
            assert!(!plan.measures(p), "exact dup {p} not canonical-pruned");
        }
    }

    #[test]
    fn canonical_restricted_space_prunes_and_fingerprints() {
        let space = Space::restricted_to_families(&["TCMS", "TCNB", "TUPL", "RZE"]);
        let plan = PrunePlan::for_space(&space, PruneMode::Canonical);
        assert!(plan.pruned_pipelines() > 0, "bijection drops must fire");
        assert!(plan.classes > 0);
        assert_ne!(plan.class_map, 0);
        let r = plan.report();
        assert_eq!(r.mode, "canonical");
        assert_eq!(r.pruned_pipelines, plan.pruned_cells().count());
        // Deterministic: same space, same fingerprint.
        let again = PrunePlan::for_space(&space, PruneMode::Canonical);
        assert_eq!(plan.class_map, again.class_map);
    }
}
