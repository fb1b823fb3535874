//! The pipeline space: 62 × 62 × 28 three-stage pipelines (paper §5) and
//! the subsets each figure selects.

use std::sync::Arc;

use lc_core::component::family_of;
use lc_core::{Component, ComponentKind};

/// A three-stage pipeline as *positions* into a [`Space`]'s component and
/// reducer lists (not registry indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineId {
    /// Stage-1 position into [`Space::components`].
    pub s1: u16,
    /// Stage-2 position into [`Space::components`].
    pub s2: u16,
    /// Stage-3 position into [`Space::reducers`].
    pub s3: u16,
}

/// A (possibly restricted) pipeline space.
#[derive(Clone)]
pub struct Space {
    /// Components allowed in stages 1 and 2.
    pub components: Vec<Arc<dyn Component>>,
    /// Reducers allowed in stage 3.
    pub reducers: Vec<Arc<dyn Component>>,
}

impl Space {
    /// The full space of the paper: all 62 components × all 28 reducers.
    pub fn full() -> Self {
        Self {
            components: lc_components::all().to_vec(),
            reducers: lc_components::reducers(),
        }
    }

    /// A restricted space (for tests and benches): keeps only the named
    /// families, preserving order.
    ///
    /// # Panics
    ///
    /// Panics if the restriction leaves no components or no reducers.
    pub fn restricted_to_families(families: &[&str]) -> Self {
        let keep = |c: &Arc<dyn Component>| families.contains(&family_of(c.name()));
        let components: Vec<_> = lc_components::all()
            .iter()
            .filter(|c| keep(c))
            .cloned()
            .collect();
        let reducers: Vec<_> = components
            .iter()
            .filter(|c| c.kind() == ComponentKind::Reducer)
            .cloned()
            .collect();
        assert!(!components.is_empty(), "no components left");
        assert!(
            !reducers.is_empty(),
            "no reducers left — include a reducer family"
        );
        Self {
            components,
            reducers,
        }
    }

    /// Number of pipelines in this space.
    pub fn len(&self) -> usize {
        self.components.len() * self.components.len() * self.reducers.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense index of a pipeline id (row-major in (s1, s2, s3)).
    pub fn index(&self, id: PipelineId) -> usize {
        (id.s1 as usize * self.components.len() + id.s2 as usize) * self.reducers.len()
            + id.s3 as usize
    }

    /// Inverse of [`Space::index`].
    pub fn id_at(&self, index: usize) -> PipelineId {
        let nr = self.reducers.len();
        let nc = self.components.len();
        PipelineId {
            s1: (index / (nc * nr)) as u16,
            s2: (index / nr % nc) as u16,
            s3: (index % nr) as u16,
        }
    }

    /// Iterate all pipeline ids in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = PipelineId> + '_ {
        (0..self.len()).map(|i| self.id_at(i))
    }

    /// The three stage components of a pipeline.
    pub fn stages(&self, id: PipelineId) -> [&Arc<dyn Component>; 3] {
        [
            &self.components[id.s1 as usize],
            &self.components[id.s2 as usize],
            &self.reducers[id.s3 as usize],
        ]
    }

    /// Human-readable description like `"BIT_4 DIFF_4 RZE_4"`.
    pub fn describe(&self, id: PipelineId) -> String {
        let [a, b, c] = self.stages(id);
        format!("{} {} {}", a.name(), b.name(), c.name())
    }

    // ---- figure subsets -------------------------------------------------

    /// §6.2: pipelines where all three stages share word size `w`.
    pub fn uniform_word_size(&self, w: usize) -> Vec<PipelineId> {
        self.iter()
            .filter(|&id| self.stages(id).iter().all(|c| c.word_size() == w))
            .collect()
    }

    /// §6.3: pipelines whose first two stages are both of `kind`.
    pub fn kind_pair(&self, kind: ComponentKind) -> Vec<PipelineId> {
        self.iter()
            .filter(|&id| {
                let [a, b, _] = self.stages(id);
                a.kind() == kind && b.kind() == kind
            })
            .collect()
    }

    /// §6.4: pipelines with a given family pinned to stage 1.
    pub fn stage1_family(&self, family: &str) -> Vec<PipelineId> {
        self.iter()
            .filter(|&id| family_of(self.stages(id)[0].name()) == family)
            .collect()
    }

    /// §6.4: pipelines with one specific component pinned to stage 1.
    pub(crate) fn stage1_component(&self, name: &str) -> Vec<PipelineId> {
        self.iter()
            .filter(|&id| self.stages(id)[0].name() == name)
            .collect()
    }

    /// §6.4 (prose): pipelines with a given family pinned to stage 2 —
    /// the paper omits the Stage 2 plots but discusses RLE's behaviour
    /// there.
    pub(crate) fn stage2_family(&self, family: &str) -> Vec<PipelineId> {
        self.iter()
            .filter(|&id| family_of(self.stages(id)[1].name()) == family)
            .collect()
    }

    /// §6.4: pipelines with a given reducer family pinned to stage 3.
    pub fn stage3_family(&self, family: &str) -> Vec<PipelineId> {
        self.iter()
            .filter(|&id| family_of(self.stages(id)[2].name()) == family)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_has_107632_pipelines() {
        let s = Space::full();
        assert_eq!(s.components.len(), 62);
        assert_eq!(s.reducers.len(), 28);
        assert_eq!(s.len(), 107_632);
    }

    #[test]
    fn index_roundtrip() {
        let s = Space::full();
        for idx in [0usize, 1, 27, 28, 1735, 1736, 107_631] {
            assert_eq!(s.index(s.id_at(idx)), idx);
        }
    }

    #[test]
    fn uniform_word_size_counts_match_section_6_2() {
        let s = Space::full();
        assert_eq!(s.uniform_word_size(1).len(), 1792);
        assert_eq!(s.uniform_word_size(2).len(), 1575);
        assert_eq!(s.uniform_word_size(4).len(), 1792);
        assert_eq!(s.uniform_word_size(8).len(), 1575);
    }

    #[test]
    fn kind_pair_counts_match_section_6_3() {
        let s = Space::full();
        assert_eq!(s.kind_pair(ComponentKind::Mutator).len(), 4032);
        assert_eq!(s.kind_pair(ComponentKind::Shuffler).len(), 2800);
        assert_eq!(s.kind_pair(ComponentKind::Predictor).len(), 4032);
        assert_eq!(s.kind_pair(ComponentKind::Reducer).len(), 21_952);
    }

    #[test]
    fn stage1_family_counts_match_section_6_4() {
        let s = Space::full();
        assert_eq!(s.stage1_family("RLE").len(), 6944);
        assert_eq!(s.stage1_family("DBEFS").len(), 3472);
        assert_eq!(s.stage1_family("DBESF").len(), 3472);
        assert_eq!(s.stage1_family("TUPL").len(), 10_416);
        assert_eq!(s.stage1_component("BIT_4").len(), 1736);
    }

    #[test]
    fn stage3_family_counts_match_section_6_4() {
        let s = Space::full();
        for fam in ["CLOG", "HCLOG", "RARE", "RAZE", "RLE", "RRE", "RZE"] {
            assert_eq!(s.stage3_family(fam).len(), 15_376, "{fam}");
        }
    }

    #[test]
    fn restricted_space() {
        let s = Space::restricted_to_families(&["TCMS", "RLE"]);
        assert_eq!(s.components.len(), 8); // TCMS×4 + RLE×4
        assert_eq!(s.reducers.len(), 4);
        assert_eq!(s.len(), 8 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "reducer")]
    fn restriction_without_reducers_panics() {
        Space::restricted_to_families(&["TCMS"]);
    }

    #[test]
    fn describe_pipeline() {
        let s = Space::full();
        let id = s.id_at(0);
        let desc = s.describe(id);
        assert_eq!(desc.split_whitespace().count(), 3);
    }
}
