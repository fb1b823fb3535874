//! Self-mutation harness: prove the analyzer is not vacuous.
//!
//! A static analyzer that reports "clean" is only evidence if it would
//! have reported *something* on a broken registry. This module injects
//! seeded contract violations — one per violation class per component
//! kind — by wrapping a real component in a delegating [`Mutant`] whose
//! behavior (or whose contract) lies in a controlled way, then runs the
//! full analyzer on the doctored set and demands a diagnostic naming the
//! mutated component. [`run_harness`] returns the scorecard;
//! the shipped test asserts a 100% detection rate.

use std::sync::Arc;

use lc_core::{Complexity, Component, ComponentKind, Contract, DecodeError, KernelStats};

use crate::{analyze, Report};

/// The seeded violation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `decode_chunk` flips the first decoded byte: the inverse-pair
    /// identity `decode(encode(x)) == x` is broken.
    BrokenInverse,
    /// The contract declares a word size different from the
    /// implementation's (doubled, or halved for 8-byte components).
    WrongWordSize,
    /// `encode_chunk` pads its output past the declared expansion bound
    /// (reducers) or past the input length (preserving components);
    /// `decode_chunk` strips the pad so the lie round-trips.
    OverExpansion,
}

impl Mutation {
    /// All classes, in a stable order.
    pub const ALL: [Mutation; 3] = [
        Mutation::BrokenInverse,
        Mutation::WrongWordSize,
        Mutation::OverExpansion,
    ];
}

/// Bytes appended by [`Mutation::OverExpansion`]. Large enough to clear
/// every declared additive slack in the library.
const PAD: usize = 8192;

/// A component that delegates to a real one except for its seeded lie.
pub(crate) struct Mutant {
    inner: Arc<dyn Component>,
    mutation: Mutation,
}

impl Mutant {
    /// Wrap `inner` with the given seeded violation.
    pub fn new(inner: Arc<dyn Component>, mutation: Mutation) -> Self {
        Self { inner, mutation }
    }
}

impl Component for Mutant {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn kind(&self) -> ComponentKind {
        self.inner.kind()
    }
    fn word_size(&self) -> usize {
        self.inner.word_size()
    }
    fn tuple_size(&self) -> Option<usize> {
        self.inner.tuple_size()
    }
    fn complexity(&self) -> Complexity {
        self.inner.complexity()
    }
    fn contract(&self) -> Contract {
        let mut contract = self.inner.contract();
        if self.mutation == Mutation::WrongWordSize {
            contract.word_size = if contract.word_size == 8 {
                4
            } else {
                contract.word_size * 2
            };
        }
        contract
    }
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
        self.inner.encode_chunk(input, out, stats);
        if self.mutation == Mutation::OverExpansion {
            out.extend(std::iter::repeat_n(0xEEu8, PAD));
        }
    }
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        let input = if self.mutation == Mutation::OverExpansion {
            &input[..input.len().saturating_sub(PAD)]
        } else {
            input
        };
        let start = out.len();
        self.inner.decode_chunk(input, out, stats)?;
        if self.mutation == Mutation::BrokenInverse && out.len() > start {
            out[start] ^= 0x01;
        }
        Ok(())
    }
}

/// One harness case: a registry with a single seeded violation.
pub struct Case {
    /// Name of the mutated component.
    pub target: &'static str,
    /// The violation class injected.
    pub mutation: Mutation,
    /// Whether the analyzer produced a diagnostic naming the target.
    pub caught: bool,
    /// The diagnostics the analyzer actually emitted for the set.
    pub report: Report,
}

/// Representatives: one component per kind, so each violation class is
/// exercised against each component family's real implementation.
pub(crate) const TARGETS: [&str; 4] = ["TCMS_4", "TUPL4_2", "DIFF_4", "RLE_4"];

/// Run the full harness: every target × every violation class, one
/// seeded violation per analyzer run. Returns all cases.
pub fn run_harness() -> Vec<Case> {
    let mut cases = Vec::new();
    for target in TARGETS {
        for mutation in Mutation::ALL {
            let set: Vec<Arc<dyn Component>> = lc_components::all()
                .iter()
                .map(|c| {
                    if c.name() == target {
                        Arc::new(Mutant::new(c.clone(), mutation)) as Arc<dyn Component>
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let report = analyze(&set);
            let caught = report.diagnostics.iter().any(|d| d.component == target);
            cases.push(Case {
                target,
                mutation,
                caught,
                report,
            });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzer_catches_every_seeded_violation() {
        let cases = run_harness();
        assert_eq!(cases.len(), 12, "4 families x 3 violation classes");
        let missed: Vec<String> = cases
            .iter()
            .filter(|c| !c.caught)
            .map(|c| format!("{} + {:?}", c.target, c.mutation))
            .collect();
        assert!(missed.is_empty(), "undetected mutants: {missed:?}");
    }

    #[test]
    fn each_mutation_trips_the_intended_rule() {
        for case in run_harness() {
            let rules: Vec<&str> = case
                .report
                .diagnostics
                .iter()
                .filter(|d| d.component == case.target)
                .map(|d| d.rule.as_str())
                .collect();
            let expected: &[&str] = match case.mutation {
                Mutation::BrokenInverse => &["differential.roundtrip"],
                Mutation::WrongWordSize => &["structural.contract-word-size"],
                Mutation::OverExpansion => &[
                    "differential.expansion-bound",
                    "differential.size-preserving",
                ],
            };
            assert!(
                rules.iter().any(|r| expected.contains(r)),
                "{} + {:?}: got rules {rules:?}, expected one of {expected:?}",
                case.target,
                case.mutation
            );
        }
    }

    #[test]
    fn mutant_is_transparent_without_its_lie() {
        // A BrokenInverse mutant still encodes identically to the inner
        // component — the harness only seeds the *decode* lie.
        let inner = lc_components::lookup("TCMS_4").unwrap();
        let mutant = Mutant::new(inner.clone(), Mutation::BrokenInverse);
        let data: Vec<u8> = (0..100).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        inner.encode_chunk(&data, &mut a, &mut KernelStats::new());
        mutant.encode_chunk(&data, &mut b, &mut KernelStats::new());
        assert_eq!(a, b);
    }
}
