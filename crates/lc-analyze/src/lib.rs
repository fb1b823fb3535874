//! Static analysis of LC component contracts.
//!
//! Every component declares a machine-readable [`lc_core::Contract`]; this
//! crate is what makes those declarations trustworthy. It checks them
//! three ways:
//!
//! 1. **Structural rules** ([`structural`]) — facts decidable from the
//!    contracts and trait metadata alone: unique names, contract/trait
//!    agreement, reducer ⇔ size-reducing, expansion bounds compatible
//!    with copy-on-expand, commute claims restricted to size-preserving
//!    components.
//! 2. **Differential property checks** ([`differential`]) — every claim
//!    with behavioral content is executed against the real
//!    `encode_chunk`/`decode_chunk` on an adversarial input corpus
//!    ([`corpus`]): exact inversion, size preservation, expansion bounds,
//!    pointwise-word-map locality, permutation structure, and
//!    length-only kernel statistics.
//! 3. **Self-mutation** ([`mutation`]) — seeded contract violations
//!    (broken inverse, wrong word size, over-expansion) are injected into
//!    otherwise-clean component sets; the harness proves the analyzer
//!    flags every one of them, i.e. the checks are not vacuous.
//! 4. **Abstract interpretation** ([`absint`]) — the contract facts are
//!    composed into a rewrite system that canonicalizes every pipeline in
//!    the campaign space and partitions the space into equivalence
//!    classes, each non-representative member carrying a machine-checkable
//!    certificate; the certificate checker re-derives every side condition
//!    and differentially executes sampled classes, and its own seeded-bug
//!    harness ([`absint::run_absint_harness`]) proves it non-vacuous.
//!
//! The analyzer's verdicts feed `lc-study::campaign`, which takes its
//! prune plan from the [`absint`] rewrite system (the exact tier by
//! default, the full class map in canonical mode) to deduplicate
//! provably-equivalent pipelines before a sweep, and `lc analyze` in the
//! CLI, which renders a [`Report`] as text or JSON and exits non-zero on
//! any violation.

#![forbid(unsafe_code)]

pub mod absint;
pub mod corpus;
pub(crate) mod differential;
pub mod mutation;
pub(crate) mod structural;

use std::sync::Arc;
use std::time::Instant;

use lc_core::Component;
use lc_json::Value;

/// One contract violation found by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `"structural.contract-word-size"` or
    /// `"differential.roundtrip"`.
    pub rule: String,
    /// Name of the offending component.
    pub component: String,
    /// Human-readable explanation with the concrete evidence.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(
        rule: impl Into<String>,
        component: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule: rule.into(),
            component: component.into(),
            message: message.into(),
        }
    }

    /// JSON object form (`rule`/`component`/`message`).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("rule", Value::from(self.rule.as_str())),
            ("component", Value::from(self.component.as_str())),
            ("message", Value::from(self.message.as_str())),
        ])
    }
}

/// Result of analyzing a component set.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of components analyzed.
    pub components: usize,
    /// Total individual checks executed (structural + differential).
    pub checks: usize,
    /// Provably-commuting unordered stage pairs found among the set.
    pub commuting_pairs: usize,
    /// The commuting pairs by name — on the shipped registry, exactly
    /// the stage pairs the campaign's exact prune tier deduplicates.
    pub prune_pairs: Vec<(String, String)>,
    /// Violations, in discovery order. Empty ⇔ the set is clean.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall time the analysis took.
    pub runtime: std::time::Duration,
}

impl Report {
    /// `true` when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics grouped by rule id, sorted by rule. Empty ⇔ clean.
    pub fn rule_counts(&self) -> Vec<(String, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.rule.clone()).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }

    /// JSON form, stable field order, suitable for `lc analyze --format
    /// json` and CI consumption.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema", Value::from("lc-analyze/v1")),
            ("components", Value::from(self.components as u64)),
            ("checks", Value::from(self.checks as u64)),
            ("commuting_pairs", Value::from(self.commuting_pairs as u64)),
            (
                "prune_pairs",
                Value::array(self.prune_pairs.iter().map(|(a, b)| {
                    Value::object([
                        ("a", Value::from(a.as_str())),
                        ("b", Value::from(b.as_str())),
                    ])
                })),
            ),
            (
                "rule_counts",
                Value::object(
                    self.rule_counts()
                        .into_iter()
                        .map(|(rule, n)| (rule, Value::from(n as u64))),
                ),
            ),
            ("clean", Value::from(self.is_clean())),
            ("runtime_ms", Value::from(self.runtime.as_secs_f64() * 1e3)),
            (
                "diagnostics",
                Value::array(self.diagnostics.iter().map(Diagnostic::to_json)),
            ),
        ])
    }
}

/// Analyze an arbitrary component set (the mutation harness injects
/// doctored sets here; everything else goes through
/// [`analyze_registry`]).
pub fn analyze(components: &[Arc<dyn Component>]) -> Report {
    let t0 = Instant::now();
    let mut diagnostics = Vec::new();
    let mut checks = 0usize;
    structural::check(components, &mut diagnostics, &mut checks);
    differential::check(components, &mut diagnostics, &mut checks);
    let prune_pairs = commuting_pair_names(components);
    Report {
        components: components.len(),
        checks,
        commuting_pairs: prune_pairs.len(),
        prune_pairs,
        diagnostics,
        runtime: t0.elapsed(),
    }
}

/// Analyze the full shipped registry (all 62 components), adding the
/// registry-level invariants on top of [`analyze`].
pub fn analyze_registry() -> Report {
    let components: Vec<Arc<dyn Component>> = lc_components::all().to_vec();
    let mut report = analyze(&components);
    report.checks += 1;
    if components.len() != lc_components::COMPONENT_COUNT {
        report.diagnostics.push(Diagnostic::new(
            "structural.registry-count",
            "(registry)",
            format!(
                "registry has {} components, expected {}",
                components.len(),
                lc_components::COMPONENT_COUNT
            ),
        ));
    }
    report
}

/// The provably-commuting unordered pairs by component name, in
/// registry order. On the shipped registry these are exactly the stage
/// pairs the campaign's exact prune tier merges.
pub(crate) fn commuting_pair_names(components: &[Arc<dyn Component>]) -> Vec<(String, String)> {
    let contracts: Vec<_> = components.iter().map(|c| c.contract()).collect();
    let mut pairs = Vec::new();
    for i in 0..contracts.len() {
        for j in i + 1..contracts.len() {
            if contracts[i].commutes_with(&contracts[j]) {
                pairs.push((
                    components[i].name().to_string(),
                    components[j].name().to_string(),
                ));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_registry_is_clean() {
        let report = analyze_registry();
        assert!(
            report.is_clean(),
            "registry violations: {:#?}",
            report.diagnostics
        );
        assert_eq!(report.components, 62);
        assert!(report.checks > 62, "checks actually ran");
    }

    #[test]
    fn registry_commuting_pairs_are_mutator_tupl() {
        // 12 mutators × 6 TUPL variants where the mutator word size
        // divides the TUPL field size:
        //   field 1 (TUPL2_1, TUPL4_1, TUPL8_1): w=1 mutators → TCMS_1,
        //     TCNB_1 → 2 each = 6
        //   field 2 (TUPL2_2, TUPL4_2): w ∈ {1,2} → TCMS/TCNB ×2 = 4 each = 8
        //   field 4 (TUPL8_4): w ∈ {1,2,4} → TCMS/TCNB ×3 + DBEFS_4 +
        //     DBESF_4 = 8
        let report = analyze_registry();
        assert_eq!(report.commuting_pairs, 22);
    }

    #[test]
    fn report_json_shape() {
        let report = analyze_registry();
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(|v| v.as_str()),
            Some("lc-analyze/v1")
        );
        assert_eq!(json.get("clean").and_then(|v| v.as_bool()), Some(true));
        let rendered = json.pretty();
        assert!(rendered.contains("commuting_pairs"));
        // Satellite: the JSON carries the prune-pair list (22 named
        // pairs) and per-rule diagnostic counts (empty on a clean set).
        let pairs = json.get("prune_pairs").expect("prune_pairs present");
        if let lc_json::Value::Array(items) = pairs {
            assert_eq!(items.len(), 22);
            assert!(items
                .iter()
                .all(|p| p.get("a").is_some() && p.get("b").is_some()));
        } else {
            panic!("prune_pairs must be an array");
        }
        assert!(json.get("rule_counts").is_some());
    }

    #[test]
    fn dirty_set_reports_per_rule_counts() {
        let mut all: Vec<_> = lc_components::all().to_vec();
        all.push(all[0].clone()); // duplicate name → structural violation
        let report = analyze(&all);
        assert!(!report.is_clean());
        let counts = report.rule_counts();
        assert!(
            counts
                .iter()
                .any(|(rule, n)| rule == "structural.unique-name" && *n >= 1),
            "{counts:?}"
        );
        let json = report.to_json();
        assert!(json
            .get("rule_counts")
            .and_then(|v| v.get("structural.unique-name"))
            .is_some());
    }
}
