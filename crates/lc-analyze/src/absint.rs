//! Abstract interpretation over pipelines: canonicalization, equivalence
//! classes, and machine-checkable pruning certificates.
//!
//! The campaign's pipeline space is the full cross product `component ×
//! component × reducer` — 107,632 pipelines on the shipped registry — and
//! a substantial fraction of it is provably redundant. This module turns
//! the contract facts ([`lc_core::Contract`]) into a static analysis that
//! partitions the whole space into equivalence classes *before* anything
//! is executed:
//!
//! 1. **Abstract state.** Each pipeline is interpreted over an abstract
//!    input shape: an interval lattice over chunk lengths ([`LenRange`],
//!    join = interval hull) plus the per-stage facts the contracts
//!    provide (word granularity, size class, expansion bound, zero and
//!    value-structure behavior). The shape gates the no-op rule below.
//! 2. **Exact rewriting.** Stage prefixes are de-fused
//!    (`Contract::fused_of`: DIFFMS = TCMS ∘ DIFF byte-for-byte) and
//!    canonicalized by a terminating rewrite system: inverse cancellation
//!    (`A` then `B` with `A.inverse_of == B`), idempotent-square
//!    collapse, no-op absorption (identity below the abstract length
//!    bound), and commutation sorting (pointwise word maps bubble before
//!    word permutations whose field size they divide — the PR 4 rule).
//!    Two prefixes with the same exact normal form feed *byte-identical*
//!    data to the reducer with identical accumulated statistics.
//! 3. **Pattern abstraction.** Reducers that declare a
//!    [`SizeDeterminant`] — RZE's output is a function of the
//!    zero/nonzero pattern of its words, RLE/RRE's of the
//!    adjacent-equality pattern — admit a coarser relation: scanning the
//!    exact normal form backwards from the reducer, a pointwise
//!    *bijection* whose word size divides the reducer's granularity
//!    preserves the equality pattern (and, if it fixes zero, the zero
//!    pattern), and a tuple permutation whose field size the granularity
//!    divides maps the pattern by a fixed, length-determined
//!    permutation. Pipelines with equal pattern normal forms produce
//!    equal *compressed sizes* and identical reducer kernel statistics
//!    on every input — their stage-1/2 timings may differ, which is why
//!    the campaign replays (rather than re-derives) timing for pruned
//!    members.
//!
//! Every non-representative member of a class carries a [`Certificate`]
//! naming the exact rewrite chain and the contract facts each step
//! relies on. [`check_certificates`] re-validates them without trusting
//! the canonicalizer: a structural layer re-derives every side condition
//! from the real contracts and replays the chain, and a differential
//! layer executes sampled classes of every certificate kind against the
//! adversarial corpus. The seeded-bug harness ([`run_absint_harness`])
//! proves the checker is not vacuous: every [`AbsintMutation`] — wrong
//! lattice join, dropped side conditions, merged permutations, lying
//! contract facts — is caught.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::{
    CommuteClass, Component, ComponentKind, Contract, KernelStats, SizeClass, SizeDeterminant,
    CHUNK_SIZE,
};
use lc_json::Value;

use crate::corpus;

// ---------------------------------------------------------------------------
// Abstract input shape
// ---------------------------------------------------------------------------

/// Interval lattice over possible chunk lengths (bytes). The abstract
/// interpreter folds every observed/declared chunk length through
/// [`LenRange::join`]; `⊤` is `[0, CHUNK_SIZE]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LenRange {
    /// Smallest possible chunk length.
    pub lo: usize,
    /// Largest possible chunk length.
    pub hi: usize,
}

impl LenRange {
    /// The top element: any chunk the framework can produce.
    pub fn top() -> Self {
        Self {
            lo: 0,
            hi: CHUNK_SIZE,
        }
    }

    /// Least upper bound (interval hull).
    pub fn join(self, other: Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Fold a set of concrete chunk lengths into the lattice. An empty
    /// set means "unknown" and yields ⊤. The `rules` table lets the
    /// mutation harness seed a wrong join (meet-instead-of-join on the
    /// upper bound), which mis-narrows the interval.
    pub(crate) fn from_lengths(lengths: &[usize], rules: &RuleTable) -> Self {
        let mut it = lengths.iter();
        let Some(&first) = it.next() else {
            return Self::top();
        };
        let mut acc = Self {
            lo: first,
            hi: first,
        };
        for &l in it {
            let v = Self { lo: l, hi: l };
            acc = if rules.join_narrows {
                // Seeded bug: "join" that narrows the upper bound.
                Self {
                    lo: acc.lo.max(v.lo),
                    hi: acc.hi.min(v.hi),
                }
            } else {
                acc.join(v)
            };
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Rule table (soundness switchboard for the mutation harness)
// ---------------------------------------------------------------------------

/// Which rewrite side conditions the canonicalizer honors. All `false`
/// (the [`RuleTable::SOUND`] constant) is the shipped behavior; each
/// `true` flag is one seeded absint bug for the harness, and the
/// (always-sound) certificate checker must catch every one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleTable {
    /// Wrong lattice join: the length interval narrows instead of
    /// widening, so no-op absorption fires on chunks that are too long.
    pub join_narrows: bool,
    /// No-op absorption ignores the abstract shape entirely.
    pub absorb_noop_unbounded: bool,
    /// Inverse cancellation fires on any adjacent equal pair, without an
    /// `inverse_of` witness.
    pub cancel_without_inverse: bool,
    /// Square collapse fires without an `idempotent` witness.
    pub collapse_without_idempotence: bool,
    /// Commutation sorting ignores the `word divides field` condition.
    pub commute_ignores_divisibility: bool,
    /// Opaque shufflers (BIT) are treated as word permutations.
    pub commute_opaque_as_perm: bool,
    /// Pattern drop ignores the `word divides granularity` condition.
    pub drop_ignores_divisibility: bool,
    /// Pattern drop for zero-pattern reducers ignores `fixes_zero`.
    pub drop_ignores_fixes_zero: bool,
    /// Tuple permutations are pattern-transparent even when the
    /// granularity does not divide the field size.
    pub tupl_ignores_granularity: bool,
    /// All tuple permutations collapse to one abstract permutation.
    pub merge_all_tupl_perms: bool,
    /// Zero-pattern reducers are canonicalized under the (weaker)
    /// equality-pattern relation.
    pub relation_confuses_zero_eq: bool,
}

impl RuleTable {
    /// The sound table: every side condition honored.
    pub const SOUND: RuleTable = RuleTable {
        join_narrows: false,
        absorb_noop_unbounded: false,
        cancel_without_inverse: false,
        collapse_without_idempotence: false,
        commute_ignores_divisibility: false,
        commute_opaque_as_perm: false,
        drop_ignores_divisibility: false,
        drop_ignores_fixes_zero: false,
        tupl_ignores_granularity: false,
        merge_all_tupl_perms: false,
        relation_confuses_zero_eq: false,
    };
}

// ---------------------------------------------------------------------------
// Rewrite steps and certificates
// ---------------------------------------------------------------------------

/// One application of a rewrite rule, naming the contract facts it
/// relies on. `at` is the position in the atom sequence the step was
/// applied at, so the checker can replay the chain deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteStep {
    /// `fused` was replaced by `base` then `post` (`Contract::fused_of`).
    Defuse {
        at: usize,
        fused: String,
        base: String,
        post: String,
    },
    /// The atom at `at` is the identity on every possible chunk:
    /// `noop_below == Some(bound)` and the abstract shape's upper length
    /// bound `len_hi < bound`.
    AbsorbNoop {
        at: usize,
        name: String,
        bound: usize,
        len_hi: usize,
    },
    /// `first` (at `at`) then `second` compose to the identity
    /// (`first.inverse_of == second`).
    CancelInverse {
        at: usize,
        first: String,
        second: String,
    },
    /// Two adjacent copies of an `idempotent` atom collapsed to one.
    CollapseIdempotent { at: usize, name: String },
    /// Adjacent `(perm, pointwise)` swapped to canonical `(pointwise,
    /// perm)` order (`Contract::commutes_with`).
    CommuteSwap {
        at: usize,
        perm: String,
        pointwise: String,
    },
    /// Pattern tier: a pointwise bijection whose word size divides the
    /// reducer granularity preserves the reducer-relevant pattern and
    /// was dropped.
    DropBijection { name: String, granularity: usize },
    /// Pattern tier: a tuple permutation whose field size the
    /// granularity divides maps the pattern by a fixed permutation and
    /// was kept symbolically.
    TuplPermutation { name: String, granularity: usize },
    /// Pattern tier: an atom with no pattern structure ended the
    /// backward scan; everything up to it must match byte-exactly.
    StopOpaque { name: String },
}

impl RewriteStep {
    /// Stable rule identifier for census counts and JSON.
    pub fn rule(&self) -> &'static str {
        match self {
            RewriteStep::Defuse { .. } => "defuse",
            RewriteStep::AbsorbNoop { .. } => "absorb-noop",
            RewriteStep::CancelInverse { .. } => "cancel-inverse",
            RewriteStep::CollapseIdempotent { .. } => "collapse-idempotent",
            RewriteStep::CommuteSwap { .. } => "commute-swap",
            RewriteStep::DropBijection { .. } => "drop-bijection",
            RewriteStep::TuplPermutation { .. } => "tupl-permutation",
            RewriteStep::StopOpaque { .. } => "stop-opaque",
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Value {
        let mut fields: Vec<(&str, Value)> = vec![("rule", Value::from(self.rule()))];
        match self {
            RewriteStep::Defuse {
                at,
                fused,
                base,
                post,
            } => {
                fields.push(("at", Value::from(*at as u64)));
                fields.push(("fused", Value::from(fused.as_str())));
                fields.push(("base", Value::from(base.as_str())));
                fields.push(("post", Value::from(post.as_str())));
            }
            RewriteStep::AbsorbNoop {
                at,
                name,
                bound,
                len_hi,
            } => {
                fields.push(("at", Value::from(*at as u64)));
                fields.push(("component", Value::from(name.as_str())));
                fields.push(("bound", Value::from(*bound as u64)));
                fields.push(("len_hi", Value::from(*len_hi as u64)));
            }
            RewriteStep::CancelInverse { at, first, second } => {
                fields.push(("at", Value::from(*at as u64)));
                fields.push(("first", Value::from(first.as_str())));
                fields.push(("second", Value::from(second.as_str())));
            }
            RewriteStep::CollapseIdempotent { at, name } => {
                fields.push(("at", Value::from(*at as u64)));
                fields.push(("component", Value::from(name.as_str())));
            }
            RewriteStep::CommuteSwap {
                at,
                perm,
                pointwise,
            } => {
                fields.push(("at", Value::from(*at as u64)));
                fields.push(("perm", Value::from(perm.as_str())));
                fields.push(("pointwise", Value::from(pointwise.as_str())));
            }
            RewriteStep::DropBijection { name, granularity }
            | RewriteStep::TuplPermutation { name, granularity } => {
                fields.push(("component", Value::from(name.as_str())));
                fields.push(("granularity", Value::from(*granularity as u64)));
            }
            RewriteStep::StopOpaque { name } => {
                fields.push(("component", Value::from(name.as_str())));
            }
        }
        Value::object(fields)
    }
}

/// Which equivalence relation a class is certified under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Members feed byte-identical data to the reducer with identical
    /// accumulated prefix statistics: everything about the measurement
    /// is equal.
    Exact,
    /// Members agree on the reducer-relevant input pattern at the given
    /// word granularity: compressed sizes and reducer statistics are
    /// equal on every input; prefix timings may differ and are replayed.
    Pattern {
        /// The reducer's declared size determinant.
        relation: SizeDeterminant,
        /// The reducer's word size, at which the pattern is evaluated.
        granularity: usize,
    },
}

impl Tier {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Pattern {
                relation: SizeDeterminant::ZeroPattern,
                ..
            } => "pattern-zero",
            Tier::Pattern { .. } => "pattern-equality",
        }
    }
}

/// Machine-checkable proof that `member` is redundant given
/// `representative`: both canonicalize to `normal_form` via the recorded
/// rewrite chains, every step of which names the contract facts it uses.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The pruned pipeline, as `(s1, s2, s3)` positions in the space.
    pub member: (usize, usize, usize),
    /// The measured pipeline (least dense index in the class).
    pub representative: (usize, usize, usize),
    /// The relation the equivalence holds under.
    pub tier: Tier,
    /// Rewrite chain canonicalizing the member's prefix.
    pub member_steps: Vec<RewriteStep>,
    /// Rewrite chain canonicalizing the representative's prefix.
    pub rep_steps: Vec<RewriteStep>,
    /// Rendered normal form both chains arrive at.
    pub normal_form: String,
}

impl Certificate {
    /// JSON object form.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("member", triple_json(self.member)),
            ("representative", triple_json(self.representative)),
            ("tier", Value::from(self.tier.label())),
            ("normal_form", Value::from(self.normal_form.as_str())),
            (
                "member_steps",
                Value::array(self.member_steps.iter().map(RewriteStep::to_json)),
            ),
            (
                "rep_steps",
                Value::array(self.rep_steps.iter().map(RewriteStep::to_json)),
            ),
        ])
    }
}

fn triple_json(t: (usize, usize, usize)) -> Value {
    Value::array([
        Value::from(t.0 as u64),
        Value::from(t.1 as u64),
        Value::from(t.2 as u64),
    ])
}

// ---------------------------------------------------------------------------
// The canonicalizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Atom {
    name: String,
    c: Contract,
}

fn atom_of(c: &Arc<dyn Component>) -> Atom {
    Atom {
        name: c.name().to_string(),
        c: c.contract(),
    }
}

fn is_pointwise_bijection(c: &Contract) -> bool {
    c.commute == CommuteClass::PointwiseWordMap
        && c.exact_inverse
        && c.size == SizeClass::Preserving
}

fn is_word_perm(c: &Contract, rules: &RuleTable) -> bool {
    c.size == SizeClass::Preserving
        && (c.commute == CommuteClass::WordPermutation
            || (rules.commute_opaque_as_perm
                && c.commute == CommuteClass::Opaque
                && c.kind == ComponentKind::Shuffler))
}

/// De-fuse stage atoms using `fused_of` witnesses. A fused component is
/// only expanded when both named halves exist in the component set (a
/// restricted space keeps it opaque — conservative, still sound).
fn defuse(
    stages: &[&Atom],
    by_name: &HashMap<String, Atom>,
    steps: &mut Vec<RewriteStep>,
) -> Vec<Atom> {
    let mut atoms = Vec::with_capacity(stages.len() + 2);
    for stage in stages {
        if let Some((base, post)) = stage.c.fused_of {
            if let (Some(b), Some(p)) = (by_name.get(base), by_name.get(post)) {
                steps.push(RewriteStep::Defuse {
                    at: atoms.len(),
                    fused: stage.name.clone(),
                    base: base.to_string(),
                    post: post.to_string(),
                });
                atoms.push(b.clone());
                atoms.push(p.clone());
                continue;
            }
        }
        atoms.push((*stage).clone());
    }
    atoms
}

/// Run the exact rewrite system to fixpoint. Terminates: every rule
/// either removes an atom or strictly reduces the number of
/// `(permutation, pointwise)` inversions.
fn exact_fixpoint(
    atoms: &mut Vec<Atom>,
    shape: LenRange,
    rules: &RuleTable,
    steps: &mut Vec<RewriteStep>,
) {
    loop {
        let mut changed = false;

        // No-op absorption: identity on every chunk the shape allows.
        let mut i = 0;
        while i < atoms.len() {
            if let Some(bound) = atoms[i].c.noop_below {
                if rules.absorb_noop_unbounded || shape.hi < bound {
                    steps.push(RewriteStep::AbsorbNoop {
                        at: i,
                        name: atoms[i].name.clone(),
                        bound,
                        len_hi: shape.hi,
                    });
                    atoms.remove(i);
                    changed = true;
                    continue;
                }
            }
            i += 1;
        }

        // Inverse cancellation: A then B with A.inverse_of == B.
        let mut i = 0;
        while i + 1 < atoms.len() {
            let witnessed = atoms[i]
                .c
                .inverse_of
                .is_some_and(|b| b == atoms[i + 1].name);
            if witnessed || (rules.cancel_without_inverse && atoms[i].name == atoms[i + 1].name) {
                steps.push(RewriteStep::CancelInverse {
                    at: i,
                    first: atoms[i].name.clone(),
                    second: atoms[i + 1].name.clone(),
                });
                atoms.drain(i..i + 2);
                changed = true;
                continue;
            }
            i += 1;
        }

        // Idempotent-square collapse.
        let mut i = 0;
        while i + 1 < atoms.len() {
            if atoms[i].name == atoms[i + 1].name
                && (atoms[i].c.idempotent || rules.collapse_without_idempotence)
            {
                steps.push(RewriteStep::CollapseIdempotent {
                    at: i,
                    name: atoms[i].name.clone(),
                });
                atoms.remove(i);
                changed = true;
                continue;
            }
            i += 1;
        }

        // Commutation sorting: pointwise maps before permutations.
        let mut i = 0;
        while i + 1 < atoms.len() {
            let (a, b) = (&atoms[i], &atoms[i + 1]);
            let commute_ok =
                rules.commute_ignores_divisibility || a.c.word_size % b.c.word_size == 0;
            if is_word_perm(&a.c, rules)
                && is_pointwise_bijection(&b.c)
                && b.c.size == SizeClass::Preserving
                && commute_ok
            {
                steps.push(RewriteStep::CommuteSwap {
                    at: i,
                    perm: a.name.clone(),
                    pointwise: b.name.clone(),
                });
                atoms.swap(i, i + 1);
                changed = true;
            }
            i += 1;
        }

        if !changed {
            break;
        }
    }
}

/// Backward pattern scan from the reducer. Returns `(residual, perms)`:
/// the atom names that must match byte-exactly, and the symbolic
/// permutation names applied after them (in application order).
fn pattern_scan(
    atoms: &[Atom],
    relation: SizeDeterminant,
    gran: usize,
    rules: &RuleTable,
    steps: &mut Vec<RewriteStep>,
) -> (Vec<String>, Vec<String>) {
    let mut perms_rev: Vec<String> = Vec::new();
    let mut residual: Vec<String> = Vec::new();
    for i in (0..atoms.len()).rev() {
        let a = &atoms[i];
        let div_ok = rules.drop_ignores_divisibility || gran.is_multiple_of(a.c.word_size);
        let zero_ok = relation != SizeDeterminant::ZeroPattern
            || a.c.fixes_zero
            || rules.drop_ignores_fixes_zero;
        if is_pointwise_bijection(&a.c) && div_ok && zero_ok {
            steps.push(RewriteStep::DropBijection {
                name: a.name.clone(),
                granularity: gran,
            });
            continue;
        }
        let perm_ok = rules.tupl_ignores_granularity || a.c.word_size.is_multiple_of(gran);
        if is_word_perm(&a.c, rules) && perm_ok {
            steps.push(RewriteStep::TuplPermutation {
                name: a.name.clone(),
                granularity: gran,
            });
            perms_rev.push(if rules.merge_all_tupl_perms {
                "TUPL*".to_string()
            } else {
                a.name.clone()
            });
            continue;
        }
        steps.push(RewriteStep::StopOpaque {
            name: a.name.clone(),
        });
        residual = atoms[..=i].iter().map(|x| x.name.clone()).collect();
        break;
    }
    perms_rev.reverse();
    (residual, perms_rev)
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NfKey {
    Exact {
        atoms: Vec<String>,
        reducer: String,
    },
    Pattern {
        residual: Vec<String>,
        perms: Vec<String>,
        relation: SizeDeterminant,
        gran: usize,
        reducer: String,
    },
}

fn render_nf(key: &NfKey) -> String {
    match key {
        NfKey::Exact { atoms, reducer } => {
            format!("[{}] > {reducer} (exact)", atoms.join(" "))
        }
        NfKey::Pattern {
            residual,
            perms,
            relation,
            gran,
            reducer,
        } => {
            let rel = match relation {
                SizeDeterminant::ZeroPattern => "zero",
                SizeDeterminant::EqualityPattern => "eq",
                SizeDeterminant::Opaque => "opaque",
            };
            format!(
                "[{}] perm[{}] > {reducer} ({rel}@{gran})",
                residual.join(" "),
                perms.join(" ")
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// The full-space partition: class ids, certificates for every pruned
/// member, and canonicalization bookkeeping.
#[derive(Debug, Clone)]
pub struct ClassMap {
    /// Stage-1/2 component count (`nc`).
    pub components: usize,
    /// Reducer count (`nr`).
    pub reducers: usize,
    /// Concrete chunk lengths the shape was joined from (empty = ⊤).
    pub lengths: Vec<usize>,
    /// The joined abstract input shape.
    pub shape: LenRange,
    /// Dense pipeline index `(s1·nc + s2)·nr + s3` → class id.
    pub class_of: Vec<u32>,
    /// Number of equivalence classes.
    pub classes: usize,
    /// One certificate per non-representative member.
    pub certificates: Vec<Certificate>,
    /// Rewrite-rule application counts across the whole space.
    pub rule_counts: Vec<(&'static str, usize)>,
    /// Wall time spent classifying.
    pub runtime: Duration,
}

impl ClassMap {
    /// Total pipelines in the space.
    pub fn pipelines(&self) -> usize {
        self.components * self.components * self.reducers
    }

    /// Pipelines pruned (non-representative members).
    pub fn pruned(&self) -> usize {
        self.certificates.len()
    }

    /// Dense pipeline index of `(s1, s2, s3)`.
    pub fn index(&self, p: (usize, usize, usize)) -> usize {
        (p.0 * self.components + p.1) * self.reducers + p.2
    }

    /// [`prune_fingerprint`] of the certified `(pruned, representative)`
    /// dense-index pairs — the campaign journal records this so resumes
    /// refuse a mismatched class map.
    pub fn fingerprint(&self) -> u64 {
        let mut pairs: Vec<(usize, usize)> = self
            .certificates
            .iter()
            .map(|c| (self.index(c.member), self.index(c.representative)))
            .collect();
        pairs.sort_unstable();
        prune_fingerprint(pairs)
    }
}

/// FNV-1a over `(pruned, representative)` dense-index pairs, which the
/// caller supplies in ascending order. Any skip table over a pipeline
/// space has one, whichever tier produced it.
pub fn prune_fingerprint(pairs: impl IntoIterator<Item = (usize, usize)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (a, b) in pairs {
        eat(a as u64);
        eat(b as u64);
    }
    h
}

/// One stage-1/2 prefix after the exact phase: its normal-form atoms and
/// the rewrite steps that produced them.
struct ExactPrefix {
    atoms: Vec<Atom>,
    steps: Vec<RewriteStep>,
}

/// The exact phase: de-fuse every `(s1, s2)` prefix and rewrite it to its
/// exact normal form, in dense prefix order `s1·nc + s2`.
fn exact_prefixes(
    components: &[Arc<dyn Component>],
    shape: LenRange,
    rules: &RuleTable,
) -> Vec<ExactPrefix> {
    let stage_atoms: Vec<Atom> = components.iter().map(atom_of).collect();
    let by_name: HashMap<String, Atom> = stage_atoms
        .iter()
        .map(|a| (a.name.clone(), a.clone()))
        .collect();
    let mut prefixes = Vec::with_capacity(stage_atoms.len() * stage_atoms.len());
    for a1 in &stage_atoms {
        for a2 in &stage_atoms {
            let mut steps = Vec::new();
            let mut atoms = defuse(&[a1, a2], &by_name, &mut steps);
            exact_fixpoint(&mut atoms, shape, rules, &mut steps);
            prefixes.push(ExactPrefix { atoms, steps });
        }
    }
    prefixes
}

/// The exact tier on its own, without the pattern phase: for every
/// stage-1/2 prefix `s1·nc + s2`, the least prefix index with the same
/// exact normal form. Prefixes sharing a normal form compose to identical
/// bytes, so every reducer after them sees the same input. `lengths` is
/// as in [`classify`].
pub fn exact_prefix_reps(
    components: &[Arc<dyn Component>],
    lengths: &[usize],
    rules: &RuleTable,
) -> Vec<usize> {
    let shape = LenRange::from_lengths(lengths, rules);
    let mut first: HashMap<Vec<String>, usize> = HashMap::new();
    exact_prefixes(components, shape, rules)
        .into_iter()
        .enumerate()
        .map(|(p, prefix)| {
            let nf = prefix.atoms.into_iter().map(|a| a.name).collect();
            *first.entry(nf).or_insert(p)
        })
        .collect()
}

/// Partition the pipeline space `components × components × reducers`
/// into equivalence classes. `lengths` are the concrete chunk lengths
/// the campaign will feed (empty = unknown = ⊤); `rules` is
/// [`RuleTable::SOUND`] outside the mutation harness.
pub fn classify(
    components: &[Arc<dyn Component>],
    reducers: &[Arc<dyn Component>],
    lengths: &[usize],
    rules: &RuleTable,
) -> ClassMap {
    let t0 = Instant::now();
    let shape = LenRange::from_lengths(lengths, rules);
    let nc = components.len();
    let nr = reducers.len();
    let reducer_atoms: Vec<Atom> = reducers.iter().map(atom_of).collect();

    // Per-prefix exact canonicalization, then per-(relation, granularity)
    // pattern scans cached per prefix: (residual atom names, symbolic
    // permutation names, the rewrite steps that produced them).
    type PatternScan = (Vec<String>, Vec<String>, Vec<RewriteStep>);
    struct Prefix {
        atoms: Vec<Atom>,
        steps: Vec<RewriteStep>,
        pattern: HashMap<(SizeDeterminant, usize), PatternScan>,
    }
    let mut prefixes: Vec<Prefix> = exact_prefixes(components, shape, rules)
        .into_iter()
        .map(|ExactPrefix { atoms, steps }| Prefix {
            atoms,
            steps,
            pattern: HashMap::new(),
        })
        .collect();

    // Group pipelines by normal-form key.
    let mut groups: HashMap<NfKey, Vec<usize>> = HashMap::new();
    for i1 in 0..nc {
        for i2 in 0..nc {
            let pidx = i1 * nc + i2;
            for (ir, r) in reducer_atoms.iter().enumerate() {
                let mut relation = r.c.size_determinant;
                if rules.relation_confuses_zero_eq && relation == SizeDeterminant::ZeroPattern {
                    relation = SizeDeterminant::EqualityPattern;
                }
                let dense = (i1 * nc + i2) * nr + ir;
                let key = if relation == SizeDeterminant::Opaque {
                    NfKey::Exact {
                        atoms: prefixes[pidx]
                            .atoms
                            .iter()
                            .map(|a| a.name.clone())
                            .collect(),
                        reducer: r.name.clone(),
                    }
                } else {
                    let gran = r.c.word_size;
                    let Prefix { atoms, pattern, .. } = &mut prefixes[pidx];
                    let (residual, perms, _) = pattern
                        .entry((relation, gran))
                        .or_insert_with(|| {
                            let mut psteps = Vec::new();
                            let (res, perms) =
                                pattern_scan(atoms, relation, gran, rules, &mut psteps);
                            (res, perms, psteps)
                        })
                        .clone();
                    NfKey::Pattern {
                        residual,
                        perms,
                        relation,
                        gran,
                        reducer: r.name.clone(),
                    }
                };
                groups.entry(key).or_default().push(dense);
            }
        }
    }

    // Deterministic class ids: sort classes by least member.
    let mut classes: Vec<(NfKey, Vec<usize>)> = groups.into_iter().collect();
    for (_, members) in classes.iter_mut() {
        members.sort_unstable();
    }
    classes.sort_unstable_by_key(|(_, members)| members[0]);

    let mut class_of = vec![0u32; nc * nc * nr];
    let mut certificates = Vec::new();
    let mut rule_tally: HashMap<&'static str, usize> = HashMap::new();

    // Tally exact-phase rules once per prefix and pattern-phase rules
    // once per (prefix, relation, granularity) they were computed for.
    for p in &prefixes {
        for s in &p.steps {
            *rule_tally.entry(s.rule()).or_default() += 1;
        }
        for (_, _, psteps) in p.pattern.values() {
            for s in psteps {
                *rule_tally.entry(s.rule()).or_default() += 1;
            }
        }
    }

    let unpack = |dense: usize| -> (usize, usize, usize) {
        let ir = dense % nr;
        let rest = dense / nr;
        (rest / nc, rest % nc, ir)
    };

    for (cid, (key, members)) in classes.iter().enumerate() {
        let rep_dense = members[0];
        let rep = unpack(rep_dense);
        for &dense in members.iter() {
            class_of[dense] = cid as u32;
        }
        if members.len() == 1 {
            continue;
        }
        let tier = match key {
            NfKey::Exact { .. } => Tier::Exact,
            NfKey::Pattern { relation, gran, .. } => Tier::Pattern {
                relation: *relation,
                granularity: *gran,
            },
        };
        let nf = render_nf(key);
        let steps_of = |p: (usize, usize, usize)| -> Vec<RewriteStep> {
            let prefix = &prefixes[p.0 * nc + p.1];
            let mut s = prefix.steps.clone();
            if let Tier::Pattern {
                relation,
                granularity,
            } = tier
            {
                if let Some((_, _, psteps)) = prefix.pattern.get(&(relation, granularity)) {
                    s.extend(psteps.iter().cloned());
                }
            }
            s
        };
        let rep_steps = steps_of(rep);
        for &dense in members.iter().skip(1) {
            let member = unpack(dense);
            certificates.push(Certificate {
                member,
                representative: rep,
                tier,
                member_steps: steps_of(member),
                rep_steps: rep_steps.clone(),
                normal_form: nf.clone(),
            });
        }
    }

    let mut rule_counts: Vec<(&'static str, usize)> = rule_tally.into_iter().collect();
    rule_counts.sort_unstable();

    ClassMap {
        components: nc,
        reducers: nr,
        lengths: lengths.to_vec(),
        shape,
        class_of,
        classes: classes.len(),
        certificates,
        rule_counts,
        runtime: t0.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// Census
// ---------------------------------------------------------------------------

/// Human/CI-facing summary of a [`ClassMap`].
#[derive(Debug, Clone)]
pub struct Census {
    /// Total pipelines in the space.
    pub pipelines: usize,
    /// Equivalence classes.
    pub classes: usize,
    /// Certified-redundant pipelines (`pipelines − classes`).
    pub pruned: usize,
    /// Pruned members certified at the exact tier.
    pub exact_pruned: usize,
    /// Pruned members certified at a pattern tier.
    pub pattern_pruned: usize,
    /// Per-reducer `(name, classes, pruned)` rows.
    pub per_reducer: Vec<(String, usize, usize)>,
    /// Rewrite-rule application counts.
    pub rule_counts: Vec<(&'static str, usize)>,
    /// The abstract shape the classification ran under.
    pub shape: LenRange,
    /// Class-map fingerprint (journal compatibility key).
    pub fingerprint: u64,
    /// Classification wall time.
    pub runtime: Duration,
}

/// Summarize `map` for the space it was built from.
pub fn census(map: &ClassMap, reducers: &[Arc<dyn Component>]) -> Census {
    let nr = map.reducers;
    let nc = map.components;
    let mut exact_pruned = 0;
    let mut pattern_pruned = 0;
    let mut per_reducer_pruned = vec![0usize; nr];
    for cert in &map.certificates {
        match cert.tier {
            Tier::Exact => exact_pruned += 1,
            Tier::Pattern { .. } => pattern_pruned += 1,
        }
        per_reducer_pruned[cert.member.2] += 1;
    }
    let per_reducer = reducers
        .iter()
        .enumerate()
        .map(|(ir, r)| {
            let total = nc * nc;
            (
                r.name().to_string(),
                total - per_reducer_pruned[ir],
                per_reducer_pruned[ir],
            )
        })
        .collect();
    Census {
        pipelines: map.pipelines(),
        classes: map.classes,
        pruned: map.pruned(),
        exact_pruned,
        pattern_pruned,
        per_reducer,
        rule_counts: map.rule_counts.clone(),
        shape: map.shape,
        fingerprint: map.fingerprint(),
        runtime: map.runtime,
    }
}

impl Census {
    /// JSON form, stable field order (schema `lc-analyze-canonical/v1`).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema", Value::from("lc-analyze-canonical/v1")),
            ("pipelines", Value::from(self.pipelines as u64)),
            ("classes", Value::from(self.classes as u64)),
            ("pruned", Value::from(self.pruned as u64)),
            ("exact_pruned", Value::from(self.exact_pruned as u64)),
            ("pattern_pruned", Value::from(self.pattern_pruned as u64)),
            (
                "shape",
                Value::object([
                    ("lo", Value::from(self.shape.lo as u64)),
                    ("hi", Value::from(self.shape.hi as u64)),
                ]),
            ),
            (
                "fingerprint",
                Value::from(format!("{:016x}", self.fingerprint)),
            ),
            (
                "rule_counts",
                Value::object(
                    self.rule_counts
                        .iter()
                        .map(|(rule, n)| (*rule, Value::from(*n as u64))),
                ),
            ),
            (
                "per_reducer",
                Value::array(self.per_reducer.iter().map(|(name, classes, pruned)| {
                    Value::object([
                        ("reducer", Value::from(name.as_str())),
                        ("classes", Value::from(*classes as u64)),
                        ("pruned", Value::from(*pruned as u64)),
                    ])
                })),
            ),
            ("runtime_ms", Value::from(self.runtime.as_secs_f64() * 1e3)),
        ])
    }

    /// Plain-text census table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "canonicalization: {} pipelines -> {} classes ({} certified-redundant: {} exact, {} pattern)\n",
            self.pipelines, self.classes, self.pruned, self.exact_pruned, self.pattern_pruned
        ));
        out.push_str(&format!(
            "shape: chunk length in [{}, {}]   class-map fingerprint: {:016x}\n",
            self.shape.lo, self.shape.hi, self.fingerprint
        ));
        out.push_str("rewrite rules applied:\n");
        for (rule, n) in &self.rule_counts {
            out.push_str(&format!("  {rule:<20} {n}\n"));
        }
        out.push_str("per-reducer classes (pruned):\n");
        for (name, classes, pruned) in &self.per_reducer {
            if *pruned > 0 {
                out.push_str(&format!("  {name:<10} {classes:>6} ({pruned} pruned)\n"));
            }
        }
        let unpruned: usize = self.per_reducer.iter().filter(|(_, _, p)| *p == 0).count();
        if unpruned > 0 {
            out.push_str(&format!(
                "  ({unpruned} reducers with no pruned pipelines omitted)\n"
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Certificate checker
// ---------------------------------------------------------------------------

/// How much differential work the checker does on top of the full
/// structural pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckDepth {
    /// A couple of sampled classes per certificate kind — test-suite
    /// budget.
    Quick,
    /// More samples per kind plus larger member caps — CI budget.
    Full,
}

/// One rejected certificate.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// The certificate's member pipeline.
    pub member: (usize, usize, usize),
    /// `"structural"` or `"differential"`.
    pub layer: &'static str,
    /// What failed.
    pub detail: String,
}

/// Checker outcome: every certificate structurally validated, sampled
/// classes of every kind differentially executed.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Certificates examined (all of them).
    pub certificates: usize,
    /// Distinct certificate kinds (tier × rule set) seen.
    pub kinds: usize,
    /// Classes executed differentially.
    pub differential_classes: usize,
    /// Rejections (empty = all certificates valid).
    pub failures: Vec<CheckFailure>,
    /// Checker wall time.
    pub runtime: Duration,
}

impl CheckReport {
    /// `true` when every certificate passed both layers.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// JSON object form.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("certificates", Value::from(self.certificates as u64)),
            ("kinds", Value::from(self.kinds as u64)),
            (
                "differential_classes",
                Value::from(self.differential_classes as u64),
            ),
            ("clean", Value::from(self.is_clean())),
            (
                "failures",
                Value::array(self.failures.iter().map(|f| {
                    Value::object([
                        ("member", triple_json(f.member)),
                        ("layer", Value::from(f.layer)),
                        ("detail", Value::from(f.detail.as_str())),
                    ])
                })),
            ),
            ("runtime_ms", Value::from(self.runtime.as_secs_f64() * 1e3)),
        ])
    }
}

/// Replay one exact-phase rewrite chain against the real contracts,
/// verifying every side condition. Returns the final atom names or the
/// first violated fact.
fn replay_exact(
    start: [&Atom; 2],
    steps: &[RewriteStep],
    by_name: &HashMap<String, Atom>,
    sound_shape: LenRange,
) -> Result<Vec<String>, String> {
    let mut state: Vec<Atom> = vec![start[0].clone(), start[1].clone()];
    let contract = |name: &str| -> Result<Contract, String> {
        by_name
            .get(name)
            .map(|a| a.c.clone())
            .ok_or_else(|| format!("unknown component {name}"))
    };
    for step in steps {
        match step {
            RewriteStep::Defuse {
                at,
                fused,
                base,
                post,
            } => {
                if state.get(*at).map(|a| a.name.as_str()) != Some(fused.as_str()) {
                    return Err(format!("defuse: state[{at}] is not {fused}"));
                }
                let c = contract(fused)?;
                if c.fused_of != Some((base.as_str(), post.as_str())) {
                    return Err(format!(
                        "defuse: {fused} does not declare fused_of ({base}, {post})"
                    ));
                }
                let b = by_name
                    .get(base)
                    .ok_or_else(|| format!("defuse: {base} not in set"))?;
                let p = by_name
                    .get(post)
                    .ok_or_else(|| format!("defuse: {post} not in set"))?;
                state.splice(*at..*at + 1, [b.clone(), p.clone()]);
            }
            RewriteStep::AbsorbNoop {
                at,
                name,
                bound,
                len_hi: _,
            } => {
                if state.get(*at).map(|a| a.name.as_str()) != Some(name.as_str()) {
                    return Err(format!("absorb-noop: state[{at}] is not {name}"));
                }
                let c = contract(name)?;
                if c.noop_below != Some(*bound) {
                    return Err(format!(
                        "absorb-noop: {name} does not declare noop_below {bound}"
                    ));
                }
                if sound_shape.hi >= *bound {
                    return Err(format!(
                        "absorb-noop: shape hi {} is not below bound {bound} for {name}",
                        sound_shape.hi
                    ));
                }
                state.remove(*at);
            }
            RewriteStep::CancelInverse { at, first, second } => {
                if state.get(*at).map(|a| a.name.as_str()) != Some(first.as_str())
                    || state.get(*at + 1).map(|a| a.name.as_str()) != Some(second.as_str())
                {
                    return Err(format!(
                        "cancel-inverse: state[{at}..] is not ({first}, {second})"
                    ));
                }
                let c = contract(first)?;
                if c.inverse_of != Some(second.as_str()) {
                    return Err(format!(
                        "cancel-inverse: {first} does not declare inverse_of {second}"
                    ));
                }
                state.drain(*at..*at + 2);
            }
            RewriteStep::CollapseIdempotent { at, name } => {
                if state.get(*at).map(|a| a.name.as_str()) != Some(name.as_str())
                    || state.get(*at + 1).map(|a| a.name.as_str()) != Some(name.as_str())
                {
                    return Err(format!(
                        "collapse-idempotent: state[{at}..] is not ({name}, {name})"
                    ));
                }
                let c = contract(name)?;
                if !c.idempotent {
                    return Err(format!("collapse-idempotent: {name} is not idempotent"));
                }
                state.remove(*at);
            }
            RewriteStep::CommuteSwap {
                at,
                perm,
                pointwise,
            } => {
                if state.get(*at).map(|a| a.name.as_str()) != Some(perm.as_str())
                    || state.get(*at + 1).map(|a| a.name.as_str()) != Some(pointwise.as_str())
                {
                    return Err(format!(
                        "commute-swap: state[{at}..] is not ({perm}, {pointwise})"
                    ));
                }
                let cp = contract(perm)?;
                let cw = contract(pointwise)?;
                if cp.commute != CommuteClass::WordPermutation
                    || cw.commute != CommuteClass::PointwiseWordMap
                    || !cp.commutes_with(&cw)
                {
                    return Err(format!(
                        "commute-swap: {perm} and {pointwise} do not commute"
                    ));
                }
                state.swap(*at, *at + 1);
            }
            // Pattern-phase steps are not replayed: the checker
            // re-derives the pattern normal form itself (soundly) from
            // the exact atoms below.
            RewriteStep::DropBijection { .. }
            | RewriteStep::TuplPermutation { .. }
            | RewriteStep::StopOpaque { .. } => {}
        }
    }
    Ok(state.into_iter().map(|a| a.name).collect())
}

/// A certificate's kind: its tier plus the set of rewrite rules its
/// chains rely on. Differential sampling covers every kind.
fn cert_kind(cert: &Certificate) -> String {
    let mut rules: Vec<&'static str> = cert
        .member_steps
        .iter()
        .chain(cert.rep_steps.iter())
        .map(RewriteStep::rule)
        .collect();
    rules.sort_unstable();
    rules.dedup();
    format!("{}:{}", cert.tier.label(), rules.join(","))
}

fn encode_with(c: &dyn Component, x: &[u8]) -> (Vec<u8>, KernelStats) {
    let mut out = Vec::new();
    let mut stats = KernelStats::new();
    c.encode_chunk(x, &mut out, &mut stats);
    (out, stats)
}

fn add_stats(a: &KernelStats, b: &KernelStats) -> KernelStats {
    let mut s = *a;
    s.merge(b);
    s
}

/// Validate certificates against the real component set: a structural
/// pass over *every* certificate (side conditions re-derived from the
/// contracts, chains replayed, normal forms recomputed with the sound
/// rules) and a differential pass executing sampled classes of every
/// certificate kind on the adversarial corpus.
pub fn check_certificates(
    components: &[Arc<dyn Component>],
    reducers: &[Arc<dyn Component>],
    map: &ClassMap,
    depth: CheckDepth,
) -> CheckReport {
    let t0 = Instant::now();
    let stage_atoms: Vec<Atom> = components.iter().map(atom_of).collect();
    let by_name: HashMap<String, Atom> = stage_atoms
        .iter()
        .map(|a| (a.name.clone(), a.clone()))
        .collect();
    let sound_shape = LenRange::from_lengths(&map.lengths, &RuleTable::SOUND);
    let mut failures = Vec::new();

    // ---- structural pass: every certificate ----
    for cert in &map.certificates {
        if let Err(detail) =
            check_one_structural(cert, &stage_atoms, reducers, &by_name, sound_shape)
        {
            failures.push(CheckFailure {
                member: cert.member,
                layer: "structural",
                detail,
            });
        }
    }

    // ---- differential pass: sampled classes per certificate kind ----
    // Group certificates into classes by representative, then index the
    // classes by kind.
    let mut classes: HashMap<(usize, usize, usize), Vec<&Certificate>> = HashMap::new();
    for cert in &map.certificates {
        classes.entry(cert.representative).or_default().push(cert);
    }
    let mut by_kind: HashMap<String, Vec<(usize, usize, usize)>> = HashMap::new();
    for (rep, certs) in &classes {
        for cert in certs {
            by_kind.entry(cert_kind(cert)).or_default().push(*rep);
        }
    }
    let kinds = by_kind.len();
    let (classes_per_kind, members_cap) = match depth {
        CheckDepth::Quick => (2usize, 3usize),
        CheckDepth::Full => (6usize, 6usize),
    };
    // Certificates only claim equivalence on chunks the abstract shape
    // admits (no-op absorption depends on it), so the differential corpus
    // is filtered to the shape the classification ran under.
    let mut inputs = corpus_for_checking(depth);
    inputs.retain(|x| x.len() >= sound_shape.lo && x.len() <= sound_shape.hi);
    let mut sampled: Vec<(usize, usize, usize)> = Vec::new();
    let mut kind_names: Vec<&String> = by_kind.keys().collect();
    kind_names.sort_unstable();
    for kind in kind_names {
        let mut reps = by_kind[kind].clone();
        reps.sort_unstable();
        reps.dedup();
        // Deterministic spread: first, last, and evenly spaced between.
        let n = reps.len().min(classes_per_kind);
        for k in 0..n {
            let idx = if n == 1 {
                0
            } else {
                k * (reps.len() - 1) / (n - 1)
            };
            sampled.push(reps[idx]);
        }
    }
    sampled.sort_unstable();
    sampled.dedup();
    let differential_classes = sampled.len();
    for rep in sampled {
        let certs = &classes[&rep];
        let members: Vec<&&Certificate> = certs.iter().take(members_cap).collect();
        for cert in members {
            if let Err(detail) = check_one_differential(cert, components, reducers, &inputs) {
                failures.push(CheckFailure {
                    member: cert.member,
                    layer: "differential",
                    detail,
                });
            }
        }
    }

    CheckReport {
        certificates: map.certificates.len(),
        kinds,
        differential_classes,
        failures,
        runtime: t0.elapsed(),
    }
}

fn check_one_structural(
    cert: &Certificate,
    stage_atoms: &[Atom],
    reducers: &[Arc<dyn Component>],
    by_name: &HashMap<String, Atom>,
    sound_shape: LenRange,
) -> Result<(), String> {
    let (m1, m2, mr) = cert.member;
    let (r1, r2, rr) = cert.representative;
    if mr != rr {
        return Err("member and representative use different reducers".to_string());
    }
    let reducer = reducers
        .get(mr)
        .ok_or_else(|| format!("reducer index {mr} out of range"))?;
    let rc = reducer.contract();

    let member_atoms = replay_exact(
        [&stage_atoms[m1], &stage_atoms[m2]],
        &cert.member_steps,
        by_name,
        sound_shape,
    )?;
    let rep_atoms = replay_exact(
        [&stage_atoms[r1], &stage_atoms[r2]],
        &cert.rep_steps,
        by_name,
        sound_shape,
    )?;

    match cert.tier {
        Tier::Exact => {
            if member_atoms != rep_atoms {
                return Err(format!(
                    "exact normal forms differ: [{}] vs [{}]",
                    member_atoms.join(" "),
                    rep_atoms.join(" ")
                ));
            }
        }
        Tier::Pattern {
            relation,
            granularity,
        } => {
            if rc.size_determinant != relation {
                return Err(format!(
                    "tier claims {:?} but reducer {} declares {:?}",
                    relation,
                    reducer.name(),
                    rc.size_determinant
                ));
            }
            if rc.word_size != granularity {
                return Err(format!(
                    "tier granularity {granularity} != reducer word size {}",
                    rc.word_size
                ));
            }
            // Re-derive the pattern normal forms with the sound scanner.
            let atoms_of = |names: &[String]| -> Result<Vec<Atom>, String> {
                names
                    .iter()
                    .map(|n| {
                        by_name
                            .get(n)
                            .cloned()
                            .ok_or_else(|| format!("unknown component {n}"))
                    })
                    .collect()
            };
            let mut scratch = Vec::new();
            let m = pattern_scan(
                &atoms_of(&member_atoms)?,
                relation,
                granularity,
                &RuleTable::SOUND,
                &mut scratch,
            );
            let r = pattern_scan(
                &atoms_of(&rep_atoms)?,
                relation,
                granularity,
                &RuleTable::SOUND,
                &mut scratch,
            );
            if m != r {
                return Err(format!(
                    "pattern normal forms differ: residual/perm ({:?} {:?}) vs ({:?} {:?})",
                    m.0, m.1, r.0, r.1
                ));
            }
        }
    }
    Ok(())
}

/// Execute a certificate on real data: the member and representative
/// prefixes (and the shared reducer) run on every corpus input, and the
/// tier's guarantees are asserted byte-for-byte.
fn check_one_differential(
    cert: &Certificate,
    components: &[Arc<dyn Component>],
    reducers: &[Arc<dyn Component>],
    inputs: &[Vec<u8>],
) -> Result<(), String> {
    let (m1, m2, mr) = cert.member;
    let (r1, r2, _) = cert.representative;
    let reducer = &reducers[mr];
    for x in inputs {
        let run_prefix = |s1: usize, s2: usize| -> (Vec<u8>, KernelStats) {
            let (y1, st1) = encode_with(components[s1].as_ref(), x);
            let (y2, st2) = encode_with(components[s2].as_ref(), &y1);
            (y2, add_stats(&st1, &st2))
        };
        let (my, mstats) = run_prefix(m1, m2);
        let (ry, rstats) = run_prefix(r1, r2);
        let (mz, mrs) = encode_with(reducer.as_ref(), &my);
        let (rz, rrs) = encode_with(reducer.as_ref(), &ry);
        // An absorbed no-op stage still accumulates kernel statistics
        // (reads its input), so chains using absorb-noop only claim byte
        // equality, not prefix-statistics equality.
        let absorbed = cert
            .member_steps
            .iter()
            .chain(cert.rep_steps.iter())
            .any(|s| matches!(s, RewriteStep::AbsorbNoop { .. }));
        match cert.tier {
            Tier::Exact => {
                if my != ry {
                    return Err(format!("prefix bytes differ on a {}-byte input", x.len()));
                }
                if !absorbed && mstats != rstats {
                    return Err(format!(
                        "accumulated prefix statistics differ on a {}-byte input",
                        x.len()
                    ));
                }
                if mz != rz {
                    return Err(format!(
                        "reducer output differs on a {}-byte input",
                        x.len()
                    ));
                }
            }
            Tier::Pattern { .. } => {
                if mz.len() != rz.len() {
                    return Err(format!(
                        "compressed sizes differ ({} vs {}) on a {}-byte input",
                        mz.len(),
                        rz.len(),
                        x.len()
                    ));
                }
                if mrs != rrs {
                    return Err(format!(
                        "reducer encode statistics differ on a {}-byte input",
                        x.len()
                    ));
                }
                // Decode side: statistics must agree and both members
                // must round-trip.
                let mut mdec = Vec::new();
                let mut mds = KernelStats::new();
                let mut rdec = Vec::new();
                let mut rds = KernelStats::new();
                reducer
                    .decode_chunk(&mz, &mut mdec, &mut mds)
                    .map_err(|e| format!("member reducer decode failed: {e:?}"))?;
                reducer
                    .decode_chunk(&rz, &mut rdec, &mut rds)
                    .map_err(|e| format!("representative reducer decode failed: {e:?}"))?;
                if mdec != my || rdec != ry {
                    return Err(format!(
                        "reducer round-trip failed on a {}-byte input",
                        x.len()
                    ));
                }
                if mds != rds {
                    return Err(format!(
                        "reducer decode statistics differ on a {}-byte input",
                        x.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The checker's input set: near-miss refuters plus a slice of the
/// standard adversarial corpus.
fn corpus_for_checking(depth: CheckDepth) -> Vec<Vec<u8>> {
    let mut inputs = corpus::refuters();
    let lengths: &[usize] = match depth {
        CheckDepth::Quick => &[20, 197],
        CheckDepth::Full => &[20, 64, 197, 1000, 4096],
    };
    for &len in lengths {
        inputs.extend(corpus::inputs(len));
    }
    inputs
}

// ---------------------------------------------------------------------------
// Seeded absint bugs (mutation harness)
// ---------------------------------------------------------------------------

/// The seeded absint bug classes. The first eleven doctor the
/// *canonicalizer* (one [`RuleTable`] flag each); the last five doctor a
/// *contract* (a component lies about an absint-relevant fact). The
/// unmutated checker/analyzer must catch every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsintMutation {
    /// Wrong lattice join: the length interval narrows.
    JoinNarrows,
    /// No-op absorption without the shape side condition.
    AbsorbNoopUnbounded,
    /// Inverse cancellation without an `inverse_of` witness.
    CancelWithoutInverse,
    /// Square collapse without an `idempotent` witness.
    CollapseWithoutIdempotence,
    /// Commutation without the divisibility side condition.
    CommuteIgnoresDivisibility,
    /// BIT treated as a word permutation.
    CommuteOpaqueAsPerm,
    /// Pattern drop without the divisibility side condition.
    DropIgnoresDivisibility,
    /// Zero-pattern drop without the `fixes_zero` side condition.
    DropIgnoresFixesZero,
    /// Tuple permutations pattern-transparent at any granularity.
    TuplIgnoresGranularity,
    /// All tuple permutations merged into one.
    MergeAllTuplPerms,
    /// Zero-pattern reducers canonicalized under the equality relation.
    RelationConfusesZeroEq,
    /// DBEFS_4 falsely claims `fixes_zero`.
    FalseFixesZero,
    /// TCMS_4 falsely claims `idempotent`.
    FalseIdempotent,
    /// TUPL4_2 falsely claims a chunk-sized `noop_below`.
    FalseNoopBelow,
    /// DIFFNB_4 falsely claims it is TCMS_4 ∘ DIFF_4.
    FalseFusedOf,
    /// CLOG_4 falsely claims a zero-pattern size determinant.
    FalseSizeDeterminant,
}

impl AbsintMutation {
    /// All seeds, stable order.
    pub const ALL: [AbsintMutation; 16] = [
        AbsintMutation::JoinNarrows,
        AbsintMutation::AbsorbNoopUnbounded,
        AbsintMutation::CancelWithoutInverse,
        AbsintMutation::CollapseWithoutIdempotence,
        AbsintMutation::CommuteIgnoresDivisibility,
        AbsintMutation::CommuteOpaqueAsPerm,
        AbsintMutation::DropIgnoresDivisibility,
        AbsintMutation::DropIgnoresFixesZero,
        AbsintMutation::TuplIgnoresGranularity,
        AbsintMutation::MergeAllTuplPerms,
        AbsintMutation::RelationConfusesZeroEq,
        AbsintMutation::FalseFixesZero,
        AbsintMutation::FalseIdempotent,
        AbsintMutation::FalseNoopBelow,
        AbsintMutation::FalseFusedOf,
        AbsintMutation::FalseSizeDeterminant,
    ];

    fn rule_table(&self) -> Option<RuleTable> {
        let mut t = RuleTable::SOUND;
        match self {
            AbsintMutation::JoinNarrows => t.join_narrows = true,
            AbsintMutation::AbsorbNoopUnbounded => t.absorb_noop_unbounded = true,
            AbsintMutation::CancelWithoutInverse => t.cancel_without_inverse = true,
            AbsintMutation::CollapseWithoutIdempotence => t.collapse_without_idempotence = true,
            AbsintMutation::CommuteIgnoresDivisibility => t.commute_ignores_divisibility = true,
            AbsintMutation::CommuteOpaqueAsPerm => t.commute_opaque_as_perm = true,
            AbsintMutation::DropIgnoresDivisibility => t.drop_ignores_divisibility = true,
            AbsintMutation::DropIgnoresFixesZero => t.drop_ignores_fixes_zero = true,
            AbsintMutation::TuplIgnoresGranularity => t.tupl_ignores_granularity = true,
            AbsintMutation::MergeAllTuplPerms => t.merge_all_tupl_perms = true,
            AbsintMutation::RelationConfusesZeroEq => t.relation_confuses_zero_eq = true,
            _ => return None,
        }
        Some(t)
    }

    fn contract_lie(&self) -> Option<(&'static str, ContractLie)> {
        match self {
            AbsintMutation::FalseFixesZero => Some(("DBEFS_4", ContractLie::FixesZero)),
            AbsintMutation::FalseIdempotent => Some(("TCMS_4", ContractLie::Idempotent)),
            AbsintMutation::FalseNoopBelow => Some(("TUPL4_2", ContractLie::NoopBelow)),
            AbsintMutation::FalseFusedOf => Some(("DIFFNB_4", ContractLie::FusedOf)),
            AbsintMutation::FalseSizeDeterminant => {
                Some(("CLOG_4", ContractLie::SizeDeterminantZero))
            }
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContractLie {
    FixesZero,
    Idempotent,
    NoopBelow,
    FusedOf,
    SizeDeterminantZero,
}

/// A component whose contract lies about one absint fact; behavior is
/// untouched.
struct ContractLiar {
    inner: Arc<dyn Component>,
    lie: ContractLie,
}

impl Component for ContractLiar {
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
    fn complexity(&self) -> lc_core::Complexity {
        self.inner.complexity()
    }
    fn contract(&self) -> Contract {
        let mut c = self.inner.contract();
        match self.lie {
            ContractLie::FixesZero => c.fixes_zero = true,
            ContractLie::Idempotent => c.idempotent = true,
            ContractLie::NoopBelow => c.noop_below = Some(CHUNK_SIZE + 1),
            ContractLie::FusedOf => c.fused_of = Some(("DIFF_4", "TCMS_4")),
            ContractLie::SizeDeterminantZero => c.size_determinant = SizeDeterminant::ZeroPattern,
        }
        c
    }
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
        self.inner.encode_chunk(input, out, stats);
    }
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), lc_core::DecodeError> {
        self.inner.decode_chunk(input, out, stats)
    }
}

/// One harness case.
pub struct AbsintCase {
    /// The seeded bug.
    pub mutation: AbsintMutation,
    /// Whether the unmutated checker/analyzer caught it.
    pub caught: bool,
    /// Evidence: the first rejection or diagnostic.
    pub detail: String,
}

/// Run every seeded absint bug against the unmutated checker:
/// canonicalizer bugs must produce at least one certificate the
/// structural checker rejects; contract lies must produce an analyzer
/// diagnostic naming the liar (via the absint differential rules).
pub fn run_absint_harness() -> Vec<AbsintCase> {
    let all = lc_components::all().to_vec();
    let reducers: Vec<Arc<dyn Component>> = all
        .iter()
        .filter(|c| c.kind() == ComponentKind::Reducer)
        .cloned()
        .collect();
    let mut cases = Vec::new();
    for mutation in AbsintMutation::ALL {
        let case = if let Some(rules) = mutation.rule_table() {
            // Classify with the buggy canonicalizer, check with the
            // sound checker. JoinNarrows needs a multi-length shape to
            // have a join to get wrong.
            let lengths: &[usize] = if mutation == AbsintMutation::JoinNarrows {
                &[2, CHUNK_SIZE]
            } else {
                &[]
            };
            let map = classify(&all, &reducers, lengths, &rules);
            let sound = classify(&all, &reducers, lengths, &RuleTable::SOUND);
            let report = check_certificates(&all, &reducers, &map, CheckDepth::Quick);
            // A canonicalizer bug is caught if the checker rejects a
            // certificate, or — for bugs that alter bookkeeping without
            // producing invalid merges — if the class map drifted from
            // the sound one (the CI snapshot gate).
            let drifted = map.classes != sound.classes || map.fingerprint() != sound.fingerprint();
            let caught = !report.is_clean() || drifted;
            let detail = report
                .failures
                .first()
                .map(|f| format!("{} {:?}: {}", f.layer, f.member, f.detail))
                .unwrap_or_else(|| {
                    if drifted {
                        format!(
                            "class map drifted: {} vs {} classes",
                            map.classes, sound.classes
                        )
                    } else {
                        "not caught".to_string()
                    }
                });
            AbsintCase {
                mutation,
                caught,
                detail,
            }
        } else {
            // Contract lie: the analyzer's differential rules must flag
            // the liar.
            // invariant: every mutation without a rule table is a contract lie
            let (target, lie) = mutation.contract_lie().unwrap();
            let set: Vec<Arc<dyn Component>> = all
                .iter()
                .map(|c| {
                    if c.name() == target {
                        Arc::new(ContractLiar {
                            inner: c.clone(),
                            lie,
                        }) as Arc<dyn Component>
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let report = crate::analyze(&set);
            let diag = report
                .diagnostics
                .iter()
                .find(|d| d.component == target)
                .cloned();
            AbsintCase {
                mutation,
                caught: diag.is_some(),
                detail: diag
                    .map(|d| format!("{}: {}", d.rule, d.message))
                    .unwrap_or_else(|| "not caught".to_string()),
            }
        };
        cases.push(case);
    }
    cases
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    type ComponentSet = Vec<Arc<dyn Component>>;

    fn registry() -> (ComponentSet, ComponentSet) {
        let all = lc_components::all().to_vec();
        let reducers: ComponentSet = all
            .iter()
            .filter(|c| c.kind() == ComponentKind::Reducer)
            .cloned()
            .collect();
        (all, reducers)
    }

    #[test]
    fn len_range_join_is_hull() {
        let a = LenRange { lo: 5, hi: 10 };
        let b = LenRange { lo: 0, hi: 7 };
        assert_eq!(a.join(b), LenRange { lo: 0, hi: 10 });
        assert_eq!(
            LenRange::from_lengths(&[], &RuleTable::SOUND),
            LenRange::top()
        );
        assert_eq!(
            LenRange::from_lengths(&[3, 100, 7], &RuleTable::SOUND),
            LenRange { lo: 3, hi: 100 }
        );
    }

    #[test]
    fn full_space_partition_counts() {
        let (all, reducers) = registry();
        let map = classify(&all, &reducers, &[], &RuleTable::SOUND);
        assert_eq!(map.pipelines(), 107_632);
        // Every pipeline belongs to exactly one class; every class has
        // exactly one representative (= not certified).
        assert_eq!(map.classes + map.pruned(), map.pipelines());
        // Strictly more than PR 4's 616 commute-only pipelines, and past
        // the issue's ≥ 3,000 target.
        assert!(
            map.pruned() > 616,
            "pruned {} should exceed the commute-only 616",
            map.pruned()
        );
        assert!(
            map.pruned() >= 3000,
            "pruned {} below the certified-redundant target",
            map.pruned()
        );
        // The exact tier subsumes PR 4: 22 commuting pairs × the 16
        // opaque reducers; the 12 pattern reducers absorb their share
        // into (larger) pattern classes.
        let census = census(&map, &reducers);
        assert_eq!(census.exact_pruned, 22 * 16);
        assert!(census.pattern_pruned >= 12 * 22);
    }

    #[test]
    fn classification_is_deterministic() {
        let (all, reducers) = registry();
        let a = classify(&all, &reducers, &[], &RuleTable::SOUND);
        let b = classify(&all, &reducers, &[], &RuleTable::SOUND);
        assert_eq!(a.class_of, b.class_of);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.pruned(), b.pruned());
    }

    #[test]
    fn exact_tier_reproduces_commute_pairs() {
        // (TCMS_1, TUPL2_2, CLOG_1) and (TUPL2_2, TCMS_1, CLOG_1) must
        // share a class at the exact tier (opaque reducer).
        let (all, reducers) = registry();
        let map = classify(&all, &reducers, &[], &RuleTable::SOUND);
        let pos = |name: &str| all.iter().position(|c| c.name() == name).unwrap();
        let rpos = |name: &str| reducers.iter().position(|c| c.name() == name).unwrap();
        let (m, t, r) = (pos("TCMS_1"), pos("TUPL2_2"), rpos("CLOG_1"));
        let a = map.class_of[map.index((m, t, r))];
        let b = map.class_of[map.index((t, m, r))];
        assert_eq!(a, b);
        // The representative is the lower dense index: (TCMS_1, TUPL2_2).
        let cert = map
            .certificates
            .iter()
            .find(|c| c.member == (t, m, r))
            .expect("the swapped order is the pruned member");
        assert_eq!(cert.representative, (m, t, r));
        assert_eq!(cert.tier, Tier::Exact);
        assert!(cert
            .member_steps
            .iter()
            .any(|s| matches!(s, RewriteStep::CommuteSwap { .. })));
    }

    #[test]
    fn pattern_tier_merges_zero_fixing_bijections() {
        // TCMS_1 and TCNB_1 both fix zero at granularity 1 | 2: before
        // RZE_2 the pipelines (TCMS_1, DIFF-free prefix...) — simplest:
        // (TCMS_1, TCMS_1) vs (TCNB_1, TCNB_1) — all drop, same class.
        let (all, reducers) = registry();
        let map = classify(&all, &reducers, &[], &RuleTable::SOUND);
        let pos = |name: &str| all.iter().position(|c| c.name() == name).unwrap();
        let rpos = |name: &str| reducers.iter().position(|c| c.name() == name).unwrap();
        let rze2 = rpos("RZE_2");
        let a = map.class_of[map.index((pos("TCMS_1"), pos("TCMS_2"), rze2))];
        let b = map.class_of[map.index((pos("TCNB_1"), pos("TCNB_2"), rze2))];
        assert_eq!(a, b, "zero-fixing bijections are RZE-transparent");
        // DBEFS does NOT fix zero: it must not join that class.
        let c = map.class_of[map.index((pos("DBEFS_4"), pos("TCMS_2"), rze2))];
        assert_ne!(a, c);
        // But under RLE (equality pattern), DBEFS_4 at granularity 4|4
        // IS transparent.
        let rle4 = rpos("RLE_4");
        let d = map.class_of[map.index((pos("DBEFS_4"), pos("TCMS_4"), rle4))];
        let e = map.class_of[map.index((pos("TCNB_4"), pos("DBESF_4"), rle4))];
        assert_eq!(d, e);
    }

    #[test]
    fn defused_predictors_merge_before_matching_reducers() {
        // DIFFMS_4 = TCMS_4 ∘ DIFF_4 and TCMS_4 is RZE_4-transparent, so
        // (DIFF_4, X) and (DIFFMS_4, X) — with X dropped too — share a
        // class before RZE_4.
        let (all, reducers) = registry();
        let map = classify(&all, &reducers, &[], &RuleTable::SOUND);
        let pos = |name: &str| all.iter().position(|c| c.name() == name).unwrap();
        let rpos = |name: &str| reducers.iter().position(|c| c.name() == name).unwrap();
        let rze4 = rpos("RZE_4");
        let a = map.class_of[map.index((pos("DIFF_4"), pos("TCMS_4"), rze4))];
        let b = map.class_of[map.index((pos("DIFFMS_4"), pos("TCNB_4"), rze4))];
        let c = map.class_of[map.index((pos("DIFFNB_4"), pos("TCMS_4"), rze4))];
        assert_eq!(a, b);
        assert_eq!(a, c);
        // The granularity trap: at word size 4 under RZE_2 the TCMS_4
        // bijection is NOT transparent (4 ∤ 2), so DIFFMS_4 and DIFFNB_4
        // must stay separate there.
        let rze2 = rpos("RZE_2");
        let d = map.class_of[map.index((pos("DIFFMS_4"), pos("TCMS_2"), rze2))];
        let e = map.class_of[map.index((pos("DIFFNB_4"), pos("TCMS_2"), rze2))];
        assert_ne!(d, e);
    }

    #[test]
    fn all_certificates_pass_the_checker() {
        let (all, reducers) = registry();
        let map = classify(&all, &reducers, &[], &RuleTable::SOUND);
        let report = check_certificates(&all, &reducers, &map, CheckDepth::Quick);
        assert_eq!(report.certificates, map.pruned());
        assert!(report.kinds >= 3, "kinds: {}", report.kinds);
        assert!(report.differential_classes > 0);
        assert!(
            report.is_clean(),
            "checker rejected sound certificates: {:#?}",
            report
                .failures
                .iter()
                .map(|f| format!("{:?} {} {}", f.member, f.layer, f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn census_is_consistent() {
        let (all, reducers) = registry();
        let map = classify(&all, &reducers, &[], &RuleTable::SOUND);
        let census = census(&map, &reducers);
        assert_eq!(census.pipelines, 107_632);
        assert_eq!(census.pruned, census.exact_pruned + census.pattern_pruned);
        assert_eq!(census.classes + census.pruned, census.pipelines);
        let per_reducer_pruned: usize = census.per_reducer.iter().map(|(_, _, p)| p).sum();
        assert_eq!(per_reducer_pruned, census.pruned);
        let json = census.to_json();
        assert_eq!(
            json.get("schema").and_then(|v| v.as_str()),
            Some("lc-analyze-canonical/v1")
        );
        assert_eq!(
            json.get("pruned").and_then(|v| v.as_u64()),
            Some(census.pruned as u64)
        );
        let text = census.render_text();
        assert!(text.contains("certified-redundant"));
    }

    #[test]
    fn every_seeded_absint_bug_is_caught() {
        let cases = run_absint_harness();
        assert!(cases.len() >= 12, "need at least 12 seeds");
        let missed: Vec<String> = cases
            .iter()
            .filter(|c| !c.caught)
            .map(|c| format!("{:?}", c.mutation))
            .collect();
        assert!(missed.is_empty(), "uncaught absint bugs: {missed:?}");
    }

    #[test]
    fn restricted_space_without_fused_halves_stays_sound() {
        // A space containing DIFFMS but not TCMS cannot de-fuse; the
        // classifier must keep it opaque rather than invent atoms.
        let all = lc_components::all().to_vec();
        let subset: Vec<Arc<dyn Component>> = all
            .iter()
            .filter(|c| c.name().starts_with("DIFF"))
            .cloned()
            .collect();
        let reducers: Vec<Arc<dyn Component>> = all
            .iter()
            .filter(|c| c.name().starts_with("RZE"))
            .cloned()
            .collect();
        let map = classify(&subset, &reducers, &[], &RuleTable::SOUND);
        let report = check_certificates(&subset, &reducers, &map, CheckDepth::Quick);
        assert!(report.is_clean(), "failures: {:?}", report.failures.len());
    }
}
