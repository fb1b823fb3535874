//! Machine-readable component contracts.
//!
//! A [`Contract`] is a component's declaration of the structural facts the
//! rest of the system is allowed to rely on: its kind, word granularity,
//! whether it may change the chunk size (and by how much, worst case),
//! whether encode/decode form an exact inverse pair, and what algebraic
//! shape its encoder has (see [`CommuteClass`]). The paper leans on these
//! facts implicitly — reducers appear only in the last pipeline stage,
//! copy-on-expand bounds every stage's output, size-preserving components
//! never change the length — and `lc-analyze` checks every declared claim
//! against the real implementation on adversarial inputs, so a contract is
//! never "documentation": a wrong claim is a test failure.
//!
//! Contracts also drive pipeline-space pruning: when two stage-1/stage-2
//! components provably commute ([`Contract::commutes_with`]), the pipelines
//! `(A, B, r)` and `(B, A, r)` feed byte-identical data to the reducer and
//! accumulate identical kernel statistics, so a campaign sweep only needs
//! to execute one of them (`lc-study::campaign` handles the bookkeeping).

use crate::component::ComponentKind;

/// Worst-case encoded size as an affine function of the input size:
/// `max_bytes(n) = n·num/den + add` (rounded up).
///
/// Size-preserving components use the exact bound `n` ([`ExpansionBound::exact`]);
/// reducers declare how far their framing and worst-case records can
/// expand a chunk before copy-on-expand discards the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpansionBound {
    /// Multiplier numerator.
    pub num: u64,
    /// Multiplier denominator (never zero).
    pub den: u64,
    /// Additive slack in bytes (framing, headers, bit padding).
    pub add: u64,
}

impl ExpansionBound {
    /// `max_bytes(n) = n` — the size-preserving bound.
    pub const fn exact() -> Self {
        Self {
            num: 1,
            den: 1,
            add: 0,
        }
    }

    /// Affine bound `n·num/den + add`.
    pub const fn affine(num: u64, den: u64, add: u64) -> Self {
        assert!(den != 0, "expansion bound denominator must be nonzero");
        Self { num, den, add }
    }

    /// Evaluate the bound for an `n`-byte input (ceiling division).
    pub fn max_bytes(&self, n: usize) -> usize {
        let scaled = (n as u64 * self.num).div_ceil(self.den);
        (scaled + self.add) as usize
    }
}

/// Whether a component may change the chunk size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Output length always equals input length (mutators, shufflers,
    /// predictors). `encode_stage` debug-asserts this.
    Preserving,
    /// Output length may differ; copy-on-expand applies (reducers).
    Reducing,
}

/// The algebraic shape of a component's *encoder*, used to prove
/// commutation between stage-1/stage-2 pipeline prefixes.
///
/// Only shapes that make commutation decidable are named; everything else
/// is [`CommuteClass::Opaque`] and never participates in pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommuteClass {
    /// A pure function applied independently to every complete
    /// `word_size`-byte word, with trailing incomplete-word bytes passed
    /// through unchanged (TCMS, TCNB, DBEFS, DBESF). Output word `i`
    /// depends on input word `i` only, and kernel statistics depend only
    /// on the input length.
    PointwiseWordMap,
    /// A value-independent permutation of `word_size`-byte fields within
    /// each complete tuple, with the trailing incomplete tuple passed
    /// through unchanged (TUPL). The permutation depends only on the
    /// input length, and kernel statistics depend only on the length.
    WordPermutation,
    /// No algebraic structure claimed (BIT is bit-granular, predictors
    /// are neighbor-dependent, reducers are value-dependent).
    Opaque,
}

/// What an encoder's output *size and kernel statistics* are a function
/// of — the key fact behind pattern-tier equivalence classes.
///
/// A reducer whose size is determined by, say, the zero/nonzero pattern
/// of its input words produces equal-size output (with identical kernel
/// statistics) on any two inputs sharing that pattern, even when the
/// bytes differ. The abstract interpreter (`lc-analyze::absint`) uses
/// this to merge pipelines whose prefixes provably agree on the pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeDeterminant {
    /// `|encode(x)|` and both directions' kernel statistics depend only
    /// on the input length and the zero/nonzero pattern of its complete
    /// `word_size`-byte words plus the literal tail bytes' count (RZE:
    /// zero words are elided, nonzero words are emitted literally).
    ZeroPattern,
    /// `|encode(x)|` and both directions' kernel statistics depend only
    /// on the input length and the adjacent-equality pattern of its
    /// complete `word_size`-byte words (RLE/RRE: runs are collapsed, the
    /// run structure is exactly the equality pattern).
    EqualityPattern,
    /// Size may depend on the actual byte values (entropy-style reducers
    /// such as CLOG/RARE, and every size-preserving component, where the
    /// question is moot).
    Opaque,
}

/// A component's machine-readable contract. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Contract {
    /// Must equal [`crate::Component::kind`].
    pub kind: ComponentKind,
    /// Must equal [`crate::Component::word_size`].
    pub word_size: usize,
    /// Whether the encoder preserves the chunk length exactly.
    pub size: SizeClass,
    /// Worst-case encoded size (checked on adversarial inputs).
    pub expansion: ExpansionBound,
    /// `decode_chunk(encode_chunk(x)) == x` for every `x`. Every shipped
    /// component claims this; the field exists so the mutation harness can
    /// express a component whose claim is a lie.
    pub exact_inverse: bool,
    /// Name of a *different* registered component `B` such that
    /// `B.encode_chunk(self.encode_chunk(x)) == x` — an identity
    /// composition the campaign could prune. No shipped pair satisfies
    /// this; the plumbing is exercised by synthetic test components.
    pub inverse_of: Option<&'static str>,
    /// Encoder shape for commutation analysis.
    pub commute: CommuteClass,
    /// For a [`CommuteClass::PointwiseWordMap`]: the per-word function
    /// maps the all-zero word to the all-zero word (`φ(0) = 0`). With
    /// `exact_inverse` this makes the map a zero-*fixing* bijection: it
    /// preserves the zero/nonzero pattern at any granularity the word
    /// size divides. Meaningless (and `false`) for other shapes.
    pub fixes_zero: bool,
    /// `Some((base, post))`: this encoder is *extensionally equal* to the
    /// composition `post.encode ∘ base.encode` of two other registered
    /// components (DIFFMS_w = TCMS_w ∘ DIFF_w, DIFFNB_w = TCNB_w ∘
    /// DIFF_w). The rewriter de-fuses such components so algebraic rules
    /// can see through the fusion; the checker validates the claim
    /// byte-for-byte on the adversarial corpus.
    pub fused_of: Option<(&'static str, &'static str)>,
    /// `encode(encode(x)) == encode(x)` for every `x`. No shipped
    /// component is idempotent; like `inverse_of` this is plumbing for
    /// synthetic components and the mutation harness.
    pub idempotent: bool,
    /// `Some(n)`: the encoder is the *identity* on every input shorter
    /// than `n` bytes (too short to contain one complete word/tuple/
    /// delta pair), with kernel statistics still accumulated. Lets the
    /// rewriter absorb provable no-ops when the input-shape lattice
    /// bounds every chunk below `n`.
    pub noop_below: Option<usize>,
    /// What the encoded size is a function of (reducers only; every
    /// size-preserving component is trivially `Opaque` here).
    pub size_determinant: SizeDeterminant,
}

impl Contract {
    /// Contract for a size-preserving component of the given shape.
    pub const fn preserving(kind: ComponentKind, word_size: usize, commute: CommuteClass) -> Self {
        Self {
            kind,
            word_size,
            size: SizeClass::Preserving,
            expansion: ExpansionBound::exact(),
            exact_inverse: true,
            inverse_of: None,
            commute: CommuteClass::Opaque,
            fixes_zero: false,
            fused_of: None,
            idempotent: false,
            noop_below: None,
            size_determinant: SizeDeterminant::Opaque,
        }
        .with_commute(commute)
    }

    /// Contract for a reducer with the given worst-case expansion bound.
    pub const fn reducer(word_size: usize, expansion: ExpansionBound) -> Self {
        Self {
            kind: ComponentKind::Reducer,
            word_size,
            size: SizeClass::Reducing,
            expansion,
            exact_inverse: true,
            inverse_of: None,
            commute: CommuteClass::Opaque,
            fixes_zero: false,
            fused_of: None,
            idempotent: false,
            noop_below: None,
            size_determinant: SizeDeterminant::Opaque,
        }
    }

    /// Conservative contract inferred from `kind`/`word_size` alone — the
    /// default for ad-hoc [`crate::Component`] implementations (test
    /// doubles, fault injectors) that never declared anything. Claims no
    /// algebraic structure and, for reducers, a deliberately loose
    /// expansion bound.
    pub fn inferred(kind: ComponentKind, word_size: usize) -> Self {
        match kind {
            ComponentKind::Reducer => Self::reducer(word_size, ExpansionBound::affine(8, 1, 256)),
            _ => Self::preserving(kind, word_size, CommuteClass::Opaque),
        }
    }

    const fn with_commute(mut self, commute: CommuteClass) -> Self {
        self.commute = commute;
        self
    }

    /// Declare that the pointwise per-word function fixes zero
    /// (`φ(0) = 0`). See [`Contract::fixes_zero`].
    pub const fn with_fixes_zero(mut self) -> Self {
        self.fixes_zero = true;
        self
    }

    /// Declare extensional equality with `post.encode ∘ base.encode`.
    /// See [`Contract::fused_of`].
    pub const fn with_fused_of(mut self, base: &'static str, post: &'static str) -> Self {
        self.fused_of = Some((base, post));
        self
    }

    /// Declare the encoder is the identity on inputs shorter than `n`
    /// bytes. See [`Contract::noop_below`].
    pub const fn with_noop_below(mut self, n: usize) -> Self {
        self.noop_below = Some(n);
        self
    }

    /// Declare what the encoded size is a function of. See
    /// [`Contract::size_determinant`].
    pub const fn with_size_determinant(mut self, d: SizeDeterminant) -> Self {
        self.size_determinant = d;
        self
    }

    /// Does the encoder of `self` provably commute with the encoder of
    /// `other` — i.e. is `other.encode(self.encode(x)) ==
    /// self.encode(other.encode(x))` for every chunk `x`, with identical
    /// accumulated kernel statistics?
    ///
    /// The one decidable case in the shipped library: a pointwise map on
    /// `w`-byte words against a `W`-byte-field permutation with `w | W`.
    /// The permutation then maps complete `w`-words to complete `w`-words
    /// (its permuted region is a multiple of `W`, hence of `w`, and its
    /// tail region is untouched by the permutation and mapped identically
    /// by the pointwise component in either order), and both components'
    /// kernel statistics depend only on the input length, which neither
    /// changes.
    pub fn commutes_with(&self, other: &Contract) -> bool {
        use CommuteClass::{PointwiseWordMap, WordPermutation};
        // Commutation is only meaningful between size-preserving stages;
        // a reducer would change the length the other stage sees.
        if self.size != SizeClass::Preserving || other.size != SizeClass::Preserving {
            return false;
        }
        match (self.commute, other.commute) {
            (PointwiseWordMap, WordPermutation) => other.word_size.is_multiple_of(self.word_size),
            (WordPermutation, PointwiseWordMap) => self.word_size.is_multiple_of(other.word_size),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_bound_math() {
        let b = ExpansionBound::affine(7, 1, 16);
        assert_eq!(b.max_bytes(0), 16);
        assert_eq!(b.max_bytes(100), 716);
        let frac = ExpansionBound::affine(5, 4, 64);
        assert_eq!(frac.max_bytes(10), 13 + 64); // ceil(50/4) = 13
        assert_eq!(ExpansionBound::exact().max_bytes(123), 123);
    }

    #[test]
    fn pointwise_commutes_with_coarser_permutation() {
        let m1 = Contract::preserving(ComponentKind::Mutator, 1, CommuteClass::PointwiseWordMap);
        let m4 = Contract::preserving(ComponentKind::Mutator, 4, CommuteClass::PointwiseWordMap);
        let t2 = Contract::preserving(ComponentKind::Shuffler, 2, CommuteClass::WordPermutation);
        let t4 = Contract::preserving(ComponentKind::Shuffler, 4, CommuteClass::WordPermutation);
        assert!(m1.commutes_with(&t2));
        assert!(t2.commutes_with(&m1)); // symmetric
        assert!(m4.commutes_with(&t4));
        assert!(!m4.commutes_with(&t2)); // 4 does not divide 2
    }

    #[test]
    fn opaque_never_commutes() {
        let bit = Contract::preserving(ComponentKind::Shuffler, 4, CommuteClass::Opaque);
        let m4 = Contract::preserving(ComponentKind::Mutator, 4, CommuteClass::PointwiseWordMap);
        assert!(!bit.commutes_with(&m4));
        assert!(!m4.commutes_with(&bit));
        // Two pointwise maps do not commute in general (f∘g ≠ g∘f).
        assert!(!m4.commutes_with(&m4));
    }

    #[test]
    fn reducers_never_commute() {
        let r = Contract::reducer(4, ExpansionBound::affine(2, 1, 64));
        let m = Contract::preserving(ComponentKind::Mutator, 4, CommuteClass::PointwiseWordMap);
        assert!(!r.commutes_with(&m));
        assert_eq!(r.size, SizeClass::Reducing);
        assert!(r.exact_inverse);
    }

    #[test]
    fn absint_facts_default_off_and_build_const() {
        const C: Contract =
            Contract::preserving(ComponentKind::Mutator, 4, CommuteClass::PointwiseWordMap)
                .with_fixes_zero()
                .with_noop_below(4);
        let c: Contract = C;
        assert!(c.fixes_zero);
        assert_eq!(c.noop_below, Some(4));
        assert!(!c.idempotent);
        assert_eq!(c.fused_of, None);
        assert_eq!(c.size_determinant, SizeDeterminant::Opaque);

        const R: Contract = Contract::reducer(2, ExpansionBound::affine(2, 1, 64))
            .with_size_determinant(SizeDeterminant::ZeroPattern);
        let r: Contract = R;
        assert_eq!(r.size_determinant, SizeDeterminant::ZeroPattern);
        assert!(!r.fixes_zero);

        const F: Contract = Contract::preserving(ComponentKind::Predictor, 8, CommuteClass::Opaque)
            .with_fused_of("DIFF_8", "TCMS_8");
        assert_eq!(F.fused_of, Some(("DIFF_8", "TCMS_8")));
    }

    #[test]
    fn inferred_contracts_are_conservative() {
        let c = Contract::inferred(ComponentKind::Predictor, 8);
        assert_eq!(c.commute, CommuteClass::Opaque);
        assert_eq!(c.size, SizeClass::Preserving);
        let r = Contract::inferred(ComponentKind::Reducer, 1);
        assert_eq!(r.size, SizeClass::Reducing);
        assert!(r.expansion.max_bytes(100) >= 100);
    }
}
