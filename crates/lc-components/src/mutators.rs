//! Mutators: value-wise computational transforms (paper §3.2.1).
//!
//! Mutators transform each value in place without compressing; decoding
//! applies the inverse transformation. All four families are embarrassingly
//! parallel with regular memory accesses — Θ(n) work, Θ(1) span in both
//! directions (paper Table 2) — which is why pipelines led by mutators
//! decode at the highest throughputs (paper Fig. 7).
//!
//! Bytes that do not form a complete word (possible when a reducer earlier
//! in the pipeline produced an odd-sized chunk) pass through unchanged at
//! the end of the chunk.

use lc_core::{
    CommuteClass, Complexity, Component, ComponentKind, Contract, DecodeError, KernelStats,
    KernelVariant, SpanClass, WorkClass,
};

use crate::kernels::pointwise::{self, Op};
use crate::util::words;

const MUTATOR_COMPLEXITY: Complexity = Complexity::new(
    WorkClass::N,
    SpanClass::Const,
    WorkClass::N,
    SpanClass::Const,
);

/// Apply a pointwise codec kernel to every complete word (tail passes
/// through inside [`pointwise::apply`]) and account a mutator kernel:
/// one coalesced read + write per word, `ops_per_word` ALU operations,
/// no synchronization. The accounting models the GPU kernel and is
/// independent of which CPU tier (scalar/SSE2/AVX2) actually ran.
fn mutate<const W: usize>(
    input: &[u8],
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
    ops_per_word: u64,
    op: Op,
) {
    let n = words::count::<W>(input.len());
    pointwise::apply::<W>(op, input, out);
    stats.words += n as u64;
    stats.thread_ops += n as u64 * ops_per_word;
    stats.global_reads += input.len() as u64;
    stats.global_writes += input.len() as u64;
}

macro_rules! mutator {
    (
        $(#[$doc:meta])*
        $name:ident, $prefix:literal, enc = $enc:ident, dec = $dec:ident,
        ops = $ops:literal, fixes_zero = $fz:literal, widths = [$($w:literal),+]
    ) => {
        // `$enc`/`$dec` are `pointwise::Op` arms; the scalar reference
        // codecs they resolve to live in `util::codec`.
        $(#[$doc])*
        pub struct $name<const W: usize>;

        impl<const W: usize> $name<W> {
            /// ALU operations the GPU kernel performs per word.
            pub(crate) const OPS_PER_WORD: u64 = $ops;
        }

        impl<const W: usize> Component for $name<W> {
            fn name(&self) -> &'static str {
                match W {
                    $( $w => concat!($prefix, "_", stringify!($w)), )+
                    _ => unreachable!("unsupported word size"),
                }
            }
            fn kind(&self) -> ComponentKind {
                ComponentKind::Mutator
            }
            fn word_size(&self) -> usize {
                W
            }
            fn complexity(&self) -> Complexity {
                MUTATOR_COMPLEXITY
            }
            fn contract(&self) -> Contract {
                // Every mutator maps complete W-byte words independently
                // and passes the tail through: a pointwise word map that
                // is the identity on inputs shorter than one word. TCMS
                // and TCNB additionally map the zero word to itself
                // (zig-zag and negabinary both send 0 to 0); the DBE
                // families do not (de-biasing the exponent of 0.0 yields
                // a nonzero code).
                let c = Contract::preserving(
                    ComponentKind::Mutator,
                    W,
                    CommuteClass::PointwiseWordMap,
                )
                .with_noop_below(W);
                if $fz {
                    c.with_fixes_zero()
                } else {
                    c
                }
            }
            fn kernel_variant(&self) -> KernelVariant {
                pointwise::variant::<W>(Op::$enc)
            }
            fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
                mutate::<W>(input, out, stats, Self::OPS_PER_WORD, Op::$enc);
            }
            fn decode_chunk(
                &self,
                input: &[u8],
                out: &mut Vec<u8>,
                stats: &mut KernelStats,
            ) -> Result<(), DecodeError> {
                mutate::<W>(input, out, stats, Self::OPS_PER_WORD, Op::$dec);
                Ok(())
            }
        }
    };
}

mutator!(
    /// TCMS: two's complement → magnitude-sign representation, so values of
    /// small magnitude (positive or negative) get numerically small codes.
    Tcms, "TCMS", enc = TcmsEnc, dec = TcmsDec,
    ops = 4, fixes_zero = true, widths = [1, 2, 4, 8]
);

mutator!(
    /// TCNB: two's complement → base −2 (negabinary) representation via the
    /// `(v + M) ^ M` bit trick.
    Tcnb, "TCNB", enc = TcnbEnc, dec = TcnbDec,
    ops = 3, fixes_zero = true, widths = [1, 2, 4, 8]
);

mutator!(
    /// DBEFS: de-bias the IEEE-754 exponent and rearrange fields from
    /// (sign, exponent, fraction) to (de-biased exponent, fraction, sign).
    /// Only defined at 4- and 8-byte widths.
    Dbefs, "DBEFS", enc = DbefsEnc, dec = DbefsDec,
    ops = 9, fixes_zero = false, widths = [4, 8]
);

mutator!(
    /// DBESF: like DBEFS but rearranges to (de-biased exponent, sign,
    /// fraction) order.
    Dbesf, "DBESF", enc = DbesfEnc, dec = DbesfDec,
    ops = 9, fixes_zero = false, widths = [4, 8]
);

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::verify::roundtrip_component;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 17) % 256) as u8).collect()
    }

    #[test]
    fn names_and_metadata() {
        assert_eq!(Tcms::<4>.name(), "TCMS_4");
        assert_eq!(Tcnb::<8>.name(), "TCNB_8");
        assert_eq!(Dbefs::<4>.name(), "DBEFS_4");
        assert_eq!(Dbesf::<8>.name(), "DBESF_8");
        assert_eq!(Tcms::<1>.kind(), ComponentKind::Mutator);
        assert_eq!(Tcms::<2>.word_size(), 2);
        assert_eq!(Tcms::<1>.tuple_size(), None);
    }

    #[test]
    fn all_mutators_roundtrip_all_lengths() {
        // Lengths hit empty, sub-word, unaligned, and full-chunk cases.
        for len in [0usize, 1, 3, 7, 8, 9, 63, 64, 1000, 16384] {
            let data = sample(len);
            roundtrip_component(&Tcms::<1>, &data);
            roundtrip_component(&Tcms::<2>, &data);
            roundtrip_component(&Tcms::<4>, &data);
            roundtrip_component(&Tcms::<8>, &data);
            roundtrip_component(&Tcnb::<1>, &data);
            roundtrip_component(&Tcnb::<2>, &data);
            roundtrip_component(&Tcnb::<4>, &data);
            roundtrip_component(&Tcnb::<8>, &data);
            roundtrip_component(&Dbefs::<4>, &data);
            roundtrip_component(&Dbefs::<8>, &data);
            roundtrip_component(&Dbesf::<4>, &data);
            roundtrip_component(&Dbesf::<8>, &data);
        }
    }

    #[test]
    fn size_preserving() {
        let data = sample(1000);
        let mut out = Vec::new();
        let mut stats = KernelStats::new();
        Tcms::<4>.encode_chunk(&data, &mut out, &mut stats);
        assert_eq!(out.len(), data.len());
        assert_eq!(stats.words, 250);
        assert_eq!(stats.thread_ops, 250 * Tcms::<4>::OPS_PER_WORD);
        assert_eq!(stats.block_syncs, 0);
        assert_eq!(stats.warp_shuffles, 0);
    }

    #[test]
    fn tail_bytes_pass_through() {
        let data = sample(10); // 2 complete u32 words + 2 tail bytes
        let mut out = Vec::new();
        let mut stats = KernelStats::new();
        Tcms::<4>.encode_chunk(&data, &mut out, &mut stats);
        assert_eq!(&out[8..], &data[8..]);
    }

    #[test]
    fn dbefs_on_real_floats_clusters_exponents() {
        // Smooth float data: after DBEFS the de-biased exponent occupies the
        // top bits and is near zero for values near 1.0.
        let vals: Vec<f32> = (0..256).map(|i| 1.0 + i as f32 * 1e-3).collect();
        let bytes: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let mut out = Vec::new();
        let mut stats = KernelStats::new();
        Dbefs::<4>.encode_chunk(&bytes, &mut out, &mut stats);
        for i in 0..vals.len() {
            let enc = u32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
            // De-biased exponent field (top 8 bits) must be 0 for all these.
            assert_eq!(enc >> 24, 0, "value {}", vals[i]);
        }
    }
}
