//! Shufflers: value reordering without computation (paper §3.2.2).
//!
//! * **BIT** — bit-plane transpose: the most significant bit of every word
//!   is emitted first, then every second bit, and so on. The GPU
//!   implementations differ by word size: the 1- and 2-byte variants use
//!   plain bitwise operations without synchronization, while the 4- and
//!   8-byte variants use `__shfl_xor`-based warp transposes that implicitly
//!   synchronize (paper §6.4, Fig. 10) — the kernel statistics reflect
//!   this split.
//! * **TUPLk** — treats the data as a sequence of k-tuples and rearranges
//!   array-of-structures to structure-of-arrays (all first elements, then
//!   all second elements, …).
//!
//! Both are size-preserving; incomplete trailing tuples/words pass through
//! unchanged.

use lc_core::{
    CommuteClass, Complexity, Component, ComponentKind, Contract, DecodeError, KernelStats,
    KernelVariant, SpanClass, WorkClass,
};

use crate::kernels::{bitplane, tuple};
use crate::util::words;

/// BIT_i: bit-plane transpose at word size `W`.
pub(crate) struct Bit<const W: usize>;

impl<const W: usize> Bit<W> {
    fn account(stats: &mut KernelStats, n: usize, len: usize) {
        let b = u64::from(words::bits::<W>());
        stats.words += n as u64;
        stats.global_reads += len as u64;
        stats.global_writes += len as u64;
        stats.shared_traffic += 2 * (n * W) as u64;
        // Θ(n log w) work for every width (paper Table 2).
        let steps = b.ilog2() as u64;
        stats.thread_ops += n as u64 * steps;
        if W > 2 {
            // The 4-/8-byte variants transpose via __shfl_xor, whose
            // implicit warp synchronization is part of the shuffle itself
            // (no separate __syncwarp); paper §6.4.
            stats.warp_shuffles += n as u64 * steps;
            stats.scan_steps += steps;
        }
    }
}

impl<const W: usize> Component for Bit<W> {
    fn name(&self) -> &'static str {
        match W {
            1 => "BIT_1",
            2 => "BIT_2",
            4 => "BIT_4",
            8 => "BIT_8",
            _ => unreachable!("unsupported word size"),
        }
    }
    fn kind(&self) -> ComponentKind {
        ComponentKind::Shuffler
    }
    fn word_size(&self) -> usize {
        W
    }
    fn complexity(&self) -> Complexity {
        // The only component with Θ(n log w) work and Θ(log w) span
        // (paper Table 2).
        Complexity::new(
            WorkClass::NLogW,
            SpanClass::LogW,
            WorkClass::NLogW,
            SpanClass::LogW,
        )
    }
    fn contract(&self) -> Contract {
        // BIT permutes *bits*, not whole words — no word-granular
        // structure to claim, so it never participates in pruning.
        Contract::preserving(ComponentKind::Shuffler, W, CommuteClass::Opaque)
    }
    fn kernel_variant(&self) -> KernelVariant {
        bitplane::variant::<W>()
    }
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
        let n = words::count::<W>(input.len());
        bitplane::encode::<W>(input, out);
        Self::account(stats, n, input.len());
    }
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        // Size-preserving: the word count is recoverable from the length.
        let n = words::count::<W>(input.len());
        bitplane::decode::<W>(input, out)?;
        Self::account(stats, n, input.len());
        Ok(())
    }
}

/// TUPLk_i: AoS → SoA rearrangement of k-tuples of `W`-byte words.
pub(crate) struct Tupl<const K: usize, const W: usize>;

impl<const K: usize, const W: usize> Tupl<K, W> {
    fn account(stats: &mut KernelStats, n_tuples: usize, len: usize) {
        let n_words = (n_tuples * K) as u64;
        stats.words += n_words;
        stats.thread_ops += n_words * 2; // index arithmetic only
        stats.global_reads += len as u64;
        stats.global_writes += len as u64;
        // The strided gather/scatter is staged through shared memory.
        stats.shared_traffic += 2 * n_words * W as u64;
    }
}

impl<const K: usize, const W: usize> Component for Tupl<K, W> {
    fn name(&self) -> &'static str {
        match (K, W) {
            (2, 1) => "TUPL2_1",
            (2, 2) => "TUPL2_2",
            (4, 1) => "TUPL4_1",
            (4, 2) => "TUPL4_2",
            (8, 1) => "TUPL8_1",
            (8, 4) => "TUPL8_4",
            _ => unreachable!("unsupported (tuple, word) combination"),
        }
    }
    fn kind(&self) -> ComponentKind {
        ComponentKind::Shuffler
    }
    fn word_size(&self) -> usize {
        W
    }
    fn tuple_size(&self) -> Option<usize> {
        Some(K)
    }
    fn complexity(&self) -> Complexity {
        Complexity::new(
            WorkClass::N,
            SpanClass::Const,
            WorkClass::N,
            SpanClass::Const,
        )
    }
    fn contract(&self) -> Contract {
        // AoS→SoA is a value-independent permutation of W-byte fields
        // within each complete K·W-byte tuple; the incomplete trailing
        // tuple passes through. A pointwise map on w-byte words with
        // w | W therefore commutes with it (see `lc_core::contract`).
        // Inputs shorter than one complete K·W-byte tuple pass through
        // entirely — the identity.
        Contract::preserving(ComponentKind::Shuffler, W, CommuteClass::WordPermutation)
            .with_noop_below(K * W)
    }
    fn kernel_variant(&self) -> KernelVariant {
        tuple::variant::<K, W>()
    }
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
        // All field-0 words, then all field-1 words, … (kernel module).
        let n_tuples = input.len() / (K * W);
        tuple::encode::<K, W>(input, out);
        Self::account(stats, n_tuples, input.len());
    }
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        let n_tuples = input.len() / (K * W);
        tuple::decode::<K, W>(input, out);
        Self::account(stats, n_tuples, input.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::verify::roundtrip_component;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 197 + 43) % 256) as u8).collect()
    }

    #[test]
    fn bit_names_and_kind() {
        assert_eq!(Bit::<1>.name(), "BIT_1");
        assert_eq!(Bit::<8>.name(), "BIT_8");
        assert_eq!(Bit::<4>.kind(), ComponentKind::Shuffler);
        assert_eq!(Bit::<4>.tuple_size(), None);
    }

    #[test]
    fn bit_roundtrips_all_widths_and_lengths() {
        for len in [
            0usize,
            1,
            7,
            8,
            9,
            16,
            100,
            1024,
            16384,
            16385 % 16384 + 123,
        ] {
            let data = sample(len);
            roundtrip_component(&Bit::<1>, &data);
            roundtrip_component(&Bit::<2>, &data);
            roundtrip_component(&Bit::<4>, &data);
            roundtrip_component(&Bit::<8>, &data);
        }
    }

    #[test]
    fn bit_size_preserving() {
        let data = sample(4096);
        let mut out = Vec::new();
        Bit::<4>.encode_chunk(&data, &mut out, &mut KernelStats::new());
        assert_eq!(out.len(), data.len());
    }

    #[test]
    fn bit_known_transpose() {
        // Two u8 words: 0b1000_0000 and 0b0000_0001. Plane 7 (MSB) = bits
        // [1,0]; planes 6..1 = [0,0]; plane 0 = [0,1].
        let data = [0b1000_0000u8, 0b0000_0001];
        let mut out = Vec::new();
        Bit::<1>.encode_chunk(&data, &mut out, &mut KernelStats::new());
        assert_eq!(out, vec![0b1000_0000, 0b0000_0001]);
        // Three distinct-plane words at W=1, n=8 so planes are byte-aligned.
        let data: Vec<u8> = vec![0xFF; 8];
        let mut out = Vec::new();
        Bit::<1>.encode_chunk(&data, &mut out, &mut KernelStats::new());
        assert_eq!(out, vec![0xFF; 8]);
    }

    #[test]
    fn bit_stats_differ_by_width_class() {
        let data = sample(8192);
        let mut s12 = KernelStats::new();
        Bit::<2>.encode_chunk(&data, &mut Vec::new(), &mut s12);
        assert_eq!(s12.warp_shuffles, 0, "BIT_2 uses no shuffles");
        let mut s48 = KernelStats::new();
        Bit::<4>.encode_chunk(&data, &mut Vec::new(), &mut s48);
        assert!(s48.warp_shuffles > 0, "BIT_4 uses warp shuffles");
        assert!(s48.scan_steps > 0);
    }

    #[test]
    fn tupl_names() {
        assert_eq!(Tupl::<2, 1>.name(), "TUPL2_1");
        assert_eq!(Tupl::<2, 2>.name(), "TUPL2_2");
        assert_eq!(Tupl::<4, 1>.name(), "TUPL4_1");
        assert_eq!(Tupl::<4, 2>.name(), "TUPL4_2");
        assert_eq!(Tupl::<8, 1>.name(), "TUPL8_1");
        assert_eq!(Tupl::<8, 4>.name(), "TUPL8_4");
        assert_eq!(Tupl::<2, 1>.tuple_size(), Some(2));
    }

    #[test]
    fn tupl_roundtrips_all_variants_and_lengths() {
        for len in [0usize, 1, 2, 3, 4, 15, 16, 17, 100, 4096, 16384] {
            let data = sample(len);
            roundtrip_component(&Tupl::<2, 1>, &data);
            roundtrip_component(&Tupl::<2, 2>, &data);
            roundtrip_component(&Tupl::<4, 1>, &data);
            roundtrip_component(&Tupl::<4, 2>, &data);
            roundtrip_component(&Tupl::<8, 1>, &data);
            roundtrip_component(&Tupl::<8, 4>, &data);
        }
    }

    #[test]
    fn tupl2_interleaves_as_documented() {
        // x1 y1 x2 y2 → x1 x2 y1 y2 (paper §3.2.2 example).
        let data = [b'x', b'1', b'y', b'1', b'x', b'2', b'y', b'2'];
        let mut out = Vec::new();
        Tupl::<2, 2>.encode_chunk(&data, &mut out, &mut KernelStats::new());
        assert_eq!(out, [b'x', b'1', b'x', b'2', b'y', b'1', b'y', b'2']);
    }

    #[test]
    fn tupl_partial_tuple_passes_through() {
        let data = sample(10); // one complete 4×2-byte tuple + 2 tail bytes
        let mut out = Vec::new();
        Tupl::<4, 2>.encode_chunk(&data, &mut out, &mut KernelStats::new());
        assert_eq!(&out[8..], &data[8..]);
    }
}
