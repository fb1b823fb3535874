//! RLE: run-length encoding (paper §3.2.4).
//!
//! The encoder counts how many times a value appears in a row, then how
//! many non-repeating values follow. Both counts are emitted, followed by
//! a single instance of the repeating value and all the non-repeating
//! values. Decoding replays the runs — Θ(1) span (paper Table 2), since
//! every output position can be computed independently once the record
//! offsets are known.
//!
//! Body layout after the shared reducer frame (repeated until `n_words`
//! are covered):
//!
//! ```text
//! varint  run_len    ≥ 1: how often the run value repeats
//! varint  lit_count  non-repeating values that follow the run
//! word    value      the run value (W bytes)
//! word×lit_count     the literal values
//! ```
//!
//! On the paper's single-precision inputs, only RLE_4 regularly finds runs
//! (4-byte values repeat; their halves/bytes rarely do), so RLE_1/2/8
//! expand, get skipped by copy-on-expand, and then decode at copy speed —
//! the Fig. 11 effect.

use lc_core::{
    Complexity, Component, ComponentKind, Contract, DecodeError, ExpansionBound, KernelStats,
    SizeDeterminant, SpanClass, WorkClass,
};

use super::{account_compaction_scan, read_frame, write_frame};
use crate::kernels;

/// RLE_i: run-length encoding at word size `W`.
pub(crate) struct Rle<const W: usize>;

impl<const W: usize> Component for Rle<W> {
    fn name(&self) -> &'static str {
        match W {
            1 => "RLE_1",
            2 => "RLE_2",
            4 => "RLE_4",
            8 => "RLE_8",
            _ => unreachable!("unsupported word size"),
        }
    }
    fn kind(&self) -> ComponentKind {
        ComponentKind::Reducer
    }
    fn word_size(&self) -> usize {
        W
    }
    fn complexity(&self) -> Complexity {
        // Encode needs run-boundary scans (Θ(log n) span); decode replays
        // runs with Θ(1) span (paper Table 2).
        Complexity::new(
            WorkClass::N,
            SpanClass::LogN,
            WorkClass::N,
            SpanClass::Const,
        )
    }

    fn kernel_variant(&self) -> lc_core::KernelVariant {
        kernels::rle::variant::<W>()
    }

    fn contract(&self) -> Contract {
        // Worst case, every record covers one run word (run=1, lits=0 —
        // only possible when a run of ≥ 2 follows, so ≥ 1.5 words/record
        // on average, but ≤ n records is the safe count): each record
        // stores ≤ covered_words·W value bytes plus ≤ 6 varint bytes, so
        // body ≤ n·W + 6n and the frame adds ≤ W + 3 bytes. Declared as
        // max_bytes(len) = len·(W+6)/W + 16.
        //
        // Size determinant: records are emitted from the run/literal
        // structure of the complete W-byte words — exactly their
        // adjacent-equality pattern — with literal words copied
        // verbatim, so |output| and both directions' kernel statistics
        // are functions of the length and that pattern alone.
        Contract::reducer(W, ExpansionBound::affine(W as u64 + 6, W as u64, 16))
            .with_size_determinant(SizeDeterminant::EqualityPattern)
    }

    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
        let n = write_frame::<W>(input, out);
        // Records read their run and literal boundaries off the
        // neighbor-repeat bitmap (bit j ⇔ word j equals word j−1), built
        // 16–32 words per step by the SIMD bitmap kernel, 64 words at a
        // time instead of comparing words.
        let records = kernels::rle::encode_records::<W>(&input[..n * W], out);
        stats.words += n as u64;
        stats.thread_ops += n as u64 * 4;
        stats.global_reads += input.len() as u64;
        stats.global_writes += out.len() as u64;
        stats.shared_traffic += (n * W) as u64 * 2;
        stats.divergent_branches += records; // run boundaries diverge
        account_compaction_scan(stats, n);
    }

    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        let frame = read_frame::<W>(input)?;
        let n = frame.n_words;
        let mut pos = frame.body;
        let (records, run_words, lit_words) =
            kernels::rle::decode_records::<W>(input, &mut pos, n, out)?;
        out.extend_from_slice(frame.tail);
        stats.words += n as u64;
        // Replaying runs is Θ(1)-span, but the cost is structural: literal
        // regions stream out at copy speed (cost per *byte*, independent
        // of the word size), run regions are broadcast stores, and every
        // record boundary forces an irregular, divergent lookup whose
        // position depends on all prior records — the GPU decoder resolves
        // the chain with intra-block searches that cost two orders of
        // magnitude more per record than a streamed literal byte. Chunks
        // dense in short records (what RLE_4 produces on quantized float
        // data) therefore decode markedly slower than chunks that are one
        // long literal record — the asymmetry behind Fig. 11.
        let lit_bytes = lit_words * W as u64;
        let run_bytes = run_words * W as u64;
        stats.thread_ops += lit_bytes / 2 + run_bytes / 4 + records * 96;
        stats.global_reads += input.len() as u64;
        stats.global_writes += out.len() as u64;
        stats.shared_traffic += (n * W) as u64;
        stats.divergent_branches += records * 2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::verify::roundtrip_component;

    #[test]
    fn roundtrips_all_widths_and_lengths() {
        for len in [0usize, 1, 3, 4, 8, 100, 1000, 16384] {
            let data: Vec<u8> = (0..len).map(|i| ((i / 7) % 256) as u8).collect();
            roundtrip_component(&Rle::<1>, &data);
            roundtrip_component(&Rle::<2>, &data);
            roundtrip_component(&Rle::<4>, &data);
            roundtrip_component(&Rle::<8>, &data);
        }
    }

    #[test]
    fn compresses_runs() {
        let mut vals = vec![7u32; 2000];
        vals.extend((0..48).map(|i| i * 13 + 1));
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let size = roundtrip_component(&Rle::<4>, &data);
        assert!(size < data.len() / 10, "{size} vs {}", data.len());
    }

    #[test]
    fn expands_on_run_free_data() {
        let vals: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let size = roundtrip_component(&Rle::<4>, &data);
        assert!(size > data.len(), "no runs → frame overhead must expand");
    }

    #[test]
    fn word_size_determines_visibility_of_runs() {
        // Repeating 4-byte value whose bytes never repeat back-to-back:
        // RLE_4 compresses, RLE_1 cannot.
        let v: u32 = u32::from_le_bytes([1, 2, 3, 4]);
        let vals = vec![v; 4096];
        let data: Vec<u8> = vals.iter().flat_map(|x| x.to_le_bytes()).collect();
        let s4 = roundtrip_component(&Rle::<4>, &data);
        let s1 = roundtrip_component(&Rle::<1>, &data);
        assert!(s4 < data.len() / 100, "RLE_4 sees the runs: {s4}");
        assert!(s1 > data.len() / 2, "RLE_1 sees no runs: {s1}");
    }

    #[test]
    fn alternating_runs_and_literals() {
        // 5×a, b, c, 3×d, e — checks record segmentation.
        let mut vals = vec![10u16; 5];
        vals.extend([20, 30]);
        vals.extend([40u16; 3]);
        vals.push(50);
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        roundtrip_component(&Rle::<2>, &data);
    }

    #[test]
    fn decode_rejects_zero_run() {
        let data: Vec<u8> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let mut enc = Vec::new();
        Rle::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        // Frame is varint(2) + tail_len(0) = 2 bytes; next varint is run_len.
        enc[2] = 0;
        let mut out = Vec::new();
        assert!(Rle::<4>
            .decode_chunk(&enc, &mut out, &mut KernelStats::new())
            .is_err());
    }

    #[test]
    fn decode_rejects_counts_past_the_word_count() {
        // Counts whose sum wraps a `usize` must not pass the overrun
        // check: the replay writes into capacity reserved for `n` words.
        let data = vec![3u8; 64];
        let mut enc = Vec::new();
        Rle::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        let frame = 2; // varint(16) + tail_len(0)
        for (run, lits) in [(u64::MAX, 1), (1 << 63, 1 << 63), (17, 0), (16, 1)] {
            let mut bad = enc[..frame].to_vec();
            crate::util::varint::write(&mut bad, run);
            crate::util::varint::write(&mut bad, lits);
            bad.extend_from_slice(&[3; 64]);
            let mut out = Vec::new();
            assert!(
                matches!(
                    Rle::<4>.decode_chunk(&bad, &mut out, &mut KernelStats::new()),
                    Err(DecodeError::Corrupt { .. })
                ),
                "run={run} lits={lits}"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let vals = vec![9u32; 100];
        let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut enc = Vec::new();
        Rle::<4>.encode_chunk(&data, &mut enc, &mut KernelStats::new());
        for cut in 0..enc.len() {
            let mut out = Vec::new();
            assert!(
                Rle::<4>
                    .decode_chunk(&enc[..cut], &mut out, &mut KernelStats::new())
                    .is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn divergence_tracks_record_count() {
        let mut s_runs = KernelStats::new();
        let runs: Vec<u8> = vec![5; 1000];
        Rle::<1>.encode_chunk(&runs, &mut Vec::new(), &mut s_runs);
        let mut s_many = KernelStats::new();
        // Runs of length 2 force a record every other byte.
        let many_runs: Vec<u8> = (0..1000).map(|i| ((i / 2) % 251) as u8).collect();
        Rle::<1>.encode_chunk(&many_runs, &mut Vec::new(), &mut s_many);
        assert!(s_runs.divergent_branches < s_many.divergent_branches);
    }
}
