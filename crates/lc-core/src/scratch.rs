//! Reusable stage buffers and stage-granular (de)compression entry
//! points.
//!
//! The chunk pipeline is a ping-pong: stage `s` reads the previous
//! stage's output and writes a fresh buffer. Naively that is two `Vec`
//! allocations per chunk (plus a defensive copy of the input), times
//! hundreds of thousands of chunk×pipeline executions in a campaign
//! sweep. A [`Scratch`] arena is the allocation-free alternative: one
//! pair of buffers owned by a pool worker and reused for every chunk
//! that worker claims — the in-memory analogue of a GPU thread block
//! reusing its shared-memory staging area across grid-stride
//! iterations.
//!
//! Ownership rules (see DESIGN.md §11):
//!
//! * a `Scratch` belongs to exactly one worker; it is never shared;
//! * stage inputs may alias `a` while the stage writes `b` (or vice
//!   versa), never the same buffer — the free functions below take
//!   input and output as separate parameters so the borrow checker
//!   enforces this;
//! * contents are only valid until the next stage call; callers that
//!   need the final bytes copy them out (exact-size, once per chunk).
//!
//! [`encode_stage`] and [`decode_stage`] are the single authoritative
//! implementation of LC's copy-on-expand rule. Their callers are the
//! archive's chunk engine — which both containers run, the in-memory
//! archive and the [`crate::stream`] framing — and the study runner, so
//! the "skip a reducer that failed to shrink" decision cannot drift
//! between them.

use crate::component::{Component, ComponentKind};
use crate::error::DecodeError;
use crate::stats::KernelStats;

/// A pair of reusable pipeline buffers owned by one worker.
///
/// Fields are public so drivers can ping-pong between them with
/// disjoint borrows (`&scratch.a` as input while `&mut scratch.b` is
/// the output). Capacity is retained across chunks; a worker's arena
/// reaches steady state after its first chunk and allocates nothing
/// thereafter (unless a stage genuinely expands past prior capacity).
#[derive(Debug, Default)]
pub struct Scratch {
    /// First ping-pong buffer.
    pub a: Vec<u8>,
    /// Second ping-pong buffer.
    pub b: Vec<u8>,
}

impl Scratch {
    /// Fresh arena with empty buffers (they grow to chunk size on first
    /// use and then stay).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently reserved by both buffers.
    pub fn capacity(&self) -> usize {
        self.a.capacity() + self.b.capacity()
    }
}

/// Run one encode stage: clear `out`, transform `input` into it, and
/// decide whether the stage *applies* under LC's copy-on-expand rule.
///
/// Returns `true` when the stage output should replace the chunk bytes
/// (always, for size-preserving components) and `false` when a reducer
/// failed to strictly shrink the chunk — in that case `out` contents
/// are garbage and the caller forwards `input` unchanged, leaving the
/// chunk's mask bit clear so the decoder skips the stage entirely.
pub fn encode_stage(
    comp: &dyn Component,
    input: &[u8],
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
) -> bool {
    out.clear();
    comp.encode_batch(
        std::slice::from_ref(&input),
        std::slice::from_mut(out),
        stats,
    );
    stage_applies(comp, input.len(), out.len())
}

/// LC's copy-on-expand rule for one chunk of one encode stage.
fn stage_applies(comp: &dyn Component, in_len: usize, out_len: usize) -> bool {
    match comp.kind() {
        // A reducer only "wins" if it strictly shrinks the chunk;
        // otherwise LC forwards the original bytes (copy-on-expand).
        ComponentKind::Reducer => out_len < in_len,
        // Size-preserving components always apply.
        _ => {
            debug_assert_eq!(out_len, in_len, "{} changed size", comp.name());
            true
        }
    }
}

/// Run one encode stage over a whole batch of chunks in one
/// [`Component::encode_batch`] call, then apply the copy-on-expand rule
/// per chunk.
///
/// Each `outs[i]` is cleared and receives chunk `i`'s stage output;
/// `applied[i]` in the returned vector says whether that output replaces
/// the chunk (when `false` the caller forwards `inputs[i]` unchanged and
/// `outs[i]` contents are garbage). Because outputs stay per-chunk, a
/// discarded (skipped) chunk contributes its encode cost exactly once —
/// the batch boundary adds no double counting relative to
/// `inputs.len()` separate [`encode_stage`] calls, a property the
/// equivalence tests in `lc-study` pin down to bitwise-equal
/// [`KernelStats`].
///
/// Panics (debug) when `inputs` and `outs` lengths differ.
pub fn encode_stage_batch(
    comp: &dyn Component,
    inputs: &[&[u8]],
    outs: &mut [Vec<u8>],
    stats: &mut KernelStats,
) -> Vec<bool> {
    debug_assert_eq!(inputs.len(), outs.len(), "batch arity mismatch");
    for out in outs.iter_mut() {
        out.clear();
    }
    comp.encode_batch(inputs, outs, stats);
    inputs
        .iter()
        .zip(outs.iter())
        .map(|(input, out)| stage_applies(comp, input.len(), out.len()))
        .collect()
}

/// Run one decode stage: clear `out` and invert `input` into it.
///
/// The caller is responsible for only invoking this for stages whose
/// mask bit is set (skipped stages have nothing to undo).
pub fn decode_stage(
    comp: &dyn Component,
    input: &[u8],
    out: &mut Vec<u8>,
    stats: &mut KernelStats,
) -> Result<(), DecodeError> {
    out.clear();
    comp.decode_batch(
        std::slice::from_ref(&input),
        std::slice::from_mut(out),
        stats,
    )
}

/// Invert one stage over a whole batch of chunks in one
/// [`Component::decode_batch`] call.
///
/// The caller passes only chunks whose mask bit is set (skipped stages
/// have nothing to undo). Each `outs[i]` is cleared first. On a corrupt
/// chunk the error is returned immediately; earlier chunks are decoded,
/// later ones untouched.
pub fn decode_stage_batch(
    comp: &dyn Component,
    inputs: &[&[u8]],
    outs: &mut [Vec<u8>],
    stats: &mut KernelStats,
) -> Result<(), DecodeError> {
    debug_assert_eq!(inputs.len(), outs.len(), "batch arity mismatch");
    for out in outs.iter_mut() {
        out.clear();
    }
    comp.decode_batch(inputs, outs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::{AddOne, DropTrailingZeros};

    #[test]
    fn encode_stage_applies_mutators_unconditionally() {
        let mut scratch = Scratch::new();
        let mut ks = KernelStats::default();
        let input = vec![1u8, 2, 3, 0xFF];
        let applied = encode_stage(&AddOne, &input, &mut scratch.a, &mut ks);
        assert!(applied);
        assert_eq!(scratch.a, vec![2, 3, 4, 0]);
    }

    #[test]
    fn encode_stage_skips_non_shrinking_reducer() {
        let mut scratch = Scratch::new();
        let mut ks = KernelStats::default();
        // No trailing zeros: DTZ adds a header and expands, so it must
        // report "not applied".
        let input: Vec<u8> = (1..=64).collect();
        assert!(!encode_stage(
            &DropTrailingZeros,
            &input,
            &mut scratch.a,
            &mut ks
        ));
        // Trailing zeros: DTZ shrinks and applies.
        let mut zeros = vec![7u8; 16];
        zeros.extend(std::iter::repeat_n(0u8, 48));
        assert!(encode_stage(
            &DropTrailingZeros,
            &zeros,
            &mut scratch.a,
            &mut ks
        ));
        assert!(scratch.a.len() < zeros.len());
    }

    #[test]
    fn stage_roundtrip_through_both_buffers() {
        let mut scratch = Scratch::new();
        let mut ks = KernelStats::default();
        let input = vec![10u8, 20, 30];
        assert!(encode_stage(&AddOne, &input, &mut scratch.a, &mut ks));
        decode_stage(&AddOne, &scratch.a, &mut scratch.b, &mut ks).unwrap();
        assert_eq!(scratch.b, input);
    }

    #[test]
    fn batch_stage_matches_singles_including_skips() {
        // One shrinking chunk, one expanding chunk: the batch call must
        // report the same per-chunk apply decisions, the same bytes, and
        // the same accumulated stats as two single-chunk calls.
        let mut zeros = vec![7u8; 16];
        zeros.extend(std::iter::repeat_n(0u8, 48));
        let dense: Vec<u8> = (1..=64).collect();
        let chunks: [&[u8]; 2] = [&zeros, &dense];

        let mut single_outs = [Vec::new(), Vec::new()];
        let mut single_stats = KernelStats::default();
        let single_applied: Vec<bool> = chunks
            .iter()
            .zip(single_outs.iter_mut())
            .map(|(c, out)| encode_stage(&DropTrailingZeros, c, out, &mut single_stats))
            .collect();

        let mut batch_outs = vec![Vec::new(), Vec::new()];
        let mut batch_stats = KernelStats::default();
        let batch_applied = encode_stage_batch(
            &DropTrailingZeros,
            &chunks,
            &mut batch_outs,
            &mut batch_stats,
        );

        assert_eq!(batch_applied, single_applied);
        assert_eq!(batch_applied, vec![true, false]);
        assert_eq!(batch_outs[0], single_outs[0]);
        assert_eq!(batch_stats, single_stats);

        // Decode the applied chunk back through the batch entry point.
        let enc = batch_outs[0].clone();
        let dec_in: [&[u8]; 1] = [&enc];
        let mut dec_outs = vec![Vec::new()];
        decode_stage_batch(&DropTrailingZeros, &dec_in, &mut dec_outs, &mut batch_stats).unwrap();
        assert_eq!(dec_outs[0], zeros);
    }

    #[test]
    fn buffers_retain_capacity_across_chunks() {
        let mut scratch = Scratch::new();
        let mut ks = KernelStats::default();
        let big = vec![3u8; 16 * 1024];
        encode_stage(&AddOne, &big, &mut scratch.a, &mut ks);
        let cap = scratch.capacity();
        assert!(cap >= 16 * 1024);
        // A smaller chunk must not shrink the arena.
        encode_stage(&AddOne, &[1, 2, 3], &mut scratch.a, &mut ks);
        assert_eq!(scratch.capacity(), cap);
    }
}
