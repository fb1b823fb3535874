//! Stats parity across kernel tiers: the SIMD tiers are a pure
//! performance overlay, so for every component, every adversarial input
//! and both directions, the output bytes and every `KernelStats` counter
//! at the detected tier equal those of the portable scalar path. The
//! campaign prices its figures from these counters, so a vector kernel
//! that counted differently would move a figure without failing a
//! roundtrip. (`lc-analyze/tests/kernel_equivalence.rs` compares the
//! encode counters over the analyzer corpus through the stage entry
//! points; this covers both directions over the differential suite's
//! inputs.)
//!
//! The tier cap is process-wide, so this file holds a single `#[test]`
//! and runs in its own test binary.

mod patterns;

use lc_components::kernels::{self, Variant};
use lc_core::KernelStats;
use patterns::{patterns, LENGTHS};

/// Chunk lengths beyond [`LENGTHS`]: word counts off the 8-word grid at
/// every word size, and a full 16 KiB chunk with one just short of it.
const CHUNK_LENGTHS: &[usize] = &[4093, 16380, 16384];

type Counters = [u64; KernelStats::COUNTERS];

/// What one encode then decode of `input` produces at tier `cap`: the
/// encoded bytes and counters, then the decoded bytes and counters.
type Run = (Vec<u8>, Counters, Vec<u8>, Counters);

fn run(cap: Variant, c: &dyn lc_core::Component, input: &[u8]) -> Run {
    kernels::set_tier_cap(cap);
    let (mut enc, mut enc_stats) = (Vec::new(), KernelStats::new());
    c.encode_chunk(input, &mut enc, &mut enc_stats);
    let (mut dec, mut dec_stats) = (Vec::new(), KernelStats::new());
    c.decode_chunk(&enc, &mut dec, &mut dec_stats)
        .unwrap_or_else(|e| panic!("{} {cap:?} len={}: {e}", c.name(), input.len()));
    (enc, enc_stats.counters(), dec, dec_stats.counters())
}

#[test]
fn every_component_counts_the_same_at_every_tier() {
    let detected = kernels::tier();
    let mut inputs = 0usize;
    for &len in LENGTHS.iter().chain(CHUNK_LENGTHS) {
        for input in patterns(len) {
            inputs += 1;
            for c in lc_components::all() {
                let want = run(Variant::Scalar, c.as_ref(), &input);
                assert_eq!(want.2, input, "{} scalar roundtrip len={len}", c.name());
                let got = run(detected, c.as_ref(), &input);
                let name = c.name();
                assert_eq!(got.0, want.0, "{name} {detected:?} encoded bytes len={len}");
                assert_eq!(got.1, want.1, "{name} {detected:?} encode stats len={len}");
                assert_eq!(got.2, want.2, "{name} {detected:?} decoded bytes len={len}");
                assert_eq!(got.3, want.3, "{name} {detected:?} decode stats len={len}");
            }
        }
    }
    kernels::set_tier_cap(detected);
    assert_eq!(lc_components::all().len(), 62);
    assert!(inputs >= 40, "{inputs} adversarial inputs");
}
