//! Differential tests: every SIMD kernel tier must be bitwise equal to
//! the scalar reference on adversarial inputs.
//!
//! The matrix is kernels × word sizes × lengths (0 through ~3 vector
//! widths, ±1 to hit every remainder shape) × patterns (zeros, constants,
//! ramps, alternations, float shapes, high-entropy). Tiers above the
//! detected CPU are clamped inside the `*_with` entry points, so the
//! suite passes — exercising whatever is reachable — on any x86-64 or
//! non-x86 machine. Under `LC_KERNELS=scalar` (or Miri) only the portable
//! paths run, which keeps this suite usable as a UB check on the safe
//! fallbacks.

mod patterns;

use lc_components::kernels::{self, bitmap, bitplane, diff, pointwise, rle, tuple, Variant};
use patterns::{patterns, xorshift, LENGTHS};

/// [`patterns`] plus one whose 8-byte blocks are zero, a repeat of the
/// block before, or noise in equal parts: both marks then see mixed
/// bitmap bytes at every word size, which none of the byte-granular
/// patterns gives `IsZero` above `W = 1`.
fn marked_patterns(len: usize) -> Vec<Vec<u8>> {
    let mut rng = xorshift(0xD1B5_4A32_D192_ED03 ^ len as u64);
    let mut sparse = Vec::with_capacity(len + 8);
    while sparse.len() < len {
        let r = rng();
        let block = match r % 3 {
            0 => [0u8; 8],
            1 if sparse.len() >= 8 => sparse[sparse.len() - 8..].try_into().unwrap(),
            _ => rng().to_le_bytes(),
        };
        sparse.extend_from_slice(&block);
    }
    sparse.truncate(len);
    let mut all = patterns(len);
    all.push(sparse);
    all
}

fn tiers() -> Vec<Variant> {
    let t = kernels::available();
    assert!(t.contains(&Variant::Scalar), "scalar is always reachable");
    t
}

#[test]
fn pointwise_all_tiers_match_scalar() {
    fn check<const W: usize>() {
        for &len in LENGTHS {
            for input in patterns(len) {
                for op in pointwise::Op::ALL {
                    // DBEFS/DBESF only exist at float widths.
                    if W < 4
                        && matches!(
                            op,
                            pointwise::Op::DbefsEnc
                                | pointwise::Op::DbefsDec
                                | pointwise::Op::DbesfEnc
                                | pointwise::Op::DbesfDec
                        )
                    {
                        continue;
                    }
                    let mut want = Vec::new();
                    pointwise::apply_with::<W>(Variant::Scalar, op, &input, &mut want);
                    for v in tiers() {
                        let mut got = Vec::new();
                        pointwise::apply_with::<W>(v, op, &input, &mut got);
                        assert_eq!(got, want, "W={W} {op:?} {v:?} len={len}");
                    }
                }
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

#[test]
fn diff_all_tiers_match_scalar_and_roundtrip() {
    fn check<const W: usize>() {
        for &len in LENGTHS {
            for input in patterns(len) {
                for r in diff::Residual::ALL {
                    let mut want = Vec::new();
                    diff::encode_with::<W>(Variant::Scalar, r, &input, &mut want);
                    for v in tiers() {
                        let mut got = Vec::new();
                        diff::encode_with::<W>(v, r, &input, &mut got);
                        assert_eq!(got, want, "enc W={W} {r:?} {v:?} len={len}");
                        let mut back = Vec::new();
                        diff::decode_with::<W>(v, r, &got, &mut back);
                        assert_eq!(back, input, "roundtrip W={W} {r:?} {v:?} len={len}");
                    }
                }
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

fn naive_filter<const W: usize>(src: &[u8], bm: &[u8], n: usize) -> Vec<u8> {
    (0..n)
        .filter(|i| bm[i / 8] & (1 << (i % 8)) == 0)
        .flat_map(|i| src[i * W..(i + 1) * W].iter().copied())
        .collect()
}

#[test]
fn bitmap_all_tiers_match_scalar() {
    fn check<const W: usize>() {
        for &len in LENGTHS {
            for input in patterns(len) {
                let src = &input[..(input.len() / W) * W];
                let n = src.len() / W;
                for mk in bitmap::Mark::ALL {
                    let mut want = Vec::new();
                    let want_kept = bitmap::build_with::<W>(Variant::Scalar, mk, src, &mut want);
                    for v in tiers() {
                        let mut got = Vec::new();
                        let kept = bitmap::build_with::<W>(v, mk, src, &mut got);
                        assert_eq!(got, want, "bitmap W={W} {mk:?} {v:?} len={len}");
                        assert_eq!(kept, want_kept, "kept W={W} {mk:?} {v:?} len={len}");
                    }
                    let unmarked = (0..n).filter(|i| want[i / 8] & (1 << (i % 8)) == 0);
                    assert_eq!(unmarked.count(), want_kept, "W={W} {mk:?} len={len}");
                }
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

/// `expand_with` at tier `v`, reading survivors from `buf` at `lead`:
/// the cursor and the appended words on success, the error otherwise
/// (what `out` holds after an error is unspecified).
fn run_expand<const W: usize>(
    v: Variant,
    mk: bitmap::Mark,
    bm: &[u8],
    n: usize,
    buf: &[u8],
    lead: usize,
) -> Result<(usize, Vec<u8>), lc_core::DecodeError> {
    let mut pos = lead;
    let mut out = vec![0xAA]; // expand appends
    bitmap::expand_with::<W>(v, mk, bm, n, buf, &mut pos, &mut out)?;
    Ok((pos, out.split_off(1)))
}

#[test]
fn emit_expand_all_tiers_match_scalar() {
    // The LUT-shuffle compaction and expansion against the portable
    // loops, for every word size and both marks. `expand` runs with the
    // survivors behind 0, 1 and 8 header bytes (the one-word-back window
    // of `RepeatsPrior` must give way to the portable loop when the
    // header is shorter than a word) and on cut survivor streams, where
    // every tier must fail with the portable loop's error.
    fn check<const W: usize>() {
        for &len in LENGTHS {
            for input in marked_patterns(len) {
                let src = &input[..(input.len() / W) * W];
                let n = src.len() / W;
                for mk in bitmap::Mark::ALL {
                    let mut bm = Vec::new();
                    let kept = bitmap::build_with::<W>(Variant::Scalar, mk, src, &mut bm);
                    let surv = naive_filter::<W>(src, &bm, n);
                    for v in tiers() {
                        let mut got = vec![0xAA]; // emit appends
                        bitmap::emit_with::<W>(v, src, &bm, kept, &mut got);
                        assert_eq!(got[1..], surv, "emit W={W} {mk:?} {v:?} len={len}");
                        for lead in [0usize, 1, 8] {
                            let mut framed = vec![0x5A; lead];
                            framed.extend_from_slice(&surv);
                            let whole = run_expand::<W>(v, mk, &bm, n, &framed, lead);
                            assert_eq!(
                                whole,
                                Ok((framed.len(), src.to_vec())),
                                "expand W={W} {mk:?} {v:?} len={len} lead={lead}"
                            );
                            for cut in [surv.len() / 2, surv.len().saturating_sub(1)] {
                                let buf = &framed[..lead + cut];
                                assert_eq!(
                                    run_expand::<W>(v, mk, &bm, n, buf, lead),
                                    run_expand::<W>(Variant::Scalar, mk, &bm, n, buf, lead),
                                    "cut W={W} {mk:?} {v:?} len={len} lead={lead} cut={cut}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

#[test]
fn expand_handles_arbitrary_bitmaps_and_load_boundaries() {
    // Bitmaps no encoder produced (random bits, so word 0 is marked in
    // half of them: `Corrupt` under `RepeatsPrior`), over a survivor
    // stream that ends exactly where the last survivor does, one byte
    // early, and 32 bytes late. With the all-kept bitmap the stream ends
    // exactly on a 16- or 32-byte window boundary.
    fn check<const W: usize>() {
        let mut rng = xorshift(0x0123_4567_89AB_CDEF ^ W as u64);
        for n in [8usize, 16, 24, 64, 100] {
            for case in 0..12 {
                let mut bm: Vec<u8> = (0..n.div_ceil(8)).map(|_| rng() as u8).collect();
                match case {
                    0 => bm.fill(0x00),
                    1 => bm.fill(0xFF),
                    2 => bm[0] = 0xFE,
                    _ => {}
                }
                let kept = (0..n).filter(|i| bm[i / 8] & (1 << (i % 8)) == 0).count();
                let lead = 8;
                let stream: Vec<u8> = (0..lead + kept * W + 32).map(|_| rng() as u8).collect();
                for mk in bitmap::Mark::ALL {
                    for end in [
                        lead + kept * W,
                        (lead + kept * W).max(lead + 1) - 1,
                        stream.len(),
                    ] {
                        let buf = &stream[..end];
                        let want = run_expand::<W>(Variant::Scalar, mk, &bm, n, buf, lead);
                        if mk == bitmap::Mark::RepeatsPrior && bm[0] & 1 != 0 {
                            assert!(
                                matches!(want, Err(lc_core::DecodeError::Corrupt { .. })),
                                "{want:?}"
                            );
                        }
                        for v in tiers() {
                            assert_eq!(
                                run_expand::<W>(v, mk, &bm, n, buf, lead),
                                want,
                                "W={W} {mk:?} {v:?} n={n} case={case} end={end}"
                            );
                        }
                    }
                }
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

#[test]
fn bitplane_all_tiers_match_scalar_and_roundtrip() {
    fn check<const W: usize>() {
        for &len in LENGTHS {
            for input in patterns(len) {
                let mut want = Vec::new();
                bitplane::encode_with::<W>(Variant::Scalar, &input, &mut want);
                for v in tiers() {
                    let mut got = Vec::new();
                    bitplane::encode_with::<W>(v, &input, &mut got);
                    assert_eq!(got, want, "enc W={W} {v:?} len={len}");
                    let mut back = Vec::new();
                    bitplane::decode_with::<W>(v, &got, &mut back).unwrap();
                    assert_eq!(back, input, "roundtrip W={W} {v:?} len={len}");
                }
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

#[test]
fn bitplane_blocked_transpose_matches_the_bitstream_definition() {
    // The format's definition, bit by bit: plane b−1 first, one bit per
    // word, word 0 at the MSB of each byte. Every word count up to three
    // 32-word blocks (so every residue mod 8, where plane rows straddle
    // bytes), a full 16 KiB chunk's worth and one just off its grid.
    fn naive<const W: usize>(input: &[u8], n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n * W];
        let mut k = 0usize;
        for bit in (0..8 * W).rev() {
            for w in 0..n {
                if input[w * W + bit / 8] >> (bit % 8) & 1 != 0 {
                    out[k / 8] |= 0x80 >> (k % 8);
                }
                k += 1;
            }
        }
        out
    }
    fn check<const W: usize>() {
        let mut rng = xorshift(0xB17_B10C ^ W as u64);
        for n in (0..=100).chain([4093, 4096]) {
            let input: Vec<u8> = (0..n * W).map(|_| rng() as u8).collect();
            let want = naive::<W>(&input, n);
            for v in tiers() {
                let mut got = Vec::new();
                bitplane::encode_with::<W>(v, &input, &mut got);
                assert_eq!(got, want, "enc W={W} {v:?} n={n}");
                let mut back = Vec::new();
                bitplane::decode_with::<W>(v, &got, &mut back).unwrap();
                assert_eq!(back, input, "dec W={W} {v:?} n={n}");
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

#[test]
fn tuple_all_tiers_match_scalar_and_roundtrip() {
    fn check<const K: usize, const W: usize>() {
        for &len in LENGTHS {
            for input in patterns(len) {
                let mut want = Vec::new();
                tuple::encode_with::<K, W>(Variant::Scalar, &input, &mut want);
                for v in tiers() {
                    let mut got = Vec::new();
                    tuple::encode_with::<K, W>(v, &input, &mut got);
                    assert_eq!(got, want, "enc K={K} W={W} {v:?} len={len}");
                    let mut back = Vec::new();
                    tuple::decode_with::<K, W>(v, &got, &mut back);
                    assert_eq!(back, input, "roundtrip K={K} W={W} {v:?} len={len}");
                }
            }
        }
    }
    check::<2, 1>();
    check::<2, 2>();
    check::<4, 1>();
    check::<4, 2>();
    check::<8, 1>();
    check::<8, 4>();
}

#[test]
fn rle_bit_scans_match_naive_on_corpus_bitmaps() {
    // The RLE record walk is safe portable code; differential-check it
    // against the naive per-record scan over bitmaps built from the
    // corpus, and from words shaped so that runs start, end and straddle
    // 64-word boundaries: n ∈ {1, 63, 64, 65, …}, all repeats, no
    // repeats, and runs of every length up to 70.
    fn naive(bm: &[u8], n: usize) -> Vec<(usize, usize, usize)> {
        let set = |i: usize| i < n && bm[i / 8] & (1 << (i % 8)) != 0;
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let run_end = (i + 1..=n).find(|&j| !set(j)).unwrap_or(n);
            let lit_end = (run_end + 1..n).find(|&j| set(j)).map_or(n, |q| q - 1);
            out.push((i, run_end, lit_end));
            i = lit_end;
        }
        out
    }
    fn check(src: &[u8], what: &str) {
        let n = src.len() / 4;
        let mut bm = Vec::new();
        bitmap::build::<4>(bitmap::Mark::RepeatsPrior, &src[..n * 4], &mut bm);
        let mut got = Vec::new();
        rle::for_each_record(&bm, n, |s, r, l| got.push((s, r, l)));
        assert_eq!(got, naive(&bm, n), "{what} n={n}");
    }
    for &len in LENGTHS {
        for input in patterns(len) {
            check(&input, "corpus");
        }
    }
    let mut rng = xorshift(0x5EED_2E5E);
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1000] {
        let shaped: [(&str, Vec<u32>); 4] = [
            ("all repeats", vec![7; n]),
            ("no repeats", (0..n as u32).collect()),
            // Each 63-word run starts one word earlier in its 64-word
            // block than the last, so the runs straddle every boundary.
            ("long runs", (0..n as u32).map(|i| i / 63).collect()),
            ("random runs", {
                let mut v = Vec::with_capacity(n);
                while v.len() < n {
                    let (value, run) = (rng() as u32, 1 + (rng() % 70) as usize);
                    v.extend(std::iter::repeat_n(value, run.min(n - v.len())));
                }
                v
            }),
        ];
        for (what, words) in shaped {
            let src: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            check(&src, what);
        }
    }
}
