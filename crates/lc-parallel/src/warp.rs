//! SIMT warp emulation: `WS` lanes executing in lockstep.
//!
//! The paper's §4 is about porting warp-level CUDA primitives to AMD's
//! 64-thread wavefronts; its Listing 1 shows the prefix-sum kernel that
//! had to gain an extra `__shfl_up` level guarded by `#if WS == 64`. This
//! module reproduces those primitives *functionally* — lane-array in,
//! lane-array out — so the ported code path can be executed and tested on
//! the CPU at both warp sizes, including the exact bug the port fixes
//! (see `truncated_scan_is_wrong_at_warp64` below). Nothing outside these
//! tests runs the port, so the module is compiled only under
//! `#[cfg(test)]`.

/// Emulated `__shfl_up_sync`: every lane receives the value of the lane
/// `delta` below it; lanes whose source would be negative keep their own
/// value (CUDA semantics for out-of-range sources).
fn shfl_up<const WS: usize, T: Copy>(vals: &[T; WS], delta: usize) -> [T; WS] {
    let mut out = *vals;
    for lane in 0..WS {
        if lane >= delta {
            out[lane] = vals[lane - delta];
        }
    }
    out
}

/// Emulated `__shfl_xor_sync`: lane `i` receives the value of lane
/// `i ^ mask` (the butterfly used by BIT_4/BIT_8's transposes, §6.4).
fn shfl_xor<const WS: usize, T: Copy>(vals: &[T; WS], mask: usize) -> [T; WS] {
    let mut out = *vals;
    for (lane, slot) in out.iter_mut().enumerate() {
        let src = lane ^ mask;
        if src < WS {
            *slot = vals[src];
        }
    }
    out
}

/// Emulated `__ballot_sync`: bit `i` of the result is lane `i`'s predicate.
fn ballot<const WS: usize>(preds: &[bool; WS]) -> u64 {
    let mut word = 0u64;
    for (lane, &p) in preds.iter().enumerate() {
        if p {
            word |= 1 << lane;
        }
    }
    word
}

/// The paper's Listing 1: warp-inclusive prefix sum via `__shfl_up`.
///
/// ```text
/// int tmp = __shfl_up(val, 1);  if (lane >= 1)  val += tmp;
/// int tmp = __shfl_up(val, 2);  if (lane >= 2)  val += tmp;
/// …
/// int tmp = __shfl_up(val, 16); if (lane >= 16) val += tmp;
/// #if defined(WS) && (WS == 64)
/// int tmp = __shfl_up(val, 32); if (lane >= 32) val += tmp;   // the §4 fix
/// #endif
/// ```
///
/// The const generic replaces the preprocessor: `WS = 32` runs five
/// doubling steps, `WS = 64` runs six.
fn warp_inclusive_scan<const WS: usize>(vals: &[i64; WS]) -> [i64; WS] {
    let mut val = *vals;
    let mut delta = 1;
    while delta < WS {
        let tmp = shfl_up(&val, delta);
        for lane in 0..WS {
            if lane >= delta {
                val[lane] = val[lane].wrapping_add(tmp[lane]);
            }
        }
        delta *= 2;
    }
    val
}

/// The *unported* Listing 1: the loop stops after the `delta = 16` step
/// regardless of warp size — correct at `WS = 32`, silently wrong at
/// `WS = 64`. Kept so the tests (and readers) can see exactly what the
/// §4 port fixes.
fn warp_inclusive_scan_truncated<const WS: usize>(vals: &[i64; WS]) -> [i64; WS] {
    let mut val = *vals;
    let mut delta = 1;
    while delta < WS.min(32) {
        let tmp = shfl_up(&val, delta);
        for lane in 0..WS {
            if lane >= delta {
                val[lane] = val[lane].wrapping_add(tmp[lane]);
            }
        }
        delta *= 2;
    }
    val
}

/// Block-level inclusive prefix sum built from warp scans, the way LC's
/// decoder kernels do it: scan each warp, scan the warp totals, add the
/// carry — exercised here over `WARPS · WS` lanes.
fn block_inclusive_scan<const WS: usize>(vals: &[i64]) -> Vec<i64> {
    assert!(vals.len().is_multiple_of(WS), "block must be whole warps");
    let warps = vals.len() / WS;
    let mut out = vec![0i64; vals.len()];
    let mut warp_totals = vec![0i64; warps];
    for w in 0..warps {
        let mut lane_vals = [0i64; WS];
        lane_vals.copy_from_slice(&vals[w * WS..(w + 1) * WS]);
        let scanned = warp_inclusive_scan(&lane_vals);
        out[w * WS..(w + 1) * WS].copy_from_slice(&scanned);
        warp_totals[w] = scanned[WS - 1];
    }
    // Exclusive scan of warp totals (a tiny serial loop on the GPU too —
    // warp 0 handles it), then add carries.
    let mut carry = 0i64;
    for w in 0..warps {
        for lane in 0..WS {
            out[w * WS + lane] = out[w * WS + lane].wrapping_add(carry);
        }
        carry = carry.wrapping_add(warp_totals[w]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_inclusive(vals: &[i64]) -> Vec<i64> {
        let mut acc = 0i64;
        vals.iter()
            .map(|&v| {
                acc = acc.wrapping_add(v);
                acc
            })
            .collect()
    }

    fn lanes<const WS: usize>() -> [i64; WS] {
        let mut v = [0i64; WS];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as i64 * 37 + 11) % 101 - 50;
        }
        v
    }

    #[test]
    fn shfl_up_basic() {
        let vals: [i64; 32] = core::array::from_fn(|i| i as i64);
        let up2 = shfl_up(&vals, 2);
        assert_eq!(up2[0], 0, "out-of-range keeps own value");
        assert_eq!(up2[1], 1);
        assert_eq!(up2[2], 0);
        assert_eq!(up2[31], 29);
    }

    #[test]
    fn shfl_xor_is_an_involution() {
        let vals: [i64; 64] = core::array::from_fn(|i| i as i64 * 3);
        for mask in [1usize, 2, 4, 8, 16, 32] {
            let once = shfl_xor(&vals, mask);
            let twice = shfl_xor(&once, mask);
            assert_eq!(twice, vals, "mask {mask}");
        }
    }

    #[test]
    fn ballot_packs_lane_predicates() {
        let mut preds = [false; 64];
        preds[0] = true;
        preds[63] = true;
        preds[10] = true;
        assert_eq!(ballot(&preds), (1 << 0) | (1 << 10) | (1 << 63));
    }

    #[test]
    fn listing1_scan_correct_at_warp32() {
        let v = lanes::<32>();
        assert_eq!(warp_inclusive_scan(&v).to_vec(), reference_inclusive(&v));
    }

    #[test]
    fn listing1_scan_correct_at_warp64_with_the_port() {
        let v = lanes::<64>();
        assert_eq!(warp_inclusive_scan(&v).to_vec(), reference_inclusive(&v));
    }

    #[test]
    fn truncated_scan_is_wrong_at_warp64() {
        // The exact §4 bug: without the extra shfl_up(32) level, lanes
        // 32..63 miss the contribution of lanes 0..31.
        let v = lanes::<64>();
        let broken = warp_inclusive_scan_truncated(&v);
        let correct = reference_inclusive(&v);
        assert_eq!(&broken[..32], &correct[..32], "low half is fine");
        assert_ne!(
            &broken[32..],
            &correct[32..64],
            "high half is silently wrong"
        );
        // And the same truncation is NOT a bug at warp 32.
        let v32 = lanes::<32>();
        assert_eq!(
            warp_inclusive_scan_truncated(&v32).to_vec(),
            reference_inclusive(&v32)
        );
    }

    #[test]
    fn block_scan_matches_reference_at_both_warp_sizes() {
        let vals: Vec<i64> = (0..512).map(|i| (i * 7919) % 251 - 125).collect();
        assert_eq!(
            block_inclusive_scan::<32>(&vals),
            reference_inclusive(&vals)
        );
        assert_eq!(
            block_inclusive_scan::<64>(&vals),
            reference_inclusive(&vals)
        );
    }

    #[test]
    fn block_scan_warp64_uses_half_the_warps() {
        // 512 threads = 16 warps at WS=32 but 8 at WS=64 — same result,
        // different hierarchy (the §4 porting trade-off).
        let vals: Vec<i64> = (0..512).map(|i| i as i64 % 17).collect();
        assert_eq!(
            block_inclusive_scan::<32>(&vals),
            block_inclusive_scan::<64>(&vals)
        );
    }

    #[test]
    #[should_panic(expected = "whole warps")]
    fn block_scan_rejects_partial_warps() {
        block_inclusive_scan::<32>(&[1, 2, 3]);
    }
}
