//! Discrete-event GPU kernel simulator (validation backend).
//!
//! The analytical model in [`crate::cost`] collapses block scheduling into
//! a fractional wave count. This module simulates it instead: every chunk
//! is a block with its own cost, blocks occupy scheduling slots
//! (`blocks_in_flight()` of them, `max_threads_per_SM / 512` per SM), and
//! a block's finish time depends on its ALU work (sharing its SM's lanes
//! with co-resident blocks), its DRAM traffic (sharing the device
//! bandwidth with all active blocks), and its serialized latency.
//!
//! The event simulator exists to *validate* the analytical shortcut — the
//! `analytical_agreement` tests assert the two agree within tolerance on
//! homogeneous grids and that the event simulator correctly reproduces
//! effects the shortcut only approximates (partial waves, stragglers).
//! The campaign uses the analytical model (it is evaluated ~60 M times),
//! so this module is compiled only under `#[cfg(test)]`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lc_core::KernelStats;

use crate::cost::{Model, SimConfig};

/// Cost of one block (one 16 kB chunk), in device-independent units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BlockCost {
    /// ALU cycles the block needs from its SM (already includes the
    /// cycles-per-op expansion and divergence penalty).
    pub alu_cycles: f64,
    /// Bytes the block moves through DRAM.
    pub mem_bytes: f64,
    /// Serialized latency cycles (syncs, scan steps) not overlappable
    /// within the block.
    pub latency_cycles: f64,
}

/// Split an aggregate [`KernelStats`] into `chunks` equal per-block costs
/// (the campaign's stats are aggregates; per-chunk heterogeneity can be
/// fed in directly by building the `Vec<BlockCost>` by hand).
pub(crate) fn per_block_costs(
    model: &Model,
    cfg: &SimConfig,
    stats: &KernelStats,
    chunks: u64,
) -> Vec<BlockCost> {
    assert!(chunks > 0, "need at least one block");
    let n = chunks as f64;
    let terms = model.cycle_terms(&cfg.gpu, model.profile(cfg), stats);
    // Shared-memory traffic runs at `shared_bytes_per_sm_cycle` per SM;
    // fold it into lane-cycles (the unit `simulate_kernel` divides by
    // lanes) by scaling with the SM's lane count.
    let shared_lane_cycles = stats.shared_traffic as f64 * f64::from(cfg.gpu.alu_per_sm)
        / model.shared_bytes_per_sm_cycle;
    let alu = terms.compute + terms.shuffle + shared_lane_cycles;
    let mem = (stats.global_reads + stats.global_writes) as f64;
    vec![
        BlockCost {
            alu_cycles: alu / n,
            mem_bytes: mem / n,
            latency_cycles: terms.latency / n,
        };
        chunks as usize
    ]
}

/// Simulate one kernel: schedule `blocks` onto the GPU and return the
/// wall-clock seconds until the last block finishes.
///
/// Blocks are dispatched in order (as the hardware work distributor does)
/// into the first slot that frees up. Each block's duration is
/// `max(ALU share time, DRAM share time) + latency`, with the shares
/// computed from steady-state residency (blocks per SM and blocks in
/// flight), which matches the analytical model's assumptions while still
/// capturing wave boundaries and stragglers exactly.
pub(crate) fn simulate_kernel(model: &Model, cfg: &SimConfig, blocks: &[BlockCost]) -> f64 {
    if blocks.is_empty() {
        return 0.0;
    }
    let gpu = &cfg.gpu;
    let clock = gpu.clock_hz();
    let blocks_per_sm =
        f64::from(gpu.max_threads_per_sm / crate::specs::GpuSpec::THREADS_PER_BLOCK);
    let slots = gpu.blocks_in_flight() as usize;
    let alu_per_block = f64::from(gpu.alu_per_sm) / blocks_per_sm; // lanes per resident block
    let bw = 1.0 / model.dram_seconds_per_byte(cfg);
    let bw_per_block = bw / f64::from(gpu.blocks_in_flight());

    let duration = |b: &BlockCost| -> f64 {
        let t_alu = b.alu_cycles / alu_per_block / clock;
        let t_mem = b.mem_bytes / bw_per_block;
        t_alu.max(t_mem) + b.latency_cycles / clock
    };

    // Min-heap of slot-free times. f64 isn't Ord; times are finite and
    // non-NaN by construction, so order by bit pattern of the positive
    // float (monotone for non-negative finite values).
    let key = |t: f64| Reverse(t.max(0.0).to_bits());
    let mut heap: BinaryHeap<Reverse<u64>> =
        (0..slots.min(blocks.len())).map(|_| key(0.0)).collect();
    let mut makespan = 0.0f64;
    for b in blocks {
        let Reverse(bits) = heap.pop().expect("slots"); // invariant: heap holds one entry per slot
        let free_at = f64::from_bits(bits);
        let finish = free_at + duration(b);
        makespan = makespan.max(finish);
        heap.push(key(finish));
    }
    makespan
}

/// Convenience: simulate a kernel from aggregate stats (homogeneous
/// blocks) and return seconds.
pub(crate) fn simulate_from_stats(
    model: &Model,
    cfg: &SimConfig,
    stats: &KernelStats,
    chunks: u64,
) -> f64 {
    if chunks == 0 {
        return 0.0;
    }
    simulate_kernel(model, cfg, &per_block_costs(model, cfg, stats, chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompilerId, OptLevel};
    use crate::specs::RTX_4090;

    fn cfg() -> SimConfig {
        SimConfig::new(&RTX_4090, CompilerId::Nvcc, OptLevel::O3)
    }

    fn stats(chunks: u64) -> KernelStats {
        let words = chunks * 4096;
        KernelStats {
            words,
            thread_ops: words * 4,
            global_reads: chunks * 16384,
            global_writes: chunks * 16384,
            shared_traffic: chunks * 32768,
            warp_shuffles: words / 8,
            warp_syncs: chunks * 16,
            block_syncs: chunks * 4,
            atomic_ops: chunks,
            scan_steps: chunks * 13,
            divergent_branches: chunks * 10,
        }
    }

    #[test]
    fn empty_grid_is_free() {
        assert_eq!(
            simulate_from_stats(&Model::PAPER, &cfg(), &KernelStats::new(), 0),
            0.0
        );
        assert_eq!(simulate_kernel(&Model::PAPER, &cfg(), &[]), 0.0);
    }

    #[test]
    fn one_extra_block_starts_a_second_wave() {
        // A homogeneous grid of exactly blocks_in_flight finishes in one
        // block duration; one more block doubles the makespan.
        let c = cfg();
        let bif = c.gpu.blocks_in_flight() as u64;
        let t_full = simulate_from_stats(&Model::PAPER, &c, &stats(bif), bif);
        let t_plus1 = simulate_from_stats(&Model::PAPER, &c, &stats(bif + 1), bif + 1);
        let ratio = t_plus1 / t_full;
        assert!((ratio - 2.0).abs() < 0.05, "wave boundary: ratio {ratio}");
    }

    #[test]
    fn makespan_scales_linearly_with_full_waves() {
        let c = cfg();
        let bif = c.gpu.blocks_in_flight() as u64;
        let t1 = simulate_from_stats(&Model::PAPER, &c, &stats(bif), bif);
        let t4 = simulate_from_stats(&Model::PAPER, &c, &stats(4 * bif), 4 * bif);
        let ratio = t4 / t1;
        assert!((ratio - 4.0).abs() < 0.05, "4 waves: ratio {ratio}");
    }

    #[test]
    fn analytical_agreement_on_large_homogeneous_grids() {
        // The analytical stage_time should agree with the event simulator
        // within modelling tolerance for fully-occupied grids. (They treat
        // the per-block latency term differently at wave granularity, so
        // agreement is approximate by design.)
        let c = cfg();
        for chunks in [2000u64, 6400, 20_000] {
            let s = stats(chunks);
            let analytical = Model::PAPER.stage_time(&c, &s, chunks)
                + (s.global_reads + s.global_writes) as f64
                    * Model::PAPER.dram_seconds_per_byte(&c);
            let event = simulate_from_stats(&Model::PAPER, &c, &s, chunks);
            let ratio = event / analytical;
            assert!(
                (0.5..2.0).contains(&ratio),
                "chunks {chunks}: event {event:.3e} vs analytical {analytical:.3e} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn stragglers_extend_the_makespan() {
        let c = cfg();
        let bif = c.gpu.blocks_in_flight() as usize;
        let uniform = per_block_costs(&Model::PAPER, &c, &stats(bif as u64), bif as u64);
        let t_uniform = simulate_kernel(&Model::PAPER, &c, &uniform);
        // Same total work, but one block carries 32x the ALU cycles.
        let mut skewed = uniform.clone();
        let extra = skewed[0].alu_cycles * 31.0;
        skewed[0].alu_cycles *= 32.0;
        for b in skewed.iter_mut().skip(1) {
            b.alu_cycles -= extra / (bif as f64 - 1.0);
        }
        let t_skewed = simulate_kernel(&Model::PAPER, &c, &skewed);
        assert!(t_skewed > t_uniform * 1.5, "{t_skewed} vs {t_uniform}");
    }

    #[test]
    fn memory_bound_blocks_hit_the_bandwidth_ceiling() {
        let c = cfg();
        let mut s = stats(6400);
        s.thread_ops = 0;
        s.divergent_branches = 0;
        s.scan_steps = 0;
        s.block_syncs = 0;
        s.warp_syncs = 0;
        s.warp_shuffles = 0;
        s.shared_traffic = 0;
        let t = simulate_from_stats(&Model::PAPER, &c, &s, 6400);
        let bytes = (s.global_reads + s.global_writes) as f64;
        let achieved = bytes / t / 1e9;
        let peak_eff = c.gpu.mem_bandwidth_gbs * Model::PAPER.profile(&c).memory_efficiency;
        assert!(
            (achieved / peak_eff - 1.0).abs() < 0.05,
            "achieved {achieved} GB/s vs effective peak {peak_eff}"
        );
    }

    #[test]
    fn per_block_costs_divide_the_aggregate() {
        let c = cfg();
        let s = stats(100);
        let blocks = per_block_costs(&Model::PAPER, &c, &s, 100);
        assert_eq!(blocks.len(), 100);
        let total_mem: f64 = blocks.iter().map(|b| b.mem_bytes).sum();
        assert!((total_mem - (s.global_reads + s.global_writes) as f64).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_chunk_costs_panic() {
        per_block_costs(&Model::PAPER, &cfg(), &KernelStats::new(), 0);
    }
}
