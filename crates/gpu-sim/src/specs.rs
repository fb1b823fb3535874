//! GPU specifications: paper Tables 4 and 5, plus two documented
//! additions the cost model needs (memory bandwidth and ALU lanes per SM,
//! taken from the vendors' public spec sheets — the paper's tables omit
//! them because the paper measures real hardware).

/// GPU vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// NVIDIA: streaming multiprocessors, warp size 32, compute capability.
    Nvidia,
    /// AMD: compute units, warp size 32 or 64, gfx target processor.
    Amd,
}

/// One GPU model.
///
/// NVIDIA's SMs ≈ AMD's CUs and NVIDIA's compute capability ≈ AMD's target
/// processor (paper §5), so both vendors share this struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"RTX 4090"`.
    pub name: &'static str,
    /// Vendor.
    pub vendor: Vendor,
    /// Boost clock in MHz (paper Tables 4/5).
    pub clock_mhz: u32,
    /// SMs (NVIDIA) or CUs (AMD).
    pub sms: u32,
    /// Maximum resident threads per SM/CU.
    pub max_threads_per_sm: u32,
    /// Warp/wavefront size in threads.
    pub warp_size: u32,
    /// Device memory in GB.
    pub memory_gb: u32,
    /// Compute capability (NVIDIA) or target processor (AMD).
    pub arch: &'static str,
    /// Peak memory bandwidth in GB/s. Documented addition (public specs):
    /// needed for the roofline memory term.
    pub mem_bandwidth_gbs: f64,
    /// FP32/INT32 ALU lanes per SM/CU. Documented addition (public specs):
    /// converts instruction counts to cycles.
    pub alu_per_sm: u32,
}

impl GpuSpec {
    /// Threads per LC block (one 16 kB chunk per 512-thread block; §5).
    pub const THREADS_PER_BLOCK: u32 = 512;

    /// Blocks resident at once: `SMs × (max_threads_per_SM / 512)`
    /// (paper §5 occupancy discussion).
    pub fn blocks_in_flight(&self) -> u32 {
        self.sms * (self.max_threads_per_sm / Self::THREADS_PER_BLOCK)
    }

    /// Bytes of input needed to fully occupy the GPU (paper §5: 6 MB for
    /// the RTX 4090, 9.375 MB for the MI100).
    pub fn full_occupancy_bytes(&self) -> u64 {
        u64::from(self.blocks_in_flight()) * 16 * 1024
    }

    /// Warps per 512-thread block (16 at warp 32, 8 at warp 64).
    pub fn warps_per_block(&self) -> u32 {
        Self::THREADS_PER_BLOCK / self.warp_size
    }

    /// Clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_mhz as f64 * 1e6
    }

    /// The paper's §7 what-if: this (monolithic) GPU built as `sockets`
    /// sockets or chips joined by a link of `link_bandwidth_fraction` ×
    /// one socket's DRAM bandwidth (e.g. 0.4 for an NVLink-class
    /// interconnect). SMs, memory and aggregate bandwidth scale with the
    /// socket count. Under uniform chunk placement `(sockets − 1) /
    /// sockets` of the chunk loads and stores are remote and run at the
    /// link's bandwidth, so the effective bandwidth is the aggregate
    /// divided by `(1 − remote) + remote / link`. Only that one-time
    /// traffic crosses — a chunk stays in shared memory through all
    /// stages (§7) — and one socket returns this spec unchanged.
    pub fn numa(&self, sockets: u32, link_bandwidth_fraction: f64) -> GpuSpec {
        let remote = f64::from(sockets - 1) / f64::from(sockets);
        let link_factor = (1.0 - remote) + remote / link_bandwidth_fraction.max(1e-6);
        GpuSpec {
            sms: self.sms * sockets,
            memory_gb: self.memory_gb * sockets,
            mem_bandwidth_gbs: self.mem_bandwidth_gbs * f64::from(sockets) / link_factor,
            ..*self
        }
    }
}

/// Paper Table 4, column 1.
pub const TITAN_V: GpuSpec = GpuSpec {
    name: "TITAN V",
    vendor: Vendor::Nvidia,
    clock_mhz: 1075,
    sms: 24,
    max_threads_per_sm: 2048,
    warp_size: 32,
    memory_gb: 12,
    arch: "7.0",
    mem_bandwidth_gbs: 652.8,
    alu_per_sm: 64,
};

/// Paper Table 4, column 2.
pub const RTX_3080_TI: GpuSpec = GpuSpec {
    name: "RTX 3080 Ti",
    vendor: Vendor::Nvidia,
    clock_mhz: 1755,
    sms: 80,
    max_threads_per_sm: 1536,
    warp_size: 32,
    memory_gb: 12,
    arch: "8.6",
    mem_bandwidth_gbs: 912.1,
    alu_per_sm: 128,
};

/// Paper Table 4, column 3.
pub const RTX_4090: GpuSpec = GpuSpec {
    name: "RTX 4090",
    vendor: Vendor::Nvidia,
    clock_mhz: 2625,
    sms: 128,
    max_threads_per_sm: 1536,
    warp_size: 32,
    memory_gb: 24,
    arch: "8.9",
    mem_bandwidth_gbs: 1008.0,
    alu_per_sm: 128,
};

/// Paper Table 5, column 1 (warp size 64 — the 64-thread wavefront GPU).
pub const MI100: GpuSpec = GpuSpec {
    name: "MI100",
    vendor: Vendor::Amd,
    clock_mhz: 1502,
    sms: 120,
    max_threads_per_sm: 2560,
    warp_size: 64,
    memory_gb: 32,
    arch: "gfx908",
    mem_bandwidth_gbs: 1228.8,
    alu_per_sm: 64,
};

/// Paper Table 5, column 2 (RDNA3; warp size 32).
pub const RX_7900_XTX: GpuSpec = GpuSpec {
    name: "RX 7900 XTX",
    vendor: Vendor::Amd,
    clock_mhz: 2482,
    sms: 96,
    max_threads_per_sm: 1024,
    warp_size: 32,
    memory_gb: 24,
    arch: "gfx1100",
    mem_bandwidth_gbs: 960.0,
    alu_per_sm: 128,
};

/// All five GPUs, NVIDIA generations first (paper figure order).
pub const ALL_GPUS: [&GpuSpec; 5] = [&TITAN_V, &RTX_3080_TI, &RTX_4090, &MI100, &RX_7900_XTX];

/// The fastest tested GPU per vendor (used by Figs. 4–13).
pub fn fastest(vendor: Vendor) -> &'static GpuSpec {
    match vendor {
        Vendor::Nvidia => &RTX_4090,
        Vendor::Amd => &RX_7900_XTX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_and_table5_values() {
        assert_eq!(TITAN_V.clock_mhz, 1075);
        assert_eq!(TITAN_V.sms, 24);
        assert_eq!(TITAN_V.max_threads_per_sm, 2048);
        assert_eq!(RTX_3080_TI.sms, 80);
        assert_eq!(RTX_3080_TI.arch, "8.6");
        assert_eq!(RTX_4090.sms, 128);
        assert_eq!(RTX_4090.clock_mhz, 2625);
        assert_eq!(MI100.warp_size, 64);
        assert_eq!(MI100.sms, 120);
        assert_eq!(MI100.arch, "gfx908");
        assert_eq!(RX_7900_XTX.warp_size, 32);
        assert_eq!(RX_7900_XTX.max_threads_per_sm, 1024);
    }

    #[test]
    fn occupancy_matches_paper_section5() {
        // §5: "it takes 6 MB of input data to fully occupy [the RTX 4090]"
        assert_eq!(RTX_4090.blocks_in_flight(), 128 * 3);
        assert_eq!(RTX_4090.full_occupancy_bytes(), 6 * 1024 * 1024);
        // "it takes 9.375 MB to fully occupy the AMD MI100"
        assert_eq!(
            MI100.full_occupancy_bytes(),
            (9.375 * 1024.0 * 1024.0) as u64
        );
    }

    #[test]
    fn warps_per_block_differ_by_warp_size() {
        assert_eq!(RTX_4090.warps_per_block(), 16);
        assert_eq!(MI100.warps_per_block(), 8);
    }

    #[test]
    fn five_gpus_two_vendors() {
        assert_eq!(ALL_GPUS.len(), 5);
        assert_eq!(
            ALL_GPUS
                .iter()
                .filter(|g| g.vendor == Vendor::Nvidia)
                .count(),
            3
        );
        assert_eq!(
            ALL_GPUS.iter().filter(|g| g.vendor == Vendor::Amd).count(),
            2
        );
    }

    #[test]
    fn fastest_per_vendor() {
        assert_eq!(fastest(Vendor::Nvidia).name, "RTX 4090");
        assert_eq!(fastest(Vendor::Amd).name, "RX 7900 XTX");
    }
}
