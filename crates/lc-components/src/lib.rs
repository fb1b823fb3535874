//! The LC component library: all 62 data transformations of paper Table 1.
//!
//! | Mutators | Shufflers | Predictors | Reducers |
//! |----------|-----------|------------|----------|
//! | DBEFS_j  | BIT_i     | DIFF_i     | CLOG_i   |
//! | DBESF_j  | TUPLk_i   | DIFFMS_i   | HCLOG_i  |
//! | TCMS_i   |           | DIFFNB_i   | RARE_i   |
//! | TCNB_i   |           |            | RAZE_i   |
//! |          |           |            | RLE_i    |
//! |          |           |            | RRE_i    |
//! |          |           |            | RZE_i    |
//!
//! Every component implements [`lc_core::Component`]: a real, exactly
//! invertible transform over 16 kB chunks that also reports the kernel
//! statistics (`KernelStats`) its GPU equivalent would generate, which the
//! `gpu-sim` crate turns into simulated runtimes.
//!
//! Use [`registry`] to enumerate or look up components and to parse
//! pipeline descriptions such as `"BIT_4 DIFF_4 RZE_4"`.

// `unsafe` is denied crate-wide and re-allowed in exactly one place: the
// `kernels` module, which is the audited home of all SIMD intrinsics
// (see `kernels/mod.rs` and the xtask lint that enforces this boundary).
#![deny(unsafe_code)]

pub mod kernels;
pub(crate) mod mutators;
pub mod predictors;
pub mod presets;
pub mod reducers;
pub mod registry;
pub(crate) mod shufflers;
pub(crate) mod util;

pub use registry::{
    all, families, lookup, parse_pipeline, reducers, COMPONENT_COUNT, PIPELINE_COUNT, REDUCER_COUNT,
};
