//! Core of the LC framework reproduction.
//!
//! LC (Azami et al.) synthesizes lossless GPU compressors — *pipelines* —
//! by chaining data transformations called *components*. An input file is
//! split into 16 kB chunks that are (de)compressed independently and in
//! parallel; each chunk flows through every pipeline stage, and any stage
//! whose output would not be smaller than its input is skipped for that
//! chunk (the original bytes are forwarded and a per-chunk stage mask
//! records the skip), so the decoder can avoid that stage's work entirely.
//!
//! This crate defines:
//!
//! * [`component::Component`] — the common interface every one of the 62
//!   transformations implements (the library itself lives in
//!   `lc-components`);
//! * [`stats::KernelStats`] — the per-kernel execution statistics each
//!   component reports while it runs, consumed by the `gpu-sim` cost model;
//! * [`pipeline::Pipeline`] — an ordered chain of components;
//! * [`archive`] — the chunked compressed format plus parallel encode and
//!   decode drivers, whose output placement uses the decoupled look-back
//!   scan from `lc-parallel` exactly as the GPU encoder does;
//! * [`buffer`] — the one allocation path for fresh large codec buffers,
//!   hinted to fault in 2 MiB pages;
//! * [`verify`] — round-trip checking helpers used across the test suite.

pub mod archive;
pub mod buffer;
pub mod checksum;
pub mod chunk;
pub mod component;
pub mod contract;
pub mod error;
pub mod pipeline;
pub mod scratch;
pub mod stats;
pub mod stream;
pub mod verify;

pub use archive::{decode, encode, encode_with, Archive, Decoder, EncodeResult};
pub use chunk::CHUNK_SIZE;
pub use component::{Complexity, Component, ComponentKind, KernelVariant, SpanClass, WorkClass};
pub use contract::{CommuteClass, Contract, ExpansionBound, SizeClass, SizeDeterminant};
pub use error::{DecodeError, PipelineError};
pub use pipeline::Pipeline;
pub use scratch::{decode_stage, decode_stage_batch, encode_stage, encode_stage_batch, Scratch};
pub use stats::{KernelStats, PipelineStats, StageStats};
