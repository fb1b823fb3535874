//! Chunked archive format and the parallel encode/decode drivers.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"LCRP"                      4 bytes
//! version u8 (= 3)                    1 byte
//! stage count u8                      1 byte
//! per stage: name_len u8, name bytes
//! original length u64                 8 bytes
//! CRC-32 of the original input u32    4 bytes
//! chunk count u32                     4 bytes
//! per chunk (v3, 9 bytes): mask u8, stored_len u32, chunk CRC-32 u32
//!   (mask bit s = stage s was applied; the CRC covers the chunk's
//!    ORIGINAL uncompressed bytes, so it validates the recovered
//!    plaintext — catching payload damage and decoder bugs alike)
//! payloads, concatenated in chunk order
//! ```
//!
//! Version 2 archives (5-byte table entries without the per-chunk CRC)
//! are still decoded; the per-chunk integrity and salvage features
//! simply degrade to structural-only detection for them.
//!
//! Each direction is one pass over the data in one [`Pool`] pass, with
//! no per-chunk allocation:
//!
//! * **Encode** writes the header and a placeholder chunk table, then
//!   reserves `input.len()` bytes behind them — copy-on-expand bounds
//!   every stored chunk by its input length, so that always suffices.
//!   A worker checksums its chunk, runs the stages in its [`Scratch`]
//!   arena, publishes the stored size to the decoupled look-back scan
//!   from `lc-parallel`, receives the cumulative size of all prior
//!   chunks, and copies its bytes straight to that offset of the
//!   output — how the GPU encoder propagates compressed sizes between
//!   thread blocks and stores each block's output (paper §6.1). The
//!   table and the header CRC are patched in afterwards.
//! * **Decode** prefix-sums the chunk table into payload offsets (the
//!   GPU decoder's block prefix sum), and a worker decodes its chunk in
//!   its arena, copies the result to the chunk's fixed output region and
//!   checksums the bytes *where they landed*, so the placement is
//!   covered by the check too.
//!
//! The whole-input CRC is never computed over the buffer: both
//! directions fold it from the per-chunk CRCs with
//! [`crate::checksum::combine`].
//!
//! Copy-on-expand: a reducer stage whose output for some chunk is not
//! strictly smaller than its input is skipped for that chunk — the input
//! bytes are forwarded unchanged and the chunk's mask bit stays clear, so
//! the decoder performs no work for that stage (paper §6.4; this is what
//! makes RLE_1/2/8 decode quickly on 4-byte float data while RLE_4 must
//! actually decompress). Non-reducers never change the size and are always
//! applied.
//!
//! Fault tolerance: [`decode`] is all-or-nothing — any damage is a hard
//! [`DecodeError`]. [`decode_salvage`] is the degraded-mode counterpart:
//! it decodes every chunk that still validates, zero-fills the regions of
//! chunks that do not, and reports per-chunk faults in a
//! [`SalvageReport`] instead of aborting. [`decode_bounded`] adds a
//! decompression-bomb guard in front of either path.

use std::sync::Arc;

use lc_parallel::{CancelToken, DisjointSlice, LookbackScan, Pool};
use lc_telemetry::{span, ArgValue, Span};

use crate::checksum::{combine, crc32};
use crate::chunk::{chunk_count, chunk_range};
use crate::component::Component;
use crate::error::DecodeError;
use crate::pipeline::Pipeline;
use crate::scratch::Scratch;
use crate::stats::{KernelStats, PipelineStats, StageStats};

/// Archive magic bytes.
pub const MAGIC: [u8; 4] = *b"LCRP";
/// Current format version (2 added the whole-input CRC-32; 3 added a
/// per-chunk CRC-32 to the table, enabling chunk-granular salvage).
pub const VERSION: u8 = 3;
/// Oldest format version the decoder still accepts.
pub const MIN_VERSION: u8 = 2;
/// Maximum number of stages representable in the per-chunk mask.
pub const MAX_STAGES: usize = 8;
/// Bytes per chunk-table entry in format v2: mask u8 + stored_len u32.
pub const TABLE_ENTRY_V2: usize = 5;
/// Bytes per chunk-table entry in format v3: v2 fields + chunk CRC-32.
pub const TABLE_ENTRY_V3: usize = 9;

/// Parsed archive header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    /// Format version this archive was serialized with (2 or 3).
    pub version: u8,
    /// Stage component names in encode order.
    pub stage_names: Vec<String>,
    /// Uncompressed length in bytes.
    pub original_len: u64,
    /// CRC-32 of the original input (verified after decode).
    pub crc32: u32,
    /// Number of chunks.
    pub chunks: u32,
    /// Byte offset where the per-chunk table starts.
    pub table_offset: usize,
    /// Byte offset where payloads start.
    pub payload_offset: usize,
}

impl Archive {
    /// Bytes per chunk-table entry for this archive's format version.
    pub fn entry_size(&self) -> usize {
        if self.version >= 3 {
            TABLE_ENTRY_V3
        } else {
            TABLE_ENTRY_V2
        }
    }
}

/// Outcome of one unrecoverable chunk in [`decode_salvage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Index of the chunk that could not be recovered.
    pub chunk: u32,
    /// Why it could not be recovered.
    pub error: DecodeError,
}

/// What [`decode_salvage`] managed to recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Chunks decoded and (for v3) validated against their per-chunk CRC.
    pub recovered: u32,
    /// Chunks whose output region was zero-filled instead.
    pub lost: u32,
    /// One entry per lost chunk, in chunk order.
    pub errors: Vec<ChunkFault>,
    /// Whether the assembled output matched the whole-archive CRC-32.
    /// Always `false` when chunks were lost; for v2 archives a `false`
    /// here with zero losses means value-level damage the 5-byte table
    /// cannot localize.
    pub archive_crc_ok: bool,
}

impl SalvageReport {
    /// True when every chunk decoded and the whole-archive CRC matched.
    pub fn is_clean(&self) -> bool {
        self.lost == 0 && self.archive_crc_ok
    }
}

/// Result of [`encode_with_stats`].
#[derive(Debug, Clone)]
pub struct EncodeResult {
    /// The serialized archive.
    pub archive: Vec<u8>,
    /// Per-stage execution statistics.
    pub stats: PipelineStats,
}

/// One stage's totals over the chunks one worker claimed.
#[derive(Clone, Copy, Default)]
struct StageAcc {
    kernel: KernelStats,
    /// Chunks the stage was applied to.
    applied: u64,
    /// Bytes entering and leaving the stage, applied chunks only.
    bytes_in: u64,
    bytes_out: u64,
}

/// What a pool worker owns for its whole claim stream: the stage buffers
/// and the statistics, both allocated once per worker, not per chunk.
struct Worker {
    scratch: Scratch,
    stages: Vec<StageAcc>,
}

impl Worker {
    fn new(n_stages: usize) -> Self {
        Self {
            scratch: Scratch::new(),
            stages: vec![StageAcc::default(); n_stages],
        }
    }

    fn merge(mut self, other: Worker) -> Worker {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.kernel.merge(&b.kernel);
            a.applied += b.applied;
            a.bytes_in += b.bytes_in;
            a.bytes_out += b.bytes_out;
        }
        self
    }
}

fn stage_stats<'n>(
    names: impl Iterator<Item = &'n str>,
    totals: &[StageAcc],
    n_chunks: usize,
) -> Vec<StageStats> {
    names
        .zip(totals)
        .map(|(name, acc)| StageStats {
            component: name.to_string(),
            kernel: acc.kernel,
            chunks_applied: acc.applied,
            chunks_skipped: n_chunks as u64 - acc.applied,
            bytes_in: acc.bytes_in,
            bytes_out: acc.bytes_out,
        })
        .collect()
}

/// CRC-32 of a `len`-byte buffer from the CRCs of its chunks, in order.
fn whole_crc(chunk_crcs: impl Iterator<Item = u32>, len: usize) -> u32 {
    chunk_crcs.enumerate().fold(0, |acc, (i, crc)| {
        combine(acc, crc, chunk_range(i, len).len())
    })
}

/// Encode `input` with `pipeline`, returning only the archive bytes.
///
/// The component library lives in the `lc-components` crate; any
/// [`Component`] implementation works:
///
/// ```
/// use std::sync::Arc;
/// use lc_core::{Component, ComponentKind, Complexity, DecodeError,
///               KernelStats, Pipeline, SpanClass, WorkClass};
/// use lc_parallel::Pool;
///
/// /// A toy mutator: XOR every byte with 0x5A.
/// struct Xor;
/// impl Component for Xor {
///     fn name(&self) -> &'static str { "XOR_1" }
///     fn kind(&self) -> ComponentKind { ComponentKind::Mutator }
///     fn word_size(&self) -> usize { 1 }
///     fn complexity(&self) -> Complexity {
///         Complexity::new(WorkClass::N, SpanClass::Const, WorkClass::N, SpanClass::Const)
///     }
///     fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _: &mut KernelStats) {
///         out.extend(input.iter().map(|b| b ^ 0x5A));
///     }
///     fn decode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _: &mut KernelStats)
///         -> Result<(), DecodeError>
///     {
///         out.extend(input.iter().map(|b| b ^ 0x5A));
///         Ok(())
///     }
/// }
///
/// let resolve = |name: &str| (name == "XOR_1").then(|| Arc::new(Xor) as Arc<dyn Component>);
/// let pipeline = Pipeline::parse("XOR_1", resolve).unwrap();
/// let pool = Pool::new(2);
/// let data = vec![42u8; 100_000];
/// let archive = lc_core::archive::encode(&pipeline, &data, &pool);
/// let back = lc_core::archive::decode(&archive, resolve, &pool).unwrap();
/// assert_eq!(back, data);
/// ```
pub fn encode(pipeline: &Pipeline, input: &[u8], pool: &Pool) -> Vec<u8> {
    encode_with_stats(pipeline, input, pool).archive
}

/// Encode `input` with `pipeline`, returning the archive and statistics.
///
/// # Panics
///
/// Panics if the pipeline has more than [`MAX_STAGES`] stages.
pub fn encode_with_stats(pipeline: &Pipeline, input: &[u8], pool: &Pool) -> EncodeResult {
    match encode_inner(pipeline, input, pool, None) {
        Some(r) => r,
        // invariant: with no cancel token the pool drains every chunk.
        None => unreachable!("uncancellable encode reported cancellation"),
    }
}

/// Like [`encode_with_stats`], but workers poll `cancel` at every chunk
/// claim and the encode stops at the next claim boundary once it trips.
/// Returns `None` when cancelled — there is no partial archive; the
/// caller (an `lc-serve` request whose deadline fired) reports
/// `deadline_exceeded` and drops the scratch work on the floor.
///
/// Cancellation is deadlock-safe with respect to the decoupled look-back
/// scan: workers only stop *between* claims, every claimed chunk still
/// publishes its scan entry, and `scan.total()` is consulted only on the
/// not-cancelled path where all chunks have published.
pub fn encode_cancellable(
    pipeline: &Pipeline,
    input: &[u8],
    pool: &Pool,
    cancel: &CancelToken,
) -> Option<EncodeResult> {
    encode_inner(pipeline, input, pool, Some(cancel))
}

/// One chunk's row of the table, recorded by the worker that encoded it.
#[derive(Clone, Copy, Default)]
struct StoredChunk {
    mask: u8,
    stored_len: u32,
    /// CRC-32 of the chunk's original (uncompressed) bytes.
    crc: u32,
}

fn encode_inner(
    pipeline: &Pipeline,
    input: &[u8],
    pool: &Pool,
    cancel: Option<&CancelToken>,
) -> Option<EncodeResult> {
    let stages = pipeline.stages();
    assert!(
        stages.len() <= MAX_STAGES,
        "pipeline has {} stages; archive mask supports at most {MAX_STAGES}",
        stages.len()
    );
    let n_chunks = chunk_count(input.len());
    // Hoisted once per encode: chunk/stage instrumentation below branches
    // on this bool, so a disabled-telemetry encode pays one relaxed load.
    let telemetry = lc_telemetry::active();
    let costs = if telemetry {
        stage_costs(stages, "encode")
    } else {
        Vec::new()
    };
    let costs = &costs;
    let mut enc_span = span!("archive.encode", bytes = input.len(), chunks = n_chunks);

    // Header and a placeholder table; the whole-input CRC and the table
    // rows are only known after the pass and are patched in below.
    let mut archive = Vec::with_capacity(64 + n_chunks * TABLE_ENTRY_V3 + input.len());
    archive.extend_from_slice(&MAGIC);
    archive.push(VERSION);
    archive.push(stages.len() as u8);
    for s in stages {
        let name = s.name().as_bytes();
        archive.push(name.len() as u8);
        archive.extend_from_slice(name);
    }
    archive.extend_from_slice(&(input.len() as u64).to_le_bytes());
    let crc_at = archive.len();
    archive.extend_from_slice(&[0; 4]);
    archive.extend_from_slice(&(n_chunks as u32).to_le_bytes());
    let table_at = archive.len();
    archive.resize(table_at + n_chunks * TABLE_ENTRY_V3, 0);
    let payload_start = archive.len();
    // The payload region: `input.len()` bytes of spare capacity, enough
    // because no chunk is stored larger than it came in.
    archive.reserve(input.len());

    let scan = LookbackScan::new(n_chunks);
    let mut table = vec![StoredChunk::default(); n_chunks];
    let totals = {
        let rows = DisjointSlice::new(&mut table);
        let payload = DisjointSlice::new(&mut archive.spare_capacity_mut()[..input.len()]);
        // One pool task per chunk, like one thread block per chunk on
        // the GPU.
        pool.fold_cancellable(
            n_chunks,
            cancel,
            || Worker::new(stages.len()),
            |worker, i| {
                let chunk = &input[chunk_range(i, input.len())];
                let crc = crc32(chunk);
                let (stored, mask) = encode_chunk(
                    stages,
                    chunk,
                    i,
                    telemetry,
                    costs,
                    &mut worker.scratch,
                    &mut worker.stages,
                );
                // Publish this chunk's stored size; receive the cumulative
                // size of all prior chunks (decoupled look-back, as on the
                // GPU). Publishing precedes the checks so that a chunk
                // that fails them cannot leave its successors spinning.
                let offset = scan.publish(i, stored.len() as u64);
                assert!(
                    stored.len() <= chunk.len(),
                    "chunk {i}: stages changed size, {} bytes in and {} out \
                     (only a reducer may, and only to shrink)",
                    chunk.len(),
                    stored.len()
                );
                assert!(
                    offset <= (input.len() - stored.len()) as u64,
                    "chunk {i}: payload offset {offset} runs past the reserved region"
                );
                let start = offset as usize;
                // SAFETY: the offsets are exclusive prefix sums of the
                // stored sizes, so the chunks' payload ranges are pairwise
                // disjoint, and the pool claims each index at most once.
                let dst = unsafe { payload.slice_mut(start..start + stored.len()) };
                dst.write_copy_of_slice(stored);
                // SAFETY: the pool claims each index at most once.
                unsafe {
                    *rows.get_mut(i) = StoredChunk {
                        mask,
                        stored_len: stored.len() as u32,
                        crc,
                    };
                }
            },
            Worker::merge,
        )
    };
    // The cancellation check must precede `scan.total()`: a cancelled run
    // leaves unclaimed chunks unpublished, and `total()` asserts that
    // every participant has published. The token is monotonic, so "not
    // cancelled here" proves every chunk was claimed and completed.
    // Returning here drops the archive at `payload_start` bytes: the
    // partly written spare capacity is never exposed.
    if cancel.is_some_and(|c| c.is_cancelled()) {
        return None;
    }
    let payload_total = scan.total() as usize;
    assert!(
        payload_total <= input.len(),
        "payloads total {payload_total} bytes, over the reserved region"
    );
    // SAFETY: every chunk was claimed and copied its stored bytes to
    // `[offset, offset + stored_len)`; those ranges tile
    // `[0, payload_total)` of the spare capacity, which holds at least
    // `input.len()` bytes.
    unsafe { archive.set_len(payload_start + payload_total) };

    let rows = archive[table_at..payload_start].chunks_exact_mut(TABLE_ENTRY_V3);
    for (row, chunk) in rows.zip(&table) {
        row[0] = chunk.mask;
        row[1..5].copy_from_slice(&chunk.stored_len.to_le_bytes());
        row[5..9].copy_from_slice(&chunk.crc.to_le_bytes());
    }
    let input_crc = whole_crc(table.iter().map(|c| c.crc), input.len());
    archive[crc_at..crc_at + 4].copy_from_slice(&input_crc.to_le_bytes());

    let stats = PipelineStats {
        stages: stage_stats(stages.iter().map(|s| s.name()), &totals.stages, n_chunks),
        chunks: n_chunks as u64,
        uncompressed_bytes: input.len() as u64,
        compressed_bytes: (payload_total + n_chunks * TABLE_ENTRY_V3) as u64,
    };
    if telemetry {
        enc_span.arg("archive_bytes", archive.len());
        lc_telemetry::counter("archive.encode.calls").add(1);
        lc_telemetry::counter("archive.encode.bytes_in").add(input.len() as u64);
        lc_telemetry::counter("archive.encode.bytes_out").add(archive.len() as u64);
        lc_telemetry::counter("archive.encode.chunks").add(n_chunks as u64);
    }
    Some(EncodeResult { archive, stats })
}

/// Which buffer currently holds the chunk bytes: the caller's input
/// slice (no copy was made) or one of the two arena buffers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Live {
    Input,
    A,
    B,
}

impl Live {
    /// The arena buffer the *next* applied stage writes into: input
    /// feeds `a`, and the two arena buffers ping-pong.
    fn advance(self) -> Self {
        match self {
            Live::Input | Live::B => Live::A,
            Live::A => Live::B,
        }
    }
}

/// Pre-resolved per-component cost-attribution handles: one registry
/// lookup per archive call instead of per chunk×stage. `bytes` counts
/// every byte a component was fed; `ns` holds the distribution of its
/// per-chunk kernel time; `kernel` counts chunks under the SIMD tier
/// (`scalar`/`sse2`/`avx2`) the component's kernels dispatch to on this
/// machine. Together they are the
/// `component.<name>.<dir>.{bytes,ns,kernel.<variant>}` metrics that the
/// `lc report` cost-center table ranks.
struct StageCost {
    bytes: &'static lc_telemetry::Counter,
    ns: &'static lc_telemetry::Histogram,
    kernel: &'static lc_telemetry::Counter,
}

fn stage_costs(stages: &[Arc<dyn Component>], dir: &str) -> Vec<StageCost> {
    stages
        .iter()
        .map(|c| {
            let n = c.name();
            let k = c.kernel_variant().label();
            StageCost {
                bytes: lc_telemetry::counter(&format!("component.{n}.{dir}.bytes")),
                ns: lc_telemetry::histogram(&format!("component.{n}.{dir}.ns")),
                kernel: lc_telemetry::counter(&format!("component.{n}.{dir}.kernel.{k}")),
            }
        })
        .collect()
}

/// Run the stages over one chunk in the worker's arena, returning a
/// borrowed view of the bytes to store and the chunk's stage mask.
///
/// The first stage reads the caller's chunk slice directly — no
/// defensive copy; subsequent stages ping-pong between the arena
/// buffers. For a chunk no stage applied to, the returned slice *is*
/// `chunk`.
fn encode_chunk<'s>(
    stages: &[Arc<dyn Component>],
    chunk: &'s [u8],
    chunk_index: usize,
    telemetry: bool,
    costs: &[StageCost],
    scratch: &'s mut Scratch,
    totals: &mut [StageAcc],
) -> (&'s [u8], u8) {
    let mut mask = 0u8;
    let mut live = Live::Input;
    for (s, comp) in stages.iter().enumerate() {
        let bytes_in = match live {
            Live::Input => chunk.len(),
            Live::A => scratch.a.len(),
            Live::B => scratch.b.len(),
        } as u64;
        let total = &mut totals[s];
        let mut sp = if telemetry {
            let mut sp = Span::begin(
                "stage.encode",
                comp.name(),
                vec![
                    ("chunk", ArgValue::from(chunk_index)),
                    ("bytes_in", ArgValue::from(bytes_in)),
                ],
            );
            sp.with_histogram();
            sp
        } else {
            Span::disabled()
        };
        let t0 = if telemetry { lc_telemetry::now_ns() } else { 0 };
        let applied = match live {
            Live::Input => crate::scratch::encode_stage(
                comp.as_ref(),
                chunk,
                &mut scratch.a,
                &mut total.kernel,
            ),
            Live::A => crate::scratch::encode_stage(
                comp.as_ref(),
                &scratch.a,
                &mut scratch.b,
                &mut total.kernel,
            ),
            Live::B => crate::scratch::encode_stage(
                comp.as_ref(),
                &scratch.b,
                &mut scratch.a,
                &mut total.kernel,
            ),
        };
        if telemetry {
            // Attribute the kernel's cost to the component even when the
            // output was discarded (copy-on-expand): the work happened.
            costs[s].bytes.add(bytes_in);
            costs[s]
                .ns
                .record(lc_telemetry::now_ns().saturating_sub(t0));
            costs[s].kernel.add(1);
        }
        let bytes_out = if applied {
            let written = match live.advance() {
                Live::A => scratch.a.len(),
                _ => scratch.b.len(),
            };
            written as u64
        } else {
            bytes_in
        };
        sp.arg("applied", applied);
        sp.arg("bytes_out", bytes_out);
        drop(sp);
        if applied {
            total.applied += 1;
            total.bytes_in += bytes_in;
            total.bytes_out += bytes_out;
            mask |= 1 << s;
            live = live.advance();
        }
    }
    let stored: &[u8] = match live {
        Live::Input => chunk,
        Live::A => &scratch.a,
        Live::B => &scratch.b,
    };
    (stored, mask)
}

/// Read a little-endian u32 at `at`; caller must have bounds-checked.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Read a little-endian u64 at `at`; caller must have bounds-checked.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Parse just the header of an archive.
///
/// Accepts format versions [`MIN_VERSION`]..=[`VERSION`]. Every field
/// read is bounds-checked against untrusted input: malformed bytes yield
/// a [`DecodeError`], never a panic.
pub fn parse_header(bytes: &[u8]) -> Result<Archive, DecodeError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize, context: &'static str| -> Result<usize, DecodeError> {
        match pos.checked_add(n) {
            Some(end) if end <= bytes.len() => {
                let at = *pos;
                *pos = end;
                Ok(at)
            }
            _ => Err(DecodeError::Truncated { context }),
        }
    };
    let at = take(&mut pos, 4, "magic")?;
    if bytes[at..at + 4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let at = take(&mut pos, 1, "version")?;
    let version = bytes[at];
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(DecodeError::BadVersion(version));
    }
    let at = take(&mut pos, 1, "stage count")?;
    let n_stages = bytes[at] as usize;
    if n_stages == 0 || n_stages > MAX_STAGES {
        return Err(DecodeError::Corrupt {
            context: "stage count",
        });
    }
    let mut stage_names = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let at = take(&mut pos, 1, "stage name length")?;
        let len = bytes[at] as usize;
        let at = take(&mut pos, len, "stage name")?;
        let name = std::str::from_utf8(&bytes[at..at + len]).map_err(|_| DecodeError::Corrupt {
            context: "stage name utf8",
        })?;
        stage_names.push(name.to_string());
    }
    let at = take(&mut pos, 8, "original length")?;
    let original_len = le_u64(bytes, at);
    let at = take(&mut pos, 4, "checksum")?;
    let crc32 = le_u32(bytes, at);
    let at = take(&mut pos, 4, "chunk count")?;
    let chunks = le_u32(bytes, at);
    if chunks as u64 != chunk_count(original_len as usize) as u64 {
        return Err(DecodeError::Corrupt {
            context: "chunk count vs length",
        });
    }
    let entry_size = if version >= 3 {
        TABLE_ENTRY_V3
    } else {
        TABLE_ENTRY_V2
    };
    let table_len = (chunks as usize)
        .checked_mul(entry_size)
        .ok_or(DecodeError::Truncated {
            context: "chunk table",
        })?;
    let table_offset = pos;
    take(&mut pos, table_len, "chunk table")?;
    Ok(Archive {
        version,
        stage_names,
        original_len,
        crc32,
        chunks,
        table_offset,
        payload_offset: pos,
    })
}

/// One parsed chunk-table row, with the payload offset the prefix sum
/// over the stored sizes gives it.
struct ChunkRow {
    mask: u8,
    /// Byte offset of the stored chunk within the payload region.
    start: u64,
    stored_len: u32,
    /// CRC-32 of the chunk's original bytes; `None` for v2 archives.
    crc: Option<u32>,
}

/// An archive parsed and resolved once, ready to decode chunk by chunk.
/// [`decode`] and [`decode_salvage`] differ only in what they do with a
/// chunk that fails.
struct Decoder<'a> {
    header: Archive,
    stages: Vec<Arc<dyn Component>>,
    rows: Vec<ChunkRow>,
    /// Sum of the stored sizes: what `payload` should measure.
    payload_total: u64,
    payload: &'a [u8],
    telemetry: bool,
    costs: Vec<StageCost>,
}

impl<'a> Decoder<'a> {
    fn new<R>(bytes: &'a [u8], resolve: R) -> Result<Self, DecodeError>
    where
        R: Fn(&str) -> Option<Arc<dyn Component>>,
    {
        let header = parse_header(bytes)?;
        let stages: Vec<Arc<dyn Component>> = header
            .stage_names
            .iter()
            .map(|n| resolve(n).ok_or_else(|| DecodeError::UnknownComponent(n.clone())))
            .collect::<Result<_, _>>()?;
        // Chunk payload start offsets: a prefix sum over the table, as in
        // the GPU decoder. `parse_header` bounds-checked the table, and
        // u32 sizes cannot overflow a u64 total.
        let es = header.entry_size();
        let mut payload_total = 0u64;
        let rows = bytes[header.table_offset..header.payload_offset]
            .chunks_exact(es)
            .map(|row| {
                let start = payload_total;
                let stored_len = le_u32(row, 1);
                payload_total += u64::from(stored_len);
                ChunkRow {
                    mask: row[0],
                    start,
                    stored_len,
                    crc: (es == TABLE_ENTRY_V3).then(|| le_u32(row, 5)),
                }
            })
            .collect();
        let telemetry = lc_telemetry::active();
        let costs = if telemetry {
            stage_costs(&stages, "decode")
        } else {
            Vec::new()
        };
        Ok(Self {
            payload: &bytes[header.payload_offset..],
            header,
            stages,
            rows,
            payload_total,
            telemetry,
            costs,
        })
    }

    fn original_len(&self) -> usize {
        self.header.original_len as usize
    }

    /// Decode chunk `i` in the worker's arena, copy it to `region` (the
    /// chunk's slot of the output), and checksum the bytes as they sit
    /// there. Returns that CRC; a v3 chunk whose CRC misses the table's
    /// is an error, and `region` then holds the wrong bytes.
    fn place_chunk(
        &self,
        i: usize,
        region: &mut [u8],
        worker: &mut Worker,
    ) -> Result<u32, DecodeError> {
        let row = &self.rows[i];
        let stored = usize::try_from(row.start)
            .ok()
            .and_then(|start| {
                let end = start.checked_add(row.stored_len as usize)?;
                self.payload.get(start..end)
            })
            .ok_or(DecodeError::Truncated {
                context: "chunk payload",
            })?;
        let decoded = decode_chunk_into(
            &self.stages,
            row.mask,
            stored,
            region.len(),
            &mut worker.stages,
            i,
            self.telemetry,
            &self.costs,
            &mut worker.scratch,
        )?;
        region.copy_from_slice(decoded);
        let actual = crc32(region);
        match row.crc {
            Some(expected) if expected != actual => Err(DecodeError::ChunkChecksumMismatch {
                chunk: i as u32,
                expected,
                actual,
            }),
            _ => Ok(actual),
        }
    }
}

/// Decode an archive, resolving stage names through `resolve`.
pub fn decode<R>(bytes: &[u8], resolve: R, pool: &Pool) -> Result<Vec<u8>, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    decode_with_stats(bytes, resolve, pool).map(|(out, _)| out)
}

/// Decode an archive, also returning per-stage statistics.
pub fn decode_with_stats<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
) -> Result<(Vec<u8>, PipelineStats), DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    decode_inner(bytes, resolve, pool, None)
}

fn decode_inner<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<u8>, PipelineStats), DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let dec = Decoder::new(bytes, resolve)?;
    let n_chunks = dec.rows.len();
    let mut dec_span = span!("archive.decode", bytes = bytes.len(), chunks = n_chunks);
    if dec.payload.len() as u64 != dec.payload_total {
        return Err(DecodeError::Corrupt {
            context: "payload size",
        });
    }

    let original_len = dec.original_len();
    let mut out = vec![0u8; original_len];
    let mut chunk_crcs = vec![0u32; n_chunks];
    let (totals, first_err) = {
        let regions = DisjointSlice::new(&mut out);
        let crc_slots = DisjointSlice::new(&mut chunk_crcs);
        pool.fold(
            n_chunks,
            || (Worker::new(dec.stages.len()), None::<DecodeError>),
            |(worker, err), i| {
                if err.is_some() {
                    return; // a chunk already failed; drain remaining work
                }
                // Deadline/shutdown poll at the chunk boundary: already-claimed
                // chunks complete, remaining claims drain as Cancelled.
                if cancel.is_some_and(|c| c.is_cancelled()) {
                    *err = Some(DecodeError::Cancelled);
                    return;
                }
                // SAFETY: chunk output regions tile `out` disjointly and
                // the pool claims each index exactly once.
                let region = unsafe { regions.slice_mut(chunk_range(i, original_len)) };
                match dec.place_chunk(i, region, worker) {
                    // SAFETY: the pool claims each index exactly once.
                    Ok(crc) => unsafe { *crc_slots.get_mut(i) = crc },
                    Err(e) => *err = Some(e),
                }
            },
            |a, b| (a.0.merge(b.0), a.1.or(b.1)),
        )
    };
    if let Some(e) = first_err {
        return Err(e);
    }
    // Integrity: the decoded stream must match the recorded CRC — this is
    // what turns "plausible but wrong bytes" from payload corruption into
    // a hard error. (For v3 every chunk already matched its own CRC; for
    // v2 this is the only value-level check.)
    let actual = whole_crc(chunk_crcs.iter().copied(), original_len);
    if actual != dec.header.crc32 {
        return Err(DecodeError::ChecksumMismatch {
            expected: dec.header.crc32,
            actual,
        });
    }
    let stats = PipelineStats {
        stages: stage_stats(
            dec.header.stage_names.iter().map(|s| s.as_str()),
            &totals.stages,
            n_chunks,
        ),
        chunks: n_chunks as u64,
        uncompressed_bytes: dec.header.original_len,
        compressed_bytes: dec.payload_total + (n_chunks * dec.header.entry_size()) as u64,
    };
    if dec.telemetry {
        dec_span.arg("decoded_bytes", out.len());
        lc_telemetry::counter("archive.decode.calls").add(1);
        lc_telemetry::counter("archive.decode.bytes_in").add(bytes.len() as u64);
        lc_telemetry::counter("archive.decode.bytes_out").add(out.len() as u64);
        lc_telemetry::counter("archive.decode.chunks").add(n_chunks as u64);
    }
    Ok((out, stats))
}

/// Like [`decode`], but refuse archives declaring more than
/// `max_decoded_bytes` of output before allocating anything.
///
/// This is the decompression-bomb guard: a hostile archive can declare an
/// arbitrary `original_len`, and plain [`decode`] would allocate it.
pub fn decode_bounded<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    max_decoded_bytes: u64,
) -> Result<Vec<u8>, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let header = parse_header(bytes)?;
    if header.original_len > max_decoded_bytes {
        return Err(DecodeError::TooLarge {
            declared: header.original_len,
            limit: max_decoded_bytes,
        });
    }
    decode(bytes, resolve, pool)
}

/// [`decode_bounded`] plus cooperative cancellation: workers poll
/// `cancel` at every chunk boundary and the decode fails with
/// [`DecodeError::Cancelled`] once it trips. This is the `lc-serve`
/// unpack path — the bomb guard and the request deadline compose.
pub fn decode_bounded_cancellable<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    max_decoded_bytes: u64,
    cancel: &CancelToken,
) -> Result<Vec<u8>, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let header = parse_header(bytes)?;
    if header.original_len > max_decoded_bytes {
        return Err(DecodeError::TooLarge {
            declared: header.original_len,
            limit: max_decoded_bytes,
        });
    }
    decode_inner(bytes, resolve, pool, Some(cancel)).map(|(out, _)| out)
}

/// Best-effort decode of a damaged archive.
///
/// Where [`decode`] aborts on the first fault, this decodes every chunk
/// independently and degrades per chunk:
///
/// * a chunk whose payload extent lies (partly) beyond the available
///   bytes — mid-stream truncation — is lost as `Truncated`;
/// * a chunk whose decoder returns an error is lost with that error;
/// * a chunk whose decoder **panics** is caught and lost as `Corrupt`
///   (decoders must not panic, but salvage is exactly the place to
///   survive the ones that do);
/// * a v3 chunk whose decoded bytes miss their per-chunk CRC is lost as
///   `ChunkChecksumMismatch`.
///
/// Lost chunks' output regions are zero-filled, so the returned buffer
/// always has the declared length with recovered chunks at their exact
/// offsets. Hard errors remain only for damage that makes per-chunk
/// recovery meaningless: unusable header or chunk table, or an unknown
/// component.
///
/// For v2 archives (no per-chunk CRC) only structural faults are
/// detectable per chunk; value-level damage shows up solely as
/// `archive_crc_ok == false` in the report.
pub fn decode_salvage<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
) -> Result<(Vec<u8>, SalvageReport), DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let dec = Decoder::new(bytes, resolve)?;
    let n_chunks = dec.rows.len();
    let _salvage_span = span!(
        "archive.decode_salvage",
        bytes = bytes.len(),
        chunks = n_chunks
    );

    let original_len = dec.original_len();
    let mut out = vec![0u8; original_len];
    let mut chunk_crcs = vec![0u32; n_chunks];
    let (_, mut errors) = {
        let regions = DisjointSlice::new(&mut out);
        let crc_slots = DisjointSlice::new(&mut chunk_crcs);
        pool.fold(
            n_chunks,
            || (Worker::new(dec.stages.len()), Vec::<ChunkFault>::new()),
            |(worker, faults), i| {
                // SAFETY: chunk output regions tile `out` disjointly and
                // the pool claims each index exactly once.
                let region = unsafe { regions.slice_mut(chunk_range(i, original_len)) };
                // Panics are fenced per chunk so one poisoned payload
                // cannot take down its siblings. The arena survives a
                // panic: every stage clears its output buffer first.
                let placed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    dec.place_chunk(i, region, worker)
                }))
                .unwrap_or(Err(DecodeError::Corrupt {
                    context: "decoder panicked",
                }));
                match placed {
                    // SAFETY: the pool claims each index exactly once.
                    Ok(crc) => unsafe { *crc_slots.get_mut(i) = crc },
                    Err(error) => {
                        region.fill(0);
                        faults.push(ChunkFault {
                            chunk: i as u32,
                            error,
                        });
                    }
                }
            },
            |mut a, b| {
                a.1.extend(b.1);
                a
            },
        )
    };
    errors.sort_by_key(|f| f.chunk);
    let lost = errors.len() as u32;
    let archive_crc_ok =
        lost == 0 && whole_crc(chunk_crcs.iter().copied(), original_len) == dec.header.crc32;
    Ok((
        out,
        SalvageReport {
            recovered: n_chunks as u32 - lost,
            lost,
            errors,
            archive_crc_ok,
        },
    ))
}

/// [`decode_salvage`] behind the same size guard as [`decode_bounded`].
pub fn decode_salvage_bounded<R>(
    bytes: &[u8],
    resolve: R,
    pool: &Pool,
    max_decoded_bytes: u64,
) -> Result<(Vec<u8>, SalvageReport), DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let header = parse_header(bytes)?;
    if header.original_len > max_decoded_bytes {
        return Err(DecodeError::TooLarge {
            declared: header.original_len,
            limit: max_decoded_bytes,
        });
    }
    decode_salvage(bytes, resolve, pool)
}

/// Decode one chunk into the worker's arena, returning a borrowed view
/// of the recovered bytes.
///
/// The first inverse stage reads the stored payload slice directly (no
/// defensive copy); subsequent stages ping-pong between the arena
/// buffers. For a chunk whose mask is empty — every stage skipped by
/// copy-on-expand — the returned slice *is* `payload`: decode of such a
/// chunk touches no buffer at all and the caller copies the stored
/// bytes straight into the output region.
#[allow(clippy::too_many_arguments)]
fn decode_chunk_into<'s>(
    stages: &[Arc<dyn Component>],
    mask: u8,
    payload: &'s [u8],
    expected_len: usize,
    totals: &mut [StageAcc],
    chunk_index: usize,
    telemetry: bool,
    costs: &[StageCost],
    scratch: &'s mut Scratch,
) -> Result<&'s [u8], DecodeError> {
    let mut live = Live::Input;
    // Inverse transformations in reverse order (paper Fig. 1).
    for (s, comp) in stages.iter().enumerate().rev() {
        if mask & (1 << s) == 0 {
            // Stage skipped during encode (copy-on-expand): nothing to
            // undo. Record a zero-duration span so traces show the skip.
            if telemetry {
                let mut sp = Span::begin(
                    "stage.decode",
                    comp.name(),
                    vec![
                        ("chunk", ArgValue::from(chunk_index)),
                        ("skipped", ArgValue::from(true)),
                    ],
                );
                sp.with_histogram();
            }
            continue;
        }
        let total = &mut totals[s];
        let bytes_in = match live {
            Live::Input => payload.len(),
            Live::A => scratch.a.len(),
            Live::B => scratch.b.len(),
        };
        total.applied += 1;
        total.bytes_in += bytes_in as u64;
        let mut sp = if telemetry {
            let mut sp = Span::begin(
                "stage.decode",
                comp.name(),
                vec![
                    ("chunk", ArgValue::from(chunk_index)),
                    ("bytes_in", ArgValue::from(bytes_in)),
                ],
            );
            sp.with_histogram();
            sp
        } else {
            Span::disabled()
        };
        let t0 = if telemetry { lc_telemetry::now_ns() } else { 0 };
        let stage_result = match live {
            Live::Input => crate::scratch::decode_stage(
                comp.as_ref(),
                payload,
                &mut scratch.a,
                &mut total.kernel,
            ),
            Live::A => crate::scratch::decode_stage(
                comp.as_ref(),
                &scratch.a,
                &mut scratch.b,
                &mut total.kernel,
            ),
            Live::B => crate::scratch::decode_stage(
                comp.as_ref(),
                &scratch.b,
                &mut scratch.a,
                &mut total.kernel,
            ),
        };
        if telemetry {
            costs[s].bytes.add(bytes_in as u64);
            costs[s]
                .ns
                .record(lc_telemetry::now_ns().saturating_sub(t0));
            costs[s].kernel.add(1);
        }
        stage_result?;
        live = live.advance();
        let bytes_out = match live {
            Live::A => scratch.a.len(),
            _ => scratch.b.len(),
        };
        sp.arg("bytes_out", bytes_out);
        drop(sp);
        totals[s].bytes_out += bytes_out as u64;
    }
    let cur: &[u8] = match live {
        Live::Input => payload,
        Live::A => &scratch.a,
        Live::B => &scratch.b,
    };
    if cur.len() != expected_len {
        return Err(DecodeError::LengthMismatch {
            expected: expected_len as u64,
            actual: cur.len() as u64,
        });
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::CHUNK_SIZE;
    use crate::pipeline::test_support::{AddOne, DropTrailingZeros};

    fn resolver(name: &str) -> Option<Arc<dyn Component>> {
        match name {
            "ADD1_1" => Some(Arc::new(AddOne)),
            "DTZ_1" => Some(Arc::new(DropTrailingZeros)),
            _ => None,
        }
    }

    fn pipeline() -> Pipeline {
        Pipeline::parse("ADD1_1 DTZ_1", resolver).unwrap()
    }

    fn roundtrip(input: &[u8]) {
        let pool = Pool::new(4);
        let archive = encode(&pipeline(), input, &pool);
        let out = decode(&archive, resolver, &pool).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_single_byte() {
        roundtrip(&[42]);
    }

    #[test]
    fn roundtrip_one_exact_chunk() {
        let data: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_many_chunks_with_tail() {
        let data: Vec<u8> = (0..CHUNK_SIZE * 7 + 333).map(|i| (i % 13) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn compressible_data_shrinks() {
        // AddOne maps 0xFF -> 0x00, so trailing 0xFF bytes become zeros that
        // DTZ drops.
        let mut data = vec![1u8; 1000];
        data.extend(vec![0xFFu8; CHUNK_SIZE - 1000]);
        let pool = Pool::new(2);
        let res = encode_with_stats(&pipeline(), &data, &pool);
        assert!(res.archive.len() < data.len());
        assert_eq!(res.stats.stages[1].chunks_applied, 1);
        let out = decode(&res.archive, resolver, &pool).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn incompressible_chunk_skips_reducer() {
        // No trailing zeros after AddOne: DTZ adds an 8-byte header and
        // expands, so the framework must skip it.
        let data: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 200) as u8 + 1).collect();
        let pool = Pool::new(2);
        let res = encode_with_stats(&pipeline(), &data, &pool);
        assert_eq!(res.stats.stages[1].chunks_skipped, 1);
        assert_eq!(res.stats.stages[1].chunks_applied, 0);
        // Mutator still applied.
        assert_eq!(res.stats.stages[0].chunks_applied, 1);
        let out = decode(&res.archive, resolver, &pool).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn decode_stats_skip_means_zero_decode_work() {
        let data: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 200) as u8 + 1).collect();
        let pool = Pool::new(2);
        let archive = encode(&pipeline(), &data, &pool);
        let (_, stats) = decode_with_stats(&archive, resolver, &pool).unwrap();
        assert_eq!(stats.stages[1].chunks_applied, 0);
        assert!(stats.stages[1].kernel.is_zero());
        assert!(!stats.stages[0].kernel.is_zero());
    }

    #[test]
    fn bad_magic_rejected() {
        let pool = Pool::new(1);
        let err = decode(b"NOPExxxx", resolver, &pool).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn truncated_header_rejected() {
        let pool = Pool::new(1);
        let archive = encode(&pipeline(), &[1, 2, 3], &pool);
        for cut in 1..archive.len().min(24) {
            let err = decode(&archive[..cut], resolver, &pool);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_component_rejected() {
        let pool = Pool::new(1);
        let archive = encode(&pipeline(), &[1, 2, 3], &pool);
        let err = decode(&archive, |_| None::<Arc<dyn Component>>, &pool).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownComponent(_)));
    }

    #[test]
    fn corrupted_payload_is_an_error_not_a_panic() {
        let mut data = vec![1u8; 1000];
        data.extend(vec![0xFFu8; CHUNK_SIZE - 1000]);
        let pool = Pool::new(2);
        let mut archive = encode(&pipeline(), &data, &pool);
        let len = archive.len();
        archive[len - 20..len].fill(0xAB);
        // Structural damage errors early; value-only damage is caught by
        // the CRC. Either way: an error, never a panic or silent corruption.
        assert!(decode(&archive, resolver, &pool).is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let pool = Pool::new(1);
        let mut archive = encode(&pipeline(), &[1, 2, 3], &pool);
        archive[4] = 99;
        assert_eq!(
            decode(&archive, resolver, &pool).unwrap_err(),
            DecodeError::BadVersion(99)
        );
    }

    #[test]
    fn header_parse_reports_fields() {
        let pool = Pool::new(1);
        let data = vec![7u8; CHUNK_SIZE + 5];
        let archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.entry_size(), TABLE_ENTRY_V3);
        assert_eq!(h.stage_names, vec!["ADD1_1", "DTZ_1"]);
        assert_eq!(h.original_len, data.len() as u64);
        assert_eq!(h.chunks, 2);
    }

    /// Incompressible multi-chunk input: DTZ skips every chunk, so each
    /// chunk's payload is exactly CHUNK_SIZE AddOne'd bytes — flipping a
    /// payload byte damages exactly one chunk, with no structural error.
    fn incompressible(chunks: usize) -> Vec<u8> {
        (0..CHUNK_SIZE * chunks)
            .map(|i| (i % 200) as u8 + 1)
            .collect()
    }

    /// Rewrite a v3 archive as v2 (drop per-chunk CRCs) to exercise the
    /// backward-compatibility path without a frozen binary fixture.
    fn downgrade_to_v2(archive: &[u8]) -> Vec<u8> {
        let h = parse_header(archive).unwrap();
        assert_eq!(h.version, 3);
        let mut v2 = Vec::with_capacity(archive.len());
        v2.extend_from_slice(&archive[..4]);
        v2.push(2);
        v2.extend_from_slice(&archive[5..h.table_offset]);
        for i in 0..h.chunks as usize {
            let at = h.table_offset + i * TABLE_ENTRY_V3;
            v2.extend_from_slice(&archive[at..at + TABLE_ENTRY_V2]);
        }
        v2.extend_from_slice(&archive[h.payload_offset..]);
        v2
    }

    #[test]
    fn v2_archives_still_decode() {
        let pool = Pool::new(4);
        let data = incompressible(3);
        let v2 = downgrade_to_v2(&encode(&pipeline(), &data, &pool));
        let h = parse_header(&v2).unwrap();
        assert_eq!(h.version, 2);
        assert_eq!(h.entry_size(), TABLE_ENTRY_V2);
        assert_eq!(decode(&v2, resolver, &pool).unwrap(), data);
    }

    #[test]
    fn chunk_crc_localizes_value_damage() {
        let pool = Pool::new(4);
        let data = incompressible(4);
        let mut archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        // Every chunk stored at full size (DTZ skipped): chunk 2's payload
        // starts 2*CHUNK_SIZE into the payload region.
        archive[h.payload_offset + 2 * CHUNK_SIZE + 100] ^= 0xFF;
        match decode(&archive, resolver, &pool).unwrap_err() {
            DecodeError::ChunkChecksumMismatch { chunk, .. } => assert_eq!(chunk, 2),
            other => panic!("expected ChunkChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn salvage_clean_archive_is_clean() {
        let pool = Pool::new(4);
        let data = incompressible(3);
        let archive = encode(&pipeline(), &data, &pool);
        let (out, report) = decode_salvage(&archive, resolver, &pool).unwrap();
        assert_eq!(out, data);
        assert!(report.is_clean());
        assert_eq!(report.recovered, 3);
        assert_eq!(report.lost, 0);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn salvage_loses_exactly_the_damaged_chunks() {
        let pool = Pool::new(4);
        let data = incompressible(5);
        let mut archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        for damaged in [1usize, 3] {
            archive[h.payload_offset + damaged * CHUNK_SIZE + 7] ^= 0x55;
        }
        let (out, report) = decode_salvage(&archive, resolver, &pool).unwrap();
        assert_eq!(report.recovered, 3);
        assert_eq!(report.lost, 2);
        assert!(!report.archive_crc_ok);
        assert_eq!(
            report.errors.iter().map(|f| f.chunk).collect::<Vec<_>>(),
            vec![1, 3]
        );
        for i in 0..5 {
            let r = chunk_range(i, data.len());
            if i == 1 || i == 3 {
                assert!(out[r].iter().all(|&b| b == 0), "chunk {i} zero-filled");
            } else {
                assert_eq!(out[r.clone()], data[r], "chunk {i} recovered");
            }
        }
    }

    #[test]
    fn salvage_survives_mid_stream_truncation() {
        let pool = Pool::new(4);
        let data = incompressible(4);
        let archive = encode(&pipeline(), &data, &pool);
        let h = parse_header(&archive).unwrap();
        // Cut inside chunk 2's payload: chunks 0 and 1 stay whole, chunk 2
        // is partial, chunk 3 is gone.
        let cut = &archive[..h.payload_offset + 2 * CHUNK_SIZE + 10];
        let (out, report) = decode_salvage(cut, resolver, &pool).unwrap();
        assert_eq!(report.recovered, 2);
        assert_eq!(report.lost, 2);
        assert!(report
            .errors
            .iter()
            .all(|f| matches!(f.error, DecodeError::Truncated { .. })));
        assert_eq!(out[..2 * CHUNK_SIZE], data[..2 * CHUNK_SIZE]);
        assert!(out[2 * CHUNK_SIZE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn salvage_v2_reports_value_damage_via_archive_crc_only() {
        let pool = Pool::new(4);
        let data = incompressible(3);
        let mut v2 = downgrade_to_v2(&encode(&pipeline(), &data, &pool));
        let h = parse_header(&v2).unwrap();
        v2[h.payload_offset + CHUNK_SIZE + 9] ^= 0x01;
        let (_, report) = decode_salvage(&v2, resolver, &pool).unwrap();
        // Without per-chunk CRCs the damaged chunk decodes "successfully";
        // only the whole-archive CRC betrays the corruption.
        assert_eq!(report.lost, 0);
        assert!(!report.archive_crc_ok);
        assert!(!report.is_clean());
    }

    /// A component that breaks its size contract: declared a mutator,
    /// emits one byte too many. Optionally trips a token on the way.
    struct Rogue {
        grow: bool,
        trip: Option<CancelToken>,
    }

    impl Component for Rogue {
        fn name(&self) -> &'static str {
            "ROGUE_1"
        }
        fn kind(&self) -> crate::ComponentKind {
            crate::ComponentKind::Mutator
        }
        fn word_size(&self) -> usize {
            1
        }
        fn complexity(&self) -> crate::Complexity {
            AddOne.complexity()
        }
        fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _: &mut KernelStats) {
            out.extend_from_slice(input);
            if self.grow {
                out.push(0xEE);
            }
            if let Some(token) = &self.trip {
                token.cancel();
            }
        }
        fn decode_chunk(
            &self,
            input: &[u8],
            out: &mut Vec<u8>,
            _: &mut KernelStats,
        ) -> Result<(), DecodeError> {
            out.extend_from_slice(input);
            Ok(())
        }
    }

    fn rogue_pipeline(rogue: Rogue) -> Pipeline {
        Pipeline::new(vec![Arc::new(rogue), Arc::new(DropTrailingZeros)]).unwrap()
    }

    /// The payload region is sized on the promise that no chunk is stored
    /// larger than it came in. A component that breaks the promise must
    /// stop the encode at a real assertion before its bytes are copied:
    /// the debug-only check in `scratch` in a debug build, the encoder's
    /// own in a release build.
    #[test]
    #[should_panic(expected = "changed size")]
    fn expanding_non_reducer_is_stopped_before_the_copy() {
        let pipeline = rogue_pipeline(Rogue {
            grow: true,
            trip: None,
        });
        // Incompressible, so DTZ is skipped and the grown bytes would be
        // what gets stored.
        encode(&pipeline, &incompressible(3), &Pool::new(1));
    }

    #[test]
    fn cancelled_encode_returns_no_archive() {
        let data = incompressible(6);
        let pool = Pool::new(2);
        // Tripped before the first claim.
        let token = CancelToken::new();
        token.cancel();
        assert!(encode_cancellable(&pipeline(), &data, &pool, &token).is_none());
        // Tripped by the first chunk to run: a partly written payload
        // region exists, and the caller gets nothing of it.
        let token = CancelToken::new();
        let tripping = rogue_pipeline(Rogue {
            grow: false,
            trip: Some(token.clone()),
        });
        assert!(encode_cancellable(&tripping, &data, &pool, &token).is_none());
        // Untripped: the same bytes as the plain entry point.
        let res = encode_cancellable(&pipeline(), &data, &pool, &CancelToken::new()).unwrap();
        assert_eq!(res.archive, encode(&pipeline(), &data, &pool));
    }

    #[test]
    fn salvage_survives_a_panicking_decoder_and_reuses_its_arena() {
        /// Panics on every chunk that starts with the marker byte.
        struct Bomb;
        impl Component for Bomb {
            fn name(&self) -> &'static str {
                "ADD1_1"
            }
            fn kind(&self) -> crate::ComponentKind {
                crate::ComponentKind::Mutator
            }
            fn word_size(&self) -> usize {
                1
            }
            fn complexity(&self) -> crate::Complexity {
                AddOne.complexity()
            }
            fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, ks: &mut KernelStats) {
                AddOne.encode_chunk(input, out, ks)
            }
            fn decode_chunk(
                &self,
                input: &[u8],
                out: &mut Vec<u8>,
                ks: &mut KernelStats,
            ) -> Result<(), DecodeError> {
                out.extend_from_slice(&input[..input.len() / 2]);
                assert_ne!(input[0], 0xAB, "poisoned chunk");
                out.clear();
                AddOne.decode_chunk(input, out, ks)
            }
        }
        let mut data = incompressible(4);
        data[2 * CHUNK_SIZE] = 0xAA; // AddOne stores it as the marker
        let archive = encode(&pipeline(), &data, &Pool::new(1));
        let resolve = |name: &str| match name {
            "ADD1_1" => Some(Arc::new(Bomb) as Arc<dyn Component>),
            other => resolver(other),
        };
        // One worker, so the chunks after the panic reuse the arena the
        // panic left half-written.
        let (out, report) = decode_salvage(&archive, resolve, &Pool::new(1)).unwrap();
        assert_eq!(report.lost, 1);
        assert_eq!(report.recovered, 3);
        assert!(!report.archive_crc_ok);
        assert_eq!(report.errors[0].chunk, 2);
        assert_eq!(
            report.errors[0].error,
            DecodeError::Corrupt {
                context: "decoder panicked"
            }
        );
        for i in 0..4 {
            let r = chunk_range(i, data.len());
            if i == 2 {
                assert!(out[r].iter().all(|&b| b == 0));
            } else {
                assert_eq!(out[r.clone()], data[r]);
            }
        }
    }

    #[test]
    fn bounded_decode_rejects_bombs_before_allocating() {
        let pool = Pool::new(2);
        let data = incompressible(2);
        let archive = encode(&pipeline(), &data, &pool);
        let err = decode_bounded(&archive, resolver, &pool, data.len() as u64 - 1).unwrap_err();
        assert_eq!(
            err,
            DecodeError::TooLarge {
                declared: data.len() as u64,
                limit: data.len() as u64 - 1,
            }
        );
        assert_eq!(
            decode_bounded(&archive, resolver, &pool, data.len() as u64).unwrap(),
            data
        );
        let err = decode_salvage_bounded(&archive, resolver, &pool, 16).unwrap_err();
        assert!(matches!(err, DecodeError::TooLarge { .. }));
    }
}
