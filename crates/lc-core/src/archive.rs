//! Chunked archive format, and the chunk engine both containers run.
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
//! The chunk engine is framing-agnostic: [`crate::stream`] runs the same
//! two passes once per window. Each direction is one pass over the data
//! in one [`Pool`] pass, with no per-chunk allocation:
//!
//! * **Encode** reserves `input.len()` bytes behind the caller's framing
//!   (header and placeholder table) — copy-on-expand bounds every stored
//!   chunk by its input length, so that always suffices. A worker
//!   checksums its chunk, runs the stages in its [`Scratch`] arena,
//!   publishes the stored size to the decoupled look-back scan from
//!   `lc-parallel`, receives the cumulative size of all prior chunks,
//!   and copies its bytes straight to that offset of the output — how
//!   the GPU encoder propagates compressed sizes between thread blocks
//!   and stores each block's output (paper §6.1). The framing patches
//!   the table rows in afterwards.
//! * **Decode** prefix-sums the chunk table into payload offsets (the
//!   GPU decoder's block prefix sum), and a worker decodes its chunk in
//!   its arena, checks its length, copies it to the chunk's fixed output
//!   region and checksums the bytes *where they landed*, so the
//!   placement is covered by the check too.
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
//! Fault tolerance: [`Decoder::decode`] is all-or-nothing;
//! [`Decoder::salvage`] recovers every chunk that still validates and
//! reports the rest in a [`SalvageReport`].

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lc_parallel::{CancelToken, DisjointSlice, LookbackScan, Pool};
use lc_telemetry::{span, Span};

use crate::checksum::{combine, crc32};
use crate::chunk::{chunk_count, chunk_range, CHUNK_SIZE};
use crate::component::Component;
use crate::error::DecodeError;
use crate::pipeline::Pipeline;
use crate::scratch::{decode_stage, encode_stage, Scratch};
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

/// Outcome of one unrecoverable chunk in [`Decoder::salvage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Index of the chunk that could not be recovered.
    pub chunk: u32,
    /// Why it could not be recovered.
    pub error: DecodeError,
}

/// What [`Decoder::salvage`] managed to recover.
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

/// Result of [`encode_with`].
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
    totals: Vec<StageAcc>,
}

impl Worker {
    fn new(n_stages: usize) -> Self {
        Self {
            scratch: Scratch::new(),
            totals: vec![StageAcc::default(); n_stages],
        }
    }

    fn merge(mut self, other: Worker) -> Worker {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a.kernel.merge(&b.kernel);
            a.applied += b.applied;
            a.bytes_in += b.bytes_in;
            a.bytes_out += b.bytes_out;
        }
        self
    }
}

/// CRC-32 of consecutive pieces from each piece's `(crc, len)`, in order.
fn crc_of(pieces: impl Iterator<Item = (u32, usize)>) -> u32 {
    pieces.fold(0, |acc, (crc, len)| combine(acc, crc, len))
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
    // invariant: with no cancel token the pool drains every chunk.
    let result = encode_with(pipeline, input, pool, None).expect("no cancel token");
    result.archive
}

/// Encode `input` with `pipeline`, returning the archive and statistics.
///
/// With a `cancel` token, workers poll it at every chunk claim and the
/// encode stops at the next claim boundary once it trips; the result is
/// then `None` — there is no partial archive, and the caller (an
/// `lc-serve` request whose deadline fired) reports `deadline_exceeded`.
/// Without one the result is always `Some`.
///
/// # Panics
///
/// Panics if the pipeline has more than [`MAX_STAGES`] stages, or if a
/// stage chain stores a chunk larger than it came in.
pub fn encode_with(
    pipeline: &Pipeline,
    input: &[u8],
    pool: &Pool,
    cancel: Option<&CancelToken>,
) -> Option<EncodeResult> {
    let codec = ChunkCodec::new(pipeline.stages().to_vec(), "encode");
    let n_chunks = chunk_count(input.len());
    let mut enc_span = span!("archive.encode", bytes = input.len(), chunks = n_chunks);

    // Header and a placeholder table; the whole-input CRC and the table
    // rows are only known after the pass and are patched in below.
    let mut archive = Vec::with_capacity(64 + n_chunks * TABLE_ENTRY_V3 + input.len());
    write_prologue(&mut archive, MAGIC, VERSION, pipeline);
    archive.extend_from_slice(&(input.len() as u64).to_le_bytes());
    let crc_at = archive.len();
    archive.extend_from_slice(&[0; 4]);
    archive.extend_from_slice(&(n_chunks as u32).to_le_bytes());
    let table = archive.len()..archive.len() + n_chunks * TABLE_ENTRY_V3;
    archive.resize(table.end, 0);

    let encoded = encode_chunks(&codec, input, &mut archive, pool, cancel)?;
    write_rows(&mut archive[table.clone()], &encoded.rows, TABLE_ENTRY_V3);
    archive[crc_at..crc_at + 4].copy_from_slice(&encoded.crc.to_le_bytes());

    let stored = (archive.len() - table.start) as u64;
    let stats = codec.stats(&encoded.totals, n_chunks, input.len() as u64, stored);
    if codec.telemetry {
        enc_span.arg("archive_bytes", archive.len());
        lc_telemetry::counter("archive.encode.calls").add(1);
        lc_telemetry::counter("archive.encode.bytes_in").add(input.len() as u64);
        lc_telemetry::counter("archive.encode.bytes_out").add(archive.len() as u64);
        lc_telemetry::counter("archive.encode.chunks").add(n_chunks as u64);
    }
    Some(EncodeResult { archive, stats })
}

/// Write the prologue both containers open with: magic, version, and the
/// stage list as `count u8, (name_len u8, name)*`.
pub(crate) fn write_prologue(out: &mut Vec<u8>, magic: [u8; 4], version: u8, pipeline: &Pipeline) {
    out.extend_from_slice(&magic);
    out.push(version);
    out.push(pipeline.len() as u8);
    for s in pipeline.stages() {
        let name = s.name().as_bytes();
        out.push(name.len() as u8);
        out.extend_from_slice(name);
    }
}

/// Read `N` bytes through `fill`, which reads exactly `buf.len()` bytes
/// or fails: with a truncation for an in-memory archive, a truncation
/// or transport error for a stream.
pub(crate) fn take<const N: usize, E>(
    fill: &mut impl FnMut(&mut [u8], &'static str) -> Result<(), E>,
    context: &'static str,
) -> Result<[u8; N], E> {
    let mut buf = [0u8; N];
    fill(&mut buf, context)?;
    Ok(buf)
}

/// Read the prologue [`write_prologue`] writes through `fill` (see
/// [`take`]), returning the version and the stage names. Every field is
/// checked: malformed bytes yield a [`DecodeError`], never a panic.
pub(crate) fn read_prologue<E: From<DecodeError>>(
    magic: [u8; 4],
    versions: RangeInclusive<u8>,
    fill: &mut impl FnMut(&mut [u8], &'static str) -> Result<(), E>,
) -> Result<(u8, Vec<String>), E> {
    if take::<4, E>(fill, "magic")? != magic {
        return Err(DecodeError::BadMagic.into());
    }
    let [version] = take(fill, "version")?;
    if !versions.contains(&version) {
        return Err(DecodeError::BadVersion(version).into());
    }
    let [n_stages] = take(fill, "stage count")?;
    if n_stages == 0 || n_stages as usize > MAX_STAGES {
        let context = "stage count";
        return Err(DecodeError::Corrupt { context }.into());
    }
    let mut names = Vec::with_capacity(n_stages as usize);
    for _ in 0..n_stages {
        let [len] = take(fill, "stage name length")?;
        let mut name = vec![0u8; len as usize];
        fill(&mut name, "stage name")?;
        let context = "stage name utf8";
        names.push(String::from_utf8(name).map_err(|_| DecodeError::Corrupt { context })?);
    }
    Ok((version, names))
}

/// One chunk's row of the table, with the payload offset the prefix sum
/// over the stored sizes gives it.
#[derive(Clone, Copy, Default)]
pub(crate) struct ChunkRow {
    mask: u8,
    /// Byte offset of the stored chunk within the payload region.
    start: u64,
    stored_len: u32,
    /// CRC-32 of the chunk's original bytes; `None` in 5-byte rows.
    crc: Option<u32>,
}

/// Serialize `rows` into `table`: `entry_size` bytes per row, the chunk
/// CRC only in [`TABLE_ENTRY_V3`] rows.
pub(crate) fn write_rows(table: &mut [u8], rows: &[ChunkRow], entry_size: usize) {
    for (row, chunk) in table.chunks_exact_mut(entry_size).zip(rows) {
        row[0] = chunk.mask;
        row[1..5].copy_from_slice(&chunk.stored_len.to_le_bytes());
        if let (Some(crc), Some(field)) = (chunk.crc, row.get_mut(5..9)) {
            field.copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// Parse a table of `entry_size`-byte rows, returning the rows with
/// their payload offsets — a prefix sum over the table, as in the GPU
/// decoder — and the sum of the stored sizes. u32 sizes cannot overflow
/// a u64 total.
pub(crate) fn parse_rows(table: &[u8], entry_size: usize) -> (Vec<ChunkRow>, u64) {
    let le_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut total = 0u64;
    let rows = table
        .chunks_exact(entry_size)
        .map(|row| {
            let start = total;
            let stored_len = le_u32(&row[1..5]);
            total += u64::from(stored_len);
            let crc = row.get(5..9).map(le_u32);
            let mask = row[0];
            ChunkRow {
                mask,
                start,
                stored_len,
                crc,
            }
        })
        .collect();
    (rows, total)
}

/// What one encode pass of the chunk engine leaves besides the payload.
pub(crate) struct Encoded {
    /// One table row per chunk.
    pub(crate) rows: Vec<ChunkRow>,
    /// CRC-32 of the whole input, folded from the chunk CRCs.
    pub(crate) crc: u32,
    /// Per-stage totals over every chunk.
    totals: Vec<StageAcc>,
}

/// The encode pass of the chunk engine: encode the chunks of `input`
/// and append their payloads, in chunk order, to `out`.
///
/// One pool task per chunk, like one thread block per chunk on the GPU.
/// Returns `None` when `cancel` tripped; `out` then keeps its original
/// length and the partly written spare capacity is never exposed.
///
/// Cancellation is deadlock-safe with respect to the decoupled
/// look-back scan: workers only stop *between* claims, every claimed
/// chunk still publishes its scan entry, and `scan.total()` is consulted
/// only on the not-cancelled path where all chunks have published.
///
/// # Panics
///
/// Panics if a stage chain stores a chunk larger than it came in (only
/// a reducer may change the size, and only to shrink).
pub(crate) fn encode_chunks(
    codec: &ChunkCodec,
    input: &[u8],
    out: &mut Vec<u8>,
    pool: &Pool,
    cancel: Option<&CancelToken>,
) -> Option<Encoded> {
    let n_chunks = chunk_count(input.len());
    let payload_start = out.len();
    // The payload region: `input.len()` bytes of spare capacity, enough
    // because no chunk is stored larger than it came in.
    out.reserve(input.len());
    let scan = LookbackScan::new(n_chunks);
    let mut rows = vec![ChunkRow::default(); n_chunks];
    let totals = {
        let slots = DisjointSlice::new(&mut rows);
        let payload = DisjointSlice::new(&mut out.spare_capacity_mut()[..input.len()]);
        pool.fold_cancellable(
            n_chunks,
            cancel,
            || Worker::new(codec.stages.len()),
            |worker, i| {
                let chunk = &input[chunk_range(i, input.len())];
                let crc = crc32(chunk);
                let (stored, mask) = codec.encode_chunk(chunk, i, worker);
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
                let stored_len = stored.len() as u32;
                let (start, crc) = (offset, Some(crc));
                // SAFETY: the pool claims each index at most once.
                unsafe {
                    *slots.get_mut(i) = ChunkRow {
                        mask,
                        start,
                        stored_len,
                        crc,
                    }
                };
            },
            Worker::merge,
        )
    };
    // The cancellation check must precede `scan.total()`: a cancelled run
    // leaves unclaimed chunks unpublished, and `total()` asserts that
    // every participant has published. The token is monotonic, so "not
    // cancelled here" proves every chunk was claimed and completed.
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
    unsafe { out.set_len(payload_start + payload_total) };
    // Every row the encoder writes carries its chunk's CRC.
    let chunk_crcs = rows.iter().map(|r| r.crc.unwrap_or_default());
    let crc = crc_of(chunk_crcs.zip(input.chunks(CHUNK_SIZE).map(<[u8]>::len)));
    Some(Encoded {
        rows,
        crc,
        totals: totals.totals,
    })
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

/// A resolved stage chain plus the per-call telemetry decision: the one
/// chunk codec under both containers.
pub(crate) struct ChunkCodec {
    stages: Vec<Arc<dyn Component>>,
    /// Hoisted once per call: chunk/stage instrumentation branches on
    /// this bool, so a disabled-telemetry call pays one relaxed load.
    telemetry: bool,
    costs: Vec<StageCost>,
}

impl ChunkCodec {
    /// `dir` (`"encode"` or `"decode"`) names the cost metrics.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_STAGES`] stages.
    pub(crate) fn new(stages: Vec<Arc<dyn Component>>, dir: &str) -> Self {
        assert!(
            stages.len() <= MAX_STAGES,
            "pipeline has {} stages; archive mask supports at most {MAX_STAGES}",
            stages.len()
        );
        let telemetry = lc_telemetry::active();
        let costs = if telemetry {
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
        } else {
            Vec::new()
        };
        Self {
            stages,
            telemetry,
            costs,
        }
    }

    /// Resolve `names` for decoding; an unknown name is an error.
    pub(crate) fn resolve<R>(names: &[String], resolve: R) -> Result<Self, DecodeError>
    where
        R: Fn(&str) -> Option<Arc<dyn Component>>,
    {
        let stages = names
            .iter()
            .map(|n| resolve(n).ok_or_else(|| DecodeError::UnknownComponent(n.clone())))
            .collect::<Result<_, _>>()?;
        Ok(Self::new(stages, "decode"))
    }

    /// Statistics of a pass over `n_chunks` chunks from its stage totals.
    fn stats(&self, totals: &[StageAcc], n_chunks: usize, raw: u64, stored: u64) -> PipelineStats {
        let stages = self
            .stages
            .iter()
            .zip(totals)
            .map(|(comp, acc)| StageStats {
                component: comp.name().to_string(),
                kernel: acc.kernel,
                chunks_applied: acc.applied,
                chunks_skipped: n_chunks as u64 - acc.applied,
                bytes_in: acc.bytes_in,
                bytes_out: acc.bytes_out,
            });
        PipelineStats {
            stages: stages.collect(),
            chunks: n_chunks as u64,
            uncompressed_bytes: raw,
            compressed_bytes: stored,
        }
    }

    /// Run stage `s` of chunk `i` over `bytes_in` bytes. With telemetry
    /// on, the stage runs inside a `stage.<dir>` span, returned open for
    /// the caller's outcome arguments, and its kernel time is charged to
    /// the component — even when copy-on-expand discards the output: the
    /// work happened.
    fn traced<T>(
        &self,
        dir: &'static str,
        s: usize,
        i: usize,
        bytes_in: usize,
        stage: impl FnOnce() -> T,
    ) -> (T, Span) {
        if !self.telemetry {
            return (stage(), Span::disabled());
        }
        let args = vec![("chunk", i.into()), ("bytes_in", bytes_in.into())];
        let mut sp = Span::begin(dir, self.stages[s].name(), args);
        sp.with_histogram();
        let t0 = lc_telemetry::now_ns();
        let result = stage();
        let cost = &self.costs[s];
        cost.bytes.add(bytes_in as u64);
        cost.ns.record(lc_telemetry::now_ns().saturating_sub(t0));
        cost.kernel.add(1);
        (result, sp)
    }

    /// Run the stages over chunk `i` in the worker's arena, returning a
    /// borrowed view of the bytes to store and the chunk's stage mask.
    ///
    /// The first stage reads the caller's chunk slice directly — no
    /// defensive copy; a stage writes `b`, and an applied one is swapped
    /// into `a`, where the next stage reads it. For a chunk no stage
    /// applied to, the returned slice *is* `chunk`.
    fn encode_chunk<'s>(
        &self,
        chunk: &'s [u8],
        i: usize,
        worker: &'s mut Worker,
    ) -> (&'s [u8], u8) {
        let Worker { scratch, totals } = worker;
        let mut mask = 0u8;
        for (s, comp) in self.stages.iter().enumerate() {
            let input: &[u8] = if mask == 0 { chunk } else { &scratch.a };
            let bytes_in = input.len();
            let total = &mut totals[s];
            let (applied, mut sp) = self.traced("stage.encode", s, i, bytes_in, || {
                encode_stage(comp.as_ref(), input, &mut scratch.b, &mut total.kernel)
            });
            let bytes_out = if applied { scratch.b.len() } else { bytes_in };
            sp.arg("applied", applied);
            sp.arg("bytes_out", bytes_out);
            drop(sp);
            if applied {
                total.applied += 1;
                total.bytes_in += bytes_in as u64;
                total.bytes_out += bytes_out as u64;
                mask |= 1 << s;
                std::mem::swap(&mut scratch.a, &mut scratch.b);
            }
        }
        (if mask == 0 { chunk } else { &scratch.a }, mask)
    }

    /// Decode chunk `i` into the worker's arena, returning a borrowed
    /// view of the recovered bytes.
    ///
    /// The first inverse stage reads the stored payload slice directly
    /// (no defensive copy); buffers move as in [`Self::encode_chunk`].
    /// For a chunk whose mask is empty — every stage skipped by
    /// copy-on-expand — the returned slice *is* `payload`: decode of such
    /// a chunk touches no buffer at all and the caller copies the stored
    /// bytes straight into the output region.
    fn decode_chunk<'s>(
        &self,
        mask: u8,
        payload: &'s [u8],
        i: usize,
        worker: &'s mut Worker,
    ) -> Result<&'s [u8], DecodeError> {
        if u32::from(mask) >> self.stages.len() != 0 {
            return Err(DecodeError::Corrupt {
                context: "chunk mask",
            });
        }
        let Worker { scratch, totals } = worker;
        let mut on_payload = true;
        // Inverse transformations in reverse order (paper Fig. 1).
        for (s, comp) in self.stages.iter().enumerate().rev() {
            if mask & (1 << s) == 0 {
                // Stage skipped during encode (copy-on-expand): nothing to
                // undo. Record a zero-duration span so traces show the skip.
                if self.telemetry {
                    let args = vec![("chunk", i.into()), ("skipped", true.into())];
                    Span::begin("stage.decode", comp.name(), args).with_histogram();
                }
                continue;
            }
            let input: &[u8] = if on_payload { payload } else { &scratch.a };
            let bytes_in = input.len();
            let total = &mut totals[s];
            total.applied += 1;
            total.bytes_in += bytes_in as u64;
            let (result, mut sp) = self.traced("stage.decode", s, i, bytes_in, || {
                decode_stage(comp.as_ref(), input, &mut scratch.b, &mut total.kernel)
            });
            result?;
            sp.arg("bytes_out", scratch.b.len());
            drop(sp);
            total.bytes_out += scratch.b.len() as u64;
            std::mem::swap(&mut scratch.a, &mut scratch.b);
            on_payload = false;
        }
        Ok(if on_payload { payload } else { &scratch.a })
    }

    /// Decode the chunk `row` describes from `payload` and place it at
    /// the front of `region`, returning the placed bytes' CRC-32 and
    /// length. The decoded length must be `region.len()` — or at most
    /// that when `exact` is false — and a chunk whose CRC misses the
    /// row's is an error (`region` then holds the wrong bytes).
    fn place_chunk(
        &self,
        i: usize,
        row: &ChunkRow,
        payload: &[u8],
        region: &mut [u8],
        exact: bool,
        worker: &mut Worker,
    ) -> Result<(u32, usize), DecodeError> {
        let stored = usize::try_from(row.start)
            .ok()
            .and_then(|start| payload.get(start..start.checked_add(row.stored_len as usize)?))
            .ok_or(DecodeError::Truncated {
                context: "chunk payload",
            })?;
        let decoded = self.decode_chunk(row.mask, stored, i, worker)?;
        if decoded.len() > region.len() || (exact && decoded.len() != region.len()) {
            return Err(DecodeError::LengthMismatch {
                expected: region.len() as u64,
                actual: decoded.len() as u64,
            });
        }
        let placed = &mut region[..decoded.len()];
        placed.copy_from_slice(decoded);
        let actual = crc32(placed);
        match row.crc {
            Some(expected) if expected != actual => Err(DecodeError::ChunkChecksumMismatch {
                chunk: i as u32,
                expected,
                actual,
            }),
            _ => Ok((actual, placed.len())),
        }
    }
}

/// What a decode pass does with a chunk that fails.
#[derive(Clone, Copy)]
pub(crate) enum Faults<'c> {
    /// Strict: a worker stops at its first fault, and `cancel` (when
    /// given) is polled at every chunk boundary — already-claimed chunks
    /// complete, later claims fail as [`DecodeError::Cancelled`].
    Stop(Option<&'c CancelToken>),
    /// Salvage: a chunk's panics are caught, its region zero-filled, and
    /// the pass goes on. The arena survives a panic: every stage clears
    /// its output buffer first.
    Salvage,
}

/// How salvage reports a chunk whose decoder panicked.
const PANICKED: DecodeError = DecodeError::Corrupt {
    context: "decoder panicked",
};

/// What one decode pass of the chunk engine leaves besides the output.
pub(crate) struct Decoded {
    /// `(crc, len)` of each placed chunk; `(0, 0)` for a failed one.
    pub(crate) placed: Vec<(u32, usize)>,
    /// Failed chunks, in chunk order.
    pub(crate) faults: Vec<ChunkFault>,
    /// Per-stage totals over every chunk.
    totals: Vec<StageAcc>,
}

/// The decode pass of the chunk engine: decode `rows` from `payload`,
/// chunk `i` into `chunk_range(i, out.len())` of `out`. Every chunk must
/// fill its region exactly, except that the last may come up short when
/// `ragged_tail` is set (a stream batch, whose total length is not known
/// up front).
pub(crate) fn decode_chunks(
    codec: &ChunkCodec,
    rows: &[ChunkRow],
    payload: &[u8],
    out: &mut [u8],
    ragged_tail: bool,
    pool: &Pool,
    policy: Faults,
) -> Decoded {
    let out_len = out.len();
    let mut placed = vec![(0u32, 0usize); rows.len()];
    let (totals, mut faults) = {
        let regions = DisjointSlice::new(out);
        let slots = DisjointSlice::new(&mut placed);
        pool.fold(
            rows.len(),
            || (Worker::new(codec.stages.len()), Vec::<ChunkFault>::new()),
            |(worker, faults), i| {
                let exact = !(ragged_tail && i + 1 == rows.len());
                // SAFETY: chunk output regions tile `out` disjointly and
                // the pool claims each index exactly once.
                let region = unsafe { regions.slice_mut(chunk_range(i, out_len)) };
                let mut place = || codec.place_chunk(i, &rows[i], payload, region, exact, worker);
                let result = match policy {
                    // A chunk already failed; drain the remaining work.
                    Faults::Stop(_) if !faults.is_empty() => return,
                    Faults::Stop(Some(c)) if c.is_cancelled() => Err(DecodeError::Cancelled),
                    Faults::Stop(_) => place(),
                    // Panics are fenced per chunk so one poisoned payload
                    // cannot take down its siblings.
                    Faults::Salvage => {
                        catch_unwind(AssertUnwindSafe(place)).unwrap_or(Err(PANICKED))
                    }
                };
                match result {
                    // SAFETY: the pool claims each index exactly once.
                    Ok(p) => unsafe { *slots.get_mut(i) = p },
                    Err(error) => {
                        region.fill(0);
                        faults.push(ChunkFault {
                            chunk: i as u32,
                            error,
                        });
                    }
                }
            },
            |(a, mut fa), (b, fb)| {
                fa.extend(fb);
                (a.merge(b), fa)
            },
        )
    };
    faults.sort_by_key(|f| f.chunk);
    Decoded {
        placed,
        faults,
        totals: totals.totals,
    }
}

/// Parse just the header of an archive.
///
/// Accepts format versions [`MIN_VERSION`]..=[`VERSION`]. Every field
/// read is bounds-checked against untrusted input: malformed bytes yield
/// a [`DecodeError`], never a panic.
pub fn parse_header(bytes: &[u8]) -> Result<Archive, DecodeError> {
    let mut pos = 0usize;
    let mut fill = |buf: &mut [u8], context: &'static str| -> Result<(), DecodeError> {
        let src = bytes
            .get(pos..pos + buf.len())
            .ok_or(DecodeError::Truncated { context })?;
        buf.copy_from_slice(src);
        pos += buf.len();
        Ok(())
    };
    let (version, stage_names) = read_prologue(MAGIC, MIN_VERSION..=VERSION, &mut fill)?;
    let original_len = u64::from_le_bytes(take(&mut fill, "original length")?);
    let crc32 = u32::from_le_bytes(take(&mut fill, "checksum")?);
    let chunks = u32::from_le_bytes(take(&mut fill, "chunk count")?);
    if chunks as u64 != chunk_count(original_len as usize) as u64 {
        return Err(DecodeError::Corrupt {
            context: "chunk count vs length",
        });
    }
    let mut header = Archive {
        version,
        stage_names,
        original_len,
        crc32,
        chunks,
        table_offset: pos,
        payload_offset: 0,
    };
    header.payload_offset = (chunks as usize)
        .checked_mul(header.entry_size())
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or(DecodeError::Truncated {
            context: "chunk table",
        })?;
    Ok(header)
}

/// An archive parsed and resolved once, ready to decode.
///
/// [`Decoder::decode`] and [`Decoder::salvage`] run the same pass and
/// differ only in what they do with a chunk that fails.
pub struct Decoder<'a> {
    header: Archive,
    codec: ChunkCodec,
    rows: Vec<ChunkRow>,
    /// Sum of the stored sizes: what `payload` should measure.
    payload_total: u64,
    payload: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Parse the header of `bytes`, resolve its stages through `resolve`
    /// and prefix-sum its chunk table.
    ///
    /// With `max_decoded_bytes`, an archive declaring more output than
    /// that is refused as [`DecodeError::TooLarge`] before anything is
    /// allocated. This is the decompression-bomb guard: a hostile
    /// archive can declare an arbitrary `original_len`, and decoding it
    /// allocates that much.
    pub fn new<R>(
        bytes: &'a [u8],
        resolve: R,
        max_decoded_bytes: Option<u64>,
    ) -> Result<Self, DecodeError>
    where
        R: Fn(&str) -> Option<Arc<dyn Component>>,
    {
        let header = parse_header(bytes)?;
        if let Some(limit) = max_decoded_bytes.filter(|&l| header.original_len > l) {
            return Err(DecodeError::TooLarge {
                declared: header.original_len,
                limit,
            });
        }
        let codec = ChunkCodec::resolve(&header.stage_names, resolve)?;
        let table = &bytes[header.table_offset..header.payload_offset];
        let (rows, payload_total) = parse_rows(table, header.entry_size());
        Ok(Self {
            payload: &bytes[header.payload_offset..],
            header,
            codec,
            rows,
            payload_total,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Archive {
        &self.header
    }

    /// Decode the whole archive, all or nothing, also returning
    /// per-stage statistics. With `cancel`, workers poll it at every
    /// chunk boundary and the decode fails with
    /// [`DecodeError::Cancelled`] once it trips.
    pub fn decode(
        &self,
        pool: &Pool,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<u8>, PipelineStats), DecodeError> {
        let n_chunks = self.rows.len();
        let in_bytes = self.header.payload_offset + self.payload.len();
        let mut dec_span = span!("archive.decode", bytes = in_bytes, chunks = n_chunks);
        if self.payload.len() as u64 != self.payload_total {
            return Err(DecodeError::Corrupt {
                context: "payload size",
            });
        }
        let (out, pass) = self.pass(pool, Faults::Stop(cancel));
        if let Some(fault) = pass.faults.into_iter().next() {
            return Err(fault.error);
        }
        // Integrity: the decoded stream must match the recorded CRC — this
        // is what turns "plausible but wrong bytes" from payload corruption
        // into a hard error. (For v3 every chunk already matched its own
        // CRC; for v2 this is the only value-level check.)
        let (expected, actual) = (self.header.crc32, crc_of(pass.placed.into_iter()));
        if actual != expected {
            return Err(DecodeError::ChecksumMismatch { expected, actual });
        }
        let stored = self.payload_total + (n_chunks * self.header.entry_size()) as u64;
        let stats = self
            .codec
            .stats(&pass.totals, n_chunks, self.header.original_len, stored);
        if self.codec.telemetry {
            dec_span.arg("decoded_bytes", out.len());
            lc_telemetry::counter("archive.decode.calls").add(1);
            lc_telemetry::counter("archive.decode.bytes_in").add(in_bytes as u64);
            lc_telemetry::counter("archive.decode.bytes_out").add(out.len() as u64);
            lc_telemetry::counter("archive.decode.chunks").add(n_chunks as u64);
        }
        Ok((out, stats))
    }

    /// Best-effort decode of a damaged archive.
    ///
    /// Where [`Decoder::decode`] aborts on the first fault, this decodes
    /// every chunk independently and degrades per chunk:
    ///
    /// * a chunk whose payload extent lies (partly) beyond the available
    ///   bytes — mid-stream truncation — is lost as `Truncated`;
    /// * a chunk whose decoder returns an error, or whose decoded length
    ///   is wrong, is lost with that error;
    /// * a chunk whose decoder **panics** is caught and lost as `Corrupt`
    ///   (decoders must not panic, but salvage is exactly the place to
    ///   survive the ones that do);
    /// * a v3 chunk whose decoded bytes miss their per-chunk CRC is lost
    ///   as `ChunkChecksumMismatch`.
    ///
    /// Lost chunks' output regions are zero-filled, so the returned
    /// buffer always has the declared length with recovered chunks at
    /// their exact offsets. Hard errors remain only for damage that makes
    /// per-chunk recovery meaningless, and [`Decoder::new`] reports
    /// those: unusable header or chunk table, or an unknown component.
    ///
    /// For v2 archives (no per-chunk CRC) only structural faults are
    /// detectable per chunk; value-level damage shows up solely as
    /// `archive_crc_ok == false` in the report.
    pub fn salvage(&self, pool: &Pool) -> Result<(Vec<u8>, SalvageReport), DecodeError> {
        let n_chunks = self.rows.len();
        let in_bytes = self.header.payload_offset + self.payload.len();
        let _span = span!(
            "archive.decode_salvage",
            bytes = in_bytes,
            chunks = n_chunks
        );
        let (out, pass) = self.pass(pool, Faults::Salvage);
        let lost = pass.faults.len() as u32;
        let archive_crc_ok = lost == 0 && crc_of(pass.placed.into_iter()) == self.header.crc32;
        let report = SalvageReport {
            recovered: n_chunks as u32 - lost,
            lost,
            errors: pass.faults,
            archive_crc_ok,
        };
        Ok((out, report))
    }

    fn pass(&self, pool: &Pool, policy: Faults) -> (Vec<u8>, Decoded) {
        let mut out = vec![0u8; self.header.original_len as usize];
        let pass = decode_chunks(
            &self.codec,
            &self.rows,
            self.payload,
            &mut out,
            false,
            pool,
            policy,
        );
        (out, pass)
    }
}

/// Decode an archive, resolving stage names through `resolve`.
pub fn decode<R>(bytes: &[u8], resolve: R, pool: &Pool) -> Result<Vec<u8>, DecodeError>
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let (out, _) = Decoder::new(bytes, resolve, None)?.decode(pool, None)?;
    Ok(out)
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
        let res = encode_with(&pipeline(), &data, &pool, None).unwrap();
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
        let res = encode_with(&pipeline(), &data, &pool, None).unwrap();
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
        let decoder = Decoder::new(&archive, resolver, None).unwrap();
        let (_, stats) = decoder.decode(&pool, None).unwrap();
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

    fn salvage<R>(bytes: &[u8], resolve: R, pool: &Pool) -> (Vec<u8>, SalvageReport)
    where
        R: Fn(&str) -> Option<Arc<dyn Component>>,
    {
        let decoder = Decoder::new(bytes, resolve, None).unwrap();
        decoder.salvage(pool).unwrap()
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
        let (out, report) = salvage(&archive, resolver, &pool);
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
        let (out, report) = salvage(&archive, resolver, &pool);
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
        let (out, report) = salvage(cut, resolver, &pool);
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
        let (_, report) = salvage(&v2, resolver, &pool);
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
        assert!(encode_with(&pipeline(), &data, &pool, Some(&token)).is_none());
        // Tripped by the first chunk to run: a partly written payload
        // region exists, and the caller gets nothing of it.
        let token = CancelToken::new();
        let tripping = rogue_pipeline(Rogue {
            grow: false,
            trip: Some(token.clone()),
        });
        assert!(encode_with(&tripping, &data, &pool, Some(&token)).is_none());
        // Untripped: the same bytes as the plain entry point.
        let token = CancelToken::new();
        let res = encode_with(&pipeline(), &data, &pool, Some(&token)).unwrap();
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
        let (out, report) = salvage(&archive, resolve, &Pool::new(1));
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
    fn limited_decoder_refuses_oversized_archives() {
        let pool = Pool::new(2);
        let data = incompressible(2);
        let archive = encode(&pipeline(), &data, &pool);
        let declared = data.len() as u64;
        let err = Decoder::new(&archive, resolver, Some(declared - 1)).err();
        assert_eq!(
            err,
            Some(DecodeError::TooLarge {
                declared,
                limit: declared - 1,
            })
        );
        let at_limit = Decoder::new(&archive, resolver, Some(declared)).unwrap();
        assert_eq!(at_limit.decode(&pool, None).unwrap().0, data);
        assert_eq!(at_limit.salvage(&pool).unwrap().0, data);
    }

    /// A well-formed header and table declaring `declared` bytes of
    /// output, with no payload: decoding it would allocate `declared`.
    fn bomb(declared: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_prologue(&mut bytes, MAGIC, VERSION, &pipeline());
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        let chunks = chunk_count(declared as usize);
        bytes.extend_from_slice(&(chunks as u32).to_le_bytes());
        bytes.resize(bytes.len() + chunks * TABLE_ENTRY_V3, 0);
        bytes
    }

    #[test]
    fn limited_decoder_refuses_bombs_before_allocating() {
        let pool = Pool::new(2);
        // 1 GiB of declared output behind a 576 KiB table.
        let declared = 1u64 << 30;
        let bytes = bomb(declared);
        let limit = 1 << 20;
        let refused = DecodeError::TooLarge { declared, limit };
        let strict =
            Decoder::new(&bytes, resolver, Some(limit)).and_then(|d| d.decode(&pool, None));
        assert_eq!(strict.err(), Some(refused.clone()));
        let salvage = Decoder::new(&bytes, resolver, Some(limit)).and_then(|d| d.salvage(&pool));
        assert_eq!(salvage.err(), Some(refused));
        // The header itself is sound: only the limit refused it.
        let unlimited = Decoder::new(&bytes, resolver, None).unwrap();
        assert_eq!(unlimited.header().original_len, declared);
    }
}
