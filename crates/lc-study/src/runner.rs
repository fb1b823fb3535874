//! Stage runner: executes one component over chunked data with LC's
//! copy-on-expand semantics, collecting encode *and* decode kernel
//! statistics (and optionally verifying the round-trip as it goes).
//!
//! The measurement campaign runs the pipeline *tree* rather than each of
//! the 107,632 pipelines end-to-end: pipelines sharing a stage prefix
//! share the transformed data, so per input file only
//! 62 + 62² + 62²·(28 reducers) distinct stage executions are needed, and
//! a pipeline's cost is the sum of its three stages' costs (kernel
//! statistics are additive per stage by construction).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::{Direction, SimConfig};
use lc_core::chunk::CHUNK_SIZE;
use lc_core::{Component, KernelStats};
use lc_data::{Scale, SpFile};

/// Chunked data flowing between pipeline stages. Chunks stay separate
/// through the whole pipeline (each is one thread block's private data;
/// they are only concatenated in the final archive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedData {
    /// Per-chunk byte buffers.
    pub chunks: Vec<Vec<u8>>,
}

impl ChunkedData {
    /// Split a byte stream into 16 kB chunks.
    pub fn from_bytes(data: &[u8]) -> Self {
        Self {
            chunks: data.chunks(CHUNK_SIZE).map(|c| c.to_vec()).collect(),
        }
    }

    /// Total payload bytes across chunks.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// Result of running one component over all chunks of a stage input.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// The stage's output data (input of the next stage).
    pub output: ChunkedData,
    /// Encoder kernel statistics, summed over chunks where the stage ran.
    pub enc: KernelStats,
    /// Decoder kernel statistics — zero contribution from chunks where
    /// copy-on-expand skipped the stage (the decoder does no work there;
    /// paper §6.4).
    pub dec: KernelStats,
    /// Chunks the stage was applied to.
    pub applied: u64,
    /// Chunks where the reducer expanded and was skipped.
    pub skipped: u64,
}

/// Chunks per [`lc_core::encode_stage_batch`] call: enough to amortize
/// dispatch and telemetry per batch, small enough that the batch working
/// set (64 × 16 kB in and out) stays cache-resident.
const STAGE_BATCH: usize = 64;

/// A stage's kernel statistics and copy-on-expand tally: a
/// [`StageOutcome`] without its output.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageTally {
    pub(crate) enc: KernelStats,
    pub(crate) dec: KernelStats,
    pub(crate) applied: u64,
    pub(crate) skipped: u64,
}

impl StageTally {
    /// The outcome of the stage whose output chunks are `chunks`.
    pub(crate) fn with_output(self, chunks: Vec<Vec<u8>>) -> StageOutcome {
        StageOutcome {
            output: ChunkedData { chunks },
            enc: self.enc,
            dec: self.dec,
            applied: self.applied,
            skipped: self.skipped,
        }
    }
}

/// The encode and decode buffers of [`stage_loop`], one pair per chunk
/// of a batch. A campaign work unit keeps one set for all its stage
/// executions; each buffer keeps the capacity its largest output needed.
#[derive(Debug, Default)]
pub(crate) struct StageBufs {
    enc: Vec<Vec<u8>>,
    dec: Vec<Vec<u8>>,
}

/// Run `component` over every chunk of `input`, [`STAGE_BATCH`] chunks
/// per batched kernel call.
///
/// Reducers are skipped per chunk unless they strictly shrink it
/// (copy-on-expand). When `verify` is set, every applied chunk is decoded
/// back and compared — a fatal mismatch panics, because a non-invertible
/// component invalidates the whole study.
pub fn run_stage(component: &dyn Component, input: &ChunkedData, verify: bool) -> StageOutcome {
    let mut chunks = Vec::with_capacity(input.chunks.len());
    stage_loop(component, input, verify, &mut StageBufs::default(), |c| {
        chunks.push(c.to_vec())
    })
    .with_output(chunks)
}

/// The stage loop behind [`run_stage`]: runs `component` over `input`
/// with the buffers in `bufs` and hands each output chunk, in order, to
/// `sink` — the stage's encoded bytes where it applied, the input chunk
/// where copy-on-expand skipped it. A sink that keeps only the byte
/// count copies nothing.
pub(crate) fn stage_loop(
    component: &dyn Component,
    input: &ChunkedData,
    verify: bool,
    bufs: &mut StageBufs,
    mut sink: impl FnMut(&[u8]),
) -> StageTally {
    let mut tally = StageTally::default();
    // Cost-attribution handles, resolved once per stage call so the
    // per-batch hot loop only touches atomics. Campaign sweeps feed the
    // same `component.<name>.{encode,decode}.*` cost centers that serve
    // traffic does, so `lc report` ranks both from one metrics snapshot.
    // The `…kernel.<variant>` counters tag each direction with the SIMD
    // tier (scalar/sse2/avx2) the component's kernels dispatch to, one
    // count per chunk.
    let telemetry = lc_telemetry::active();
    let costs = if telemetry {
        let name = component.name();
        let kernel = component.kernel_variant().label();
        Some((
            lc_telemetry::counter(&format!("component.{name}.encode.bytes")),
            lc_telemetry::histogram(&format!("component.{name}.encode.ns")),
            lc_telemetry::counter(&format!("component.{name}.decode.bytes")),
            lc_telemetry::histogram(&format!("component.{name}.decode.ns")),
            lc_telemetry::counter(&format!("component.{name}.encode.kernel.{kernel}")),
            lc_telemetry::counter(&format!("component.{name}.decode.kernel.{kernel}")),
        ))
    } else {
        None
    };
    let StageBufs {
        enc: enc_bufs,
        dec: dec_bufs,
    } = bufs;
    for batch in input.chunks.chunks(STAGE_BATCH) {
        if enc_bufs.len() < batch.len() {
            enc_bufs.resize_with(batch.len(), || {
                Vec::with_capacity(CHUNK_SIZE + CHUNK_SIZE / 2)
            });
        }
        let refs: Vec<&[u8]> = batch.iter().map(|c| c.as_slice()).collect();
        let t0 = if telemetry { lc_telemetry::now_ns() } else { 0 };
        let applied = lc_core::encode_stage_batch(
            component,
            &refs,
            &mut enc_bufs[..batch.len()],
            &mut tally.enc,
        );
        if let Some((enc_bytes, enc_ns, _, _, enc_kernel, _)) = &costs {
            // The encode kernel ran even when copy-on-expand discarded
            // its output, so the cost is attributed unconditionally —
            // and exactly once per chunk, regardless of batch geometry.
            enc_bytes.add(batch.iter().map(|c| c.len() as u64).sum());
            enc_ns.record(lc_telemetry::now_ns().saturating_sub(t0));
            enc_kernel.add(batch.len() as u64);
        }
        // One decode call covers every applied chunk of the batch; the
        // skipped chunks contribute no decode stats (paper §6.4: the
        // decoder does no work where copy-on-expand kept the input).
        let dec_refs: Vec<&[u8]> = applied
            .iter()
            .zip(enc_bufs.iter())
            .filter(|(a, _)| **a)
            .map(|(_, b)| b.as_slice())
            .collect();
        if !dec_refs.is_empty() {
            if dec_bufs.len() < dec_refs.len() {
                dec_bufs.resize_with(dec_refs.len(), || Vec::with_capacity(CHUNK_SIZE));
            }
            let t1 = if telemetry { lc_telemetry::now_ns() } else { 0 };
            lc_core::decode_stage_batch(
                component,
                &dec_refs,
                &mut dec_bufs[..dec_refs.len()],
                &mut tally.dec,
            )
            .unwrap_or_else(|e| {
                panic!("{} failed to decode its own output: {e}", component.name())
            });
            if let Some((_, _, dec_bytes, dec_ns, _, dec_kernel)) = &costs {
                dec_bytes.add(dec_refs.iter().map(|b| b.len() as u64).sum());
                dec_ns.record(lc_telemetry::now_ns().saturating_sub(t1));
                dec_kernel.add(dec_refs.len() as u64);
            }
        }
        let mut d = 0usize;
        for (i, chunk) in batch.iter().enumerate() {
            if applied[i] {
                tally.applied += 1;
                if verify {
                    assert_eq!(
                        &dec_bufs[d],
                        chunk,
                        "{} round-trip mismatch on a {}-byte chunk",
                        component.name(),
                        chunk.len()
                    );
                }
                d += 1;
                sink(&enc_bufs[i]);
            } else {
                tally.skipped += 1;
                sink(chunk);
            }
        }
    }
    tally
}

/// Bytes the GPU archive adds per chunk: LC's table entry of stage mask
/// (u8) and stored length (u32) — `lc_core`'s v2 entry, without the v3
/// per-chunk CRC.
const CHUNK_TABLE_ENTRY_BYTES: u64 = lc_core::archive::TABLE_ENTRY_V2 as u64;

/// Archive bytes at paper scale for a final stage output of `measured`
/// bytes: the payload extrapolated by `factor`, plus one table entry per
/// chunk.
pub(crate) fn paper_compressed_bytes(measured: u64, factor: f64, chunks: u64) -> u64 {
    (measured as f64 * factor) as u64 + CHUNK_TABLE_ENTRY_BYTES * chunks
}

/// A pipeline run on reduced-scale input with its statistics
/// extrapolated to the paper's file size, the operating point the
/// campaign prices at (every tested input fully occupies every tested
/// GPU, §5).
#[derive(Debug, Clone)]
pub struct PaperScaleRun {
    /// Per-stage encode statistics.
    pub enc: Vec<KernelStats>,
    /// Per-stage decode statistics.
    pub dec: Vec<KernelStats>,
    /// 16 kB chunks of the paper-size file.
    pub chunks: u64,
    /// Paper-size uncompressed bytes.
    pub uncompressed: u64,
    /// Paper-scale archive bytes.
    pub compressed: u64,
}

impl PaperScaleRun {
    /// Simulated seconds for the run in `direction` on `cfg`, priced by
    /// [`gpu_sim::pipeline_time`].
    pub fn time(&self, cfg: &SimConfig, direction: Direction) -> f64 {
        let stats = match direction {
            Direction::Encode => &self.enc,
            Direction::Decode => &self.dec,
        };
        gpu_sim::pipeline_time(
            cfg,
            direction,
            stats,
            self.chunks,
            self.uncompressed,
            self.compressed,
        )
    }
}

/// Run `stages` in order, round-trip verified, over `file` generated at
/// `scale`, and extrapolate the statistics to the paper-size file.
pub fn run_at_paper_scale(
    file: &SpFile,
    scale: Scale,
    stages: &[Arc<dyn Component>],
) -> PaperScaleRun {
    let mut data = ChunkedData::from_bytes(&lc_data::generate(file, scale));
    let uncompressed = file.paper_size_tenth_mb as u64 * 100_000;
    let factor = uncompressed as f64 / data.total_bytes() as f64;
    let chunks = uncompressed.div_ceil(CHUNK_SIZE as u64);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for stage in stages {
        let o = run_stage(stage.as_ref(), &data, true);
        enc.push(o.enc.scaled(factor));
        dec.push(o.dec.scaled(factor));
        data = o.output;
    }
    PaperScaleRun {
        enc,
        dec,
        chunks,
        uncompressed,
        compressed: paper_compressed_bytes(data.total_bytes(), factor, chunks),
    }
}

/// A monotonic deadline for one campaign work unit.
///
/// Built on [`Instant`] (the monotonic clock), so wall-clock adjustments
/// cannot spuriously expire — or extend — a unit's budget. The deadline
/// is *cooperative*: it is checked between stage executions (see
/// [`run_stage_checked`]), which is the honest granularity on a thread
/// pool where a stage cannot be interrupted mid-kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watchdog {
    start: Instant,
    limit: Duration,
}

impl Watchdog {
    /// Arm a watchdog expiring `limit` from now.
    pub fn new(limit: Duration) -> Self {
        Self {
            start: Instant::now(),
            limit,
        }
    }

    /// Time elapsed since the watchdog was armed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        self.start.elapsed() > self.limit
    }

    /// The configured limit.
    pub fn limit(&self) -> Duration {
        self.limit
    }
}

/// Why a checked stage execution did not produce an outcome.
// pub-api: re-exported as `lc_study::QuarantineReason`, the reason of a `QuarantineEntry`
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageFault {
    /// The component panicked; payload message attached.
    Panic(String),
    /// The unit's watchdog expired before or during this stage.
    DeadlineExceeded {
        /// Elapsed time when the expiry was observed, in milliseconds.
        elapsed_ms: u64,
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
}

impl std::fmt::Display for StageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageFault::Panic(msg) => write!(f, "stage panicked: {msg}"),
            StageFault::DeadlineExceeded {
                elapsed_ms,
                limit_ms,
            } => {
                write!(
                    f,
                    "deadline exceeded: {elapsed_ms} ms elapsed of {limit_ms} ms budget"
                )
            }
        }
    }
}

/// [`stage_loop`] behind a panic fence and an optional watchdog.
///
/// A panicking component yields `StageFault::Panic` instead of unwinding
/// through the campaign; an expired watchdog — checked immediately
/// before the stage runs and again after it returns, so an overtime
/// stage is reported even though it could not be interrupted — yields
/// `StageFault::DeadlineExceeded`.
pub(crate) fn run_stage_checked(
    component: &dyn Component,
    input: &ChunkedData,
    verify: bool,
    watchdog: Option<&Watchdog>,
    bufs: &mut StageBufs,
    sink: impl FnMut(&[u8]),
) -> Result<StageTally, StageFault> {
    let expired = |w: &Watchdog| StageFault::DeadlineExceeded {
        elapsed_ms: w.elapsed().as_millis() as u64,
        limit_ms: w.limit().as_millis() as u64,
    };
    if let Some(w) = watchdog {
        if w.expired() {
            return Err(expired(w));
        }
    }
    let tally = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stage_loop(component, input, verify, bufs, sink)
    }))
    .map_err(|payload| StageFault::Panic(lc_parallel::panic_message(payload.as_ref())))?;
    if let Some(w) = watchdog {
        if w.expired() {
            return Err(expired(w));
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::ComponentKind;

    fn comp(name: &str) -> std::sync::Arc<dyn Component> {
        lc_components::lookup(name).expect(name)
    }

    #[test]
    fn chunking_roundtrip() {
        let data: Vec<u8> = (0..CHUNK_SIZE * 2 + 100).map(|i| (i % 255) as u8).collect();
        let c = ChunkedData::from_bytes(&data);
        assert_eq!(c.chunk_count(), 3);
        assert_eq!(c.total_bytes(), data.len() as u64);
        assert_eq!(c.chunks[2].len(), 100);
    }

    #[test]
    fn mutator_always_applies() {
        let data = ChunkedData::from_bytes(&vec![7u8; CHUNK_SIZE * 2]);
        let out = run_stage(comp("TCMS_4").as_ref(), &data, true);
        assert_eq!(out.applied, 2);
        assert_eq!(out.skipped, 0);
        assert_eq!(out.output.total_bytes(), data.total_bytes());
        assert_ne!(out.dec, KernelStats::default());
    }

    #[test]
    fn reducer_skips_incompressible_chunks() {
        // Random-ish bytes: RLE_4 finds no runs and must be skipped.
        let data: Vec<u8> = (0..CHUNK_SIZE)
            .map(|i| (((i * 2654435761usize) >> 7) % 256) as u8)
            .collect();
        let chunked = ChunkedData::from_bytes(&data);
        let out = run_stage(comp("RLE_4").as_ref(), &chunked, true);
        assert_eq!(out.skipped, 1);
        assert_eq!(out.applied, 0);
        // Skipped chunk: output is the input, decoder does nothing.
        assert_eq!(out.output.chunks[0], data);
        assert_eq!(out.dec, KernelStats::default());
    }

    #[test]
    fn reducer_applies_on_compressible_chunks() {
        let data = vec![0u8; CHUNK_SIZE];
        let chunked = ChunkedData::from_bytes(&data);
        let out = run_stage(comp("RZE_4").as_ref(), &chunked, true);
        assert_eq!(out.applied, 1);
        assert!(out.output.total_bytes() < data.len() as u64);
        assert_ne!(out.dec, KernelStats::default());
    }

    #[test]
    fn mixed_chunks_split_between_applied_and_skipped() {
        let mut data = vec![0u8; CHUNK_SIZE]; // compressible chunk
        data.extend((0..CHUNK_SIZE).map(|i| (((i * 2654435761usize) >> 7) % 256) as u8));
        let chunked = ChunkedData::from_bytes(&data);
        let out = run_stage(comp("RZE_4").as_ref(), &chunked, true);
        assert_eq!(out.applied, 1);
        assert_eq!(out.skipped, 1);
    }

    struct PanicComponent;
    impl Component for PanicComponent {
        fn name(&self) -> &'static str {
            "BOOM_1"
        }
        fn kind(&self) -> ComponentKind {
            ComponentKind::Mutator
        }
        fn word_size(&self) -> usize {
            1
        }
        fn complexity(&self) -> lc_core::Complexity {
            lc_core::Complexity::new(
                lc_core::WorkClass::N,
                lc_core::SpanClass::Const,
                lc_core::WorkClass::N,
                lc_core::SpanClass::Const,
            )
        }
        fn encode_chunk(&self, _: &[u8], _: &mut Vec<u8>, _: &mut KernelStats) {
            panic!("intentional test panic");
        }
        fn decode_chunk(
            &self,
            _: &[u8],
            _: &mut Vec<u8>,
            _: &mut KernelStats,
        ) -> Result<(), lc_core::DecodeError> {
            Ok(())
        }
    }

    /// [`run_stage_checked`] with fresh buffers and a byte-counting sink.
    fn checked(
        component: &dyn Component,
        input: &ChunkedData,
        verify: bool,
        watchdog: Option<&Watchdog>,
    ) -> Result<(StageTally, u64), StageFault> {
        let mut bytes = 0u64;
        let tally = run_stage_checked(
            component,
            input,
            verify,
            watchdog,
            &mut StageBufs::default(),
            |c| bytes += c.len() as u64,
        )?;
        Ok((tally, bytes))
    }

    #[test]
    fn checked_stage_catches_panics() {
        let data = ChunkedData::from_bytes(&[1, 2, 3]);
        let err = checked(&PanicComponent, &data, false, None).unwrap_err();
        match err {
            StageFault::Panic(msg) => assert!(msg.contains("intentional"), "{msg}"),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn checked_stage_matches_unchecked_on_success() {
        let data = ChunkedData::from_bytes(&vec![7u8; CHUNK_SIZE]);
        let a = run_stage(comp("TCMS_4").as_ref(), &data, true);
        let (b, bytes) = checked(comp("TCMS_4").as_ref(), &data, true, None).unwrap();
        assert_eq!(a.output.total_bytes(), bytes);
        assert_eq!(a.applied, b.applied);
    }

    #[test]
    fn expired_watchdog_aborts_before_running() {
        let data = ChunkedData::from_bytes(&vec![7u8; CHUNK_SIZE]);
        let w = Watchdog::new(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let err = checked(comp("TCMS_4").as_ref(), &data, false, Some(&w)).unwrap_err();
        assert!(
            matches!(err, StageFault::DeadlineExceeded { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn generous_watchdog_does_not_interfere() {
        let data = ChunkedData::from_bytes(&vec![7u8; CHUNK_SIZE]);
        let w = Watchdog::new(Duration::from_secs(3600));
        assert!(checked(comp("TCMS_4").as_ref(), &data, true, Some(&w)).is_ok());
    }

    #[test]
    fn batched_stage_stats_match_per_chunk_singles() {
        // A batch spanning many chunks with a mix of applied and skipped
        // (copy-on-expand) chunks must account *exactly* the stats a
        // chunk-at-a-time loop would: discarded stages count once, and
        // skipped chunks contribute no decode stats.
        let mut data = vec![0u8; CHUNK_SIZE]; // compressible
        data.extend((0..CHUNK_SIZE).map(|i| (((i * 2654435761usize) >> 7) % 256) as u8));
        data.extend(vec![7u8; CHUNK_SIZE]); // compressible (repeats)
        data.extend((0..CHUNK_SIZE / 2).map(|i| (i % 251) as u8));
        let chunked = ChunkedData::from_bytes(&data);
        for name in ["RZE_4", "RLE_1", "TCMS_4", "BIT_4", "DIFF_4"] {
            let c = comp(name);
            let batched = run_stage(c.as_ref(), &chunked, true);
            let mut enc = KernelStats::new();
            let mut dec = KernelStats::new();
            let mut enc_buf = Vec::new();
            let mut dec_buf = Vec::new();
            let mut singles = Vec::new();
            for chunk in &chunked.chunks {
                if lc_core::encode_stage(c.as_ref(), chunk, &mut enc_buf, &mut enc) {
                    lc_core::decode_stage(c.as_ref(), &enc_buf, &mut dec_buf, &mut dec).unwrap();
                    singles.push(enc_buf.clone());
                } else {
                    singles.push(chunk.clone());
                }
            }
            assert_eq!(batched.enc, enc, "{name} encode stats");
            assert_eq!(batched.dec, dec, "{name} decode stats");
            assert_eq!(batched.output.chunks, singles, "{name} bytes");
        }
    }

    #[test]
    fn counting_sink_matches_run_stage_on_every_rle_and_rze_reducer() {
        // The campaign's reducer stage keeps only the byte count of its
        // output, reusing one set of buffers across stages. Per reducer:
        // a run-free chunk every one of them skips, a zero chunk every
        // one applies to, chunks of short runs and sparse zeros that
        // split the reducers, and a short tail chunk — with one buffer
        // set carried across all eight reducers, in both orders, so a
        // buffer grown by one stage is reused by the next.
        let noise = |i: usize| (((i * 2654435761usize) >> 7) % 256) as u8;
        let mut data: Vec<u8> = (0..CHUNK_SIZE).map(noise).collect();
        data.extend(vec![0u8; CHUNK_SIZE]);
        data.extend((0..CHUNK_SIZE).map(|i| if (i / 3) % 5 == 0 { 0 } else { noise(i / 2) }));
        data.extend((0..CHUNK_SIZE).map(|i| noise(i / 24)));
        data.extend((0..777).map(|i| (i / 8) as u8));
        let chunked = ChunkedData::from_bytes(&data);
        let names = [
            "RLE_1", "RLE_2", "RLE_4", "RLE_8", "RZE_1", "RZE_2", "RZE_4", "RZE_8",
        ];
        let mut bufs = StageBufs::default();
        for name in names.iter().chain(names.iter().rev()) {
            let c = comp(name);
            let want = run_stage(c.as_ref(), &chunked, true);
            let mut bytes = 0u64;
            let got = stage_loop(c.as_ref(), &chunked, true, &mut bufs, |o| {
                bytes += o.len() as u64
            });
            assert_eq!(bytes, want.output.total_bytes(), "{name} output bytes");
            assert_eq!(got.enc, want.enc, "{name} encode stats");
            assert_eq!(got.dec, want.dec, "{name} decode stats");
            assert_eq!(
                (got.applied, got.skipped),
                (want.applied, want.skipped),
                "{name}"
            );
            assert!(want.applied > 0 && want.skipped > 0, "{name} mixes both");
        }
    }

    #[test]
    fn stage_chaining_preserves_roundtrip() {
        // Chain BIT_4 → DIFF_4 → RZE_4 manually through the runner and
        // verify each stage; data survives because verify=true asserts.
        let data: Vec<u8> = (0..CHUNK_SIZE + 123).map(|i| (i / 64) as u8).collect();
        let s0 = ChunkedData::from_bytes(&data);
        let s1 = run_stage(comp("BIT_4").as_ref(), &s0, true);
        let s2 = run_stage(comp("DIFF_4").as_ref(), &s1.output, true);
        let _s3 = run_stage(comp("RZE_4").as_ref(), &s2.output, true);
    }
}
