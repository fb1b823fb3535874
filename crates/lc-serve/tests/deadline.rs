//! Satellite: table-driven deadline coverage.
//!
//! A deadline that fires before the pipeline starts, inside stage 1,
//! inside stage 2, or inside stage 3 must always terminate the request
//! with a structured `deadline_exceeded` error — and must never leak a
//! memory lease: after every case, the governor's residency is back at
//! its baseline of zero. A generous deadline (firing only after the
//! work would finish) must not perturb the result.
//!
//! The slow stages are instrumented passthrough/delegating components
//! that sleep per chunk, so the deadline reliably fires while the named
//! stage is the one consuming the clock. Cancellation is observed at
//! chunk-claim boundaries, which is exactly the granularity the token
//! plumbing promises.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::{
    Complexity, Component, ComponentKind, DecodeError, KernelStats, SpanClass, WorkClass,
};
use lc_parallel::{CancelToken, Pool};
use lc_serve::arena::MemGovernor;
use lc_serve::exec::{execute, ExecContext};
use lc_serve::proto::{ErrorKind, Op, Request, Response};

/// Per-chunk sleep inside a slow stage.
const STAGE_DELAY: Duration = Duration::from_millis(20);
/// Chunks in the test payload (96 kB total).
const CHUNKS: usize = 6;
/// A deadline short enough to fire inside the slow stage's work
/// (total slow work is CHUNKS * STAGE_DELAY on a 1-thread pool).
const SHORT_DEADLINE: Duration = Duration::from_millis(35);

/// Size-preserving passthrough that sleeps per chunk.
struct SlowMutator {
    name: &'static str,
    delay: Duration,
}

impl Component for SlowMutator {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kind(&self) -> ComponentKind {
        ComponentKind::Mutator
    }
    fn word_size(&self) -> usize {
        1
    }
    fn complexity(&self) -> Complexity {
        Complexity::new(
            WorkClass::N,
            SpanClass::Const,
            WorkClass::N,
            SpanClass::Const,
        )
    }
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, _stats: &mut KernelStats) {
        std::thread::sleep(self.delay);
        out.extend_from_slice(input);
    }
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        _stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        std::thread::sleep(self.delay);
        out.extend_from_slice(input);
        Ok(())
    }
}

/// A real reducer (RZE_1) wrapped with a per-chunk sleep, so the slow
/// stage can sit in the mandatory final-reducer slot and still be
/// applied (the test payload compresses, so RZE strictly shrinks it).
struct SlowReducer {
    name: &'static str,
    delay: Duration,
    inner: Arc<dyn Component>,
}

impl Component for SlowReducer {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kind(&self) -> ComponentKind {
        ComponentKind::Reducer
    }
    fn word_size(&self) -> usize {
        self.inner.word_size()
    }
    fn complexity(&self) -> Complexity {
        self.inner.complexity()
    }
    fn encode_chunk(&self, input: &[u8], out: &mut Vec<u8>, stats: &mut KernelStats) {
        std::thread::sleep(self.delay);
        self.inner.encode_chunk(input, out, stats);
    }
    fn decode_chunk(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        stats: &mut KernelStats,
    ) -> Result<(), DecodeError> {
        std::thread::sleep(self.delay);
        self.inner.decode_chunk(input, out, stats)
    }
}

/// Resolve test component names; everything else falls through to the
/// real registry.
fn resolver(slow_stage: usize) -> impl Fn(&str) -> Option<Arc<dyn Component>> {
    move |name: &str| -> Option<Arc<dyn Component>> {
        let delay_for = |stage: usize| {
            if stage == slow_stage {
                STAGE_DELAY
            } else {
                Duration::ZERO
            }
        };
        match name {
            "SLOW1_1" => Some(Arc::new(SlowMutator {
                name: "SLOW1_1",
                delay: delay_for(1),
            })),
            "SLOW2_1" => Some(Arc::new(SlowMutator {
                name: "SLOW2_1",
                delay: delay_for(2),
            })),
            "SLOW3_1" => Some(Arc::new(SlowReducer {
                name: "SLOW3_1",
                delay: delay_for(3),
                inner: lc_components::lookup("RZE_1").expect("RZE_1 exists"),
            })),
            other => lc_components::lookup(other),
        }
    }
}

/// Highly compressible multi-chunk payload (RZE strictly shrinks it).
fn payload() -> Vec<u8> {
    let mut data = vec![0u8; CHUNKS * lc_core::CHUNK_SIZE];
    for (i, b) in data.iter_mut().enumerate().step_by(97) {
        *b = (i % 251) as u8;
    }
    data
}

fn ctx() -> ExecContext {
    ExecContext {
        // One pool thread makes the per-chunk timing deterministic.
        pool: Pool::new(1),
        max_decoded_bytes: 1 << 30,
        mem: MemGovernor::new(Some(1 << 30)),
    }
}

/// Encode the test payload with the slow pipeline (no deadline) to get
/// an archive for the unpack cases.
fn archive_for(slow_stage: usize) -> Vec<u8> {
    let resolve = resolver(0); // no sleeps while preparing
    let pipeline = lc_core::Pipeline::parse("SLOW1_1 SLOW2_1 SLOW3_1", &resolve)
        .expect("test pipeline parses");
    let pool = Pool::new(1);
    let archive = lc_core::archive::encode(&pipeline, &payload(), &pool);
    // Applied-stage sanity: the reducer must have been applied on every
    // chunk, or the unpack cases would never execute the slow stage.
    assert!(
        archive.len() < payload().len(),
        "slow_stage={slow_stage}: archive did not shrink; reducer was skipped"
    );
    archive
}

/// The table: where the deadline fires.
#[derive(Debug, Clone, Copy)]
enum Fire {
    /// Already expired when the request starts.
    BeforePipeline,
    /// While the named stage (1-3) is consuming the clock.
    InsideStage(usize),
    /// Only after all work would complete (generous deadline).
    AfterCompletion,
}

fn run_case(op: Op, fire: Fire) {
    let (slow_stage, deadline) = match fire {
        Fire::BeforePipeline => (1, Duration::ZERO),
        Fire::InsideStage(s) => (s, SHORT_DEADLINE),
        Fire::AfterCompletion => (1, Duration::from_secs(600)),
    };
    let resolve = resolver(slow_stage);
    let ctx = ctx();
    let req = match op {
        Op::Pack => Request {
            op,
            deadline_ms: 0,
            pipeline: "SLOW1_1 SLOW2_1 SLOW3_1".to_string(),
            payload: payload(),
        },
        Op::Unpack => Request {
            op,
            deadline_ms: 0,
            pipeline: String::new(),
            payload: archive_for(slow_stage),
        },
        other => panic!("table covers pack/unpack, not {other:?}"),
    };
    assert_eq!(ctx.mem.resident_bytes(), 0, "baseline residency");
    let token = match fire {
        // "Before": the deadline is already in the past.
        Fire::BeforePipeline => {
            CancelToken::with_deadline(Instant::now() - Duration::from_millis(1))
        }
        _ => CancelToken::with_deadline(Instant::now() + deadline),
    };
    let resp = execute(&req, &resolve, &ctx, &token);
    match fire {
        Fire::AfterCompletion => {
            assert!(
                matches!(resp, Response::Ok(_)),
                "{op:?}/{fire:?}: generous deadline must not perturb the result, got {resp:?}"
            );
        }
        _ => match resp {
            Response::Err { kind, .. } => assert_eq!(
                kind,
                ErrorKind::DeadlineExceeded,
                "{op:?}/{fire:?}: wrong error kind"
            ),
            other => panic!("{op:?}/{fire:?}: expected deadline_exceeded, got {other:?}"),
        },
    }
    // No leaked scratch arenas: every lease returned on termination.
    assert_eq!(
        ctx.mem.resident_bytes(),
        0,
        "{op:?}/{fire:?}: leaked memory lease"
    );
}

#[test]
fn pack_deadline_before_pipeline() {
    run_case(Op::Pack, Fire::BeforePipeline);
}

#[test]
fn pack_deadline_inside_stage_1() {
    run_case(Op::Pack, Fire::InsideStage(1));
}

#[test]
fn pack_deadline_inside_stage_2() {
    run_case(Op::Pack, Fire::InsideStage(2));
}

#[test]
fn pack_deadline_inside_stage_3() {
    run_case(Op::Pack, Fire::InsideStage(3));
}

#[test]
fn pack_generous_deadline_completes() {
    run_case(Op::Pack, Fire::AfterCompletion);
}

#[test]
fn unpack_deadline_before_pipeline() {
    run_case(Op::Unpack, Fire::BeforePipeline);
}

#[test]
fn unpack_deadline_inside_stage_1() {
    run_case(Op::Unpack, Fire::InsideStage(1));
}

#[test]
fn unpack_deadline_inside_stage_2() {
    run_case(Op::Unpack, Fire::InsideStage(2));
}

#[test]
fn unpack_deadline_inside_stage_3() {
    run_case(Op::Unpack, Fire::InsideStage(3));
}

#[test]
fn unpack_generous_deadline_completes() {
    run_case(Op::Unpack, Fire::AfterCompletion);
}

/// The same termination + no-leak guarantee when the budget (not the
/// deadline) refuses the request: a shed also releases everything.
#[test]
fn shed_under_budget_pressure_releases_leases() {
    let resolve = resolver(0);
    let ctx = ExecContext {
        pool: Pool::new(1),
        max_decoded_bytes: 1 << 30,
        mem: MemGovernor::new(Some(1024)), // far below the payload lease
    };
    let req = Request {
        op: Op::Pack,
        deadline_ms: 0,
        pipeline: "SLOW1_1 SLOW2_1 SLOW3_1".to_string(),
        payload: payload(),
    };
    let token = CancelToken::new();
    let resp = execute(&req, &resolve, &ctx, &token);
    assert!(
        matches!(resp, Response::Shed { .. }),
        "expected shed, got {resp:?}"
    );
    assert_eq!(ctx.mem.resident_bytes(), 0, "shed leaked a lease");
}
