//! Open-loop load generation against a running server.
//!
//! Arrivals are a seeded Poisson process: inter-arrival gaps are drawn
//! from an exponential distribution whose randomness comes from
//! [`lc_chaos::splitmix64`], so a `(seed, rate, duration)` triple
//! replays the same arrival schedule every run. *Open-loop* means the
//! schedule does not slow down when the server does — requests queue at
//! the client and latency grows, which is exactly the signal the
//! percentiles are meant to capture.
//!
//! Request payloads come from the lc-data SP profiles at three scales,
//! so the mix covers small/medium/large requests; the op mix is mostly
//! `pack` with a minority of `unpack`/`stat`/`salvage` against
//! pre-encoded archives.
//!
//! Latencies are recorded into the lc-telemetry histogram
//! `loadgen.latency_us` (measured from scheduled arrival, so client-side
//! queueing counts, as it should in an open-loop measurement) and
//! reported as conservative upper-bound percentiles.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use lc_chaos::splitmix64;
use lc_parallel::Pool;

use crate::client::Client;
use crate::proto::{ErrorKind, Op, Request, Response};

/// One load-generation run's shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to drive.
    pub addr: SocketAddr,
    /// How long to keep generating arrivals.
    pub duration: Duration,
    /// Mean arrival rate, requests per second.
    pub rate_rps: f64,
    /// Seed for the arrival schedule and request mix.
    pub seed: u64,
    /// Client worker threads draining the arrival queue.
    pub workers: usize,
    /// Pipeline used for `pack` requests and the pre-encoded archives.
    pub pipeline: String,
    /// Per-request deadline handed to the server (0 = none).
    pub deadline_ms: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            duration: Duration::from_secs(5),
            rate_rps: 200.0,
            seed: 1,
            workers: 8,
            pipeline: "DIFF_4 RZE_4".to_string(),
            deadline_ms: 2_000,
        }
    }
}

/// What one run observed. `sent == ok + errs + failed` always holds by
/// construction at the client; the CI smoke asserts it anyway as the
/// client half of the zero-silent-drops contract.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests the arrival schedule dispatched.
    pub sent: u64,
    /// Ok responses.
    pub ok: u64,
    /// Structured error responses (all kinds).
    pub errs: u64,
    /// Of `errs`, how many were `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Requests that exhausted retries (persistent shed or transport).
    pub failed: u64,
    /// Wall-clock for the whole run, milliseconds.
    pub wall_ms: u64,
    /// Achieved throughput over the wall clock.
    pub reqs_per_sec: f64,
    /// Latency percentiles, microseconds (conservative upper bounds).
    pub p50_us: u64,
    /// 90th percentile latency.
    pub p90_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
}

impl LoadgenReport {
    /// Client-side accounting identity.
    pub fn accounted(&self) -> bool {
        self.sent == self.ok + self.errs + self.failed
    }

    /// Render for `BENCH_serve.json`.
    pub fn to_json(&self) -> lc_json::Value {
        lc_json::Value::object([
            ("sent", lc_json::Value::from(self.sent)),
            ("ok", lc_json::Value::from(self.ok)),
            ("errs", lc_json::Value::from(self.errs)),
            (
                "deadline_exceeded",
                lc_json::Value::from(self.deadline_exceeded),
            ),
            ("failed", lc_json::Value::from(self.failed)),
            ("wall_ms", lc_json::Value::from(self.wall_ms)),
            ("reqs_per_sec", lc_json::Value::from(self.reqs_per_sec)),
            ("p50_us", lc_json::Value::from(self.p50_us)),
            ("p90_us", lc_json::Value::from(self.p90_us)),
            ("p99_us", lc_json::Value::from(self.p99_us)),
            ("accounted", lc_json::Value::from(self.accounted())),
        ])
    }
}

/// The request corpus: payloads at three sizes plus pre-encoded
/// archives for the decode-side ops.
struct Corpus {
    raw: Vec<Vec<u8>>,
    archives: Vec<Vec<u8>>,
}

impl Corpus {
    fn build(pipeline_desc: &str) -> Corpus {
        // Three SP profiles at three scales: ~64 kB, ~130 kB, ~520 kB.
        let picks = [("msg_bt", 8192u32), ("num_brain", 1024), ("obs_error", 256)];
        let raw: Vec<Vec<u8>> = picks
            .iter()
            .map(|(name, denom)| {
                let file = lc_data::file_by_name(name).unwrap_or(&lc_data::SP_FILES[0]);
                lc_data::generate(file, lc_data::Scale::denominator(*denom))
            })
            .collect();
        let pool = Pool::new(2);
        let pipeline = lc_core::Pipeline::parse(pipeline_desc, lc_components::lookup)
            .unwrap_or_else(|e| {
                // invariant: callers pass pipelines validated by the CLI
                panic!("loadgen pipeline {pipeline_desc:?} does not parse: {e}")
            });
        let archives = raw
            .iter()
            .map(|data| lc_core::archive::encode(&pipeline, data, &pool))
            .collect();
        Corpus { raw, archives }
    }

    /// Deterministic request for arrival `seq`.
    fn request(&self, seed: u64, seq: u64, pipeline: &str, deadline_ms: u32) -> Request {
        let draw = splitmix64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let size_pick = (draw >> 8) as usize % self.raw.len();
        let (op, payload) = match draw % 100 {
            0..=69 => (Op::Pack, self.raw[size_pick].clone()),
            70..=89 => (Op::Unpack, self.archives[size_pick].clone()),
            90..=96 => (Op::Stat, self.archives[size_pick].clone()),
            _ => (Op::Salvage, self.archives[size_pick].clone()),
        };
        Request {
            op,
            deadline_ms,
            pipeline: if op == Op::Pack {
                pipeline.to_string()
            } else {
                String::new()
            },
            payload,
        }
    }
}

struct Job {
    seq: u64,
    scheduled: Instant,
}

struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    cond: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.0.push_back(job);
        drop(st);
        self.cond.notify_one();
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).1 = true;
        self.cond.notify_all();
    }

    /// `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(job) = st.0.pop_front() {
                return Some(job);
            }
            if st.1 {
                return None;
            }
            st = self
                .cond
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }
}

/// Uniform in `[0, 1)` from one splitmix64 draw.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Drive the server at `cfg.addr` and report what happened.
///
/// Enables telemetry for the calling process (the latency histogram
/// needs it).
pub fn run(cfg: &LoadgenConfig) -> LoadgenReport {
    lc_telemetry::enable();
    let corpus = Corpus::build(&cfg.pipeline);
    let client = Client::new(cfg.addr);
    let queue = JobQueue {
        state: Mutex::new((VecDeque::new(), false)),
        cond: Condvar::new(),
    };
    let ok = AtomicU64::new(0);
    let errs = AtomicU64::new(0);
    let deadline_exceeded = AtomicU64::new(0);
    let failed = AtomicU64::new(0);

    let start = Instant::now();
    let mut sent: u64 = 0;
    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    let req = corpus.request(cfg.seed, job.seq, &cfg.pipeline, cfg.deadline_ms);
                    let tag = cfg.seed ^ job.seq.wrapping_mul(0xA5A5);
                    match client.request_with_retry(&req, tag) {
                        Ok(Response::Ok(_)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Response::Err { kind, .. }) => {
                            errs.fetch_add(1, Ordering::Relaxed);
                            if kind == ErrorKind::DeadlineExceeded {
                                deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // request_with_retry never returns Shed (it
                        // retries them), but account it if it ever did.
                        Ok(Response::Shed { .. }) | Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    lc_telemetry::histogram("loadgen.latency_us")
                        .record(job.scheduled.elapsed().as_micros() as u64);
                }
            });
        }

        // The arrival schedule: seeded Poisson, open loop.
        let mut next = start;
        while start.elapsed() < cfg.duration {
            let gap_s = -(1.0 - unit(splitmix64(cfg.seed.wrapping_add(sent)))).ln()
                / cfg.rate_rps.max(1e-6);
            next += Duration::from_secs_f64(gap_s.min(1.0));
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            }
            queue.push(Job {
                seq: sent,
                scheduled: Instant::now(),
            });
            sent += 1;
        }
        queue.close();
    });

    let wall = start.elapsed();
    let hist = lc_telemetry::histogram("loadgen.latency_us");
    LoadgenReport {
        sent,
        ok: ok.load(Ordering::Relaxed),
        errs: errs.load(Ordering::Relaxed),
        deadline_exceeded: deadline_exceeded.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        wall_ms: wall.as_millis() as u64,
        reqs_per_sec: sent as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: hist.percentile(0.50),
        p90_us: hist.percentile(0.90),
        p99_us: hist.percentile(0.99),
    }
}

/// Shape of one capacity sweep: step the offered rate geometrically
/// until the server starts shedding past the tolerance, then report the
/// knee (the highest offered rate whose shed rate stayed under it —
/// i.e. the server's usable capacity under this request mix).
#[derive(Debug, Clone)]
pub struct RateSweepConfig {
    /// Everything but `rate_rps` and `duration` is taken from here.
    pub base: LoadgenConfig,
    /// First offered rate, requests per second.
    pub rate_start: f64,
    /// Stop stepping past this offered rate even if nothing sheds.
    pub rate_max: f64,
    /// Multiplicative step between offered rates (> 1).
    pub rate_factor: f64,
    /// Shed tolerance: a step whose observed shed rate (retried sheds
    /// plus exhausted requests, over sent) exceeds this ends the sweep.
    pub shed_threshold: f64,
    /// How long each step drives the server.
    pub step_duration: Duration,
}

impl Default for RateSweepConfig {
    fn default() -> Self {
        Self {
            base: LoadgenConfig::default(),
            rate_start: 50.0,
            rate_max: 3200.0,
            rate_factor: 2.0,
            shed_threshold: 0.05,
            step_duration: Duration::from_secs(2),
        }
    }
}

/// One sweep step's observation.
#[derive(Debug, Clone)]
pub struct RateStep {
    /// Offered (scheduled) arrival rate.
    pub offered_rps: f64,
    /// Rate actually dispatched over the step's wall clock.
    pub achieved_rps: f64,
    /// Ok responses over the step's wall clock.
    pub goodput_rps: f64,
    /// Retried sheds + exhausted requests, over sent.
    pub shed_rate: f64,
    /// 99th-percentile latency for this step, microseconds.
    pub p99_us: u64,
}

impl RateStep {
    fn to_json(&self) -> lc_json::Value {
        lc_json::Value::object([
            ("offered_rps", lc_json::Value::from(self.offered_rps)),
            ("achieved_rps", lc_json::Value::from(self.achieved_rps)),
            ("goodput_rps", lc_json::Value::from(self.goodput_rps)),
            ("shed_rate", lc_json::Value::from(self.shed_rate)),
            ("p99_us", lc_json::Value::from(self.p99_us)),
        ])
    }
}

/// The sweep's outcome: every step plus the knee.
#[derive(Debug, Clone)]
pub struct RateSweepReport {
    /// Steps in offered-rate order (the last one may be over threshold).
    pub steps: Vec<RateStep>,
    /// Offered rate at the knee: the best goodput whose shed rate
    /// stayed within tolerance. Zero when every step shed.
    pub knee_offered_rps: f64,
    /// Goodput at the knee.
    pub knee_goodput_rps: f64,
    /// The shed tolerance the knee was judged against.
    pub shed_threshold: f64,
}

impl RateSweepReport {
    /// Render for the `rate_sweep` section of `BENCH_serve.json`.
    pub fn to_json(&self) -> lc_json::Value {
        lc_json::Value::object([
            (
                "steps",
                lc_json::Value::array(self.steps.iter().map(|s| s.to_json())),
            ),
            (
                "knee_offered_rps",
                lc_json::Value::from(self.knee_offered_rps),
            ),
            (
                "knee_goodput_rps",
                lc_json::Value::from(self.knee_goodput_rps),
            ),
            ("shed_threshold", lc_json::Value::from(self.shed_threshold)),
        ])
    }
}

/// Step the offered load until the shed tolerance is exceeded (or
/// `rate_max` is reached) and locate the knee.
///
/// Sheds the server absorbed by retrying are invisible in the
/// [`LoadgenReport`] (the client retries them to completion), so each
/// step diffs the `client.shed_observed` counter around its run.
pub fn rate_sweep(cfg: &RateSweepConfig) -> RateSweepReport {
    let shed_counter = lc_telemetry::counter("client.shed_observed");
    let mut steps = Vec::new();
    let mut knee: Option<(f64, f64)> = None;
    let mut rate = cfg.rate_start.max(1.0);
    loop {
        let step_cfg = LoadgenConfig {
            rate_rps: rate,
            duration: cfg.step_duration,
            ..cfg.base.clone()
        };
        let sheds_before = shed_counter.get();
        let report = run(&step_cfg);
        let sheds_observed = shed_counter.get().saturating_sub(sheds_before);
        let wall_s = (report.wall_ms as f64 / 1e3).max(1e-9);
        let step = RateStep {
            offered_rps: rate,
            achieved_rps: report.reqs_per_sec,
            goodput_rps: report.ok as f64 / wall_s,
            shed_rate: (sheds_observed + report.failed) as f64 / (report.sent.max(1) as f64),
            // Per-step p99 via the counter-free route is not available:
            // the latency histogram is cumulative across steps, so the
            // honest per-step figure is the cumulative p99 so far.
            p99_us: report.p99_us,
        };
        let over = step.shed_rate > cfg.shed_threshold;
        if !over {
            let better = knee.is_none_or(|(_, g)| step.goodput_rps > g);
            if better {
                knee = Some((step.offered_rps, step.goodput_rps));
            }
        }
        steps.push(step);
        if over || rate >= cfg.rate_max {
            break;
        }
        rate = (rate * cfg.rate_factor.max(1.01)).min(cfg.rate_max);
    }
    let (knee_offered_rps, knee_goodput_rps) = knee.unwrap_or((0.0, 0.0));
    RateSweepReport {
        steps,
        knee_offered_rps,
        knee_goodput_rps,
        shed_threshold: cfg.shed_threshold,
    }
}
