//! `serve_mixed`: an in-process `lc serve` under a seeded request mix,
//! first from callers that wait for each reply (closed loop), then from
//! a fixed arrival schedule (open loop).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_parallel::CancelToken;
use lc_serve::{Client, Op, Request, Response, ServeConfig, ServeSummary, Server};

use crate::codec::{median_setup, nproc, peak_rss_mb, CodecSet, Report, FRAMEWORK_PIPELINE};
use crate::inputs::{self, Mix, MixOp};
use crate::layers::request;
use crate::metrics::{Outcome, Tally, Values};
use crate::stats::{percentile, TAIL_QUANTILE};
use crate::trace::Tracer;

/// Open-loop arrival rate, requests per second. Fixed here, never
/// derived from what the server was seen to sustain: about a third of
/// the closed-loop rate of this 2-core box, so a queue forms only when
/// something stalls.
pub const OPEN_LOOP_RPS: f64 = 250.0;

/// Latency charged to a request that failed, was shed on every attempt
/// or returned wrong bytes: the client's I/O timeout, the longest a
/// caller waits before giving up.
const MISS_MS: f64 = 10_000.0;

/// Requests per window of the open loop, half a second of arrivals. The
/// latencies are read per window and the median window is reported: when
/// the machine stalls a queue forms and the tail of the whole phase
/// follows that one stall (its p90 read 4.9 to 27 ms over ten runs), while
/// a stall spoils one or two of twenty windows. A window's p90 still has
/// a dozen samples beyond it.
const OPEN_WINDOW: usize = 125;

/// Share of `--seconds` each phase gets.
const ONE_CLIENT_SHARE: f64 = 0.2;
const CLOSED_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.5;

/// A server on an ephemeral loopback port, running on its own thread
/// until it is stopped or dropped.
pub struct Running {
    addr: SocketAddr,
    drain: CancelToken,
    thread: Option<JoinHandle<ServeSummary>>,
}

impl Running {
    /// `worker_threads = nproc`, one pool thread per request, telemetry
    /// off, no chaos, no memory budget.
    pub fn start() -> Running {
        let drain = CancelToken::new();
        let server = Server::bind(
            ServeConfig {
                worker_threads: nproc(),
                pool_threads: 1,
                max_payload_bytes: 256 << 20,
                ..ServeConfig::default()
            },
            drain.clone(),
        )
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        Running {
            addr,
            drain,
            thread: Some(std::thread::spawn(move || server.run())),
        }
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr)
    }

    /// Drain, wait for the server thread, return its accounting.
    pub fn stop(mut self) -> ServeSummary {
        self.drain.cancel();
        let thread = self.thread.take().expect("running until stopped");
        thread.join().expect("server thread panicked")
    }
}

/// A repeated set-up drops the server of the one before it.
impl Drop for Running {
    fn drop(&mut self) {
        self.drain.cancel();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The server's own accounting must close: every request it read ended
/// in exactly one response, and it never had to abort.
pub fn check_summary(summary: &ServeSummary, tally: &mut Tally) {
    tally.op(summary.accounted() && !summary.hard_aborted, || {
        format!("server accounting does not close: {summary:?}")
    });
}

/// One request as a client saw it.
struct Sample {
    /// The request's number in its phase, in the low half.
    tag: u64,
    op: Op,
    /// Payload bytes in (pack) or out (unpack).
    bytes: usize,
    /// Seconds from send (closed loop) or from due time (open loop).
    secs: f64,
    /// Seconds the generator sent it after it was due (open loop).
    late: f64,
    ok: bool,
}

fn build(set: &CodecSet, m: MixOp) -> Request {
    let body = match m.op {
        Op::Pack => &set.payloads[m.payload],
        _ => &set.archives[m.payload],
    };
    request(set, m.op, body)
}

/// A reply is right when a pack returns the reference archive, an
/// unpack the raw payload (so unpack(pack(x)) == x), a stat the
/// payload's length.
fn verify(set: &CodecSet, m: MixOp, reply: &Result<Response, lc_serve::ClientError>) -> bool {
    let Ok(Response::Ok(body)) = reply else {
        return false;
    };
    match m.op {
        Op::Pack => *body == set.archives[m.payload],
        Op::Unpack => *body == set.payloads[m.payload],
        _ => std::str::from_utf8(body)
            .ok()
            .and_then(|t| lc_json::Value::parse(t).ok())
            .is_some_and(|j| j["original_len"] == set.payloads[m.payload].len()),
    }
}

/// Open-loop accounting on one clock, in seconds: a request due at `due`
/// and sent at `sent` that then took `took` kept its caller waiting from
/// the moment it was due, so a sender that was still busy with an earlier
/// request charges its delay to this one. Returns that wait and the
/// generator's lateness.
fn from_due(due: f64, sent: f64, took: f64) -> (f64, f64) {
    let late = (sent - due).max(0.0);
    (late + took, late)
}

fn exchange(
    set: &CodecSet,
    client: &Client,
    m: MixOp,
    tag: u64,
    due: Option<Instant>,
    tracer: &mut Tracer,
) -> Sample {
    let req = build(set, m);
    let mut sent_after_due = 0.0;
    if let Some(due) = due {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        sent_after_due = due.elapsed().as_secs_f64();
    }
    tracer.set_run(tag);
    let (reply, took) = tracer.timed(&format!("lc-serve.request.{}", m.op.label()), |_| {
        client.request_with_retry(&req, tag)
    });
    let (secs, late) = from_due(0.0, sent_after_due, took);
    Sample {
        tag,
        op: m.op,
        bytes: set.payloads[m.payload].len(),
        secs,
        late,
        ok: verify(set, m, &reply),
    }
}

/// One phase: `threads` client threads under a span named `name`, each
/// running `body(thread index, its client, its tracer)`. Returns every
/// thread's samples and the phase's wall time; the threads' spans become
/// children of the phase span.
fn phase(
    server: &Running,
    name: &str,
    threads: usize,
    tracer: &mut Tracer,
    body: impl Fn(usize, &Client, &mut Tracer) -> Vec<Sample> + Sync,
) -> (Vec<Sample>, f64) {
    tracer.timed(name, |tracer| {
        let mut samples = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mut fork = tracer.fork();
                    let client = server.client();
                    let body = &body;
                    scope.spawn(move || (body(t, &client, &mut fork), fork))
                })
                .collect();
            let phase_span = tracer.current();
            for h in handles {
                let (mine, fork) = h.join().expect("client thread panicked");
                samples.extend(mine);
                tracer.absorb(fork, phase_span);
            }
        });
        samples
    })
}

/// `clients` callers, each sending its next request when the previous
/// reply arrives, for `seconds`. Returns the samples and the wall time.
fn closed_loop(
    set: &CodecSet,
    server: &Running,
    seed: u64,
    clients: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Vec<Sample>, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let name = format!("closed_loop.{clients}");
    phase(server, &name, clients, tracer, |c, client, tracer| {
        // Distinct from every other phase's and client's stream and tags.
        let id = (clients * 16 + c) as u64;
        Mix::new(seed, id, set.payloads.len())
            .enumerate()
            .take_while(|_| Instant::now() < deadline)
            .map(|(i, m)| exchange(set, client, m, id << 32 | i as u64, None, tracer))
            .collect()
    })
}

/// Requests sent at their seeded Poisson due times by `nproc` senders,
/// whatever the server's pace; a sender that is busy when a request
/// falls due sends it late, and the wait counts as latency. Returns the
/// samples in due order.
fn open_loop(
    set: &CodecSet,
    server: &Running,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Vec<Sample> {
    let n = (OPEN_LOOP_RPS * seconds).round().max(1.0) as usize;
    let due = inputs::arrivals(seed, OPEN_LOOP_RPS, n);
    let ops: Vec<MixOp> = Mix::new(seed, 0, set.payloads.len()).take(n).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (mut samples, _) = phase(server, "open_loop", nproc(), tracer, |_, client, tracer| {
        std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .take_while(|&i| i < n)
            .map(|i| {
                let at = start + Duration::from_secs_f64(due[i]);
                exchange(set, client, ops[i], 1 << 48 | i as u64, Some(at), tracer)
            })
            .collect()
    });
    samples.sort_by_key(|s| s.tag);
    samples
}

/// Milliseconds per request, a miss charged [`MISS_MS`].
fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .map(|s| if s.ok { s.secs * 1e3 } else { MISS_MS })
        .collect()
}

/// Median and p90 latency in milliseconds of each [`OPEN_WINDOW`] of
/// consecutive arrivals.
fn window_latencies(open: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    open.chunks(OPEN_WINDOW)
        .map(|window| {
            let ms = latencies_ms(window.iter());
            (percentile(&ms, 0.5), percentile(&ms, TAIL_QUANTILE))
        })
        .unzip()
}

/// Payload MB per second of connection time spent on `op`.
fn connection_mb_s(samples: &[Sample], op: Op) -> f64 {
    let of_op = || samples.iter().filter(move |s| s.op == op && s.ok);
    of_op().map(|s| s.bytes as f64).sum::<f64>() / 1e6 / of_op().map(|s| s.secs).sum::<f64>()
}

struct ServeRun {
    pub set: CodecSet,
    pub generate_s: f64,
    pub setup_s: f64,
    pub tally: Tally,
    one: Vec<Sample>,
    closed: Vec<Sample>,
    closed_wall: f64,
    open: Vec<Sample>,
    summary: ServeSummary,
}

/// Set-up and the three phases, the same in both modes.
fn run_main(seed: u64, seconds: f64, tracer: &mut Tracer) -> ServeRun {
    let mut generate_s = 0.0;
    let ((set, server), setup_s) = median_setup(tracer, |t| {
        let (payloads, s) = t.timed("lc-data.generate", |_| inputs::serve_payloads(seed));
        generate_s = s;
        let set = CodecSet::build(payloads, FRAMEWORK_PIPELINE);
        let server = Running::start();
        let up = server
            .client()
            .request_with_retry(&request(&set, Op::Stat, &set.archives[0]), 0);
        assert!(matches!(up, Ok(Response::Ok(_))), "server answers: {up:?}");
        (set, server)
    });
    let mut tally = Tally::default();
    let (one, _) = closed_loop(&set, &server, seed, 1, seconds * ONE_CLIENT_SHARE, tracer);
    let (closed, closed_wall) =
        closed_loop(&set, &server, seed, nproc(), seconds * CLOSED_SHARE, tracer);
    let open = open_loop(&set, &server, seed, seconds * OPEN_SHARE, tracer);
    let summary = server.stop();

    let sent = one.len() + closed.len() + open.len();
    for s in one.iter().chain(&closed).chain(&open) {
        tally.op(s.ok, || {
            format!("{} request failed or returned wrong bytes", s.op.label())
        });
    }
    check_summary(&summary, &mut tally);
    // Clients: sent == ok + failed by construction; the server must have
    // answered ok at least that often (the set-up probe is one more).
    let ok = one
        .iter()
        .chain(&closed)
        .chain(&open)
        .filter(|s| s.ok)
        .count() as u64;
    tally.op(summary.responses_ok == ok + 1, || {
        format!(
            "server counted {} ok replies, clients {} of {sent}",
            summary.responses_ok,
            ok + 1
        )
    });
    ServeRun {
        set,
        generate_s,
        setup_s,
        tally,
        one,
        closed,
        closed_wall,
        open,
        summary,
    }
}

/// End-to-end metrics. Native here: `goodput_rps` (verified replies per
/// second, `nproc` closed-loop clients) and the open-loop latencies from
/// due time, read per window of arrivals with the median window reported. The four rates are payload MB per second of connection time
/// on pack (encode) and unpack (decode) under that mix, with `nproc`
/// clients and with one; a pipeline applied to a file is a pack or an
/// unpack.
pub fn end_to_end(seed: u64, seconds: f64) -> Report {
    let run = run_main(seed, seconds, &mut Tracer::new(false));
    let mut values = Values::default();
    values.set("encode_mb_s", connection_mb_s(&run.closed, Op::Pack));
    values.set("decode_mb_s", connection_mb_s(&run.closed, Op::Unpack));
    values.set("encode_1t_mb_s", connection_mb_s(&run.one, Op::Pack));
    values.set("decode_1t_mb_s", connection_mb_s(&run.one, Op::Unpack));
    values.set("compression_ratio", run.set.compression_ratio());
    let codec_ok = run
        .closed
        .iter()
        .filter(|s| s.ok && s.op != Op::Stat)
        .count();
    values.set("pipelines_per_s", codec_ok as f64 / run.closed_wall);
    let ok = run.closed.iter().filter(|s| s.ok).count();
    values.set("goodput_rps", ok as f64 / run.closed_wall);
    let (p50s, p90s) = window_latencies(&run.open);
    values.set_median("latency_p50_ms", &p50s, |ms| ms);
    values.set_median("latency_p90_ms", &p90s, |ms| ms);
    values.set("setup_s", run.setup_s);
    values.set("peak_rss_mb", peak_rss_mb());
    run.report(values)
}

/// The traced run: shorter phases with spans kept, the layer probes on
/// the payloads, then the serve layers under load.
pub fn traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut run = run_main(seed, seconds, tracer);
    let mut values = crate::layers::probe(&run.set, None, run.generate_s, tracer, &mut run.tally);
    layer_values(&run, &mut values);
    run.report(values)
}

impl ServeRun {
    fn report(self, values: Values) -> Report {
        let detail = describe(&self);
        Report {
            outcome: Outcome {
                tally: self.tally,
                values,
            },
            set: self.set,
            detail,
        }
    }
}

/// What the environment record says of the phases.
fn describe(run: &ServeRun) -> String {
    format!(
        "closed loop 1 client: {} requests; closed loop {} clients: {} in {:.2} s; open loop at {OPEN_LOOP_RPS} req/s: {}",
        run.one.len(),
        nproc(),
        run.closed.len(),
        run.closed_wall,
        run.open.len(),
    )
}

/// The traced run's serve-only layer metrics, from the same phases.
fn layer_values(run: &ServeRun, values: &mut Values) {
    let loaded = || run.closed.iter().chain(&run.open);
    for op in [Op::Pack, Op::Unpack, Op::Stat] {
        let ms = latencies_ms(loaded().filter(|s| s.op == op));
        values.set(
            &format!("lc-serve.{}.p50_ms", op.label()),
            percentile(&ms, 0.5),
        );
    }
    values.set(
        "lc-serve.closed.p99_ms",
        percentile(&latencies_ms(run.closed.iter()), 0.99),
    );
    let open = latencies_ms(run.open.iter());
    values.set("lc-serve.open.p99_ms", percentile(&open, 0.99));
    let late: Vec<f64> = run.open.iter().map(|s| s.late * 1e3).collect();
    values.set("lc-serve.open.late_p99_ms", percentile(&late, 0.99));
    values.set("lc-serve.sheds", run.summary.sheds as f64);
    values.set("lc-serve.responses_err", run.summary.responses_err as f64);
    values.set(
        "lc-serve.conn_transport_errors",
        run.summary.conn_transport_errors as f64,
    );
    // What the mix's median request spends outside `exec::execute`:
    // connect, framing, queueing and the reply's write.
    let exec_ms = 0.5 * values.get("lc-serve.exec.pack_ms").expect("probed")
        + 0.4 * values.get("lc-serve.exec.unpack_ms").expect("probed");
    values.set(
        "lc-serve.transport_share",
        1.0 - exec_ms / percentile(&open, 0.5),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sender, requests due every second, each taking 1.5 s: the
    /// sender falls behind, and every request's latency counts the time
    /// it waited for the sender as well as its own service.
    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let due = [0.0, 1.0, 2.0];
        let mut free_at: f64 = 0.0;
        let mut seen = Vec::new();
        for d in due {
            let sent = free_at.max(d);
            seen.push(from_due(d, sent, 1.5));
            free_at = sent + 1.5;
        }
        assert_eq!(seen, [(1.5, 0.0), (2.0, 0.5), (2.5, 1.0)]);
        // A sender that is early waits for the due time: never negative.
        assert_eq!(from_due(5.0, 5.0, 0.25), (0.25, 0.0));
    }

    /// Four windows of 2 ms requests; a stall makes 60 requests of the
    /// second one wait 50 ms. The whole phase's p90 follows the stall,
    /// the median window's does not.
    #[test]
    fn a_stall_spoils_its_window_and_not_the_reported_tail() {
        let open: Vec<Sample> = (0..4 * OPEN_WINDOW)
            .map(|i| Sample {
                tag: i as u64,
                op: Op::Pack,
                bytes: 0,
                secs: if (OPEN_WINDOW..OPEN_WINDOW + 60).contains(&i) {
                    0.050
                } else {
                    0.002
                },
                late: 0.0,
                ok: true,
            })
            .collect();
        assert_eq!(percentile(&latencies_ms(open.iter()), 0.9), 50.0);
        let (p50s, p90s) = window_latencies(&open);
        assert_eq!(p50s, [2.0; 4]);
        assert_eq!(p90s, [2.0, 50.0, 2.0, 2.0]);
        assert_eq!(crate::stats::median(&p90s), 2.0);
    }

    #[test]
    fn a_miss_is_charged_the_timeout_and_leaves_goodput() {
        let sample = |ok, secs| Sample {
            tag: 0,
            op: Op::Pack,
            bytes: 1_000_000,
            secs,
            late: 0.0,
            ok,
        };
        let mut samples: Vec<Sample> = (0..95).map(|_| sample(true, 0.002)).collect();
        samples.extend((0..5).map(|_| sample(false, 0.001)));
        let ms = latencies_ms(samples.iter());
        assert_eq!(percentile(&ms, 0.5), 2.0);
        assert_eq!(percentile(&ms, 0.9), 2.0);
        assert_eq!(percentile(&ms, 0.99), MISS_MS);
        // 95 MB in 95 x 2 ms of connection time; the misses add neither.
        assert!((connection_mb_s(&samples, Op::Pack) - 500.0).abs() < 1e-9);
    }
}
