//! Serve-layer telemetry integration: drive a live server with a known
//! request count and assert the accept-queue metrics and span stream
//! match the traffic actually served.
//!
//! Telemetry state is process-global, so every test here takes one
//! mutex and starts from `reset()`.

use std::sync::Mutex;

use lc_repro::lc_parallel::CancelToken;
use lc_repro::lc_serve::proto::{Op, Request, Response};
use lc_repro::lc_serve::server::{ServeConfig, Server};
use lc_repro::lc_serve::Client;
use lc_repro::lc_telemetry;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn boot() -> (Server, CancelToken) {
    let drain = CancelToken::new();
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 2,
            pool_threads: 2,
            queue_capacity: 16,
            drain_deadline_ms: 5_000,
            ..ServeConfig::default()
        },
        drain.clone(),
    )
    .expect("bind");
    (server, drain)
}

#[test]
fn queue_metrics_and_execute_spans_match_traffic() {
    let _g = locked();
    lc_telemetry::reset();
    lc_telemetry::enable();

    let (server, drain) = boot();
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    const REQUESTS: u64 = 5;
    let client = Client::new(addr);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i / 32) as u8).collect();
    for i in 0..REQUESTS {
        let resp = client
            .request_with_retry(
                &Request {
                    op: Op::Pack,
                    deadline_ms: 10_000,
                    pipeline: "DIFF_4 RZE_4".to_string(),
                    payload: payload.clone(),
                },
                100 + i,
            )
            .expect("exchange");
        assert!(matches!(resp, Response::Ok(_)), "request {i}: {resp:?}");
    }

    drain.cancel();
    let summary = handle.join().expect("server thread");
    let events = lc_telemetry::drain();
    lc_telemetry::disable();

    assert_eq!(summary.requests_in, REQUESTS);
    assert!(summary.accounted(), "{summary:?}");

    // serve.time_in_queue_us: one sample per connection handed from the
    // accept queue to a worker. The client keeps its connection, so all
    // five requests rode one.
    let hist = lc_telemetry::histogram("serve.time_in_queue_us");
    assert_eq!(
        hist.count(),
        summary.conns_accepted,
        "one queue-wait sample per accepted connection"
    );
    assert_eq!(summary.conns_accepted, 1, "{summary:?}");

    // serve.queue_depth: set on every push (with the connection still
    // queued) and every pop, so its peak is at least 1 and it ends at 0.
    let gauges = lc_telemetry::metrics::gauge_snapshot();
    let (_, depth_now, depth_max) = gauges
        .iter()
        .find(|(name, _, _)| *name == "serve.queue_depth")
        .copied()
        .expect("serve.queue_depth gauge exists");
    assert!(depth_max >= 1, "peak queue depth observed: {depth_max}");
    assert_eq!(depth_now, 0, "queue fully drained");

    // One execute span per request, in the serve category.
    let execute_spans = events
        .iter()
        .filter(|e| e.cat == "serve" && e.name == "execute")
        .count() as u64;
    assert_eq!(execute_spans, REQUESTS, "one execute span per request");
}

#[test]
fn shed_and_governor_metrics_reflect_admission_refusals() {
    let _g = locked();
    lc_telemetry::reset();
    lc_telemetry::enable();

    let drain = CancelToken::new();
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 2,
            pool_threads: 1,
            queue_capacity: 16,
            // Any payload-carrying request overflows this budget.
            mem_budget_bytes: Some(4 * 1024),
            drain_deadline_ms: 5_000,
            ..ServeConfig::default()
        },
        drain.clone(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let client = Client::new(addr);
    let err = client
        .request_with_retry(
            &Request {
                op: Op::Pack,
                deadline_ms: 5_000,
                pipeline: "DIFF_4 RZE_4".to_string(),
                payload: vec![7u8; 256 * 1024],
            },
            42,
        )
        .expect_err("every attempt should be shed");
    let msg = err.to_string();
    assert!(msg.contains("shed"), "retries exhausted by sheds: {msg}");

    drain.cancel();
    let summary = handle.join().expect("server thread");
    lc_telemetry::disable();

    assert!(summary.accounted(), "{summary:?}");
    assert!(summary.sheds >= 1, "server shed the request: {summary:?}");
    let counters = lc_telemetry::metrics::counter_snapshot();
    let shed_mem = counters
        .iter()
        .find(|(name, _)| *name == "serve.shed_mem")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(shed_mem >= 1, "serve.shed_mem counted the refusals");
}
