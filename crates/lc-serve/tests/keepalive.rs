//! Persistent connections: a client reuses one connection for its whole
//! sequence of requests, the server hands connections out fairly when
//! clients outnumber workers, and a pooled connection the server closed
//! is replaced without costing a retry.
//!
//! Metrics are process-global, so every test here takes one mutex and
//! starts from `reset()`.

use std::io::Read;
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::Duration;

use lc_parallel::{CancelToken, Pool};
use lc_serve::proto::{self, Op, Request, Response};
use lc_serve::server::{ServeConfig, Server, IDLE_POLL};
use lc_serve::{Client, ServeSummary};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    lc_telemetry::reset();
    lc_telemetry::enable_metrics();
    guard
}

/// A server on an ephemeral port, running on its own thread.
fn boot(
    worker_threads: usize,
) -> (
    std::net::SocketAddr,
    CancelToken,
    std::thread::JoinHandle<ServeSummary>,
) {
    let drain = CancelToken::new();
    let server = Server::bind(
        ServeConfig {
            worker_threads,
            pool_threads: 1,
            ..ServeConfig::default()
        },
        drain.clone(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, drain, std::thread::spawn(move || server.run()))
}

fn counter(name: &str) -> u64 {
    lc_telemetry::counter(name).get()
}

fn pack(payload: &[u8]) -> Request {
    Request {
        op: Op::Pack,
        deadline_ms: 10_000,
        pipeline: PIPELINE.to_string(),
        payload: payload.to_vec(),
    }
}

const PIPELINE: &str = "BIT_4 DIFF_4 RZE_4";

/// What the server's pack must return for `payload`.
fn reference_archive(payload: &[u8]) -> Vec<u8> {
    let pipeline =
        lc_core::Pipeline::parse(PIPELINE, lc_components::lookup).expect("pipeline parses");
    lc_core::archive::encode(&pipeline, payload, &Pool::new(1))
}

fn payload(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i / 64) ^ salt).wrapping_mul(2_654_435_761) as u8 & 0x0F)
        .collect()
}

/// One client, fifty requests: one accepted connection carries them all.
#[test]
fn one_client_keeps_one_connection() {
    let _g = locked();
    let (addr, drain, server) = boot(2);
    let client = Client::new(addr);
    let data = payload(64 * 1024, 1);
    let want = reference_archive(&data);
    for i in 0..50u64 {
        let resp = client
            .request_with_retry(&pack(&data), i)
            .expect("exchange");
        assert_eq!(resp, Response::Ok(want.clone()), "request {i}");
    }
    // The client still holds its idle connection: drain closes it.
    drain.cancel();
    let summary = server.join().expect("server thread");
    assert!(summary.accounted(), "{summary:?}");
    assert!(!summary.hard_aborted, "{summary:?}");
    assert_eq!(summary.requests_in, 50, "{summary:?}");
    assert_eq!(summary.conns_accepted, 1, "{summary:?}");
    assert_eq!(counter("client.reconnect"), 0);
}

/// One worker, four clients: without the yield rule the first client's
/// twenty-five requests would all run before anyone else's connection
/// left the queue. With it, no connection waits longer than an idle
/// poll plus one request's service time.
#[test]
fn more_clients_than_workers_are_served_fairly() {
    const CLIENTS: u32 = 4;
    const REQUESTS: usize = 25;
    let _g = locked();
    let (addr, drain, server) = boot(1);
    let inputs: Vec<(Vec<u8>, Vec<u8>)> = (0..CLIENTS)
        .map(|c| {
            let data = payload(2 << 20, c);
            let want = reference_archive(&data);
            (data, want)
        })
        .collect();
    std::thread::scope(|scope| {
        for (c, (data, want)) in inputs.iter().enumerate() {
            scope.spawn(move || {
                let client = Client::new(addr);
                for i in 0..REQUESTS {
                    let resp = client
                        .request_with_retry(&pack(data), (c * REQUESTS + i) as u64)
                        .expect("exchange");
                    assert!(resp == Response::Ok(want.clone()), "client {c} request {i}");
                }
            });
        }
    });
    drain.cancel();
    let summary = server.join().expect("server thread");
    assert!(summary.accounted(), "{summary:?}");
    assert_eq!(summary.requests_in, u64::from(CLIENTS) * REQUESTS as u64);
    assert_eq!(summary.responses_ok, summary.requests_in, "{summary:?}");

    // Histogram maxima are bucket upper bounds (at most 2x the sample),
    // so the queue check errs strict and the service allowance generous.
    let max = |name: &str| lc_telemetry::histogram(name).percentile(1.0);
    let service_us = max("serve.read_us") + max("serve.execute_us") + max("serve.write_us");
    let bound_us = IDLE_POLL.as_micros() as u64 + service_us;
    let queue = lc_telemetry::histogram("serve.time_in_queue_us");
    assert_eq!(queue.count(), summary.conns_accepted);
    assert!(
        max("serve.time_in_queue_us") <= bound_us,
        "a connection waited {} us in the queue, above the {bound_us} us bound",
        max("serve.time_in_queue_us")
    );
    assert!(counter("serve.conn_yield") > 0, "the worker yielded");
}

/// A pooled connection the server yielded to a queued one is replaced
/// inside a single `request_once`, which never sleeps or retries.
#[test]
fn a_yielded_connection_is_replaced_transparently() {
    let _g = locked();
    let (addr, drain, server) = boot(1);
    let data = payload(64 * 1024, 2);
    let want = Response::Ok(reference_archive(&data));
    let first = Client::new(addr);
    assert_eq!(first.request_once(&pack(&data), 1).expect("first"), want);

    // A second client's connection queues behind the idle one; the
    // worker yields at its next idle poll and serves it.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let second = Client::new(addr);
            assert_eq!(second.request_once(&pack(&data), 2).expect("second"), want);
        });
    });
    assert_eq!(counter("serve.conn_yield"), 1);

    assert_eq!(
        first.request_once(&pack(&data), 3).expect("after yield"),
        want
    );
    assert_eq!(counter("client.reconnect"), 1);

    drain.cancel();
    let summary = server.join().expect("server thread");
    assert!(summary.accounted(), "{summary:?}");
    assert_eq!(summary.requests_in, 3, "{summary:?}");
    assert_eq!(summary.conns_accepted, 3, "{summary:?}");
}

/// A pooled connection that passes the idle check but is closed with the
/// request on its way fails before the first response byte: the client
/// sends the request again on a new connection, inside one
/// `request_once`.
#[test]
fn a_request_cut_off_before_its_reply_is_resent_once() {
    let _g = locked();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("first connection");
        let req = proto::read_request(&mut conn, u64::MAX, 0).expect("first frame");
        proto::write_response(&mut conn, &Response::Ok(req.payload), 0).expect("first reply");
        // Wait until the next frame arrives, then close without reading
        // it: the client sees a reset before any reply byte.
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut probe = [0u8; 1];
        assert_eq!(conn.peek(&mut probe).expect("second frame"), 1);
        drop(conn);
        let (mut conn, _) = listener.accept().expect("second connection");
        let req = proto::read_request(&mut conn, u64::MAX, 0).expect("resent frame");
        proto::write_response(&mut conn, &Response::Ok(req.payload), 0).expect("second reply");
        // Hold the connection until the client hangs up.
        let _ = conn.read(&mut probe);
    });

    let client = Client::new(addr);
    let echo = |bytes: &[u8]| Request {
        op: Op::Stat,
        deadline_ms: 0,
        pipeline: String::new(),
        payload: bytes.to_vec(),
    };
    assert_eq!(
        client.request_once(&echo(b"one"), 1).expect("first"),
        Response::Ok(b"one".to_vec())
    );
    assert_eq!(
        client.request_once(&echo(b"two"), 2).expect("resent"),
        Response::Ok(b"two".to_vec())
    );
    assert_eq!(counter("client.reconnect"), 1);
    drop(client);
    fake.join().expect("fake server");
}
