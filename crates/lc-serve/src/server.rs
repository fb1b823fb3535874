//! The deadline-governed, load-shedding compression server.
//!
//! # Lifecycle (the drain state machine)
//!
//! ```text
//!           bind()            drain token cancelled
//!            │                (SIGINT/SIGTERM or programmatic)
//!            ▼                         │
//!   ┌─────────────────┐               ▼
//!   │     RUNNING     │──────▶ ┌──────────────┐     drain deadline or
//!   │ accept + serve  │        │   DRAINING   │────▶ second signal
//!   └─────────────────┘        │ no accepts;  │     ┌─────────────┐
//!                              │ finish or    │     │ HARD ABORT  │
//!                              │ deadline-out │     │ cancel all  │
//!                              │ in-flight    │     │ request     │
//!                              └──────┬───────┘     │ tokens      │
//!                                     │             └──────┬──────┘
//!                                     ▼                    │
//!                              run() returns ◀─────────────┘
//!                              ServeSummary
//! ```
//!
//! Hard abort is still *structured*: in-flight requests observe their
//! (now cancelled) tokens at the next chunk boundary and terminate with
//! an `internal` error response — never a silent drop. The summary's
//! [`ServeSummary::hard_aborted`] flag is what maps to exit code 7.
//!
//! # The request-termination contract
//!
//! Every fully-read request frame increments `requests_in` and
//! terminates in exactly one of four ways, each incrementing exactly one
//! counter: an ok response, a structured error response, a shed
//! response, or a failed response write (client gone; the termination
//! still happened, the delivery did not). [`ServeSummary::accounted`]
//! checks the identity
//! `requests_in == responses_ok + responses_err + sheds +
//! response_write_failed`, and the chaos soak asserts it over 64 fault
//! plans.
//!
//! Connections refused at the front door because the accept queue is
//! full are shed *before* any request frame is read; they are accounted
//! separately as `sheds_accept` (the client still receives a shed frame
//! with a `retry_after` hint when the wire allows it).
//!
//! # Connection lifecycle
//!
//! ```text
//!   accept ──▶ accept queue ──▶ worker: idle ──first byte──▶ read frame
//!   (blocks;     (bounded;        ▲   │ peek, IDLE_POLL         │
//!   drain wakes   full = shed)    │   │                         ▼
//!   it with a                     │   │                  execute, respond
//!   loopback                      │   ▼                         │
//!   connect)                      │  close: client closed,      │
//!                                 │  drain, or yield            │
//!                                 └──────── keep ◀──────────────┘
//! ```
//!
//! The acceptor blocks in `accept`; a watcher thread connects to the
//! listener once the drain token fires, which returns the acceptor to
//! its drain check. A connection stays with one worker for as many
//! frames as the client sends. After writing a response, and whenever
//! an idle wait of [`IDLE_POLL`] passes with no frame, the worker checks
//! two things. It closes the connection if the server is draining, or
//! if another connection is waiting in the accept queue (the *yield*
//! rule, counted as `serve.conn_yield`). The freed worker serves the
//! waiting connection next. So clients beyond `worker_threads` are never
//! starved; under oversubscription each connection carries about one
//! request, as if the client had connected per request. A worker only
//! closes between frames, so a yield never cuts a request: a frame that
//! was on its way is never read, never counted, and the client resends
//! it on a new connection.
//!
//! Server-side timing per request: `serve.time_in_queue_us` (accept to
//! worker, once per connection), `serve.read_us` (first byte to frame
//! read), `serve.execute_us` and `serve.write_us`.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use lc_parallel::{CancelToken, Pool};
use lc_telemetry::{Counter, Gauge, Histogram};

use crate::arena::MemGovernor;
use crate::exec::{execute, request_token, ExecContext, SHED_RETRY_AFTER_MS};
use crate::proto::{self, ErrorKind, FrameError, Response};

/// How the server is sized and bounded. All limits are explicit; the
/// defaults suit the integration tests and the CI smoke job.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Connection-serving worker threads.
    pub worker_threads: usize,
    /// Stage-execution pool threads (shared by all requests).
    pub pool_threads: usize,
    /// Accepted connections waiting for a worker; beyond this, shed.
    pub queue_capacity: usize,
    /// Request-memory budget in bytes (`None` = ungoverned).
    pub mem_budget_bytes: Option<u64>,
    /// Largest request payload a frame may declare.
    pub max_payload_bytes: u64,
    /// Decompression-bomb guard for unpack/salvage.
    pub max_decoded_bytes: u64,
    /// How long DRAINING may last before escalating to hard abort.
    pub drain_deadline_ms: u64,
    /// Install [`lc_chaos::FaultPlan::serve`] with this seed for the
    /// server process (CI smoke / soak harness).
    pub chaos_seed: Option<u64>,
    /// Where to publish the flight-recorder black box when drain
    /// escalates to hard abort (`None` = no dump). The dump happens
    /// after every worker has exited, so its tail records the same
    /// events the summary accounts.
    pub flight_dump: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 4,
            pool_threads: 2,
            queue_capacity: 64,
            mem_budget_bytes: None,
            max_payload_bytes: 64 << 20,
            max_decoded_bytes: 256 << 20,
            drain_deadline_ms: 5_000,
            chaos_seed: None,
            flight_dump: None,
        }
    }
}

/// Terminal accounting for one server run. See the module docs for the
/// termination contract these counters encode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted from the listener.
    pub conns_accepted: u64,
    /// Connections shed at the front door (queue full).
    pub sheds_accept: u64,
    /// Request frames fully read.
    pub requests_in: u64,
    /// Requests that terminated with an ok response.
    pub responses_ok: u64,
    /// Requests that terminated with a structured error response.
    pub responses_err: u64,
    /// Requests shed after being read (memory admission refused).
    pub sheds: u64,
    /// Requests whose termination could not be delivered (client gone).
    pub response_write_failed: u64,
    /// Connection-level transport failures before a frame was fully
    /// read (torn reads, resets). No request was accepted on these.
    pub conn_transport_errors: u64,
    /// Whether drain escalated to hard abort.
    pub hard_aborted: bool,
}

impl ServeSummary {
    /// The exactly-once identity: every accepted request terminated in
    /// exactly one of the four contract outcomes.
    pub fn accounted(&self) -> bool {
        self.requests_in
            == self.responses_ok + self.responses_err + self.sheds + self.response_write_failed
    }

    /// Render as a JSON object for logs and the CI smoke assertion.
    pub fn to_json(&self) -> lc_json::Value {
        lc_json::Value::object([
            ("conns_accepted", lc_json::Value::from(self.conns_accepted)),
            ("sheds_accept", lc_json::Value::from(self.sheds_accept)),
            ("requests_in", lc_json::Value::from(self.requests_in)),
            ("responses_ok", lc_json::Value::from(self.responses_ok)),
            ("responses_err", lc_json::Value::from(self.responses_err)),
            ("sheds", lc_json::Value::from(self.sheds)),
            (
                "response_write_failed",
                lc_json::Value::from(self.response_write_failed),
            ),
            (
                "conn_transport_errors",
                lc_json::Value::from(self.conn_transport_errors),
            ),
            ("hard_aborted", lc_json::Value::from(self.hard_aborted)),
            ("accounted", lc_json::Value::from(self.accounted())),
        ])
    }
}

#[derive(Default)]
struct Counters {
    conns_accepted: AtomicU64,
    sheds_accept: AtomicU64,
    requests_in: AtomicU64,
    responses_ok: AtomicU64,
    responses_err: AtomicU64,
    sheds: AtomicU64,
    response_write_failed: AtomicU64,
    conn_transport_errors: AtomicU64,
    hard_aborted: AtomicBool,
}

impl Counters {
    fn summary(&self) -> ServeSummary {
        ServeSummary {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            sheds_accept: self.sheds_accept.load(Ordering::Relaxed),
            requests_in: self.requests_in.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            responses_err: self.responses_err.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            response_write_failed: self.response_write_failed.load(Ordering::Relaxed),
            conn_transport_errors: self.conn_transport_errors.load(Ordering::Relaxed),
            hard_aborted: self.hard_aborted.load(Ordering::Relaxed),
        }
    }
}

/// Process-global request-id source. Ids start at 1 so `0` can keep
/// meaning "no request scope" in lc-telemetry; they are unique across
/// every server instance in the process, which keeps traces from
/// in-process test servers unambiguous.
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// The server's metric handles, resolved once per process so the
/// request path never takes the telemetry registry's lock.
struct ServeMetrics {
    queue_depth: &'static Gauge,
    time_in_queue_us: &'static Histogram,
    read_us: &'static Histogram,
    execute_us: &'static Histogram,
    write_us: &'static Histogram,
    requests: &'static Counter,
    resp_ok: &'static Counter,
    resp_err: &'static Counter,
    resp_shed: &'static Counter,
    resp_write_failed: &'static Counter,
    shed_queue: &'static Counter,
    conn_yield: &'static Counter,
}

impl ServeMetrics {
    fn get() -> &'static ServeMetrics {
        static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
        METRICS.get_or_init(|| ServeMetrics {
            queue_depth: lc_telemetry::gauge("serve.queue_depth"),
            time_in_queue_us: lc_telemetry::histogram("serve.time_in_queue_us"),
            read_us: lc_telemetry::histogram("serve.read_us"),
            execute_us: lc_telemetry::histogram("serve.execute_us"),
            write_us: lc_telemetry::histogram("serve.write_us"),
            requests: lc_telemetry::counter("serve.requests"),
            resp_ok: lc_telemetry::counter("serve.resp_ok"),
            resp_err: lc_telemetry::counter("serve.resp_err"),
            resp_shed: lc_telemetry::counter("serve.resp_shed"),
            resp_write_failed: lc_telemetry::counter("serve.resp_write_failed"),
            shed_queue: lc_telemetry::counter("serve.shed_queue"),
            conn_yield: lc_telemetry::counter("serve.conn_yield"),
        })
    }
}

fn micros_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// One accepted connection waiting for a worker.
struct QueuedConn {
    stream: TcpStream,
    enqueued: Instant,
    tag: u64,
}

struct QueueState {
    conns: std::collections::VecDeque<QueuedConn>,
    closed: bool,
}

/// The bounded accept queue: the explicit shed-vs-queue boundary.
struct AcceptQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
    depth: &'static Gauge,
}

enum Pop {
    Conn(QueuedConn),
    Empty,
    Closed,
}

impl AcceptQueue {
    fn new(capacity: usize, depth: &'static Gauge) -> Self {
        Self {
            state: Mutex::new(QueueState {
                conns: std::collections::VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Queue the connection, or hand it back for shedding when full or
    /// already draining.
    fn try_push(&self, conn: QueuedConn) -> Result<(), QueuedConn> {
        let mut st = self.lock();
        if st.closed || st.conns.len() >= self.capacity {
            return Err(conn);
        }
        st.conns.push_back(conn);
        self.depth.set(st.conns.len() as u64);
        drop(st);
        self.cond.notify_one();
        Ok(())
    }

    /// Whether a connection is waiting for a worker.
    fn has_waiting(&self) -> bool {
        !self.lock().conns.is_empty()
    }

    /// Stop admitting; wake every worker so it can drain and exit.
    fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    fn pop(&self, wait: Duration) -> Pop {
        let mut st = self.lock();
        if st.conns.is_empty() && !st.closed {
            let (g, _timeout) = self
                .cond
                .wait_timeout(st, wait)
                .unwrap_or_else(|p| p.into_inner());
            st = g;
        }
        match st.conns.pop_front() {
            Some(conn) => {
                self.depth.set(st.conns.len() as u64);
                Pop::Conn(conn)
            }
            None if st.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }
}

/// A bound server, not yet running. Separating bind from run lets
/// callers learn the ephemeral port and clone control tokens first.
pub struct Server {
    listener: TcpListener,
    /// Where the drain watcher connects to wake a blocked `accept`.
    wake_addr: SocketAddr,
    cfg: ServeConfig,
    drain: CancelToken,
    hard: CancelToken,
    mem: Arc<MemGovernor>,
}

impl Server {
    /// Bind the listen socket and prepare control tokens.
    ///
    /// `drain` is the shutdown trigger: cancel it (or construct it with
    /// [`CancelToken::watching_signals`]) to move the server from
    /// RUNNING to DRAINING.
    pub fn bind(cfg: ServeConfig, drain: CancelToken) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake_addr = listener.local_addr()?;
        // A wildcard bind is reached through loopback.
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let mem = MemGovernor::new(cfg.mem_budget_bytes);
        Ok(Server {
            listener,
            wake_addr,
            cfg,
            drain,
            hard: CancelToken::new(),
            mem,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared request-memory governor (tests watch its residency).
    pub fn governor(&self) -> Arc<MemGovernor> {
        Arc::clone(&self.mem)
    }

    /// Serve until drained. Blocks the calling thread; returns the
    /// terminal accounting once every worker has exited.
    pub fn run(self) -> ServeSummary {
        let _chaos = self
            .cfg
            .chaos_seed
            .map(|seed| lc_chaos::install(lc_chaos::FaultPlan::serve(seed)));
        let exec = ExecContext {
            pool: Pool::new(self.cfg.pool_threads),
            max_decoded_bytes: self.cfg.max_decoded_bytes,
            mem: Arc::clone(&self.mem),
        };
        let metrics = ServeMetrics::get();
        let counters = Counters::default();
        let queue = AcceptQueue::new(self.cfg.queue_capacity, metrics.queue_depth);
        let worker = Worker {
            exec: &exec,
            counters: &counters,
            metrics,
            queue: &queue,
            cfg: &self.cfg,
            drain: &self.drain,
            hard: &self.hard,
        };
        let workers_done = AtomicUsize::new(0);
        let accepting = AtomicBool::new(true);
        let signal_base = lc_parallel::signal_count();

        std::thread::scope(|scope| {
            for _ in 0..self.cfg.worker_threads.max(1) {
                scope.spawn(|| {
                    loop {
                        match queue.pop(Duration::from_millis(50)) {
                            Pop::Conn(qc) => worker.serve(qc),
                            Pop::Empty => {}
                            Pop::Closed => break,
                        }
                    }
                    workers_done.fetch_add(1, Ordering::Release);
                });
            }
            scope.spawn(|| wake_on_drain(&self.drain, self.wake_addr, &accepting));

            // RUNNING: the accept loop. `accept` blocks until a client
            // connects or the drain watcher wakes it.
            let mut conn_seq: u64 = 0;
            while !self.drain.is_cancelled() {
                match self.listener.accept() {
                    // The watcher's wake-up, or a client that lost the
                    // race with drain: either way, not served.
                    Ok(_) if self.drain.is_cancelled() => break,
                    Ok((stream, _peer)) => {
                        conn_seq += 1;
                        counters.conns_accepted.fetch_add(1, Ordering::Relaxed);
                        let qc = QueuedConn {
                            stream,
                            enqueued: Instant::now(),
                            // Distinct chaos tag per connection keeps
                            // fault draws independent across conns.
                            tag: 0x5E4E_0000_0000_0000u64.wrapping_add(conn_seq),
                        };
                        if let Err(refused) = queue.try_push(qc) {
                            counters.sheds_accept.fetch_add(1, Ordering::Relaxed);
                            metrics.shed_queue.add(1);
                            shed_connection(refused);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            accepting.store(false, Ordering::Release);

            // DRAINING: no new work; finish or deadline-out what's in.
            lc_telemetry::flight::note("serve.drain", &[]);
            queue.close();
            let drain_started = Instant::now();
            let drain_deadline = Duration::from_millis(self.cfg.drain_deadline_ms);
            let workers = self.cfg.worker_threads.max(1);
            while workers_done.load(Ordering::Acquire) < workers {
                let second_signal = lc_parallel::signal_count() >= signal_base + 2;
                if !self.hard.is_cancelled()
                    && (second_signal || drain_started.elapsed() >= drain_deadline)
                {
                    // HARD ABORT: cancel every request token; in-flight
                    // work terminates with structured errors at the
                    // next chunk boundary.
                    self.hard.cancel();
                    counters.hard_aborted.store(true, Ordering::Relaxed);
                    lc_telemetry::counter("serve.hard_abort").add(1);
                    lc_telemetry::flight::note(
                        "serve.hard_abort",
                        &[(
                            "drain_elapsed_ms",
                            drain_started.elapsed().as_millis() as u64,
                        )],
                    );
                }
                std::thread::sleep(DRAIN_POLL);
            }
        });

        let summary = counters.summary();
        // The summary's accounting, restated as the flight recorder's
        // final events: the black box's tail must agree with what the
        // drain summary reports (two args per note is the slot budget).
        lc_telemetry::flight::note(
            "serve.summary",
            &[
                ("requests_in", summary.requests_in),
                ("responses_ok", summary.responses_ok),
            ],
        );
        lc_telemetry::flight::note(
            "serve.summary",
            &[
                ("responses_err", summary.responses_err),
                ("sheds", summary.sheds),
            ],
        );
        lc_telemetry::flight::note(
            "serve.summary",
            &[
                ("response_write_failed", summary.response_write_failed),
                ("hard_aborted", u64::from(summary.hard_aborted)),
            ],
        );
        if summary.hard_aborted {
            if let Some(path) = &self.cfg.flight_dump {
                if let Err(e) = lc_telemetry::flight::dump_to(path) {
                    eprintln!(
                        "warning: flight recorder dump to {} failed: {e}",
                        path.display()
                    );
                }
            }
        }
        summary
    }
}

/// How often the drain watcher and the DRAINING loop look at the clock
/// and the tokens.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Once the drain token fires, connect to the listener until the
/// acceptor has stopped: the connection is what returns its blocking
/// `accept`. Repeating covers a wake-up the acceptor took before it
/// could see the token.
fn wake_on_drain(drain: &CancelToken, wake_addr: SocketAddr, accepting: &AtomicBool) {
    while accepting.load(Ordering::Acquire) {
        if drain.is_cancelled() {
            let _ = TcpStream::connect_timeout(&wake_addr, DRAIN_POLL);
        }
        std::thread::sleep(DRAIN_POLL);
    }
}

/// Shed a connection at the front door: best-effort shed frame, then
/// close. The write is bounded so a stalled client cannot wedge the
/// acceptor.
fn shed_connection(qc: QueuedConn) {
    let mut stream = qc.stream;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = proto::write_response(
        &mut stream,
        &Response::Shed {
            retry_after_ms: SHED_RETRY_AFTER_MS,
        },
        qc.tag,
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// How long an idle connection waits for a frame between checks for
/// drain and for connections waiting in the accept queue. It bounds how
/// long a queued connection can wait behind a worker that holds an idle
/// one.
pub const IDLE_POLL: Duration = Duration::from_millis(100);
/// Upper bound on any single blocking read/write once a frame started.
/// Bounds how long a dead client can wedge a worker past drain.
const FRAME_IO_TIMEOUT: Duration = Duration::from_secs(5);

fn io_timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What every connection-serving worker shares.
struct Worker<'a> {
    exec: &'a ExecContext,
    counters: &'a Counters,
    metrics: &'static ServeMetrics,
    queue: &'a AcceptQueue,
    cfg: &'a ServeConfig,
    drain: &'a CancelToken,
    hard: &'a CancelToken,
}

impl Worker<'_> {
    /// Take a connection from the accept queue and serve it.
    fn serve(&self, qc: QueuedConn) {
        let queue_us = micros_since(qc.enqueued);
        self.metrics.time_in_queue_us.record(queue_us);
        self.handle_conn(qc.stream, qc.tag, queue_us);
    }

    fn transport_error(&self) {
        self.counters
            .conn_transport_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Whether to close the connection between frames: the server is
    /// draining, or (the yield rule) a connection waits for a worker.
    fn should_close(&self) -> bool {
        if self.drain.is_cancelled() || self.hard.is_cancelled() {
            return true;
        }
        let waiting = self.queue.has_waiting();
        if waiting {
            self.metrics.conn_yield.add(1);
        }
        waiting
    }

    /// Serve one connection: a sequence of request frames, each
    /// answered by exactly one response frame, until the client closes
    /// it or [`Self::should_close`] gives it up between frames.
    fn handle_conn(&self, mut stream: TcpStream, conn_tag: u64, queue_us: u64) {
        if stream.set_nodelay(true).is_err()
            || stream.set_write_timeout(Some(FRAME_IO_TIMEOUT)).is_err()
        {
            self.transport_error();
            return;
        }
        let mut req_seq: u64 = 0;
        loop {
            // Idle phase: wait for the next frame's first byte without
            // committing to a long blocking read, so drain and waiting
            // connections are observed within IDLE_POLL even on silent
            // connections.
            if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
                self.transport_error();
                return;
            }
            let mut probe = [0u8; 1];
            loop {
                match stream.peek(&mut probe) {
                    Ok(0) => return, // clean close
                    Ok(_) => break,
                    Err(ref e) if io_timed_out(e) => {
                        if self.should_close() {
                            return; // no frame in flight
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.transport_error();
                        return;
                    }
                }
            }
            let first_byte = Instant::now();

            // Frame phase: a request is on the wire; read it fully.
            if stream.set_read_timeout(Some(FRAME_IO_TIMEOUT)).is_err() {
                self.transport_error();
                return;
            }
            req_seq += 1;
            let tag = conn_tag.wrapping_add(req_seq.wrapping_mul(0x9E37));
            let req = match proto::read_request(&mut stream, self.cfg.max_payload_bytes, tag) {
                Ok(req) => req,
                Err(FrameError::CleanClose) => return,
                Err(FrameError::OverLimit { declared, limit }) => {
                    // The head was read but the payload was refused before
                    // allocation: terminate with a structured error, then
                    // close (framing cannot resync past unread payload).
                    self.counters.requests_in.fetch_add(1, Ordering::Relaxed);
                    self.respond(
                        &mut stream,
                        &Response::Err {
                            kind: ErrorKind::Limit,
                            message: format!(
                                "request declares {declared} bytes, above the {limit}-byte limit"
                            ),
                        },
                        tag,
                    );
                    return;
                }
                Err(FrameError::Malformed(what)) => {
                    self.counters.requests_in.fetch_add(1, Ordering::Relaxed);
                    self.respond(
                        &mut stream,
                        &Response::Err {
                            kind: ErrorKind::Usage,
                            message: format!("malformed frame: {what}"),
                        },
                        tag,
                    );
                    return;
                }
                Err(FrameError::Io(_)) => {
                    self.transport_error();
                    return;
                }
            };
            self.metrics.read_us.record(micros_since(first_byte));
            self.counters.requests_in.fetch_add(1, Ordering::Relaxed);
            self.metrics.requests.add(1);

            // Request scope: every span and flight record produced while
            // serving this request — pool workers included — carries this
            // id, so a trace export reconstructs one request's critical
            // path (queue wait, each stage, governor verdict, outcome).
            let req_id = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
            let _req_scope = lc_telemetry::request_scope(req_id);
            let mut req_span = lc_telemetry::span_in!(
                "serve",
                "request",
                op = req.op.label(),
                bytes = req.payload.len(),
                deadline_ms = req.deadline_ms,
                // Queue wait belongs to the frame that was waiting when the
                // worker picked the connection up; later frames on the same
                // connection never sat in the accept queue.
                queue_us = if req_seq == 1 { queue_us } else { 0 },
            );

            let started = Instant::now();
            let token = request_token(self.hard, req.deadline_ms, started);
            let resp = execute(&req, &lc_components::lookup, self.exec, &token);
            self.metrics.execute_us.record(micros_since(started));
            let outcome = match &resp {
                Response::Ok(_) => "ok",
                Response::Err { kind, .. } => kind.label(),
                Response::Shed { .. } => "shed",
            };
            req_span.arg("outcome", outcome);
            let delivered = self.respond(&mut stream, &resp, tag);
            req_span.arg("delivered", delivered);
            drop(req_span);
            if !delivered || self.should_close() {
                return;
            }
        }
    }

    /// Write the request's one termination and bump exactly one counter.
    /// Returns whether the connection is still usable.
    fn respond(&self, stream: &mut TcpStream, resp: &Response, tag: u64) -> bool {
        let started = Instant::now();
        let wrote = proto::write_response(stream, resp, tag).and_then(|()| stream.flush());
        self.metrics.write_us.record(micros_since(started));
        match wrote {
            Ok(()) => {
                let (counter, metric) = match resp {
                    Response::Ok(_) => (&self.counters.responses_ok, self.metrics.resp_ok),
                    Response::Err { .. } => (&self.counters.responses_err, self.metrics.resp_err),
                    Response::Shed { .. } => (&self.counters.sheds, self.metrics.resp_shed),
                };
                counter.fetch_add(1, Ordering::Relaxed);
                metric.add(1);
                true
            }
            Err(_) => {
                self.counters
                    .response_write_failed
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.resp_write_failed.add(1);
                false
            }
        }
    }
}
