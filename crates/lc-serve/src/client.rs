//! A minimal blocking client with persistent connections and
//! shed-aware bounded retries.
//!
//! # Connections
//!
//! A [`Client`] (and every clone of it) shares one pool of idle
//! connections. An exchange takes the most recently parked connection,
//! or opens a new one when the pool is empty, so a client never holds
//! more connections than it has concurrent requests. Both ends set
//! `TCP_NODELAY`, and every frame leaves in a single write.
//!
//! * A connection goes back into the pool only after a clean exchange
//!   that ended in an ok or error response. After any failure it is
//!   dropped; after a shed it is dropped too, since a front-door shed is
//!   the server's last word on that connection.
//! * Before reuse, a non-blocking `peek` checks that the server has not
//!   closed the connection while it sat idle (a drain, or a worker
//!   yielding it to a queued connection). A closed one is discarded.
//! * If a reused connection still fails before the first response byte
//!   (the server closed it while the request was on its way), the
//!   client opens a new connection and sends the request again, once.
//!   This costs no retry attempt and no backoff sleep: every operation
//!   is idempotent, and a frame the server never fully read was never
//!   counted as a request. A timeout is not a reason to resend.
//!
//! Each discarded pooled connection counts one `client.reconnect`.
//!
//! # Retries
//!
//! The retry policy mirrors the durable-I/O layer's [`lc_chaos::fs`]
//! schedule: at most [`lc_chaos::fs::MAX_ATTEMPTS`] attempts, sleeping
//! the server's `retry_after` hint (for sheds) plus the deterministic
//! [`lc_chaos::fs::backoff_us`] jitter between attempts, so a fleet of
//! shed clients spreads out instead of thundering back in lockstep.
//! Transport failures (resets injected by a chaos plan, torn frames)
//! retry on the same schedule: every exposed operation is idempotent,
//! so re-sending after an ambiguous failure is safe.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use lc_chaos::fs::{backoff_us, MAX_ATTEMPTS};
use lc_telemetry::Counter;

use crate::proto::{self, FrameError, Request, Response};

/// Why a request ultimately failed at the client.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to the server.
    Connect(io::Error),
    /// The exchange failed at the framing/transport layer.
    Frame(FrameError),
    /// Every attempt was shed or failed; the last cause is attached.
    Exhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// Human-readable final cause.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Frame(e) => write!(f, "exchange failed: {e}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Connection/read bounds for one client, and its idle connections.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    /// Largest response body this client will accept.
    pub max_body: u64,
    /// Per-exchange socket timeout, applied to each connection as it is
    /// opened.
    pub io_timeout: Duration,
    /// Connections parked after a clean exchange, most recent last.
    idle: Arc<Mutex<Vec<TcpStream>>>,
}

/// How one exchange on one connection failed.
struct Failure {
    err: ClientError,
    /// No response byte arrived and no timeout fired: the connection is
    /// gone before the server answered, so the frame may be sent again.
    resend: bool,
}

/// Counts the bytes read through it, so a failed exchange can tell
/// whether any of the response arrived.
struct Counted<'a> {
    stream: &'a mut TcpStream,
    read: usize,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The client's counters, resolved once per process.
fn reconnects() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| lc_telemetry::counter("client.reconnect"))
}

fn sheds_observed() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| lc_telemetry::counter("client.shed_observed"))
}

impl Client {
    /// A client for `addr` with generous default bounds.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            max_body: 1 << 30,
            io_timeout: Duration::from_secs(10),
            idle: Arc::default(),
        }
    }

    fn lock_idle(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The most recently parked connection the server has not closed.
    fn pooled(&self) -> Option<TcpStream> {
        loop {
            let stream = self.lock_idle().pop()?;
            let mut probe = [0u8; 1];
            let open = stream.set_nonblocking(true).is_ok()
                && matches!(stream.peek(&mut probe), Err(ref e) if e.kind() == io::ErrorKind::WouldBlock)
                && stream.set_nonblocking(false).is_ok();
            if open {
                return Some(stream);
            }
            // Closed, reset, or unsolicited bytes: not reusable.
            reconnects().add(1);
        }
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(self.addr).map_err(ClientError::Connect)?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(self.io_timeout)))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .map_err(ClientError::Connect)?;
        Ok(stream)
    }

    /// Send `req` and read its response on `stream`.
    fn exchange(
        &self,
        stream: &mut TcpStream,
        req: &Request,
        tag: u64,
    ) -> Result<Response, Failure> {
        if let Err(e) = proto::write_request(stream, req, tag) {
            return Err(Failure {
                resend: !timed_out(&e),
                err: ClientError::Frame(FrameError::Io(e)),
            });
        }
        let mut counted = Counted { stream, read: 0 };
        proto::read_response(&mut counted, self.max_body, tag).map_err(|e| Failure {
            resend: counted.read == 0 && matches!(&e, FrameError::Io(io) if !timed_out(io)),
            err: ClientError::Frame(e),
        })
    }

    /// Park `stream` for reuse unless the response closes it.
    fn finish(&self, stream: TcpStream, resp: Response) -> Response {
        if !matches!(resp, Response::Shed { .. }) {
            self.lock_idle().push(stream);
        }
        resp
    }

    /// One request → response exchange, no retries. Reuses a pooled
    /// connection when one is open; a pooled connection that fails
    /// before the reply is replaced and the request sent again, once.
    pub fn request_once(&self, req: &Request, tag: u64) -> Result<Response, ClientError> {
        if let Some(mut stream) = self.pooled() {
            match self.exchange(&mut stream, req, tag) {
                Ok(resp) => return Ok(self.finish(stream, resp)),
                Err(f) if !f.resend => return Err(f.err),
                Err(_) => reconnects().add(1),
            }
        }
        let mut stream = self.connect()?;
        let resp = self.exchange(&mut stream, req, tag).map_err(|f| f.err)?;
        Ok(self.finish(stream, resp))
    }

    /// Exchange with bounded retries on shed responses and transport
    /// failures. Structured error responses are *not* retried — they
    /// are the request's termination, and the caller gets them as
    /// `Ok(Response::Err { .. })`.
    pub fn request_with_retry(&self, req: &Request, tag: u64) -> Result<Response, ClientError> {
        let mut last = String::new();
        for attempt in 0..MAX_ATTEMPTS {
            let retry_after_ms = match self.request_once(req, tag.wrapping_add(attempt.into())) {
                Ok(Response::Shed { retry_after_ms }) => {
                    // Retried sheds are invisible to the caller, so the
                    // rate-sweep knee detector watches this counter.
                    sheds_observed().add(1);
                    last = format!("shed (retry_after {retry_after_ms}ms)");
                    u64::from(retry_after_ms)
                }
                Ok(resp) => return Ok(resp),
                Err(ClientError::Frame(FrameError::OverLimit { declared, limit })) => {
                    // Deterministic refusal; retrying cannot help.
                    return Err(ClientError::Frame(FrameError::OverLimit {
                        declared,
                        limit,
                    }));
                }
                Err(e) => {
                    last = e.to_string();
                    0
                }
            };
            if attempt + 1 < MAX_ATTEMPTS {
                let jitter_us = backoff_us(tag, attempt);
                std::thread::sleep(Duration::from_micros(
                    retry_after_ms
                        .saturating_mul(1000)
                        .saturating_add(jitter_us),
                ));
            }
        }
        Err(ClientError::Exhausted {
            attempts: MAX_ATTEMPTS,
            last,
        })
    }
}
