//! The wire protocol: little-endian, length-prefixed binary frames over
//! a byte stream (TCP in production, in-memory cursors in tests).
//!
//! A connection carries a sequence of request frames from the client and
//! one response frame per request from the server. Framing is explicit —
//! every variable-length field is preceded by its byte length — so a
//! torn transfer is always detectable as a short read, never silently
//! reinterpreted.
//!
//! ```text
//! request  := op:u8  deadline_ms:u32  pipeline_len:u16  payload_len:u32
//!             pipeline:[u8; pipeline_len]  payload:[u8; payload_len]
//! response := status:u8 body
//!   status 0 (ok)    body := body_len:u32  bytes:[u8; body_len]
//!   status 1 (error) body := kind_len:u16  kind:[u8]  msg_len:u32  msg:[u8]
//!   status 2 (shed)  body := retry_after_ms:u32
//! ```
//!
//! All socket I/O goes through [`lc_chaos::net`], so an installed
//! [`lc_chaos::FaultPlan::serve`] perturbs reads and writes on both
//! sides of the wire exactly as it does the durable-file paths.
//!
//! The **request-termination contract**: once a server has fully read a
//! request frame, it owes the connection exactly one response frame —
//! ok, error, or shed. A request whose response cannot be written
//! (connection reset) is still accounted, as `response_write_failed`.

use std::io::{self, Read, Write};

use lc_chaos::net::{read_full, write_all};

/// Hard wire-format cap on any single length field. Guards the frame
/// parser against hostile 4 GiB declarations before the configurable
/// per-server limits are even consulted.
pub(crate) const MAX_FRAME_BYTES: u32 = 1 << 30;

/// The operations the server exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Encode raw payload bytes with the request's pipeline.
    Pack,
    /// Decode an archive payload back to raw bytes.
    Unpack,
    /// Best-effort decode of a damaged archive (clean recoveries only).
    Salvage,
    /// Parse an archive header and return its metadata as JSON.
    Stat,
    /// Dump the server's flight recorder as JSONL (observability op;
    /// payload and pipeline are ignored). Errors with `usage` when the
    /// recorder is not armed.
    Debug,
}

impl Op {
    fn code(self) -> u8 {
        match self {
            Op::Pack => 1,
            Op::Unpack => 2,
            Op::Salvage => 3,
            Op::Stat => 4,
            Op::Debug => 5,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(Op::Pack),
            2 => Some(Op::Unpack),
            3 => Some(Op::Salvage),
            4 => Some(Op::Stat),
            5 => Some(Op::Debug),
            _ => None,
        }
    }

    /// The CLI/diagnostic spelling.
    pub fn label(self) -> &'static str {
        match self {
            Op::Pack => "pack",
            Op::Unpack => "unpack",
            Op::Salvage => "salvage",
            Op::Stat => "stat",
            Op::Debug => "debug",
        }
    }
}

/// Structured error categories a response can carry. The label is the
/// wire form; clients match on it, so labels are a compatibility
/// surface and never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request's deadline fired before the work completed.
    DeadlineExceeded,
    /// The payload failed to decode (corrupt/truncated/unknown stage).
    Decode,
    /// A size limit refused the work (bomb guard, request cap).
    Limit,
    /// The request itself is malformed (bad pipeline, unknown op use).
    Usage,
    /// Salvage ran but lost chunks; the payload is not cleanly
    /// recoverable.
    Salvage,
    /// The server could not complete the request (draining, internal
    /// failure).
    Internal,
}

impl ErrorKind {
    /// Wire and log spelling.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Decode => "decode",
            ErrorKind::Limit => "limit",
            ErrorKind::Usage => "usage",
            ErrorKind::Salvage => "salvage",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse a wire label (unknown labels degrade to `Internal` so a
    /// newer server never crashes an older client).
    pub fn from_label(s: &str) -> Self {
        match s {
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "decode" => ErrorKind::Decode,
            "limit" => ErrorKind::Limit,
            "usage" => ErrorKind::Usage,
            "salvage" => ErrorKind::Salvage,
            _ => ErrorKind::Internal,
        }
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requested operation.
    pub op: Op,
    /// Milliseconds the client allows for this request; `0` = no
    /// deadline (the server may impose its own default).
    pub deadline_ms: u32,
    /// Pipeline description for `pack` (ignored by the other ops).
    pub pipeline: String,
    /// Raw bytes (`pack`) or archive bytes (`unpack`/`salvage`/`stat`).
    pub payload: Vec<u8>,
}

/// One response frame: the exactly-one termination of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The operation succeeded; the body is its result bytes.
    Ok(Vec<u8>),
    /// The operation terminated with a structured error.
    Err {
        /// Error category (stable wire labels).
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The server refused the work under load; retry after the hint.
    Shed {
        /// Client backoff hint in milliseconds.
        retry_after_ms: u32,
    },
}

/// Why a request frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly before sending any frame byte.
    CleanClose,
    /// A declared length exceeds the caller's limit; the frame was not
    /// consumed, so the only safe continuation is an error response and
    /// a connection close.
    OverLimit {
        /// The length the frame declared.
        declared: u64,
        /// The limit it exceeded.
        limit: u64,
    },
    /// The frame is structurally invalid (unknown op, bogus lengths).
    Malformed(&'static str),
    /// Transport failure (reset, torn read, EOF mid-frame).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::CleanClose => write!(f, "connection closed"),
            FrameError::OverLimit { declared, limit } => {
                write!(
                    f,
                    "frame declares {declared} bytes, above the {limit}-byte limit"
                )
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serialize and send one request frame.
pub fn write_request(w: &mut impl Write, req: &Request, tag: u64) -> io::Result<()> {
    let pipeline = req.pipeline.as_bytes();
    if pipeline.len() > u16::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pipeline description exceeds u16 length prefix",
        ));
    }
    if req.payload.len() > MAX_FRAME_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload exceeds wire-format frame cap",
        ));
    }
    let mut frame = Vec::with_capacity(11 + pipeline.len() + req.payload.len());
    frame.push(req.op.code());
    frame.extend_from_slice(&req.deadline_ms.to_le_bytes());
    frame.extend_from_slice(&(pipeline.len() as u16).to_le_bytes());
    frame.extend_from_slice(&(req.payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(pipeline);
    frame.extend_from_slice(&req.payload);
    write_all(w, &frame, tag)
}

/// Read one request frame, enforcing `max_payload` on the declared
/// payload length before any payload byte is read.
pub fn read_request(r: &mut impl Read, max_payload: u64, tag: u64) -> Result<Request, FrameError> {
    // The first byte distinguishes "peer hung up between requests"
    // (clean close) from "peer died mid-frame" (transport error).
    let mut first = [0u8; 1];
    match read_full(r, &mut first, tag) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::CleanClose),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let op = Op::from_code(first[0]).ok_or(FrameError::Malformed("unknown op code"))?;
    let mut head = [0u8; 10];
    read_full(r, &mut head, tag)?;
    let deadline_ms = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let pipeline_len = u16::from_le_bytes([head[4], head[5]]) as usize;
    let payload_len = u32::from_le_bytes([head[6], head[7], head[8], head[9]]);
    if payload_len > MAX_FRAME_BYTES {
        return Err(FrameError::Malformed("payload length above frame cap"));
    }
    if u64::from(payload_len) > max_payload {
        return Err(FrameError::OverLimit {
            declared: u64::from(payload_len),
            limit: max_payload,
        });
    }
    let mut pipeline = vec![0u8; pipeline_len];
    read_full(r, &mut pipeline, tag)?;
    let pipeline =
        String::from_utf8(pipeline).map_err(|_| FrameError::Malformed("pipeline is not utf-8"))?;
    let mut payload = vec![0u8; payload_len as usize];
    read_full(r, &mut payload, tag)?;
    Ok(Request {
        op,
        deadline_ms,
        pipeline,
        payload,
    })
}

/// Serialize and send one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response, tag: u64) -> io::Result<()> {
    let mut frame = Vec::new();
    match resp {
        Response::Ok(body) => {
            if body.len() > MAX_FRAME_BYTES as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "response body exceeds wire-format frame cap",
                ));
            }
            frame.push(0);
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(body);
        }
        Response::Err { kind, message } => {
            let kind = kind.label().as_bytes();
            let msg = message.as_bytes();
            let msg = &msg[..msg.len().min(MAX_FRAME_BYTES as usize)];
            frame.push(1);
            frame.extend_from_slice(&(kind.len() as u16).to_le_bytes());
            frame.extend_from_slice(kind);
            frame.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            frame.extend_from_slice(msg);
        }
        Response::Shed { retry_after_ms } => {
            frame.push(2);
            frame.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
    }
    write_all(w, &frame, tag)
}

/// Read one response frame. `max_body` bounds the ok-body and error
/// message allocations against a hostile or corrupted server.
pub(crate) fn read_response(
    r: &mut impl Read,
    max_body: u64,
    tag: u64,
) -> Result<Response, FrameError> {
    let mut status = [0u8; 1];
    read_full(r, &mut status, tag)?;
    match status[0] {
        0 => {
            let mut len = [0u8; 4];
            read_full(r, &mut len, tag)?;
            let len = u32::from_le_bytes(len);
            if len > MAX_FRAME_BYTES || u64::from(len) > max_body {
                return Err(FrameError::OverLimit {
                    declared: u64::from(len),
                    limit: max_body.min(u64::from(MAX_FRAME_BYTES)),
                });
            }
            let mut body = vec![0u8; len as usize];
            read_full(r, &mut body, tag)?;
            Ok(Response::Ok(body))
        }
        1 => {
            let mut klen = [0u8; 2];
            read_full(r, &mut klen, tag)?;
            let mut kind = vec![0u8; u16::from_le_bytes(klen) as usize];
            read_full(r, &mut kind, tag)?;
            let kind = std::str::from_utf8(&kind)
                .map(ErrorKind::from_label)
                .map_err(|_| FrameError::Malformed("error kind is not utf-8"))?;
            let mut mlen = [0u8; 4];
            read_full(r, &mut mlen, tag)?;
            let mlen = u32::from_le_bytes(mlen);
            if mlen > MAX_FRAME_BYTES || u64::from(mlen) > max_body {
                return Err(FrameError::Malformed("error message above body cap"));
            }
            let mut msg = vec![0u8; mlen as usize];
            read_full(r, &mut msg, tag)?;
            let message = String::from_utf8_lossy(&msg).into_owned();
            Ok(Response::Err { kind, message })
        }
        2 => {
            let mut ra = [0u8; 4];
            read_full(r, &mut ra, tag)?;
            Ok(Response::Shed {
                retry_after_ms: u32::from_le_bytes(ra),
            })
        }
        _ => Err(FrameError::Malformed("unknown response status")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, req, 1).unwrap();
        read_request(&mut Cursor::new(wire), u64::MAX, 1).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut wire = Vec::new();
        write_response(&mut wire, resp, 2).unwrap();
        read_response(&mut Cursor::new(wire), u64::MAX, 2).unwrap()
    }

    #[test]
    fn request_frames_roundtrip() {
        for req in [
            Request {
                op: Op::Pack,
                deadline_ms: 250,
                pipeline: "DIFF_1 RZE_1".into(),
                payload: (0..100_000u32).map(|i| (i % 253) as u8).collect(),
            },
            Request {
                op: Op::Stat,
                deadline_ms: 0,
                pipeline: String::new(),
                payload: Vec::new(),
            },
            Request {
                op: Op::Debug,
                deadline_ms: 100,
                pipeline: String::new(),
                payload: Vec::new(),
            },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        for resp in [
            Response::Ok(vec![7u8; 4096]),
            Response::Err {
                kind: ErrorKind::DeadlineExceeded,
                message: "deadline 250ms exceeded in stage 2".into(),
            },
            Response::Err {
                kind: ErrorKind::Salvage,
                message: "3 of 40 chunks lost".into(),
            },
            Response::Shed { retry_after_ms: 40 },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn error_kind_labels_are_stable_and_parse_back() {
        for kind in [
            ErrorKind::DeadlineExceeded,
            ErrorKind::Decode,
            ErrorKind::Limit,
            ErrorKind::Usage,
            ErrorKind::Salvage,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_label(kind.label()), kind);
        }
        assert_eq!(ErrorKind::DeadlineExceeded.label(), "deadline_exceeded");
        assert_eq!(
            ErrorKind::from_label("from-the-future"),
            ErrorKind::Internal
        );
    }

    #[test]
    fn over_limit_requests_are_refused_before_allocation() {
        let req = Request {
            op: Op::Pack,
            deadline_ms: 0,
            pipeline: "DIFF_1".into(),
            payload: vec![0u8; 10_000],
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req, 3).unwrap();
        let err = read_request(&mut Cursor::new(wire), 1_000, 3).unwrap_err();
        match err {
            FrameError::OverLimit { declared, limit } => {
                assert_eq!(declared, 10_000);
                assert_eq!(limit, 1_000);
            }
            other => panic!("expected OverLimit, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_and_torn_frames_are_distinguished() {
        // Zero bytes: the peer hung up between requests.
        let err = read_request(&mut Cursor::new(Vec::new()), u64::MAX, 4).unwrap_err();
        assert!(matches!(err, FrameError::CleanClose));

        // A frame cut off mid-header: a torn transfer, not a clean close.
        let req = Request {
            op: Op::Unpack,
            deadline_ms: 9,
            pipeline: String::new(),
            payload: vec![1, 2, 3],
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req, 4).unwrap();
        wire.truncate(6);
        let err = read_request(&mut Cursor::new(wire), u64::MAX, 4).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "got {err:?}");
    }

    #[test]
    fn unknown_op_code_is_malformed() {
        let err = read_request(&mut Cursor::new(vec![99u8; 16]), u64::MAX, 5).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)));
    }
}
