//! Request execution: one fully-read [`Request`] in, exactly one
//! [`Response`] out.
//!
//! This module is where the termination contract is enforced for the
//! *work* half of a request's life: every path through [`execute`]
//! returns a `Response` — success, structured error, or shed — and every
//! byte of request memory is leased from the [`MemGovernor`] and
//! released when the returned response is dropped, whichever of those
//! paths ran. Deadlines arrive as a [`CancelToken`] carrying an
//! `Instant`; the cancellable archive paths poll it at every chunk claim
//! boundary, so a blown deadline surfaces as a structured
//! `deadline_exceeded` error within one chunk's worth of work.

use std::sync::Arc;
use std::time::Instant;

use lc_core::{archive, Component, DecodeError, Pipeline};
use lc_parallel::{CancelToken, Pool};

use crate::arena::MemGovernor;
use crate::proto::{ErrorKind, Op, Request, Response};

/// Per-request execution limits and shared state.
pub struct ExecContext {
    /// The stage-execution pool shared by every request.
    pub pool: Pool,
    /// Decompression-bomb guard for `unpack`.
    pub max_decoded_bytes: u64,
    /// Request-memory governor (admission control).
    pub mem: Arc<MemGovernor>,
}

/// Admission headroom factor: a request leases its payload size twice
/// over (input + comparable-sized output) plus a fixed floor for stage
/// scratch. Deliberately coarse — the governor bounds aggregate
/// pressure, it does not meter exact allocations.
const LEASE_FLOOR_BYTES: u64 = 64 * 1024;

/// What a refused admission tells the client to do: spread retries a
/// few tens of milliseconds out rather than hammering a loaded server.
pub const SHED_RETRY_AFTER_MS: u32 = 25;

fn shed() -> Response {
    lc_telemetry::counter("serve.shed_mem").add(1);
    Response::Shed {
        retry_after_ms: SHED_RETRY_AFTER_MS,
    }
}

fn cancel_response(cancel: &CancelToken) -> Response {
    if cancel.deadline_exceeded() {
        Response::Err {
            kind: ErrorKind::DeadlineExceeded,
            message: "request deadline exceeded".into(),
        }
    } else {
        Response::Err {
            kind: ErrorKind::Internal,
            message: "request cancelled by server shutdown".into(),
        }
    }
}

fn decode_error_response(e: DecodeError, cancel: &CancelToken) -> Response {
    match e {
        DecodeError::Cancelled => cancel_response(cancel),
        DecodeError::TooLarge { .. } => Response::Err {
            kind: ErrorKind::Limit,
            message: e.to_string(),
        },
        other => Response::Err {
            kind: ErrorKind::Decode,
            message: other.to_string(),
        },
    }
}

/// Execute one request under `cancel` and return its termination.
///
/// `resolve` maps stage names to components; production passes
/// `lc_components::lookup`, tests substitute instrumented components.
pub fn execute<R>(req: &Request, resolve: &R, ctx: &ExecContext, cancel: &CancelToken) -> Response
where
    R: Fn(&str) -> Option<Arc<dyn Component>>,
{
    let _span = lc_telemetry::span_in!("serve", "execute", op = req.op.label());
    // Admission: lease the request's working set or shed. Stat and
    // Debug only touch metadata, so they skip the payload-sized lease.
    let lease_bytes = match req.op {
        Op::Stat | Op::Debug => LEASE_FLOOR_BYTES,
        _ => (req.payload.len() as u64)
            .saturating_mul(2)
            .saturating_add(LEASE_FLOOR_BYTES),
    };
    let Some(mut lease) = ctx.mem.try_lease(lease_bytes) else {
        return shed();
    };
    // A deadline that fired while the request sat in the accept queue
    // still terminates structurally ("before stage 1").
    if cancel.is_cancelled() {
        return cancel_response(cancel);
    }
    match req.op {
        Op::Pack => {
            let pipeline = match Pipeline::parse(&req.pipeline, resolve) {
                Ok(p) => p,
                Err(e) => {
                    return Response::Err {
                        kind: ErrorKind::Usage,
                        message: format!("bad pipeline {:?}: {e}", req.pipeline),
                    }
                }
            };
            match archive::encode_with(&pipeline, &req.payload, &ctx.pool, Some(cancel)) {
                Some(result) => Response::Ok(result.archive),
                None => cancel_response(cancel),
            }
        }
        Op::Unpack | Op::Salvage => {
            // One parse refuses a bomb and learns the declared output size;
            // the lease grows by it before the output buffer exists, and a
            // refusal sheds, exactly like front-door admission.
            let limit = Some(ctx.max_decoded_bytes);
            let decoder = match archive::Decoder::new(&req.payload, resolve, limit) {
                Ok(decoder) => decoder,
                Err(e) => return decode_error_response(e, cancel),
            };
            if !lease.grow(decoder.header().original_len) {
                return shed();
            }
            let done = if req.op == Op::Unpack {
                decoder
                    .decode(&ctx.pool, Some(cancel))
                    .map(|(bytes, _)| Response::Ok(bytes))
            } else {
                decoder.salvage(&ctx.pool).map(|(bytes, report)| {
                    if report.is_clean() {
                        return Response::Ok(bytes);
                    }
                    Response::Err {
                        kind: ErrorKind::Salvage,
                        message: format!(
                            "salvage recovered {} of {} chunks (archive crc ok: {})",
                            report.recovered,
                            report.recovered + report.lost,
                            report.archive_crc_ok
                        ),
                    }
                })
            };
            done.unwrap_or_else(|e| decode_error_response(e, cancel))
        }
        Op::Stat => match archive::parse_header(&req.payload) {
            Ok(header) => {
                let v = lc_json::Value::object([
                    ("version", lc_json::Value::from(u64::from(header.version))),
                    (
                        "stages",
                        lc_json::Value::array(
                            header
                                .stage_names
                                .iter()
                                .map(|s| lc_json::Value::from(s.as_str())),
                        ),
                    ),
                    ("original_len", lc_json::Value::from(header.original_len)),
                    ("crc32", lc_json::Value::from(u64::from(header.crc32))),
                    ("chunks", lc_json::Value::from(u64::from(header.chunks))),
                ]);
                Response::Ok(v.dump().into_bytes())
            }
            Err(e) => decode_error_response(e, cancel),
        },
        Op::Debug => {
            if lc_telemetry::flight::armed() {
                Response::Ok(lc_telemetry::flight::dump_jsonl().into_bytes())
            } else {
                Response::Err {
                    kind: ErrorKind::Usage,
                    message: "flight recorder is not armed on this server".into(),
                }
            }
        }
    }
}

/// Build the per-request cancel token: the server's abort token (tripped
/// by forced drain) plus this request's deadline, if any.
pub fn request_token(abort: &CancelToken, deadline_ms: u32, received: Instant) -> CancelToken {
    if deadline_ms == 0 {
        abort.clone()
    } else {
        abort.child_with_deadline(received + std::time::Duration::from_millis(deadline_ms.into()))
    }
}
