//! lc-serve: a deadline-governed, load-shedding compression service.
//!
//! This crate turns the batch LC toolkit into a long-running service:
//! a length-prefixed TCP protocol ([`proto`]) exposing `pack`, `unpack`,
//! `salvage`, and `stat`, executed on the shared [`lc_parallel::Pool`]
//! under per-request deadlines ([`exec`]), admission-controlled by a
//! request-memory governor ([`arena`]), with a bounded accept queue,
//! explicit shed-vs-queue policy, and a graceful-drain state machine
//! ([`server`]). A shed-aware retrying client ([`client`]) and a seeded
//! open-loop load generator ([`loadgen`]) complete the loop; the chaos
//! layer's socket fault sites ([`lc_chaos::net`]) inject resets and torn
//! transfers into live traffic so the request-termination contract —
//! every accepted request ends in exactly one of {response, structured
//! error, shed} — is tested under fire, not just on the happy path.
//!
//! Zero new dependencies: sockets are `std::net`, time is `std::time`,
//! randomness is the chaos layer's splitmix64.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod client;
pub mod exec;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use arena::MemGovernor;
pub use client::{Client, ClientError};
pub use exec::{execute, ExecContext};
pub use proto::{ErrorKind, Op, Request, Response};
pub use server::{ServeConfig, ServeSummary, Server};
