//! # chronorank-net — wire-protocol query/ingest serving
//!
//! Everything below this crate answers queries *in process*. This crate
//! is the network seam the ROADMAP's "heavy traffic" goal needs — the
//! same thin, well-defined protocol layer large survey databases put
//! between clients and the storage/index tiers so the serving tier can be
//! load-shed and scaled independently:
//!
//! * a **frame protocol** ([`frame`]) — length-prefixed binary frames
//!   with a versioned header, client request ids, and a CRC over every
//!   payload; ops `PING`, `TOPK`, `APPEND_BATCH`, `CHECKPOINT`, `STATS`,
//!   `METRICS` (the whole process metric registry as text exposition),
//!   and `TRACE` (SLO burn-rate status + drained span trees as JSON).
//!   `TOPK` and `APPEND_BATCH` requests may carry an optional 16-byte
//!   [`frame::TraceContext`] tail that joins the server's spans into the
//!   client's trace; context-free frames stay byte-identical to the
//!   pre-extension encoding. Scores cross the wire as exact `f64` bits,
//!   so a network answer is **bit-identical** to the in-process answer
//!   it came from;
//! * a **server** ([`NetServer`]) — a dependency-free `std::net` TCP
//!   server fronting a [`chronorank_serve::ServeEngine`] (read path) or a
//!   [`chronorank_live::IngestEngine`] (read + durable write path), with
//!   an acceptor, per-connection buffered IO threads, a pool of
//!   `engine_threads` workers over **one shared backend** (the engines
//!   are `Send + Sync`; live-backend writes serialize behind a write
//!   lock), explicit admission control — at `max_in_flight` outstanding
//!   frames the server answers a typed `BUSY` error instead of queueing
//!   unboundedly — and a clean-shutdown path that joins every thread;
//! * a **client** ([`NetClient`]) — blocking, with request pipelining
//!   (many requests in flight on one connection), batched appends, and a
//!   closed-loop driver that records per-request latencies and retries
//!   typed `BUSY` pushback.
//!
//! Every `TOPK` response also reports the planner's **route**, the
//! **achieved ε** of that route (restated against the live mass on a live
//! backend), and the number of **appends applied** when the answer was
//! computed — so a client can assert the freshness and error class of
//! what it was served, not just the ranking.
//!
//! ## Example
//!
//! ```
//! use chronorank_core::TemporalSet;
//! use chronorank_curve::PiecewiseLinear;
//! use chronorank_net::{NetClient, NetConfig, NetServer};
//! use chronorank_serve::{ServeConfig, ServeQuery};
//!
//! let curves: Vec<_> = (0..16)
//!     .map(|i| {
//!         PiecewiseLinear::from_points(&[(0.0, i as f64), (50.0, (16 - i) as f64)]).unwrap()
//!     })
//!     .collect();
//! let set = TemporalSet::from_curves(curves).unwrap();
//! let server = NetServer::start_serve(
//!     set,
//!     ServeConfig { workers: 2, ..Default::default() },
//!     NetConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let answer = client.topk(ServeQuery::exact(10.0, 40.0, 3)).unwrap();
//! assert_eq!(answer.topk.len(), 3);
//! assert!(answer.route.is_exact());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod frame;

mod client;
mod server;

pub use client::{NetClient, NetError, PipelineOutcome, Response};
pub use frame::{
    AppendOk, Decoder, ErrCode, ErrorBody, Frame, FrameError, OpCode, StatsBody, TopKRequest,
    TopKResponse, TraceContext, MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use server::{Backend, NetConfig, NetServer, ServerError};
