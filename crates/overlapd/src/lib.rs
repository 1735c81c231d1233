#![warn(missing_docs)]

//! # overlapd — streaming overlap-analysis service
//!
//! A single-binary server (exposed through `repro serve`) that accepts
//! concurrent **event streams** — the same JSONL schema the batch pipeline
//! exports as `<id>.events.jsonl` — and computes overlap bounds and
//! wait-state attribution *incrementally*, line by line as the bytes
//! arrive, while runs are still in flight. See `docs/SERVICE.md` for the wire protocol, the
//! memory model, and the equivalence guarantee.
//!
//! * [`service::Service`] — the multi-session registry: one
//!   [`overlap_core::stream::SessionFold`] per pushed stream, plus the
//!   merged cross-session fleet view,
//! * [`server::Server`] — the TCP front end: length-framed ingest
//!   (`OVLP1`) and a minimal HTTP/1.1 read side on one port, with graceful
//!   shutdown,
//! * [`client`] — the `repro push` / `--stream` client half of the framed
//!   protocol.
//!
//! **Equivalence.** For the same event stream, every artifact this service
//! serves is byte-identical to the batch pipeline's: the attribution JSON
//! and collapsed flamegraph text come from the shared constructors in
//! [`overlap_core::artifact`], the windowed series from the fold
//! [`overlap_core::trace::windowed`] runs, and the per-rank reports from
//! the fold the in-process recorder drives.
//!
//! **Memory.** What is bounded: per connection, one socket buffer and one
//! partial line (no line may exceed [`server::MAX_FRAME`]) on every
//! transport — no buffer grows with upload size; per (session, scope,
//! rank), a fixed-size fold, and raw events are never retained. What is
//! not, yet: the derived records (bounds, call spans, waits) the served
//! artifacts require grow with the session's transfers, and sessions and
//! connections are uncapped. Ingest folds under the session lock before
//! the next read, so TCP flow control is the backpressure: a fast client
//! blocks on a busy session instead of growing a queue. The lock guards the
//! fold and the build of a read's artifact, never I/O.

pub mod client;
pub mod http;
pub mod server;
pub mod service;

pub use client::{push_file, push_text, PushError};
pub use server::Server;
pub use service::{FleetView, Service, SessionInfo};
