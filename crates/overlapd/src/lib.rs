#![warn(missing_docs)]

//! # overlapd — streaming overlap-analysis service
//!
//! A single-binary server (exposed through `repro serve`) that accepts
//! concurrent **event streams** — the same JSONL schema the batch pipeline
//! exports as `<id>.events.jsonl` — and computes overlap bounds and
//! wait-state attribution *incrementally*, with bounded memory, while runs
//! are still in flight. See `docs/SERVICE.md` for the wire protocol, the
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
//! **Memory.** Each line folds as it arrives and raw events are never
//! retained; server memory is a constant-size fold per (session, scope,
//! rank) plus the derived records (bounds, call spans, waits) the served
//! artifacts require — never O(raw events). Ingest applies frames under
//! the session lock, so TCP flow control is the backpressure: a fast client
//! blocks on a busy session instead of growing a queue, and no frame may
//! exceed [`server::MAX_FRAME`].

pub mod client;
pub mod http;
pub mod server;
pub mod service;

pub use client::{push_file, push_text, PushError};
pub use server::Server;
pub use service::{FleetView, Service, SessionInfo};
