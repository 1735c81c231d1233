#![warn(missing_docs)]

//! # overlap-core — the CLUSTER'06 overlap instrumentation framework
//!
//! This crate is the paper's primary contribution: a performance
//! instrumentation framework that lives *inside* a communication library and
//! characterizes the degree of computation-communication overlap achieved by
//! a message-passing application — without any NIC-level time-stamp support.
//!
//! ## The measurement problem
//!
//! Data transfers on user-level networks are initiated and carried out by the
//! NIC; the host only knows when it *posted* an operation and when a *poll*
//! observed its completion. Precise overlap is therefore unknowable from the
//! host. The framework instead computes **bounds**: for every transfer it
//! derives a minimum and maximum overlapped transfer time from four in-library
//! events (`CALL_ENTER`, `CALL_EXIT`, `XFER_BEGIN`, `XFER_END`) plus an
//! a-priori transfer-time table measured once by a microbenchmark.
//!
//! ## Structure (paper Figure 2)
//!
//! * [`Recorder`] — the per-process facade a communication library
//!   calls into; owns a bounded circular **event queue** (the *data
//!   collection module*),
//! * [`processor::Processor`] — the *data processing module*: folds events
//!   into running overlap aggregates whenever the queue fills (no tracing,
//!   no growing buffers),
//! * [`XferTimeTable`] — the disk-resident a-priori transfer
//!   times loaded at init,
//! * [`OverlapReport`] — the per-process output file contents:
//!   totals, message-size-bin breakdowns, and user-controlled monitored
//!   sections.
//!
//! The framework is *library-agnostic*: it only needs a monotonic per-process
//! [`Clock`]. In this repository it instruments the simulated MPI
//! (`simmpi`) and ARMCI (`simarmci`) libraries, exactly as the paper
//! instrumented Open MPI, MVAPICH2 and ARMCI.
//!
//! ## Observability extensions (beyond the paper)
//!
//! * [`metrics::MetricsRegistry`] — per-process named counters and
//!   fixed-bucket histograms (call latency, transfer times, per-size-bin
//!   overlap bounds), populated at fold time and carried in every
//!   [`OverlapReport`],
//! * [`trace`] — optional time-resolved capture
//!   ([`RecorderOpts::trace`]): the raw event stream plus one
//!   [`trace::BoundRecord`] per transfer, exportable as Chrome-trace JSON
//!   ([`trace::chrome_json`], loadable in Perfetto), JSON lines
//!   ([`trace::jsonl`]), and windowed time-resolved series
//!   ([`trace::windowed`]),
//! * [`attribution`] — wait-state attribution: folds library-classified
//!   blocking intervals ([`attribution::WaitInterval`]) into per-transfer
//!   cause breakdowns that reconcile exactly with the overlap bounds, plus
//!   flamegraph-collapsed critical-path export,
//! * [`stream`] — streaming ingest: folds an exported JSONL event stream
//!   back into batch-identical aggregates line by line, holding no raw
//!   event ([`stream::SessionFold`]: a fixed-size fold per rank plus the
//!   derived per-transfer records the artifacts need); the substrate of
//!   the `overlapd` analysis service,
//! * [`artifact`] — the serialized artifact shapes and their builders over
//!   one borrowed input ([`artifact::ScopeView`]), shared by the batch CLI
//!   and `overlapd` so both emit byte-identical files.
//!
//! See `docs/ARCHITECTURE.md` for how these layers fit together and
//! `docs/BOUNDS.md` for the bound algorithm itself.
//!
//! ## Example
//!
//! ```
//! use overlap_core::{ManualClock, Recorder, RecorderOpts, XferTimeTable};
//!
//! let clock = ManualClock::new();
//! let table = XferTimeTable::from_points(vec![(1, 400)]); // 400 ns transfers
//! let mut rec = Recorder::new(0, Box::new(clock.clone()), table, RecorderOpts::default());
//!
//! rec.call_enter("MPI_Isend");
//! rec.xfer_begin(1, 1024);     // library posts the transfer
//! clock.advance(10);
//! rec.call_exit();
//! clock.advance(1_000);        // user computation — the overlap window
//! rec.call_enter("MPI_Wait");
//! rec.xfer_end(1, 1024);       // poll observes completion
//! clock.advance(10);
//! rec.call_exit();
//!
//! let report = rec.finish_traced().0;
//! assert_eq!(report.total.max_overlap, 400);       // fully coverable
//! assert_eq!(report.total.min_overlap, 400 - 10);  // all but in-library time
//! ```

pub mod advice;
pub mod artifact;
pub mod attribution;
mod bins;
pub mod bounds;
mod clock;
mod event;
mod fold;
pub mod invariant;
pub mod metrics;
pub mod processor;
mod queue;
mod recorder;
mod report;
pub mod stream;
pub mod trace;
mod xfer_table;

pub use advice::{analyze, Finding};
pub use attribution::{attribute, WaitCause, WaitInterval};
pub use bins::SizeBins;
pub use bounds::XferCase;
pub use clock::{Clock, ManualClock};
pub use event::{Event, EventKind};
pub use invariant::{check_reports, Violation};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{Recorder, RecorderOpts};
pub use report::{
    Anomalies, CallStats, ClusterSummary, OverlapReport, OverlapStats, SectionReport,
};
pub use stream::{ScopeSeries, SessionFold};
pub use trace::{BoundRecord, ExtraEvent, RankTrace, TraceBundle};
pub use xfer_table::XferTimeTable;
