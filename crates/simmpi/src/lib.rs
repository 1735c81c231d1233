#![warn(missing_docs)]

//! # simmpi — an instrumented MPI-like message-passing library
//!
//! A two-sided message-passing library over the `simnet` fabric, modeled on
//! the point-to-point designs of Open MPI 1.0.x and MVAPICH2 0.6.x that the
//! paper instrumented:
//!
//! * **eager protocol** for short messages — sender copies into a bounce
//!   buffer and fires a single send; the receiver's host discovers the
//!   message at its next poll,
//! * **rendezvous, pipelined RDMA-Write mode** (Open MPI default) — an RTS
//!   carrying the first fragment, a CTS from the receiver, then the sender
//!   pipelines the remaining fragments as RDMA Writes and the last fragment
//!   carries the FIN,
//! * **rendezvous, direct RDMA-Read mode** (Open MPI `mpi_leave_pinned`,
//!   MVAPICH2 zero-copy) — an RTS advertising the pinned send buffer; the
//!   receiver reads it directly and the completion notifies the sender.
//!
//! The **progress engine is polling-based**: protocol state only advances
//! when the application is inside a library call, while posted NIC operations
//! proceed in background virtual time. This single property produces the
//! paper's characteristic microbenchmark shapes (zero overlap for late
//! receivers under direct RDMA, first-fragment-only overlap for the
//! pipelined scheme, and the `MPI_Iprobe` tuning opportunity exploited for
//! NAS SP).
//!
//! The API is what the figure harnesses, the NAS kernels, the examples and
//! the benchmark call and no more (`DESIGN.md` §4b): `isend` / `irecv` /
//! `send` / `recv` / `wait` / `waitall` / `iprobe` / `sendrecv`, the
//! collectives `barrier` / `bcast` / `reduce` / `allreduce` / `alltoall`
//! over all ranks, and the non-blocking `ialltoall` / `iallreduce`.
//!
//! Every entry point is instrumented with the `overlap-core` recorder —
//! the library-internal placement of `XFER_BEGIN` / `XFER_END` stamps follows
//! the table in `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! use overlap_core::RecorderOpts;
//! use simmpi::{run_mpi, MpiConfig, Src, TagSel};
//! use simnet::NetConfig;
//!
//! let out = run_mpi(2, NetConfig::default(), MpiConfig::default(),
//!                   RecorderOpts::default(), |mpi| {
//!     if mpi.rank() == 0 {
//!         mpi.send(1, 42, b"hello");
//!     } else {
//!         let st = mpi.recv(Src::Rank(0), TagSel::Is(42));
//!         assert_eq!(&st.data.unwrap()[..], b"hello");
//!     }
//! }).unwrap();
//! assert_eq!(out.reports.len(), 2);
//! assert_eq!(out.transfers.len(), 1); // one 5-byte eager transfer
//! ```

pub mod collectives;
pub mod config;
pub mod harness;
pub mod icoll;
pub mod mpi;
pub mod proto;
pub mod reliability;
pub mod types;

/// The payload type, re-exported for callers without a `bytes` dependency.
pub use bytes::Bytes;
pub use config::{MpiConfig, ProgressModel, RndvMode};
pub use harness::{default_xfer_table, run_mpi, run_mpi_with, MpiRunOutcome};
pub use mpi::Mpi;
pub use types::{
    bytes_to_f64s, f64s_to_bytes, IntoPayload, ReduceOp, Request, Src, Status, TagSel,
};
