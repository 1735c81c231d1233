//! # overlap-suite
//!
//! A full reproduction of *"A Performance Instrumentation Framework to
//! Characterize Computation-Communication Overlap in Message-Passing
//! Systems"* (Shet, Sadayappan, Bernholdt, Nieplocha, Tipparaju — IEEE
//! Cluster 2006) as a Rust workspace, running on a deterministic simulated
//! RDMA cluster.
//!
//! ## Crates
//!
//! | crate | role |
//! |---|---|
//! | [`simcore`] | discrete-event engine, virtual clock, rank scheduler, ground truth |
//! | [`simnet`] | NICs, DMA engines, RDMA Read/Write, completion queues, cost model |
//! | [`overlap_core`] | **the paper's contribution**: min/max overlap bounds from in-library events |
//! | [`simmpi`] | MPI-like library (eager + two rendezvous modes, polling progress, collectives) |
//! | [`simarmci`] | ARMCI-like one-sided library |
//! | [`nasbench`] | NAS BT/CG/LU/FT/SP/MG/EP/IS communication-faithful kernels |
//!
//! ## Quickstart
//!
//! ```
//! use overlap_suite::prelude::*;
//!
//! let out = run_mpi(
//!     2,
//!     NetConfig::default(),
//!     MpiConfig::open_mpi_leave_pinned(),
//!     RecorderOpts::default(),
//!     |mpi| {
//!         let msg = vec![7u8; 1 << 20];
//!         for i in 0..5 {
//!             if mpi.rank() == 0 {
//!                 let r = mpi.isend(1, i, &msg);
//!                 mpi.compute(2_000_000); // 2 ms of virtual computation
//!                 mpi.wait(r);
//!             } else {
//!                 mpi.recv(Src::Rank(0), TagSel::Is(i));
//!             }
//!         }
//!     },
//! )
//! .unwrap();
//! // The sender overlapped nearly the whole transfer with its computation:
//! assert!(out.reports[0].total.min_pct() > 80.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! paper-figure reproduction harness (`cargo run -p bench --bin repro`).

pub use nasbench;
pub use overlap_core;
pub use simarmci;
pub use simcore;
pub use simmpi;
pub use simnet;

/// Common imports for applications.
pub mod prelude {
    pub use nasbench::Class;
    pub use overlap_core::{OverlapReport, RecorderOpts, XferTimeTable};
    pub use simarmci::{run_armci, Armci};
    pub use simcore::{ms, ns, us};
    pub use simmpi::{
        default_xfer_table, run_mpi, Mpi, MpiConfig, ReduceOp, RndvMode, RunOutcome, Src, TagSel,
    };
    pub use simnet::NetConfig;
}
