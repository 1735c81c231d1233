#![warn(missing_docs)]

//! # simarmci — an instrumented ARMCI-like one-sided communication library
//!
//! Models the ARMCI (Aggregate Remote Memory Copy Interface) system the
//! paper instrumented: one-sided `Put`/`Get` operations over collectively
//! allocated global memory, in blocking and non-blocking (explicit-handle)
//! flavors, plus a barrier.
//!
//! One-sided transfers map directly onto the fabric's RDMA operations — the
//! remote host is never involved in the data path, which is why the
//! non-blocking NAS MG variant reaches ~99 % maximum overlap in the paper's
//! Figure 19 while the blocking variant (initiation and completion inside
//! one library call — bound case 1) reports none.
//!
//! Instrumentation stamps: `XFER_BEGIN` when the RDMA work request is
//! posted, `XFER_END` when a poll observes its completion; both inside one
//! call for blocking ops, split across calls for non-blocking ones.
//!
//! A small internal message layer (eager packets) carries the collective
//! traffic (`malloc` exchange, barrier, small reductions), mirroring how
//! ARMCI applications lean on a helper message layer for setup and sync.
//!
//! ## Example
//!
//! ```
//! use overlap_core::RecorderOpts;
//! use simarmci::run_armci;
//! use simnet::NetConfig;
//!
//! let out = run_armci(2, NetConfig::default(), RecorderOpts::default(), |a| {
//!     let mem = a.malloc(1024);
//!     a.barrier();
//!     if a.rank() == 0 {
//!         a.put(&mem, 1, 0, &[7u8; 64]); // one-sided write
//!     }
//!     a.barrier();
//!     if a.rank() == 1 {
//!         assert_eq!(a.local_read(&mem, 0, 64), vec![7u8; 64]);
//!     }
//! }).unwrap();
//! assert_eq!(out.transfers.len(), 1);
//! ```

pub mod armci;
pub mod harness;

pub use armci::{Armci, NbHandle};
pub use harness::{run_armci, ArmciRunOutcome};
