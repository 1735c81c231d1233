#![warn(missing_docs)]

//! # nasbench — NAS-Parallel-Benchmark-style kernels for the overlap suite
//!
//! Communication-faithful implementations of the NPB 3.2 benchmarks the
//! paper characterizes (Sec. 4): **BT, CG, LU, FT, SP, MG** plus **EP** and
//! **IS**. Each kernel reproduces its benchmark's *communication structure*
//! — message sizes derived from the class geometry and process-grid
//! decomposition, the same call patterns (blocking vs non-blocking, staged
//! sweeps, collectives), real payload bytes that are checksum-verified — and
//! models its *computation* analytically (flop counts at a calibrated
//! sustained rate) as virtual compute time.
//!
//! This substitution (documented in `DESIGN.md`) preserves what the paper's
//! overlap measurements respond to: the message-size distribution, the
//! comm/compute interleaving, and whether the library's progress engine gets
//! invoked during computation.
//!
//! Iteration counts are scaled down from the NPB defaults (virtual-time
//! results are per-iteration steady state, so overlap percentages are
//! insensitive to the count); each kernel module states its count.
//!
//! SP has the paper's two variants: the **original** (Irecv + monolithic
//! compute + Wait in the solve sweeps) and the **modified** one with
//! `MPI_Iprobe` calls sprinkled through the overlap-section computation
//! (Sec. 4.3). BT is SP's multipartition sweep with BT's block sizes and
//! without the overlap attempt: each stage receives, then computes. MG runs
//! over MPI and in two ARMCI variants, blocking and non-blocking
//! (Sec. 4.4).

mod cg;
mod class;
mod ep;
mod ft;
mod grid;
mod is;
mod lu;
mod mg;
mod model;
pub mod runner;
pub mod sp;

pub use class::Class;

/// True when every byte of a received block is `v`. No early exit, so the
/// loop vectorises: this check is most of what FT and IS cost the host.
fn filled_with(block: &[u8], v: u8) -> bool {
    block.iter().fold(0u8, |diff, &x| diff | (x ^ v)) == 0
}
