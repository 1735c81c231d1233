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
//! insensitive to the count); the `*Params::iterations` fields hold the
//! scaled defaults and can be raised.
//!
//! The SP kernel has the paper's two variants: the **original** (Irecv +
//! monolithic compute + Wait in the solve sweeps) and the **modified** one
//! with `MPI_Iprobe` calls sprinkled through the overlap-section computation
//! (Sec. 4.3). MG has three variants: MPI, ARMCI blocking, and ARMCI
//! non-blocking (Sec. 4.4).

pub mod bt;
pub mod cg;
pub mod class;
pub mod ep;
pub mod ft;
pub mod grid;
pub mod is;
pub mod lu;
pub mod mg;
pub mod model;
pub mod runner;
pub mod sp;

pub use class::Class;
pub use runner::{NasSummary, SectionSummary};

/// True when every byte of a received block is `v`. No early exit, so the
/// loop vectorises: this check is most of what FT and IS cost the host.
fn filled_with(block: &[u8], v: u8) -> bool {
    block.iter().fold(0u8, |diff, &x| diff | (x ^ v)) == 0
}
