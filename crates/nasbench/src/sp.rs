//! NAS SP (scalar pentadiagonal) — the paper's tuning case study (Sec. 4.3).
//!
//! Multipartition decomposition over a square process grid (`np = q²`).
//! Each iteration:
//!
//! 1. `copy_faces` — bulk halo exchange with the four grid neighbors, no
//!    computation to overlap (this is what caps whole-code gains in the
//!    paper's Figures 16–17),
//! 2. `x_solve`, `y_solve`, `z_solve` — `q`-stage Thomas-algorithm sweeps.
//!    At each stage the code *attempts overlap*: it posts an `Irecv` for the
//!    incoming boundary plane, computes the local LHS factorization, then
//!    waits — the "overlapping section" the paper monitors,
//! 3. `add` — local update.
//!
//! The **modified** variant (paper Sec. 4.3) sprinkles `MPI_Iprobe` calls
//! through the overlap-section computation so the polling progress engine
//! observes the rendezvous RTS early and starts the RDMA Read while
//! computation continues.

use simmpi::{Bytes, Mpi, Src, TagSel};

use crate::class::Class;
use crate::grid::square_side;
use crate::model::{flops_ns, SP_LHS_FLOPS, SP_RHS_FLOPS, SP_SOLVE_FLOPS};

/// SP workload parameters.
#[derive(Debug, Clone)]
pub struct SpParams {
    /// Problem class (grid is `n³`).
    pub class: Class,
    /// Iterations (scaled down from NPB's 400; overlap percentages are
    /// steady-state per-iteration quantities).
    pub iterations: usize,
    /// Number of `MPI_Iprobe` calls inserted per overlap-section compute
    /// phase; `0` is the original benchmark.
    pub iprobes: usize,
}

impl SpParams {
    /// Original SP at the given class.
    pub fn original(class: Class) -> Self {
        SpParams {
            class,
            iterations: 5,
            iprobes: 0,
        }
    }

    /// The paper's modified SP: probes inserted in the overlap sections.
    pub fn modified(class: Class) -> Self {
        SpParams {
            iprobes: 3,
            ..SpParams::original(class)
        }
    }

    /// Grid points per side for the class (NPB 3.x geometry).
    pub fn n(&self) -> usize {
        match self.class {
            Class::S => 12,
            Class::W => 36,
            Class::A => 64,
            Class::B => 102,
        }
    }
}

/// Name of the monitored overlap section (paper Figures 14–15).
pub const SP_OVERLAP_SECTION: &str = "solve_overlap";

/// Run SP on the given MPI endpoint. `mpi.nranks()` must be a square.
pub fn run_sp(mpi: &mut Mpi, p: &SpParams) {
    let n = p.n();
    let q = square_side(mpi.nranks());
    let me = mpi.rank();
    let (row, col) = (me / q, me % q);
    let cell = n.div_ceil(q); // cell points per dimension
    let cell_points = (cell * cell * cell) as f64;
    let local_points = cell_points * q as f64; // q cells per process

    // Boundary plane between successive solve stages: cell face x 5 solution
    // components x f64.
    let plane_bytes = cell * cell * 5 * 8;
    // copy_faces volume per neighbor: every cell's face.
    let face_bytes = plane_bytes * q;

    let rhs_ns = flops_ns(local_points * SP_RHS_FLOPS);
    let lhs_ns = flops_ns(cell_points * SP_LHS_FLOPS);
    let solve_ns = flops_ns(cell_points * SP_SOLVE_FLOPS);

    let right = row * q + (col + 1) % q;
    let left = row * q + (col + q - 1) % q;
    let down = ((row + 1) % q) * q + col;
    let up = ((row + q - 1) % q) * q + col;

    // Built once per run; every send below passes a clone (`&Bytes`).
    let face = Bytes::from(vec![me as u8; face_bytes]);
    let plane = Bytes::from(vec![(me as u8).wrapping_add(1); plane_bytes]);

    for iter in 0..p.iterations {
        let tag_base = (iter as u64) << 32;

        // -- copy_faces: all four directions, no overlap attempted ---------
        if q > 1 {
            let reqs = [
                mpi.irecv(Src::Rank(left), TagSel::Is(tag_base + 1)),
                mpi.irecv(Src::Rank(right), TagSel::Is(tag_base + 2)),
                mpi.irecv(Src::Rank(up), TagSel::Is(tag_base + 3)),
                mpi.irecv(Src::Rank(down), TagSel::Is(tag_base + 4)),
            ];
            let s1 = mpi.isend(right, tag_base + 1, &face);
            let s2 = mpi.isend(left, tag_base + 2, &face);
            let s3 = mpi.isend(down, tag_base + 3, &face);
            let s4 = mpi.isend(up, tag_base + 4, &face);
            mpi.waitall(&reqs);
            mpi.waitall(&[s1, s2, s3, s4]);
        }
        // compute_rhs
        mpi.compute(rhs_ns);

        // -- the three solve sweeps ----------------------------------------
        for (dir, (next, prev)) in [(right, left), (down, up), (right, left)]
            .into_iter()
            .enumerate()
        {
            let tag = tag_base + 10 + dir as u64;
            // Boundary sends complete at the end of the sweep (waiting
            // inline would deadlock: the downstream rank posts its receive
            // only at its next stage).
            let mut pending = Vec::new();
            for stage in 0..q {
                if q > 1 && stage > 0 {
                    // The overlapping section: Irecv the boundary produced by
                    // the upstream rank's previous stage, compute, Wait.
                    mpi.section_begin(SP_OVERLAP_SECTION);
                    let r = mpi.irecv(Src::Rank(prev), TagSel::Is(tag));
                    if p.iprobes == 0 {
                        mpi.compute(lhs_ns);
                    } else {
                        let chunk = lhs_ns / (p.iprobes as u64 + 1);
                        for _ in 0..p.iprobes {
                            mpi.compute(chunk.max(1));
                            mpi.iprobe(Src::Any, TagSel::Any);
                        }
                        mpi.compute(chunk.max(1));
                    }
                    mpi.wait(r);
                    mpi.section_end();
                } else {
                    // First stage starts on this process's own cell.
                    mpi.compute(lhs_ns);
                }
                // Forward elimination / back substitution for this cell.
                mpi.compute(solve_ns);
                if q > 1 && stage < q - 1 {
                    pending.push(mpi.isend(next, tag, &plane));
                }
            }
            mpi.waitall(&pending);
        }

        // -- add: local update ----------------------------------------------
        mpi.compute(flops_ns(local_points * 8.0));
    }
}
