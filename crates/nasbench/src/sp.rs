//! NAS SP (scalar pentadiagonal) — the paper's tuning case study (Sec. 4.3)
//! — and NAS BT (block tridiagonal), which runs the same loop.
//!
//! Multipartition decomposition over a square process grid (`np = q²`).
//! Each iteration:
//!
//! 1. `copy_faces` — bulk halo exchange with the four grid neighbors, no
//!    computation to overlap (this is what caps whole-code gains in the
//!    paper's Figures 16–17),
//! 2. `x_solve`, `y_solve`, `z_solve` — `q`-stage Thomas-algorithm sweeps.
//!    At each stage SP *attempts overlap*: it posts an `Irecv` for the
//!    incoming boundary plane, computes the local LHS factorization, then
//!    waits — the "overlapping section" the paper monitors,
//! 3. `add` — local update.
//!
//! The **modified** SP (paper Sec. 4.3) sprinkles `MPI_Iprobe` calls
//! through the overlap-section computation so the polling progress engine
//! observes the rendezvous RTS early and starts the RDMA Read while
//! computation continues.
//!
//! BT's boundary planes carry 5×5 block-matrix data (≈3× SP's volume —
//! "long messages constitute the majority of communication for BT"), its
//! work is 3× SP's, and its sweeps make *no overlap attempt*: each stage
//! blocks on the incoming plane before computing (receive → compute →
//! send), the NPB BT pattern. The paper runs BT under Open MPI's pipelined
//! RDMA mode (Figure 10).

use simmpi::{Bytes, Mpi, Src, TagSel};

use crate::class::Class;
use crate::grid::square_side;
use crate::model::{flops_ns, BT_WORK_SCALE, SP_LHS_FLOPS, SP_RHS_FLOPS, SP_SOLVE_FLOPS};

/// Iterations of SP and BT (scaled down from NPB's 400 and 200; overlap
/// percentages are steady-state per-iteration quantities).
const ITERATIONS: usize = 5;

/// `MPI_Iprobe` calls the paper's modified SP inserts per overlap-section
/// compute phase.
pub(crate) const MODIFIED_IPROBES: usize = 3;

/// Name of the monitored overlap section (paper Figures 14–15).
pub const SP_OVERLAP_SECTION: &str = "solve_overlap";

/// SP grid points per side (NPB 3.x geometry).
fn sp_n(class: Class) -> usize {
    match class {
        Class::S => 12,
        Class::W => 36,
        Class::A => 64,
        Class::B => 102,
    }
}

/// BT grid points per side.
fn bt_n(class: Class) -> usize {
    match class {
        Class::S => 12,
        Class::W => 24,
        Class::A => 64,
        Class::B => 102,
    }
}

/// Run SP with `iprobes` `MPI_Iprobe` calls per overlap-section compute
/// phase (`0` is the original benchmark). `mpi.nranks()` must be a square.
pub(crate) fn run_sp(mpi: &mut Mpi, class: Class, iprobes: usize) {
    multipartition(mpi, sp_n(class), 5, 1, 1.0, Some(iprobes));
}

/// Run BT. `mpi.nranks()` must be a square.
pub(crate) fn run_bt(mpi: &mut Mpi, class: Class) {
    multipartition(mpi, bt_n(class), 25, 3, BT_WORK_SCALE, None);
}

/// The multipartition loop on an `n³` grid: boundary planes of
/// `components` f64 per point, `copy_faces` at `face_scale` times SP's
/// volume, compute at `work_scale` times SP's. Each solve stage after the
/// first is SP's overlap attempt with `Some(iprobes)`, BT's blocking
/// receive with `None`.
fn multipartition(
    mpi: &mut Mpi,
    n: usize,
    components: usize,
    face_scale: usize,
    work_scale: f64,
    overlap: Option<usize>,
) {
    let q = square_side(mpi.nranks());
    let me = mpi.rank();
    let (row, col) = (me / q, me % q);
    let cell = n.div_ceil(q); // cell points per dimension
    let cell_points = (cell * cell * cell) as f64;
    let local_points = cell_points * q as f64; // q cells per process

    // Boundary plane between successive solve stages: cell face x
    // components x f64.
    let plane_bytes = cell * cell * components * 8;
    // copy_faces volume per neighbor: every cell's 5-component face.
    let face_bytes = cell * cell * 5 * 8 * q * face_scale;

    let rhs_ns = flops_ns(local_points * SP_RHS_FLOPS * work_scale);
    let lhs_ns = flops_ns(cell_points * SP_LHS_FLOPS * work_scale);
    let solve_ns = flops_ns(cell_points * SP_SOLVE_FLOPS * work_scale);

    let right = row * q + (col + 1) % q;
    let left = row * q + (col + q - 1) % q;
    let down = ((row + 1) % q) * q + col;
    let up = ((row + q - 1) % q) * q + col;

    // Built once per run; every send below passes a clone (`&Bytes`).
    let face = Bytes::from(vec![me as u8; face_bytes]);
    let plane = Bytes::from(vec![(me as u8).wrapping_add(1); plane_bytes]);

    for iter in 0..ITERATIONS {
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
                match overlap {
                    Some(iprobes) if stage > 0 => {
                        // The overlapping section: Irecv the boundary
                        // produced by the upstream rank's previous stage,
                        // compute, Wait.
                        mpi.section_begin(SP_OVERLAP_SECTION);
                        let r = mpi.irecv(Src::Rank(prev), TagSel::Is(tag));
                        if iprobes == 0 {
                            mpi.compute(lhs_ns);
                        } else {
                            let chunk = lhs_ns / (iprobes as u64 + 1);
                            for _ in 0..iprobes {
                                mpi.compute(chunk.max(1));
                                mpi.iprobe(Src::Any, TagSel::Any);
                            }
                            mpi.compute(chunk.max(1));
                        }
                        mpi.wait(r);
                        mpi.section_end();
                    }
                    None if stage > 0 => {
                        mpi.recv(Src::Rank(prev), TagSel::Is(tag));
                        mpi.compute(lhs_ns);
                    }
                    // The first stage starts on this process's own cell.
                    _ => mpi.compute(lhs_ns),
                }
                // Forward elimination / back substitution for this cell.
                mpi.compute(solve_ns);
                if stage < q - 1 {
                    pending.push(mpi.isend(next, tag, &plane));
                }
            }
            mpi.waitall(&pending);
        }

        // -- add: local update ----------------------------------------------
        mpi.compute(flops_ns(local_points * 8.0 * work_scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_class_geometry_matches_npb() {
        assert_eq!(sp_n(Class::S), 12);
        assert_eq!(sp_n(Class::W), 36);
        assert_eq!(sp_n(Class::A), 64);
        assert_eq!(sp_n(Class::B), 102);
    }

    #[test]
    fn bt_class_geometry_matches_npb() {
        assert_eq!(bt_n(Class::A), 64);
        assert_eq!(bt_n(Class::B), 102);
    }
}
