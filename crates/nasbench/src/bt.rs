//! NAS BT (block tridiagonal).
//!
//! Same multipartition structure as SP, but each boundary plane carries 5×5
//! block-matrix data (≈3× SP's volume — "long messages constitute the
//! majority of communication for BT") and the sweeps make *no overlap
//! attempt*: each stage blocks on the incoming plane before computing
//! (receive → compute → send), the NPB BT pattern. The paper runs BT under
//! Open MPI's pipelined RDMA mode (Figure 10).

use simmpi::{Bytes, Mpi, Src, TagSel};

use crate::class::Class;
use crate::grid::square_side;
use crate::model::{flops_ns, BT_WORK_SCALE, SP_LHS_FLOPS, SP_RHS_FLOPS, SP_SOLVE_FLOPS};

/// BT workload parameters.
#[derive(Debug, Clone)]
pub struct BtParams {
    /// Problem class (grid is `n³`).
    pub class: Class,
    /// Iterations (scaled from NPB's 200).
    pub iterations: usize,
}

impl BtParams {
    /// BT at the given class with scaled iterations.
    pub fn new(class: Class) -> Self {
        BtParams {
            class,
            iterations: 5,
        }
    }

    /// Grid points per side.
    pub fn n(&self) -> usize {
        match self.class {
            Class::S => 12,
            Class::W => 24,
            Class::A => 64,
            Class::B => 102,
        }
    }
}

/// Run BT on the given MPI endpoint. `mpi.nranks()` must be a square.
pub fn run_bt(mpi: &mut Mpi, p: &BtParams) {
    let n = p.n();
    let q = square_side(mpi.nranks());
    let me = mpi.rank();
    let (row, col) = (me / q, me % q);
    let cell = n.div_ceil(q);
    let cell_points = (cell * cell * cell) as f64;
    let local_points = cell_points * q as f64;

    // 5x5 blocks on the boundary: 25 f64 per point (≈3x SP's 5 f64).
    let plane_bytes = cell * cell * 25 * 8;
    let face_bytes = cell * cell * 5 * 8 * q * 3; // copy_faces: 3x SP volume

    let rhs_ns = flops_ns(local_points * SP_RHS_FLOPS * BT_WORK_SCALE);
    let lhs_ns = flops_ns(cell_points * SP_LHS_FLOPS * BT_WORK_SCALE);
    let solve_ns = flops_ns(cell_points * SP_SOLVE_FLOPS * BT_WORK_SCALE);

    let right = row * q + (col + 1) % q;
    let left = row * q + (col + q - 1) % q;
    let down = ((row + 1) % q) * q + col;
    let up = ((row + q - 1) % q) * q + col;

    let face = Bytes::from(vec![me as u8; face_bytes]);
    let plane = Bytes::from(vec![(me as u8).wrapping_add(1); plane_bytes]);

    for iter in 0..p.iterations {
        let tag_base = (iter as u64) << 32;

        // copy_faces (same structure as SP, larger volume).
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
        mpi.compute(rhs_ns);

        // Three sweeps, no overlap attempt: blocking receive, then compute.
        for (dir, (next, prev)) in [(right, left), (down, up), (right, left)]
            .into_iter()
            .enumerate()
        {
            let tag = tag_base + 10 + dir as u64;
            // Send completions are deferred to the end of the sweep (the
            // downstream receive is posted one stage later).
            let mut pending = Vec::new();
            for stage in 0..q {
                if q > 1 && stage > 0 {
                    mpi.recv(Src::Rank(prev), TagSel::Is(tag));
                }
                mpi.compute(lhs_ns);
                mpi.compute(solve_ns);
                if q > 1 && stage < q - 1 {
                    pending.push(mpi.isend(next, tag, &plane));
                }
            }
            mpi.waitall(&pending);
        }

        mpi.compute(flops_ns(local_points * 8.0 * BT_WORK_SCALE));
    }
}
