//! NAS LU (SSOR solver).
//!
//! 2-D pencil decomposition of the `n³` grid; the SSOR sweeps are
//! *wavefronts*: for every k-plane, receive thin boundary pencils from the
//! north and west neighbors, compute the plane, send south and east. That
//! yields **many small messages** (a few KB each, `2·nz` per sweep per
//! rank) — "a substantial portion of the payload comprises short messages"
//! — which is why LU posts the highest overlap numbers of the NAS suite
//! under MVAPICH2 (paper Figure 12): eager sends are buffered and complete
//! under later computation, and short transfers are cheap to hide.

use simmpi::{Bytes, Mpi, Src, TagSel};

use crate::class::Class;
use crate::grid::grid2;
use crate::model::{flops_ns, LU_PLANE_FLOPS, LU_RHS_FLOPS};

/// LU workload parameters.
#[derive(Debug, Clone)]
pub struct LuParams {
    /// Problem class (grid is `n³`).
    pub class: Class,
    /// SSOR iterations (scaled from NPB's 250).
    pub iterations: usize,
}

impl LuParams {
    /// LU at the given class with scaled iterations.
    pub fn new(class: Class) -> Self {
        LuParams {
            class,
            iterations: 2,
        }
    }

    /// Grid points per side.
    pub fn n(&self) -> usize {
        match self.class {
            Class::S => 12,
            Class::W => 33,
            Class::A => 64,
            Class::B => 102,
        }
    }
}

/// Run LU on the given MPI endpoint. `mpi.nranks()` must be a power of two.
pub fn run_lu(mpi: &mut Mpi, p: &LuParams) {
    let n = p.n();
    let np = mpi.nranks();
    let (py, px) = grid2(np);
    let me = mpi.rank();
    let (my_y, my_x) = (me / px, me % px);
    let nx = n.div_ceil(px);
    let ny = n.div_ceil(py);
    let nz = n;

    let plane_ns = flops_ns((nx * ny) as f64 * LU_PLANE_FLOPS);
    // Pencil exchanged per k-plane: one row/column of 5 components.
    let x_pencil = Bytes::from(vec![1u8; ny * 5 * 8]);
    let y_pencil = Bytes::from(vec![2u8; nx * 5 * 8]);
    // Full faces for the rhs halo exchange (exchange_3).
    let face_x = Bytes::from(vec![3u8; ny * nz * 5 * 8]);
    let face_y = Bytes::from(vec![4u8; nx * nz * 5 * 8]);

    let north = (my_y > 0).then(|| (my_y - 1) * px + my_x);
    let south = (my_y + 1 < py).then(|| (my_y + 1) * px + my_x);
    let west = (my_x > 0).then(|| my_y * px + my_x - 1);
    let east = (my_x + 1 < px).then(|| my_y * px + my_x + 1);

    for iter in 0..p.iterations {
        let tag_base = (iter as u64) << 32;

        // rhs evaluation with full-face halo exchanges (exchange_3): larger
        // messages, once per iteration.
        for (nbr_recv, nbr_send, buf, t) in [
            (west, east, &face_x, 1u64),
            (east, west, &face_x, 2),
            (north, south, &face_y, 3),
            (south, north, &face_y, 4),
        ] {
            let r = nbr_recv.map(|src| mpi.irecv(Src::Rank(src), TagSel::Is(tag_base + t)));
            if let Some(dst) = nbr_send {
                mpi.send(dst, tag_base + t, buf);
            }
            if let Some(r) = r {
                mpi.wait(r);
            }
        }
        mpi.compute(flops_ns((nx * ny * nz) as f64 * LU_RHS_FLOPS));

        // Lower-triangular sweep (blts): wavefront from (0,0).
        for k in 0..nz {
            let tag = tag_base + 100 + k as u64;
            if let Some(src) = north {
                mpi.recv(Src::Rank(src), TagSel::Is(tag));
            }
            if let Some(src) = west {
                mpi.recv(Src::Rank(src), TagSel::Is(tag + 1000));
            }
            mpi.compute(plane_ns);
            if let Some(dst) = south {
                mpi.send(dst, tag, &y_pencil);
            }
            if let Some(dst) = east {
                mpi.send(dst, tag + 1000, &x_pencil);
            }
        }

        // Upper-triangular sweep (buts): wavefront from the opposite corner.
        for k in 0..nz {
            let tag = tag_base + 200_000 + k as u64;
            if let Some(src) = south {
                mpi.recv(Src::Rank(src), TagSel::Is(tag));
            }
            if let Some(src) = east {
                mpi.recv(Src::Rank(src), TagSel::Is(tag + 1000));
            }
            mpi.compute(plane_ns);
            if let Some(dst) = north {
                mpi.send(dst, tag, &y_pencil);
            }
            if let Some(dst) = west {
                mpi.send(dst, tag + 1000, &x_pencil);
            }
        }

        // Residual norms.
        mpi.allreduce(&[1.0, 2.0, 3.0, 4.0, 5.0], simmpi::ReduceOp::Sum);
    }
}
