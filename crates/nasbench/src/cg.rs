//! NAS CG (conjugate gradient).
//!
//! 2-D decomposition of the sparse matrix over `rows × cols` processes
//! (power-of-two counts). Each inner CG step does a sparse matvec followed
//! by a row-wise sum reduction (a log-tree of tiny messages) and a transpose
//! exchange of the partial vector with the symmetric partner (a longer
//! message). CG therefore sends "a larger proportion of short messages"
//! than BT (paper Sec. 4.1), which is why its overlap numbers come out
//! higher under the same Open MPI pipelined configuration (Figure 11).

use simmpi::{Bytes, Mpi, Src, TagSel};

use crate::class::Class;
use crate::grid::grid2;
use crate::model::{flops_ns, CG_MATVEC_FLOPS, CG_VECTOR_FLOPS};

/// CG workload parameters.
#[derive(Debug, Clone)]
pub struct CgParams {
    /// Problem class.
    pub class: Class,
    /// Outer iterations (scaled from NPB's 15/75).
    pub iterations: usize,
    /// Inner CG iterations per outer step (NPB uses 25).
    pub inner: usize,
}

impl CgParams {
    /// CG at the given class with scaled iterations.
    pub fn new(class: Class) -> Self {
        CgParams {
            class,
            iterations: 2,
            inner: 10,
        }
    }

    /// Matrix dimension `na` (NPB 3.x).
    pub fn na(&self) -> usize {
        match self.class {
            Class::S => 1400,
            Class::W => 7000,
            Class::A => 14000,
            Class::B => 75000,
        }
    }

    /// Nonzeros per row (NPB `nonzer`+1 band estimate).
    pub fn nonzer(&self) -> usize {
        match self.class {
            Class::S => 7,
            Class::W => 8,
            Class::A => 11,
            Class::B => 13,
        }
    }
}

/// Run CG on the given MPI endpoint. `mpi.nranks()` must be a power of two.
pub fn run_cg(mpi: &mut Mpi, p: &CgParams) {
    let np = mpi.nranks();
    let (nrows, ncols) = grid2(np);
    let me = mpi.rank();
    let (my_row, my_col) = (me / ncols, me % ncols);
    let na = p.na();

    // Local vector slice and nonzero share.
    let vec_elems = na / ncols; // elements exchanged in the transpose step
    let nnz_local = (na * p.nonzer() * (p.nonzer() + 1)) / np;
    let matvec_ns = flops_ns(nnz_local as f64 * CG_MATVEC_FLOPS);
    let vector_ns = flops_ns((na / nrows) as f64 * CG_VECTOR_FLOPS);

    // Transpose partner: the mirrored process for square grids; for 2:1
    // grids NPB pairs the two column halves — approximated with an offset.
    let partner = if nrows == ncols {
        my_col * ncols + my_row
    } else {
        (me + np / 2) % np
    };
    let exch_bytes = vec_elems * 8;
    let exch = Bytes::from(vec![me as u8; exch_bytes]);
    // The halving rounds send ever shorter prefixes of this one buffer.
    let halving = Bytes::from(vec![3u8; exch_bytes.max(8)]);

    for outer in 0..p.iterations {
        for inner in 0..p.inner {
            let tag = ((outer * p.inner + inner) as u64) << 8;
            // Sparse matvec on the local block.
            mpi.compute(matvec_ns);
            // Row-wise sum reduction of the result vector: recursive
            // halving — each round exchanges half the remaining segment
            // (NPB CG's `sum reduction on w`), so sizes ladder down from
            // vector-scale to short.
            let mut dist = 1;
            let mut seg = vec_elems * 8;
            while dist < ncols {
                let peer = my_row * ncols + (my_col ^ dist);
                let chunk = halving.slice(..seg.max(8));
                mpi.sendrecv(
                    peer,
                    tag + dist as u64,
                    &chunk,
                    Src::Rank(peer),
                    TagSel::Is(tag + dist as u64),
                );
                mpi.compute(flops_ns((seg / 8) as f64));
                seg /= 2;
                dist <<= 1;
            }
            // Transpose exchange of the partial result vector (diagonal
            // processes copy locally, as in NPB).
            if partner != me {
                let r = mpi.irecv(Src::Rank(partner), TagSel::Is(tag + 100));
                mpi.send(partner, tag + 100, &exch);
                mpi.wait(r);
            } else {
                mpi.compute(flops_ns(vec_elems as f64));
            }
            // Vector updates (axpy, dot products).
            mpi.compute(vector_ns);
            // Global dot product: another row reduction.
            let mut dist = 1;
            while dist < ncols {
                let peer_col = my_col ^ dist;
                if peer_col < ncols {
                    let peer = my_row * ncols + peer_col;
                    mpi.sendrecv(
                        peer,
                        tag + 200 + dist as u64,
                        &[2u8; 8],
                        Src::Rank(peer),
                        TagSel::Is(tag + 200 + dist as u64),
                    );
                }
                dist <<= 1;
            }
        }
        // Residual norm across all ranks.
        mpi.allreduce(&[outer as f64], simmpi::ReduceOp::Sum);
    }
}
