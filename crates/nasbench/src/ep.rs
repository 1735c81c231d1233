//! NAS EP (embarrassingly parallel).
//!
//! Pure computation — Gaussian-pair generation — followed by a handful of
//! tiny reductions. The paper excludes EP from its overlap discussion
//! because it "performs minimal communication"; it is included here for
//! suite completeness and as a negative control (its reports should show
//! almost no data transfer time).

use simmpi::{Mpi, ReduceOp};

use crate::class::Class;
use crate::model::{flops_ns, EP_PAIR_FLOPS};

/// Scale divisor on the pair count (the full 2^28 would be minutes of
/// virtual time to no benefit).
const SCALE: u64 = 64;

/// log2 of the pair count (NPB 3.x).
pub(crate) fn m(class: Class) -> u32 {
    match class {
        Class::S => 24,
        Class::W => 25,
        Class::A => 28,
        Class::B => 30,
    }
}

/// Run EP on the given MPI endpoint.
pub(crate) fn run_ep(mpi: &mut Mpi, class: Class) {
    let pairs = (1u64 << m(class)) / (SCALE * mpi.nranks() as u64);
    // Generate pairs in chunks (NPB batches by 2^16).
    let chunks = 16u64;
    for _ in 0..chunks {
        mpi.compute(flops_ns((pairs / chunks) as f64 * EP_PAIR_FLOPS));
    }
    // Gaussian-deviate counts per annulus plus the sums.
    let counts: Vec<f64> = (0..10).map(|i| i as f64).collect();
    let total = mpi.allreduce(&counts, ReduceOp::Sum);
    assert_eq!(total.len(), 10);
    mpi.allreduce(&[1.0, 2.0], ReduceOp::Sum);
}
