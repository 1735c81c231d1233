//! NAS IS (integer sort).
//!
//! Bucket sort of integer keys: per iteration, local ranking, an alltoall of
//! bucket counts (tiny blocks), an alltoall(v) of the keys themselves
//! (medium blocks), and a verification reduction. The paper omits IS from
//! its figures because "it exhibits similar overlap behavior to FT" — long
//! blocking collective transfers with no computation to hide them — which
//! this kernel reproduces.

use simmpi::{Bytes, Mpi, ReduceOp};

use crate::class::Class;
use crate::model::{flops_ns, IS_KEY_FLOPS};

/// Iterations (NPB uses 10; scaled).
const ITERATIONS: usize = 3;

/// log2 of the key count (NPB 3.x).
fn m(class: Class) -> u32 {
    match class {
        Class::S => 16,
        Class::W => 20,
        Class::A => 23,
        Class::B => 25,
    }
}

/// Run IS on the given MPI endpoint.
pub(crate) fn run_is(mpi: &mut Mpi, class: Class) {
    let np = mpi.nranks();
    let me = mpi.rank();
    let total_keys = 1u64 << m(class);
    let local_keys = total_keys / np as u64;
    let rank_ns = flops_ns(local_keys as f64 * IS_KEY_FLOPS);
    // Key redistribution block: local keys split over all ranks, 4 B keys,
    // divided by a payload scale (memory safety; compute model unscaled).
    let vol_scale = if class == Class::B { 8 } else { 2 };
    let key_block = ((local_keys as usize / np) * 4) / vol_scale;
    // Both exchanges' blocks, built once per run and sent by reference.
    let size_blocks = vec![Bytes::from(vec![0u8; np * 4]); np];
    let key_blocks: Vec<Bytes> = (0..np)
        .map(|d| Bytes::from(vec![(me + d) as u8; key_block]))
        .collect();

    for _ in 0..ITERATIONS {
        // Local key counting/ranking.
        mpi.compute(rank_ns);
        // Bucket-size exchange: one tiny block per rank.
        let _sizes = mpi.alltoall(&size_blocks);
        // Key exchange: medium blocks.
        let got = mpi.alltoall(&key_blocks);
        for (src, b) in got.iter().enumerate() {
            assert!(crate::filled_with(b, (src + me) as u8));
        }
        // Local re-ranking of received keys.
        mpi.compute(rank_ns / 2);
        // Partial verification.
        mpi.allreduce(&[me as f64], ReduceOp::Sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_and_is_key_counts() {
        assert_eq!(crate::ep::m(Class::A), 28);
        assert_eq!(m(Class::A), 23);
        assert_eq!(m(Class::B), 25);
    }
}
