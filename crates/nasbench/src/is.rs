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

/// IS workload parameters.
#[derive(Debug, Clone)]
pub struct IsParams {
    /// Problem class (2^m keys).
    pub class: Class,
    /// Iterations (NPB uses 10; scaled).
    pub iterations: usize,
    /// Payload scale divisor (memory safety; compute model unscaled).
    pub vol_scale: usize,
}

impl IsParams {
    /// IS at the given class.
    pub fn new(class: Class) -> Self {
        IsParams {
            class,
            iterations: 3,
            vol_scale: if class == Class::B { 8 } else { 2 },
        }
    }

    /// log2 of the key count (NPB 3.x).
    pub fn m(&self) -> u32 {
        match self.class {
            Class::S => 16,
            Class::W => 20,
            Class::A => 23,
            Class::B => 25,
        }
    }
}

/// Run IS on the given MPI endpoint.
pub fn run_is(mpi: &mut Mpi, p: &IsParams) {
    let np = mpi.nranks();
    let me = mpi.rank();
    let total_keys = 1u64 << p.m();
    let local_keys = total_keys / np as u64;
    let rank_ns = flops_ns(local_keys as f64 * IS_KEY_FLOPS);
    // Key redistribution block: local keys split over all ranks, 4 B keys.
    let key_block = ((local_keys as usize / np) * 4) / p.vol_scale;
    // Both exchanges' blocks, built once per run and sent by reference.
    let size_blocks = vec![Bytes::from(vec![0u8; np * 4]); np];
    let key_blocks: Vec<Bytes> = (0..np)
        .map(|d| Bytes::from(vec![(me + d) as u8; key_block]))
        .collect();

    for _ in 0..p.iterations {
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
