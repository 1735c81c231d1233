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

use simmpi::Bytes;

/// Rank `me`'s `np` all-to-all blocks of `len` bytes: slices of one buffer
/// whose byte `i` is `(me·np + i) as u8`, block `d` starting at byte `d`.
/// Every (src, dst) pair carries its own bytes (distinct while `np ≤ 16`),
/// and the rank holds `len + np` payload bytes (rounded up to a multiple of
/// 256), not `np·len`.
fn ramp_blocks(me: usize, np: usize, len: usize) -> Vec<Bytes> {
    let period: Vec<u8> = (0..256).map(|k| (me * np + k) as u8).collect();
    let buf = Bytes::from(period.repeat((len + np).div_ceil(256)));
    (0..np).map(|d| buf.slice(d..d + len)).collect()
}

/// True when `block` is exactly the block [`ramp_blocks`] built on rank
/// `src` for rank `dst`. Past its first 256 bytes, each byte must equal the
/// one 256 earlier: one `memcmp` of the block against itself.
fn is_ramp_block(block: &[u8], src: usize, dst: usize, np: usize, len: usize) -> bool {
    let head = len.min(256);
    block.len() == len
        && (0..head).all(|k| block[k] == (src * np + dst + k) as u8)
        && block[head..] == block[..len - head]
}

#[cfg(test)]
mod tests {
    use super::*;

    const NP: usize = 4;
    const LEN: usize = 1000;

    #[test]
    fn a_block_passes_only_as_itself() {
        let (src, dst) = (2, 1);
        let blocks = ramp_blocks(src, NP, LEN);
        let b = &blocks[dst];
        assert!(is_ramp_block(b, src, dst, NP, LEN));
        let shifted: Vec<u8> = b.iter().map(|x| x.wrapping_add(1)).collect();
        assert!(
            !is_ramp_block(&shifted, src, dst, NP, LEN),
            "shifted by one byte"
        );
        let mut flipped = b.to_vec();
        flipped[LEN / 2] ^= 1;
        assert!(
            !is_ramp_block(&flipped, src, dst, NP, LEN),
            "one byte changed"
        );
        assert!(!is_ramp_block(b, 3, dst, NP, LEN), "wrong source");
        assert!(!is_ramp_block(b, src, 3, NP, LEN), "wrong destination");
        assert!(
            !is_ramp_block(&b[..LEN - 1], src, dst, NP, LEN),
            "truncated"
        );
        assert!(!is_ramp_block(&[], src, dst, NP, LEN), "empty");
    }

    #[test]
    fn every_pair_of_sixteen_ranks_carries_its_own_bytes() {
        const NP: usize = 16;
        let built: Vec<Vec<Bytes>> = (0..NP).map(|s| ramp_blocks(s, NP, 300)).collect();
        for (src, blocks) in built.iter().enumerate() {
            for (dst, b) in blocks.iter().enumerate() {
                for s in 0..NP {
                    for d in 0..NP {
                        assert_eq!(is_ramp_block(b, s, d, NP, 300), (s, d) == (src, dst));
                    }
                }
            }
        }
    }
}
