//! NAS FT (3-D FFT).
//!
//! Transpose-based parallel FFT: each iteration evolves the spectrum, runs
//! local 1-D FFT passes, and performs a global **Alltoall** to transpose the
//! distributed array. The alltoall blocks are long (`n³·16 / np²` bytes) and
//! move inside one blocking collective call — no computation can overlap
//! them — so FT shows the lowest overlap of the suite (paper Figure 13);
//! the little overlap it does report comes from the short `Reduce`/`Bcast`
//! messages of the checksum step.
//!
//! Memory substitution: class payloads are generated once per run at
//! `1/vol_scale` of the true volume (the true class-A array alone is 134 MB
//! per transpose) and every transpose sends them by reference; the *compute
//! model* uses the unscaled point counts. The scaled messages remain deep in
//! the rendezvous regime, so the overlap behaviour is unchanged (see
//! `DESIGN.md`).

use simmpi::{Bytes, Mpi, ReduceOp};

use crate::class::Class;
use crate::model::{flops_ns, FT_EVOLVE_FLOPS, FT_FFT_FLOPS_PER_POINT};

/// FT workload parameters.
#[derive(Debug, Clone)]
pub struct FtParams {
    /// Problem class.
    pub class: Class,
    /// Iterations (NPB: 6 for A, 20 for B; scaled).
    pub iterations: usize,
    /// Volume divisor applied to *message payloads only*.
    pub vol_scale: usize,
    /// Use the non-blocking transpose (`MPI_Ialltoall` overlapped with the
    /// local FFT passes) — the fix the paper's FT analysis motivates.
    pub nonblocking: bool,
}

impl FtParams {
    /// FT at the given class with scaled iterations and a memory-safe
    /// payload scale.
    pub fn new(class: Class) -> Self {
        let vol_scale = match class {
            Class::S | Class::W => 1,
            Class::A => 4,
            Class::B => 8,
        };
        FtParams {
            class,
            iterations: 3,
            vol_scale,
            nonblocking: false,
        }
    }

    /// The non-blocking-transpose variant.
    pub fn nonblocking(class: Class) -> Self {
        FtParams {
            nonblocking: true,
            ..FtParams::new(class)
        }
    }

    /// Grid dimensions `(nx, ny, nz)` (NPB 3.x).
    pub fn dims(&self) -> (usize, usize, usize) {
        match self.class {
            Class::S => (64, 64, 64),
            Class::W => (128, 128, 32),
            Class::A => (256, 256, 128),
            Class::B => (512, 256, 256),
        }
    }

    /// Total grid points.
    pub fn points(&self) -> usize {
        let (x, y, z) = self.dims();
        x * y * z
    }
}

/// Run FT on the given MPI endpoint.
pub fn run_ft(mpi: &mut Mpi, p: &FtParams) {
    let np = mpi.nranks();
    let me = mpi.rank();
    let points = p.points();
    let local_points = points / np;

    // Alltoall block: the local slab re-split across all ranks, complex f64
    // (16 B per point), payload-scaled.
    let block_bytes = (points * 16) / (np * np * p.vol_scale);
    let fft_ns = flops_ns(local_points as f64 * FT_FFT_FLOPS_PER_POINT);
    let evolve_ns = flops_ns(local_points as f64 * FT_EVOLVE_FLOPS);

    // Setup: distribute the roots-of-unity table.
    let mut twiddle = Bytes::from(if me == 0 { vec![1u8; 4096] } else { Vec::new() });
    mpi.bcast(0, &mut twiddle);

    // The transpose's blocks, built once per run; every alltoall sends them
    // by reference.
    let blocks: Vec<Bytes> = (0..np)
        .map(|d| Bytes::from(vec![(me * np + d) as u8; block_bytes]))
        .collect();

    for _ in 0..p.iterations {
        // evolve: pointwise exponential factors.
        mpi.compute(evolve_ns);
        // Local FFT passes over the owned slab.
        mpi.compute(fft_ns);
        // Global transpose.
        let got = if p.nonblocking {
            // Initiate the transpose, overlap the next FFT pass against it
            // (probing to drive the progress engine), then complete.
            let h = mpi.ialltoall(&blocks);
            let chunks = 8;
            for _ in 0..chunks {
                mpi.compute(fft_ns / chunks);
                mpi.iprobe(simmpi::Src::Any, simmpi::TagSel::Any);
            }
            mpi.icoll_wait(h).into_blocks()
        } else {
            mpi.alltoall(&blocks)
        };
        for (src, b) in got.iter().enumerate() {
            assert_eq!(b.len(), block_bytes);
            assert!(
                crate::filled_with(b, (src * np + me) as u8),
                "transpose corrupted"
            );
        }
        // Second local FFT pass after the transpose (already spent in the
        // non-blocking variant, which folds it into the overlap window).
        if !p.nonblocking {
            mpi.compute(fft_ns);
        }
        // Checksum: short reduction + broadcast of the verification value.
        let sum = mpi.reduce(0, &[me as f64, 1.0], ReduceOp::Sum);
        let mut chk = Bytes::from(sum.map_or_else(Vec::new, |s| s[0].to_le_bytes().to_vec()));
        mpi.bcast(0, &mut chk);
        assert_eq!(chk.len(), 8);
    }
}
