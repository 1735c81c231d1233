//! The analytic computation model.
//!
//! Compute phases are modeled as flop counts executed at a sustained rate
//! representative of the paper's 2.4 GHz P4 Xeon nodes (~1 GFLOP/s sustained
//! for these memory-bound kernels). The per-point flop constants below are
//! order-of-magnitude estimates from the NPB kernel structure; what matters
//! for the overlap study is the *ratio* of compute-phase length to transfer
//! time, not absolute accuracy.

/// Sustained floating-point rate, flops per nanosecond.
const FLOPS_PER_NS: f64 = 1.0;

/// Convert a flop count to virtual nanoseconds of computation.
#[inline]
pub(crate) fn flops_ns(flops: f64) -> u64 {
    (flops / FLOPS_PER_NS).max(1.0) as u64
}

/// SP: right-hand-side evaluation, flops per grid point per iteration.
pub(crate) const SP_RHS_FLOPS: f64 = 60.0;
/// SP: lhs factorization inside the overlap section, flops per cell point
/// per stage.
pub(crate) const SP_LHS_FLOPS: f64 = 30.0;
/// SP: cell forward/back substitution, flops per cell point per stage.
pub(crate) const SP_SOLVE_FLOPS: f64 = 25.0;
/// BT: block-tridiagonal work is ~3x SP's scalar-pentadiagonal work.
pub(crate) const BT_WORK_SCALE: f64 = 3.0;
/// CG: flops per matrix nonzero per matvec.
pub(crate) const CG_MATVEC_FLOPS: f64 = 2.0;
/// CG: flops per vector element for the axpy/dot tail of each inner step.
pub(crate) const CG_VECTOR_FLOPS: f64 = 6.0;
/// LU: SSOR work per grid point per sweep plane.
pub(crate) const LU_PLANE_FLOPS: f64 = 150.0;
/// LU: rhs evaluation per grid point per iteration.
pub(crate) const LU_RHS_FLOPS: f64 = 90.0;
/// FT: per-point cost of one 1-D FFT pass (≈ 5 log2 N per point across the
/// three passes, folded into one constant per transpose step).
pub(crate) const FT_FFT_FLOPS_PER_POINT: f64 = 45.0;
/// FT: evolve/checksum per point per iteration.
pub(crate) const FT_EVOLVE_FLOPS: f64 = 8.0;
/// MG: smoother/residual work per grid point per level visit.
pub(crate) const MG_POINT_FLOPS: f64 = 12.0;
/// EP: flops per random pair.
pub(crate) const EP_PAIR_FLOPS: f64 = 30.0;
/// IS: key ranking work per key per iteration.
pub(crate) const IS_KEY_FLOPS: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_convert_to_time() {
        assert_eq!(flops_ns(1000.0), 1000);
        assert_eq!(flops_ns(0.0), 1); // never a zero-length phase
    }
}
