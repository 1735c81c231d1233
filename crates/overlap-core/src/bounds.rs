//! Per-transfer overlap bound computation (paper Sec. 2.2, the three cases).

use serde::{Deserialize, Serialize};

/// Which of the paper's three cases a transfer fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum XferCase {
    /// Both stamps inside the same communication call: no computation could
    /// have been performed during the transfer.
    SameCall,
    /// Stamps in different calls, with interleaved computation and library
    /// periods between them.
    SplitCalls,
    /// Only one of the two stamps observed: nothing conclusive can be said.
    SingleStamp,
}

/// Minimum and maximum overlapped transfer time for one transfer.
///
/// Precise overlap is unknowable from host-side stamps alone, so each
/// transfer gets a `[min, max]` interval derived from one of the three
/// constructors (the paper's three cases). See `docs/BOUNDS.md` for the
/// full derivation.
///
/// ```
/// use overlap_core::{ManualClock, Recorder, RecorderOpts, XferTimeTable};
///
/// // One 100 ns transfer, posted and completed in different calls.
/// let clock = ManualClock::new();
/// let table = XferTimeTable::from_points(vec![(1, 100)]);
/// let mut rec = Recorder::new(0, Box::new(clock.clone()), table, RecorderOpts::default());
/// rec.call_enter("MPI_Isend");
/// rec.xfer_begin(1, 64);
/// clock.advance(10);
/// rec.call_exit();
/// clock.advance(150); // user computation between the stamps
/// rec.call_enter("MPI_Wait");
/// clock.advance(10);
/// rec.xfer_end(1, 64);
/// rec.call_exit();
/// let total = rec.finish_traced().0.total;
/// // Case 2: the transfer fits inside the 150 ns of computation (max = 100),
/// // and at most the 20 ns in the library can have hidden it (min = 80).
/// assert_eq!(total.case_split_calls, 1);
/// assert_eq!((total.min_overlap, total.max_overlap), (80, 100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct OverlapBounds {
    /// Lower bound on overlapped transfer time, ns.
    pub min: u64,
    /// Upper bound on overlapped transfer time, ns.
    pub max: u64,
    /// The case that produced these bounds.
    pub case: XferCase,
}

impl OverlapBounds {
    /// Case 1: `XFER_BEGIN` and `XFER_END` within the same communication
    /// call — the application was inside the library for the whole transfer,
    /// so both bounds are zero.
    pub(crate) fn same_call() -> Self {
        OverlapBounds {
            min: 0,
            max: 0,
            case: XferCase::SameCall,
        }
    }

    /// Case 2: stamps in different calls. `computation_time` is the total
    /// user computation and `noncomputation_time` the total in-library time
    /// between the two stamps; `xfer_time` is the a-priori transfer time.
    ///
    /// * max = `xfer_time` if enough interleaved computation existed to cover
    ///   it, else the computation that did exist;
    /// * min = 0 if the library time alone could have covered the transfer,
    ///   else the part of the transfer that *must* have run during
    ///   computation, `xfer_time − noncomputation_time`.
    ///
    /// The result is clamped to `min <= max`, which can only trigger when the
    /// a-priori `xfer_time` exceeds the whole observed window (a table
    /// overestimate); the paper's formulas silently assume this cannot
    /// happen.
    pub(crate) fn split_calls(
        xfer_time: u64,
        computation_time: u64,
        noncomputation_time: u64,
    ) -> Self {
        let max = xfer_time.min(computation_time);
        let min = xfer_time.saturating_sub(noncomputation_time).min(max);
        OverlapBounds {
            min,
            max,
            case: XferCase::SplitCalls,
        }
    }

    /// Case 3: only one stamp observed — min 0, max `xfer_time`.
    pub(crate) fn single_stamp(xfer_time: u64) -> Self {
        OverlapBounds {
            min: 0,
            max: xfer_time,
            case: XferCase::SingleStamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_call_is_zero() {
        let b = OverlapBounds::same_call();
        assert_eq!((b.min, b.max), (0, 0));
    }

    #[test]
    fn split_with_ample_computation_is_full_overlap_possible() {
        // xfer 100, comp 150, noncomp 20 → max 100, min 80.
        let b = OverlapBounds::split_calls(100, 150, 20);
        assert_eq!((b.min, b.max), (80, 100));
    }

    #[test]
    fn split_with_scarce_computation_caps_max() {
        // xfer 100, comp 30, noncomp 10 → max 30, min 90 clamped to 30.
        let b = OverlapBounds::split_calls(100, 30, 10);
        assert_eq!(b.max, 30);
        assert!(b.min <= b.max);
    }

    #[test]
    fn split_with_large_library_time_floors_min() {
        // noncomp >= xfer → min 0.
        let b = OverlapBounds::split_calls(100, 500, 100);
        assert_eq!(b.min, 0);
        assert_eq!(b.max, 100);
    }

    #[test]
    fn single_stamp_spans_zero_to_xfer() {
        let b = OverlapBounds::single_stamp(77);
        assert_eq!((b.min, b.max), (0, 77));
    }

    #[test]
    fn invariant_min_le_max_holds_everywhere() {
        for xfer in [0u64, 1, 10, 1000] {
            for comp in [0u64, 5, 100, 10_000] {
                for noncomp in [0u64, 5, 100, 10_000] {
                    let b = OverlapBounds::split_calls(xfer, comp, noncomp);
                    assert!(b.min <= b.max);
                    assert!(b.max <= xfer);
                }
            }
        }
    }
}
