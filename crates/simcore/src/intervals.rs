//! Half-open time-interval sets and their measure.
//!
//! Used for ground-truth overlap computation: the true overlap of a data
//! transfer with user computation is the measure of the intersection between
//! the transfer's physical `[start, end)` interval and the rank's set of
//! compute intervals.

use crate::time::Time;

/// A set of disjoint, sorted, half-open intervals `[start, end)`.
#[derive(Debug, Default)]
pub(crate) struct IntervalSet {
    ivs: Vec<(Time, Time)>,
}

impl IntervalSet {
    /// The empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append an interval that must start at or after the end of the last one
    /// (amortized O(1); panics in debug builds if out of order). Adjacent
    /// intervals are coalesced.
    pub(crate) fn push(&mut self, start: Time, end: Time) {
        if start >= end {
            return;
        }
        if let Some(last) = self.ivs.last_mut() {
            debug_assert!(start >= last.1, "IntervalSet::push out of order");
            if start <= last.1 {
                last.1 = last.1.max(end);
                return;
            }
        }
        self.ivs.push((start, end));
    }

    /// Measure of the intersection of this set with a single interval.
    pub(crate) fn overlap_with(&self, start: Time, end: Time) -> u64 {
        if start >= end {
            return 0;
        }
        // Binary search for the first interval whose end exceeds `start`.
        let idx = self.ivs.partition_point(|&(_, e)| e <= start);
        let mut acc = 0;
        for &(s, e) in &self.ivs[idx..] {
            if s >= end {
                break;
            }
            acc += e.min(end) - s.max(start);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_coalesces_adjacent() {
        let mut s = IntervalSet::new();
        s.push(0, 5);
        s.push(5, 8);
        s.push(10, 12);
        assert_eq!(s.ivs, [(0, 8), (10, 12)]);
        assert_eq!(s.overlap_with(0, 12), 10);
    }

    #[test]
    fn push_ignores_empty() {
        let mut s = IntervalSet::new();
        s.push(4, 4);
        assert!(s.ivs.is_empty());
    }

    #[test]
    fn overlap_with_single_interval() {
        let mut s = IntervalSet::new();
        s.push(0, 10);
        s.push(20, 30);
        assert_eq!(s.overlap_with(5, 25), 10); // 5..10 plus 20..25
        assert_eq!(s.overlap_with(10, 20), 0);
        assert_eq!(s.overlap_with(0, 40), 20);
        assert_eq!(s.overlap_with(7, 7), 0);
    }
}
