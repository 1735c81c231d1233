//! Ground-truth activity tracking.
//!
//! Every rank records what it spent virtual time on. The simulator — unlike
//! the real hardware the paper ran on — therefore knows the *exact* amount of
//! computation that physically overlapped each data transfer, which lets the
//! test suite validate the instrumentation's min/max bounds.

use crate::intervals::IntervalSet;
use crate::time::Time;

/// What a rank was doing during an interval of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// User computation (the only kind that counts as overlap-eligible work).
    Compute,
    /// Host CPU busy inside the communication library (copies, registration,
    /// protocol processing, polling).
    Library,
    /// Blocked inside the communication library waiting for an event.
    LibraryWait,
}

/// Per-rank log of `(start, end, kind)` activity intervals, in time order.
#[derive(Debug, Clone, Default)]
pub struct ActivityLog {
    entries: Vec<(Time, Time, Activity)>,
}

impl ActivityLog {
    /// Create an empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record an interval. Zero-length intervals are dropped. Intervals must
    /// be appended in non-decreasing start order (debug-asserted).
    pub(crate) fn record(&mut self, start: Time, end: Time, kind: Activity) {
        if start >= end {
            return;
        }
        if let Some(&(_, last_end, last_kind)) = self.entries.last() {
            debug_assert!(start >= last_end, "ActivityLog intervals must not overlap");
            if start == last_end && kind == last_kind {
                self.entries.last_mut().unwrap().1 = end;
                return;
            }
        }
        self.entries.push((start, end, kind));
    }

    /// All recorded entries.
    pub fn entries(&self) -> &[(Time, Time, Activity)] {
        &self.entries
    }

    /// Total time attributed to `kind`.
    pub fn total(&self, kind: Activity) -> u64 {
        self.entries
            .iter()
            .filter(|&&(_, _, k)| k == kind)
            .map(|&(s, e, _)| e - s)
            .sum()
    }

    /// The set of intervals attributed to `kind`.
    fn intervals(&self, kind: Activity) -> IntervalSet {
        let mut set = IntervalSet::new();
        for &(s, e, k) in &self.entries {
            if k == kind {
                set.push(s, e);
            }
        }
        set
    }

    /// Ground-truth overlap: how much of `[start, end)` coincided with user
    /// computation on this rank.
    pub fn compute_overlap_with(&self, start: Time, end: Time) -> u64 {
        self.intervals(Activity::Compute).overlap_with(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut log = ActivityLog::new();
        log.record(0, 10, Activity::Compute);
        log.record(10, 15, Activity::Library);
        log.record(15, 20, Activity::Compute);
        assert_eq!(log.total(Activity::Compute), 15);
        assert_eq!(log.total(Activity::Library), 5);
        assert_eq!(log.entries().last(), Some(&(15, 20, Activity::Compute)));
    }

    #[test]
    fn adjacent_same_kind_coalesce() {
        let mut log = ActivityLog::new();
        log.record(0, 5, Activity::Compute);
        log.record(5, 9, Activity::Compute);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0], (0, 9, Activity::Compute));
    }

    #[test]
    fn zero_length_dropped() {
        let mut log = ActivityLog::new();
        log.record(3, 3, Activity::Library);
        assert!(log.entries().is_empty());
    }

    #[test]
    fn compute_overlap_with_window() {
        let mut log = ActivityLog::new();
        log.record(0, 10, Activity::Compute);
        log.record(10, 20, Activity::LibraryWait);
        log.record(20, 30, Activity::Compute);
        assert_eq!(log.compute_overlap_with(5, 25), 10);
        assert_eq!(log.compute_overlap_with(10, 20), 0);
    }
}
