//! Time source abstraction.
//!
//! The framework is agnostic to where time comes from: on real hardware it
//! would be `clock_gettime`; in this repository it is the simulation's
//! virtual clock. Only monotonicity is required.

use std::cell::Cell;
use std::rc::Rc;

/// A monotonic per-process nanosecond clock.
pub trait Clock {
    /// Current time in nanoseconds.
    fn now(&self) -> u64;
}

impl<F: Fn() -> u64> Clock for F {
    fn now(&self) -> u64 {
        self()
    }
}

/// A hand-driven clock for unit tests.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    t: Rc<Cell<u64>>,
}

impl ManualClock {
    /// New clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance by `d` nanoseconds.
    pub fn advance(&self, d: u64) {
        self.t.set(self.t.get() + d);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> u64 {
        self.t.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0);
        c.advance(10);
        c.advance(15);
        assert_eq!(c.now(), 25);
    }

    #[test]
    fn closures_are_clocks() {
        let c = || 42u64;
        assert_eq!(Clock::now(&c), 42);
    }
}
