//! The bounded circular event queue (paper Figure 2, data collection
//! module).
//!
//! Events are logged into a ring of fixed capacity; when it fills, the data
//! processing module drains it and the head pointer resets. No tracing is
//! performed and memory use is bounded regardless of run length — the
//! property that makes the approach scalable and low-overhead.
//!
//! The bound is a ceiling, not a reservation: the buffer is grown on demand
//! (64 events, then doubling: at most seven steps to the default 4096, none
//! after the first fill), so a process that logs a few hundred events holds
//! a few KiB. Where the ring folds depends on `capacity` alone.

use crate::event::Event;

/// Returned by [`EventRing::push`] when the ring is at capacity. Carries the
/// rejected event back so the caller can fold it after draining — the ring
/// itself never allocates past its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RingFull(pub Event);

/// Bounded event ring.
#[derive(Debug)]
pub(crate) struct EventRing {
    /// Grown on demand; `buf.capacity() <= capacity` always.
    buf: Vec<Event>,
    capacity: usize,
}

impl EventRing {
    /// Create a ring holding at most `capacity` events (min 2: a call-enter /
    /// call-exit pair must fit). Allocates nothing until the first push.
    pub(crate) fn new(capacity: usize) -> Self {
        EventRing {
            buf: Vec::new(),
            capacity: capacity.max(2),
        }
    }

    /// True if the next push would overflow.
    fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Append an event. When the ring is full the event is handed back in
    /// [`RingFull`] instead of growing the buffer past `capacity` — the
    /// bounded-memory invariant holds in every build profile, not just under
    /// `debug_assertions`. Callers drain (or fold) and retry.
    #[inline]
    #[must_use = "a rejected event must be folded or dropped explicitly"]
    pub(crate) fn push(&mut self, e: Event) -> Result<(), RingFull> {
        if self.is_full() {
            return Err(RingFull(e));
        }
        if self.buf.len() == self.buf.capacity() {
            self.grow();
        }
        self.buf.push(e);
        Ok(())
    }

    /// One growth step: 64 slots, then double, clipped to `capacity`
    /// (`reserve_exact`: `Vec`'s own growth would round the bound up).
    #[cold]
    fn grow(&mut self) {
        let have = self.buf.capacity();
        let want = (have * 2).max(64).min(self.capacity);
        self.buf.reserve_exact(want - have);
    }

    /// Drain all queued events in insertion order, resetting the head
    /// pointer. The allocation is retained.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Event> {
        self.buf.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: u64) -> Event {
        Event::new(t, EventKind::CallExit)
    }

    #[test]
    fn fills_and_drains_in_order() {
        let mut q = EventRing::new(3);
        q.push(ev(1)).unwrap();
        q.push(ev(2)).unwrap();
        q.push(ev(3)).unwrap();
        assert!(q.is_full());
        let times: Vec<u64> = q.drain().map(|e| e.t).collect();
        assert_eq!(times, vec![1, 2, 3]);
        assert!(q.buf.is_empty());
        // Reusable after drain.
        q.push(ev(4)).unwrap();
        assert_eq!(q.buf.len(), 1);
    }

    /// The memory bound must hold in *release* builds too (this
    /// test is profile-independent by design; CI runs it under
    /// `cargo test --release`): a push into a full ring is rejected and
    /// hands the event back rather than growing the Vec.
    #[test]
    fn overflow_is_rejected_in_all_profiles() {
        let mut q = EventRing::new(2);
        q.push(ev(1)).unwrap();
        q.push(ev(2)).unwrap();
        assert!(q.is_full());
        let rejected = q.push(ev(3)).unwrap_err();
        assert_eq!(rejected, RingFull(ev(3)));
        // Still exactly at capacity; queued events untouched.
        assert_eq!(q.buf.len(), q.capacity);
        let times: Vec<u64> = q.drain().map(|e| e.t).collect();
        assert_eq!(times, vec![1, 2]);
        // Usable again after the drain.
        q.push(ev(4)).unwrap();
        assert_eq!(q.buf.len(), 1);
    }

    #[test]
    fn a_new_ring_has_allocated_nothing() {
        let mut q = EventRing::new(4096);
        assert_eq!(q.buf.capacity(), 0);
        q.push(ev(1)).unwrap();
        assert_eq!(q.buf.capacity(), 64);
    }

    /// The buffer grows in steps but never past the bound, also where the
    /// bound is not a power of two (amortised `Vec` growth would overshoot).
    #[test]
    fn buffer_never_exceeds_a_non_power_of_two_capacity() {
        for capacity in [3, 100, 1000] {
            let mut q = EventRing::new(capacity);
            let mut steps = 0;
            for i in 0..capacity as u64 {
                let before = q.buf.capacity();
                q.push(ev(i)).unwrap();
                assert!(q.buf.capacity() <= capacity);
                steps += usize::from(q.buf.capacity() != before);
            }
            assert!(q.is_full());
            assert_eq!(q.buf.capacity(), capacity);
            assert!(steps <= 5, "{steps} growth steps to {capacity} slots");
            assert_eq!(q.push(ev(0)).unwrap_err(), RingFull(ev(0)));
            assert_eq!(q.buf.capacity(), capacity);
        }
    }

    /// Growing on demand moves no fold point: the same event stream through
    /// a ring reserved up front and through a grown one is rejected at the
    /// same pushes, so `flushes` and the report are the same bytes.
    #[test]
    fn a_grown_ring_folds_where_a_presized_one_does() {
        use crate::{processor::Processor, SizeBins, XferTimeTable};
        let run = |mut ring: EventRing| {
            let table = XferTimeTable::from_points(vec![(1, 400)]);
            let mut proc = Processor::new(table, SizeBins::default());
            let (mut t, mut events, mut flushes) = (0u64, 0u64, 0u64);
            let mut log = |kind: EventKind, dt: u64| {
                t += dt;
                if let Err(RingFull(e)) = ring.push(Event::new(t, kind)) {
                    ring.drain().for_each(|e| proc.process(e));
                    flushes += 1;
                    ring.push(e).unwrap();
                }
                events += 1;
            };
            for id in 0..300u64 {
                log(EventKind::CallEnter { name: "Isend" }, 50);
                log(EventKind::XferBegin { id, bytes: 100 }, 1);
                log(EventKind::CallExit, 5);
                log(EventKind::CallEnter { name: "Wait" }, 500);
                log(EventKind::XferEnd { id, bytes: 100 }, 10);
                log(EventKind::CallExit, 1);
            }
            ring.drain().for_each(|e| proc.process(e));
            let report = proc.finish(t, 0, events, flushes + 1);
            (flushes, serde_json::to_string(&report).unwrap())
        };
        let capacity = 100;
        let grown = run(EventRing::new(capacity));
        let presized = run(EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
        });
        assert_eq!(grown.0, 1800 / 100 - 1);
        assert_eq!(grown, presized);
    }

    #[test]
    fn minimum_capacity_is_two() {
        let q = EventRing::new(0);
        assert_eq!(q.capacity, 2);
    }

    #[test]
    fn capacity_is_stable_across_drains() {
        let mut q = EventRing::new(8);
        for round in 0..5 {
            for i in 0..8 {
                q.push(ev(round * 8 + i)).unwrap();
            }
            assert!(q.is_full());
            assert_eq!(q.drain().count(), 8);
        }
        assert_eq!(q.capacity, 8);
    }
}
