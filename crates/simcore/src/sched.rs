//! The priority scheduler for `(time, seq)`-ordered discrete events.
//!
//! The engine needs one operation: pop the pending entry with the smallest
//! `(time, seq)` key. [`TimingWheel`] is a hierarchical timing wheel (64-slot
//! levels, 6 bits per level, 11 levels covering the full `u64` nanosecond
//! range). Push and pop are O(1) amortized: an entry is dropped into the
//! slot that matches the highest bit in which its deadline differs from the
//! current virtual time, and cascades toward level 0 as the wheel advances.
//! Within one tick, entries pop in `seq` order regardless of insertion
//! order, so the pop sequence is *exactly* the `(time, seq)` order a binary
//! heap would produce — `tests/proptest_scheduler.rs` holds that heap as
//! the reference model and asserts the equivalence.
//!
//! The wheel is not internally synchronized: the engine owns it on the run
//! loop's stack and feeds it from its insertion buffer (see `engine.rs`),
//! taking no lock on the pop path at all.

use std::collections::VecDeque;

/// Bits per wheel level: each level has `2^BITS = 64` slots.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels: `11 * 6 = 66` bits, enough to cover any `u64` deadline.
const LEVELS: usize = 11;

struct Level<T> {
    /// Bitmask of non-empty slots.
    occupied: u64,
    slots: Box<[Vec<(u64, u64, T)>]>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// Hierarchical timing wheel popping entries in `(time, seq)` order.
///
/// `time` is an absolute virtual-time deadline; `seq` breaks ties (the
/// engine hands out strictly increasing sequence numbers, so FIFO among
/// same-time entries). Deadlines in the past — at or before the last popped
/// entry's time — are treated as due immediately, matching the engine's
/// "clamp to now" scheduling rule.
///
/// ```
/// use simcore::sched::TimingWheel;
///
/// let mut w = TimingWheel::new();
/// w.push(50, 1, "b");
/// w.push(10, 0, "a");
/// w.push(50, 2, "c");
/// assert_eq!(w.pop(), Some((10, 0, "a")));
/// assert_eq!(w.pop(), Some((50, 1, "b")));
/// assert_eq!(w.pop(), Some((50, 2, "c")));
/// assert_eq!(w.pop(), None);
/// ```
pub struct TimingWheel<T> {
    levels: Box<[Level<T>]>,
    /// Virtual-time floor: the time of the last popped entry. Entries with
    /// `time <= now` are due.
    now: u64,
    /// Due entries (`time <= now`), ordered by `seq`; popped from the front.
    cur: VecDeque<(u64, T)>,
    /// Spare buffer swapped against slot vectors during [`advance`], so a
    /// cascade never discards a slot's capacity: allocations happen only
    /// while the wheel grows past its historical high-water mark, keeping
    /// the steady-state pop/push cycle allocation-free.
    scratch: Vec<(u64, u64, T)>,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel with its time floor at 0.
    pub fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            now: 0,
            cur: VecDeque::new(),
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending entries. (No `is_empty`: nothing outside asks.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Insert an entry. `seq` must be unique; pop order is `(time, seq)`
    /// with `time` clamped to the current floor.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        self.len += 1;
        self.insert(time, seq, item);
    }

    fn insert(&mut self, time: u64, seq: u64, item: T) {
        if time <= self.now {
            // Due immediately: merge into the current batch at its
            // seq-sorted position (almost always the back, since the engine
            // hands out increasing sequence numbers).
            let pos = self.cur.partition_point(|&(s, _)| s < seq);
            self.cur.insert(pos, (seq, item));
            return;
        }
        let level = ((63 - (time ^ self.now).leading_zeros()) / BITS) as usize;
        let slot = ((time >> (level as u32 * BITS)) & (SLOTS as u64 - 1)) as usize;
        let l = &mut self.levels[level];
        l.slots[slot].push((time, seq, item));
        l.occupied |= 1 << slot;
    }

    /// Remove and return the entry with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        loop {
            if let Some((seq, item)) = self.cur.pop_front() {
                self.len -= 1;
                return Some((self.now, seq, item));
            }
            self.advance()?;
        }
    }

    /// Remove and return the next entry of the batch due at the current time
    /// floor, without ever advancing the wheel. Returns `None` once the
    /// current batch is exhausted, even if later entries are pending.
    ///
    /// Entries only ever enter the wheel with `time >= now`, so whenever an
    /// entry at time `t` has been popped, every remaining entry due at `t`
    /// is already in the current batch: draining with `pop_current` after a
    /// [`TimingWheel::pop`] yields exactly the set of same-time ties. The
    /// schedule explorer uses this to collect tie candidates for its oracle
    /// without disturbing the time floor.
    pub(crate) fn pop_current(&mut self) -> Option<(u64, u64, T)> {
        let (seq, item) = self.cur.pop_front()?;
        self.len -= 1;
        Some((self.now, seq, item))
    }

    /// Advance the wheel to the next occupied slot, promoting its entries
    /// (cascading multi-tick slots toward level 0). Returns `None` when the
    /// wheel is empty.
    fn advance(&mut self) -> Option<()> {
        for level in 0..LEVELS {
            let shift = level as u32 * BITS;
            let cur_slot = ((self.now >> shift) & (SLOTS as u64 - 1)) as u32;
            // Slots earlier in the rotation than `now`'s own index belong to
            // later wrap-arounds and are reachable only through a higher
            // level, so only indices >= cur_slot are candidates here.
            let cand = self.levels[level].occupied & (!0u64 << cur_slot);
            if cand == 0 {
                continue;
            }
            let slot = cand.trailing_zeros() as usize;
            // Swap the slot's contents out through the scratch buffer: the
            // slot inherits scratch's (empty) storage and the drained buffer
            // goes back to scratch below, so no capacity is ever dropped.
            let mut entries = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut self.levels[level].slots[slot], &mut entries);
            self.levels[level].occupied &= !(1u64 << slot);
            // Advance the floor to the slot's base time (higher bits kept).
            let above = shift + BITS;
            let high = if above >= 64 {
                0
            } else {
                self.now >> above << above
            };
            self.now = high | ((slot as u64) << shift);
            if level == 0 {
                // A level-0 slot spans exactly one tick: every entry is due
                // at `self.now`; order the batch by seq and serve it. `cur`
                // is empty here (advance runs only once it drains), so its
                // storage is reused batch after batch.
                debug_assert!(entries.iter().all(|&(t, ..)| t == self.now));
                debug_assert!(self.cur.is_empty());
                self.cur.extend(entries.drain(..).map(|(_, s, it)| (s, it)));
                self.cur.make_contiguous().sort_unstable_by_key(|&(s, _)| s);
            } else {
                // A multi-tick slot: redistribute its entries, which now map
                // strictly below this level (or into `cur` if due) — never
                // back into the slot just vacated, so handing `entries` to
                // `scratch` afterwards is safe.
                for (t, s, it) in entries.drain(..) {
                    self.insert(t, s, it);
                }
            }
            self.scratch = entries;
            return Some(());
        }
        debug_assert_eq!(self.len, 0);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(100, 3, ());
        w.push(100, 1, ());
        w.push(7, 2, ());
        w.push(100, 2, ());
        w.push(1_000_000, 4, ());
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| w.pop().map(|(t, s, _)| (t, s))).collect();
        assert_eq!(
            order,
            [(7, 2), (100, 1), (100, 2), (100, 3), (1_000_000, 4)]
        );
    }

    #[test]
    fn same_tick_reinsertion_pops_after_current() {
        let mut w = TimingWheel::new();
        w.push(10, 0, "a");
        assert_eq!(w.pop(), Some((10, 0, "a")));
        // Scheduled "now" (and even in the past) while at t=10: due at 10.
        w.push(10, 1, "b");
        w.push(3, 2, "c");
        assert_eq!(w.pop(), Some((10, 1, "b")));
        assert_eq!(w.pop(), Some((10, 2, "c")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn distant_deadlines_cascade_correctly() {
        let mut w = TimingWheel::new();
        // One entry per wheel level, in reverse deadline order.
        let times: Vec<u64> = (0..10u32).rev().map(|k| 1u64 << (6 * k)).collect();
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, t);
        }
        w.push(u64::MAX, 99, u64::MAX);
        let mut last = 0;
        let mut n = 0;
        while let Some((t, _, item)) = w.pop() {
            assert_eq!(t, item);
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 11);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let mut pushed = 0usize;
        let mut popped = Vec::new();
        // Deterministic LCG workload.
        let mut state = 0xdeadbeefu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..200 {
            for _ in 0..(round % 7) {
                let t = w.now + rng() % 10_000;
                w.push(t, seq, ());
                seq += 1;
                pushed += 1;
            }
            if round % 3 != 0 {
                if let Some((t, s, ())) = w.pop() {
                    popped.push((t, s));
                }
            }
        }
        while let Some((t, s, ())) = w.pop() {
            popped.push((t, s));
        }
        assert_eq!(popped.len(), pushed);
        for pair in popped.windows(2) {
            assert!(pair[0] < pair[1], "out of order: {pair:?}");
        }
    }

    #[test]
    fn pop_current_drains_only_the_due_batch() {
        let mut w = TimingWheel::new();
        w.push(10, 0, "a");
        w.push(10, 2, "c");
        w.push(10, 1, "b");
        w.push(20, 3, "d");
        assert_eq!(w.pop(), Some((10, 0, "a")));
        assert_eq!(w.pop_current(), Some((10, 1, "b")));
        assert_eq!(w.pop_current(), Some((10, 2, "c")));
        // The batch at t=10 is exhausted; t=20 must not be touched.
        assert_eq!(w.pop_current(), None);
        assert_eq!(w.len(), 1);
        // Re-inserting at the floor merges back in seq order.
        w.push(10, 1, "b");
        w.push(10, 2, "c");
        assert_eq!(w.pop(), Some((10, 1, "b")));
        assert_eq!(w.pop(), Some((10, 2, "c")));
        assert_eq!(w.pop(), Some((20, 3, "d")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn len_tracks_pending_entries() {
        let mut w = TimingWheel::new();
        assert_eq!(w.len(), 0);
        w.push(5, 0, ());
        w.push(500_000, 1, ());
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop(), None);
    }
}
