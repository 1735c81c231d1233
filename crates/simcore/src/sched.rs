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
//! Every entry not yet due is a node in one arena, and a slot is only the
//! head of a list through it: a cascade relinks nodes, a pop frees one for
//! the next push, and the wheel holds its high-water mark of pending entries.
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
/// The arena index that ends a list: a slot's, or the free list.
const NIL: u32 = u32::MAX;

/// An entry not yet due, linked into its slot's list; or a free node
/// (`item` is `None`) linked into the free list.
struct Node<T> {
    time: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
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
    /// The node arena, and the head of its free list.
    nodes: Vec<Node<T>>,
    free: u32,
    /// Each slot's list head, and each level's bitmask of non-empty slots.
    heads: [[u32; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    /// Virtual-time floor: the time of the last popped entry. Entries with
    /// `time <= now` are due.
    now: u64,
    /// Due entries (`time <= now`), ordered by `seq`; popped from the front.
    cur: VecDeque<(u64, T)>,
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
            nodes: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            now: 0,
            cur: VecDeque::new(),
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
        if time <= self.now {
            // Due immediately: merge into `cur` at its seq position (almost
            // always the back: the engine hands out increasing seqs).
            let pos = self.cur.partition_point(|&(s, _)| s < seq);
            self.cur.insert(pos, (seq, item));
            return;
        }
        let idx = self.free;
        if idx == NIL {
            let n = u32::try_from(self.nodes.len() + 1)
                .expect("timing wheel: more than u32::MAX pending entries");
            self.nodes.push(Node {
                time,
                seq,
                next: NIL,
                item: Some(item),
            });
            self.link(n - 1);
        } else {
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.time = time;
            node.seq = seq;
            node.item = Some(item);
            self.link(idx);
        }
    }

    /// Link node `idx`, due after the floor, into the slot its time maps to.
    fn link(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        let level = ((63 - (node.time ^ self.now).leading_zeros()) / BITS) as usize;
        let slot = ((node.time >> (level as u32 * BITS)) & (SLOTS as u64 - 1)) as usize;
        node.next = std::mem::replace(&mut self.heads[level][slot], idx);
        self.occupied[level] |= 1 << slot;
    }

    /// Remove and return the entry with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_tie(|_, _| 0)
    }

    /// Remove one entry of the batch due next: advance until entries are
    /// due, then remove the one at the index `choose(time, n)` returns, in
    /// `seq` order. The batch is exactly the `n` entries tied at the earliest
    /// `time`, among which the schedule explorer lets its oracle pick.
    pub(crate) fn pop_tie(
        &mut self,
        choose: impl FnOnce(u64, usize) -> usize,
    ) -> Option<(u64, u64, T)> {
        while self.cur.is_empty() {
            self.advance()?;
        }
        let pick = choose(self.now, self.cur.len());
        let (seq, item) = self.cur.remove(pick).expect("tie pick within the batch");
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
            let cand = self.occupied[level] & (!0u64 << cur_slot);
            if cand == 0 {
                continue;
            }
            let slot = cand.trailing_zeros() as usize;
            let mut idx = std::mem::replace(&mut self.heads[level][slot], NIL);
            self.occupied[level] &= !(1u64 << slot);
            // Advance the floor to the slot's base time (higher bits kept).
            let above = shift + BITS;
            let high = if above >= 64 {
                0
            } else {
                self.now >> above << above
            };
            self.now = high | ((slot as u64) << shift);
            // A level-0 slot's nodes are all due now; a multi-tick slot's are
            // due now or map strictly below this level. Due nodes move to the
            // empty `cur` and onto the free list; the rest are relinked. A
            // list runs newest first, so pushing to the front leaves the batch
            // in push order, which the engine's rising seqs make sorted.
            debug_assert!(self.cur.is_empty());
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                let next = node.next;
                if node.time <= self.now {
                    node.next = std::mem::replace(&mut self.free, idx);
                    let item = node.item.take().expect("a linked node holds an item");
                    self.cur.push_front((node.seq, item));
                } else {
                    self.link(idx);
                }
                idx = next;
            }
            self.cur.make_contiguous().sort_unstable_by_key(|&(s, _)| s);
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

    /// Deterministic LCG for the workloads below.
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let mut pushed = 0usize;
        let mut popped = Vec::new();
        let mut rng = lcg(0xdeadbeef);
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
    fn pop_tie_offers_exactly_the_due_batch() {
        let mut w = TimingWheel::new();
        w.push(10, 0, "a");
        w.push(10, 2, "c");
        w.push(10, 1, "b");
        w.push(20, 3, "d");
        // The three entries tied at t=10, in seq order; t=20 is not offered.
        let pick = |want: usize| {
            move |t: u64, n: usize| {
                assert_eq!((t, n), (10, want + 1));
                want
            }
        };
        assert_eq!(w.pop_tie(pick(2)), Some((10, 2, "c")));
        assert_eq!(w.pop_tie(pick(1)), Some((10, 1, "b")));
        assert_eq!(w.pop_tie(pick(0)), Some((10, 0, "a")));
        assert_eq!(w.len(), 1);
        // A lone entry is a batch of one.
        let lone = w.pop_tie(|t, n| {
            assert_eq!((t, n), (20, 1));
            0
        });
        assert_eq!(lone, Some((20, 3, "d")));
        assert_eq!(
            w.pop_tie(|_, _| unreachable!("empty wheel asks nothing")),
            None
        );
    }

    #[test]
    fn arena_holds_only_the_pending_high_water_mark() {
        const K: usize = 1_000;
        const SPREAD: u64 = 10_000;
        let mut w = TimingWheel::new();
        let mut rng = lcg(0x5eed);
        let mut seq = 0u64;
        let mut push = |w: &mut TimingWheel<()>, after: u64| {
            w.push(after + 1 + rng() % SPREAD, seq, ());
            seq += 1;
        };
        for _ in 0..K {
            push(&mut w, 0);
        }
        assert_eq!(w.nodes.len(), K);
        // Hold model: every pop is followed by one push.
        for _ in 0..100_000 {
            let (t, ..) = w.pop().expect("the hold population never empties");
            push(&mut w, t);
            assert!(w.nodes.len() <= K, "arena grew to {}", w.nodes.len());
        }
        // Drained to empty and refilled, the wheel reuses its nodes.
        while w.pop().is_some() {}
        assert_eq!(w.len(), 0);
        for _ in 0..K {
            let now = w.now;
            push(&mut w, now);
        }
        assert_eq!(w.nodes.len(), K);
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
