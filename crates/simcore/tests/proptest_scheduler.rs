//! Property-based equivalence between the hierarchical timing wheel and the
//! reference `BinaryHeapSched` — the textbook scheduler the engine used
//! before the wheel landed, kept here because these tests are its only
//! consumer.
//!
//! The engine only ever schedules at or after the current virtual time (its
//! monotonicity invariant), so the workloads here maintain a pop floor and
//! push at `floor + delay`. Under that invariant the wheel must pop the
//! exact `(time, seq)` sequence the heap does — including FIFO tie-breaking
//! among entries that share a timestamp, which is what makes the scheduler
//! swap invisible in `repro` output.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simcore::sched::TimingWheel;

/// The reference model: a max-heap of reversed `(time, seq, item)` pops the
/// smallest `(time, seq)` first (`seq` is unique, so `item` never decides).
/// Unlike the wheel it reports past deadlines as-is rather than clamped; the
/// engine never schedules into the past, and neither do these workloads.
#[derive(Default)]
struct BinaryHeapSched(BinaryHeap<Reverse<(u64, u64, u64)>>);

impl BinaryHeapSched {
    fn new() -> Self {
        Self::default()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, time: u64, seq: u64, item: u64) {
        self.0.push(Reverse((time, seq, item)));
    }

    fn pop(&mut self) -> Option<(u64, u64, u64)> {
        self.0.pop().map(|Reverse(e)| e)
    }
}

/// Pop both schedulers until empty, requiring identical results.
fn drain_matches(
    wheel: &mut TimingWheel<u64>,
    heap: &mut BinaryHeapSched,
) -> Result<(), proptest::TestCaseError> {
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(&w, &h, "wheel {:?} != heap {:?}", w, h);
        if w.is_none() {
            prop_assert_eq!(wheel.len(), 0);
            return Ok(());
        }
    }
}

#[test]
fn heap_reference_matches_wheel_on_fixed_workload() {
    let mut w = TimingWheel::new();
    let mut h = BinaryHeapSched::new();
    for (i, t) in [500u64, 3, 3, 80_000, 500, 0, 1 << 40, 63, 64, 65]
        .into_iter()
        .enumerate()
    {
        w.push(t, i as u64, i as u64);
        h.push(t, i as u64, i as u64);
    }
    drain_matches(&mut w, &mut h).expect("wheel and heap pop the same sequence");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_matches_heap_on_interleaved_ops(
        ops in prop::collection::vec((0u64..5_000, 0usize..4), 1..250),
    ) {
        let mut wheel = TimingWheel::new();
        let mut heap = BinaryHeapSched::new();
        let mut floor = 0u64;
        for (seq, &(delay, pops)) in ops.iter().enumerate() {
            let seq = seq as u64;
            let t = floor + delay;
            wheel.push(t, seq, seq);
            heap.push(t, seq, seq);
            for _ in 0..pops {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(&w, &h, "wheel {:?} != heap {:?}", w, h);
                match w {
                    Some((t, ..)) => floor = t,
                    None => break,
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        drain_matches(&mut wheel, &mut heap)?;
    }

    #[test]
    fn wheel_matches_heap_across_distant_deadlines(
        delays in prop::collection::vec(0u64..(1 << 40), 1..100),
        pop_every in 1usize..8,
    ) {
        // Huge delays land in the wheel's upper levels and must cascade back
        // down through intermediate slots before popping.
        let mut wheel = TimingWheel::new();
        let mut heap = BinaryHeapSched::new();
        let mut floor = 0u64;
        for (i, &d) in delays.iter().enumerate() {
            let seq = i as u64;
            wheel.push(floor + d, seq, seq);
            heap.push(floor + d, seq, seq);
            if (i + 1) % pop_every == 0 {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(&w, &h, "wheel {:?} != heap {:?}", w, h);
                if let Some((t, ..)) = w {
                    floor = t;
                }
            }
        }
        drain_matches(&mut wheel, &mut heap)?;
    }

    #[test]
    fn same_timestamp_entries_pop_fifo(
        times in prop::collection::vec(0u64..8, 2..64),
    ) {
        // Timestamps drawn from a tiny range guarantee heavy collisions;
        // ties must come back in push (seq) order from both schedulers.
        let mut wheel = TimingWheel::new();
        let mut heap = BinaryHeapSched::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.push(t, i as u64, i as u64);
            heap.push(t, i as u64, i as u64);
        }
        let mut prev: Option<(u64, u64)> = None;
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(&w, &h, "wheel {:?} != heap {:?}", w, h);
            let Some((t, s, _)) = w else { break };
            if let Some((pt, ps)) = prev {
                prop_assert!(
                    (t, s) > (pt, ps),
                    "non-monotonic pop: ({}, {}) after ({}, {})", t, s, pt, ps
                );
            }
            prev = Some((t, s));
        }
    }

    #[test]
    fn reinsertion_at_the_current_tick_stays_ordered(
        reinserts in prop::collection::vec(0u64..3, 1..80),
    ) {
        // The engine's zero-delay wakes push at exactly the popped time;
        // those must queue behind nothing earlier and in seq order.
        let mut wheel = TimingWheel::new();
        let mut heap = BinaryHeapSched::new();
        let mut seq = 0u64;
        wheel.push(0, seq, seq);
        heap.push(0, seq, seq);
        seq += 1;
        for &extra in &reinserts {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(&w, &h, "wheel {:?} != heap {:?}", w, h);
            let Some((t, ..)) = w else { break };
            for d in 0..=extra {
                wheel.push(t + d, seq, seq);
                heap.push(t + d, seq, seq);
                seq += 1;
            }
        }
        drain_matches(&mut wheel, &mut heap)?;
    }
}
