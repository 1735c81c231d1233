//! Allocation budget of the engine's run loop.
//!
//! Every pending event lives in the timing wheel's one node arena, and a
//! popped node is reused by the next push: a run allocates while its
//! high-water mark of pending entries grows and then stops. What is left per
//! rank is its own state — its cell, its continuation, its activity log.
//! Storage kept per wheel slot, or an allocation per event or per cascade,
//! grows with the number of steps and trips this test.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use simcore::{SimOpts, Simulation};

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// Allocator calls per rank stay under this, set-up and run together.
const PER_RANK: u64 = 4;

/// Allocator calls a simulation of `ranks` ranks makes from
/// `Simulation::new` to its outcome, each rank sleeping through `steps`
/// computes of scattered lengths (1 ns to 1 ms), so its wake-ups land on
/// every wheel level up to the fourth.
fn calls(ranks: usize, steps: u64) -> u64 {
    let a0 = bench::alloc::snapshot();
    let out = Simulation::new(ranks)
        .run(SimOpts::default(), move |ctx| {
            let mut x = 0x9e37_79b9_7f4a_7c15 ^ ctx.rank() as u64;
            for _ in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ctx.compute(1 + x % 1_000_000);
            }
        })
        .expect("sleeping ranks never fail");
    assert_eq!(out.events_processed, ranks as u64 * (steps + 1));
    drop(out);
    bench::alloc::region(a0, bench::alloc::snapshot()).0
}

#[test]
fn the_engine_stops_allocating_once_its_wheel_is_warm() {
    for ranks in [64, 256] {
        let few = calls(ranks, 1_000);
        let many = calls(ranks, 8_000);
        for (steps, n) in [(1_000, few), (8_000, many)] {
            assert!(
                n <= PER_RANK * ranks as u64,
                "{ranks} ranks x {steps} steps made {n} allocator calls, {} per rank \
                 (budget {PER_RANK})",
                n / ranks as u64
            );
        }
        assert!(
            many <= few + 16,
            "{ranks} ranks: 7 000 more steps each made {} more allocator calls \
             (budget 16) — the wheel allocates per event or per slot again",
            many.saturating_sub(few)
        );
    }
}
