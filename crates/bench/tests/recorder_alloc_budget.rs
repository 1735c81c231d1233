//! Allocation budget of one rank's instrumentation, init to finalize.
//!
//! Every rank of a run builds its `Recorder` from one `RecorderOpts`, so the
//! ranks share one `SizeBins`: its labels are formatted when the bins are
//! built and each built-in metric name at most once per layout, and a
//! rank's report and registry take them by refcount. A rank's histograms
//! borrow one constant bucket ladder and exist only once sampled. What is
//! left per rank is its own state: the event ring, the open-transfer table,
//! the aggregates and the report it hands back. Formatting a label or a key
//! per rank, or allocating a histogram nobody samples, costs tens of calls
//! per rank and trips this test.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use overlap_core::{Clock, ManualClock, Recorder, RecorderOpts, WaitCause, XferTimeTable};

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// One transfer in each of the default layout's six size bins.
const SIZES: [u64; 6] = [512, 2 << 10, 16 << 10, 128 << 10, 1 << 20, 8 << 20];

/// Allocator calls per rank stay under this, set-up, fold and traced finish
/// together.
const PER_RANK: u64 = 100;

/// Allocator calls `ranks` ranks make from `Recorder::new` to the traced
/// report: each rank sends one transfer per size bin, waits on it (a late
/// receiver, then a sync) and finishes traced, which also folds the
/// attribution metrics.
fn calls(ranks: usize, opts: &RecorderOpts, table: &XferTimeTable) -> u64 {
    let a0 = bench::alloc::snapshot();
    for rank in 0..ranks {
        let clock = ManualClock::new();
        let mut rec = Recorder::new(rank, Box::new(clock.clone()), table.clone(), opts.clone());
        for (id, bytes) in (0..).zip(SIZES) {
            rec.call_enter("MPI_Isend");
            rec.xfer_begin(id, bytes);
            clock.advance(10);
            rec.call_exit();
            clock.advance(300);
            rec.call_enter("MPI_Wait");
            let t = clock.now();
            clock.advance(5_000);
            rec.wait_state(t, t + 3_000, WaitCause::LateReceiver, Some(id));
            rec.wait_state(t + 3_000, t + 4_000, WaitCause::Sync, None);
            rec.xfer_end(id, bytes);
            rec.call_exit();
        }
        let (report, trace) = rec.finish_traced();
        assert_eq!(report.total.transfers, SIZES.len() as u64);
        assert!(report.by_bin.iter().all(|b| b.transfers == 1));
        assert!(trace.is_some());
    }
    bench::alloc::region(a0, bench::alloc::snapshot()).0
}

#[test]
fn a_rank_costs_its_own_state_and_shares_its_names() {
    let opts = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    let table = XferTimeTable::sample(1, 8 << 20, |b| 2_000 + b / 4);
    let few = calls(8, &opts, &table);
    let many = calls(32, &opts, &table);
    for (ranks, n) in [(8, few), (32, many)] {
        assert!(
            n <= PER_RANK * ranks,
            "{ranks} ranks made {n} allocator calls, {} per rank (budget {PER_RANK})",
            n / ranks
        );
    }
    assert!(
        many - few <= 24 * PER_RANK,
        "24 more ranks made {} more allocator calls (budget {}) — labels or metric \
         names are built per rank again",
        many - few,
        24 * PER_RANK
    );
}
