//! Allocation budget of the ground-truth join.
//!
//! `RunOutcome::joined` builds its index once per call (the fabric transfers
//! sorted by id, the pipelined-rest map) and then answers every bound record
//! in place: a binary search for the transfers behind it, and per transfer
//! `ActivityLog::compute_overlap_with` on the rank's already sorted, merged
//! log, with no copy of its compute intervals. The soundness check and every
//! truth and slack column read the join, so an allocation per record or per
//! transfer grows with the run; here the calls stay equal as the run doubles.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::NetConfig;

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const LEN: usize = 64 << 10;
/// Compute the sender does while a message is in flight, in ns.
const COMPUTE: u64 = 100_000;
/// Allocator calls one join may make, whatever the run's size.
const BUDGET: u64 = 4;

/// Allocator calls of one pass over the join of a traced `sends`-message
/// exchange, and the truth it summed.
fn join_calls(sends: u64) -> (u64, u64) {
    let msg = vec![0x5Au8; LEN];
    let rec = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    let out = run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::open_mpi_leave_pinned(),
        rec,
        move |mpi| {
            for i in 0..sends {
                if mpi.rank() == 0 {
                    let req = mpi.isend(1, i, &msg);
                    mpi.compute(COMPUTE);
                    mpi.wait(req);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                }
            }
        },
    )
    .unwrap_or_else(|e| panic!("{}", e.one_line()));
    assert_eq!(out.transfers.len() as u64, sends);

    let a0 = bench::alloc::snapshot();
    let (records, truth) = out
        .joined()
        .fold((0u64, 0u64), |(n, t), j| (n + j.joined as u64, t + j.truth));
    let (calls, _) = bench::alloc::region(a0, bench::alloc::snapshot());
    assert_eq!(records, 2 * sends, "both sides of every send joined");
    (calls, truth)
}

#[test]
fn the_join_allocates_nothing_per_record() {
    let (small, small_truth) = join_calls(50);
    let (large, large_truth) = join_calls(100);
    assert!(
        small_truth > 0,
        "the sender's computes overlap the transfers"
    );
    assert!(large_truth > small_truth);
    assert_eq!(small, large, "{small} calls at 50 sends, {large} at 100");
    assert!(small <= BUDGET, "{small} allocator calls for one join");
}
