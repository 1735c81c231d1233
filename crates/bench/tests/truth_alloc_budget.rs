//! Allocation budget of the ground-truth overlap query.
//!
//! A rank's activity log is already sorted, disjoint and merged, so
//! `ActivityLog::compute_overlap_with` answers from it in place: a binary
//! search and a sum, no copy of the rank's compute intervals per transfer.
//! The soundness check and every `true_overlap` column ask it once per
//! transfer, so an allocation there grows with the run.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::NetConfig;

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const SENDS: u64 = 50;
const LEN: usize = 64 << 10;
/// Compute the sender does while a message is in flight, in ns.
const COMPUTE: u64 = 100_000;

#[test]
fn true_overlap_allocates_nothing() {
    let msg = vec![0x5Au8; LEN];
    let out = run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::open_mpi_leave_pinned(),
        RecorderOpts::default(),
        move |mpi| {
            for i in 0..SENDS {
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
    assert_eq!(out.transfers.len() as u64, SENDS);

    let a0 = bench::alloc::snapshot();
    let truth = out.true_overlap(0) + out.true_overlap(1);
    let (calls, _) = bench::alloc::region(a0, bench::alloc::snapshot());
    assert!(truth > 0, "the sender's computes overlap the transfers");
    assert_eq!(calls, 0, "{calls} allocations for {SENDS} transfers");
}
