//! Allocation budget of the payload data path.
//!
//! A `Bytes` handed to `isend` travels by reference to the receiver's
//! `Status`: direct RDMA-Read rendezvous allocates nothing per payload byte,
//! and the pipelined RDMA-Write scheme allocates exactly the receiver's one
//! landing buffer. The host copies the simulator used to make on top were
//! 70 % of the figure suite's allocation; this test is what keeps them from
//! coming back, independently of the (frozen) `benchmark/` ledger.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use bytes::Bytes;
use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::NetConfig;

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const SENDS: u64 = 50;
const LEN: usize = 1 << 20;

/// Bytes allocated per payload byte sent by `SENDS` one-way 1 MiB messages.
fn alloc_per_byte_sent(cfg: MpiConfig) -> f64 {
    let msg = Bytes::from(vec![0x5Au8; LEN]);
    let a0 = bench::alloc::snapshot();
    run_mpi(
        2,
        NetConfig::default(),
        cfg,
        RecorderOpts::default(),
        move |mpi| {
            for i in 0..SENDS {
                if mpi.rank() == 0 {
                    let s = mpi.isend(1, i, &msg);
                    mpi.wait(s);
                } else {
                    let got = mpi.recv(Src::Rank(0), TagSel::Is(i)).into_data();
                    assert_eq!((got.len(), got[0], got[LEN - 1]), (LEN, 0x5A, 0x5A));
                }
            }
        },
    )
    .unwrap_or_else(|e| panic!("{}", e.one_line()));
    let (_, bytes) = bench::alloc::region(a0, bench::alloc::snapshot());
    bytes as f64 / (SENDS as f64 * LEN as f64)
}

#[test]
fn large_sends_stay_inside_their_allocation_budget() {
    for (name, cfg, budget) in [
        ("direct, cached", MpiConfig::open_mpi_leave_pinned(), 0.25),
        (
            "direct, uncached",
            MpiConfig {
                use_reg_cache: false,
                ..MpiConfig::open_mpi_leave_pinned()
            },
            0.25,
        ),
        ("pipelined", MpiConfig::open_mpi_pipelined(), 1.25),
    ] {
        let per_byte = alloc_per_byte_sent(cfg);
        assert!(
            per_byte < budget,
            "{name}: {per_byte:.3} bytes allocated per byte sent (budget {budget}) \
             — a host copy is back on the payload path"
        );
    }
}
