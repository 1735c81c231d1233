//! Datacenter-scale smoke: a 4096-rank job on a fitted fat-tree must fit.
//!
//! The topology layer keeps per-rank state lean (routes are computed into a
//! reused buffer from flat precomputed tables shared via `Arc`, and the
//! background tenant is O(1) per *link*, not per rank), so steady-state
//! allocation per rank per iteration must stay small and — crucially — not
//! scale with the fabric size. The test measures the marginal allocation of
//! extra iterations at 4096 ranks, and then the fixed cost that excludes:
//! what a rank allocates to exist at all (recorder, library endpoint, its
//! share of the link tables) must not depend on how many ranks there are,
//! nor be a reservation sized for events the rank never logs.

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::{BackgroundJob, NetConfig, TopologySpec, TrafficPattern};

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const RANKS: usize = 4096;

/// One ring-exchange run; returns the counting-allocator (calls, bytes)
/// delta around it.
fn ring_run(ranks: usize, iters: u64) -> (u64, u64) {
    let net = NetConfig {
        model_ingress_contention: true,
        // 128 hosts as specced; `fitted` grows it to k=26 (4394 hosts).
        topology: TopologySpec::FatTree { k: 8 },
        background: Some(
            BackgroundJob::builder(TrafficPattern::Uniform)
                .msg_bytes(4096)
                .period_ns(200_000)
                .build(),
        ),
        ..NetConfig::infiniband_2006()
    };
    let a0 = bench::alloc::snapshot();
    run_mpi(
        ranks,
        net,
        MpiConfig::default(),
        RecorderOpts::default(),
        move |mpi| {
            let me = mpi.rank();
            let n = mpi.nranks();
            for i in 0..iters {
                let r = mpi.irecv(Src::Rank((me + n - 1) % n), TagSel::Is(i));
                let s = mpi.isend((me + 1) % n, i, &[7u8; 512]);
                mpi.wait(s);
                mpi.wait(r);
            }
        },
    )
    .unwrap_or_else(|e| panic!("{}", e.one_line()));
    bench::alloc::region(a0, bench::alloc::snapshot())
}

/// 4096 ranks on a fitted fat-tree with a background tenant complete a ring
/// exchange, and the marginal cost of extra iterations is bounded: well
/// under 64 KiB allocated per rank per iteration in steady state. One test,
/// because the allocation counters are process-wide.
#[test]
fn halo_4k_steady_state_allocs_are_bounded_per_rank() {
    let (_, b1) = ring_run(RANKS, 1);
    let (_, b3) = ring_run(RANKS, 3);
    let per_iter = b3.saturating_sub(b1) / 2;
    let per_rank = per_iter / RANKS as u64;
    assert!(
        per_rank < 64 * 1024,
        "steady-state allocation {per_rank} B/rank/iteration (total {per_iter} B/iteration) \
         — per-rank fabric state is no longer lean"
    );

    // The fixed cost: everything a one-iteration run allocates, per rank. An
    // O(nranks) term per rank (a private world member list: 32 KiB at 4096)
    // breaks the agreement; a capacity-sized event ring (128 KiB) breaks the
    // ceiling.
    let fixed_4k = b1 / RANKS as u64;
    let fixed_1k = ring_run(RANKS / 4, 1).1 / (RANKS as u64 / 4);
    assert!(
        fixed_4k < 64 * 1024 && fixed_4k.abs_diff(fixed_1k) * 10 <= fixed_1k,
        "a rank allocates {fixed_1k} B at {} ranks and {fixed_4k} B at {RANKS} \
         — per-rank state grows with the job, or reserves what it never uses",
        RANKS / 4
    );
}
