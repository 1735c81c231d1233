//! How often the engine hands control to a rank, on a scaled-down
//! `halo-4k`: a 256-rank (16 x 16) halo exchange on a fitted fat-tree with
//! ingress contention and a background tenant, wait tracing on.
//!
//! A polling library's wait is poll, park, poll again. The engine finishes
//! the park that follows an idle poll and the poll that follows a wake-up
//! itself (`simcore::RankCtx::wait`), so the rank is resumed only when there
//! is something to do. The entry count is pinned: finishing those steps in
//! the engine must not add, drop or reorder a single queue entry.

use bytes::Bytes;
use overlap_core::RecorderOpts;
use simcore::{RankRuntime, SimOpts};
use simmpi::{default_xfer_table, run_mpi_with, MpiConfig, RunOutcome, Src, TagSel};
use simnet::{BackgroundJob, NetConfig, TopologySpec};

const SIDE: usize = 16;

/// Queue entries of the run below; the same before and after the engine
/// took over the idle steps of a wait.
const EVENTS: u64 = 65_138;
/// Rank resumes of the run below when every step of a wait resumed the
/// rank; with the engine finishing the idle ones it takes 37 791.
const RESUMES_BEFORE: u64 = 54_898;

fn halo(runtime: RankRuntime) -> RunOutcome {
    let net = NetConfig {
        model_ingress_contention: true,
        topology: TopologySpec::FatTree { k: 8 },
        background: Some(BackgroundJob {
            msg_bytes: 8 << 10,
            period_ns: 200_000,
        }),
        ..NetConfig::infiniband_2006()
    };
    let rec = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    let table = default_xfer_table(&net);
    let opts = SimOpts {
        runtime,
        ..SimOpts::default()
    };
    run_mpi_with(
        SIDE * SIDE,
        net,
        MpiConfig::open_mpi_leave_pinned(),
        rec,
        table,
        opts,
        |mpi| {
            let me = mpi.rank();
            let (x, y) = (me % SIDE, me / SIDE);
            let at = |x: usize, y: usize| (y % SIDE) * SIDE + (x % SIDE);
            let neighbors = [
                at(x + 1, y),
                at(x + SIDE - 1, y),
                at(x, y + 1),
                at(x, y + SIDE - 1),
            ];
            let msg = Bytes::from(vec![1u8; 16 << 10]);
            for iter in 0..2u64 {
                let recvs: Vec<_> = neighbors
                    .iter()
                    .map(|&nb| mpi.irecv(Src::Rank(nb), TagSel::Is(iter)))
                    .collect();
                let sends: Vec<_> = neighbors
                    .iter()
                    .map(|&nb| mpi.isend(nb, iter, &msg))
                    .collect();
                mpi.compute(150_000);
                mpi.waitall(&sends);
                mpi.waitall(&recvs);
            }
        },
    )
    .expect("the halo completes")
}

#[test]
fn idle_wait_steps_do_not_resume_the_rank() {
    let out = halo(RankRuntime::Coroutine);
    assert_eq!(out.sim.events_processed, EVENTS);
    assert!(
        out.sim.resumes * 4 <= RESUMES_BEFORE * 3,
        "{} resumes, more than 75 % of {RESUMES_BEFORE}",
        out.sim.resumes
    );
}

#[test]
fn thread_hosted_ranks_resume_as_often() {
    let fibers = halo(RankRuntime::Coroutine);
    let threads = halo(RankRuntime::OsThreads);
    assert_eq!(fibers.end_time(), threads.end_time());
    assert_eq!(fibers.sim.resumes, threads.sim.resumes);
    assert_eq!(
        format!("{:?}", fibers.reports),
        format!("{:?}", threads.reports)
    );
}
