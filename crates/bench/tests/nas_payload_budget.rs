//! Payload memory of the NAS kernels and the ring allreduce.
//!
//! FT and IS build a rank's `np` all-to-all blocks as slices of one ramp
//! buffer, so a rank holds `block + np` payload bytes rather than `np·block`.
//! Filling one fresh buffer per block cost an FT class B run at 4 or 16
//! ranks about 67 MB and an IS class B run at 4 ranks about 17 MB. MG sends
//! slices of one face buffer per axis, built once per run for all its ranks,
//! where each rank filled a new one at every level visit; the ring
//! `iallreduce` folds and forwards the wire bytes it receives, where it
//! decoded and re-encoded every chunk.
//! These budgets are what keeps those copies from coming back.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use nasbench::runner::{run_benchmark, NasBenchmark};
use nasbench::Class;
use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, ReduceOp};
use simnet::NetConfig;

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// Megabytes allocated while `run` runs.
fn mb(run: impl FnOnce()) -> f64 {
    let a0 = bench::alloc::snapshot();
    run();
    let (_, bytes) = bench::alloc::region(a0, bench::alloc::snapshot());
    bytes as f64 / 1e6
}

/// Fails unless `got` MB stays under `budget_mb`; `copy` names the copy
/// that crossing it means is back.
fn assert_within(label: &str, got: f64, budget_mb: f64, copy: &str) {
    assert!(
        got < budget_mb,
        "{label}: {got:.1} MB allocated (budget {budget_mb} MB) — {copy}"
    );
}

/// An ML training step's reduction pattern: six 64 KiB gradient buckets,
/// each `iallreduce`d on 8 ranks right after its layer's compute, all in
/// flight before the first wait.
fn ring_buckets() {
    run_mpi(
        8,
        NetConfig::default(),
        MpiConfig::open_mpi_leave_pinned(),
        RecorderOpts::default(),
        |mpi| {
            let grad = vec![1.0f64; (64 << 10) / 8];
            let pending: Vec<_> = (0..6)
                .map(|_| {
                    mpi.compute(150_000);
                    mpi.iallreduce(&grad, ReduceOp::Sum)
                })
                .collect();
            for h in pending {
                mpi.icoll_wait(h);
            }
        },
    )
    .unwrap_or_else(|e| panic!("{}", e.one_line()));
}

#[test]
fn all_to_all_kernels_stay_inside_their_payload_budget() {
    let block = "a rank holds a buffer per block again";
    let face = "MG builds its faces per rank or per level visit again";
    for (bench, np, budget_mb, copy) in [
        (NasBenchmark::Ft, 4, 20.0, block),
        (NasBenchmark::Ft, 16, 8.0, block),
        (NasBenchmark::Is, 4, 6.0, block),
        // 7.5 and 7.4 MB measured; 18.0 and 18.0 with a face per visit.
        (NasBenchmark::MgArmciBlocking, 4, 8.3, face),
        (NasBenchmark::MgArmciNonBlocking, 4, 8.3, face),
    ] {
        let got = mb(|| {
            let (net, rec) = (NetConfig::default(), RecorderOpts::default());
            run_benchmark(bench, Class::B, np, net, rec);
        });
        let label = format!("{} class B np {np}", bench.name());
        assert_within(&label, got, budget_mb, copy);
    }
    // 7.5 MB measured; 18.5 MB when every chunk was decoded and re-encoded.
    assert_within(
        "8-rank ring iallreduce, six 64 KiB buckets",
        mb(ring_buckets),
        8.2,
        "the ring copies its chunks again",
    );
}
