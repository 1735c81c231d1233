//! Payload memory of the NAS all-to-all kernels.
//!
//! FT and IS build a rank's `np` all-to-all blocks as slices of one ramp
//! buffer, so a rank holds `block + np` payload bytes rather than `np·block`.
//! Filling one fresh buffer per block cost an FT class B run at 4 or 16
//! ranks about 67 MB and an IS class B run at 4 ranks about 17 MB; these
//! budgets are what keeps that from coming back.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use nasbench::runner::{run_benchmark, NasBenchmark};
use nasbench::Class;
use overlap_core::RecorderOpts;
use simnet::NetConfig;

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// Megabytes allocated by one class B run of `bench` on `np` ranks.
fn class_b_mb(bench: NasBenchmark, np: usize) -> f64 {
    let a0 = bench::alloc::snapshot();
    run_benchmark(
        bench,
        Class::B,
        np,
        NetConfig::default(),
        RecorderOpts::default(),
    );
    let (_, bytes) = bench::alloc::region(a0, bench::alloc::snapshot());
    bytes as f64 / 1e6
}

#[test]
fn all_to_all_kernels_stay_inside_their_payload_budget() {
    for (bench, np, budget_mb) in [
        (NasBenchmark::Ft, 4, 20.0),
        (NasBenchmark::Ft, 16, 8.0),
        (NasBenchmark::Is, 4, 6.0),
    ] {
        let mb = class_b_mb(bench, np);
        assert!(
            mb < budget_mb,
            "{} class B np {np}: {mb:.1} MB allocated (budget {budget_mb} MB) \
             — a rank holds a buffer per block again",
            bench.name()
        );
    }
}
