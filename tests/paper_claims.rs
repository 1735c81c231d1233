//! End-to-end checks of the paper's headline claims, at test-sized scale.
//! The full series live in the `bench` crate; these assertions pin the
//! *shapes* so a regression anywhere in the stack fails loudly.

use bench::micro::{overlap_sweep, Pairing};
use nasbench::runner::{run_benchmark, summarize, NasBenchmark};
use overlap_suite::prelude::*;

const REPS: usize = 40;

#[test]
fn fig3_shape_eager_full_overlap_ability() {
    let pts = overlap_sweep(
        MpiConfig::open_mpi_pipelined(),
        10 << 10,
        REPS,
        &[0, 15_000, 30_000],
        Pairing::IsendIrecv,
    );
    // Sender overlap grows to ~full.
    assert!(
        pts[2].snd_min > 90.0,
        "sender min plateau: {}",
        pts[2].snd_min
    );
    // Receiver minimum pinned at zero, maximum full (case 3 semantics).
    for p in &pts {
        assert_eq!(p.rcv_min, 0.0);
        assert!(p.rcv_max > 99.0);
    }
    // Wait time shrinks as overlap grows.
    assert!(pts[2].snd_wait_ns < pts[0].snd_wait_ns);
}

#[test]
fn fig4_vs_fig5_shape_pipelined_flat_direct_grows() {
    let computes = [250_000u64, 1_750_000];
    let pipe = overlap_sweep(
        MpiConfig::open_mpi_pipelined(),
        1 << 20,
        REPS,
        &computes,
        Pairing::IsendRecv,
    );
    let direct = overlap_sweep(
        MpiConfig::open_mpi_leave_pinned(),
        1 << 20,
        REPS,
        &computes,
        Pairing::IsendRecv,
    );
    // Pipelined: flat at the first-fragment share regardless of compute.
    assert!((pipe[0].snd_max - pipe[1].snd_max).abs() < 3.0);
    assert!((10.0..20.0).contains(&pipe[1].snd_max));
    // Direct: grows with compute, reaches ~full, wait collapses.
    assert!(direct[1].snd_min > 95.0);
    assert!(direct[1].snd_wait_ns < direct[0].snd_wait_ns / 3.0);
    // Crossover: with little compute the pipelined scheme's early fragment
    // beats direct's nothing-yet; with ample compute direct wins decisively.
    assert!(direct[1].snd_max > pipe[1].snd_max * 3.0);
}

#[test]
fn fig7_shape_direct_read_late_receiver_zero() {
    let pts = overlap_sweep(
        MpiConfig::open_mpi_leave_pinned(),
        1 << 20,
        REPS,
        &[1_000_000],
        Pairing::SendIrecv,
    );
    assert_eq!(pts[0].rcv_max, 0.0);
    assert_eq!(pts[0].rcv_min, 0.0);
}

#[test]
fn nas_ranking_matches_paper() {
    // Paper Sec. 4: LU highest, FT lowest, CG above BT.
    let run = |b| {
        let art = run_benchmark(
            b,
            Class::A,
            4,
            NetConfig::default(),
            RecorderOpts::default(),
        );
        summarize(b, Class::A, 4, &art).max_pct
    };
    let lu = run(NasBenchmark::Lu);
    let ft = run(NasBenchmark::Ft);
    let cg = run(NasBenchmark::Cg);
    let bt = run(NasBenchmark::Bt);
    assert!(
        lu > cg && cg > bt && bt > ft,
        "ranking violated: LU {lu} CG {cg} BT {bt} FT {ft}"
    );
    assert!(lu > 70.0);
    assert!(ft < 10.0);
}

#[test]
fn sp_tuning_story_holds_everywhere() {
    for (class, np) in [(Class::A, 4), (Class::A, 9), (Class::B, 4)] {
        let orig = run_benchmark(
            NasBenchmark::Sp,
            class,
            np,
            NetConfig::default(),
            RecorderOpts::default(),
        );
        let modi = run_benchmark(
            NasBenchmark::SpModified,
            class,
            np,
            NetConfig::default(),
            RecorderOpts::default(),
        );
        let o = &orig.reports[0];
        let m = &modi.reports[0];
        // Section overlap improves...
        let osec = &o.sections[nasbench::sp::SP_OVERLAP_SECTION];
        let msec = &m.sections[nasbench::sp::SP_OVERLAP_SECTION];
        assert!(
            msec.total.max_pct() > osec.total.max_pct() + 30.0,
            "{class}/{np}: section {} -> {}",
            osec.total.max_pct(),
            msec.total.max_pct()
        );
        // ...whole-code MPI time drops...
        assert!(
            m.comm_call_time < o.comm_call_time,
            "{class}/{np}: MPI time"
        );
        // ...but whole-code overlap stays capped by copy_faces volume.
        assert!(m.total.max_pct() < 70.0, "{class}/{np}: copy_faces cap");
    }
}

#[test]
fn fig19_story_armci_blocking_vs_nonblocking() {
    let bl = run_benchmark(
        NasBenchmark::MgArmciBlocking,
        Class::A,
        8,
        NetConfig::default(),
        RecorderOpts::default(),
    );
    let nb = run_benchmark(
        NasBenchmark::MgArmciNonBlocking,
        Class::A,
        8,
        NetConfig::default(),
        RecorderOpts::default(),
    );
    assert!(bl.reports[0].total.max_pct() < 5.0);
    assert!(nb.reports[0].total.max_pct() > 90.0);
    // And the non-blocking variant genuinely runs faster (the improvement
    // attributed to overlap in the paper's predecessor study [29]).
    assert!(nb.end_time() < bl.end_time());
}

#[test]
fn instrumentation_is_scalable_constant_memory() {
    // Queue flushes grow with traffic while aggregates stay exact: run the
    // same workload with a tiny and a huge ring and compare reports.
    let run_with = |capacity| {
        let rec = RecorderOpts {
            queue_capacity: capacity,
            ..Default::default()
        };
        run_mpi(2, NetConfig::default(), MpiConfig::default(), rec, |mpi| {
            for i in 0..300 {
                if mpi.rank() == 0 {
                    let r = mpi.isend(1, i, &[1u8; 2048]);
                    mpi.compute(us(20));
                    mpi.wait(r);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                }
            }
        })
        .unwrap()
    };
    let small = run_with(8);
    let big = run_with(1 << 16);
    assert!(small.reports[0].queue_flushes > 100);
    // The huge ring folds only once, at finalize.
    assert!(big.reports[0].queue_flushes <= 1);
    assert_eq!(small.reports[0].total, big.reports[0].total);
    assert_eq!(small.reports[1].total, big.reports[1].total);
}
