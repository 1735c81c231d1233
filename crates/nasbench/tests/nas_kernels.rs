//! NAS kernels: all run to completion, payloads verify, and the overlap
//! characteristics match the paper's qualitative findings (Sec. 4).

use nasbench::runner::{run_benchmark, summarize, NasBenchmark, RunArtifacts};
use nasbench::Class;
use overlap_core::RecorderOpts;
use simnet::NetConfig;

fn run(bench: NasBenchmark, class: Class, np: usize) -> RunArtifacts {
    run_benchmark(
        bench,
        class,
        np,
        NetConfig::default(),
        RecorderOpts::default(),
    )
}

#[test]
fn every_benchmark_completes_at_class_s() {
    for (bench, np) in [
        (NasBenchmark::Bt, 4),
        (NasBenchmark::Cg, 4),
        (NasBenchmark::Lu, 4),
        (NasBenchmark::Ft, 4),
        (NasBenchmark::Sp, 4),
        (NasBenchmark::SpModified, 4),
        (NasBenchmark::MgMpi, 4),
        (NasBenchmark::MgArmciBlocking, 4),
        (NasBenchmark::MgArmciNonBlocking, 4),
        (NasBenchmark::Ep, 4),
        (NasBenchmark::Is, 4),
    ] {
        let art = run(bench, Class::S, np);
        let s = summarize(bench, Class::S, np, &art);
        assert!(s.elapsed_ms > 0.0, "{} produced no work", bench.name());
        assert!(
            s.min_pct <= s.max_pct + 1e-9,
            "{}: min {} > max {}",
            bench.name(),
            s.min_pct,
            s.max_pct
        );
    }
}

#[test]
fn sp_and_bt_work_at_nine_ranks() {
    for bench in [NasBenchmark::Sp, NasBenchmark::Bt] {
        let art = run(bench, Class::S, 9);
        assert!(summarize(bench, Class::S, 9, &art).transfers > 0);
    }
}

#[test]
fn ep_is_a_negative_control() {
    let art = run(NasBenchmark::Ep, Class::S, 4);
    let s = summarize(NasBenchmark::Ep, Class::S, 4, &art);
    // Minimal communication: data transfer time is a sliver of elapsed time.
    assert!(
        s.data_transfer_ms < 0.05 * s.elapsed_ms,
        "EP communicates too much"
    );
}

#[test]
fn ft_has_low_overlap_class_a() {
    let art = run(NasBenchmark::Ft, Class::A, 4);
    let s = summarize(NasBenchmark::Ft, Class::A, 4, &art);
    assert!(
        s.max_pct < 30.0,
        "FT should have low overlap (blocking alltoall), got {}",
        s.max_pct
    );
}

#[test]
fn lu_has_high_overlap_class_a() {
    let art = run(NasBenchmark::Lu, Class::A, 4);
    let s = summarize(NasBenchmark::Lu, Class::A, 4, &art);
    assert!(
        s.max_pct > 70.0,
        "LU should exceed 70% max overlap (paper Fig. 12), got {}",
        s.max_pct
    );
}

#[test]
fn cg_overlaps_more_than_bt() {
    let cg = summarize(
        NasBenchmark::Cg,
        Class::A,
        4,
        &run(NasBenchmark::Cg, Class::A, 4),
    );
    let bt = summarize(
        NasBenchmark::Bt,
        Class::A,
        4,
        &run(NasBenchmark::Bt, Class::A, 4),
    );
    assert!(
        cg.max_pct > bt.max_pct,
        "CG ({}) should out-overlap BT ({}) — paper Sec. 4.1",
        cg.max_pct,
        bt.max_pct
    );
}

#[test]
fn sp_modification_improves_overlap_section() {
    let orig = run(NasBenchmark::Sp, Class::A, 9);
    let modified = run(NasBenchmark::SpModified, Class::A, 9);
    let sec = |art: &RunArtifacts| {
        art.reports()[0]
            .sections
            .get(nasbench::sp::SP_OVERLAP_SECTION)
            .expect("overlap section monitored")
            .total
            .max_pct()
    };
    let (o, m) = (sec(&orig), sec(&modified));
    assert!(
        m > o + 20.0,
        "modified SP should raise section overlap markedly: {o} -> {m}"
    );
    assert!(m > 80.0, "modified section overlap should be high, got {m}");
    // The whole-code MPI time must drop too (paper Fig. 18).
    let (orig, modified) = (&orig.reports()[0], &modified.reports()[0]);
    assert!(
        modified.comm_call_time < orig.comm_call_time,
        "MPI time should drop: {} -> {}",
        orig.comm_call_time,
        modified.comm_call_time
    );
}

#[test]
fn mg_nonblocking_armci_out_overlaps_blocking() {
    let bl = summarize(
        NasBenchmark::MgArmciBlocking,
        Class::A,
        8,
        &run(NasBenchmark::MgArmciBlocking, Class::A, 8),
    );
    let nb = summarize(
        NasBenchmark::MgArmciNonBlocking,
        Class::A,
        8,
        &run(NasBenchmark::MgArmciNonBlocking, Class::A, 8),
    );
    assert!(
        bl.max_pct < 10.0,
        "blocking ARMCI puts are case-1: got {}",
        bl.max_pct
    );
    assert!(
        nb.max_pct > 90.0,
        "non-blocking ARMCI should approach the paper's 99%: got {}",
        nb.max_pct
    );
}

#[test]
fn instrumentation_can_be_disabled() {
    let rec = RecorderOpts {
        enabled: false,
        ..Default::default()
    };
    let art = run_benchmark(NasBenchmark::Cg, Class::S, 4, NetConfig::default(), rec);
    let r = &art.reports()[0];
    assert_eq!(r.events_recorded, 0);
    assert_eq!(r.total.transfers, 0);
}

#[test]
fn virtual_time_is_deterministic() {
    let a = run(NasBenchmark::Sp, Class::S, 4).end_time();
    let b = run(NasBenchmark::Sp, Class::S, 4).end_time();
    assert_eq!(a, b, "identical runs must produce identical virtual times");
}

#[test]
fn ft_nonblocking_transpose_recovers_overlap() {
    // The extension the paper's FT analysis motivates: replace the blocking
    // Alltoall with Ialltoall overlapped against the local FFT pass.
    let blocking = summarize(
        NasBenchmark::Ft,
        Class::A,
        4,
        &run(NasBenchmark::Ft, Class::A, 4),
    );
    let nb = summarize(
        NasBenchmark::FtNb,
        Class::A,
        4,
        &run(NasBenchmark::FtNb, Class::A, 4),
    );
    assert!(blocking.max_pct < 10.0, "blocking FT: {}", blocking.max_pct);
    assert!(
        nb.max_pct > 50.0,
        "non-blocking FT should recover overlap: {}",
        nb.max_pct
    );
    assert!(
        nb.elapsed_ms < blocking.elapsed_ms,
        "overlap should shorten the run: {} vs {}",
        nb.elapsed_ms,
        blocking.elapsed_ms
    );
}
