//! Benchmark wiring through the public API: the paper's environments,
//! unique report names, and the one difference between the SP variants.

use nasbench::runner::{run_benchmark, NasBenchmark};
use nasbench::Class;
use overlap_core::{OverlapReport, RecorderOpts};
use simmpi::RndvMode;
use simnet::NetConfig;

#[test]
fn sp_variants_differ_only_in_probes() {
    // Same transfers and the same monitored section; the modified variant
    // adds `MPI_Iprobe` calls and no other call.
    let run = |b| {
        run_benchmark(
            b,
            Class::S,
            4,
            NetConfig::default(),
            RecorderOpts::default(),
        )
    };
    let (orig, modified) = (run(NasBenchmark::Sp), run(NasBenchmark::SpModified));
    let (o, m) = (&orig.reports[0], &modified.reports[0]);
    assert_eq!(o.total.transfers, m.total.transfers);
    assert!(o.sections.keys().eq(m.sections.keys()));
    let other_calls = |r: &OverlapReport| -> Vec<(String, u64)> {
        r.calls
            .iter()
            .filter(|(name, _)| *name != "MPI_Iprobe")
            .map(|(name, c)| (name.clone(), c.count))
            .collect()
    };
    assert_eq!(other_calls(o), other_calls(m));
    assert!(!o.calls.contains_key("MPI_Iprobe"));
    assert!(m.calls["MPI_Iprobe"].count > 0);
}

#[test]
fn paper_environments_match_section_4() {
    // BT and CG ran under Open MPI's pipelined mode; LU, FT, SP under
    // MVAPICH2 (direct read).
    assert_eq!(
        NasBenchmark::Bt.paper_env().rndv_mode,
        RndvMode::PipelinedWrite
    );
    assert_eq!(
        NasBenchmark::Cg.paper_env().rndv_mode,
        RndvMode::PipelinedWrite
    );
    for b in [
        NasBenchmark::Lu,
        NasBenchmark::Ft,
        NasBenchmark::Sp,
        NasBenchmark::SpModified,
    ] {
        assert_eq!(b.paper_env().rndv_mode, RndvMode::DirectRead);
    }
}

#[test]
fn benchmark_names_are_unique() {
    let all = [
        NasBenchmark::Bt,
        NasBenchmark::Cg,
        NasBenchmark::Lu,
        NasBenchmark::Ft,
        NasBenchmark::Sp,
        NasBenchmark::SpModified,
        NasBenchmark::MgMpi,
        NasBenchmark::MgArmciBlocking,
        NasBenchmark::MgArmciNonBlocking,
        NasBenchmark::Ep,
        NasBenchmark::Is,
    ];
    let mut names: Vec<_> = all.iter().map(|b| b.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len());
}
