//! Smoke tests for the figure/ablation harnesses themselves: every entry is
//! invokable, well-formed, and the cheap ones keep their paper shapes.

use bench::micro::{overlap_sweep, Pairing};
use bench::Series;
use simmpi::MpiConfig;

fn assert_well_formed(s: &Series) {
    assert!(!s.columns.is_empty(), "{}: no columns", s.id);
    assert!(!s.rows.is_empty(), "{}: no rows", s.id);
    for row in &s.rows {
        assert_eq!(row.len(), s.columns.len(), "{}: ragged row", s.id);
    }
    let text = s.render();
    assert!(text.contains(s.id));
}

#[test]
fn harness_registry_ids_are_unique_and_match() {
    let mut ids: Vec<&str> = bench::figures::all()
        .iter()
        .map(|h| h.id)
        .chain(bench::ablations::all().iter().map(|h| h.id))
        .collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate harness ids");
    assert_eq!(
        bench::figures::all().len(),
        18,
        "one harness per paper figure 3..20"
    );
    for h in bench::figures::all().iter().chain(&bench::ablations::all()) {
        assert!(h.ranks >= 2, "{}: implausible rank count", h.id);
    }
}

#[test]
fn micro_sweep_smoke_preserves_fig3_shape() {
    let pts = overlap_sweep(
        MpiConfig::open_mpi_pipelined(),
        10 << 10,
        20,
        &[0, 20_000],
        Pairing::IsendIrecv,
    );
    assert_eq!(pts.len(), 2);
    assert!(pts[1].snd_min > pts[0].snd_min);
    assert_eq!(pts[0].rcv_min, 0.0);
    assert_eq!(pts[1].rcv_min, 0.0);
}

#[test]
fn cheap_harnesses_produce_well_formed_series() {
    // Run the fastest harnesses end to end (`repro` runs the full set).
    for f in [
        bench::ablations::ablation_queue_capacity as bench::HarnessFn,
        bench::ablations::ablation_eager_threshold,
    ] {
        assert_well_formed(&f());
    }
}
