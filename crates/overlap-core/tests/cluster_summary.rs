//! Cluster-level report merging.

use overlap_core::{ClusterSummary, ManualClock, Recorder, RecorderOpts, XferTimeTable};

fn one_report(rank: usize, n_xfers: u64, compute_per: u64) -> overlap_core::OverlapReport {
    let clock = ManualClock::new();
    let table = XferTimeTable::from_points(vec![(1, 500)]);
    let mut r = Recorder::new(
        rank,
        Box::new(clock.clone()),
        table,
        RecorderOpts::default(),
    );
    for i in 0..n_xfers {
        r.call_enter("Isend");
        r.xfer_begin(i, 1000);
        clock.advance(10);
        r.call_exit();
        clock.advance(compute_per);
        r.call_enter("Wait");
        clock.advance(10);
        r.xfer_end(i, 1000);
        r.call_exit();
    }
    r.finish_traced().0
}

#[test]
fn merge_sums_and_tracks_extremes() {
    // Rank 0 overlaps fully (ample compute); rank 1 not at all (none).
    let r0 = one_report(0, 10, 10_000);
    let r1 = one_report(1, 5, 0);
    let sum = ClusterSummary::merge(&[r0.clone(), r1.clone()]);
    assert_eq!(sum.ranks, 2);
    assert_eq!(sum.total.transfers, 15);
    assert_eq!(
        sum.total.data_transfer_time,
        r0.total.data_transfer_time + r1.total.data_transfer_time
    );
    assert!(sum.best_max_pct > 95.0);
    assert!(sum.worst_max_pct < 5.0);
    assert_eq!(
        sum.user_compute_time,
        r0.user_compute_time + r1.user_compute_time
    );
    // Per-bin sums line up with the total.
    let bin_total: u64 = sum.by_bin.iter().map(|b| b.transfers).sum();
    assert_eq!(bin_total, sum.total.transfers);
}

#[test]
fn merge_single_report_is_identity() {
    let r = one_report(3, 4, 100);
    let sum = ClusterSummary::merge(std::slice::from_ref(&r));
    assert_eq!(sum.ranks, 1);
    assert_eq!(sum.total, r.total);
    assert_eq!(sum.worst_max_pct, sum.best_max_pct);
}

#[test]
fn render_text_mentions_rank_count_and_bins() {
    let sum = ClusterSummary::merge(&[one_report(0, 3, 1000), one_report(1, 3, 1000)]);
    let text = sum.render_text();
    assert!(text.contains("2 ranks"));
    assert!(text.contains("transfers 6"));
}

#[test]
#[should_panic(expected = "nothing to merge")]
fn merge_empty_panics() {
    ClusterSummary::merge(&[]);
}

#[test]
fn merge_roundtrips_through_json() {
    let sum = ClusterSummary::merge(&[one_report(0, 2, 50)]);
    let json = serde_json::to_string(&sum).unwrap();
    let back: ClusterSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(back.total, sum.total);
    assert_eq!(back.ranks, sum.ranks);
}
