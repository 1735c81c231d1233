//! Edge-case tests for the windowed time-resolved series
//! (`overlap_core::trace::windowed`).
//!
//! The windowed fold backs the `trace_windows` section of `repro --json`
//! reports, so its boundary behaviour (empty ranks, events landing exactly
//! on window edges, call spans crossing windows, calls still open at
//! shutdown) must be pinned down.

use overlap_core::bounds::XferCase;
use overlap_core::trace::{default_window_width, windowed, BoundRecord, RankTrace, TraceBundle};
use overlap_core::{Event, EventKind};

fn ev(t: u64, kind: EventKind) -> Event {
    Event::new(t, kind)
}

fn bound(end_t: u64, min: u64, max: u64) -> BoundRecord {
    BoundRecord {
        id: Some(1),
        bytes: 1024,
        begin_t: None,
        end_t,
        xfer_time: 0,
        min,
        max,
        case: XferCase::SingleStamp,
        flagged: false,
        clamped: false,
    }
}

fn rank(rank: usize, events: Vec<Event>, bounds: Vec<BoundRecord>) -> RankTrace {
    RankTrace {
        rank,
        events,
        bounds,
        waits: vec![],
    }
}

#[test]
fn empty_bundle_yields_no_windows() {
    let bundle = TraceBundle::default();
    assert!(windowed(&bundle, 100).is_empty());
    assert_eq!(default_window_width(&bundle), 1);
}

#[test]
fn empty_rank_contributes_nothing() {
    // Rank 1 recorded nothing (e.g. a pure-compute rank): the fold must
    // neither panic nor perturb the populated rank's rows.
    let populated = vec![rank(
        0,
        vec![
            ev(0, EventKind::CallEnter { name: "MPI_Wait" }),
            ev(40, EventKind::CallExit),
        ],
        vec![bound(40, 10, 20)],
    )];
    let mut with_empty = populated.clone();
    with_empty.push(rank(1, Vec::new(), Vec::new()));

    let a = windowed(
        &TraceBundle {
            scope: "t/a".into(),
            ranks: populated,
            extras: Vec::new(),
        },
        16,
    );
    let b = windowed(
        &TraceBundle {
            scope: "t/b".into(),
            ranks: with_empty,
            extras: Vec::new(),
        },
        16,
    );
    assert_eq!(a, b);
    assert_eq!(a.iter().map(|w| w.transfers).sum::<u64>(), 1);
}

#[test]
fn single_event_bundle_gets_one_covering_window() {
    // A bundle whose span is a single instant: exactly one window, anchored
    // at the event and keeping its full width.
    let bundle = TraceBundle {
        scope: "t/single".into(),
        ranks: vec![rank(0, Vec::new(), vec![bound(1_000, 3, 7)])],
        extras: Vec::new(),
    };
    let rows = windowed(&bundle, 100);
    assert_eq!(rows.len(), 1);
    assert_eq!((rows[0].start, rows[0].end), (1_000, 1_100));
    assert_eq!(rows[0].transfers, 1);
    assert_eq!(rows[0].min_overlap_ns, 3);
    assert_eq!(rows[0].max_overlap_ns, 7);
}

#[test]
fn event_exactly_on_a_window_boundary_lands_in_the_later_window() {
    // Windows are half-open [start, end): a close at t0 + width belongs to
    // window 1, not window 0.
    let bundle = TraceBundle {
        scope: "t/boundary".into(),
        ranks: vec![rank(0, Vec::new(), vec![bound(0, 0, 0), bound(100, 5, 9)])],
        extras: Vec::new(),
    };
    let rows = windowed(&bundle, 100);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].transfers, 1);
    assert_eq!(rows[1].transfers, 1);
    assert_eq!(rows[1].min_overlap_ns, 5);
    // The final window is stretched to cover the last timestamp.
    assert!(rows[1].end > 100);
}

#[test]
fn call_spanning_windows_splits_wait_exactly() {
    // One top-level call from 50 to 450 under width 100: the in-call time
    // must split 50/100/100/100/50 across the five windows with no ns lost.
    let bundle = TraceBundle {
        scope: "t/fold".into(),
        ranks: vec![rank(
            0,
            vec![
                ev(
                    0,
                    EventKind::CallEnter {
                        name: "MPI_Barrier",
                    },
                ),
                ev(0, EventKind::CallExit),
                ev(50, EventKind::CallEnter { name: "MPI_Wait" }),
                ev(450, EventKind::CallExit),
            ],
            Vec::new(),
        )],
        extras: Vec::new(),
    };
    let rows = windowed(&bundle, 100);
    assert_eq!(rows.len(), 5);
    let waits: Vec<u64> = rows.iter().map(|w| w.wait_ns).collect();
    assert_eq!(waits, vec![50, 100, 100, 100, 50]);
    assert_eq!(waits.iter().sum::<u64>(), 400);
}

#[test]
fn nested_calls_count_only_the_outermost_span() {
    // A nested CallEnter (library calling into itself) must not double-count
    // wait time: only the outer [10, 90] span is credited.
    let bundle = TraceBundle {
        scope: "t/nested".into(),
        ranks: vec![rank(
            0,
            vec![
                ev(
                    10,
                    EventKind::CallEnter {
                        name: "MPI_Waitall",
                    },
                ),
                ev(20, EventKind::CallEnter { name: "MPI_Test" }),
                ev(30, EventKind::CallExit),
                ev(90, EventKind::CallExit),
            ],
            Vec::new(),
        )],
        extras: Vec::new(),
    };
    let rows = windowed(&bundle, 1_000);
    assert_eq!(rows.iter().map(|w| w.wait_ns).sum::<u64>(), 80);
}

#[test]
fn call_open_at_shutdown_credits_wait_to_span_end() {
    // A call with no exit (rank died / trace truncated) is folded as if it
    // ran to the bundle's last timestamp.
    let bundle = TraceBundle {
        scope: "t/open".into(),
        ranks: vec![rank(
            0,
            vec![ev(10, EventKind::CallEnter { name: "MPI_Recv" })],
            vec![bound(310, 0, 0)],
        )],
        extras: Vec::new(),
    };
    let rows = windowed(&bundle, 100);
    assert_eq!(rows.iter().map(|w| w.wait_ns).sum::<u64>(), 300);
}
