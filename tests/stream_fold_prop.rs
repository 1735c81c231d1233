//! Batch/stream equivalence on random event streams.
//!
//! `Processor` and `SessionFold` drive one fold (`overlap_core`'s
//! `fold::RankFold`), so what is left to go wrong between them is the part
//! each driver adds: bound derivation and the finish sweep on the batch side,
//! the JSONL round trip and the choice of end time on the stream side. This
//! suite drives random programs — clock skew, unbalanced exits, duplicate
//! `XFER_BEGIN`, orphan `XFER_FLAG`, end-only stamps and unbalanced sections
//! included — through traced [`Recorder`]s, exports them with [`jsonl`],
//! folds the text with [`SessionFold`], and holds every served view to the
//! batch one.
//!
//! One thing the export cannot carry is a finish time later than every
//! stamp, so the recorders here finish at their largest stamp (as every
//! harness does: `MPI_Finalize` is its last call).

use std::cell::Cell;
use std::rc::Rc;

use overlap_core::attribution::WaitCause;
use overlap_core::stream::SessionFold;
use overlap_core::trace::{default_window_width, jsonl, windowed, ExtraEvent, TraceBundle};
use overlap_core::{ClusterSummary, OverlapReport, Recorder, RecorderOpts, XferTimeTable};
use proptest::prelude::*;

const CALLS: [&str; 4] = ["MPI_Isend", "MPI_Irecv", "MPI_Wait", "MPI_Bcast"];
const SECTIONS: [&str; 2] = ["solve", "exchange"];
const SCOPE: &str = "prop/scope";

/// One step of a generated program. Transfer ids come from a pool of six, so
/// begins repeat, ends miss, and flags land on closed transfers.
#[derive(Debug, Clone)]
enum Op {
    Advance(u64),
    /// Turn the clock back: the next stamps run behind the cursor.
    Skew(u64),
    Enter(usize),
    Exit,
    Begin(u64, u64),
    End(u64, u64),
    Flag(u64),
    SectionBegin(usize),
    SectionEnd,
    /// A classified wait over the last `len` ns.
    Wait(u64, usize, Option<u64>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..5_000).prop_map(Op::Advance),
        (0u64..5_000).prop_map(Op::Advance),
        (1u64..3_000).prop_map(Op::Skew),
        (0usize..CALLS.len()).prop_map(Op::Enter),
        (0usize..CALLS.len()).prop_map(Op::Enter),
        Just(Op::Exit),
        Just(Op::Exit),
        Just(Op::Exit),
        (0u64..6, 1u64..1_000_000).prop_map(|(id, bytes)| Op::Begin(id, bytes)),
        (0u64..6, 1u64..1_000_000).prop_map(|(id, bytes)| Op::Begin(id, bytes)),
        (0u64..6, 1u64..1_000_000).prop_map(|(id, bytes)| Op::End(id, bytes)),
        (0u64..6, 1u64..1_000_000).prop_map(|(id, bytes)| Op::End(id, bytes)),
        (0u64..6).prop_map(Op::Flag),
        (0usize..SECTIONS.len()).prop_map(Op::SectionBegin),
        Just(Op::SectionEnd),
        (
            1u64..4_000,
            0usize..WaitCause::ALL.len(),
            prop::option::of(0u64..6)
        )
            .prop_map(|(len, cause, xfer)| Op::Wait(len, cause, xfer)),
    ]
}

/// A scope: per rank a recorder ring capacity and a program, plus the stamps
/// of some fabric extras.
type Scope = (Vec<(usize, Vec<Op>)>, Vec<u64>);

fn arb_scope() -> impl Strategy<Value = Scope> {
    (
        prop::collection::vec((2usize..40, prop::collection::vec(arb_op(), 0..90)), 1..4),
        prop::collection::vec(0u64..200_000, 0..4),
    )
}

/// Run every rank's program through a traced recorder.
fn record((programs, extras): &Scope) -> (Vec<OverlapReport>, TraceBundle) {
    let mut reports = Vec::new();
    let mut bundle = TraceBundle {
        scope: SCOPE.to_string(),
        ranks: Vec::new(),
        extras: extras
            .iter()
            .map(|&t| ExtraEvent {
                t,
                name: "fault.dropped".to_string(),
                detail: "src 0 -> dst 1".to_string(),
            })
            .collect(),
    };
    for (rank, (queue_capacity, ops)) in programs.iter().enumerate() {
        let now = Rc::new(Cell::new(0u64));
        // The recorder reads the clock once per stamp.
        let last_stamp = Rc::new(Cell::new(0u64));
        let (clock, stamped) = (now.clone(), last_stamp.clone());
        let mut rec = Recorder::new(
            rank,
            Box::new(move || {
                stamped.set(stamped.get().max(clock.get()));
                clock.get()
            }),
            XferTimeTable::sample(1, 2 << 20, |b| 5_000 + b),
            RecorderOpts {
                queue_capacity: *queue_capacity,
                trace: true,
                ..RecorderOpts::default()
            },
        );
        // A rank with no event lines is not in the stream at all.
        rec.call_enter("MPI_Init");
        rec.call_exit();
        for op in ops {
            match *op {
                Op::Advance(d) => now.set(now.get() + d),
                Op::Skew(d) => now.set(now.get().saturating_sub(d)),
                Op::Enter(i) => rec.call_enter(CALLS[i]),
                Op::Exit => rec.call_exit(),
                Op::Begin(id, bytes) => rec.xfer_begin(id, bytes),
                Op::End(id, bytes) => rec.xfer_end(id, bytes),
                Op::Flag(id) => rec.xfer_flag(id),
                Op::SectionBegin(i) => rec.section_begin(SECTIONS[i]),
                Op::SectionEnd => rec.section_end(),
                Op::Wait(len, cause, xfer) => {
                    let end = now.get();
                    rec.wait_state(end.saturating_sub(len), end, WaitCause::ALL[cause], xfer);
                }
            }
        }
        now.set(last_stamp.get());
        let (report, trace) = rec.finish_traced();
        reports.push(report);
        bundle.ranks.push(trace.expect("recorder was traced"));
    }
    (reports, bundle)
}

fn fold(text: &str) -> SessionFold {
    let mut s = SessionFold::default();
    s.push_text(text).expect("exported stream folds");
    s
}

macro_rules! json {
    ($v:expr) => {
        serde_json::to_string_pretty($v).expect("view serializes")
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn served_views_equal_batch_views(scope in arb_scope()) {
        let (mut reports, bundle) = record(&scope);
        let served = fold(&jsonl(std::slice::from_ref(&bundle)));

        // Reports, field for field — but for the two fields that never
        // ride the export.
        for r in &mut reports {
            r.sections.clear();
            r.queue_flushes = 0;
        }
        let served_reports = served.report();
        prop_assert_eq!(served_reports.len(), 1);
        prop_assert_eq!(&served_reports[0].scope, SCOPE);
        prop_assert_eq!(json!(&served_reports[0].ranks), json!(&reports));
        // The served rows are reports: what consumes reports consumes them.
        let violations = overlap_core::check_reports(&served_reports[0].ranks);
        prop_assert!(violations.is_empty(), "served reports break invariants: {violations:?}");
        prop_assert_eq!(
            json!(&ClusterSummary::merge(&served_reports[0].ranks)),
            json!(&ClusterSummary::merge(&reports))
        );

        // Windowed series, at the default width and two others.
        let (t0, t1) = bundle.span().expect("every rank stamps MPI_Init");
        let default = default_window_width(&bundle);
        for width in [default, (t1 - t0) / 64 + 1, 5_000] {
            let series = served.series(Some(width));
            prop_assert_eq!(series[0].window_ns, width);
            prop_assert_eq!(&series[0].windows, &windowed(&bundle, width));
        }
        prop_assert_eq!(served.series(None)[0].window_ns, default);

        // Attribution artifact, collapsed stacks and wait states, as the
        // batch CLI builds them.
        let scoped = vec![(SCOPE.to_string(), &bundle)];
        prop_assert_eq!(
            json!(&served.attribution("prop")),
            json!(&bench::critpath::attribution_artifact("prop", &scoped))
        );
        prop_assert_eq!(served.collapsed(), bench::critpath::collapsed(&scoped));
        prop_assert_eq!(
            json!(&served.wait_states()),
            json!(&vec![bench::critpath::wait_states(SCOPE, &bundle)])
        );
    }

    #[test]
    fn a_snapshot_between_any_two_lines_leaves_the_final_report_unchanged(scope in arb_scope()) {
        let (_, bundle) = record(&scope);
        let text = jsonl(std::slice::from_ref(&bundle));
        let mut polled = SessionFold::default();
        for line in text.lines() {
            polled.push_line(line).expect("exported line folds");
            std::hint::black_box((
                polled.report(),
                polled.series(None),
                polled.wait_states(),
                polled.attribution("prop"),
                polled.collapsed(),
            ));
        }
        prop_assert_eq!(json!(&polled.report()), json!(&fold(&text).report()));
    }

    #[test]
    fn a_clone_is_a_snapshot_that_later_pushes_do_not_reach(
        scope in arb_scope(),
        cut in any::<usize>(),
    ) {
        let (_, bundle) = record(&scope);
        let text = jsonl(std::slice::from_ref(&bundle));
        let lines: Vec<&str> = text.lines().collect();
        let (head, tail) = lines.split_at(cut % (lines.len() + 1));

        let mut live = SessionFold::default();
        for line in head {
            live.push_line(line).expect("exported line folds");
        }
        let snapshot = live.clone();
        for line in tail {
            live.push_line(line).expect("exported line folds");
        }

        let views = |s: &SessionFold| {
            (
                json!(&s.report()),
                json!(&s.series(None)),
                json!(&s.attribution("prop")),
                s.collapsed(),
            )
        };
        let prefix: String = head.iter().map(|l| format!("{l}\n")).collect();
        prop_assert_eq!(views(&snapshot), views(&fold(&prefix)));
        prop_assert_eq!(views(&live), views(&fold(&text)));
    }
}
