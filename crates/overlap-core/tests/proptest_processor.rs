//! Property tests for the bound processor over randomized, well-formed
//! event streams.

use proptest::prelude::*;

use overlap_core::{ManualClock, OverlapReport, Recorder, RecorderOpts, SizeBins, XferTimeTable};

/// One application-visible action in a generated program.
#[derive(Debug, Clone)]
enum Action {
    /// Enter a call, post a transfer begin, advance, exit.
    BeginXfer { bytes: u64, in_call_ns: u64 },
    /// User computation.
    Compute { ns: u64 },
    /// Enter a call, end the oldest pending transfer (or an end-only one),
    /// advance, exit.
    EndXfer {
        end_only_bytes: Option<u64>,
        in_call_ns: u64,
    },
    /// Begin/end a section around nothing in particular.
    Section,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..1_000_000, 0u64..5_000)
            .prop_map(|(bytes, in_call_ns)| Action::BeginXfer { bytes, in_call_ns }),
        (0u64..2_000_000).prop_map(|ns| Action::Compute { ns }),
        (prop::option::of(1u64..1_000_000), 0u64..5_000).prop_map(
            |(end_only_bytes, in_call_ns)| Action::EndXfer {
                end_only_bytes,
                in_call_ns
            }
        ),
        Just(Action::Section),
    ]
}

/// Drive a recorder through a program; returns the report.
fn execute(actions: &[Action], queue_capacity: usize) -> OverlapReport {
    let clock = ManualClock::new();
    let table = XferTimeTable::sample(1, 2 << 20, |b| 5_000 + b);
    let mut rec = Recorder::new(
        7,
        Box::new(clock.clone()),
        table,
        RecorderOpts {
            queue_capacity,
            bins: SizeBins::default(),
            enabled: true,
            trace: false,
        },
    );
    let mut pending: Vec<(u64, u64)> = Vec::new(); // (id, bytes)
    let mut next_id = 0u64;
    let mut section_depth = 0u32;
    for a in actions {
        match a {
            Action::BeginXfer { bytes, in_call_ns } => {
                rec.call_enter("post");
                rec.xfer_begin(next_id, *bytes);
                pending.push((next_id, *bytes));
                next_id += 1;
                clock.advance(*in_call_ns);
                rec.call_exit();
            }
            Action::Compute { ns } => clock.advance(*ns),
            Action::EndXfer {
                end_only_bytes,
                in_call_ns,
            } => {
                rec.call_enter("complete");
                clock.advance(*in_call_ns);
                if let Some((id, bytes)) = pending.pop() {
                    rec.xfer_end(id, bytes);
                } else if let Some(bytes) = end_only_bytes {
                    rec.xfer_end(1_000_000 + next_id, *bytes);
                    next_id += 1;
                }
                rec.call_exit();
            }
            Action::Section => {
                if section_depth < 3 {
                    rec.section_begin("sec");
                    section_depth += 1;
                } else {
                    rec.section_end();
                    section_depth -= 1;
                }
            }
        }
    }
    while section_depth > 0 {
        rec.section_end();
        section_depth -= 1;
    }
    rec.finish_traced().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregate_invariants_hold(actions in prop::collection::vec(arb_action(), 0..120)) {
        let r = execute(&actions, 4096);
        prop_assert!(r.total.min_overlap <= r.total.max_overlap);
        prop_assert!(r.total.max_overlap <= r.total.data_transfer_time);
        prop_assert_eq!(r.user_compute_time + r.comm_call_time, r.elapsed);
        // Bin decomposition sums to the total.
        let bin_sum: u64 = r.by_bin.iter().map(|b| b.data_transfer_time).sum();
        prop_assert_eq!(bin_sum, r.total.data_transfer_time);
        let bin_n: u64 = r.by_bin.iter().map(|b| b.transfers).sum();
        prop_assert_eq!(bin_n, r.total.transfers);
        let case_n = r.total.case_same_call + r.total.case_split_calls + r.total.case_single_stamp;
        prop_assert_eq!(case_n, r.total.transfers);
    }

    #[test]
    fn queue_capacity_never_changes_results(
        actions in prop::collection::vec(arb_action(), 0..120),
        cap in 2usize..64,
    ) {
        let small = execute(&actions, cap);
        let large = execute(&actions, 1 << 16);
        prop_assert_eq!(small.total, large.total);
        prop_assert_eq!(small.by_bin, large.by_bin);
        prop_assert_eq!(small.user_compute_time, large.user_compute_time);
        prop_assert_eq!(small.comm_call_time, large.comm_call_time);
    }

    #[test]
    fn section_totals_bounded_by_global(actions in prop::collection::vec(arb_action(), 0..120)) {
        let r = execute(&actions, 4096);
        for sec in r.sections.values() {
            prop_assert!(sec.total.transfers <= r.total.transfers);
            prop_assert!(sec.total.data_transfer_time <= r.total.data_transfer_time);
            prop_assert!(sec.compute_time <= r.user_compute_time);
            prop_assert!(sec.call_time <= r.comm_call_time);
        }
    }

    #[test]
    fn table_lookup_is_monotonic(points in prop::collection::vec((1u64..10_000_000, 1u64..10_000_000), 1..20)) {
        // Sort-by-size with increasing times → lookup must be monotonic.
        let mut pts = points;
        pts.sort_unstable();
        pts.dedup_by_key(|p| p.0);
        let mut t = 0;
        for p in pts.iter_mut() {
            t += p.1;
            p.1 = t;
        }
        let table = XferTimeTable::from_points(pts.clone());
        let mut prev = 0;
        for bytes in (0..200).map(|i| i * 60_000) {
            let v = table.lookup(bytes);
            prop_assert!(v >= prev, "lookup({bytes}) = {v} < {prev}");
            prev = v;
        }
    }
}
