//! The data processing module (paper Figure 2), as the in-process recorder
//! drives it.
//!
//! Consumes time-ordered instrumentation events and maintains *running*
//! overlap aggregates plus a small table of currently active transfers — no
//! trace is ever stored. The event-determined part of that (interval sweep,
//! call statistics, anomaly counters, the active-transfer table, the
//! aggregates and built-in metrics) is `fold::RankFold`, shared with the
//! stream fold ([`crate::stream`]). This module adds what needs the a-priori
//! transfer-time table or never rides the export: it turns each transfer the
//! fold closes into overlap bounds (degrading them when the observed window
//! contradicts the table), keeps the per-section accumulators, and captures
//! the optional [`RankTrace`].

use std::collections::BTreeMap;

use crate::bins::SizeBins;
use crate::bounds::OverlapBounds;
use crate::event::{Event, EventKind};
use crate::fold::{add_record, Closing, RankFold};
use crate::report::{OverlapReport, OverlapStats, SectionReport};
use crate::trace::{BoundRecord, RankTrace};
use crate::xfer_table::XferTimeTable;

#[derive(Debug, Default)]
struct SectionAccum {
    total: OverlapStats,
    by_bin: Vec<OverlapStats>,
    compute_time: u64,
    call_time: u64,
}

/// Online overlap-bound processor.
pub struct Processor {
    table: XferTimeTable,
    fold: RankFold,
    sections: BTreeMap<&'static str, SectionAccum>,
    /// Time-resolved capture; `None` keeps the paper's no-tracing default.
    trace: Option<RankTrace>,
}

impl Processor {
    /// Create a processor using the a-priori transfer-time `table` and
    /// message-size `bins`.
    pub fn new(table: XferTimeTable, bins: SizeBins) -> Self {
        Processor {
            table,
            fold: RankFold::new(bins),
            sections: BTreeMap::new(),
            trace: None,
        }
    }

    /// Capture a time-resolved [`RankTrace`] alongside the aggregates: raw
    /// events on every fold, one [`BoundRecord`] per closed transfer.
    /// Retrieve it via [`Processor::finish_traced`].
    pub(crate) fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(RankTrace::default());
        }
    }

    /// Sweep to `t`, crediting the interval to the innermost open section.
    fn sweep(&mut self, t: u64) {
        let Some((dt, computing)) = self.fold.advance_to(t) else {
            return;
        };
        if let Some(name) = self.fold.section() {
            let acc = self.sections.entry(name).or_default();
            if computing {
                acc.compute_time += dt;
            } else {
                acc.call_time += dt;
            }
        }
    }

    /// Derive the bounds of a transfer the fold closed and fold them in.
    fn close(&mut self, c: Closing) {
        let xfer_time = self.table.lookup(c.bytes);
        let (mut flagged, mut clamped) = (c.flagged, false);
        let bounds = match c.window {
            None => OverlapBounds::single_stamp(xfer_time),
            Some(w) => {
                let mut bounds = if w.same_call {
                    OverlapBounds::same_call()
                } else {
                    OverlapBounds::split_calls(xfer_time, w.computation_time, w.noncomputation_time)
                };
                // Degrade gracefully when the observed window contradicts
                // the a-priori model instead of reporting unsound overlap.
                let wall = c.end_t.saturating_sub(c.begin_t.unwrap_or(c.end_t));
                if bounds.min > wall {
                    // The table's xfer_time exceeds the whole observed
                    // begin→end window (possible under clock skew or a
                    // stale table): no more than `wall` can have been
                    // overlapped.
                    bounds.min = wall.min(bounds.max);
                    clamped = true;
                }
                if flagged {
                    // The library told us the wire had to retransmit: the
                    // a-priori time no longer describes the transfer, so
                    // no overlap can be *guaranteed*.
                    bounds.min = 0;
                } else if !w.same_call && w.noncomputation_time > 2 * xfer_time.max(1) {
                    // Heuristic: the process sat inside the library for
                    // far longer than the wire needs — retransmission (or
                    // severe contention) suspected even without an
                    // explicit flag. Counted for the confidence measure;
                    // the bounds themselves are already sound.
                    flagged = true;
                }
                bounds
            }
        };
        let rec = BoundRecord {
            id: Some(c.id),
            bytes: c.bytes,
            begin_t: c.begin_t,
            end_t: c.end_t,
            xfer_time,
            min: bounds.min,
            max: bounds.max,
            case: bounds.case,
            flagged,
            clamped,
        };
        self.fold.close_transfer(&rec);
        if let Some(name) = c.section {
            let bins = self.fold.bins();
            let acc = self.sections.entry(name).or_default();
            if acc.by_bin.is_empty() {
                acc.by_bin = vec![OverlapStats::default(); bins.count()];
            }
            add_record(&mut acc.total, &rec);
            add_record(&mut acc.by_bin[bins.index(c.bytes)], &rec);
        }
        if let Some(tr) = &mut self.trace {
            tr.bounds.push(rec);
        }
    }

    /// Consume one event. Events must arrive in time order.
    pub fn process(&mut self, e: Event) {
        if let Some(tr) = &mut self.trace {
            tr.events.push(e);
        }
        self.sweep(e.t);
        if let EventKind::SectionBegin { name } = e.kind {
            // A section that closes no transfer still appears in the report.
            self.sections.entry(name).or_default();
        }
        if let Some(c) = self.fold.apply(e) {
            self.close(c);
        }
    }

    /// Finish processing at `end_time`: sweeps the final interval, closes
    /// still-active transfers as single-stamp (case 3), and produces the
    /// per-process report.
    pub fn finish(
        self,
        end_time: u64,
        rank: usize,
        events_recorded: u64,
        queue_flushes: u64,
    ) -> OverlapReport {
        self.finish_traced(end_time, rank, events_recorded, queue_flushes)
            .0
    }

    /// [`Processor::finish`], additionally returning the captured
    /// [`RankTrace`] when [`Processor::enable_trace`] was called (`None`
    /// otherwise). The trace includes the bound records of transfers closed
    /// by the finish sweep itself.
    pub(crate) fn finish_traced(
        mut self,
        end_time: u64,
        rank: usize,
        events_recorded: u64,
        queue_flushes: u64,
    ) -> (OverlapReport, Option<RankTrace>) {
        self.sweep(end_time);
        for c in self.fold.drain_open(end_time) {
            self.close(c);
        }
        let mut report = self.fold.report(rank, end_time, events_recorded);
        report.queue_flushes = queue_flushes;
        report.sections = self
            .sections
            .into_iter()
            .map(|(name, acc)| {
                (
                    name.to_string(),
                    SectionReport {
                        total: acc.total,
                        by_bin: acc.by_bin,
                        compute_time: acc.compute_time,
                        call_time: acc.call_time,
                    },
                )
            })
            .collect();
        let trace = self.trace.map(|mut tr| {
            tr.rank = rank;
            tr
        });
        (report, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_table(ns: u64) -> XferTimeTable {
        XferTimeTable::from_points(vec![(1, ns)])
    }

    fn run(events: Vec<Event>, end: u64, table: XferTimeTable) -> OverlapReport {
        let mut p = Processor::new(table, SizeBins::default());
        for e in events {
            p.process(e);
        }
        p.finish(end, 0, 0, 0)
    }

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    #[test]
    fn case1_same_call_zero_bounds() {
        // A blocking call containing both stamps.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Send" }),
                ev(10, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(500, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(510, EventKind::CallExit),
            ],
            510,
            flat_table(400),
        );
        assert_eq!(r.total.transfers, 1);
        assert_eq!(r.total.min_overlap, 0);
        assert_eq!(r.total.max_overlap, 0);
        assert_eq!(r.total.case_same_call, 1);
        assert_eq!(r.comm_call_time, 510);
        assert_eq!(r.user_compute_time, 0);
    }

    #[test]
    fn case2_ample_computation_full_overlap_possible() {
        // Isend ... compute 1000 ... Wait; xfer_time 400, library time 20.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(5, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(10, EventKind::CallExit),
                ev(1010, EventKind::CallEnter { name: "Wait" }),
                ev(1025, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(1030, EventKind::CallExit),
            ],
            1030,
            flat_table(400),
        );
        // computation between stamps: 1000; noncomputation: 5 + 15 = 20.
        assert_eq!(r.total.max_overlap, 400);
        assert_eq!(r.total.min_overlap, 380);
        assert_eq!(r.total.case_split_calls, 1);
        assert_eq!(r.user_compute_time, 1000);
        assert_eq!(r.comm_call_time, 30);
    }

    #[test]
    fn case2_scarce_computation_caps_max() {
        // Only 50 ns of computation between stamps; xfer_time 400.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(0, EventKind::CallExit),
                ev(50, EventKind::CallEnter { name: "Wait" }),
                ev(450, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(450, EventKind::CallExit),
            ],
            450,
            flat_table(400),
        );
        assert_eq!(r.total.max_overlap, 50);
        // noncomputation = 400 (the wait) => min = max(0, 400-400) = 0.
        assert_eq!(r.total.min_overlap, 0);
    }

    #[test]
    fn case3_end_only_single_stamp() {
        // Receive side of an eager message: only XFER_END observed.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Recv" }),
                ev(100, EventKind::XferEnd { id: 9, bytes: 2048 }),
                ev(110, EventKind::CallExit),
            ],
            110,
            flat_table(400),
        );
        assert_eq!(r.total.case_single_stamp, 1);
        assert_eq!(r.total.min_overlap, 0);
        assert_eq!(r.total.max_overlap, 400);
    }

    #[test]
    fn case3_begin_without_end_at_finish() {
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(10, EventKind::CallExit),
            ],
            1000,
            flat_table(400),
        );
        assert_eq!(r.total.case_single_stamp, 1);
        assert_eq!(r.total.max_overlap, 400);
        assert_eq!(r.total.min_overlap, 0);
    }

    #[test]
    fn reentering_same_call_name_is_still_split_calls() {
        // Begin in one call, end in a *different* call with zero computation
        // between: case 2 with comp=0 → both bounds characterise correctly.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(10, EventKind::CallExit),
                ev(10, EventKind::CallEnter { name: "Wait" }),
                ev(500, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(500, EventKind::CallExit),
            ],
            500,
            flat_table(400),
        );
        assert_eq!(r.total.case_split_calls, 1);
        assert_eq!(r.total.max_overlap, 0); // no computation existed
        assert_eq!(r.total.min_overlap, 0);
    }

    #[test]
    fn compute_and_call_time_partition_elapsed() {
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Init" }),
                ev(10, EventKind::CallExit),
                ev(110, EventKind::CallEnter { name: "Barrier" }),
                ev(150, EventKind::CallExit),
            ],
            250,
            flat_table(1),
        );
        assert_eq!(r.comm_call_time, 50);
        assert_eq!(r.user_compute_time, 200); // 10..110 and 150..250
        assert_eq!(r.elapsed, 250);
        assert_eq!(r.user_compute_time + r.comm_call_time, r.elapsed);
    }

    #[test]
    fn sections_attribute_transfers_and_time() {
        let r = run(
            vec![
                ev(0, EventKind::SectionBegin { name: "solve" }),
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(10, EventKind::CallExit),
                ev(1000, EventKind::CallEnter { name: "Wait" }),
                ev(1010, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(1010, EventKind::CallExit),
                ev(1010, EventKind::SectionEnd),
                // outside the section
                ev(1010, EventKind::CallEnter { name: "Recv" }),
                ev(1200, EventKind::XferEnd { id: 2, bytes: 50 }),
                ev(1200, EventKind::CallExit),
            ],
            1200,
            flat_table(400),
        );
        assert_eq!(r.total.transfers, 2);
        let sec = &r.sections["solve"];
        assert_eq!(sec.total.transfers, 1);
        assert_eq!(sec.compute_time, 990);
        assert_eq!(sec.call_time, 20);
        assert_eq!(sec.total.max_overlap, 400);
    }

    #[test]
    fn per_call_stats_track_wait_times() {
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Wait" }),
                ev(100, EventKind::CallExit),
                ev(200, EventKind::CallEnter { name: "Wait" }),
                ev(500, EventKind::CallExit),
            ],
            500,
            flat_table(1),
        );
        let w = &r.calls["Wait"];
        assert_eq!(w.count, 2);
        assert_eq!(w.total_time, 400);
        assert_eq!(w.avg(), 200.0);
    }

    #[test]
    fn nested_calls_count_inner_portion_as_library_time() {
        // A collective implemented over point-to-point: nested enters.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Bcast" }),
                ev(10, EventKind::CallEnter { name: "Send" }),
                ev(30, EventKind::CallExit),
                ev(40, EventKind::CallExit),
            ],
            100,
            flat_table(1),
        );
        assert_eq!(r.comm_call_time, 40);
        assert_eq!(r.user_compute_time, 60);
        assert_eq!(r.calls["Bcast"].total_time, 40);
        assert_eq!(r.calls["Send"].total_time, 20);
    }

    #[test]
    fn figure1_rdma_read_receiver_timeline() {
        // Paper Figure 1, receiver side: Irecv posts nothing observable;
        // the RDMA Read begins inside Irecv (library saw the RTS there in
        // this variant), computation happens, Wait observes the end.
        let xfer_time = 10_000;
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "MPI_Irecv" }),
                ev(
                    200,
                    EventKind::XferBegin {
                        id: 1,
                        bytes: 1 << 20,
                    },
                ),
                ev(300, EventKind::CallExit),
                ev(8_300, EventKind::CallEnter { name: "MPI_Wait" }),
                ev(
                    10_500,
                    EventKind::XferEnd {
                        id: 1,
                        bytes: 1 << 20,
                    },
                ),
                ev(10_500, EventKind::CallExit),
            ],
            10_500,
            flat_table(xfer_time),
        );
        // computation between stamps = 8000; noncomputation = 100 + 2200.
        assert_eq!(r.total.max_overlap, 8_000);
        assert_eq!(r.total.min_overlap, xfer_time - 2_300);
        assert_eq!(r.total.case_split_calls, 1);
        assert!(r.total.min_overlap <= r.total.max_overlap);
    }

    #[test]
    fn flagged_transfer_degrades_min_bound_to_zero() {
        // Same timeline as the ample-computation case, but the library flags
        // the transfer as retransmitted before the end stamp: min degrades to
        // 0 while max stays (overlap may still have happened, just unproven).
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(5, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(10, EventKind::CallExit),
                ev(1010, EventKind::CallEnter { name: "Wait" }),
                ev(1020, EventKind::XferFlag { id: 1 }),
                ev(1025, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(1030, EventKind::CallExit),
            ],
            1030,
            flat_table(400),
        );
        assert_eq!(r.total.transfers, 1);
        assert_eq!(r.total.min_overlap, 0);
        assert_eq!(r.total.max_overlap, 400);
        assert_eq!(r.total.flagged, 1);
        assert!(r.total.confidence() < 1.0);
        assert!(!r.anomalies.any());
    }

    #[test]
    fn orphan_flag_counts_anomaly_not_panic() {
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Recv" }),
                ev(100, EventKind::XferEnd { id: 9, bytes: 2048 }),
                ev(110, EventKind::XferFlag { id: 9 }), // already closed
                ev(120, EventKind::XferFlag { id: 77 }), // never existed
                ev(130, EventKind::CallExit),
            ],
            130,
            flat_table(400),
        );
        assert_eq!(r.anomalies.orphan_flags, 2);
        assert_eq!(r.total.flagged, 0);
        assert_eq!(r.total.transfers, 1);
    }

    #[test]
    fn duplicate_begin_closes_prior_as_single_stamp() {
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(10, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(500, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(510, EventKind::CallExit),
            ],
            510,
            flat_table(400),
        );
        assert_eq!(r.anomalies.duplicate_begin, 1);
        // Both the orphaned first begin and the re-begun transfer count.
        assert_eq!(r.total.transfers, 2);
        assert_eq!(r.total.case_single_stamp, 1);
        assert_eq!(r.total.case_same_call, 1);
    }

    #[test]
    fn out_of_order_stamp_counts_clock_skew() {
        let r = run(
            vec![
                ev(100, EventKind::CallEnter { name: "Send" }),
                ev(50, EventKind::CallExit), // clock ran backwards
                ev(200, EventKind::CallEnter { name: "Send" }),
                ev(300, EventKind::CallExit),
            ],
            300,
            flat_table(1),
        );
        assert_eq!(r.anomalies.clock_skew, 1);
        assert_eq!(r.calls["Send"].count, 2);
    }

    #[test]
    fn unbalanced_exits_count_anomalies() {
        let r = run(
            vec![
                ev(0, EventKind::CallExit),
                ev(10, EventKind::SectionEnd),
                ev(20, EventKind::CallEnter { name: "Send" }),
                ev(30, EventKind::CallExit),
            ],
            30,
            flat_table(1),
        );
        assert_eq!(r.anomalies.unbalanced_calls, 1);
        assert_eq!(r.anomalies.unbalanced_sections, 1);
        assert_eq!(r.calls["Send"].count, 1);
    }

    #[test]
    fn suspiciously_long_window_flags_without_changing_bounds() {
        // noncomputation (2000) far exceeds 2 * xfer_time (800): the transfer
        // is counted as suspect but keeps its (already sound) bounds.
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(0, EventKind::CallExit),
                ev(100, EventKind::CallEnter { name: "Wait" }),
                ev(2100, EventKind::XferEnd { id: 1, bytes: 100 }),
                ev(2100, EventKind::CallExit),
            ],
            2100,
            flat_table(400),
        );
        assert_eq!(r.total.flagged, 1);
        // Bounds identical to the unflagged computation: max = min(400, 100),
        // min = sat_sub(400, 2000) = 0.
        assert_eq!(r.total.max_overlap, 100);
        assert_eq!(r.total.min_overlap, 0);
    }

    #[test]
    fn flagged_leftover_at_finish_stays_flagged() {
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 100 }),
                ev(5, EventKind::XferFlag { id: 1 }),
                ev(10, EventKind::CallExit),
            ],
            1000,
            flat_table(400),
        );
        assert_eq!(r.total.case_single_stamp, 1);
        assert_eq!(r.total.flagged, 1);
        assert_eq!(r.total.min_overlap, 0);
    }

    #[test]
    fn bin_breakdown_separates_sizes() {
        let table = XferTimeTable::from_points(vec![(1, 100), (1 << 20, 1_000_000)]);
        let r = run(
            vec![
                ev(0, EventKind::CallEnter { name: "Recv" }),
                ev(10, EventKind::XferEnd { id: 1, bytes: 512 }),
                ev(
                    20,
                    EventKind::XferEnd {
                        id: 2,
                        bytes: 2 << 20,
                    },
                ),
                ev(30, EventKind::CallExit),
            ],
            30,
            table,
        );
        let small_bin = SizeBins::default().index(512);
        let large_bin = SizeBins::default().index(2 << 20);
        assert_eq!(r.by_bin[small_bin].transfers, 1);
        assert_eq!(r.by_bin[large_bin].transfers, 1);
        assert_ne!(small_bin, large_bin);
    }
}
