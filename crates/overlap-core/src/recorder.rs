//! The per-process instrumentation facade.
//!
//! A communication library owns one [`Recorder`] per process and calls into
//! it from its instrumented entry points. The recorder stamps events with its
//! [`Clock`], logs them into the bounded [`crate::queue::EventRing`], and
//! folds the ring into the [`crate::processor::Processor`] whenever it fills
//! — mirroring the paper's data collection / data processing split. With
//! `enabled = false` every operation is a branch-and-return, which is how the
//! instrumentation-overhead experiment (paper Figure 20) compares runs.

use crate::artifact::RankView;
use crate::attribution::{self, WaitCause, WaitInterval};
use crate::bins::SizeBins;
use crate::clock::Clock;
use crate::event::{Event, EventKind};
use crate::processor::Processor;
use crate::queue::EventRing;
use crate::report::OverlapReport;
use crate::xfer_table::XferTimeTable;

/// Recorder configuration.
#[derive(Debug, Clone)]
pub struct RecorderOpts {
    /// Capacity of the circular event queue.
    pub queue_capacity: usize,
    /// Message-size bins for the breakdown report.
    pub bins: SizeBins,
    /// Master switch; when false the recorder is a no-op.
    pub enabled: bool,
    /// Capture a time-resolved [`crate::trace::RankTrace`] alongside the
    /// aggregates (raw events + per-transfer bound records, copied at fold
    /// time). Off by default: a trace grows with run length, which is
    /// exactly the overhead the paper's aggregate-only design avoids.
    /// Retrieve the capture with [`Recorder::finish_traced`].
    pub trace: bool,
}

impl Default for RecorderOpts {
    fn default() -> Self {
        RecorderOpts {
            queue_capacity: 4096,
            bins: SizeBins::default(),
            enabled: true,
            trace: false,
        }
    }
}

/// Per-process overlap instrumentation.
pub struct Recorder {
    clock: Box<dyn Clock>,
    ring: EventRing,
    proc: Processor,
    enabled: bool,
    trace: bool,
    rank: usize,
    events: u64,
    flushes: u64,
    bins: SizeBins,
    waits: Vec<WaitInterval>,
}

impl Recorder {
    /// Create a recorder for `rank` with the given clock, a-priori transfer
    /// time table, and options.
    pub fn new(
        rank: usize,
        clock: Box<dyn Clock>,
        table: XferTimeTable,
        opts: RecorderOpts,
    ) -> Self {
        let bins = opts.bins.clone();
        let mut proc = Processor::new(table, opts.bins);
        if opts.trace {
            proc.enable_trace();
        }
        Recorder {
            clock,
            ring: EventRing::new(opts.queue_capacity),
            proc,
            enabled: opts.enabled,
            trace: opts.trace,
            rank,
            events: 0,
            flushes: 0,
            bins,
            waits: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let t = self.clock.now();
        let e = Event::new(t, kind);
        if let Err(crate::queue::RingFull(e)) = self.ring.push(e) {
            // Ring at capacity: fold the backlog into the processor and
            // retry. Capacity is at least 2, so the retry cannot fail.
            self.flush();
            self.ring.push(e).expect("ring has room after flush");
        }
        self.events += 1;
    }

    fn flush(&mut self) {
        for e in self.ring.drain() {
            self.proc.process(e);
        }
        self.flushes += 1;
    }

    /// Application entered the communication library.
    pub fn call_enter(&mut self, name: &'static str) {
        self.push(EventKind::CallEnter { name });
    }

    /// Application left the communication library.
    pub fn call_exit(&mut self) {
        self.push(EventKind::CallExit);
    }

    /// The library posted the operation that approximately starts the
    /// physical transfer of user message `id` (`bytes` payload).
    pub fn xfer_begin(&mut self, id: u64, bytes: u64) {
        self.push(EventKind::XferBegin { id, bytes });
    }

    /// The library observed completion of transfer `id`. For transfers with
    /// no observable begin (e.g. eager receives) this is the only stamp.
    pub fn xfer_end(&mut self, id: u64, bytes: u64) {
        self.push(EventKind::XferEnd { id, bytes });
    }

    /// The library learned that transfer `id` was disturbed by the fabric
    /// (retransmission after loss, duplicate delivery, ...). The processor
    /// degrades that transfer's bounds to stay sound; flags for transfers
    /// that already completed are counted as anomalies instead.
    pub fn xfer_flag(&mut self, id: u64) {
        self.push(EventKind::XferFlag { id });
    }

    /// True when the library should classify and record its blocking
    /// intervals: a time-resolved trace is being captured and instrumentation
    /// is active. Cheap enough to gate the classification work itself.
    pub fn wait_tracing(&self) -> bool {
        self.trace && self.enabled
    }

    /// Record one classified blocking (or stall) interval
    /// `[start, end)` with its cause, and the transfer it was blocked on if
    /// a single one was identifiable. No-op unless
    /// [`Recorder::wait_tracing`] and `end > start` — recording costs zero
    /// virtual time either way, so traced and untraced runs stay
    /// time-identical.
    pub fn wait_state(&mut self, start: u64, end: u64, cause: WaitCause, xfer: Option<u64>) {
        if !self.wait_tracing() || end <= start {
            return;
        }
        self.waits.push(WaitInterval {
            start,
            end,
            cause,
            xfer,
        });
    }

    /// The library learned (from the fabric's causal edge on a completion or
    /// packet) that `ns` of transfer `xfer`'s flight time was fabric
    /// *contention* — queuing behind other traffic on shared links or the
    /// ingress engine — rather than propagation/serialization. Relabels the
    /// trailing portion of already-recorded [`WaitCause::WireDrain`] time
    /// pinned to that transfer as [`WaitCause::Contention`], splitting an
    /// interval when the budget ends inside it. Contention that exceeds the
    /// recorded wire-drain wait was hidden by compute (overlapped) and is
    /// dropped, keeping the reconciliation sum exact. No-op unless
    /// [`Recorder::wait_tracing`].
    ///
    /// Works because the library records its blocking waits *before* it
    /// processes the completion carrying the edge, so the relevant
    /// `WireDrain` intervals are already present.
    pub fn note_contention(&mut self, xfer: u64, ns: u64) {
        if !self.wait_tracing() || ns == 0 {
            return;
        }
        let mut budget = ns;
        // Latest-first: contention delays the tail of the drain.
        for i in (0..self.waits.len()).rev() {
            if budget == 0 {
                break;
            }
            let w = self.waits[i];
            if w.cause != WaitCause::WireDrain || w.xfer != Some(xfer) {
                continue;
            }
            let len = w.end - w.start;
            if len <= budget {
                self.waits[i].cause = WaitCause::Contention;
                budget -= len;
            } else {
                let split = w.end - budget;
                self.waits[i].end = split;
                self.waits.push(WaitInterval {
                    start: split,
                    end: w.end,
                    cause: WaitCause::Contention,
                    xfer: w.xfer,
                });
                budget = 0;
            }
        }
    }

    /// Application-level begin of a monitored code section.
    pub fn section_begin(&mut self, name: &'static str) {
        self.push(EventKind::SectionBegin { name });
    }

    /// Application-level end of the innermost monitored section.
    pub fn section_end(&mut self) {
        self.push(EventKind::SectionEnd);
    }

    /// Finish instrumentation and produce the per-process report (written to
    /// the per-process output file by the caller if desired), plus the
    /// time-resolved [`crate::trace::RankTrace`] when [`RecorderOpts::trace`]
    /// was set (`None` otherwise).
    /// The trace additionally carries the recorded wait-state intervals, and
    /// the report's metrics registry gains the per-cause attribution
    /// counters/histograms (`attr_ns/...`, `attr_ns_hist/...`).
    pub fn finish_traced(mut self) -> (OverlapReport, Option<crate::trace::RankTrace>) {
        let end = self.clock.now();
        self.flush();
        let (mut report, trace) =
            self.proc
                .finish_traced(end, self.rank, self.events, self.flushes);
        let trace = trace.map(|mut tr| {
            tr.waits = std::mem::take(&mut self.waits);
            attribution::fold_metrics(&RankView::of(&tr), &self.bins, &mut report.metrics);
            tr
        });
        (report, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn recorder(clock: &ManualClock, capacity: usize) -> Recorder {
        let table = XferTimeTable::from_points(vec![(1, 400)]);
        Recorder::new(
            0,
            Box::new(clock.clone()),
            table,
            RecorderOpts {
                queue_capacity: capacity,
                ..Default::default()
            },
        )
    }

    #[test]
    fn end_to_end_isend_wait_pattern() {
        let clock = ManualClock::new();
        let mut r = recorder(&clock, 64);
        r.call_enter("Isend");
        r.xfer_begin(1, 100);
        clock.advance(10);
        r.call_exit();
        clock.advance(1000);
        r.call_enter("Wait");
        clock.advance(20);
        r.xfer_end(1, 100);
        r.call_exit();
        let report = r.finish_traced().0;
        assert_eq!(report.total.transfers, 1);
        assert_eq!(report.total.max_overlap, 400);
        assert_eq!(report.total.min_overlap, 400 - 30);
        assert_eq!(report.user_compute_time, 1000);
        assert_eq!(report.comm_call_time, 30);
        assert_eq!(report.events_recorded, 6);
    }

    #[test]
    fn queue_flushes_preserve_results() {
        // Force many flushes with a tiny ring; aggregates must match a run
        // with a huge ring.
        let run = |capacity: usize| {
            let clock = ManualClock::new();
            let mut r = recorder(&clock, capacity);
            for i in 0..100u64 {
                r.call_enter("Isend");
                r.xfer_begin(i, 100);
                clock.advance(5);
                r.call_exit();
                clock.advance(500);
                r.call_enter("Wait");
                clock.advance(10);
                r.xfer_end(i, 100);
                r.call_exit();
                clock.advance(50);
            }
            r.finish_traced().0
        };
        let small = run(2);
        let large = run(1 << 16);
        assert!(small.queue_flushes > large.queue_flushes);
        assert_eq!(small.total, large.total);
        assert_eq!(small.user_compute_time, large.user_compute_time);
        assert_eq!(small.comm_call_time, large.comm_call_time);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let clock = ManualClock::new();
        let table = XferTimeTable::from_points(vec![(1, 400)]);
        let mut r = Recorder::new(
            0,
            Box::new(clock.clone()),
            table,
            RecorderOpts {
                enabled: false,
                ..Default::default()
            },
        );
        r.call_enter("Isend");
        r.xfer_begin(1, 100);
        clock.advance(100);
        r.xfer_end(1, 100);
        r.call_exit();
        let report = r.finish_traced().0;
        assert_eq!(report.events_recorded, 0);
        assert_eq!(report.total.transfers, 0);
    }

    #[test]
    fn sections_flow_through_recorder() {
        let clock = ManualClock::new();
        let mut r = recorder(&clock, 8);
        r.section_begin("x_solve");
        r.call_enter("Recv");
        clock.advance(100);
        r.xfer_end(1, 64);
        r.call_exit();
        r.section_end();
        let report = r.finish_traced().0;
        assert_eq!(report.sections["x_solve"].total.transfers, 1);
    }
}
