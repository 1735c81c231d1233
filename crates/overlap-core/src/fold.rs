//! The rank fold: everything one rank's event stream determines.
//!
//! The paper's data processing module (Figure 2) folds a time-ordered event
//! queue into running aggregates in constant memory. [`RankFold`] is that
//! fold, less the one input that never leaves the instrumented process — the
//! a-priori transfer-time table. Two drivers feed it:
//!
//! * [`crate::processor::Processor`] pushes the recorder's ring through it,
//!   turns every transfer it closes ([`Closing`]) into a [`BoundRecord`]
//!   with the table, and hands the record back to
//!   [`RankFold::close_transfer`];
//! * [`crate::stream::SessionFold`] pushes decoded JSONL event lines through
//!   it and hands it the `xfer_bounds` records the exporter already derived.
//!
//! Both read the result out with [`RankFold::report`], so the aggregate
//! report, the served report and everything computed from them come from one
//! fold. The sweep works as follows: between consecutive events the process
//! was either in user computation (call depth 0) or inside the library
//! (depth > 0); the interval is credited to the matching running total. A
//! transfer's `computation_time` / `noncomputation_time` between its stamps
//! is the growth of those two totals over its window, so an open transfer
//! costs a table entry and nothing per event.
//!
//! [`CallSpans`] is the one walker from events to top-level call spans and
//! `XFER_FLAG` stamps. It retains a record per call, so only the consumers
//! that already retain derived records hold one (the stream fold) or replay
//! a captured trace through one (the batch attribution and windowed series);
//! the aggregate-only recorder never does.

use std::collections::{BTreeMap, HashMap};

use crate::bins::{FoldNames, SizeBins};
use crate::bounds::OverlapBounds;
use crate::event::{Event, EventKind};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::report::{Anomalies, CallStats, OverlapReport, OverlapStats};
use crate::trace::BoundRecord;

/// A transfer whose `XFER_BEGIN` has been seen and whose `XFER_END` has not.
#[derive(Debug, Clone)]
struct OpenXfer {
    bytes: u64,
    /// Top-level call sequence number at `XFER_BEGIN`, if it was stamped
    /// inside a call (used for case-1 detection).
    begin_call: Option<u64>,
    begin_t: u64,
    /// The fold's `user_compute` / `comm_call` totals when the begin stamp
    /// was swept.
    compute_at_begin: u64,
    call_at_begin: u64,
    /// The library reported this transfer fault-disturbed (`XFER_FLAG`).
    flagged: bool,
    section: Option<&'static str>,
}

impl OpenXfer {
    fn close(self, id: u64, end_t: u64, window: Option<Window>) -> Closing {
        Closing {
            id,
            bytes: self.bytes,
            begin_t: Some(self.begin_t),
            end_t,
            flagged: self.flagged,
            section: self.section,
            window,
        }
    }
}

/// What the events say about a transfer that just left the open table. The
/// driver that owns the a-priori table derives the bounds from it.
#[derive(Debug)]
pub(crate) struct Closing {
    pub id: u64,
    pub bytes: u64,
    /// `None` for an end-only stamp.
    pub begin_t: Option<u64>,
    pub end_t: u64,
    pub flagged: bool,
    /// Innermost monitored section at the begin stamp (at the end stamp for
    /// an end-only transfer).
    pub section: Option<&'static str>,
    /// `Some` when both stamps were seen; `None` is a single-stamp close:
    /// end-only, orphaned by a duplicate begin, or still open at finish.
    pub window: Option<Window>,
}

/// The begin→end window of a two-stamp transfer.
#[derive(Debug)]
pub(crate) struct Window {
    /// Both stamps fell inside one top-level call.
    pub same_call: bool,
    pub computation_time: u64,
    pub noncomputation_time: u64,
}

/// The registry entries the fold maintains itself, held as direct fields so
/// closing a transfer does no key allocation and no map lookup. A histogram
/// is created on its first sample. [`BuiltinMetrics::emit`] writes them into
/// a [`MetricsRegistry`] under the names the bins share, and only those that
/// fired.
#[derive(Clone, Default)]
struct BuiltinMetrics {
    xfers_closed: u64,
    xfers_flagged: u64,
    xfers_clamped: u64,
    calls_completed: u64,
    xfer_apriori_ns: Option<Histogram>,
    xfer_wall_ns: Option<Histogram>,
    call_latency_ns: Option<Histogram>,
    /// `[overlap_min_ns, overlap_max_ns]` histograms per size bin; empty
    /// until the first transfer closes.
    by_bin: Vec<[Option<Histogram>; 2]>,
}

/// Record `v` into `h`, creating it on the default ladder first.
fn observe(h: &mut Option<Histogram>, v: u64) {
    h.get_or_insert_with(Histogram::latency_default).observe(v);
}

impl BuiltinMetrics {
    fn emit(&self, names: &FoldNames, reg: &mut MetricsRegistry) {
        let counters = [
            self.xfers_closed,
            self.xfers_flagged,
            self.xfers_clamped,
            self.calls_completed,
        ];
        for (key, v) in names.counters.iter().zip(counters) {
            if v > 0 {
                reg.counters.insert(key.clone(), v);
            }
        }
        let fixed = [
            &self.xfer_apriori_ns,
            &self.xfer_wall_ns,
            &self.call_latency_ns,
        ];
        let hists = fixed.into_iter().chain(self.by_bin.iter().flatten());
        for (key, h) in names.histograms.iter().zip(hists) {
            if let Some(h) = h {
                reg.histograms.insert(key.clone(), h.clone());
            }
        }
    }
}

/// Fold one closed transfer into an overlap aggregate.
pub(crate) fn add_record(stats: &mut OverlapStats, rec: &BoundRecord) {
    let bounds = OverlapBounds {
        min: rec.min,
        max: rec.max,
        case: rec.case,
    };
    stats.add_bounds(rec.bytes, rec.xfer_time, bounds);
    if rec.flagged {
        stats.note_flagged();
    }
    if rec.clamped {
        stats.note_clamped();
    }
}

/// One rank's running fold. See the module docs.
#[derive(Clone)]
pub(crate) struct RankFold {
    bins: SizeBins,
    depth: u32,
    call_seq: u64,
    cursor: u64,
    first_event: Option<u64>,
    user_compute: u64,
    comm_call: u64,
    open: HashMap<u64, OpenXfer>,
    section_stack: Vec<&'static str>,
    call_stack: Vec<(&'static str, u64)>,
    calls: BTreeMap<&'static str, CallStats>,
    anomalies: Anomalies,
    total: OverlapStats,
    by_bin: Vec<OverlapStats>,
    builtin: BuiltinMetrics,
}

impl RankFold {
    pub(crate) fn new(bins: SizeBins) -> Self {
        let nbins = bins.count();
        RankFold {
            bins,
            depth: 0,
            call_seq: 0,
            cursor: 0,
            first_event: None,
            user_compute: 0,
            comm_call: 0,
            open: HashMap::new(),
            section_stack: Vec::new(),
            call_stack: Vec::new(),
            calls: BTreeMap::new(),
            anomalies: Anomalies::default(),
            total: OverlapStats::default(),
            by_bin: vec![OverlapStats::default(); nbins],
            builtin: BuiltinMetrics::default(),
        }
    }

    pub(crate) fn bins(&self) -> &SizeBins {
        &self.bins
    }

    /// The innermost monitored section, if one is open.
    pub(crate) fn section(&self) -> Option<&'static str> {
        self.section_stack.last().copied()
    }

    /// Sweep the interval from the cursor to `t`. Returns the credited
    /// `(length, was user computation)`, or `None` when nothing was.
    pub(crate) fn advance_to(&mut self, t: u64) -> Option<(u64, bool)> {
        if self.first_event.is_none() {
            self.first_event = Some(t);
            self.cursor = t;
            return None;
        }
        if t < self.cursor {
            // Clock skew: the stamp runs behind the processing cursor. Real
            // hardware clocks (and multi-source event streams) can do this;
            // count it and drop the negative interval instead of panicking.
            self.anomalies.clock_skew += 1;
            return None;
        }
        let dt = t - self.cursor;
        if dt == 0 {
            return None;
        }
        let computing = self.depth == 0;
        if computing {
            self.user_compute += dt;
        } else {
            self.comm_call += dt;
        }
        self.cursor = t;
        Some((dt, computing))
    }

    /// Apply an event whose stamp has been swept. Returns the transfer the
    /// event closed, if it closed one.
    pub(crate) fn apply(&mut self, e: Event) -> Option<Closing> {
        match e.kind {
            EventKind::CallEnter { name } => {
                if self.depth == 0 {
                    self.call_seq += 1;
                }
                self.depth += 1;
                self.call_stack.push((name, e.t));
                None
            }
            EventKind::CallExit => {
                if self.depth == 0 {
                    self.anomalies.unbalanced_calls += 1;
                } else {
                    self.depth -= 1;
                    if let Some((name, t0)) = self.call_stack.pop() {
                        let c = self.calls.entry(name).or_default();
                        c.count += 1;
                        let dt = e.t.saturating_sub(t0);
                        c.total_time += dt;
                        self.builtin.calls_completed += 1;
                        observe(&mut self.builtin.call_latency_ns, dt);
                    }
                }
                None
            }
            EventKind::XferBegin { id, bytes } => {
                let prev = self.open.insert(
                    id,
                    OpenXfer {
                        bytes,
                        begin_call: (self.depth > 0).then_some(self.call_seq),
                        begin_t: e.t,
                        compute_at_begin: self.user_compute,
                        call_at_begin: self.comm_call,
                        flagged: false,
                        section: self.section(),
                    },
                )?;
                // Duplicate XFER_BEGIN (id reuse without an end stamp):
                // close the orphaned earlier transfer as single-stamp so
                // its bounds stay sound, and count the irregularity.
                self.anomalies.duplicate_begin += 1;
                Some(prev.close(id, e.t, None))
            }
            EventKind::XferEnd { id, bytes } => Some(match self.open.remove(&id) {
                Some(ax) => {
                    let window = Window {
                        same_call: self.depth > 0 && ax.begin_call == Some(self.call_seq),
                        computation_time: self.user_compute - ax.compute_at_begin,
                        noncomputation_time: self.comm_call - ax.call_at_begin,
                    };
                    ax.close(id, e.t, Some(window))
                }
                // End-only stamp (case 3): e.g. the receive side of an
                // eager transfer, whose initiation this process never saw.
                None => Closing {
                    id,
                    bytes,
                    begin_t: None,
                    end_t: e.t,
                    flagged: false,
                    section: self.section(),
                    window: None,
                },
            }),
            EventKind::XferFlag { id } => {
                match self.open.get_mut(&id) {
                    Some(ax) => ax.flagged = true,
                    // The transfer already closed (or never began) before
                    // the library learned of the disturbance.
                    None => self.anomalies.orphan_flags += 1,
                }
                None
            }
            EventKind::SectionBegin { name } => {
                self.section_stack.push(name);
                None
            }
            EventKind::SectionEnd => {
                if self.section_stack.pop().is_none() {
                    self.anomalies.unbalanced_sections += 1;
                }
                None
            }
        }
    }

    /// Sweep to the event's stamp and apply it. Events must arrive in time
    /// order.
    pub(crate) fn fold_event(&mut self, e: Event) -> Option<Closing> {
        self.advance_to(e.t);
        self.apply(e)
    }

    /// Close every still-open transfer as single-stamp at `end_time`, in id
    /// order (the table's own order is arbitrary; reports, metrics and
    /// traces must be deterministic).
    pub(crate) fn drain_open(&mut self, end_time: u64) -> Vec<Closing> {
        let mut left: Vec<Closing> = self
            .open
            .drain()
            .map(|(id, ax)| ax.close(id, end_time, None))
            .collect();
        left.sort_unstable_by_key(|c| c.id);
        left
    }

    /// Fold one closed transfer's bounds into the aggregates and the
    /// built-in metrics.
    pub(crate) fn close_transfer(&mut self, rec: &BoundRecord) {
        let bin = self.bins.index(rec.bytes);
        add_record(&mut self.total, rec);
        add_record(&mut self.by_bin[bin], rec);
        self.builtin.xfers_closed += 1;
        if rec.flagged {
            self.builtin.xfers_flagged += 1;
        }
        if rec.clamped {
            self.builtin.xfers_clamped += 1;
        }
        observe(&mut self.builtin.xfer_apriori_ns, rec.xfer_time);
        if let Some(t0) = rec.begin_t {
            observe(&mut self.builtin.xfer_wall_ns, rec.end_t.saturating_sub(t0));
        }
        let by_bin = &mut self.builtin.by_bin;
        if by_bin.is_empty() {
            by_bin.resize_with(self.bins.count(), Default::default);
        }
        let [min_hist, max_hist] = &mut by_bin[bin];
        observe(min_hist, rec.min);
        observe(max_hist, rec.max);
    }

    /// The rank's report as of `end_time`. The interval from the cursor to
    /// `end_time` is swept on the side, so a mid-stream snapshot leaves the
    /// fold as it found it. `sections` is empty and `queue_flushes` 0: the
    /// driver that has them fills them in.
    pub(crate) fn report(&self, rank: usize, end_time: u64, events_recorded: u64) -> OverlapReport {
        let (mut user_compute_time, mut comm_call_time) = (self.user_compute, self.comm_call);
        if self.first_event.is_some() && end_time > self.cursor {
            let dt = end_time - self.cursor;
            if self.depth == 0 {
                user_compute_time += dt;
            } else {
                comm_call_time += dt;
            }
        }
        let mut metrics = MetricsRegistry::new();
        self.builtin.emit(self.bins.fold_names(), &mut metrics);
        OverlapReport {
            rank,
            elapsed: end_time.saturating_sub(self.first_event.unwrap_or(end_time)),
            user_compute_time,
            comm_call_time,
            total: self.total,
            bin_labels: self.bins.labels().clone(),
            by_bin: self.by_bin.clone(),
            sections: BTreeMap::new(),
            calls: self
                .calls
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            events_recorded,
            queue_flushes: 0,
            anomalies: self.anomalies,
            metrics,
        }
    }
}

/// Top-level call spans and `XFER_FLAG` stamps of one rank, walked from its
/// events one at a time. See the module docs for who holds one.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallSpans {
    depth: u32,
    /// Start and name of the top-level call in progress.
    open: Option<(u64, &'static str)>,
    closed: Vec<(u64, u64, &'static str)>,
    flags: Vec<u64>,
    last_t: u64,
}

impl CallSpans {
    /// Walk a captured event stream.
    pub(crate) fn replay(events: &[Event]) -> Self {
        let mut spans = CallSpans::default();
        for e in events {
            spans.fold_event(e);
        }
        spans
    }

    pub(crate) fn fold_event(&mut self, e: &Event) {
        self.last_t = self.last_t.max(e.t);
        match e.kind {
            EventKind::CallEnter { name } => {
                if self.depth == 0 {
                    self.open = Some((e.t, name));
                }
                self.depth += 1;
            }
            EventKind::CallExit if self.depth > 0 => {
                self.depth -= 1;
                if self.depth == 0 {
                    if let Some((s, name)) = self.open.take() {
                        self.closed.push((s, e.t, name));
                    }
                }
            }
            EventKind::XferFlag { .. } => self.flags.push(e.t),
            _ => {}
        }
    }

    /// The largest stamp seen (0 before the first event).
    pub(crate) fn last_t(&self) -> u64 {
        self.last_t
    }

    /// Stamps of the `XFER_FLAG` events, in stream order.
    pub(crate) fn flags(&self) -> &[u64] {
        &self.flags
    }

    /// Top-level call spans `[start, end)` with the outermost call's name,
    /// in stream order; a call still open closes at `end`.
    pub(crate) fn spans(
        &self,
        end: u64,
    ) -> impl Iterator<Item = (u64, u64, &'static str)> + Clone + '_ {
        self.closed
            .iter()
            .copied()
            .chain(self.open.map(|(s, name)| (s, end, name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    #[test]
    fn call_spans_keep_the_outermost_name_and_close_a_trailing_call() {
        let spans = CallSpans::replay(&[
            ev(0, EventKind::CallExit), // unbalanced: ignored
            ev(10, EventKind::CallEnter { name: "Bcast" }),
            ev(20, EventKind::CallEnter { name: "Send" }),
            ev(25, EventKind::XferFlag { id: 3 }),
            ev(30, EventKind::CallExit),
            ev(40, EventKind::CallExit),
            ev(50, EventKind::CallEnter { name: "Wait" }),
            ev(60, EventKind::XferEnd { id: 3, bytes: 8 }),
        ]);
        assert_eq!(spans.flags(), &[25]);
        assert_eq!(spans.last_t(), 60);
        assert_eq!(
            spans.spans(spans.last_t()).collect::<Vec<_>>(),
            vec![(10, 40, "Bcast"), (50, 60, "Wait")]
        );
        assert_eq!(spans.spans(99).last(), Some((50, 99, "Wait")));
    }
}
