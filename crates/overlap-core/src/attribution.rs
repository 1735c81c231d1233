//! Wait-state attribution: explain *why* transfer time failed to overlap.
//!
//! The bound model (see `docs/BOUNDS.md`) quantifies *how much* of each
//! transfer provably did or did not overlap computation; this module
//! explains the remainder. The instrumented library classifies every
//! blocking interval it spends parked (and every registration stall) into a
//! [`WaitCause`] and records it as a [`WaitInterval`] on the captured
//! [`RankTrace`]. [`attribute`] then folds those intervals into one
//! [`CauseRecord`] per transfer whose cause breakdown **reconciles exactly**
//! with the bounds:
//!
//! ```text
//! Σ breakdown[cause] == xfer_time − max_overlap        (per transfer)
//! ```
//!
//! The right-hand side is the transfer's provably-non-overlapped time
//! (paper Sec. 2.3, measure 1). Reconciliation is by construction, not by
//! luck: the attributor consumes the in-call time inside the transfer's
//! observed window *latest-first* (the same in-library time the bound
//! formula `max = min(xfer_time, comp)` charges against the transfer),
//! labelling each consumed nanosecond with the wait state active at that
//! moment. In-call time not covered by any recorded wait is
//! [`WaitCause::LibraryOverhead`] (copies, posts, polls); non-overlap the
//! observed window cannot account for at all — the a-priori table says the
//! wire needed longer than the stamps span — is [`WaitCause::TableExcess`].
//!
//! Two views with different accounting:
//!
//! * **per-transfer records** ([`CauseRecord`]) may double-count wall time:
//!   two transfers in flight during the same blocked interval each charge
//!   it, exactly as the bound model charges `noncomp` against every active
//!   transfer. This is the reconciliation view.
//! * **collapsed stacks** ([`crate::artifact::collapsed`]) count each blocked
//!   nanosecond once, keyed by the enclosing library call and its cause —
//!   the per-rank critical-path view, in flamegraph-collapsed format.
//!
//! All output is a pure function of the captured trace: byte-identical
//! across runs and worker counts. The top-level call spans both views cut
//! come from `fold::CallSpans`, the one walker from events to spans; the
//! stream fold holds one per rank and runs these same functions on it, so a
//! served attribution is this computation, not a copy of it.

use serde::Serialize;

use crate::artifact::RankView;
use crate::bins::SizeBins;
use crate::fold::CallSpans;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::{BoundRecord, RankTrace};

/// Why a rank was not overlapping a transfer at some moment.
///
/// The first group is produced by the instrumented library at block time;
/// the last two only by [`attribute`], closing the reconciliation sum. A
/// cause serializes as its `label()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum WaitCause {
    /// Receiver blocked before the matching send arrived (unmatched recv).
    LateSender,
    /// Sender blocked on the receiver: rendezvous data not yet pulled.
    LateReceiver,
    /// Rendezvous control handshake in flight (RTS posted, CTS not back).
    RendezvousHandshake,
    /// Eager send still draining through the local NIC (buffered copy on
    /// the wire, local completion not yet observed).
    EagerCopy,
    /// Matched data moving on the wire toward this rank (direct read or
    /// pipelined fragments in flight).
    WireDrain,
    /// Fabric contention: the portion of a matched transfer's flight time
    /// spent queued behind other traffic (shared topology links or the
    /// receiver's ingress engine) rather than propagating or serializing.
    /// Split out of [`WaitCause::WireDrain`] when the fabric reports a
    /// per-hop causal breakdown (see `docs/TOPOLOGY.md`).
    Contention,
    /// Blocked on the reliability layer: un-ACKed packets outstanding, or a
    /// transfer known to have been retransmitted after loss.
    AckRetransmit,
    /// Host memory registration (pinning) of a transfer buffer.
    Registration,
    /// Blocked with no open data transfer: barrier / collective control.
    Sync,
    /// Cycles an asynchronous progress fiber stole from application compute
    /// (the `async-rank` progress model's per-wake polling quantum). Never
    /// produced under polling progress.
    ProgressSteal,
    /// In-library time inside the transfer window not covered by a recorded
    /// wait: copies, posts, polls, protocol bookkeeping.
    LibraryOverhead,
    /// Non-overlap the observed window cannot host: the a-priori table time
    /// exceeds the begin→end span (table overestimate or clamped bounds).
    TableExcess,
}

impl WaitCause {
    /// Every cause, in canonical (serialization) order.
    pub const ALL: [WaitCause; 12] = [
        WaitCause::LateSender,
        WaitCause::LateReceiver,
        WaitCause::RendezvousHandshake,
        WaitCause::EagerCopy,
        WaitCause::WireDrain,
        WaitCause::Contention,
        WaitCause::AckRetransmit,
        WaitCause::Registration,
        WaitCause::Sync,
        WaitCause::ProgressSteal,
        WaitCause::LibraryOverhead,
        WaitCause::TableExcess,
    ];

    /// Inverse of [`WaitCause::label`] (used by the streaming JSONL reader).
    pub(crate) fn from_label(s: &str) -> Option<WaitCause> {
        WaitCause::ALL.iter().copied().find(|c| c.label() == s)
    }

    /// Stable lowercase label (export/metric naming).
    pub(crate) fn label(self) -> &'static str {
        match self {
            WaitCause::LateSender => "late_sender",
            WaitCause::LateReceiver => "late_receiver",
            WaitCause::RendezvousHandshake => "rendezvous_handshake",
            WaitCause::EagerCopy => "eager_copy",
            WaitCause::WireDrain => "wire_drain",
            WaitCause::Contention => "contention",
            WaitCause::AckRetransmit => "ack_retransmit",
            WaitCause::Registration => "registration",
            WaitCause::Sync => "sync",
            WaitCause::ProgressSteal => "progress_steal",
            WaitCause::LibraryOverhead => "library_overhead",
            WaitCause::TableExcess => "table_excess",
        }
    }

    /// Index of this cause in [`WaitCause::ALL`], which lists the variants
    /// in declaration order.
    pub(crate) fn idx(self) -> usize {
        self as usize
    }
}

/// One classified blocking (or registration) interval, recorded by the
/// instrumented library while a time-resolved trace is being captured.
/// Rides on [`RankTrace::waits`]; serialized by the JSONL export as `"wait"`
/// lines (the Chrome-trace export does not render them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitInterval {
    /// Interval start, virtual ns.
    pub start: u64,
    /// Interval end, virtual ns (`end >= start`).
    pub end: u64,
    /// Why the rank was blocked.
    pub cause: WaitCause,
    /// The transfer the library believes it was blocked on, when a single
    /// one was identifiable.
    pub xfer: Option<u64>,
}

/// One cause's share of a transfer's (or a rank's) non-overlapped time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CauseSlice {
    /// The cause.
    pub cause: WaitCause,
    /// Attributed nanoseconds.
    pub ns: u64,
}

/// Per-transfer attribution: where the non-overlapped part of the transfer's
/// wire time went. `breakdown` sums to `nonoverlap` exactly. Serialized as is
/// into the attribution artifact, so field names and order are its schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CauseRecord {
    /// Transfer id (`None` for synthetic closes without one).
    pub id: Option<u64>,
    /// Payload bytes.
    pub bytes: u64,
    /// A-priori wire time, ns.
    pub xfer_time: u64,
    /// Upper overlap bound, ns.
    pub max_overlap: u64,
    /// Provably-non-overlapped time: `xfer_time − max_overlap`, ns.
    pub nonoverlap: u64,
    /// The transfer was fault-disturbed (flagged).
    pub flagged: bool,
    /// Cause breakdown.
    pub breakdown: Breakdown,
}

impl CauseRecord {
    /// The exact reconciliation this module promises:
    /// `Σ breakdown == nonoverlap == xfer_time − max_overlap`.
    pub fn reconciles(&self) -> bool {
        let explained: u64 = self.breakdown.0.iter().sum();
        explained == self.nonoverlap
            && self.xfer_time.checked_sub(self.max_overlap) == Some(self.nonoverlap)
    }
}

/// Attributed nanoseconds per cause, held as one fixed array indexed like
/// [`WaitCause::ALL`], so a record or a total allocates nothing. Serializes as
/// its nonzero [`CauseSlice`]s in that order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown([u64; WaitCause::ALL.len()]);

impl Breakdown {
    /// The nonzero slices, in [`WaitCause::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = CauseSlice> {
        WaitCause::ALL
            .into_iter()
            .zip(self.0)
            .filter(|&(_, ns)| ns > 0)
            .map(|(cause, ns)| CauseSlice { cause, ns })
    }

    /// Nanoseconds attributed to `cause`.
    pub fn get(&self, cause: WaitCause) -> u64 {
        self.0[cause.idx()]
    }
}

impl Serialize for Breakdown {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_array();
        for slice in self.iter() {
            w.element(&slice);
        }
        w.end_array();
    }
}

/// One rank's attribution: per-transfer records plus cause totals.
#[derive(Debug, Clone, Default)]
pub struct RankAttribution {
    /// One record per closed transfer, in close order.
    pub records: Vec<CauseRecord>,
    /// Σ attributed ns by cause, over all records.
    pub totals: Breakdown,
}

impl RankAttribution {
    /// Σ `nonoverlap` over all records — equals the rank report's
    /// `total.nonoverlapped_min()` when the trace covers the whole run.
    pub(crate) fn total_nonoverlap(&self) -> u64 {
        self.records
            .iter()
            .fold(0, |acc: u64, r| acc.saturating_add(r.nonoverlap))
    }
}

/// One atomic in-call segment: `(start, end, cause, pinned transfer)` with
/// `end > start`.
type Atom = (u64, u64, WaitCause, Option<u64>);

/// Atomic in-call segments: each top-level call span cut at wait-interval
/// boundaries, labelled with the wait's cause and the transfer the wait was
/// pinned on (gaps between waits are [`WaitCause::LibraryOverhead`] with no
/// transfer). Returned in time order when the rank's stamps are.
fn call_atoms(calls: &CallSpans, all_waits: &[WaitInterval]) -> Vec<Atom> {
    let mut waits: Vec<&WaitInterval> = all_waits.iter().filter(|w| w.end > w.start).collect();
    waits.sort_by_key(|w| (w.start, w.end));
    let spans = calls.spans(calls.last_t());
    // Per wait: the gap before it and itself; per span: its trailing gap.
    let mut atoms = Vec::with_capacity(2 * waits.len() + spans.size_hint().0);
    let mut wi = 0usize;
    for (s, e, _) in spans {
        let mut cursor = s;
        // Skip waits that ended before this span.
        while wi < waits.len() && waits[wi].end <= s {
            wi += 1;
        }
        let mut wj = wi;
        while wj < waits.len() && waits[wj].start < e {
            let w = waits[wj];
            let ws = w.start.max(s);
            let we = w.end.min(e);
            if ws > cursor {
                atoms.push((cursor, ws, WaitCause::LibraryOverhead, None));
            }
            if we > ws {
                atoms.push((ws, we, w.cause, w.xfer));
            }
            cursor = cursor.max(we);
            wj += 1;
        }
        if e > cursor {
            atoms.push((cursor, e, WaitCause::LibraryOverhead, None));
        }
    }
    atoms
}

/// Fold a rank's wait intervals and bound records into per-transfer
/// [`CauseRecord`]s. See the module docs for the algorithm and the exact
/// reconciliation invariant.
pub fn attribute(trace: &RankTrace) -> RankAttribution {
    attribute_view(&RankView::of(trace))
}

/// Items with a `[start, end)` extent (atoms, call spans), indexed so that
/// the run of them outside which none can meet a window is found in
/// logarithmic time: attributing a transfer costs what its window holds, not
/// what the rank recorded. Nothing is assumed about the order of the items (a
/// skewed clock or a hostile stream breaks any): the running maximum of ends
/// and the running-from-the-back minimum of starts are monotone whatever the
/// items are, so both cuts are binary searches and both are exact.
pub(crate) struct ExtentIndex<T> {
    items: Vec<T>,
    /// `max_end[i]`: the latest end among `items[..=i]`.
    max_end: Vec<u64>,
    /// `min_start[i]`: the earliest start among `items[i..]`.
    min_start: Vec<u64>,
}

impl<T> ExtentIndex<T> {
    /// Index `items`, whose `[start, end)` extents `extent` reads.
    pub(crate) fn new(items: Vec<T>, extent: impl Fn(&T) -> (u64, u64)) -> Self {
        let mut max_end = Vec::with_capacity(items.len());
        let mut latest = 0;
        for it in &items {
            latest = extent(it).1.max(latest);
            max_end.push(latest);
        }
        let mut min_start = vec![u64::MAX; items.len()];
        let mut earliest = u64::MAX;
        for (m, it) in min_start.iter_mut().zip(&items).rev() {
            earliest = extent(it).0.min(earliest);
            *m = earliest;
        }
        ExtentIndex {
            items,
            max_end,
            min_start,
        }
    }

    /// The items between the first that ends after `win_s` and the last
    /// that starts before `win_e`: every item left out ends at or before
    /// the window's start or starts at or after its end.
    pub(crate) fn meeting(&self, win_s: u64, win_e: u64) -> &[T] {
        let lo = self.max_end.partition_point(|&end| end <= win_s);
        let hi = self.min_start.partition_point(|&start| start < win_e);
        &self.items[lo..hi.max(lo)]
    }
}

/// [`attribute`] on a rank view: its top-level call spans (a call still open
/// closes at the rank's last stamp), its recorded wait intervals, and its
/// bound records. The stream fold lends the parts it maintains line by line,
/// so served and batch attributions are one computation.
pub(crate) fn attribute_view(view: &RankView<'_>) -> RankAttribution {
    let mut records = Vec::with_capacity(view.bounds.len());
    let totals = each_record(view, |r| records.push(r));
    RankAttribution { records, totals }
}

/// The walk of [`attribute_view`], each record handed to `sink` in close
/// order instead of collected (the metrics and wait-state folds consume them
/// as they come); returns their cause totals.
pub(crate) fn each_record(view: &RankView<'_>, sink: impl FnMut(CauseRecord)) -> Breakdown {
    let atoms = ExtentIndex::new(call_atoms(&view.calls, view.waits), |a| (a.0, a.1));
    attribute_over(view.bounds, |s, e| atoms.meeting(s, e), sink)
}

/// The attribution walk: one [`CauseRecord`] per bound record, in order, and
/// their cause totals. `atoms_for(win_s, win_e)` lends the atoms to walk for
/// a transfer with that window, in index order; leaving out atoms that do
/// not meet the window changes nothing, since the walk skips them.
fn attribute_over<'a>(
    bounds: &[BoundRecord],
    atoms_for: impl Fn(u64, u64) -> &'a [Atom],
    mut sink: impl FnMut(CauseRecord),
) -> Breakdown {
    let mut totals = Breakdown::default();
    for b in bounds {
        let nonoverlap = b.xfer_time.saturating_sub(b.max);
        let mut breakdown = Breakdown::default();
        if nonoverlap > 0 {
            let win_s = b.begin_t.unwrap_or(b.end_t);
            let win_e = b.end_t;
            let atoms = atoms_for(win_s, win_e);
            let mut remaining = nonoverlap;
            // Waits pinned on *this* transfer are its proximate cause, so
            // they are charged first; any rest is consumed latest-first:
            // the bound formula lets computation hide the transfer from its
            // start, so the *unhidden* tail is what the in-call time at the
            // end of the window failed to cover. The second pass skips the
            // pinned atoms — after pass one they are either fully consumed
            // or `remaining` is already zero.
            for pinned in [true, false] {
                for &(s, e, cause, xfer) in atoms.iter().rev() {
                    if remaining == 0 {
                        break;
                    }
                    if (xfer.is_some() && xfer == b.id) != pinned {
                        continue;
                    }
                    let cs = s.max(win_s);
                    let ce = e.min(win_e);
                    if ce <= cs {
                        continue;
                    }
                    let take = (ce - cs).min(remaining);
                    breakdown.0[cause.idx()] += take;
                    remaining -= take;
                }
            }
            // The observed window cannot host the rest: table overestimate
            // (clamped min) or a window opened by an end-only stamp.
            breakdown.0[WaitCause::TableExcess.idx()] += remaining;
        }
        for (total, ns) in totals.0.iter_mut().zip(breakdown.0) {
            *total = total.saturating_add(ns);
        }
        sink(CauseRecord {
            id: b.id,
            bytes: b.bytes,
            xfer_time: b.xfer_time,
            max_overlap: b.max,
            nonoverlap,
            flagged: b.flagged,
            breakdown,
        });
    }
    totals
}

/// Fold a rank view's attribution into metric counters and histograms, by
/// cause × message-size bin:
///
/// * counter `attr_ns/<cause>/<bin>` — Σ attributed ns,
/// * counter `attr_xfers/<cause>` — transfers with a nonzero slice,
/// * histogram `attr_ns_hist/<cause>` — per-transfer slice sizes on the
///   default latency ladder.
///
/// The keys are the ones `bins` shares, so the registry allocates none, and
/// no record is kept.
pub(crate) fn fold_metrics(view: &RankView<'_>, bins: &SizeBins, reg: &mut MetricsRegistry) {
    let names = bins.attr_names();
    each_record(view, |r| {
        let bin = bins.index(r.bytes);
        for s in r.breakdown.iter() {
            let n = &names[s.cause.idx()];
            reg.inc(n.ns[bin].clone(), s.ns);
            reg.inc(n.xfers.clone(), 1);
            reg.observe(n.hist.clone(), s.ns, Histogram::latency_default);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{self, ScopeView};
    use crate::bounds::XferCase;
    use crate::event::{Event, EventKind};
    use crate::trace::TraceBundle;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    /// The walk as it was before [`ExtentIndex`]: every transfer scans every
    /// atom of its rank. Kept as the oracle the windowed walk must equal.
    fn attribute_full_scan(view: &RankView<'_>) -> RankAttribution {
        let atoms = call_atoms(&view.calls, view.waits);
        let mut records = Vec::new();
        let totals = attribute_over(view.bounds, |_, _| &atoms, |r| records.push(r));
        RankAttribution { records, totals }
    }

    /// [`artifact::collapsed`] as it was before it aggregated by key: a line
    /// formatted per wait, its call found by a scan of every span. Kept as
    /// the oracle the keyed version must equal byte for byte.
    fn collapsed_per_wait(views: &[ScopeView<'_>]) -> String {
        let mut out = String::new();
        for v in views {
            let mut weights: BTreeMap<String, u64> = BTreeMap::new();
            for r in &v.ranks {
                for w in r.waits.iter().filter(|w| w.end > w.start) {
                    let call = r
                        .calls
                        .spans(r.calls.last_t())
                        .find(|&(s, e, _)| s <= w.start && w.start < e)
                        .map_or("(outside-call)", |(_, _, name)| name);
                    let key = format!("{};rank {};{};{}", v.scope, r.rank, call, w.cause.label());
                    *weights.entry(key).or_insert(0) += w.end - w.start;
                }
            }
            for (k, ns) in &weights {
                let _ = writeln!(out, "{k} {ns}");
            }
        }
        out
    }

    fn record(
        id: u64,
        begin_t: Option<u64>,
        end_t: u64,
        xfer_time: u64,
        max: u64,
        case: XferCase,
    ) -> BoundRecord {
        BoundRecord {
            id: Some(id),
            bytes: 1024,
            begin_t,
            end_t,
            xfer_time,
            min: 0,
            max,
            case,
            flagged: false,
            clamped: false,
        }
    }

    /// isend at 0..10, compute 10..1000, wait 1000..1600 blocked 1100..1600
    /// on a late receiver. xfer_time 800, comp 990 ⇒ max = 800, nonoverlap 0.
    #[test]
    fn fully_overlappable_transfer_attributes_nothing() {
        let trace = RankTrace {
            rank: 0,
            events: vec![
                ev(0, EventKind::CallEnter { name: "MPI_Isend" }),
                ev(0, EventKind::XferBegin { id: 1, bytes: 1024 }),
                ev(10, EventKind::CallExit),
                ev(1000, EventKind::CallEnter { name: "MPI_Wait" }),
                ev(1600, EventKind::XferEnd { id: 1, bytes: 1024 }),
                ev(1600, EventKind::CallExit),
            ],
            bounds: vec![record(1, Some(0), 1600, 800, 800, XferCase::SplitCalls)],
            waits: vec![WaitInterval {
                start: 1100,
                end: 1600,
                cause: WaitCause::LateReceiver,
                xfer: Some(1),
            }],
        };
        let attr = attribute(&trace);
        assert_eq!(attr.records.len(), 1);
        assert_eq!(attr.records[0].nonoverlap, 0);
        assert_eq!(attr.records[0].breakdown, Breakdown::default());
        assert_eq!(attr.totals, Breakdown::default());
    }

    /// Short compute window: comp = 100, xfer_time = 800 ⇒ max = 100,
    /// nonoverlap = 700, of which the wait covers 600 ns.
    fn split_calls_trace() -> RankTrace {
        RankTrace {
            rank: 0,
            events: vec![
                ev(0, EventKind::CallEnter { name: "MPI_Irecv" }),
                ev(0, EventKind::XferBegin { id: 7, bytes: 1024 }),
                ev(10, EventKind::CallExit),
                ev(110, EventKind::CallEnter { name: "MPI_Wait" }),
                ev(810, EventKind::XferEnd { id: 7, bytes: 1024 }),
                ev(810, EventKind::CallExit),
            ],
            bounds: vec![record(7, Some(0), 810, 800, 100, XferCase::SplitCalls)],
            waits: vec![WaitInterval {
                start: 150,
                end: 750,
                cause: WaitCause::LateSender,
                xfer: Some(7),
            }],
        }
    }

    /// The wait (600 ns of late-sender blocking) plus library overhead must
    /// cover the nonoverlap exactly.
    #[test]
    fn split_calls_reconciles_waits_plus_overhead() {
        let trace = split_calls_trace();
        let attr = attribute(&trace);
        let r = &attr.records[0];
        assert_eq!(r.nonoverlap, 700);
        assert!(r.reconciles(), "breakdown must reconcile exactly");
        // Latest-first consumption: 810..750 overhead (60), 750..150 wait
        // (600), then 40 more overhead from 150..110.
        assert_eq!(r.breakdown.get(WaitCause::LateSender), 600);
        assert_eq!(r.breakdown.get(WaitCause::LibraryOverhead), 100);
        assert_eq!(r.breakdown.get(WaitCause::TableExcess), 0);
    }

    /// SameCall (blocking send): max = 0, everything attributes; a table
    /// time beyond the window spills into TableExcess.
    #[test]
    fn same_call_overflow_goes_to_table_excess() {
        let trace = RankTrace {
            rank: 1,
            events: vec![
                ev(0, EventKind::CallEnter { name: "MPI_Send" }),
                ev(5, EventKind::XferBegin { id: 3, bytes: 1024 }),
                ev(105, EventKind::XferEnd { id: 3, bytes: 1024 }),
                ev(110, EventKind::CallExit),
            ],
            bounds: vec![record(3, Some(5), 105, 150, 0, XferCase::SameCall)],
            waits: vec![WaitInterval {
                start: 20,
                end: 90,
                cause: WaitCause::EagerCopy,
                xfer: Some(3),
            }],
        };
        let attr = attribute(&trace);
        let r = &attr.records[0];
        assert_eq!(r.nonoverlap, 150);
        assert!(r.reconciles());
        // Window holds 100 ns of in-call time; 50 ns cannot be hosted.
        assert_eq!(r.breakdown.get(WaitCause::TableExcess), 50);
        assert_eq!(attr.totals.get(WaitCause::EagerCopy), 70);
    }

    /// Single-stamp transfers have max = xfer_time ⇒ zero nonoverlap.
    #[test]
    fn single_stamp_attributes_nothing() {
        let trace = RankTrace {
            rank: 0,
            events: vec![
                ev(0, EventKind::CallEnter { name: "MPI_Recv" }),
                ev(400, EventKind::XferEnd { id: 9, bytes: 64 }),
                ev(400, EventKind::CallExit),
            ],
            bounds: vec![record(9, None, 400, 300, 300, XferCase::SingleStamp)],
            waits: vec![WaitInterval {
                start: 10,
                end: 390,
                cause: WaitCause::LateSender,
                xfer: None,
            }],
        };
        let attr = attribute(&trace);
        assert_eq!(attr.records[0].nonoverlap, 0);
        assert_eq!(attr.records[0].breakdown, Breakdown::default());
    }

    #[test]
    fn collapsed_stack_counts_each_blocked_ns_once_sorted() {
        let bundle = TraceBundle {
            scope: "t/x".into(),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![
                    ev(0, EventKind::CallEnter { name: "MPI_Wait" }),
                    ev(100, EventKind::CallExit),
                    ev(200, EventKind::CallEnter { name: "MPI_Recv" }),
                    ev(300, EventKind::CallExit),
                ],
                bounds: vec![],
                waits: vec![
                    WaitInterval {
                        start: 10,
                        end: 60,
                        cause: WaitCause::LateReceiver,
                        xfer: None,
                    },
                    WaitInterval {
                        start: 210,
                        end: 290,
                        cause: WaitCause::LateSender,
                        xfer: None,
                    },
                ],
            }],
            extras: vec![],
        };
        let s = artifact::collapsed(&[ScopeView::of(&bundle.scope, &bundle)]);
        assert_eq!(
            s,
            "t/x;rank 0;MPI_Recv;late_sender 80\nt/x;rank 0;MPI_Wait;late_receiver 50\n"
        );
    }

    #[test]
    fn a_cause_serializes_as_its_label() {
        for c in WaitCause::ALL {
            let text = serde_json::to_string(&c).unwrap();
            assert_eq!(text, format!("\"{}\"", c.label()), "{c:?}");
        }
    }

    #[test]
    fn a_cause_indexes_its_place_in_all() {
        for (i, c) in WaitCause::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
    }

    #[test]
    fn fold_metrics_by_cause_and_bin() {
        let trace = split_calls_trace();
        let mut reg = MetricsRegistry::new();
        fold_metrics(&RankView::of(&trace), &SizeBins::default(), &mut reg);
        assert_eq!(reg.counters["attr_ns/late_sender/1K-8K"], 600);
        assert_eq!(reg.counters["attr_ns/library_overhead/1K-8K"], 100);
        assert_eq!(reg.counters["attr_xfers/late_sender"], 1);
        assert_eq!(reg.histograms["attr_ns_hist/late_sender"].count(), 1);
        assert_eq!(reg.counters.len(), 4);
    }

    /// Stamps land on a small grid, so window, span and wait edges coincide
    /// as often as they cross.
    const HORIZON: u64 = 160;

    /// Call spans as `(advance, turn the clock back, length)` steps from a
    /// cursor: a skewed span starts before spans already recorded, so the
    /// atoms come out of order.
    fn arb_spans() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
        prop::collection::vec(
            (
                0u64..8,
                prop_oneof![Just(0u64), Just(0u64), 1u64..30],
                0u64..8,
            ),
            0..40,
        )
    }

    /// `(start, length, cause, pinned transfer)`: zero-length, overlapping,
    /// pinned and unpinned waits.
    fn arb_waits() -> impl Strategy<Value = Vec<(u64, u64, usize, Option<u64>)>> {
        prop::collection::vec(
            (
                0u64..HORIZON,
                0u64..12,
                0usize..WaitCause::ALL.len(),
                prop::option::of(0u64..8),
            ),
            0..40,
        )
    }

    /// `(id, begin stamp, end stamp, table time, max bound)`: a missing
    /// begin is an end-only bound, and nothing orders begin before end.
    fn arb_bounds() -> impl Strategy<Value = Vec<(u64, Option<u64>, u64, u64, u64)>> {
        prop::collection::vec(
            (
                0u64..8,
                prop::option::of(0u64..HORIZON),
                0u64..HORIZON,
                0u64..80,
                0u64..40,
            ),
            0..30,
        )
    }

    /// The events of [`arb_spans`] steps, the calls named in turn from
    /// `names`.
    fn span_events(spans: Vec<(u64, u64, u64)>, names: &[&'static str]) -> Vec<Event> {
        let mut events = Vec::new();
        let mut cursor = 0u64;
        for (i, (advance, back, len)) in spans.into_iter().enumerate() {
            cursor = (cursor + advance).saturating_sub(back);
            let name = names[i % names.len()];
            events.push(ev(cursor, EventKind::CallEnter { name }));
            events.push(ev(cursor + len, EventKind::CallExit));
            cursor += len;
        }
        events
    }

    fn wait_intervals(waits: Vec<(u64, u64, usize, Option<u64>)>) -> Vec<WaitInterval> {
        waits
            .into_iter()
            .map(|(start, len, cause, xfer)| WaitInterval {
                start,
                end: start + len,
                cause: WaitCause::ALL[cause],
                xfer,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn windowed_walk_agrees_with_the_full_scan(
            spans in arb_spans(),
            waits in arb_waits(),
            bounds in arb_bounds(),
        ) {
            let trace = RankTrace {
                rank: 3,
                events: span_events(spans, &["MPI_Wait"]),
                bounds: bounds
                    .into_iter()
                    .map(|(id, begin_t, end_t, xfer_time, max)| {
                        record(id, begin_t, end_t, xfer_time, max, XferCase::SplitCalls)
                    })
                    .collect(),
                waits: wait_intervals(waits),
            };
            let view = RankView::of(&trace);
            let (got, want) = (attribute_view(&view), attribute_full_scan(&view));
            prop_assert_eq!(got.records, want.records);
            prop_assert_eq!(got.totals, want.totals);
        }

        /// Ranks 1, 10 and 2, so `rank 10;` sorts before `rank 1;` in the
        /// lines though not in the keys; a call name holding `;`; skewed and
        /// overlapping spans, waits outside every call and zero-length ones.
        #[test]
        fn keyed_collapsed_agrees_with_the_per_wait_oracle(
            a in (arb_spans(), arb_waits()),
            b in (arb_spans(), arb_waits()),
            c in (arb_spans(), arb_waits()),
        ) {
            let bundle = TraceBundle {
                scope: "p/q".into(),
                ranks: [(1, a), (10, b), (2, c)]
                    .into_iter()
                    .map(|(rank, (spans, waits))| RankTrace {
                        rank,
                        events: span_events(spans, &["MPI_Wait", "a;b", "MPI_Recv"]),
                        bounds: vec![],
                        waits: wait_intervals(waits),
                    })
                    .collect(),
                extras: vec![],
            };
            let views = [ScopeView::of(&bundle.scope, &bundle)];
            prop_assert_eq!(artifact::collapsed(&views), collapsed_per_wait(&views));
        }
    }

    /// 20 000 isend/compute/wait cycles whose table time the window cannot
    /// host, so no walk ends early: a walk that visits every atom for every
    /// transfer is 1.6e9 steps here, the windowed one 80 000.
    #[test]
    fn attribution_is_linear_in_transfers() {
        const XFERS: u64 = 20_000;
        let mut trace = RankTrace {
            rank: 0,
            events: Vec::new(),
            bounds: Vec::new(),
            waits: Vec::new(),
        };
        for id in 0..XFERS {
            let t = id * 1_000;
            trace.events.extend([
                ev(t, EventKind::CallEnter { name: "MPI_Isend" }),
                ev(t + 10, EventKind::CallExit),
                ev(t + 510, EventKind::CallEnter { name: "MPI_Wait" }),
                ev(t + 520, EventKind::CallExit),
            ]);
            trace
                .bounds
                .push(record(id, Some(t), t + 520, 800, 500, XferCase::SplitCalls));
        }
        let started = std::time::Instant::now();
        let attr = attribute(&trace);
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(5),
            "attributing {XFERS} transfers took {took:?}"
        );
        assert_eq!(attr.records.len() as u64, XFERS);
        assert_eq!(attr.totals.get(WaitCause::LibraryOverhead), 20 * XFERS);
        assert_eq!(attr.totals.get(WaitCause::TableExcess), 280 * XFERS);
    }
}
