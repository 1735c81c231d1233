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

use std::collections::BTreeMap;

use serde::Serialize;

use crate::artifact::RankView;
use crate::bins::SizeBins;
use crate::fold::CallSpans;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::RankTrace;

/// Why a rank was not overlapping a transfer at some moment.
///
/// The first group is produced by the instrumented library at block time;
/// the last two only by [`attribute`], closing the reconciliation sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// Index of this cause in [`WaitCause::ALL`].
    fn idx(self) -> usize {
        WaitCause::ALL
            .iter()
            .position(|&c| c == self)
            .expect("cause listed in ALL")
    }
}

/// A cause serializes as its stable lowercase label (`late_sender`, ...).
impl Serialize for WaitCause {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
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
    /// Cause breakdown in [`WaitCause::ALL`] order, zero slices omitted.
    pub breakdown: Vec<CauseSlice>,
}

/// One rank's attribution: per-transfer records plus cause totals.
#[derive(Debug, Clone, Default)]
pub struct RankAttribution {
    /// Rank the records describe.
    pub(crate) rank: usize,
    /// One record per closed transfer, in close order.
    pub records: Vec<CauseRecord>,
    /// Σ attributed ns by cause label, over all records.
    pub totals: BTreeMap<&'static str, u64>,
    /// Number of wait intervals the library recorded.
    pub(crate) wait_intervals: usize,
}

impl RankAttribution {
    /// Σ `nonoverlap` over all records — equals the rank report's
    /// `total.nonoverlapped_min()` when the trace covers the whole run.
    pub fn total_nonoverlap(&self) -> u64 {
        self.records.iter().map(|r| r.nonoverlap).sum()
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

/// Finds, for a transfer window, the run of a rank's atoms outside which no
/// atom can meet it, so that attributing a transfer costs what its window
/// holds, not what the rank recorded. Nothing is assumed about the order of
/// the atoms (a skewed clock or a hostile stream breaks any): the running
/// maximum of atom ends and the running-from-the-back minimum of atom starts
/// are monotone whatever the atoms are, so both cuts are binary searches and
/// both are exact.
struct AtomWindows {
    atoms: Vec<Atom>,
    /// `max_end[i]`: the latest end among `atoms[..=i]`.
    max_end: Vec<u64>,
    /// `min_start[i]`: the earliest start among `atoms[i..]`.
    min_start: Vec<u64>,
}

impl AtomWindows {
    fn new(atoms: Vec<Atom>) -> Self {
        let mut max_end = Vec::with_capacity(atoms.len());
        let mut latest = 0;
        for a in &atoms {
            latest = a.1.max(latest);
            max_end.push(latest);
        }
        let mut min_start = vec![u64::MAX; atoms.len()];
        let mut earliest = u64::MAX;
        for (m, a) in min_start.iter_mut().zip(&atoms).rev() {
            earliest = a.0.min(earliest);
            *m = earliest;
        }
        AtomWindows {
            atoms,
            max_end,
            min_start,
        }
    }

    /// The atoms between the first that ends after `win_s` and the last
    /// that starts before `win_e`: every atom left out ends at or before
    /// the window's start or starts at or after its end.
    fn meeting(&self, win_s: u64, win_e: u64) -> &[Atom] {
        let lo = self.max_end.partition_point(|&end| end <= win_s);
        let hi = self.min_start.partition_point(|&start| start < win_e);
        &self.atoms[lo..hi.max(lo)]
    }
}

/// [`attribute`] on a rank view: its top-level call spans (a call still open
/// closes at the rank's last stamp), its recorded wait intervals, and its
/// bound records. The stream fold lends the parts it maintains line by line,
/// so served and batch attributions are one computation.
pub(crate) fn attribute_view(view: &RankView<'_>) -> RankAttribution {
    let windows = AtomWindows::new(call_atoms(&view.calls, view.waits));
    attribute_over(view, |win_s, win_e| windows.meeting(win_s, win_e))
}

/// The attribution walk. `atoms_for(win_s, win_e)` lends the atoms to walk
/// for a transfer with that window, in index order; leaving out atoms that
/// do not meet the window changes nothing, since the walk skips them.
fn attribute_over<'a>(
    view: &RankView<'_>,
    atoms_for: impl Fn(u64, u64) -> &'a [Atom],
) -> RankAttribution {
    let (rank, waits, bounds) = (view.rank, view.waits, view.bounds);
    let mut records = Vec::with_capacity(bounds.len());
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for b in bounds {
        let nonoverlap = b.xfer_time.saturating_sub(b.max);
        let mut by_cause = [0u64; WaitCause::ALL.len()];
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
                    by_cause[cause.idx()] += take;
                    remaining -= take;
                }
            }
            // The observed window cannot host the rest: table overestimate
            // (clamped min) or a window opened by an end-only stamp.
            by_cause[WaitCause::TableExcess.idx()] += remaining;
        }
        let breakdown: Vec<CauseSlice> = WaitCause::ALL
            .iter()
            .zip(by_cause)
            .filter(|&(_, ns)| ns > 0)
            .map(|(&cause, ns)| CauseSlice { cause, ns })
            .collect();
        for s in &breakdown {
            *totals.entry(s.cause.label()).or_insert(0) += s.ns;
        }
        records.push(CauseRecord {
            id: b.id,
            bytes: b.bytes,
            xfer_time: b.xfer_time,
            max_overlap: b.max,
            nonoverlap,
            flagged: b.flagged,
            breakdown,
        });
    }
    RankAttribution {
        rank,
        records,
        totals,
        wait_intervals: waits.len(),
    }
}

/// Fold a rank's attribution into metric counters and histograms, by cause ×
/// message-size bin:
///
/// * counter `attr_ns/<cause>/<bin>` — Σ attributed ns,
/// * counter `attr_xfers/<cause>` — transfers with a nonzero slice,
/// * histogram `attr_ns_hist/<cause>` — per-transfer slice sizes on the
///   default latency ladder.
pub(crate) fn fold_metrics(attr: &RankAttribution, bins: &SizeBins, reg: &mut MetricsRegistry) {
    for r in &attr.records {
        let bin = bins.label(bins.index(r.bytes));
        for s in &r.breakdown {
            reg.inc(&format!("attr_ns/{}/{}", s.cause.label(), bin), s.ns);
            reg.inc(&format!("attr_xfers/{}", s.cause.label()), 1);
            reg.observe(
                &format!("attr_ns_hist/{}", s.cause.label()),
                s.ns,
                Histogram::latency_default,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{self, ScopeView};
    use crate::bounds::XferCase;
    use crate::event::{Event, EventKind};
    use crate::trace::{BoundRecord, TraceBundle};
    use proptest::prelude::*;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    /// The walk as it was before [`AtomWindows`]: every transfer scans every
    /// atom of its rank. Kept as the oracle the windowed walk must equal.
    fn attribute_full_scan(view: &RankView<'_>) -> RankAttribution {
        let atoms = call_atoms(&view.calls, view.waits);
        attribute_over(view, |_, _| &atoms)
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
        assert!(attr.records[0].breakdown.is_empty());
        assert!(attr.totals.is_empty());
    }

    /// Short compute window: comp = 100, xfer_time = 800 ⇒ max = 100,
    /// nonoverlap = 700. The wait (600 ns of late-sender blocking) plus
    /// library overhead must cover it exactly.
    #[test]
    fn split_calls_reconciles_waits_plus_overhead() {
        let trace = RankTrace {
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
        };
        let attr = attribute(&trace);
        let r = &attr.records[0];
        assert_eq!(r.nonoverlap, 700);
        let sum: u64 = r.breakdown.iter().map(|s| s.ns).sum();
        assert_eq!(sum, r.nonoverlap, "breakdown must reconcile exactly");
        let by = |c: WaitCause| {
            r.breakdown
                .iter()
                .find(|s| s.cause == c)
                .map(|s| s.ns)
                .unwrap_or(0)
        };
        // Latest-first consumption: 810..750 overhead (60), 750..150 wait
        // (600), then 40 more overhead from 150..110.
        assert_eq!(by(WaitCause::LateSender), 600);
        assert_eq!(by(WaitCause::LibraryOverhead), 100);
        assert_eq!(by(WaitCause::TableExcess), 0);
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
        let sum: u64 = r.breakdown.iter().map(|s| s.ns).sum();
        assert_eq!(sum, 150);
        let excess = r
            .breakdown
            .iter()
            .find(|s| s.cause == WaitCause::TableExcess)
            .unwrap()
            .ns;
        // Window holds 100 ns of in-call time; 50 ns cannot be hosted.
        assert_eq!(excess, 50);
        assert_eq!(attr.totals["eager_copy"], 70);
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
        assert!(attr.records[0].breakdown.is_empty());
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
    fn fold_metrics_by_cause_and_bin() {
        let attr = RankAttribution {
            rank: 0,
            records: vec![CauseRecord {
                id: Some(1),
                bytes: 2048,
                xfer_time: 500,
                max_overlap: 100,
                nonoverlap: 400,
                flagged: false,
                breakdown: vec![
                    CauseSlice {
                        cause: WaitCause::LateSender,
                        ns: 300,
                    },
                    CauseSlice {
                        cause: WaitCause::LibraryOverhead,
                        ns: 100,
                    },
                ],
            }],
            totals: BTreeMap::new(),
            wait_intervals: 1,
        };
        let mut reg = MetricsRegistry::new();
        fold_metrics(&attr, &SizeBins::default(), &mut reg);
        assert_eq!(reg.counters["attr_ns/late_sender/1K-8K"], 300);
        assert_eq!(reg.counters["attr_ns/library_overhead/1K-8K"], 100);
        assert_eq!(reg.counters["attr_xfers/late_sender"], 1);
        assert_eq!(reg.histograms["attr_ns_hist/late_sender"].count(), 1);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn windowed_walk_agrees_with_the_full_scan(
            spans in arb_spans(),
            waits in arb_waits(),
            bounds in arb_bounds(),
        ) {
            let mut events = Vec::new();
            let mut cursor = 0u64;
            for (advance, back, len) in spans {
                cursor = (cursor + advance).saturating_sub(back);
                events.push(ev(cursor, EventKind::CallEnter { name: "MPI_Wait" }));
                events.push(ev(cursor + len, EventKind::CallExit));
                cursor += len;
            }
            let trace = RankTrace {
                rank: 3,
                events,
                bounds: bounds
                    .into_iter()
                    .map(|(id, begin_t, end_t, xfer_time, max)| {
                        record(id, begin_t, end_t, xfer_time, max, XferCase::SplitCalls)
                    })
                    .collect(),
                waits: waits
                    .into_iter()
                    .map(|(start, len, cause, xfer)| WaitInterval {
                        start,
                        end: start + len,
                        cause: WaitCause::ALL[cause],
                        xfer,
                    })
                    .collect(),
            };
            let view = RankView::of(&trace);
            let (got, want) = (attribute_view(&view), attribute_full_scan(&view));
            prop_assert_eq!(got.rank, want.rank);
            prop_assert_eq!(got.records, want.records);
            prop_assert_eq!(got.totals, want.totals);
            prop_assert_eq!(got.wait_intervals, want.wait_intervals);
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
        assert_eq!(attr.totals["library_overhead"], 20 * XFERS);
        assert_eq!(attr.totals["table_excess"], 280 * XFERS);
    }
}
