//! The artifacts both the batch CLI and the streaming server emit, and the
//! one input they are all built from.
//!
//! `repro --trace` / `--critical-path` and `overlapd`'s read endpoints must
//! emit **byte-identical** output for the same event stream, so the
//! serialized types (field names, field order, omission rules) and the
//! builders live here, beneath both consumers. Every builder takes
//! `&[`[`ScopeView`]`]`: per scope its label, covered span and fabric-extra
//! stamps, and per rank the event count, top-level call spans, bound records
//! and wait intervals. A captured [`TraceBundle`] lends one
//! ([`ScopeView::of`], replaying each rank's events into call spans once);
//! a [`crate::stream::SessionFold`] lends the parts it maintains line by
//! line. There is no second construction to keep in step.
//!
//! Everything here is a pure function of its inputs (virtual time only):
//! byte-identical across runs, worker counts, and batch vs. stream.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Serialize;

use crate::attribution::{self, CauseRecord, CauseSlice, RankAttribution, WaitCause, WaitInterval};
use crate::fold::CallSpans;
use crate::trace::{
    default_width, windows_of, BoundRecord, RankTrace, TooManyWindows, TraceBundle, WindowRow,
};

/// One rank of a [`ScopeView`].
pub(crate) struct RankView<'a> {
    pub rank: usize,
    /// Raw instrumentation events seen for this rank.
    pub events: u64,
    /// Top-level call spans: replayed (owned) from a captured trace, lent by
    /// the stream fold.
    pub calls: Cow<'a, CallSpans>,
    pub bounds: &'a [BoundRecord],
    pub waits: &'a [WaitInterval],
}

impl<'a> RankView<'a> {
    /// A captured rank trace, its events replayed into call spans.
    pub(crate) fn of(trace: &'a RankTrace) -> Self {
        RankView {
            rank: trace.rank,
            events: trace.events.len() as u64,
            calls: Cow::Owned(CallSpans::replay(&trace.events)),
            bounds: &trace.bounds,
            waits: &trace.waits,
        }
    }
}

/// One scope as every artifact reads it: borrowed from a captured bundle or
/// from a live session, never copied.
pub struct ScopeView<'a> {
    /// The scope label.
    pub scope: &'a str,
    /// `[first, last]` stamp covered ([`TraceBundle::span`]).
    pub(crate) span: Option<(u64, u64)>,
    /// Fabric-extra stamps.
    pub(crate) extras: Cow<'a, [u64]>,
    /// Rank order.
    pub(crate) ranks: Vec<RankView<'a>>,
}

impl<'a> ScopeView<'a> {
    /// View `bundle` under the label `scope`.
    pub fn of(scope: &'a str, bundle: &'a TraceBundle) -> Self {
        ScopeView {
            scope,
            span: bundle.span(),
            extras: bundle.extras.iter().map(|x| x.t).collect(),
            ranks: bundle.ranks.iter().map(RankView::of).collect(),
        }
    }
}

/// One scope's windowed series (the trace-window JSON shape): the scope's
/// virtual-time span cut into fixed windows, each with transfer counts,
/// summed overlap bounds, in-call (wait) time, and fault/flag counts.
#[derive(Debug, Clone, Serialize)]
pub struct ScopeSeries {
    /// Scope label (`"<harness>/<point>"`).
    pub scope: String,
    /// Window width, virtual ns.
    pub window_ns: u64,
    /// The windows, in time order.
    pub windows: Vec<WindowRow>,
}

/// One rank's wait-state summary within a scope.
#[derive(Debug, Clone, Serialize)]
pub struct RankWaitStates {
    /// Rank index.
    pub rank: usize,
    /// Blocking intervals the library classified.
    pub wait_intervals: usize,
    /// Σ provably-non-overlapped transfer time, ns (`xfer_time −
    /// max_overlap` over all transfers).
    pub nonoverlap_ns: u64,
    /// Per-cause attributed totals in canonical cause order, zero causes
    /// omitted. Sums to `nonoverlap_ns`.
    pub causes: Vec<CauseSlice>,
}

/// Per-rank wait-state breakdown of one traced scope, as merged into the
/// `--json` run report and served live by the streaming server.
#[derive(Debug, Clone, Serialize)]
pub struct ScopeWaitStates {
    /// Scope label (`"<harness>/<point>"`).
    pub scope: String,
    /// Per-rank summaries, rank order.
    pub ranks: Vec<RankWaitStates>,
}

/// One rank's full attribution inside the artifact file.
#[derive(Debug, Clone, Serialize)]
pub struct RankAttributionJson {
    /// Rank index.
    pub rank: usize,
    /// Blocking intervals the library classified.
    pub wait_intervals: usize,
    /// Per-transfer records, close order.
    pub transfers: Vec<CauseRecord>,
}

/// One scope's section of the artifact file.
#[derive(Debug, Clone, Serialize)]
pub struct ScopeAttributionJson {
    /// Scope label.
    pub scope: String,
    /// Per-rank attributions.
    pub ranks: Vec<RankAttributionJson>,
}

/// Instrumentation self-overhead meter: what the observability layer itself
/// cost, in deterministic units (counts and virtual-time nanoseconds — host
/// wall-clock goes to stderr, not into artifacts).
#[derive(Debug, Clone, Default, Serialize)]
pub struct OverheadMeter {
    /// Traced scopes folded.
    pub scopes: usize,
    /// Rank traces folded.
    pub ranks: usize,
    /// Raw instrumentation events captured.
    pub events: u64,
    /// Per-transfer bound records derived.
    pub bound_records: u64,
    /// Wait intervals classified and recorded.
    pub wait_intervals: u64,
    /// Σ attributed non-overlap across all transfers, ns.
    pub attributed_ns: u64,
}

/// The `<id>.attribution.json` artifact: per-scope, per-rank, per-transfer
/// cause records plus the self-overhead meter.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionArtifact {
    /// Harness id the artifact covers.
    pub id: String,
    /// Per-scope attributions, scope order.
    pub scopes: Vec<ScopeAttributionJson>,
    /// What the instrumentation itself cost.
    pub overhead: OverheadMeter,
}

/// Per-scope windowed series. `width` of `None` picks each scope's default
/// (1/16th of its span, min 1 ns). A `width` that would split some scope's
/// span into more than 2^16 rows is refused; the default never is.
pub fn series(
    views: &[ScopeView<'_>],
    width: Option<u64>,
) -> Result<Vec<ScopeSeries>, TooManyWindows> {
    views
        .iter()
        .map(|v| {
            let window_ns = width.unwrap_or(default_width(v.span)).max(1);
            Ok(ScopeSeries {
                scope: v.scope.to_string(),
                window_ns,
                windows: windows_of(v, window_ns)?,
            })
        })
        .collect()
}

/// Per-scope, per-rank wait-state breakdowns (the `--json` report shape).
pub fn wait_states(views: &[ScopeView<'_>]) -> Vec<ScopeWaitStates> {
    views
        .iter()
        .map(|v| ScopeWaitStates {
            scope: v.scope.to_string(),
            ranks: v
                .ranks
                .iter()
                .map(|r| rank_wait_states(&attribution::attribute_view(r)))
                .collect(),
        })
        .collect()
}

fn rank_wait_states(attr: &RankAttribution) -> RankWaitStates {
    let causes = WaitCause::ALL
        .iter()
        .filter_map(|&cause| {
            let ns = *attr.totals.get(cause.label())?;
            Some(CauseSlice { cause, ns })
        })
        .collect();
    RankWaitStates {
        rank: attr.rank,
        wait_intervals: attr.wait_intervals,
        nonoverlap_ns: attr.total_nonoverlap(),
        causes,
    }
}

/// The `<id>.attribution.json` artifact for `views` (scope order, ranks in
/// rank order), accumulating the self-overhead meter as it goes.
pub fn attribution_artifact(id: &str, views: &[ScopeView<'_>]) -> AttributionArtifact {
    let mut overhead = OverheadMeter::default();
    let scopes = views
        .iter()
        .map(|v| {
            overhead.scopes += 1;
            let ranks = v
                .ranks
                .iter()
                .map(|r| {
                    let attr = attribution::attribute_view(r);
                    overhead.ranks += 1;
                    overhead.events += r.events;
                    overhead.bound_records += attr.records.len() as u64;
                    overhead.wait_intervals += attr.wait_intervals as u64;
                    overhead.attributed_ns += attr.total_nonoverlap();
                    RankAttributionJson {
                        rank: attr.rank,
                        wait_intervals: attr.wait_intervals,
                        transfers: attr.records,
                    }
                })
                .collect();
            ScopeAttributionJson {
                scope: v.scope.to_string(),
                ranks,
            }
        })
        .collect();
    AttributionArtifact {
        id: id.to_string(),
        scopes,
        overhead,
    }
}

/// The `<id>.critpath.folded` text: each scope's dominant wait chains in
/// flamegraph-collapsed format, scopes concatenated in order. One
/// `scope;rank N;<call>;<cause> <ns>` line per chain, sorted lexically
/// within a scope; each blocked nanosecond is counted once (the
/// critical-path view; see [`crate::attribution`] for how this differs from
/// the per-transfer records).
pub fn collapsed(views: &[ScopeView<'_>]) -> String {
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
