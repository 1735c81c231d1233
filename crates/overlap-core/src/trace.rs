//! Time-resolved trace export: Chrome-trace JSON, JSON-lines, and windowed
//! series.
//!
//! The paper's framework deliberately keeps only running aggregates, but the
//! *explanation* of an overlap number usually needs the time axis back:
//! which calls blocked, which transfers were flagged, when the retransmits
//! clustered. This module provides that view without touching the hot path:
//!
//! * [`RankTrace`] — the per-process capture: the raw four-event stream plus
//!   one derived [`BoundRecord`] per closed transfer. It is filled by the
//!   processor *at fold time* (when the event ring drains), so the
//!   instrumented library still only pushes into the bounded ring.
//! * [`TraceBundle`] — one scope's worth of rank traces plus fabric-side
//!   [`ExtraEvent`]s (e.g. injected faults), labelled for grouping.
//! * [`chrome_json`] — serializes bundles into the Chrome trace event format
//!   (load in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//! * [`jsonl`] — one self-describing JSON object per line, for `jq`-style
//!   offline analysis.
//! * [`windowed`] — folds a bundle into per-virtual-time-window rows
//!   (transfers, overlap bounds, in-call time, flags, faults): the
//!   time-resolved series merged into machine-readable run reports. The
//!   stream fold serves its live series from the same fold, and both get
//!   their call spans from `fold::CallSpans`; a series is capped at
//!   2^16 rows (`MAX_WINDOWS`).
//!
//! All output is a pure function of the captured traces: byte-identical
//! across runs and across worker counts.
//!
//! Both exports are stamped with schema version 1: the JSONL stream opens
//! with a `{"ev":"header","schema_version":N}` line and the Chrome-trace
//! object carries a top-level `schemaVersion` member, so stream consumers
//! (notably the `overlapd` ingest reader, [`crate::stream`]) can refuse
//! files written by an incompatible exporter instead of misfolding them.

use std::fmt::{self, Write as _};

use serde::{Escaped, Serialize};

use crate::artifact::ScopeView;
use crate::bounds::XferCase;
use crate::event::{Event, EventKind};

/// Version of the pinned trace-export schemas (JSONL lines and Chrome-trace
/// metadata). Bumped whenever a line shape changes incompatibly; the
/// streaming reader ([`crate::stream`]) rejects mismatches with a one-line
/// error.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// One derived record per closed transfer: the inputs and outputs of the
/// bound computation, time-stamped so offline tools can re-derive or audit
/// the aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BoundRecord {
    /// Transfer id (`None` for synthetic closes without an id, e.g. a
    /// duplicate-begin orphan).
    pub id: Option<u64>,
    /// Payload bytes.
    pub bytes: u64,
    /// `XFER_BEGIN` stamp, if one was observed.
    pub begin_t: Option<u64>,
    /// Close time: the `XFER_END` stamp, or the finish sweep time for
    /// transfers still open at shutdown.
    pub end_t: u64,
    /// A-priori transfer time from the table, ns.
    pub xfer_time: u64,
    /// Lower overlap bound, ns (post-degradation).
    pub min: u64,
    /// Upper overlap bound, ns.
    pub max: u64,
    /// Which of the three bound cases applied.
    pub case: XferCase,
    /// Fault-disturbed (explicit `XFER_FLAG` or the long-window heuristic).
    pub flagged: bool,
    /// Min bound clamped to the observed window (table overestimate).
    pub clamped: bool,
}

/// The per-process trace: raw events in time order plus derived bound
/// records in close order.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    /// Rank this trace belongs to.
    pub rank: usize,
    /// The raw instrumentation event stream.
    pub events: Vec<Event>,
    /// One record per closed transfer.
    pub bounds: Vec<BoundRecord>,
    /// Classified blocking intervals recorded by the instrumented library
    /// (see [`crate::attribution`]). Serialized by [`jsonl`] as `"wait"`
    /// lines (so streaming consumers can reproduce the attribution exactly);
    /// the Chrome-trace export does not render them.
    pub waits: Vec<crate::attribution::WaitInterval>,
}

/// A fabric- or library-level instant event carried alongside the rank
/// traces (injected faults, NIC stalls, ...). `overlap-core` knows nothing
/// about the fabric; producers render their own `name`/`detail`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExtraEvent {
    /// Virtual time, ns.
    pub t: u64,
    /// Short machine-friendly name (e.g. `"fault.dropped"`).
    pub name: String,
    /// Free-form human-readable detail (e.g. `"src 0 -> dst 1"`).
    pub detail: String,
}

/// One traced scope: a label (e.g. `"fig03/c10us"`), its per-rank traces,
/// and fabric-side extras.
#[derive(Debug, Clone, Default)]
pub struct TraceBundle {
    /// Scope label; used as the Chrome-trace process name and the JSONL
    /// `scope` field.
    pub scope: String,
    /// Per-rank traces.
    pub ranks: Vec<RankTrace>,
    /// Fabric-side instant events (ground-truth faults etc.).
    pub extras: Vec<ExtraEvent>,
}

impl TraceBundle {
    /// The `[first, last]` virtual-time span covered by any record, or
    /// `None` when empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        let mut see = |t: u64| {
            lo = lo.min(t);
            hi = hi.max(t);
            any = true;
        };
        for r in &self.ranks {
            for e in &r.events {
                see(e.t);
            }
            for b in &r.bounds {
                see(b.end_t);
                if let Some(t) = b.begin_t {
                    see(t);
                }
            }
        }
        for x in &self.extras {
            see(x.t);
        }
        any.then_some((lo, hi))
    }
}

/// Stable short label for a bound case.
fn case_label(c: XferCase) -> &'static str {
    match c {
        XferCase::SameCall => "same_call",
        XferCase::SplitCalls => "split_calls",
        XferCase::SingleStamp => "single_stamp",
    }
}

/// Inverse of [`case_label`] (used by the streaming JSONL reader).
pub(crate) fn case_from_label(s: &str) -> Option<XferCase> {
    match s {
        "same_call" => Some(XferCase::SameCall),
        "split_calls" => Some(XferCase::SplitCalls),
        "single_stamp" => Some(XferCase::SingleStamp),
        _ => None,
    }
}

/// An optional id as JSON: the number, or `null`.
struct OrNull(Option<u64>);

impl fmt::Display for OrNull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => f.write_str("null"),
        }
    }
}

/// Write the `"ev":…` members of one event's JSON line (no braces, no
/// timestamp), names escaped — the one event→JSON mapping.
fn event_body(out: &mut impl fmt::Write, kind: &EventKind) -> fmt::Result {
    match *kind {
        EventKind::CallEnter { name } => {
            write!(out, r#""ev":"call_enter","name":"{}""#, Escaped(name))
        }
        EventKind::CallExit => out.write_str(r#""ev":"call_exit""#),
        EventKind::XferBegin { id, bytes } => {
            write!(out, r#""ev":"xfer_begin","id":{id},"bytes":{bytes}"#)
        }
        EventKind::XferEnd { id, bytes } => {
            write!(out, r#""ev":"xfer_end","id":{id},"bytes":{bytes}"#)
        }
        EventKind::SectionBegin { name } => {
            write!(out, r#""ev":"section_begin","name":"{}""#, Escaped(name))
        }
        EventKind::SectionEnd => out.write_str(r#""ev":"section_end""#),
        EventKind::XferFlag { id } => write!(out, r#""ev":"xfer_flag","id":{id}"#),
    }
}

/// Nanoseconds as Chrome's microsecond `ts`, exact to the nanosecond.
struct Ts(u64);

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// Serialize bundles as a Chrome trace event file (the JSON object form,
/// with `displayTimeUnit` set to nanoseconds).
///
/// Layout: each bundle becomes one *process* (`pid` = bundle index, named
/// after the scope); each rank contributes two *threads* — `tid = 2*rank`
/// carries the call/section stack as `B`/`E` duration events, `tid =
/// 2*rank + 1` carries per-transfer `X` spans (begin→end, with the computed
/// bounds in `args`) plus instant events for end-only transfers and
/// `XFER_FLAG`s. Fabric extras land on one additional `fabric` thread per
/// process. Every event is written straight into the output.
pub fn chrome_json(bundles: &[TraceBundle]) -> String {
    let mut out = format!(
        "{{\"displayTimeUnit\":\"ns\",\"schemaVersion\":{SCHEMA_VERSION},\"traceEvents\":[\n"
    );
    let mut first = true;
    // Start one event: its `,\n` separator (none before the first), then
    // its text.
    macro_rules! event {
        ($($fmt:tt)*) => {{
            if !std::mem::replace(&mut first, false) {
                out.push_str(",\n");
            }
            let _ = write!(out, $($fmt)*);
        }};
    }
    // Call/section stack as B/E pairs; it keeps E names matched and drops
    // unbalanced exits rather than corrupting the file.
    let mut stack: Vec<(&'static str, &'static str)> = Vec::new();
    for (pid, b) in bundles.iter().enumerate() {
        event!(
            r#"{{"ph":"M","pid":{pid},"tid":0,"name":"process_name","args":{{"name":"{}"}}}}"#,
            Escaped(&b.scope)
        );
        let fabric_tid = 2 * b.ranks.len();
        for r in &b.ranks {
            let (rank, calls_tid, xfers_tid) = (r.rank, 2 * r.rank, 2 * r.rank + 1);
            event!(
                r#"{{"ph":"M","pid":{pid},"tid":{calls_tid},"name":"thread_name","args":{{"name":"rank {rank} calls"}}}}"#
            );
            event!(
                r#"{{"ph":"M","pid":{pid},"tid":{xfers_tid},"name":"thread_name","args":{{"name":"rank {rank} transfers"}}}}"#
            );
            stack.clear();
            for e in &r.events {
                let ts = Ts(e.t);
                let (ph, (name, cat)) = match e.kind {
                    EventKind::CallEnter { name } => ("B", (name, "call")),
                    EventKind::SectionBegin { name } => ("B", (name, "section")),
                    EventKind::CallExit | EventKind::SectionEnd => match stack.pop() {
                        Some(top) => ("E", top),
                        None => continue,
                    },
                    EventKind::XferFlag { id } => {
                        event!(
                            r#"{{"ph":"i","s":"t","pid":{pid},"tid":{xfers_tid},"ts":{ts},"cat":"flag","name":"xfer_flag #{id}"}}"#
                        );
                        continue;
                    }
                    // Raw transfer stamps are represented by the bound spans
                    // below; the JSONL stream keeps the raw form.
                    EventKind::XferBegin { .. } | EventKind::XferEnd { .. } => continue,
                };
                if ph == "B" {
                    stack.push((name, cat));
                }
                event!(
                    r#"{{"ph":"{ph}","pid":{pid},"tid":{calls_tid},"ts":{ts},"cat":"{cat}","name":"{}"}}"#,
                    Escaped(name)
                );
            }
            for bd in &r.bounds {
                match bd.begin_t {
                    Some(t0) => event!(
                        r#"{{"ph":"X","pid":{pid},"tid":{xfers_tid},"ts":{},"dur":{},"cat":"xfer","name":"xfer #"#,
                        Ts(t0),
                        Ts(bd.end_t.saturating_sub(t0))
                    ),
                    None => event!(
                        r#"{{"ph":"i","s":"t","pid":{pid},"tid":{xfers_tid},"ts":{},"cat":"xfer","name":"xfer #"#,
                        Ts(bd.end_t)
                    ),
                }
                let _ = match bd.id {
                    Some(id) => write!(out, "{id}"),
                    None => out.write_str("?"),
                };
                let _ = write!(
                    out,
                    r#" {}B{}","args":{{"bytes":{},"xfer_time_ns":{},"min_ns":{},"max_ns":{},"case":"{}","flagged":{},"clamped":{}}}}}"#,
                    bd.bytes,
                    bd.begin_t.map_or(" (end-only)", |_| ""),
                    bd.bytes,
                    bd.xfer_time,
                    bd.min,
                    bd.max,
                    case_label(bd.case),
                    bd.flagged,
                    bd.clamped
                );
            }
        }
        if !b.extras.is_empty() {
            event!(
                r#"{{"ph":"M","pid":{pid},"tid":{fabric_tid},"name":"thread_name","args":{{"name":"fabric"}}}}"#
            );
            for x in &b.extras {
                event!(
                    r#"{{"ph":"i","s":"p","pid":{pid},"tid":{fabric_tid},"ts":{},"cat":"fault","name":"{}","args":{{"detail":"{}"}}}}"#,
                    Ts(x.t),
                    Escaped(&x.name),
                    Escaped(&x.detail)
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Serialize bundles as JSON lines: one self-describing object per record.
///
/// The first line is always `{"ev":"header","schema_version":N}` (see
/// `SCHEMA_VERSION`, currently 1). After it, lines are grouped (per scope:
/// each rank's raw events in time order, then its bound records, then its
/// wait intervals, then the fabric extras), not globally time-sorted; every
/// record line carries `scope`, and rank lines carry `rank`, so offline
/// tools can regroup freely.
pub fn jsonl(bundles: &[TraceBundle]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"ev":"header","schema_version":{SCHEMA_VERSION}}}"#
    );
    for b in bundles {
        let scope = Escaped(&b.scope).to_string();
        for r in &b.ranks {
            for e in &r.events {
                let _ = write!(out, r#"{{"scope":"{scope}","rank":{},"t":{},"#, r.rank, e.t);
                let _ = event_body(&mut out, &e.kind);
                out.push_str("}\n");
            }
            for bd in &r.bounds {
                let _ = writeln!(
                    out,
                    r#"{{"scope":"{scope}","rank":{},"t":{},"ev":"xfer_bounds","id":{},"bytes":{},"begin_t":{},"xfer_time":{},"min":{},"max":{},"case":"{}","flagged":{},"clamped":{}}}"#,
                    r.rank,
                    bd.end_t,
                    OrNull(bd.id),
                    bd.bytes,
                    OrNull(bd.begin_t),
                    bd.xfer_time,
                    bd.min,
                    bd.max,
                    case_label(bd.case),
                    bd.flagged,
                    bd.clamped
                );
            }
            for w in &r.waits {
                let _ = writeln!(
                    out,
                    r#"{{"scope":"{scope}","rank":{},"t":{},"ev":"wait","end":{},"cause":"{}","xfer":{}}}"#,
                    r.rank,
                    w.start,
                    w.end,
                    w.cause.label(),
                    OrNull(w.xfer)
                );
            }
        }
        for x in &b.extras {
            let _ = writeln!(
                out,
                r#"{{"scope":"{scope}","t":{},"ev":"fault","name":"{}","detail":"{}"}}"#,
                x.t,
                Escaped(&x.name),
                Escaped(&x.detail)
            );
        }
    }
    out
}

/// One virtual-time window of the time-resolved series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WindowRow {
    /// Window start, ns (inclusive).
    pub start: u64,
    /// Window end, ns (exclusive; the final window is extended to cover the
    /// trace's last timestamp).
    pub end: u64,
    /// Transfers whose bounds were closed inside the window.
    pub transfers: u64,
    /// Σ lower overlap bounds of those transfers, ns.
    pub min_overlap_ns: u64,
    /// Σ upper overlap bounds of those transfers, ns.
    pub max_overlap_ns: u64,
    /// Time any rank spent inside library calls during the window, ns
    /// (summed across ranks — the time-resolved analogue of
    /// `comm_call_time`).
    pub wait_ns: u64,
    /// `XFER_FLAG` events (library-observed disturbances, e.g. reliability
    /// retransmits) stamped inside the window.
    pub flags: u64,
    /// Fabric extras (ground-truth fault injections) inside the window.
    pub faults: u64,
}

/// Most rows one windowed series may have. A width that would need more is
/// refused ([`TooManyWindows`]) before anything is allocated: the server
/// builds every row of a served series, and both the span (any `t` a client
/// sends) and the width (any `window_ns` it asks for) come from outside the
/// program.
pub(crate) const MAX_WINDOWS: u64 = 1 << 16;

/// A window width too narrow for the span it was asked to split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyWindows {
    /// Length of the covered span, ns.
    pub(crate) span_ns: u64,
    /// The refused width, ns.
    pub(crate) window_ns: u64,
}

impl std::fmt::Display for TooManyWindows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window_ns {} splits a {} ns span into more than {MAX_WINDOWS} windows",
            self.window_ns, self.span_ns
        )
    }
}

impl std::error::Error for TooManyWindows {}

/// Fold a scope's bound records, call spans and fabric extras into
/// fixed-width virtual-time windows covering its span (no rows when nothing
/// was captured). `width` is clamped to at least 1 ns. This is the one
/// windowed fold: [`windowed`] runs it on a captured bundle's view, the
/// stream fold on the view of what it maintains line by line.
///
/// Transfers are attributed to the window containing their close time;
/// in-call (`wait`) time is split exactly across window boundaries.
pub(crate) fn windows_of(
    view: &ScopeView<'_>,
    width: u64,
) -> Result<Vec<WindowRow>, TooManyWindows> {
    let Some((t0, t1)) = view.span else {
        return Ok(Vec::new());
    };
    let width = width.max(1);
    let span = t1.saturating_sub(t0);
    if span / width >= MAX_WINDOWS {
        return Err(TooManyWindows {
            span_ns: span,
            window_ns: width,
        });
    }
    let n = (span / width + 1) as usize;
    // `i * width <= span`, so only the last row's end can pass `u64::MAX`.
    let mut rows: Vec<WindowRow> = (0..n as u64)
        .map(|i| WindowRow {
            start: t0 + i * width,
            end: (t0 + i * width).saturating_add(width),
            ..WindowRow::default()
        })
        .collect();
    rows[n - 1].end = rows[n - 1].end.max(t1.saturating_add(1));
    let idx = |t: u64| (((t.saturating_sub(t0)) / width) as usize).min(n - 1);
    let credit = |from: u64, to: u64, rows: &mut Vec<WindowRow>| {
        let mut cur = from;
        while cur < to {
            let i = idx(cur);
            let stop = rows[i].end.min(to);
            rows[i].wait_ns += stop - cur;
            cur = stop;
        }
    };
    for rank in &view.ranks {
        for b in rank.bounds {
            let w = &mut rows[idx(b.end_t)];
            w.transfers += 1;
            w.min_overlap_ns += b.min;
            w.max_overlap_ns += b.max;
        }
        // In-call time: split each top-level call span across windows; a
        // call still open closes at the span's end.
        for (s, e, _) in rank.calls.spans(t1) {
            credit(s, e, &mut rows);
        }
        for &t in rank.calls.flags() {
            rows[idx(t)].flags += 1;
        }
    }
    for &t in view.extras.iter() {
        rows[idx(t)].faults += 1;
    }
    Ok(rows)
}

/// Fold a bundle into fixed-width virtual-time windows. Returns an empty
/// vector for an empty bundle; `width` is clamped to at least 1 ns.
///
/// # Panics
///
/// When `width` would split the bundle's span into more than
/// 2^16 rows (`MAX_WINDOWS`); [`default_window_width`] never does.
pub fn windowed(bundle: &TraceBundle, width: u64) -> Vec<WindowRow> {
    windows_of(&ScopeView::of(&bundle.scope, bundle), width).unwrap_or_else(|e| panic!("{e}"))
}

/// A reasonable default window width for a bundle: 1/16th of the covered
/// span (at least 1 ns).
pub fn default_window_width(bundle: &TraceBundle) -> u64 {
    default_width(bundle.span())
}

/// [`default_window_width`] of a `[first, last]` span (`None`: nothing
/// captured).
pub(crate) fn default_width(span: Option<(u64, u64)>) -> u64 {
    span.map_or(1, |(t0, t1)| (t1.saturating_sub(t0) / 16).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind) -> Event {
        Event::new(t, kind)
    }

    fn sample_bundle() -> TraceBundle {
        TraceBundle {
            scope: "test/one".to_string(),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![
                    ev(0, EventKind::CallEnter { name: "MPI_Isend" }),
                    ev(5, EventKind::XferBegin { id: 1, bytes: 1024 }),
                    ev(10, EventKind::CallExit),
                    ev(1_000, EventKind::CallEnter { name: "MPI_Wait" }),
                    ev(1_200, EventKind::XferFlag { id: 1 }),
                    ev(1_500, EventKind::XferEnd { id: 1, bytes: 1024 }),
                    ev(1_510, EventKind::CallExit),
                ],
                bounds: vec![BoundRecord {
                    id: Some(1),
                    bytes: 1024,
                    begin_t: Some(5),
                    end_t: 1_500,
                    xfer_time: 400,
                    min: 0,
                    max: 400,
                    case: XferCase::SplitCalls,
                    flagged: true,
                    clamped: false,
                }],
                waits: vec![crate::attribution::WaitInterval {
                    start: 1_000,
                    end: 1_500,
                    cause: crate::attribution::WaitCause::LateSender,
                    xfer: Some(1),
                }],
            }],
            extras: vec![ExtraEvent {
                t: 1_100,
                name: "fault.dropped".to_string(),
                detail: "src 0 -> dst 1 ty 3".to_string(),
            }],
        }
    }

    #[test]
    fn chrome_json_parses_and_is_structured() {
        let text = chrome_json(&[sample_bundle()]);
        let v: serde_json::Value = serde_json::from_str(&text).expect("chrome trace parses");
        assert_eq!(v["displayTimeUnit"], "ns");
        assert_eq!(v["schemaVersion"].as_u64(), Some(SCHEMA_VERSION as u64));
        let evs = v["traceEvents"].as_array().unwrap();
        // Metadata (process + 2 threads + fabric), 2 B + 2 E, 1 flag instant,
        // 1 X span, 1 fault instant.
        let phs: Vec<&str> = evs.iter().map(|e| e["ph"].as_str().unwrap()).collect();
        assert_eq!(phs.iter().filter(|p| **p == "M").count(), 4);
        assert_eq!(phs.iter().filter(|p| **p == "B").count(), 2);
        assert_eq!(phs.iter().filter(|p| **p == "E").count(), 2);
        assert_eq!(phs.iter().filter(|p| **p == "X").count(), 1);
        assert_eq!(phs.iter().filter(|p| **p == "i").count(), 2);
        // The X span carries the bounds and exact ns-resolution timestamps.
        let x = evs.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(x["args"]["min_ns"].as_u64(), Some(0));
        assert_eq!(x["args"]["max_ns"].as_u64(), Some(400));
        assert_eq!(x["args"]["case"], "split_calls");
        assert_eq!(x["ts"].as_f64(), Some(0.005)); // 5 ns in us
        assert_eq!(x["dur"].as_f64(), Some(1.495));
        // B/E names match through the stack.
        let b0 = evs.iter().find(|e| e["ph"] == "B").unwrap();
        assert_eq!(b0["name"], "MPI_Isend");
    }

    /// Every branch of [`chrome_json`] in two bundles: call and section
    /// pairs, an unbalanced exit (dropped), a flag, an `X` span and an
    /// end-only transfer without an id, an extra that needs escaping, and
    /// timestamps at the edges of the `µs.ns` form.
    fn pin_bundles() -> Vec<TraceBundle> {
        let bound = |id, begin_t, end_t| BoundRecord {
            id,
            bytes: 4096,
            begin_t,
            end_t,
            xfer_time: 900,
            min: 100,
            max: 900,
            case: XferCase::SameCall,
            flagged: false,
            clamped: true,
        };
        vec![
            TraceBundle {
                scope: "pin/\"a\"".to_string(),
                ranks: vec![RankTrace {
                    rank: 0,
                    events: vec![
                        ev(0, EventKind::CallEnter { name: "MPI_Isend" }),
                        ev(5, EventKind::XferBegin { id: 7, bytes: 4096 }),
                        ev(5, EventKind::CallExit),
                        ev(999, EventKind::SectionBegin { name: "halo" }),
                        ev(1_000, EventKind::XferEnd { id: 7, bytes: 4096 }),
                        ev(1_000, EventKind::SectionEnd),
                        ev(1_000, EventKind::CallExit),
                        ev(u64::MAX, EventKind::XferFlag { id: 7 }),
                    ],
                    bounds: vec![bound(Some(7), Some(5), 1_000), bound(None, None, u64::MAX)],
                    waits: Vec::new(),
                }],
                extras: vec![ExtraEvent {
                    t: 999,
                    name: "fault.\"dropped\"".to_string(),
                    detail: "src 0 -> dst 1\n\t\\".to_string(),
                }],
            },
            TraceBundle {
                scope: "pin/b".to_string(),
                ranks: vec![RankTrace {
                    rank: 1,
                    events: vec![ev(1_234_567, EventKind::CallEnter { name: "MPI_Wait" })],
                    bounds: vec![bound(Some(u64::MAX), Some(0), 0)],
                    waits: Vec::new(),
                }],
                extras: Vec::new(),
            },
        ]
    }

    #[test]
    fn chrome_json_bytes_are_pinned() {
        let want = r##"{"displayTimeUnit":"ns","schemaVersion":1,"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"pin/\"a\""}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0 calls"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"rank 0 transfers"}},
{"ph":"B","pid":0,"tid":0,"ts":0.000,"cat":"call","name":"MPI_Isend"},
{"ph":"E","pid":0,"tid":0,"ts":0.005,"cat":"call","name":"MPI_Isend"},
{"ph":"B","pid":0,"tid":0,"ts":0.999,"cat":"section","name":"halo"},
{"ph":"E","pid":0,"tid":0,"ts":1.000,"cat":"section","name":"halo"},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":18446744073709551.615,"cat":"flag","name":"xfer_flag #7"},
{"ph":"X","pid":0,"tid":1,"ts":0.005,"dur":0.995,"cat":"xfer","name":"xfer #7 4096B","args":{"bytes":4096,"xfer_time_ns":900,"min_ns":100,"max_ns":900,"case":"same_call","flagged":false,"clamped":true}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":18446744073709551.615,"cat":"xfer","name":"xfer #? 4096B (end-only)","args":{"bytes":4096,"xfer_time_ns":900,"min_ns":100,"max_ns":900,"case":"same_call","flagged":false,"clamped":true}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"fabric"}},
{"ph":"i","s":"p","pid":0,"tid":2,"ts":0.999,"cat":"fault","name":"fault.\"dropped\"","args":{"detail":"src 0 -> dst 1\n\t\\"}},
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"pin/b"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"rank 1 calls"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"rank 1 transfers"}},
{"ph":"B","pid":1,"tid":2,"ts":1234.567,"cat":"call","name":"MPI_Wait"},
{"ph":"X","pid":1,"tid":3,"ts":0.000,"dur":0.000,"cat":"xfer","name":"xfer #18446744073709551615 4096B","args":{"bytes":4096,"xfer_time_ns":900,"min_ns":100,"max_ns":900,"case":"same_call","flagged":false,"clamped":true}}
]}
"##;
        assert_eq!(chrome_json(&pin_bundles()), want);
    }

    #[test]
    fn chrome_end_only_transfer_is_instant() {
        let mut b = sample_bundle();
        b.ranks[0].bounds[0].begin_t = None;
        let text = chrome_json(&[b]);
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert!(evs.iter().all(|e| e["ph"] != "X"));
        assert!(evs
            .iter()
            .any(|e| e["ph"] == "i" && e["name"].as_str().unwrap().contains("end-only")));
    }

    #[test]
    fn jsonl_every_line_parses() {
        let text = jsonl(&[sample_bundle()]);
        let lines: Vec<&str> = text.lines().collect();
        // Header + 7 raw events + 1 bound record + 1 wait + 1 extra.
        assert_eq!(lines.len(), 11);
        let header: serde_json::Value = serde_json::from_str(lines[0]).expect("header parses");
        assert_eq!(header["ev"], "header");
        assert_eq!(
            header["schema_version"].as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
        for l in &lines[1..] {
            let v: serde_json::Value = serde_json::from_str(l).expect("jsonl line parses");
            assert_eq!(v["scope"], "test/one");
            assert!(v["t"].is_u64());
        }
        let bound: serde_json::Value = serde_json::from_str(
            lines
                .iter()
                .find(|l| l.contains("xfer_bounds"))
                .expect("bound line present"),
        )
        .unwrap();
        assert_eq!(bound["begin_t"].as_u64(), Some(5));
        assert_eq!(bound["flagged"].as_bool(), Some(true));
        let wait: serde_json::Value = serde_json::from_str(
            lines
                .iter()
                .find(|l| l.contains(r#""ev":"wait""#))
                .expect("wait line present"),
        )
        .unwrap();
        assert_eq!(wait["t"].as_u64(), Some(1_000));
        assert_eq!(wait["end"].as_u64(), Some(1_500));
        assert_eq!(wait["cause"], "late_sender");
        assert_eq!(wait["xfer"].as_u64(), Some(1));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut b = sample_bundle();
        b.scope = "we\"ird\\sc\u{f6}pe\n\r\t\u{1}".to_string();
        assert_eq!(
            Escaped(&b.scope).to_string(),
            "we\\\"ird\\\\sc\u{f6}pe\\n\\r\\t\\u0001"
        );
        for text in [chrome_json(&[b.clone()]), jsonl(std::slice::from_ref(&b))] {
            let mut seen = 0;
            for l in text.lines().filter(|l| l.contains("ird")) {
                let v: serde_json::Value =
                    serde_json::from_str(l.trim_end_matches(',')).expect("escaped line parses");
                // Chrome names the process after the scope.
                let back = v.get("scope").unwrap_or(&v["args"]["name"]);
                assert_eq!(back.as_str(), Some(b.scope.as_str()));
                seen += 1;
            }
            assert!(seen > 0);
        }
    }

    #[test]
    fn windows_partition_the_span() {
        let b = sample_bundle();
        let rows = windowed(&b, 500);
        // Span 0..=1510 → windows starting at 0, 500, 1000, 1500.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].start, 0);
        assert_eq!(rows[3].start, 1500);
        assert!(rows[3].end > 1510 - 1);
        // Transfer closed at t=1500 → last window.
        assert_eq!(rows[3].transfers, 1);
        assert_eq!(rows[3].max_overlap_ns, 400);
        // Flag at 1200 and fault at 1100 → third window.
        assert_eq!(rows[2].flags, 1);
        assert_eq!(rows[2].faults, 1);
        // In-call time splits exactly: calls cover [0,10) and [1000,1510).
        let total_wait: u64 = rows.iter().map(|r| r.wait_ns).sum();
        assert_eq!(total_wait, 10 + 510);
        assert_eq!(rows[0].wait_ns, 10);
        assert_eq!(rows[2].wait_ns, 500);
        assert_eq!(rows[3].wait_ns, 10);
    }

    #[test]
    fn empty_bundle_has_no_windows() {
        let b = TraceBundle::default();
        assert_eq!(b.span(), None);
        assert!(windowed(&b, 100).is_empty());
        assert_eq!(default_window_width(&b), 1);
    }

    #[test]
    fn window_width_clamps_to_one() {
        let b = sample_bundle();
        let rows = windowed(&b, 0);
        assert_eq!(rows.len(), 1511);
        assert_eq!(rows.iter().map(|r| r.transfers).sum::<u64>(), 1);
    }
}
