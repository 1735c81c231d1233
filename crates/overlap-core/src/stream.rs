//! Streaming JSONL ingest: fold an exported event stream back into
//! batch-identical aggregates with bounded memory.
//!
//! The batch pipeline folds events inside the instrumented process and reads
//! the result out at finalize. This module is the same fold turned inside
//! out: it consumes the `<id>.events.jsonl` export (see [`crate::trace::jsonl`])
//! line by line — from a file, a socket, or an HTTP body — and maintains the
//! identical running aggregates per `(scope, rank)`, so a long-running
//! service (`overlapd`) can answer overlap questions while runs are still in
//! flight.
//!
//! **Batch/stream equivalence.** Each rank's state is the same
//! `fold::RankFold` the in-process [`crate::processor::Processor`] drives,
//! fed here by event lines, so a served [`OverlapReport`] carries the totals,
//! per-bin stats, call stats, anomaly counters and metrics registry of the
//! rank's batch report because one fold computed both. What
//! needs the a-priori transfer-time table is not re-derived (the table never
//! leaves the instrumented process): bound records are consumed from the
//! stream's `xfer_bounds` lines, wait intervals from its `wait` lines. The
//! windowed series runs through the fold [`crate::trace::windowed`] runs,
//! and the attribution artifacts through [`crate::artifact`] — the
//! constructors the batch CLI uses. Two report fields never ride the export
//! and stay empty on this side: `sections` and `queue_flushes`.
//!
//! **Memory model.** Lines arrive in order and each folds in O(1) on
//! arrival; raw events are never retained. A session holds, per
//! `(scope, rank)`, the constant-size fold plus the *derived* records the
//! served artifacts require: one [`BoundRecord`] per transfer, one span per
//! top-level call, one interval per recorded wait. Reads take `&self`.
//!
//! **Size bins.** Ranks fold with [`SizeBins::default`], which is the layout
//! every instrumented process in this repository uses.
//!
//! **Schema guard.** A stream must open with the
//! `{"ev":"header","schema_version":N}` line written by the exporter; a
//! missing or mismatched header is rejected with a one-line
//! [`StreamError`] before any state is touched.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

use serde::Serialize;

use crate::artifact::{self, AttributionArtifact, RankArtifactInput, ScopeWaitStates};
use crate::attribution::{self, RankAttribution, WaitCause, WaitInterval};
use crate::bins::SizeBins;
use crate::event::{Event, EventKind};
use crate::fold::{CallSpans, RankFold};
use crate::report::OverlapReport;
use crate::trace::{
    case_from_label, default_width, windowed_parts, BoundRecord, TooManyWindows, WindowRow,
    SCHEMA_VERSION,
};

/// Longest call/section name the reader accepts, in bytes.
const MAX_NAME_BYTES: usize = 256;
/// Most distinct call/section names the reader's pool will hold.
const MAX_NAMES: usize = 4096;

/// Intern a call/section name into a `&'static str`.
///
/// The event model carries static names (the instrumented library passes
/// string literals); a stream reader has to reconstruct them. Names are
/// leaked once into `pool`. An instrumented library has a tiny, fixed set of
/// them, but a socket client can send anything, so the leak is bounded here:
/// at most [`MAX_NAMES`] names of at most [`MAX_NAME_BYTES`] each; a name
/// past either cap is refused with the reason.
fn intern_in(pool: &mut BTreeSet<&'static str>, s: &str) -> Result<&'static str, String> {
    if let Some(&v) = pool.get(s) {
        return Ok(v);
    }
    if s.len() > MAX_NAME_BYTES {
        return Err(format!("`name` longer than {MAX_NAME_BYTES} bytes"));
    }
    if pool.len() >= MAX_NAMES {
        return Err(format!("more than {MAX_NAMES} distinct `name`s"));
    }
    let v: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(v);
    Ok(v)
}

/// [`intern_in`] the process-global pool, for the `name` field of `line`.
fn intern_name(v: &serde_json::Value, line: &str) -> Result<&'static str, StreamError> {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    intern_in(&mut pool, req_str(v, "name", line)?).map_err(|what| bad(line, &what))
}

/// Why a stream line (or stream) was rejected. Every variant renders as a
/// single line, suitable for a one-line client error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream did not open with a schema header line.
    MissingHeader,
    /// The stream's `schema_version` differs from this reader's
    /// [`SCHEMA_VERSION`].
    SchemaMismatch {
        /// The version the stream declared.
        found: u64,
    },
    /// A line was not valid JSONL of any known shape.
    BadLine {
        /// What was wrong, with a snippet of the offending line.
        detail: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::MissingHeader => write!(
                f,
                "missing schema header: stream must open with {{\"ev\":\"header\",\"schema_version\":{SCHEMA_VERSION}}}"
            ),
            StreamError::SchemaMismatch { found } => write!(
                f,
                "schema_version mismatch: stream declares {found}, this reader expects {SCHEMA_VERSION}"
            ),
            StreamError::BadLine { detail } => write!(f, "bad stream line: {detail}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Truncate a line for inclusion in an error message.
fn snip(line: &str) -> String {
    if line.len() <= 120 {
        line.to_string()
    } else {
        let mut s: String = line.chars().take(120).collect();
        s.push('…');
        s
    }
}

fn bad(line: &str, what: &str) -> StreamError {
    StreamError::BadLine {
        detail: format!("{what} in `{}`", snip(line)),
    }
}

fn req_u64(v: &serde_json::Value, key: &str, line: &str) -> Result<u64, StreamError> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| bad(line, &format!("missing or non-numeric `{key}`")))
}

fn opt_u64(v: &serde_json::Value, key: &str, line: &str) -> Result<Option<u64>, StreamError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(line, &format!("non-numeric `{key}`"))),
    }
}

fn req_bool(v: &serde_json::Value, key: &str, line: &str) -> Result<bool, StreamError> {
    v.get(key)
        .and_then(|x| x.as_bool())
        .ok_or_else(|| bad(line, &format!("missing or non-boolean `{key}`")))
}

fn req_str<'v>(v: &'v serde_json::Value, key: &str, line: &str) -> Result<&'v str, StreamError> {
    v.get(key)
        .and_then(|x| x.as_str())
        .ok_or_else(|| bad(line, &format!("missing or non-string `{key}`")))
}

/// One parsed line of the JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLine {
    /// The schema header line (always first in an export).
    Header {
        /// Declared schema version.
        schema_version: u64,
    },
    /// A raw instrumentation event.
    Event {
        /// Scope label the line belongs to.
        scope: String,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed event.
        event: Event,
    },
    /// A derived per-transfer bound record (`"ev":"xfer_bounds"`).
    Bound {
        /// Scope label the line belongs to.
        scope: String,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed record.
        record: BoundRecord,
    },
    /// A classified wait interval (`"ev":"wait"`).
    Wait {
        /// Scope label the line belongs to.
        scope: String,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed interval.
        wait: WaitInterval,
    },
    /// A fabric-side extra (`"ev":"fault"`); only the timestamp matters to
    /// the fold (the windowed series counts faults per window).
    Fault {
        /// Scope label the line belongs to.
        scope: String,
        /// Virtual timestamp, ns.
        t: u64,
    },
}

/// Parse one JSONL line into a [`StreamLine`]. Rejects unknown `ev` kinds
/// and malformed fields with a one-line [`StreamError`].
pub fn parse_line(line: &str) -> Result<StreamLine, StreamError> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| bad(line, &format!("not JSON ({e})")))?;
    let ev = req_str(&v, "ev", line)?;
    if ev == "header" {
        return Ok(StreamLine::Header {
            schema_version: req_u64(&v, "schema_version", line)?,
        });
    }
    let scope = req_str(&v, "scope", line)?.to_string();
    let t = req_u64(&v, "t", line)?;
    if ev == "fault" {
        return Ok(StreamLine::Fault { scope, t });
    }
    let rank = req_u64(&v, "rank", line)? as usize;
    let parsed = match ev {
        "call_enter" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(
                t,
                EventKind::CallEnter {
                    name: intern_name(&v, line)?,
                },
            ),
        },
        "call_exit" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(t, EventKind::CallExit),
        },
        "xfer_begin" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(
                t,
                EventKind::XferBegin {
                    id: req_u64(&v, "id", line)?,
                    bytes: req_u64(&v, "bytes", line)?,
                },
            ),
        },
        "xfer_end" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(
                t,
                EventKind::XferEnd {
                    id: req_u64(&v, "id", line)?,
                    bytes: req_u64(&v, "bytes", line)?,
                },
            ),
        },
        "section_begin" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(
                t,
                EventKind::SectionBegin {
                    name: intern_name(&v, line)?,
                },
            ),
        },
        "section_end" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(t, EventKind::SectionEnd),
        },
        "xfer_flag" => StreamLine::Event {
            scope,
            rank,
            event: Event::new(
                t,
                EventKind::XferFlag {
                    id: req_u64(&v, "id", line)?,
                },
            ),
        },
        "xfer_bounds" => {
            let case_s = req_str(&v, "case", line)?;
            let case = case_from_label(case_s).ok_or_else(|| bad(line, "unknown bound `case`"))?;
            StreamLine::Bound {
                scope,
                rank,
                record: BoundRecord {
                    id: opt_u64(&v, "id", line)?,
                    bytes: req_u64(&v, "bytes", line)?,
                    begin_t: opt_u64(&v, "begin_t", line)?,
                    end_t: t,
                    xfer_time: req_u64(&v, "xfer_time", line)?,
                    min: req_u64(&v, "min", line)?,
                    max: req_u64(&v, "max", line)?,
                    case,
                    flagged: req_bool(&v, "flagged", line)?,
                    clamped: req_bool(&v, "clamped", line)?,
                },
            }
        }
        "wait" => {
            let cause_s = req_str(&v, "cause", line)?;
            let cause =
                WaitCause::from_label(cause_s).ok_or_else(|| bad(line, "unknown wait `cause`"))?;
            StreamLine::Wait {
                scope,
                rank,
                wait: WaitInterval {
                    start: t,
                    end: req_u64(&v, "end", line)?,
                    cause,
                    xfer: opt_u64(&v, "xfer", line)?,
                },
            }
        }
        other => return Err(bad(line, &format!("unknown `ev` kind \"{other}\""))),
    };
    Ok(parsed)
}

/// One rank's stream state: the shared fold plus the derived records the
/// read endpoints need.
struct RankState {
    fold: RankFold,
    calls: CallSpans,
    events: u64,
    bounds: Vec<BoundRecord>,
    /// Latest bound close stamp: a transfer the batch finish sweep closed
    /// carries the rank's finish time, which no event line does.
    bounds_hi: u64,
    waits: Vec<WaitInterval>,
}

impl RankState {
    fn new() -> Self {
        RankState {
            fold: RankFold::new(SizeBins::default()),
            calls: CallSpans::default(),
            events: 0,
            bounds: Vec::new(),
            bounds_hi: 0,
            waits: Vec::new(),
        }
    }

    fn push_event(&mut self, e: Event) {
        self.events += 1;
        self.calls.fold_event(&e);
        // The transfer an event closes reaches this side as an
        // `xfer_bounds` line, derived where the table is.
        let _ = self.fold.fold_event(e);
    }

    fn push_bound(&mut self, rec: BoundRecord) {
        self.fold.close_transfer(&rec);
        self.bounds_hi = self.bounds_hi.max(rec.end_t);
        self.bounds.push(rec);
    }

    fn attribution(&self, rank: usize) -> RankAttribution {
        attribution::attribute_parts(rank, &self.calls, &self.waits, &self.bounds)
    }

    /// The rank's report as of its final stamp, which is where the batch
    /// pipeline finishes; attribution metrics folded in as the traced
    /// recorder folds them.
    fn report(&self, rank: usize) -> OverlapReport {
        let end = self.calls.last_t().max(self.bounds_hi);
        let mut report = self.fold.report(rank, end, self.events);
        attribution::fold_metrics(
            &self.attribution(rank),
            self.fold.bins(),
            &mut report.metrics,
        );
        report
    }
}

/// One scope's streaming fold: per-rank states plus the scope-level span and
/// fabric extras the windowed series needs.
#[derive(Default)]
struct ScopeFold {
    ranks: BTreeMap<usize, RankState>,
    extras_t: Vec<u64>,
    /// `[first, last]` stamp covered, as [`crate::trace::TraceBundle::span`]
    /// computes it: event stamps, bound close/begin stamps, and extras — not
    /// waits.
    span: Option<(u64, u64)>,
}

impl ScopeFold {
    fn see(&mut self, t: u64) {
        let (lo, hi) = self.span.unwrap_or((t, t));
        self.span = Some((lo.min(t), hi.max(t)));
    }

    fn rank_mut(&mut self, rank: usize) -> &mut RankState {
        self.ranks.entry(rank).or_insert_with(RankState::new)
    }

    fn series(&self, scope: &str, width: Option<u64>) -> Result<ScopeSeries, TooManyWindows> {
        let window_ns = width.unwrap_or(default_width(self.span)).max(1);
        let parts: Vec<(&[BoundRecord], &CallSpans)> = self
            .ranks
            .values()
            .map(|r| (r.bounds.as_slice(), &r.calls))
            .collect();
        Ok(ScopeSeries {
            scope: scope.to_string(),
            window_ns,
            windows: match self.span {
                Some(span) => windowed_parts(span, &parts, &self.extras_t, window_ns)?,
                None => Vec::new(),
            },
        })
    }
}

/// One scope's live report: per-rank reports in rank order. Each is the
/// [`OverlapReport`] the batch pipeline writes for the rank, with `sections`
/// empty and `queue_flushes` 0 (neither rides the export).
#[derive(Debug, Clone, Serialize)]
pub struct ScopeReport {
    /// Scope label.
    pub scope: String,
    /// Per-rank reports.
    pub ranks: Vec<OverlapReport>,
}

/// One scope's live windowed series (the trace-window JSON shape).
#[derive(Debug, Clone, Serialize)]
pub struct ScopeSeries {
    /// Scope label.
    pub scope: String,
    /// Window width, ns.
    pub window_ns: u64,
    /// The windows, in time order.
    pub windows: Vec<WindowRow>,
}

/// A streaming session: one pushed event stream (one or more scopes), folded
/// incrementally. See the module docs for the memory model and the
/// batch/stream equivalence guarantee.
#[derive(Default)]
pub struct SessionFold {
    header_seen: bool,
    scope_order: Vec<String>,
    scopes: BTreeMap<String, ScopeFold>,
    event_lines: u64,
    lines: u64,
}

impl SessionFold {
    /// True once a valid schema header has been accepted.
    pub fn header_seen(&self) -> bool {
        self.header_seen
    }

    /// Raw event lines folded so far (across all scopes and ranks).
    pub fn event_lines(&self) -> u64 {
        self.event_lines
    }

    /// Total non-empty lines accepted so far (header lines included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Scope labels in first-seen (stream) order — the order the batch
    /// exporter wrote them, which read endpoints preserve.
    pub fn scope_names(&self) -> Vec<String> {
        self.scope_order.clone()
    }

    /// Fold one line. Empty/whitespace lines are ignored. The first
    /// meaningful line must be a valid schema header; every error is
    /// one-line and leaves previously folded state intact.
    pub fn push_line(&mut self, line: &str) -> Result<(), StreamError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let parsed = parse_line(line)?;
        if let StreamLine::Header { schema_version } = parsed {
            if schema_version != u64::from(SCHEMA_VERSION) {
                return Err(StreamError::SchemaMismatch {
                    found: schema_version,
                });
            }
            // Repeated headers are fine: every pushed file/scope chunk
            // re-states the schema.
            self.header_seen = true;
            self.lines += 1;
            return Ok(());
        }
        if !self.header_seen {
            return Err(StreamError::MissingHeader);
        }
        self.lines += 1;
        match parsed {
            StreamLine::Header { .. } => unreachable!("handled above"),
            StreamLine::Event { scope, rank, event } => {
                self.event_lines += 1;
                let sf = self.scope_mut(&scope);
                sf.see(event.t);
                sf.rank_mut(rank).push_event(event);
            }
            StreamLine::Bound {
                scope,
                rank,
                record,
            } => {
                let sf = self.scope_mut(&scope);
                sf.see(record.end_t);
                if let Some(t0) = record.begin_t {
                    sf.see(t0);
                }
                sf.rank_mut(rank).push_bound(record);
            }
            StreamLine::Wait { scope, rank, wait } => {
                self.scope_mut(&scope).rank_mut(rank).waits.push(wait);
            }
            StreamLine::Fault { scope, t } => {
                let sf = self.scope_mut(&scope);
                sf.see(t);
                sf.extras_t.push(t);
            }
        }
        Ok(())
    }

    /// Fold a block of complete lines (convenience for clients and tests).
    pub fn push_text(&mut self, text: &str) -> Result<(), StreamError> {
        for line in text.lines() {
            self.push_line(line)?;
        }
        Ok(())
    }

    fn scope_mut(&mut self, scope: &str) -> &mut ScopeFold {
        if !self.scopes.contains_key(scope) {
            self.scope_order.push(scope.to_string());
            self.scopes.insert(scope.to_string(), ScopeFold::default());
        }
        self.scopes.get_mut(scope).expect("just inserted")
    }

    /// The scopes in stream order.
    fn scopes(&self) -> impl Iterator<Item = (&String, &ScopeFold)> {
        self.scope_order
            .iter()
            .map(|name| (name, &self.scopes[name]))
    }

    /// Per-scope, per-rank live reports, scopes in stream order.
    pub fn report(&self) -> Vec<ScopeReport> {
        self.scopes()
            .map(|(scope, sf)| ScopeReport {
                scope: scope.clone(),
                ranks: sf.ranks.iter().map(|(&rank, r)| r.report(rank)).collect(),
            })
            .collect()
    }

    /// Per-scope live windowed series, scopes in stream order. `width` of
    /// `None` picks each scope's default (1/16th of its span, min 1 ns) —
    /// the same default the batch trace export uses. A `width` that would
    /// split some scope's span into more than
    /// [`crate::trace::MAX_WINDOWS`] rows is refused; the default never is.
    pub fn try_series(&self, width: Option<u64>) -> Result<Vec<ScopeSeries>, TooManyWindows> {
        self.scopes()
            .map(|(scope, sf)| sf.series(scope, width))
            .collect()
    }

    /// [`SessionFold::try_series`] for a width the caller chose itself.
    ///
    /// # Panics
    ///
    /// When `try_series` refuses `width`.
    pub fn series(&self, width: Option<u64>) -> Vec<ScopeSeries> {
        self.try_series(width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Per-scope wait-state breakdowns (the `--json` report shape).
    pub fn wait_states(&self) -> Vec<ScopeWaitStates> {
        self.scopes()
            .map(|(scope, sf)| ScopeWaitStates {
                scope: scope.clone(),
                ranks: sf
                    .ranks
                    .iter()
                    .map(|(&rank, r)| artifact::rank_wait_states(&r.attribution(rank)))
                    .collect(),
            })
            .collect()
    }

    /// The `<id>.attribution.json` artifact for everything folded so far —
    /// byte-identical to the batch `--critical-path` output for the same
    /// stream (same shared constructor, same inputs).
    pub fn attribution(&self, id: &str) -> AttributionArtifact {
        let scoped: Vec<(String, Vec<RankArtifactInput>)> = self
            .scopes()
            .map(|(scope, sf)| {
                let inputs = sf
                    .ranks
                    .iter()
                    .map(|(&rank, r)| RankArtifactInput {
                        events: r.events,
                        attribution: r.attribution(rank),
                    })
                    .collect();
                (scope.clone(), inputs)
            })
            .collect();
        artifact::attribution_artifact(id, &scoped)
    }

    /// The `<id>.critpath.folded` flamegraph text for everything folded so
    /// far — byte-identical to the batch output for the same stream.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (scope, sf) in self.scopes() {
            let mut weights: BTreeMap<String, u64> = BTreeMap::new();
            for (&rank, r) in &sf.ranks {
                attribution::collapsed_weights(scope, rank, &r.calls, &r.waits, &mut weights);
            }
            out.push_str(&attribution::render_collapsed(&weights));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::attribute;
    use crate::bounds::XferCase;
    use crate::trace::{jsonl, windowed, ExtraEvent, RankTrace, TraceBundle};

    #[test]
    fn overlong_name_is_refused_with_one_line() {
        for ev in ["call_enter", "section_begin"] {
            let name = "n".repeat(MAX_NAME_BYTES + 1);
            let line = format!(r#"{{"ev":"{ev}","scope":"s","rank":0,"t":1,"name":"{name}"}}"#);
            let err = parse_line(&line).unwrap_err().to_string();
            assert!(err.contains("longer than 256 bytes"), "{err}");
            assert!(!err.contains('\n') && err.len() < 300, "{err}");
            let ok = line.replace(&name, &name[1..]);
            assert!(parse_line(&ok).is_ok());
        }
    }

    #[test]
    fn name_pool_stops_growing_at_its_cap() {
        // A local pool: the process-wide one is shared with sibling tests.
        let mut pool = BTreeSet::new();
        for i in 0..MAX_NAMES {
            intern_in(&mut pool, &format!("n{i}")).unwrap();
        }
        let err = intern_in(&mut pool, "one-too-many").unwrap_err();
        assert!(err.contains("more than 4096 distinct"), "{err}");
        assert_eq!(pool.len(), MAX_NAMES);
        // Names already pooled keep resolving.
        assert_eq!(intern_in(&mut pool, "n7"), Ok("n7"));
    }

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
                waits: vec![WaitInterval {
                    start: 1_000,
                    end: 1_500,
                    cause: WaitCause::LateSender,
                    xfer: Some(1),
                }],
            }],
            extras: vec![ExtraEvent {
                t: 1_100,
                name: "fault.dropped".to_string(),
                detail: "src 0 -> dst 1".to_string(),
            }],
        }
    }

    fn fold(text: &str) -> SessionFold {
        let mut s = SessionFold::default();
        s.push_text(text).expect("stream folds");
        s
    }

    #[test]
    fn rejects_missing_header_with_one_line_error() {
        let mut s = SessionFold::default();
        let err = s
            .push_line(r#"{"scope":"x","rank":0,"t":0,"ev":"call_exit"}"#)
            .unwrap_err();
        assert_eq!(err, StreamError::MissingHeader);
        assert!(!format!("{err}").contains('\n'));
    }

    #[test]
    fn rejects_schema_mismatch_with_one_line_error() {
        let mut s = SessionFold::default();
        let err = s
            .push_line(r#"{"ev":"header","schema_version":999}"#)
            .unwrap_err();
        assert_eq!(err, StreamError::SchemaMismatch { found: 999 });
        let msg = format!("{err}");
        assert!(msg.contains("999") && !msg.contains('\n'));
        assert!(!s.header_seen());
    }

    #[test]
    fn rejects_garbage_and_unknown_kinds() {
        assert!(matches!(
            parse_line("not json at all"),
            Err(StreamError::BadLine { .. })
        ));
        assert!(matches!(
            parse_line(r#"{"scope":"x","rank":0,"t":0,"ev":"mystery"}"#),
            Err(StreamError::BadLine { .. })
        ));
    }

    #[test]
    fn stream_summary_matches_bound_aggregates() {
        let text = jsonl(&[sample_bundle()]);
        let s = fold(&text);
        assert!(s.header_seen());
        assert_eq!(s.event_lines(), 7);
        let reports = s.report();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].scope, "test/one");
        let r = &reports[0].ranks[0];
        assert_eq!(r.rank, 0);
        assert_eq!(r.total.transfers, 1);
        assert_eq!(r.total.max_overlap, 400);
        assert_eq!(r.total.flagged, 1);
        assert_eq!(r.elapsed, 1_510);
        assert_eq!(r.comm_call_time, 10 + 510);
        assert_eq!(r.user_compute_time, 990);
        assert_eq!(r.calls["MPI_Wait"].count, 1);
        assert_eq!(r.metrics.counter("xfers_closed"), 1);
        assert_eq!(r.metrics.counter("xfers_flagged"), 1);
        assert!(r.metrics.histogram("xfer_wall_ns").is_some());
    }

    #[test]
    fn stream_series_matches_batch_windowed() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let s = fold(&text);
        for width in [1, 100, 500, 5_000] {
            let series = s.series(Some(width));
            assert_eq!(series.len(), 1);
            assert_eq!(series[0].windows, windowed(&b, width));
        }
        // The default width matches the batch default too.
        let series = s.series(None);
        assert_eq!(
            series[0].windows,
            windowed(&b, crate::trace::default_window_width(&b))
        );
    }

    #[test]
    fn stream_attribution_matches_batch_artifact() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let s = fold(&text);
        let batch_inputs: Vec<(String, Vec<RankArtifactInput>)> = vec![(
            b.scope.clone(),
            b.ranks
                .iter()
                .map(|tr| RankArtifactInput {
                    events: tr.events.len() as u64,
                    attribution: attribute(tr),
                })
                .collect(),
        )];
        let batch = artifact::attribution_artifact("test", &batch_inputs);
        let stream = s.attribution("test");
        assert_eq!(
            serde_json::to_string_pretty(&stream).unwrap(),
            serde_json::to_string_pretty(&batch).unwrap(),
            "attribution artifacts must be byte-identical"
        );
        // And the collapsed flamegraph text.
        let batch_folded = attribution::collapsed_stack(&b);
        assert_eq!(s.collapsed(), batch_folded);
    }

    #[test]
    fn empty_session_serves_empty_views() {
        let mut s = SessionFold::default();
        s.push_line(r#"{"ev":"header","schema_version":1}"#)
            .unwrap();
        assert!(s.report().is_empty());
        assert!(s.series(None).is_empty());
        assert!(s.collapsed().is_empty());
        let art = s.attribution("empty");
        assert!(art.scopes.is_empty());
        assert_eq!(art.overhead.ranks, 0);
    }

    #[test]
    fn mid_stream_snapshot_does_not_perturb_final_state() {
        let b = sample_bundle();
        let text = jsonl(std::slice::from_ref(&b));
        let lines: Vec<&str> = text.lines().collect();
        let mut s = SessionFold::default();
        // Push half, snapshot, push the rest: final report must equal the
        // uninterrupted fold.
        for l in &lines[..5] {
            s.push_line(l).unwrap();
        }
        let _ = s.report();
        let _ = s.series(None);
        for l in &lines[5..] {
            s.push_line(l).unwrap();
        }
        let clean = fold(&text);
        assert_eq!(
            serde_json::to_string(&s.report()).unwrap(),
            serde_json::to_string(&clean.report()).unwrap()
        );
    }

    #[test]
    fn series_refuses_more_than_max_windows_and_survives_the_top_of_u64() {
        let mut s = SessionFold::default();
        s.push_text(concat!(
            "{\"ev\":\"header\",\"schema_version\":1}\n",
            "{\"scope\":\"e\",\"rank\":0,\"t\":0,\"ev\":\"call_enter\",\"name\":\"MPI_Wait\"}\n",
            "{\"scope\":\"e\",\"rank\":0,\"t\":18446744073709551615,\"ev\":\"call_exit\"}\n",
        ))
        .unwrap();
        let err = s.try_series(Some(1)).unwrap_err();
        assert_eq!((err.span_ns, err.window_ns), (u64::MAX, 1));
        assert!(!err.to_string().contains('\n'));
        // The widest refused width, and the narrowest served one.
        let edge = u64::MAX / crate::trace::MAX_WINDOWS;
        assert!(s.try_series(Some(edge)).is_err());
        let rows = &s.try_series(Some(edge + 1)).unwrap()[0].windows;
        assert_eq!(rows.len() as u64, crate::trace::MAX_WINDOWS);
        assert_eq!(rows.iter().map(|r| r.wait_ns).sum::<u64>(), u64::MAX);
        let rows = &s.series(None)[0].windows;
        assert_eq!(rows.len(), 17);
        assert_eq!(rows[16].end, u64::MAX);
    }
}
