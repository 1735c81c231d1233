//! Streaming JSONL ingest: fold an exported event stream back into
//! batch-identical aggregates, line by line, holding no raw event.
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
//! windowed series, wait states and attribution artifacts are the builders
//! of [`crate::artifact`] run on this session's view — the ones the batch
//! CLI runs on a captured bundle's. Two report fields never ride the export
//! and stay empty on this side: `sections` and `queue_flushes`.
//!
//! **Memory model.** Lines arrive in order and each folds in O(1) on
//! arrival; raw events are never retained. A session holds, per
//! `(scope, rank)`, the fixed-size fold plus the *derived* records the
//! served artifacts require: one [`BoundRecord`] per transfer, one span per
//! top-level call, one interval per recorded wait — linear in transfers,
//! not bounded, for the life of the session. Reads take `&self` and lend
//! those parts to the builders in [`crate::artifact`] as
//! [`ScopeView`]s. A clone of a session is a snapshot that shares each
//! rank's state with the original and copies each scope's fault stamps; a
//! push to a rank while a snapshot still holds it copies that rank first.
//!
//! **Size bins.** Ranks fold with [`SizeBins::default`], which is the layout
//! every instrumented process in this repository uses. A scope builds it
//! once and every rank of the scope shares it, so the bin labels and the
//! metric names keyed by them are formatted once per scope, not per rank.
//!
//! **Schema guard.** A stream must open with the
//! `{"ev":"header","schema_version":N}` line written by the exporter; a
//! missing or mismatched header is rejected with a one-line
//! [`StreamError`] before any state is touched.
//!
//! **Line grammar.** [`parse_line`] takes any JSON object: members in any
//! order, whitespace between tokens, escapes in strings and keys (surrogate
//! pairs included), the first occurrence of a repeated key deciding. Members
//! the schema does not name are syntax-checked and skipped, nested at most 32
//! deep. The tokens come from `serde::Reader`, the one JSON reader
//! `serde_json::from_str` also drives; this module keeps only the schema: one
//! pass of the reader over the line fills a fixed set of typed slots — no
//! JSON tree, no recursion, time linear in the line's length — and allocates
//! only for a string written with an escape and for a `name` not seen before.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Number, Reader, Serialize, SyntaxError, Token};

use crate::artifact::{self, AttributionArtifact, RankView, ScopeView, ScopeWaitStates};
use crate::attribution::{self, WaitCause, WaitInterval};
use crate::bins::SizeBins;
use crate::event::{Event, EventKind};
use crate::fold::{CallSpans, RankFold};
use crate::report::OverlapReport;
use crate::trace::{case_from_label, BoundRecord, TooManyWindows, SCHEMA_VERSION};

pub use crate::artifact::ScopeSeries;

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
fn intern_name(name: &str, line: &str) -> Result<&'static str, StreamError> {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    intern_in(&mut pool, name).map_err(|what| bad(line, &what))
}

/// Why a stream line (or stream) was rejected. Every variant renders as a
/// single line, suitable for a one-line client error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream did not open with a schema header line.
    MissingHeader,
    /// The stream's `schema_version` differs from the one this reader
    /// writes and accepts (1).
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

/// One parsed line of the JSONL stream. `scope` borrows from the line it was
/// parsed from, unless the label was written with a JSON escape.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLine<'a> {
    /// The schema header line (always first in an export).
    Header {
        /// Declared schema version.
        schema_version: u64,
    },
    /// A raw instrumentation event.
    Event {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed event.
        event: Event,
    },
    /// A derived per-transfer bound record (`"ev":"xfer_bounds"`).
    Bound {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed record.
        record: BoundRecord,
    },
    /// A classified wait interval (`"ev":"wait"`).
    Wait {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Rank within the scope.
        rank: usize,
        /// The reconstructed interval.
        wait: WaitInterval,
    },
    /// A fabric-side extra (`"ev":"fault"`); only the timestamp matters to
    /// the fold (the windowed series counts faults per window).
    Fault {
        /// Scope label the line belongs to.
        scope: Cow<'a, str>,
        /// Virtual timestamp, ns.
        t: u64,
    },
}

/// Deepest array/object nesting the reader follows inside one line's own
/// value (the refusal past it spells the number out). The schema has none;
/// this bounds the work spent skipping an unknown member or refusing a
/// hostile one.
const MAX_NESTING: u32 = 32;

/// What a line said about one schema key. The first occurrence of a key
/// decides; later duplicates are syntax-checked and dropped.
#[derive(Default)]
enum Slot<T> {
    #[default]
    Absent,
    Null,
    /// Present with a value of another type (or out of range).
    Mistyped,
    Is(T),
}

/// How a slot's type reads a scanned value.
trait FromToken<'a>: Sized {
    fn from_token(token: Token<'a>) -> Option<Self>;
}

impl<'a> FromToken<'a> for u64 {
    fn from_token(token: Token<'a>) -> Option<u64> {
        match token {
            Token::Num(Number::PosInt(v)) => Some(v),
            _ => None,
        }
    }
}

impl<'a> FromToken<'a> for bool {
    fn from_token(token: Token<'a>) -> Option<bool> {
        match token {
            Token::Bool(v) => Some(v),
            _ => None,
        }
    }
}

impl<'a> FromToken<'a> for Cow<'a, str> {
    fn from_token(token: Token<'a>) -> Option<Cow<'a, str>> {
        match token {
            Token::Str(s) => Some(s.decode()),
            _ => None,
        }
    }
}

impl<T> Slot<T> {
    fn put<'a>(&mut self, token: Token<'a>)
    where
        T: FromToken<'a>,
    {
        if let Slot::Absent = self {
            *self = match token {
                Token::Null => Slot::Null,
                token => T::from_token(token).map_or(Slot::Mistyped, Slot::Is),
            };
        }
    }

    /// A required field; `kind` names its type in the refusal.
    fn req(self, key: &str, kind: &str, line: &str) -> Result<T, StreamError> {
        match self {
            Slot::Is(v) => Ok(v),
            _ => Err(bad(line, &format!("missing or non-{kind} `{key}`"))),
        }
    }
}

impl Slot<u64> {
    /// An optional id: absent and `null` both read as none.
    fn opt(self, key: &str, line: &str) -> Result<Option<u64>, StreamError> {
        match self {
            Slot::Absent | Slot::Null => Ok(None),
            Slot::Is(v) => Ok(Some(v)),
            Slot::Mistyped => Err(bad(line, &format!("non-numeric `{key}`"))),
        }
    }
}

/// Every key the line schema has, one typed slot each.
#[derive(Default)]
struct Fields<'a> {
    ev: Slot<Cow<'a, str>>,
    scope: Slot<Cow<'a, str>>,
    name: Slot<Cow<'a, str>>,
    case: Slot<Cow<'a, str>>,
    cause: Slot<Cow<'a, str>>,
    schema_version: Slot<u64>,
    t: Slot<u64>,
    rank: Slot<u64>,
    id: Slot<u64>,
    bytes: Slot<u64>,
    begin_t: Slot<u64>,
    xfer_time: Slot<u64>,
    min: Slot<u64>,
    max: Slot<u64>,
    end: Slot<u64>,
    xfer: Slot<u64>,
    flagged: Slot<bool>,
    clamped: Slot<bool>,
}

impl<'a> Fields<'a> {
    fn put(&mut self, key: &str, val: Token<'a>) {
        match key {
            "scope" => self.scope.put(val),
            "rank" => self.rank.put(val),
            "t" => self.t.put(val),
            "ev" => self.ev.put(val),
            "id" => self.id.put(val),
            "bytes" => self.bytes.put(val),
            "name" => self.name.put(val),
            "begin_t" => self.begin_t.put(val),
            "xfer_time" => self.xfer_time.put(val),
            "min" => self.min.put(val),
            "max" => self.max.put(val),
            "case" => self.case.put(val),
            "flagged" => self.flagged.put(val),
            "clamped" => self.clamped.put(val),
            "end" => self.end.put(val),
            "cause" => self.cause.put(val),
            "xfer" => self.xfer.put(val),
            "schema_version" => self.schema_version.put(val),
            _ => {}
        }
    }

    /// The typed line these fields spell, or what is missing from it.
    fn build(self, line: &str) -> Result<StreamLine<'a>, StreamError> {
        let num = |slot: Slot<u64>, key| slot.req(key, "numeric", line);
        let flag = |slot: Slot<bool>, key| slot.req(key, "boolean", line);
        let text = |slot: Slot<Cow<'a, str>>, key| slot.req(key, "string", line);
        let name = |slot| intern_name(&text(slot, "name")?, line);

        let ev = text(self.ev, "ev")?;
        if ev == "header" {
            return Ok(StreamLine::Header {
                schema_version: num(self.schema_version, "schema_version")?,
            });
        }
        let scope = text(self.scope, "scope")?;
        let t = num(self.t, "t")?;
        if ev == "fault" {
            return Ok(StreamLine::Fault { scope, t });
        }
        let rank = num(self.rank, "rank")? as usize;
        let kind = match &*ev {
            "call_enter" => EventKind::CallEnter {
                name: name(self.name)?,
            },
            "call_exit" => EventKind::CallExit,
            "xfer_begin" => EventKind::XferBegin {
                id: num(self.id, "id")?,
                bytes: num(self.bytes, "bytes")?,
            },
            "xfer_end" => EventKind::XferEnd {
                id: num(self.id, "id")?,
                bytes: num(self.bytes, "bytes")?,
            },
            "section_begin" => EventKind::SectionBegin {
                name: name(self.name)?,
            },
            "section_end" => EventKind::SectionEnd,
            "xfer_flag" => EventKind::XferFlag {
                id: num(self.id, "id")?,
            },
            "xfer_bounds" => {
                let case = case_from_label(&text(self.case, "case")?)
                    .ok_or_else(|| bad(line, "unknown bound `case`"))?;
                let record = BoundRecord {
                    id: self.id.opt("id", line)?,
                    bytes: num(self.bytes, "bytes")?,
                    begin_t: self.begin_t.opt("begin_t", line)?,
                    end_t: t,
                    xfer_time: num(self.xfer_time, "xfer_time")?,
                    min: num(self.min, "min")?,
                    max: num(self.max, "max")?,
                    case,
                    flagged: flag(self.flagged, "flagged")?,
                    clamped: flag(self.clamped, "clamped")?,
                };
                return Ok(StreamLine::Bound {
                    scope,
                    rank,
                    record,
                });
            }
            "wait" => {
                let cause = WaitCause::from_label(&text(self.cause, "cause")?)
                    .ok_or_else(|| bad(line, "unknown wait `cause`"))?;
                let wait = WaitInterval {
                    start: t,
                    end: num(self.end, "end")?,
                    cause,
                    xfer: self.xfer.opt("xfer", line)?,
                };
                return Ok(StreamLine::Wait { scope, rank, wait });
            }
            other => return Err(bad(line, &format!("unknown `ev` kind \"{other}\""))),
        };
        Ok(StreamLine::Event {
            scope,
            rank,
            event: Event::new(t, kind),
        })
    }
}

/// Parse one JSONL line into a [`StreamLine`] (see the module's line
/// grammar). Rejects unknown `ev` kinds and malformed fields with a one-line
/// [`StreamError`].
pub fn parse_line(line: &str) -> Result<StreamLine<'_>, StreamError> {
    scan_line(line)
        .map_err(|e| bad(line, &format!("not JSON ({e})")))?
        .build(line)
}

/// The scanning half of [`parse_line`]: the whole line checked as JSON, its
/// own object's members in the slots their keys name. Any other JSON value
/// is well-formed, and has no `ev`.
fn scan_line(line: &str) -> Result<Fields<'_>, SyntaxError> {
    let mut reader = Reader::new(line, MAX_NESTING);
    let mut fields = Fields::default();
    match reader.token()? {
        Token::Object => {
            // Members up to the object's `End`.
            while let Token::Key(key) = reader.token()? {
                let val = reader.token()?;
                if let Token::Array | Token::Object = val {
                    reader.skip()?;
                }
                fields.put(&key.decode(), val);
            }
        }
        Token::Array => reader.skip()?,
        _ => {}
    }
    reader.finish()?;
    Ok(fields)
}

/// One rank's stream state: the shared fold plus the derived records the
/// read endpoints need.
#[derive(Clone)]
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
    fn new(bins: SizeBins) -> Self {
        RankState {
            fold: RankFold::new(bins),
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

    fn view(&self, rank: usize) -> RankView<'_> {
        RankView {
            rank,
            events: self.events,
            calls: Cow::Borrowed(&self.calls),
            bounds: &self.bounds,
            waits: &self.waits,
        }
    }

    /// The rank's report as of its final stamp, which is where the batch
    /// pipeline finishes; attribution metrics folded in as the traced
    /// recorder folds them.
    fn report(&self, rank: usize) -> OverlapReport {
        let end = self.calls.last_t().max(self.bounds_hi);
        let mut report = self.fold.report(rank, end, self.events);
        attribution::fold_metrics(&self.view(rank), self.fold.bins(), &mut report.metrics);
        report
    }
}

/// One scope's streaming fold: per-rank states plus the scope-level span and
/// fabric extras the windowed series needs.
#[derive(Clone, Default)]
struct ScopeFold {
    /// The layout every rank of the scope folds with, labels and metric
    /// names included.
    bins: SizeBins,
    ranks: BTreeMap<usize, Arc<RankState>>,
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
        let state = self
            .ranks
            .entry(rank)
            .or_insert_with(|| Arc::new(RankState::new(self.bins.clone())));
        Arc::make_mut(state)
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

/// A streaming session: one pushed event stream (one or more scopes), folded
/// incrementally. See the module docs for the memory model and the
/// batch/stream equivalence guarantee. A clone, O(scopes + ranks + fault
/// stamps), is a snapshot that later pushes to either side do not reach.
#[derive(Clone, Default)]
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

    /// What every artifact below is built from: one view per scope, stream
    /// order.
    fn views(&self) -> Vec<ScopeView<'_>> {
        self.scopes()
            .map(|(scope, sf)| ScopeView {
                scope,
                span: sf.span,
                extras: Cow::Borrowed(&sf.extras_t),
                ranks: sf.ranks.iter().map(|(&rank, r)| r.view(rank)).collect(),
            })
            .collect()
    }

    /// Per-scope live windowed series, scopes in stream order
    /// ([`artifact::series`]: `None` picks each scope's default width, as
    /// the batch trace export does; a `width` too narrow for some scope's
    /// span is refused).
    pub fn try_series(&self, width: Option<u64>) -> Result<Vec<ScopeSeries>, TooManyWindows> {
        artifact::series(&self.views(), width)
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
        artifact::wait_states(&self.views())
    }

    /// The `<id>.attribution.json` artifact for everything folded so far —
    /// byte-identical to the batch `--critical-path` output for the same
    /// stream.
    pub fn attribution(&self, id: &str) -> AttributionArtifact {
        artifact::attribution_artifact(id, &self.views())
    }

    /// The `<id>.critpath.folded` flamegraph text for everything folded so
    /// far — byte-identical to the batch output for the same stream.
    pub fn collapsed(&self) -> String {
        artifact::collapsed(&self.views())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(r.metrics.counters["xfers_closed"], 1);
        assert_eq!(r.metrics.counters["xfers_flagged"], 1);
        assert!(r.metrics.histograms.contains_key("xfer_wall_ns"));
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
        let batch = artifact::attribution_artifact("test", &[ScopeView::of(&b.scope, &b)]);
        let stream = s.attribution("test");
        assert_eq!(
            serde_json::to_string_pretty(&stream).unwrap(),
            serde_json::to_string_pretty(&batch).unwrap(),
            "attribution artifacts must be byte-identical"
        );
        // And the collapsed flamegraph text.
        let batch_folded = artifact::collapsed(&[ScopeView::of(&b.scope, &b)]);
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

    /// The decoder this module had before the scanner: the vendored JSON
    /// parser builds a `Value` tree, then members are looked up by key. Kept
    /// as the reference [`parse_line`] is compared against.
    mod oracle {
        use super::super::*;
        use serde_json::Value;

        fn req_u64(v: &Value, key: &str, line: &str) -> Result<u64, StreamError> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| bad(line, &format!("missing or non-numeric `{key}`")))
        }

        fn opt_u64(v: &Value, key: &str, line: &str) -> Result<Option<u64>, StreamError> {
            match v.get(key) {
                None => Ok(None),
                Some(x) if x.is_null() => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| bad(line, &format!("non-numeric `{key}`"))),
            }
        }

        fn req_bool(v: &Value, key: &str, line: &str) -> Result<bool, StreamError> {
            v.get(key)
                .and_then(|x| x.as_bool())
                .ok_or_else(|| bad(line, &format!("missing or non-boolean `{key}`")))
        }

        fn req_str<'v>(v: &'v Value, key: &str, line: &str) -> Result<&'v str, StreamError> {
            v.get(key)
                .and_then(|x| x.as_str())
                .ok_or_else(|| bad(line, &format!("missing or non-string `{key}`")))
        }

        pub fn parse_line(line: &str) -> Result<StreamLine<'static>, StreamError> {
            let v: Value =
                serde_json::from_str(line).map_err(|e| bad(line, &format!("not JSON ({e})")))?;
            let ev = req_str(&v, "ev", line)?;
            if ev == "header" {
                return Ok(StreamLine::Header {
                    schema_version: req_u64(&v, "schema_version", line)?,
                });
            }
            let scope = Cow::Owned(req_str(&v, "scope", line)?.to_string());
            let t = req_u64(&v, "t", line)?;
            if ev == "fault" {
                return Ok(StreamLine::Fault { scope, t });
            }
            let rank = req_u64(&v, "rank", line)? as usize;
            let name = || intern_name(req_str(&v, "name", line)?, line);
            let kind = match ev {
                "call_enter" => EventKind::CallEnter { name: name()? },
                "call_exit" => EventKind::CallExit,
                "xfer_begin" => EventKind::XferBegin {
                    id: req_u64(&v, "id", line)?,
                    bytes: req_u64(&v, "bytes", line)?,
                },
                "xfer_end" => EventKind::XferEnd {
                    id: req_u64(&v, "id", line)?,
                    bytes: req_u64(&v, "bytes", line)?,
                },
                "section_begin" => EventKind::SectionBegin { name: name()? },
                "section_end" => EventKind::SectionEnd,
                "xfer_flag" => EventKind::XferFlag {
                    id: req_u64(&v, "id", line)?,
                },
                "xfer_bounds" => {
                    let case = case_from_label(req_str(&v, "case", line)?)
                        .ok_or_else(|| bad(line, "unknown bound `case`"))?;
                    let record = BoundRecord {
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
                    };
                    return Ok(StreamLine::Bound {
                        scope,
                        rank,
                        record,
                    });
                }
                "wait" => {
                    let cause = WaitCause::from_label(req_str(&v, "cause", line)?)
                        .ok_or_else(|| bad(line, "unknown wait `cause`"))?;
                    let wait = WaitInterval {
                        start: t,
                        end: req_u64(&v, "end", line)?,
                        cause,
                        xfer: opt_u64(&v, "xfer", line)?,
                    };
                    return Ok(StreamLine::Wait { scope, rank, wait });
                }
                other => return Err(bad(line, &format!("unknown `ev` kind \"{other}\""))),
            };
            Ok(StreamLine::Event {
                scope,
                rank,
                event: Event::new(t, kind),
            })
        }
    }

    /// `parse_line` and the oracle accept the same lines, decode them to the
    /// same value and refuse the rest for the same reason (a syntax error is
    /// worded by whichever parser met it), always on one line.
    fn agree(line: &str) -> Result<(), String> {
        let got = parse_line(line);
        let want = oracle::parse_line(line);
        let same = match (&got, &want) {
            (Ok(g), Ok(w)) => g == w,
            (Err(g), Err(w)) => {
                let (g, w) = (g.to_string(), w.to_string());
                let syntax = "bad stream line: not JSON (";
                !g.contains('\n') && (g == w || (g.starts_with(syntax) && w.starts_with(syntax)))
            }
            _ => false,
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "on {line:?}\n  scanner: {got:?}\n  oracle:  {want:?}"
            ))
        }
    }

    /// Random stream lines: every `ev` kind, then spoiled in the ways a
    /// foreign writer could spoil them.
    struct LineGen(proptest::TestRng);

    impl LineGen {
        fn below(&mut self, n: usize) -> usize {
            self.0.below(n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, of: &[T]) -> T {
            of[self.below(of.len())]
        }

        /// Inter-token whitespace (never a newline: a line is one line).
        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", "", " ", "\t", "\r", "  "])
        }

        /// `s` as a JSON string literal, each character written plainly, as
        /// its short escape or as `\uXXXX`, at random.
        fn lit(&mut self, s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                let short = match c {
                    '"' => Some("\\\""),
                    '\\' => Some("\\\\"),
                    '/' => Some("\\/"),
                    '\n' => Some("\\n"),
                    '\t' => Some("\\t"),
                    _ => None,
                };
                match (self.below(8), short) {
                    // Outside the BMP, as a surrogate pair.
                    (0, _) => {
                        for unit in c.encode_utf16(&mut [0; 2]) {
                            out.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                    (_, Some(esc)) => out.push_str(esc),
                    _ => out.push(c),
                }
            }
            out.push('"');
            out
        }

        fn number(&mut self) -> String {
            match self.below(12) {
                0 => "18446744073709551615".into(),
                1 => "18446744073709551616".into(),
                2 => format!("-{}", self.below(50)),
                3 => self.pick(&["1.5", "2e3", "7E-2", "0.0", "-0.25"]).into(),
                4 => self
                    .pick(&["007", "-", "1e", "1.2.3", "+4", ".5", "0x10"])
                    .into(),
                _ => self.below(100_000).to_string(),
            }
        }

        /// A value no schema key wants here: any scalar, or nested junk.
        fn junk(&mut self, depth: usize) -> String {
            match self.below(if depth < 3 { 7 } else { 5 }) {
                0 => "null".into(),
                1 => self.pick(&["true", "false"]).into(),
                2 | 3 => self.number(),
                4 => {
                    let s = self.pick(&["", "x", "call_exit", "q\"uo\\te", "caf\u{e9} \u{1F600}"]);
                    self.lit(s)
                }
                5 => {
                    let items: Vec<String> =
                        (0..self.below(3)).map(|_| self.junk(depth + 1)).collect();
                    format!("[{}{}]", self.ws(), items.join(&format!("{},", self.ws())))
                }
                _ => {
                    let items: Vec<String> = (0..self.below(3))
                        .map(|_| {
                            let key = self.pick(&["a", "t", "ev", "k\"ey"]);
                            format!("{}{}:{}", self.lit(key), self.ws(), self.junk(depth + 1))
                        })
                        .collect();
                    format!("{{{}{}}}", items.join(","), self.ws())
                }
            }
        }

        fn line(&mut self) -> String {
            const KINDS: [&str; 12] = [
                "header",
                "call_enter",
                "call_exit",
                "xfer_begin",
                "xfer_end",
                "section_begin",
                "section_end",
                "xfer_flag",
                "xfer_bounds",
                "wait",
                "fault",
                "mystery",
            ];
            // A small fixed set: names are interned into a capped pool.
            const NAMES: [&str; 5] = [
                "MPI_Isend",
                "MPI_Wait",
                "we\"ird\\",
                "tab\there",
                "caf\u{e9}",
            ];
            let ev = self.pick(&KINDS);
            let scope = self.pick(&["s", "fig03/np4", "a\"b\\c/d", "sc\u{f6}pe\n2", ""]);
            let mut members: Vec<(&str, String)> = vec![("ev", self.lit(ev))];
            let mut num = |g: &mut Self, key| members.push((key, g.below(1_000_000).to_string()));
            if ev == "header" {
                num(self, "schema_version");
            } else {
                num(self, "t");
                if ev != "fault" {
                    num(self, "rank");
                }
            }
            match ev {
                "xfer_begin" | "xfer_end" => {
                    num(self, "id");
                    num(self, "bytes");
                }
                "xfer_flag" => num(self, "id"),
                "xfer_bounds" => {
                    for key in ["id", "bytes", "begin_t", "xfer_time", "min", "max"] {
                        num(self, key);
                    }
                }
                "wait" => {
                    num(self, "end");
                    num(self, "xfer");
                }
                _ => {}
            }
            if ev != "header" {
                members.push(("scope", self.lit(scope)));
            }
            match ev {
                "call_enter" | "section_begin" => {
                    let name = self.pick(&NAMES);
                    members.push(("name", self.lit(name)));
                }
                "xfer_bounds" => {
                    let case = self.pick(&["same_call", "split_calls", "single_stamp", "other"]);
                    members.push(("case", self.lit(case)));
                    members.push(("flagged", self.pick(&["true", "false"]).into()));
                    members.push(("clamped", self.pick(&["true", "false"]).into()));
                }
                "wait" => {
                    let cause = self.pick(&["late_sender", "late_receiver", "nope"]);
                    members.push(("cause", self.lit(cause)));
                }
                "fault" => {
                    members.push(("name", self.lit("fault.dropped")));
                    members.push(("detail", self.lit("src 0 -> dst 1")));
                }
                _ => {}
            }
            // Spoil it: optionals nulled or dropped, values mistyped or out
            // of range, members missing, keys repeated, strangers added.
            for _ in 0..self.below(4) {
                let i = self.below(members.len());
                match self.below(6) {
                    0 => members[i].1 = "null".into(),
                    1 => members[i].1 = self.number(),
                    2 => members[i].1 = self.junk(0),
                    3 => {
                        members.remove(i);
                    }
                    4 => {
                        let dup = (members[i].0, self.junk(2));
                        let at = self.below(members.len() + 1);
                        members.insert(at, dup);
                    }
                    _ => {
                        let extra = (self.pick(&["x", "detail", "T", "ranks"]), self.junk(0));
                        let at = self.below(members.len() + 1);
                        members.insert(at, extra);
                    }
                }
                if members.is_empty() {
                    break;
                }
            }
            for i in (1..members.len()).rev() {
                members.swap(i, self.below(i + 1));
            }
            let mut out = format!("{}{{", self.ws());
            for (i, (key, val)) in members.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let key = self.lit(key);
                out.push_str(&format!(
                    "{sep}{}{key}{}:{}{val}{}",
                    self.ws(),
                    self.ws(),
                    self.ws(),
                    self.ws()
                ));
            }
            out.push('}');
            out.push_str(self.ws());
            out
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        #[test]
        fn scanner_agrees_with_the_value_tree_decoder(seed in proptest::any::<u64>()) {
            let line = LineGen(proptest::TestRng::from_seed(seed)).line();
            if let Err(diff) = agree(&line) {
                proptest::prop_assert!(false, "{diff}");
            }
            // Cut short at every byte offset.
            for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                if let Err(diff) = agree(&line[..cut]) {
                    proptest::prop_assert!(false, "{diff}");
                }
            }
        }
    }

    /// The refusal family an error message belongs to.
    fn family(err: &str) -> &'static str {
        ["not JSON", "missing or non-", "non-numeric", "unknown"]
            .into_iter()
            .find(|f| err.contains(f))
            .unwrap_or_else(|| panic!("unexpected refusal {err}"))
    }

    #[test]
    fn generated_lines_reach_every_outcome() {
        // The differential test is only as good as its inputs: most lines
        // must decode, and each refusal family must occur.
        let mut accepted = 0;
        let mut reasons = BTreeSet::new();
        for seed in 0..2_000 {
            let line = LineGen(proptest::TestRng::from_seed(seed)).line();
            match parse_line(&line) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    reasons.insert(family(&e.to_string()));
                }
            }
        }
        assert!(
            (600..1_800).contains(&accepted),
            "{accepted} of 2000 accepted"
        );
        assert_eq!(reasons.len(), 4, "{reasons:?}");
    }

    /// Every token edge case as the value of a numeric key, of a string
    /// key, of a key the schema does not have, after the line, and as the
    /// whole line.
    fn edge_case_lines() -> Vec<String> {
        #[rustfmt::skip]
        let values = [
            "0", "-0", "007", "-", "--1", "+1", ".5", "-.5", "1.", "1.e5", "1e5", "1e", "1e+",
            "1.2.3", "1-2", "18446744073709551615", "18446744073709551616", "-9223372036854775807",
            "-9223372036854775808", "-9223372036854775809", "1e999", "nul", "nulll", "tru",
            "truex", "falsey", "True", r#""\u0041""#, r#""\u00e9""#, r#""é""#, r#""\u+041""#,
            r#""\u00""#, r#""\u00g1""#, r#""😀""#, r#""\ud83d\ude00""#, r#""\uD83D\uDE00""#,
            r#""\ud800""#, r#""\udc00""#, r#""\ud83d\u0041""#, r#""\ud83d\ud83d""#,
            r#""\ude00\ud83d""#, r#""\ud83d\ude0""#, r#""\ud83d\""#, r#""\x""#, r#""\"#, r#""a"#,
            "\"raw\ttab\"", "[]", "[ ]", "[1,]", "[,1]", "[1 2]", "{}", r#"{"a"}"#, r#"{"a":}"#,
            r#"{"a":1,}"#, r#"{a:1}"#, r#"{"a":1 "b":2}"#, "[[],{}]", "'x'", "",
        ];
        values
            .iter()
            .flat_map(|val| {
                [
                    format!(r#"{{"ev":"fault","scope":"s","t":{val}}}"#),
                    format!(r#"{{"ev":"fault","t":1,"scope":{val}}}"#),
                    format!(r#"{{"ev":"fault","scope":"s","t":1,"zz":{val}}}"#),
                    format!(r#"{{"ev":"fault","scope":"s","t":1}}{val}"#),
                    val.to_string(),
                ]
            })
            .collect()
    }

    #[test]
    fn token_edge_cases_agree_with_the_value_tree_decoder() {
        for line in edge_case_lines() {
            agree(&line).unwrap_or_else(|diff| panic!("{diff}"));
        }
        // Escaped keys name the same members; the first duplicate decides.
        let line = r#"{"ev":"fault","scope":"s","\u0074":3,"t":"later","ev":7}"#;
        agree(line).unwrap();
        assert!(matches!(
            parse_line(line),
            Ok(StreamLine::Fault { t: 3, .. })
        ));
        // An escaped surrogate pair is one character, and the most negative
        // `i64` is a number (a mistyped `t`, not a syntax error).
        let Ok(StreamLine::Fault { scope, .. }) =
            parse_line(r#"{"ev":"fault","scope":"\ud83d\ude00","t":1}"#)
        else {
            panic!("surrogate pair decodes");
        };
        assert_eq!(scope, "\u{1F600}");
        let err = parse_line(r#"{"ev":"fault","scope":"s","t":-9223372036854775808}"#);
        assert!(err.unwrap_err().to_string().contains("non-numeric `t`"));
        agree(r#"{"ev":"fault","scope":"s","t":"first","t":3}"#).unwrap();
        assert!(parse_line(r#"{"ev":"fault","scope":"s","t":"first","t":3}"#).is_err());
    }

    /// What a decoder said about a line: the decoded line, or the
    /// refusal's family.
    fn verdict(got: Result<StreamLine<'_>, StreamError>) -> String {
        match got {
            Ok(decoded) => format!("{decoded:?}"),
            Err(e) => family(&e.to_string()).to_string(),
        }
    }

    /// FNV-1a over every verdict on the edge-case lines and on generated
    /// lines 0..2000 cut at every byte.
    fn verdict_digest(verdict_of: impl Fn(&str) -> String) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |line: &str| {
            for b in verdict_of(line).bytes().chain([b'\n']) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        edge_case_lines().iter().for_each(|line| eat(line));
        for seed in 0..2_000 {
            let line = LineGen(proptest::TestRng::from_seed(seed)).line();
            for cut in (0..=line.len()).filter(|&i| line.is_char_boundary(i)) {
                eat(&line[..cut]);
            }
        }
        hash
    }

    #[test]
    fn verdicts_match_the_recorded_digest() {
        // Recorded with the recursive `Value` parser `serde_json` had before
        // it shared this reader; the one reader must say the same.
        const RECORDED: u64 = 0x8eda_d5b6_d5bc_4f1f;
        assert_eq!(verdict_digest(|l| verdict(oracle::parse_line(l))), RECORDED);
        assert_eq!(verdict_digest(|l| verdict(parse_line(l))), RECORDED);
    }

    #[test]
    fn scope_borrows_from_the_line_unless_escaped() {
        let plain = r#"{"ev":"fault","scope":"fig03/np4","t":1}"#;
        let Ok(StreamLine::Fault { scope, .. }) = parse_line(plain) else {
            panic!("plain line decodes");
        };
        assert!(matches!(scope, Cow::Borrowed("fig03/np4")));
        let escaped = r#"{"ev":"fault","scope":"a\"b\u00e9\/","t":1}"#;
        let Ok(StreamLine::Fault { scope, .. }) = parse_line(escaped) else {
            panic!("escaped line decodes");
        };
        assert_eq!(scope, "a\"b\u{e9}/");
    }

    #[test]
    fn nesting_is_bounded_and_deep_lines_are_refused_not_fatal() {
        let nested = |depth: usize| {
            format!(
                r#"{{"ev":"fault","scope":"s","t":1,"x":{}1{}}}"#,
                "[{\"k\":".repeat(depth / 2),
                "}]".repeat(depth / 2)
            )
        };
        assert!(parse_line(&nested(MAX_NESTING as usize)).is_ok());
        let err = parse_line(&nested(MAX_NESTING as usize + 2)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 32"), "{err}");
        // Either of these overflowed the stack of the recursive parser and
        // took the process down with it.
        for opener in ["[", "{\"a\":"] {
            let err = parse_line(&opener.repeat(200_000)).unwrap_err().to_string();
            assert!(
                err.starts_with("bad stream line: not JSON (nesting deeper than 32"),
                "{err}"
            );
            assert!(!err.contains('\n') && err.len() < 300, "{err}");
        }
    }

    #[test]
    fn a_megabyte_string_costs_linear_time() {
        // Re-validating the rest of the line per character made this 13 s.
        let body = "x\u{e9}\\n".repeat(250_000);
        let start = std::time::Instant::now();
        // Decoded as the scope, then skipped as a stranger.
        for (key, decoded) in [("scope", 1_000_000), ("detail", 1)] {
            let line = format!(r#"{{"ev":"fault","t":1,"{key}":"{body}","scope":"s"}}"#);
            assert!(line.len() > 1_000_000);
            let Ok(StreamLine::Fault { scope, .. }) = parse_line(&line) else {
                panic!("long {key} decodes");
            };
            assert_eq!(scope.len(), decoded);
        }
        // As a name it is refused by the cap, as fast.
        let line = format!(r#"{{"ev":"call_enter","t":1,"rank":0,"scope":"s","name":"{body}"}}"#);
        assert!(parse_line(&line).is_err());
        assert!(start.elapsed().as_secs() < 2, "{:?}", start.elapsed());
    }
}
