//! In-memory span recorder for the traced run (`trace <workload>`).
//!
//! A span wraps one call from the benchmark into a layer's public function;
//! its name is the prefix of the per-layer metric that times the same call
//! in isolation. Spans live in memory and are written once, at exit, as
//! Chrome-trace JSON. While the recorder is disarmed [`span`] costs one
//! relaxed load, so the untraced `run` shares the workload code unchanged.
//!
//! Spans sit around the crates, not inside them: a simulator pass therefore
//! resolves to one span per harness and no further. In-crate spans are a
//! later change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ARMED: AtomicBool = AtomicBool::new(false);
static PASS: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer prefix, e.g. `overlapd.client.push`.
    pub name: &'static str,
    /// What was processed (harness id, endpoint, stream).
    pub label: String,
    /// Start and end, ns since the recorder was armed.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Pass the span belongs to: the identifier spans of one pass share.
    pub pass: u32,
    pub tid: u32,
    /// Work counts at this boundary (lines, events, bytes).
    pub counts: Vec<(&'static str, u64)>,
}

/// Arm the recorder for the rest of the process.
pub fn arm() {
    EPOCH.get_or_init(Instant::now);
    ARMED.store(true, Ordering::SeqCst);
}

pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Tag the spans that follow with pass id `p`.
pub fn set_pass(p: u32) {
    PASS.store(p, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

fn lock() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // Every update pushes or overwrites one whole element, so the vector is
    // valid even if a holder panicked.
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span; it ends when the returned guard drops. No-op while the
/// recorder is disarmed.
pub fn span(name: &'static str, label: &str) -> Guard {
    if !armed() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_ns = now_ns();
    let mut spans = lock();
    let id = spans.len();
    spans.push(Span {
        name,
        label: label.to_string(),
        start_ns,
        end_ns: start_ns,
        parent,
        pass: PASS.load(Ordering::Relaxed),
        tid: TID.with(|t| *t),
        counts: Vec::new(),
    });
    drop(spans);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(id))
}

impl Guard {
    /// Attach a work count to the span.
    pub fn count(&self, key: &'static str, n: u64) {
        if let Some(id) = self.0 {
            lock()[id].counts.push((key, n));
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end = now_ns();
            lock()[id].end_ns = end;
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Everything recorded so far.
pub fn snapshot() -> Vec<Span> {
    lock().clone()
}

/// Self time per span name, ms: each span's duration minus the part its
/// children cover, summed over the spans of that name.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s).expect("string serializes")
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let mut args = format!(
            "\"id\":{id},\"pass\":{},\"label\":{}",
            s.pass,
            json_str(&s.label)
        );
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        for (k, v) in &s.counts {
            args.push_str(&format!(",{}:{v}", json_str(k)));
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            json_str(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            label: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            tid: 1,
            counts: vec![("lines", 3)],
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            sp("pass", 0, 10_000_000, None),
            sp("push", 1_000_000, 4_000_000, Some(0)),
            sp("get", 5_000_000, 7_000_000, Some(0)),
            sp("push", 8_000_000, 9_000_000, Some(0)),
        ];
        let st = self_time_ms(&spans);
        assert_eq!(st["pass"], 4.0);
        assert_eq!(st["push"], 4.0);
        assert_eq!(st["get"], 2.0);
    }

    #[test]
    fn chrome_json_parses_and_carries_parent_and_counts() {
        let spans = vec![sp("a.b", 0, 2_000, None), sp("c", 500, 1_500, Some(0))];
        let text = chrome_json(&spans);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let evs = v["traceEvents"].as_array().expect("array");
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(evs[1]["args"]["lines"].as_u64(), Some(3));
        assert_eq!(evs[0]["dur"].as_f64(), Some(2.0));
    }
}
