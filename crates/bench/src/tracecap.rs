//! Process-global trace capture for the `repro --trace <dir>` flow.
//!
//! Harnesses are plain `fn() -> Series` entry points, so they cannot take a
//! "capture traces" argument; instead the `repro` binary arms this module
//! once (before any harness runs), and [`crate::sim`] — the one caller of
//! [`enabled`] and [`record`] — switches tracing on for each scoped run and
//! registers its per-rank traces under the run's unique scope label
//! (`"<harness>/<point>"`); after all harnesses finish, `repro` drains the
//! store and writes one Chrome-trace + JSONL file pair per harness.
//!
//! The store is keyed by a `BTreeMap`, so drained output is ordered by scope
//! label — independent of which `--jobs` worker finished first. Combined
//! with the deterministic per-rank traces, the emitted files are
//! byte-identical across worker counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use overlap_core::trace::{ExtraEvent, RankTrace, TraceBundle};
use simnet::FaultEvent;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STORE: Mutex<BTreeMap<String, TraceBundle>> = Mutex::new(BTreeMap::new());
static STREAM_TO: Mutex<Option<String>> = Mutex::new(None);

/// Arm trace capture for the rest of the process. Call once, before running
/// harnesses.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether capture is armed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Additionally tee every captured bundle to a running `overlapd` at `addr`
/// (the `repro --stream <addr>` flow). Implies capture; call once, before
/// running harnesses. Push failures are warnings, never fatal — live
/// streaming must not break a batch run.
pub fn set_stream(addr: impl Into<String>) {
    *STREAM_TO.lock().unwrap() = Some(addr.into());
    enable();
}

/// Register one simulation run's traces under `scope`. Fabric fault events
/// become generic extra markers (`fault.<kind>`) on the bundle. No-op while
/// capture is disarmed or when the run produced no traces.
pub fn record(scope: impl Into<String>, traces: Vec<RankTrace>, faults: &[FaultEvent]) {
    if !enabled() || traces.is_empty() {
        return;
    }
    let scope = scope.into();
    let extras = faults
        .iter()
        .map(|f| ExtraEvent {
            t: f.at,
            name: format!("fault.{}", f.kind.label()),
            detail: f.describe(),
        })
        .collect();
    let bundle = TraceBundle {
        scope: scope.clone(),
        ranks: traces,
        extras,
    };
    let stream_to = STREAM_TO.lock().unwrap().clone();
    if let Some(addr) = stream_to {
        // Tee this bundle to the analysis service as it lands: session =
        // harness id (the scope prefix), so all of a harness's scopes stream
        // into one live session. Each chunk re-states the schema header,
        // which the server accepts.
        let session = scope.split('/').next().unwrap_or(&scope);
        let chunk = overlap_core::trace::jsonl(std::slice::from_ref(&bundle));
        if let Err(e) = overlapd::push_text(&addr, session, &chunk) {
            eprintln!("warning: cannot stream scope {scope:?} to {addr}: {e}");
        }
    }
    STORE.lock().unwrap().insert(scope, bundle);
}

/// Remove and return everything captured so far, ordered by scope label.
pub fn drain() -> BTreeMap<String, TraceBundle> {
    std::mem::take(&mut *STORE.lock().unwrap())
}
