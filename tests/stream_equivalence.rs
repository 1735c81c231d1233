//! Batch/stream equivalence on a real harness trace: the JSONL event
//! stream of a captured figure run, folded incrementally through
//! [`overlap_core::stream::SessionFold`], must reproduce the batch
//! pipeline's outputs **byte for byte** —
//!
//! * the `--critical-path` artifacts (`<id>.attribution.json` pretty JSON
//!   and `<id>.critpath.folded` flamegraph text),
//! * the per-scope wait-state breakdowns merged into the `--json` report,
//! * the windowed time-resolved series (`trace_windows` shape), at the
//!   default width and at several explicit widths.
//!
//! Random streams, anomalies included, are `stream_fold_prop.rs`'s.

use std::sync::{Mutex, MutexGuard, OnceLock};

use overlap_core::stream::SessionFold;
use overlap_core::trace::{default_window_width, jsonl, windowed, TraceBundle};

/// Serialize tests: `tracecap` is process-global.
fn global_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run one registered figure harness under trace capture and return its
/// scopes in store (= stream) order, exactly as `repro --trace` sees them.
fn capture(id: &str) -> Vec<(String, TraceBundle)> {
    bench::tracecap::enable();
    let _ = bench::tracecap::drain(); // discard scopes from earlier tests
    let h = bench::figures::all()
        .into_iter()
        .find(|h| h.id == id)
        .unwrap_or_else(|| panic!("harness {id} not registered"));
    let _series = (h.run)();
    let captured: Vec<(String, TraceBundle)> = bench::tracecap::drain().into_iter().collect();
    assert!(!captured.is_empty(), "{id} should register traced scopes");
    captured
}

#[test]
fn fig03_stream_artifacts_match_batch_byte_for_byte() {
    let _g = global_lock();
    let captured = capture("fig03");

    // The exact stream `repro --trace` writes (and `repro push` uploads).
    let bundles: Vec<TraceBundle> = captured.iter().map(|(_, b)| b.clone()).collect();
    let text = jsonl(&bundles);

    let mut fold = SessionFold::default();
    fold.push_text(&text).expect("stream folds cleanly");

    // Batch side: same grouping `repro --critical-path` performs.
    let scoped: Vec<(String, &TraceBundle)> =
        captured.iter().map(|(s, b)| (s.clone(), b)).collect();

    // <id>.attribution.json — pretty JSON, byte-identical.
    let batch_attr = bench::critpath::attribution_artifact("fig03", &scoped);
    assert_eq!(
        serde_json::to_string_pretty(&fold.attribution("fig03")).unwrap(),
        serde_json::to_string_pretty(&batch_attr).unwrap(),
        "attribution artifact diverges between stream and batch"
    );

    // <id>.critpath.folded — byte-identical flamegraph text.
    assert_eq!(
        fold.collapsed(),
        bench::critpath::collapsed(&scoped),
        "collapsed critical-path text diverges between stream and batch"
    );

    // Wait-state breakdowns (the `--json` report rows), in the same order.
    let batch_ws: Vec<_> = captured
        .iter()
        .map(|(scope, bundle)| bench::critpath::wait_states(scope, bundle))
        .collect();
    assert_eq!(
        serde_json::to_string(&fold.wait_states()).unwrap(),
        serde_json::to_string(&batch_ws).unwrap(),
        "wait-state breakdowns diverge between stream and batch"
    );

    // Windowed series: default width plus explicit widths.
    let batch_default: Vec<bench::runner::ScopeWindows> = captured
        .iter()
        .map(|(scope, bundle)| {
            let width = default_window_width(bundle);
            bench::runner::ScopeWindows {
                scope: scope.clone(),
                window_ns: width,
                windows: windowed(bundle, width),
            }
        })
        .collect();
    assert_eq!(
        serde_json::to_string(&fold.series(None)).unwrap(),
        serde_json::to_string(&batch_default).unwrap(),
        "default-width series diverges between stream and batch"
    );
    for width in [1_000u64, 250_000, 10_000_000] {
        let batch: Vec<bench::runner::ScopeWindows> = captured
            .iter()
            .map(|(scope, bundle)| bench::runner::ScopeWindows {
                scope: scope.clone(),
                window_ns: width,
                windows: windowed(bundle, width),
            })
            .collect();
        assert_eq!(
            serde_json::to_string(&fold.series(Some(width))).unwrap(),
            serde_json::to_string(&batch).unwrap(),
            "series at width {width} diverges between stream and batch"
        );
    }
}
