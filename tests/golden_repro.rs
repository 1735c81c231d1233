//! Golden-snapshot suite for the scheduler overhaul.
//!
//! The goldens under `tests/goldens/` were captured from `repro <id> --jobs
//! 1` *before* the engine's binary heap was replaced by the timing wheel
//! (and before message pooling / diagnostic interning). These tests pin the
//! refactor to byte-for-byte equivalence:
//!
//! * one micro-benchmark figure (`fig03`), one ablation (`ablation-eager`),
//!   and one NAS-kernel figure (`fig14`) rendered-series snapshot, plus
//!   `ablation-progress`, the one harness that runs every progress model,
//! * FNV-1a-64 checksums + byte lengths of fig03's exported trace files
//!   (`fig03.trace.fnv` — the raw exports are several MB, so the golden
//!   stores digests; re-blessed when the export schema intentionally
//!   changes, most recently for the `schema_version` header and the
//!   wait/fault lines that ride the JSONL stream) and of the three
//!   `--critical-path` artifacts built from the same capture (the batch ==
//!   stream tests share the builders, so only a digest notices a reordered
//!   field),
//! * job-count invariance: the concatenated `--jobs 4` output equals the
//!   serial goldens.
//!
//! Trace capture and the worker budget are process-global, so every test
//! takes one shared lock.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use overlap_core::trace::{chrome_json, jsonl, TraceBundle};

/// Serialize tests: `tracecap` and the runner's job budget are global.
fn global_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Look up a harness by id across both registries.
fn harness(id: &str) -> bench::Harness {
    bench::figures::all()
        .into_iter()
        .chain(bench::ablations::all())
        .find(|h| h.id == id)
        .unwrap_or_else(|| panic!("harness {id} not registered"))
}

/// What `repro <id>` prints for one harness: the rendered series plus the
/// blank separator line.
fn rendered(id: &str) -> String {
    format!("{}\n", (harness(id).run)().render())
}

fn assert_golden(id: &str, golden: &str) {
    let got = rendered(id);
    assert!(
        got == golden,
        "{id} output diverged from tests/goldens/{id}.txt\n--- golden ---\n{golden}\n--- got ---\n{got}"
    );
}

#[test]
fn fig03_micro_series_matches_golden() {
    let _g = global_lock();
    assert_golden("fig03", include_str!("goldens/fig03.txt"));
}

#[test]
fn fig14_nas_series_matches_golden() {
    let _g = global_lock();
    assert_golden("fig14", include_str!("goldens/fig14.txt"));
}

#[test]
fn ablation_eager_series_matches_golden() {
    let _g = global_lock();
    assert_golden("ablation-eager", include_str!("goldens/ablation-eager.txt"));
}

/// The only default-run harness that drives `early-bird` and `hw-tag`.
#[test]
fn ablation_progress_series_matches_golden() {
    let _g = global_lock();
    assert_golden(
        "ablation-progress",
        include_str!("goldens/ablation-progress.txt"),
    );
}

#[test]
fn stdout_is_job_count_invariant() {
    let _g = global_lock();
    let ids = ["fig03", "fig14", "ablation-eager"];
    let selection: Vec<bench::Harness> = ids.iter().map(|id| harness(id)).collect();
    bench::runner::set_jobs(4);
    let mut got = String::new();
    bench::runner::run_harnesses(&selection, |run| {
        got.push_str(&run.series.render());
        got.push('\n');
    });
    bench::runner::set_jobs(1);
    let golden = concat!(
        include_str!("goldens/fig03.txt"),
        include_str!("goldens/fig14.txt"),
        include_str!("goldens/ablation-eager.txt"),
    );
    assert!(
        got == golden,
        "parallel (--jobs 4) output diverged from the serial goldens"
    );
}

/// FNV-1a 64-bit, matching the digests stored in `fig03.trace.fnv`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fig03_trace_exports_match_golden_checksums() {
    let _g = global_lock();
    bench::tracecap::enable();
    let _ = bench::tracecap::drain(); // discard scopes captured by earlier tests
    let _series = (harness("fig03").run)();

    // Group scopes by harness id exactly as `repro --trace` does.
    let mut by_id: BTreeMap<String, Vec<TraceBundle>> = BTreeMap::new();
    for (scope, bundle) in bench::tracecap::drain() {
        let id = scope.split('/').next().unwrap_or(&scope).to_string();
        by_id.entry(id).or_default().push(bundle);
    }
    let bundles = by_id.get("fig03").expect("fig03 produced traced scopes");

    let scoped: Vec<(String, &TraceBundle)> =
        bundles.iter().map(|b| (b.scope.clone(), b)).collect();

    let golden = include_str!("goldens/fig03.trace.fnv");
    let mut checked = 0;
    for line in golden.lines() {
        let mut parts = line.split_whitespace();
        let (name, hash, len) = (
            parts.next().expect("golden line: file name"),
            parts.next().expect("golden line: fnv hash"),
            parts.next().expect("golden line: byte length"),
        );
        let contents = match name {
            "fig03.trace.json" => chrome_json(bundles),
            "fig03.events.jsonl" => jsonl(bundles),
            "fig03.attribution.json" => serde_json::to_string_pretty(
                &bench::critpath::attribution_artifact("fig03", &scoped),
            )
            .expect("attribution artifact serializes"),
            "fig03.critpath.folded" => bench::critpath::collapsed(&scoped),
            "fig03.wait_states.json" => {
                let waits: Vec<_> = scoped
                    .iter()
                    .map(|(scope, b)| bench::critpath::wait_states(scope, b))
                    .collect();
                serde_json::to_string(&waits).expect("wait states serialize")
            }
            other => panic!("unexpected golden entry {other}"),
        };
        assert_eq!(
            contents.len().to_string(),
            len,
            "{name}: exported byte length changed"
        );
        assert_eq!(
            format!("{:016x}", fnv1a64(contents.as_bytes())),
            hash,
            "{name}: exported contents changed"
        );
        checked += 1;
    }
    assert_eq!(
        checked, 5,
        "golden checksum file should list all five exports"
    );
}
