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
//!   serial goldens,
//! * FNV-1a-64 checksums of the attribution artifact and collapsed stacks
//!   of traced runs that reach every receive state and every blocking cause
//!   (`waits.attribution.fnv`): eager, pipelined and direct-read exchanges
//!   under each progress model, plus one lossy run.
//!
//! Trace capture and the worker budget are process-global, so every test
//! takes one shared lock.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use overlap_core::attribution::WaitCause;
use overlap_core::trace::{chrome_json, jsonl, TraceBundle};
use overlap_suite::prelude::*;
use simmpi::ProgressModel;
use simnet::FaultPlan;

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
    bench::runner::run_harnesses(&selection, |_, text| {
        got.push_str(text);
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

    let waits: Vec<_> = scoped
        .iter()
        .map(|(scope, b)| bench::critpath::wait_states(scope, b))
        .collect();
    let attribution =
        serde_json::to_string_pretty(&bench::critpath::attribution_artifact("fig03", &scoped))
            .expect("attribution artifact serializes");
    assert_digests(
        include_str!("goldens/fig03.trace.fnv"),
        &[
            ("fig03.trace.json", chrome_json(bundles)),
            ("fig03.events.jsonl", jsonl(bundles)),
            ("fig03.attribution.json", attribution),
            ("fig03.critpath.folded", bench::critpath::collapsed(&scoped)),
            (
                "fig03.wait_states.json",
                serde_json::to_string(&waits).expect("wait states serialize"),
            ),
        ],
    );
}

/// Check `contents` against one `<name> <fnv> <len>` golden line per entry.
fn assert_digests(golden: &str, contents: &[(&str, String)]) {
    assert_eq!(golden.lines().count(), contents.len(), "golden entry count");
    for (line, (name, text)) in golden.lines().zip(contents) {
        let got = format!("{name} {:016x} {}", fnv1a64(text.as_bytes()), text.len());
        assert_eq!(got, line, "{name}: exported contents changed");
    }
}

/// Two ranks trade `size`-byte messages three ways: rank 1 receives before
/// rank 0 sends (a late sender), rank 1 sends before rank 0 receives (a late
/// receiver, or a rendezvous handshake when pipelined), then both exchange
/// at once.
fn exchange(size: usize) -> impl Fn(&mut Mpi) + Send + Sync + 'static {
    move |mpi| {
        let me = mpi.rank();
        let peer = 1 - me;
        for round in 0..2u64 {
            if me == 0 {
                mpi.compute(20_000);
                let s = mpi.isend(1, round, vec![1u8; size]);
                mpi.compute(2_000);
                mpi.wait(s);
                mpi.compute(20_000);
                mpi.recv(Src::Rank(1), TagSel::Is(10 + round));
            } else {
                mpi.recv(Src::Rank(0), TagSel::Is(round));
                let s = mpi.isend(0, 10 + round, vec![2u8; size]);
                mpi.wait(s);
            }
        }
        let r = mpi.irecv(Src::Rank(peer), TagSel::Is(20));
        let s = mpi.isend(peer, 20, vec![3u8; size]);
        mpi.waitall(&[s, r]);
    }
}

fn traced() -> RecorderOpts {
    RecorderOpts {
        trace: true,
        ..Default::default()
    }
}

/// Every request shape the progress engine can block on, under every
/// progress model, and loss recovery: the attribution artifact and the
/// collapsed stacks stay byte-identical to `goldens/waits.attribution.fnv`.
#[test]
fn blocking_causes_match_golden_checksums() {
    let _g = global_lock();
    let transfers = [
        ("eager", 4usize << 10, MpiConfig::default()),
        ("pipelined", 384 << 10, MpiConfig::default()),
        ("direct", 64 << 10, MpiConfig::open_mpi_leave_pinned()),
    ];
    let models = [
        ProgressModel::Polling,
        ProgressModel::AsyncRank {
            poll_interval: ProgressModel::DEFAULT_POLL_INTERVAL,
        },
        ProgressModel::EarlyBird,
        ProgressModel::HwTag,
    ];
    let mut bundles = Vec::new();
    for (name, size, cfg) in &transfers {
        for model in models {
            let cfg = MpiConfig {
                progress: model,
                ..cfg.clone()
            };
            let out = run_mpi(2, NetConfig::default(), cfg, traced(), exchange(*size))
                .expect("exchange completes");
            let scope = format!("waits/{name}/{}", model.label());
            bundles.push((scope, out.traces));
        }
    }
    let lossy = NetConfig {
        faults: FaultPlan {
            seed: 23,
            drop_prob: 0.05,
            ..FaultPlan::none()
        },
        ..NetConfig::default()
    };
    let out = run_mpi(2, lossy, MpiConfig::default(), traced(), exchange(64 << 10))
        .expect("lossy exchange completes");
    bundles.push(("waits/lossy/polling".to_string(), out.traces));

    // The runs reach every cause a park can be classified as, and both
    // in-flight receive states: a direct read (a fabric transfer id) and
    // landing fragments (a receiver-local id, top bit set).
    let waits: Vec<_> = bundles
        .iter()
        .flat_map(|(_, traces)| traces)
        .flat_map(|tr| &tr.waits)
        .collect();
    for cause in [
        WaitCause::AckRetransmit,
        WaitCause::LateSender,
        WaitCause::RendezvousHandshake,
        WaitCause::LateReceiver,
        WaitCause::WireDrain,
        WaitCause::EagerCopy,
    ] {
        assert!(waits.iter().any(|w| w.cause == cause), "no {cause:?} wait");
    }
    let drains = |local: bool| {
        waits.iter().any(|w| {
            matches!(w.cause, WaitCause::WireDrain | WaitCause::Contention)
                && w.xfer.is_some_and(|x| (x >> 63 == 1) == local)
        })
    };
    assert!(drains(false), "no wait on a direct read");
    assert!(drains(true), "no wait on landing fragments");

    let bundles: Vec<TraceBundle> = bundles
        .into_iter()
        .map(|(scope, ranks)| TraceBundle {
            scope,
            ranks,
            extras: Vec::new(),
        })
        .collect();
    let scoped: Vec<(String, &TraceBundle)> =
        bundles.iter().map(|b| (b.scope.clone(), b)).collect();
    let attribution =
        serde_json::to_string_pretty(&bench::critpath::attribution_artifact("waits", &scoped))
            .expect("attribution artifact serializes");
    assert_digests(
        include_str!("goldens/waits.attribution.fnv"),
        &[
            ("waits.attribution.json", attribution),
            ("waits.critpath.folded", bench::critpath::collapsed(&scoped)),
        ],
    );
}
