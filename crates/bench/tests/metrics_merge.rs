//! Cross-rank [`MetricsRegistry`] merging: disjoint counters union, shared
//! counters add, histograms require aligned bucket layouts, and folding the
//! registries of a parallel sweep is independent of the worker count.
//!
//! Lives in its own test binary: the worker budget is process-global, so
//! this test must not share a process with tests that configure it
//! differently.

use overlap_core::{Histogram, MetricsRegistry, RecorderOpts};
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::NetConfig;

#[test]
fn disjoint_counters_union_and_shared_counters_add() {
    let mut a = MetricsRegistry::new();
    a.inc("events_recorded", 3);
    a.inc("xfers_completed", 2);
    let mut b = MetricsRegistry::new();
    b.inc("events_recorded", 5);
    b.inc("bounds_flagged", 1);
    a.merge(&b);
    assert_eq!(a.counters["events_recorded"], 8);
    assert_eq!(a.counters["xfers_completed"], 2);
    assert_eq!(a.counters["bounds_flagged"], 1);
    assert!(!a.counters.contains_key("absent"));
}

#[test]
fn aligned_histograms_merge_per_bucket() {
    let mut a = MetricsRegistry::new();
    let mut b = MetricsRegistry::new();
    let mut all = MetricsRegistry::new();
    for ns in [50, 500] {
        a.observe("lat", ns, Histogram::latency_default);
        all.observe("lat", ns, Histogram::latency_default);
    }
    b.observe("lat", 5_000, Histogram::latency_default);
    all.observe("lat", 5_000, Histogram::latency_default);
    b.observe("only_b", 1, Histogram::latency_default);
    a.merge(&b);
    // Merging per bucket is observing every sample into one histogram.
    assert_eq!(a.histograms["lat"], all.histograms["lat"]);
    // A histogram only one side has is adopted wholesale.
    assert_eq!(a.histograms["only_b"], b.histograms["only_b"]);
}

#[test]
#[should_panic(expected = "histogram bucket layouts differ")]
fn mismatched_bucket_layouts_refuse_to_merge() {
    let mut a = MetricsRegistry::new();
    a.observe("lat", 5, Histogram::latency_default);
    // A registry read back from a report written with another layout.
    let b: MetricsRegistry = serde_json::from_str(
        r#"{"counters": {}, "histograms": {"lat": {"edges": [10, 1000],
            "counts": [1, 0, 0], "count": 1, "sum": 5, "min": 5, "max": 5}}}"#,
    )
    .expect("registry parses");
    a.merge(&b);
}

/// One instrumented ring run; returns every rank's registry folded into one.
fn ring_metrics(rounds: usize) -> MetricsRegistry {
    let out = run_mpi(
        4,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts {
            trace: true,
            ..Default::default()
        },
        move |mpi| {
            let me = mpi.rank();
            let n = mpi.nranks();
            for i in 0..rounds {
                // Communication-bound on purpose: the short compute leaves
                // most of each transfer non-overlapped, so the attribution
                // fold has real wait states to count.
                let r = mpi.irecv(Src::Rank((me + n - 1) % n), TagSel::Is(i as u64));
                let s = mpi.isend((me + 1) % n, i as u64, vec![1u8; 256 << 10]);
                mpi.compute(20_000);
                mpi.wait(s);
                mpi.wait(r);
            }
        },
    )
    .expect("ring run failed");
    let mut m = MetricsRegistry::new();
    for r in &out.reports {
        m.merge(&r.metrics);
    }
    m
}

#[test]
fn cross_rank_merge_is_deterministic_across_worker_counts() {
    let grid = [4usize, 6, 8];
    let fold = |jobs: usize| {
        bench::runner::set_jobs(jobs);
        let per_run = bench::runner::par_map(&grid, |&rounds| ring_metrics(rounds));
        let mut merged = MetricsRegistry::new();
        for m in &per_run {
            merged.merge(m);
        }
        merged
    };
    let serial = fold(1);
    let parallel = fold(4);
    assert_eq!(
        serial, parallel,
        "merged registry must not depend on --jobs"
    );
    assert_eq!(
        serde_json::to_string_pretty(&serial).expect("registry serializes"),
        serde_json::to_string_pretty(&parallel).expect("registry serializes"),
        "serialized form must not depend on --jobs"
    );
    // The traced runs folded attribution metrics: per-cause counters and
    // histograms with the registry's canonical latency layout.
    let attributed: u64 = serial
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("attr_ns/"))
        .map(|(_, v)| v)
        .sum();
    assert!(attributed > 0, "attribution counters should be populated");
    let hist = serial
        .histograms
        .iter()
        .find(|(k, _)| k.starts_with("attr_ns_hist/"))
        .map(|(_, h)| h)
        .expect("attribution histograms should be populated");
    assert_eq!(
        serde_json::to_value(hist)["edges"],
        serde_json::to_value(&Histogram::latency_default())["edges"]
    );
}
