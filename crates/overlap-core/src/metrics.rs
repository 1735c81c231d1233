//! Per-process metrics registry: named counters and fixed-bucket histograms.
//!
//! The paper's framework reports *aggregate* overlap numbers; this registry
//! adds the distributional view a production observability stack expects —
//! how call latencies, transfer times and per-transfer overlap bounds are
//! *distributed*, not just summed. Everything is updated at fold time (when
//! the event ring drains into the processor), so the hot instrumentation
//! path still only pushes into the ring. All state is fixed-size: a
//! histogram never allocates after construction, preserving the framework's
//! constant-memory property.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A fixed-bucket histogram over `u64` samples (nanoseconds, usually).
///
/// Bucket `i` counts samples in `[edges[i-1], edges[i])`; bucket `0` counts
/// samples below `edges[0]` and the final bucket counts samples at or above
/// the last edge, so every sample lands somewhere (`counts.len() ==
/// edges.len() + 1`).
///
/// Histograms are read as part of a serialized report; two with the same
/// layout merge bucket by bucket:
///
/// ```
/// use overlap_core::{Histogram, MetricsRegistry};
///
/// let mut a = MetricsRegistry::new();
/// a.observe("lat_ns", 90, Histogram::latency_default); // bucket 0: < 100 ns
/// let mut b = MetricsRegistry::new();
/// b.observe("lat_ns", 2_500, Histogram::latency_default); // [1 µs, 10 µs)
/// a.merge(&b);
/// let mut both = MetricsRegistry::new();
/// for ns in [90, 2_500] {
///     both.observe("lat_ns", ns, Histogram::latency_default);
/// }
/// assert_eq!(a, both);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket boundaries, strictly increasing.
    edges: Vec<u64>,
    /// Per-bucket sample counts (`edges.len() + 1` entries).
    counts: Vec<u64>,
    /// Total samples observed.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
    /// Smallest observed value (`u64::MAX` while empty).
    min: u64,
    /// Largest observed value (0 while empty).
    max: u64,
}

impl Histogram {
    /// Create a histogram with the given bucket `edges` (strictly
    /// increasing, non-empty).
    pub(crate) fn new(edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let n = edges.len() + 1;
        Histogram {
            edges,
            counts: vec![0; n],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Exponential bucket ladder: `n` edges starting at `start`, each
    /// `factor`× the previous (`start`, `start*factor`, ...).
    fn exponential(start: u64, factor: u64, n: usize) -> Self {
        assert!(start > 0 && factor > 1 && n > 0);
        let mut edges = Vec::with_capacity(n);
        let mut e = start;
        for _ in 0..n {
            edges.push(e);
            e = e.saturating_mul(factor);
        }
        Histogram::new(edges)
    }

    /// The default latency ladder used by the built-in metrics: decades from
    /// 100 ns to 100 ms.
    pub fn latency_default() -> Self {
        Histogram::exponential(100, 10, 7)
    }

    /// Record one sample.
    pub(crate) fn observe(&mut self, v: u64) {
        let i = self.edges.partition_point(|&e| e <= v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples observed.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Fold another histogram with the *same bucket layout* into this one.
    /// Panics if the layouts differ.
    fn merge(&mut self, o: &Histogram) {
        assert_eq!(self.edges, o.edges, "histogram bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.count += o.count;
        self.sum = self.sum.saturating_add(o.sum);
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// A named collection of counters and histograms, one per process.
///
/// Keys are stable strings (e.g. `"call_latency_ns"`,
/// `"overlap_max_ns/<1K"`); `BTreeMap` keeps serialization order
/// deterministic. Built-in metrics are populated by the processor; user code
/// may add its own through [`MetricsRegistry::inc`] /
/// [`MetricsRegistry::observe`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotonic named counters.
    pub counters: BTreeMap<String, u64>,
    /// Named fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Record `v` into histogram `name`, creating it with `mk` on first use.
    pub fn observe(&mut self, name: &str, v: u64, mk: impl FnOnce() -> Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(mk)
            .observe(v);
    }

    /// Fold another registry into this one: counters add, histograms merge
    /// (same-layout requirement applies per name).
    pub fn merge(&mut self, o: &MetricsRegistry) {
        for (k, v) in &o.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &o.histograms {
            match self.histograms.entry(k.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(h),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_edge_values() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        // Exactly on an edge goes to the bucket *starting* at that edge.
        h.observe(0);
        h.observe(9); // bucket 0
        h.observe(10); // bucket 1 (edge value)
        h.observe(99); // bucket 1
        h.observe(100); // bucket 2 (edge value)
        h.observe(999); // bucket 2
        h.observe(1000); // bucket 3 (last edge)
        h.observe(u64::MAX); // bucket 3 (overflow bucket)
        assert_eq!(h.counts, [2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!((h.min, h.max), (0, u64::MAX));
    }

    #[test]
    fn saturating_sum_never_wraps() {
        let mut h = Histogram::new(vec![1]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn empty_histogram_stats() {
        let h = Histogram::new(vec![10]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.counts, [0, 0]);
        // The sentinels any first sample replaces.
        assert_eq!((h.min, h.max, h.sum), (u64::MAX, 0, 0));
    }

    #[test]
    fn exponential_ladder() {
        let h = Histogram::exponential(100, 10, 4);
        assert_eq!(h.edges, [100, 1_000, 10_000, 100_000]);
        assert_eq!(h.counts.len(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_edges_panic() {
        Histogram::new(vec![10, 10]);
    }

    #[test]
    fn merge_requires_same_layout_and_adds() {
        let mut a = Histogram::new(vec![10, 100]);
        let mut b = Histogram::new(vec![10, 100]);
        a.observe(5);
        b.observe(50);
        b.observe(500);
        a.merge(&b);
        assert_eq!(a.counts, [1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!((a.min, a.max), (5, 500));
    }

    #[test]
    fn registry_counters_and_merge() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 2);
        a.observe("lat", 500, Histogram::latency_default);
        let mut b = MetricsRegistry::new();
        b.inc("x", 3);
        b.inc("y", 1);
        b.observe("lat", 5_000, Histogram::latency_default);
        a.merge(&b);
        assert_eq!(a.counters["x"], 5);
        assert_eq!(a.counters["y"], 1);
        assert!(!a.counters.contains_key("absent"));
        assert_eq!(a.histograms["lat"].count(), 2);
    }

    #[test]
    fn registry_serde_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.inc("transfers", 7);
        r.observe("lat", 123, Histogram::latency_default);
        let json = serde_json::to_string(&r).unwrap();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
