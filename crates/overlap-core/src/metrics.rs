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

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::bins::check_edges;

/// The default latency ladder: decades from 100 ns to 100 ms.
const LATENCY_EDGES: &[u64] = &[100, 1000, 10000, 100000, 1000000, 10000000, 100000000];

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
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Bucket boundaries, strictly increasing. The default ladder is
    /// borrowed, not copied into every histogram.
    edges: Cow<'static, [u64]>,
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
    /// An empty histogram over well-formed `edges`.
    fn with_edges(edges: Cow<'static, [u64]>) -> Self {
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

    /// The default latency ladder used by the built-in metrics: decades from
    /// 100 ns to 100 ms.
    pub fn latency_default() -> Self {
        Histogram::with_edges(Cow::Borrowed(LATENCY_EDGES))
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

    /// Fold another histogram with the *same bucket layout* into this one.
    /// Panics if the layouts differ.
    fn merge(&mut self, o: &Histogram) {
        assert_eq!(self.edges, o.edges, "histogram bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(o.count);
        self.sum = self.sum.saturating_add(o.sum);
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// A histogram whose edges are malformed or whose counts do not match them
/// is refused here: `observe` would index past the end, and `merge` would
/// drop counts.
impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let n = |name| u64::from_value(v.field(name));
        let h = Histogram {
            edges: Deserialize::from_value(v.field("edges"))?,
            counts: Deserialize::from_value(v.field("counts"))?,
            count: n("count")?,
            sum: n("sum")?,
            min: n("min")?,
            max: n("max")?,
        };
        check_edges(&h.edges).map_err(|e| DeError(format!("histogram: {e}")))?;
        let (counts, edges) = (h.counts.len(), h.edges.len());
        if counts != edges + 1 {
            let e = format!(
                "histogram: {counts} counts for {edges} edges, expected {}",
                edges + 1
            );
            return Err(DeError(e));
        }
        Ok(h)
    }
}

/// A named collection of counters and histograms, one per process.
///
/// Keys are stable strings (e.g. `"call_latency_ns"`,
/// `"overlap_max_ns/<1K"`); `BTreeMap` keeps serialization order
/// deterministic. Built-in metrics are populated by the processor under the
/// names their [`crate::SizeBins`] shares, so inserting one is a refcount
/// bump; user code may add its own through [`MetricsRegistry::inc`] /
/// [`MetricsRegistry::observe`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotonic named counters.
    pub counters: BTreeMap<Arc<str>, u64>,
    /// Named fixed-bucket histograms.
    pub histograms: BTreeMap<Arc<str>, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name` (creating it at 0), saturating at
    /// `u64::MAX`.
    pub fn inc(&mut self, name: impl Borrow<str> + Into<Arc<str>>, by: u64) {
        let c = entry(&mut self.counters, name, || 0);
        *c = c.saturating_add(by);
    }

    /// Record `v` into histogram `name`, creating it with `mk` on first use.
    pub fn observe(
        &mut self,
        name: impl Borrow<str> + Into<Arc<str>>,
        v: u64,
        mk: impl FnOnce() -> Histogram,
    ) {
        entry(&mut self.histograms, name, mk).observe(v);
    }

    /// Fold another registry into this one: counters add, histograms merge
    /// (same-layout requirement applies per name).
    pub fn merge(&mut self, o: &MetricsRegistry) {
        for (k, &v) in &o.counters {
            self.inc(k.clone(), v);
        }
        for (k, h) in &o.histograms {
            entry(&mut self.histograms, k.clone(), || {
                Histogram::with_edges(h.edges.clone())
            })
            .merge(h);
        }
    }
}

/// `map[name]`, inserted as `mk()` when absent. Only then does `name`
/// become a key: a `&str` is allocated, a shared `Arc<str>` is a refcount
/// bump.
fn entry<V>(
    map: &mut BTreeMap<Arc<str>, V>,
    name: impl Borrow<str> + Into<Arc<str>>,
    mk: impl FnOnce() -> V,
) -> &mut V {
    if map.contains_key(name.borrow()) {
        return map.get_mut(name.borrow()).expect("checked above");
    }
    map.entry(name.into()).or_insert_with(mk)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Histogram {
        fn new(edges: Vec<u64>) -> Self {
            if let Err(e) = check_edges(&edges) {
                panic!("histogram {e}");
            }
            Histogram::with_edges(edges.into())
        }

        /// Total samples observed.
        pub(crate) fn count(&self) -> u64 {
            self.count
        }
    }

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
        let h = Histogram::latency_default();
        assert!(matches!(h.edges, Cow::Borrowed(_)), "the ladder is shared");
        assert_eq!(
            *h.edges,
            [
                100,
                1_000,
                10_000,
                100_000,
                1_000_000,
                10_000_000,
                100_000_000
            ]
        );
        assert_eq!(h.counts.len(), 8);
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
