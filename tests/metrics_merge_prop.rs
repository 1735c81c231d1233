//! Merge-algebra property tests for the metrics layer the fleet view is
//! built on: folding one stream of counter increments and histogram
//! observations through **any** partition of the ranks, then merging the
//! per-rank registries in **any** order, must equal folding everything
//! into a single registry. Without order-invariance and associativity the
//! server's merged cross-session view would depend on client arrival
//! order.

use proptest::prelude::*;

use overlap_core::metrics::{Histogram, MetricsRegistry};
use overlap_core::stream::SessionFold;

/// One metrics-layer operation, attributed to a rank.
#[derive(Debug, Clone)]
enum Op {
    /// `inc(name, by)`.
    Inc { name: usize, by: u64 },
    /// `observe(name, v)` into a latency-default histogram.
    Obs { name: usize, v: u64 },
}

const COUNTERS: [&str; 3] = ["xfers_closed", "calls_completed", "xfers_flagged"];
const HISTS: [&str; 3] = ["xfer_wall_ns", "call_latency_ns", "xfer_apriori_ns"];

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..COUNTERS.len(), 1u64..1_000).prop_map(|(name, by)| Op::Inc { name, by }),
        (0usize..HISTS.len(), 0u64..50_000_000).prop_map(|(name, v)| Op::Obs { name, v }),
    ]
}

fn apply(reg: &mut MetricsRegistry, op: &Op) {
    match *op {
        Op::Inc { name, by } => reg.inc(COUNTERS[name], by),
        Op::Obs { name, v } => reg.observe(HISTS[name], v, Histogram::latency_default),
    }
}

/// Canonical serialized form for equality checks.
fn canon(reg: &MetricsRegistry) -> String {
    serde_json::to_string(reg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partition the op stream across arbitrary ranks, merge the per-rank
    /// registries in an arbitrary order: always equal to the direct fold.
    #[test]
    fn merge_is_partition_and_order_invariant(
        ops in prop::collection::vec(arb_op(), 0..200),
        ranks in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut direct = MetricsRegistry::new();
        for op in &ops {
            apply(&mut direct, op);
        }

        // Deterministic pseudo-random rank assignment from the seed.
        let mut parts: Vec<MetricsRegistry> =
            (0..ranks).map(|_| MetricsRegistry::new()).collect();
        let mut x = seed | 1;
        for op in &ops {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            apply(&mut parts[(x >> 33) as usize % ranks], op);
        }

        // Merge in rank order...
        let mut fwd = MetricsRegistry::new();
        for p in &parts {
            fwd.merge(p);
        }
        prop_assert_eq!(canon(&fwd), canon(&direct));

        // ...and in reverse order.
        let mut rev = MetricsRegistry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(canon(&rev), canon(&direct));
    }

    /// Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
    #[test]
    fn merge_is_associative(
        a_ops in prop::collection::vec(arb_op(), 0..60),
        b_ops in prop::collection::vec(arb_op(), 0..60),
        c_ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let fold = |ops: &[Op]| {
            let mut r = MetricsRegistry::new();
            for op in ops {
                apply(&mut r, op);
            }
            r
        };
        let (a, b, c) = (fold(&a_ops), fold(&b_ops), fold(&c_ops));

        let mut left = MetricsRegistry::new();
        left.merge(&a);
        left.merge(&b);
        let mut left_outer = left.clone();
        left_outer.merge(&c);

        let mut right = b.clone();
        right.merge(&c);
        let mut right_outer = a.clone();
        right_outer.merge(&right);

        prop_assert_eq!(canon(&left_outer), canon(&right_outer));
    }

    /// The identity element: merging an empty registry changes nothing,
    /// in either direction.
    #[test]
    fn empty_registry_is_identity(ops in prop::collection::vec(arb_op(), 0..120)) {
        let mut r = MetricsRegistry::new();
        for op in &ops {
            apply(&mut r, op);
        }
        let before = canon(&r);

        let mut left = MetricsRegistry::new();
        left.merge(&r);
        prop_assert_eq!(canon(&left), before.clone());

        r.merge(&MetricsRegistry::new());
        prop_assert_eq!(canon(&r), before);
    }
}

/// Edge cases the properties above don't exercise: a session that carries
/// only a schema header (zero events) serves empty-but-well-formed views,
/// and a zero-span scope (every stamp at the same instant) still windows.
#[test]
fn zero_event_session_and_zero_span_scope_serve_well_formed_views() {
    let mut empty = SessionFold::default();
    empty
        .push_text("{\"ev\":\"header\",\"schema_version\":1}\n")
        .unwrap();
    assert!(empty.header_seen());
    assert_eq!(empty.event_lines(), 0);
    assert_eq!(serde_json::to_string(&empty.report()).unwrap(), "[]");
    assert_eq!(serde_json::to_string(&empty.series(None)).unwrap(), "[]");
    assert_eq!(empty.collapsed(), "");

    // One scope whose whole life happens at t=42: the span is zero, the
    // default window width clamps to 1 ns, and the series has one window.
    let mut point = SessionFold::default();
    point
        .push_text(concat!(
            "{\"ev\":\"header\",\"schema_version\":1}\n",
            "{\"scope\":\"p/x\",\"rank\":0,\"t\":42,\"ev\":\"call_enter\",\"name\":\"MPI_Wait\"}\n",
            "{\"scope\":\"p/x\",\"rank\":0,\"t\":42,\"ev\":\"call_exit\"}\n",
        ))
        .unwrap();
    let series = point.series(None);
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].window_ns, 1);
    assert_eq!(series[0].windows.len(), 1);
    let report = point.report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].ranks.len(), 1);
    assert_eq!(report[0].ranks[0].elapsed, 0);
    assert_eq!(report[0].ranks[0].events_recorded, 2);
}
