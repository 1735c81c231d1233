//! Property tests for the interval measure that ground-truth overlap rests
//! on: a rank's compute intervals, and their overlap with a window, checked
//! against a nanosecond-by-nanosecond count.

use proptest::prelude::*;
use simcore::{Activity, ActivityLog, SimOpts, Simulation};

/// One rank's program as (in-library gap, compute length) steps.
fn arb_steps() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..500, 0u64..500), 0..40)
}

/// The ground-truth log of one rank running `steps`.
fn log_of(steps: &[(u64, u64)]) -> ActivityLog {
    let steps = steps.to_vec();
    let mut out = Simulation::new(1)
        .run(SimOpts::default(), move |ctx| {
            for &(gap, compute) in &steps {
                ctx.busy(gap, Activity::Library);
                ctx.compute(compute);
            }
        })
        .unwrap();
    out.activity.remove(0)
}

proptest! {
    #[test]
    fn construction_yields_sorted_disjoint(steps in arb_steps()) {
        let log = log_of(&steps);
        for w in log.entries().windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "intervals must be disjoint and sorted");
            prop_assert!(w[0].1 < w[1].0 || w[0].2 != w[1].2, "touching same-kind intervals merge");
        }
        for &(s, e, _) in log.entries() {
            prop_assert!(s < e);
        }
    }

    #[test]
    fn intersection_measure_bounded(
        steps in arb_steps(),
        start in 0u64..40_000,
        len in 0u64..2_000,
    ) {
        let log = log_of(&steps);
        let got = log.compute_overlap_with(start, start + len);
        prop_assert!(got <= len);
        prop_assert!(got <= log.total(Activity::Compute));
    }

    #[test]
    fn union_measure_by_inclusion_exclusion(
        steps in arb_steps(),
        a in 0u64..40_000,
        len_a in 0u64..2_000,
        off in 0u64..2_000,
        len_c in 0u64..2_000,
    ) {
        // Windows [a, b) and [c, d) that meet, so their union is a window.
        let (b, c) = (a + len_a, a + off % (len_a + 1));
        let d = c + len_c;
        let log = log_of(&steps);
        let m = |s, e| log.compute_overlap_with(s, e);
        prop_assert_eq!(m(a, b) + m(c, d), m(a, b.max(d)) + m(c, b.min(d)));
    }

    #[test]
    fn overlap_with_equals_single_interval_intersection(
        steps in arb_steps(),
        start in 0u64..40_000,
        len in 0u64..2_000,
    ) {
        let log = log_of(&steps);
        let mut computes = Vec::new();
        let mut t = 0;
        for &(gap, compute) in &steps {
            t += gap;
            computes.push((t, t + compute));
            t += compute;
        }
        let want = (start..start + len)
            .filter(|&ns| computes.iter().any(|&(s, e)| s <= ns && ns < e))
            .count() as u64;
        prop_assert_eq!(log.compute_overlap_with(start, start + len), want);
    }
}
