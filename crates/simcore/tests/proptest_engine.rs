//! Engine scheduling property tests: time-order execution, determinism,
//! and activity-log integrity under random schedules.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use simcore::{Activity, SimOpts, Simulation};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Callbacks always execute in non-decreasing time order, with ties in
    /// scheduling order.
    #[test]
    fn events_fire_in_time_then_seq_order(times in prop::collection::vec(0u64..10_000, 1..60)) {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        let seen: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let n = times.len();
        for (i, &t) in times.iter().enumerate() {
            let seen = Arc::clone(&seen);
            handle.schedule_at(t, move |h| {
                seen.lock().push((h.now(), i));
            });
        }
        {
            let seen = Arc::clone(&seen);
            let max_t = *times.iter().max().unwrap();
            handle.schedule_at(max_t + 1, move |h| {
                let _ = &seen;
                h.wake_rank(0);
            });
        }
        sim.run(SimOpts::default(), |ctx| ctx.park()).unwrap();
        let log = seen.lock();
        prop_assert_eq!(log.len(), n);
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie order violated");
            }
        }
    }

    /// Activity logs partition each rank's timeline exactly: entries are
    /// contiguous-or-gapped, never overlapping, and total to the sum of the
    /// requested durations.
    #[test]
    fn activity_logs_partition_time(
        durations in prop::collection::vec((1u64..5_000, any::<bool>()), 1..40),
    ) {
        let durations_in = durations.clone();
        let sim = Simulation::new(2);
        let out = sim.run(SimOpts::default(), move |ctx| {
            for &(d, compute) in &durations_in {
                if compute {
                    ctx.compute(d);
                } else {
                    ctx.busy(d, Activity::Library);
                }
            }
        }).unwrap();
        let want_compute: u64 = durations.iter().filter(|&&(_, c)| c).map(|&(d, _)| d).sum();
        let want_library: u64 = durations.iter().filter(|&&(_, c)| !c).map(|&(d, _)| d).sum();
        for log in &out.activity {
            prop_assert_eq!(log.total(Activity::Compute), want_compute);
            prop_assert_eq!(log.total(Activity::Library), want_library);
            prop_assert_eq!(log.entries().last().map_or(0, |e| e.1), want_compute + want_library);
            let mut cursor = 0;
            for &(s, e, _) in log.entries() {
                prop_assert!(s >= cursor, "entries overlap");
                prop_assert!(s < e);
                cursor = e;
            }
        }
        prop_assert_eq!(out.end_time, want_compute + want_library);
    }

    /// Re-running an arbitrary schedule is bit-identical.
    #[test]
    fn random_schedules_are_deterministic(
        times in prop::collection::vec(0u64..5_000, 1..30),
        ranks in 1usize..6,
    ) {
        let run = |times: Vec<u64>, ranks: usize| {
            let sim = Simulation::new(ranks);
            let handle = sim.handle();
            for &t in times.iter() {
                handle.schedule_at(t, move |h| {
                    h.wake_rank(0); // only rank 0 parks
                });
            }
            sim.run(SimOpts::default(), |ctx| {
                if ctx.rank() == 0 {
                    ctx.park();
                    ctx.compute(100);
                } else {
                    ctx.compute(ctx.rank() as u64 * 37);
                }
            })
            .unwrap()
        };
        let a = run(times.clone(), ranks);
        let b = run(times, ranks);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.events_processed, b.events_processed);
    }
}
