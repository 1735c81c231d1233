//! Engine stress and edge-case tests: many ranks, wake storms, chained
//! event cascades, and scheduling corner cases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, Weak};

use simcore::{Activity, EngineHandle, RankDiag, RankRuntime, SimError, SimOpts, Simulation};

#[test]
fn many_ranks_interleave_deterministically() {
    let run = || {
        let sim = Simulation::new(32);
        sim.run(SimOpts::default(), |ctx| {
            for i in 0..20 {
                ctx.compute(((ctx.rank() * 7 + i) % 13 + 1) as u64 * 100);
            }
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events_processed, b.events_processed);
    for (la, lb) in a.activity.iter().zip(&b.activity) {
        assert_eq!(la.entries(), lb.entries());
    }
}

#[test]
fn wake_storm_on_one_rank_coalesces() {
    // 1000 callbacks all waking the same parked rank at the same instant:
    // the wake-pending guard must coalesce them into one wake-up.
    let sim = Simulation::new(1);
    let handle = sim.handle();
    let fired = Arc::new(AtomicU64::new(0));
    for _ in 0..1000 {
        let fired = Arc::clone(&fired);
        handle.schedule_at(100, move |h| {
            fired.fetch_add(1, Ordering::Relaxed);
            h.wake_rank(0);
        });
    }
    let out = sim
        .run(SimOpts::default(), |ctx| {
            let mut wakes = 0;
            // Park repeatedly; each wake resumes us once.
            while ctx.now() < 100 {
                ctx.park();
                wakes += 1;
            }
            assert!(wakes <= 2, "wake storm not coalesced: {wakes} wakes");
        })
        .unwrap();
    assert_eq!(fired.load(Ordering::Relaxed), 1000);
    assert_eq!(out.end_time, 100);
}

#[test]
fn event_cascade_depth() {
    // A 10_000-deep chain of immediate callbacks must not recurse or stall.
    fn chain(h: &EngineHandle, remaining: u64) {
        if remaining == 0 {
            h.wake_rank(0);
        } else {
            h.schedule_at(h.now() + 1, move |h2| chain(h2, remaining - 1));
        }
    }
    let sim = Simulation::new(1);
    let handle = sim.handle();
    handle.schedule_at(0, |h| chain(h, 10_000));
    let out = sim.run(SimOpts::default(), |ctx| ctx.park()).unwrap();
    assert_eq!(out.end_time, 10_000);
    assert!(out.events_processed > 10_000);
}

#[test]
fn zero_duration_compute_is_free() {
    let sim = Simulation::new(1);
    let out = sim
        .run(SimOpts::default(), |ctx| {
            for _ in 0..100 {
                ctx.compute(0);
            }
            ctx.compute(5);
        })
        .unwrap();
    assert_eq!(out.end_time, 5);
    // Zero-length intervals are dropped from the log.
    assert_eq!(out.activity[0].entries().len(), 1);
}

#[test]
fn mixed_busy_kinds_partition_the_log() {
    let sim = Simulation::new(1);
    let out = sim
        .run(SimOpts::default(), |ctx| {
            ctx.compute(100);
            ctx.busy(50, Activity::Library);
            ctx.compute(25);
            ctx.busy(10, Activity::Library);
        })
        .unwrap();
    let log = &out.activity[0];
    assert_eq!(log.total(Activity::Compute), 125);
    assert_eq!(log.total(Activity::Library), 60);
    assert_eq!(log.entries().last().map(|e| e.1), Some(185));
}

#[test]
fn rank_panics_surface_even_from_high_rank_counts() {
    let sim = Simulation::new(16);
    let err = sim
        .run(SimOpts::default(), |ctx| {
            ctx.compute(10 * (ctx.rank() as u64 + 1));
            if ctx.rank() == 13 {
                panic!("unlucky");
            }
        })
        .unwrap_err();
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 13);
            assert!(message.contains("unlucky"));
        }
        other => panic!("expected rank panic, got {other}"),
    }
}

#[test]
fn deadlock_reports_all_stuck_ranks() {
    let sim = Simulation::new(4);
    let err = sim
        .run(SimOpts::default(), |ctx| {
            if ctx.rank() % 2 == 0 {
                ctx.park(); // ranks 0 and 2 never woken
            } else {
                ctx.compute(100);
            }
        })
        .unwrap_err();
    match err {
        SimError::Deadlock { parked, at, .. } => {
            assert_eq!(parked, vec![0, 2]);
            assert_eq!(at, 100);
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn schedule_in_the_past_clamps_to_now() {
    let sim = Simulation::new(1);
    let handle = sim.handle();
    handle.schedule_at(50, |h| {
        // Asking for t=10 when now=50 must fire "immediately" (at 50).
        h.schedule_at(10, |h2| {
            assert_eq!(h2.now(), 50);
            h2.wake_rank(0);
        });
    });
    let out = sim.run(SimOpts::default(), |ctx| ctx.park()).unwrap();
    assert_eq!(out.end_time, 50);
}

#[test]
fn outcome_reports_event_counts() {
    let sim = Simulation::new(2);
    let out = sim
        .run(SimOpts::default(), |ctx| {
            ctx.compute(10);
            ctx.compute(10);
        })
        .unwrap();
    // 2 initial wakes + 2 sleeps each = at least 6 entries.
    assert!(out.events_processed >= 6);
}

/// Teardown is the one moment the engine has more than one producer: under
/// `OsThreads`, `shutdown` releases every parked rank thread at once and they
/// unwind in parallel. Each rank holds a guard whose `Drop` schedules a
/// callback (capturing an `Arc`) and wakes its neighbour, i.e. pushes into
/// the engine's insertion buffer; the barrier holds the parked ranks inside
/// `Drop` until all of them are there, so the pushes really are concurrent.
/// (Fibers unwind one after another on the engine thread: no barrier.)
fn teardown_producers_are_drained(runtime: RankRuntime) {
    const PARKED: usize = 64;

    struct Guard {
        handle: EngineHandle,
        wake: usize,
        gate: Option<Arc<Barrier>>,
        captured: Arc<Mutex<Vec<Weak<()>>>>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            if let Some(gate) = &self.gate {
                gate.wait();
            }
            let payload = Arc::new(());
            let weak = Arc::downgrade(&payload);
            self.handle.schedule_at(1_000, move |_| drop(payload));
            self.handle.wake_rank(self.wake);
            self.captured.lock().unwrap().push(weak);
        }
    }

    let gate = (runtime == RankRuntime::OsThreads).then(|| Arc::new(Barrier::new(PARKED)));
    let captured = Arc::new(Mutex::new(Vec::new()));
    let captured2 = Arc::clone(&captured);
    let sim = Simulation::new(PARKED + 1);
    let err = sim
        .run(
            SimOpts {
                runtime,
                ..Default::default()
            },
            move |ctx| {
                let panics = ctx.rank() == PARKED;
                let _guard = Guard {
                    handle: ctx.handle(),
                    wake: (ctx.rank() + 1) % PARKED,
                    gate: if panics { None } else { gate.clone() },
                    captured: Arc::clone(&captured2),
                };
                if panics {
                    ctx.compute(5);
                    panic!("boom");
                }
                ctx.park(); // never woken; torn down by the panic
            },
        )
        .unwrap_err();
    assert!(matches!(err, SimError::RankPanic { rank: PARKED, .. }));
    // `run` joins every rank thread before it returns, so all guards have
    // dropped by now, and `drain_reset` has released what they scheduled.
    let captured = captured.lock().unwrap();
    assert_eq!(captured.len(), PARKED + 1, "a rank's guard never dropped");
    assert!(
        captured.iter().all(|w| w.upgrade().is_none()),
        "a callback scheduled during teardown outlived the run"
    );
}

#[test]
fn teardown_producers_are_drained_threads() {
    teardown_producers_are_drained(RankRuntime::OsThreads);
}

#[test]
fn teardown_producers_are_drained_coroutine() {
    teardown_producers_are_drained(RankRuntime::Coroutine);
}

/// A successful run never asks a rank what it is blocked on: 64 ranks park
/// 100 times each with a counting `explain`, every park is woken, and the
/// closure runs zero times. The clock and the event count are the ones the
/// same program produced when `park` took no closure at all.
fn explain_is_not_run_on_a_clean_run(runtime: RankRuntime) {
    let explained = Arc::new(AtomicU64::new(0));
    let explained2 = Arc::clone(&explained);
    let sim = Simulation::new(64);
    let out = sim
        .run(
            SimOpts {
                runtime,
                ..Default::default()
            },
            move |ctx| {
                let me = ctx.rank();
                for _ in 0..100 {
                    let h = ctx.handle();
                    h.schedule_at(h.now() + (me as u64 % 7 + 1) * 10, move |h| h.wake_rank(me));
                    ctx.park_with(|| {
                        explained2.fetch_add(1, Ordering::Relaxed);
                        RankDiag::default()
                    });
                }
            },
        )
        .unwrap();
    assert_eq!(explained.load(Ordering::Relaxed), 0);
    assert_eq!(out.end_time, 7_000);
    assert_eq!(out.events_processed, 12_864);
    for log in &out.activity {
        assert_eq!(
            Some(log.total(Activity::LibraryWait)),
            log.entries().last().map(|e| e.1)
        );
    }
}

#[test]
fn explain_is_not_run_on_a_clean_run_coroutine() {
    explain_is_not_run_on_a_clean_run(RankRuntime::Coroutine);
}

#[test]
fn explain_is_not_run_on_a_clean_run_threads() {
    explain_is_not_run_on_a_clean_run(RankRuntime::OsThreads);
}

/// On a deadlock every stuck rank is asked exactly once, after the clock has
/// stopped, and answers from its own state; the engine fills in the rank. A
/// rank parked with plain `park()` has nothing to say.
fn explain_runs_once_per_stuck_rank(runtime: RankRuntime) {
    let explained = Arc::new(Mutex::new(Vec::new()));
    let explained2 = Arc::clone(&explained);
    let sim = Simulation::new(8);
    let handle = sim.handle();
    let err = sim
        .run(
            SimOpts {
                runtime,
                ..Default::default()
            },
            move |ctx| {
                let me = ctx.rank();
                ctx.compute(10 * (me as u64 + 1));
                match me {
                    0..=4 => {
                        let parks = me + 1; // earlier parks are woken: not stuck then
                        for left in (0..parks).rev() {
                            if left > 0 {
                                let h = ctx.handle();
                                h.schedule_at(h.now() + 5, move |h| h.wake_rank(me));
                            }
                            let handle = ctx.handle();
                            ctx.park_with(|| {
                                explained2.lock().unwrap().push((me, handle.now()));
                                RankDiag {
                                    blocked_on: Some(format!("token {me} after {parks} parks")),
                                    waits_on_rank: Some((me + 1) % 5),
                                    waits_on_req: Some(me as u64),
                                    ..Default::default()
                                }
                            });
                        }
                    }
                    5 => ctx.park(),
                    _ => {}
                }
            },
        )
        .unwrap_err();
    let SimError::Deadlock { parked, at, diags } = &err else {
        panic!("expected deadlock, got {err}");
    };
    assert_eq!(parked, &[0, 1, 2, 3, 4, 5]);
    assert_eq!(*at, 80, "rank 7 finishes its compute last");
    assert_eq!(handle.now(), 80, "explaining costs no virtual time");
    let mut asked = explained.lock().unwrap().clone();
    asked.sort_unstable();
    assert_eq!(asked, [(0, 80), (1, 80), (2, 80), (3, 80), (4, 80)]);
    assert_eq!(diags.len(), 6);
    for (r, d) in diags.iter().enumerate() {
        assert_eq!(d.rank, r, "the engine names the rank, not the closure");
    }
    assert_eq!(
        diags[2].blocked_on.as_deref(),
        Some("token 2 after 3 parks")
    );
    assert_eq!(
        diags[5],
        RankDiag {
            rank: 5,
            ..Default::default()
        }
    );
    let msg = err.to_string();
    assert!(msg.contains("\n  rank 5: blocked on <no note>"), "{msg}");
    assert!(
        msg.contains(
            "wait-for cycle: rank 0 -> req 0 -> rank 1 -> req 1 -> rank 2 -> req 2 -> \
             rank 3 -> req 3 -> rank 4 -> req 4 -> rank 0"
        ),
        "{msg}"
    );
}

#[test]
fn explain_runs_once_per_stuck_rank_coroutine() {
    explain_runs_once_per_stuck_rank(RankRuntime::Coroutine);
}

#[test]
fn explain_runs_once_per_stuck_rank_threads() {
    explain_runs_once_per_stuck_rank(RankRuntime::OsThreads);
}
