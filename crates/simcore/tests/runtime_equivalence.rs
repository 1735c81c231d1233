//! Scheduler-equivalence property tests: the coroutine (fiber) runtime and
//! the OS-thread runtime must produce byte-identical simulations.
//!
//! [`RankRuntime`] is documented as a performance-only knob — both drivers
//! observe the identical `(time, seq)` entry stream. These tests pin that
//! contract on random workloads: same-time event ties, park/wake traffic,
//! token dispatch order, and oracle-permuted schedules all have to agree
//! between the two runtimes, down to the recorded choice traces.

mod common;

use std::sync::Arc;

use common::{Ring, Step};
use parking_lot::Mutex;
use proptest::prelude::*;
use simcore::{
    Activity, ChoiceRec, OracleHandle, RandomOracle, RankRuntime, SimOpts, Simulation, Time,
};

fn opts(runtime: RankRuntime, oracle: Option<OracleHandle>) -> SimOpts {
    SimOpts {
        runtime,
        oracle,
        ..SimOpts::default()
    }
}

/// One run's full observable surface, Debug-rendered so any divergence
/// (activity boundaries, token order, choice trace) fails the comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    end_time: Time,
    events_processed: u64,
    activity: String,
    tokens: Vec<u64>,
    choices: Vec<ChoiceRec>,
}

/// Run a workload of timed token events (ties included) against ranks that
/// mix compute, library busy-work, and park/wake traffic.
fn run_workload(
    runtime: RankRuntime,
    ranks: usize,
    events: &[(u64, u64)],
    segments: &[(u64, bool)],
    oracle_seed: Option<u64>,
) -> Fingerprint {
    let sim = Simulation::new(ranks);
    let handle = sim.handle();
    let tokens: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&tokens);
    handle.set_token_handler(move |_h, tok| {
        sink.lock().push(tok);
    });
    let oracle = oracle_seed.map(|seed| OracleHandle::new(Box::new(RandomOracle::new(seed))));
    for &(t, tok) in events {
        handle.schedule_token(t, tok);
        // Every event also wakes rank 0, the only rank that parks, so the
        // run can never wedge regardless of the random schedule.
        handle.wake_rank_at(t, 0);
    }
    let max_t = events.iter().map(|&(t, _)| t).max().unwrap_or(0);
    handle.wake_rank_at(max_t + 1, 0);
    let segs: Vec<(u64, bool)> = segments.to_vec();
    let out = sim
        .run(opts(runtime, oracle.clone()), move |ctx| {
            if ctx.rank() == 0 {
                ctx.park();
            }
            for &(d, compute) in &segs {
                if compute {
                    ctx.compute(d);
                } else {
                    ctx.busy(d, Activity::Library);
                }
            }
        })
        .unwrap();
    let tokens = tokens.lock().clone();
    Fingerprint {
        end_time: out.end_time,
        events_processed: out.events_processed,
        activity: format!("{:?}", out.activity),
        tokens,
        choices: oracle.map(|o| o.trace()).unwrap_or_default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Canonical (oracle-less) schedules: random timed tokens — duplicated
    /// times force same-time ties — and random rank programs agree between
    /// the fiber and thread runtimes.
    #[test]
    fn runtimes_agree_on_random_workloads(
        events in prop::collection::vec((0u64..2_000, 0u64..1_000), 1..40),
        segments in prop::collection::vec((1u64..3_000, any::<bool>()), 0..20),
        ranks in 1usize..5,
    ) {
        let a = run_workload(RankRuntime::Coroutine, ranks, &events, &segments, None);
        let b = run_workload(RankRuntime::OsThreads, ranks, &events, &segments, None);
        prop_assert_eq!(a, b);
    }

    /// Oracle-permuted schedules: a seeded [`RandomOracle`] resolves every
    /// same-time tie. Both runtimes must present the identical choice-point
    /// sequence (pinned via the recorded trace) and land on the identical
    /// outcome.
    #[test]
    fn runtimes_agree_under_random_oracle(
        // Few distinct times over many events maximizes tie arity.
        events in prop::collection::vec((0u64..8, 0u64..1_000), 2..40),
        segments in prop::collection::vec((1u64..500, any::<bool>()), 0..10),
        ranks in 1usize..4,
        seed in any::<u64>(),
    ) {
        let a = run_workload(RankRuntime::Coroutine, ranks, &events, &segments, Some(seed));
        let b = run_workload(RankRuntime::OsThreads, ranks, &events, &segments, Some(seed));
        prop_assert!(!a.choices.is_empty() || events.len() < 2,
            "expected the oracle to be consulted on tied events");
        prop_assert_eq!(a, b);
    }

    /// Synthetic `ProgressWake` consultations (the choice point the
    /// async-rank progress model raises between compute slices) interleaved
    /// with the event stream: both runtimes must present the identical
    /// consultation sequence and agree on the outcome.
    #[test]
    fn runtimes_agree_with_progress_wake_choice_points(
        events in prop::collection::vec((0u64..1_000, 0u64..1_000), 1..20),
        slices in prop::collection::vec(1u64..2_000, 1..12),
        ranks in 1usize..4,
        seed in any::<u64>(),
    ) {
        use simcore::ChoicePoint;
        let run = |runtime: RankRuntime| {
            let sim = Simulation::new(ranks);
            let handle = sim.handle();
            let tokens: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&tokens);
            handle.set_token_handler(move |_h, tok| {
                sink.lock().push(tok);
            });
            let oracle = OracleHandle::new(Box::new(RandomOracle::new(seed)));
            for &(t, tok) in &events {
                handle.schedule_token(t, tok);
            }
            let slices = slices.clone();
            let orc = oracle.clone();
            let out = sim
                .run(opts(runtime, Some(oracle.clone())), move |ctx| {
                    let rank = ctx.rank();
                    for (i, &d) in slices.iter().enumerate() {
                        ctx.compute(d);
                        // Mirror the async-rank fiber: consult the oracle at
                        // every poll boundary, skipping on pick == 1.
                        let pick = orc.choose(ChoicePoint::ProgressWake { rank, n: 2 });
                        if pick == 0 {
                            ctx.busy(1 + (i as u64 % 3), Activity::Library);
                        }
                    }
                })
                .unwrap();
            let toks = tokens.lock().clone();
            (out.end_time, out.events_processed, format!("{:?}", out.activity), toks, oracle.trace())
        };
        let a = run(RankRuntime::Coroutine);
        let b = run(RankRuntime::OsThreads);
        prop_assert!(a.4.iter().any(|c| c.kind == 4),
            "expected ProgressWake consultations in the trace");
        prop_assert_eq!(a, b);
    }

    /// `RankCtx::wait` — a poll the engine ends, a park it makes, a charge
    /// it serves — against the unfused `busy`, mailbox check, `park`,
    /// `busy`, with deliveries before, at (on either side of the seq tie)
    /// and after each poll's end, with and without an oracle permuting ties:
    /// all four combinations of fused/unfused and fibers/threads agree on
    /// the end time, the entry count, every activity log, what each wait
    /// returned and the choice trace. Only the fused runs save resumes.
    #[test]
    fn fused_waits_match_the_unfused_sequence_on_both_runtimes(
        programs in prop::collection::vec(common::program(), 1..4),
        deliveries in common::deliveries(),
        seed in prop::option::of(any::<u64>()),
    ) {
        let (fibers, fiber_resumes) =
            common::run(RankRuntime::Coroutine, true, &programs, &deliveries, seed);
        let (threads, thread_resumes) =
            common::run(RankRuntime::OsThreads, true, &programs, &deliveries, seed);
        let (unfused, unfused_resumes) =
            common::run(RankRuntime::Coroutine, false, &programs, &deliveries, seed);
        let (unfused_threads, _) =
            common::run(RankRuntime::OsThreads, false, &programs, &deliveries, seed);
        prop_assert_eq!(&fibers, &unfused);
        prop_assert_eq!(&threads, &unfused_threads);
        prop_assert_eq!(&fibers, &threads);
        prop_assert_eq!(fiber_resumes, thread_resumes);
        prop_assert!(fiber_resumes <= unfused_resumes);
    }
}

/// One wait per rank, `after` = 20 ns, each rank's own delivery landing at a
/// different point of its poll: before the end, at the end with a lower seq
/// (it counts: no park) or a higher seq (parks, and is woken at once), after
/// it, or never (woken by the heartbeat at 50); and one `after` = 0 wait.
#[test]
fn wait_outcomes_at_the_poll_end_ties() {
    let wait = |after, ring| {
        vec![Step::Wait {
            after,
            charge: 10,
            ring,
        }]
    };
    let programs = [
        wait(20, Ring::Before(10)),
        wait(20, Ring::Before(20)),
        wait(20, Ring::After(20)),
        wait(20, Ring::Before(30)),
        wait(20, Ring::Never),
        wait(0, Ring::Before(0)),
    ];
    let want = vec![
        vec![None],
        vec![None],
        vec![Some((20, 20))],
        vec![Some((20, 30))],
        vec![Some((20, 50))],
        vec![Some((0, 0))],
    ];
    let mut resumes = Vec::new();
    for runtime in [RankRuntime::Coroutine, RankRuntime::OsThreads] {
        for fused in [true, false] {
            let (run, n) = common::run(runtime, fused, &programs, &[], None);
            assert_eq!(run.waits, want, "{runtime:?}, fused {fused}");
            resumes.push(n);
        }
    }
    // Fused, each rank is resumed to start and to finish (12). Unfused, each
    // of the three poll ends that park and each of the four wake-ups resumes
    // a rank once more (19).
    assert_eq!(resumes, [12, 19, 12, 19]);
}
