//! Engine-level schedule-oracle tests: canonical equivalence, random
//! permutation determinism, and replay fidelity.

use std::sync::Arc;

use parking_lot::Mutex;
use simcore::{OracleHandle, RandomOracle, ReplayOracle, SimOpts, Simulation};

/// A small workload with plenty of same-time ties: 3 ranks ping events at
/// each other through callbacks, and several callbacks land on the same
/// virtual nanosecond. Returns the observed event order tags plus end time.
fn run_tied_workload(oracle: Option<OracleHandle>) -> (Vec<u32>, u64, Option<OracleHandle>) {
    let sim = Simulation::new(3);
    let handle = sim.handle();
    let installed = oracle.inspect(|o| handle.set_oracle(o.clone()));
    let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    for wave in 0..4u64 {
        for i in 0..5u32 {
            let seen = Arc::clone(&seen);
            let tag = wave as u32 * 10 + i;
            handle.schedule_at(100 * (wave + 1), move |h| {
                seen.lock().push(tag);
                // Chain a follow-up event that collides with the next wave.
                if i == 2 {
                    let t = h.now() + 100;
                    h.schedule_at(t, move |_| {});
                }
            });
        }
    }
    let out = sim
        .run(SimOpts::default(), |ctx| {
            ctx.compute(50 * (ctx.rank() as u64 + 1));
            ctx.compute(350);
        })
        .unwrap();
    let order = seen.lock().clone();
    (order, out.end_time, installed)
}

#[test]
fn canonical_oracle_matches_no_oracle_schedule() {
    let (base_order, base_end, _) = run_tied_workload(None);
    // An empty script replays choice 0 at every point: the canonical oracle.
    let (canon_order, canon_end, orc) = run_tied_workload(Some(OracleHandle::new(Box::new(
        ReplayOracle::new(Vec::new()),
    ))));
    assert_eq!(base_order, canon_order);
    assert_eq!(base_end, canon_end);
    // The ties existed (so the oracle was really consulted)…
    let orc = orc.unwrap();
    assert!(!orc.trace().is_empty(), "workload produced no ties");
    // …and every recorded canonical decision was choice 0.
    assert!(orc.trace().iter().all(|r| r.choice == 0));
}

#[test]
fn random_oracle_permutes_ties_deterministically() {
    let run = |seed| {
        let (order, end, orc) =
            run_tied_workload(Some(OracleHandle::new(Box::new(RandomOracle::new(seed)))));
        (order, end, orc.unwrap().trace())
    };
    let (o1, e1, t1) = run(7);
    let (o2, e2, t2) = run(7);
    assert_eq!(o1, o2, "same seed must reproduce the same schedule");
    assert_eq!(e1, e2);
    assert_eq!(t1, t2);
    // Some seed in a small range must produce a non-canonical order; the
    // workload has 5-way ties so this is overwhelmingly likely.
    let (base, ..) = run_tied_workload(None);
    assert!(
        (0..20).any(|s| run(s).0 != base),
        "no seed permuted the tied events"
    );
}

#[test]
fn replaying_a_recorded_trace_reproduces_the_schedule() {
    let (order, end, orc) =
        run_tied_workload(Some(OracleHandle::new(Box::new(RandomOracle::new(1234)))));
    let trace = orc.unwrap().trace();
    let (replayed, replay_end, replay_orc) = run_tied_workload(Some(OracleHandle::new(Box::new(
        ReplayOracle::new(trace.clone()),
    ))));
    assert_eq!(order, replayed);
    assert_eq!(end, replay_end);
    assert_eq!(trace, replay_orc.unwrap().trace());
}

#[test]
fn truncated_replay_prefix_still_runs_to_completion() {
    let (_, _, orc) = run_tied_workload(Some(OracleHandle::new(Box::new(RandomOracle::new(99)))));
    let mut trace = orc.unwrap().trace();
    trace.truncate(trace.len() / 2);
    // A prefix replay pads with canonical choices and must still terminate.
    let (order, _, _) =
        run_tied_workload(Some(OracleHandle::new(Box::new(ReplayOracle::new(trace)))));
    assert_eq!(order.len(), 20);
}
