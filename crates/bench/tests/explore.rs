//! Schedule-space explorer integration tests (ISSUE acceptance criteria):
//!
//! * the bounded-exhaustive strategy fully enumerates the 2-rank eager
//!   exchange's schedule space with zero invariant violations,
//! * the planted deadlock scenario is found on every schedule, shrunk to a
//!   minimal divergent prefix, and the written counterexample token
//!   replays the deadlock deterministically,
//! * replay refuses tokens whose schema version or fault seed no longer
//!   match the current configuration, whose choice triples are malformed,
//!   or whose choices the replayed run does not take.

use bench::explore::{self, Counterexample, Outcome};
use simcore::{RandomOracle, ReplayOracle};

#[test]
fn exhaustive_eager2_enumerates_bounded_space_cleanly() {
    let sc = explore::find_scenario("eager2").expect("eager2 registered");
    let stats = explore::explore_exhaustive(&sc, 10_000, 1);
    assert!(
        stats.complete,
        "bounded space not enumerated within budget ({} schedules)",
        stats.schedules
    );
    assert!(
        stats.schedules > 10,
        "suspiciously small schedule space: {}",
        stats.schedules
    );
    assert_eq!(
        stats.clean, stats.schedules,
        "some schedules were not clean"
    );
    assert_eq!(stats.violations, 0);
    assert_eq!(stats.deadlocks, 0);
    assert_eq!(stats.errors, 0);
}

#[test]
fn random_schedules_replay_byte_deterministically() {
    let sc = explore::find_scenario("fig03ish").expect("fig03ish registered");
    let original = explore::run_schedule(&sc, Box::new(RandomOracle::new(23)));
    assert_eq!(original.outcome.category(), "clean");
    assert!(
        !original.choices.is_empty(),
        "jittered scenario should hit choice points"
    );
    let replay = explore::run_schedule(&sc, Box::new(ReplayOracle::new(original.choices.clone())));
    assert_eq!(replay.outcome, original.outcome, "replay diverged");
    assert_eq!(replay.choices, original.choices, "decision trace diverged");
}

#[test]
fn deadlock_scenario_is_found_shrunk_and_replayable() {
    let sc = explore::find_scenario("deadlock").expect("deadlock registered");
    let stats = explore::explore_random(&sc, 3, 7);
    assert_eq!(stats.deadlocks, 3, "every schedule of the plant deadlocks");
    let finding = stats.first_deadlock.as_ref().expect("deadlock finding");
    assert!(
        finding.description.contains("wait-for cycle"),
        "diagnostic should carry the blocked-on cycle: {}",
        finding.description
    );

    // Token roundtrip through disk, then deterministic replay.
    let dir = std::env::temp_dir().join(format!("explore-test-{}", std::process::id()));
    let token = Counterexample::from_finding(&sc, "random", 7, finding);
    let path = token.save(&dir).expect("token written");
    assert!(path.ends_with("deadlock.counterexample.json"));
    let text = std::fs::read_to_string(&path).expect("token readable");
    let back: Counterexample = serde_json::from_str(&text).expect("token parses");
    assert_eq!(back.schema_version, explore::SCHEMA_VERSION);
    assert_eq!(back.fault_seed, sc.net.faults.seed);
    match back.replay().expect("replay reproduces the deadlock") {
        Outcome::Deadlock(msg) => assert!(msg.contains("wait-for cycle"), "{msg}"),
        other => panic!("replay produced {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The PR 6 `deadlock` counterexample token, pinned byte-for-byte across
/// the engine rewrite: regenerating the token from scratch (same strategy,
/// budget, and seed as `deadlock_scenario_is_found_shrunk_and_replayable`)
/// must reproduce the committed golden exactly, and the golden itself must
/// still replay to the planted deadlock. This is the explorer-level
/// equivalence witness — schedule enumeration, the recorded choice trace,
/// and the token serialization all have to survive engine swaps unchanged.
///
/// To re-bless after an *intentional* format change (never for an engine
/// change — that is exactly the drift this test exists to catch), run with
/// `EXPLORE_BLESS_GOLDEN=1`.
#[test]
fn deadlock_counterexample_token_matches_golden() {
    let sc = explore::find_scenario("deadlock").expect("deadlock registered");
    let stats = explore::explore_random(&sc, 3, 7);
    let finding = stats.first_deadlock.as_ref().expect("deadlock finding");
    let token = Counterexample::from_finding(&sc, "random", 7, finding);
    let text = serde_json::to_string_pretty(&token).expect("token serializes");

    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/deadlock.counterexample.json");
    if std::env::var_os("EXPLORE_BLESS_GOLDEN").is_some() {
        std::fs::write(&golden_path, &text).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden readable");
    assert_eq!(
        text, golden,
        "regenerated deadlock counterexample token diverged from \
         tests/goldens/deadlock.counterexample.json"
    );

    let back: Counterexample = serde_json::from_str(&golden).expect("golden parses");
    match back.replay().expect("golden token replays") {
        Outcome::Deadlock(msg) => assert!(msg.contains("wait-for cycle"), "{msg}"),
        other => panic!("golden replay produced {other:?}"),
    }
}

#[test]
fn shrinking_minimizes_a_random_failing_trace() {
    let sc = explore::find_scenario("deadlock").expect("deadlock registered");
    let run = explore::run_schedule(&sc, Box::new(RandomOracle::new(3)));
    assert_eq!(run.outcome.category(), "deadlock");
    assert!(!run.choices.is_empty());
    let shrunk = explore::shrink(&sc, &run.choices, "deadlock");
    // The plant deadlocks canonically, so the minimal divergent prefix is
    // empty — shrinking must discover that from a fully random trace.
    assert!(
        shrunk.len() < run.choices.len(),
        "shrinking made no progress ({} choices)",
        run.choices.len()
    );
    assert!(shrunk.is_empty(), "expected empty prefix, got {shrunk:?}");
}

/// The async-rank scenario's schedule space is dominated by kind-4
/// `ProgressWake` drain-now/defer decisions: random search must actually
/// reach them, flipping a wake must actually move the schedule (distinct
/// end times), and every explored interleaving must stay clean.
#[test]
fn asyncrank_exploration_searches_progress_wake_interleavings() {
    let sc = explore::find_scenario("asyncrank2").expect("asyncrank2 registered");
    let canonical = explore::run_schedule(&sc, Box::new(ReplayOracle::new(Vec::new())));
    assert_eq!(canonical.outcome.category(), "clean");
    assert!(
        canonical.choices.iter().any(|c| c.kind == 4),
        "async-rank canonical schedule consulted no ProgressWake points: {:?}",
        canonical.choices
    );

    let stats = explore::explore_random(&sc, 24, 5);
    assert_eq!(
        stats.clean, stats.schedules,
        "some schedules were not clean"
    );
    assert_eq!(stats.violations, 0);
    assert_eq!(stats.deadlocks, 0);
    assert_eq!(stats.errors, 0);
    assert!(
        stats.distinct_end_times > 1,
        "ProgressWake flips never moved the schedule ({} end times)",
        stats.distinct_end_times
    );
}

/// A v1 token (recorded before the `ProgressWake` choice kind existed) must
/// be refused outright, not replayed against the v2 schedule space.
#[test]
fn replay_refuses_a_version_1_token() {
    let v1 = r#"{
        "schema_version": 1,
        "scenario": "deadlock",
        "strategy": "random",
        "category": "deadlock",
        "description": "wait-for cycle",
        "fault_seed": 42,
        "oracle_seed": 7,
        "choices": []
    }"#;
    let token: Counterexample = serde_json::from_str(v1).expect("v1 token parses");
    let err = token.replay().expect_err("v1 token must be refused");
    assert!(
        err.contains("schema_version 1") && err.contains("current 2"),
        "refusal should name both versions: {err}"
    );
}

#[test]
fn replay_rejects_mismatched_schema_or_fault_seed() {
    let sc = explore::find_scenario("deadlock").expect("deadlock registered");
    let stats = explore::explore_random(&sc, 1, 7);
    let finding = stats.first_deadlock.as_ref().expect("deadlock finding");
    let token = Counterexample::from_finding(&sc, "random", 7, finding);

    let mut wrong_schema = token.clone();
    wrong_schema.schema_version += 1;
    let err = wrong_schema.replay().expect_err("schema mismatch rejected");
    assert!(err.contains("schema_version"), "{err}");

    let mut wrong_seed = token.clone();
    wrong_seed.fault_seed += 1;
    let err = wrong_seed
        .replay()
        .expect_err("fault-seed mismatch rejected");
    assert!(err.contains("configuration changed"), "{err}");
}

#[test]
fn cli_accepts_the_equals_form_of_value_flags() {
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(explore::cli_main(&args(&["list", "--budget=5"])), 0);
    assert_eq!(explore::cli_main(&args(&["list", "--budget", "5"])), 0);
    assert_eq!(explore::cli_main(&args(&["list", "--budget=x"])), 2);
    assert_eq!(explore::cli_main(&args(&["list", "--budget"])), 2);
}

/// A token for `scenario` under its current fault seed.
fn token_text(scenario: &str, category: &str, choices: &str) -> String {
    let sc = explore::find_scenario(scenario).expect("scenario registered");
    format!(
        r#"{{"schema_version": {}, "scenario": "{scenario}", "strategy": "random",
            "category": "{category}", "description": "", "fault_seed": {},
            "oracle_seed": 1, "choices": {choices}}}"#,
        explore::SCHEMA_VERSION,
        sc.net.faults.seed
    )
}

/// `repro explore --replay` of `text`, written to a scratch file.
fn replay_exit(name: &str, text: &str) -> i32 {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("token written");
    explore::cli_main(&["--replay".to_string(), path.display().to_string()])
}

/// A triple with the wrong length, a kind past the five choice kinds, an
/// arity below 2, a choice at or past its arity, or a value past `u32` is
/// refused as a usage error, naming the first bad index.
#[test]
fn replay_refuses_malformed_choice_triples() {
    let text = token_text("deadlock", "deadlock", "[[9,2,1],[0,2],[300,5,4]]");
    assert_eq!(replay_exit("malformed.counterexample.json", &text), 2);
    for (choices, index) in [
        ("[[9,2,1]]", 0),
        ("[[4,2,1],[0,2]]", 1),
        ("[[0,1,0]]", 0),
        ("[[0,2,2]]", 0),
        ("[[0,2,0],[1,4294967296,0]]", 1),
    ] {
        let token: Counterexample =
            serde_json::from_str(&token_text("deadlock", "deadlock", choices)).expect("parses");
        let err = token.choice_recs().expect_err(choices);
        assert!(
            err.starts_with(&format!("choices[{index}] ")),
            "{choices}: {err}"
        );
        assert_eq!(token.replay().expect_err(choices), err);
    }
}

/// A replay whose run does not take the token's decisions fails, naming
/// where it left them: a flat fabric never consults a Route point (kind 3).
#[test]
fn replay_fails_when_the_run_leaves_the_token() {
    let text = token_text("fig03ish", "clean", "[[3,4,3],[3,4,3],[1,2,1]]");
    assert_eq!(replay_exit("route.counterexample.json", &text), 1);
    let token: Counterexample = serde_json::from_str(&text).expect("parses");
    let err = token
        .replay()
        .expect_err("the run never reaches a Route point");
    assert!(err.contains("at index 0"), "{err}");
}
