//! Schedule-space explorer: loom-style interleaving and fault-timing search.
//!
//! The simulator is deterministic, so a single run samples exactly one
//! schedule out of the many a real system could exhibit. This module drives
//! the [`simcore::ScheduleOracle`] machinery to search that space: every
//! engine tie-break (same-time event order), progress-poll drain order and
//! fault-timing jitter step becomes an explicit choice, each explored
//! schedule is checked by the repo's one soundness check
//! ([`simmpi::RunOutcome::check`]: report invariants, activity-log
//! monotonicity, exact wait-state reconciliation and the per-transfer
//! bounds against ground truth), and any failing schedule is shrunk to
//! a minimal divergent choice prefix written as a replayable
//! `<scenario>.counterexample.json` token.
//!
//! Three strategies are available (`repro explore --strategy ...`):
//!
//! * `exhaustive` — bounded-exhaustive DFS over the choice tree with a
//!   preemption bound (DPOR-lite): each explored schedule's decision trace
//!   is expanded at every point past its forced prefix, capping the number
//!   of non-canonical choices per schedule,
//! * `random` — seeded random-permutation schedules, one
//!   [`simcore::RandomOracle`] seed per schedule,
//! * `guided` — hill-climbing search toward extreme overlap bounds (first
//!   minimizing the summed min bound, then maximizing the summed max
//!   bound), mutating one choice of the best-known schedule per step.
//!
//! Deadlocks found during exploration are reported and shrunk like
//! invariant violations, but only invariant violations fail the run
//! (exit 1): a deadlock on a fault-planted scenario is a *finding*, not an
//! instrumentation bug. See `docs/EXPLORATION.md` for the full model.

use std::path::{Path, PathBuf};

use overlap_core::RecorderOpts;
use simcore::oracle::splitmix64;
use simcore::{
    ChoiceRec, OracleHandle, RandomOracle, ReplayOracle, ScheduleOracle, SimError, SimOpts,
};
use simmpi::{default_xfer_table, run_mpi_with, Mpi, MpiConfig, ProgressModel, Src, TagSel};
use simnet::{FaultPlan, NetConfig};

use crate::runner::{split_eq_flags, value};

/// Version of the explorer's on-disk formats (counterexample tokens and the
/// `--json` explore report). Replays refuse tokens from other versions.
///
/// v2: the choice vocabulary grew the kind-4 `ProgressWake` point (the
/// async-rank progress fiber deciding to drain now or defer), so v1 tokens
/// — recorded when that kind could not appear — are refused rather than
/// replayed against a schedule space they never described.
pub const SCHEMA_VERSION: u32 = 2;

/// Event cap per explored schedule: guards against livelock on a perturbed
/// schedule wedging the whole exploration.
const MAX_EVENTS_PER_SCHEDULE: u64 = 4_000_000;

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// A fixed, fully seeded workload the explorer perturbs.
pub struct Scenario {
    /// Scenario identifier (`repro explore <id>`).
    pub id: &'static str,
    /// One-line description for `repro explore list`.
    pub about: &'static str,
    /// Ranks the workload spins up.
    pub nranks: usize,
    /// The fabric; its fault-plan seed (0 when fault-free) is echoed into
    /// counterexample tokens so a replay can assert the same configuration.
    pub net: NetConfig,
    mpi: MpiConfig,
    body: fn(&mut Mpi),
}

/// Two ranks exchange two small eager messages with overlap windows — the
/// bounded-exhaustive scenario: fault-free, so the schedule space is pure
/// event-tie / progress-poll interleaving.
fn eager2_body(mpi: &mut Mpi) {
    let msg = vec![0x5Au8; 2 << 10];
    let peer = 1 - mpi.rank();
    for i in 0..2u64 {
        let s = mpi.isend(peer, i, &msg);
        let r = mpi.irecv(Src::Rank(peer), TagSel::Is(i));
        mpi.compute(3_000);
        mpi.wait(s);
        mpi.wait(r);
    }
}

/// The Fig. 3 microbenchmark shape (10 KB eager Isend–Irecv with inserted
/// computation) under arrival jitter — the CI smoke scenario.
fn fig03ish_body(mpi: &mut Mpi) {
    let msg = vec![0x5Au8; 10 << 10];
    for i in 0..2u64 {
        if mpi.rank() == 0 {
            let s = mpi.isend(1, i, &msg);
            mpi.compute(10_000);
            mpi.wait(s);
        } else {
            let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
            mpi.compute(10_000);
            mpi.wait(r);
        }
        mpi.barrier();
    }
}

/// The eager2 exchange under the async progress rank: arrivals land while
/// both ranks compute, so every poll boundary with pending host events is a
/// `ProgressWake` choice point the oracle can flip between draining
/// immediately and deferring to the next boundary.
fn asyncrank2_body(mpi: &mut Mpi) {
    let msg = vec![0x5Au8; 2 << 10];
    let peer = 1 - mpi.rank();
    for i in 0..2u64 {
        let s = mpi.isend(peer, i, &msg);
        let r = mpi.irecv(Src::Rank(peer), TagSel::Is(i));
        mpi.compute(9_000);
        mpi.wait(s);
        mpi.wait(r);
    }
}

/// The planted deadlock: a rendezvous-size send whose control traffic the
/// fault plan drops past the retry budget. Rank 0 blocks waiting for the
/// CTS that can never arrive, rank 1 blocks waiting for the RTS — a
/// two-rank wait-for cycle the engine reports at quiescence.
fn deadlock_body(mpi: &mut Mpi) {
    let msg = vec![0x5Au8; 64 << 10];
    if mpi.rank() == 0 {
        let s = mpi.isend(1, 7, &msg);
        mpi.compute(5_000);
        mpi.wait(s);
    } else {
        mpi.recv(Src::Rank(0), TagSel::Is(7));
    }
}

/// The scenario registry.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            id: "eager2",
            about: "2-rank eager exchange, fault-free (bounded-exhaustive target)",
            nranks: 2,
            net: NetConfig::default(),
            mpi: MpiConfig::open_mpi_pipelined(),
            body: eager2_body,
        },
        Scenario {
            id: "fig03ish",
            about: "Fig. 3 shape (10 KB eager) under 300 ns arrival jitter",
            nranks: 2,
            // No loss: the reliability layer runs (sequencing + ACKs) and
            // the oracle may jitter every packet's arrival within a 300 ns
            // window, but every schedule must still complete cleanly.
            net: NetConfig {
                faults: FaultPlan {
                    seed: 11,
                    explore_jitter_ns: 300,
                    explore_jitter_steps: 3,
                    ..FaultPlan::none()
                },
                ..NetConfig::default()
            },
            mpi: MpiConfig::open_mpi_pipelined(),
            body: fig03ish_body,
        },
        Scenario {
            id: "asyncrank2",
            about: "eager2 shape under the async progress rank (ProgressWake interleavings)",
            nranks: 2,
            net: NetConfig::default(),
            mpi: MpiConfig {
                // A short poll interval packs several progress-fiber wakes
                // into each compute window, so the schedule space is
                // dominated by kind-4 `ProgressWake` drain-now/defer
                // decisions.
                progress: ProgressModel::AsyncRank {
                    poll_interval: 2_000,
                },
                ..MpiConfig::open_mpi_pipelined()
            },
            body: asyncrank2_body,
        },
        Scenario {
            id: "deadlock",
            about: "rendezvous send with control traffic dropped past the retry budget",
            nranks: 2,
            // Total loss: every two-sided packet (including the rendezvous
            // RTS and all its retransmissions) is dropped.
            net: NetConfig {
                faults: FaultPlan {
                    seed: 42,
                    drop_prob: 1.0,
                    explore_jitter_ns: 200,
                    explore_jitter_steps: 3,
                    ..FaultPlan::none()
                },
                ..NetConfig::default()
            },
            mpi: MpiConfig {
                // A tiny retry budget so the reliability layer abandons
                // quickly and the run quiesces into the engine's detectable
                // deadlock instead of retransmitting forever.
                max_retries: 2,
                ..MpiConfig::open_mpi_pipelined()
            },
            body: deadlock_body,
        },
    ]
}

/// Look up a scenario by id.
pub fn find_scenario(id: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.id == id)
}

// ---------------------------------------------------------------------------
// Running one schedule
// ---------------------------------------------------------------------------

/// What one explored schedule did.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The run completed and every invariant held.
    Clean {
        /// Virtual end time of the schedule.
        end_time: u64,
        /// Σ over ranks of the total min-overlap bound (guided objective).
        min_sum: u64,
        /// Σ over ranks of the total max-overlap bound (guided objective).
        max_sum: u64,
    },
    /// The run completed but one or more invariants failed.
    Violation(Vec<String>),
    /// The run deadlocked; the string is the engine's one-line diagnostic
    /// (including the wait-for cycle when the diagnostics carry one).
    Deadlock(String),
    /// The run failed some other way (event-limit livelock guard, rank
    /// panic, ...).
    Error(String),
}

impl Outcome {
    /// Stable category tag, used to match a replayed outcome against the
    /// counterexample that recorded it.
    pub fn category(&self) -> &'static str {
        match self {
            Outcome::Clean { .. } => "clean",
            Outcome::Violation(_) => "violation",
            Outcome::Deadlock(_) => "deadlock",
            Outcome::Error(_) => "error",
        }
    }
}

/// One explored schedule: its outcome plus the full recorded decision
/// sequence that identifies it.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// What the schedule did.
    pub outcome: Outcome,
    /// Every oracle decision the run consulted, in consultation order.
    pub choices: Vec<ChoiceRec>,
}

/// Run one schedule of `sc` under `oracle` and classify the result.
pub fn run_schedule(sc: &Scenario, oracle: Box<dyn ScheduleOracle>) -> ScheduleRun {
    let handle = OracleHandle::new(oracle);
    let table = default_xfer_table(&sc.net);
    let opts = SimOpts {
        max_events: Some(MAX_EVENTS_PER_SCHEDULE),
        ..SimOpts::default()
    };
    let rec = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    let res = run_mpi_with(
        sc.nranks,
        sc.net.clone(),
        sc.mpi.clone(),
        rec,
        table,
        opts,
        Some(handle.clone()),
        sc.body,
    );
    let outcome = match res {
        Ok(out) => {
            let violations: Vec<String> = out.check().iter().map(|v| v.to_string()).collect();
            if violations.is_empty() {
                let min_sum = out.reports.iter().map(|r| r.total.min_overlap).sum();
                let max_sum = out.reports.iter().map(|r| r.total.max_overlap).sum();
                Outcome::Clean {
                    end_time: out.end_time(),
                    min_sum,
                    max_sum,
                }
            } else {
                Outcome::Violation(violations)
            }
        }
        Err(e @ SimError::Deadlock { .. }) => Outcome::Deadlock(e.one_line()),
        Err(e) => Outcome::Error(e.one_line()),
    };
    ScheduleRun {
        outcome,
        choices: handle.trace(),
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// One failing schedule, shrunk to its minimal divergent choice prefix.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Outcome category (`"violation"` or `"deadlock"` / `"error"`).
    pub category: &'static str,
    /// Human-readable description (invariant list or deadlock one-liner).
    pub description: String,
    /// The minimal choice prefix reproducing the outcome (canonical-0 tail
    /// implied).
    pub choices: Vec<ChoiceRec>,
}

/// Aggregated exploration result.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Schedules executed.
    pub schedules: usize,
    /// Schedules that completed with every invariant holding.
    pub clean: usize,
    /// Schedules that deadlocked.
    pub deadlocks: usize,
    /// Schedules with invariant violations.
    pub violations: usize,
    /// Schedules that failed some other way.
    pub errors: usize,
    /// Distinct virtual end times among clean schedules (a coarse measure
    /// of how much of the space the strategy actually moved).
    pub distinct_end_times: usize,
    /// `true` when the exhaustive strategy enumerated the whole bounded
    /// space within budget (always `false` for sampling strategies).
    pub complete: bool,
    /// First invariant violation found, shrunk.
    pub first_violation: Option<Finding>,
    /// First deadlock found, shrunk.
    pub first_deadlock: Option<Finding>,
}

impl ExploreStats {
    fn note(&mut self, sc: &Scenario, run: &ScheduleRun, end_times: &mut Vec<u64>) {
        self.schedules += 1;
        match &run.outcome {
            Outcome::Clean { end_time, .. } => {
                self.clean += 1;
                if !end_times.contains(end_time) {
                    end_times.push(*end_time);
                }
            }
            Outcome::Violation(_) => {
                self.violations += 1;
                if self.first_violation.is_none() {
                    self.first_violation = Some(shrink_finding(sc, run, "violation"));
                }
            }
            Outcome::Deadlock(_) => {
                self.deadlocks += 1;
                if self.first_deadlock.is_none() {
                    self.first_deadlock = Some(shrink_finding(sc, run, "deadlock"));
                }
            }
            Outcome::Error(_) => self.errors += 1,
        }
    }
}

fn count_nonzero(prefix: &[ChoiceRec]) -> usize {
    prefix.iter().filter(|r| r.choice != 0).count()
}

/// Bounded-exhaustive DFS (DPOR-lite): explore the choice tree by replaying
/// forced prefixes, expanding every decision past the prefix, with at most
/// `preemption_bound` non-canonical choices per schedule. Stops early when
/// `budget` schedules have run; [`ExploreStats::complete`] records whether
/// the bounded space was fully enumerated.
pub fn explore_exhaustive(sc: &Scenario, budget: usize, preemption_bound: usize) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut end_times = Vec::new();
    let mut stack: Vec<Vec<ChoiceRec>> = vec![Vec::new()];
    let mut truncated = false;
    while let Some(prefix) = stack.pop() {
        if stats.schedules >= budget {
            truncated = true;
            break;
        }
        let run = run_schedule(sc, Box::new(ReplayOracle::new(prefix.clone())));
        stats.note(sc, &run, &mut end_times);
        // Branch only past the forced prefix: every position before it was
        // already expanded by an ancestor, so each schedule is visited once.
        for i in prefix.len()..run.choices.len() {
            let rec = run.choices[i];
            let taken_nonzero = count_nonzero(&run.choices[..i]);
            for alt in 0..rec.arity {
                if alt == rec.choice {
                    continue;
                }
                if taken_nonzero + usize::from(alt != 0) > preemption_bound {
                    continue;
                }
                let mut p = run.choices[..i].to_vec();
                p.push(ChoiceRec {
                    kind: rec.kind,
                    arity: rec.arity,
                    choice: alt,
                });
                stack.push(p);
            }
        }
    }
    stats.distinct_end_times = end_times.len();
    stats.complete = !truncated;
    stats
}

/// Seeded random-permutation search: `budget` schedules, one
/// [`RandomOracle`] seed per schedule (`seed + i`).
pub fn explore_random(sc: &Scenario, budget: usize, seed: u64) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut end_times = Vec::new();
    for i in 0..budget {
        let run = run_schedule(sc, Box::new(RandomOracle::new(seed.wrapping_add(i as u64))));
        stats.note(sc, &run, &mut end_times);
    }
    stats.distinct_end_times = end_times.len();
    stats
}

/// Guided min/max-overlap search: hill-climb from the canonical schedule,
/// mutating one choice of the best-known schedule per step. The first half
/// of the budget *minimizes* the summed min-overlap bound (hunting
/// schedules where the framework can guarantee least), the second half
/// *maximizes* the summed max bound.
pub fn explore_guided(sc: &Scenario, budget: usize, seed: u64) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut end_times = Vec::new();
    let mut rng = seed ^ 0xd1b5_4a32_d192_ed03;

    let objective = |run: &ScheduleRun, maximize: bool| -> Option<i128> {
        match run.outcome {
            Outcome::Clean {
                min_sum, max_sum, ..
            } => Some(if maximize {
                i128::from(max_sum)
            } else {
                -i128::from(min_sum)
            }),
            _ => None,
        }
    };

    for phase in 0..2 {
        let maximize = phase == 1;
        let phase_budget = budget / 2 + if maximize { budget % 2 } else { 0 };
        if phase_budget == 0 {
            continue;
        }
        let base = run_schedule(sc, Box::new(ReplayOracle::new(Vec::new())));
        stats.note(sc, &base, &mut end_times);
        let mut best_choices = base.choices.clone();
        let mut best_score = objective(&base, maximize);
        for _ in 1..phase_budget {
            if best_choices.is_empty() {
                break; // no choice points: nothing to mutate
            }
            let mut mutated = best_choices.clone();
            let pos = (splitmix64(&mut rng) % mutated.len() as u64) as usize;
            let rec = &mut mutated[pos];
            if rec.arity > 1 {
                let shift = 1 + (splitmix64(&mut rng) % u64::from(rec.arity - 1)) as u32;
                rec.choice = (rec.choice + shift) % rec.arity;
            }
            mutated.truncate(pos + 1); // canonical tail past the mutation
            let run = run_schedule(sc, Box::new(ReplayOracle::new(mutated)));
            stats.note(sc, &run, &mut end_times);
            if let Some(score) = objective(&run, maximize) {
                if best_score.is_none() || score > best_score.unwrap() {
                    best_score = Some(score);
                    best_choices = run.choices.clone();
                }
            }
        }
    }
    stats.distinct_end_times = end_times.len();
    stats
}

// ---------------------------------------------------------------------------
// Shrinking and counterexamples
// ---------------------------------------------------------------------------

/// Does replaying `prefix` (canonical tail implied) take every decision it
/// names and reproduce `category`? The same test as [`Counterexample::replay`].
fn reproduces(sc: &Scenario, prefix: &[ChoiceRec], category: &str) -> bool {
    let run = run_schedule(sc, Box::new(ReplayOracle::new(prefix.to_vec())));
    run.outcome.category() == category && diverges(prefix, &run.choices).is_none()
}

/// The first index at which a run's recorded decisions `run` leave `prefix`.
fn diverges(prefix: &[ChoiceRec], run: &[ChoiceRec]) -> Option<usize> {
    (0..prefix.len()).find(|&i| run.get(i) != Some(&prefix[i]))
}

/// Shrink a failing decision sequence to a minimal divergent prefix that
/// still reproduces the outcome category: binary-search the shortest
/// reproducing prefix length, then greedily re-canonicalize (zero) each
/// remaining non-canonical choice, then drop the now-canonical tail.
pub fn shrink(sc: &Scenario, failing: &[ChoiceRec], category: &str) -> Vec<ChoiceRec> {
    // Binary search the minimal reproducing prefix length. Reproduction is
    // monotone in practice (a longer prefix of the same failing schedule
    // pins the same divergence); the final verification below re-checks.
    let (mut lo, mut hi) = (0usize, failing.len());
    if reproduces(sc, &failing[..0], category) {
        hi = 0;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reproduces(sc, &failing[..mid], category) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut prefix = failing[..hi].to_vec();
    // Greedy zeroing: canonicalize every choice that isn't load-bearing.
    for i in 0..prefix.len() {
        if prefix[i].choice == 0 {
            continue;
        }
        let saved = prefix[i].choice;
        prefix[i].choice = 0;
        if !reproduces(sc, &prefix, category) {
            prefix[i].choice = saved;
        }
    }
    // A canonical tail adds nothing: trim trailing zeros.
    while prefix.last().map(|r| r.choice) == Some(0) {
        prefix.pop();
    }
    if reproduces(sc, &prefix, category) {
        prefix
    } else {
        // Shrinking went non-monotone somewhere; fall back to the full
        // sequence, which reproduces by construction.
        failing.to_vec()
    }
}

fn shrink_finding(sc: &Scenario, run: &ScheduleRun, category: &'static str) -> Finding {
    let description = match &run.outcome {
        Outcome::Violation(vs) => vs.join("; "),
        Outcome::Deadlock(m) | Outcome::Error(m) => m.clone(),
        Outcome::Clean { .. } => String::new(),
    };
    Finding {
        category,
        description,
        choices: shrink(sc, &run.choices, category),
    }
}

/// A replayable counterexample token: everything needed to reproduce one
/// failing schedule deterministically, written as
/// `<scenario>.counterexample.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Counterexample {
    /// Token format version ([`SCHEMA_VERSION`]); replays refuse others.
    pub schema_version: u32,
    /// Scenario id the token belongs to.
    pub scenario: String,
    /// Strategy that found the schedule.
    pub strategy: String,
    /// Outcome category the replay must reproduce.
    pub category: String,
    /// Human-readable description of what failed.
    pub description: String,
    /// Fault-plan seed of the scenario at recording time; the replay
    /// asserts it matches the current scenario definition.
    pub fault_seed: u64,
    /// Base oracle seed of the exploration that found this schedule.
    pub oracle_seed: u64,
    /// The minimal divergent choice prefix as `[kind, arity, choice]`
    /// triples (canonical-0 tail implied).
    pub choices: Vec<Vec<u64>>,
}

impl Counterexample {
    /// Build a token from a shrunk finding.
    pub fn from_finding(sc: &Scenario, strategy: &str, oracle_seed: u64, f: &Finding) -> Self {
        Counterexample {
            schema_version: SCHEMA_VERSION,
            scenario: sc.id.to_string(),
            strategy: strategy.to_string(),
            category: f.category.to_string(),
            description: f.description.clone(),
            fault_seed: sc.net.faults.seed,
            oracle_seed,
            choices: f
                .choices
                .iter()
                .map(|r| vec![u64::from(r.kind), u64::from(r.arity), u64::from(r.choice)])
                .collect(),
        }
    }

    /// The choice prefix as oracle records, or which triple is malformed: a
    /// `[kind, arity, choice]` needs one of the five `simcore::ChoicePoint`
    /// kinds, an arity from 2 to `u32::MAX` and a choice below it.
    pub fn choice_recs(&self) -> Result<Vec<ChoiceRec>, String> {
        let rec = |(i, t): (usize, &Vec<u64>)| match **t {
            [kind @ 0..=4, arity @ 2..=0xffff_ffff, choice] if choice < arity => Ok(ChoiceRec {
                kind: kind as u8,
                arity: arity as u32,
                choice: choice as u32,
            }),
            _ => Err(format!("choices[{i}] {t:?} is malformed")),
        };
        self.choices.iter().enumerate().map(rec).collect()
    }

    /// Write the token under `dir` as `<scenario>.counterexample.json`.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.counterexample.json", self.scenario));
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// Replay the token against the current scenario registry.
    ///
    /// Fails (with a message) when the schema version or fault seed no
    /// longer match — the token describes a different configuration — when
    /// a choice triple is malformed, when the replayed schedule's decisions
    /// do not begin with the token's, or when it does not reproduce the
    /// recorded outcome category.
    pub fn replay(&self) -> Result<Outcome, String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (current {}): token from a different explorer version",
                self.schema_version, SCHEMA_VERSION
            ));
        }
        let sc = find_scenario(&self.scenario)
            .ok_or_else(|| format!("unknown scenario {:?}", self.scenario))?;
        if sc.net.faults.seed != self.fault_seed {
            return Err(format!(
                "fault seed {} but scenario {} now uses {}: configuration changed",
                self.fault_seed, sc.id, sc.net.faults.seed
            ));
        }
        let prefix = self.choice_recs()?;
        let run = run_schedule(&sc, Box::new(ReplayOracle::new(prefix.clone())));
        if let Some(i) = diverges(&prefix, &run.choices) {
            return Err(format!("the replay left the token's choices at index {i}"));
        }
        if run.outcome.category() == self.category {
            Ok(run.outcome)
        } else {
            Err(format!(
                "replay produced {:?}, token recorded {:?}",
                run.outcome.category(),
                self.category
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

/// Machine-readable summary written by `repro explore --json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ExploreReport {
    /// Report format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario explored.
    pub scenario: String,
    /// Strategy used.
    pub strategy: String,
    /// Schedule budget requested.
    pub budget: usize,
    /// Effective base oracle seed (random/guided strategies).
    pub oracle_seed: u64,
    /// Effective fault-plan seed of the scenario.
    pub fault_seed: u64,
    /// Schedules executed.
    pub schedules: usize,
    /// Whether the bounded space was fully enumerated (exhaustive only).
    pub complete: bool,
    /// Clean schedules.
    pub clean: usize,
    /// Deadlocked schedules.
    pub deadlocks: usize,
    /// Invariant-violating schedules.
    pub violations: usize,
    /// Otherwise-failed schedules.
    pub errors: usize,
    /// Distinct clean end times (schedule-space coverage signal).
    pub distinct_end_times: usize,
    /// Paths of counterexample tokens written.
    pub counterexamples: Vec<String>,
}

/// Entry point for `repro explore ...`; returns the process exit code
/// (0 = explored with no invariant violations / replay reproduced,
/// 1 = invariant violations found or replay failed, 2 = usage error).
pub fn cli_main(args: &[String]) -> i32 {
    let mut scenario = String::from("eager2");
    let mut scenario_set = false;
    let mut strategy = String::from("random");
    let mut budget = 256usize;
    let mut seed = 1u64;
    let mut out_dir = PathBuf::from(".");
    let mut preemptions = 2usize;
    let mut replay: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut list = false;

    let usage = "usage: repro explore [<scenario>|list] [--strategy exhaustive|random|guided] \
                 [--budget N] [--seed N] [--preemptions N] [--out DIR] [--json PATH] \
                 [--replay TOKEN.json]";

    fn int<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag} expects an integer"))
    }
    let args = split_eq_flags(args);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || value(&mut it, arg, "a value");
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "list" => list = true,
                "--strategy" => strategy = val()?.to_string(),
                "--budget" => budget = int(arg, val()?)?,
                "--seed" => seed = int(arg, val()?)?,
                "--preemptions" => preemptions = int(arg, val()?)?,
                "--out" => out_dir = PathBuf::from(val()?),
                "--json" => json = Some(PathBuf::from(val()?)),
                "--replay" => replay = Some(PathBuf::from(val()?)),
                a if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
                a => {
                    if scenario_set {
                        return Err(format!(
                            "more than one scenario given ({scenario:?}, {a:?})"
                        ));
                    }
                    scenario = a.to_string();
                    scenario_set = true;
                }
            }
            Ok(())
        })();
        if let Err(msg) = r {
            eprintln!("repro explore: {msg}\n{usage}");
            return 2;
        }
    }

    if list {
        println!("scenarios:");
        for s in scenarios() {
            println!("  {:10} {}", s.id, s.about);
        }
        println!("strategies: exhaustive, random, guided");
        return 0;
    }

    if let Some(path) = replay {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("repro explore: cannot read {}: {e}", path.display());
                return 2;
            }
        };
        let token: Counterexample = match serde_json::from_str(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "repro explore: {} is not a counterexample token: {e}",
                    path.display()
                );
                return 2;
            }
        };
        if let Err(msg) = token.choice_recs() {
            eprintln!("repro explore: {}: {msg}", path.display());
            return 2;
        }
        return match token.replay() {
            Ok(outcome) => {
                println!(
                    "replayed {}: reproduced {} ({})",
                    path.display(),
                    token.category,
                    match outcome {
                        Outcome::Deadlock(m) | Outcome::Error(m) => m,
                        Outcome::Violation(vs) => vs.join("; "),
                        Outcome::Clean { end_time, .. } => format!("end_time {end_time}"),
                    }
                );
                0
            }
            Err(msg) => {
                eprintln!("repro explore: replay failed: {msg}");
                1
            }
        };
    }

    let Some(sc) = find_scenario(&scenario) else {
        eprintln!("repro explore: unknown scenario {scenario:?} (see `repro explore list`)");
        return 2;
    };

    let stats = match strategy.as_str() {
        "exhaustive" => explore_exhaustive(&sc, budget, preemptions),
        "random" => explore_random(&sc, budget, seed),
        "guided" => explore_guided(&sc, budget, seed),
        other => {
            eprintln!("repro explore: unknown strategy {other:?}\n{usage}");
            return 2;
        }
    };

    let mut counterexamples = Vec::new();
    for finding in [&stats.first_violation, &stats.first_deadlock]
        .into_iter()
        .flatten()
    {
        let token = Counterexample::from_finding(&sc, &strategy, seed, finding);
        match token.save(&out_dir) {
            Ok(path) => {
                println!(
                    "counterexample ({}, {} choice(s)): {}",
                    finding.category,
                    finding.choices.len(),
                    path.display()
                );
                counterexamples.push(path.display().to_string());
            }
            Err(e) => {
                eprintln!("repro explore: cannot write counterexample: {e}");
                return 2;
            }
        }
    }

    println!(
        "explored {scenario} with {strategy}: {} schedule(s){} — {} clean ({} distinct end times), \
         {} deadlock(s), {} violation(s), {} error(s)",
        stats.schedules,
        if stats.complete {
            " (space fully enumerated)"
        } else {
            ""
        },
        stats.clean,
        stats.distinct_end_times,
        stats.deadlocks,
        stats.violations,
        stats.errors,
    );
    if let Some(f) = &stats.first_deadlock {
        println!("first deadlock: {}", f.description);
    }
    if let Some(f) = &stats.first_violation {
        println!("first violation: {}", f.description);
    }

    if let Some(path) = json {
        let report = ExploreReport {
            schema_version: SCHEMA_VERSION,
            scenario: sc.id.to_string(),
            strategy: strategy.clone(),
            budget,
            oracle_seed: seed,
            fault_seed: sc.net.faults.seed,
            schedules: stats.schedules,
            complete: stats.complete,
            clean: stats.clean,
            deadlocks: stats.deadlocks,
            violations: stats.violations,
            errors: stats.errors,
            distinct_end_times: stats.distinct_end_times,
            counterexamples,
        };
        match serde_json::to_string_pretty(&report) {
            Ok(j) => {
                if let Err(e) = std::fs::write(&path, j) {
                    eprintln!("repro explore: cannot write {}: {e}", path.display());
                    return 2;
                }
                eprintln!("wrote {}", path.display());
            }
            Err(e) => {
                eprintln!("repro explore: cannot serialize report: {e}");
                return 2;
            }
        }
    }

    if stats.violations > 0 {
        1
    } else {
        0
    }
}
