//! Schedule oracles: pluggable control over the engine's nondeterminism
//! points.
//!
//! The simulator is byte-for-byte deterministic: every tie the timing wheel
//! could break arbitrarily — same-timestamp event order, inbox drain order,
//! token dispatch order — is resolved by a fixed `(time, seq)` policy.
//! That fixed policy is *one* schedule out of many a real system could
//! exhibit. A [`ScheduleOracle`] turns each such tie-break into an explicit
//! choice point: the engine (and the network/MPI layers built on it) ask the
//! oracle which of `n` legal alternatives to take, so an explorer can
//! systematically search the schedule space instead of sampling one
//! interleaving.
//!
//! Five kinds of choice point exist (see [`ChoicePoint`]):
//!
//! * **Event ties** — several queue entries are due at the same virtual
//!   time; the oracle picks which runs next. Choice `0` is the canonical
//!   `seq` order, so inbox drain order and token-vs-callback interleaving
//!   are all covered by this one point: any same-time permutation is
//!   reachable.
//! * **Progress polls** — a library progress engine has more than one event
//!   source ready (e.g. a NIC completion queue and an RX queue) and the
//!   oracle picks which to drain first.
//! * **Fault jitter** — a fault plan allows a bounded timing window for a
//!   perturbation and the oracle picks the step within the window.
//! * **Routing** — a hierarchical topology offers several equal-cost paths
//!   for a message (ECMP / adaptive routing) and the oracle picks which one
//!   it takes, so the explorer can search routing nondeterminism too.
//! * **Progress wakes** — an asynchronous progress fiber (the `async-rank`
//!   progress model) reaches a poll boundary with host events pending and
//!   the oracle picks whether it runs now or defers to the next boundary,
//!   so the explorer can search async-progress interleavings.
//!
//! Every decision is recorded by the [`OracleHandle`] wrapper as a
//! [`ChoiceRec`], so any explored schedule can be replayed exactly with
//! [`ReplayOracle`] and shrunk to a minimal divergent prefix. Replaying the
//! empty script picks choice `0` everywhere and reproduces the default
//! schedule byte-identically.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::Time;

/// One nondeterminism point presented to a [`ScheduleOracle`].
///
/// Every variant carries `n`, the number of legal alternatives; the oracle
/// must answer in `0..n` (answers are clamped defensively). Choice `0` is
/// always the canonical alternative — the one the fixed policy would take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoicePoint {
    /// `n` queue entries are due at the same virtual `time`; pick which runs
    /// next. `0` is the lowest sequence number (canonical FIFO order).
    EventTie {
        /// The shared due time of the tied entries.
        time: Time,
        /// Number of tied entries.
        n: usize,
    },
    /// A progress engine on `rank` has `n` event sources ready; pick which
    /// to drain first. `0` is the canonical source (completion queue).
    ProgressPoll {
        /// The rank whose progress engine is polling.
        rank: usize,
        /// Number of ready sources.
        n: usize,
    },
    /// A fault plan allows a bounded timing window on the `src → dst` link;
    /// pick one of `n` discrete steps within it. `0` means no perturbation.
    FaultJitter {
        /// Sending rank of the affected packet.
        src: usize,
        /// Receiving rank of the affected packet.
        dst: usize,
        /// Number of discrete jitter steps (including the zero step).
        n: usize,
    },
    /// A topology offers `n` equal-cost paths from `src` to `dst` (ECMP /
    /// adaptive routing); pick which one this message takes. `0` is the
    /// canonical deterministic flow-hash pick.
    Route {
        /// Sending rank of the message.
        src: usize,
        /// Receiving rank of the message.
        dst: usize,
        /// Number of equal-cost candidate paths.
        n: usize,
    },
    /// An asynchronous progress fiber on `rank` hit a poll boundary with
    /// host events pending; pick whether it drains them now (`0`, the
    /// canonical alternative) or defers to the next boundary (`1`).
    ProgressWake {
        /// The rank whose progress fiber woke.
        rank: usize,
        /// Number of alternatives (run-now plus defer steps).
        n: usize,
    },
}

impl ChoicePoint {
    /// Number of legal alternatives at this point.
    fn arity(&self) -> usize {
        match *self {
            ChoicePoint::EventTie { n, .. }
            | ChoicePoint::ProgressPoll { n, .. }
            | ChoicePoint::FaultJitter { n, .. }
            | ChoicePoint::Route { n, .. }
            | ChoicePoint::ProgressWake { n, .. } => n,
        }
    }

    /// Stable small integer tag identifying the kind of point (used in
    /// recorded traces and replay tokens).
    pub(crate) fn kind(&self) -> u8 {
        match self {
            ChoicePoint::EventTie { .. } => 0,
            ChoicePoint::ProgressPoll { .. } => 1,
            ChoicePoint::FaultJitter { .. } => 2,
            ChoicePoint::Route { .. } => 3,
            ChoicePoint::ProgressWake { .. } => 4,
        }
    }
}

/// A recorded schedule decision: which alternative was taken at one
/// [`ChoicePoint`], along with the point's kind tag and arity so a replay
/// can detect divergence from the run that produced the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoiceRec {
    /// Kind tag of the point (its variant's position in [`ChoicePoint`]).
    pub kind: u8,
    /// Number of alternatives that were available.
    pub arity: u32,
    /// The alternative taken, `0..arity`.
    pub choice: u32,
}

/// A policy answering schedule choice points.
///
/// Implementations must be deterministic functions of their own state and
/// the sequence of points presented: the whole simulation is logically
/// single-threaded, so the point sequence is itself a deterministic function
/// of the answers, which is what makes recorded traces replayable.
pub trait ScheduleOracle: Send {
    /// Answer `point` with an index in `0..point.arity()`.
    fn choose(&mut self, point: ChoicePoint) -> usize;
}

/// Seeded random-permutation oracle: answers every point uniformly at
/// random from a splitmix64 stream, so one seed identifies one schedule.
#[derive(Debug, Clone)]
pub struct RandomOracle {
    state: u64,
}

impl RandomOracle {
    /// Oracle producing the schedule identified by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomOracle {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl ScheduleOracle for RandomOracle {
    fn choose(&mut self, point: ChoicePoint) -> usize {
        (splitmix64(&mut self.state) % point.arity().max(1) as u64) as usize
    }
}

/// One step of the splitmix64 generator: advance `state` by the golden
/// gamma and return its finalizer mix. The workspace's one copy — every
/// seeded stream (schedules, fault draws, ECMP spread, background
/// de-phasing) is a sequence of these; as a stateless hash of `x`, step a
/// throwaway copy of `x`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replays a recorded decision prefix, then falls back to canonical choice
/// `0` for every point past the end of the script.
///
/// If a presented point's kind or arity disagrees with the scripted record,
/// the replay has diverged (the script was produced by a different
/// configuration); the oracle answers canonically.
#[derive(Debug, Clone)]
pub struct ReplayOracle {
    script: Vec<ChoiceRec>,
    cursor: usize,
}

impl ReplayOracle {
    /// Oracle replaying `script` from the start.
    pub fn new(script: Vec<ChoiceRec>) -> Self {
        ReplayOracle { script, cursor: 0 }
    }
}

impl ScheduleOracle for ReplayOracle {
    fn choose(&mut self, point: ChoicePoint) -> usize {
        let Some(rec) = self.script.get(self.cursor).copied() else {
            return 0;
        };
        self.cursor += 1;
        if rec.kind != point.kind() || rec.arity as usize != point.arity() {
            return 0;
        }
        rec.choice as usize
    }
}

struct OracleCell {
    oracle: Box<dyn ScheduleOracle>,
    trace: Vec<ChoiceRec>,
}

/// Shared, recording wrapper around a [`ScheduleOracle`], installable into a
/// simulation via [`crate::EngineHandle::set_oracle`].
///
/// Every consulted point is appended to an internal trace of
/// [`ChoiceRec`]s, so after a run the exact schedule can be read back with
/// [`OracleHandle::trace`] and replayed or shrunk. Points with fewer than
/// two alternatives are answered `0` without consulting (or recording) the
/// oracle — they are not choices.
#[derive(Clone)]
pub struct OracleHandle {
    cell: Arc<Mutex<OracleCell>>,
}

impl OracleHandle {
    /// Wrap `oracle` for installation into a simulation.
    pub fn new(oracle: Box<dyn ScheduleOracle>) -> Self {
        OracleHandle {
            cell: Arc::new(Mutex::new(OracleCell {
                oracle,
                trace: Vec::new(),
            })),
        }
    }

    /// Present `point` to the wrapped oracle, record the decision, and
    /// return it (clamped to the point's arity).
    pub fn choose(&self, point: ChoicePoint) -> usize {
        let n = point.arity();
        if n <= 1 {
            return 0;
        }
        let mut cell = self.cell.lock();
        let c = cell.oracle.choose(point).min(n - 1);
        cell.trace.push(ChoiceRec {
            kind: point.kind(),
            arity: n as u32,
            choice: c as u32,
        });
        c
    }

    /// The decisions recorded so far, in consultation order.
    pub fn trace(&self) -> Vec<ChoiceRec> {
        self.cell.lock().trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_always_picks_zero() {
        let h = OracleHandle::new(Box::new(ReplayOracle::new(Vec::new())));
        for n in 2..6 {
            assert_eq!(h.choose(ChoicePoint::EventTie { time: 7, n }), 0);
        }
        assert_eq!(h.trace().len(), 4);
        assert!(h.trace().iter().all(|r| r.choice == 0));
    }

    #[test]
    fn unary_points_are_not_recorded() {
        let h = OracleHandle::new(Box::new(ReplayOracle::new(Vec::new())));
        assert_eq!(h.choose(ChoicePoint::EventTie { time: 0, n: 1 }), 0);
        assert_eq!(h.choose(ChoicePoint::EventTie { time: 0, n: 0 }), 0);
        assert!(h.trace().is_empty());
    }

    #[test]
    fn random_oracle_is_seed_deterministic_and_in_range() {
        let run = |seed| {
            let h = OracleHandle::new(Box::new(RandomOracle::new(seed)));
            (0..50)
                .map(|i| {
                    h.choose(ChoicePoint::EventTie {
                        time: i,
                        n: 2 + (i as usize % 5),
                    })
                })
                .collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42));
        assert_ne!(a, run(43));
        for (i, &c) in a.iter().enumerate() {
            assert!(c < 2 + (i % 5));
        }
    }

    #[test]
    fn replay_reproduces_and_pads_with_canonical() {
        let h = OracleHandle::new(Box::new(RandomOracle::new(9)));
        let points: Vec<ChoicePoint> = (0..10)
            .map(|i| ChoicePoint::EventTie { time: i, n: 3 })
            .collect();
        let original: Vec<usize> = points.iter().map(|&p| h.choose(p)).collect();
        let replay = OracleHandle::new(Box::new(ReplayOracle::new(h.trace())));
        let replayed: Vec<usize> = points.iter().map(|&p| replay.choose(p)).collect();
        assert_eq!(original, replayed);
        // Points past the script end fall back to canonical 0.
        assert_eq!(replay.choose(ChoicePoint::EventTie { time: 99, n: 4 }), 0);
    }

    #[test]
    fn replay_detects_arity_divergence() {
        let mut r = ReplayOracle::new(vec![ChoiceRec {
            kind: 0,
            arity: 3,
            choice: 2,
        }]);
        // The script says choice 2 of 3; the point has 5: answered canonically.
        assert_eq!(r.choose(ChoicePoint::EventTie { time: 0, n: 5 }), 0);
    }
}
