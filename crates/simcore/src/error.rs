//! Simulation error types.

use std::fmt;

/// Per-rank diagnostic taken when a deadlock is detected.
///
/// Built at that moment, not before: the engine asks each stuck rank once,
/// and the library running on it answers through the closure it parked with
/// ([`crate::RankCtx::park_with`]). A rank parked with plain
/// [`crate::RankCtx::park`] reports `None` everywhere.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankDiag {
    /// The stuck rank (filled in by [`crate::RankCtx::park_with`]).
    pub rank: usize,
    /// What the rank says it is blocked on.
    pub blocked_on: Option<String>,
    /// The last library call the rank entered.
    pub last_call: Option<String>,
    /// Structured wait-for edge: the peer rank this one is waiting on, if
    /// the library could name a single one. A [`SimError::Deadlock`] report
    /// walks these into a `rank -> request -> rank` cycle.
    pub waits_on_rank: Option<usize>,
    /// The library-level request id the rank is blocked in, if any.
    pub waits_on_req: Option<u64>,
}

/// Walk the structured wait-for edges of a deadlock diagnostic and return
/// the first cycle found, as the list of stuck ranks in edge order (each
/// entry waits on the next; the last waits on the first), rotated so the
/// smallest rank leads. The walk order and the rotation make the result a
/// pure function of the diagnostics — counterexample tokens embedding the
/// rendered cycle stay byte-stable across runs.
///
/// Returns `None` when the diagnostics carry no cycle — e.g. the library
/// never reported structured edges, or a rank waits on a peer that is still
/// making progress.
fn deadlock_cycle(diags: &[RankDiag]) -> Option<Vec<usize>> {
    use std::collections::BTreeMap;
    let edges: BTreeMap<usize, usize> = diags
        .iter()
        .filter_map(|d| d.waits_on_rank.map(|p| (d.rank, p)))
        .collect();
    // The wait-for graph is functional (≤ 1 outgoing edge per rank), so a
    // simple colored walk finds a cycle in O(n).
    let mut color: BTreeMap<usize, u8> = BTreeMap::new(); // 1 = on path, 2 = done
    for &start in edges.keys() {
        if color.contains_key(&start) {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            match color.get(&cur) {
                Some(1) => {
                    // Found a cycle: slice the path from `cur`'s position
                    // and rotate its smallest rank to the front.
                    let pos = path.iter().position(|&r| r == cur).unwrap();
                    let mut cycle = path[pos..].to_vec();
                    let lo = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap();
                    cycle.rotate_left(lo);
                    return Some(cycle);
                }
                Some(_) => break,
                None => {}
            }
            color.insert(cur, 1);
            path.push(cur);
            match edges.get(&cur) {
                Some(&next) => cur = next,
                None => break,
            }
        }
        for r in path {
            color.insert(r, 2);
        }
    }
    None
}

/// Terminal failures of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while one or more ranks were still parked:
    /// no future event can ever wake them. This is the simulated analogue of
    /// an MPI deadlock (e.g. two blocking rendezvous sends to each other).
    Deadlock {
        /// Ranks that were parked when the queue drained.
        parked: Vec<usize>,
        /// Virtual time at which the deadlock was detected.
        at: crate::Time,
        /// One diagnostic snapshot per parked rank, in `parked` order.
        diags: Vec<RankDiag>,
    },
    /// The host OS refused to spawn a rank's worker thread.
    SpawnFailed {
        /// The rank whose thread could not be created.
        rank: usize,
        /// The OS error.
        message: String,
    },
    /// Engine invariant violation: a rank reported `Done` without handing
    /// over its activity log.
    MissingRankLog {
        /// The offending rank.
        rank: usize,
    },
    /// A rank's body panicked; the message is the stringified payload.
    RankPanic {
        /// The panicking rank.
        rank: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// More events were processed than [`crate::SimOpts::max_events`] allows
    /// (guards against livelock in buggy protocols).
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

/// Render a wait-for cycle as `rank A -> req X -> rank B -> ... -> rank A`,
/// interleaving the request id each rank is blocked in when known.
fn render_cycle(cycle: &[usize], diags: &[RankDiag]) -> String {
    use fmt::Write as _;
    let mut s = String::new();
    for &r in cycle {
        let _ = write!(s, "rank {r}");
        match diags
            .iter()
            .find(|d| d.rank == r)
            .and_then(|d| d.waits_on_req)
        {
            Some(req) => {
                let _ = write!(s, " -> req {req} -> ");
            }
            None => s.push_str(" -> "),
        }
    }
    let _ = write!(s, "rank {}", cycle[0]);
    s
}

impl SimError {
    /// Compact single-line rendering, suitable for a CLI diagnostic. For
    /// [`SimError::Deadlock`] this includes the wait-for cycle
    /// (`rank -> request -> rank`) when the structured diagnostics carry
    /// one; other variants render as their normal `Display`.
    pub fn one_line(&self) -> String {
        match self {
            SimError::Deadlock { parked, at, diags } => match deadlock_cycle(diags) {
                Some(cycle) => format!(
                    "simulated deadlock at t={}ns: wait-for cycle {}",
                    at,
                    render_cycle(&cycle, diags)
                ),
                None => format!(
                    "simulated deadlock at t={}ns: ranks {:?} are parked with no pending events",
                    at, parked
                ),
            },
            other => other.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { parked, at, diags } => {
                write!(
                    f,
                    "simulated deadlock at t={}ns: ranks {:?} are parked with no pending events",
                    at, parked
                )?;
                if let Some(cycle) = deadlock_cycle(diags) {
                    write!(f, "\n  wait-for cycle: {}", render_cycle(&cycle, diags))?;
                }
                for d in diags {
                    write!(
                        f,
                        "\n  rank {}: blocked on {}",
                        d.rank,
                        d.blocked_on.as_deref().unwrap_or("<no note>")
                    )?;
                    if let Some(call) = &d.last_call {
                        write!(f, " (last call {call})")?;
                    }
                }
                Ok(())
            }
            SimError::SpawnFailed { rank, message } => {
                write!(f, "failed to spawn thread for rank {}: {}", rank, message)
            }
            SimError::MissingRankLog { rank } => {
                write!(f, "rank {} finished without an activity log", rank)
            }
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {} panicked: {}", rank, message)
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit exceeded ({} events)", limit)
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rank: usize, waits_on: Option<usize>, req: Option<u64>) -> RankDiag {
        RankDiag {
            rank,
            waits_on_rank: waits_on,
            waits_on_req: req,
            ..Default::default()
        }
    }

    #[test]
    fn two_rank_cycle_detected_and_rendered() {
        let diags = vec![diag(0, Some(1), Some(5)), diag(1, Some(0), Some(9))];
        let cycle = deadlock_cycle(&diags).unwrap();
        assert_eq!(cycle, vec![0, 1], "smallest rank leads the cycle");
        let err = SimError::Deadlock {
            parked: vec![0, 1],
            at: 42,
            diags,
        };
        let line = err.one_line();
        assert!(line.contains("wait-for cycle"), "{line}");
        assert!(
            line.contains("rank 0 -> req 5 -> rank 1 -> req 9 -> rank 0"),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn chain_without_cycle_reports_none() {
        // 0 -> 1 -> 2, and 2 waits on nobody: no cycle.
        let diags = vec![
            diag(0, Some(1), None),
            diag(1, Some(2), None),
            diag(2, None, None),
        ];
        assert_eq!(deadlock_cycle(&diags), None);
        let err = SimError::Deadlock {
            parked: vec![0, 1, 2],
            at: 7,
            diags,
        };
        assert!(err.one_line().contains("parked with no pending events"));
    }

    #[test]
    fn self_cycle_detected() {
        let diags = vec![diag(3, Some(3), Some(1))];
        assert_eq!(deadlock_cycle(&diags), Some(vec![3]));
    }

    #[test]
    fn partial_cycle_among_chain_found() {
        // 0 -> 1 -> 2 -> 1: cycle is [1, 2].
        let diags = vec![
            diag(0, Some(1), None),
            diag(1, Some(2), None),
            diag(2, Some(1), None),
        ];
        let cycle = deadlock_cycle(&diags).unwrap();
        assert!(cycle == vec![1, 2] || cycle == vec![2, 1]);
    }
}
