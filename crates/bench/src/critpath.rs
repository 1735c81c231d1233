//! Critical-path artifacts for `repro --critical-path <dir>`.
//!
//! Folds captured [`TraceBundle`]s through `overlap-core`'s
//! [attribution](overlap_core::attribution) layer into the three artifacts
//! the CLI exports per harness:
//!
//! * a per-rank **wait-state breakdown** ([`ScopeWaitStates`]) merged into
//!   the `--json` run report,
//! * a **collapsed-stack** file (`<id>.critpath.folded`, one
//!   `frame;frame;... weight` line per dominant wait chain — feed to any
//!   flamegraph renderer),
//! * a structured **attribution artifact** (`<id>.attribution.json`) with
//!   the per-transfer cause records and the instrumentation self-overhead
//!   meter.
//!
//! The artifact *types* and construction live in
//! [`overlap_core::artifact`], shared with the streaming server
//! (`overlapd`) so batch and stream emit byte-identical files; this module
//! re-exports the types and lends captured [`TraceBundle`]s to the shared
//! builders as [`ScopeView`]s.
//!
//! Everything here is a pure function of the captured traces (virtual time
//! only), so all artifacts are byte-identical across runs and `--jobs`
//! values. Host wall-clock — the one nondeterministic quantity — is
//! reported by the CLI on stderr only.

use overlap_core::artifact::{self, ScopeView};
use overlap_core::trace::TraceBundle;

pub use overlap_core::artifact::{
    AttributionArtifact, OverheadMeter, RankAttributionJson, RankWaitStates, ScopeAttributionJson,
    ScopeWaitStates,
};

fn views<'a>(scoped: &'a [(String, &'a TraceBundle)]) -> Vec<ScopeView<'a>> {
    scoped.iter().map(|(s, b)| ScopeView::of(s, b)).collect()
}

/// Summarize one scope's bundle into the per-rank wait-state breakdown for
/// the `--json` report.
pub fn wait_states(scope: &str, bundle: &TraceBundle) -> ScopeWaitStates {
    artifact::wait_states(&[ScopeView::of(scope, bundle)]).remove(0)
}

/// Build the attribution artifact for one harness from its scope bundles
/// (scope order), accumulating the self-overhead meter as it goes.
pub fn attribution_artifact(id: &str, scoped: &[(String, &TraceBundle)]) -> AttributionArtifact {
    artifact::attribution_artifact(id, &views(scoped))
}

/// Collapsed-stack (flamegraph) text for one harness: each scope's dominant
/// wait chains concatenated in scope order. Lines are
/// `scope;rank N;<call>;<cause> <ns>`.
pub fn collapsed(scoped: &[(String, &TraceBundle)]) -> String {
    artifact::collapsed(&views(scoped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_core::attribution::{WaitCause, WaitInterval};
    use overlap_core::bounds::XferCase;
    use overlap_core::trace::{BoundRecord, RankTrace};
    use overlap_core::{Event, EventKind};

    fn bundle() -> TraceBundle {
        TraceBundle {
            scope: "t/a".into(),
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![
                    Event::new(0, EventKind::CallEnter { name: "MPI_Recv" }),
                    Event::new(500, EventKind::XferEnd { id: 1, bytes: 256 }),
                    Event::new(500, EventKind::CallExit),
                ],
                bounds: vec![BoundRecord {
                    id: Some(1),
                    bytes: 256,
                    begin_t: Some(0),
                    end_t: 500,
                    xfer_time: 300,
                    min: 0,
                    max: 0,
                    case: XferCase::SameCall,
                    flagged: false,
                    clamped: false,
                }],
                waits: vec![WaitInterval {
                    start: 100,
                    end: 400,
                    cause: WaitCause::LateSender,
                    xfer: Some(1),
                }],
            }],
            extras: vec![],
        }
    }

    #[test]
    fn wait_states_reconcile_per_rank() {
        let b = bundle();
        let ws = wait_states("t/a", &b);
        assert_eq!(ws.ranks.len(), 1);
        let r = &ws.ranks[0];
        assert_eq!(r.nonoverlap_ns, 300);
        let total: u64 = r.causes.iter().map(|c| c.ns).sum();
        assert_eq!(total, r.nonoverlap_ns);
        assert!(r.causes.iter().any(|c| c.cause == WaitCause::LateSender));
    }

    #[test]
    fn artifact_carries_overhead_meter() {
        let b = bundle();
        let scoped = vec![("t/a".to_string(), &b)];
        let art = attribution_artifact("t", &scoped);
        assert_eq!(art.overhead.scopes, 1);
        assert_eq!(art.overhead.events, 3);
        assert_eq!(art.overhead.bound_records, 1);
        assert_eq!(art.overhead.wait_intervals, 1);
        assert_eq!(art.overhead.attributed_ns, 300);
        assert_eq!(art.scopes[0].ranks[0].transfers[0].nonoverlap, 300);
    }

    #[test]
    fn collapsed_concatenates_scopes_in_order() {
        let b = bundle();
        let scoped = vec![("t/a".to_string(), &b)];
        let s = collapsed(&scoped);
        assert_eq!(s, "t/a;rank 0;MPI_Recv;late_sender 300\n");
    }
}
