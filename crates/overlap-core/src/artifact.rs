//! Serialized attribution-artifact shapes shared by the batch CLI and the
//! streaming server.
//!
//! `repro --critical-path <dir>` and `overlapd`'s on-demand artifact
//! endpoints must emit **byte-identical** files for the same event stream,
//! so the types (field names, field order, omission rules) and the builders
//! live here, beneath both consumers. The batch side
//! (`bench::critpath`) folds captured [`crate::trace::TraceBundle`]s into
//! [`RankArtifactInput`]s; the streaming side ([`crate::stream`]) maintains
//! the same inputs incrementally — both then run the same construction.
//!
//! Everything here is a pure function of its inputs (virtual time only):
//! byte-identical across runs, worker counts, and batch vs. stream.

use crate::attribution::{RankAttribution, WaitCause};

/// Total attributed nanoseconds for one cause (stable label from
/// [`WaitCause::label`]).
#[derive(Debug, Clone, serde::Serialize)]
pub struct CauseTotal {
    /// Cause label (e.g. `"late_sender"`).
    pub cause: String,
    /// Attributed nanoseconds.
    pub ns: u64,
}

/// One rank's wait-state summary within a scope.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RankWaitStates {
    /// Rank index.
    pub rank: usize,
    /// Blocking intervals the library classified.
    pub wait_intervals: usize,
    /// Σ provably-non-overlapped transfer time, ns (`xfer_time −
    /// max_overlap` over all transfers).
    pub nonoverlap_ns: u64,
    /// Per-cause attributed totals in canonical cause order, zero causes
    /// omitted. Sums to `nonoverlap_ns`.
    pub causes: Vec<CauseTotal>,
}

/// Per-rank wait-state breakdown of one traced scope, as merged into the
/// `--json` run report and served live by the streaming server.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScopeWaitStates {
    /// Scope label (`"<harness>/<point>"`).
    pub scope: String,
    /// Per-rank summaries, rank order.
    pub ranks: Vec<RankWaitStates>,
}

/// One cause slice of a transfer's breakdown (serialized form).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SliceJson {
    /// Cause label.
    pub cause: String,
    /// Attributed nanoseconds.
    pub ns: u64,
}

/// One per-transfer cause record (serialized form of
/// [`crate::attribution::CauseRecord`]).
#[derive(Debug, Clone, serde::Serialize)]
pub struct TransferJson {
    /// Transfer id, if the instrumentation saw one.
    pub id: Option<u64>,
    /// Payload bytes.
    pub bytes: u64,
    /// A-priori wire time, ns.
    pub xfer_time: u64,
    /// Upper overlap bound, ns.
    pub max_overlap: u64,
    /// Non-overlapped time the breakdown explains, ns.
    pub nonoverlap: u64,
    /// Fault-disturbed transfer.
    pub flagged: bool,
    /// Cause breakdown; sums to `nonoverlap` exactly.
    pub breakdown: Vec<SliceJson>,
}

/// One rank's full attribution inside the artifact file.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RankAttributionJson {
    /// Rank index.
    pub rank: usize,
    /// Blocking intervals the library classified.
    pub wait_intervals: usize,
    /// Per-transfer records, close order.
    pub transfers: Vec<TransferJson>,
}

/// One scope's section of the artifact file.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScopeAttributionJson {
    /// Scope label.
    pub scope: String,
    /// Per-rank attributions.
    pub ranks: Vec<RankAttributionJson>,
}

/// Instrumentation self-overhead meter: what the observability layer itself
/// cost, in deterministic units (counts and virtual-time nanoseconds — host
/// wall-clock goes to stderr, not into artifacts).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct OverheadMeter {
    /// Traced scopes folded.
    pub scopes: usize,
    /// Rank traces folded.
    pub ranks: usize,
    /// Raw instrumentation events captured.
    pub events: u64,
    /// Per-transfer bound records derived.
    pub bound_records: u64,
    /// Wait intervals classified and recorded.
    pub wait_intervals: u64,
    /// Σ attributed non-overlap across all transfers, ns.
    pub attributed_ns: u64,
}

/// The `<id>.attribution.json` artifact: per-scope, per-rank, per-transfer
/// cause records plus the self-overhead meter.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AttributionArtifact {
    /// Harness id the artifact covers.
    pub id: String,
    /// Per-scope attributions, scope order.
    pub scopes: Vec<ScopeAttributionJson>,
    /// What the instrumentation itself cost.
    pub overhead: OverheadMeter,
}

/// One rank's contribution to [`attribution_artifact`]: its computed
/// attribution plus the raw-event count (the one overhead-meter input the
/// attribution itself does not carry).
#[derive(Debug, Clone)]
pub struct RankArtifactInput {
    /// Raw instrumentation events captured for this rank.
    pub events: u64,
    /// The rank's attribution (batch: [`crate::attribution::attribute`];
    /// stream: the same fold over the parts the session maintains).
    pub attribution: RankAttribution,
}

/// Summarize one rank's attribution into its wait-state breakdown row.
pub fn rank_wait_states(attr: &RankAttribution) -> RankWaitStates {
    let causes = WaitCause::ALL
        .iter()
        .filter_map(|c| {
            attr.totals.get(c.label()).map(|&ns| CauseTotal {
                cause: c.label().to_string(),
                ns,
            })
        })
        .collect();
    RankWaitStates {
        rank: attr.rank,
        wait_intervals: attr.wait_intervals,
        nonoverlap_ns: attr.total_nonoverlap(),
        causes,
    }
}

/// Serialize one rank's attribution records into the artifact shape.
pub fn rank_attribution_json(attr: &RankAttribution) -> RankAttributionJson {
    RankAttributionJson {
        rank: attr.rank,
        wait_intervals: attr.wait_intervals,
        transfers: attr
            .records
            .iter()
            .map(|r| TransferJson {
                id: r.id,
                bytes: r.bytes,
                xfer_time: r.xfer_time,
                max_overlap: r.max_overlap,
                nonoverlap: r.nonoverlap,
                flagged: r.flagged,
                breakdown: r
                    .breakdown
                    .iter()
                    .map(|s| SliceJson {
                        cause: s.cause.label().to_string(),
                        ns: s.ns,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Build the attribution artifact for one harness from per-scope rank
/// inputs (scope order, ranks in rank order), accumulating the
/// self-overhead meter as it goes.
pub fn attribution_artifact(
    id: &str,
    scoped: &[(String, Vec<RankArtifactInput>)],
) -> AttributionArtifact {
    let mut overhead = OverheadMeter::default();
    let scopes = scoped
        .iter()
        .map(|(scope, ranks)| {
            overhead.scopes += 1;
            let ranks = ranks
                .iter()
                .map(|input| {
                    let attr = &input.attribution;
                    overhead.ranks += 1;
                    overhead.events += input.events;
                    overhead.bound_records += attr.records.len() as u64;
                    overhead.wait_intervals += attr.wait_intervals as u64;
                    overhead.attributed_ns += attr.total_nonoverlap();
                    rank_attribution_json(attr)
                })
                .collect();
            ScopeAttributionJson {
                scope: scope.clone(),
                ranks,
            }
        })
        .collect();
    AttributionArtifact {
        id: id.to_string(),
        scopes,
        overhead,
    }
}
