//! Harness for ARMCI programs on the simulated cluster.

use overlap_core::{OverlapReport, RecorderOpts, XferTimeTable};
use simcore::{ActivityLog, SimError, SimOpts, Time};
use simnet::{Cluster, NetConfig, TransferRecord};

use crate::armci::Armci;

/// Result of an ARMCI run.
#[derive(Debug)]
pub struct ArmciRunOutcome {
    /// Per-rank overlap reports.
    pub reports: Vec<OverlapReport>,
    /// Ground-truth transfer records.
    pub transfers: Vec<TransferRecord>,
    /// Ground-truth activity logs.
    activity: Vec<ActivityLog>,
    /// Per-rank time-resolved traces (empty unless `RecorderOpts::trace`
    /// was set; ordered by rank when present).
    pub traces: Vec<overlap_core::trace::RankTrace>,
    /// Virtual end time.
    pub end_time: Time,
}

impl ArmciRunOutcome {
    /// Ground-truth overlap for `rank`, restricted to transfers **this rank
    /// initiated**. One-sided communication leaves the target host passive —
    /// its library sees no events for incoming puts/gets, so the per-process
    /// report (and therefore the comparable truth) covers only issued
    /// operations. Puts are initiated by the data source, gets by the data
    /// destination.
    pub fn true_overlap(&self, rank: usize) -> u64 {
        self.transfers
            .iter()
            .filter(|t| initiated_by(t, rank))
            .map(|t| t.true_overlap(&self.activity[rank]))
            .sum()
    }

    /// Congestion slack for the initiated transfers of `rank` (see
    /// `simmpi::MpiRunOutcome::congestion_excess`).
    pub fn congestion_excess(&self, rank: usize, table: &XferTimeTable) -> u64 {
        self.transfers
            .iter()
            .filter(|t| initiated_by(t, rank))
            .map(|t| t.duration().saturating_sub(table.lookup(t.bytes as u64)))
            .sum()
    }
}

fn initiated_by(t: &TransferRecord, rank: usize) -> bool {
    match t.kind {
        simnet::TransferKind::Send | simnet::TransferKind::RdmaWrite => t.src == rank,
        simnet::TransferKind::RdmaRead => t.dst == rank,
    }
}

/// Run `body` as an ARMCI program on `nranks` simulated nodes.
pub fn run_armci<F>(
    nranks: usize,
    net: NetConfig,
    rec_opts: RecorderOpts,
    body: F,
) -> Result<ArmciRunOutcome, SimError>
where
    F: Fn(&mut Armci) + Send + Sync + 'static,
{
    let table = simmpi::default_xfer_table(&net);
    let cluster = Cluster::new(nranks, net);
    let (out, per_rank) = cluster.run_collect(SimOpts::default(), move |ctx, world| {
        let mut armci = Armci::init(ctx, world.clone(), table.clone(), rec_opts.clone());
        body(&mut armci);
        armci.finalize()
    })?;
    let (reports, traces): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
    Ok(ArmciRunOutcome {
        reports,
        transfers: out.transfers,
        activity: out.activity,
        traces: traces.into_iter().flatten().collect(),
        end_time: out.end_time,
    })
}
