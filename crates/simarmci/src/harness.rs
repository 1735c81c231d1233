//! Harness for ARMCI programs on the simulated cluster.

use overlap_core::{OverlapReport, RecorderOpts, Violation};
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
    /// Times the engine handed control to a rank.
    pub resumes: u64,
}

impl ArmciRunOutcome {
    /// Every claim the repo makes about this run (see [`simmpi::check_run`]).
    /// One-sided communication leaves the target passive, so only the
    /// initiator records a transfer; each record joins its fabric transfer
    /// by id all the same.
    pub fn check(&self) -> Vec<Violation> {
        simmpi::check_run(
            &self.reports,
            &self.transfers,
            &self.activity,
            &self.traces,
            &[],
        )
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
        resumes: out.resumes,
    })
}
