//! Top-level harness: run an MPI program on a simulated cluster and collect
//! per-rank overlap reports plus fabric ground truth.

use std::sync::Arc;

use overlap_core::{OverlapReport, RecorderOpts, XferTimeTable};
use simcore::{ActivityLog, SimError, SimOpts, Time};
use simnet::{Cluster, FaultEvent, NetConfig, TransferRecord};

use crate::config::MpiConfig;
use crate::mpi::Mpi;

/// Everything a run produces.
#[derive(Debug)]
pub struct MpiRunOutcome {
    /// Per-rank overlap reports from the instrumentation framework.
    pub reports: Vec<OverlapReport>,
    /// Ground-truth physical transfer records from the fabric.
    pub transfers: Vec<TransferRecord>,
    /// Ground-truth per-rank activity logs.
    pub activity: Vec<ActivityLog>,
    /// Ground-truth injected fault events (empty on a loss-free fabric).
    pub faults: Vec<FaultEvent>,
    /// Per-rank reliability-layer counters (all zero on a loss-free fabric).
    pub rel_stats: Vec<crate::reliability::RelStats>,
    /// Per-rank time-resolved traces (empty unless `RecorderOpts::trace`
    /// was set; ordered by rank when present).
    pub traces: Vec<overlap_core::trace::RankTrace>,
    /// Virtual end time of the run.
    pub end_time: Time,
    /// Engine queue entries processed.
    pub events_processed: u64,
}

impl MpiRunOutcome {
    /// Ground-truth overlap for `rank`: Σ over transfers touching the rank of
    /// the intersection between the physical transfer interval and the rank's
    /// compute intervals.
    pub fn true_overlap(&self, rank: usize) -> u64 {
        simnet::truth::total_true_overlap(&self.transfers, rank, &self.activity[rank])
    }

    /// Σ over transfers touching `rank` of how much the physical duration
    /// exceeded the a-priori table time — the congestion slack that loosens
    /// the framework's *upper* bound (see `DESIGN.md`).
    pub fn congestion_excess(&self, rank: usize, table: &XferTimeTable) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.src == rank || t.dst == rank)
            .map(|t| t.duration().saturating_sub(table.lookup(t.bytes as u64)))
            .sum()
    }

    /// Write every rank's report to `dir` as `overlap.rank<N>.json` — the
    /// paper's "output file is generated for each process" behaviour.
    pub fn write_reports(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.reports.len());
        for r in &self.reports {
            let path = dir.join(format!("overlap.rank{}.json", r.rank));
            r.save_json(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// The a-priori transfer-time table for a fabric — what the paper measured
/// once with `perf_main` and stored on disk. Sampled at power-of-two sizes
/// up to 8 MiB from the idle one-way time to the nearest peer
/// ([`NetConfig::nearest_transfer_time`]), so the table never overstates a
/// transfer on any route of any topology.
pub fn default_xfer_table(net: &NetConfig) -> XferTimeTable {
    XferTimeTable::sample(1, 8 << 20, |b| net.nearest_transfer_time(b as usize))
}

/// Run `body` as an MPI program on `nranks` simulated nodes.
pub fn run_mpi<F>(
    nranks: usize,
    net: NetConfig,
    mpi_cfg: MpiConfig,
    rec_opts: RecorderOpts,
    body: F,
) -> Result<MpiRunOutcome, SimError>
where
    F: Fn(&mut Mpi) + Send + Sync + 'static,
{
    let table = default_xfer_table(&net);
    let opts = SimOpts::default();
    run_mpi_with(nranks, net, mpi_cfg, rec_opts, table, opts, None, body)
}

/// Full-control variant of [`run_mpi`]: custom transfer-time table, engine
/// limits and an optional schedule oracle. When `oracle` is `Some`, every
/// engine nondeterminism point (same-time event ties, progress-poll drain
/// order, fault-timing jitter) is resolved by the oracle and recorded in its
/// trace, so the schedule can be replayed or perturbed. `None` runs the
/// untouched canonical path.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_with<F>(
    nranks: usize,
    net: NetConfig,
    mpi_cfg: MpiConfig,
    rec_opts: RecorderOpts,
    table: XferTimeTable,
    opts: SimOpts,
    oracle: Option<simcore::OracleHandle>,
    body: F,
) -> Result<MpiRunOutcome, SimError>
where
    F: Fn(&mut Mpi) + Send + Sync + 'static,
{
    let cluster = Cluster::new(nranks, net);
    if let Some(orc) = oracle {
        cluster.handle().set_oracle(orc);
    }
    // Per-run values, built once; each rank's clone is a refcount bump.
    let mpi_cfg = Arc::new(mpi_cfg);
    let (out, per_rank) = cluster.run_collect(opts, move |ctx, world| {
        let mut mpi = Mpi::init(
            ctx,
            world.clone(),
            mpi_cfg.clone(),
            table.clone(),
            rec_opts.clone(),
        );
        body(&mut mpi);
        mpi.finalize()
    })?;
    let mut reports = Vec::with_capacity(nranks);
    let mut rel_stats = Vec::with_capacity(nranks);
    let mut traces = Vec::new();
    for (report, stats, trace) in per_rank {
        reports.push(report);
        rel_stats.push(stats);
        traces.extend(trace);
    }
    Ok(MpiRunOutcome {
        reports,
        transfers: out.transfers,
        activity: out.activity,
        faults: out.faults,
        rel_stats,
        traces,
        end_time: out.end_time,
        events_processed: out.events_processed,
    })
}
