//! Top-level harness: run an MPI program on a simulated cluster and collect
//! per-rank overlap reports plus fabric ground truth.

use std::collections::HashMap;
use std::sync::Arc;

use overlap_core::trace::{BoundRecord, RankTrace};
use overlap_core::{OverlapReport, RecorderOpts, Violation, XferTimeTable};
use simcore::{SimError, SimOpts, SimOutcome, Time};
use simnet::{Cluster, ClusterOutcome, FaultEvent, NetConfig, TransferRecord};

use crate::config::MpiConfig;
use crate::mpi::{Mpi, PipeRests};
use crate::reliability::RelStats;

/// What one rank's finalizer hands back, MPI's or ARMCI's alike.
#[derive(Debug)]
pub struct RankOutcome {
    pub(crate) report: OverlapReport,
    pub(crate) trace: Option<RankTrace>,
    pub(crate) rel_stats: RelStats,
    pub(crate) pipe_rests: PipeRests,
}

impl RankOutcome {
    /// A rank of a library with no reliability layer and no pipelined
    /// receives: its report and trace are all it has.
    pub fn new(report: OverlapReport, trace: Option<RankTrace>) -> Self {
        RankOutcome {
            report,
            trace,
            rel_stats: RelStats::default(),
            pipe_rests: Vec::new(),
        }
    }
}

/// Everything a run produces, MPI or ARMCI: the engine's outcome as it came,
/// fabric ground truth, and what each rank's library handed back.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-rank overlap reports from the instrumentation framework.
    pub reports: Vec<OverlapReport>,
    /// End time, ground-truth activity logs and run-loop counters.
    pub sim: SimOutcome,
    /// Ground-truth physical transfer records from the fabric.
    pub transfers: Vec<TransferRecord>,
    /// Ground-truth injected fault events (empty on a loss-free fabric).
    pub faults: Vec<FaultEvent>,
    /// Per-rank reliability-layer counters (all zero on a loss-free fabric
    /// and under ARMCI).
    pub rel_stats: Vec<RelStats>,
    /// Per-rank time-resolved traces (empty unless `RecorderOpts::trace`
    /// was set; ordered by rank when present).
    pub traces: Vec<RankTrace>,
    /// `(rank, rest id, first fragment id, fragment count)` per pipelined
    /// receive of a traced run: the fabric transfers behind the receiver's
    /// "rest of message" record, which has no fabric id of its own.
    pipe_rests: Vec<(usize, u64, u64, u64)>,
}

/// A bound record and the fabric transfers behind it ([`RunOutcome::joined`]).
#[derive(Debug, Clone, Copy)]
pub struct Joined<'a> {
    /// The rank whose trace holds the record.
    pub rank: usize,
    /// The bound record.
    pub record: &'a BoundRecord,
    /// Σ ground-truth overlap of the transfers with the rank's computation.
    pub truth: u64,
    /// Σ physical duration of the transfers.
    duration: u64,
    /// Some fabric transfer carries the record's id.
    pub joined: bool,
}

impl Joined<'_> {
    /// Σ duration − table time, saturating: the upper bound's slack (`docs/BOUNDS.md`).
    pub fn slack(self) -> u64 {
        self.duration.saturating_sub(self.record.xfer_time)
    }
}

impl RunOutcome {
    /// Assemble a run's outcome from the cluster's and each rank's, the
    /// latter ordered by rank.
    pub fn new(cluster: ClusterOutcome, per_rank: Vec<RankOutcome>) -> Self {
        let mut out = RunOutcome {
            reports: Vec::with_capacity(per_rank.len()),
            sim: cluster.sim,
            transfers: cluster.transfers,
            faults: cluster.faults,
            rel_stats: Vec::with_capacity(per_rank.len()),
            traces: Vec::new(),
            pipe_rests: Vec::new(),
        };
        for (rank, r) in per_rank.into_iter().enumerate() {
            out.reports.push(r.report);
            out.rel_stats.push(r.rel_stats);
            out.traces.extend(r.trace);
            out.pipe_rests.extend(
                r.pipe_rests
                    .into_iter()
                    .map(|(rest, first, n)| (rank, rest, first, n)),
            );
        }
        out
    }

    /// Virtual end time of the run.
    pub fn end_time(&self) -> Time {
        self.sim.end_time
    }

    /// Every bound record of a traced run, in trace order, joined by id to the
    /// fabric transfers that moved its bytes: a pipelined rest record to the
    /// fragments `pipe_rests` names, a lost attempt only to the sender's
    /// record. The one join of bounds to ground truth; `check()` filters it.
    pub fn joined(&self) -> impl Iterator<Item = Joined<'_>> {
        // Built once per call, then binary-searched: the transfers by id.
        let mut by_id: Vec<&TransferRecord> = self.transfers.iter().collect();
        by_id.sort_unstable_by_key(|t| t.xfer_id);
        let rests: HashMap<(usize, u64), (u64, u64)> = self
            .pipe_rests
            .iter()
            .map(|&(rank, rest, first, n)| ((rank, rest), (first, first + n)))
            .collect();
        self.traces
            .iter()
            .flat_map(|tr| tr.bounds.iter().map(move |b| (tr.rank, b)))
            .map(move |(rank, record)| {
                let (lo, hi) = record.id.map_or((0, 0), |id| {
                    rests.get(&(rank, id)).copied().unwrap_or((id, id + 1))
                });
                let at = |id| by_id.partition_point(|t| t.xfer_id < id);
                let phys = &by_id[at(lo)..at(hi)];
                let log = &self.sim.activity[rank];
                let seen = phys.iter().filter(|x| x.seen_by(rank));
                let (truth, duration) = seen.fold((0, 0), |(t, d), x| {
                    (t + x.true_overlap(log), d + x.duration())
                });
                Joined {
                    rank,
                    record,
                    truth,
                    duration,
                    joined: !phys.is_empty(),
                }
            })
    }

    /// Check every claim the repo makes about a traced run; empty = sound.
    ///
    /// * [`overlap_core::check_reports`] on every report;
    /// * `activity_span` / `activity_order`: ground-truth activity logs run
    ///   forwards and in time order;
    /// * `attribution_reconcile`: every transfer's wait-state breakdown
    ///   reconciles exactly;
    /// * per record of [`RunOutcome::joined`]: `unjoined` (no fabric transfer),
    ///   `min_le_truth` (no slack), `truth_le_max` (with [`Joined::slack`]);
    /// * `untraced`: the reports count transfers but there is no trace to join.
    pub fn check(&self) -> Vec<Violation> {
        let mut v = overlap_core::check_reports(&self.reports);
        let mut fail = |check: &str, detail: String| v.push(Violation::new(check, detail));
        for (rank, log) in self.sim.activity.iter().enumerate() {
            let mut last = 0u64;
            for &(from, until, kind) in log.entries() {
                if until < from {
                    fail(
                        "activity_span",
                        format!("rank {rank} {kind:?} interval [{from}, {until}) runs backwards"),
                    );
                }
                if from < last {
                    fail("activity_order", format!("rank {rank} {kind:?} interval starts at {from} before previous start {last}"));
                }
                last = from;
            }
        }
        for tr in &self.traces {
            for rec in overlap_core::attribute(tr).records {
                if !rec.reconciles() {
                    let explained: u64 = rec.breakdown.iter().map(|s| s.ns).sum();
                    fail(
                        "attribution_reconcile",
                        format!(
                            "rank {} transfer {:?} breakdown {} vs nonoverlap {} (xfer {} max {})",
                            tr.rank,
                            rec.id,
                            explained,
                            rec.nonoverlap,
                            rec.xfer_time,
                            rec.max_overlap
                        ),
                    );
                }
            }
        }
        for j in self.joined() {
            let (rank, id, truth, slack) = (j.rank, j.record.id, j.truth, j.slack());
            let (min, max) = (j.record.min, j.record.max);
            if !j.joined {
                fail(
                    "unjoined",
                    format!("rank {rank} xfer {id:?}: no fabric transfer"),
                );
            } else if min > truth {
                fail(
                    "min_le_truth",
                    format!("rank {rank} xfer {id:?}: min {min} > truth {truth}"),
                );
            } else if truth > max + slack {
                fail(
                    "truth_le_max",
                    format!("rank {rank} xfer {id:?}: truth {truth} > max {max} + slack {slack}"),
                );
            }
        }
        let counted: u64 = self.reports.iter().map(|r| r.total.transfers).sum();
        if self.traces.is_empty() && counted > 0 {
            fail(
                "untraced",
                format!("{counted} transfers reported but no trace to join"),
            );
        }
        v
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
) -> Result<RunOutcome, SimError>
where
    F: Fn(&mut Mpi) + Send + Sync + 'static,
{
    let table = default_xfer_table(&net);
    let opts = SimOpts::default();
    run_mpi_with(nranks, net, mpi_cfg, rec_opts, table, opts, body)
}

/// Full-control variant of [`run_mpi`]: custom transfer-time table and
/// engine options. With [`SimOpts::oracle`] set, every engine nondeterminism
/// point (same-time event ties, progress-poll drain order, fault-timing
/// jitter) is resolved by the oracle and recorded in its trace, so the
/// schedule can be replayed or perturbed.
pub fn run_mpi_with<F>(
    nranks: usize,
    net: NetConfig,
    mpi_cfg: MpiConfig,
    rec_opts: RecorderOpts,
    table: XferTimeTable,
    opts: SimOpts,
    body: F,
) -> Result<RunOutcome, SimError>
where
    F: Fn(&mut Mpi) + Send + Sync + 'static,
{
    let cluster = Cluster::new(nranks, net);
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
    Ok(RunOutcome::new(out, per_rank))
}
