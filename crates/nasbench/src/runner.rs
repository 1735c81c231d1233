//! Unified benchmark runner and result summaries.

use overlap_core::{OverlapReport, RecorderOpts};
use simarmci::{run_armci, ArmciRunOutcome};
use simcore::SimError;
use simmpi::{run_mpi, Mpi, MpiConfig, MpiRunOutcome};
use simnet::NetConfig;

use crate::class::Class;
use crate::mg::MgVariant;

/// Which benchmark/variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasBenchmark {
    /// Block tridiagonal (Open MPI pipelined in the paper).
    Bt,
    /// Conjugate gradient (Open MPI pipelined).
    Cg,
    /// SSOR solver (MVAPICH2-like).
    Lu,
    /// 3-D FFT (MVAPICH2-like).
    Ft,
    /// FT with the non-blocking transpose (`MPI_Ialltoall`).
    FtNb,
    /// Scalar pentadiagonal, original code (MVAPICH2-like).
    Sp,
    /// SP with the paper's Iprobe modification.
    SpModified,
    /// Multigrid over MPI.
    MgMpi,
    /// Multigrid over blocking ARMCI.
    MgArmciBlocking,
    /// Multigrid over non-blocking ARMCI.
    MgArmciNonBlocking,
    /// Embarrassingly parallel (negative control).
    Ep,
    /// Integer sort.
    Is,
}

impl NasBenchmark {
    /// Short name as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            NasBenchmark::Bt => "BT",
            NasBenchmark::Cg => "CG",
            NasBenchmark::Lu => "LU",
            NasBenchmark::Ft => "FT",
            NasBenchmark::FtNb => "FT-nb",
            NasBenchmark::Sp => "SP",
            NasBenchmark::SpModified => "SP-mod",
            NasBenchmark::MgMpi => "MG-mpi",
            NasBenchmark::MgArmciBlocking => "MG-armci-bl",
            NasBenchmark::MgArmciNonBlocking => "MG-armci-nb",
            NasBenchmark::Ep => "EP",
            NasBenchmark::Is => "IS",
        }
    }

    /// Whether `np` ranks can run this benchmark: at least one, and of the
    /// shape its process-grid decomposition asserts. The error names the
    /// requirement in one line.
    pub fn check_np(&self, np: usize) -> Result<(), String> {
        use NasBenchmark::*;
        let name = self.name();
        if np == 0 {
            return Err(format!("{name} requires at least one process, got 0"));
        }
        let (ok, shape) = match self {
            Bt | Sp | SpModified => (crate::grid::try_square_side(np).is_some(), "a square"),
            Cg | Lu | MgMpi | MgArmciBlocking | MgArmciNonBlocking => {
                (np.is_power_of_two(), "a power-of-two")
            }
            Ft | FtNb | Ep | Is => return Ok(()),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{name} requires {shape} process count, got {np}"))
        }
    }

    /// The communication environment the paper characterized this benchmark
    /// in (Sec. 4): BT and CG under Open MPI's pipelined mode; LU, FT and SP
    /// under MVAPICH2; MG under ARMCI.
    pub fn paper_env(&self) -> MpiConfig {
        match self {
            NasBenchmark::Bt | NasBenchmark::Cg => MpiConfig::open_mpi_pipelined(),
            _ => MpiConfig::mvapich2(),
        }
    }
}

/// Result artifacts from either library.
pub enum RunArtifacts {
    /// MPI-based benchmark output.
    Mpi(MpiRunOutcome),
    /// ARMCI-based benchmark output.
    Armci(ArmciRunOutcome),
}

impl RunArtifacts {
    /// Per-rank overlap reports.
    pub fn reports(&self) -> &[OverlapReport] {
        match self {
            RunArtifacts::Mpi(o) => &o.reports,
            RunArtifacts::Armci(o) => &o.reports,
        }
    }

    /// Virtual end time of the run, ns.
    pub fn end_time(&self) -> u64 {
        match self {
            RunArtifacts::Mpi(o) => o.end_time,
            RunArtifacts::Armci(o) => o.end_time,
        }
    }

    /// Per-rank time-resolved traces (empty unless `RecorderOpts::trace`
    /// was set on the run).
    pub fn traces(&self) -> &[overlap_core::trace::RankTrace] {
        match self {
            RunArtifacts::Mpi(o) => &o.traces,
            RunArtifacts::Armci(o) => &o.traces,
        }
    }

    /// Ground-truth injected fabric faults (always empty for ARMCI runs:
    /// one-sided RDMA channels are not perturbed by the fault layer).
    pub fn faults(&self) -> &[simnet::FaultEvent] {
        match self {
            RunArtifacts::Mpi(o) => &o.faults,
            RunArtifacts::Armci(_) => &[],
        }
    }
}

/// Run a benchmark in its paper environment.
pub fn run_benchmark(
    bench: NasBenchmark,
    class: Class,
    np: usize,
    net: NetConfig,
    rec: RecorderOpts,
) -> RunArtifacts {
    run_benchmark_cfg(bench, class, np, net, bench.paper_env(), rec)
        .unwrap_or_else(|e| panic!("{} run failed: {e:?}", bench.name()))
}

/// [`run_benchmark`] with an explicit MPI library configuration (ignored by
/// the ARMCI variants) and the simulation error handed back — the entry the
/// bench crate uses to put `repro --progress` on top of each benchmark's
/// paper environment.
pub fn run_benchmark_cfg(
    bench: NasBenchmark,
    class: Class,
    np: usize,
    net: NetConfig,
    mpi_cfg: MpiConfig,
    rec: RecorderOpts,
) -> Result<RunArtifacts, SimError> {
    use crate::{cg, ep, ft, is, lu, mg, sp};
    let body: Box<dyn Fn(&mut Mpi) + Send + Sync> = match bench {
        NasBenchmark::Bt => Box::new(move |mpi| sp::run_bt(mpi, class)),
        NasBenchmark::Cg => Box::new(move |mpi| cg::run_cg(mpi, class)),
        NasBenchmark::Lu => Box::new(move |mpi| lu::run_lu(mpi, class)),
        NasBenchmark::Ft => Box::new(move |mpi| ft::run_ft(mpi, class, false)),
        NasBenchmark::FtNb => Box::new(move |mpi| ft::run_ft(mpi, class, true)),
        NasBenchmark::Sp => Box::new(move |mpi| sp::run_sp(mpi, class, 0)),
        NasBenchmark::SpModified => {
            Box::new(move |mpi| sp::run_sp(mpi, class, sp::MODIFIED_IPROBES))
        }
        NasBenchmark::MgMpi => Box::new(move |mpi| mg::run_mg_mpi(mpi, class)),
        NasBenchmark::MgArmciBlocking | NasBenchmark::MgArmciNonBlocking => {
            let variant = match bench {
                NasBenchmark::MgArmciBlocking => MgVariant::ArmciBlocking,
                _ => MgVariant::ArmciNonBlocking,
            };
            return run_armci(np, net, rec, move |a| mg::run_mg_armci(a, class, variant))
                .map(RunArtifacts::Armci);
        }
        NasBenchmark::Ep => Box::new(move |mpi| ep::run_ep(mpi, class)),
        NasBenchmark::Is => Box::new(move |mpi| is::run_is(mpi, class)),
    };
    run_mpi(np, net, mpi_cfg, rec, body).map(RunArtifacts::Mpi)
}

/// Headline numbers for one benchmark run (process 0, as the paper
/// presents).
#[derive(Debug, Clone)]
pub struct NasSummary {
    /// Benchmark name.
    pub name: String,
    /// Problem class.
    pub class: Class,
    /// Process count.
    pub np: usize,
    /// Minimum overlap percentage (process 0, whole run).
    pub min_pct: f64,
    /// Maximum overlap percentage.
    pub max_pct: f64,
    /// Total data transfer time, ms.
    pub data_transfer_ms: f64,
    /// Aggregate communication call time ("MPI time"), ms.
    pub comm_call_ms: f64,
    /// Elapsed virtual time, ms.
    pub elapsed_ms: f64,
    /// Data transfers counted.
    pub transfers: u64,
}

/// Summarize process 0 of a run.
pub fn summarize(bench: NasBenchmark, class: Class, np: usize, art: &RunArtifacts) -> NasSummary {
    let r = &art.reports()[0];
    NasSummary {
        name: bench.name().to_string(),
        class,
        np,
        min_pct: r.total.min_pct(),
        max_pct: r.total.max_pct(),
        data_transfer_ms: r.total.data_transfer_time as f64 / 1e6,
        comm_call_ms: r.comm_call_time as f64 / 1e6,
        elapsed_ms: r.elapsed as f64 / 1e6,
        transfers: r.total.transfers,
    }
}
