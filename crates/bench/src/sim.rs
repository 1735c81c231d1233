//! The one place a harness reaches a simulation.
//!
//! Harnesses are plain `fn() -> Series` entry points (the registry type the
//! standalone `benchmark/` crate calls), so `repro --topology`, `--progress`
//! and `--trace` cannot reach them as arguments. `repro`'s `main` stores the
//! two overrides here once ([`set_overrides`]) and arms [`crate::tracecap`];
//! every harness then runs its simulations through [`mpi`] or [`nas`], which
//! apply the overrides, switch tracing on for a scoped run while capture is
//! armed, turn a [`SimError`] into the one-line panic `repro` maps to exit
//! code 3, and register the run's traces and faults under its scope.
//!
//! The rule for the two overridable dimensions: a harness pins the dimension
//! it sweeps ([`Dim::Pinned`]), everything else follows the flag (a bare
//! config converts to [`Dim::Flag`]). With no flag given a `Flag` value is
//! used as written, so the defaults stay byte-identical to the goldens.

use std::sync::OnceLock;

use nasbench::runner::{run_benchmark_cfg, NasBenchmark};
use nasbench::Class;
use overlap_core::{RecorderOpts, XferTimeTable};
use simcore::{SimError, SimOpts};
use simmpi::{default_xfer_table, run_mpi_with, Mpi, MpiConfig, ProgressModel, RunOutcome};
use simnet::{NetConfig, TopologySpec};

static TOPOLOGY: OnceLock<TopologySpec> = OnceLock::new();
static PROGRESS: OnceLock<ProgressModel> = OnceLock::new();

/// Install the `repro --topology` / `--progress` overrides for the rest of
/// the process. Call once, before running harnesses; a `None` leaves that
/// dimension to each harness.
pub fn set_overrides(topology: Option<TopologySpec>, progress: Option<ProgressModel>) {
    if let Some(spec) = topology {
        let _ = TOPOLOGY.set(spec);
    }
    if let Some(model) = progress {
        let _ = PROGRESS.set(model);
    }
}

/// Recorder options of a run whose traces its harness reads itself.
pub(crate) fn traced() -> RecorderOpts {
    RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    }
}

/// Where one run dimension (the fabric, or the MPI library configuration)
/// comes from.
#[derive(Debug)]
pub enum Dim<T> {
    /// The harness's default; the command-line flag replaces its topology
    /// (for a [`NetConfig`]) or progress model (for an [`MpiConfig`]).
    Flag(T),
    /// The harness's own swept variable: used as written, whatever the flag.
    Pinned(T),
}

impl<T> From<T> for Dim<T> {
    fn from(v: T) -> Self {
        Dim::Flag(v)
    }
}

impl<T> Dim<T> {
    fn resolve<O: Copy>(self, flag: &OnceLock<O>, set: impl FnOnce(&mut T, O)) -> T {
        match self {
            Dim::Pinned(v) => v,
            Dim::Flag(mut v) => {
                if let Some(&o) = flag.get() {
                    set(&mut v, o);
                }
                v
            }
        }
    }
}

/// The configuration a run actually uses. A topology spec is fitted to the
/// rank count when the world is built, so a small `--topology` grows rather
/// than panicking on a large harness. `trace` is forced on only for a scoped
/// run while capture is armed; a harness that needs traces for its own
/// checks sets it itself.
fn resolve(
    scoped: bool,
    net: Dim<NetConfig>,
    cfg: Dim<MpiConfig>,
    mut rec: RecorderOpts,
) -> (NetConfig, MpiConfig, RecorderOpts) {
    rec.trace |= scoped && crate::tracecap::enabled();
    (
        net.resolve(&TOPOLOGY, |n, spec| n.topology = spec),
        cfg.resolve(&PROGRESS, |c, model| c.progress = model),
        rec,
    )
}

/// A deadlocked (or otherwise failed) simulation panics with the engine's
/// one-line diagnostic, which `repro` turns into exit code 3.
fn or_die<T>(res: Result<T, SimError>) -> T {
    res.unwrap_or_else(|e| panic!("{}", e.one_line()))
}

/// Run `body` as an MPI program on `nranks` ranks. `scope`
/// (`"<harness>/<point>"`) names the run in `--trace` / `--critical-path` /
/// `--stream` output; `None` keeps it out of capture.
pub fn mpi<F>(
    scope: Option<String>,
    nranks: usize,
    net: impl Into<Dim<NetConfig>>,
    cfg: impl Into<Dim<MpiConfig>>,
    rec: RecorderOpts,
    body: F,
) -> RunOutcome
where
    F: Fn(&mut Mpi) + Send + Sync + 'static,
{
    mpi_with_table(scope, nranks, net, cfg, rec, default_xfer_table, body)
}

/// [`mpi`] with the a-priori transfer-time table built by `table` from the
/// fabric the run actually uses, instead of [`default_xfer_table`].
pub fn mpi_with_table<F>(
    scope: Option<String>,
    nranks: usize,
    net: impl Into<Dim<NetConfig>>,
    cfg: impl Into<Dim<MpiConfig>>,
    rec: RecorderOpts,
    table: impl FnOnce(&NetConfig) -> XferTimeTable,
    body: F,
) -> RunOutcome
where
    F: Fn(&mut Mpi) + Send + Sync + 'static,
{
    let (net, cfg, rec) = resolve(scope.is_some(), net.into(), cfg.into(), rec);
    let table = table(&net);
    let opts = SimOpts::default();
    let out = or_die(run_mpi_with(nranks, net, cfg, rec, table, opts, body));
    if let Some(scope) = scope {
        crate::tracecap::record(scope, out.traces.clone(), &out.faults);
    }
    out
}

/// Run a NAS benchmark on the default fabric in its paper environment, both
/// following the flags. `scope` as for [`mpi`].
pub fn nas(
    scope: Option<String>,
    bench: NasBenchmark,
    class: Class,
    np: usize,
    rec: RecorderOpts,
) -> RunOutcome {
    let (net, cfg, rec) = resolve(
        scope.is_some(),
        NetConfig::default().into(),
        bench.paper_env().into(),
        rec,
    );
    let art = or_die(run_benchmark_cfg(bench, class, np, net, cfg, rec));
    if let Some(scope) = scope {
        crate::tracecap::record(scope, art.traces.clone(), &art.faults);
    }
    art
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_overrides_configs_pass_through_and_trace_stays_off() {
        // NB: must not call `set_overrides` or `tracecap::enable` here — both
        // are process-global and would leak into sibling tests.
        let (net, cfg, rec) = resolve(
            true,
            NetConfig::default().into(),
            MpiConfig::default().into(),
            RecorderOpts::default(),
        );
        assert_eq!(net.topology, TopologySpec::Flat);
        assert_eq!(cfg.progress, ProgressModel::Polling);
        assert!(!rec.trace);
    }
}
