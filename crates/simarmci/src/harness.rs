//! Harness for ARMCI programs on the simulated cluster.

use overlap_core::RecorderOpts;
use simcore::{SimError, SimOpts};
use simmpi::RunOutcome;
use simnet::{Cluster, NetConfig};

use crate::armci::Armci;

/// Run `body` as an ARMCI program on `nranks` simulated nodes. The outcome is
/// an MPI run's; one-sided communication leaves the target passive, so only
/// the initiator records a transfer, and [`RunOutcome::check`] joins each
/// record to its fabric transfer by id all the same.
pub fn run_armci<F>(
    nranks: usize,
    net: NetConfig,
    rec_opts: RecorderOpts,
    body: F,
) -> Result<RunOutcome, SimError>
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
    Ok(RunOutcome::new(out, per_rank))
}
