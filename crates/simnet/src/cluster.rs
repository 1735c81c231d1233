//! Convenience wrapper tying a [`simcore::Simulation`] to a [`World`].

use std::sync::Arc;

use parking_lot::Mutex;
use simcore::{RankCtx, SimError, SimOpts, SimOutcome, Simulation};

use crate::config::NetConfig;
use crate::fault::FaultEvent;
use crate::truth::TransferRecord;
use crate::world::{SharedWorld, World};

/// A simulated cluster: `nranks` processes, one per node, over one fabric.
pub struct Cluster {
    sim: Simulation,
    world: SharedWorld,
}

/// Result of a cluster run: the engine's outcome, held as it came, plus
/// fabric ground truth.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// End time, activity logs and run-loop counters.
    pub sim: SimOutcome,
    /// Ground-truth records of every data transfer.
    pub transfers: Vec<TransferRecord>,
    /// Ground-truth records of every injected fault (empty without a plan).
    pub faults: Vec<FaultEvent>,
}

impl Cluster {
    /// Create a cluster of `nranks` nodes with the given fabric config.
    pub fn new(nranks: usize, cfg: NetConfig) -> Self {
        let sim = Simulation::new(nranks);
        let world = World::new_shared(cfg, sim.handle(), nranks);
        Cluster { sim, world }
    }

    /// The shared fabric (for pre-run setup or custom harnesses).
    pub fn world(&self) -> SharedWorld {
        self.world.clone()
    }

    /// Run `body` once per rank; returns outcome plus ground truth.
    pub fn run<F>(self, opts: SimOpts, body: F) -> Result<ClusterOutcome, SimError>
    where
        F: Fn(&mut RankCtx, &SharedWorld) + Send + Sync + 'static,
    {
        let world = self.world.clone();
        let world_for_body = self.world.clone();
        let sim = self.sim.run(opts, move |ctx| body(ctx, &world_for_body))?;
        let mut w = world.lock();
        Ok(ClusterOutcome {
            sim,
            transfers: w.take_transfers(),
            faults: w.take_fault_events(),
        })
    }

    /// [`Cluster::run`] for bodies that hand something back: `body`'s return
    /// values come out ordered by rank, next to the outcome. This is how the
    /// communication libraries collect each rank's finalized report.
    pub fn run_collect<T, F>(
        self,
        opts: SimOpts,
        body: F,
    ) -> Result<(ClusterOutcome, Vec<T>), SimError>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx, &SharedWorld) -> T + Send + Sync + 'static,
    {
        let slots: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..self.sim.nranks()).map(|_| None).collect()));
        let sink = Arc::clone(&slots);
        let out = self.run(opts, move |ctx, world| {
            let v = body(ctx, world);
            sink.lock()[ctx.rank()] = Some(v);
        })?;
        let per_rank = std::mem::take(&mut *slots.lock())
            .into_iter()
            .map(|slot| slot.expect("every rank ran to completion"))
            .collect();
        Ok((out, per_rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    #[test]
    fn cluster_runs_and_collects_truth() {
        let cluster = Cluster::new(2, NetConfig::default());
        let out = cluster
            .run(SimOpts::default(), |ctx, world| {
                if ctx.rank() == 0 {
                    {
                        let mut w = world.lock();
                        let x = w.alloc_xfer_id();
                        let p = Packet::with_data(
                            0,
                            128,
                            1,
                            [0; 6],
                            bytes::Bytes::from_static(b"hello"),
                        );
                        w.post_send(0, 1, p, 0, Some(x));
                    }
                    ctx.compute(10_000);
                } else {
                    loop {
                        if world.lock().poll_rx(1).is_some() {
                            return;
                        }
                        ctx.park();
                    }
                }
            })
            .unwrap();
        assert_eq!(out.transfers.len(), 1);
        assert_eq!(out.transfers[0].bytes, 5);
        assert_eq!(out.sim.activity.len(), 2);
    }
}
