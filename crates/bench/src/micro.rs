//! The paper's Sec. 3.2 microbenchmark: two processes exchange a message
//! with a chosen pairing of point-to-point calls while increasing
//! computation is inserted between the initiating and waiting non-blocking
//! calls. Reports min/max overlap percentage and average wait time for each
//! side.

use bytes::Bytes;
use overlap_core::RecorderOpts;
use simmpi::{MpiConfig, Src, TagSel};
use simnet::NetConfig;

/// Which call combination the two processes use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// Sender `MPI_Isend`(+compute+Wait); receiver blocking `MPI_Recv`.
    IsendRecv,
    /// Sender blocking `MPI_Send`; receiver `MPI_Irecv`(+compute+Wait).
    SendIrecv,
    /// Both sides non-blocking.
    IsendIrecv,
}

/// One row of a microbenchmark sweep.
#[derive(Debug, Clone)]
pub struct MicroPoint {
    /// Inserted computation, ns.
    pub compute_ns: u64,
    /// Sender min overlap, %.
    pub snd_min: f64,
    /// Sender max overlap, %.
    pub snd_max: f64,
    /// Sender average `MPI_Wait` time, ns (0 if it never waits).
    pub snd_wait_ns: f64,
    /// Receiver min overlap, %.
    pub rcv_min: f64,
    /// Receiver max overlap, %.
    pub rcv_max: f64,
    /// Receiver average `MPI_Wait` time, ns.
    pub rcv_wait_ns: f64,
}

/// Run the overlap microbenchmark: `reps` transfers of `bytes` for each
/// inserted-computation value. Sweep points are independent seeded
/// simulations, so they run on the shared `--jobs` worker budget; results
/// come back in input order regardless of scheduling.
pub fn overlap_sweep(
    cfg: MpiConfig,
    bytes: usize,
    reps: usize,
    computes_ns: &[u64],
    pairing: Pairing,
) -> Vec<MicroPoint> {
    overlap_sweep_scoped("", cfg, bytes, reps, computes_ns, pairing)
}

/// [`overlap_sweep`], with each point's run scoped `"<scope>/c<ns>"` for
/// trace capture (see [`crate::sim::mpi`]). An empty `scope` keeps the sweep
/// out of capture.
pub fn overlap_sweep_scoped(
    scope: &str,
    cfg: MpiConfig,
    bytes: usize,
    reps: usize,
    computes_ns: &[u64],
    pairing: Pairing,
) -> Vec<MicroPoint> {
    crate::runner::par_map(computes_ns, |&c| {
        let label = (!scope.is_empty()).then(|| format!("{scope}/c{c}"));
        run_point(label, cfg.clone(), bytes, reps, c, pairing)
    })
}

fn run_point(
    scope: Option<String>,
    cfg: MpiConfig,
    bytes: usize,
    reps: usize,
    compute_ns: u64,
    pairing: Pairing,
) -> MicroPoint {
    let out = crate::sim::mpi(
        scope,
        2,
        NetConfig::default(),
        cfg,
        RecorderOpts::default(),
        move |mpi| {
            let msg = Bytes::from(vec![0x5Au8; bytes]);
            for i in 0..reps as u64 {
                if mpi.rank() == 0 {
                    match pairing {
                        Pairing::IsendRecv | Pairing::IsendIrecv => {
                            let r = mpi.isend(1, i, &msg);
                            if compute_ns > 0 {
                                mpi.compute(compute_ns);
                            }
                            mpi.wait(r);
                        }
                        Pairing::SendIrecv => {
                            mpi.send(1, i, &msg);
                            if compute_ns > 0 {
                                mpi.compute(compute_ns);
                            }
                        }
                    }
                } else {
                    match pairing {
                        Pairing::SendIrecv | Pairing::IsendIrecv => {
                            let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                            if compute_ns > 0 {
                                mpi.compute(compute_ns);
                            }
                            mpi.wait(r);
                        }
                        Pairing::IsendRecv => {
                            mpi.recv(Src::Rank(0), TagSel::Is(i));
                            if compute_ns > 0 {
                                mpi.compute(compute_ns);
                            }
                        }
                    }
                }
                // Keep the iterations in lock-step so the pattern reflects a
                // steady state rather than unbounded sender run-ahead.
                mpi.barrier();
            }
        },
    );

    let wait_avg = |rank: usize| {
        out.reports[rank]
            .calls
            .get("MPI_Wait")
            .map(|c| c.avg())
            .unwrap_or(0.0)
    };
    MicroPoint {
        compute_ns,
        snd_min: out.reports[0].total.min_pct(),
        snd_max: out.reports[0].total.max_pct(),
        snd_wait_ns: wait_avg(0),
        rcv_min: out.reports[1].total.min_pct(),
        rcv_max: out.reports[1].total.max_pct(),
        rcv_wait_ns: wait_avg(1),
    }
}
