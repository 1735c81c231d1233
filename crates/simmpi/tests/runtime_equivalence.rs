//! Full-stack scheduler-equivalence tests: an MPI run on a lossy,
//! oracle-perturbed fabric must be byte-identical between the coroutine
//! (fiber) rank runtime and the OS-thread reference runtime.
//!
//! The simcore-level suite pins the engines on synthetic event streams;
//! this one drives the whole stack — reliability layer retries under random
//! [`FaultPlan`]s, collective trees, rendezvous handshakes, and
//! [`RandomOracle`]-permuted schedules — and compares the complete
//! [`MpiRunOutcome`] (reports, transfers, activity, faults, reliability
//! counters) plus the recorded choice trace between the two runtimes. A run
//! that deadlocks must fail identically too: the diagnostics each stuck rank
//! renders when asked are the same bytes on a fiber and on a thread.

use overlap_core::RecorderOpts;
use proptest::prelude::*;
use simcore::{OracleHandle, RandomOracle, RankRuntime, SimOpts};
use simmpi::{default_xfer_table, run_mpi_with, MpiConfig, ProgressModel, Src, TagSel};
use simnet::{FaultPlan, NetConfig};

fn payload(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (rank.wrapping_mul(31) ^ round.wrapping_mul(17) ^ i) as u8)
        .collect()
}

/// Ring exchange plus an allreduce per round: touches eager and rendezvous
/// point-to-point, nonblocking completion, and the collective tree.
fn workload(mpi: &mut simmpi::Mpi, sizes: &[usize]) {
    let me = mpi.rank();
    let n = mpi.nranks();
    let dst = (me + 1) % n;
    let src = (me + n - 1) % n;
    for (round, &len) in sizes.iter().enumerate() {
        let data = payload(me, round, len);
        let sr = mpi.isend(dst, round as u64, &data);
        let st = mpi.recv(Src::Rank(src), TagSel::Is(round as u64));
        assert_eq!(st.data.unwrap(), payload(src, round, len));
        mpi.wait(sr);
        let _ = mpi.allreduce(&[len as f64 + me as f64], simmpi::ReduceOp::Sum);
    }
}

/// Debug render of everything a run produces, plus the oracle's choice
/// trace. All report-facing containers are `BTreeMap`s, so the render is
/// deterministic and any divergence — an activity boundary, a retry count,
/// a reordered transfer — fails the equality.
fn fingerprint(
    runtime: RankRuntime,
    net: &NetConfig,
    oracle_seed: Option<u64>,
    sizes: &[usize],
) -> String {
    fingerprint_model(runtime, net, oracle_seed, sizes, ProgressModel::Polling)
}

fn fingerprint_model(
    runtime: RankRuntime,
    net: &NetConfig,
    oracle_seed: Option<u64>,
    sizes: &[usize],
    model: ProgressModel,
) -> String {
    let oracle = oracle_seed.map(|seed| OracleHandle::new(Box::new(RandomOracle::new(seed))));
    let opts = SimOpts {
        runtime,
        ..SimOpts::default()
    };
    let sizes: Vec<usize> = sizes.to_vec();
    let cfg = MpiConfig {
        progress: model,
        ..MpiConfig::default()
    };
    let out = run_mpi_with(
        4,
        net.clone(),
        cfg,
        RecorderOpts::default(),
        default_xfer_table(net),
        opts,
        oracle.clone(),
        move |mpi| workload(mpi, &sizes),
    )
    .expect("run completes under both runtimes");
    let choices = oracle.map(|o| o.trace()).unwrap_or_default();
    format!("{out:?} choices={choices:?}")
}

/// The rendered failure of a deadlocking program, long and short form.
fn deadlock_text(
    runtime: RankRuntime,
    cfg: MpiConfig,
    body: fn(&mut simmpi::Mpi),
) -> (String, String) {
    let net = NetConfig::default();
    let err = run_mpi_with(
        2,
        net.clone(),
        cfg,
        RecorderOpts::default(),
        default_xfer_table(&net),
        SimOpts {
            runtime,
            ..SimOpts::default()
        },
        None,
        body,
    )
    .expect_err("the program deadlocks");
    (err.to_string(), err.one_line())
}

/// Both runtimes render the same bytes, and they are the diagnostics:
/// `expect` is there, and so is the note every stuck `simmpi` rank renders.
fn deadlock_text_agrees(cfg: MpiConfig, body: fn(&mut simmpi::Mpi), expect: &str) {
    let fibers = deadlock_text(RankRuntime::Coroutine, cfg.clone(), body);
    let threads = deadlock_text(RankRuntime::OsThreads, cfg, body);
    assert_eq!(fibers, threads);
    assert!(fibers.0.contains(expect), "{}", fibers.0);
    assert!(fibers.0.contains("NIC backlog rx=0 cq=0"), "{}", fibers.0);
}

/// The two programs of `deadlock_diagnostics.rs`: a receive nobody sends to
/// (no cycle: rank 1 is stuck in the finalize barrier), and head-to-head
/// blocking rendezvous sends (a two-rank cycle).
#[test]
fn deadlock_diagnostics_agree_between_runtimes() {
    deadlock_text_agrees(
        MpiConfig::default(),
        |mpi| {
            if mpi.rank() == 0 {
                let _ = mpi.recv(Src::Rank(1), TagSel::Is(77));
            }
        },
        "last call MPI_Finalize",
    );
    deadlock_text_agrees(
        MpiConfig::mvapich2(),
        |mpi| {
            let other = 1 - mpi.rank();
            mpi.send(other, 1, vec![0u8; 1 << 20]);
            let _ = mpi.recv(Src::Rank(other), TagSel::Is(1));
        },
        "wait-for cycle: rank 0 -> ",
    );
}

/// Probabilities are drawn as integer percentage points so the vendored
/// proptest's integer strategies can generate them.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1_000_000, 0u64..8, 0u64..8, 0u64..8).prop_map(|(seed, drop, dup, delay)| FaultPlan {
        seed,
        drop_prob: drop as f64 / 100.0,
        duplicate_prob: dup as f64 / 100.0,
        delay_prob: delay as f64 / 100.0,
        max_extra_delay: 15_000,
        ..FaultPlan::none()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fault plans, canonical schedule: drops, duplicates, and
    /// delays trigger runtime-visible retry/park traffic, and both runtimes
    /// must agree on every byte of the outcome.
    #[test]
    fn runtimes_agree_under_random_fault_plans(plan in arb_plan()) {
        let net = NetConfig { faults: plan, ..NetConfig::default() };
        let sizes = [64usize, 4096, 64 << 10];
        let a = fingerprint(RankRuntime::Coroutine, &net, None, &sizes);
        let b = fingerprint(RankRuntime::OsThreads, &net, None, &sizes);
        prop_assert_eq!(a, b);
    }

    /// Random fault plans *and* a random schedule oracle with fault-timing
    /// jitter enabled — the full nondeterminism surface the explorer
    /// exercises. The recorded choice traces must match exactly, proving
    /// both runtimes present the identical choice-point sequence.
    #[test]
    fn runtimes_agree_under_oracle_and_faults(
        plan in arb_plan(),
        oracle_seed in any::<u64>(),
    ) {
        let plan = FaultPlan {
            explore_jitter_ns: 2_000,
            explore_jitter_steps: 4,
            ..plan
        };
        let net = NetConfig { faults: plan, ..NetConfig::default() };
        let sizes = [64usize, 4096];
        let a = fingerprint(RankRuntime::Coroutine, &net, Some(oracle_seed), &sizes);
        let b = fingerprint(RankRuntime::OsThreads, &net, Some(oracle_seed), &sizes);
        prop_assert_eq!(a, b);
    }

    /// Every progress model — including the async-rank fiber, whose
    /// `ProgressWake` consultations appear in the oracle trace — must be
    /// byte-identical between the two rank runtimes.
    #[test]
    fn runtimes_agree_under_each_progress_model(oracle_seed in any::<u64>()) {
        let net = NetConfig::default();
        let sizes = [64usize, 4096, 64 << 10];
        for model in [
            ProgressModel::Polling,
            ProgressModel::AsyncRank {
                poll_interval: ProgressModel::DEFAULT_POLL_INTERVAL,
            },
            ProgressModel::EarlyBird,
            ProgressModel::HwTag,
        ] {
            let a = fingerprint_model(
                RankRuntime::Coroutine, &net, Some(oracle_seed), &sizes, model);
            let b = fingerprint_model(
                RankRuntime::OsThreads, &net, Some(oracle_seed), &sizes, model);
            prop_assert_eq!(a, b, "divergence under {}", model.label());
        }
    }
}
