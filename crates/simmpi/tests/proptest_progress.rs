//! Differential property suite across progress models.
//!
//! For random (deadlock-free) workloads, every [`ProgressModel`] must:
//!
//! * deliver all payloads intact and deterministically (same program, same
//!   model → byte-identical outcome),
//! * keep `polling` byte-identical to a config that never mentions the
//!   progress field (the golden-pinning property, checked here differentially
//!   and against the committed goldens elsewhere),
//! * produce reports that pass every [`overlap_core::invariant`] check,
//! * reconcile wait-cause attribution *exactly* (Σ breakdown == nonoverlap)
//!   on every transfer record,
//! * on fault-free runs, achieve at least the polling model's overlap upper
//!   bound once the modeled progress-steal cost is added back
//!   (`max_overlap(model) + steal(model) ≥ max_overlap(polling)`).

use proptest::prelude::*;

use overlap_core::{attribution, invariant, RecorderOpts};
use simmpi::{run_mpi, MpiConfig, MpiRunOutcome, ProgressModel, RndvMode, Src, TagSel};
use simnet::NetConfig;

/// One round of a generated two-rank symmetric exchange (deadlock-free).
#[derive(Debug, Clone, Copy)]
struct Round {
    bytes: usize,
    compute_ns: u64,
    blocking_send: bool,
    prepost: bool,
}

fn arb_round() -> impl Strategy<Value = Round> {
    (
        prop_oneof![
            Just(16usize),
            Just(1 << 10),
            Just(10 << 10),
            Just(40 << 10),
            Just(200 << 10),
        ],
        0u64..1_200_000,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(bytes, compute_ns, blocking_send, prepost)| Round {
            bytes,
            compute_ns,
            blocking_send,
            prepost,
        })
}

fn arb_cfg() -> impl Strategy<Value = MpiConfig> {
    (
        prop_oneof![Just(RndvMode::PipelinedWrite), Just(RndvMode::DirectRead)],
        prop_oneof![Just(4usize << 10), Just(12 << 10), Just(64 << 10)],
        any::<bool>(),
    )
        .prop_map(|(rndv_mode, eager_threshold, use_reg_cache)| MpiConfig {
            rndv_mode,
            eager_threshold,
            use_reg_cache,
            ..MpiConfig::default()
        })
}

/// The four models under test.
fn all_models() -> [ProgressModel; 4] {
    [
        ProgressModel::Polling,
        ProgressModel::AsyncRank {
            poll_interval: ProgressModel::DEFAULT_POLL_INTERVAL,
        },
        ProgressModel::EarlyBird,
        ProgressModel::HwTag,
    ]
}

/// Run the symmetric exchange under `model`, tracing enabled so attribution
/// can be reconciled. Payload integrity is asserted inside the rank body.
fn run_model(rounds: &[Round], cfg: &MpiConfig, model: ProgressModel) -> MpiRunOutcome {
    let mut cfg = cfg.clone();
    cfg.progress = model;
    let rounds = rounds.to_vec();
    let rec = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    run_mpi(2, NetConfig::default(), cfg, rec, move |mpi| {
        let me = mpi.rank();
        let other = 1 - me;
        // Rank 1 receives before it sends, which keeps blocking rendezvous
        // sends safe under every model (hw-tag always needs a remote match
        // to complete a rendezvous send); rank 0's optionally-late receive
        // still exercises the unexpected-arrival path.
        for (i, r) in rounds.iter().enumerate() {
            let tag = i as u64;
            let payload = vec![(me * 37 + i) as u8; r.bytes];
            let check = |st: simmpi::Status| {
                let got = st.data.unwrap();
                let expect = (other * 37 + i) as u8;
                // Plain asserts: a failure panics the rank, surfacing as a
                // run error (prop_assert can't cross the closure).
                assert!(got.iter().all(|&b| b == expect), "round {i} corrupted");
                assert_eq!(got.len(), r.bytes);
            };
            if me == 0 {
                let rr = if r.prepost {
                    Some(mpi.irecv(Src::Rank(other), TagSel::Is(tag)))
                } else {
                    None
                };
                if r.blocking_send {
                    mpi.send(other, tag, &payload);
                } else {
                    let sr = mpi.isend(other, tag, &payload);
                    mpi.compute(r.compute_ns / 2);
                    mpi.wait(sr);
                }
                mpi.compute(r.compute_ns);
                check(match rr {
                    Some(rr) => mpi.wait(rr),
                    // Late post: the message is unexpected here.
                    None => mpi.recv(Src::Rank(other), TagSel::Is(tag)),
                });
            } else {
                check(mpi.recv(Src::Rank(other), TagSel::Is(tag)));
                if r.blocking_send {
                    mpi.send(other, tag, &payload);
                } else {
                    let sr = mpi.isend(other, tag, &payload);
                    mpi.compute(r.compute_ns / 2);
                    mpi.wait(sr);
                }
                mpi.compute(r.compute_ns);
            }
        }
    })
    .expect("run failed")
}

/// A byte-stable fingerprint of everything a run reports.
fn fingerprint(out: &MpiRunOutcome) -> String {
    format!(
        "end={} events={} reports={:?} transfers={:?} traces={:?}",
        out.end_time, out.events_processed, out.reports, out.transfers, out.traces
    )
}

/// Σ over ranks of the time spent inside the async progress fiber's
/// `MPI_Progress` spans — the modeled steal cost (zero for every other
/// model, which never enters that call).
fn steal_ns(out: &MpiRunOutcome) -> u64 {
    out.reports
        .iter()
        .filter_map(|r| r.calls.get("MPI_Progress"))
        .map(|c| c.total_time)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) `polling` is byte-identical to a config that predates the
    /// progress field, and every model is deterministic under replay.
    #[test]
    fn models_are_deterministic_and_polling_is_inert(
        rounds in prop::collection::vec(arb_round(), 1..6),
        cfg in arb_cfg(),
    ) {
        let baseline = fingerprint(&run_model(&rounds, &cfg, ProgressModel::Polling));
        // The default config IS polling: same bytes out.
        prop_assert_eq!(
            cfg.progress, ProgressModel::Polling,
            "MpiConfig::default must keep polling as the default model"
        );
        for model in all_models() {
            let a = fingerprint(&run_model(&rounds, &cfg, model));
            let b = fingerprint(&run_model(&rounds, &cfg, model));
            prop_assert_eq!(&a, &b, "{} must be deterministic", model.label());
            if model == ProgressModel::Polling {
                prop_assert_eq!(&a, &baseline, "polling must be byte-identical");
            }
        }
    }

    /// (b) report invariants and (c) exact attribution reconciliation hold
    /// under every model.
    #[test]
    fn invariants_and_reconciliation_hold_under_every_model(
        rounds in prop::collection::vec(arb_round(), 1..6),
        cfg in arb_cfg(),
    ) {
        for model in all_models() {
            let out = run_model(&rounds, &cfg, model);
            let violations = invariant::check_reports(&out.reports);
            prop_assert!(
                violations.is_empty(),
                "{}: invariant violations: {violations:?}", model.label()
            );
            for tr in &out.traces {
                let attr = attribution::attribute(tr);
                for rec in &attr.records {
                    let sum: u64 = rec.breakdown.iter().map(|s| s.ns).sum();
                    prop_assert_eq!(
                        sum, rec.nonoverlap,
                        "{}: transfer {:?} breakdown Σ {} != nonoverlap {}",
                        model.label(), rec.id, sum, rec.nonoverlap
                    );
                }
            }
        }
    }

    /// (d) on fault-free runs, no model loses more overlap than its modeled
    /// steal cost: `Σ max_overlap(model) + steal(model) ≥ Σ max_overlap(polling)`.
    #[test]
    fn overlap_never_drops_below_polling_minus_steal(
        rounds in prop::collection::vec(arb_round(), 1..6),
        cfg in arb_cfg(),
    ) {
        let base = run_model(&rounds, &cfg, ProgressModel::Polling);
        let base_max: u64 = base.reports.iter().map(|r| r.total.max_overlap).sum();
        for model in all_models() {
            let out = run_model(&rounds, &cfg, model);
            let max: u64 = out.reports.iter().map(|r| r.total.max_overlap).sum();
            let steal = steal_ns(&out);
            prop_assert!(
                max + steal >= base_max,
                "{}: Σ max_overlap {} + steal {} < polling Σ max_overlap {}",
                model.label(), max, steal, base_max
            );
        }
    }
}
