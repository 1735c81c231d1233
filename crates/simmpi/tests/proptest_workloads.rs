//! Property tests: randomized (but deadlock-free) MPI programs must always
//! deliver payloads intact and produce bounds that bracket ground truth.

use proptest::prelude::*;

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, ProgressModel, RndvMode, Src, TagSel};
use simnet::NetConfig;

/// One round of a generated two-rank program. Both ranks execute the same
/// schedule (symmetric exchange), which is always deadlock-free.
#[derive(Debug, Clone, Copy)]
struct Round {
    bytes: usize,
    compute_ns: u64,
    probe: bool,
    blocking_send: bool,
}

fn arb_round() -> impl Strategy<Value = Round> {
    (
        prop_oneof![
            Just(16usize),
            Just(1 << 10),
            Just(10 << 10),
            Just(13 << 10),
            Just(100 << 10),
            Just(600 << 10),
        ],
        0u64..1_500_000,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(bytes, compute_ns, probe, blocking_send)| Round {
            bytes,
            compute_ns,
            probe,
            blocking_send,
        })
}

fn arb_cfg() -> impl Strategy<Value = MpiConfig> {
    (
        prop_oneof![Just(RndvMode::PipelinedWrite), Just(RndvMode::DirectRead)],
        prop_oneof![Just(4usize << 10), Just(12 << 10), Just(64 << 10)],
        prop_oneof![Just(32usize << 10), Just(128 << 10)],
        any::<bool>(),
    )
        .prop_map(
            |(rndv_mode, eager_threshold, fragment_size, cached)| MpiConfig {
                eager_threshold,
                rndv_mode,
                fragment_size,
                reg_cache_entries: if cached { 8 } else { 0 },
                retrans_timeout: None,
                max_retries: 16,
                progress: ProgressModel::Polling,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_deliver_and_bound_correctly(
        rounds in prop::collection::vec(arb_round(), 1..12),
        cfg in arb_cfg(),
    ) {
        let rounds_in = rounds.clone();
        let rec = RecorderOpts { trace: true, ..RecorderOpts::default() };
        let out = run_mpi(2, NetConfig::default(), cfg, rec, move |mpi| {
            let me = mpi.rank();
            let other = 1 - me;
            for (i, r) in rounds_in.iter().enumerate() {
                let tag = i as u64;
                let payload = vec![(me * 37 + i) as u8; r.bytes];
                let rr = mpi.irecv(Src::Rank(other), TagSel::Is(tag));
                if r.blocking_send {
                    mpi.send(other, tag, &payload);
                } else {
                    let sr = mpi.isend(other, tag, &payload);
                    mpi.compute(r.compute_ns / 2);
                    mpi.wait(sr);
                }
                if r.probe {
                    mpi.iprobe(Src::Any, TagSel::Any);
                }
                mpi.compute(r.compute_ns);
                let st = mpi.wait(rr);
                let got = st.data.unwrap();
                let expect = (other * 37 + i) as u8;
                // Plain asserts: a failure panics the rank, which surfaces
                // as a run error (prop_assert can't cross the closure).
                assert!(got.iter().all(|&b| b == expect), "round {i} corrupted");
                assert_eq!(got.len(), r.bytes);
            }
        }).expect("run failed");

        prop_assert_eq!(out.check(), []);
        for rep in &out.reports {
            // Every generated round moves one message per direction; the
            // pipelined mode may split one message into several transfers.
            prop_assert!(rep.total.transfers as usize >= rounds.len());
        }
    }

    #[test]
    fn determinism_under_random_programs(
        rounds in prop::collection::vec(arb_round(), 1..8),
        cfg in arb_cfg(),
    ) {
        let run = |rounds: Vec<Round>, cfg: MpiConfig| {
            run_mpi(2, NetConfig::default(), cfg, RecorderOpts::default(), move |mpi| {
                let me = mpi.rank();
                let other = 1 - me;
                for (i, r) in rounds.iter().enumerate() {
                    let payload = vec![3u8; r.bytes];
                    let rr = mpi.irecv(Src::Rank(other), TagSel::Is(i as u64));
                    let sr = mpi.isend(other, i as u64, &payload);
                    mpi.compute(r.compute_ns);
                    mpi.wait(sr);
                    mpi.wait(rr);
                }
            }).expect("run failed")
        };
        let a = run(rounds.clone(), cfg.clone());
        let b = run(rounds, cfg);
        prop_assert_eq!(a.end_time(), b.end_time());
        prop_assert_eq!(a.sim.events_processed, b.sim.events_processed);
        prop_assert_eq!(&a.reports[0].total, &b.reports[0].total);
        prop_assert_eq!(&a.reports[1].total, &b.reports[1].total);
    }
}
