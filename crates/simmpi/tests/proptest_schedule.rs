//! Property: the reliability layer's seq/ACK/NACK retransmission protocol
//! converges — no livelock, bounded retries — on *every*
//! random-permutation-oracle schedule of a small lossy 2-rank exchange.
//!
//! Each proptest case draws an oracle seed; the [`simcore::RandomOracle`]
//! then resolves every engine tie-break, progress-poll order, and
//! fault-jitter step for that schedule. With 30% uniform packet loss and a
//! generous retry budget the exchange must still complete under the event
//! cap (the livelock guard), with every packet delivered (nothing
//! abandoned), the retransmission count bounded by the budget, and the traced
//! run sound by the one check (every lost attempt is in the ground truth).

use std::collections::HashSet;

use overlap_core::RecorderOpts;
use proptest::prelude::*;
use simcore::{OracleHandle, RandomOracle, SimOpts};
use simmpi::{default_xfer_table, run_mpi_with, MpiConfig, Src, TagSel};
use simnet::{FaultPlan, NetConfig};

const MAX_RETRIES: u32 = 32;
const REPS: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lossy_exchange_converges_on_every_schedule(seed in any::<u64>()) {
        let net = NetConfig {
            faults: FaultPlan {
                seed: 11,
                drop_prob: 0.3,
                explore_jitter_ns: 300,
                ..FaultPlan::none()
            },
            ..NetConfig::default()
        };
        let cfg = MpiConfig {
            max_retries: MAX_RETRIES,
            ..MpiConfig::open_mpi_pipelined()
        };
        let table = default_xfer_table(&net);
        let opts = SimOpts {
            max_events: Some(2_000_000),
            oracle: Some(OracleHandle::new(Box::new(RandomOracle::new(seed)))),
            ..SimOpts::default()
        };
        let out = run_mpi_with(
            2,
            net,
            cfg,
            RecorderOpts {
                trace: true,
                ..RecorderOpts::default()
            },
            table,
            opts,
            |mpi| {
                let msg = vec![0x42u8; 4 << 10];
                for i in 0..REPS {
                    if mpi.rank() == 0 {
                        let s = mpi.isend(1, i, &msg);
                        mpi.compute(2_000);
                        mpi.wait(s);
                    } else {
                        let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                        mpi.compute(2_000);
                        mpi.wait(r);
                    }
                }
            },
        );
        // Convergence: the run finishes (no deadlock, no event-cap
        // livelock) on every explored schedule.
        let out = out.unwrap_or_else(|e| {
            panic!("schedule seed {seed} did not converge: {}", e.one_line())
        });
        // Every payload made it through: the retry budget was never
        // exhausted, so nothing was abandoned.
        let mut retransmissions = 0;
        for st in &out.rel_stats {
            prop_assert_eq!(st.abandoned, 0, "packet abandoned under seed {}", seed);
            retransmissions += st.retransmissions;
        }
        // Bounded retries: with a 0.3 drop rate the expected retransmission
        // count is a handful; the budget caps any single packet at
        // MAX_RETRIES re-posts, and the whole run stays far below the
        // theoretical ceiling. Every attempt of a payload, lost ones
        // included, is recorded under its one transfer id, so payloads are
        // counted by distinct id.
        let payloads: HashSet<u64> = out.transfers.iter().map(|t| t.xfer_id).collect();
        let packets = payloads.len() as u64 + 8; // payloads + control slack
        prop_assert!(
            retransmissions <= packets * u64::from(MAX_RETRIES),
            "unbounded retransmission under seed {}: {} re-posts",
            seed,
            retransmissions
        );
        prop_assert_eq!(out.check(), [], "violations under seed {}", seed);
    }
}
