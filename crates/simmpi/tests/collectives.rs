//! Collective correctness against sequential references.

use overlap_core::RecorderOpts;
use simcore::Activity;
use simmpi::{run_mpi, Bytes, MpiConfig, MpiRunOutcome, ReduceOp};
use simnet::NetConfig;

fn run(nranks: usize, body: impl Fn(&mut simmpi::Mpi) + Send + Sync + 'static) -> MpiRunOutcome {
    run_mpi(
        nranks,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        body,
    )
    .expect("run failed")
}

#[test]
fn barrier_synchronizes_ranks() {
    let out = run(5, |mpi| {
        // Stagger arrival times; after the barrier, everyone must be past
        // the latest arriver.
        mpi.compute(1_000 * (mpi.rank() as u64 + 1) * 100);
        mpi.barrier();
        mpi.compute(1);
    });
    for (r, log) in out.activity.iter().enumerate() {
        let (after, ..) = log
            .entries()
            .iter()
            .rev()
            .find(|e| e.2 == Activity::Compute)
            .unwrap();
        assert!(*after >= 500_000, "rank {r} left early");
    }
}

#[test]
fn bcast_from_every_root() {
    for nranks in [2, 3, 4, 7, 8] {
        run(nranks, move |mpi| {
            for root in 0..mpi.nranks() {
                let mut data = if mpi.rank() == root {
                    Bytes::from(vec![root as u8; 1000])
                } else {
                    Bytes::new()
                };
                mpi.bcast(root, &mut data);
                assert_eq!(data, vec![root as u8; 1000]);
            }
        });
    }
}

#[test]
fn reduce_sums_to_root() {
    for nranks in [2, 4, 6] {
        run(nranks, move |mpi| {
            let mine: Vec<f64> = (0..8).map(|i| (mpi.rank() * 10 + i) as f64).collect();
            let out = mpi.reduce(0, &mine, ReduceOp::Sum);
            if mpi.rank() == 0 {
                let n = mpi.nranks();
                let expect: Vec<f64> = (0..8)
                    .map(|i| (0..n).map(|r| (r * 10 + i) as f64).sum())
                    .collect();
                assert_eq!(out.unwrap(), expect);
            } else {
                assert!(out.is_none());
            }
        });
    }
}

#[test]
fn allreduce_agrees_everywhere() {
    for nranks in [2, 3, 5, 8] {
        run(nranks, move |mpi| {
            let mine = vec![1.0_f64, mpi.rank() as f64];
            let out = mpi.allreduce(&mine, ReduceOp::Sum);
            let n = mpi.nranks() as f64;
            let ranks_sum = (0..mpi.nranks()).map(|r| r as f64).sum::<f64>();
            assert_eq!(out, vec![n, ranks_sum]);
        });
    }
}

#[test]
fn alltoall_permutes_blocks() {
    for nranks in [2, 4, 5] {
        run(nranks, move |mpi| {
            let me = mpi.rank();
            let n = mpi.nranks();
            let blocks: Vec<Bytes> = (0..n)
                .map(|dst| Bytes::from(vec![(me * n + dst) as u8; 64]))
                .collect();
            let got = mpi.alltoall(&blocks);
            for (src, b) in got.iter().enumerate() {
                assert_eq!(b, &vec![(src * n + me) as u8; 64], "block from {src}");
            }
        });
    }
}

#[test]
fn alltoall_long_blocks_use_rendezvous() {
    // FT-style: long alltoall payloads become rendezvous transfers.
    let out = run_mpi(
        4,
        NetConfig::default(),
        MpiConfig::mvapich2(),
        RecorderOpts::default(),
        |mpi| {
            let n = mpi.nranks();
            let blocks = vec![Bytes::from(vec![7u8; 256 << 10]); n];
            let got = mpi.alltoall(&blocks);
            assert!(got.iter().all(|b| b.iter().all(|&x| x == 7)));
        },
    )
    .unwrap();
    assert!(out
        .transfers
        .iter()
        .any(|t| t.kind == simnet::TransferKind::RdmaRead && t.bytes == 256 << 10));
}

#[test]
fn collectives_count_payload_transfers_but_barrier_does_not() {
    let barrier_only = run_mpi(
        4,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        |mpi| {
            for _ in 0..5 {
                mpi.barrier();
            }
        },
    )
    .unwrap();
    assert_eq!(barrier_only.transfers.len(), 0);
    assert_eq!(barrier_only.reports[0].total.transfers, 0);

    let bcast = run_mpi(
        4,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        |mpi| {
            let mut data = if mpi.rank() == 0 {
                Bytes::from(vec![1u8; 2048])
            } else {
                Bytes::new()
            };
            mpi.bcast(0, &mut data);
        },
    )
    .unwrap();
    // Binomial bcast over 4 ranks moves 3 payload messages.
    assert_eq!(bcast.transfers.len(), 3);
}
