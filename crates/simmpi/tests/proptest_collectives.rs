//! Property tests over random *sequences* of collectives (catches tag-scope
//! collisions and ordering bugs that single-op tests cannot).

use proptest::prelude::*;

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, Bytes, MpiConfig, ReduceOp};
use simnet::NetConfig;

#[derive(Debug, Clone, Copy)]
enum Op {
    Barrier,
    Bcast { root: usize, len: usize },
    Allreduce { len: usize },
    Alltoall { len: usize },
}

fn arb_op(nranks: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Barrier),
        (0..nranks, 1usize..5000).prop_map(|(root, len)| Op::Bcast { root, len }),
        (1usize..64).prop_map(|len| Op::Allreduce { len }),
        (1usize..3000).prop_map(|len| Op::Alltoall { len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_collective_sequences_are_correct(
        ops in prop::collection::vec(arb_op(4), 1..10),
    ) {
        let nranks = 4;
        let ops_in = ops.clone();
        run_mpi(
            nranks,
            NetConfig::default(),
            MpiConfig::default(),
            RecorderOpts::default(),
            move |mpi| {
                let me = mpi.rank();
                let n = mpi.nranks();
                for (i, op) in ops_in.iter().enumerate() {
                    match *op {
                        Op::Barrier => mpi.barrier(),
                        Op::Bcast { root, len } => {
                            let mut data = if me == root {
                                Bytes::from(vec![(root + i) as u8; len])
                            } else {
                                Bytes::new()
                            };
                            mpi.bcast(root, &mut data);
                            assert_eq!(data, vec![(root + i) as u8; len], "bcast {i}");
                        }
                        Op::Allreduce { len } => {
                            let mine = vec![me as f64; len];
                            let out = mpi.allreduce(&mine, ReduceOp::Sum);
                            let expect = (0..n).map(|r| r as f64).sum::<f64>();
                            assert!(out.iter().all(|&v| v == expect), "allreduce {i}");
                        }
                        Op::Alltoall { len } => {
                            let blocks: Vec<Bytes> = (0..n)
                                .map(|d| Bytes::from(vec![(me * n + d) as u8; len]))
                                .collect();
                            let got = mpi.alltoall(&blocks);
                            for (src, b) in got.iter().enumerate() {
                                assert_eq!(b, &vec![(src * n + me) as u8; len], "alltoall {i}");
                            }
                        }
                    }
                }
            },
        )
        .expect("run failed");
    }
}
