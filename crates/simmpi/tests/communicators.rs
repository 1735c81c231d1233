//! Communicator (comm_split) semantics and the new collectives.

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, ReduceOp};
use simnet::NetConfig;

fn run(nranks: usize, body: impl Fn(&mut simmpi::Mpi) + Send + Sync + 'static) {
    run_mpi(
        nranks,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        body,
    )
    .expect("run failed");
}

/// The world communicator is the identity, and its member list is one
/// allocation per run that every rank shares — not one per rank.
#[test]
fn comm_world_matches_world() {
    let lists = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = lists.clone();
    run(4, move |mpi| {
        let w = mpi.comm_world();
        assert_eq!(w.size(), 4);
        assert_eq!(w.rank(), mpi.rank());
        assert_eq!(w.members(), &[0, 1, 2, 3]);
        seen.lock().unwrap().push(w.members().as_ptr() as usize);
    });
    let lists = lists.lock().unwrap();
    assert_eq!(lists.len(), 4);
    assert!(lists.iter().all(|&p| p == lists[0]), "{lists:x?}");
}

#[test]
fn split_into_rows_and_columns() {
    // 2x3 grid: row comms by row index, column comms by column index.
    run(6, |mpi| {
        let (row, col) = (mpi.rank() / 3, mpi.rank() % 3);
        let row_comm = mpi.comm_split(row as u64, col as u64);
        let col_comm = mpi.comm_split(col as u64, row as u64);
        assert_eq!(row_comm.size(), 3);
        assert_eq!(col_comm.size(), 2);
        assert_eq!(row_comm.rank(), col);
        assert_eq!(col_comm.rank(), row);
        // Members are the expected world ranks, in key order.
        let expect_row: Vec<usize> = (0..3).map(|c| row * 3 + c).collect();
        assert_eq!(row_comm.members(), &expect_row[..]);
    });
}

#[test]
fn key_reverses_ordering() {
    run(4, |mpi| {
        // Same color; key = reverse rank → communicator order reversed.
        let c = mpi.comm_split(0, (3 - mpi.rank()) as u64);
        assert_eq!(c.size(), 4);
        assert_eq!(c.rank(), 3 - mpi.rank());
        assert_eq!(c.members(), &[3, 2, 1, 0]);
    });
}

#[test]
fn row_allreduce_is_scoped() {
    run(6, |mpi| {
        let row = mpi.rank() / 3;
        let row_comm = mpi.comm_split(row as u64, mpi.rank() as u64);
        let sum = mpi.allreduce_comm(&row_comm, &[mpi.rank() as f64], ReduceOp::Sum);
        let expect: f64 = (0..3).map(|c| (row * 3 + c) as f64).sum();
        assert_eq!(sum, vec![expect]);
    });
}

#[test]
fn comm_bcast_uses_comm_ranks() {
    run(6, |mpi| {
        let col = mpi.rank() % 3;
        let col_comm = mpi.comm_split(col as u64, mpi.rank() as u64);
        // Root 1 in each column = world rank col + 3.
        let mut data = if col_comm.rank() == 1 {
            vec![col as u8 + 10; 64]
        } else {
            Vec::new()
        };
        mpi.bcast_comm(&col_comm, 1, &mut data);
        assert_eq!(data, vec![col as u8 + 10; 64]);
    });
}

#[test]
fn concurrent_collectives_on_disjoint_comms() {
    // Rows run different-sized bcasts concurrently; tags must not collide.
    run(8, |mpi| {
        let row = mpi.rank() / 4;
        let c = mpi.comm_split(row as u64, mpi.rank() as u64);
        for round in 0..5u8 {
            let mut data = if c.rank() == 0 {
                vec![round + row as u8 * 100; 100 * (row + 1)]
            } else {
                Vec::new()
            };
            mpi.bcast_comm(&c, 0, &mut data);
            assert_eq!(data.len(), 100 * (row + 1));
            assert!(data.iter().all(|&b| b == round + row as u8 * 100));
            let s = mpi.allreduce_comm(&c, &[1.0], ReduceOp::Sum);
            assert_eq!(s, vec![4.0]);
        }
    });
}

#[test]
fn barrier_comm_synchronizes_subgroup_only() {
    run(4, |mpi| {
        let half = mpi.rank() / 2;
        let c = mpi.comm_split(half as u64, mpi.rank() as u64);
        if half == 0 {
            // Group 0 barriers quickly while group 1 is busy for a long
            // time; the barrier must not wait for group 1.
            mpi.barrier_comm(&c);
            assert!(
                mpi.now() < 50_000_000,
                "subgroup barrier waited on the other group"
            );
        } else {
            mpi.compute(100_000_000);
            mpi.barrier_comm(&c);
        }
    });
}

#[test]
fn reduce_scatter_distributes_slices() {
    run(4, |mpi| {
        // data[i] = my_rank contribution; sum = 0+1+2+3 = 6 everywhere.
        let data: Vec<f64> = (0..8).map(|i| (mpi.rank() * 8 + i) as f64).collect();
        let mine = mpi.reduce_scatter(&data, ReduceOp::Sum);
        assert_eq!(mine.len(), 2);
        let me = mpi.rank();
        for (j, v) in mine.iter().enumerate() {
            let i = me * 2 + j;
            let expect: f64 = (0..4).map(|r| (r * 8 + i) as f64).sum();
            assert_eq!(*v, expect, "slice element {j}");
        }
    });
}

#[test]
fn scan_computes_inclusive_prefix() {
    run(5, |mpi| {
        let out = mpi.scan(&[1.0, mpi.rank() as f64], ReduceOp::Sum);
        let me = mpi.rank() as f64;
        assert_eq!(out[0], me + 1.0);
        assert_eq!(out[1], me * (me + 1.0) / 2.0);
    });
}

#[test]
fn alltoallv_moves_variable_blocks() {
    run(3, |mpi| {
        let me = mpi.rank();
        // Block to rank d has length (me+1)*(d+1)*10.
        let blocks: Vec<Vec<u8>> = (0..3)
            .map(|d| vec![me as u8; (me + 1) * (d + 1) * 10])
            .collect();
        let got = mpi.alltoallv(&blocks);
        for (src, b) in got.iter().enumerate() {
            assert_eq!(b.len(), (src + 1) * (me + 1) * 10);
            assert!(b.iter().all(|&x| x == src as u8));
        }
    });
}
