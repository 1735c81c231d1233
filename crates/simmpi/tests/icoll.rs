//! Non-blocking collectives: correctness, overlap, and interaction with the
//! progress engine.

use overlap_core::RecorderOpts;
use simmpi::icoll::CollResult;
use simmpi::{run_mpi, Bytes, MpiConfig, MpiRunOutcome, ReduceOp, Src, TagSel};
use simnet::NetConfig;

fn run(
    nranks: usize,
    cfg: MpiConfig,
    body: impl Fn(&mut simmpi::Mpi) + Send + Sync + 'static,
) -> MpiRunOutcome {
    run_mpi(
        nranks,
        NetConfig::default(),
        cfg,
        RecorderOpts::default(),
        body,
    )
    .expect("run failed")
}

#[test]
fn ialltoall_permutes_blocks() {
    for nranks in [2usize, 4, 5] {
        run(nranks, MpiConfig::default(), move |mpi| {
            let me = mpi.rank();
            let n = mpi.nranks();
            let blocks: Vec<Bytes> = (0..n)
                .map(|d| Bytes::from(vec![(me * n + d) as u8; 512]))
                .collect();
            let h = mpi.ialltoall(&blocks);
            mpi.compute(50_000);
            let got = mpi.icoll_wait(h).into_blocks();
            for (src, b) in got.iter().enumerate() {
                assert_eq!(b, &vec![(src * n + me) as u8; 512], "block from {src}");
            }
        });
    }
}

#[test]
fn iallreduce_matches_blocking() {
    for nranks in [2usize, 3, 4, 8] {
        run(nranks, MpiConfig::default(), move |mpi| {
            let mine: Vec<f64> = (0..10).map(|i| (mpi.rank() * 10 + i) as f64).collect();
            let h = mpi.iallreduce(&mine, ReduceOp::Sum);
            mpi.compute(20_000);
            let CollResult::Vals(nb) = mpi.icoll_wait(h) else {
                panic!("iallreduce must complete with values");
            };
            let blocking = mpi.allreduce(&mine, ReduceOp::Sum);
            assert_eq!(nb, blocking, "nranks {nranks}");
        });
    }
}

#[test]
fn ialltoall_overlaps_what_alltoall_cannot() {
    // The FT story: same transpose volume, blocking vs non-blocking, with
    // the same computation available for hiding.
    let volume = 512usize << 10;
    let blocking = run(4, MpiConfig::mvapich2(), move |mpi| {
        let blocks = vec![Bytes::from(vec![1u8; volume]); 4];
        for _ in 0..5 {
            mpi.alltoall(&blocks);
            mpi.compute(4_000_000);
        }
    });
    let nonblocking = run(4, MpiConfig::mvapich2(), move |mpi| {
        let blocks = vec![Bytes::from(vec![1u8; volume]); 4];
        for _ in 0..5 {
            let h = mpi.ialltoall(&blocks);
            // Probe-free: the waits inside icoll_wait plus the periodic
            // probes below drive progression.
            for _ in 0..4 {
                mpi.compute(1_000_000);
                mpi.iprobe(Src::Any, TagSel::Any);
            }
            mpi.icoll_wait(h);
        }
    });
    let b = blocking.reports[0].total.max_pct();
    let n = nonblocking.reports[0].total.max_pct();
    assert!(b < 10.0, "blocking alltoall should not overlap: {b}");
    assert!(n > 60.0, "ialltoall should overlap substantially: {n}");
    // And it is faster end to end.
    assert!(nonblocking.end_time < blocking.end_time);
}

#[test]
fn mixed_icolls_in_flight_concurrently() {
    run(4, MpiConfig::default(), |mpi| {
        let me = mpi.rank();
        let n = mpi.nranks();
        let har = mpi.iallreduce(&[me as f64], ReduceOp::Sum);
        let blocks: Vec<Bytes> = (0..n)
            .map(|d| Bytes::from(vec![(me + d) as u8; 64]))
            .collect();
        let ha = mpi.ialltoall(&blocks);
        mpi.compute(100_000);
        // Complete in the opposite order of initiation.
        let a = mpi.icoll_wait(ha).into_blocks();
        let CollResult::Vals(r) = mpi.icoll_wait(har) else {
            panic!("iallreduce must complete with values");
        };
        assert_eq!(r, vec![(0..n).map(|x| x as f64).sum::<f64>()]);
        for (src, b) in a.iter().enumerate() {
            assert_eq!(b, &vec![(src + me) as u8; 64]);
        }
    });
}

#[test]
fn icoll_bounds_respect_truth() {
    let net = NetConfig::default();
    let out = run(4, MpiConfig::mvapich2(), |mpi| {
        let blocks = vec![Bytes::from(vec![3u8; 128 << 10]); 4];
        for _ in 0..4 {
            let h = mpi.ialltoall(&blocks);
            mpi.compute(1_500_000);
            mpi.iprobe(Src::Any, TagSel::Any);
            mpi.compute(1_500_000);
            mpi.icoll_wait(h);
        }
    });
    let table = simmpi::default_xfer_table(&net);
    for rank in 0..4 {
        let r = &out.reports[rank].total;
        let truth = out.true_overlap(rank);
        let slack = out.congestion_excess(rank, &table);
        assert!(r.min_overlap <= truth, "rank {rank}");
        assert!(truth <= r.max_overlap + slack, "rank {rank}");
    }
}
