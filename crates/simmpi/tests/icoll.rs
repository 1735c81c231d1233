//! Non-blocking collectives: correctness, overlap, and interaction with the
//! progress engine.

use overlap_core::RecorderOpts;
use simmpi::icoll::CollResult;
use simmpi::{run_mpi, Bytes, MpiConfig, ReduceOp, RunOutcome, Src, TagSel};
use simnet::NetConfig;

fn run(
    nranks: usize,
    cfg: MpiConfig,
    body: impl Fn(&mut simmpi::Mpi) + Send + Sync + 'static,
) -> RunOutcome {
    let rec = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    run_mpi(nranks, NetConfig::default(), cfg, rec, body).expect("run failed")
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn iallreduce_matches_blocking() {
    // Lengths 0 and 1 leave the tail chunks empty; 10 and 1000 split
    // unevenly over 3 and 8 ranks. Six collectives are in flight at once.
    for nranks in [2usize, 3, 4, 8] {
        run(nranks, MpiConfig::default(), move |mpi| {
            let me = mpi.rank();
            for len in [0usize, 1, 10, 1000] {
                let mine = |k: usize| -> Vec<f64> {
                    (0..len).map(|i| (k * 7919 + me * len + i) as f64).collect()
                };
                let hs: Vec<_> = (0..6)
                    .map(|k| mpi.iallreduce(&mine(k), ReduceOp::Sum))
                    .collect();
                mpi.compute(20_000);
                for (k, h) in hs.into_iter().enumerate() {
                    let CollResult::Vals(nb) = mpi.icoll_wait(h) else {
                        panic!("iallreduce must complete with values");
                    };
                    let blocking = mpi.allreduce(&mine(k), ReduceOp::Sum);
                    assert_eq!(bits(&nb), bits(&blocking), "nranks {nranks} len {len}");
                }
            }
        });
    }
}

#[test]
fn iallreduce_sums_each_chunk_around_the_ring() {
    // Inexact values make the association visible: chunk `c` starts at
    // rank `c` and every later rank on the ring adds its own value to the
    // partial sum it receives, so the result must match that order bit
    // for bit.
    let (nranks, len) = (5usize, 23usize);
    let value = move |rank: usize, i: usize| 0.1 * (rank * len + i) as f64 + 1.0 / 3.0;
    run(nranks, MpiConfig::default(), move |mpi| {
        let mine: Vec<f64> = (0..len).map(|i| value(mpi.rank(), i)).collect();
        let h = mpi.iallreduce(&mine, ReduceOp::Sum);
        let CollResult::Vals(got) = mpi.icoll_wait(h) else {
            panic!("iallreduce must complete with values");
        };
        let per = len.div_ceil(nranks);
        let want: Vec<f64> = (0..len)
            .map(|i| {
                let c = i / per;
                (1..nranks).fold(value(c, i), |acc, k| value((c + k) % nranks, i) + acc)
            })
            .collect();
        assert_eq!(bits(&got), bits(&want));
    });
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
    assert!(nonblocking.end_time() < blocking.end_time());
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
    assert_eq!(out.check(), []);
}
