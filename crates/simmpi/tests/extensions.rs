//! Extended point-to-point API: synchronous sends, blocking probe, waitany,
//! testall, persistent requests.

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, MpiRunOutcome, Src, TagSel};
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
fn ssend_blocks_until_receiver_matches() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            let t0 = mpi.now();
            mpi.ssend(1, 1, &[1u8; 256]); // eager-sized, but synchronous
            let elapsed = mpi.now() - t0;
            // The receiver only posts its recv after 5 ms of compute, so a
            // synchronous send cannot return before ~5 ms.
            assert!(
                elapsed >= 4_900_000,
                "ssend returned after only {elapsed} ns — did not wait for the match"
            );
        } else {
            mpi.compute(5_000_000);
            let st = mpi.recv(Src::Rank(0), TagSel::Is(1));
            assert_eq!(st.into_data().len(), 256);
        }
    });
}

#[test]
fn plain_send_does_not_block_on_late_receiver() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            let t0 = mpi.now();
            mpi.send(1, 1, &[1u8; 256]); // buffered semantics
            assert!(mpi.now() - t0 < 1_000_000, "buffered send blocked");
        } else {
            mpi.compute(5_000_000);
            mpi.recv(Src::Rank(0), TagSel::Is(1));
        }
    });
}

#[test]
fn issend_completes_after_match_for_rendezvous_too() {
    for cfg in [MpiConfig::mvapich2(), MpiConfig::open_mpi_pipelined()] {
        run(2, cfg, |mpi| {
            if mpi.rank() == 0 {
                let r = mpi.issend(1, 1, vec![2u8; 512 << 10]);
                let st_time_before = mpi.now();
                mpi.wait(r);
                assert!(mpi.now() > st_time_before);
            } else {
                mpi.compute(2_000_000);
                let st = mpi.recv(Src::Rank(0), TagSel::Is(1));
                assert_eq!(st.into_data().len(), 512 << 10);
            }
        });
    }
}

#[test]
fn probe_blocks_then_reports_envelope() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            mpi.compute(1_000_000);
            mpi.send(1, 77, b"probe-me");
        } else {
            let (src, tag) = mpi.probe(Src::Any, TagSel::Any);
            assert_eq!((src, tag), (0, 77));
            // Message is still there — probe does not consume.
            let st = mpi.recv(Src::Rank(src), TagSel::Is(tag));
            assert_eq!(&st.into_data()[..], b"probe-me");
        }
    });
}

#[test]
fn waitany_returns_first_completion() {
    run(3, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            // Rank 2 answers fast, rank 1 slowly.
            let r1 = mpi.irecv(Src::Rank(1), TagSel::Is(1));
            let r2 = mpi.irecv(Src::Rank(2), TagSel::Is(2));
            let (idx, st) = mpi.waitany(&[r1, r2]);
            assert_eq!(idx, 1, "the fast sender should complete first");
            assert_eq!(st.source, 2);
            let (idx2, st2) = mpi.waitany(&[r1]);
            assert_eq!(idx2, 0);
            assert_eq!(st2.source, 1);
        } else if mpi.rank() == 1 {
            mpi.compute(3_000_000);
            mpi.send(0, 1, &[1u8; 64]);
        } else {
            mpi.send(0, 2, &[2u8; 64]);
        }
    });
}

#[test]
fn testall_reports_collective_completion() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            let r1 = mpi.irecv(Src::Rank(1), TagSel::Is(1));
            let r2 = mpi.irecv(Src::Rank(1), TagSel::Is(2));
            assert!(!mpi.testall(&[r1, r2]));
            mpi.compute(2_000_000);
            assert!(mpi.testall(&[r1, r2]), "both should have arrived by now");
            mpi.waitall(&[r1, r2]);
        } else {
            mpi.send(0, 1, &[1u8; 32]);
            mpi.send(0, 2, &[2u8; 32]);
        }
    });
}

#[test]
fn persistent_requests_reusable_across_iterations() {
    run(2, MpiConfig::default(), |mpi| {
        let other = 1 - mpi.rank();
        let ps = mpi.send_init(other, 5, &[mpi.rank() as u8; 1024]);
        let pr = mpi.recv_init(Src::Rank(other), TagSel::Is(5));
        for _ in 0..10 {
            let reqs = mpi.startall(std::slice::from_ref(&ps));
            let r = mpi.start(&pr);
            mpi.compute(20_000);
            mpi.wait(reqs[0]);
            let st = mpi.wait(r);
            assert_eq!(st.into_data()[0], other as u8);
        }
    });
    // Start/Startall show up in the per-call stats.
    let out = run(2, MpiConfig::default(), |mpi| {
        let other = 1 - mpi.rank();
        let ps = mpi.send_init(other, 5, &[0u8; 64]);
        let pr = mpi.recv_init(Src::Rank(other), TagSel::Is(5));
        for _ in 0..4 {
            let s = mpi.start(&ps);
            let r = mpi.start(&pr);
            mpi.waitall(&[s, r]);
        }
    });
    assert_eq!(out.reports[0].calls["MPI_Start"].count, 8);
}

#[test]
fn ssend_overlap_bounds_still_bracket_truth() {
    let net = NetConfig::default();
    let out = run(2, MpiConfig::default(), |mpi| {
        let other = 1 - mpi.rank();
        for i in 0..10 {
            let r = mpi.irecv(Src::Rank(other), TagSel::Is(i));
            let s = mpi.issend(other, i, &[4u8; 4096]);
            mpi.compute(100_000);
            mpi.wait(s);
            mpi.wait(r);
        }
    });
    let table = simmpi::default_xfer_table(&net);
    for rank in 0..2 {
        let rep = &out.reports[rank].total;
        let truth = out.true_overlap(rank);
        assert!(rep.min_overlap <= truth);
        assert!(truth <= rep.max_overlap + out.congestion_excess(rank, &table));
    }
}
