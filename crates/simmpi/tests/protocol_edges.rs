//! Protocol boundary and edge cases: threshold boundaries, fragment
//! boundaries, zero-byte messages, wildcard rendezvous, waitsome.

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

fn roundtrip(cfg: MpiConfig, len: usize) -> MpiRunOutcome {
    run(2, cfg, move |mpi| {
        let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
        if mpi.rank() == 0 {
            mpi.send(1, 1, &msg);
        } else {
            let st = mpi.recv(Src::Rank(0), TagSel::Is(1));
            assert_eq!(&st.data.unwrap()[..], &msg[..]);
        }
    })
}

#[test]
fn message_exactly_at_eager_threshold_is_eager() {
    let cfg = MpiConfig::open_mpi_pipelined();
    let threshold = cfg.eager_threshold;
    let out = roundtrip(cfg.clone(), threshold);
    assert_eq!(out.transfers.len(), 1);
    assert_eq!(out.transfers[0].kind, simnet::TransferKind::Send);
    // One byte more tips into rendezvous (pipelined: still a Send for the
    // single fragment, but the timing path differs; verify via direct-read
    // where the kind changes).
    let out2 = roundtrip(
        MpiConfig::mvapich2(),
        MpiConfig::mvapich2().eager_threshold + 1,
    );
    assert_eq!(out2.transfers[0].kind, simnet::TransferKind::RdmaRead);
}

#[test]
fn message_exactly_at_fragment_boundary() {
    let cfg = MpiConfig::open_mpi_pipelined();
    let frag = cfg.fragment_size;
    // Exactly one fragment: rides entirely with the RTS.
    let one = roundtrip(cfg.clone(), frag);
    assert_eq!(one.transfers.len(), 1);
    // One byte more: RTS fragment + one 1-byte RDMA write.
    let two = roundtrip(cfg.clone(), frag + 1);
    assert_eq!(two.transfers.len(), 2);
    let sizes: Vec<usize> = two.transfers.iter().map(|t| t.bytes).collect();
    assert!(sizes.contains(&frag));
    assert!(sizes.contains(&1));
    // Exact multiple: n equal fragments.
    let three = roundtrip(cfg, frag * 3);
    assert_eq!(three.transfers.len(), 3);
    assert!(three.transfers.iter().all(|t| t.bytes == frag));
}

#[test]
fn zero_byte_message_is_a_valid_transfer() {
    let out = run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            mpi.send(1, 5, &[]);
        } else {
            let st = mpi.recv(Src::Rank(0), TagSel::Is(5));
            assert_eq!(st.data.unwrap().len(), 0);
        }
    });
    // Counted as a (zero-byte) user message, per MPI semantics.
    assert_eq!(out.transfers.len(), 1);
    assert_eq!(out.transfers[0].bytes, 0);
}

#[test]
fn wildcard_recv_matches_rendezvous() {
    for cfg in [MpiConfig::mvapich2(), MpiConfig::open_mpi_pipelined()] {
        run(2, cfg, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 77, vec![6u8; 700 << 10]);
            } else {
                let st = mpi.recv(Src::Any, TagSel::Any);
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 77);
                assert_eq!(st.data.unwrap().len(), 700 << 10);
            }
        });
    }
}

#[test]
fn receives_from_an_early_and_a_late_sender_both_complete() {
    run(3, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            let r1 = mpi.irecv(Src::Rank(1), TagSel::Is(1));
            let r2 = mpi.irecv(Src::Rank(2), TagSel::Is(2));
            // Drain in post order: the late sender's request first.
            assert_eq!(mpi.wait(r1).source, 1);
            assert_eq!(mpi.wait(r2).source, 2);
        } else if mpi.rank() == 1 {
            mpi.compute(2_000_000); // deliberately late
            mpi.send(0, 1, &[1u8; 32]);
        } else {
            mpi.send(0, 2, &[2u8; 32]);
        }
    });
}

#[test]
fn cache_disabled_mode_still_correct_under_concurrency() {
    // The aliasing regression scenario with the cache off: every send pins
    // its own region.
    run(
        3,
        MpiConfig {
            use_reg_cache: false,
            ..MpiConfig::open_mpi_leave_pinned()
        },
        |mpi| {
            if mpi.rank() == 0 {
                let s1 = mpi.isend(1, 1, vec![0x11; 100 << 10]);
                let s2 = mpi.isend(2, 2, vec![0x22; 100 << 10]);
                mpi.waitall(&[s1, s2]);
            } else {
                mpi.compute(500_000);
                let expect = if mpi.rank() == 1 { 0x11 } else { 0x22 };
                let st = mpi.recv(Src::Rank(0), TagSel::Is(mpi.rank() as u64));
                assert!(st.data.unwrap().iter().all(|&b| b == expect));
            }
        },
    );
}

#[test]
fn many_small_messages_interleaved_with_one_huge() {
    // Ordering and matching hold when a rendezvous transfer is in flight
    // among a stream of eager ones, same (src, dst, tag).
    run(2, MpiConfig::mvapich2(), |mpi| {
        if mpi.rank() == 0 {
            for i in 0..5u8 {
                mpi.send(1, 9, &[i; 128]);
            }
            mpi.send(1, 9, vec![99u8; 900 << 10]);
            for i in 5..10u8 {
                mpi.send(1, 9, &[i; 128]);
            }
        } else {
            for i in 0..5u8 {
                assert_eq!(mpi.recv(Src::Rank(0), TagSel::Is(9)).data.unwrap()[0], i);
            }
            assert_eq!(
                mpi.recv(Src::Rank(0), TagSel::Is(9)).data.unwrap().len(),
                900 << 10
            );
            for i in 5..10u8 {
                assert_eq!(mpi.recv(Src::Rank(0), TagSel::Is(9)).data.unwrap()[0], i);
            }
        }
    });
}

#[test]
fn zero_poll_interval_is_refused_not_spun_on() {
    // `ProgressModel::parse` refuses `interval=0`; a struct literal reaches
    // the library. The event limit bounds the run if the refusal is lost.
    let net = NetConfig::default();
    let err = simmpi::run_mpi_with(
        2,
        net.clone(),
        MpiConfig {
            progress: simmpi::ProgressModel::AsyncRank { poll_interval: 0 },
            ..MpiConfig::default()
        },
        RecorderOpts::default(),
        simmpi::default_xfer_table(&net),
        simcore::SimOpts {
            max_events: Some(200_000),
            ..Default::default()
        },
        None,
        |mpi| mpi.compute(1_000),
    )
    .expect_err("a zero poll interval must be refused");
    match err {
        simcore::SimError::RankPanic { message, .. } => {
            assert!(message.contains("poll_interval must be > 0"), "{message}");
            assert!(!message.contains('\n'), "{message}");
        }
        other => panic!("expected a rank panic, got {other}"),
    }
}
