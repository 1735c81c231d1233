//! Point-to-point semantics: data integrity, matching, ordering, protocols.

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

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn eager_ping_pong_roundtrips_data() {
    let out = run(2, MpiConfig::default(), |mpi| {
        let msg = pattern(1000, 7);
        if mpi.rank() == 0 {
            mpi.send(1, 42, &msg);
            let st = mpi.recv(Src::Rank(1), TagSel::Is(43));
            assert_eq!(&st.data.unwrap()[..], &msg[..]);
        } else {
            let st = mpi.recv(Src::Rank(0), TagSel::Is(42));
            let got = st.data.unwrap();
            assert_eq!(&got[..], &msg[..]);
            mpi.send(0, 43, &got);
        }
    });
    // Two data transfers (the barrier packets in init/finalize don't count).
    assert_eq!(out.transfers.len(), 2);
    assert!(out.reports[0].total.transfers >= 2);
}

#[test]
fn rendezvous_direct_read_moves_large_messages() {
    let out = run(2, MpiConfig::mvapich2(), |mpi| {
        let msg = pattern(1 << 20, 3);
        if mpi.rank() == 0 {
            mpi.send(1, 1, &msg);
        } else {
            let st = mpi.recv(Src::Rank(0), TagSel::Is(1));
            assert_eq!(&st.data.unwrap()[..], &msg[..]);
        }
    });
    // One RDMA-read data transfer of 1 MiB.
    let big: Vec<_> = out
        .transfers
        .iter()
        .filter(|t| t.bytes == 1 << 20)
        .collect();
    assert_eq!(big.len(), 1);
    assert_eq!(big[0].kind, simnet::TransferKind::RdmaRead);
    assert_eq!(big[0].src, 0);
    assert_eq!(big[0].dst, 1);
}

#[test]
fn rendezvous_pipelined_fragments_large_messages() {
    let out = run(2, MpiConfig::open_mpi_pipelined(), |mpi| {
        let msg = pattern(1 << 20, 9);
        if mpi.rank() == 0 {
            mpi.send(1, 1, &msg);
        } else {
            let st = mpi.recv(Src::Rank(0), TagSel::Is(1));
            assert_eq!(&st.data.unwrap()[..], &msg[..]);
        }
    });
    // 1 MiB in 128 KiB fragments: 1 send (frag1) + 7 RDMA writes.
    let frags: Vec<_> = out.transfers.iter().filter(|t| t.bytes > 0).collect();
    assert_eq!(frags.len(), 8);
    assert_eq!(
        frags
            .iter()
            .filter(|t| t.kind == simnet::TransferKind::RdmaWrite)
            .count(),
        7
    );
    let total: usize = frags.iter().map(|t| t.bytes).sum();
    assert_eq!(total, 1 << 20);
}

#[test]
fn single_fragment_rendezvous_needs_no_cts() {
    // 64 KiB: above eager threshold (12 KiB), below fragment size (128 KiB).
    let out = run(2, MpiConfig::open_mpi_pipelined(), |mpi| {
        let msg = pattern(64 << 10, 5);
        if mpi.rank() == 0 {
            mpi.send(1, 1, &msg);
        } else {
            let st = mpi.recv(Src::Rank(0), TagSel::Is(1));
            assert_eq!(&st.data.unwrap()[..], &msg[..]);
        }
    });
    assert_eq!(out.transfers.len(), 1);
    assert_eq!(out.transfers[0].kind, simnet::TransferKind::Send);
}

#[test]
fn wildcard_source_and_tag_match() {
    run(3, MpiConfig::default(), |mpi| match mpi.rank() {
        0 => {
            let a = mpi.recv(Src::Any, TagSel::Any);
            let b = mpi.recv(Src::Any, TagSel::Any);
            let mut sources = vec![a.source, b.source];
            sources.sort_unstable();
            assert_eq!(sources, vec![1, 2]);
        }
        r => mpi.send(0, 100 + r as u64, pattern(64, r as u8)),
    });
}

#[test]
fn same_source_same_tag_is_fifo() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            for i in 0..10u8 {
                mpi.send(1, 5, &[i; 16]);
            }
        } else {
            for i in 0..10u8 {
                let st = mpi.recv(Src::Rank(0), TagSel::Is(5));
                assert_eq!(st.data.unwrap()[0], i, "non-overtaking order violated");
            }
        }
    });
}

#[test]
fn unexpected_messages_are_buffered() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            mpi.send(1, 1, b"first");
            mpi.send(1, 2, b"second");
        } else {
            // Let both arrive unexpected, then receive in reverse tag order.
            mpi.compute(1_000_000);
            let b = mpi.recv(Src::Rank(0), TagSel::Is(2));
            let a = mpi.recv(Src::Rank(0), TagSel::Is(1));
            assert_eq!(&a.data.unwrap()[..], b"first");
            assert_eq!(&b.data.unwrap()[..], b"second");
        }
    });
}

#[test]
fn unexpected_rendezvous_completes_after_late_recv() {
    for cfg in [MpiConfig::mvapich2(), MpiConfig::open_mpi_pipelined()] {
        run(2, cfg, |mpi| {
            let msg = pattern(512 << 10, 1);
            if mpi.rank() == 0 {
                let r = mpi.isend(1, 9, &msg);
                mpi.wait(r);
            } else {
                mpi.compute(2_000_000); // RTS arrives long before the recv
                let st = mpi.recv(Src::Rank(0), TagSel::Is(9));
                assert_eq!(&st.data.unwrap()[..], &msg[..]);
            }
        });
    }
}

#[test]
fn isend_irecv_waitall_crossing_pairs() {
    run(2, MpiConfig::default(), |mpi| {
        let me = mpi.rank();
        let other = 1 - me;
        let msg = pattern(4096, me as u8);
        let s = mpi.isend(other, 7, &msg);
        let r = mpi.irecv(Src::Rank(other), TagSel::Is(7));
        let sts = mpi.waitall(&[s, r]);
        let got = sts[1].clone().data.unwrap();
        assert_eq!(&got[..], &pattern(4096, other as u8)[..]);
    });
}

#[test]
fn sendrecv_pairwise_exchange() {
    run(4, MpiConfig::default(), |mpi| {
        let me = mpi.rank();
        let n = mpi.nranks();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let st = mpi.sendrecv(right, 3, &[me as u8; 32], Src::Rank(left), TagSel::Is(3));
        assert_eq!(st.data.unwrap()[0], left as u8);
    });
}

#[test]
fn self_send_loopback() {
    run(1, MpiConfig::default(), |mpi| {
        let r = mpi.irecv(Src::Rank(0), TagSel::Is(1));
        mpi.send(0, 1, b"self");
        let st = mpi.wait(r);
        assert_eq!(&st.data.unwrap()[..], b"self");
    });
}

#[test]
fn iprobe_sees_unexpected_only_when_present() {
    run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            mpi.compute(500_000);
            mpi.send(1, 8, b"probe me");
        } else {
            assert!(!mpi.iprobe(Src::Rank(0), TagSel::Is(8)));
            // Wait long enough for the eager message to arrive.
            mpi.compute(2_000_000);
            assert!(mpi.iprobe(Src::Rank(0), TagSel::Is(8)));
            let st = mpi.recv(Src::Rank(0), TagSel::Is(8));
            assert_eq!(&st.data.unwrap()[..], b"probe me");
        }
    });
}

#[test]
fn deadlock_of_blocking_rendezvous_sends_is_detected() {
    let err = simmpi::run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::mvapich2(),
        RecorderOpts::default(),
        |mpi| {
            // Classic head-to-head blocking sends of rendezvous-sized
            // messages: each waits for a FIN that needs the other's recv.
            let other = 1 - mpi.rank();
            let big = vec![0u8; 1 << 20];
            mpi.send(other, 1, &big);
            let _ = mpi.recv(Src::Rank(other), TagSel::Is(1));
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, simcore::SimError::Deadlock { .. }),
        "got {err}"
    );
}

#[test]
fn registration_cache_reduces_reuse_cost() {
    // Same-size rendezvous sends: with the cache, later sends skip pinning,
    // so the run finishes sooner.
    let body = |mpi: &mut simmpi::Mpi| {
        let msg = vec![1u8; 1 << 20];
        if mpi.rank() == 0 {
            for _ in 0..10 {
                mpi.send(1, 1, &msg);
            }
        } else {
            for _ in 0..10 {
                mpi.recv(Src::Rank(0), TagSel::Is(1));
            }
        }
    };
    let cached = run(2, MpiConfig::open_mpi_leave_pinned(), body);
    let uncached = run(
        2,
        MpiConfig {
            use_reg_cache: false,
            ..MpiConfig::open_mpi_leave_pinned()
        },
        body,
    );
    assert!(
        cached.end_time < uncached.end_time,
        "cache should save time: {} vs {}",
        cached.end_time,
        uncached.end_time
    );
}

#[test]
fn payload_checksums_across_all_protocol_regimes() {
    // Sweep sizes across eager / single-fragment / multi-fragment regimes in
    // both rendezvous modes.
    for cfg in [MpiConfig::open_mpi_pipelined(), MpiConfig::mvapich2()] {
        run(2, cfg, |mpi| {
            for (i, len) in [1usize, 100, 8 << 10, 12 << 10, 64 << 10, 300 << 10]
                .into_iter()
                .enumerate()
            {
                let msg = pattern(len, i as u8);
                if mpi.rank() == 0 {
                    mpi.send(1, i as u64, &msg);
                } else {
                    let st = mpi.recv(Src::Rank(0), TagSel::Is(i as u64));
                    assert_eq!(&st.data.unwrap()[..], &msg[..], "len {len} corrupted");
                }
            }
        });
    }
}

#[test]
fn concurrent_same_size_cached_sends_do_not_alias() {
    // Regression: the leave_pinned registration cache must not hand an
    // in-flight send's pinned region to a second same-size send — doing so
    // overwrites data the receiver has not pulled yet.
    run(3, MpiConfig::open_mpi_leave_pinned(), |mpi| {
        let size = 200 << 10; // rendezvous-sized, identical for both sends
        if mpi.rank() == 0 {
            // Two simultaneous in-flight sends of the same size with
            // distinct contents.
            let s1 = mpi.isend(1, 1, vec![0xAA; size]);
            let s2 = mpi.isend(2, 2, vec![0xBB; size]);
            mpi.waitall(&[s1, s2]);
        } else {
            // Receivers delay so both RTSes are in flight together.
            mpi.compute(1_000_000);
            let tag = mpi.rank() as u64;
            let expect = if mpi.rank() == 1 { 0xAA } else { 0xBB };
            let st = mpi.recv(Src::Rank(0), TagSel::Is(tag));
            let data = st.data.unwrap();
            assert!(
                data.iter().all(|&b| b == expect),
                "rank {} received aliased data",
                mpi.rank()
            );
        }
    });
}

#[test]
fn plain_send_does_not_block_on_late_receiver() {
    let out = run(2, MpiConfig::default(), |mpi| {
        if mpi.rank() == 0 {
            mpi.send(1, 1, &[1u8; 256]); // buffered semantics
        } else {
            mpi.compute(5_000_000);
            mpi.recv(Src::Rank(0), TagSel::Is(1));
        }
    });
    let send = out.reports[0].calls["MPI_Send"];
    assert_eq!(send.count, 1);
    assert!(send.total_time < 1_000_000, "buffered send blocked");
}
