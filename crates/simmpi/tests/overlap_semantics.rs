//! The paper's microbenchmark phenomenology (Sec. 3) and the bound-vs-truth
//! validation the original authors could not perform on real hardware:
//! every run is traced and passes `RunOutcome::check`, which joins each
//! bound record to the fabric transfers behind it (`min <= truth <= max +
//! slack` per transfer; see `DESIGN.md`).

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, RunOutcome, Src, TagSel};
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

/// One microbenchmark iteration: sender Isend + compute + Wait; receiver
/// posts Irecv early, computes, Waits (paper Sec. 3.2 pattern).
fn overlap_iteration(mpi: &mut simmpi::Mpi, bytes: usize, compute_ns: u64, tag: u64) {
    let msg = vec![0xABu8; bytes];
    if mpi.rank() == 0 {
        let r = mpi.isend(1, tag, &msg);
        mpi.compute(compute_ns);
        mpi.wait(r);
    } else {
        let r = mpi.irecv(Src::Rank(0), TagSel::Is(tag));
        mpi.compute(compute_ns);
        mpi.wait(r);
    }
}

#[test]
fn eager_sender_overlap_grows_with_computation() {
    // Paper Fig. 3: short messages exhibit full overlap ability.
    let mut prev_max = 0.0;
    for compute_us in [0u64, 5, 10, 20, 30] {
        let out = run(2, MpiConfig::default(), move |mpi| {
            for i in 0..50 {
                overlap_iteration(mpi, 10 << 10, compute_us * 1_000, i);
            }
        });
        let sender = &out.reports[0];
        let max_pct = sender.total.max_pct();
        assert!(
            max_pct + 1e-6 >= prev_max,
            "sender max overlap should not drop with more compute: {max_pct} < {prev_max}"
        );
        prev_max = max_pct;
        assert_eq!(out.check(), []);
    }
    // With ample computation the sender overlaps (nearly) fully.
    assert!(
        prev_max > 90.0,
        "expected near-full overlap, got {prev_max}%"
    );
}

#[test]
fn eager_receiver_min_overlap_is_pinned_at_zero() {
    // Paper Sec. 3.4: "we always assert minimum overlap as zero ... for the
    // receiver" — arrival is invisible, so every receive is case 3.
    let out = run(2, MpiConfig::default(), |mpi| {
        for i in 0..20 {
            overlap_iteration(mpi, 10 << 10, 50_000, i);
        }
    });
    let recv = &out.reports[1];
    assert_eq!(recv.total.min_overlap, 0);
    assert!(recv.total.max_overlap > 0);
    assert_eq!(recv.total.case_single_stamp, recv.total.transfers);
}

#[test]
fn direct_read_isend_recv_sender_overlap_grows_and_wait_shrinks() {
    // Paper Fig. 5: sender in Isend–Recv under direct RDMA. More compute →
    // more overlap, less MPI_Wait.
    let run_one = |compute_ms: u64| {
        run(2, MpiConfig::open_mpi_leave_pinned(), move |mpi| {
            let msg = vec![1u8; 1 << 20];
            for i in 0..20 {
                if mpi.rank() == 0 {
                    let r = mpi.isend(1, i, &msg);
                    mpi.compute(compute_ms * 1_000_000);
                    mpi.wait(r);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                }
            }
        })
    };
    let small = run_one(0);
    let large = run_one(2);
    let (s_min, s_wait) = (
        small.reports[0].total.min_pct(),
        small.reports[0].calls["MPI_Wait"].avg(),
    );
    let (l_min, l_wait) = (
        large.reports[0].total.min_pct(),
        large.reports[0].calls["MPI_Wait"].avg(),
    );
    assert!(
        l_min > s_min + 30.0,
        "min overlap should grow: {s_min} -> {l_min}"
    );
    assert!(
        l_min > 80.0,
        "ample compute should overlap nearly fully: {l_min}"
    );
    assert!(
        l_wait < s_wait / 2.0,
        "wait should shrink: {s_wait} -> {l_wait}"
    );
    assert_eq!(small.check(), []);
    assert_eq!(large.check(), []);
}

#[test]
fn pipelined_isend_recv_overlap_is_flat_and_first_fragment_only() {
    // Paper Fig. 4: the pipelined scheme only overlaps the initial fragment,
    // so the curves stay flat as computation grows.
    let run_one = |compute_ms: u64| {
        run(2, MpiConfig::open_mpi_pipelined(), move |mpi| {
            let msg = vec![1u8; 1 << 20];
            for i in 0..20 {
                if mpi.rank() == 0 {
                    let r = mpi.isend(1, i, &msg);
                    mpi.compute(compute_ms * 1_000_000);
                    mpi.wait(r);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                }
            }
        })
    };
    let small = run_one(1);
    let large = run_one(2);
    let s_max = small.reports[0].total.max_pct();
    let l_max = large.reports[0].total.max_pct();
    // Flat: no meaningful growth despite doubling the inserted compute.
    assert!(
        (l_max - s_max).abs() < 5.0,
        "pipelined overlap should stay flat: {s_max} vs {l_max}"
    );
    // Pinned at the first-fragment share (128K/1M = 12.5%) — fragments 2..n
    // are posted and completed inside MPI_Wait.
    assert!(
        (10.0..20.0).contains(&l_max),
        "pipelined max overlap should be the first-fragment share: {l_max}"
    );
    assert_eq!(large.check(), []);
}

#[test]
fn direct_read_send_irecv_receiver_has_zero_overlap() {
    // Paper Fig. 7: the polling receiver detects the RTS only on entering
    // MPI_Wait; the read then starts and completes inside that call → zero.
    let out = run(2, MpiConfig::open_mpi_leave_pinned(), |mpi| {
        let msg = vec![1u8; 1 << 20];
        for i in 0..10 {
            if mpi.rank() == 0 {
                mpi.send(1, i, &msg);
            } else {
                let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                mpi.compute(1_500_000);
                mpi.wait(r);
            }
        }
    });
    let recv = &out.reports[1];
    assert_eq!(
        recv.total.max_overlap, 0,
        "direct-read late receiver must be case 1"
    );
    assert_eq!(recv.total.case_same_call, recv.total.transfers);
    assert_eq!(out.check(), []);
}

#[test]
fn iprobe_during_compute_recovers_receiver_overlap() {
    // The paper's SP fix (Sec. 4.3): probing inside the computation region
    // invokes the progress engine, so the RDMA Read starts early and
    // overlaps the remaining computation.
    let body = |probes: usize| {
        move |mpi: &mut simmpi::Mpi| {
            let msg = vec![1u8; 1 << 20];
            for i in 0..10 {
                if mpi.rank() == 0 {
                    mpi.send(1, i, &msg);
                } else {
                    let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                    let chunk = 1_500_000 / (probes as u64 + 1);
                    for _ in 0..probes {
                        mpi.compute(chunk);
                        mpi.iprobe(Src::Any, TagSel::Any);
                    }
                    mpi.compute(chunk);
                    mpi.wait(r);
                }
            }
        }
    };
    let without = run(2, MpiConfig::open_mpi_leave_pinned(), body(0));
    let with = run(2, MpiConfig::open_mpi_leave_pinned(), body(4));
    let w0 = without.reports[1].total.max_pct();
    let w4 = with.reports[1].total.max_pct();
    assert_eq!(w0, 0.0);
    assert!(
        w4 > 50.0,
        "iprobe should recover substantial overlap, got {w4}%"
    );
    // And the receiver actually finishes sooner.
    assert!(with.reports[1].comm_call_time < without.reports[1].comm_call_time);
    assert_eq!(with.check(), []);
}

#[test]
fn blocking_send_recv_has_zero_overlap_everywhere() {
    let out = run(2, MpiConfig::mvapich2(), |mpi| {
        let msg = vec![1u8; 1 << 20];
        for i in 0..5 {
            if mpi.rank() == 0 {
                mpi.send(1, i, &msg);
                mpi.recv(Src::Rank(1), TagSel::Is(1000 + i));
            } else {
                mpi.recv(Src::Rank(0), TagSel::Is(i));
                mpi.send(0, 1000 + i, &msg);
            }
        }
    });
    for r in &out.reports {
        assert_eq!(r.total.min_overlap, 0);
        // The sender's FIN arrives inside MPI_Send (case 1) and the
        // receiver's read completes inside MPI_Recv (case 1).
        assert_eq!(r.total.max_overlap, 0);
    }
    assert_eq!(out.check(), []);
}

#[test]
fn buffered_eager_send_overlaps_following_computation() {
    // LU-style pattern: blocking eager Send returns after buffering; the
    // wire transfer overlaps the next compute phase (paper Sec. 1).
    let out = run(2, MpiConfig::default(), |mpi| {
        for i in 0..20 {
            if mpi.rank() == 0 {
                mpi.send(1, i, vec![3u8; 2048]);
                mpi.compute(100_000); // >> 7 us transfer time
            } else {
                mpi.recv(Src::Rank(0), TagSel::Is(i));
                mpi.compute(100_000);
            }
        }
    });
    let sender = &out.reports[0];
    assert!(
        sender.total.min_pct() > 70.0,
        "buffered eager sends should overlap: min {}%",
        sender.total.min_pct()
    );
    assert_eq!(out.check(), []);
}

#[test]
fn bounds_bracket_truth_across_random_mixed_workloads() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    for seed in 0..6u64 {
        for cfg in [MpiConfig::open_mpi_pipelined(), MpiConfig::mvapich2()] {
            let out = run(2, cfg, move |mpi| {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + mpi.rank() as u64);
                // Symmetric exchange with randomized sizes/compute: both
                // ranks do the same sequence of paired sendrecvs.
                let mut shared = StdRng::seed_from_u64(seed);
                for i in 0..15 {
                    let bytes = *[256usize, 4 << 10, 10 << 10, 64 << 10, 512 << 10]
                        .get(shared.gen_range(0..5))
                        .unwrap();
                    let compute = shared.gen_range(0..1_500_000u64);
                    let me = mpi.rank();
                    let other = 1 - me;
                    let msg = vec![me as u8; bytes];
                    let s = mpi.isend(other, i, &msg);
                    let r = mpi.irecv(Src::Rank(other), TagSel::Is(i));
                    mpi.compute(compute + rng.gen_range(0..1000));
                    mpi.wait(s);
                    mpi.wait(r);
                }
            });
            assert_eq!(out.check(), []);
        }
    }
}

#[test]
fn compute_plus_call_time_equals_elapsed() {
    let out = run(2, MpiConfig::default(), |mpi| {
        for i in 0..10 {
            overlap_iteration(mpi, 4 << 10, 20_000, i);
        }
    });
    for r in &out.reports {
        assert_eq!(
            r.user_compute_time + r.comm_call_time,
            r.elapsed,
            "rank {} time accounting leak",
            r.rank
        );
    }
}

#[test]
fn wait_time_statistics_are_reported() {
    let out = run(2, MpiConfig::default(), |mpi| {
        for i in 0..8 {
            overlap_iteration(mpi, 10 << 10, 5_000, i);
        }
    });
    for r in &out.reports {
        let w = &r.calls["MPI_Wait"];
        assert_eq!(w.count, 8);
        assert!(w.avg() > 0.0);
        // Rank 0 only sends, rank 1 only receives in this pattern.
        let isends = r.calls.get("MPI_Isend").map_or(0, |c| c.count);
        let irecvs = r.calls.get("MPI_Irecv").map_or(0, |c| c.count);
        assert_eq!(isends + irecvs, 8);
    }
}
