//! ARMCI semantics: one-sided data movement, handles, and the
//! blocking-vs-nonblocking overlap contrast of paper Figure 19.

use overlap_core::RecorderOpts;
use simarmci::run_armci;
use simmpi::RunOutcome;
use simnet::NetConfig;

fn run(nranks: usize, body: impl Fn(&mut simarmci::Armci) + Send + Sync + 'static) -> RunOutcome {
    let rec = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    run_armci(nranks, NetConfig::default(), rec, body).expect("run failed")
}

#[test]
fn put_places_data_in_remote_segment() {
    run(2, |a| {
        let mem = a.malloc(1024);
        if a.rank() == 0 {
            a.put(&mem, 1, 100, &[7u8; 64]);
            a.barrier();
        } else {
            a.barrier();
            let local = a.local_read(&mem, 100, 64);
            assert_eq!(local, vec![7u8; 64]);
            assert_eq!(a.local_read(&mem, 0, 1)[0], 0);
        }
    });
}

#[test]
fn get_fetches_remote_segment() {
    run(2, |a| {
        let mem = a.malloc(4096);
        if a.rank() == 1 {
            a.put(&mem, 1, 0, (0u8..=255).collect::<Vec<_>>());
        }
        a.barrier();
        if a.rank() == 0 {
            let data = a.get(&mem, 1, 10, 20);
            assert_eq!(&data[..], &(10u8..30).collect::<Vec<_>>()[..]);
        }
    });
}

#[test]
fn nb_put_wait_and_fence() {
    run(3, |a| {
        let mem = a.malloc(256);
        if a.rank() == 0 {
            let h1 = a.nb_put(&mem, 1, 0, &[1u8; 128]);
            let h2 = a.nb_put(&mem, 2, 0, &[2u8; 128]);
            a.compute(50_000);
            a.wait(h1);
            a.wait(h2);
            a.barrier();
        } else {
            a.barrier();
            let v = a.local_read(&mem, 0, 128);
            assert_eq!(v, vec![a.rank() as u8; 128]);
        }
    });
}

#[test]
fn allreduce_sums_across_ranks() {
    // 3, 5 and 8 ranks: binomial trees whose rank count is not a power of
    // two, and one that is.
    for n in [3usize, 4, 5, 8] {
        run(n, move |a| {
            let out = a.allreduce_sum(&[1.0, a.rank() as f64]);
            assert_eq!(out, vec![n as f64, (n * (n - 1) / 2) as f64], "{n} ranks");
        });
    }
}

#[test]
fn blocking_put_is_case1_zero_overlap() {
    let out = run(2, |a| {
        let mem = a.malloc(1 << 20);
        a.barrier();
        if a.rank() == 0 {
            for _ in 0..10 {
                a.put(&mem, 1, 0, vec![1u8; 512 << 10]);
                a.compute(1_000_000);
            }
        } else {
            a.compute(20_000_000);
        }
        a.barrier();
    });
    let r0 = &out.reports[0];
    assert_eq!(r0.total.transfers, 10);
    assert_eq!(
        r0.total.max_overlap, 0,
        "blocking puts must show zero overlap"
    );
    assert_eq!(r0.total.case_same_call, 10);
}

#[test]
fn nonblocking_put_overlaps_computation() {
    let out = run(2, |a| {
        let mem = a.malloc(1 << 20);
        a.barrier();
        if a.rank() == 0 {
            for _ in 0..10 {
                let h = a.nb_put(&mem, 1, 0, vec![1u8; 512 << 10]);
                a.compute(1_000_000); // > transfer time (~529 us)
                a.wait(h);
            }
        } else {
            a.compute(20_000_000);
        }
        a.barrier();
    });
    let r0 = &out.reports[0];
    assert!(
        r0.total.max_pct() > 95.0,
        "non-blocking puts should overlap nearly fully: {}",
        r0.total.max_pct()
    );
    assert!(r0.total.min_pct() > 90.0);
    assert_eq!(out.check(), []);
}

#[test]
fn nb_get_returns_data_after_overlapped_wait() {
    run(2, |a| {
        let mem = a.malloc(8192);
        if a.rank() == 1 {
            a.put(&mem, 1, 0, &[42u8; 8192]);
        }
        a.barrier();
        if a.rank() == 0 {
            let h = a.nb_get(&mem, 1, 0, 8192);
            a.compute(100_000);
            let data = a.wait(h).expect("get data");
            assert_eq!(&data[..], &[42u8; 8192][..]);
        }
    });
}

#[test]
fn one_sided_ops_record_ground_truth() {
    let out = run(2, |a| {
        let mem = a.malloc(4096);
        a.barrier();
        if a.rank() == 0 {
            a.put(&mem, 1, 0, &[1u8; 4096]);
            let _ = a.get(&mem, 1, 0, 4096);
        }
        a.barrier();
    });
    assert_eq!(out.transfers.len(), 2);
    let kinds: Vec<_> = out.transfers.iter().map(|t| t.kind).collect();
    assert!(kinds.contains(&simnet::TransferKind::RdmaWrite));
    assert!(kinds.contains(&simnet::TransferKind::RdmaRead));
}

#[test]
fn malloc_segments_are_independent_per_rank() {
    run(4, |a| {
        let mem = a.malloc(128);
        let me = a.rank() as u8;
        a.put(&mem, a.rank(), 0, &[me; 128]);
        a.barrier();
        // Everyone reads everyone: segment r must hold r everywhere.
        for r in 0..a.nranks() {
            let data = if r == a.rank() {
                a.local_read(&mem, 0, 128).into()
            } else {
                a.get(&mem, r, 0, 128)
            };
            assert_eq!(&data[..], &[r as u8; 128][..]);
        }
    });
}

#[test]
fn allreduce_refuses_mismatched_lengths() {
    let err = run_armci(2, NetConfig::default(), RecorderOpts::default(), |a| {
        let vals = vec![1.0; 2 + a.rank()];
        a.allreduce_sum(&vals);
    })
    .expect_err("ranks passing different lengths must fail the run");
    let line = err.one_line();
    assert!(line.contains("reduce length mismatch"), "{line}");
}
