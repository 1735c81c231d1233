//! System-level integration: the perf_main-style table methodology, report
//! persistence, determinism, and cross-library consistency.

use overlap_suite::prelude::*;
use simcore::SimOpts;

/// The paper measures the a-priori `xfer_time` table with a ping-pong
/// microbenchmark (`perf_main`). Reproduce that on an idle two-node fabric of
/// each topology — two nodes are the nearest pair — and compare with the
/// table the harness builds: they must agree closely, validating the
/// methodology end to end.
#[test]
fn measured_ping_pong_matches_analytic_table() {
    use simnet::TopologySpec;
    for topology in [
        TopologySpec::Flat,
        TopologySpec::FatTree { k: 8 },
        TopologySpec::Dragonfly { a: 4, p: 2, h: 2 },
    ] {
        let net = NetConfig {
            topology,
            ..NetConfig::default()
        };
        let analytic = default_xfer_table(&net);
        let sizes = vec![1 << 10, 16 << 10, 128 << 10, 1 << 20];
        for (sz, t) in bench::micro::measure_xfer_times(net, sizes) {
            let a = analytic.lookup(sz);
            let rel = (t as f64 - a as f64).abs() / a as f64;
            assert!(
                rel < 0.02,
                "{}, size {sz}: measured {t} vs analytic {a} ({:.1}% off)",
                topology.label(),
                rel * 100.0
            );
        }
    }
}

#[test]
fn reports_roundtrip_through_json_files() {
    let out = run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::mvapich2(),
        RecorderOpts::default(),
        |mpi| {
            mpi.section_begin("solve");
            for i in 0..10 {
                if mpi.rank() == 0 {
                    let r = mpi.isend(1, i, vec![2u8; 64 << 10]);
                    mpi.compute(us(100));
                    mpi.wait(r);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                }
            }
            mpi.section_end();
        },
    )
    .unwrap();
    let dir = std::env::temp_dir().join("overlap_suite_reports");
    std::fs::create_dir_all(&dir).unwrap();
    // The paper: "an output file is generated for each process".
    for r in &out.reports {
        let path = dir.join(format!("overlap.rank{}.json", r.rank));
        r.save_json(&path).unwrap();
        let loaded = OverlapReport::load_json(&path).unwrap();
        assert_eq!(loaded.rank, r.rank);
        assert_eq!(loaded.total, r.total);
        assert_eq!(loaded.sections.len(), r.sections.len());
        assert_eq!(loaded.calls["MPI_Init"], r.calls["MPI_Init"]);
        // Text rendering works on the loaded report.
        let text = loaded.render_text();
        assert!(text.contains("overlap report"));
        assert!(text.contains("solve"));
    }
}

#[test]
fn xfer_table_roundtrips_through_disk_and_drives_bounds() {
    let net = NetConfig::default();
    let table = default_xfer_table(&net);
    let path = std::env::temp_dir().join("overlap_suite_xfer_table.json");
    table.save(&path).unwrap();
    let loaded = XferTimeTable::load(&path).unwrap();
    let out = simmpi::run_mpi_with(
        2,
        net,
        MpiConfig::default(),
        RecorderOpts::default(),
        loaded,
        SimOpts::default(),
        None,
        |mpi| {
            if mpi.rank() == 0 {
                let r = mpi.isend(1, 0, &[1u8; 10 << 10]);
                mpi.compute(ms(1));
                mpi.wait(r);
            } else {
                mpi.recv(Src::Rank(0), TagSel::Is(0));
            }
        },
    )
    .unwrap();
    // Sender fully overlapped a 10 KB eager transfer under 1 ms of compute.
    assert!(out.reports[0].total.min_pct() > 95.0);
}

#[test]
fn identical_runs_are_bit_identical() {
    let run_once = || {
        run_mpi(
            4,
            NetConfig::default(),
            MpiConfig::open_mpi_pipelined(),
            RecorderOpts::default(),
            |mpi| {
                let n = mpi.nranks();
                for i in 0..8 {
                    let next = (mpi.rank() + 1) % n;
                    let prev = (mpi.rank() + n - 1) % n;
                    let s = mpi.isend(next, i, vec![5u8; 150 << 10]);
                    let r = mpi.irecv(Src::Rank(prev), TagSel::Is(i));
                    mpi.compute(us(321));
                    mpi.waitall(&[s, r]);
                    mpi.allreduce(&[1.0], ReduceOp::Sum);
                }
            },
        )
        .unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events_processed, b.events_processed);
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.total, rb.total);
        assert_eq!(ra.user_compute_time, rb.user_compute_time);
        assert_eq!(ra.comm_call_time, rb.comm_call_time);
    }
    for (ta, tb) in a.transfers.iter().zip(&b.transfers) {
        assert_eq!(ta.phys_start, tb.phys_start);
        assert_eq!(ta.phys_end, tb.phys_end);
    }
}

#[test]
fn mpi_and_armci_agree_on_fabric_accounting() {
    // Move the same bytes with both libraries; ground-truth byte counts and
    // transfer-time sums must agree (the fabric model is library-agnostic).
    let volume = 512usize << 10;
    let reps = 8;
    let mpi_out = run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::open_mpi_leave_pinned(),
        RecorderOpts::default(),
        move |mpi| {
            for i in 0..reps {
                if mpi.rank() == 0 {
                    mpi.send(1, i as u64, vec![1u8; volume]);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i as u64));
                }
            }
        },
    )
    .unwrap();
    let armci_out = run_armci(2, NetConfig::default(), RecorderOpts::default(), move |a| {
        let mem = a.malloc(volume);
        a.barrier();
        if a.rank() == 0 {
            for _ in 0..reps {
                a.put(&mem, 1, 0, vec![1u8; volume]);
            }
        }
        a.barrier();
    })
    .unwrap();
    let sum = |ts: &[simnet::TransferRecord]| -> (usize, u64) {
        (
            ts.iter().map(|t| t.bytes).sum(),
            ts.iter().map(|t| t.duration()).sum(),
        )
    };
    let (mpi_bytes, mpi_dur) = sum(&mpi_out.transfers);
    let (armci_bytes, armci_dur) = sum(&armci_out.transfers);
    assert_eq!(mpi_bytes, armci_bytes);
    // Same payloads, same fabric: durations within 1% (protocol timing
    // differs slightly in when DMAs start, not how long they take).
    let rel = (mpi_dur as f64 - armci_dur as f64).abs() / mpi_dur as f64;
    assert!(rel < 0.01, "durations diverge: {mpi_dur} vs {armci_dur}");
}

#[test]
fn switch_topology_shapes_latency() {
    // 2 nodes on the same leaf vs across leaves: the cross-switch pair pays
    // the extra hop on every message, visible in the wait-time stats.
    let run_pair = |a: usize, b: usize| {
        let net = NetConfig {
            switch_radix: Some(2),
            ..NetConfig::default()
        };
        let out = run_mpi(
            4,
            net,
            MpiConfig::default(),
            RecorderOpts::default(),
            move |mpi| {
                if mpi.rank() == a {
                    for i in 0..10 {
                        let r = mpi.irecv(Src::Rank(b), TagSel::Is(i));
                        mpi.send(b, 100 + i, &[1u8; 64]);
                        mpi.wait(r);
                    }
                } else if mpi.rank() == b {
                    for i in 0..10 {
                        let r = mpi.irecv(Src::Rank(a), TagSel::Is(100 + i));
                        mpi.wait(r);
                        mpi.send(a, i, &[1u8; 64]);
                    }
                }
            },
        )
        .unwrap();
        out.reports[a].calls["MPI_Wait"].avg()
    };
    let same_leaf = run_pair(0, 1); // nodes 0,1 share a radix-2 switch
    let cross_leaf = run_pair(0, 2); // nodes 0,2 are on different switches
                                     // Each round trip crosses the fabric twice; 2 us extra per direction.
    assert!(
        cross_leaf > same_leaf + 3_000.0,
        "cross-switch wait should include extra hops: {same_leaf} vs {cross_leaf}"
    );
}

#[test]
fn cluster_summary_merges_a_real_run() {
    use overlap_core::ClusterSummary;
    let out = run_mpi(
        4,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        |mpi| {
            let n = mpi.nranks();
            for i in 0..5 {
                let next = (mpi.rank() + 1) % n;
                let prev = (mpi.rank() + n - 1) % n;
                let s = mpi.isend(next, i, &[1u8; 8192]);
                let r = mpi.irecv(Src::Rank(prev), TagSel::Is(i));
                mpi.compute(us(100));
                mpi.waitall(&[s, r]);
            }
        },
    )
    .unwrap();
    let sum = ClusterSummary::merge(&out.reports);
    assert_eq!(sum.ranks, 4);
    // Every rank sent and received 5 messages: 10 accounted per rank.
    assert_eq!(sum.total.transfers, 40);
    let per_rank: u64 = out.reports.iter().map(|r| r.total.transfers).sum();
    assert_eq!(sum.total.transfers, per_rank);
    assert!(sum.worst_max_pct <= sum.best_max_pct);
}
