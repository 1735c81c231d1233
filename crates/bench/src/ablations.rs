//! Ablation studies for the design choices called out in `DESIGN.md` §6.

use bytes::Bytes;
use overlap_core::{RecorderOpts, SizeBins, XferTimeTable};
use simmpi::{default_xfer_table, MpiConfig, Src, TagSel};
use simnet::NetConfig;

use crate::sim::{self, Dim};
use crate::{pct, Series};

/// Eager-threshold sweep: the *receiver-side* overlap cliff for a fixed
/// message size. Below the threshold the message arrives eagerly and the
/// receiver's bound allows full overlap (case 3); above it, the rendezvous
/// is only noticed inside the wait and overlap collapses to zero (case 1) —
/// the protocol-boundary effect behind the paper's short-vs-long contrasts.
pub fn ablation_eager_threshold() -> Series {
    let bytes = 32 << 10;
    let mut rows = Vec::new();
    for threshold in [4 << 10, 16 << 10, 32 << 10, 64 << 10] {
        let cfg = MpiConfig {
            eager_threshold: threshold,
            ..MpiConfig::open_mpi_leave_pinned()
        };
        let out = sim::mpi(
            None,
            2,
            NetConfig::default(),
            cfg,
            RecorderOpts::default(),
            move |mpi| {
                let msg = Bytes::from(vec![1u8; bytes]);
                for i in 0..50 {
                    if mpi.rank() == 0 {
                        mpi.send(1, i, &msg);
                    } else {
                        let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                        mpi.compute(200_000);
                        mpi.wait(r);
                    }
                    mpi.barrier();
                }
            },
        );
        let r = &out.reports[1];
        rows.push(vec![
            (threshold >> 10).to_string(),
            pct(r.total.min_pct()),
            pct(r.total.max_pct()),
            format!("{:.1}", r.calls["MPI_Wait"].avg() / 1e3),
        ]);
    }
    Series {
        id: "ablation-eager",
        title: "Receiver overlap of a 32 KB message vs eager threshold".to_string(),
        columns: ["threshold_KB", "rcv_min%", "rcv_max%", "wait_us"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Fragment-size sweep for the pipelined scheme: the overlappable share is
/// exactly the first fragment's fraction of the message.
pub fn ablation_fragment_size() -> Series {
    let bytes = 1 << 20;
    let mut rows = Vec::new();
    for frag in [32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10] {
        let cfg = MpiConfig {
            fragment_size: frag,
            ..MpiConfig::open_mpi_pipelined()
        };
        let out = sim::mpi(
            None,
            2,
            NetConfig::default(),
            cfg,
            RecorderOpts::default(),
            move |mpi| {
                let msg = Bytes::from(vec![1u8; bytes]);
                for i in 0..20 {
                    if mpi.rank() == 0 {
                        let r = mpi.isend(1, i, &msg);
                        mpi.compute(2_000_000);
                        mpi.wait(r);
                    } else {
                        mpi.recv(Src::Rank(0), TagSel::Is(i));
                    }
                    mpi.barrier();
                }
            },
        );
        rows.push(vec![
            (frag >> 10).to_string(),
            pct(out.reports[0].total.max_pct()),
            pct(100.0 * frag as f64 / bytes as f64),
        ]);
    }
    Series {
        id: "ablation-frag",
        title: "Pipelined sender max overlap vs fragment size (1 MB message)".to_string(),
        columns: ["frag_KB", "snd_max%", "first_frag_share%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Probe-frequency sweep (the SP tuning knob): receiver overlap vs number of
/// `MPI_Iprobe` calls inserted into the computation region.
pub fn ablation_iprobe_count() -> Series {
    let mut rows = Vec::new();
    for probes in [0usize, 1, 2, 4, 8, 16] {
        let out = sim::mpi(
            None,
            2,
            NetConfig::default(),
            MpiConfig::mvapich2(),
            RecorderOpts::default(),
            move |mpi| {
                let msg = Bytes::from(vec![1u8; 1 << 20]);
                for i in 0..20 {
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
                    mpi.barrier();
                }
            },
        );
        let r = &out.reports[1];
        rows.push(vec![
            probes.to_string(),
            pct(r.total.min_pct()),
            pct(r.total.max_pct()),
            format!("{:.1}", r.calls["MPI_Wait"].avg() / 1e3),
        ]);
    }
    Series {
        id: "ablation-iprobe",
        title: "Receiver overlap vs inserted Iprobe count (1 MB direct RDMA)".to_string(),
        columns: ["iprobes", "rcv_min%", "rcv_max%", "wait_us"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Transfer-table resolution: bound tightness (max−min gap) against ground
/// truth as the a-priori table gets coarser.
pub fn ablation_table_resolution() -> Series {
    type TableOf = fn(&NetConfig) -> XferTimeTable;
    let sparse: TableOf = |net| {
        XferTimeTable::from_points(vec![
            (1, net.nearest_transfer_time(1)),
            (1 << 20, net.nearest_transfer_time(1 << 20)),
        ])
    };
    let constant: TableOf =
        |net| XferTimeTable::from_points(vec![(1, net.nearest_transfer_time(64 << 10))]);
    let mut rows = Vec::new();
    for (name, table) in [
        ("dense", default_xfer_table as TableOf),
        ("two-point", sparse),
        ("constant", constant),
    ] {
        let out = sim::mpi_with_table(
            None,
            2,
            NetConfig::default(),
            MpiConfig::open_mpi_leave_pinned(),
            RecorderOpts::default(),
            table,
            move |mpi| {
                let mut shared = 1u64;
                let msg = Bytes::from(vec![1u8; 512 << 10]);
                for i in 0..30 {
                    let bytes = [4 << 10, 64 << 10, 512 << 10][(shared % 3) as usize];
                    shared = shared.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if mpi.rank() == 0 {
                        let r = mpi.isend(1, i, msg.slice(..bytes));
                        mpi.compute(800_000);
                        mpi.wait(r);
                    } else {
                        let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                        mpi.compute(400_000);
                        mpi.wait(r);
                        mpi.iprobe(Src::Any, TagSel::Any);
                    }
                    mpi.barrier();
                }
            },
        );
        let r = &out.reports[0].total;
        let truth = out.true_overlap(0);
        rows.push(vec![
            name.to_string(),
            pct(r.min_pct()),
            pct(r.max_pct()),
            format!("{:.1}", (r.max_overlap - r.min_overlap) as f64 / 1e6),
            format!("{:.1}", truth as f64 / 1e6),
        ]);
    }
    Series {
        id: "ablation-table",
        title: "Bound tightness vs a-priori table resolution".to_string(),
        columns: ["table", "min%", "max%", "gap_ms", "true_ms"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Recorder queue-capacity sweep: flush count vs identical aggregates.
pub fn ablation_queue_capacity() -> Series {
    let mut rows = Vec::new();
    for cap in [16usize, 256, 4096, 65536] {
        let rec = RecorderOpts {
            queue_capacity: cap,
            bins: SizeBins::default(),
            enabled: true,
            trace: false,
        };
        let out = sim::mpi(
            None,
            2,
            NetConfig::default(),
            MpiConfig::default(),
            rec,
            |mpi| {
                for i in 0..200 {
                    if mpi.rank() == 0 {
                        let r = mpi.isend(1, i, &[1u8; 4096]);
                        mpi.compute(30_000);
                        mpi.wait(r);
                    } else {
                        mpi.recv(Src::Rank(0), TagSel::Is(i));
                    }
                }
            },
        );
        let r = &out.reports[0];
        rows.push(vec![
            cap.to_string(),
            r.queue_flushes.to_string(),
            r.events_recorded.to_string(),
            pct(r.total.max_pct()),
        ]);
    }
    Series {
        id: "ablation-queue",
        title: "Event-queue capacity vs flush count (results invariant)".to_string(),
        columns: ["capacity", "flushes", "events", "snd_max%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Incast contention: `n` senders push to rank 0 simultaneously. With
/// ingress contention modeled, physical durations stretch past the idle
/// a-priori table — the `congestion_excess` slack that loosens the upper
/// bound. Demonstrates the bound semantics under load.
pub fn ablation_incast() -> Series {
    let grid: Vec<(bool, usize)> = [false, true]
        .iter()
        .flat_map(|&c| [1usize, 3, 7].map(|s| (c, s)))
        .collect();
    let rows = crate::runner::par_map(&grid, |&(contention, senders)| {
        let net = NetConfig {
            model_ingress_contention: contention,
            ..NetConfig::infiniband_2006()
        };
        // The idle table knows nothing of the topology, so the harness's own
        // config gives the same one the run used under any `--topology`.
        let table = default_xfer_table(&net);
        let out = sim::mpi(
            None,
            senders + 1,
            net,
            MpiConfig::mvapich2(),
            RecorderOpts::default(),
            move |mpi| {
                if mpi.rank() == 0 {
                    let reqs: Vec<_> = (1..=senders)
                        .map(|s| mpi.irecv(Src::Rank(s), TagSel::Is(7)))
                        .collect();
                    mpi.waitall(&reqs);
                } else {
                    let r = mpi.isend(0, 7, vec![1u8; 256 << 10]);
                    mpi.compute(600_000);
                    mpi.wait(r);
                }
            },
        );
        let slack: u64 = (1..=senders)
            .map(|r| out.congestion_excess(r, &table))
            .sum();
        let r1 = &out.reports[1];
        vec![
            if contention { "on" } else { "off" }.to_string(),
            senders.to_string(),
            pct(r1.total.min_pct()),
            pct(r1.total.max_pct()),
            format!("{:.1}", slack as f64 / 1e3),
        ]
    });
    Series {
        id: "ablation-incast",
        title: "Incast: sender bounds and congestion slack vs fan-in".to_string(),
        columns: ["ingress", "senders", "snd1_min%", "snd1_max%", "slack_us"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Effective bandwidth vs message size, per protocol configuration — the
/// classic companion curve to the overlap plots (what a `perf_main`-style
/// sweep would show for the *library* rather than the raw fabric).
pub fn ablation_bandwidth() -> Series {
    let sizes: Vec<usize> = vec![1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20];
    let rows = crate::runner::par_map(&sizes, |&size| {
        let mut row = vec![if size >= 1 << 20 {
            format!("{}M", size >> 20)
        } else {
            format!("{}K", size >> 10)
        }];
        for cfg in [
            MpiConfig::open_mpi_pipelined(),
            MpiConfig::open_mpi_leave_pinned(),
        ] {
            let reps = 10usize;
            let out = sim::mpi(
                None,
                2,
                NetConfig::default(),
                cfg,
                RecorderOpts::default(),
                move |mpi| {
                    // Steady-state one-way stream with a closing ack.
                    if mpi.rank() == 0 {
                        let msg = Bytes::from(vec![1u8; size]);
                        for i in 0..reps {
                            mpi.send(1, i as u64, &msg);
                        }
                        mpi.recv(Src::Rank(1), TagSel::Is(999));
                    } else {
                        for i in 0..reps {
                            mpi.recv(Src::Rank(0), TagSel::Is(i as u64));
                        }
                        mpi.send(0, 999, &[0u8; 8]);
                    }
                },
            );
            let bytes = (size * reps) as f64;
            // Exclude init/finalize sync by using the data-only span from
            // ground truth records. A run can complete zero transfers (e.g.
            // under an aggressive fault plan) — report zero goodput rather
            // than panicking on an empty span.
            let start = out.transfers.iter().map(|t| t.phys_start).min();
            let end = out.transfers.iter().map(|t| t.phys_end).max();
            let gbps = match (start, end) {
                (Some(s), Some(e)) if e > s => bytes / (e - s) as f64, // bytes per ns == GB/s
                _ => 0.0,
            };
            row.push(format!("{gbps:.3}"));
        }
        row
    });
    Series {
        id: "ablation-bandwidth",
        title: "Library streaming bandwidth vs message size (GB/s; fabric peak 1.0)".to_string(),
        columns: ["size", "pipelined", "direct_read"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// The message-size breakdown the paper gathered for every NAS benchmark
/// but omitted "due to space considerations" (Sec. 4): per-bin min/max
/// overlap for process 0 at class A, np = 4.
pub fn extra_nas_bins() -> Series {
    use nasbench::runner::NasBenchmark;
    use nasbench::Class;
    let mut rows = Vec::new();
    for bench in [
        NasBenchmark::Bt,
        NasBenchmark::Cg,
        NasBenchmark::Lu,
        NasBenchmark::Ft,
        NasBenchmark::Sp,
    ] {
        let art = sim::nas(None, bench, Class::A, 4, RecorderOpts::default());
        let r = &art.reports()[0];
        for (label, b) in r.bin_labels.iter().zip(&r.by_bin) {
            if b.transfers == 0 {
                continue;
            }
            rows.push(vec![
                bench.name().to_string(),
                label.clone(),
                b.transfers.to_string(),
                pct(b.min_pct()),
                pct(b.max_pct()),
                format!("{:.2}", b.nonoverlapped_min() as f64 / 1e6),
            ]);
        }
    }
    Series {
        id: "extra-bins",
        title: "NAS per-message-size breakdown (class A, np=4, process 0)".to_string(),
        columns: ["bench", "size_bin", "n", "min%", "max%", "non_ovl_ms"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// The paper's closing wish (Sec. 2.2/6): "if it were possible to obtain
/// time-stamps on data transfers from the network interface card, a more
/// precise characterization would be possible." The simulator *has* those
/// timestamps (ground truth), so this harness quantifies exactly what NIC
/// support would buy: the true overlap sits between the host-side bounds,
/// and the bound gap is the measurement uncertainty NIC timestamps would
/// remove.
pub fn extra_nic_timestamps() -> Series {
    let mut rows = Vec::new();
    for compute_us in [100u64, 400, 700, 1000, 1300] {
        let out = sim::mpi(
            None,
            2,
            NetConfig::default(),
            MpiConfig::open_mpi_leave_pinned(),
            RecorderOpts::default(),
            move |mpi| {
                let msg = Bytes::from(vec![1u8; 1 << 20]);
                for i in 0..30 {
                    if mpi.rank() == 0 {
                        let r = mpi.isend(1, i, &msg);
                        mpi.compute(compute_us * 1_000);
                        mpi.wait(r);
                    } else {
                        mpi.recv(Src::Rank(0), TagSel::Is(i));
                    }
                    mpi.barrier();
                }
            },
        );
        let r = &out.reports[0].total;
        let truth = out.true_overlap(0);
        let true_pct = 100.0 * truth as f64 / r.data_transfer_time as f64;
        rows.push(vec![
            compute_us.to_string(),
            pct(r.min_pct()),
            pct(true_pct),
            pct(r.max_pct()),
            pct(r.max_pct() - r.min_pct()),
        ]);
    }
    Series {
        id: "extra-nic-timestamps",
        title: "Host-side bounds vs NIC-timestamp ground truth (1 MB direct RDMA sender)"
            .to_string(),
        columns: ["compute_us", "min%", "TRUE%", "max%", "uncertainty%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Fault-injection sweep: overlap bounds, goodput, and retransmission work
/// as the fabric loss rate rises, per message size. The bounds must degrade
/// gracefully (flagged transfers, confidence < 1) rather than collapse, and
/// goodput should fall roughly with the retransmission volume.
pub fn ablation_faults() -> Series {
    use simnet::{FaultKind, FaultPlan};
    let grid: Vec<(u32, usize)> = [0u32, 1, 5, 10]
        .iter()
        .flat_map(|&loss| [4usize << 10, 64 << 10, 256 << 10].map(|s| (loss, s)))
        .collect();
    let rows = crate::runner::par_map(&grid, |&(loss_pct, size)| {
        let faults = if loss_pct == 0 {
            FaultPlan::none()
        } else {
            FaultPlan {
                seed: 23,
                drop_prob: loss_pct as f64 / 100.0,
                delay_prob: 0.02,
                max_extra_delay: 10_000,
                ..FaultPlan::none()
            }
        };
        let net = NetConfig {
            faults,
            ..NetConfig::default()
        };
        let rounds = 20usize;
        let out = sim::mpi(
            Some(format!("ablation-faults/loss{loss_pct}-{}K", size >> 10)),
            4,
            net,
            MpiConfig::default(),
            RecorderOpts::default(),
            move |mpi| {
                let me = mpi.rank();
                let n = mpi.nranks();
                let dst = (me + 1) % n;
                let src = (me + n - 1) % n;
                let msg = Bytes::from(vec![1u8; size]);
                for i in 0..rounds {
                    let r = mpi.irecv(Src::Rank(src), TagSel::Is(i as u64));
                    let s = mpi.isend(dst, i as u64, &msg);
                    mpi.compute(300_000);
                    mpi.wait(s);
                    mpi.wait(r);
                }
            },
        );
        let r = &out.reports[0].total;
        let retrans: u64 = out.rel_stats.iter().map(|s| s.retransmissions).sum();
        let dropped = out
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Dropped))
            .count();
        // Application payload delivered per wall time (bytes/ns == GB/s):
        // retransmitted wire bytes don't count, so goodput falls as the
        // loss rate climbs.
        let goodput = (size * rounds * 4) as f64 / out.end_time as f64;
        vec![
            loss_pct.to_string(),
            (size >> 10).to_string(),
            pct(r.min_pct()),
            pct(r.max_pct()),
            format!("{:.2}", r.confidence()),
            format!("{goodput:.3}"),
            dropped.to_string(),
            retrans.to_string(),
        ]
    });
    Series {
        id: "ablation-faults",
        title: "Overlap bounds and goodput vs fabric loss rate (4-rank ring)".to_string(),
        columns: [
            "loss%",
            "size_KB",
            "min%",
            "max%",
            "conf",
            "goodput_GBps",
            "drops",
            "retrans",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// Topology sweep: the same 32-rank neighbor exchange under the flat
/// crossbar, a fat-tree, and a dragonfly, with and without a co-located
/// tenant's background traffic. Hierarchical fabrics route hop-by-hop over
/// shared links, so per-hop queuing (and the tenant's injected load) shows
/// up as a `contention` slice in the wait-state attribution and as a longer
/// end-to-end runtime — the flat rows reproduce the exclusive-use model
/// exactly.
pub fn ablation_topology() -> Series {
    use simnet::{BackgroundJob, TopologySpec};
    let topos = [
        TopologySpec::Flat,
        TopologySpec::FatTree { k: 8 },
        TopologySpec::Dragonfly { a: 4, p: 2, h: 2 },
    ];
    // Background tenant: off, a light uniform load, a heavy uniform load.
    let tenants: [(&str, Option<u64>); 3] = [
        ("off", None),
        ("light", Some(400_000)),
        ("heavy", Some(50_000)),
    ];
    let grid: Vec<(TopologySpec, (&str, Option<u64>))> = topos
        .iter()
        .flat_map(|&t| tenants.map(|b| (t, b)))
        .collect();
    let ranks = 32usize;
    let bytes = 64 << 10; // above the eager threshold: direct-read rendezvous
    let rows = crate::runner::par_map(&grid, |&(spec, (bg_label, period))| {
        let net = NetConfig {
            model_ingress_contention: true,
            topology: spec,
            background: period.map(|p| BackgroundJob {
                msg_bytes: 16 << 10,
                period_ns: p,
            }),
            ..NetConfig::infiniband_2006()
        };
        let out = sim::mpi(
            Some(format!("ablation-topology/{}-bg-{bg_label}", spec.label())),
            ranks,
            Dim::Pinned(net), // the fabric is this harness's swept variable
            MpiConfig::open_mpi_leave_pinned(),
            RecorderOpts::default(),
            move |mpi| {
                let me = mpi.rank();
                let n = mpi.nranks();
                // Shifted neighbor exchange: pair with ranks ±n/4 so most
                // routes cross switch boundaries on hierarchical fabrics.
                let dst = (me + n / 4) % n;
                let src = (me + n - n / 4) % n;
                let msg = Bytes::from(vec![1u8; bytes]);
                for i in 0..6u64 {
                    let r = mpi.irecv(Src::Rank(src), TagSel::Is(i));
                    let s = mpi.isend(dst, i, &msg);
                    mpi.compute(200_000);
                    mpi.wait(s);
                    mpi.wait(r);
                }
            },
        );
        let r = &out.reports[0].total;
        vec![
            spec.label(),
            bg_label.to_string(),
            pct(r.min_pct()),
            pct(r.max_pct()),
            format!("{:.2}", out.end_time as f64 / 1e6),
        ]
    });
    Series {
        id: "ablation-topology",
        title: "Overlap bounds and runtime vs fabric topology and tenant load (32-rank exchange)"
            .to_string(),
        columns: ["topology", "bg", "min%", "max%", "end_ms"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Datacenter-scale smoke: a 4096-rank 2-D halo exchange on a fitted
/// fat-tree with ingress contention and a background tenant, wait-state
/// tracing always on. Validates at scale that every transfer's per-cause
/// breakdown (including the new per-hop `contention` slice) reconciles
/// *exactly* against its non-overlapped time, and reports the aggregate
/// contention the fabric attributed.
pub fn halo_4k() -> Series {
    use overlap_core::{attribution, WaitCause};
    use simnet::{BackgroundJob, TopologySpec};
    let side = 64usize; // 64 x 64 torus = 4096 ranks
    let n = side * side;
    let bytes = 16 << 10; // above the eager threshold: direct-read rendezvous
    let net = NetConfig {
        model_ingress_contention: true,
        // fat-tree:k=8 has 128 hosts; `fitted` grows it to k=26 (4394 hosts).
        topology: TopologySpec::FatTree { k: 8 },
        background: Some(BackgroundJob {
            msg_bytes: 8 << 10,
            period_ns: 200_000,
        }),
        ..NetConfig::infiniband_2006()
    };
    let rec = RecorderOpts {
        trace: true, // reconciliation is checked in-harness below
        ..RecorderOpts::default()
    };
    let out = sim::mpi(
        None,
        n,
        Dim::Pinned(net), // the fitted fat-tree is what this harness measures
        MpiConfig::open_mpi_leave_pinned(),
        rec,
        move |mpi| {
            let me = mpi.rank();
            let (x, y) = (me % side, me / side);
            let at = |x: usize, y: usize| (y % side) * side + (x % side);
            let neighbors = [
                at(x + 1, y),
                at(x + side - 1, y),
                at(x, y + 1),
                at(x, y + side - 1),
            ];
            let msg = Bytes::from(vec![1u8; bytes]);
            for iter in 0..2u64 {
                let recvs: Vec<_> = neighbors
                    .iter()
                    .map(|&nb| mpi.irecv(Src::Rank(nb), TagSel::Is(iter)))
                    .collect();
                let sends: Vec<_> = neighbors
                    .iter()
                    .map(|&nb| mpi.isend(nb, iter, &msg))
                    .collect();
                mpi.compute(150_000);
                mpi.waitall(&sends);
                mpi.waitall(&recvs);
            }
        },
    );
    let mut contention_ns = 0u64;
    let mut nonoverlap_ns = 0u64;
    let mut transfers = 0usize;
    let mut mismatches = 0usize;
    for tr in &out.traces {
        let attr = attribution::attribute(tr);
        contention_ns += attr.totals.get(WaitCause::Contention);
        for rec in &attr.records {
            transfers += 1;
            nonoverlap_ns += rec.nonoverlap;
            let sum: u64 = rec.breakdown.iter().map(|s| s.ns).sum();
            if sum != rec.nonoverlap {
                mismatches += 1;
            }
        }
    }
    let rows = vec![vec![
        n.to_string(),
        transfers.to_string(),
        format!("{:.2}", out.end_time as f64 / 1e6),
        format!("{:.2}", nonoverlap_ns as f64 / 1e6),
        format!("{:.2}", contention_ns as f64 / 1e6),
        mismatches.to_string(),
    ]];
    Series {
        id: "halo-4k",
        title: "4096-rank halo exchange on a fitted fat-tree (per-hop attribution reconciled)"
            .to_string(),
        columns: [
            "ranks",
            "transfers",
            "end_ms",
            "nonoverlap_ms",
            "contention_ms",
            "reconcile_mismatches",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// One ML-training-step iteration: per-layer backward compute immediately
/// followed by an `iallreduce` of that layer's gradient bucket, with the
/// reductions overlapping the remaining layers' compute — the
/// allreduce-heavy pattern modern data-parallel training overlaps, and the
/// one the progress-model ablation makes visible on something other than a
/// 2006 microbenchmark.
fn ml_training_step(mpi: &mut simmpi::Mpi, layers: usize, bucket: usize, compute_ns: u64) {
    let grad = vec![1.0f64; bucket];
    let mut pending = Vec::with_capacity(layers);
    for _ in 0..layers {
        mpi.compute(compute_ns);
        pending.push(mpi.iallreduce(&grad, simmpi::ReduceOp::Sum));
    }
    // Optimizer step: every bucket must be reduced before weights update.
    for h in pending {
        let _ = mpi.icoll_wait(h);
    }
}

/// Progress-model grid: model × workload × message size, wait-state tracing
/// always on. For every cell the per-transfer cause breakdown must
/// reconcile exactly (the `mismatch` column is asserted 0 in CI's
/// progress-smoke job); the `steal_us` column shows the async-rank fiber's
/// stolen cycles, and the bounds shift exactly as `docs/PROGRESS.md`
/// derives: late-posted receives stop costing overlap under `early-bird`,
/// and `hw-tag` completes transfers with zero host involvement.
pub fn ablation_progress() -> Series {
    use simmpi::ProgressModel;
    let models = [
        ProgressModel::Polling,
        ProgressModel::AsyncRank {
            poll_interval: ProgressModel::DEFAULT_POLL_INTERVAL,
        },
        ProgressModel::EarlyBird,
        ProgressModel::HwTag,
    ];
    let workloads = ["halo", "late-recv", "ml-step"];
    let sizes = [4usize << 10, 64 << 10];
    let mut grid = Vec::new();
    for model in models {
        for workload in workloads {
            for bytes in sizes {
                grid.push((model, workload, bytes));
            }
        }
    }
    let rows = crate::runner::par_map(&grid, |&(model, workload, bytes)| {
        let n = 8usize;
        let cfg = MpiConfig {
            progress: model,
            ..MpiConfig::open_mpi_leave_pinned()
        };
        let rec = RecorderOpts {
            trace: true, // reconciliation is checked per cell below
            ..RecorderOpts::default()
        };
        let out = sim::mpi(
            None,
            n,
            NetConfig::default(),
            Dim::Pinned(cfg), // the progress model is this harness's swept variable
            rec,
            move |mpi| match workload {
                "halo" => {
                    let me = mpi.rank();
                    let left = (me + n - 1) % n;
                    let right = (me + 1) % n;
                    let msgs = [1u8, 2].map(|b| Bytes::from(vec![b; bytes]));
                    for iter in 0..4u64 {
                        let recvs = [
                            mpi.irecv(Src::Rank(left), TagSel::Is(iter)),
                            mpi.irecv(Src::Rank(right), TagSel::Is(iter)),
                        ];
                        let sends = [
                            mpi.isend(left, iter, &msgs[0]),
                            mpi.isend(right, iter, &msgs[1]),
                        ];
                        mpi.compute(300_000);
                        for r in sends.into_iter().chain(recvs) {
                            mpi.wait(r);
                        }
                    }
                }
                // Receives post only after a barrier that follows the
                // compute block, so eager payloads are drained into the
                // unexpected queue (inside the barrier) before the matching
                // receive exists — the case early-bird's copy-at-arrival
                // accelerates: the bounce-buffer copy is absorbed into the
                // barrier wait instead of delaying the receive. Sends are
                // nonblocking and waited only after the recvs post, keeping
                // the late posting safe for rendezvous sizes too.
                "late-recv" => {
                    let me = mpi.rank();
                    let left = (me + n - 1) % n;
                    let right = (me + 1) % n;
                    let msgs = [1u8, 2].map(|b| Bytes::from(vec![b; bytes]));
                    for iter in 0..4u64 {
                        let sends = [
                            mpi.isend(left, iter, &msgs[0]),
                            mpi.isend(right, iter, &msgs[1]),
                        ];
                        mpi.compute(300_000);
                        mpi.barrier();
                        let recvs = [
                            mpi.irecv(Src::Rank(left), TagSel::Is(iter)),
                            mpi.irecv(Src::Rank(right), TagSel::Is(iter)),
                        ];
                        for r in sends.into_iter().chain(recvs) {
                            mpi.wait(r);
                        }
                    }
                }
                "ml-step" => {
                    for _ in 0..3 {
                        ml_training_step(mpi, 6, bytes / 8, 150_000);
                    }
                }
                other => panic!("unknown workload {other}"),
            },
        );
        let mut mismatches = 0usize;
        let mut transfers = 0usize;
        for tr in &out.traces {
            let attr = overlap_core::attribution::attribute(tr);
            for rec in &attr.records {
                transfers += 1;
                let sum: u64 = rec.breakdown.iter().map(|s| s.ns).sum();
                if sum != rec.nonoverlap {
                    mismatches += 1;
                }
            }
        }
        let min: u64 = out.reports.iter().map(|r| r.total.min_overlap).sum();
        let max: u64 = out.reports.iter().map(|r| r.total.max_overlap).sum();
        let steal: u64 = out
            .reports
            .iter()
            .filter_map(|r| r.calls.get("MPI_Progress"))
            .map(|c| c.total_time)
            .sum();
        // Host time spent inside receive posting. Early-bird moves the
        // unexpected-eager bounce-buffer copy out of this call and into
        // whatever call drained the arrival, so on the late-recv workload
        // this column drops to the bare posting cost under early-bird.
        let irecv: u64 = out
            .reports
            .iter()
            .filter_map(|r| r.calls.get("MPI_Irecv"))
            .map(|c| c.total_time)
            .sum();
        vec![
            model.label().to_string(),
            workload.to_string(),
            (bytes >> 10).to_string(),
            transfers.to_string(),
            format!("{:.1}", min as f64 / 1e3),
            format!("{:.1}", max as f64 / 1e3),
            format!("{:.1}", steal as f64 / 1e3),
            format!("{:.1}", irecv as f64 / 1e3),
            format!("{:.2}", out.end_time as f64 / 1e6),
            mismatches.to_string(),
        ]
    });
    Series {
        id: "ablation-progress",
        title: "Overlap bounds vs progress model (8-rank halo, late-recv, ML step)".to_string(),
        columns: [
            "model",
            "workload",
            "size_KB",
            "transfers",
            "min_us",
            "max_us",
            "steal_us",
            "irecv_us",
            "end_ms",
            "mismatch",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// All ablations in canonical order, with the rank counts the runner's
/// `--json` report exposes.
pub fn all() -> Vec<crate::Harness> {
    use crate::{Harness, HarnessKind::Ablation};
    vec![
        Harness::new("ablation-eager", Ablation, 2, ablation_eager_threshold),
        Harness::new("ablation-faults", Ablation, 4, ablation_faults),
        Harness::new("ablation-frag", Ablation, 2, ablation_fragment_size),
        Harness::new("ablation-iprobe", Ablation, 2, ablation_iprobe_count),
        Harness::new("ablation-table", Ablation, 2, ablation_table_resolution),
        Harness::new("ablation-queue", Ablation, 2, ablation_queue_capacity),
        Harness::new("ablation-incast", Ablation, 8, ablation_incast),
        Harness::new("ablation-topology", Ablation, 32, ablation_topology),
        Harness::new("ablation-progress", Ablation, 8, ablation_progress),
        Harness::new("halo-4k", Ablation, 4096, halo_4k),
        Harness::new("ablation-bandwidth", Ablation, 2, ablation_bandwidth),
        Harness::new("extra-bins", Ablation, 4, extra_nas_bins),
        Harness::new("extra-nic-timestamps", Ablation, 2, extra_nic_timestamps),
    ]
}
