//! Cross-crate validation: the instrumentation's min/max bounds must
//! bracket the simulator's ground-truth overlap on every transfer, across
//! protocols, libraries, and randomized workloads.
//!
//! Every case runs traced and asserts `check()` — the one soundness check,
//! which joins each bound record to the fabric transfers behind it
//! (`min <= truth`, `truth <= max + slack`; derivation in `DESIGN.md`) —
//! finds nothing. The self-send cell pins the one known class it does find
//! on a loss-free fabric.

use overlap_suite::prelude::*;

fn traced() -> RecorderOpts {
    RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    }
}

#[test]
fn bounds_hold_for_all_nas_benchmarks() {
    use nasbench::runner::{run_benchmark, NasBenchmark};
    let net = NetConfig::default();
    for bench in [
        NasBenchmark::Bt,
        NasBenchmark::Cg,
        NasBenchmark::Lu,
        NasBenchmark::Ft,
        NasBenchmark::FtNb,
        NasBenchmark::Sp,
        NasBenchmark::SpModified,
        NasBenchmark::MgMpi,
        NasBenchmark::MgArmciBlocking,
        NasBenchmark::MgArmciNonBlocking,
        NasBenchmark::Ep,
        NasBenchmark::Is,
    ] {
        let out = run_benchmark(bench, Class::S, 4, net.clone(), traced());
        assert_eq!(out.check(), [], "{}", bench.name());
    }
}

#[test]
fn bounds_hold_for_armci_workloads() {
    let out = run_armci(4, NetConfig::default(), traced(), |a| {
        let mem = a.malloc(1 << 20);
        a.barrier();
        let next = (a.rank() + 1) % a.nranks();
        for k in 0..10 {
            let h = a.nb_put(&mem, next, 0, vec![k as u8; 256 << 10]);
            a.compute(us(300));
            a.wait(h);
            let g = a.nb_get(&mem, next, 0, 64 << 10);
            a.compute(us(100));
            a.wait(g);
        }
        a.barrier();
    })
    .unwrap();
    assert_eq!(out.check(), []);
}

#[test]
fn bounds_hold_under_heavy_random_traffic() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let net = NetConfig::default();
    for seed in 0..4u64 {
        for cfg in [
            MpiConfig::open_mpi_pipelined(),
            MpiConfig::open_mpi_leave_pinned(),
            MpiConfig::mvapich2(),
        ] {
            let out = run_mpi(4, net.clone(), cfg, traced(), move |mpi| {
                // All ranks execute the same schedule derived from a
                // shared seed: ring exchanges with random sizes/compute.
                let mut rng = StdRng::seed_from_u64(seed);
                let n = mpi.nranks();
                let me = mpi.rank();
                for round in 0..12u64 {
                    let bytes = [64usize, 2 << 10, 10 << 10, 40 << 10, 200 << 10, 700 << 10]
                        [rng.gen_range(0..6)];
                    let compute = rng.gen_range(0..2_000_000u64);
                    let right = (me + 1) % n;
                    let left = (me + n - 1) % n;
                    let s = mpi.isend(right, round, vec![me as u8; bytes]);
                    let r = mpi.irecv(Src::Rank(left), TagSel::Is(round));
                    mpi.compute(compute);
                    if rng.gen_bool(0.5) {
                        mpi.iprobe(Src::Any, TagSel::Any);
                        mpi.compute(compute / 2);
                    }
                    mpi.wait(s);
                    mpi.wait(r);
                    if round % 4 == 3 {
                        mpi.allreduce(&[1.0], ReduceOp::Sum);
                    }
                }
            })
            .unwrap();
            assert_eq!(out.check(), []);
        }
    }
}

#[test]
fn bounds_hold_on_a_faster_fabric() {
    let out = run_mpi(
        2,
        NetConfig::fast_fabric(),
        MpiConfig::mvapich2(),
        traced(),
        |mpi| {
            for i in 0..20 {
                if mpi.rank() == 0 {
                    let r = mpi.isend(1, i, vec![1u8; 1 << 20]);
                    mpi.compute(us(400));
                    mpi.wait(r);
                } else {
                    let r = mpi.irecv(Src::Rank(0), TagSel::Is(i));
                    mpi.compute(us(150));
                    mpi.iprobe(Src::Any, TagSel::Any);
                    mpi.compute(us(150));
                    mpi.wait(r);
                }
            }
        },
    )
    .unwrap();
    assert_eq!(out.check(), []);
}

/// Off the flat crossbar: the `ablation-topology` exchange (32 ranks,
/// 64 KiB direct-read rendezvous) on a fat-tree and a dragonfly, with no
/// tenant and with a heavy one. The table is the fastest route's, so the
/// lower bound needs no slack on any route. How loose each cell's bounds
/// are is pinned from the join: every one of its 384 records joined, how
/// many hold `truth <= max` only by the slack, how many have `min > truth`,
/// and Σ(truth − min) in ns.
#[test]
fn bounds_hold_on_hierarchical_fabrics() {
    use simnet::{BackgroundJob, TopologySpec};
    let heavy = BackgroundJob {
        msg_bytes: 16 << 10,
        period_ns: 50_000,
    };
    let mut got = Vec::new();
    for topology in [
        TopologySpec::FatTree { k: 8 },
        TopologySpec::Dragonfly { a: 4, p: 2, h: 2 },
    ] {
        for background in [None, Some(heavy)] {
            let net = NetConfig {
                model_ingress_contention: true,
                topology,
                background,
                ..NetConfig::infiniband_2006()
            };
            let cfg = MpiConfig::open_mpi_leave_pinned();
            let out = run_mpi(32, net, cfg, traced(), |mpi| {
                let (me, n) = (mpi.rank(), mpi.nranks());
                let msg = vec![1u8; 64 << 10];
                for i in 0..6u64 {
                    let r = mpi.irecv(Src::Rank((me + n - n / 4) % n), TagSel::Is(i));
                    let s = mpi.isend((me + n / 4) % n, i, &msg);
                    mpi.compute(200_000);
                    mpi.wait(s);
                    mpi.wait(r);
                }
            })
            .unwrap();
            assert_eq!(out.check(), []);
            let (mut joined, mut past_max, mut past_min, mut above_min) = (0, 0, 0, 0);
            for j in out.joined() {
                joined += j.joined as usize;
                past_max += (j.truth > j.record.max) as usize;
                past_min += (j.record.min > j.truth) as usize;
                above_min += j.truth.saturating_sub(j.record.min);
            }
            let cell = format!("{topology:?} {}", background.map_or("idle", |_| "heavy"));
            got.push((cell, joined, past_max, past_min, above_min));
        }
    }
    let want = [
        ("FatTree { k: 8 } idle", 384, 65, 0, 209_924),
        ("FatTree { k: 8 } heavy", 384, 69, 0, 1_908_249),
        ("Dragonfly { a: 4, p: 2, h: 2 } idle", 384, 4, 0, 1_071_388),
        ("Dragonfly { a: 4, p: 2, h: 2 } heavy", 384, 7, 0, 1_127_607),
    ]
    .map(|(cell, joined, past_max, past_min, above_min)| {
        (cell.to_string(), joined, past_max, past_min, above_min)
    });
    assert_eq!(got, want);
}

/// A send to one's own rank takes the fabric's 0.5 µs loopback, faster than
/// any route the a-priori table was sampled from, so a fully overlapped
/// self-send's `min` (the table time) exceeds its truth. Pinned exactly
/// until the recorder uses a loopback row: the 64 B eager send under every
/// library, and the 64 KiB one under pipelined rendezvous, whose first
/// fragment rides the RTS like eager data. Direct-read rendezvous and the
/// 1 MiB pipelined send (whose first fragment outlasts the compute) are
/// clean.
#[test]
fn self_sends_overstate_min_by_the_loopback() {
    let libs = [
        ("pipelined", MpiConfig::open_mpi_pipelined()),
        ("leave_pinned", MpiConfig::open_mpi_leave_pinned()),
        ("mvapich2", MpiConfig::mvapich2()),
    ];
    for bytes in [64usize, 64 << 10, 1 << 20] {
        for (lib, cfg) in libs.clone() {
            let out = run_mpi(2, NetConfig::default(), cfg, traced(), move |mpi| {
                let me = mpi.rank();
                let r = mpi.irecv(Src::Rank(me), TagSel::Is(0));
                let s = mpi.isend(me, 0, vec![1u8; bytes]);
                mpi.compute(us(100));
                mpi.wait(s);
                mpi.wait(r);
            })
            .unwrap();
            let got: Vec<String> = out.check().iter().map(|v| v.to_string()).collect();
            let want: Vec<String> = match (bytes, lib) {
                (64, _) => vec![
                    "min_le_truth: rank 0 xfer Some(1): min 4964 > truth 628".into(),
                    "min_le_truth: rank 1 xfer Some(0): min 4964 > truth 628".into(),
                ],
                (65536, "pipelined") => vec![
                    "min_le_truth: rank 0 xfer Some(1): min 70436 > truth 66100".into(),
                    "min_le_truth: rank 1 xfer Some(0): min 70436 > truth 66100".into(),
                ],
                _ => vec![],
            };
            assert_eq!(got, want, "{bytes} B self-send under {lib}");
        }
    }
}

#[test]
fn per_rank_time_accounting_is_exact() {
    let out = run_mpi(
        3,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        |mpi| {
            for i in 0..5 {
                let next = (mpi.rank() + 1) % mpi.nranks();
                let prev = (mpi.rank() + mpi.nranks() - 1) % mpi.nranks();
                let s = mpi.isend(next, i, &[3u8; 4096]);
                let r = mpi.irecv(Src::Rank(prev), TagSel::Is(i));
                mpi.compute(us(50));
                mpi.waitall(&[s, r]);
            }
        },
    )
    .unwrap();
    for r in &out.reports {
        assert_eq!(r.user_compute_time + r.comm_call_time, r.elapsed);
        // Instrumented compute must match ground truth exactly: the recorder
        // sees every boundary because all time passes through the library or
        // `compute`.
        assert_eq!(
            r.user_compute_time,
            out.sim.activity[r.rank].total(simcore::Activity::Compute),
            "rank {}",
            r.rank
        );
    }
}
