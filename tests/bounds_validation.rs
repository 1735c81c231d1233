//! Cross-crate validation: the instrumentation's min/max bounds must
//! bracket the simulator's ground-truth overlap for every rank, across
//! protocols, libraries, and randomized workloads.
//!
//! Invariants (derivation in `DESIGN.md`):
//! * `min_overlap <= true_overlap` — unconditional in this model,
//! * `true_overlap <= max_overlap + congestion_excess(rank)` — the upper
//!   bound loosens only by however much DMA queueing stretched physical
//!   durations past the idle-fabric a-priori table.

use overlap_suite::prelude::*;

fn validate(out: &MpiRunOutcome, net: &NetConfig) {
    let table = default_xfer_table(net);
    for rank in 0..out.reports.len() {
        let r = &out.reports[rank].total;
        let truth = out.true_overlap(rank);
        let slack = out.congestion_excess(rank, &table);
        assert!(
            r.min_overlap <= truth,
            "rank {rank}: min {} > truth {}",
            r.min_overlap,
            truth
        );
        assert!(
            truth <= r.max_overlap + slack,
            "rank {rank}: truth {} > max {} + slack {}",
            truth,
            r.max_overlap,
            slack
        );
        assert!(r.min_overlap <= r.max_overlap);
        assert!(r.max_overlap <= r.data_transfer_time);
    }
}

#[test]
fn bounds_hold_for_all_nas_benchmarks() {
    use nasbench::runner::{run_benchmark, NasBenchmark, RunArtifacts};
    let net = NetConfig::default();
    for bench in [
        NasBenchmark::Bt,
        NasBenchmark::Cg,
        NasBenchmark::Lu,
        NasBenchmark::Ft,
        NasBenchmark::Sp,
        NasBenchmark::SpModified,
        NasBenchmark::MgMpi,
        NasBenchmark::Ep,
        NasBenchmark::Is,
    ] {
        let art = run_benchmark(bench, Class::S, 4, net.clone(), RecorderOpts::default());
        if let RunArtifacts::Mpi(out) = art {
            validate(&out, &net);
        }
    }
}

#[test]
fn bounds_hold_for_armci_workloads() {
    let net = NetConfig::default();
    let out = run_armci(4, net.clone(), RecorderOpts::default(), |a| {
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
    let table = default_xfer_table(&net);
    for rank in 0..out.reports.len() {
        let r = &out.reports[rank].total;
        // One-sided truth counts only transfers this rank initiated: the
        // passive target's library sees nothing (see simarmci::harness).
        let truth = out.true_overlap(rank);
        let slack = out.congestion_excess(rank, &table);
        assert!(r.min_overlap <= truth, "rank {rank}: min exceeds truth");
        assert!(
            truth <= r.max_overlap + slack,
            "rank {rank}: truth exceeds max+slack"
        );
    }
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
            let out = run_mpi(4, net.clone(), cfg, RecorderOpts::default(), move |mpi| {
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
            validate(&out, &net);
        }
    }
}

#[test]
fn bounds_hold_on_a_faster_fabric() {
    let net = NetConfig::fast_fabric();
    let out = run_mpi(
        2,
        net.clone(),
        MpiConfig::mvapich2(),
        RecorderOpts::default(),
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
    validate(&out, &net);
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
            out.activity[r.rank].total(simcore::Activity::Compute),
            "rank {}",
            r.rank
        );
    }
}
