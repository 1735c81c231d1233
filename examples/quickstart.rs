//! Quickstart: measure the overlap of a single non-blocking exchange.
//!
//! Two simulated ranks exchange 1 MiB messages while the sender computes.
//! The instrumentation framework (living *inside* the library) reports how
//! much of each transfer could/must have overlapped that computation.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use overlap_suite::prelude::*;

fn main() {
    // Sweep inserted computation from 0 to 2 ms and watch the bounds move.
    println!("compute_ms  snd_min%  snd_max%  wait_us");
    for compute_ms in [0u64, 1, 2] {
        let out = run_mpi(
            2,
            NetConfig::default(),               // 2006-era InfiniBand model
            MpiConfig::open_mpi_leave_pinned(), // direct RDMA-Read rendezvous
            RecorderOpts::default(),
            move |mpi| {
                let msg = vec![42u8; 1 << 20];
                for i in 0..20 {
                    if mpi.rank() == 0 {
                        let req = mpi.isend(1, i, &msg);
                        mpi.compute(ms(compute_ms)); // overlap window
                        mpi.wait(req);
                    } else {
                        mpi.recv(Src::Rank(0), TagSel::Is(i));
                    }
                }
            },
        )
        .expect("simulation failed");

        let sender = &out.reports[0];
        println!(
            "{:>10}  {:>8.1}  {:>8.1}  {:>7.1}",
            compute_ms,
            sender.total.min_pct(),
            sender.total.max_pct(),
            sender.calls["MPI_Wait"].avg() / 1e3,
        );
    }

    // Full per-process report for the last configuration, traced so the
    // bounds can be joined to the fabric's ground truth below:
    let traced = RecorderOpts {
        trace: true,
        ..RecorderOpts::default()
    };
    let out = run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::open_mpi_leave_pinned(),
        traced,
        |mpi| {
            let msg = vec![42u8; 1 << 20];
            for i in 0..20 {
                if mpi.rank() == 0 {
                    let req = mpi.isend(1, i, &msg);
                    mpi.compute(ms(2));
                    mpi.wait(req);
                } else {
                    mpi.recv(Src::Rank(0), TagSel::Is(i));
                }
            }
        },
    )
    .unwrap();
    println!("\n{}", out.reports[0].render_text());

    // The simulator also knows the ground truth — something real hardware
    // could not tell the paper's authors, summed over rank 0's transfers:
    let truth: u64 = out.joined().filter(|j| j.rank == 0).map(|j| j.truth).sum();
    println!(
        "ground truth overlap for rank 0: {:.3} ms (bounds: [{:.3}, {:.3}] ms)",
        truth as f64 / 1e6,
        out.reports[0].total.min_overlap as f64 / 1e6,
        out.reports[0].total.max_overlap as f64 / 1e6,
    );
}
