//! The "overlap doctor": run a workload, feed the per-process report to the
//! analyzer (paper Sec. 2.3's interpretation guidance as code), apply its
//! advice, and show the improvement.
//!
//! ```text
//! cargo run --release --example overlap_doctor
//! ```

use overlap_core::analyze;
use overlap_suite::prelude::*;

/// A problematic app: rendezvous-sized halo pushes with an overlap attempt
/// that doesn't work (no progress during compute), plus a blocking tail.
fn before(mpi: &mut Mpi) {
    let other = 1 - mpi.rank();
    let big = vec![1u8; 800 << 10];
    for i in 0..15 {
        if mpi.rank() == 0 {
            mpi.section_begin("halo_push");
            let r = mpi.irecv(Src::Rank(other), TagSel::Is(1000 + i));
            let s = mpi.isend(other, i, &big);
            mpi.compute(ms(2));
            mpi.waitall(&[s, r]);
            mpi.section_end();
        } else {
            mpi.section_begin("halo_push");
            let r = mpi.irecv(Src::Rank(other), TagSel::Is(i));
            let s = mpi.isend(other, 1000 + i, &big);
            mpi.compute(ms(2));
            mpi.waitall(&[s, r]);
            mpi.section_end();
        }
    }
}

/// The same app after following the analyzer's advice: probes drive the
/// progress engine inside the computation window.
fn after(mpi: &mut Mpi) {
    let other = 1 - mpi.rank();
    let big = vec![1u8; 800 << 10];
    for i in 0..15 {
        let (stag, rtag) = if mpi.rank() == 0 {
            (i, 1000 + i)
        } else {
            (1000 + i, i)
        };
        mpi.section_begin("halo_push");
        let r = mpi.irecv(Src::Rank(other), TagSel::Is(rtag));
        let s = mpi.isend(other, stag, &big);
        for _ in 0..4 {
            mpi.compute(ms(2) / 5);
            mpi.iprobe(Src::Any, TagSel::Any);
        }
        mpi.compute(ms(2) / 5);
        mpi.waitall(&[s, r]);
        mpi.section_end();
    }
}

fn main() {
    let cfg = || MpiConfig::mvapich2();
    let run = |name: &str, body: fn(&mut Mpi)| {
        let out = run_mpi(
            2,
            NetConfig::default(),
            cfg(),
            RecorderOpts::default(),
            body,
        )
        .expect("simulation failed");
        let r = &out.reports[0];
        println!("== {name} ==");
        println!(
            "elapsed {:.2} ms | overlap min {:.1}% max {:.1}% | comm {:.2} ms",
            r.elapsed as f64 / 1e6,
            r.total.min_pct(),
            r.total.max_pct(),
            r.comm_call_time as f64 / 1e6,
        );
        println!("{}", overlap_core::advice::render(&analyze(r)));
        r.clone()
    };

    let b = run("before (irecv + compute + waitall)", before);
    let a = run("after (probes drive the progress engine)", after);
    println!(
        "communication call time: {:.2} ms -> {:.2} ms ({:.0}% less)",
        b.comm_call_time as f64 / 1e6,
        a.comm_call_time as f64 / 1e6,
        100.0 * (b.comm_call_time - a.comm_call_time) as f64 / b.comm_call_time as f64,
    );
}
