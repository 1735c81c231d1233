//! The paper's NAS SP tuning exercise (Sec. 4.3), end to end.
//!
//! Runs the original and Iprobe-modified SP at class A on 4, 9, and 16
//! ranks, printing the overlap bounds for the monitored "overlapping
//! section", the whole-code bounds, and the total MPI-time improvement.
//!
//! ```text
//! cargo run --release --example nas_sp_tuning
//! ```

use nasbench::runner::{run_benchmark, NasBenchmark};
use nasbench::sp::SP_OVERLAP_SECTION;
use overlap_suite::prelude::*;

fn main() {
    println!("NAS SP, class A, MVAPICH2-like environment\n");
    println!(
        "{:>3} | {:>24} | {:>24} | {:>18}",
        "np", "section min/max (orig)", "section min/max (mod)", "MPI time orig->mod"
    );
    for np in [4usize, 9, 16] {
        let orig = run_benchmark(
            NasBenchmark::Sp,
            Class::A,
            np,
            NetConfig::default(),
            RecorderOpts::default(),
        );
        let modi = run_benchmark(
            NasBenchmark::SpModified,
            Class::A,
            np,
            NetConfig::default(),
            RecorderOpts::default(),
        );
        let section = |art: &RunOutcome| {
            let s = &art.reports[0].sections[SP_OVERLAP_SECTION];
            (s.total.min_pct(), s.total.max_pct())
        };
        let (omin, omax) = section(&orig);
        let (mmin, mmax) = section(&modi);
        let o_mpi = orig.reports[0].comm_call_time as f64 / 1e6;
        let m_mpi = modi.reports[0].comm_call_time as f64 / 1e6;
        println!(
            "{np:>3} | {:>10.1} / {:>10.1} | {:>10.1} / {:>10.1} | {:>6.2} -> {:>6.2} ms",
            omin, omax, mmin, mmax, o_mpi, m_mpi
        );
    }

    println!("\nPer-size breakdown for the modified run at np=9 (process 0):\n");
    let art = run_benchmark(
        NasBenchmark::SpModified,
        Class::A,
        9,
        NetConfig::default(),
        RecorderOpts::default(),
    );
    print!("{}", art.reports[0].render_text());
}
