//! FT's transpose, three ways: the blocking `Alltoall` the paper measured
//! at ~0 % overlap, the non-blocking `Ialltoall` extension, and the
//! per-process output files the framework writes.
//!
//! ```text
//! cargo run --release --example transpose_overlap
//! ```

use overlap_suite::prelude::*;
use overlap_suite::simmpi::Bytes;

const NP: usize = 4;
const BLOCK: usize = 512 << 10; // per-destination transpose block
const FFT_NS: u64 = 4_000_000; // local FFT pass to hide the transpose under
const ITERS: usize = 5;

fn blocking(mpi: &mut Mpi) {
    let blocks = vec![Bytes::from(vec![1u8; BLOCK]); NP];
    for _ in 0..ITERS {
        mpi.alltoall(&blocks);
        mpi.compute(FFT_NS);
    }
}

fn nonblocking(mpi: &mut Mpi) {
    let blocks = vec![Bytes::from(vec![1u8; BLOCK]); NP];
    for _ in 0..ITERS {
        let h = mpi.ialltoall(&blocks);
        // The FFT pass, chunked with probes so the progress engine keeps
        // the collective's schedule moving.
        for _ in 0..4 {
            mpi.compute(FFT_NS / 5);
            mpi.iprobe(Src::Any, TagSel::Any);
        }
        mpi.compute(FFT_NS / 5);
        mpi.icoll_wait(h);
    }
}

fn main() {
    let run = |name: &str, body: fn(&mut Mpi)| {
        let out = run_mpi(
            NP,
            NetConfig::default(),
            MpiConfig::mvapich2(),
            RecorderOpts::default(),
            body,
        )
        .expect("simulation failed");
        let r = &out.reports[0];
        println!(
            "{name:>12}: elapsed {:6.2} ms | overlap min {:5.1}% max {:5.1}% | comm {:6.2} ms",
            out.end_time() as f64 / 1e6,
            r.total.min_pct(),
            r.total.max_pct(),
            r.comm_call_time as f64 / 1e6,
        );
        out
    };

    println!(
        "4-rank transpose of {} KB blocks, {} iterations, direct-RDMA rendezvous\n",
        BLOCK >> 10,
        ITERS
    );
    let b = run("alltoall", blocking);
    let n = run("ialltoall", nonblocking);
    println!(
        "\nspeedup from overlapping the transpose: {:.2}x",
        b.end_time() as f64 / n.end_time() as f64
    );

    // The per-process output files (paper Sec. 2.4).
    let dir = std::env::temp_dir().join("overlap_suite_transpose");
    let paths = n.write_reports(&dir).expect("write reports");
    println!("per-process reports written to:");
    for p in paths {
        println!("  {}", p.display());
    }
}
