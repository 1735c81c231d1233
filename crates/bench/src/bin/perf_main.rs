//! `perf_main` — the a-priori transfer-time table generator.
//!
//! The paper used Mellanox's `perf_main` utility "a priori to characterize
//! data transfer times for various message sizes"; the resulting
//! disk-resident file is read into memory at `MPI_Init`. This binary is the
//! suite's equivalent: it *measures* transfer times on the simulated fabric
//! with raw RDMA writes (no library protocol overhead, through
//! [`bench::micro::measure_xfer_times`]) and writes the table as JSON. The
//! simulated runs do not read the file: they build the same table from their
//! `NetConfig` with `simmpi::default_xfer_table`, which `tests/system.rs`
//! checks against this measurement on every topology.
//!
//! ```text
//! cargo run -p bench --bin perf_main -- [output.json] [--jobs N]
//! ```
//!
//! Each message size is measured in its own fresh two-rank cluster on an
//! otherwise idle fabric, so the sizes are independent deterministic
//! simulations and run concurrently on the `--jobs` worker pool (default:
//! available cores). The resulting table is identical for any worker count.

use bench::micro::measure_xfer_times;
use overlap_core::XferTimeTable;
use simnet::NetConfig;

fn main() {
    let mut out_path = "xfer_table.json".to_string();
    let mut jobs = bench::runner::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("perf_main: invalid --jobs value {v:?}");
                    std::process::exit(2);
                });
            }
            a if a.starts_with("--jobs=") => {
                jobs = a["--jobs=".len()..].parse().unwrap_or_else(|_| {
                    eprintln!("perf_main: invalid --jobs value {a:?}");
                    std::process::exit(2);
                });
            }
            a if a.starts_with('-') => {
                eprintln!("perf_main: unknown flag {a:?}");
                std::process::exit(2);
            }
            a => out_path = a.to_string(),
        }
    }
    bench::runner::set_jobs(jobs);
    let mut sizes: Vec<usize> = Vec::new();
    let mut b = 1usize;
    while b <= 8 << 20 {
        sizes.push(b);
        b *= 2;
    }
    // One independent idle-fabric measurement per size; results land in
    // size order whatever the worker count.
    let points: Vec<(u64, u64)> = bench::runner::par_map(&sizes, |&sz| {
        measure_xfer_times(NetConfig::default(), vec![sz])[0]
    });
    println!("{:>10}  {:>12}", "bytes", "xfer_ns");
    for &(sz, t) in &points {
        println!("{sz:>10}  {t:>12}");
    }
    let table = XferTimeTable::from_points(points);
    if let Err(e) = table.save(std::path::Path::new(&out_path)) {
        eprintln!("perf_main: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
