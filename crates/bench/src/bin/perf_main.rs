//! `perf_main` — the a-priori transfer-time table generator.
//!
//! The paper used Mellanox's `perf_main` utility "a priori to characterize
//! data transfer times for various message sizes"; the resulting
//! disk-resident file is read into memory at `MPI_Init`. This binary is the
//! suite's equivalent: it *measures* transfer times on the simulated fabric
//! with raw RDMA writes (no library protocol overhead) and writes the table
//! as JSON.
//!
//! ```text
//! cargo run -p bench --bin perf_main -- [output.json] [--jobs N]
//! ```
//!
//! Each message size is measured in its own fresh two-rank cluster on an
//! otherwise idle fabric, so the sizes are independent deterministic
//! simulations and run concurrently on the `--jobs` worker pool (default:
//! available cores). The resulting table is identical for any worker count.

use overlap_core::XferTimeTable;
use simcore::SimOpts;
use simnet::{Cluster, NetConfig, RegionId};

fn measure(net: NetConfig, sizes: Vec<usize>) -> Vec<(u64, u64)> {
    let cluster = Cluster::new(2, net);
    let (_, mut per_rank) = cluster
        .run_collect(SimOpts::default(), move |ctx, world| {
            let mut results = Vec::new();
            if ctx.rank() == 1 {
                let mut w = world.lock();
                for &sz in &sizes {
                    w.register(1, vec![0u8; sz]);
                }
                return results;
            }
            ctx.compute(1_000_000); // let the target register its regions
            for (i, &sz) in sizes.iter().enumerate() {
                let t0 = ctx.now();
                {
                    let mut w = world.lock();
                    w.post_rdma_write(
                        0,
                        1,
                        RegionId(i as u64),
                        0,
                        bytes::Bytes::from(vec![0u8; sz]),
                        0,
                        None,
                        None,
                    );
                }
                loop {
                    if world.lock().poll_cq(0).is_some() {
                        break;
                    }
                    ctx.park();
                }
                results.push((sz as u64, ctx.now() - t0));
            }
            results
        })
        .expect("measurement run failed");
    per_rank.swap_remove(0) // rank 0 measured; rank 1 only registered
}

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
    let points: Vec<(u64, u64)> =
        bench::runner::par_map(&sizes, |&sz| measure(NetConfig::default(), vec![sz])[0]);
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
