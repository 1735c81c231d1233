//! NAS benchmark CLI.
//!
//! ```text
//! cargo run --release -p nasbench --bin nas -- <bench> [class] [np]
//! cargo run --release -p nasbench --bin nas -- sp-mod A 9
//! cargo run --release -p nasbench --bin nas -- list
//! ```
//!
//! Prints the process-0 overlap report (the paper's per-process output
//! file) plus the cluster-wide summary.

use nasbench::runner::{run_benchmark, summarize, NasBenchmark};
use nasbench::Class;
use overlap_core::{ClusterSummary, RecorderOpts};
use simnet::NetConfig;

fn parse_bench(s: &str) -> Option<NasBenchmark> {
    Some(match s.to_ascii_lowercase().as_str() {
        "bt" => NasBenchmark::Bt,
        "cg" => NasBenchmark::Cg,
        "lu" => NasBenchmark::Lu,
        "ft" => NasBenchmark::Ft,
        "ft-nb" | "ftnb" => NasBenchmark::FtNb,
        "sp" => NasBenchmark::Sp,
        "sp-mod" | "spmod" => NasBenchmark::SpModified,
        "mg" | "mg-mpi" => NasBenchmark::MgMpi,
        "mg-armci-bl" => NasBenchmark::MgArmciBlocking,
        "mg-armci-nb" => NasBenchmark::MgArmciNonBlocking,
        "ep" => NasBenchmark::Ep,
        "is" => NasBenchmark::Is,
        _ => return None,
    })
}

fn parse_class(s: &str) -> Option<Class> {
    Some(match s.to_ascii_uppercase().as_str() {
        "S" => Class::S,
        "W" => Class::W,
        "A" => Class::A,
        "B" => Class::B,
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" {
        println!("benchmarks: bt cg lu ft ft-nb sp sp-mod mg-mpi mg-armci-bl mg-armci-nb ep is");
        println!("classes:    S W A B");
        println!("usage:      nas <bench> [class=A] [np=4]");
        return;
    }
    let bench = parse_bench(&args[0]).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{}' (try: nas list)", args[0]);
        std::process::exit(2);
    });
    let class = args
        .get(1)
        .map(|s| {
            parse_class(s).unwrap_or_else(|| {
                eprintln!("unknown class '{s}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(Class::A);
    let np = match args.get(2).map(|s| s.parse::<usize>()) {
        None => 4,
        Some(Ok(np)) => np,
        Some(Err(_)) => {
            eprintln!("np must be a number, got '{}'", args[2]);
            std::process::exit(2);
        }
    };
    if let Err(e) = bench.check_np(np) {
        eprintln!("{e}");
        std::process::exit(2);
    }

    eprintln!("running {} class {class} on {np} ranks...", bench.name());
    let art = run_benchmark(
        bench,
        class,
        np,
        NetConfig::default(),
        RecorderOpts::default(),
    );
    let s = summarize(bench, class, np, &art);
    println!(
        "{} class {} np {}: elapsed {:.2} ms | overlap min {:.1}% max {:.1}%\n",
        s.name, s.class, s.np, s.elapsed_ms, s.min_pct, s.max_pct
    );
    print!("{}", art.reports[0].render_text());
    println!();
    print!("{}", ClusterSummary::merge(&art.reports).render_text());
}
