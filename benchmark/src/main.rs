//! The repo's benchmark: five workloads, end-to-end and per-layer rows.
//!
//! ```text
//! benchmark run <workload> [--seed N] [--smoke] [--out DIR]
//! benchmark layers [--seed N] [--smoke] [--out DIR]
//! benchmark trace <workload> [--seed N] [--smoke] [--out DIR]
//! benchmark compare <a.json|dir> <b.json|dir>
//! benchmark all [--seed N] [--smoke] [--out DIR]
//! benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>   # driver contract
//! ```
//!
//! It claims no gain; it is the ruler for every later claim. See README.md.

mod alloc;
mod compare;
mod corpus;
mod host;
mod layers;
mod record;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use record::{Record, RunFacts};
use workloads::{Pass, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// How long a run keeps starting timed passes.
#[derive(Clone, Copy)]
enum Budget {
    Passes(u64),
    /// The driver's `--seconds`: start another pass while fewer than this
    /// many seconds have gone.
    Seconds(f64),
}

/// Timed passes of `run <workload>`: 20 to 30 s per workload on the
/// reference box. Fixed, so that two records of a workload always rest on
/// the same number of passes. `serve-bulk`'s 45 passes are 360 push-to-report
/// cycles; `serve-live`'s 10 are 990 pushes and 1 300 to 2 000 reads.
fn passes_of(workload: &str) -> u64 {
    match workload {
        "suite" | "halo4k" => 6,
        "export" => 15,
        "serve-bulk" => 45,
        _ => 10,
    }
}

/// Passes of each half of `trace`: enough for a median.
const TRACE_PASSES: u64 = 3;

/// Parsed flags shared by the subcommands.
struct Opts {
    seed: u64,
    smoke: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn default_out() -> PathBuf {
    host::manifest_dir().join("out")
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        smoke: false,
        out: default_out(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{a} requires {what}"))
                .cloned()
        };
        match a.as_str() {
            "--seed" => o.seed = parse_num(&value("a number")?, "--seed")?,
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value("a directory")?),
            f if f.starts_with("--") => return Err(format!("unknown flag {f:?}")),
            p => o.positional.push(p.to_string()),
        }
    }
    Ok(o)
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {flag} value {v:?}"))
}

/// What a measured run produced besides its record.
struct Outcome {
    record: Record,
    /// `trace` only: median traced pass over median untraced pass, minus one.
    trace_overhead_pct: Option<f64>,
}

/// Set up `workload`, warm it up, run the timed passes, check every pass.
/// With `traced`, the same number of passes is then repeated under the span
/// recorder; end-to-end figures always come from the untraced passes.
fn measure(
    process_start: Instant,
    workload: &str,
    seed: u64,
    smoke: bool,
    budget: Budget,
    traced: bool,
) -> Result<Outcome, String> {
    let loadavg_before = host::loadavg();
    let calib_started = Instant::now();
    let calib_before = host::calib_ms();
    let calib_spent = calib_started.elapsed().as_secs_f64();
    let w = Workload::setup(workload, seed, smoke)?;

    // Memory peaks count from here: what set-up left resident and live is
    // the workload's input, what set-up needed on the way is not the
    // workload's, and the warm-up pass is the workload's own work.
    // `peak_rss_mb` stays a whole-process figure, inputs included: on the
    // service workloads the resident set's growth alone is half the size
    // and has all of the noise (which arena a connection thread lands in).
    // The record carries `rss_after_setup_mb` for the difference.
    if !host::restart_peak_rss() {
        eprintln!("warning: cannot reset VmHWM here; peak_rss_mb covers set-up as well");
    }
    alloc::reset_peak();
    let rss_after_setup_mb = host::rss_mb();
    let heap_after_setup = alloc::snapshot().live;

    // Smoke runs one pass and nothing else; every other run warms up first
    // (caches, lazy statics, the allocator's arenas) and holds each timed
    // pass to the warm-up pass's output, byte for byte. `outside` tallies
    // what is checked outside the timed passes.
    let mut outside = Pass::default();
    let reference = (!smoke).then(|| w.pass());
    if let Some(warm) = &reference {
        outside.absorb(warm);
    }
    let setup_s = process_start.elapsed().as_secs_f64() - calib_spent;

    let run_passes = |outside: &mut Pass| {
        let t0 = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            let go_on = match budget {
                _ if smoke => passes.is_empty(),
                Budget::Passes(n) => (passes.len() as u64) < n,
                Budget::Seconds(s) => passes.is_empty() || t0.elapsed().as_secs_f64() < s,
            };
            if !go_on {
                break;
            }
            spans::set_pass(passes.len() as u32 + 1);
            let p = {
                let _s = spans::span("pass", workload);
                w.pass()
            };
            if let Some(r) = &reference {
                outside.check(p.digest == r.digest, || {
                    format!(
                        "pass {} output digest {:016x} differs from the warm-up pass's {:016x}",
                        passes.len() + 1,
                        p.digest,
                        r.digest
                    )
                });
            }
            passes.push(p);
        }
        passes
    };

    let passes = run_passes(&mut outside);
    let mut trace_overhead_pct = None;
    if traced {
        spans::arm();
        let traced_passes = run_passes(&mut outside);
        let wall = |ps: &[Pass]| stats::median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        trace_overhead_pct = Some(100.0 * (wall(&traced_passes) / wall(&passes) - 1.0));
        for p in &traced_passes {
            outside.absorb(p);
        }
    }

    let calib_after = host::calib_ms();
    let output_digest = reference.as_ref().map_or(passes[0].digest, |r| r.digest);
    let record = Record::build(
        RunFacts {
            workload: workload.to_string(),
            seed,
            smoke,
            setup_s,
            host: host::fingerprint(),
            loadavg_before,
            loadavg_after: host::loadavg(),
            host_calib_ms_before: calib_before,
            host_calib_ms_after: calib_after,
            rss_after_setup_mb,
            heap_after_setup_mb: heap_after_setup as f64 / 1e6,
            peak_rss_mb: host::peak_rss_mb(),
            heap_peak_mb: alloc::snapshot().peak.saturating_sub(heap_after_setup) as f64 / 1e6,
            output_digest,
            attempted: outside.attempted,
            failures: outside.failures,
        },
        &passes,
    );
    if host::calib_disagrees(calib_before, calib_after) {
        eprintln!(
            "warning: noisy host: the 200 ms calibration spin read {calib_before:.1} ms before \
             and {calib_after:.1} ms after {workload}; treat this record's times with suspicion"
        );
    }
    if workload == "serve-live" && host::nproc() < 2 {
        eprintln!("warning: serve-live runs two client threads on a one-core host");
    }
    Ok(Outcome {
        record,
        trace_overhead_pct,
    })
}

fn print_record(r: &Record) {
    println!(
        "# {} seed={} passes={} digest={} commit={}",
        r.workload, r.seed, r.passes, r.output_digest, r.host.git_commit
    );
    for m in &r.metrics {
        println!("{}", m.line());
    }
    println!("heap_peak_mb {} MB", r.heap_peak_mb);
    println!("rss_after_setup_mb {} MB", r.rss_after_setup_mb);
    println!("heap_after_setup_mb {} MB", r.heap_after_setup_mb);
    println!("host_calib_ms_before {} ms", r.host_calib_ms_before);
    println!("host_calib_ms_after {} ms", r.host_calib_ms_after);
    for f in &r.failures {
        println!("# failed: {f}");
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(value).expect("record serializes");
    text.push('\n');
    write_file(path, &text)
}

fn write_spans(out: &Path, workload: &str) -> Result<(), String> {
    let all = spans::snapshot();
    let path = out.join(format!("{workload}.spans.json"));
    write_file(&path, &spans::chrome_json(&all))?;
    println!("# {} spans -> {}", all.len(), path.display());
    for (name, ms) in spans::self_time_ms(&all) {
        println!("span.{name}.self_ms {ms} ms");
    }
    Ok(())
}

fn workload_arg(o: &Opts) -> Result<&str, String> {
    match o.positional.as_slice() {
        [w] if WORKLOADS.contains(&w.as_str()) => Ok(w),
        _ => Err(format!("expected one workload of {}", WORKLOADS.join(", "))),
    }
}

fn cmd_run(start: Instant, o: &Opts, traced: bool) -> Result<i32, String> {
    let w = workload_arg(o)?;
    let budget = Budget::Passes(if traced { TRACE_PASSES } else { passes_of(w) });
    let out = measure(start, w, o.seed, o.smoke, budget, traced)?;
    print_record(&out.record);
    if let Some(pct) = out.trace_overhead_pct {
        write_spans(&o.out, w)?;
        println!("trace_overhead_pct {pct} %");
    } else {
        write_json(&o.out.join(format!("{w}.json")), &out.record)?;
    }
    Ok(i32::from(out.record.failed > 0))
}

fn cmd_layers(o: &Opts) -> Result<i32, String> {
    let rec = layers::run(o.seed, o.smoke, layers::Scope::Full);
    write_json(&o.out.join("layers.json"), &rec)?;
    Ok(0)
}

/// Each workload, then the layer rows, each in a process of its own so that
/// `tracecap::enable()` and `VmHWM` are per workload.
fn cmd_all(o: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut worst = 0;
    let subcommands = WORKLOADS
        .iter()
        .map(|w| vec!["run", w])
        .chain([vec!["layers"]]);
    for sub in subcommands {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&sub)
            .args(["--seed", &o.seed.to_string()])
            .arg("--out")
            .arg(&o.out);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot start `{}`: {e}", sub.join(" ")))?;
        println!();
        worst = worst.max(status.code().unwrap_or(1));
    }
    Ok(worst)
}

/// The driver's entry: `--workload W --seed N --seconds S --trace 0|1`.
/// Prints the metrics as `name value unit`, then the contract's JSON line.
fn cmd_contract(start: Instant, args: &[String]) -> Result<i32, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().ok_or_else(|| format!("{a} requires a value"))?;
        match a.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = parse_num(v, "--seed")?,
            "--seconds" => seconds = parse_num(v, "--seconds")?,
            "--trace" => trace = parse_num::<u8>(v, "--trace")? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }

    let (attempted, failed, metrics) = if trace {
        // One traced pass of the workload (after its warm-up) for the span
        // file and the self times, then the layer rows.
        spans::arm();
        let out = measure(start, &workload, seed, false, Budget::Passes(1), false)?;
        write_spans(&default_out(), &workload)?;
        let rec = layers::run(seed, false, layers::Scope::Driver { seconds });
        let rows = rec
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.value, r.unit.clone()));
        (
            out.record.attempted,
            out.record.failed,
            rows.collect::<Vec<_>>(),
        )
    } else {
        let out = measure(
            start,
            &workload,
            seed,
            false,
            Budget::Seconds(seconds),
            false,
        )?;
        write_json(&default_out().join(format!("{workload}.json")), &out.record)?;
        let listed = |m: &&record::Metric| record::END_TO_END.iter().any(|d| d.name == m.name);
        let metrics = out.record.metrics.iter().filter(listed);
        (
            out.record.attempted,
            out.record.failed,
            metrics
                .map(|m| (m.name.clone(), m.value, m.unit.clone()))
                .collect(),
        )
    };
    if !trace {
        for (name, value, unit) in &metrics {
            println!("{name} {value} {unit}");
        }
    }
    println!("{}", record::contract_line(attempted, failed, &metrics));
    Ok(0)
}

fn usage() -> String {
    format!(
        "usage: benchmark run|trace <workload> [--seed N] [--smoke] [--out DIR]\n\
         \x20      benchmark layers|all [--seed N] [--smoke] [--out DIR]\n\
         \x20      benchmark compare <a.json|dir> <b.json|dir>\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_opts(rest).and_then(|o| cmd_run(start, &o, false)),
        Some("trace") => parse_opts(rest).and_then(|o| cmd_run(start, &o, true)),
        Some("layers") => parse_opts(rest).and_then(|o| cmd_layers(&o)),
        Some("all") => parse_opts(rest).and_then(|o| cmd_all(&o)),
        Some("compare") => match rest {
            [a, b] => Ok(compare::run(Path::new(a), Path::new(b))),
            _ => Err("compare takes two records or two directories".to_string()),
        },
        Some(f) if f.starts_with("--") => cmd_contract(start, &args),
        _ => Err(usage()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            std::process::exit(2);
        }
    }
}
