//! Figure-reproduction CLI.
//!
//! ```text
//! repro                          # run every figure and ablation
//! repro fig05 fig18              # run selected harnesses
//! repro ablations                # run only the ablation studies
//! repro fig05 ablations          # a figure plus all ablations
//! repro --jobs 4                 # bound the worker pool (default: cores)
//! repro --json report.json       # also write a machine-readable report
//! repro fig03 --trace out/       # also export time-resolved traces
//! repro fig03 --critical-path cp/  # also export wait-state attribution
//! repro --topology fat-tree:k=8 fig03  # re-run under another fabric
//! repro --progress async-rank fig03    # re-run under another progress model
//! repro serve --addr 127.0.0.1:7077    # run the streaming analysis service
//! repro push out/fig03.events.jsonl --to 127.0.0.1:7077  # upload a stream
//! repro fig03 --stream 127.0.0.1:7077  # tee captured traces to the service
//! repro list                     # list available harnesses
//! ```
//!
//! `--topology <spec>` (`flat`, `fat-tree:k=8`, `dragonfly:a=4,p=2,h=2`)
//! re-runs the selected harnesses under a hierarchical fabric with per-hop
//! contention (see `docs/TOPOLOGY.md`); the spec is fitted up to each
//! harness's rank count automatically. Unknown specs exit 2 with a one-line
//! message.
//!
//! `--progress <model>` (`polling`, `async-rank[:interval=<ns>]`,
//! `early-bird`, `hw-tag`) re-runs the selected MPI harnesses under another
//! progress model (see `docs/PROGRESS.md`); `polling` is the default and is
//! byte-identical to not passing the flag. Unknown models exit 2 with a
//! one-line message. The flag composes with `--topology` and `--jobs`.
//!
//! Harnesses run concurrently on `--jobs` workers but print in canonical
//! order, so stdout is byte-identical to a serial (`--jobs 1`) run. With
//! `--trace <dir>`, each selected harness additionally writes
//! `<dir>/<id>.trace.json` (Chrome trace event format — load in Perfetto or
//! `chrome://tracing`) and `<dir>/<id>.events.jsonl` (one JSON object per
//! event, for `jq`-style analysis); windowed time-resolved summaries are
//! merged into the `--json` report. Trace files are deterministic: the same
//! selection produces byte-identical files regardless of `--jobs`.
//!
//! With `--critical-path <dir>`, each selected harness writes
//! `<dir>/<id>.critpath.folded` (flamegraph-collapsed dominant wait chains)
//! and `<dir>/<id>.attribution.json` (per-transfer cause records reconciled
//! against the overlap bounds, plus the instrumentation self-overhead
//! meter); per-rank wait-state breakdowns are merged into the `--json`
//! report. Like traces, these artifacts are byte-identical across `--jobs`.
//! Export failures (unwritable directory, path is a file) exit with code 2
//! and a one-line message.

use std::collections::BTreeMap;

use bench::runner;
use overlap_core::artifact::{self, ScopeView};
use overlap_core::trace::{chrome_json, jsonl, TraceBundle};

/// Counting allocator behind the per-harness `alloc_calls` / `alloc_bytes`
/// fields of the `--json` report.
#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `repro explore ...`, `repro serve ...` and `repro push ...` are
    // subcommands with their own flags; dispatch before harness-selection
    // parsing sees them.
    match args.first().map(String::as_str) {
        Some("explore") => std::process::exit(bench::explore::cli_main(&args[1..])),
        Some("serve") => std::process::exit(bench::serve::serve_main(&args[1..])),
        Some("push") => std::process::exit(bench::serve::push_main(&args[1..])),
        _ => {}
    }

    let figures = bench::figures::all();
    let ablations = bench::ablations::all();

    let cli = match runner::parse_cli(&args, &figures, &ablations) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("repro: {msg}");
            std::process::exit(2);
        }
    };

    if cli.list {
        println!("figures:");
        for h in &figures {
            println!("  {}", h.id);
        }
        println!("ablations:");
        for h in &ablations {
            println!("  {}", h.id);
        }
        return;
    }

    bench::sim::set_overrides(cli.topology, cli.progress);

    if cli.trace.is_some() || cli.critical_path.is_some() {
        bench::tracecap::enable();
    }

    if let Some(addr) = &cli.stream {
        bench::tracecap::set_stream(addr.clone());
    }

    runner::set_jobs(cli.jobs);
    // Allocate stdout's buffer before any harness's allocation window opens.
    let _ = std::io::stdout();
    let t0 = std::time::Instant::now();
    // A harness whose simulation deadlocks panics with the engine's
    // one-line diagnostic (including the wait-for cycle when known);
    // surface that as exit code 3 instead of a raw panic trace.
    let runs = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runner::run_harnesses(&cli.selection, |_, text| {
            print!("{text}");
            println!();
        })
    })) {
        Ok(runs) => runs,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("harness panicked");
            if msg.contains("simulated deadlock") {
                eprintln!("repro: {msg}");
                std::process::exit(3);
            }
            std::panic::resume_unwind(payload);
        }
    };
    // Drain the capture once; both exporters read from it. The store is
    // scope-ordered, so grouping and file contents are deterministic.
    let captured: Vec<(String, TraceBundle)> = if cli.trace.is_some() || cli.critical_path.is_some()
    {
        bench::tracecap::drain().into_iter().collect()
    } else {
        Vec::new()
    };

    // One view per captured scope (each rank's events replayed into call
    // spans once); every windowed and critical-path artifact reads these.
    let views: Vec<ScopeView> = captured
        .iter()
        .map(|(scope, bundle)| ScopeView::of(scope, bundle))
        .collect();
    let id_of = |scope: &str| scope.split('/').next().unwrap_or(scope).to_string();

    let mut trace_windows = Vec::new();
    if let Some(dir) = &cli.trace {
        ensure_dir(dir);
        trace_windows = artifact::series(&views, None).expect("the default width never refuses");
        // Group captured scopes by harness id (the part before the first
        // '/'): one Chrome-trace + JSONL file pair per harness.
        let mut by_id: BTreeMap<String, Vec<TraceBundle>> = BTreeMap::new();
        for (scope, bundle) in &captured {
            by_id.entry(id_of(scope)).or_default().push(bundle.clone());
        }
        for (id, bundles) in &by_id {
            for (suffix, contents) in [
                ("trace.json", chrome_json(bundles)),
                ("events.jsonl", jsonl(bundles)),
            ] {
                write_or_die(&dir.join(format!("{id}.{suffix}")), &contents);
            }
        }
        eprintln!(
            "wrote traces for {} harness(es) to {}",
            by_id.len(),
            dir.display()
        );
    }

    let mut wait_states = Vec::new();
    if let Some(dir) = &cli.critical_path {
        ensure_dir(dir);
        let cp0 = std::time::Instant::now();
        wait_states = artifact::wait_states(&views);
        let mut by_id: BTreeMap<String, Vec<ScopeView>> = BTreeMap::new();
        for view in views {
            by_id.entry(id_of(view.scope)).or_default().push(view);
        }
        let mut intervals = 0u64;
        for (id, scoped) in &by_id {
            let artifact = artifact::attribution_artifact(id, scoped);
            intervals += artifact.overhead.wait_intervals;
            let json =
                serde_json::to_string_pretty(&artifact).expect("attribution artifact serializes");
            write_or_die(&dir.join(format!("{id}.attribution.json")), &json);
            write_or_die(
                &dir.join(format!("{id}.critpath.folded")),
                &artifact::collapsed(scoped),
            );
        }
        // Self-overhead: wall-clock is nondeterministic, so it goes to
        // stderr only — artifacts carry the deterministic counters.
        eprintln!(
            "wrote critical-path artifacts for {} harness(es) to {} \
             ({} wait intervals attributed in {:.1} ms)",
            by_id.len(),
            dir.display(),
            intervals,
            cp0.elapsed().as_secs_f64() * 1e3,
        );
    }

    let total_wall_s = t0.elapsed().as_secs_f64();

    if let Some(path) = &cli.json {
        let report = runner::RunReport {
            schema_version: bench::explore::SCHEMA_VERSION,
            jobs: cli.jobs,
            total_wall_s,
            harnesses: runs,
            trace_windows,
            wait_states,
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {path:?}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}

/// Create an export directory, or exit 2 with a one-line message (covers
/// unwritable parents and the path already existing as a file).
fn ensure_dir(dir: &std::path::Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("repro: cannot create directory {}: {e}", dir.display());
        std::process::exit(2);
    }
}

/// Write an export file, or exit 2 with a one-line message.
fn write_or_die(path: &std::path::Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}
