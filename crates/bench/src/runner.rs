//! Parallel deterministic harness runner.
//!
//! Every harness is a pure function of a fully seeded virtual-time
//! simulation, so harnesses (and the grid points inside the big ablation
//! sweeps) are embarrassingly parallel. This module provides the small
//! job-pool layer that exploits that:
//!
//! * a global worker budget set once from `--jobs N` ([`set_jobs`], default:
//!   available cores),
//! * [`par_map`] — order-preserving parallel map used inside harnesses for
//!   sweep grids,
//! * [`run_harnesses`] — runs a selection of harnesses concurrently but
//!   *prints in canonical order*, so stdout is byte-identical to a serial
//!   (`--jobs 1`) run,
//! * [`parse_cli`] / [`RunReport`] — the `repro` binary's argument handling
//!   and the `--json` machine-readable report.
//!
//! The budget is permit-based: nested `par_map` calls (a harness running
//! under `run_harnesses` that fans out its own grid) draw from the same
//! pool, so total compute-thread concurrency stays near `--jobs` instead of
//! multiplying.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::{Harness, HarnessKind, Series};

/// Configured worker count; 0 means "not yet set" (defaults on first use).
static CONFIGURED_JOBS: AtomicUsize = AtomicUsize::new(0);
/// Spawnable-worker permits remaining out of the configured budget.
static PERMITS: AtomicIsize = AtomicIsize::new(0);

/// Default worker count: the number of available cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the global worker budget (clamped to at least 1). Call once, before
/// running harnesses; nested [`par_map`] calls share the budget.
pub fn set_jobs(n: usize) {
    let n = n.max(1);
    CONFIGURED_JOBS.store(n, Ordering::SeqCst);
    PERMITS.store(n as isize, Ordering::SeqCst);
}

/// The configured worker budget (initializing to [`default_jobs`] on first
/// use).
pub fn jobs() -> usize {
    let c = CONFIGURED_JOBS.load(Ordering::SeqCst);
    if c != 0 {
        return c;
    }
    let d = default_jobs();
    set_jobs(d);
    d
}

/// Worker permits taken from the global budget; dropping returns them, so a
/// panic unwinding through [`par_map`] or [`run_harnesses`] cannot leak them.
struct Workers(usize);

impl Drop for Workers {
    fn drop(&mut self) {
        PERMITS.fetch_add(self.0 as isize, Ordering::SeqCst);
    }
}

/// Take up to `want` worker permits from the global budget; the guard holds
/// how many were actually granted (possibly 0 — caller then runs inline).
fn acquire_workers(want: usize) -> Workers {
    let _ = jobs(); // ensure the budget is initialized
    let mut got = Workers(0);
    while got.0 < want {
        let cur = PERMITS.load(Ordering::SeqCst);
        if cur <= 0 {
            break;
        }
        let take = cur.min((want - got.0) as isize);
        if PERMITS
            .compare_exchange(cur, cur - take, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            got.0 += take as usize;
        }
    }
    got
}

/// Run one item with its panic caught: a failing item must not stop its
/// worker, and `std::thread::scope` would replace its message with "a scoped
/// thread panicked". [`settle`] raises it again, in input order.
fn caught<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// A [`caught`] result, or its panic raised again on this thread.
fn settle<R>(res: std::thread::Result<R>) -> R {
    res.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Order-preserving parallel map: apply `f` to every item, using up to the
/// remaining `--jobs` budget worth of extra worker threads (the calling
/// thread always participates). Results come back in input order, so output
/// is identical to a serial `items.iter().map(f)` — only wall-clock changes.
/// Once the workers stop, the first item panic in input order is raised.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().map(&f).collect();
    }
    let extra = acquire_workers(n - 1);
    if extra.0 == 0 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<_>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = caught(|| f(&items[i]));
        *slots[i].lock().unwrap() = Some(r);
    };
    std::thread::scope(|s| {
        for _ in 0..extra.0 {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| settle(m.into_inner().unwrap().expect("par_map slot filled")))
        .collect()
}

/// One completed harness execution, as recorded for the `--json` report.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HarnessRun {
    /// Harness identifier (e.g. `"fig05"`).
    pub id: &'static str,
    /// Figure or ablation.
    pub kind: HarnessKind,
    /// Simulated ranks/agents the harness spins up (largest configuration).
    pub ranks: usize,
    /// Host wall-clock seconds this harness took.
    pub wall_s: f64,
    /// Allocation calls during this harness's run — the counting-allocator
    /// delta around the run, so harness setup/teardown and the runner's own
    /// bookkeeping are excluded. The counters are process-wide, so the delta
    /// is attributable to this harness only under `--jobs 1`; reads 0 in
    /// binaries without [`crate::alloc::CountingAlloc`] installed.
    pub alloc_calls: u64,
    /// Bytes requested during this harness's run (same caveats).
    pub alloc_bytes: u64,
    /// The rendered data series.
    pub series: Series,
}

/// Machine-readable report written by `repro --json <path>`: per-harness
/// wall-clock, rank counts, allocation deltas and series.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunReport {
    /// Report format version; bumped when the report shape changes so
    /// downstream consumers (and explore replay tokens, which share the
    /// constant) can assert they understand the file. Currently
    /// [`crate::explore::SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Worker budget the run used.
    pub jobs: usize,
    /// Total wall-clock seconds for the whole selection.
    pub total_wall_s: f64,
    /// Per-harness results in canonical order.
    pub harnesses: Vec<HarnessRun>,
    /// Windowed time-resolved series per traced scope (empty without
    /// `--trace`), ordered by scope label.
    pub trace_windows: Vec<ScopeWindows>,
    /// Per-rank wait-state breakdowns per traced scope (empty without
    /// `--critical-path`), ordered by scope label.
    pub wait_states: Vec<crate::critpath::ScopeWaitStates>,
}

/// Time-resolved summary of one traced scope (scope, window width, windows):
/// the shape the streaming server serves as its live series.
pub use overlap_core::stream::ScopeSeries as ScopeWindows;

/// Run `harnesses` on the global worker budget, invoking `on_done` for each
/// **in canonical (input) order** as soon as that harness and all its
/// predecessors have finished. With the sink printing `render()`, stdout is
/// byte-identical to a serial run regardless of `--jobs`.
pub fn run_harnesses(
    harnesses: &[Harness],
    mut on_done: impl FnMut(&HarnessRun),
) -> Vec<HarnessRun> {
    let n = harnesses.len();
    if n == 0 {
        return Vec::new();
    }
    let permits = acquire_workers(n);
    let workers = permits.0.max(1);
    type Slot = Option<std::thread::Result<HarnessRun>>;
    let done: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| None).collect());
    let cv = Condvar::new();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let h = harnesses[i];
        let res = caught(move || {
            let a0 = crate::alloc::snapshot();
            let t0 = Instant::now();
            let series = (h.run)();
            let wall_s = t0.elapsed().as_secs_f64();
            let (alloc_calls, alloc_bytes) = crate::alloc::region(a0, crate::alloc::snapshot());
            HarnessRun {
                id: h.id,
                kind: h.kind,
                ranks: h.ranks,
                wall_s,
                alloc_calls,
                alloc_bytes,
                series,
            }
        });
        let mut g = done.lock().unwrap();
        g[i] = Some(res);
        cv.notify_all();
    };
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(work);
        }
        // This thread only reprints: wait for each slot in canonical order.
        let mut out = Vec::with_capacity(n);
        let mut g = done.lock().unwrap();
        for i in 0..n {
            while g[i].is_none() {
                g = cv.wait(g).unwrap();
            }
            let res = g[i].take().expect("slot ready");
            drop(g);
            let run = settle(res);
            on_done(&run);
            out.push(run);
            g = done.lock().unwrap();
        }
        drop(g);
        out
    })
}

/// Parsed `repro` command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Worker budget (`--jobs N`, default: available cores).
    pub jobs: usize,
    /// Where to write the machine-readable [`RunReport`] (`--json <path>`).
    pub json: Option<std::path::PathBuf>,
    /// Where to write per-harness Chrome-trace + JSONL files
    /// (`--trace <dir>`); also arms trace capture.
    pub trace: Option<std::path::PathBuf>,
    /// Where to write per-harness critical-path artifacts
    /// (`--critical-path <dir>`: `<id>.critpath.folded` collapsed stacks +
    /// `<id>.attribution.json` cause records); also arms trace capture and
    /// merges per-rank wait-state breakdowns into the `--json` report.
    pub critical_path: Option<std::path::PathBuf>,
    /// Fabric topology override (`--topology <spec>`: `flat`,
    /// `fat-tree:k=8`, `dragonfly:a=4,p=2,h=2`); handed to
    /// [`crate::sim::set_overrides`] before any harness runs.
    pub topology: Option<simnet::TopologySpec>,
    /// Progress-model override (`--progress <model>`: `polling`,
    /// `async-rank[:interval=<ns>]`, `early-bird`, `hw-tag`); handed to
    /// [`crate::sim::set_overrides`] before any harness runs.
    pub progress: Option<simmpi::ProgressModel>,
    /// Tee captured traces to a running `overlapd` analysis service
    /// (`--stream <host:port>`); also arms trace capture. Push failures are
    /// warnings, never fatal.
    pub stream: Option<String>,
    /// `list` was requested.
    pub list: bool,
    /// The selected harnesses, in canonical order (figures, then ablations).
    pub selection: Vec<Harness>,
}

/// Split every leading `--name=value` token into `--name`, `value`, so a
/// parser matches each value flag once and takes the value with [`value`].
pub(crate) fn split_eq_flags(args: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    for arg in args {
        match arg.split_once('=') {
            Some((name, v)) if name.starts_with("--") => {
                out.push(name.to_string());
                out.push(v.to_string());
            }
            _ => out.push(arg.clone()),
        }
    }
    out
}

/// The token after `flag`, or the usage error "`<flag> requires <what>`".
pub(crate) fn value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
    what: &str,
) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires {what}"))
}

/// Parse `repro` arguments against the harness registries.
///
/// Selection rules: bare ids select individual harnesses; the group words
/// `figures` / `ablations` select a whole family; both compose (`repro fig05
/// ablations` runs fig05 *and* every ablation). Unknown ids or flags are an
/// error, not silently ignored.
pub fn parse_cli(
    args: &[String],
    figures: &[Harness],
    ablations: &[Harness],
) -> Result<Cli, String> {
    let args = split_eq_flags(args);
    let mut jobs: Option<usize> = None;
    let mut json: Option<std::path::PathBuf> = None;
    let mut trace: Option<std::path::PathBuf> = None;
    let mut critical_path: Option<std::path::PathBuf> = None;
    let mut topology: Option<simnet::TopologySpec> = None;
    let mut progress: Option<simmpi::ProgressModel> = None;
    let mut stream: Option<String> = None;
    let mut list = false;
    let mut want_figures = false;
    let mut want_ablations = false;
    let mut ids: Vec<&str> = Vec::new();

    let parse_jobs = |v: &str| -> Result<usize, String> {
        v.parse::<usize>()
            .map_err(|_| format!("invalid --jobs value {v:?} (expected a positive integer)"))
            .and_then(|n| {
                if n == 0 {
                    Err("--jobs must be at least 1".to_string())
                } else {
                    Ok(n)
                }
            })
    };

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "list" => list = true,
            "figures" => want_figures = true,
            "ablations" => want_ablations = true,
            "--jobs" | "-j" => jobs = Some(parse_jobs(value(&mut it, arg, "a value")?)?),
            "--json" => json = Some(value(&mut it, arg, "a path")?.into()),
            "--trace" => trace = Some(value(&mut it, arg, "a directory")?.into()),
            "--critical-path" => critical_path = Some(value(&mut it, arg, "a directory")?.into()),
            "--topology" => {
                topology = Some(simnet::TopologySpec::parse(value(&mut it, arg, "a spec")?)?)
            }
            "--progress" => {
                progress = Some(simmpi::ProgressModel::parse(value(
                    &mut it, arg, "a model",
                )?)?)
            }
            "--stream" => stream = Some(value(&mut it, arg, "a host:port address")?.to_string()),
            a if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
            a => ids.push(a),
        }
    }

    let known = |id: &str| figures.iter().chain(ablations).any(|h| h.id == id);
    let unknown: Vec<&str> = ids.iter().copied().filter(|id| !known(id)).collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown harness id(s): {} (see `repro list`)",
            unknown.join(", ")
        ));
    }

    let select_all = ids.is_empty() && !want_figures && !want_ablations;
    let mut selection = Vec::new();
    for h in figures {
        if select_all || want_figures || ids.contains(&h.id) {
            selection.push(*h);
        }
    }
    for h in ablations {
        if select_all || want_ablations || ids.contains(&h.id) {
            selection.push(*h);
        }
    }

    Ok(Cli {
        jobs: jobs.unwrap_or_else(default_jobs),
        json,
        trace,
        critical_path,
        topology,
        progress,
        stream,
        list,
        selection,
    })
}
