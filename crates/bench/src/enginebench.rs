//! Scheduler and engine micro-benchmarks.
//!
//! Shared by the criterion bench target (`benches/engine.rs`) and the
//! `repro --bench-json` perf-trajectory emitter, so the number CI smoke-runs
//! is computed by exactly the code that writes `BENCH_*.json`.
//!
//! The headline measurement is a classic *hold model* over the two
//! schedulers in `simcore::sched`, each driven through the locking protocol
//! its engine generation actually used:
//!
//! * **heap** — one global `Mutex<BinaryHeapSched>`, locked once per push
//!   and once per pop: in the pre-wheel engine *every* schedule, including
//!   the run loop's own timer wakes, went through that mutex,
//! * **wheel** — a run-loop-owned `TimingWheel`: the loop's own wakes are
//!   pushed directly (no lock), and before each pop an atomic inbox mask is
//!   swapped to detect pending cross-thread insertions (the current
//!   engine's drain protocol; shard mutexes are only taken when the mask
//!   says a producer actually queued something).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use simcore::sched::{BinaryHeapSched, TimingWheel};
use simcore::{SimOpts, Simulation};

/// Deterministic 64-bit LCG (same constants as `rand`'s `Lcg64`): the bench
/// workload must not depend on platform RNG state.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Maximum delay added to a popped entry's time when it is re-pushed.
const HOLD_SPREAD: u64 = 10_000;

/// Result of one scheduler hold-model comparison.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SchedThroughput {
    /// Pop-push operations timed per scheduler.
    pub events: u64,
    /// Entries kept pending throughout (the hold population).
    pub outstanding: usize,
    /// Locked `BinaryHeap` reference (pre-wheel engine protocol).
    pub heap_events_per_sec: f64,
    /// Timing wheel behind an insertion buffer (current engine protocol).
    pub wheel_events_per_sec: f64,
    /// `wheel_events_per_sec / heap_events_per_sec`.
    pub speedup: f64,
}

/// Hold-model seconds for the locked-heap protocol.
pub fn heap_hold_secs(events: u64, outstanding: usize) -> f64 {
    let q = Mutex::new(BinaryHeapSched::new());
    let mut rng = Lcg(0x5eed);
    let mut seq = 0u64;
    for _ in 0..outstanding {
        q.lock().push(rng.next() % HOLD_SPREAD, seq, ());
        seq += 1;
    }
    let start = Instant::now();
    for _ in 0..events {
        let (t, ..) = q.lock().pop().expect("hold population never empties");
        let nt = t + 1 + rng.next() % HOLD_SPREAD;
        q.lock().push(nt, seq, ());
        seq += 1;
    }
    start.elapsed().as_secs_f64()
}

/// Hold-model seconds for the wheel-plus-inbox drain protocol: re-pushes
/// are the run loop's own wakes (direct, no lock — as the engine inserts
/// its timer events), and each pop is preceded by the atomic inbox-mask
/// swap the engine uses to detect cross-thread insertions.
pub fn wheel_hold_secs(events: u64, outstanding: usize) -> f64 {
    let inbox_mask = AtomicU64::new(0);
    let inbox: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let mut wheel = TimingWheel::new();
    let mut rng = Lcg(0x5eed);
    let mut seq = 0u64;
    // Seed through the producer path, as ranks would.
    {
        let mut buf = inbox.lock();
        for _ in 0..outstanding {
            buf.push((rng.next() % HOLD_SPREAD, seq));
            seq += 1;
        }
    }
    inbox_mask.store(1, Ordering::Release);
    let start = Instant::now();
    for _ in 0..events {
        if inbox_mask.swap(0, Ordering::Acquire) != 0 {
            for (t, s) in inbox.lock().drain(..) {
                wheel.push(t, s, ());
            }
        }
        let (t, ..) = wheel.pop().expect("hold population never empties");
        let nt = t + 1 + rng.next() % HOLD_SPREAD;
        wheel.push(nt, seq, ());
        seq += 1;
    }
    start.elapsed().as_secs_f64()
}

/// Run the hold-model comparison at the given size.
pub fn sched_throughput(events: u64, outstanding: usize) -> SchedThroughput {
    let heap_s = heap_hold_secs(events, outstanding);
    let wheel_s = wheel_hold_secs(events, outstanding);
    let heap_eps = events as f64 / heap_s;
    let wheel_eps = events as f64 / wheel_s;
    SchedThroughput {
        events,
        outstanding,
        heap_events_per_sec: heap_eps,
        wheel_events_per_sec: wheel_eps,
        speedup: wheel_eps / heap_eps,
    }
}

/// End-to-end engine event throughput: `nranks` ranks each advancing through
/// `steps` compute slices (every slice is one scheduled wake-up), with a
/// token chain ticking alongside. Returns processed events per host second.
pub fn sim_events_per_sec(nranks: usize, steps: u64) -> f64 {
    let sim = Simulation::new(nranks);
    let handle = sim.handle();
    handle.set_token_handler(move |h, tok| {
        if tok > 0 {
            h.schedule_token(h.now() + 7, tok - 1);
        }
    });
    handle.schedule_token(1, steps);
    let start = Instant::now();
    let out = sim
        .run(SimOpts::default(), move |ctx| {
            for _ in 0..steps {
                ctx.compute(5);
            }
        })
        .expect("bench simulation completes");
    out.events_processed as f64 / start.elapsed().as_secs_f64()
}

/// Canonical hold-model size for the perf trajectory (`BENCH_*.json`) and
/// the CI bench smoke: large enough that the heap pays its `O(log n)`
/// comparisons and the wheel amortizes cascades, small enough to finish in
/// well under a second.
pub const TRAJECTORY_EVENTS: u64 = 200_000;
/// Canonical hold population for the perf trajectory.
pub const TRAJECTORY_OUTSTANDING: usize = 1 << 14;
/// Canonical rank count for the streaming-ingest probe.
pub const TRAJECTORY_INGEST_RANKS: usize = 4;
/// Canonical transfers per rank for the streaming-ingest probe (6 raw event
/// lines plus one bound and one wait line per transfer).
pub const TRAJECTORY_INGEST_TRANSFERS: usize = 2_000;

/// Result of the streaming-ingest throughput probe: how fast `overlapd`'s
/// fold ([`overlap_core::stream::SessionFold`]) consumes JSONL event lines,
/// and what it allocates per line once the session is warm.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IngestBench {
    /// Raw event lines folded in the measured pass.
    pub events: u64,
    /// Folded event lines per host second (parse + fold, steady state).
    pub events_per_sec: f64,
    /// Allocation calls per folded event line during the measured pass. The
    /// session, scopes, ranks, and the name-intern pool already exist when
    /// measurement starts, so this is the steady-state number — the direct
    /// check that server memory stays bounded per event rather than growing
    /// with stream length. Reads 0 in binaries without
    /// [`crate::alloc::CountingAlloc`] installed.
    pub allocs_per_event: f64,
}

/// Deterministic synthetic event stream for the ingest probe: `ranks` ranks
/// each completing `transfers` isend/wait transfer pairs, with one bound
/// and one wait line per transfer — the exact JSONL shape the batch
/// exporter writes.
pub fn ingest_stream(ranks: usize, transfers: usize) -> String {
    use overlap_core::attribution::{WaitCause, WaitInterval};
    use overlap_core::bounds::XferCase;
    use overlap_core::trace::{jsonl, BoundRecord, RankTrace, TraceBundle};
    use overlap_core::{Event, EventKind};

    let rank_trace = |rank: usize| {
        let mut events = Vec::with_capacity(transfers * 6);
        let mut bounds = Vec::with_capacity(transfers);
        let mut waits = Vec::with_capacity(transfers);
        let mut t = 0u64;
        for i in 0..transfers {
            let id = i as u64 + 1;
            let bytes = 1u64 << (10 + (i % 6)); // walk the size bins
            events.push(Event::new(t, EventKind::CallEnter { name: "MPI_Isend" }));
            events.push(Event::new(t + 5, EventKind::XferBegin { id, bytes }));
            events.push(Event::new(t + 10, EventKind::CallExit));
            events.push(Event::new(
                t + 600,
                EventKind::CallEnter { name: "MPI_Wait" },
            ));
            events.push(Event::new(t + 900, EventKind::XferEnd { id, bytes }));
            events.push(Event::new(t + 910, EventKind::CallExit));
            bounds.push(BoundRecord {
                id: Some(id),
                bytes,
                begin_t: Some(t + 5),
                end_t: t + 900,
                xfer_time: 250,
                min: 0,
                max: 250,
                case: XferCase::SplitCalls,
                flagged: false,
                clamped: false,
            });
            waits.push(WaitInterval {
                start: t + 600,
                end: t + 900,
                cause: WaitCause::LateSender,
                xfer: Some(id),
            });
            t += 1_000;
        }
        RankTrace {
            rank,
            events,
            bounds,
            waits,
        }
    };
    jsonl(&[TraceBundle {
        scope: "ingest/probe".to_string(),
        ranks: (0..ranks).map(rank_trace).collect(),
        extras: vec![],
    }])
}

/// Run the streaming-ingest probe: fold the synthetic stream once to warm
/// the session (scopes, ranks, intern pool), then measure
/// a second pass of the same stream through the *same* session — the
/// steady-state regime a long-lived server lives in.
pub fn ingest_throughput(ranks: usize, transfers: usize) -> IngestBench {
    use overlap_core::stream::SessionFold;

    let text = ingest_stream(ranks, transfers);
    let mut session = SessionFold::default();
    session
        .push_text(&text)
        .expect("synthetic stream is schema-valid");
    let events = (ranks * transfers * 6) as u64;

    let a0 = crate::alloc::snapshot();
    let start = Instant::now();
    session
        .push_text(&text)
        .expect("synthetic stream is schema-valid");
    let secs = start.elapsed().as_secs_f64();
    let (calls, _) = crate::alloc::region(a0, crate::alloc::snapshot());

    IngestBench {
        events,
        events_per_sec: events as f64 / secs,
        allocs_per_event: calls as f64 / events as f64,
    }
}

/// Allocation counters captured from [`crate::alloc::snapshot`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct AllocStats {
    /// Allocation calls (alloc + realloc).
    pub calls: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

/// One harness line in the perf trajectory.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HarnessSummary {
    /// Harness identifier (e.g. `"fig03"`).
    pub id: &'static str,
    /// Simulated ranks the harness spins up (largest configuration).
    pub ranks: usize,
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Allocation calls during this harness's run (counter delta around the
    /// run; attributable to the harness only under `--jobs 1`, since the
    /// counters are process-wide).
    pub alloc_calls: u64,
    /// Bytes requested during this harness's run (same caveat).
    pub alloc_bytes: u64,
}

/// Engine-level throughput numbers.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EngineBench {
    /// Full-`Simulation` processed events per host second.
    pub sim_events_per_sec: f64,
    /// Hold-model comparison of the two scheduler generations.
    pub sched: SchedThroughput,
    /// Streaming-ingest throughput and steady-state allocation rate.
    pub ingest: IngestBench,
}

/// Top-level perf-trajectory record written by `repro --bench-json`.
///
/// One file of this shape is committed per PR that touches the hot path
/// (`BENCH_pr4.json`, ...), seeding a comparable wall-clock/throughput
/// series across the repo's history. See `docs/BENCHMARKS.md`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchReport {
    /// Record-format identifier (see [`BENCH_SCHEMA`]).
    pub schema: &'static str,
    /// Worker budget the harness run used.
    pub jobs: usize,
    /// Total wall-clock seconds for the harness selection.
    pub total_wall_s: f64,
    /// Per-harness wall-clock and allocation deltas, in canonical order.
    pub harnesses: Vec<HarnessSummary>,
    /// Steady-state allocation counters: the delta across the harness-run
    /// region only, excluding process setup (harness registries, CLI
    /// parsing) and report assembly. This is the number the trajectory
    /// tracks.
    pub allocations: AllocStats,
    /// Raw cumulative process-wide counters at report time, kept for
    /// comparison against pre-v2 records (which reported only this).
    pub allocations_raw: AllocStats,
    /// Scheduler/engine micro-benchmarks at the canonical trajectory sizes.
    pub engine: EngineBench,
}

/// Record-format identifier written into [`BenchReport::schema`]. `v2` added
/// per-harness allocation deltas and split `allocations` into steady-state
/// (measured region) vs `allocations_raw` (cumulative); `v3` added the
/// streaming-ingest probe (`engine.ingest`).
pub const BENCH_SCHEMA: &str = "overlap-bench-v3";

/// Guard for `repro --bench-json <path>`: if `path` already holds a record
/// whose `schema` field differs from [`BENCH_SCHEMA`], returns that schema
/// so the caller can refuse to overwrite it (a committed `BENCH_prN.json`
/// from an earlier format generation is history, not scratch space).
/// Returns `None` when the path is absent, unreadable, not JSON, has no
/// string `schema` field, or already carries the current schema — all cases
/// where overwriting is fine.
pub fn bench_json_overwrite_conflict(path: &std::path::Path) -> Option<String> {
    let existing = std::fs::read_to_string(path).ok()?;
    let schema = serde_json::from_str::<serde_json::Value>(&existing)
        .ok()?
        .get("schema")?
        .as_str()?
        .to_string();
    (schema != BENCH_SCHEMA).then_some(schema)
}

/// Assemble the perf-trajectory record: runs the canonical hold-model
/// comparison and the full-simulation throughput probe, then snapshots the
/// allocation counters. `run_region` is the counter delta the caller
/// measured around the harness run itself (see [`crate::alloc::region`]);
/// the raw cumulative counters are snapshotted here, after the
/// micro-benchmarks, so their allocations are included in the raw number
/// (they are identical run to run) but not in the steady-state one.
pub fn bench_report(
    jobs: usize,
    total_wall_s: f64,
    harnesses: Vec<HarnessSummary>,
    run_region: AllocStats,
) -> BenchReport {
    let sched = sched_throughput(TRAJECTORY_EVENTS, TRAJECTORY_OUTSTANDING);
    let sim = sim_events_per_sec(4, 25_000);
    let ingest = ingest_throughput(TRAJECTORY_INGEST_RANKS, TRAJECTORY_INGEST_TRANSFERS);
    let (calls, bytes) = crate::alloc::snapshot();
    BenchReport {
        schema: BENCH_SCHEMA,
        jobs,
        total_wall_s,
        harnesses,
        allocations: run_region,
        allocations_raw: AllocStats { calls, bytes },
        engine: EngineBench {
            sim_events_per_sec: sim,
            sched,
            ingest,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_models_complete_and_report_positive_rates() {
        let r = sched_throughput(10_000, 1 << 10);
        assert_eq!(r.events, 10_000);
        assert!(r.heap_events_per_sec > 0.0);
        assert!(r.wheel_events_per_sec > 0.0);
        assert!(r.speedup > 0.0);
    }

    #[test]
    fn sim_throughput_is_positive() {
        assert!(sim_events_per_sec(2, 500) > 0.0);
    }

    #[test]
    fn ingest_probe_folds_and_reports_positive_rate() {
        let r = ingest_throughput(2, 50);
        assert_eq!(r.events, 2 * 50 * 6);
        assert!(r.events_per_sec > 0.0);
        // Without the counting allocator installed (as in `cargo test`) the
        // counter reads 0; either way the number must be finite and small
        // relative to a per-event leak.
        assert!(r.allocs_per_event.is_finite());
    }

    /// Scratch path unique to this test run (no tempfile dependency).
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("enginebench_{}_{name}", std::process::id()))
    }

    #[test]
    fn overwrite_guard_refuses_other_schemas_only() {
        let path = scratch("guard.json");

        // Absent file: no conflict.
        let _ = std::fs::remove_file(&path);
        assert_eq!(bench_json_overwrite_conflict(&path), None);

        // Older record generation: conflict, reported by its schema.
        std::fs::write(&path, r#"{"schema": "overlap-bench-v1", "jobs": 1}"#).unwrap();
        assert_eq!(
            bench_json_overwrite_conflict(&path).as_deref(),
            Some("overlap-bench-v1")
        );

        // Current schema: regeneration is fine.
        std::fs::write(&path, format!(r#"{{"schema": {BENCH_SCHEMA:?}}}"#)).unwrap();
        assert_eq!(bench_json_overwrite_conflict(&path), None);

        // Not a bench record at all (garbage / no schema field): no claim to
        // protect, overwriting allowed.
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(bench_json_overwrite_conflict(&path), None);
        std::fs::write(&path, r#"{"jobs": 1}"#).unwrap();
        assert_eq!(bench_json_overwrite_conflict(&path), None);

        let _ = std::fs::remove_file(&path);
    }
}
