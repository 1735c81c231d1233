//! The five workloads. Each is set up once per process (`Workload::setup`)
//! and then run pass after pass (`Workload::pass`); a pass times its own
//! measured region and runs its correctness checks outside it.
//!
//! Why these five:
//! * `suite` is what `repro` users wait for: 29 small simulations where the
//!   `simmpi` protocol machines, payload handling, the `nasbench` kernels and
//!   the aggregate-only recorder do the work and the engine idles.
//! * `halo4k` is the mirror image: 4096 fibers, a deep timing wheel and the
//!   fat-tree hop walk; `simcore` and `simnet` dominate.
//! * `export` runs the same simulator with the recorder retaining
//!   everything, then every exporter: a recorder change that helps
//!   aggregate-only mode at the cost of traced mode shows here only.
//! * `serve-bulk` is write-dominated ingest through `overlapd`; no simulator
//!   code runs in its timed region, so a simulator change must read "no
//!   change" here.
//! * `serve-live` interleaves chunked writes with reads on one session, so a
//!   write-path gain that makes snapshots dearer (or the reverse) shows as
//!   one side moving against the other.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use bench::runner::ScopeWindows;
use bench::{Harness, Series};
use overlap_core::processor::Processor;
use overlap_core::stream::SessionFold;
use overlap_core::trace::{chrome_json, default_window_width, jsonl, windowed, TraceBundle};
use overlap_core::{SizeBins, XferTimeTable};
use overlapd::{push_text, Server, Service};

use crate::alloc;
use crate::corpus::{self, Stream};
use crate::spans::span;
use crate::stats::Fnv;

/// Workload names; the API later issues refer to.
pub const WORKLOADS: [&str; 5] = ["suite", "halo4k", "export", "serve-bulk", "serve-live"];

/// Harnesses the `export` workload traces and exports.
const EXPORT_IDS: [&str; 4] = ["fig03", "fig10", "fig14", "fig18"];

/// Session the live writer and reader share.
const LIVE_SESSION: &str = "live";

/// What one pass measured and checked.
#[derive(Default)]
pub struct Pass {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Allocator calls and bytes requested inside the timed region;
    /// `serve-live` divides both by the operations the pass completed.
    pub alloc_calls: f64,
    pub alloc_bytes: f64,
    /// `serve-*` only: each operation's latency, ms, by metric stem
    /// (`push_to_report_ms`; `push_ms` and `read_ms`).
    pub latencies: Vec<(&'static str, Vec<f64>)>,
    /// `export` only: artifact bytes produced and seconds in the exporters.
    pub export_bytes: u64,
    pub export_s: f64,
    /// `serve-*` only: lines acknowledged and seconds spent pushing them.
    pub lines: u64,
    pub push_s: f64,
    /// FNV digest of the pass's rendered output.
    pub digest: u64,
    /// Operations and checks attempted, and what failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Pass {
    /// Count one operation or check; record `why` if it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// End the timed region that began at `t0` with allocator reading `a0`.
    fn close_region(&mut self, t0: Instant, a0: alloc::Snapshot) {
        self.wall_s = t0.elapsed().as_secs_f64();
        let (calls, bytes) = alloc::region(a0, alloc::snapshot());
        (self.alloc_calls, self.alloc_bytes) = (calls as f64, bytes as f64);
    }

    /// Take over another tally's operations and failures.
    pub fn absorb(&mut self, other: &Pass) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// A workload with its set-up done.
pub enum Workload {
    Suite(Vec<Harness>),
    Halo4k(Harness),
    Export {
        harnesses: Vec<Harness>,
        table: XferTimeTable,
    },
    ServeBulk(Vec<Stream>),
    ServeLive {
        streams: Vec<Stream>,
        /// `/report` of an in-process fold fed the same chunk sequence.
        expected_report: String,
    },
}

pub fn registry() -> Vec<Harness> {
    let mut all = bench::figures::all();
    all.extend(bench::ablations::all());
    all
}

fn harness(id: &str) -> Harness {
    registry()
        .into_iter()
        .find(|h| h.id == id)
        .unwrap_or_else(|| panic!("harness {id} is registered"))
}

impl Workload {
    /// Build the workload's inputs from `seed`. `smoke` shrinks the corpus
    /// to two streams. Only the service workloads have seeded inputs: the
    /// simulator harnesses are fixed programs and ignore the seed.
    pub fn setup(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
        // Ranks are fibers on the engine thread; one worker keeps every
        // simulator workload on one core of the two-core reference box.
        bench::runner::set_jobs(1);
        let n_streams = if smoke { 2 } else { corpus::STREAMS };
        Ok(match name {
            // fig20's output depends on host wall-clock; halo-4k has its own
            // workload.
            "suite" => Workload::Suite(
                registry()
                    .into_iter()
                    .filter(|h| h.id != "fig20" && h.id != "halo-4k")
                    .collect(),
            ),
            "halo4k" => Workload::Halo4k(harness("halo-4k")),
            "export" => {
                bench::tracecap::enable();
                Workload::Export {
                    harnesses: EXPORT_IDS.iter().map(|id| harness(id)).collect(),
                    table: simmpi::default_xfer_table(&simnet::NetConfig::default()),
                }
            }
            "serve-bulk" => Workload::ServeBulk(corpus::corpus(seed, n_streams)),
            "serve-live" => {
                let streams = corpus::corpus(seed, n_streams);
                let mut fold = SessionFold::default();
                for c in streams.iter().flat_map(|s| &s.chunks) {
                    fold.push_text(&c.text)
                        .map_err(|e| format!("corpus chunk refused by the local fold: {e}"))?;
                }
                let expected_report =
                    serde_json::to_string(&fold.report()).expect("report serializes");
                Workload::ServeLive {
                    streams,
                    expected_report,
                }
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        })
    }

    /// Run one pass.
    pub fn pass(&self) -> Pass {
        match self {
            Workload::Suite(hs) => simulate(hs, |_, _| {}),
            Workload::Halo4k(h) => simulate(std::slice::from_ref(h), |series, pass| {
                let col = series
                    .columns
                    .iter()
                    .position(|c| c == "reconcile_mismatches");
                let cell = col.and_then(|c| series.rows.first()?.get(c));
                pass.check(cell.map(String::as_str) == Some("0"), || {
                    format!("halo-4k reconcile_mismatches = {cell:?}, want 0")
                });
            }),
            Workload::Export { harnesses, table } => export_pass(harnesses, table),
            Workload::ServeBulk(streams) => serve_bulk_pass(streams),
            Workload::ServeLive {
                streams,
                expected_report,
            } => serve_live_pass(streams, expected_report),
        }
    }
}

/// Call one harness through `Harness.run`; a panic (a simulated deadlock, a
/// failed in-harness assertion) is a failed operation, not a crash.
fn run_harness(h: &Harness, pass: &mut Pass) -> Option<Series> {
    let res = {
        let _s = span("bench.harness", h.id);
        std::panic::catch_unwind(h.run)
    };
    pass.check(res.is_ok(), || format!("harness {} panicked", h.id));
    res.ok()
}

/// `suite` and `halo4k`: the harnesses in canonical order, rendered as
/// `repro` prints them. `inspect` runs workload-specific checks per series.
fn simulate(harnesses: &[Harness], inspect: impl Fn(&Series, &mut Pass)) -> Pass {
    let mut pass = Pass::default();
    let mut out = String::new();
    let mut series = Vec::with_capacity(harnesses.len());
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    for h in harnesses {
        if let Some(s) = run_harness(h, &mut pass) {
            out.push_str(&s.render());
            out.push('\n');
            series.push(s);
        }
    }
    pass.close_region(t0, a0);
    for s in &series {
        pass.check(!s.rows.is_empty(), || format!("{} produced no rows", s.id));
        inspect(s, &mut pass);
    }
    let mut digest = Fnv::new();
    digest.write(out.as_bytes());
    pass.digest = digest.finish();
    pass
}

/// `export`: each harness with capture armed, then every exporter `repro
/// --trace --critical-path --json` runs, into memory.
fn export_pass(harnesses: &[Harness], table: &XferTimeTable) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Fnv::new();
    let mut captured: Vec<TraceBundle> = Vec::new();
    let _ = bench::tracecap::drain();
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    for h in harnesses {
        let series = run_harness(h, &mut pass);
        let bundles: Vec<TraceBundle> = bench::tracecap::drain().into_values().collect();
        let te = Instant::now();
        let artifacts = export_all(h.id, &bundles);
        pass.export_s += te.elapsed().as_secs_f64();
        if let Some(s) = series {
            digest.write(s.render().as_bytes());
        }
        for a in &artifacts {
            pass.export_bytes += a.len() as u64;
            digest.write(a.as_bytes());
        }
        pass.check(!bundles.is_empty(), || {
            format!("{} captured no scopes", h.id)
        });
        captured.extend(bundles);
    }
    pass.close_region(t0, a0);
    pass.digest = digest.finish();

    // `Harness.run` hands back a rendered table, not reports, so the report
    // invariants are checked on reports re-folded from the captured events.
    let bins = SizeBins::default();
    for b in &captured {
        let reports: Vec<_> = b
            .ranks
            .iter()
            .map(|tr| {
                let mut p = Processor::new(table.clone(), bins.clone());
                for e in &tr.events {
                    p.process(*e);
                }
                let end = tr.events.last().map_or(0, |e| e.t);
                p.finish(end, tr.rank, tr.events.len() as u64, 0)
            })
            .collect();
        let violations = overlap_core::check_reports(&reports);
        pass.check(violations.is_empty(), || {
            format!(
                "{}: {} invariant violation(s), first: {}",
                b.scope,
                violations.len(),
                violations[0]
            )
        });
    }
    pass
}

/// The six artifacts of one harness: Chrome trace, JSONL, windowed series,
/// wait states, attribution artifact, collapsed stacks.
fn export_all(id: &str, bundles: &[TraceBundle]) -> [String; 6] {
    let chrome = {
        let _s = span("overlap-core.trace.chrome", id);
        chrome_json(bundles)
    };
    let lines = {
        let s = span("overlap-core.trace.jsonl", id);
        let text = jsonl(bundles);
        s.count("bytes", text.len() as u64);
        text
    };
    let windows = {
        let _s = span("overlap-core.trace.windowed", id);
        let rows: Vec<ScopeWindows> = bundles
            .iter()
            .map(|b| {
                let width = default_window_width(b);
                ScopeWindows {
                    scope: b.scope.clone(),
                    window_ns: width,
                    windows: windowed(b, width),
                }
            })
            .collect();
        serde_json::to_string_pretty(&rows).expect("windows serialize")
    };
    let scoped: Vec<(String, &TraceBundle)> =
        bundles.iter().map(|b| (b.scope.clone(), b)).collect();
    let waits = {
        let _s = span("overlap-core.artifact.wait_states", id);
        let ws: Vec<_> = scoped
            .iter()
            .map(|(scope, b)| bench::critpath::wait_states(scope, b))
            .collect();
        serde_json::to_string_pretty(&ws).expect("wait states serialize")
    };
    let attribution = {
        let _s = span("overlap-core.attribution.build", id);
        let art = bench::critpath::attribution_artifact(id, &scoped);
        serde_json::to_string_pretty(&art).expect("attribution artifact serializes")
    };
    let folded = {
        let _s = span("overlap-core.artifact.collapsed", id);
        bench::critpath::collapsed(&scoped)
    };
    [chrome, lines, windows, waits, attribution, folded]
}

/// An in-process `overlapd::Server` on an ephemeral loopback port.
pub struct Running {
    pub addr: String,
    handle: overlapd::server::ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    pub fn start() -> Running {
        let server = Server::bind("127.0.0.1:0", Arc::new(Service::default()))
            .expect("bind an ephemeral loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = server.handle().expect("server handle");
        let join = std::thread::spawn(move || server.run());
        Running { addr, handle, join }
    }

    /// Graceful shutdown; waits for the accept loop to end.
    pub fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("server thread does not panic")
            .expect("server run returns cleanly");
    }
}

/// One HTTP/1.1 request (the server answers `Connection: close`): status
/// and body, timed from connect to the last body byte by the caller.
pub fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let sep = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let status = std::str::from_utf8(&raw[..sep])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1)?.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok((status, raw.split_off(sep + 4)))
}

/// GET one session endpoint; anything but a 200 is a failed operation and
/// yields an empty body.
fn get_checked(addr: &str, span_name: &'static str, path: &str, pass: &mut Pass) -> Vec<u8> {
    let res = {
        let s = span(span_name, path);
        let res = http(addr, "GET", path, &[]);
        if let Ok((_, body)) = &res {
            s.count("bytes", body.len() as u64);
        }
        res
    };
    pass.check(matches!(res, Ok((200, _))), || match &res {
        Ok((status, _)) => format!("GET {path}: status {status}"),
        Err(e) => format!("GET {path}: {e}"),
    });
    match res {
        Ok((200, body)) => body,
        _ => Vec::new(),
    }
}

/// Push `text` and check the acknowledged event count. Returns seconds.
fn push_checked(
    addr: &str,
    session: &str,
    text: &str,
    events: u64,
    lines: u64,
    pass: &mut Pass,
) -> f64 {
    let t0 = Instant::now();
    let ack = {
        let s = span("overlapd.client.push", session);
        s.count("lines", lines);
        push_text(addr, session, text)
    };
    let secs = t0.elapsed().as_secs_f64();
    pass.check(matches!(ack, Ok(n) if n == events), || match &ack {
        Ok(n) => format!("push to {session}: acknowledged {n} events, sent {events}"),
        Err(e) => format!("push to {session}: {e}"),
    });
    if ack.is_ok() {
        pass.lines += lines;
        pass.push_s += secs;
    }
    secs
}

/// `serve-bulk`: a fresh server; each stream pushed whole over OVLP1, then
/// its report and both artifacts fetched. Closed loop, one client.
fn serve_bulk_pass(streams: &[Stream]) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Fnv::new();
    let mut cycles = Vec::with_capacity(streams.len());
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let srv = Running::start();
    for s in streams {
        let base = format!("/v1/sessions/{}", s.name);
        let t_op = Instant::now();
        push_checked(&srv.addr, &s.name, &s.text, s.events, s.lines, &mut pass);
        let report = get_checked(
            &srv.addr,
            "overlapd.http.report",
            &format!("{base}/report"),
            &mut pass,
        );
        cycles.push(t_op.elapsed().as_secs_f64() * 1e3);
        let attribution = get_checked(
            &srv.addr,
            "overlapd.http.attribution",
            &format!("{base}/attribution.json"),
            &mut pass,
        );
        let folded = get_checked(
            &srv.addr,
            "overlapd.http.critpath",
            &format!("{base}/critpath.folded"),
            &mut pass,
        );
        pass.check(attribution == s.batch_attribution.as_bytes(), || {
            format!(
                "{}: served attribution.json differs from the batch artifact",
                s.name
            )
        });
        pass.check(folded == s.batch_collapsed.as_bytes(), || {
            format!(
                "{}: served critpath.folded differs from the batch artifact",
                s.name
            )
        });
        for body in [&report, &attribution, &folded] {
            digest.write(body);
        }
    }
    srv.stop();
    pass.close_region(t0, a0);
    pass.latencies = vec![("push_to_report_ms", cycles)];
    pass.digest = digest.finish();
    if crate::spans::armed() {
        for s in streams {
            replay(s);
        }
    }
    pass
}

/// Traced runs only: the server-side stages of one push-to-report cycle,
/// replayed in process over the same input, so the trace shows how a cycle
/// divides between transport and each `overlap-core` stage.
fn replay(s: &Stream) {
    let _root = span("replay", &s.name);
    {
        let g = span("overlap-core.stream.parse", &s.name);
        g.count("lines", s.lines);
        for line in s.text.lines() {
            std::hint::black_box(overlap_core::stream::parse_line(line).is_ok());
        }
    }
    let mut fold = SessionFold::default();
    {
        let g = span("overlap-core.stream.push", &s.name);
        g.count("lines", s.lines);
        g.count("events", s.events);
        std::hint::black_box(fold.push_text(&s.text).is_ok());
    }
    {
        let g = span("overlap-core.stream.report", &s.name);
        let body = serde_json::to_string(&fold.report()).expect("report serializes");
        g.count("bytes", body.len() as u64);
    }
    {
        let g = span("overlap-core.stream.attribution", &s.name);
        let body = serde_json::to_string_pretty(&fold.attribution(&s.name))
            .expect("attribution artifact serializes");
        g.count("bytes", body.len() as u64);
    }
}

/// `serve-live`: one writer pushing 2 000-line chunks, one connection each
/// with the header restated (what the `--stream` tee does), beside one
/// reader that polls `/series`, `/report`, `/v1/fleet` on the same session,
/// one GET after another, until the writer has finished. Closed loop, two
/// clients.
///
/// How many reads fit beside the writer differs from run to run by a tenth,
/// and reads are four fifths of the pass's allocations, so the pass's
/// allocator counts are divided by the operations it completed.
fn serve_live_pass(streams: &[Stream], expected_report: &str) -> Pass {
    let mut pass = Pass::default();
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let srv = Running::start();
    let addr = srv.addr.as_str();
    // One token after the first acknowledged chunk: the session exists from
    // then on, so a 404 is a failure and never a race. The writer's end
    // drops the sender, which is how the reader learns to stop.
    let (acked_tx, acked_rx) = std::sync::mpsc::channel::<()>();
    let reads = [
        (
            "overlapd.http.series",
            format!("/v1/sessions/{LIVE_SESSION}/series"),
        ),
        (
            "overlapd.http.report",
            format!("/v1/sessions/{LIVE_SESSION}/report"),
        ),
        ("overlapd.http.fleet", "/v1/fleet".to_string()),
    ];
    let reads = &reads;
    let (written, push_ms, read, read_ms) = std::thread::scope(|sc| {
        let writer = sc.spawn(move || {
            let mut w = Pass::default();
            let mut ms = Vec::new();
            for c in streams.iter().flat_map(|s| &s.chunks) {
                let secs = push_checked(addr, LIVE_SESSION, &c.text, c.events, c.lines, &mut w);
                ms.push(secs * 1e3);
                if ms.len() == 1 {
                    let _ = acked_tx.send(());
                }
            }
            (w, ms)
        });
        let reader = sc.spawn(move || {
            let mut r = Pass::default();
            let mut ms = Vec::new();
            if acked_rx.recv().is_err() {
                return (r, ms);
            }
            for (name, path) in reads.iter().cycle() {
                if acked_rx.try_recv() == Err(std::sync::mpsc::TryRecvError::Disconnected) {
                    break;
                }
                let t = Instant::now();
                get_checked(addr, name, path, &mut r);
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            (r, ms)
        });
        let (w, push_ms) = writer.join().expect("writer thread does not panic");
        let (r, read_ms) = reader.join().expect("reader thread does not panic");
        (w, push_ms, r, read_ms)
    });
    let final_report = get_checked(addr, "overlapd.http.report", &reads[1].1, &mut pass);
    srv.stop();
    pass.close_region(t0, a0);
    let ops = (push_ms.len() + read_ms.len() + 1) as f64;
    pass.alloc_calls /= ops;
    pass.alloc_bytes /= ops;
    pass.check(final_report == expected_report.as_bytes(), || {
        "final /report differs from the in-process fold of the same chunks".to_string()
    });
    let mut digest = Fnv::new();
    digest.write(&final_report);
    pass.digest = digest.finish();
    pass.absorb(&written);
    pass.absorb(&read);
    pass.lines = written.lines;
    pass.push_s = written.push_s;
    pass.latencies = vec![("push_ms", push_ms), ("read_ms", read_ms)];
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance case: a stream whose header line is missing is refused
    /// by the server; the pass reports failed operations and does not panic.
    #[test]
    fn headerless_stream_fails_operations_without_panicking() {
        let mut streams = corpus::corpus(1, 1);
        let good = serve_bulk_pass(&streams);
        assert!(good.failures.is_empty(), "{:?}", good.failures);
        assert!(good.attempted >= 6);

        let s = &mut streams[0];
        s.text = s.text.split_once('\n').expect("header line").1.to_string();
        let broken = serve_bulk_pass(&streams);
        assert!(!broken.failures.is_empty());
        assert!(
            broken.failures[0].contains("push to s0"),
            "{:?}",
            broken.failures
        );
        assert!(broken.attempted >= 6);
    }

    #[test]
    fn live_pass_matches_local_fold() {
        let w = Workload::setup("serve-live", 2, true).expect("setup");
        let p = w.pass();
        assert!(p.failures.is_empty(), "{:?}", p.failures);
        assert!(p.latencies.iter().all(|(_, ms)| !ms.is_empty()));
    }
}
