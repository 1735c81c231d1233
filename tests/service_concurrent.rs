//! Multi-client service semantics over real loopback sockets, driven by a
//! real captured figure stream:
//!
//! * two sessions pushed **concurrently** from interleaved client threads
//!   (each session arrives as many small framed pushes racing the other
//!   session's) produce per-session reports byte-identical to pushing the
//!   same streams serially — and to a local in-process fold;
//! * the fleet view equals the merged view of the same streams folded
//!   locally through [`overlapd::Service`];
//! * the `repro push` CLI exits 0 on success and 2 when the server refuses
//!   the stream (missing/mismatched `schema_version`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use overlap_core::stream::SessionFold;
use overlap_core::trace::jsonl;
use overlapd::{push_text, Server, Service};

/// Serialize tests: `tracecap` is process-global.
fn global_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start_server() -> (
    String,
    overlapd::server::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let service = Arc::new(Service::default());
    let server = Server::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// Tiny HTTP client: one request, returns (status, body bytes).
fn http(addr: &str, method: &str, path: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    s.write_all(head.as_bytes()).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let sep = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    (status, raw[sep + 4..].to_vec())
}

/// The fig03 event stream, exactly as `repro fig03 --trace` exports it.
fn fig03_stream() -> String {
    bench::tracecap::enable();
    let _ = bench::tracecap::drain();
    let h = bench::figures::all()
        .into_iter()
        .find(|h| h.id == "fig03")
        .expect("fig03 registered");
    let _series = (h.run)();
    let bundles: Vec<_> = bench::tracecap::drain().into_values().collect();
    assert!(!bundles.is_empty(), "fig03 should register traced scopes");
    jsonl(&bundles)
}

/// Split a JSONL text into chunks of complete lines so a session arrives
/// as many separate framed pushes (the header rides only in the first).
fn line_chunks(text: &str, lines_per_chunk: usize) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .chunks(lines_per_chunk)
        .map(|c| {
            let mut s = c.join("\n");
            s.push('\n');
            s
        })
        .collect()
}

/// Deterministic synthetic event stream: `ranks` ranks each completing
/// `transfers` isend/wait transfer pairs, with one bound and one wait line
/// per transfer — the exact JSONL shape the batch exporter writes.
fn ingest_stream(ranks: usize, transfers: usize) -> String {
    use overlap_core::attribution::{WaitCause, WaitInterval};
    use overlap_core::bounds::XferCase;
    use overlap_core::trace::{BoundRecord, RankTrace, TraceBundle};
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

#[test]
fn interleaved_concurrent_pushes_match_serial_and_local_folds() {
    let _g = global_lock();
    let fig = fig03_stream();
    let probe = ingest_stream(4, 300);

    // Concurrent: each session arrives as many small pushes, the two client
    // threads racing each other connection-by-connection.
    let (addr, handle, join) = start_server();
    let push_chunked = |addr: String, session: &'static str, text: String| {
        std::thread::spawn(move || {
            for chunk in line_chunks(&text, 500) {
                push_text(&addr, session, &chunk).expect("chunk push");
            }
        })
    };
    let ta = push_chunked(addr.clone(), "fig03", fig.clone());
    let tb = push_chunked(addr.clone(), "probe", probe.clone());
    ta.join().unwrap();
    tb.join().unwrap();

    // Serial: same streams, one push each, a fresh server.
    let (serial_addr, serial_handle, serial_join) = start_server();
    push_text(&serial_addr, "fig03", &fig).expect("serial fig03 push");
    push_text(&serial_addr, "probe", &probe).expect("serial probe push");

    // Local reference folds.
    let mut ref_fig = SessionFold::default();
    ref_fig.push_text(&fig).unwrap();
    let mut ref_probe = SessionFold::default();
    ref_probe.push_text(&probe).unwrap();

    for (session, reference) in [("fig03", &mut ref_fig), ("probe", &mut ref_probe)] {
        let path = format!("/v1/sessions/{session}/report");
        let (st, concurrent) = http(&addr, "GET", &path);
        assert_eq!(st, 200);
        let (st, serial) = http(&serial_addr, "GET", &path);
        assert_eq!(st, 200);
        let local = serde_json::to_string(&reference.report())
            .unwrap()
            .into_bytes();
        assert_eq!(
            concurrent, serial,
            "{session}: concurrent interleaved pushes diverge from serial pushes"
        );
        assert_eq!(
            concurrent, local,
            "{session}: server report diverges from the local fold"
        );
        // The artifacts agree too, not just the summaries.
        let (_, c_attr) = http(
            &addr,
            "GET",
            &format!("/v1/sessions/{session}/attribution.json"),
        );
        let l_attr = serde_json::to_string_pretty(&reference.attribution(session))
            .unwrap()
            .into_bytes();
        assert_eq!(c_attr, l_attr, "{session}: attribution artifact diverges");
    }

    // Fleet view equals the merged local folds of the same streams.
    let expected = Service::default();
    expected
        .session("fig03")
        .lock()
        .unwrap()
        .push_text(&fig)
        .unwrap();
    expected
        .session("probe")
        .lock()
        .unwrap()
        .push_text(&probe)
        .unwrap();
    let (st, fleet) = http(&addr, "GET", "/v1/fleet");
    assert_eq!(st, 200);
    assert_eq!(
        fleet,
        serde_json::to_string(&expected.fleet())
            .unwrap()
            .into_bytes(),
        "fleet view diverges from the merged local folds"
    );

    handle.shutdown();
    join.join().unwrap();
    serial_handle.shutdown();
    serial_join.join().unwrap();
}

#[test]
fn repro_push_cli_exit_codes() {
    let _g = global_lock();
    let (addr, handle, join) = start_server();
    let dir = std::env::temp_dir().join(format!("overlapd-push-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A refused stream (no schema header) exits 2.
    let bad = dir.join("bad.events.jsonl");
    std::fs::write(
        &bad,
        "{\"scope\":\"x\",\"rank\":0,\"t\":0,\"ev\":\"call_exit\"}\n",
    )
    .unwrap();
    let code =
        bench::serve::push_main(&[bad.display().to_string(), "--to".to_string(), addr.clone()]);
    assert_eq!(code, 2, "refused stream must exit 2");

    // A mismatched schema_version exits 2 as well.
    let old = dir.join("old.events.jsonl");
    std::fs::write(&old, "{\"ev\":\"header\",\"schema_version\":999}\n").unwrap();
    let code =
        bench::serve::push_main(&[old.display().to_string(), "--to".to_string(), addr.clone()]);
    assert_eq!(code, 2, "schema mismatch must exit 2");

    // A well-formed stream exits 0 and lands in a session named after the
    // file (the trailing `.events` is stripped).
    let good = dir.join("probe.events.jsonl");
    std::fs::write(&good, ingest_stream(2, 20)).unwrap();
    let code =
        bench::serve::push_main(&[good.display().to_string(), "--to".to_string(), addr.clone()]);
    assert_eq!(code, 0, "well-formed stream must exit 0");
    let (st, body) = http(&addr, "GET", "/v1/sessions/probe/report");
    assert_eq!(st, 200);
    assert!(
        body.len() > 2,
        "pushed session should serve a non-empty report"
    );

    std::fs::remove_dir_all(&dir).ok();
    handle.shutdown();
    join.join().unwrap();
}
