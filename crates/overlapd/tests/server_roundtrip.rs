//! End-to-end service tests over real loopback sockets: framed pushes,
//! HTTP uploads, live endpoints, artifact byte-equivalence, refusal paths,
//! and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use overlap_core::attribution::{WaitCause, WaitInterval};
use overlap_core::bounds::XferCase;
use overlap_core::stream::SessionFold;
use overlap_core::trace::{jsonl, BoundRecord, ExtraEvent, RankTrace, TraceBundle};
use overlap_core::{Event, EventKind};
use overlapd::{push_text, PushError, Server, Service};

/// The trace-export schema version a header line must carry.
const SCHEMA_VERSION: u32 = 1;

fn ev(t: u64, kind: EventKind) -> Event {
    Event::new(t, kind)
}

/// A deterministic little two-rank trace with transfers, waits and a fault.
fn bundle(scope: &str, shift: u64) -> TraceBundle {
    let rank = |r: usize| RankTrace {
        rank: r,
        events: vec![
            ev(shift, EventKind::CallEnter { name: "MPI_Isend" }),
            ev(
                shift + 5,
                EventKind::XferBegin {
                    id: r as u64 + 1,
                    bytes: 2048,
                },
            ),
            ev(shift + 10, EventKind::CallExit),
            ev(shift + 900, EventKind::CallEnter { name: "MPI_Wait" }),
            ev(
                shift + 1_400,
                EventKind::XferEnd {
                    id: r as u64 + 1,
                    bytes: 2048,
                },
            ),
            ev(shift + 1_410, EventKind::CallExit),
        ],
        bounds: vec![BoundRecord {
            id: Some(r as u64 + 1),
            bytes: 2048,
            begin_t: Some(shift + 5),
            end_t: shift + 1_400,
            xfer_time: 300,
            min: 0,
            max: 300,
            case: XferCase::SplitCalls,
            flagged: false,
            clamped: false,
        }],
        waits: vec![WaitInterval {
            start: shift + 900,
            end: shift + 1_400,
            cause: WaitCause::LateSender,
            xfer: Some(r as u64 + 1),
        }],
    };
    TraceBundle {
        scope: scope.to_string(),
        ranks: vec![rank(0), rank(1)],
        extras: vec![ExtraEvent {
            t: shift + 700,
            name: "fault.dropped".to_string(),
            detail: "synthetic".to_string(),
        }],
    }
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

/// One raw request, returns (status, body bytes).
fn raw(addr: &str, request: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(request).unwrap();
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

/// Tiny HTTP client: one request with a `Content-Length` body.
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    raw(addr, &[head.as_bytes(), body].concat())
}

#[test]
fn concurrent_pushes_then_live_endpoints_match_local_fold() {
    let (addr, handle, join) = start_server();

    let alpha = jsonl(&[bundle("alpha/p0", 0), bundle("alpha/p1", 10_000)]);
    let beta = jsonl(&[bundle("beta/p0", 5_000)]);

    // Two sessions pushed concurrently from separate client threads.
    let (a2, b2) = (alpha.clone(), beta.clone());
    let (aa, ab) = (addr.clone(), addr.clone());
    let ta = std::thread::spawn(move || push_text(&aa, "alpha", &a2).expect("alpha push"));
    let tb = std::thread::spawn(move || push_text(&ab, "beta", &b2).expect("beta push"));
    let pushed_a = ta.join().unwrap();
    let pushed_b = tb.join().unwrap();
    assert_eq!(pushed_a, 24); // 2 scopes x 2 ranks x 6 events
    assert_eq!(pushed_b, 12);

    // Local reference folds of the same streams.
    let mut ref_a = SessionFold::default();
    ref_a.push_text(&alpha).unwrap();
    let mut ref_b = SessionFold::default();
    ref_b.push_text(&beta).unwrap();

    let (st, body) = http(&addr, "GET", "/healthz", b"");
    assert_eq!((st, body.as_slice()), (200, &b"ok\n"[..]));

    let (st, body) = http(&addr, "GET", "/v1/sessions/alpha/report", b"");
    assert_eq!(st, 200);
    assert_eq!(
        body,
        serde_json::to_string(&ref_a.report()).unwrap().into_bytes()
    );

    let (st, body) = http(&addr, "GET", "/v1/sessions/alpha/series?window_ns=500", b"");
    assert_eq!(st, 200);
    assert_eq!(
        body,
        serde_json::to_string(&ref_a.series(Some(500)))
            .unwrap()
            .into_bytes()
    );

    // Artifact endpoints serve the exact batch file bytes.
    let (st, body) = http(&addr, "GET", "/v1/sessions/beta/attribution.json", b"");
    assert_eq!(st, 200);
    assert_eq!(
        body,
        serde_json::to_string_pretty(&ref_b.attribution("beta"))
            .unwrap()
            .into_bytes()
    );
    let (st, body) = http(&addr, "GET", "/v1/sessions/beta/critpath.folded", b"");
    assert_eq!(st, 200);
    assert_eq!(body, ref_b.collapsed().into_bytes());

    // Fleet = both sessions merged.
    let (st, body) = http(&addr, "GET", "/v1/fleet", b"");
    assert_eq!(st, 200);
    let fleet: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("fleet json");
    assert_eq!(fleet.field("scopes").as_u64(), Some(3));
    assert_eq!(fleet.field("ranks").as_u64(), Some(6));
    assert_eq!(fleet.field("events").as_u64(), Some(36));
    let mut total = overlap_core::OverlapStats::default();
    for f in [&mut ref_a, &mut ref_b] {
        for scope in f.report() {
            for r in &scope.ranks {
                total.merge(&r.total);
            }
        }
    }
    assert_eq!(fleet.field("total"), &serde_json::to_value(&total));

    let (st, _) = http(&addr, "GET", "/v1/sessions/nope/report", b"");
    assert_eq!(st, 404);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn http_upload_equals_framed_push() {
    let (addr, handle, join) = start_server();
    let text = jsonl(&[bundle("up/p0", 0)]);

    push_text(&addr, "framed", &text).expect("framed push");
    let (st, body) = http(&addr, "POST", "/v1/sessions/posted", text.as_bytes());
    assert_eq!(st, 200);
    assert!(String::from_utf8_lossy(&body).starts_with("ok events=12"));
    // Chunked, as `curl -T` sends it: chunks that split lines anywhere.
    let mut request =
        b"POST /v1/sessions/chunked HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for chunk in text.as_bytes().chunks(333).chain([&b""[..]]) {
        request.extend(format!("{:x}\r\n", chunk.len()).into_bytes());
        request.extend_from_slice(chunk);
        request.extend(b"\r\n");
    }
    let (st, body) = raw(&addr, &request);
    assert_eq!((st, body.as_slice()), (200, &b"ok events=12\n"[..]));

    let (_, framed) = http(&addr, "GET", "/v1/sessions/framed/report", b"");
    let (_, posted) = http(&addr, "GET", "/v1/sessions/posted/report", b"");
    let (_, chunked) = http(&addr, "GET", "/v1/sessions/chunked/report", b"");
    // Same stream, any transport: identical scope contents.
    assert_eq!(framed, posted);
    assert_eq!(framed, chunked);

    handle.shutdown();
    join.join().unwrap();
}

/// The second chunk-size line used to overflow `body.len() + size` and take
/// the connection thread down, uncounted, so shutdown then waited out its
/// whole drain window.
#[test]
fn a_chunk_size_no_body_can_have_is_a_one_line_400() {
    let (addr, handle, join) = start_server();
    let (st, body) = raw(
        &addr,
        b"POST /v1/sessions/s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\nffffffffffffffff\r\n",
    );
    assert_eq!((st, body.as_slice()), (400, &b"bad chunk size line\n"[..]));
    let (st, body) = http(&addr, "GET", "/healthz", b"");
    assert_eq!((st, body.as_slice()), (200, &b"ok\n"[..]));
    let asked = std::time::Instant::now();
    handle.shutdown();
    join.join().unwrap();
    assert!(
        asked.elapsed() < std::time::Duration::from_secs(5),
        "a connection leaked"
    );
}

#[test]
fn refusals_are_one_line_and_leave_no_session_state() {
    let (addr, handle, join) = start_server();

    // Missing header.
    let err = push_text(
        &addr,
        "s1",
        r#"{"scope":"x","rank":0,"t":0,"ev":"call_exit"}"#,
    )
    .unwrap_err();
    match err {
        PushError::Refused(msg) => {
            assert!(msg.contains("missing schema header"), "got: {msg}");
            assert!(!msg.contains('\n'));
        }
        other => panic!("expected refusal, got {other}"),
    }

    // Version mismatch.
    let err = push_text(&addr, "s2", "{\"ev\":\"header\",\"schema_version\":999}\n").unwrap_err();
    match err {
        PushError::Refused(msg) => assert!(msg.contains("schema_version mismatch"), "got: {msg}"),
        other => panic!("expected refusal, got {other}"),
    }

    // A name no instrumented library would send: refused before it can
    // grow the reader's name pool.
    let hostile = format!(
        "{{\"ev\":\"header\",\"schema_version\":{}}}\n\
         {{\"ev\":\"call_enter\",\"scope\":\"x\",\"rank\":0,\"t\":0,\"name\":\"{}\"}}\n",
        SCHEMA_VERSION,
        "n".repeat(257)
    );
    match push_text(&addr, "s3", &hostile).unwrap_err() {
        PushError::Refused(msg) => {
            assert!(msg.contains("`name` longer than 256 bytes"), "got: {msg}");
            assert!(!msg.contains('\n'));
        }
        other => panic!("expected refusal, got {other}"),
    }

    // Nesting no schema line has, deep enough to overflow the stack of a
    // recursive parser: one refused line, and the process is still there.
    let deep = format!(
        "{{\"ev\":\"header\",\"schema_version\":{}}}\n{}\n",
        SCHEMA_VERSION,
        "[".repeat(200_000)
    );
    match push_text(&addr, "s4", &deep).unwrap_err() {
        PushError::Refused(msg) => {
            assert!(
                msg.starts_with("bad stream line: not JSON (nesting deeper than 32"),
                "got: {msg}"
            );
            assert!(!msg.contains('\n') && msg.len() < 300, "got: {msg}");
        }
        other => panic!("expected refusal, got {other}"),
    }
    let (st, body) = http(&addr, "GET", "/healthz", b"");
    assert_eq!((st, body.as_slice()), (200, &b"ok\n"[..]));

    // A refused stream folds nothing: the session reports no events.
    let (st, body) = http(&addr, "GET", "/v1/sessions", b"");
    assert_eq!(st, 200);
    let sessions: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    for s in sessions.as_array().unwrap() {
        assert_eq!(s.field("events").as_u64(), Some(0));
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Several frames' worth of stream with one line longer than a frame in it,
/// ending in a newline, in a partial line, and with `\r\n` line ends.
fn framing_texts() -> Vec<String> {
    let bundles: Vec<TraceBundle> = (0..120)
        .map(|i| bundle(&format!("fr/p{i}"), i * 10_000))
        .collect();
    let text = jsonl(&bundles);
    let at = text[..30_000].rfind('\n').unwrap() + 1;
    let long = format!(
        "{{\"scope\":\"fr/p0\",\"t\":1,\"ev\":\"fault\",\"name\":\"x\",\"detail\":\"{}\"}}\n",
        "d".repeat(70_000)
    );
    let text = format!("{}{long}{}", &text[..at], &text[at..]);
    assert!(text.len() > 4 * (60 << 10));
    vec![
        text.trim_end().to_string(),
        text.replace('\n', "\r\n"),
        text,
    ]
}

#[test]
fn client_frames_are_slices_of_the_text_cut_at_newlines() {
    for text in framing_texts() {
        // A sink that keeps the frames instead of folding them.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let sink = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut greeting = [0u8; 9];
            conn.read_exact(&mut greeting).unwrap();
            assert_eq!(&greeting, b"OVLP1 fr\n");
            let mut frames: Vec<Vec<u8>> = Vec::new();
            loop {
                let mut len = [0u8; 4];
                conn.read_exact(&mut len).unwrap();
                let mut frame = vec![0u8; u32::from_be_bytes(len) as usize];
                conn.read_exact(&mut frame).unwrap();
                if frame.is_empty() {
                    break;
                }
                frames.push(frame);
            }
            conn.write_all(b"ok events=0\n").unwrap();
            frames
        });
        assert_eq!(push_text(&addr, "fr", &text).unwrap(), 0);
        let frames = sink.join().unwrap();
        assert!(frames.len() >= 5, "{} frames", frames.len());
        assert_eq!(frames.concat(), text.as_bytes());
        let (last, full) = frames.split_last().unwrap();
        for frame in full {
            assert_eq!(frame.last(), Some(&b'\n'), "a frame split a line");
        }
        for frame in &frames {
            let one_line = !frame[..frame.len() - 1].contains(&b'\n');
            assert!(frame.len() <= 60 << 10 || one_line, "{} bytes", frame.len());
        }
        assert_eq!(last.last() == Some(&b'\n'), text.ends_with('\n'));
    }
}

#[test]
fn multi_frame_pushes_fold_like_the_local_text() {
    let (addr, handle, join) = start_server();
    for (i, text) in framing_texts().iter().enumerate() {
        let session = format!("fr{i}");
        let mut local = SessionFold::default();
        local.push_text(text).unwrap();
        assert_eq!(
            push_text(&addr, &session, text).unwrap(),
            local.event_lines()
        );
        let (st, body) = http(&addr, "GET", &format!("/v1/sessions/{session}/report"), b"");
        assert_eq!(st, 200);
        assert_eq!(
            body,
            serde_json::to_string(&local.report()).unwrap().into_bytes()
        );
    }
    handle.shutdown();
    join.join().unwrap();
}

/// `window_ns` and every `t` come from outside: a width that would need
/// more rows than `trace::MAX_WINDOWS` is a one-line 400, not an allocation
/// made under the session lock, and a stamp at the top of `u64` overflows
/// nothing.
#[test]
fn series_refuses_hostile_window_counts_with_a_one_line_400() {
    let (addr, handle, join) = start_server();
    let refused = |path: &str| {
        let (st, body) = http(&addr, "GET", path, b"");
        let body = String::from_utf8(body).unwrap();
        assert_eq!(st, 400, "{path}: {body}");
        assert!(body.contains("windows"), "{path}: {body}");
        assert_eq!(body.matches('\n').count(), 1, "{path}: {body}");
        assert!(body.ends_with('\n'), "{path}: {body}");
    };
    let rows = |path: &str| {
        let (st, body) = http(&addr, "GET", path, b"");
        assert_eq!(st, 200, "{path}");
        String::from_utf8(body)
            .unwrap()
            .matches("\"start\":")
            .count()
    };

    // A five-second scope: 1 ns windows would be five billion rows.
    let mut long = bundle("long/p0", 0);
    long.extras[0].t = 5_000_000_000;
    push_text(&addr, "long", &jsonl(&[long])).expect("long push");
    refused("/v1/sessions/long/series?window_ns=1");
    assert_eq!(rows("/v1/sessions/long/series?window_ns=100000"), 50_001);

    // One stamp at u64::MAX: `span / width + 1` does not fit a u64.
    let edge = concat!(
        "{\"ev\":\"header\",\"schema_version\":1}\n",
        "{\"scope\":\"e/x\",\"rank\":0,\"t\":0,\"ev\":\"call_enter\",\"name\":\"MPI_Wait\"}\n",
        "{\"scope\":\"e/x\",\"rank\":0,\"t\":18446744073709551615,\"ev\":\"call_exit\"}\n",
    );
    push_text(&addr, "edge", edge).expect("edge push");
    refused("/v1/sessions/edge/series?window_ns=1");
    assert_eq!(rows("/v1/sessions/edge/series"), 17);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (addr, _handle, join) = start_server();
    let (st, body) = http(&addr, "POST", "/v1/shutdown", b"");
    assert_eq!(st, 200);
    assert_eq!(body, b"shutting down\n");
    join.join().unwrap();
    // Connections after shutdown fail (accept loop gone).
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        TcpStream::connect(&addr).is_err() || {
            // The OS may briefly accept into the backlog; a request must fail.
            let mut s = TcpStream::connect(&addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap_or(0) == 0
        }
    );
}
