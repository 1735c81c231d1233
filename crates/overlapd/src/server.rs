//! The TCP front end: framed ingest and HTTP read side on one port.
//!
//! A connection's first bytes select the protocol:
//!
//! * `OVLP1 ` — the length-framed ingest protocol (see `docs/SERVICE.md`):
//!   a greeting line `OVLP1 <session>\n`, then u32-big-endian-length-prefixed
//!   frames of JSONL text (frames may split lines; the server carries the
//!   partial line), a zero-length frame to finish, one reply line
//!   (`ok events=<n>\n` or `err <one-line reason>\n`).
//! * anything else — HTTP/1.1 (the crate's `http` module): `POST
//!   /v1/sessions/<name>` uploads (Content-Length or chunked), `GET`
//!   endpoints for live reports, windowed series, fleet view, and the
//!   on-demand artifacts.
//!
//! Whatever the transport, received bytes reach a session through `ingest`
//! and leave it through `serve_read`; the session lock is held to fold or to
//! take a snapshot, never to build and never across I/O.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use overlap_core::stream::SessionFold;

use crate::http;
use crate::service::Service;

/// Largest accepted ingest frame and longest accepted line, bytes. Bounds
/// per-connection buffering on every transport; clients split at line
/// boundaries well below this.
const MAX_FRAME: usize = 1 << 20;

/// Longest the server waits on one read from, or one write to, a peer.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The listening server. Construct with [`Server::bind`], then either call
/// [`Server::run`] on a dedicated thread or integrate
/// [`Server::handle`]-driven shutdown into your own lifecycle.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    /// Every connection thread holds a clone of the sender until it returns
    /// or unwinds, so the receiver disconnects when the last one is gone.
    conns: (mpsc::Sender<()>, mpsc::Receiver<()>),
}

/// A cheap clonable handle for stopping a running server from another
/// thread (or from the `POST /v1/shutdown` endpoint).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Request graceful shutdown: stop accepting, finish in-flight
    /// connections. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:7077`, or port 0 for ephemeral) and
    /// serve `service`.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Arc<Service>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: mpsc::channel(),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: self.shutdown.clone(),
        })
    }

    /// Accept and serve until [`ServerHandle::shutdown`] (or the shutdown
    /// endpoint) fires, then drain in-flight connections (bounded wait) and
    /// return.
    pub fn run(self) -> io::Result<()> {
        let handle = self.handle()?;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(x) => x,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let service = self.service.clone();
            let conn_handle = handle.clone();
            self.spawn(move || {
                let _ = handle_conn(stream, &service, &conn_handle);
            });
        }
        self.drain(Duration::from_secs(10));
        Ok(())
    }

    /// Run one connection on a thread of its own.
    fn spawn(&self, conn: impl FnOnce() + Send + 'static) {
        let alive = self.conns.0.clone();
        std::thread::spawn(move || {
            conn();
            drop(alive);
        });
    }

    /// Graceful drain: give in-flight connections `window` to end; whether
    /// they all did.
    fn drain(self, window: Duration) -> bool {
        let (alive, ended) = self.conns;
        drop(alive);
        ended.recv_timeout(window) == Err(mpsc::RecvTimeoutError::Disconnected)
    }
}

fn handle_conn(stream: TcpStream, service: &Service, handle: &ServerHandle) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    serve(&mut reader, &mut writer, service, handle)
}

/// One connection, whatever carries it: sniff the protocol, serve it.
fn serve<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
    handle: &ServerHandle,
) -> io::Result<()> {
    let head = reader.fill_buf()?;
    if head.starts_with(b"OVLP1 ") || (head.len() < 6 && b"OVLP1 ".starts_with(head)) {
        serve_framed(reader, writer, service)
    } else {
        serve_http(reader, writer, service, handle)
    }
}

fn lock(session: &Mutex<SessionFold>) -> MutexGuard<'_, SessionFold> {
    session.lock().unwrap_or_else(|e| e.into_inner())
}

/// The one way received bytes reach a session. `transport` (`OVLP1` frames,
/// a `Content-Length` body, a chunked body) hands the sink pieces as they
/// arrive; complete lines are folded under the session lock before the next
/// read — that synchronous apply is the backpressure — and at most one
/// partial line is carried, refused once it passes [`MAX_FRAME`]. Lines
/// before a refusal stay folded. Returns the event lines folded, or the
/// one-line reason: the refusal itself, or the transport failure under
/// `truncated`.
fn ingest(
    session: &Mutex<SessionFold>,
    truncated: &str,
    transport: impl FnOnce(&mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()>,
) -> Result<u64, String> {
    let (mut partial, mut events) = (Vec::new(), 0u64);
    let mut feed = |piece: &[u8]| -> io::Result<()> {
        let cut = piece.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if cut > 0 {
            let lines = if partial.is_empty() {
                &piece[..cut]
            } else {
                partial.extend_from_slice(&piece[..cut]);
                &partial
            };
            let text = std::str::from_utf8(lines)
                .map_err(|e| http::bad(format!("stream is not UTF-8: {e}")))?;
            let mut s = lock(session);
            let before = s.event_lines();
            let folded = s.push_text(text);
            events += s.event_lines() - before;
            folded.map_err(|e| http::bad(e.to_string()))?;
            partial.clear();
        }
        partial.extend_from_slice(&piece[cut..]);
        if partial.len() > MAX_FRAME {
            return Err(http::bad(format!(
                "line exceeds the {MAX_FRAME} byte limit"
            )));
        }
        Ok(())
    };
    // A last line without its newline is a line.
    let fed = transport(&mut feed).and_then(|()| feed(b"\n"));
    match fed {
        Ok(()) => Ok(events),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e.to_string()),
        Err(e) => Err(format!("{truncated}: {e}")),
    }
}

/// The framed ingest path. Replies exactly one line and returns.
fn serve_framed<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
) -> io::Result<()> {
    let greeting = http::read_line(reader).unwrap_or_default();
    let reply = match greeting.trim_end().strip_prefix("OVLP1 ") {
        Some(name) if !name.is_empty() => {
            let frames = |sink: &mut dyn FnMut(&[u8]) -> io::Result<()>| loop {
                let mut len = [0u8; 4];
                reader.read_exact(&mut len)?;
                match u32::from_be_bytes(len) as usize {
                    0 => return Ok(()),
                    len if len > MAX_FRAME => {
                        let limit =
                            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte limit");
                        return Err(http::bad(limit));
                    }
                    len => http::copy_n(reader, len as u64, sink)?,
                }
            };
            match ingest(&service.session(name), "stream truncated mid-frame", frames) {
                Ok(events) => format!("ok events={events}\n"),
                Err(reason) => format!("err {reason}\n"),
            }
        }
        _ => "err malformed greeting (want `OVLP1 <session>`)\n".to_string(),
    };
    writer.write_all(reply.as_bytes())?;
    writer.flush()
}

fn text<W: Write>(writer: &mut W, status: u16, line: &str) -> io::Result<()> {
    let body = format!("{line}\n");
    http::respond(writer, status, Some("text/plain"), body.as_bytes())
}

fn json<W: Write, T: serde::Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    let body = serde_json::to_string(value).expect("endpoint value serializes");
    http::respond(writer, 200, None, body.as_bytes())
}

/// The one way out of a session: snapshot the fold under the session lock
/// and nothing else, `build` the owned artifact from the snapshot, drop the
/// snapshot, and `send` serialises and writes the artifact. Lock hold time
/// is snapshot time, so neither a slow build nor a client that stops
/// reading holds up a push.
fn serve_read<W: Write, T>(
    session: &Mutex<SessionFold>,
    writer: &mut W,
    build: impl FnOnce(&SessionFold) -> Result<T, String>,
    send: impl FnOnce(&mut W, &T) -> io::Result<()>,
) -> io::Result<()> {
    let snapshot = lock(session).clone(); // the guard lives for this statement
    let built = build(&snapshot);
    drop(snapshot);
    match built {
        Ok(artifact) => send(writer, &artifact),
        Err(reason) => text(writer, 400, &reason),
    }
}

/// The HTTP path: one request, one response.
fn serve_http<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
    handle: &ServerHandle,
) -> io::Result<()> {
    let head = match http::read_head(reader) {
        Ok(Some(head)) => head,
        Ok(None) => return Ok(()),
        Err(e) => return text(writer, 400, &e.to_string()),
    };
    let segs: Vec<&str> = head.path.split('/').filter(|s| !s.is_empty()).collect();
    match (head.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => text(writer, 200, "ok"),
        ("GET", ["v1", "sessions"]) => json(writer, &service.list()),
        ("GET", ["v1", "fleet"]) => json(writer, &service.fleet()),
        ("POST", ["v1", "shutdown"]) => {
            let r = text(writer, 200, "shutting down");
            handle.shutdown();
            r
        }
        // The one route that reads a body, and it never holds it.
        ("POST", ["v1", "sessions", name]) => {
            let session = service.session(name);
            match ingest(&session, "body truncated", |sink| {
                head.read_body(reader, sink)
            }) {
                Ok(_) => {
                    let events = lock(&session).event_lines();
                    text(writer, 200, &format!("ok events={events}"))
                }
                Err(reason) => text(writer, 400, &reason),
            }
        }
        ("GET", ["v1", "sessions", name, what]) => {
            let Some(session) = service.get(name) else {
                return text(writer, 404, "no such session");
            };
            match *what {
                "report" => serve_read(&session, writer, |s| Ok(s.report()), json),
                "series" => serve_read(
                    &session,
                    writer,
                    |s| match head.query.get("window_ns").map(|v| v.parse::<u64>()) {
                        None => s.try_series(None).map_err(|e| e.to_string()),
                        Some(Ok(n)) if n > 0 => s.try_series(Some(n)).map_err(|e| e.to_string()),
                        Some(_) => Err("window_ns must be a positive integer".to_string()),
                    },
                    json,
                ),
                "waits" => serve_read(&session, writer, |s| Ok(s.wait_states()), json),
                // The artifact endpoints serve the exact batch file bytes:
                // pretty JSON for the attribution artifact, plain text for
                // the collapsed stacks.
                "attribution.json" => serve_read(
                    &session,
                    writer,
                    |s| Ok(s.attribution(name)),
                    |w, art| {
                        let body = serde_json::to_string_pretty(art).expect("artifact serializes");
                        http::respond(w, 200, None, body.as_bytes())
                    },
                ),
                "critpath.folded" => serve_read(
                    &session,
                    writer,
                    |s| Ok(s.collapsed()),
                    |w, folded| http::respond(w, 200, Some("text/plain"), folded.as_bytes()),
                ),
                _ => text(writer, 404, "unknown endpoint"),
            }
        }
        (_, ["healthz" | "v1", ..]) => text(writer, 405, "method not allowed"),
        _ => text(writer, 404, "unknown endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_core::attribution::{WaitCause, WaitInterval};
    use overlap_core::bounds::XferCase;
    use overlap_core::trace::{jsonl, BoundRecord, ExtraEvent, RankTrace, TraceBundle};
    use overlap_core::{Event, EventKind};
    use proptest::prelude::*;

    const HEADER: &str = "{\"ev\":\"header\",\"schema_version\":1}\n";

    fn handle() -> ServerHandle {
        ServerHandle {
            addr: "127.0.0.1:9".parse().unwrap(),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// One connection over in-memory transports; `cap` is the reader's
    /// buffer, so also the largest piece the feeder sees.
    fn talk(service: &Service, request: &[u8], cap: usize) -> Vec<u8> {
        let mut reply = Vec::new();
        let mut reader = BufReader::with_capacity(cap, request);
        serve(&mut reader, &mut reply, service, &handle()).expect("in-memory I/O");
        reply
    }

    /// Status and body of an HTTP reply.
    fn parsed(reply: &[u8]) -> (u16, String) {
        let text = String::from_utf8(reply.to_vec()).expect("UTF-8 reply");
        let (head, body) = text.split_once("\r\n\r\n").expect("head/body separator");
        let status = head.split(' ').nth(1).expect("status").parse().unwrap();
        (status, body.to_string())
    }

    fn get(service: &Service, path: &str) -> (u16, String) {
        let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n");
        parsed(&talk(service, request.as_bytes(), 512))
    }

    /// `text` cut at `cuts` (byte offsets, any order), empty pieces dropped:
    /// an empty frame or chunk would end the stream.
    fn pieces<'a>(text: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (text.len() + 1)).collect();
        at.extend([0, text.len()]);
        at.sort_unstable();
        at.windows(2)
            .map(|w| &text[w[0]..w[1]])
            .filter(|p| !p.is_empty())
            .collect()
    }

    fn framed(session: &str, pieces: &[&[u8]]) -> Vec<u8> {
        let mut out = format!("OVLP1 {session}\n").into_bytes();
        for p in pieces.iter().chain(&[&b""[..]]) {
            out.extend((p.len() as u32).to_be_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    fn with_length(session: &str, body: &[u8]) -> Vec<u8> {
        let head = format!(
            "POST /v1/sessions/{session} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        [head.as_bytes(), body].concat()
    }

    fn chunked(session: &str, pieces: &[&[u8]]) -> Vec<u8> {
        let mut out =
            format!("POST /v1/sessions/{session} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .into_bytes();
        for p in pieces.iter().chain(&[&b""[..]]) {
            out.extend(format!("{:x}\r\n", p.len()).into_bytes());
            out.extend_from_slice(p);
            out.extend(b"\r\n");
        }
        out
    }

    /// The three transports' requests for one stream.
    fn deliveries(text: &[u8], cuts: &[usize]) -> [Vec<u8>; 3] {
        let cut = pieces(text, cuts);
        [
            framed("s", &cut),
            with_length("s", text),
            chunked("s", &cut),
        ]
    }

    /// The acknowledgement line of either protocol's reply.
    fn ack(reply: &[u8]) -> String {
        if reply.starts_with(b"HTTP/") {
            parsed(reply).1
        } else {
            String::from_utf8(reply.to_vec()).expect("UTF-8 reply")
        }
    }

    /// A small two-rank scope with transfers, waits and a fault whose text
    /// is not ASCII, so cuts land inside UTF-8 sequences too.
    fn bundle(scope: &str, shift: u64, iters: u64) -> TraceBundle {
        let rank = |r: usize| {
            let mut tr = RankTrace {
                rank: r,
                ..RankTrace::default()
            };
            for i in 0..iters {
                let (t, id) = (shift + i * 2_000, i * 2 + r as u64);
                tr.events.extend([
                    Event::new(t, EventKind::CallEnter { name: "MPI_Isend" }),
                    Event::new(t + 5, EventKind::XferBegin { id, bytes: 2048 }),
                    Event::new(t + 10, EventKind::CallExit),
                    Event::new(t + 900, EventKind::CallEnter { name: "MPI_Wait" }),
                    Event::new(t + 1_400, EventKind::XferEnd { id, bytes: 2048 }),
                    Event::new(t + 1_410, EventKind::CallExit),
                ]);
                tr.bounds.push(BoundRecord {
                    id: Some(id),
                    bytes: 2048,
                    begin_t: Some(t + 5),
                    end_t: t + 1_400,
                    xfer_time: 300 + i,
                    min: 0,
                    max: 200,
                    case: XferCase::SplitCalls,
                    flagged: false,
                    clamped: false,
                });
                tr.waits.push(WaitInterval {
                    start: t + 900,
                    end: t + 1_400,
                    cause: WaitCause::LateSender,
                    xfer: Some(id),
                });
            }
            tr
        };
        TraceBundle {
            scope: scope.to_string(),
            ranks: vec![rank(0), rank(1)],
            extras: vec![ExtraEvent {
                t: shift + 700,
                name: "fault.dropped".to_string(),
                detail: "src 0 → dst 1 ✓".to_string(),
            }],
        }
    }

    const VIEWS: [&str; 5] = [
        "report",
        "series",
        "waits",
        "attribution.json",
        "critpath.folded",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One stream, three transports, any cuts, any buffer size: the same
        /// acknowledgement and byte-identical views.
        #[test]
        fn every_transport_folds_the_same_stream_the_same_way(
            shifts in prop::collection::vec((0u64..50_000, 1u64..6), 1..4),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
            cap in prop_oneof![Just(1usize), Just(7), Just(64), Just(8192)],
        ) {
            let bundles: Vec<TraceBundle> = shifts
                .iter()
                .enumerate()
                .map(|(i, &(shift, iters))| bundle(&format!("π/p{i}"), shift, iters))
                .collect();
            let text = jsonl(&bundles);
            let events: u64 = shifts.iter().map(|&(_, iters)| 12 * iters).sum();

            let served: Vec<Vec<String>> = deliveries(text.as_bytes(), &cuts)
                .into_iter()
                .map(|request| {
                    let service = Service::default();
                    let ack = ack(&talk(&service, &request, cap));
                    assert_eq!(ack, format!("ok events={events}\n"));
                    VIEWS
                        .iter()
                        .map(|what| {
                            let (status, body) = get(&service, &format!("/v1/sessions/s/{what}"));
                            assert_eq!(status, 200, "{what}: {body}");
                            body
                        })
                        .collect()
                })
                .collect();
            prop_assert_eq!(&served[0], &served[1]);
            prop_assert_eq!(&served[0], &served[2]);
        }
    }

    /// A carried line may reach `MAX_FRAME` bytes and not one more, on every
    /// transport; what was folded before the refusal stays.
    #[test]
    fn the_line_limit_is_the_same_on_every_transport() {
        for (len, fits) in [(MAX_FRAME, true), (MAX_FRAME + 1, false)] {
            let unfinished = format!(
                "{}{}",
                HEADER.trim_end(),
                " ".repeat(len - HEADER.len() + 1)
            );
            let stream = format!("{HEADER}{unfinished}");
            let cuts = [MAX_FRAME / 2, MAX_FRAME];
            let sent = deliveries(stream.as_bytes(), &cuts);
            for (i, request) in sent.into_iter().enumerate() {
                let service = Service::default();
                let ack = ack(&talk(&service, &request, 8192));
                let lines = lock(&service.get("s").expect("session")).lines();
                if fits {
                    assert_eq!((ack.as_str(), lines), ("ok events=0\n", 2), "transport {i}");
                } else {
                    let want = format!("line exceeds the {MAX_FRAME} byte limit\n");
                    assert!(
                        ack.ends_with(&want) && ack.matches('\n').count() == 1,
                        "{i}: {ack}"
                    );
                    assert_eq!(lines, 1, "transport {i}");
                }
            }
        }
    }

    /// A length the peer never honours costs what it sent, not what it
    /// promised: the three lines fold as they arrive, then the truncation is
    /// named.
    #[test]
    fn a_quarter_gigabyte_promise_with_three_lines_behind_it() {
        let service = Service::default();
        let body = HEADER.repeat(3);
        let request =
            format!("POST /v1/sessions/s HTTP/1.1\r\nContent-Length: 268435456\r\n\r\n{body}");
        let (status, reply) = parsed(&talk(&service, request.as_bytes(), 64));
        let short = 268_435_456 - body.len();
        assert_eq!(status, 400);
        assert_eq!(
            reply,
            format!("body truncated: peer closed with {short} bytes still to come\n")
        );
        assert_eq!(lock(&service.get("s").expect("session")).lines(), 3);
    }

    #[test]
    fn a_greeting_that_never_ends_is_malformed() {
        let request = [&b"OVLP1 "[..], &vec![b'a'; 1 << 20]].concat();
        let reply = talk(&Service::default(), &request, 8192);
        assert_eq!(reply, b"err malformed greeting (want `OVLP1 <session>`)\n");
    }

    /// A writer that reports when the response reaches it, then blocks until
    /// told to go on: a client that has stopped reading.
    struct Parked {
        entered: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl Write for Parked {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.entered.send(()).is_ok() {
                self.release.recv().expect("the test releases the writer");
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_reader_does_not_hold_the_session_lock() {
        let service = Service::default();
        let text = jsonl(&[bundle("a/p0", 0, 3)]);
        talk(&service, &framed("s", &[text.as_bytes()]), 8192);

        let (entered, has_entered) = mpsc::channel();
        let (go_on, release) = mpsc::channel();
        std::thread::scope(|sc| {
            let reader = sc.spawn(|| {
                let request = b"GET /v1/sessions/s/report HTTP/1.1\r\n\r\n";
                let mut writer = Parked { entered, release };
                serve(&mut &request[..], &mut writer, &service, &handle())
            });
            has_entered.recv().expect("the response reaches the writer");
            // Mid-write, the session is free: to look at, and to push to.
            assert!(service.get("s").expect("session").try_lock().is_ok());
            let more = jsonl(&[bundle("a/p1", 9_000, 2)]);
            let ack = talk(&service, &framed("s", &[more.as_bytes()]), 8192);
            assert_eq!(ack, b"ok events=24\n");
            drop(has_entered);
            go_on.send(()).expect("the writer is parked");
            reader
                .join()
                .expect("reader thread")
                .expect("response written");
        });
    }

    #[test]
    fn a_build_in_progress_does_not_block_a_push() {
        let service = Service::default();
        let text = jsonl(&[bundle("a/p0", 0, 3)]);
        talk(&service, &framed("s", &[text.as_bytes()]), 8192);
        let session = service.get("s").expect("session");
        let before = serde_json::to_string(&lock(&session).report()).unwrap();

        let (entered, has_entered) = mpsc::channel();
        let (go_on, release) = mpsc::channel::<()>();
        let (acked, has_acked) = mpsc::channel();
        let more = jsonl(&[bundle("a/p1", 9_000, 2)]);
        let (service, session, more) = (&service, &session, &more);
        let (ack, served) = std::thread::scope(|sc| {
            let reader = sc.spawn(move || {
                let mut reply = Vec::new();
                let build = |s: &SessionFold| {
                    entered.send(()).expect("the test waits for the build");
                    release.recv().expect("the test releases the build");
                    Ok(s.report())
                };
                serve_read(session, &mut reply, build, json).expect("in-memory I/O");
                reply
            });
            has_entered.recv().expect("the build starts");
            sc.spawn(move || {
                let reply = talk(service, &framed("s", &[more.as_bytes()]), 8192);
                acked.send(reply).expect("the test waits for the ack");
            });
            // Released whatever happened, so a push stuck behind the build
            // fails the test instead of hanging it.
            let ack = has_acked.recv_timeout(Duration::from_secs(10));
            go_on.send(()).expect("the build is parked");
            (ack, reader.join().expect("reader thread"))
        });
        assert_eq!(
            ack.expect("the push is acknowledged mid-build"),
            b"ok events=24\n"
        );
        assert_eq!(parsed(&served), (200, before));
    }

    /// A writer whose first write panics.
    struct Exploding;

    impl Write for Exploding {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            panic!("the transport blew up");
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Two bound records of 2^63 ns each: the sums saturate, and both the
    /// session's report and the fleet view still serve.
    #[test]
    fn bounds_at_the_top_of_u64_still_serve() {
        let service = Service::default();
        let bound = |id| {
            let half = 1u64 << 63;
            format!(
                r#"{{"scope":"s","rank":0,"t":{half},"ev":"xfer_bounds","id":{id},"bytes":1,"begin_t":0,"xfer_time":{half},"min":0,"max":0,"case":"split_calls","flagged":false,"clamped":false}}"#
            )
        };
        let body = format!("{HEADER}{}\n{}\n", bound(1), bound(2));
        let (status, reply) = parsed(&talk(&service, &with_length("s", body.as_bytes()), 512));
        assert_eq!((status, reply.as_str()), (200, "ok events=0\n"));
        for path in ["/v1/sessions/s/report", "/v1/fleet"] {
            let (status, reply) = get(&service, path);
            assert_eq!(status, 200, "{path}: {reply}");
            assert!(reply.contains(&u64::MAX.to_string()), "{path}: {reply}");
        }
    }

    #[test]
    fn a_panicking_handler_is_counted_out() {
        let service = Arc::new(Service::default());
        let server = Server::bind("127.0.0.1:0", service.clone()).expect("bind loopback");
        let handle = server.handle().unwrap();
        server.spawn(move || {
            let request = b"GET /healthz HTTP/1.1\r\n\r\n";
            let _ = serve(&mut &request[..], &mut Exploding, &service, &handle);
        });
        assert!(server.drain(Duration::from_secs(5)), "a connection leaked");
    }
}
