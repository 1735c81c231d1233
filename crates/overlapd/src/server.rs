//! The TCP front end: framed ingest and HTTP read side on one port.
//!
//! A connection's first bytes select the protocol:
//!
//! * `OVLP1 ` — the length-framed ingest protocol (see `docs/SERVICE.md`):
//!   a greeting line `OVLP1 <session>\n`, then u32-big-endian-length-prefixed
//!   frames of JSONL text (frames may split lines; the server carries the
//!   partial line), a zero-length frame to finish, one reply line
//!   (`ok events=<n>\n` or `err <one-line reason>\n`).
//! * anything else — HTTP/1.1 ([`crate::http`]): `POST
//!   /v1/sessions/<name>` uploads (Content-Length or chunked), `GET`
//!   endpoints for live reports, windowed series, fleet view, and the
//!   on-demand artifacts.
//!
//! Frames and uploads are folded under the session lock before the next
//! read, so TCP flow control is the ingest backpressure — the server never
//! queues unbounded data behind a slow fold.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use overlap_core::stream::StreamError;

use crate::http;
use crate::service::Service;

/// Largest accepted ingest frame, bytes. Bounds per-connection buffering;
/// clients split at line boundaries well below this.
pub const MAX_FRAME: usize = 1 << 20;

/// The listening server. Construct with [`Server::bind`], then either call
/// [`Server::run`] on a dedicated thread or integrate
/// [`Server::handle`]-driven shutdown into your own lifecycle.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    active: Arc<(Mutex<usize>, Condvar)>,
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
            active: Arc::new((Mutex::new(0), Condvar::new())),
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
            let active = self.active.clone();
            {
                let (lock, _) = &*active;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            }
            std::thread::spawn(move || {
                let _ = handle_conn(stream, &service, &conn_handle);
                let (lock, cv) = &*active;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
                cv.notify_all();
            });
        }
        // Graceful drain: give in-flight connections a bounded window.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (lock, cv) = &*self.active;
        let mut g = lock.lock().unwrap_or_else(|e| e.into_inner());
        while *g > 0 && Instant::now() < deadline {
            let (ng, _) = cv
                .wait_timeout(g, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
        }
        Ok(())
    }
}

fn handle_conn(stream: TcpStream, service: &Service, handle: &ServerHandle) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let head = reader.fill_buf()?;
    if head.starts_with(b"OVLP1 ") || (head.len() < 6 && b"OVLP1 ".starts_with(head)) {
        serve_framed(&mut reader, &mut writer, service)
    } else {
        serve_http(&mut reader, &mut writer, service, handle)
    }
}

/// The framed ingest path. Replies exactly one line and returns.
fn serve_framed<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
) -> io::Result<()> {
    let mut greeting = String::new();
    reader.read_line(&mut greeting)?;
    let session_name = match greeting.trim_end().strip_prefix("OVLP1 ") {
        Some(name) if !name.is_empty() => name.to_string(),
        _ => {
            writer.write_all(b"err malformed greeting (want `OVLP1 <session>`)\n")?;
            return writer.flush();
        }
    };
    let session = service.session(&session_name);
    let before = session
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .event_lines();
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let mut len_buf = [0u8; 4];
        if let Err(e) = reader.read_exact(&mut len_buf) {
            writer.write_all(format!("err stream truncated mid-frame: {e}\n").as_bytes())?;
            return writer.flush();
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len == 0 {
            break;
        }
        if len > MAX_FRAME {
            writer.write_all(
                format!("err frame of {len} bytes exceeds the {MAX_FRAME} byte limit\n").as_bytes(),
            )?;
            return writer.flush();
        }
        let start = carry.len();
        carry.resize(start + len, 0);
        if let Err(e) = reader.read_exact(&mut carry[start..]) {
            writer.write_all(format!("err stream truncated mid-frame: {e}\n").as_bytes())?;
            return writer.flush();
        }
        // Fold every complete line; keep the partial tail for the next
        // frame. The fold runs under the session lock *before* the next
        // read — that synchronous apply is the backpressure.
        let cut = match carry.iter().rposition(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => continue,
        };
        if let Err(e) = push_bytes(&session, &carry[..cut]) {
            writer.write_all(format!("err {e}\n").as_bytes())?;
            return writer.flush();
        }
        carry.drain(..cut);
    }
    if !carry.is_empty() {
        if let Err(e) = push_bytes(&session, &carry) {
            writer.write_all(format!("err {e}\n").as_bytes())?;
            return writer.flush();
        }
    }
    let after = session
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .event_lines();
    writer.write_all(format!("ok events={}\n", after - before).as_bytes())?;
    writer.flush()
}

/// Fold a block of complete lines into the session. Returns the one-line
/// reason on refusal.
fn push_bytes(
    session: &Mutex<overlap_core::stream::SessionFold>,
    bytes: &[u8],
) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("stream is not UTF-8: {e}"))?;
    let mut s = session.lock().unwrap_or_else(|e| e.into_inner());
    s.push_text(text).map_err(|e: StreamError| e.to_string())
}

/// The HTTP path: one request, one response.
fn serve_http<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &Service,
    handle: &ServerHandle,
) -> io::Result<()> {
    let req = match http::read_request(reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(e) => {
            return http::respond(writer, 400, Some("text/plain"), format!("{e}\n").as_bytes())
        }
    };
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => http::respond(writer, 200, Some("text/plain"), b"ok\n"),
        ("GET", ["v1", "sessions"]) => json(writer, &service.list()),
        ("GET", ["v1", "fleet"]) => json(writer, &service.fleet()),
        ("POST", ["v1", "shutdown"]) => {
            let r = http::respond(writer, 200, Some("text/plain"), b"shutting down\n");
            handle.shutdown();
            r
        }
        ("POST", ["v1", "sessions", name]) => {
            let session = service.session(name);
            match push_bytes(&session, &req.body) {
                Ok(()) => {
                    let events = session
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .event_lines();
                    http::respond(
                        writer,
                        200,
                        Some("text/plain"),
                        format!("ok events={events}\n").as_bytes(),
                    )
                }
                Err(e) => {
                    http::respond(writer, 400, Some("text/plain"), format!("{e}\n").as_bytes())
                }
            }
        }
        ("GET", ["v1", "sessions", name, what]) => {
            let Some(session) = service.get(name) else {
                return http::respond(writer, 404, Some("text/plain"), b"no such session\n");
            };
            let s = session.lock().unwrap_or_else(|e| e.into_inner());
            match *what {
                "report" => json(writer, &s.report()),
                "series" => {
                    let series = match req.query.get("window_ns").map(|v| v.parse::<u64>()) {
                        None => s.try_series(None).map_err(|e| e.to_string()),
                        Some(Ok(n)) if n > 0 => s.try_series(Some(n)).map_err(|e| e.to_string()),
                        Some(_) => Err("window_ns must be a positive integer".to_string()),
                    };
                    match series {
                        Ok(series) => json(writer, &series),
                        Err(e) => http::respond(
                            writer,
                            400,
                            Some("text/plain"),
                            format!("{e}\n").as_bytes(),
                        ),
                    }
                }
                "waits" => json(writer, &s.wait_states()),
                // The artifact endpoints serve the exact batch file bytes:
                // pretty JSON for the attribution artifact, plain text for
                // the collapsed stacks.
                "attribution.json" => {
                    let art = s.attribution(name);
                    let body = serde_json::to_string_pretty(&art).expect("artifact serializes");
                    http::respond(writer, 200, None, body.as_bytes())
                }
                "critpath.folded" => {
                    http::respond(writer, 200, Some("text/plain"), s.collapsed().as_bytes())
                }
                _ => http::respond(writer, 404, Some("text/plain"), b"unknown endpoint\n"),
            }
        }
        (_, ["healthz" | "v1", ..]) => {
            http::respond(writer, 405, Some("text/plain"), b"method not allowed\n")
        }
        _ => http::respond(writer, 404, Some("text/plain"), b"unknown endpoint\n"),
    }
}

fn json<W: Write, T: serde::Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    let body = serde_json::to_string(value).expect("endpoint value serializes");
    http::respond(writer, 200, None, body.as_bytes())
}
