//! The client half of the framed ingest protocol (`repro push`,
//! `--stream`).

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

/// Target frame size; lines are never split across frames, so a frame
/// exceeds this only when a single line does (the server's limit is far
/// above it).
const FRAME_TARGET: usize = 60 << 10;

/// Why a push failed.
#[derive(Debug)]
pub enum PushError {
    /// Transport failure (connect, write, or read).
    Io(io::Error),
    /// The server refused the stream (schema mismatch, malformed line, ...):
    /// the one-line reason it replied with.
    Refused(String),
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Io(e) => write!(f, "transport error: {e}"),
            PushError::Refused(msg) => write!(f, "server refused stream: {msg}"),
        }
    }
}

impl std::error::Error for PushError {}

impl From<io::Error> for PushError {
    fn from(e: io::Error) -> Self {
        PushError::Io(e)
    }
}

/// Push a block of JSONL text to `addr` under `session`. Returns the event
/// count the server acknowledged.
pub fn push_text(addr: &str, session: &str, text: &str) -> Result<u64, PushError> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writer.write_all(format!("OVLP1 {session}\n").as_bytes())?;

    // Frames are slices of `text`, each cut after the last newline within
    // the target, or after the first one past it when one line is longer.
    let mut rest = text.as_bytes();
    while !rest.is_empty() {
        let newline = |b: &u8| *b == b'\n';
        let cut = if rest.len() <= FRAME_TARGET {
            rest.len()
        } else if let Some(i) = rest[..FRAME_TARGET].iter().rposition(newline) {
            i + 1
        } else {
            let long = rest[FRAME_TARGET..].iter().position(newline);
            long.map_or(rest.len(), |i| FRAME_TARGET + i + 1)
        };
        let (frame, tail) = rest.split_at(cut);
        write_frame(&mut writer, frame)?;
        rest = tail;
    }
    write_frame(&mut writer, b"")?; // zero frame: end of stream
    writer.flush()?;

    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    let reply = reply.trim_end();
    if let Some(rest) = reply.strip_prefix("ok events=") {
        rest.parse::<u64>()
            .map_err(|_| PushError::Refused(format!("unparseable reply {reply:?}")))
    } else if let Some(msg) = reply.strip_prefix("err ") {
        Err(PushError::Refused(msg.to_string()))
    } else {
        Err(PushError::Refused(format!("unexpected reply {reply:?}")))
    }
}

/// Push a `.events.jsonl` file to `addr` under `session`.
pub fn push_file(addr: &str, session: &str, path: &Path) -> Result<u64, PushError> {
    let text = std::fs::read_to_string(path)?;
    push_text(addr, session, &text)
}

fn write_frame<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)
}
