//! `repro serve` / `repro push` — the CLI front of the `overlapd` service.
//!
//! ```text
//! repro serve --addr 127.0.0.1:7077       # run the analysis service
//! repro push out/fig03.events.jsonl --to 127.0.0.1:7077
//! repro push run.jsonl --to HOST:PORT --session my-run
//! ```
//!
//! `serve` blocks until `POST /v1/shutdown`. `push` streams one exported
//! `.events.jsonl` file over the framed protocol; the session name defaults
//! to the file stem (`fig03.events.jsonl` → `fig03`). A server refusal
//! (schema mismatch, malformed stream) exits 2 with the server's one-line
//! reason; transport failures exit 1.

use std::path::Path;
use std::sync::Arc;

use overlapd::{push_file, PushError, Server, Service};

use crate::runner::{split_eq_flags, value};

/// `repro serve` entry point. Returns the process exit code.
pub fn serve_main(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:7077".to_string();
    let args = split_eq_flags(args);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let r = match arg.as_str() {
            "--addr" => value(&mut it, arg, "a host:port value").map(|v| addr = v.to_string()),
            a => Err(format!("unknown argument {a:?}")),
        };
        if let Err(msg) = r {
            eprintln!("repro serve: {msg}");
            return 2;
        }
    }
    let service = Arc::new(Service::default());
    let server = match Server::bind(&addr, service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro serve: cannot bind {addr}: {e}");
            return 2;
        }
    };
    match server.local_addr() {
        Ok(bound) => eprintln!("overlapd: listening on {bound}"),
        Err(_) => eprintln!("overlapd: listening on {addr}"),
    }
    match server.run() {
        Ok(()) => {
            eprintln!("overlapd: shut down");
            0
        }
        Err(e) => {
            eprintln!("repro serve: {e}");
            1
        }
    }
}

/// Default session name for a pushed file: the stem, with a trailing
/// `.events` (from `<id>.events.jsonl`) stripped.
pub fn session_for(path: &Path) -> String {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("session");
    stem.strip_suffix(".events").unwrap_or(stem).to_string()
}

/// `repro push` entry point. Returns the process exit code (2 on server
/// refusal, e.g. schema mismatch).
pub fn push_main(args: &[String]) -> i32 {
    let mut file: Option<String> = None;
    let mut to: Option<String> = None;
    let mut session: Option<String> = None;
    let args = split_eq_flags(args);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let r = match arg.as_str() {
            "--to" => value(&mut it, arg, "a host:port value").map(|v| to = Some(v.to_string())),
            "--session" => value(&mut it, arg, "a name").map(|v| session = Some(v.to_string())),
            a if a.starts_with('-') => Err(format!("unknown flag {a:?}")),
            a => match file.replace(a.to_string()) {
                Some(_) => Err("exactly one <events.jsonl> file expected".to_string()),
                None => Ok(()),
            },
        };
        if let Err(msg) = r {
            eprintln!("repro push: {msg}");
            return 2;
        }
    }
    let Some(file) = file else {
        eprintln!(
            "repro push: usage: repro push <events.jsonl> --to <host:port> [--session <name>]"
        );
        return 2;
    };
    let Some(to) = to else {
        eprintln!("repro push: --to <host:port> is required");
        return 2;
    };
    let path = Path::new(&file);
    let session = session.unwrap_or_else(|| session_for(path));
    match push_file(&to, &session, path) {
        Ok(events) => {
            eprintln!("pushed {events} events to {to} as session {session:?}");
            0
        }
        Err(PushError::Refused(msg)) => {
            eprintln!("repro push: server refused stream: {msg}");
            2
        }
        Err(e) => {
            eprintln!("repro push: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_name_strips_events_suffix() {
        assert_eq!(session_for(Path::new("out/fig03.events.jsonl")), "fig03");
        assert_eq!(session_for(Path::new("run.jsonl")), "run");
        assert_eq!(session_for(Path::new("plain")), "plain");
    }

    #[test]
    fn push_requires_file_and_target() {
        assert_eq!(push_main(&[]), 2);
        assert_eq!(push_main(&["x.jsonl".to_string()]), 2);
        assert_eq!(
            push_main(&[
                "a".to_string(),
                "b".to_string(),
                "--to".to_string(),
                "x".to_string()
            ]),
            2
        );
    }
}
