//! PERUSE-style event observation.
//!
//! The paper's framework deliberately does **no tracing** — events fold into
//! running aggregates. But it also "fits well with other performance
//! monitoring approaches that operate outside the library" (Sec. 6), and the
//! PERUSE specification it builds on exists precisely to let external tools
//! see library-internal events. This module provides that interface: an
//! observer hook invoked on every recorded event, plus a ready-made
//! [`TraceSink`] that streams events to a file for offline analysis —
//! strictly optional, so the default path keeps the paper's constant-memory,
//! no-tracing property.

use std::fmt::Write as _;
use std::io::Write;

use crate::event::Event;

/// Receives every event the recorder logs (PERUSE-style subscription).
pub trait EventObserver {
    /// Called synchronously for each event, in time order.
    fn on_event(&mut self, e: &Event);
}

impl<F: FnMut(&Event)> EventObserver for F {
    fn on_event(&mut self, e: &Event) {
        self(e)
    }
}

/// Streams events as JSON lines to a writer (a trace file). The contrast to
/// the aggregate-only default is intentional: traces grow with run length,
/// which is exactly the overhead the paper's design avoids.
pub struct TraceSink<W: Write> {
    out: W,
    /// The line being built, reused from event to event.
    line: String,
    events_written: u64,
}

impl<W: Write> TraceSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        TraceSink {
            out,
            line: String::new(),
            events_written: 0,
        }
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Unwrap the inner writer (flushes first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> EventObserver for TraceSink<W> {
    fn on_event(&mut self, e: &Event) {
        self.line.clear();
        let _ = write!(self.line, r#"{{"t":{},"#, e.t);
        let _ = crate::trace::event_body(&mut self.line, &e.kind);
        self.line.push_str("}\n");
        let _ = self.out.write_all(self.line.as_bytes());
        self.events_written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn closures_observe() {
        let mut count = 0;
        {
            let mut obs = |_: &Event| count += 1;
            obs.on_event(&Event::new(1, EventKind::CallExit));
            obs.on_event(&Event::new(2, EventKind::CallExit));
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn trace_sink_writes_json_lines() {
        let mut sink = TraceSink::new(Vec::new());
        sink.on_event(&Event::new(10, EventKind::CallEnter { name: "MPI_Isend" }));
        sink.on_event(&Event::new(20, EventKind::XferBegin { id: 7, bytes: 512 }));
        sink.on_event(&Event::new(30, EventKind::CallExit));
        sink.on_event(&Event::new(40, EventKind::SectionBegin { name: "a\"b" }));
        assert_eq!(sink.events_written(), 4);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""ev":"call_enter""#));
        assert!(lines[0].contains("MPI_Isend"));
        assert!(lines[1].contains(r#""bytes":512"#));
        // Each line parses as JSON.
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            assert!(v["t"].is_u64());
        }
        let quoted: serde_json::Value = serde_json::from_str(lines[3]).unwrap();
        assert_eq!(quoted["name"].as_str(), Some("a\"b"));
    }
}
