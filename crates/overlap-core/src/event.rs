//! The four instrumentation events (plus section markers).
//!
//! Following the PERUSE-inspired definitions of the paper (Sec. 2.1):
//!
//! * `CALL_ENTER` / `CALL_EXIT` demarcate application calls into the
//!   communication library — everything outside is *user computation*,
//! * `XFER_BEGIN` / `XFER_END` are the library's best host-side
//!   approximations of the start and completion of the physical movement of
//!   one user message (control packets — RTS/CTS/FIN — are **not** message
//!   transfers and never generate these events).

/// One time-stamped instrumentation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Time-stamp, ns.
    pub t: u64,
    /// What happened.
    pub(crate) kind: EventKind,
}

/// Event discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Application entered a communication-library call.
    CallEnter {
        /// Static name of the call (e.g. `"MPI_Isend"`), used for per-call
        /// statistics such as average `MPI_Wait` time.
        name: &'static str,
    },
    /// Application left the communication library.
    CallExit,
    /// The library posted the operation that (approximately) starts the
    /// physical transfer of a user message.
    XferBegin {
        /// Transfer id, unique per process; pairs with the matching
        /// [`EventKind::XferEnd`].
        id: u64,
        /// Message payload size in bytes.
        bytes: u64,
    },
    /// The library observed (via a poll) the completion of a transfer. For
    /// transfers whose initiation is invisible to this process (e.g. the
    /// receive side of an eager send), this is the only stamped event.
    XferEnd {
        /// Transfer id; may have no matching begin.
        id: u64,
        /// Message payload size in bytes (repeated so end-only transfers are
        /// self-describing).
        bytes: u64,
    },
    /// Application-level begin of a monitored code section.
    SectionBegin {
        /// Static section name (e.g. `"x_solve"`).
        name: &'static str,
    },
    /// Application-level end of the innermost monitored section.
    SectionEnd,
    /// The library learned that transfer `id` was disturbed (e.g. it had to
    /// retransmit lost packets), so the a-priori transfer time no longer
    /// describes the observed window. The processor degrades that transfer's
    /// bounds instead of reporting unsound overlap.
    XferFlag {
        /// Transfer id; may refer to an already-completed transfer.
        id: u64,
    },
}

impl Event {
    /// Convenience constructor.
    pub fn new(t: u64, kind: EventKind) -> Self {
        Event { t, kind }
    }
}
