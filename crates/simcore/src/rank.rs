//! Per-rank execution context.

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use crate::engine::{EngineHandle, EngineShared, Resume, YieldMsg};
use crate::error::RankDiag;
use crate::time::{Duration, Time};
use crate::truth::{Activity, ActivityLog};

/// How a rank continuation transfers control back to the engine. Constructed
/// by the engine's driver; a `RankCtx` never outlives its continuation, so
/// the fiber variant's raw cell pointer stays valid for the context's whole
/// life.
pub(crate) enum YieldPort {
    /// Fiber-hosted rank: yield by writing the message into the shared cell
    /// and swapping stacks — no syscall, no atomics.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Fiber(*mut crate::fiber::FiberData),
    /// Thread-hosted rank: rendezvous with the engine over a channel pair.
    Thread {
        yield_tx: Sender<YieldMsg>,
        resume_rx: Receiver<Resume>,
    },
}

/// Payload of the teardown unwind that [`Resume::Abort`] starts in a
/// suspended rank. Raised with [`std::panic::resume_unwind`], which by
/// contract never calls the panic hook: the unwind is the engine's control
/// flow, caught at the continuation's entry point, and nothing is printed.
struct Aborted;

/// Handle through which a simulated process interacts with virtual time.
///
/// A `RankCtx` is handed to the rank body by [`crate::Simulation::run`]. All
/// methods that advance or wait on virtual time transfer control back to the
/// engine, which runs network events (and other ranks) in the meantime.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    shared: Arc<EngineShared>,
    port: YieldPort,
    log: ActivityLog,
}

impl RankCtx {
    pub(crate) fn new(
        rank: usize,
        nranks: usize,
        shared: Arc<EngineShared>,
        port: YieldPort,
    ) -> Self {
        RankCtx {
            rank,
            nranks,
            shared,
            port,
            log: ActivityLog::new(),
        }
    }

    /// This rank's id, `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the simulation.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.shared.now()
    }

    /// Engine handle (for scheduling events / waking other ranks from
    /// library code running on this rank's continuation).
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Perform user computation for `d` nanoseconds of virtual time.
    pub fn compute(&mut self, d: Duration) {
        self.busy(d, Activity::Compute);
    }

    /// Spend `d` nanoseconds of host CPU time attributed to `kind`.
    /// Communication libraries use `Activity::Library` for copies,
    /// registration, and protocol processing costs.
    pub fn busy(&mut self, d: Duration, kind: Activity) {
        if d == 0 {
            return;
        }
        let start = self.now();
        let end = start.saturating_add(d);
        self.log.record(start, end, kind);
        // A sleeping rank has its wake-up in the queue: it is never stuck.
        let why = self.yield_to_engine(YieldMsg::Sleep(end));
        debug_assert_eq!(why, Resume::Run);
    }

    /// Block until an event handler calls [`EngineHandle::wake_rank`] for
    /// this rank. The blocked interval is attributed to
    /// [`Activity::LibraryWait`] in the ground-truth log. A rank stuck here
    /// when the simulation deadlocks reports no note; a library that can say
    /// what it is blocked on parks with [`RankCtx::park_with`].
    pub fn park(&mut self) {
        self.park_with(RankDiag::default);
    }

    /// [`RankCtx::park`], able to say what the rank is blocked on. `explain`
    /// runs only if the event queue drains with this rank still parked — at
    /// most once, on this rank's own stack, before the run is torn down —
    /// and its answer (with `rank` filled in here) becomes this rank's entry
    /// in [`crate::SimError::Deadlock`]. A run that completes never calls
    /// it, so it may render whatever it likes from the state it borrows:
    /// nothing the rank owns can change while the rank is parked.
    pub fn park_with(&mut self, mut explain: impl FnMut() -> RankDiag) {
        let start = self.now();
        let mut why = self.yield_to_engine(YieldMsg::Park);
        while why == Resume::Explain {
            let diag = RankDiag {
                rank: self.rank,
                ..explain()
            };
            why = self.yield_to_engine(YieldMsg::Explained(Box::new(diag)));
        }
        let end = self.now();
        self.log.record(start, end, Activity::LibraryWait);
    }

    pub(crate) fn take_log(&mut self) -> ActivityLog {
        std::mem::take(&mut self.log)
    }

    /// Hand `msg` to the engine and suspend; returns why the engine resumed
    /// this rank, or unwinds if the reason is [`Resume::Abort`] (the run
    /// ended early: another rank panicked, a limit was hit, a deadlock).
    fn yield_to_engine(&mut self, msg: YieldMsg) -> Resume {
        let why = match &mut self.port {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            YieldPort::Fiber(data) => {
                let data = *data;
                // SAFETY: we are the running fiber for this cell; the engine
                // (suspended in `resume`) reads the message after the switch
                // and owns the cell until it resumes us again, having stored
                // the reason first.
                unsafe {
                    (*data).msg = Some(msg);
                    crate::fiber::yield_to_engine(data);
                    (*data).resume
                }
            }
            // The engine aborts a thread-hosted rank by dropping its end of
            // the resume channel.
            YieldPort::Thread {
                yield_tx,
                resume_rx,
            } => match yield_tx.send(msg) {
                Ok(()) => resume_rx.recv().unwrap_or(Resume::Abort),
                Err(_) => Resume::Abort,
            },
        };
        if why == Resume::Abort {
            std::panic::resume_unwind(Box::new(Aborted));
        }
        why
    }
}
