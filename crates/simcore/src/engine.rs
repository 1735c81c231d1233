//! The discrete-event engine and cooperative rank scheduler.
//!
//! The engine owns a time-ordered queue of entries, each either a token
//! delivery (the one handler registered per simulation, applied to a `u64`:
//! every fabric operation travels this way), a rank alarm (a timed
//! [`EngineHandle::wake_rank`]), or a rank wake-up. Ranks execute as
//! run-to-completion coroutines: on x86_64 Linux each rank is a stackful
//! fiber (see `crate::fiber`) resumed and suspended by swapping stack
//! pointers on the engine's own thread, so a park/wake handoff costs two
//! register swaps instead of a futex round-trip. Elsewhere — and on demand
//! via [`RankRuntime::OsThreads`], which doubles as the reference model for
//! the runtime-equivalence tests — ranks fall back to dedicated OS threads
//! rendezvousing over a channel pair. Either way the engine hands control to
//! at most one rank at a time, so the whole simulation is logically
//! single-threaded and deterministic: entries are ordered by
//! `(time, sequence-number)`, and both drivers observe the identical entry
//! stream, which is the determinism argument in one sentence.
//!
//! # Queue architecture
//!
//! The pending-event set lives in a hierarchical [`TimingWheel`] owned by the
//! run loop itself — popping takes no lock. Producers (rank continuations and
//! the token handler) append to one mutex-guarded insertion buffer and raise
//! its flag; before each pop the engine moves the buffer into the wheel,
//! taking the lock once per batch rather than once per event and only reading
//! the flag when nothing was produced. One buffer is enough because at most
//! one producer runs at a time, so the lock is never contended during a run;
//! the one moment several producers exist — thread-hosted ranks unwinding in
//! parallel at teardown — is what the mutex is for. Global `(time, seq)`
//! order is restored inside the wheel, because sequence numbers are allocated
//! in program order at push time. The wheel keeps every entry not yet due in
//! one node arena that reuses popped nodes, so a run allocates for its
//! high-water mark of pending entries, not per event and not per wheel slot.
//!
//! # Waits the engine finishes itself
//!
//! A library waiting for its NIC runs the same three steps over and over:
//! poll for `poll_cost` ns, park if the poll found nothing, and poll again
//! when woken. Two of the rank's resumes in that cycle change nothing any
//! other party can observe, so [`RankCtx::wait`] hands them to the run loop,
//! which makes them at the pop where it would have resumed the rank:
//!
//! * **The end of an idle poll** (`PH_POLLING`). While the poll runs,
//!   [`EngineHandle::wake_rank`] is the doorbell: it pushes nothing (a
//!   sleeping rank's wake-up pushes nothing either) and only notes that a
//!   host-visible delivery arrived. Every delivery the fabric makes calls it,
//!   so at the poll's end a silent doorbell means the poll drained nothing,
//!   and the rank parks as its own park would have — no seq drawn.
//! * **The wake-up** (`PH_PARKED` with a charge). The rank would record its
//!   wait and at once sleep for the charge. The loop pushes that sleep's
//!   wake-up with the very `next_seq()` the rank's own `Sleep` would have
//!   drawn, and resumes the rank only when the charge is served
//!   (`PH_CHARGING`).
//!
//! Between the wake-up and the charge the rank draws no seq and reads no
//! shared state, so the `(time, seq)` entry stream, the entry count, every
//! activity log and every oracle choice are those of the unfused sequence,
//! under both [`RankRuntime`]s; only [`SimOutcome::resumes`] falls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::{RankDiag, SimError};
use crate::oracle::{ChoicePoint, OracleHandle};
use crate::rank::{RankCtx, YieldPort};
use crate::sched::TimingWheel;
use crate::time::{Duration, Time};
use crate::truth::ActivityLog;

/// Handler for [`Action::Token`] entries, registered once per simulation via
/// [`EngineHandle::set_token_handler`].
type TokenHandler = Box<dyn Fn(&EngineHandle, u64) + Send + Sync>;

/// The rank body as the engine stores it: one shared closure, run once per
/// rank on that rank's continuation.
type RankBody = Arc<dyn Fn(&mut RankCtx) + Send + Sync>;

enum Action {
    WakeRank(usize),
    /// [`EngineHandle::wake_rank_at`]: call [`EngineHandle::wake_rank`] on
    /// the rank when popped.
    Alarm(usize),
    Token(u64),
}

struct Entry {
    time: Time,
    seq: u64,
    action: Action,
}

/// Rank lifecycle phases, stored in [`RankCell::phase`].
const PH_NOT_STARTED: u8 = 0;
const PH_RUNNING: u8 = 1;
const PH_SLEEPING: u8 = 2;
const PH_PARKED: u8 = 3;
const PH_DONE: u8 = 4;
/// In the poll of a [`RankCtx::wait`]: its end is queued, and
/// [`EngineHandle::wake_rank`] only rings the doorbell.
const PH_POLLING: u8 = 5;
/// Woken from a wait and serving its charge: the charge's end is queued.
const PH_CHARGING: u8 = 6;

/// Per-rank scheduling state. Plain atomics with relaxed ordering because
/// the strict engine↔rank handoff already serializes every access (in
/// threaded mode the rendezvous channel provides the happens-before edge).
struct RankCell {
    phase: AtomicU8,
    /// True while a wake-up entry for this parked rank is in flight
    /// (idempotence), or once the doorbell rang during a poll
    /// (`PH_POLLING`).
    wake_pending: AtomicBool,
    /// Library time the current wait charges when it wakes up.
    charge: AtomicU64,
}

impl RankCell {
    fn new() -> Self {
        RankCell {
            phase: AtomicU8::new(PH_NOT_STARTED),
            wake_pending: AtomicBool::new(false),
            charge: AtomicU64::new(0),
        }
    }
}

pub(crate) struct EngineShared {
    /// The insertion buffer: everything scheduled since the last drain.
    inbox: Mutex<Vec<Entry>>,
    /// False ⇒ `inbox` is empty. The lock is what publishes the entries;
    /// the flag, raised by a producer while it holds the lock, only lets an
    /// idle drain skip it.
    inbox_dirty: AtomicBool,
    now: AtomicU64,
    seq: AtomicU64,
    cells: Box<[RankCell]>,
    /// Set once, by [`EngineHandle::set_token_handler`].
    token_handler: OnceLock<TokenHandler>,
    /// Set once, by [`Simulation::run`] (which consumes the simulation).
    oracle: OnceLock<OracleHandle>,
}

impl EngineShared {
    /// Current virtual time.
    pub(crate) fn now(&self) -> Time {
        self.now.load(AtomicOrdering::Relaxed)
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, AtomicOrdering::Relaxed)
    }

    fn push(&self, time: Time, action: Action) {
        let seq = self.next_seq();
        let mut buf = self.inbox.lock();
        buf.push(Entry { time, seq, action });
        // Release pairs with the Acquire load in `drain_inbox`.
        self.inbox_dirty.store(true, AtomicOrdering::Release);
    }

    /// Move every buffered entry into the wheel; a load and nothing else
    /// when no producer ran since the last drain.
    fn drain_inbox(&self, wheel: &mut TimingWheel<Action>) {
        if !self.inbox_dirty.load(AtomicOrdering::Acquire) {
            return;
        }
        let mut buf = self.inbox.lock();
        self.inbox_dirty.store(false, AtomicOrdering::Relaxed);
        for e in buf.drain(..) {
            wheel.push(e.time, e.seq, e.action);
        }
    }
}

/// Cloneable handle into a running (or not-yet-run) simulation. The token
/// handler and library code use it to read the clock, schedule future
/// events, and wake parked ranks.
#[derive(Clone)]
pub struct EngineHandle {
    pub(crate) shared: Arc<EngineShared>,
}

impl EngineHandle {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.shared.now()
    }

    /// Register the handler invoked for every token scheduled with
    /// [`EngineHandle::schedule_token`]. One handler per simulation: it must
    /// be installed before [`crate::Simulation::run`], and a second call
    /// panics.
    pub fn set_token_handler<F>(&self, f: F)
    where
        F: Fn(&EngineHandle, u64) + Send + Sync + 'static,
    {
        let fresh = self.shared.token_handler.set(Box::new(f)).is_ok();
        assert!(fresh, "the token handler is set once per simulation");
    }

    /// Schedule the registered token handler to run on `token` at absolute
    /// virtual time `t` (clamped to `now`). This allocates nothing: the
    /// token is a plain `u64`, typically an index into a caller-owned arena
    /// describing the work.
    pub fn schedule_token(&self, t: Time, token: u64) {
        let t = t.max(self.now());
        self.shared.push(t, Action::Token(token));
    }

    /// Call [`EngineHandle::wake_rank`] on rank `r` at absolute virtual time
    /// `t` (clamped to `now`): a rank's alarm clock, e.g. a retransmission
    /// deadline that must get the rank back into its progress loop.
    pub fn wake_rank_at(&self, t: Time, r: usize) {
        let t = t.max(self.now());
        self.shared.push(t, Action::Alarm(r));
    }

    /// The run's schedule oracle ([`SimOpts::oracle`]), if any.
    pub fn oracle(&self) -> Option<&OracleHandle> {
        self.shared.oracle.get()
    }

    /// Wake rank `r` if it is parked. No-op for running, sleeping (a rank
    /// that is mid-`compute` is uninterruptible — it discovers new state at
    /// its next library call), or finished ranks. Idempotent: at most one
    /// wake-up entry is outstanding per parked rank. A rank in the poll of a
    /// [`RankCtx::wait`] is not woken either, but the call is noted: it is
    /// the doorbell that keeps the rank from parking when the poll ends.
    pub fn wake_rank(&self, r: usize) {
        let cell = &self.shared.cells[r];
        match cell.phase.load(AtomicOrdering::Relaxed) {
            PH_PARKED if !cell.wake_pending.swap(true, AtomicOrdering::Relaxed) => {
                self.shared.push(self.now(), Action::WakeRank(r));
            }
            PH_POLLING => cell.wake_pending.store(true, AtomicOrdering::Relaxed),
            _ => {}
        }
    }
}

/// How rank continuations are hosted. The choice affects host performance
/// only: both runtimes observe the identical `(time, seq)` entry stream, so
/// every simulation output is byte-identical between them (pinned by the
/// `runtime_equivalence` test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankRuntime {
    /// Stackful fibers resumed on the engine thread — a park/wake is a
    /// pointer swap. The default; falls back to [`RankRuntime::OsThreads`]
    /// on targets without fiber support (currently anything that is not
    /// x86_64 Linux).
    #[default]
    Coroutine,
    /// One OS thread per rank, rendezvousing with the engine over a channel
    /// pair. ~45x slower on park/wake-heavy workloads; kept as the portable
    /// fallback and as the reference model the coroutine runtime is tested
    /// against.
    OsThreads,
}

/// Resource limits and schedule control for a simulation run.
#[derive(Clone, Default)]
pub struct SimOpts {
    /// Abort with [`SimError::EventLimitExceeded`] after this many entries.
    pub max_events: Option<u64>,
    /// How to host rank continuations (performance-only knob; see
    /// [`RankRuntime`]).
    pub runtime: RankRuntime,
    /// The schedule oracle controlling the engine's nondeterminism points
    /// (see [`crate::oracle`]). Library layers query it per choice point
    /// via [`EngineHandle::oracle`]. `None` takes the original fixed-policy
    /// fast path.
    pub oracle: Option<OracleHandle>,
}

/// Successful simulation result.
#[derive(Debug)]
pub struct SimOutcome {
    /// Virtual time when the last entry was processed.
    pub end_time: Time,
    /// Per-rank ground-truth activity logs.
    pub activity: Vec<ActivityLog>,
    /// Number of queue entries processed (events + wake-ups).
    pub events_processed: u64,
    /// Number of times the run loop handed control to a rank. Unlike
    /// `events_processed` this depends on how much of each wait the engine
    /// finished itself (see [`RankCtx::wait`]), never on the runtime.
    pub resumes: u64,
}

#[derive(Debug)]
pub(crate) enum YieldMsg {
    Sleep(Time),
    /// [`RankCtx::wait`]: poll for `after` ns (0: park at once), park
    /// unless the doorbell rang, and serve `charge` on the wake-up.
    Wait {
        after: Duration,
        charge: Duration,
    },
    Done(ActivityLog),
    Panicked(String),
    /// The answer to a [`Resume::Explain`]: the rank stays parked.
    Explained(Box<RankDiag>),
}

/// Why the engine hands control to a suspended rank: the one value a rank
/// reads after every yield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// Carry on: the sleep is over, or a wait's poll ended with the doorbell
    /// rung.
    Run,
    /// A wait parked, was woken, and its charge is served.
    Woke,
    /// The wheel drained with this rank still parked: say what it is blocked
    /// on (see [`RankCtx::wait`]) and park again.
    Explain,
    /// The run is over: unwind out of the rank body so its destructors run.
    Abort,
}

/// Hosts the rank continuations for one run and resumes them on demand.
/// Exactly one variant exists per run; the main loop is driver-agnostic.
enum Driver {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Fibers(FiberDriver),
    Threads(ThreadDriver),
}

impl Driver {
    fn spawn(
        runtime: RankRuntime,
        n: usize,
        shared: &Arc<EngineShared>,
        body: &RankBody,
        fail_spawn: Option<usize>,
    ) -> Result<Driver, SimError> {
        match runtime {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            RankRuntime::Coroutine => {
                FiberDriver::spawn(n, shared, body, fail_spawn).map(Driver::Fibers)
            }
            #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
            RankRuntime::Coroutine => {
                ThreadDriver::spawn(n, shared, body, fail_spawn).map(Driver::Threads)
            }
            RankRuntime::OsThreads => {
                ThreadDriver::spawn(n, shared, body, fail_spawn).map(Driver::Threads)
            }
        }
    }

    /// Hand control to rank `r` until it yields; returns its message.
    fn resume(&mut self, r: usize, why: Resume) -> Result<YieldMsg, SimError> {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Driver::Fibers(d) => d.resume(r, why),
            Driver::Threads(d) => d.resume(r, why),
        }
    }

    /// Tear down every continuation that has not finished: suspended bodies
    /// are resumed with [`Resume::Abort`] and unwind, so their destructors
    /// run exactly as on the success path.
    fn shutdown(self) {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Driver::Fibers(d) => drop(d),
            Driver::Threads(d) => d.shutdown(),
        }
    }
}

/// Fiber-hosted ranks: all continuations live on the engine thread.
/// Dropping the driver aborts any suspended fiber (see `crate::fiber`).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
struct FiberDriver {
    fibers: Vec<crate::fiber::Fiber>,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl FiberDriver {
    fn spawn(
        n: usize,
        shared: &Arc<EngineShared>,
        body: &RankBody,
        fail_spawn: Option<usize>,
    ) -> Result<FiberDriver, SimError> {
        let mut fibers = Vec::with_capacity(n);
        for r in 0..n {
            let made = if fail_spawn == Some(r) {
                Err(std::io::Error::other("injected spawn failure (test hook)"))
            } else {
                let body = Arc::clone(body);
                let shared = Arc::clone(shared);
                crate::fiber::Fiber::new(Box::new(move |data| {
                    let mut ctx = RankCtx::new(r, n, shared, YieldPort::Fiber(data));
                    body(&mut ctx);
                    let log = ctx.take_log();
                    // SAFETY: running on this fiber; the engine is suspended.
                    unsafe { (*data).msg = Some(YieldMsg::Done(log)) };
                }))
            };
            match made {
                Ok(f) => fibers.push(f),
                // Already-created fibers never started, so dropping them
                // releases their stacks without any teardown unwind; the
                // caller then drains whatever was pre-scheduled.
                Err(e) => {
                    return Err(SimError::SpawnFailed {
                        rank: r,
                        message: e.to_string(),
                    })
                }
            }
        }
        Ok(FiberDriver { fibers })
    }

    fn resume(&mut self, r: usize, why: Resume) -> Result<YieldMsg, SimError> {
        match self.fibers[r].resume(why) {
            Some(m) => Ok(m),
            None => Err(SimError::RankPanic {
                rank: r,
                message: "rank coroutine finished without a completion message".into(),
            }),
        }
    }
}

/// Thread-hosted ranks: the original rendezvous-channel design, kept as the
/// portable fallback and the equivalence-test reference model.
struct ThreadDriver {
    /// Dropping a sender is this driver's [`Resume::Abort`].
    resume_txs: Vec<Sender<Resume>>,
    yield_rxs: Vec<Receiver<YieldMsg>>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadDriver {
    fn spawn(
        n: usize,
        shared: &Arc<EngineShared>,
        body: &RankBody,
        fail_spawn: Option<usize>,
    ) -> Result<ThreadDriver, SimError> {
        let mut resume_txs: Vec<Sender<Resume>> = Vec::with_capacity(n);
        let mut yield_rxs: Vec<Receiver<YieldMsg>> = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        for r in 0..n {
            let (resume_tx, resume_rx) = bounded::<Resume>(1);
            let (yield_tx, yield_rx) = bounded::<YieldMsg>(1);
            resume_txs.push(resume_tx);
            yield_rxs.push(yield_rx);
            let body = Arc::clone(body);
            let shared = Arc::clone(shared);
            let spawned = if fail_spawn == Some(r) {
                Err(std::io::Error::other("injected spawn failure (test hook)"))
            } else {
                std::thread::Builder::new()
                    .name(format!("sim-rank-{r}"))
                    .spawn(move || {
                        // Wait for the first wake-up; if the engine aborted
                        // before starting us, just exit.
                        if resume_rx.recv().is_err() {
                            return;
                        }
                        let done_tx = yield_tx.clone();
                        let mut ctx = RankCtx::new(
                            r,
                            n,
                            shared,
                            YieldPort::Thread {
                                yield_tx,
                                resume_rx,
                            },
                        );
                        let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                        match result {
                            Ok(()) => {
                                let log = ctx.take_log();
                                let _ = done_tx.send(YieldMsg::Done(log));
                            }
                            Err(payload) => {
                                let msg = panic_message(payload.as_ref());
                                let _ = done_tx.send(YieldMsg::Panicked(msg));
                            }
                        }
                    })
            };
            match spawned {
                Ok(j) => joins.push(j),
                Err(e) => {
                    // Unblock the threads spawned so far (their first recv
                    // errors out and they exit) before reporting.
                    drop(resume_txs);
                    for j in joins {
                        let _ = j.join();
                    }
                    return Err(SimError::SpawnFailed {
                        rank: r,
                        message: e.to_string(),
                    });
                }
            }
        }
        Ok(ThreadDriver {
            resume_txs,
            yield_rxs,
            joins,
        })
    }

    fn resume(&mut self, r: usize, why: Resume) -> Result<YieldMsg, SimError> {
        if self.resume_txs[r].send(why).is_err() {
            return Err(SimError::RankPanic {
                rank: r,
                message: "rank thread exited unexpectedly".into(),
            });
        }
        match self.yield_rxs[r].recv() {
            Ok(m) => Ok(m),
            Err(_) => Err(SimError::RankPanic {
                rank: r,
                message: "rank thread dropped its yield channel".into(),
            }),
        }
    }

    fn shutdown(self) {
        // Dropping the resume senders unblocks any waiting threads (their
        // recv errors and they unwind out of the rank body).
        drop(self.resume_txs);
        for j in self.joins {
            let _ = j.join();
        }
    }
}

/// A simulation: `nranks` cooperative processes over one virtual clock.
pub struct Simulation {
    shared: Arc<EngineShared>,
    nranks: usize,
    fail_spawn: Option<usize>,
}

impl Simulation {
    /// Create a simulation with `nranks` ranks. The engine handle is
    /// available immediately (e.g. to build the network model) even before
    /// [`Simulation::run`] is called.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "simulation needs at least one rank");
        Simulation {
            shared: Arc::new(EngineShared {
                inbox: Mutex::new(Vec::new()),
                inbox_dirty: AtomicBool::new(false),
                now: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                cells: (0..nranks).map(|_| RankCell::new()).collect(),
                token_handler: OnceLock::new(),
                oracle: OnceLock::new(),
            }),
            nranks,
            fail_spawn: None,
        }
    }

    /// Handle for scheduling events and waking ranks.
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Test hook: make spawning rank `rank`'s continuation fail as if the
    /// host refused it, exercising the partial-fleet teardown path. Both
    /// runtimes honor it.
    #[cfg(test)]
    fn inject_spawn_failure(&mut self, rank: usize) {
        self.fail_spawn = Some(rank);
    }

    /// Drop every queued-but-undispatched entry and reset per-rank state.
    ///
    /// Runs on **every** exit from [`Simulation::run`] — success, error, and
    /// the partial-spawn-failure path — so teardown is deterministic: an
    /// entry scheduled before an aborted run cannot leave a stale wake-up
    /// behind for a handle that outlives the run.
    fn drain_reset(&self) {
        self.shared.inbox.lock().clear();
        self.shared
            .inbox_dirty
            .store(false, AtomicOrdering::Relaxed);
        for cell in self.shared.cells.iter() {
            cell.phase.store(PH_DONE, AtomicOrdering::Relaxed);
            cell.wake_pending.store(false, AtomicOrdering::Relaxed);
            cell.charge.store(0, AtomicOrdering::Relaxed);
        }
    }

    /// Run `body` once per rank to completion. Returns the outcome or the
    /// first terminal error (deadlock, rank panic, resource limit).
    pub fn run<F>(self, opts: SimOpts, body: F) -> Result<SimOutcome, SimError>
    where
        F: Fn(&mut RankCtx) + Send + Sync + 'static,
    {
        let n = self.nranks;
        let body: RankBody = Arc::new(body);
        let mut driver = match Driver::spawn(opts.runtime, n, &self.shared, &body, self.fail_spawn)
        {
            Ok(d) => d,
            Err(e) => {
                self.drain_reset();
                return Err(e);
            }
        };

        // The pending-event set. Owned by this loop: pops never lock.
        let mut wheel: TimingWheel<Action> = TimingWheel::new();
        let token_handler = self.shared.token_handler.get();
        let oracle = opts.oracle;
        if let Some(orc) = &oracle {
            let _ = self.shared.oracle.set(orc.clone());
        }

        // Kick off every rank at t = 0.
        for r in 0..n {
            let seq = self.shared.next_seq();
            wheel.push(0, seq, Action::WakeRank(r));
        }

        let handle = self.handle();
        let mut logs: Vec<Option<ActivityLog>> = (0..n).map(|_| None).collect();
        let mut events: u64 = 0;
        let mut resumes: u64 = 0;
        let result = 'main: loop {
            // Adopt everything produced since the last entry ran. Ranks only
            // execute while the engine is suspended in `resume`, so by this
            // point all their pushes are visible and nothing new can arrive
            // before the pop below.
            self.shared.drain_inbox(&mut wheel);
            let popped = match &oracle {
                None => wheel.pop(),
                Some(orc) => pop_with_oracle(&mut wheel, orc),
            };
            let Some((time, _seq, action)) = popped else {
                let stuck: Vec<usize> = self
                    .shared
                    .cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.phase.load(AtomicOrdering::Relaxed) != PH_DONE)
                    .map(|(i, _)| i)
                    .collect();
                if stuck.is_empty() {
                    break Ok(());
                }
                // Ask each stuck rank, on its own stack, what it is blocked
                // on. Not an event: no clock, no counter, no log moves, and
                // the rank stays parked for the teardown below.
                let mut diags = Vec::with_capacity(stuck.len());
                for &r in &stuck {
                    match driver.resume(r, Resume::Explain) {
                        Ok(YieldMsg::Explained(d)) => diags.push(*d),
                        Ok(YieldMsg::Panicked(message)) => {
                            break 'main Err(SimError::RankPanic { rank: r, message });
                        }
                        Ok(other) => unreachable!("rank {r} answered explain with {other:?}"),
                        Err(e) => break 'main Err(e),
                    }
                }
                break Err(SimError::Deadlock {
                    parked: stuck,
                    at: handle.now(),
                    diags,
                });
            };
            events += 1;
            if let Some(limit) = opts.max_events {
                if events > limit {
                    break Err(SimError::EventLimitExceeded { limit });
                }
            }
            debug_assert!(time >= handle.now(), "time went backwards");
            self.shared.now.store(time, AtomicOrdering::Relaxed);

            match action {
                Action::Alarm(r) => handle.wake_rank(r),
                Action::Token(tok) => {
                    debug_assert!(
                        token_handler.is_some(),
                        "token {tok} scheduled without a registered handler"
                    );
                    if let Some(h) = token_handler {
                        h(&handle, tok);
                    }
                }
                Action::WakeRank(r) => {
                    let cell = &self.shared.cells[r];
                    let rang = cell.wake_pending.swap(false, AtomicOrdering::Relaxed);
                    let why = match cell.phase.load(AtomicOrdering::Relaxed) {
                        PH_NOT_STARTED | PH_SLEEPING => Resume::Run,
                        PH_POLLING if rang => Resume::Run,
                        // The poll drained nothing: park where the rank's
                        // own park would have put it.
                        PH_POLLING => {
                            cell.phase.store(PH_PARKED, AtomicOrdering::Relaxed);
                            continue;
                        }
                        // Woken: serve the charge first, drawing the seq the
                        // rank's own `Sleep` would have.
                        PH_PARKED => match cell.charge.load(AtomicOrdering::Relaxed) {
                            0 => Resume::Woke,
                            charge => {
                                let seq = self.shared.next_seq();
                                wheel.push(time.saturating_add(charge), seq, Action::WakeRank(r));
                                cell.phase.store(PH_CHARGING, AtomicOrdering::Relaxed);
                                continue;
                            }
                        },
                        PH_CHARGING => Resume::Woke,
                        PH_DONE => continue,
                        _ => unreachable!("rank {r} woken while running"),
                    };
                    cell.phase.store(PH_RUNNING, AtomicOrdering::Relaxed);
                    resumes += 1;
                    match driver.resume(r, why) {
                        Ok(YieldMsg::Sleep(t)) => {
                            cell.phase.store(PH_SLEEPING, AtomicOrdering::Relaxed);
                            // Engine-local: straight into the wheel, skipping
                            // the inbox (same seq counter, same order).
                            let seq = self.shared.next_seq();
                            wheel.push(t.max(handle.now()), seq, Action::WakeRank(r));
                        }
                        Ok(YieldMsg::Wait { after, charge }) => {
                            cell.charge.store(charge, AtomicOrdering::Relaxed);
                            if after == 0 {
                                cell.phase.store(PH_PARKED, AtomicOrdering::Relaxed);
                            } else {
                                cell.phase.store(PH_POLLING, AtomicOrdering::Relaxed);
                                let seq = self.shared.next_seq();
                                wheel.push(time.saturating_add(after), seq, Action::WakeRank(r));
                            }
                        }
                        Ok(YieldMsg::Done(log)) => {
                            cell.phase.store(PH_DONE, AtomicOrdering::Relaxed);
                            logs[r] = Some(log);
                        }
                        Ok(YieldMsg::Panicked(message)) => {
                            break 'main Err(SimError::RankPanic { rank: r, message });
                        }
                        Ok(YieldMsg::Explained(_)) => {
                            unreachable!("rank {r} explained without being asked")
                        }
                        Err(e) => break Err(e),
                    }
                }
            }
        };

        driver.shutdown();
        self.drain_reset();

        result?;
        let mut activity = Vec::with_capacity(n);
        for (r, log) in logs.into_iter().enumerate() {
            match log {
                Some(l) => activity.push(l),
                None => return Err(SimError::MissingRankLog { rank: r }),
            }
        }
        Ok(SimOutcome {
            end_time: handle.now(),
            activity,
            events_processed: events,
            resumes,
        })
    }
}

/// Oracle-driven pop: the oracle picks among the wheel's due batch — the
/// entries tied at the earliest time; [`OracleHandle::choose`] answers a
/// batch of one without asking. An oracle that always answers `0` takes
/// the lowest sequence number, as [`TimingWheel::pop`] does, so the
/// schedule is byte-identical to the no-oracle fast path.
fn pop_with_oracle(
    wheel: &mut TimingWheel<Action>,
    orc: &OracleHandle,
) -> Option<(Time, u64, Action)> {
    wheel.pop_tie(|time, n| orc.choose(ChoicePoint::EventTie { time, n }))
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::Activity;

    #[test]
    fn single_rank_computes_and_finishes() {
        let sim = Simulation::new(1);
        let out = sim
            .run(SimOpts::default(), |ctx| {
                ctx.compute(100);
                ctx.compute(50);
            })
            .unwrap();
        assert_eq!(out.end_time, 150);
        assert_eq!(out.activity[0].total(Activity::Compute), 150);
    }

    #[test]
    fn ranks_advance_independently() {
        let sim = Simulation::new(3);
        let out = sim
            .run(SimOpts::default(), |ctx| {
                let d = (ctx.rank() as u64 + 1) * 10;
                ctx.compute(d);
            })
            .unwrap();
        assert_eq!(out.end_time, 30);
        for r in 0..3 {
            assert_eq!(
                out.activity[r].total(Activity::Compute),
                (r as u64 + 1) * 10
            );
        }
    }

    #[test]
    fn alarm_wakes_parked_rank() {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        handle.wake_rank_at(500, 0);
        let out = sim
            .run(SimOpts::default(), |ctx| {
                ctx.park();
                assert_eq!(ctx.now(), 500);
            })
            .unwrap();
        assert_eq!(out.end_time, 500);
    }

    #[test]
    fn park_records_library_wait() {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        handle.wake_rank_at(200, 0);
        let out = sim
            .run(SimOpts::default(), |ctx| {
                ctx.park();
            })
            .unwrap();
        assert_eq!(out.activity[0].total(Activity::LibraryWait), 200);
    }

    #[test]
    fn deadlock_detected() {
        let sim = Simulation::new(2);
        let err = sim
            .run(SimOpts::default(), |ctx| {
                if ctx.rank() == 0 {
                    ctx.park(); // nobody will ever wake rank 0
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { parked, .. } => assert_eq!(parked, vec![0]),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn rank_panic_propagates() {
        let sim = Simulation::new(2);
        let err = sim
            .run(SimOpts::default(), |ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
                ctx.compute(10);
            })
            .unwrap_err();
        match err {
            SimError::RankPanic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }

    #[test]
    fn chained_tokens_keep_time_order() {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        handle.set_token_handler(|h, tok| {
            assert_eq!(h.now(), tok);
            if tok == 10 {
                h.schedule_token(h.now() + 5, 15);
            } else {
                h.wake_rank(0);
            }
        });
        handle.schedule_token(10, 10);
        let out = sim
            .run(SimOpts::default(), |ctx| {
                ctx.park();
                assert_eq!(ctx.now(), 15);
            })
            .unwrap();
        assert_eq!(out.end_time, 15);
    }

    #[test]
    fn event_limit_enforced() {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        // Self-perpetuating token chain.
        handle.set_token_handler(|h, tok| h.schedule_token(h.now() + 1, tok));
        handle.schedule_token(0, 0);
        let err = sim
            .run(
                SimOpts {
                    max_events: Some(100),
                    ..Default::default()
                },
                |ctx| ctx.park(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::EventLimitExceeded { .. }));
    }

    #[test]
    fn wake_is_idempotent_for_parked_rank() {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        handle.set_token_handler(|h, _tok| {
            h.wake_rank(0);
            h.wake_rank(0); // duplicate wake must not break anything
        });
        handle.schedule_token(100, 0);
        let out = sim
            .run(SimOpts::default(), |ctx| {
                ctx.park();
                ctx.compute(1);
            })
            .unwrap();
        assert_eq!(out.end_time, 101);
    }

    #[test]
    fn deterministic_event_order_for_ties() {
        // Five tokens at the same time must run in scheduling order.
        let sim = Simulation::new(1);
        let handle = sim.handle();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        handle.set_token_handler(move |h, tok| {
            seen2.lock().push(tok);
            if tok == 4 {
                h.wake_rank(0);
            }
        });
        for i in 0..5 {
            handle.schedule_token(42, i);
        }
        sim.run(SimOpts::default(), |ctx| ctx.park()).unwrap();
        assert_eq!(&*seen.lock(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "set once")]
    fn a_second_token_handler_panics() {
        let handle = Simulation::new(1).handle();
        handle.set_token_handler(|_h, _tok| {});
        handle.set_token_handler(|_h, _tok| {});
    }

    #[test]
    fn tokens_dispatch_through_handler_in_order() {
        let sim = Simulation::new(1);
        let handle = sim.handle();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        handle.set_token_handler(move |h, tok| {
            seen2.lock().push((h.now(), tok));
            if tok == 7 {
                h.wake_rank(0);
            }
        });
        handle.schedule_token(30, 7);
        handle.schedule_token(10, 3);
        handle.schedule_token(10, 4);
        sim.run(SimOpts::default(), |ctx| ctx.park()).unwrap();
        assert_eq!(&*seen.lock(), &[(10, 3), (10, 4), (30, 7)]);
    }

    fn spawn_failure_drains(runtime: RankRuntime) {
        let mut sim = Simulation::new(4);
        sim.inject_spawn_failure(2);
        let handle = sim.handle();
        handle.wake_rank_at(10, 0);
        let err = sim
            .run(
                SimOpts {
                    runtime,
                    ..Default::default()
                },
                |ctx| ctx.compute(1),
            )
            .unwrap_err();
        match err {
            SimError::SpawnFailed { rank, .. } => assert_eq!(rank, 2),
            other => panic!("expected spawn failure, got {other}"),
        }
        assert!(
            handle.shared.inbox.lock().is_empty(),
            "pre-scheduled alarm survived spawn-failure teardown"
        );
        // A handle that outlives the aborted run must see quiesced ranks:
        // waking one is a no-op, not a stale queue entry.
        handle.wake_rank(0);
        handle.wake_rank(3);
    }

    #[test]
    fn spawn_failure_teardown_is_drained_coroutine() {
        spawn_failure_drains(RankRuntime::Coroutine);
    }

    #[test]
    fn spawn_failure_teardown_is_drained_threads() {
        spawn_failure_drains(RankRuntime::OsThreads);
    }

    fn teardown_runs_rank_destructors(runtime: RankRuntime) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let drops2 = Arc::clone(&drops);
        let sim = Simulation::new(3);
        let err = sim
            .run(
                SimOpts {
                    runtime,
                    ..Default::default()
                },
                move |ctx| {
                    let _guard = Guard(Arc::clone(&drops2));
                    if ctx.rank() == 2 {
                        ctx.compute(5);
                        panic!("boom");
                    }
                    ctx.park(); // never woken; torn down by the panic
                },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::RankPanic { rank: 2, .. }));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            3,
            "every rank's stack-held guard must be dropped on teardown"
        );
    }

    #[test]
    fn teardown_runs_rank_destructors_coroutine() {
        teardown_runs_rank_destructors(RankRuntime::Coroutine);
    }

    #[test]
    fn teardown_runs_rank_destructors_threads() {
        teardown_runs_rank_destructors(RankRuntime::OsThreads);
    }

    #[test]
    fn runtimes_agree_on_mixed_workload() {
        fn run_with(runtime: RankRuntime) -> (Time, u64, String) {
            let sim = Simulation::new(4);
            let handle = sim.handle();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let seen2 = Arc::clone(&seen);
            handle.set_token_handler(move |h, tok| {
                seen2.lock().push(tok);
                h.wake_rank((tok % 4) as usize);
            });
            for i in 0..8 {
                handle.schedule_token(100 + 40 * i, i);
            }
            let out = sim
                .run(
                    SimOpts {
                        runtime,
                        ..Default::default()
                    },
                    |ctx| {
                        for _ in 0..2 {
                            ctx.compute(10 * (ctx.rank() as u64 + 1));
                            ctx.park();
                        }
                    },
                )
                .unwrap();
            let tokens = seen.lock().clone();
            (
                out.end_time,
                out.events_processed,
                format!("{:?} {:?}", out.activity, tokens),
            )
        }
        assert_eq!(
            run_with(RankRuntime::Coroutine),
            run_with(RankRuntime::OsThreads)
        );
    }
}
