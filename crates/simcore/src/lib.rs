#![warn(missing_docs)]

//! # simcore — deterministic discrete-event simulation engine
//!
//! `simcore` provides the execution substrate for the overlap-instrumentation
//! suite: a virtual clock, a time-ordered event queue, and a cooperative
//! scheduler that runs each simulated *rank* (process) as a run-to-completion
//! coroutine — a stackful fiber on x86_64 Linux, an OS thread elsewhere or on
//! request (see [`RankRuntime`]) — while guaranteeing **strictly sequential,
//! fully deterministic** execution either way.
//!
//! ## Execution model
//!
//! Application code is written in ordinary imperative style (like an MPI
//! program). A rank interacts with virtual time through its [`RankCtx`]:
//!
//! * [`RankCtx::compute`] / [`RankCtx::busy`] advance the rank's local view of
//!   time while attributing the interval to an [`Activity`] kind (user
//!   computation, in-library processing, ...),
//! * [`RankCtx::park`] blocks the rank until some event handler calls
//!   [`EngineHandle::wake_rank`] — this is how polling progress engines sleep
//!   until "the next event that touches my NIC"; [`RankCtx::park_with`] also
//!   takes a closure the engine runs only if the simulation deadlocks with
//!   the rank still parked, to say what it was blocked on,
//! * [`EngineHandle::schedule_at`] schedules a state-mutating callback at a
//!   future virtual time (used by the network model for packet deliveries and
//!   DMA completions).
//!
//! Exactly one rank or event callback executes at any moment; ties in the
//! event queue are broken by a monotonically increasing sequence number, so a
//! simulation is a deterministic function of its inputs.
//!
//! ## Ground truth
//!
//! Each rank records an [`ActivityLog`] of `(start, end, kind)` intervals.
//! Combined with the network layer's physical transfer intervals this yields
//! the *true* computation-communication overlap, which the instrumentation
//! framework's min/max bounds are validated against — something the original
//! paper could not do on real hardware.
//!
//! ## Schedule exploration
//!
//! The fixed tie-break policy is one schedule out of many a real system
//! could exhibit. Installing a [`ScheduleOracle`] (via
//! [`EngineHandle::set_oracle`]) turns every tie-break into an explicit,
//! recorded choice point, so a model checker can enumerate, randomize, or
//! replay schedules — see the [`oracle`] module.
//!
//! ## Example
//!
//! ```
//! use simcore::{SimOpts, Simulation};
//!
//! let sim = Simulation::new(2);
//! let handle = sim.handle();
//! // An event at t = 500 ns wakes rank 1 from its park.
//! handle.schedule_at(500, |h| h.wake_rank(1));
//! let out = sim
//!     .run(SimOpts::default(), |ctx| {
//!         if ctx.rank() == 0 {
//!             ctx.compute(300); // 300 ns of virtual computation
//!         } else {
//!             ctx.park(); // blocked until the event fires
//!         }
//!     })
//!     .unwrap();
//! assert_eq!(out.end_time, 500);
//! ```

mod engine;
mod error;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) mod fiber;
mod intervals;
pub mod oracle;
mod rank;
pub mod sched;
mod time;
mod truth;

pub use engine::{EngineHandle, RankRuntime, SimOpts, SimOutcome, Simulation};
pub use error::{RankDiag, SimError};
pub use oracle::{
    ChoicePoint, ChoiceRec, OracleHandle, RandomOracle, ReplayOracle, ScheduleOracle,
};
pub use rank::RankCtx;
pub use time::{ms, ns, us, Duration, Time};
pub use truth::{Activity, ActivityLog};
