//! Random rank programs built around [`RankCtx::wait`], runnable as written
//! or with every wait spelled out as the unfused sequence it stands for —
//! `busy`, a mailbox check, `park`, `busy` — so a test can hold the two to
//! the same schedule.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use simcore::{
    Activity, ChoiceRec, EngineHandle, OracleHandle, RandomOracle, RankCtx, RankDiag, RankRuntime,
    SimOpts, Simulation, Time,
};

/// A delivery to the waiting rank itself, `at` ns after its poll starts.
#[derive(Debug, Clone, Copy)]
pub enum Ring {
    Never,
    /// Scheduled before the wait: at a tie with the poll's end it pops
    /// first.
    Before(u64),
    /// Scheduled by a token at the poll's start: at a tie with the poll's
    /// end it pops second.
    After(u64),
}

#[derive(Debug, Clone, Copy)]
pub enum Step {
    Compute(u64),
    Wait { after: u64, charge: u64, ring: Ring },
}

/// Heartbeat period: every `BEAT` ns each unfinished rank gets a delivery.
const BEAT: u64 = 50;

/// The heartbeat's token. Every other token is a delivery to the rank in its
/// low 16 bits, made when it pops if the bits above are 0, and scheduled
/// `above - 1` ns later otherwise ([`Ring::After`]).
const HEARTBEAT: u64 = u64::MAX;

/// One rank program. Durations are multiples of 5 ns and deliveries land
/// within 10 ns of the poll's end, so ties with it are common; a quarter of
/// the waits park at once (`after == 0`).
pub fn program() -> impl Strategy<Value = Vec<Step>> {
    let step = (0u8..4, 0u64..4, 1u64..4, 0u8..3, 0u64..5).prop_map(|(kind, a, c, ring, off)| {
        if kind == 0 {
            return Step::Compute((a + 1) * 10);
        }
        let after = a * 10;
        let at = (after + off * 5).saturating_sub(10);
        let ring = match ring {
            0 => Ring::Never,
            1 => Ring::Before(at),
            _ => Ring::After(at),
        };
        Step::Wait {
            after,
            charge: c * 10,
            ring,
        }
    });
    prop::collection::vec(step, 1..12)
}

/// Deliveries scheduled before the run: `(time, rank)`.
pub fn deliveries() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..60, 0usize..4).prop_map(|(t, r)| (t * 5, r)), 0..12)
}

/// Everything a run lets a test compare, `resumes` aside.
#[derive(Debug, PartialEq)]
pub struct Run {
    pub end_time: Time,
    pub events_processed: u64,
    pub activity: Vec<Vec<(Time, Time, Activity)>>,
    /// What each wait returned, per rank.
    pub waits: Vec<Vec<Option<(Time, Time)>>>,
    pub choices: Vec<ChoiceRec>,
}

/// Run `programs` (one per rank) with every wait fused (`RankCtx::wait`) or
/// unfused ([`unfused`]). A heartbeat delivers to every rank every `BEAT` ns
/// until all are done, so no program can wedge.
pub fn run(
    runtime: RankRuntime,
    fused: bool,
    programs: &[Vec<Step>],
    deliveries: &[(u64, usize)],
    oracle_seed: Option<u64>,
) -> (Run, u64) {
    let ranks = programs.len();
    let sim = Simulation::new(ranks);
    let handle = sim.handle();
    let oracle = oracle_seed.map(|seed| OracleHandle::new(Box::new(RandomOracle::new(seed))));
    let mailbox: Arc<Vec<AtomicBool>> =
        Arc::new((0..ranks).map(|_| AtomicBool::new(false)).collect());
    let finished = Arc::new(AtomicUsize::new(0));
    let (mb, done) = (Arc::clone(&mailbox), Arc::clone(&finished));
    handle.set_token_handler(move |h, tok| match tok {
        HEARTBEAT if done.load(Ordering::SeqCst) == ranks => {}
        HEARTBEAT => {
            for r in 0..ranks {
                deliver(h, &mb, r);
            }
            h.schedule_token(h.now() + BEAT, HEARTBEAT);
        }
        _ if tok >> 16 == 0 => deliver(h, &mb, tok as usize),
        _ => h.schedule_token(h.now() + (tok >> 16) - 1, tok & 0xffff),
    });
    for &(t, r) in deliveries {
        handle.schedule_token(t, (r % ranks) as u64);
    }
    handle.schedule_token(BEAT, HEARTBEAT);
    let waits = Arc::new(Mutex::new(vec![Vec::new(); ranks]));
    let sink = Arc::clone(&waits);
    let programs = programs.to_vec();
    let out = sim
        .run(
            SimOpts {
                runtime,
                oracle: oracle.clone(),
                ..SimOpts::default()
            },
            move |ctx| {
                let r = ctx.rank();
                for &step in &programs[r] {
                    let (after, charge, ring) = match step {
                        Step::Compute(d) => {
                            ctx.compute(d);
                            continue;
                        }
                        Step::Wait {
                            after,
                            charge,
                            ring,
                        } => (after, charge, ring),
                    };
                    let h = ctx.handle();
                    match ring {
                        Ring::Never => {}
                        Ring::Before(at) => h.schedule_token(h.now() + at, r as u64),
                        Ring::After(at) => h.schedule_token(h.now(), (at + 1) << 16 | r as u64),
                    }
                    let got = if fused {
                        ctx.wait(after, charge, RankDiag::default)
                    } else {
                        unfused(ctx, &mailbox[r], after, charge)
                    };
                    sink.lock()[r].push(got);
                }
                finished.fetch_add(1, Ordering::SeqCst);
            },
        )
        .expect("the heartbeat keeps every program moving");
    let waits = std::mem::take(&mut *waits.lock());
    let run = Run {
        end_time: out.end_time,
        events_processed: out.events_processed,
        activity: out
            .activity
            .iter()
            .map(|log| log.entries().to_vec())
            .collect(),
        waits,
        choices: oracle.map(|o| o.trace()).unwrap_or_default(),
    };
    (run, out.resumes)
}

/// What `ctx.wait(after, charge, ..)` stands for, spelled out: poll, check
/// the mailbox every delivery during the poll fills, park, charge.
pub fn unfused(
    ctx: &mut RankCtx,
    mailbox: &AtomicBool,
    after: u64,
    charge: u64,
) -> Option<(Time, Time)> {
    mailbox.store(false, Ordering::SeqCst);
    ctx.busy(after, Activity::Library);
    if after > 0 && mailbox.swap(false, Ordering::SeqCst) {
        return None;
    }
    let parked_at = ctx.now();
    ctx.park();
    let woke = ctx.now();
    ctx.busy(charge, Activity::Library);
    Some((parked_at, woke))
}

/// Every delivery fills the rank's mailbox, then rings its doorbell.
fn deliver(h: &EngineHandle, mailbox: &[AtomicBool], r: usize) {
    mailbox[r].store(true, Ordering::SeqCst);
    h.wake_rank(r);
}
