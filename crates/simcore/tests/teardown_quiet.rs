//! Tearing a run down must not reach the process's panic hook.
//!
//! In its own file (its own process): the panic hook is process-global, and
//! the test harness's other tests panic on purpose.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simcore::{RankRuntime, SimError, SimOpts, Simulation};

const PARKED: usize = 64;

/// 64 ranks park for good, one more panics: the engine unwinds the 64.
fn run_and_tear_down(runtime: RankRuntime) {
    let err = Simulation::new(PARKED + 1)
        .run(
            SimOpts {
                runtime,
                ..Default::default()
            },
            |ctx| {
                if ctx.rank() == PARKED {
                    ctx.compute(5);
                    panic!("boom");
                }
                ctx.park();
            },
        )
        .unwrap_err();
    assert!(matches!(err, SimError::RankPanic { rank: PARKED, .. }));
}

#[test]
fn teardown_unwinds_never_reach_the_panic_hook() {
    // A first run, so that anything the engine does to the process once is
    // done before the embedding program installs its own hook.
    Simulation::new(1)
        .run(SimOpts::default(), |ctx| ctx.compute(1))
        .unwrap();

    let fired = Arc::new(AtomicUsize::new(0));
    let fired2 = Arc::clone(&fired);
    std::panic::set_hook(Box::new(move |_| {
        fired2.fetch_add(1, Ordering::SeqCst);
    }));
    run_and_tear_down(RankRuntime::Coroutine);
    run_and_tear_down(RankRuntime::OsThreads);
    let _ = std::panic::take_hook();

    assert_eq!(
        fired.load(Ordering::SeqCst),
        2,
        "the hook must see the two real panics and none of the 128 teardown unwinds"
    );
}
