//! A panic unwinding through the runner must hand its worker permits back,
//! and keep its message.
//!
//! In its own file (its own process): the budget is process-global and the
//! tests in `runner_determinism.rs` call `set_jobs` unguarded. The tests here
//! take one lock for the same reason.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bench::{runner, Harness, HarnessKind, Series};

fn quiet() -> Series {
    Series {
        id: "quiet",
        title: String::new(),
        columns: Vec::new(),
        rows: Vec::new(),
    }
}

fn boom() -> Series {
    panic!("boom")
}

fn budget() -> MutexGuard<'static, ()> {
    static BUDGET: Mutex<()> = Mutex::new(());
    BUDGET.lock().unwrap_or_else(|e| e.into_inner())
}

/// Distinct threads a 4-item `par_map` runs on. Each item holds its thread
/// until a second one has shown up (or a deadline passes), so one fast thread
/// cannot drain the queue alone when workers were granted.
fn par_map_threads() -> usize {
    let seen = Mutex::new(HashSet::new());
    let deadline = Instant::now() + Duration::from_secs(2);
    runner::par_map(&[(); 4], |_| {
        seen.lock().unwrap().insert(std::thread::current().id());
        while seen.lock().unwrap().len() < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    seen.into_inner().unwrap().len()
}

#[test]
fn panics_return_worker_permits() {
    let _g = budget();
    // A budget of 2 is what the two-harness selection takes whole: leaking it
    // leaves nothing, and every later `par_map` runs inline.
    runner::set_jobs(2);
    let selection = [
        Harness::new("quiet", HarnessKind::Figure, 1, quiet),
        Harness::new("boom", HarnessKind::Figure, 1, boom),
    ];
    let caught = std::panic::catch_unwind(|| runner::run_harnesses(&selection, |_| {}));
    assert!(caught.is_err(), "the harness panic must propagate");
    assert!(
        par_map_threads() > 1,
        "run_harnesses leaked its permits on panic"
    );

    let caught = std::panic::catch_unwind(|| {
        runner::par_map(&[0, 1, 2], |i| assert!(*i != 1, "boom"));
    });
    assert!(caught.is_err(), "the item panic must propagate");
    assert!(par_map_threads() > 1, "par_map leaked its permits on panic");
}

/// A grid point that deadlocks on a worker thread must reach the caller with
/// its message: `repro` exits 3 on "simulated deadlock", not 101.
#[test]
fn a_worker_panic_keeps_its_message() {
    let _g = budget();
    runner::set_jobs(4);
    let caller = std::thread::current().id();
    let worker_ran = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(2);
    let caught = std::panic::catch_unwind(|| {
        runner::par_map(&[(); 8], |_| {
            if std::thread::current().id() != caller {
                worker_ran.store(true, Ordering::SeqCst);
                panic!("simulated deadlock at t=0ns: on a worker");
            }
            // Hold the calling thread until a worker has taken an item.
            while !worker_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        })
    });
    let payload = caught.expect_err("the worker panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.starts_with("simulated deadlock"),
        "payload lost: {msg:?}"
    );
}
