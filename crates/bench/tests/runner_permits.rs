//! A panic unwinding through the runner must hand its worker permits back.
//!
//! In its own file (its own process): the budget is process-global and the
//! tests in `runner_determinism.rs` call `set_jobs` unguarded.

use std::collections::HashSet;
use std::sync::Mutex;
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
