//! The `nas` binary refuses a process count a kernel cannot decompose the
//! way it refuses an unknown benchmark: one line on stderr and exit 2,
//! never a panic.

use std::process::Command;

#[test]
fn bad_process_counts_get_one_line_and_exit_2() {
    for (args, requirement) in [
        (["bt", "S", "5"], "square"),
        (["cg", "S", "6"], "power-of-two"),
        (["mg-mpi", "S", "3"], "power-of-two"),
        (["bt", "S", "0"], "at least one"),
        (["bt", "S", "x"], "must be a number"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nas"))
            .args(args)
            .output()
            .expect("nas runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(requirement), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
