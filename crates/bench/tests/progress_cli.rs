//! The `--progress` flag's CLI contract: unknown models exit 2 with a
//! one-line message (mirroring `--topology`), the flag composes with
//! `--topology` and `--jobs`, and stdout under an overridden model stays
//! byte-identical across `--jobs` values.

use std::process::Command;

use simmpi::ProgressModel;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_progress_model_exits_2_with_one_line_message() {
    for args in [
        &["--progress", "bogus", "fig03"][..],
        &["--progress=async-rank:interval=0", "fig03"][..],
        &["--progress"][..],
    ] {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?} should print exactly one line: {stderr:?}"
        );
        assert!(
            stderr.starts_with("repro: "),
            "{args:?} message missing the repro prefix: {stderr:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} should produce no stdout on a usage error"
        );
    }
}

#[test]
fn progress_flag_parses_and_composes_with_topology_and_jobs() {
    let figures = bench::figures::all();
    let ablations = bench::ablations::all();
    let args: Vec<String> = [
        "--progress",
        "async-rank:interval=2500",
        "--topology",
        "fat-tree:k=8",
        "--jobs",
        "2",
        "ablation-eager",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cli = bench::runner::parse_cli(&args, &figures, &ablations).unwrap();
    assert_eq!(
        cli.progress,
        Some(ProgressModel::AsyncRank {
            poll_interval: 2_500
        })
    );
    assert_eq!(cli.topology, Some(simnet::TopologySpec::FatTree { k: 8 }));
    assert_eq!(cli.jobs, 2);

    let cli =
        bench::runner::parse_cli(&["--progress=hw-tag".to_string()], &figures, &ablations).unwrap();
    assert_eq!(cli.progress, Some(ProgressModel::HwTag));

    let cli = bench::runner::parse_cli(&["fig04".to_string()], &figures, &ablations).unwrap();
    assert_eq!(cli.progress, None, "no flag, no override");

    let err = bench::runner::parse_cli(&["--progress=frob".to_string()], &figures, &ablations)
        .unwrap_err();
    assert!(err.contains("frob"), "error must name the model: {err}");
}

/// One binary invocation per jobs value, overridden model, two harnesses so
/// the worker pool actually interleaves: stdout must not change.
#[test]
fn overridden_model_stdout_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        let out = repro(&[
            "--progress",
            "async-rank",
            "--jobs",
            jobs,
            "ablation-eager",
            "ablation-queue",
        ]);
        assert!(out.status.success(), "repro failed: {:?}", out.status);
        String::from_utf8(out.stdout).unwrap()
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial, parallel, "worker count leaked into the output");
    assert!(serial.contains("== ablation-eager"));
    assert!(serial.contains("== ablation-queue"));
}

fn stdout_of(args: &[&str]) -> String {
    let out = repro(args);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {:?}",
        out.status
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The override must actually reach the harnesses: the same selection under
/// another model differs from the default polling output (the async progress
/// fiber steals compute cycles; NIC matching moves the NAS kernels' bounds).
/// `extra-bins` is the NAS path, which once ran on its bare paper
/// environment and ignored the flag.
#[test]
fn progress_override_changes_harness_output() {
    for (model, id) in [("async-rank", "ablation-eager"), ("hw-tag", "extra-bins")] {
        assert_ne!(
            stdout_of(&[id]),
            stdout_of(&["--progress", model, id]),
            "--progress {model} {id} produced byte-identical output to polling"
        );
    }
}

/// A harness pins the dimension it sweeps: the flag must not clobber
/// `ablation-progress`'s per-row model (it once printed four identical
/// blocks under four labels) nor `ablation-topology`'s per-row fabric.
#[test]
fn a_harness_keeps_the_dimension_it_sweeps() {
    for (flag, value, id) in [
        ("--progress", "hw-tag", "ablation-progress"),
        ("--topology", "fat-tree:k=8", "ablation-topology"),
    ] {
        assert_eq!(
            stdout_of(&[id]),
            stdout_of(&[flag, value, id]),
            "{flag} {value} changed {id}, which sweeps that dimension itself"
        );
    }
}
