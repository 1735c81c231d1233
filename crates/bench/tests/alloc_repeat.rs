//! `repro --jobs 1 --json` charges each harness the allocator calls of its
//! own run, so the per-harness figures repeat exactly from run to run. The
//! printing thread must allocate nothing inside a harness's window: the
//! worker renders after its closing snapshot, the runner's result vector
//! exists before the first harness starts, and stdout's buffer is taken
//! before any harness runs.

use std::process::Command;

const HARNESSES: [&str; 3] = ["fig03", "ablation-eager", "extra-nic-timestamps"];

/// `(id, alloc_calls)` per harness of one `repro --jobs 1 --json` run.
fn alloc_calls(run: usize) -> Vec<(String, u64)> {
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("alloc-repeat-{run}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--jobs", "1", "--json"])
        .arg(&path)
        .args(HARNESSES)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro failed: {out:?}");
    let text = std::fs::read_to_string(&path).expect("report written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("report parses");
    v["harnesses"]
        .as_array()
        .unwrap()
        .iter()
        .map(|h| {
            let id = h["id"].as_str().unwrap().to_string();
            (id, h["alloc_calls"].as_u64().unwrap())
        })
        .collect()
}

#[test]
fn per_harness_alloc_calls_repeat() {
    let first = alloc_calls(0);
    let ids: Vec<&str> = first.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids, HARNESSES);
    assert!(first.iter().all(|&(_, calls)| calls > 0), "{first:?}");
    for run in 1..3 {
        assert_eq!(alloc_calls(run), first, "run {run} against run 0");
    }
}
