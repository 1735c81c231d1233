//! `compare <older> <newer>`: the per-metric, per-workload delta table.
//!
//! A metric is **worse** only when its value moved the wrong way by more than
//! max(its bound, the older record's own inter-quartile spread); it is
//! **unresolved** when a record's spread exceeds the bound and the two
//! records' samples overlap, so the runs cannot tell the commits apart.
//! Exit 0 when nothing is worse, 1 when something is, 2 when the inputs
//! cannot be compared (unreadable, other schema, different workloads).

use std::path::Path;

use crate::record::{LayersRecord, Metric, Record, SCHEMA};
use crate::workloads::WORKLOADS;

/// `compare`'s judgement of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn rel_spread(m: &Metric) -> f64 {
    if m.value == 0.0 {
        0.0
    } else {
        (m.q3 - m.q1).abs() / m.value.abs()
    }
}

fn range(m: &Metric) -> (f64, f64) {
    m.samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// How far `newer` moved the wrong way, as a share of `older` (negative when
/// it improved).
fn worse_by(older: &Metric, newer: &Metric) -> f64 {
    let d = if older.better == "higher" {
        older.value - newer.value
    } else {
        newer.value - older.value
    };
    if older.value != 0.0 {
        d / older.value.abs()
    } else if d == 0.0 {
        0.0
    } else {
        d.signum() * f64::INFINITY
    }
}

pub fn judge(older: &Metric, newer: &Metric) -> Verdict {
    let moved = worse_by(older, newer);
    let threshold = older.bound.max(rel_spread(older));
    if moved > threshold {
        return Verdict::Worse;
    }
    let (alo, ahi) = range(older);
    let (blo, bhi) = range(newer);
    let overlap = alo <= bhi && blo <= ahi;
    if rel_spread(older).max(rel_spread(newer)) > older.bound && overlap {
        return Verdict::Unresolved;
    }
    if moved < -threshold {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One record file: a workload's, or the layer rows'.
enum Loaded {
    Workload(Box<Record>),
    Layers(LayersRecord),
}

fn load(path: &Path) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: not JSON: {e}", path.display()))?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some(SCHEMA) => {}
        other => {
            return Err(format!(
                "{}: schema {other:?}, this benchmark compares {SCHEMA:?}",
                path.display()
            ))
        }
    }
    let parsed = if v.get("rows").is_some() {
        serde_json::from_str(&text).map(Loaded::Layers)
    } else {
        serde_json::from_str(&text).map(|r| Loaded::Workload(Box::new(r)))
    };
    parsed.map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two workload records; true when any metric is worse.
fn compare_workload(a: &Record, b: &Record) -> Result<bool, String> {
    if a.workload != b.workload {
        return Err(format!(
            "workload mismatch: {} against {}",
            a.workload, b.workload
        ));
    }
    println!(
        "{}: {} ({} passes, seed {}) -> {} ({} passes, seed {})",
        a.workload, a.host.git_commit, a.passes, a.seed, b.host.git_commit, b.passes, b.seed
    );
    if a.passes != b.passes {
        println!("  note: the records rest on different numbers of passes");
    }
    println!(
        "  {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "metric", "older", "newer", "delta", "bound", "spread"
    );
    let mut any_worse = false;
    for m in &a.metrics {
        let Some(n) = b.metric(&m.name) else {
            println!("  {:<22} missing from the newer record", m.name);
            continue;
        };
        let verdict = judge(m, n);
        any_worse |= verdict == Verdict::Worse;
        let delta = if m.value != 0.0 {
            format!("{:+.1}%", 100.0 * (n.value - m.value) / m.value.abs())
        } else {
            format!("{:+}", n.value - m.value)
        };
        println!(
            "  {:<22} {:>14.4} {:>14.4} {:>8} {:>6.1}% {:>6.1}%  {} ({} is better, {})",
            m.name,
            m.value,
            n.value,
            delta,
            100.0 * m.bound,
            100.0 * rel_spread(m),
            verdict.label(),
            m.better,
            m.unit,
        );
    }
    let digests = if a.output_digest == b.output_digest {
        "match"
    } else if a.seed != b.seed {
        "differ (different seeds)"
    } else {
        "MISMATCH"
    };
    println!(
        "  output_digest {} / {}: {digests}",
        a.output_digest, b.output_digest
    );
    Ok(any_worse)
}

/// Layer rows have no bound: the table shows the movement and judges nothing.
fn compare_layers(a: &LayersRecord, b: &LayersRecord) {
    println!("layers: {} -> {}", a.host.git_commit, b.host.git_commit);
    println!(
        "  {:<44} {:>14} {:>14} {:>8}  unit",
        "row", "older", "newer", "delta"
    );
    for r in &a.rows {
        let Some(n) = b.rows.iter().find(|n| n.name == r.name) else {
            println!("  {:<44} missing from the newer record", r.name);
            continue;
        };
        let delta = if r.value != 0.0 {
            format!("{:+.1}%", 100.0 * (n.value - r.value) / r.value.abs())
        } else {
            "-".to_string()
        };
        println!(
            "  {:<44} {:>14.4} {:>14.4} {:>8}  {}",
            r.name, r.value, n.value, delta, r.unit
        );
    }
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    match (load(a)?, load(b)?) {
        (Loaded::Workload(a), Loaded::Workload(b)) => compare_workload(&a, &b),
        (Loaded::Layers(a), Loaded::Layers(b)) => {
            compare_layers(&a, &b);
            Ok(false)
        }
        _ => Err(format!(
            "{} and {} are records of different kinds",
            a.display(),
            b.display()
        )),
    }
}

fn compare_paths(a: &Path, b: &Path) -> Result<bool, String> {
    if !(a.is_dir() && b.is_dir()) {
        return compare_files(a, b);
    }
    let mut any_worse = false;
    for w in WORKLOADS {
        let name = format!("{w}.json");
        any_worse |= compare_files(&a.join(&name), &b.join(&name))?;
        println!();
    }
    let (la, lb) = (a.join("layers.json"), b.join("layers.json"));
    if la.exists() && lb.exists() {
        compare_files(&la, &lb)?;
    }
    Ok(any_worse)
}

/// Entry point; returns the process exit code.
pub fn run(a: &Path, b: &Path) -> i32 {
    match compare_paths(a, b) {
        Ok(false) => 0,
        Ok(true) => 1,
        Err(msg) => {
            eprintln!("benchmark compare: {msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64, samples: &[f64]) -> Metric {
        let (q1, q3) = crate::stats::quartiles(samples);
        Metric {
            name: "m".into(),
            unit: "s".into(),
            better: better.into(),
            bound,
            value: crate::stats::median(samples),
            n: samples.len() as u64,
            samples: samples.to_vec(),
            q1,
            q3,
        }
    }

    #[test]
    fn worse_needs_to_pass_bound_and_older_spread() {
        let old = metric("lower", 0.10, &[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(
            judge(&old, &metric("lower", 0.10, &[1.05, 1.06, 1.05])),
            Verdict::Same
        );
        assert_eq!(
            judge(&old, &metric("lower", 0.10, &[1.20, 1.21, 1.19])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&old, &metric("lower", 0.10, &[0.80, 0.81, 0.79])),
            Verdict::Better
        );
        // A noisy older record raises the bar above the bound.
        let noisy = metric("lower", 0.10, &[0.7, 1.0, 1.3, 1.0, 0.8, 1.2]);
        assert_eq!(
            judge(&noisy, &metric("lower", 0.10, &[1.20, 1.21, 1.19])),
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_flips_direction() {
        let old = metric("higher", 0.10, &[100.0, 101.0, 99.0]);
        assert_eq!(
            judge(&old, &metric("higher", 0.10, &[80.0, 81.0, 79.0])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&old, &metric("higher", 0.10, &[130.0, 131.0])),
            Verdict::Better
        );
    }

    #[test]
    fn zero_bound_means_any_increase() {
        let old = metric("lower", 0.0, &[0.0]);
        assert_eq!(judge(&old, &metric("lower", 0.0, &[0.0])), Verdict::Same);
        assert_eq!(judge(&old, &metric("lower", 0.0, &[0.5])), Verdict::Worse);
    }

    #[test]
    fn wide_spread_with_overlap_is_unresolved() {
        let old = metric("lower", 0.10, &[1.0, 1.4, 0.8, 1.2, 0.9, 1.3]);
        let new = metric("lower", 0.10, &[1.1, 1.0, 1.2]);
        assert_eq!(judge(&old, &new), Verdict::Unresolved);
    }
}
