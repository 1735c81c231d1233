//! Interpretation of the derived measures (paper Sec. 2.3).
//!
//! The bounds are only useful if a developer can act on them. This module
//! encodes the paper's interpretation guidance as an analyzer: given a
//! per-process [`OverlapReport`], it emits findings that point at the
//! message populations costing the most un-overlapped communication time and
//! at the protocol signatures behind them (blocking call patterns, progress
//! starvation, buffered-send headroom).

use serde::{Deserialize, Serialize};

use crate::report::OverlapReport;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational observation.
    Info,
    /// Worth investigating.
    Notice,
    /// A significant performance opportunity.
    Warning,
}

/// One diagnostic finding derived from a report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finding {
    /// How loud to be.
    pub severity: Severity,
    /// Stable identifier of the rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation with the relevant numbers.
    pub message: String,
}

/// Fraction of elapsed time above which non-overlapped communication is
/// flagged as a major cost.
const MAJOR_COST_FRACTION: f64 = 0.10;
/// Overlap-percentage gap (max − min) above which the estimate is called
/// too loose to act on.
const LOOSE_BOUNDS_GAP: f64 = 40.0;
/// Minimum transfers in a bin before it is reported.
const MIN_BIN_TRANSFERS: u64 = 3;

fn pct_of(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Analyze a report and return findings, most severe first.
pub fn analyze(report: &OverlapReport) -> Vec<Finding> {
    let mut findings = Vec::new();
    let t = &report.total;
    if t.transfers == 0 {
        findings.push(Finding {
            severity: Severity::Info,
            rule: "no-transfers",
            message: "no data transfers were observed; nothing to analyze".into(),
        });
        return findings;
    }

    // Paper Sec. 2.3 measure 1: data_transfer_time − max_overlap is a hard
    // floor on communication that was NOT hidden.
    let non_overlapped = t.nonoverlapped_min();
    let frac = non_overlapped as f64 / report.elapsed.max(1) as f64;
    if frac > MAJOR_COST_FRACTION {
        findings.push(Finding {
            severity: Severity::Warning,
            rule: "non-overlapped-major-cost",
            message: format!(
                "at least {:.2} ms of communication ({:.0}% of elapsed time) was provably \
                 not overlapped with computation",
                non_overlapped as f64 / 1e6,
                frac * 100.0
            ),
        });
    }

    // Which message-size population hurts most?
    if let Some((label, bin)) = report
        .bin_labels
        .iter()
        .zip(&report.by_bin)
        .filter(|(_, b)| b.transfers >= MIN_BIN_TRANSFERS)
        .max_by_key(|(_, b)| b.nonoverlapped_min())
    {
        if bin.nonoverlapped_min() > 0 {
            findings.push(Finding {
                severity: Severity::Notice,
                rule: "worst-size-bin",
                message: format!(
                    "messages of size {} account for the largest non-overlapped share: \
                     {:.2} ms across {} transfers (overlap {:.0}–{:.0}%)",
                    label,
                    bin.nonoverlapped_min() as f64 / 1e6,
                    bin.transfers,
                    bin.min_pct(),
                    bin.max_pct()
                ),
            });
        }
    }

    // Case-1 dominance: initiation and completion inside single calls means
    // blocking call structure — no overlap is even attempted.
    if pct_of(t.case_same_call, t.transfers) > 50.0 {
        findings.push(Finding {
            severity: Severity::Warning,
            rule: "blocking-call-structure",
            message: format!(
                "{} of {} transfers began and completed inside one library call; the call \
                 structure never exposes an overlap window (consider non-blocking \
                 initiation with deferred waits)",
                t.case_same_call, t.transfers
            ),
        });
    }

    // Progress starvation signature: split-call transfers whose max bound is
    // healthy but min is ~zero — the window existed but the library could
    // not prove any progress happened during it (the paper's SP case; fixed
    // by driving the progress engine, e.g. MPI_Iprobe).
    if t.case_split_calls > 0 && t.max_pct() - t.min_pct() > LOOSE_BOUNDS_GAP {
        findings.push(Finding {
            severity: Severity::Notice,
            rule: "progress-starvation-suspected",
            message: format!(
                "overlap bounds are far apart (min {:.0}%, max {:.0}%): the computation \
                 windows exist but transfers may not progress during them; invoking the \
                 progress engine inside computation (e.g. sprinkled MPI_Iprobe) may \
                 realize the overlap",
                t.min_pct(),
                t.max_pct()
            ),
        });
    }

    // Healthy case: proven overlap.
    if t.min_pct() > 80.0 {
        findings.push(Finding {
            severity: Severity::Info,
            rule: "proven-overlap",
            message: format!(
                "at least {:.0}% of transfer time is proven overlapped — {:.2} ms of \
                 communication cost hidden",
                t.min_pct(),
                t.min_overlap as f64 / 1e6
            ),
        });
    }

    // Per-section drill-down: sections markedly worse than the whole run.
    for (name, sec) in &report.sections {
        if sec.total.transfers >= MIN_BIN_TRANSFERS && sec.total.max_pct() + 20.0 < t.max_pct() {
            findings.push(Finding {
                severity: Severity::Notice,
                rule: "section-below-baseline",
                message: format!(
                    "section '{name}' overlaps at most {:.0}% vs {:.0}% overall — a \
                     targeted tuning candidate",
                    sec.total.max_pct(),
                    t.max_pct()
                ),
            });
        }
    }

    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

/// Render findings as a bulleted text block.
pub fn render(findings: &[Finding]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for f in findings {
        let tag = match f.severity {
            Severity::Warning => "WARN",
            Severity::Notice => "note",
            Severity::Info => "info",
        };
        let _ = writeln!(s, "[{tag}] ({}) {}", f.rule, f.message);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::OverlapBounds;
    use crate::report::{OverlapStats as Stats, SectionReport};

    fn base_report() -> OverlapReport {
        OverlapReport {
            rank: 0,
            elapsed: 100_000_000,
            user_compute_time: 80_000_000,
            comm_call_time: 20_000_000,
            total: Stats::default(),
            bin_labels: vec!["<1K".into(), ">=1K".into()],
            by_bin: vec![Stats::default(), Stats::default()],
            sections: Default::default(),
            calls: Default::default(),
            events_recorded: 0,
            queue_flushes: 0,
            anomalies: Default::default(),
            metrics: Default::default(),
        }
    }

    fn add(stats: &mut Stats, n: u64, xfer: u64, b: OverlapBounds) {
        for _ in 0..n {
            stats.add_bounds(100, xfer, b);
        }
    }

    #[test]
    fn empty_report_yields_no_transfers_info() {
        let f = analyze(&base_report());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-transfers");
    }

    #[test]
    fn blocking_structure_flagged() {
        let mut r = base_report();
        add(&mut r.total, 10, 3_000_000, OverlapBounds::same_call());
        add(&mut r.by_bin[1], 10, 3_000_000, OverlapBounds::same_call());
        let f = analyze(&r);
        assert!(f.iter().any(|x| x.rule == "blocking-call-structure"));
        assert!(f.iter().any(|x| x.rule == "non-overlapped-major-cost"));
        // Most severe first.
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn progress_starvation_signature() {
        let mut r = base_report();
        // Window existed (max high) but min ~0: case-2 with big noncomp.
        let b = OverlapBounds::split_calls(1_000_000, 2_000_000, 1_000_000);
        assert_eq!(b.min, 0);
        assert_eq!(b.max, 1_000_000);
        add(&mut r.total, 5, 1_000_000, b);
        add(&mut r.by_bin[1], 5, 1_000_000, b);
        let f = analyze(&r);
        assert!(f.iter().any(|x| x.rule == "progress-starvation-suspected"));
    }

    #[test]
    fn proven_overlap_reported() {
        let mut r = base_report();
        let b = OverlapBounds::split_calls(1_000_000, 5_000_000, 10_000);
        add(&mut r.total, 5, 1_000_000, b);
        add(&mut r.by_bin[0], 5, 1_000_000, b);
        let f = analyze(&r);
        assert!(f.iter().any(|x| x.rule == "proven-overlap"));
        assert!(!f.iter().any(|x| x.rule == "blocking-call-structure"));
    }

    #[test]
    fn lagging_section_flagged() {
        let mut r = base_report();
        let good = OverlapBounds::split_calls(1_000_000, 5_000_000, 10_000);
        add(&mut r.total, 20, 1_000_000, good);
        add(&mut r.by_bin[0], 20, 1_000_000, good);
        let mut sec = SectionReport::default();
        add(&mut sec.total, 5, 1_000_000, OverlapBounds::same_call());
        r.sections.insert("copy_faces".into(), sec);
        let f = analyze(&r);
        let hit = f
            .iter()
            .find(|x| x.rule == "section-below-baseline")
            .unwrap();
        assert!(hit.message.contains("copy_faces"));
    }

    #[test]
    fn render_includes_rules() {
        let f = vec![Finding {
            severity: Severity::Warning,
            rule: "test-rule",
            message: "hello".into(),
        }];
        let text = render(&f);
        assert!(text.contains("[WARN]"));
        assert!(text.contains("test-rule"));
    }

    #[test]
    fn worst_bin_selects_largest_nonoverlap() {
        let mut r = base_report();
        let bad = OverlapBounds::same_call();
        let good = OverlapBounds::split_calls(1_000, 100_000, 10);
        add(&mut r.total, 6, 2_000_000, bad);
        add(&mut r.total, 6, 1_000, good);
        add(&mut r.by_bin[0], 6, 1_000, good);
        add(&mut r.by_bin[1], 6, 2_000_000, bad);
        let f = analyze(&r);
        let hit = f.iter().find(|x| x.rule == "worst-size-bin").unwrap();
        assert!(hit.message.contains(">=1K"), "{}", hit.message);
    }
}
