//! Schedule-independent invariants of the overlap framework.
//!
//! The schedule explorer (`bench repro explore`) perturbs event ordering,
//! progress-poll drain order and fault timing, then checks every explored
//! schedule against these invariants: properties that must hold for *any*
//! legal interleaving. A violation means the instrumentation produced an
//! unsound report on that schedule — the explorer shrinks the offending
//! choice sequence to a minimal counterexample.

use crate::report::{OverlapReport, OverlapStats};

/// One failed invariant check on an explored schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Short machine-readable name of the failed check
    /// (e.g. `"min_le_max"`, `"confidence_range"`).
    check: String,
    /// Human-readable detail: where the numbers disagreed and by how much.
    detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

fn check_stats(scope: &str, s: &OverlapStats, out: &mut Vec<Violation>) {
    if s.min_overlap > s.max_overlap {
        out.push(Violation {
            check: "min_le_max".into(),
            detail: format!(
                "{scope}: min_overlap {} > max_overlap {}",
                s.min_overlap, s.max_overlap
            ),
        });
    }
    if s.max_overlap > s.data_transfer_time {
        out.push(Violation {
            check: "max_le_xfer".into(),
            detail: format!(
                "{scope}: max_overlap {} > data_transfer_time {}",
                s.max_overlap, s.data_transfer_time
            ),
        });
    }
    let cases = s.case_same_call + s.case_split_calls + s.case_single_stamp;
    if cases != s.transfers {
        out.push(Violation {
            check: "case_partition".into(),
            detail: format!(
                "{scope}: case counts {cases} ({} + {} + {}) != transfers {}",
                s.case_same_call, s.case_split_calls, s.case_single_stamp, s.transfers
            ),
        });
    }
    if s.flagged > s.transfers {
        out.push(Violation {
            check: "flagged_le_transfers".into(),
            detail: format!("{scope}: flagged {} > transfers {}", s.flagged, s.transfers),
        });
    }
    let c = s.confidence();
    if !c.is_finite() || !(0.0..=1.0).contains(&c) {
        out.push(Violation {
            check: "confidence_range".into(),
            detail: format!("{scope}: confidence {c} outside [0, 1]"),
        });
    }
}

/// Check every schedule-independent invariant of one per-rank report (the
/// list is on [`check_reports`]).
fn check_report(r: &OverlapReport) -> Vec<Violation> {
    let mut out = Vec::new();
    check_stats(&format!("rank {} total", r.rank), &r.total, &mut out);
    let mut bin_sum = OverlapStats::default();
    for (i, b) in r.by_bin.iter().enumerate() {
        let label = r
            .bin_labels
            .get(i)
            .map(String::as_str)
            .unwrap_or("<unlabeled>");
        check_stats(&format!("rank {} bin {label}", r.rank), b, &mut out);
        bin_sum.merge(b);
    }
    if !r.by_bin.is_empty() {
        for (name, got, want) in [
            ("transfers", bin_sum.transfers, r.total.transfers),
            ("bytes", bin_sum.bytes, r.total.bytes),
            (
                "data_transfer_time",
                bin_sum.data_transfer_time,
                r.total.data_transfer_time,
            ),
            ("min_overlap", bin_sum.min_overlap, r.total.min_overlap),
            ("max_overlap", bin_sum.max_overlap, r.total.max_overlap),
        ] {
            if got != want {
                out.push(Violation {
                    check: "bin_sum".into(),
                    detail: format!(
                        "rank {}: Σ bins {name} = {got} but total {name} = {want}",
                        r.rank
                    ),
                });
            }
        }
    }
    if r.user_compute_time > r.elapsed {
        out.push(Violation {
            check: "compute_le_elapsed".into(),
            detail: format!(
                "rank {}: user_compute_time {} > elapsed {}",
                r.rank, r.user_compute_time, r.elapsed
            ),
        });
    }
    if r.comm_call_time > r.elapsed {
        out.push(Violation {
            check: "call_le_elapsed".into(),
            detail: format!(
                "rank {}: comm_call_time {} > elapsed {}",
                r.rank, r.comm_call_time, r.elapsed
            ),
        });
    }
    out
}

/// Check every schedule-independent invariant of every rank's report.
///
/// Returns all violations found, in rank order (empty = the run is sound):
///
/// * `min_overlap <= max_overlap <= data_transfer_time` — for the totals
///   and every size bin (the bounds must bracket the unknowable truth),
/// * the three transfer cases partition the transfer count,
/// * flagged transfers never exceed the transfer count,
/// * confidence is finite and in `[0, 1]`,
/// * per-bin aggregates sum to the totals (transfers, bytes, bounds),
/// * compute/call time never exceed elapsed virtual time.
pub fn check_reports(reports: &[OverlapReport]) -> Vec<Violation> {
    reports.iter().flat_map(check_report).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_stats() -> OverlapStats {
        OverlapStats {
            transfers: 2,
            bytes: 2048,
            data_transfer_time: 800,
            min_overlap: 300,
            max_overlap: 700,
            case_same_call: 1,
            case_split_calls: 1,
            case_single_stamp: 0,
            flagged: 0,
            clamped: 0,
        }
    }

    fn clean_report() -> OverlapReport {
        OverlapReport {
            rank: 0,
            elapsed: 10_000,
            user_compute_time: 4_000,
            comm_call_time: 1_000,
            total: clean_stats(),
            bin_labels: vec!["0-4K".into()],
            by_bin: vec![clean_stats()],
            sections: Default::default(),
            calls: Default::default(),
            events_recorded: 0,
            queue_flushes: 0,
            anomalies: Default::default(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn clean_report_has_no_violations() {
        assert_eq!(check_report(&clean_report()), Vec::new());
    }

    #[test]
    fn inverted_bounds_are_caught() {
        let mut r = clean_report();
        r.total.min_overlap = 900; // > max 700
        r.by_bin[0].min_overlap = 900;
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.check == "min_le_max"), "{v:?}");
    }

    #[test]
    fn max_beyond_xfer_time_is_caught() {
        let mut r = clean_report();
        r.total.max_overlap = 900; // > data_transfer_time 800
        r.by_bin[0].max_overlap = 900;
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.check == "max_le_xfer"), "{v:?}");
    }

    #[test]
    fn bin_sum_mismatch_is_caught() {
        let mut r = clean_report();
        r.by_bin[0].bytes += 1;
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.check == "bin_sum"), "{v:?}");
    }

    #[test]
    fn case_partition_is_caught() {
        let mut r = clean_report();
        r.total.case_same_call = 0; // 1 + 0 + 0 != 2 transfers
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.check == "case_partition"), "{v:?}");
    }

    #[test]
    fn compute_beyond_elapsed_is_caught() {
        let mut r = clean_report();
        r.user_compute_time = r.elapsed + 1;
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.check == "compute_le_elapsed"), "{v:?}");
    }
}
