//! Per-process overlap reports — the contents of the "output file with
//! overlap numbers" the framework writes when the application terminates.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::bounds::{OverlapBounds, XferCase};
use crate::metrics::MetricsRegistry;

/// Aggregated overlap measures for a set of transfers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Number of data transfers.
    pub transfers: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Σ a-priori transfer time — the paper's *data transfer time*, ns.
    pub data_transfer_time: u64,
    /// Σ lower bounds — *minimum overlapped transfer time*, ns.
    pub min_overlap: u64,
    /// Σ upper bounds — *maximum overlapped transfer time*, ns.
    pub max_overlap: u64,
    /// Transfers that fell into case 1 (both stamps in one call).
    pub case_same_call: u64,
    /// Transfers that fell into case 2 (stamps in different calls).
    pub case_split_calls: u64,
    /// Transfers that fell into case 3 (single stamp).
    pub case_single_stamp: u64,
    /// Transfers whose observed window diverged from the a-priori model:
    /// explicitly flagged by the library (retransmission) or with an
    /// in-library window far beyond `xfer_time`. Their min bound is degraded
    /// to zero — the a-priori time no longer describes what the wire did.
    pub flagged: u64,
    /// Transfers whose min bound had to be clamped to the observed window
    /// (a-priori table overestimate).
    pub clamped: u64,
}

impl OverlapStats {
    /// Fold one transfer's bounds into the aggregate.
    pub(crate) fn add_bounds(&mut self, bytes: u64, xfer_time: u64, b: OverlapBounds) {
        self.transfers += 1;
        self.bytes += bytes;
        self.data_transfer_time += xfer_time;
        self.min_overlap += b.min;
        self.max_overlap += b.max;
        match b.case {
            XferCase::SameCall => self.case_same_call += 1,
            XferCase::SplitCalls => self.case_split_calls += 1,
            XferCase::SingleStamp => self.case_single_stamp += 1,
        }
    }

    /// Merge another aggregate into this one.
    pub fn merge(&mut self, o: &OverlapStats) {
        self.transfers += o.transfers;
        self.bytes += o.bytes;
        self.data_transfer_time += o.data_transfer_time;
        self.min_overlap += o.min_overlap;
        self.max_overlap += o.max_overlap;
        self.case_same_call += o.case_same_call;
        self.case_split_calls += o.case_split_calls;
        self.case_single_stamp += o.case_single_stamp;
        self.flagged += o.flagged;
        self.clamped += o.clamped;
    }

    /// Note that one of the folded transfers was flagged as fault-disturbed.
    pub(crate) fn note_flagged(&mut self) {
        self.flagged += 1;
    }

    /// Note that one of the folded transfers had its min bound clamped.
    pub(crate) fn note_clamped(&mut self) {
        self.clamped += 1;
    }

    /// Confidence in the bounds, in `[0, 1]`: the fraction of transfers whose
    /// bounds rest on clean two-stamp observations. Single-stamp transfers
    /// contribute half weight (their bounds are valid but vacuously wide);
    /// flagged transfers contribute none (the a-priori model demonstrably
    /// failed to describe them). `1.0` when nothing was observed.
    pub fn confidence(&self) -> f64 {
        if self.transfers == 0 {
            return 1.0;
        }
        let flagged = self.flagged.min(self.transfers);
        // Flagged transfers may themselves be single-stamp; avoid counting
        // the discount twice.
        let single = self.case_single_stamp.min(self.transfers - flagged);
        let weight = (self.transfers - flagged) as f64 - 0.5 * single as f64;
        weight / self.transfers as f64
    }

    /// Minimum overlap as a percentage of data transfer time.
    pub fn min_pct(&self) -> f64 {
        pct(self.min_overlap, self.data_transfer_time)
    }

    /// Maximum overlap as a percentage of data transfer time.
    pub fn max_pct(&self) -> f64 {
        pct(self.max_overlap, self.data_transfer_time)
    }

    /// Communication time that was *provably not* overlapped:
    /// `data_transfer_time − max_overlap` (paper Sec. 2.3, measure 1).
    pub fn nonoverlapped_min(&self) -> u64 {
        self.data_transfer_time - self.max_overlap
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Counters for instrumentation-stream irregularities the processor absorbed
/// instead of panicking. Nonzero values mean reality diverged from the
/// library's stamp discipline — bounds stay sound but confidence drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Anomalies {
    /// `XFER_BEGIN` for an id that was already active (the prior open
    /// transfer is closed as single-stamp).
    pub duplicate_begin: u64,
    /// `XFER_FLAG` for an id not currently active (transfer completed before
    /// the library learned of the disturbance, or never began).
    pub orphan_flags: u64,
    /// Events whose timestamp ran behind the processing cursor (clock skew);
    /// their interval contribution is dropped.
    pub clock_skew: u64,
    /// `CALL_EXIT` without a matching `CALL_ENTER`.
    pub unbalanced_calls: u64,
    /// `SECTION_END` without a matching `SECTION_BEGIN`.
    pub unbalanced_sections: u64,
}

impl Anomalies {
    /// True if any irregularity was observed.
    pub(crate) fn any(&self) -> bool {
        self.duplicate_begin != 0
            || self.orphan_flags != 0
            || self.clock_skew != 0
            || self.unbalanced_calls != 0
            || self.unbalanced_sections != 0
    }
}

/// Count / total-time statistics for one library call name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallStats {
    /// Number of completed calls.
    pub count: u64,
    /// Total time spent inside the call, ns.
    pub total_time: u64,
}

impl CallStats {
    /// Average time per call, ns.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_time as f64 / self.count as f64
        }
    }
}

/// Overlap measures limited to one monitored application section.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SectionReport {
    /// Aggregate over all transfers attributed to the section.
    pub total: OverlapStats,
    /// Per-size-bin breakdown (same bin layout as the report).
    pub by_bin: Vec<OverlapStats>,
    /// User computation time while the section was active, ns.
    pub compute_time: u64,
    /// Communication call time while the section was active, ns.
    pub call_time: u64,
}

/// The per-process output of the framework.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlapReport {
    /// Rank (process) this report describes.
    pub rank: usize,
    /// Time between the first and last observed event, ns.
    pub elapsed: u64,
    /// Aggregate user computation time (CALL_EXIT → CALL_ENTER gaps), ns.
    pub user_compute_time: u64,
    /// Aggregate communication call time (CALL_ENTER → CALL_EXIT spans), ns.
    pub comm_call_time: u64,
    /// Overall overlap measures.
    pub total: OverlapStats,
    /// Labels of the size bins, in order.
    pub bin_labels: Vec<String>,
    /// Per-size-bin overlap measures.
    pub by_bin: Vec<OverlapStats>,
    /// Per-monitored-section measures.
    pub sections: BTreeMap<String, SectionReport>,
    /// Per-call-name statistics (e.g. average `MPI_Wait` time).
    pub calls: BTreeMap<String, CallStats>,
    /// Events pushed through the queue.
    pub events_recorded: u64,
    /// Times the fixed-size queue filled and was folded into aggregates.
    pub queue_flushes: u64,
    /// Instrumentation-stream irregularities absorbed during processing.
    pub anomalies: Anomalies,
    /// Named counters and fixed-bucket histograms (call latency, transfer
    /// times, per-size-bin overlap bounds) populated at fold time. Absent in
    /// reports written by older versions; deserializes as empty then.
    pub metrics: MetricsRegistry,
}

impl OverlapReport {
    /// Render a human-readable summary (the text form of the output file).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "== overlap report: rank {} ==", self.rank);
        let _ = writeln!(
            s,
            "elapsed {:.3} ms | user compute {:.3} ms | comm calls {:.3} ms",
            self.elapsed as f64 / 1e6,
            self.user_compute_time as f64 / 1e6,
            self.comm_call_time as f64 / 1e6,
        );
        let t = &self.total;
        let _ = writeln!(
            s,
            "transfers {} ({} bytes) | data transfer time {:.3} ms",
            t.transfers,
            t.bytes,
            t.data_transfer_time as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "overlap: min {:.1}% max {:.1}% | non-overlapped >= {:.3} ms | confidence {:.2}",
            t.min_pct(),
            t.max_pct(),
            t.nonoverlapped_min() as f64 / 1e6,
            t.confidence(),
        );
        if t.flagged != 0 || t.clamped != 0 {
            let _ = writeln!(
                s,
                "degraded bounds: {} transfers flagged (fault-disturbed), {} min bounds clamped",
                t.flagged, t.clamped,
            );
        }
        if self.anomalies.any() {
            let a = &self.anomalies;
            let _ = writeln!(
                s,
                "stream anomalies: {} dup-begin, {} orphan-flag, {} clock-skew, {} unbalanced-call, {} unbalanced-section",
                a.duplicate_begin, a.orphan_flags, a.clock_skew, a.unbalanced_calls, a.unbalanced_sections,
            );
        }
        let _ = writeln!(s, "-- by message size --");
        for (label, b) in self.bin_labels.iter().zip(&self.by_bin) {
            if b.transfers == 0 {
                continue;
            }
            let _ = writeln!(
                s,
                "  {:>10}: n={:<7} min {:>5.1}% max {:>5.1}% conf {:>4.2}",
                label,
                b.transfers,
                b.min_pct(),
                b.max_pct(),
                b.confidence()
            );
        }
        if !self.sections.is_empty() {
            let _ = writeln!(s, "-- monitored sections --");
            for (name, sec) in &self.sections {
                let _ = writeln!(
                    s,
                    "  {:>12}: n={:<7} min {:>5.1}% max {:>5.1}% compute {:.3} ms calls {:.3} ms",
                    name,
                    sec.total.transfers,
                    sec.total.min_pct(),
                    sec.total.max_pct(),
                    sec.compute_time as f64 / 1e6,
                    sec.call_time as f64 / 1e6,
                );
            }
        }
        if !self.calls.is_empty() {
            let _ = writeln!(s, "-- calls --");
            for (name, c) in &self.calls {
                let _ = writeln!(
                    s,
                    "  {:>12}: n={:<8} avg {:>9.2} us",
                    name,
                    c.count,
                    c.avg() / 1e3
                );
            }
        }
        s
    }

    /// Write the report as JSON (the machine-readable output file).
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("report serializes");
        std::fs::write(path, json)
    }

    /// Load a report written by [`OverlapReport::save_json`].
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read_to_string(path)?;
        serde_json::from_str(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Cluster-wide aggregate of per-process reports (what a job-level summary
/// tool prints after collecting each rank's output file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Number of per-process reports merged.
    pub ranks: usize,
    /// Sum of all processes' overlap measures.
    pub total: OverlapStats,
    /// Bin labels (taken from the first report; all must agree).
    pub bin_labels: Vec<String>,
    /// Per-bin sums across processes.
    pub by_bin: Vec<OverlapStats>,
    /// Smallest per-rank maximum-overlap percentage (the laggard).
    pub worst_max_pct: f64,
    /// Largest per-rank maximum-overlap percentage.
    pub best_max_pct: f64,
    /// Sum of user computation time across ranks, ns.
    pub user_compute_time: u64,
    /// Sum of communication call time across ranks, ns.
    pub comm_call_time: u64,
}

impl ClusterSummary {
    /// Merge per-process reports into a job-level summary. Panics if the
    /// reports use different bin layouts or the slice is empty.
    pub fn merge(reports: &[OverlapReport]) -> Self {
        assert!(!reports.is_empty(), "nothing to merge");
        let bin_labels = reports[0].bin_labels.clone();
        let mut total = OverlapStats::default();
        let mut by_bin = vec![OverlapStats::default(); bin_labels.len()];
        let mut user_compute_time = 0;
        let mut comm_call_time = 0;
        let mut worst = f64::INFINITY;
        let mut best = f64::NEG_INFINITY;
        for r in reports {
            assert_eq!(r.bin_labels, bin_labels, "bin layouts differ");
            total.merge(&r.total);
            for (acc, b) in by_bin.iter_mut().zip(&r.by_bin) {
                acc.merge(b);
            }
            user_compute_time += r.user_compute_time;
            comm_call_time += r.comm_call_time;
            worst = worst.min(r.total.max_pct());
            best = best.max(r.total.max_pct());
        }
        ClusterSummary {
            ranks: reports.len(),
            total,
            bin_labels,
            by_bin,
            worst_max_pct: worst,
            best_max_pct: best,
            user_compute_time,
            comm_call_time,
        }
    }

    /// Render a human-readable job summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "== cluster overlap summary ({} ranks) ==", self.ranks);
        let _ = writeln!(
            s,
            "overlap: min {:.1}% max {:.1}% | per-rank max range [{:.1}%, {:.1}%]",
            self.total.min_pct(),
            self.total.max_pct(),
            self.worst_max_pct,
            self.best_max_pct,
        );
        let _ = writeln!(
            s,
            "transfers {} | data transfer {:.3} ms | compute {:.3} ms | comm {:.3} ms",
            self.total.transfers,
            self.total.data_transfer_time as f64 / 1e6,
            self.user_compute_time as f64 / 1e6,
            self.comm_call_time as f64 / 1e6,
        );
        for (label, b) in self.bin_labels.iter().zip(&self.by_bin) {
            if b.transfers > 0 {
                let _ = writeln!(
                    s,
                    "  {:>10}: n={:<8} min {:>5.1}% max {:>5.1}%",
                    label,
                    b.transfers,
                    b.min_pct(),
                    b.max_pct()
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fold_and_percentages() {
        let mut s = OverlapStats::default();
        s.add_bounds(100, 1000, OverlapBounds::split_calls(1000, 800, 100));
        s.add_bounds(100, 1000, OverlapBounds::single_stamp(1000));
        assert_eq!(s.transfers, 2);
        assert_eq!(s.data_transfer_time, 2000);
        // split_calls: max = min(1000, 800) = 800; min = min(900, 800) = 800.
        assert_eq!(s.min_overlap, 800);
        assert_eq!(s.max_overlap, 1800);
        assert!((s.min_pct() - 40.0).abs() < 1e-9);
        assert!((s.max_pct() - 90.0).abs() < 1e-9);
        assert_eq!(s.nonoverlapped_min(), 200);
        assert_eq!(s.case_split_calls, 1);
        assert_eq!(s.case_single_stamp, 1);
    }

    #[test]
    fn empty_stats_have_zero_pct() {
        let s = OverlapStats::default();
        assert_eq!(s.min_pct(), 0.0);
        assert_eq!(s.max_pct(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = OverlapStats::default();
        a.add_bounds(10, 100, OverlapBounds::same_call());
        let mut b = OverlapStats::default();
        b.add_bounds(20, 200, OverlapBounds::single_stamp(200));
        a.merge(&b);
        assert_eq!(a.transfers, 2);
        assert_eq!(a.bytes, 30);
        assert_eq!(a.data_transfer_time, 300);
        assert_eq!(a.case_same_call, 1);
        assert_eq!(a.case_single_stamp, 1);
    }

    #[test]
    fn call_stats_average() {
        let c = CallStats {
            count: 4,
            total_time: 1000,
        };
        assert_eq!(c.avg(), 250.0);
        assert_eq!(CallStats::default().avg(), 0.0);
    }
}
