//! The stable-schema record a run writes, and the metric tables.
//!
//! Every number is a named, unit-carrying metric so that the record of one
//! commit can be diffed against the record of the next (`compare`).

use serde::{Deserialize, Serialize};

use crate::host::Fingerprint;
use crate::stats::{median, percentile, quartiles, tail_resolved};
use crate::workloads::Pass;

/// Schema id of both record kinds; `compare` refuses any other.
pub const SCHEMA: &str = "overlap-benchmark-v1";

/// Definition of one end-to-end metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the older median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Metrics every workload reports; `BENCHMARK.json` lists exactly these
/// (the driver wants every listed metric from every workload). All wall times
/// are host time. Each bound is well above the widest run-to-run spread
/// (inter-quartile distance over median, ten seeds) seen on any workload on
/// the reference box, a shared host that is not always quiet; see README.md.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s", "lower", 0.25),
    def("wall_s", "s", "lower", 0.25),
    def("alloc_calls", "count", "lower", 0.15),
    def("alloc_gb", "GB", "lower", 0.15),
    def("peak_rss_mb", "MB", "lower", 0.25),
];

/// `compare`'s bound on `alloc_calls` and `alloc_gb` wherever a pass does the
/// same work on every run (every workload but `serve-live`): ISSUE 11's 0.5 %.
const REPEATING_ALLOC_BOUND: f64 = 0.005;

/// Metrics only some workloads have, under ISSUE 11's names and bounds; in
/// the record and in `compare`, not in `BENCHMARK.json`. `compare` never
/// calls a move inside the older record's own spread a regression, so a
/// bound narrower than a noisy metric's spread does no harm.
pub const PER_WORKLOAD: [MetricDef; 9] = [
    def("export_mb_per_s", "MB/s", "higher", 0.10),
    def("ingest_lines_per_s", "1/s", "higher", 0.10),
    def("push_to_report_ms_p50", "ms", "lower", 0.10),
    def("push_to_report_ms_p90", "ms", "lower", 0.20),
    def("push_ms_p50", "ms", "lower", 0.10),
    def("push_ms_p90", "ms", "lower", 0.20),
    def("read_ms_p50", "ms", "lower", 0.10),
    def("read_ms_p90", "ms", "lower", 0.20),
    // Any increase is a regression.
    def("ops_failed_pct", "%", "lower", 0.0),
];

fn lookup(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(&PER_WORKLOAD)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is defined"))
}

/// One measured metric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
    /// The reported figure: the median over passes, or for a percentile the
    /// percentile of all operations of all passes.
    pub value: f64,
    /// Samples behind `value` (passes, or operations for a percentile).
    pub n: u64,
    /// The same statistic on parts of the run: one sample per pass, or for a
    /// percentile one per block of passes (see [`Metric::of_ops`]). Their
    /// quartiles are the run's own spread.
    pub samples: Vec<f64>,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A metric whose value is the median of its per-pass samples.
    fn of_passes(name: &str, samples: Vec<f64>) -> Metric {
        let value = median(&samples);
        Metric::new(name, value, samples.len() as u64, samples)
    }

    /// A once-per-process metric.
    fn single(name: &str, value: f64) -> Metric {
        Metric::new(name, value, 1, vec![value])
    }

    /// Percentile `p` of one kind of operation, pooled over all passes; `None`
    /// for a tail percentile with fewer than ten samples beyond it (there is
    /// no tail to report, and a median is never printed under a tail's name).
    ///
    /// The samples are the same statistic on less data: the passes are cut,
    /// in order, into blocks just large enough to resolve the percentile, and
    /// each block gives one sample. A run too short for two blocks has no
    /// spread of its own.
    fn of_ops(name: &str, p: f64, per_pass: &[&[f64]]) -> Option<Metric> {
        let pooled: Vec<f64> = per_pass.iter().flat_map(|s| s.iter().copied()).collect();
        if pooled.is_empty() || (p > 50.0 && !tail_resolved(pooled.len(), p)) {
            return None;
        }
        let value = percentile(&pooled, p);
        let mut samples = Vec::new();
        let mut block: Vec<f64> = Vec::new();
        for ops in per_pass {
            block.extend_from_slice(ops);
            if tail_resolved(block.len(), p) {
                samples.push(percentile(&block, p));
                block.clear();
            }
        }
        if samples.len() < 2 {
            samples = vec![value];
        }
        Some(Metric::new(name, value, pooled.len() as u64, samples))
    }

    fn new(name: &str, value: f64, n: u64, samples: Vec<f64>) -> Metric {
        let d = lookup(name);
        let (q1, q3) = quartiles(&samples);
        Metric {
            name: d.name.to_string(),
            unit: d.unit.to_string(),
            better: d.better.to_string(),
            bound: d.bound,
            value,
            n,
            samples,
            q1,
            q3,
        }
    }

    /// `name value unit`, then what the figure rests on.
    pub fn line(&self) -> String {
        let mut s = format!("{} {} {}  # n={}", self.name, self.value, self.unit, self.n);
        if self.samples.len() > 1 {
            s.push_str(&format!(" q1={} q3={}", self.q1, self.q3));
        }
        s
    }
}

/// Every latency of one kind of operation, all passes, so that any
/// percentile can be re-derived.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Latencies {
    /// The metric stem: `push_to_report_ms`, `push_ms` or `read_ms`.
    pub name: String,
    pub ms: Vec<f64>,
}

/// The record of one `run <workload>`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub schema: String,
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    /// Timed passes (the warm-up pass is not counted).
    pub passes: u64,
    pub host: Fingerprint,
    pub loadavg_before: f64,
    pub loadavg_after: f64,
    pub host_calib_ms_before: f64,
    pub host_calib_ms_after: f64,
    /// FNV-1a digest of a pass's rendered output, hex. Every pass produced
    /// the same one or the run reports failed operations.
    pub output_digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// What was resident, and live on the heap, when set-up ended: the
    /// inputs. `VmHWM` and the allocator's peak were restarted here, so
    /// neither `peak_rss_mb` nor `heap_peak_mb` covers what set-up needed
    /// on the way.
    pub rss_after_setup_mb: f64,
    pub heap_after_setup_mb: f64,
    /// Peak live heap the passes added to `heap_after_setup_mb`, as the
    /// counting allocator saw it: the workload's memory without the
    /// page-granular and per-arena noise of `peak_rss_mb`.
    pub heap_peak_mb: f64,
    pub metrics: Vec<Metric>,
    pub latencies: Vec<Latencies>,
}

/// What the runner measured around the passes.
pub struct RunFacts {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    pub setup_s: f64,
    pub host: Fingerprint,
    pub loadavg_before: f64,
    pub loadavg_after: f64,
    pub host_calib_ms_before: f64,
    pub host_calib_ms_after: f64,
    pub rss_after_setup_mb: f64,
    pub heap_after_setup_mb: f64,
    pub peak_rss_mb: f64,
    pub heap_peak_mb: f64,
    pub output_digest: u64,
    /// Failures found outside a pass (a pass whose output differs from the
    /// warm-up pass's).
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Record {
    pub fn build(facts: RunFacts, passes: &[Pass]) -> Record {
        let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
        let attempted = facts.attempted + passes.iter().map(|p| p.attempted).sum::<u64>();
        let mut failures = facts.failures;
        failures.extend(passes.iter().flat_map(|p| p.failures.iter().cloned()));
        let failed = failures.len() as u64;

        let mut metrics = vec![
            Metric::single("setup_s", facts.setup_s),
            Metric::of_passes("wall_s", per_pass(&|p| p.wall_s)),
            Metric::of_passes("alloc_calls", per_pass(&|p| p.alloc_calls)),
            Metric::of_passes("alloc_gb", per_pass(&|p| p.alloc_bytes / 1e9)),
            Metric::single("peak_rss_mb", facts.peak_rss_mb),
        ];
        if passes.iter().any(|p| p.export_s > 0.0) {
            metrics.push(Metric::of_passes(
                "export_mb_per_s",
                per_pass(&|p| p.export_bytes as f64 / 1e6 / p.export_s),
            ));
        }
        if passes.iter().any(|p| p.push_s > 0.0) {
            metrics.push(Metric::of_passes(
                "ingest_lines_per_s",
                per_pass(&|p| p.lines as f64 / p.push_s),
            ));
        }
        // Every pass of a workload times the same kinds of operation.
        let mut latencies = Vec::new();
        for (i, (stem, _)) in passes[0].latencies.iter().enumerate() {
            let ops: Vec<&[f64]> = passes.iter().map(|p| p.latencies[i].1.as_slice()).collect();
            for (tag, p) in [("p50", 50.0), ("p90", 90.0)] {
                metrics.extend(Metric::of_ops(&format!("{stem}_{tag}"), p, &ops));
            }
            latencies.push(Latencies {
                name: stem.to_string(),
                ms: ops.iter().flat_map(|s| s.iter().copied()).collect(),
            });
        }
        metrics.push(Metric::single(
            "ops_failed_pct",
            100.0 * failed as f64 / attempted.max(1) as f64,
        ));
        // `BENCHMARK.json` has one bound per metric for all workloads, so it
        // is the widest any of them needs. The allocation counts need it on
        // `serve-live` alone; everywhere else they repeat to a few calls.
        if facts.workload != "serve-live" {
            for m in metrics.iter_mut().filter(|m| m.name.starts_with("alloc_")) {
                m.bound = REPEATING_ALLOC_BOUND;
            }
        }

        failures.truncate(8);
        Record {
            schema: SCHEMA.to_string(),
            workload: facts.workload,
            seed: facts.seed,
            smoke: facts.smoke,
            passes: passes.len() as u64,
            host: facts.host,
            loadavg_before: facts.loadavg_before,
            loadavg_after: facts.loadavg_after,
            host_calib_ms_before: facts.host_calib_ms_before,
            host_calib_ms_after: facts.host_calib_ms_after,
            output_digest: format!("{:016x}", facts.output_digest),
            attempted,
            failed,
            failures,
            rss_after_setup_mb: facts.rss_after_setup_mb,
            heap_after_setup_mb: facts.heap_after_setup_mb,
            heap_peak_mb: facts.heap_peak_mb,
            metrics,
            latencies,
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// One per-layer row: a call into one crate's public functions, timed in
/// isolation on a deterministic input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerRow {
    pub name: String,
    pub unit: String,
    /// Median over the repeats.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Repeats.
    pub n: u64,
    /// The end-to-end metric and workload this row should move.
    pub moves: String,
}

/// The record of one `layers` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayersRecord {
    pub schema: String,
    pub seed: u64,
    pub smoke: bool,
    pub host: Fingerprint,
    pub loadavg_before: f64,
    pub loadavg_after: f64,
    pub host_calib_ms_before: f64,
    pub host_calib_ms_after: f64,
    pub rows: Vec<LayerRow>,
}

/// The last stdout line of a driver-contract run.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[(String, f64, String)]) -> String {
    use serde_json::{Number, Value};
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Value::Object(vec![
                ("value".to_string(), Value::Num(Number::Float(*value))),
                ("unit".to_string(), Value::Str(unit.clone())),
            ]);
            (name.clone(), m)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        (
            "attempted".to_string(),
            Value::Num(Number::PosInt(attempted)),
        ),
        ("failed".to_string(), Value::Num(Number::PosInt(failed))),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("contract line serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables here are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            v[key]
                .as_array()
                .expect("an array")
                .iter()
                .map(|m| m["name"].as_str().expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), crate::workloads::WORKLOADS);

        let e2e = v["end_to_end"].as_array().expect("an array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(m["name"], d.name);
            assert_eq!(m["unit"], d.unit);
            assert_eq!(m["better"], d.better);
            assert_eq!(m["bound"].as_f64(), Some(d.bound), "{}", d.name);
        }

        // Every row of the table but the per-harness family.
        let rows: Vec<&crate::layers::RowDef> = crate::layers::ROWS
            .iter()
            .filter(|d| d.name != "bench.harness_ms")
            .collect();
        let per_layer = v["per_layer"].as_array().expect("an array");
        assert_eq!(per_layer.len(), rows.len());
        for (m, d) in per_layer.iter().zip(rows) {
            assert_eq!(m["name"], d.name);
            assert_eq!(m["unit"], d.unit);
        }
    }

    #[test]
    fn percentile_is_pooled_and_its_samples_are_block_percentiles() {
        // Six passes of 40 operations: 1..=40 ms, shifted by the pass number.
        let passes: Vec<Vec<f64>> = (0..6)
            .map(|k| (1..=40).map(|i| f64::from(i + k)).collect())
            .collect();
        let ops: Vec<&[f64]> = passes.iter().map(Vec::as_slice).collect();

        let p50 = Metric::of_ops("read_ms_p50", 50.0, &ops).expect("a median");
        assert_eq!(p50.n, 240);
        assert_eq!(p50.value, crate::stats::percentile(&passes.concat(), 50.0));
        // A block of one pass (40 >= 20 operations) resolves a median.
        assert_eq!(p50.samples, vec![20.0, 21.0, 22.0, 23.0, 24.0, 25.0]);

        // p90 needs ten samples beyond it: blocks of three passes.
        let p90 = Metric::of_ops("read_ms_p90", 90.0, &ops).expect("a resolved tail");
        assert_eq!(p90.samples.len(), 2);
        assert_eq!(
            p90.samples[0],
            crate::stats::percentile(&passes[..3].concat(), 90.0)
        );

        // No tail, no p90; and never a median under its name.
        assert!(Metric::of_ops("read_ms_p90", 90.0, &ops[..2]).is_none());
        let short = Metric::of_ops("read_ms_p50", 50.0, &[&[3.0, 1.0, 2.0]]).expect("a median");
        assert_eq!((short.value, short.samples.len()), (2.0, 1));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(7, 0, &[("wall_s".to_string(), 1.25, "s".to_string())]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(contract_line(7, 1, &[]).starts_with(r#"{"correct":false"#));
    }
}
