//! Message-size bins, and the metric names that follow from them.
//!
//! The paper reports overlap "as a function of message size distribution,
//! such as short versus long, or a more detailed size distribution". Bins
//! are configurable; the default is a logarithmic ladder that separates the
//! eager/rendezvous regimes of typical libraries.
//!
//! A bin layout fixes its labels and the names of the built-in metrics keyed
//! by them, so [`SizeBins`] carries both: the labels are formatted when the
//! bins are built, each metric name at most once per layout, and every rank
//! folding with a copy of the layout shares them.

use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value, Writer};

use crate::attribution::WaitCause;

/// A partition of message sizes into contiguous bins. Immutable, so the
/// copy each process's recorder and fold hold is a refcount bump, and so
/// are its labels and metric names.
#[derive(Debug, Clone)]
pub struct SizeBins(Arc<Layout>);

#[derive(Debug)]
struct Layout {
    /// Upper edges (exclusive) of all but the last bin, strictly increasing.
    /// Bin `i` covers `[edges[i-1], edges[i])`; the final bin is unbounded.
    edges: Box<[u64]>,
    labels: Arc<[String]>,
    /// Built on first use: a rank that records nothing needs no names, and
    /// only a traced run needs the attribution ones.
    fold_names: OnceLock<FoldNames>,
    attr_names: OnceLock<Vec<CauseNames>>,
}

/// Names of the metrics [`crate::fold::RankFold`] maintains.
#[derive(Debug)]
pub(crate) struct FoldNames {
    /// `xfers_closed`, `xfers_flagged`, `xfers_clamped`, `calls_completed`.
    pub counters: [Arc<str>; 4],
    /// `xfer_apriori_ns`, `xfer_wall_ns`, `call_latency_ns`, then
    /// `overlap_min_ns/<bin>` and `overlap_max_ns/<bin>` for each bin.
    pub histograms: Vec<Arc<str>>,
}

/// One wait cause's attribution metric names.
#[derive(Debug)]
pub(crate) struct CauseNames {
    /// `attr_ns/<cause>/<bin>`, per bin.
    pub ns: Vec<Arc<str>>,
    /// `attr_xfers/<cause>`.
    pub xfers: Arc<str>,
    /// `attr_ns_hist/<cause>`.
    pub hist: Arc<str>,
}

/// Default ladder: <1K, 1K–8K, 8K–64K, 64K–512K, 512K–4M, ≥4M.
impl Default for SizeBins {
    fn default() -> Self {
        SizeBins::from_edges(vec![1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20])
            .expect("the default ladder is well-formed")
    }
}

impl SizeBins {
    /// Bins with the given upper edges, labelled once here.
    fn from_edges(edges: Vec<u64>) -> Result<Self, String> {
        check_edges(&edges)?;
        let fmt = |b: u64| -> String {
            if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
                format!("{}M", b >> 20)
            } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
                format!("{}K", b >> 10)
            } else {
                format!("{b}B")
            }
        };
        let label = |i: usize| {
            if i == 0 {
                format!("<{}", fmt(edges[0]))
            } else if i == edges.len() {
                format!(">={}", fmt(edges[i - 1]))
            } else {
                format!("{}-{}", fmt(edges[i - 1]), fmt(edges[i]))
            }
        };
        let labels = (0..=edges.len()).map(label).collect();
        Ok(SizeBins(Arc::new(Layout {
            edges: edges.into(),
            labels,
            fold_names: OnceLock::new(),
            attr_names: OnceLock::new(),
        })))
    }

    /// Number of bins (edges + 1).
    pub(crate) fn count(&self) -> usize {
        self.0.labels.len()
    }

    /// Bin index for a message of `bytes`.
    pub(crate) fn index(&self, bytes: u64) -> usize {
        self.0.edges.partition_point(|&e| e <= bytes)
    }

    /// Human-readable labels in bin order, shared by every report.
    pub(crate) fn labels(&self) -> &Arc<[String]> {
        &self.0.labels
    }

    /// The fold's metric names for this layout.
    pub(crate) fn fold_names(&self) -> &FoldNames {
        self.0.fold_names.get_or_init(|| {
            let mut buf = String::new();
            let mut histograms = ["xfer_apriori_ns", "xfer_wall_ns", "call_latency_ns"]
                .map(Arc::from)
                .to_vec();
            for label in self.0.labels.iter() {
                histograms.push(name(&mut buf, format_args!("overlap_min_ns/{label}")));
                histograms.push(name(&mut buf, format_args!("overlap_max_ns/{label}")));
            }
            let counters = [
                "xfers_closed",
                "xfers_flagged",
                "xfers_clamped",
                "calls_completed",
            ];
            FoldNames {
                counters: counters.map(Arc::from),
                histograms,
            }
        })
    }

    /// The attribution metric names for this layout, indexed by
    /// [`WaitCause::idx`].
    pub(crate) fn attr_names(&self) -> &[CauseNames] {
        self.0.attr_names.get_or_init(|| {
            let mut buf = String::new();
            let mut names = |cause: &str| CauseNames {
                ns: (self.0.labels.iter())
                    .map(|bin| name(&mut buf, format_args!("attr_ns/{cause}/{bin}")))
                    .collect(),
                xfers: name(&mut buf, format_args!("attr_xfers/{cause}")),
                hist: name(&mut buf, format_args!("attr_ns_hist/{cause}")),
            };
            WaitCause::ALL.map(|c| names(c.label())).into()
        })
    }
}

/// A metric name: `args` formatted into the reused `buf`, then shared.
fn name(buf: &mut String, args: std::fmt::Arguments<'_>) -> Arc<str> {
    buf.clear();
    let _ = std::fmt::Write::write_fmt(buf, args);
    Arc::from(buf.as_str())
}

/// `Ok` for a non-empty, strictly increasing ladder of bin or bucket edges;
/// otherwise what is wrong with it, in one line.
pub(crate) fn check_edges(edges: &[u64]) -> Result<(), String> {
    match edges.windows(2).find(|w| w[0] >= w[1]) {
        _ if edges.is_empty() => Err("needs at least one edge".into()),
        Some(w) => Err(format!(
            "edges must be strictly increasing, found {} then {}",
            w[0], w[1]
        )),
        None => Ok(()),
    }
}

impl Serialize for SizeBins {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("edges", &self.0.edges[..]);
        w.end_object();
    }
}

/// A malformed ladder is refused here, so no report is ever built on one.
impl Deserialize for SizeBins {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        SizeBins::from_edges(Vec::from_value(v.field("edges"))?)
            .map_err(|e| DeError(format!("size bins: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bins_index_correctly() {
        let b = SizeBins::default();
        assert_eq!(b.count(), 6);
        assert_eq!(b.index(0), 0);
        assert_eq!(b.index(1023), 0);
        assert_eq!(b.index(1024), 1);
        assert_eq!(b.index(10 * 1024), 2);
        assert_eq!(b.index(1 << 20), 4);
        assert_eq!(b.index(100 << 20), 5);
    }

    #[test]
    fn labels_are_human_readable() {
        let b = SizeBins::default();
        assert_eq!(b.labels()[0], "<1K");
        assert_eq!(b.labels()[1], "1K-8K");
        assert_eq!(b.labels()[5], ">=4M");
        let names = b.fold_names();
        assert_eq!(&*names.histograms[3], "overlap_min_ns/<1K");
        assert_eq!(&*names.histograms[14], "overlap_max_ns/>=4M");
        let late = &b.attr_names()[WaitCause::LateSender.idx()];
        assert_eq!(&*late.ns[1], "attr_ns/late_sender/1K-8K");
        assert_eq!(&*late.hist, "attr_ns_hist/late_sender");
    }

    #[test]
    fn short_long_split() {
        let b = SizeBins::from_edges(vec![12 * 1024]).unwrap();
        assert_eq!(b.count(), 2);
        assert_eq!(b.index(12 * 1024 - 1), 0);
        assert_eq!(b.index(12 * 1024), 1);
    }
}
