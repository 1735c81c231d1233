//! Message-size bins.
//!
//! The paper reports overlap "as a function of message size distribution,
//! such as short versus long, or a more detailed size distribution". Bins
//! are configurable; the default is a logarithmic ladder that separates the
//! eager/rendezvous regimes of typical libraries.

use serde::{Deserialize, Serialize};

/// A partition of message sizes into contiguous bins. Immutable, so the
/// copy each process's recorder and fold hold is a refcount bump.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct SizeBins {
    /// Upper edges (exclusive) of all but the last bin, strictly increasing.
    /// Bin `i` covers `[edges[i-1], edges[i])`; the final bin is unbounded.
    edges: std::sync::Arc<[u64]>,
}

impl Default for SizeBins {
    fn default() -> Self {
        SizeBins::log_default()
    }
}

impl SizeBins {
    /// Default ladder: <1K, 1K–8K, 8K–64K, 64K–512K, 512K–4M, ≥4M.
    pub fn log_default() -> Self {
        SizeBins {
            edges: [1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20].into(),
        }
    }

    /// Coarse short/long split at an eager-threshold-like boundary.
    pub fn short_long(threshold: u64) -> Self {
        SizeBins {
            edges: [threshold].into(),
        }
    }

    /// Custom edges (must be strictly increasing and non-empty).
    pub fn from_edges(edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "bins need at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly increasing"
        );
        SizeBins {
            edges: edges.into(),
        }
    }

    /// Number of bins (edges + 1).
    pub fn count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin index for a message of `bytes`.
    pub fn index(&self, bytes: u64) -> usize {
        self.edges.partition_point(|&e| e <= bytes)
    }

    /// Human-readable label for bin `i`.
    pub fn label(&self, i: usize) -> String {
        let fmt = |b: u64| -> String {
            if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
                format!("{}M", b >> 20)
            } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
                format!("{}K", b >> 10)
            } else {
                format!("{b}B")
            }
        };
        if i == 0 {
            format!("<{}", fmt(self.edges[0]))
        } else if i == self.edges.len() {
            format!(">={}", fmt(self.edges[i - 1]))
        } else {
            format!("{}-{}", fmt(self.edges[i - 1]), fmt(self.edges[i]))
        }
    }

    /// All labels in bin order.
    pub fn labels(&self) -> Vec<String> {
        (0..self.count()).map(|i| self.label(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bins_index_correctly() {
        let b = SizeBins::log_default();
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
        let b = SizeBins::log_default();
        assert_eq!(b.label(0), "<1K");
        assert_eq!(b.label(1), "1K-8K");
        assert_eq!(b.label(5), ">=4M");
    }

    #[test]
    fn short_long_split() {
        let b = SizeBins::short_long(12 * 1024);
        assert_eq!(b.count(), 2);
        assert_eq!(b.index(12 * 1024 - 1), 0);
        assert_eq!(b.index(12 * 1024), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_edges_panic() {
        SizeBins::from_edges(vec![10, 10]);
    }
}
