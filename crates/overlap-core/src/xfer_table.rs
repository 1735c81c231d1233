//! The a-priori transfer-time table.
//!
//! The bound computation needs `xfer_time`, "the time for the data transfer
//! operation on the network that is measured a priori by running a standard
//! microbenchmark test" (paper Sec. 2.2 — the authors used Mellanox's
//! `perf_main`). The table maps message size → one-way transfer time and is
//! stored on disk; the communication library reads it into memory during
//! initialization (the paper notes this one-time cost explicitly).

use serde::{Deserialize, Serialize};

/// Piecewise-linear message-size → transfer-time table. Immutable, so the
/// copy each process of a run holds is a refcount bump.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct XferTimeTable {
    /// `(bytes, ns)` points, strictly increasing in bytes.
    points: std::sync::Arc<[(u64, u64)]>,
}

impl XferTimeTable {
    /// Build from measurement points. Points are sorted and deduplicated by
    /// size; at least one point is required.
    pub fn from_points(mut points: Vec<(u64, u64)>) -> Self {
        assert!(!points.is_empty(), "xfer table needs at least one point");
        points.sort_unstable_by_key(|&(b, _)| b);
        points.dedup_by_key(|&mut (b, _)| b);
        XferTimeTable {
            points: points.into(),
        }
    }

    /// Build by sampling a cost function at power-of-two sizes from
    /// `min_bytes` to `max_bytes` inclusive (plus the exact end points).
    /// This is how the suite's "perf_main" generator produces tables.
    pub fn sample(min_bytes: u64, max_bytes: u64, mut f: impl FnMut(u64) -> u64) -> Self {
        assert!(min_bytes <= max_bytes);
        let mut points = vec![(min_bytes, f(min_bytes))];
        let mut b = min_bytes.max(1).next_power_of_two();
        if b == min_bytes {
            b *= 2;
        }
        while b < max_bytes {
            points.push((b, f(b)));
            b *= 2;
        }
        if max_bytes > min_bytes {
            points.push((max_bytes, f(max_bytes)));
        }
        XferTimeTable::from_points(points)
    }

    /// Look up the transfer time for a `bytes`-sized message.
    ///
    /// Linear interpolation between bracketing points; clamped to the first
    /// point below the table range; linearly extrapolated from the last two
    /// points above it (transfer time is asymptotically linear in size).
    /// Both the interpolation and extrapolation paths round to the nearest
    /// nanosecond; a decreasing tail extrapolates downward and clamps at 0
    /// rather than silently flattening.
    ///
    /// ```
    /// use overlap_core::XferTimeTable;
    ///
    /// let t = XferTimeTable::from_points(vec![(1_000, 500), (2_000, 900)]);
    /// assert_eq!(t.lookup(1_000), 500);  // exact point
    /// assert_eq!(t.lookup(1_500), 700);  // interpolated
    /// assert_eq!(t.lookup(100), 500);    // clamped below the range
    /// assert_eq!(t.lookup(3_000), 1300); // extrapolated above it
    /// ```
    pub fn lookup(&self, bytes: u64) -> u64 {
        let pts = &self.points;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        if let Some(&(last_b, last_t)) = pts.last() {
            if bytes >= last_b {
                if pts.len() < 2 {
                    return last_t;
                }
                let (pb, pt) = pts[pts.len() - 2];
                let slope = (last_t as f64 - pt as f64) / (last_b - pb) as f64;
                let v = last_t as f64 + slope * (bytes - last_b) as f64;
                return v.round().max(0.0) as u64;
            }
        }
        let idx = pts.partition_point(|&(b, _)| b <= bytes);
        let (b0, t0) = pts[idx - 1];
        let (b1, t1) = pts[idx];
        let frac = (bytes - b0) as f64 / (b1 - b0) as f64;
        (t0 as f64 + frac * (t1 as f64 - t0 as f64)).round() as u64
    }

    /// Serialize to a JSON file (the disk-resident artifact).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("table serializes");
        std::fs::write(path, json)
    }

    /// Load a table previously written by [`XferTimeTable::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read_to_string(path)?;
        serde_json::from_str(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_exact_and_interpolated() {
        let t = XferTimeTable::from_points(vec![(100, 1000), (200, 2000)]);
        assert_eq!(t.lookup(100), 1000);
        assert_eq!(t.lookup(200), 2000);
        assert_eq!(t.lookup(150), 1500);
    }

    #[test]
    fn lookup_clamps_below_and_extrapolates_above() {
        let t = XferTimeTable::from_points(vec![(100, 1000), (200, 2000)]);
        assert_eq!(t.lookup(10), 1000);
        assert_eq!(t.lookup(300), 3000);
    }

    #[test]
    fn single_point_table_is_constant() {
        let t = XferTimeTable::from_points(vec![(64, 5000)]);
        assert_eq!(t.lookup(1), 5000);
        assert_eq!(t.lookup(1 << 20), 5000);
    }

    #[test]
    fn sample_covers_range() {
        let t = XferTimeTable::sample(1, 1 << 20, |b| 5000 + b);
        assert_eq!(t.lookup(1), 5001);
        assert_eq!(t.lookup(1 << 20), 5000 + (1 << 20));
        // interior power of two sampled exactly
        assert_eq!(t.lookup(4096), 5000 + 4096);
    }

    #[test]
    fn extrapolation_rounds_like_interpolation() {
        // Slope 10.01 ns/byte: the extrapolated value lands on x.5 and must
        // round (truncation would lose a nanosecond relative to the
        // interpolation path).
        let t = XferTimeTable::from_points(vec![(100, 0), (200, 1001)]);
        assert_eq!(t.lookup(250), 1502); // 1001 + 50*10.01 = 1501.5
        assert_eq!(t.lookup(150), 501); // interpolation: 500.5 rounds too
    }

    #[test]
    fn decreasing_tail_extrapolates_down_and_clamps_at_zero() {
        let t = XferTimeTable::from_points(vec![(100, 2000), (200, 1000)]);
        assert_eq!(t.lookup(250), 500); // follows the -10 ns/byte slope
        assert_eq!(t.lookup(300), 0); // hits zero exactly
        assert_eq!(t.lookup(1000), 0); // clamped, no underflow
    }

    #[test]
    fn unsorted_points_are_sorted() {
        let t = XferTimeTable::from_points(vec![(200, 2000), (100, 1000)]);
        assert_eq!(t.lookup(150), 1500);
    }

    #[test]
    fn save_load_roundtrip() {
        let t = XferTimeTable::sample(64, 1 << 16, |b| 5000 + b);
        let dir = std::env::temp_dir().join("overlap_core_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.json");
        t.save(&path).unwrap();
        let loaded = XferTimeTable::load(&path).unwrap();
        assert_eq!(t, loaded);
    }
}
