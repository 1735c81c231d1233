//! Bin-partition property tests: every size lands in exactly one bin, labels
//! are consistent, and custom edges behave. A bin is observed the way a
//! report reader sees it: one transfer recorded, then the report's per-bin
//! breakdown says where it landed.

use overlap_core::{ManualClock, Recorder, RecorderOpts, SizeBins, XferTimeTable};
use proptest::prelude::*;

/// The bin a `bytes`-sized transfer is reported in, and the report's bin
/// count (checked against its label count).
fn bin_of(bins: &SizeBins, bytes: u64) -> (usize, usize) {
    let clock = ManualClock::new();
    let opts = RecorderOpts {
        bins: bins.clone(),
        ..RecorderOpts::default()
    };
    let table = XferTimeTable::from_points(vec![(1, 100)]);
    let mut r = Recorder::new(0, Box::new(clock.clone()), table, opts);
    r.call_enter("Send");
    r.xfer_begin(1, bytes);
    clock.advance(10);
    r.xfer_end(1, bytes);
    r.call_exit();
    let report = r.finish_traced().0;
    assert_eq!(report.bin_labels.len(), report.by_bin.len());
    let hit: Vec<usize> = (0..report.by_bin.len())
        .filter(|&i| report.by_bin[i].transfers == 1)
        .collect();
    assert_eq!(hit.len(), 1, "one transfer, one bin");
    (hit[0], report.by_bin.len())
}

/// Bins with the given upper edges, as a saved report or option file holds
/// them.
fn bins_with(edges: &[u64]) -> SizeBins {
    serde_json::from_str(&format!("{{\"edges\":{edges:?}}}")).unwrap()
}

proptest! {
    #[test]
    fn every_size_maps_to_a_valid_bin(bytes in 0u64..100_000_000) {
        let (i, n) = bin_of(&SizeBins::default(), bytes);
        prop_assert!(i < n);
        prop_assert_eq!(n, 6);
    }

    #[test]
    fn index_is_monotonic_in_size(a in 0u64..100_000_000, d in 0u64..100_000_000) {
        let b = SizeBins::default();
        prop_assert!(bin_of(&b, a).0 <= bin_of(&b, a.saturating_add(d)).0);
    }

    #[test]
    fn custom_edges_partition_exactly(
        mut edges in prop::collection::vec(1u64..1_000_000, 1..8),
        bytes in 0u64..2_000_000,
    ) {
        edges.sort_unstable();
        edges.dedup();
        let (i, n) = bin_of(&bins_with(&edges), bytes);
        prop_assert_eq!(n, edges.len() + 1);
        // The bin's implied range actually contains `bytes`.
        let lo = if i == 0 { 0 } else { edges[i - 1] };
        let hi = edges.get(i).copied().unwrap_or(u64::MAX);
        prop_assert!(bytes >= lo && bytes < hi, "bytes {bytes} in bin {i} [{lo},{hi})");
    }

    #[test]
    fn short_long_split_is_binary(threshold in 1u64..10_000_000, bytes in 0u64..20_000_000) {
        let (i, n) = bin_of(&bins_with(&[threshold]), bytes);
        prop_assert_eq!(n, 2);
        prop_assert_eq!(i, usize::from(bytes >= threshold));
    }
}
