//! Monitored-section edge cases: transfers crossing section boundaries,
//! nesting, and attribution rules.

use overlap_core::{ManualClock, Recorder, RecorderOpts, XferTimeTable};

fn recorder(clock: &ManualClock) -> Recorder {
    Recorder::new(
        0,
        Box::new(clock.clone()),
        XferTimeTable::from_points(vec![(1, 500)]),
        RecorderOpts::default(),
    )
}

#[test]
fn transfer_attributed_to_section_at_begin() {
    let clock = ManualClock::new();
    let mut r = recorder(&clock);
    r.section_begin("a");
    r.call_enter("Isend");
    r.xfer_begin(1, 100);
    r.call_exit();
    r.section_end();
    clock.advance(1_000);
    // Ends outside any section — still belongs to "a".
    r.call_enter("Wait");
    r.xfer_end(1, 100);
    r.call_exit();
    let rep = r.finish_traced().0;
    assert_eq!(rep.sections["a"].total.transfers, 1);
    assert_eq!(rep.total.transfers, 1);
}

#[test]
fn end_only_transfer_attributed_to_section_at_end() {
    let clock = ManualClock::new();
    let mut r = recorder(&clock);
    r.call_enter("Recv");
    clock.advance(10);
    r.call_exit();
    r.section_begin("late");
    r.call_enter("Recv");
    r.xfer_end(7, 64); // end-only (eager receive)
    r.call_exit();
    r.section_end();
    let rep = r.finish_traced().0;
    assert_eq!(rep.sections["late"].total.transfers, 1);
}

#[test]
fn nested_sections_attribute_to_innermost() {
    let clock = ManualClock::new();
    let mut r = recorder(&clock);
    r.section_begin("outer");
    clock.advance(100);
    r.section_begin("inner");
    clock.advance(200);
    r.call_enter("Recv");
    r.xfer_end(1, 64);
    clock.advance(50);
    r.call_exit();
    r.section_end();
    clock.advance(25);
    r.section_end();
    let rep = r.finish_traced().0;
    // Transfer belongs to the innermost active section.
    assert_eq!(rep.sections["inner"].total.transfers, 1);
    assert_eq!(rep.sections["outer"].total.transfers, 0);
    // Time attribution follows the innermost-section rule too.
    assert_eq!(rep.sections["inner"].compute_time, 200);
    assert_eq!(rep.sections["inner"].call_time, 50);
    assert_eq!(rep.sections["outer"].compute_time, 100 + 25);
}

#[test]
fn repeated_section_accumulates() {
    let clock = ManualClock::new();
    let mut r = recorder(&clock);
    for i in 0..3u64 {
        r.section_begin("solve");
        r.call_enter("Recv");
        clock.advance(10);
        r.xfer_end(i, 64);
        r.call_exit();
        r.section_end();
        clock.advance(100);
    }
    let rep = r.finish_traced().0;
    let s = &rep.sections["solve"];
    assert_eq!(s.total.transfers, 3);
    assert_eq!(s.call_time, 30);
    assert_eq!(s.compute_time, 0); // the 100s fall outside the section
    assert_eq!(rep.user_compute_time, 300);
}

#[test]
fn empty_section_appears_with_zero_stats() {
    let clock = ManualClock::new();
    let mut r = recorder(&clock);
    r.section_begin("idle");
    r.section_end();
    let rep = r.finish_traced().0;
    assert!(rep.sections.contains_key("idle"));
    assert_eq!(rep.sections["idle"].total.transfers, 0);
}

#[test]
fn section_bins_match_section_total() {
    let clock = ManualClock::new();
    let mut r = recorder(&clock);
    r.section_begin("s");
    r.call_enter("Recv");
    r.xfer_end(1, 100);
    r.xfer_end(2, 100_000);
    r.call_exit();
    r.section_end();
    let rep = r.finish_traced().0;
    let s = &rep.sections["s"];
    let bin_sum: u64 = s.by_bin.iter().map(|b| b.transfers).sum();
    assert_eq!(bin_sum, s.total.transfers);
    assert_eq!(s.by_bin.len(), rep.bin_labels.len());
}
