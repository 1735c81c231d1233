//! Wait-state attribution validation: the per-transfer cause breakdowns
//! must *reconcile exactly* against the overlap bounds, and the attributed
//! non-overlap must respect the fabric's ground truth.
//!
//! Invariants:
//! * **Reconciliation** — for every transfer record,
//!   `Σ breakdown == nonoverlap == xfer_time − max_overlap`, with no
//!   tolerance. Checked on a micro-benchmark figure (fig03), a NAS-kernel
//!   figure (fig14), and a faulted ablation-style run.
//! * **Ground truth** — joining bound records to the fabric's
//!   [`TransferRecord`]s by transfer id: for every undisturbed
//!   (non-flagged) transfer, the attributed non-overlap cannot claim more
//!   than the fabric actually failed to overlap,
//!   `xfer_time − max ≤ xfer_time − true_overlap + slack`, where `slack`
//!   is how far the physical duration stretched past the a-priori table
//!   time (the same congestion term that loosens the upper bound; see
//!   `tests/bounds_validation.rs`).
//! * **Causality** — a lossy fabric that forced retransmissions must
//!   surface `ack_retransmit` wait states.

use std::sync::{Mutex, MutexGuard, OnceLock};

use overlap_core::attribution::{self, WaitCause};
use overlap_core::trace::RankTrace;
use overlap_suite::prelude::*;
use simnet::{FaultPlan, TransferRecord};

/// Serialize tests: `tracecap` is process-global.
fn global_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Assert the exact reconciliation invariant for every transfer record in
/// one rank trace, and return the rank's total attributed nanoseconds.
fn assert_reconciles(ctx: &str, tr: &RankTrace) -> u64 {
    let attr = attribution::attribute(tr);
    for rec in &attr.records {
        let explained: u64 = rec.breakdown.iter().map(|s| s.ns).sum();
        assert_eq!(
            explained, rec.nonoverlap,
            "{ctx} rank {}: transfer {:?} breakdown sums to {} but nonoverlap is {}",
            tr.rank, rec.id, explained, rec.nonoverlap
        );
        assert_eq!(
            rec.nonoverlap,
            rec.xfer_time - rec.max_overlap,
            "{ctx} rank {}: transfer {:?} nonoverlap != xfer_time - max_overlap",
            tr.rank,
            rec.id
        );
    }
    attr.total_nonoverlap()
}

#[test]
fn fig03_and_fig14_attribution_reconciles_exactly() {
    let _g = global_lock();
    bench::tracecap::enable();
    let _ = bench::tracecap::drain(); // discard scopes captured by earlier tests

    for id in ["fig03", "fig14"] {
        let h = bench::figures::all()
            .into_iter()
            .find(|h| h.id == id)
            .unwrap_or_else(|| panic!("harness {id} not registered"));
        let _series = (h.run)();
    }

    let captured = bench::tracecap::drain();
    assert!(
        !captured.is_empty(),
        "traced harnesses should register scopes"
    );
    let mut records = 0usize;
    let mut waits = 0usize;
    for (scope, bundle) in &captured {
        for tr in &bundle.ranks {
            assert_reconciles(scope, tr);
            records += tr.bounds.len();
            waits += tr.waits.len();
        }
    }
    assert!(records > 0, "captured traces should carry bound records");
    assert!(waits > 0, "captured traces should carry wait intervals");
}

#[test]
fn faulted_run_attribution_respects_ground_truth() {
    let _g = global_lock();
    let net = NetConfig {
        faults: FaultPlan {
            seed: 23,
            drop_prob: 0.05,
            delay_prob: 0.02,
            max_extra_delay: 10_000,
            ..FaultPlan::none()
        },
        ..NetConfig::default()
    };
    let size = 64usize << 10;
    let rounds = 20usize;
    let out = run_mpi(
        4,
        net.clone(),
        MpiConfig::default(),
        RecorderOpts {
            trace: true,
            ..Default::default()
        },
        move |mpi| {
            let me = mpi.rank();
            let n = mpi.nranks();
            let dst = (me + 1) % n;
            let src = (me + n - 1) % n;
            for i in 0..rounds {
                let r = mpi.irecv(Src::Rank(src), TagSel::Is(i as u64));
                let s = mpi.isend(dst, i as u64, vec![1u8; size]);
                mpi.compute(300_000);
                mpi.wait(s);
                mpi.wait(r);
            }
        },
    )
    .expect("faulted run failed");

    let retransmissions: u64 = out.rel_stats.iter().map(|s| s.retransmissions).sum();
    assert!(
        retransmissions > 0,
        "5% loss over {rounds} ring rounds should force retransmissions"
    );

    let mut retransmit_waits = 0usize;
    let mut checked = 0usize;
    for tr in &out.traces {
        assert_reconciles("faulted", tr);
        let attr = attribution::attribute(tr);
        for rec in &attr.records {
            let Some(id) = rec.id else { continue };
            if rec.flagged {
                continue; // fault-disturbed: the bound is best-effort
            }
            let phys: Vec<&TransferRecord> =
                out.transfers.iter().filter(|t| t.xfer_id == id).collect();
            if phys.is_empty() {
                continue;
            }
            // Ground truth for this transfer from this rank's perspective:
            // intersection of the physical interval(s) with the rank's
            // compute, plus the congestion slack that loosens the upper
            // bound (truth <= max + slack, so
            // xfer - max <= xfer - truth + slack).
            let truth: i128 = phys
                .iter()
                .map(|t| t.true_overlap(&out.activity[tr.rank]) as i128)
                .sum();
            let duration: i128 = phys.iter().map(|t| t.duration() as i128).sum();
            let slack = (duration - rec.xfer_time as i128).max(0);
            let attributed = rec.nonoverlap as i128;
            assert!(
                attributed <= rec.xfer_time as i128 - truth + slack,
                "rank {} transfer {id}: attributed {} > xfer {} - truth {} + slack {}",
                tr.rank,
                attributed,
                rec.xfer_time,
                truth,
                slack
            );
            checked += 1;
        }
        retransmit_waits += tr
            .waits
            .iter()
            .filter(|w| w.cause == WaitCause::AckRetransmit)
            .count();
    }
    assert!(
        checked > 0,
        "faulted run should leave undisturbed transfers to cross-check"
    );
    assert!(
        retransmit_waits > 0,
        "retransmissions occurred but no wait was classified ack_retransmit"
    );
}
