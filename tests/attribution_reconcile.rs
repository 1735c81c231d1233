//! Wait-state attribution validation: the per-transfer cause breakdowns
//! must *reconcile exactly* against the overlap bounds, and the bounds must
//! respect the fabric's ground truth.
//!
//! Invariants:
//! * **Reconciliation** — for every transfer record,
//!   `Σ breakdown == nonoverlap == xfer_time − max_overlap`, with no
//!   tolerance. Checked on a micro-benchmark figure (fig03), a NAS-kernel
//!   figure (fig14), and a faulted ablation-style run.
//! * **Ground truth** — the faulted run passes the one soundness check
//!   (`RunOutcome::check`, per transfer), lost attempts included.
//! * **Causality** — a lossy fabric that forced retransmissions must
//!   surface `ack_retransmit` wait states.

use std::sync::{Mutex, MutexGuard, OnceLock};

use overlap_core::attribution::{self, WaitCause};
use overlap_suite::prelude::*;
use simnet::FaultPlan;

/// Serialize tests: `tracecap` is process-global.
fn global_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
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
            for rec in attribution::attribute(tr).records {
                assert!(rec.reconciles(), "{scope} rank {}: {rec:?}", tr.rank);
            }
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
        net,
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

    // An eager packet dropped after the sender's local completion still
    // occupied the wire: the fabric records it under its transfer id next to
    // its retransmission, so the sender's record joins the attempt it timed.
    assert_eq!(out.check(), []);
    let retransmit_waits = out
        .traces
        .iter()
        .flat_map(|tr| &tr.waits)
        .filter(|w| w.cause == WaitCause::AckRetransmit)
        .count();
    assert!(
        retransmit_waits > 0,
        "retransmissions occurred but no wait was classified ack_retransmit"
    );
}
