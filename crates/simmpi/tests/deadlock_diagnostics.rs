//! The deadlock detector must do better than "it hung": its error names
//! every blocked rank and what each was blocked on (last library call,
//! pending request counts) so a wedged protocol can be diagnosed from the
//! error alone.

use overlap_core::RecorderOpts;
use simcore::SimError;
use simmpi::{MpiConfig, Src, TagSel};
use simnet::NetConfig;

#[test]
fn mismatched_recv_reports_blocked_ranks_and_state() {
    // Rank 0 posts a recv nobody will ever satisfy (the matching send does
    // not exist); rank 1 proceeds straight to finalize. Rank 0 wedges in
    // MPI_Recv, which in turn wedges rank 1 in the finalize barrier.
    let err = simmpi::run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::default(),
        RecorderOpts::default(),
        |mpi| {
            if mpi.rank() == 0 {
                let _ = mpi.recv(Src::Rank(1), TagSel::Is(77));
            }
        },
    )
    .unwrap_err();

    let SimError::Deadlock { parked, diags, .. } = &err else {
        panic!("expected deadlock, got {err}");
    };
    assert_eq!(parked, &[0, 1], "both ranks should be stuck");
    assert_eq!(diags.len(), 2, "one diagnostic per parked rank");

    let d0 = &diags[0];
    assert_eq!(d0.rank, 0);
    assert_eq!(d0.last_call.as_deref(), Some("MPI_Recv"));
    let blocked = d0.blocked_on.as_deref().expect("rank 0 left a note");
    assert!(
        blocked.contains("1 posted recvs"),
        "note should count the unmatched recv: {blocked}"
    );

    let d1 = &diags[1];
    assert_eq!(d1.rank, 1);
    assert_eq!(d1.last_call.as_deref(), Some("MPI_Finalize"));
    assert!(d1.blocked_on.is_some(), "rank 1 left a note");

    // The rendered error is the first thing a user sees: it must name the
    // ranks, their blocked-on state, and their last calls.
    let msg = err.to_string();
    assert!(msg.contains("ranks [0, 1]"), "missing rank list: {msg}");
    assert!(
        msg.contains("rank 0: blocked on"),
        "missing rank 0 state: {msg}"
    );
    assert!(
        msg.contains("last call MPI_Recv"),
        "missing last call: {msg}"
    );
    assert!(
        msg.contains("last call MPI_Finalize"),
        "missing rank 1 call: {msg}"
    );
}

#[test]
fn head_to_head_blocking_sends_name_the_send_call() {
    let err = simmpi::run_mpi(
        2,
        NetConfig::default(),
        MpiConfig::mvapich2(),
        RecorderOpts::default(),
        |mpi| {
            let other = 1 - mpi.rank();
            let big = vec![0u8; 1 << 20];
            mpi.send(other, 1, &big);
            let _ = mpi.recv(Src::Rank(other), TagSel::Is(1));
        },
    )
    .unwrap_err();
    let SimError::Deadlock { diags, .. } = &err else {
        panic!("expected deadlock, got {err}");
    };
    for d in diags {
        assert_eq!(d.last_call.as_deref(), Some("MPI_Send"));
        let note = d.blocked_on.as_deref().expect("note present");
        assert!(
            note.contains("incomplete requests"),
            "note should summarize pending state: {note}"
        );
    }
}

/// Each rank computes, then receives from the other, which never sends. The
/// receive's wait starts with nothing on the NIC, so the engine parks the
/// rank at the end of that idle poll without resuming it, and the deadlock
/// asks it there. It says what a rank that parks at once says: with no poll
/// cost the same program parks on the rank's own yield.
#[test]
fn a_rank_parked_at_the_end_of_an_idle_poll_explains_itself() {
    let diags = |poll_cost| {
        let err = simmpi::run_mpi(
            2,
            NetConfig {
                poll_cost,
                ..NetConfig::default()
            },
            MpiConfig::default(),
            RecorderOpts::default(),
            |mpi| {
                mpi.compute(10_000 * (mpi.rank() as u64 + 1));
                let _ = mpi.recv(Src::Rank(1 - mpi.rank()), TagSel::Is(77));
            },
        )
        .unwrap_err();
        let SimError::Deadlock { diags, .. } = err else {
            panic!("expected deadlock, got {err}");
        };
        diags
            .into_iter()
            .map(|d| (d.rank, d.blocked_on, d.last_call, d.waits_on_rank))
            .collect::<Vec<_>>()
    };
    let idle_poll = diags(NetConfig::default().poll_cost);
    assert!(NetConfig::default().poll_cost > 0);
    assert_eq!(idle_poll, diags(0));
    let (_, blocked_on, last_call, waits_on_rank) = &idle_poll[0];
    assert_eq!(last_call.as_deref(), Some("MPI_Recv"));
    assert_eq!(*waits_on_rank, Some(1));
    assert!(
        blocked_on
            .as_deref()
            .unwrap()
            .starts_with("1 incomplete requests (1 posted recvs"),
        "{blocked_on:?}"
    );
}
