//! Payload integrity under aliasing.
//!
//! Payloads move through the library by reference: a rendezvous send
//! registers (direct read) or writes out (pipelined) the very `Bytes` it was
//! given, and the receiver's `Status` ends up holding that allocation. These
//! tests pin the two properties that make this safe and worthwhile, on every
//! protocol path and through the collectives: a *borrowed* send buffer is
//! the caller's again the moment the call returns (MPI buffer semantics —
//! the one copy at the boundary), and an *owned* one is never copied at all.

use bytes::Bytes;
use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, ProgressModel, Src, TagSel};
use simnet::NetConfig;

fn run(cfg: MpiConfig, body: impl Fn(&mut simmpi::Mpi) + Send + Sync + 'static) {
    run_mpi(2, NetConfig::default(), cfg, RecorderOpts::default(), body)
        .unwrap_or_else(|e| panic!("{}", e.one_line()));
}

fn direct(use_reg_cache: bool) -> MpiConfig {
    MpiConfig {
        use_reg_cache,
        ..MpiConfig::open_mpi_leave_pinned()
    }
}

fn hw_tag() -> MpiConfig {
    MpiConfig {
        progress: ProgressModel::HwTag,
        ..MpiConfig::open_mpi_leave_pinned()
    }
}

/// Every protocol path a payload can take: `(name, config, message length)`.
fn paths() -> Vec<(&'static str, MpiConfig, usize)> {
    const LONG: usize = 300 << 10; // three pipelined fragments
    vec![
        ("eager", MpiConfig::open_mpi_pipelined(), 4 << 10),
        ("pipelined", MpiConfig::open_mpi_pipelined(), LONG),
        ("direct", direct(false), LONG),
        ("direct + reg cache", direct(true), LONG),
        ("hw-tag eager", hw_tag(), 4 << 10),
        ("hw-tag rendezvous", hw_tag(), LONG),
    ]
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
}

#[test]
fn borrowed_buffer_may_be_overwritten_as_soon_as_isend_returns() {
    for (name, cfg, len) in paths() {
        run(cfg, move |mpi| {
            if mpi.rank() == 0 {
                let mut buf = pattern(1, len);
                let s = mpi.isend(1, 0, &buf[..]);
                buf.fill(0xEE);
                mpi.wait(s);
            } else {
                let got = mpi.recv(Src::Rank(0), TagSel::Is(0)).data.unwrap();
                assert!(got == pattern(1, len), "{name}: receiver saw the overwrite");
            }
        });
    }
}

#[test]
fn same_length_sends_each_deliver_their_own_contents() {
    // Two in flight at once (the second may not reuse the first's busy
    // registration), then a third after both completed (a cache hit, which
    // re-points the cached registration at the new buffer).
    for (name, cfg, len) in paths() {
        run(cfg, move |mpi| {
            if mpi.rank() == 0 {
                let a = mpi.isend(1, 0, pattern(10, len));
                let b = mpi.isend(1, 1, pattern(20, len));
                mpi.waitall(&[a, b]);
                mpi.send(1, 2, pattern(30, len));
            } else {
                // Hold all three until the end: a later send must not reach
                // back into a status already delivered.
                let got: Vec<Bytes> = (0..3)
                    .map(|t| mpi.recv(Src::Rank(0), TagSel::Is(t)).data.unwrap())
                    .collect();
                for (seed, data) in [10u8, 20, 30].into_iter().zip(&got) {
                    assert!(
                        *data == pattern(seed, len),
                        "{name}: message {seed} corrupted"
                    );
                }
            }
        });
    }
}

#[test]
fn owned_buffer_under_rendezvous_is_delivered_without_a_copy() {
    for (name, cfg) in [
        ("pipelined", MpiConfig::open_mpi_pipelined()),
        ("direct", direct(false)),
        ("direct + reg cache", direct(true)),
        ("hw-tag rendezvous", hw_tag()),
    ] {
        // Both ranks' closures capture this one allocation (three
        // fragments when pipelined).
        let msg = Bytes::from(pattern(7, 300 << 10));
        run(cfg, move |mpi| {
            // Twice, so the cached configuration also takes its hit path.
            for tag in 0..2 {
                if mpi.rank() == 0 {
                    mpi.send(1, tag, &msg);
                } else {
                    let got = mpi.recv(Src::Rank(0), TagSel::Is(tag)).data.unwrap();
                    assert_eq!(
                        got.as_ptr(),
                        msg.as_ptr(),
                        "{name}: Status.data must be the sender's allocation"
                    );
                    assert_eq!(got.len(), msg.len());
                }
            }
        });
    }
}

#[test]
fn alltoall_blocks_are_the_senders_allocations() {
    const N: usize = 4;
    for (name, cfg, len) in [
        ("eager", MpiConfig::open_mpi_pipelined(), 4 << 10),
        ("pipelined", MpiConfig::open_mpi_pipelined(), 300 << 10),
        ("direct", direct(true), 256 << 10),
    ] {
        // Block `d` of rank `r` is `all[r][d]`; every rank's closure
        // captures all of them, so a receiver can tell whose allocation it
        // holds.
        let all: Vec<Vec<Bytes>> = (0..N)
            .map(|r| {
                (0..N)
                    .map(|d| Bytes::from(pattern((r * N + d) as u8, len)))
                    .collect()
            })
            .collect();
        run_mpi(
            N,
            NetConfig::default(),
            cfg,
            RecorderOpts::default(),
            move |mpi| {
                let me = mpi.rank();
                let blocking = mpi.alltoall(&all[me]);
                let h = mpi.ialltoall(&all[me]);
                let nonblocking = mpi.icoll_wait(h).into_blocks();
                for got in [blocking, nonblocking] {
                    for (src, block) in got.iter().enumerate() {
                        assert_eq!(
                            block.as_ptr(),
                            all[src][me].as_ptr(),
                            "{name}: block from {src} must be the sender's allocation"
                        );
                        assert_eq!(block.len(), len);
                    }
                }
            },
        )
        .unwrap_or_else(|e| panic!("{}", e.one_line()));
    }
}
