//! Allocation budget of the payload data path.
//!
//! A `Bytes` handed to `isend` or `alltoall` travels by reference to the
//! receiver's `Status`: neither rendezvous scheme allocates anything per
//! payload byte — a pipelined receive keeps the sender's buffer once its
//! fragments tile it, and a collective moves its blocks as they are. The
//! host copies the simulator used to make instead were 87 % of the figure
//! suite's allocation; this test is what keeps them from coming back,
//! independently of the (frozen) `benchmark/` ledger.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use bytes::Bytes;
use overlap_core::RecorderOpts;
use simmpi::{run_mpi, Mpi, MpiConfig, Src, TagSel};
use simnet::NetConfig;

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const SENDS: u64 = 50;
const LEN: usize = 1 << 20;

/// Bytes allocated per payload byte `sent` by an `nranks`-rank run of `body`.
fn alloc_per_byte_sent(
    nranks: usize,
    cfg: MpiConfig,
    sent: u64,
    body: impl Fn(&mut Mpi) + Send + Sync + 'static,
) -> f64 {
    let a0 = bench::alloc::snapshot();
    run_mpi(
        nranks,
        NetConfig::default(),
        cfg,
        RecorderOpts::default(),
        body,
    )
    .unwrap_or_else(|e| panic!("{}", e.one_line()));
    let (_, bytes) = bench::alloc::region(a0, bench::alloc::snapshot());
    bytes as f64 / sent as f64
}

/// `SENDS` one-way 1 MiB messages from rank 0 to rank 1.
fn one_way(cfg: MpiConfig) -> f64 {
    let msg = Bytes::from(vec![0x5Au8; LEN]);
    alloc_per_byte_sent(2, cfg, SENDS * LEN as u64, move |mpi| {
        for i in 0..SENDS {
            if mpi.rank() == 0 {
                let s = mpi.isend(1, i, &msg);
                mpi.wait(s);
            } else {
                let got = mpi.recv(Src::Rank(0), TagSel::Is(i)).data.unwrap();
                assert_eq!((got.len(), got[0], got[LEN - 1]), (LEN, 0x5A, 0x5A));
            }
        }
    })
}

/// `SENDS / 4` rounds of a 4-rank `alltoall` of 1 MiB blocks, built
/// before the measured region.
fn alltoall(cfg: MpiConfig) -> f64 {
    const N: usize = 4;
    let rounds = SENDS / 4;
    let blocks: Vec<Vec<Bytes>> = (0..N)
        .map(|r| {
            (0..N)
                .map(|d| Bytes::from(vec![(r * N + d) as u8; LEN]))
                .collect()
        })
        .collect();
    let sent = rounds * (N * (N - 1) * LEN) as u64;
    alloc_per_byte_sent(N, cfg, sent, move |mpi| {
        let me = mpi.rank();
        for _ in 0..rounds {
            let got = mpi.alltoall(&blocks[me]);
            for (src, b) in got.iter().enumerate() {
                assert_eq!((b.len(), b[LEN - 1]), (LEN, (src * N + me) as u8));
            }
        }
    })
}

#[test]
fn large_sends_stay_inside_their_allocation_budget() {
    let uncached = MpiConfig {
        use_reg_cache: false,
        ..MpiConfig::open_mpi_leave_pinned()
    };
    for (name, per_byte) in [
        (
            "direct, cached",
            one_way(MpiConfig::open_mpi_leave_pinned()),
        ),
        ("direct, uncached", one_way(uncached)),
        ("pipelined", one_way(MpiConfig::open_mpi_pipelined())),
        (
            "alltoall, direct",
            alltoall(MpiConfig::open_mpi_leave_pinned()),
        ),
        (
            "alltoall, pipelined",
            alltoall(MpiConfig::open_mpi_pipelined()),
        ),
    ] {
        assert!(
            per_byte < 0.25,
            "{name}: {per_byte:.3} bytes allocated per byte sent (budget 0.25) \
             — a host copy is back on the payload path"
        );
    }
}
