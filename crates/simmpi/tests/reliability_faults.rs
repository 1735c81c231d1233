//! Delivery correctness under injected fabric faults.
//!
//! The fabric drops/duplicates/delays two-sided packets per the seeded
//! [`FaultPlan`]; the reliability layer must still deliver every message
//! exactly once with an intact payload, and every traced run must pass the
//! one soundness check, its bounds joined per transfer to ground truth that
//! records lost attempts too.

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::{FaultPlan, NetConfig};

fn checksum(data: &[u8]) -> u64 {
    // FNV-1a, good enough to catch corrupted / truncated payloads.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn payload(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (rank.wrapping_mul(31) ^ round.wrapping_mul(17) ^ i) as u8)
        .collect()
}

fn lossy_net(seed: u64, drop: f64, dup: f64) -> NetConfig {
    NetConfig {
        faults: FaultPlan {
            seed,
            drop_prob: drop,
            duplicate_prob: dup,
            delay_prob: 0.05,
            max_extra_delay: 20_000,
            ..FaultPlan::none()
        },
        ..NetConfig::default()
    }
}

/// Ring exchange: every rank sends checksummed payloads to its neighbor at
/// several message sizes (eager and rendezvous) and validates what arrives.
/// The run is traced and must pass [`simmpi::RunOutcome::check`].
fn ring_exchange(net: NetConfig, sizes: &'static [usize]) -> simmpi::RunOutcome {
    let out = run_mpi(
        4,
        net,
        MpiConfig::default(),
        RecorderOpts {
            trace: true,
            ..RecorderOpts::default()
        },
        move |mpi| {
            let me = mpi.rank();
            let n = mpi.nranks();
            let dst = (me + 1) % n;
            let src = (me + n - 1) % n;
            for (round, &len) in sizes.iter().enumerate() {
                let data = payload(me, round, len);
                let want = checksum(&payload(src, round, len));
                let sr = mpi.isend(dst, round as u64, &data);
                let st = mpi.recv(Src::Rank(src), TagSel::Is(round as u64));
                let got = st.data.unwrap();
                assert_eq!(got.len(), len, "length corrupted under faults");
                assert_eq!(checksum(&got), want, "payload corrupted under faults");
                mpi.wait(sr);
            }
        },
    )
    .expect("run completes under faults");
    assert_eq!(out.check(), []);
    out
}

const SIZES: &[usize] = &[1, 512, 4 << 10, 12 << 10, 64 << 10, 256 << 10];

#[test]
fn messages_survive_ten_percent_loss() {
    let out = ring_exchange(lossy_net(7, 0.10, 0.02), SIZES);
    // The plan really fired (otherwise this test is vacuous).
    assert!(!out.faults.is_empty(), "no faults injected at 10% loss");
}

#[test]
fn duplication_only_fabric_delivers_exactly_once() {
    // Pure duplication (no loss): exactly-once delivery relies entirely on
    // the receive-side dedup.
    let out = ring_exchange(lossy_net(11, 0.0, 0.25), SIZES);
    assert!(
        out.faults
            .iter()
            .any(|f| matches!(f.kind, simnet::FaultKind::Duplicated)),
        "no duplications injected"
    );
}

#[test]
fn fault_runs_are_bit_reproducible() {
    let a = ring_exchange(lossy_net(42, 0.08, 0.05), SIZES);
    let b = ring_exchange(lossy_net(42, 0.08, 0.05), SIZES);
    assert_eq!(a.end_time(), b.end_time(), "virtual end time diverged");
    assert_eq!(a.faults.len(), b.faults.len());
    for (x, y) in a.faults.iter().zip(&b.faults) {
        assert_eq!(x, y, "fault streams diverged for equal seeds");
    }
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.total, y.total, "overlap stats diverged for equal seeds");
    }
}

#[test]
fn different_seeds_draw_different_fault_streams() {
    let a = ring_exchange(lossy_net(1, 0.08, 0.05), SIZES);
    let b = ring_exchange(lossy_net(2, 0.08, 0.05), SIZES);
    assert_ne!(
        (a.faults.len(), a.end_time()),
        (b.faults.len(), b.end_time()),
        "distinct seeds produced identical runs (suspicious)"
    );
}

#[test]
fn empty_plan_matches_no_plan_exactly() {
    // FaultPlan::none() must be byte-identical to the pre-reliability
    // behavior: same end time, same transfer count, zero fault events.
    let base = ring_exchange(NetConfig::default(), SIZES);
    let none = ring_exchange(
        NetConfig {
            faults: FaultPlan::none(),
            ..NetConfig::default()
        },
        SIZES,
    );
    assert_eq!(base.end_time(), none.end_time());
    assert_eq!(base.transfers.len(), none.transfers.len());
    assert!(none.faults.is_empty());
    for (x, y) in base.reports.iter().zip(&none.reports) {
        assert_eq!(x.total, y.total);
    }
}

#[test]
fn collectives_complete_under_loss() {
    let net = lossy_net(19, 0.05, 0.02);
    let out = run_mpi(
        4,
        net,
        MpiConfig::default(),
        RecorderOpts::default(),
        |mpi| {
            for round in 0..4u64 {
                mpi.barrier();
                let root = (round % 4) as usize;
                let mut buf = if mpi.rank() == root {
                    payload(root, round as usize, 2048).into()
                } else {
                    simmpi::Bytes::from(vec![0u8; 2048])
                };
                mpi.bcast(root, &mut buf);
                assert_eq!(
                    checksum(&buf),
                    checksum(&payload(root, round as usize, 2048)),
                    "bcast payload corrupted under faults"
                );
            }
        },
    )
    .expect("collectives complete under faults");
    assert!(!out.faults.is_empty());
}

/// Every rank posts to every other rank and then computes past the
/// retransmission timeout, so the next poll finds packets to several peers
/// overdue at once. The order they are re-posted in decides what the NIC
/// serializes first and which packets the fault plan hits next, so it must
/// not depend on anything that differs between two runs in one process.
#[test]
fn retransmissions_to_several_peers_repeat_byte_for_byte() {
    fn run() -> (String, String) {
        let out = run_mpi(
            5,
            lossy_net(23, 0.30, 0.05),
            MpiConfig {
                retrans_timeout: Some(50_000),
                ..MpiConfig::default()
            },
            RecorderOpts {
                trace: true,
                ..RecorderOpts::default()
            },
            |mpi| {
                let (me, n) = (mpi.rank(), mpi.nranks());
                for round in 0..4u64 {
                    let data = payload(me, round as usize, 2 << 10);
                    let sends: Vec<_> = (0..n)
                        .filter(|&peer| peer != me)
                        .map(|peer| mpi.isend(peer, round, &data))
                        .collect();
                    mpi.compute(200_000);
                    for peer in (0..n).filter(|&peer| peer != me) {
                        mpi.recv(Src::Rank(peer), TagSel::Is(round));
                    }
                    mpi.waitall(&sends);
                }
            },
        )
        .expect("run completes under faults");
        assert!(
            out.rel_stats.iter().all(|s| s.retransmissions >= 3),
            "every rank should retransmit to several peers: {:?}",
            out.rel_stats
        );
        assert_eq!(out.check(), []);
        let bundle = overlap_core::trace::TraceBundle {
            scope: "all-to-all".to_string(),
            ranks: out.traces,
            extras: Vec::new(),
        };
        (
            format!("{:?}", out.reports),
            overlap_core::trace::jsonl(&[bundle]),
        )
    }
    let first = run();
    for again in 1..6 {
        assert!(run() == first, "run {again} diverged from the first");
    }
}

/// A retransmission deadline that passes while the sender computes is acted
/// on by the first poll of its next wait. Nothing is on the NIC then, but
/// the poll is not idle: it resends, so the rank must not park through it.
/// On seeds where rank 0's message is lost, parking there wedges the run.
#[test]
fn a_deadline_missed_in_compute_resends_at_the_next_poll() {
    let mut resent = 0;
    for seed in 0..16u64 {
        let net = NetConfig {
            faults: FaultPlan::uniform_loss(seed, 0.3),
            ..NetConfig::default()
        };
        let out = run_mpi(
            2,
            net,
            MpiConfig::default(),
            RecorderOpts::default(),
            |mpi| {
                if mpi.rank() == 0 {
                    let s = mpi.isend(1, 0, vec![1u8; 64]);
                    let r = mpi.irecv(Src::Rank(1), TagSel::Is(1));
                    // Reap the send's local completion: the NIC is empty
                    // when the compute ends.
                    mpi.wait(s);
                    mpi.compute(1_000_000);
                    mpi.wait(r);
                } else {
                    let _ = mpi.recv(Src::Rank(0), TagSel::Is(0));
                    mpi.send(0, 1, vec![2u8; 64]);
                }
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {}", e.one_line()));
        resent += out.rel_stats[0].retransmissions;
    }
    assert!(resent > 0, "no seed made rank 0 retransmit");
}
