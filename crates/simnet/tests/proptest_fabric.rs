//! Fabric property tests: byte conservation, FIFO per-path ordering, and
//! timing-model sanity over randomized operation sequences.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;
use simcore::SimOpts;
use simnet::{Cluster, NetConfig, Packet};

#[derive(Debug, Clone, Copy)]
struct SendSpec {
    bytes: usize,
    gap_ns: u64,
}

fn arb_sends() -> impl Strategy<Value = Vec<SendSpec>> {
    prop::collection::vec(
        (1usize..100_000, 0u64..100_000).prop_map(|(bytes, gap_ns)| SendSpec { bytes, gap_ns }),
        1..20,
    )
}

/// Rank 0 posts the schedule's sends (with their compute gaps) to rank 1,
/// which drains them; returns the outcome with its ground-truth records.
fn run_sender_schedule(sends: &[SendSpec], net: NetConfig) -> simnet::ClusterOutcome {
    let sends_in = sends.to_vec();
    let cluster = Cluster::new(2, net);
    cluster
        .run(SimOpts::default(), move |ctx, world| {
            if ctx.rank() == 0 {
                for s in &sends_in {
                    if s.gap_ns > 0 {
                        ctx.compute(s.gap_ns);
                    }
                    let mut w = world.lock();
                    let x = w.alloc_xfer_id();
                    let pkt = Packet::with_data(
                        0,
                        s.bytes + 64,
                        1,
                        [0; 6],
                        Bytes::from(vec![1u8; s.bytes]),
                    );
                    w.post_send(0, 1, pkt, 0, Some(x));
                }
            } else {
                let total = sends_in.len();
                let mut got = 0;
                while got < total {
                    if world.lock().poll_rx(1).is_some() {
                        got += 1;
                    } else {
                        ctx.park();
                    }
                }
            }
        })
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every posted send is delivered exactly once, in order, with intact
    /// sizes and sequence-stamped contents.
    #[test]
    fn sends_conserve_bytes_and_order(sends in arb_sends()) {
        let received: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let received_in = Arc::clone(&received);
        let sends_in = sends.clone();
        let cluster = Cluster::new(2, NetConfig::default());
        let out = cluster.run(SimOpts::default(), move |ctx, world| {
            if ctx.rank() == 0 {
                for (i, s) in sends_in.iter().enumerate() {
                    if s.gap_ns > 0 {
                        ctx.compute(s.gap_ns);
                    }
                    let mut w = world.lock();
                    let x = w.alloc_xfer_id();
                    let pkt = Packet::with_data(
                        0,
                        s.bytes + 64,
                        1,
                        [i as u64, 0, 0, 0, 0, 0],
                        Bytes::from(vec![i as u8; s.bytes]),
                    );
                    w.post_send(0, 1, pkt, 0, Some(x));
                }
                // Drain our own completions.
                let total = sends_in.len();
                let mut got = 0;
                while got < total {
                    while world.lock().poll_cq(0).is_some() {
                        got += 1;
                    }
                    if got < total {
                        ctx.park();
                    }
                }
            } else {
                let total = sends_in.len();
                let mut got = 0;
                while got < total {
                    let p = world.lock().poll_rx(1);
                    match p {
                        Some(p) => {
                            let data = p.data.unwrap();
                            assert!(data.iter().all(|&b| b == p.h[0] as u8));
                            received_in.lock().push((p.h[0], data.len()));
                            got += 1;
                        }
                        None => ctx.park(),
                    }
                }
            }
        }).unwrap();

        let got = received.lock().clone();
        prop_assert_eq!(got.len(), sends.len());
        // FIFO: sequence numbers strictly increasing.
        for (i, &(seq, len)) in got.iter().enumerate() {
            prop_assert_eq!(seq, i as u64, "out-of-order delivery");
            prop_assert_eq!(len, sends[i].bytes);
        }
        // Ground truth records every payload byte exactly once.
        let truth_bytes: usize = out.transfers.iter().map(|t| t.bytes).sum();
        let sent_bytes: usize = sends.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(truth_bytes, sent_bytes);
    }

    /// The default flat crossbar goes through the hop-by-hop fabric walk,
    /// yet must reproduce the pre-topology formula *exactly*: every
    /// transfer's physical duration is serialization + wire latency, to the
    /// nanosecond, no matter how the DMA engine queues the posts (queuing
    /// shifts the start, never the flight time — dedicated hops never
    /// contend).
    #[test]
    fn flat_crossbar_reproduces_ideal_timing_exactly(sends in arb_sends()) {
        let net = NetConfig::default();
        let out = run_sender_schedule(&sends, net.clone());
        prop_assert_eq!(out.transfers.len(), sends.len());
        for t in &out.transfers {
            prop_assert_eq!(
                t.duration(),
                net.transfer_time(t.bytes + 64),
                "flat-crossbar flight time must be exact for {} bytes",
                t.bytes
            );
        }
    }

    /// Hierarchical routing is deterministic: the same schedule on the same
    /// fat-tree (with a background tenant sharing its links) yields
    /// byte-identical ground-truth records, and no transfer beats the
    /// canonical route's propagation + serialization.
    #[test]
    fn fat_tree_timing_is_deterministic_and_bounded(sends in arb_sends()) {
        let net = NetConfig {
            topology: simnet::TopologySpec::FatTree { k: 4 },
            hop_latency: 1_000,
            background: Some(simnet::BackgroundJob {
                msg_bytes: 4096,
                period_ns: 100_000,
            }),
            ..NetConfig::default()
        };
        let a = run_sender_schedule(&sends, net.clone());
        let b = run_sender_schedule(&sends, net.clone());
        let key = |o: &simnet::ClusterOutcome| -> Vec<(u64, u64, usize)> {
            o.transfers.iter().map(|t| (t.phys_start, t.phys_end, t.bytes)).collect()
        };
        prop_assert_eq!(key(&a), key(&b), "same schedule must route and queue identically");
        let topo = net.topology.fitted(2).build(
            net.wire_latency,
            net.switch_radix,
            net.inter_switch_extra,
            net.hop_latency,
        );
        // Hosts 0 and 1 share an edge switch: two hops of `hop_latency`.
        let mut route = Vec::new();
        topo.route_into(0, 1, 0, &mut route);
        let floor = route.len() as u64 * net.hop_latency;
        for t in &a.transfers {
            // Serialization: the idle-fabric time less the crossbar's wire.
            let serialize = net.transfer_time(t.bytes + 64) - net.wire_latency;
            prop_assert!(t.duration() >= serialize + floor);
        }
    }

    /// Physical transfer durations always respect the cost model: at least
    /// serialization + latency, and DMA start never precedes the post.
    #[test]
    fn transfer_timing_respects_cost_model(sends in arb_sends()) {
        let sends_in = sends.clone();
        let cluster = Cluster::new(2, NetConfig::default());
        let net = NetConfig::default();
        let out = cluster.run(SimOpts::default(), move |ctx, world| {
            if ctx.rank() == 0 {
                for s in &sends_in {
                    let mut w = world.lock();
                    let x = w.alloc_xfer_id();
                    let pkt = Packet::with_data(
                        0,
                        s.bytes + 64,
                        1,
                        [0; 6],
                        Bytes::from(vec![1u8; s.bytes]),
                    );
                    w.post_send(0, 1, pkt, 0, Some(x));
                }
            } else {
                let total = sends_in.len();
                let mut got = 0;
                while got < total {
                    if world.lock().poll_rx(1).is_some() {
                        got += 1;
                    } else {
                        ctx.park();
                    }
                }
            }
        }).unwrap();
        for t in &out.transfers {
            let min_duration = net.transfer_time(t.bytes + 64);
            prop_assert!(t.duration() >= min_duration,
                "transfer of {} bytes took {} < {}", t.bytes, t.duration(), min_duration);
        }
        // Back-to-back posts serialize on the DMA engine: starts are
        // non-decreasing and non-overlapping in serialization time.
        for w in out.transfers.windows(2) {
            let serialize = net.transfer_time(w[0].bytes + 64) - net.wire_latency;
            prop_assert!(w[1].phys_start >= w[0].phys_start + serialize);
        }
    }
}
