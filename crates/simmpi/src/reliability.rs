//! Go-back-nothing reliability for the two-sided packet path: per-peer
//! sequence numbers, cumulative ACKs, gap NACKs, and virtual-time
//! retransmission with exponential backoff.
//!
//! Real RDMA fabrics are reliable in hardware, which is why the paper's
//! protocols never retransmit. This layer exists for the fault-injection
//! study: when the simulated fabric is configured lossy
//! ([`simnet::FaultPlan`]), eager and rendezvous control packets must still
//! arrive exactly once and in order or the protocol state machines wedge.
//!
//! Design constraints:
//!
//! * **Inert when the fabric is loss-free.** With `enabled == false` every
//!   packet is posted untouched (`h[5] == 0`), no timer is scheduled, and no
//!   ACK traffic exists — the wire behavior is byte-identical to the
//!   reliability-unaware library, preserving all figure outputs.
//! * **Only `post_send` packets are sequenced.** RDMA Reads/Writes (and the
//!   FIN notifications riding on them) model hardware-reliable one-sided
//!   traffic and bypass the fault injector entirely.
//! * **Driven from the polling progress engine.** Timeouts are checked each
//!   time the application enters the library; a scheduled engine wake-up
//!   un-parks a blocked rank when a deadline passes so retransmissions
//!   happen even while the rank sits in a wait.
//!
//! Retransmissions are posted with `wr_kind::IGNORE`: the original post's
//! local completion already fired (a dropped packet still leaves the source
//! NIC), so a second completion must not re-drive the request state machine.
//!
//! ACK/NACK control packets ride the fabric's *protected* channel
//! ([`Packet::protect`]): they are exempt from fault injection. Without
//! this, teardown cannot be made safe — a rank whose final ACK was lost
//! would be retransmitted to forever after it exits (the two-generals
//! corner). Data and protocol packets remain fully lossy.

use std::collections::BTreeMap;

use simcore::{Duration, EngineHandle, Time};
use simnet::{Packet, World, XferId};

use crate::proto::{self, wr_kind};

/// Cap on the exponential-backoff shift (timeout << shift).
const MAX_BACKOFF_SHIFT: u32 = 6;

/// Reliability-layer counters (per rank), exposed for harnesses and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Packets re-posted after a timeout or NACK.
    pub retransmissions: u64,
    /// Packets abandoned after exhausting the retry budget. A nonzero count
    /// means delivery was given up on: the protocol above may wedge, but it
    /// wedges into the engine's *detectable* quiescent deadlock instead of
    /// retransmitting forever.
    pub abandoned: u64,
}

struct Pending {
    packet: Packet,
    deadline: Time,
    /// Backoff shift applied to the next deadline (doubles per retry,
    /// capped at [`MAX_BACKOFF_SHIFT`]).
    backoff: u32,
    /// Total retransmissions of this packet (timeout- or NACK-driven);
    /// compared against the retry budget, unlike the capped `backoff`.
    retries: u32,
    /// Ground-truth transfer id of the payload, if any (re-recorded on
    /// retransmission: the wire genuinely carries the bytes again).
    xfer: Option<u64>,
}

struct TxPeer {
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
}

#[derive(Default)]
struct RxPeer {
    next_expected: u64,
    reorder: BTreeMap<u64, Packet>,
}

/// Per-rank reliability state; owned by the MPI endpoint.
pub(crate) struct Reliability {
    /// False on a loss-free fabric: every operation is pass-through.
    pub(crate) enabled: bool,
    rank: usize,
    timeout: Duration,
    /// Give up on a packet after this many retransmissions. Bounds the
    /// livelock a permanently lossy link can cause: once the budget is
    /// spent the packet is abandoned and the run quiesces into the engine's
    /// deadlock detection instead of spinning until a resource limit.
    max_retries: u32,
    ctrl_bytes: usize,
    handle: EngineHandle,
    /// Per-peer state, peers ascending: a poll that retransmits to several
    /// peers posts in that order, so faulted runs repeat.
    tx: BTreeMap<usize, TxPeer>,
    rx: BTreeMap<usize, RxPeer>,
    stats: RelStats,
}

impl Reliability {
    pub(crate) fn new(
        enabled: bool,
        rank: usize,
        timeout: Duration,
        max_retries: u32,
        ctrl_bytes: usize,
        handle: EngineHandle,
    ) -> Self {
        Reliability {
            enabled,
            rank,
            timeout,
            max_retries,
            ctrl_bytes,
            handle,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            stats: RelStats::default(),
        }
    }

    /// Counters so far.
    pub(crate) fn stats(&self) -> RelStats {
        self.stats
    }

    /// Any packets still awaiting acknowledgment? A rank must not tear down
    /// while true: a peer may still need one of them retransmitted.
    pub(crate) fn has_pending(&self) -> bool {
        self.tx.values().any(|p| !p.pending.is_empty())
    }

    /// Number of packets still awaiting acknowledgment (diagnostics).
    pub(crate) fn pending_packets(&self) -> usize {
        self.tx.values().map(|p| p.pending.len()).sum()
    }

    /// Lowest-numbered peer with un-ACKed packets, if any (the structured
    /// wait-for edge when no data request explains a stall).
    pub(crate) fn first_pending_peer(&self) -> Option<usize> {
        self.tx
            .iter()
            .find(|(_, p)| !p.pending.is_empty())
            .map(|(&peer, _)| peer)
    }

    /// Transfer id of the oldest unacknowledged payload that has been
    /// retransmitted at least once. While this returns `Some`, the rank is
    /// in loss recovery: the bytes went out again and the ACK is still
    /// outstanding — the protocol state machine alone cannot explain a
    /// stall. Oldest is by `(peer, seq)`, the order both maps iterate in.
    pub(crate) fn retrans_pending_xfer(&self) -> Option<u64> {
        self.tx
            .values()
            .flat_map(|tx| tx.pending.values())
            .filter(|p| p.backoff > 0)
            .find_map(|p| p.xfer)
    }

    /// Post a two-sided packet, sequencing it when the layer is active.
    /// Self-sends bypass sequencing (the fault injector never touches them).
    pub(crate) fn post(
        &mut self,
        w: &mut World,
        dst: usize,
        mut pkt: Packet,
        user: u64,
        xfer: Option<XferId>,
    ) {
        if !self.enabled || dst == self.rank {
            w.post_send(self.rank, dst, pkt, user, xfer);
            return;
        }
        let peer = self.tx.entry(dst).or_insert_with(|| TxPeer {
            next_seq: 0,
            pending: BTreeMap::new(),
        });
        let seq = peer.next_seq;
        peer.next_seq += 1;
        pkt.h[5] = seq + 1;
        let deadline = self.handle.now() + self.timeout;
        peer.pending.insert(
            seq,
            Pending {
                packet: pkt.clone(),
                deadline,
                backoff: 0,
                retries: 0,
                xfer: xfer.map(|x| x.0),
            },
        );
        self.handle.wake_rank_at(deadline, self.rank);
        w.post_send(self.rank, dst, pkt, user, xfer);
    }

    /// Check retransmission deadlines; re-post every overdue packet with a
    /// doubled deadline. Returns the ground-truth transfer ids of payloads
    /// whose *first* retransmission just happened (for `XFER_FLAG` stamps).
    ///
    /// A packet whose retry budget is exhausted is abandoned instead of
    /// re-posted: no new deadline, no wake-up, and it stops counting as
    /// pending. Delivery of that packet has failed for good — but the run
    /// now *quiesces* (the engine's empty-queue deadlock detection fires
    /// with the wait-for diagnostics) rather than retransmitting forever.
    pub(crate) fn check_timeouts(&mut self, w: &mut World) -> Vec<u64> {
        let now = self.handle.now();
        let overdue: Vec<(usize, u64)> = self
            .tx
            .iter()
            .flat_map(|(&dst, peer)| {
                peer.pending
                    .iter()
                    .filter(move |(_, p)| p.deadline <= now)
                    .map(move |(&seq, _)| (dst, seq))
            })
            .collect();
        overdue
            .into_iter()
            .filter_map(|(dst, seq)| self.resend(w, dst, seq))
            .collect()
    }

    /// Handle a cumulative ACK from `src`: everything below `next_expected`
    /// has been delivered there.
    pub(crate) fn on_ack(&mut self, src: usize, next_expected: u64) {
        if let Some(peer) = self.tx.get_mut(&src) {
            peer.pending.retain(|&seq, _| seq >= next_expected);
        }
    }

    /// Handle a gap NACK from `src`: retransmit `missing` immediately if it
    /// is still pending. Returns the transfer id to flag, if this was the
    /// packet's first retransmission.
    pub(crate) fn on_nack(&mut self, w: &mut World, src: usize, missing: u64) -> Option<u64> {
        self.resend(w, src, missing)
    }

    /// Re-post pending packet `seq` to `dst` with a doubled deadline — or,
    /// once the retry budget that timeouts and NACKs share is spent, abandon
    /// it. Returns the transfer id to flag if this was the packet's first
    /// retransmission.
    fn resend(&mut self, w: &mut World, dst: usize, seq: u64) -> Option<u64> {
        let peer = self.tx.get_mut(&dst)?;
        let p = peer.pending.get_mut(&seq)?;
        if p.retries >= self.max_retries {
            peer.pending.remove(&seq);
            self.stats.abandoned += 1;
            return None;
        }
        self.stats.retransmissions += 1;
        let flag = (p.backoff == 0).then_some(p.xfer).flatten();
        w.post_send(
            self.rank,
            dst,
            p.packet.clone(),
            proto::pack_user(wr_kind::IGNORE, 0),
            p.xfer.map(XferId),
        );
        p.backoff = (p.backoff + 1).min(MAX_BACKOFF_SHIFT);
        p.retries += 1;
        p.deadline = self.handle.now() + (self.timeout << p.backoff);
        self.handle.wake_rank_at(p.deadline, self.rank);
        flag
    }

    /// Filter an incoming sequenced packet (`h[5] != 0`). Returns the
    /// packets now deliverable to the protocol layer, in sequence order —
    /// empty for duplicates and out-of-order arrivals (buffered).
    pub(crate) fn on_sequenced(&mut self, w: &mut World, p: Packet) -> Vec<Packet> {
        debug_assert!(p.h[5] != 0, "unsequenced packet in reliability filter");
        let seq = p.h[5] - 1;
        let src = p.src;
        let peer = self.rx.entry(src).or_default();
        if seq < peer.next_expected {
            // Duplicate (fabric duplication or spurious retransmit): drop,
            // but re-ACK so the sender stops resending it.
            let next_expected = peer.next_expected;
            self.send_control(w, src, proto::PT_ACK, next_expected);
            return Vec::new();
        }
        if seq > peer.next_expected {
            // Gap: buffer and ask for the missing packet right away instead
            // of waiting out the sender's timeout.
            let first_missing = peer.next_expected;
            peer.reorder.insert(seq, p);
            self.send_control(w, src, proto::PT_NACK, first_missing);
            return Vec::new();
        }
        let mut out = vec![p];
        peer.next_expected += 1;
        while let Some(q) = peer.reorder.remove(&peer.next_expected) {
            out.push(q);
            peer.next_expected += 1;
        }
        let next_expected = peer.next_expected;
        self.send_control(w, src, proto::PT_ACK, next_expected);
        out
    }

    /// Post an ACK or NACK (`ty`) carrying `word` in `h[0]` on the
    /// protected channel.
    fn send_control(&self, w: &mut World, dst: usize, ty: u16, word: u64) {
        let pkt = Packet::control(self.rank, self.ctrl_bytes, ty, [word, 0, 0, 0, 0, 0]).protect();
        w.post_send(
            self.rank,
            dst,
            pkt,
            proto::pack_user(wr_kind::IGNORE, 0),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{RankCtx, SimOpts};
    use simnet::{Cluster, NetConfig, SharedWorld};

    const TIMEOUT: Duration = 1_000;

    /// Run `body` on rank 0 of a two-node cluster with an active layer
    /// whose peer (rank 1) never acknowledges anything.
    fn on_rank0(
        max_retries: u32,
        body: impl Fn(&mut Reliability, &mut RankCtx, &SharedWorld) + Send + Sync + 'static,
    ) {
        Cluster::new(2, NetConfig::default())
            .run(SimOpts::default(), move |ctx, world| {
                if ctx.rank() == 0 {
                    let mut rel = Reliability::new(true, 0, TIMEOUT, max_retries, 64, ctx.handle());
                    body(&mut rel, ctx, world);
                }
            })
            .expect("run completes");
    }

    /// Post one sequenced packet to rank 1, recorded as a transfer; returns
    /// its transfer id.
    fn post(rel: &mut Reliability, world: &SharedWorld) -> u64 {
        let mut w = world.lock();
        let x = w.alloc_xfer_id();
        let pkt = Packet::control(0, 64, proto::PT_EAGER, [0; 6]);
        rel.post(
            &mut w,
            1,
            pkt,
            proto::pack_user(wr_kind::IGNORE, 0),
            Some(x),
        );
        x.0
    }

    #[test]
    fn deadlines_double_per_retransmission_up_to_the_cap() {
        on_rank0(10, |rel, ctx, world| {
            post(rel, world);
            for k in 1..=8u32 {
                let deadline = rel.tx[&1].pending[&0].deadline;
                ctx.compute(deadline - ctx.now());
                rel.check_timeouts(&mut world.lock());
                let shift = k.min(MAX_BACKOFF_SHIFT);
                assert_eq!(
                    rel.tx[&1].pending[&0].deadline,
                    ctx.now() + (TIMEOUT << shift),
                    "after retransmission {k}"
                );
            }
            assert_eq!(rel.stats().retransmissions, 8);
        });
    }

    #[test]
    fn a_transfer_is_flagged_on_its_first_retransmission_only() {
        on_rank0(10, |rel, ctx, world| {
            // Timeout first, then a NACK.
            let a = post(rel, world);
            ctx.compute(TIMEOUT);
            assert_eq!(rel.check_timeouts(&mut world.lock()), vec![a]);
            assert_eq!(rel.on_nack(&mut world.lock(), 1, 0), None);
            // NACK first, then a timeout (which resends both, flagging none).
            let b = post(rel, world);
            assert_eq!(rel.on_nack(&mut world.lock(), 1, 1), Some(b));
            ctx.compute(TIMEOUT << MAX_BACKOFF_SHIFT);
            assert!(rel.check_timeouts(&mut world.lock()).is_empty());
            assert_eq!(rel.stats().retransmissions, 5);
        });
    }

    #[test]
    fn timeouts_and_nacks_share_one_retry_budget() {
        on_rank0(3, |rel, ctx, world| {
            post(rel, world);
            post(rel, world);
            // Three resends of each, mixing NACKs and one timeout.
            rel.on_nack(&mut world.lock(), 1, 0);
            ctx.compute(TIMEOUT << MAX_BACKOFF_SHIFT);
            rel.check_timeouts(&mut world.lock());
            for seq in [1, 0, 1] {
                rel.on_nack(&mut world.lock(), 1, seq);
            }
            let stats = |retransmissions, abandoned| RelStats {
                retransmissions,
                abandoned,
            };
            assert_eq!(rel.stats(), stats(6, 0));
            // The fourth of either kind abandons instead of resending.
            assert_eq!(rel.on_nack(&mut world.lock(), 1, 0), None);
            assert_eq!(rel.stats(), stats(6, 1));
            assert!(rel.has_pending());
            ctx.compute(TIMEOUT << MAX_BACKOFF_SHIFT);
            assert!(rel.check_timeouts(&mut world.lock()).is_empty());
            assert_eq!(rel.stats(), stats(6, 2));
            assert!(!rel.has_pending());
        });
    }
}
