//! Per-node NIC state: egress DMA engine, completion queue, receive queue.

use std::collections::VecDeque;

use bytes::Bytes;
use simcore::Time;

use crate::memory::RegionId;
use crate::packet::Packet;

/// Identifier of a posted work request, returned by the `post_*` calls and
/// echoed in the matching [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WrId(pub u64);

/// Causal breakdown of where a fabric operation's time went before it
/// completed: every completion (and ground-truth transfer record) carries
/// one, so wait-state analysis can say what a blocked host was actually
/// waiting *on* — queueing, the wire, or fault recovery.
///
/// The components are disjoint: `serialize_ns` is pure wire occupancy for
/// this packet, the queue fields are time spent waiting behind *other*
/// packets' occupancy, and `fault_extra_ns` is injected disturbance
/// (retransmission delay, link degradation, NIC stall holds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CausalEdge {
    /// Waited behind earlier packets for the egress DMA engine, ns.
    pub dma_queue_ns: u64,
    /// Wire/DMA serialization of this packet itself, ns.
    pub serialize_ns: u64,
    /// Waited behind earlier packets for the ingress engine, ns.
    pub ingress_queue_ns: u64,
    /// Waited behind other flows on shared fabric links along the route
    /// (per-hop queuing under a hierarchical topology), ns.
    pub hop_queue_ns: u64,
    /// Fault-injected extra latency (delay, degradation, stall holds), ns.
    pub fault_extra_ns: u64,
}

impl CausalEdge {
    /// Fabric-contention share of the delay: time spent queued behind
    /// *other flows* in the network (shared links + ingress engine), as
    /// opposed to the local DMA queue or injected faults. This is what the
    /// `contention` wait cause carves out of `wire_drain`.
    pub fn contention_ns(&self) -> u64 {
        self.hop_queue_ns + self.ingress_queue_ns
    }
}

/// A completion-queue entry: the NIC finished a posted work request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The work request this completes.
    pub wr_id: WrId,
    /// Library-defined correlation word (set at post time).
    pub user: u64,
    /// For RDMA Read completions, the fetched bytes.
    pub data: Option<bytes::Bytes>,
    /// Immediate data (InfiniBand-style): opaque words a remote NIC attached
    /// to this completion. Used by the hardware tag-matching offload to
    /// carry the matched message's `(src, tag, transfer id)`; all-zero for
    /// host-initiated operations.
    pub imm: [u64; 3],
    /// Where the operation's time went before this completion fired.
    pub edge: CausalEdge,
}

/// A receive descriptor posted into a NIC's hardware tag-matching table
/// (`None` selector fields are wildcards).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HwPosted {
    pub(crate) src: Option<usize>,
    pub(crate) tag: Option<u64>,
    /// Correlation word echoed in the matching completion.
    pub(crate) user: u64,
}

/// An arrival parked in a NIC's hardware unexpected queue, awaiting a
/// matching posted receive.
#[derive(Debug)]
pub(crate) enum HwUnexpected {
    /// Eager payload held in the NIC's overflow buffer.
    Eager {
        src: usize,
        tag: u64,
        /// Opaque transfer-id word echoed in the completion's immediate data.
        xfer: u64,
        data: Bytes,
        edge: CausalEdge,
    },
    /// Rendezvous RTS: the pull starts when a receive matches.
    Rndv {
        src: usize,
        tag: u64,
        len: usize,
        region: RegionId,
        /// Fabric transfer id for the pull.
        xfer: u64,
        /// FIN notification delivered to the sender when the pull completes.
        fin: Packet,
    },
}

impl HwUnexpected {
    pub(crate) fn matches(&self, src: Option<usize>, tag: Option<u64>) -> bool {
        let (HwUnexpected::Eager { src: s, tag: t, .. }
        | HwUnexpected::Rndv { src: s, tag: t, .. }) = self;
        src.is_none_or(|v| v == *s) && tag.is_none_or(|v| v == *t)
    }
}

/// NIC state for one node. All mutation happens inside the world lock; hosts
/// observe `cq` and `rx` only through polls.
#[derive(Debug, Default)]
pub struct Nic {
    /// Virtual time at which the egress DMA engine becomes free.
    pub(crate) dma_free_at: Time,
    /// Virtual time at which the ingress engine becomes free (only used
    /// when ingress contention is modeled).
    pub(crate) ingress_free_at: Time,
    /// Completion queue, drained by host polls.
    pub(crate) cq: VecDeque<Completion>,
    /// Received packets, drained by host polls.
    pub(crate) rx: VecDeque<Packet>,
    /// Statistics: total completions generated.
    pub(crate) completions_generated: u64,
    /// Statistics: total packets delivered.
    pub(crate) packets_delivered: u64,
    /// Hardware tag-matching table: posted receive descriptors, searched in
    /// post order (MPI non-overtaking).
    pub(crate) hw_posted: VecDeque<HwPosted>,
    /// Hardware unexpected queue: arrivals with no matching descriptor,
    /// searched in arrival order.
    pub(crate) hw_unexpected: VecDeque<HwUnexpected>,
}

impl Nic {
    pub(crate) fn new() -> Self {
        Nic::default()
    }

    /// Reserve the egress DMA engine starting no earlier than `now` for
    /// `busy` ns; returns the actual start time.
    pub(crate) fn reserve_dma(&mut self, now: Time, busy: u64) -> Time {
        let start = self.dma_free_at.max(now);
        self.dma_free_at = start + busy;
        start
    }

    /// Reserve the ingress engine starting no earlier than `earliest` for
    /// `busy` ns; returns the completion time.
    pub(crate) fn reserve_ingress(&mut self, earliest: Time, busy: u64) -> Time {
        let start = self.ingress_free_at.max(earliest);
        self.ingress_free_at = start + busy;
        start + busy
    }

    /// Queue a completion for the host and count it.
    pub(crate) fn complete(
        &mut self,
        wr_id: WrId,
        user: u64,
        data: Option<Bytes>,
        imm: [u64; 3],
        edge: CausalEdge,
    ) {
        self.cq.push_back(Completion {
            wr_id,
            user,
            data,
            imm,
            edge,
        });
        self.completions_generated += 1;
    }

    /// Queue a received packet for the host and count it.
    pub(crate) fn deliver(&mut self, packet: Packet) {
        self.rx.push_back(packet);
        self.packets_delivered += 1;
    }

    /// True if the host would observe anything on a poll.
    pub fn has_host_events(&self) -> bool {
        !self.cq.is_empty() || !self.rx.is_empty()
    }

    /// First posted hardware receive descriptor matching `(src, tag)`, in
    /// post order.
    pub(crate) fn hw_match(&self, src: usize, tag: u64) -> Option<usize> {
        self.hw_posted
            .iter()
            .position(|e| e.src.is_none_or(|s| s == src) && e.tag.is_none_or(|t| t == tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_serializes_back_to_back_requests() {
        let mut nic = Nic::new();
        let s1 = nic.reserve_dma(100, 50);
        let s2 = nic.reserve_dma(100, 50);
        assert_eq!(s1, 100);
        assert_eq!(s2, 150);
        assert_eq!(nic.dma_free_at, 200);
    }

    #[test]
    fn dma_idles_until_now() {
        let mut nic = Nic::new();
        nic.reserve_dma(0, 10);
        let s = nic.reserve_dma(500, 10);
        assert_eq!(s, 500);
    }

    #[test]
    fn host_events_flag() {
        let mut nic = Nic::new();
        assert!(!nic.has_host_events());
        nic.rx.push_back(Packet::control(0, 64, 0, [0; 6]));
        assert!(nic.has_host_events());
    }
}
