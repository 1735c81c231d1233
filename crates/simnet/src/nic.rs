//! Per-node NIC state: egress DMA engine, completion queue, receive queue.

use std::collections::VecDeque;

use bytes::Bytes;
use simcore::Time;

use crate::memory::RegionId;
use crate::packet::Packet;

/// Causal breakdown of where a fabric operation's time went before it
/// completed: every completion carries one, so wait-state analysis can say
/// what a blocked host was actually waiting *on* — queueing, the wire, or
/// fault recovery.
///
/// The components are disjoint: `serialize_ns` is pure wire occupancy for
/// this packet, the queue fields are time spent waiting behind *other*
/// packets' occupancy, and `fault_extra_ns` is injected disturbance
/// (random extra delay, exploration jitter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CausalEdge {
    /// Waited behind earlier packets for the egress DMA engine, ns.
    pub(crate) dma_queue_ns: u64,
    /// Wire/DMA serialization of this packet itself, ns.
    pub(crate) serialize_ns: u64,
    /// Waited behind earlier packets for the ingress engine, ns.
    pub(crate) ingress_queue_ns: u64,
    /// Waited behind other flows on shared fabric links along the route
    /// (per-hop queuing under a hierarchical topology), ns.
    pub(crate) hop_queue_ns: u64,
    /// Fault-injected extra latency (delay, jitter), ns.
    pub(crate) fault_extra_ns: u64,
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

/// MPI's matching rule, written once: the host library runs it under
/// host-driven progress, the NIC under hardware tag matching. Posted receives
/// are searched in post order and unexpected arrivals in arrival order (MPI
/// non-overtaking); a `None` selector is a wildcard. A posted receive is an
/// opaque `u64` (request id or completion word), an arrival an `A` parked
/// with its `(src, tag)` envelope.
#[derive(Debug)]
pub struct Matcher<A> {
    posted: VecDeque<(Option<usize>, Option<u64>, u64)>,
    unexpected: VecDeque<(usize, u64, A)>,
}

impl<A> Default for Matcher<A> {
    fn default() -> Self {
        Matcher {
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
        }
    }
}

fn selects(src: Option<usize>, tag: Option<u64>, s: usize, t: u64) -> bool {
    src.is_none_or(|v| v == s) && tag.is_none_or(|v| v == t)
}

impl<A> Matcher<A> {
    /// Post receive `recv` for `(src, tag)`: the first unexpected arrival it
    /// selects is taken and returned with its envelope; with none, the
    /// receive waits in the posted queue.
    pub fn post(
        &mut self,
        src: Option<usize>,
        tag: Option<u64>,
        recv: u64,
    ) -> Option<(usize, u64, A)> {
        match self
            .unexpected
            .iter()
            .position(|&(s, t, _)| selects(src, tag, s, t))
        {
            Some(pos) => self.unexpected.remove(pos),
            None => {
                self.posted.push_back((src, tag, recv));
                None
            }
        }
    }

    /// Take the first posted receive that selects an arrival from `src`
    /// with `tag`; `None` means the arrival is unexpected (see
    /// [`Matcher::park`]).
    pub fn take_posted(&mut self, src: usize, tag: u64) -> Option<u64> {
        let pos = self
            .posted
            .iter()
            .position(|&(ps, pt, _)| selects(ps, pt, src, tag))?;
        self.posted.remove(pos).map(|(_, _, recv)| recv)
    }

    /// Queue an arrival no posted receive selected.
    pub fn park(&mut self, src: usize, tag: u64, arrival: A) {
        self.unexpected.push_back((src, tag, arrival));
    }

    /// Would a receive posted for `(src, tag)` now match an unexpected
    /// arrival? Consumes nothing (`MPI_Iprobe`).
    pub fn probe(&self, src: Option<usize>, tag: Option<u64>) -> bool {
        self.unexpected
            .iter()
            .any(|&(s, t, _)| selects(src, tag, s, t))
    }

    /// The `(src, tag)` selectors of posted receive `recv`, while it waits.
    pub fn posted_sel(&self, recv: u64) -> Option<(Option<usize>, Option<u64>)> {
        self.posted
            .iter()
            .find(|&&(_, _, r)| r == recv)
            .map(|&(s, t, _)| (s, t))
    }

    /// Waiting posted receives and parked unexpected arrivals.
    pub fn lens(&self) -> (usize, usize) {
        (self.posted.len(), self.unexpected.len())
    }
}

/// A message resolved by the receiving NIC's tag matcher (the `hw-tag`
/// offload), carried by [`crate::World::hw_send`]. Either way the matched
/// receive completes with the payload and `(src, tag, xfer)` immediate
/// data.
#[derive(Debug)]
pub enum HwMsg {
    /// Eager payload, held in the NIC's overflow buffer until matched.
    Eager {
        /// Opaque transfer-id word echoed in the completion.
        xfer: u64,
        /// The payload.
        data: Bytes,
        /// Stamped by the fabric at delivery.
        edge: CausalEdge,
    },
    /// Rendezvous request-to-send: once matched, the NIC pulls `len` bytes
    /// of the sender's `region` with an RDMA Read recorded as `xfer`.
    Rndv {
        /// Message length.
        len: usize,
        /// The sender's registered buffer.
        region: RegionId,
        /// Fabric transfer id of the pull.
        xfer: u64,
        /// Delivered back to the sender when the pull completes.
        fin: Packet,
    },
}

/// NIC state for one node. All mutation happens inside the world lock; hosts
/// observe `cq` and `rx` only through polls.
#[derive(Debug, Default)]
pub(crate) struct Nic {
    /// Virtual time at which the egress DMA engine becomes free.
    dma_free_at: Time,
    /// Virtual time at which the ingress engine becomes free (only used
    /// when ingress contention is modeled).
    ingress_free_at: Time,
    /// Completion queue, drained by host polls.
    pub(crate) cq: VecDeque<Completion>,
    /// Received packets, drained by host polls.
    pub(crate) rx: VecDeque<Packet>,
    /// Hardware tag matching (`hw-tag`): posted receive descriptors and
    /// the NIC's unexpected queue.
    pub(crate) hw: Matcher<HwMsg>,
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

    /// Queue a completion for the host.
    pub(crate) fn complete(
        &mut self,
        user: u64,
        data: Option<Bytes>,
        imm: [u64; 3],
        edge: CausalEdge,
    ) {
        self.cq.push_back(Completion {
            user,
            data,
            imm,
            edge,
        });
    }

    /// Queue a received packet for the host.
    pub(crate) fn deliver(&mut self, packet: Packet) {
        self.rx.push_back(packet);
    }

    /// True if the host would observe anything on a poll.
    pub(crate) fn has_host_events(&self) -> bool {
        !self.cq.is_empty() || !self.rx.is_empty()
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

    #[test]
    fn matcher_searches_in_order_and_probe_does_not_consume() {
        let mut m = Matcher::<&str>::default();
        // Unexpected arrivals are searched in arrival order.
        m.park(1, 7, "a");
        m.park(2, 7, "b");
        m.park(1, 8, "c");
        assert!(m.probe(Some(1), Some(8)));
        assert!(!m.probe(Some(3), None));
        assert_eq!(m.lens(), (0, 3), "a probe consumes nothing");
        assert_eq!(m.post(None, Some(7), 10), Some((1, 7, "a")));
        assert_eq!(m.post(Some(1), None, 11), Some((1, 8, "c")));
        assert_eq!(m.post(None, None, 12), Some((2, 7, "b")));
        // Nothing parked: receives wait, and are searched in post order.
        assert_eq!(m.post(Some(3), None, 13), None);
        assert_eq!(m.post(None, Some(9), 14), None);
        assert_eq!(m.post(None, None, 15), None);
        assert_eq!(m.posted_sel(14), Some((None, Some(9))));
        assert_eq!(m.take_posted(3, 9), Some(13));
        assert_eq!(m.take_posted(4, 9), Some(14));
        assert_eq!(m.take_posted(4, 1), Some(15));
        assert_eq!(m.take_posted(4, 9), None);
        assert_eq!(m.posted_sel(14), None);
        assert_eq!(m.lens(), (0, 0));
    }
}
