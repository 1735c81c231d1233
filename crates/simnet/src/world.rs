//! The shared fabric state and its operations.
//!
//! # Locking invariant (critical)
//!
//! `World` lives behind `Arc<Mutex<_>>` ([`SharedWorld`]) and is mutated both
//! by rank threads (posting work requests, polling) and by engine callbacks
//! (deliveries, completions). Because the engine suspends a rank thread
//! mid-call when it yields, **library code must never hold the world lock
//! across `RankCtx::busy` / `RankCtx::park`** — the engine would then run a
//! delivery callback that blocks on the lock forever. Every method here is a
//! short lock-scoped state transition; time costs are charged by the caller
//! outside the lock.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simcore::{EngineHandle, Time};

use crate::arena::Slab;
use crate::config::{NetConfig, LOOPBACK_LATENCY};
use crate::fault::{FaultEvent, FaultKind, FaultRng};
use crate::memory::{NodeMemory, Region, RegionId};
use crate::nic::{CausalEdge, Completion, HwPosted, HwUnexpected, Nic};
use crate::packet::Packet;
use crate::topology::{Fabric, Hop, LINK_DEDICATED};
use crate::truth::{TransferKind, TransferRecord};

/// Fabric-assigned id for one data transfer operation. The instrumentation
/// layer uses the same id, so per-transfer bounds can be joined with
/// per-transfer ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XferId(pub u64);

/// Shared handle to the fabric.
pub type SharedWorld = Arc<Mutex<World>>;

/// Snapshot of one NIC's host-visible backlogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicStats {
    /// Packets awaiting a host poll.
    pub rx_backlog: usize,
    /// Completions awaiting a host poll.
    pub cq_backlog: usize,
}

/// One accepted-but-not-yet-applied fabric operation, parked in the
/// [`World::pending`] arena until its scheduled virtual time. The arena key
/// is the engine scheduling token, so dispatching an event is an arena
/// `remove` plus a state transition — no per-message closure boxing.
enum Pending {
    /// Two-sided send reaching `dst`: packet into the receive queue, local
    /// completion into `src`'s CQ.
    SendDeliver {
        src: usize,
        dst: usize,
        user: u64,
        packet: Packet,
        edge: CausalEdge,
    },
    /// A send whose packet the fault injector dropped: only the local
    /// completion fires (the NIC just saw the bytes leave).
    SendDropComplete {
        src: usize,
        user: u64,
        edge: CausalEdge,
    },
    /// Fault-injected duplicate copy trailing the original delivery.
    DupDeliver { dst: usize, packet: Packet },
    /// RDMA Write placement: bytes into `dst`'s registered memory, local
    /// completion, optional notify packet after the data.
    WriteApply {
        src: usize,
        dst: usize,
        region: RegionId,
        off: usize,
        data: Bytes,
        user: u64,
        notify: Option<Packet>,
        edge: CausalEdge,
    },
    /// RDMA Read request arriving at the target NIC; takes the region's bytes
    /// as of now ([`NodeMemory::read`]) and schedules the response leg.
    ReadRequest {
        initiator: usize,
        target: usize,
        region: RegionId,
        off: usize,
        len: usize,
        user: u64,
        imm: [u64; 3],
        notify: Option<Packet>,
        xfer: Option<XferId>,
    },
    /// RDMA Read response delivering the snapshot to the initiator's CQ,
    /// with an optional notify packet for the target.
    ReadReply {
        initiator: usize,
        target: usize,
        user: u64,
        imm: [u64; 3],
        snapshot: Bytes,
        notify: Option<Packet>,
        edge: CausalEdge,
    },
}

/// Per-shared-link channel: virtual-time occupancy reservations plus the
/// lazily-replayed background-tenant injection schedule (see
/// [`crate::topology::BackgroundJob`]). One per directed topology link —
/// flat crossbars have none.
#[derive(Debug, Clone, Copy, Default)]
struct LinkChan {
    /// Virtual time until which the link is occupied.
    free_at: Time,
    /// Next background injection not yet replayed (meaningful only when
    /// `bg_period > 0`).
    bg_next: Time,
    /// Inter-injection gap of the background flows crossing this link;
    /// `0` = no background traffic here.
    bg_period: u64,
    /// Link occupancy per background injection, ns.
    bg_busy: u64,
}

/// What [`World::launch`] decided for one payload: when it left the source
/// DMA, when it lands, and why it took that long.
struct Launch {
    dma_start: Time,
    arrival: Time,
    edge: CausalEdge,
}

/// All fabric state: NICs, registered memory, ground-truth transfer log.
pub struct World {
    cfg: Arc<NetConfig>,
    handle: EngineHandle,
    nics: Vec<Nic>,
    mem: Vec<NodeMemory>,
    next_region: u64,
    next_xfer: u64,
    transfers: Vec<TransferRecord>,
    /// Free-list arena of in-flight operations, keyed by scheduling token.
    pending: Slab<Pending>,
    /// The fabric topology, shared (`Arc`) so per-rank state stays lean.
    topo: Arc<dyn Fabric>,
    /// Per-shared-link occupancy channels, indexed by topology link id.
    chans: Vec<LinkChan>,
    /// Reused hop buffer — steady-state routing allocates nothing.
    route_buf: Vec<Hop>,
    /// Cached `!cfg.faults.is_empty()` — the fault-free fast path must not
    /// even inspect the plan per packet.
    faulty: bool,
    fault_rng: FaultRng,
    fault_events: Vec<FaultEvent>,
    /// FIN templates for in-flight hw rendezvous RTS packets, keyed by the
    /// meta id the RTS carries (the template cannot ride in the packet's
    /// fixed header words).
    hw_fin_meta: std::collections::HashMap<u64, Packet>,
    next_hw_meta: u64,
}

impl World {
    /// Build the fabric for `nnodes` nodes on the given engine.
    ///
    /// Registers itself as the engine's token handler (the fabric owns the
    /// simulation's token namespace — tokens are keys into its pending-work
    /// arena), so this must run before `Simulation::run` and nothing else on
    /// the same engine may call `set_token_handler`.
    pub(crate) fn new_shared(cfg: NetConfig, handle: EngineHandle, nnodes: usize) -> SharedWorld {
        let faulty = !cfg.faults.is_empty();
        let fault_rng = FaultRng::new(cfg.faults.seed);
        let topo = cfg.build_topology(nnodes);
        let chans = Self::init_link_chans(&cfg, topo.as_ref(), nnodes);
        let world = Arc::new(Mutex::new(World {
            cfg: Arc::new(cfg),
            handle: handle.clone(),
            nics: (0..nnodes).map(|_| Nic::new()).collect(),
            mem: (0..nnodes).map(|_| NodeMemory::new()).collect(),
            next_region: 0,
            next_xfer: 0,
            transfers: Vec::new(),
            pending: Slab::new(),
            topo,
            chans,
            route_buf: Vec::new(),
            faulty,
            fault_rng,
            fault_events: Vec::new(),
            hw_fin_meta: std::collections::HashMap::new(),
            next_hw_meta: 0,
        }));
        // Weak capture: a strong one would cycle (World holds the engine
        // handle, the engine holds the handler).
        let weak = Arc::downgrade(&world);
        handle.set_token_handler(move |h, token| {
            if let Some(w) = weak.upgrade() {
                World::dispatch(&w, h, token);
            }
        });
        world
    }

    /// Redeem `token` from the pending arena and apply the operation.
    /// Ranks are woken after the world lock is released (the engine's lock
    /// ordering rule), in the same order the closure-based paths used.
    fn dispatch(world: &SharedWorld, h: &EngineHandle, token: u64) {
        let mut w = world.lock();
        match w.pending.remove(token as usize) {
            Pending::SendDeliver {
                src,
                dst,
                user,
                mut packet,
                edge,
            } => {
                packet.edge = edge;
                if packet.ty >= crate::packet::hw::TY_BASE {
                    // NIC-offload traffic: consumed by the receiving NIC's
                    // matching engine, never surfaced to the host rx queue.
                    w.hw_deliver(dst, packet);
                } else {
                    w.nics[dst].deliver(packet);
                }
                w.nics[src].complete(user, None, [0; 3], edge);
                drop(w);
                h.wake_rank(dst);
                h.wake_rank(src);
            }
            Pending::SendDropComplete { src, user, edge } => {
                w.nics[src].complete(user, None, [0; 3], edge);
                drop(w);
                h.wake_rank(src);
            }
            Pending::DupDeliver { dst, packet } => {
                w.nics[dst].deliver(packet);
                drop(w);
                h.wake_rank(dst);
            }
            Pending::WriteApply {
                src,
                dst,
                region,
                off,
                data,
                user,
                notify,
                edge,
            } => {
                w.mem[dst].write(region, off, &data);
                w.nics[src].complete(user, None, [0; 3], edge);
                let wake_dst = w.deliver_notify(dst, notify, edge);
                drop(w);
                h.wake_rank(src);
                if wake_dst {
                    h.wake_rank(dst);
                }
            }
            Pending::ReadRequest {
                initiator,
                target,
                region,
                off,
                len,
                user,
                imm,
                notify,
                xfer,
            } => {
                // The response stream is subject to the initiator's ingress
                // contention, like any other inbound data.
                let l = w.launch(target, initiator, len);
                let snapshot = w.mem[target]
                    .read(region, off, len)
                    .expect("RDMA read of unknown region");
                w.record_transfer(xfer, TransferKind::RdmaRead, target, initiator, len, &l);
                w.schedule_pending(
                    l.arrival,
                    Pending::ReadReply {
                        initiator,
                        target,
                        user,
                        imm,
                        snapshot,
                        notify,
                        edge: l.edge,
                    },
                );
            }
            Pending::ReadReply {
                initiator,
                target,
                user,
                imm,
                snapshot,
                notify,
                edge,
            } => {
                w.nics[initiator].complete(user, Some(snapshot), imm, edge);
                let wake_target = w.deliver_notify(target, notify, edge);
                drop(w);
                h.wake_rank(initiator);
                if wake_target {
                    h.wake_rank(target);
                }
            }
        }
    }

    /// Deliver the notify packet riding behind an RDMA operation, if any;
    /// true when `to`'s host has something new to see.
    fn deliver_notify(&mut self, to: usize, notify: Option<Packet>, edge: CausalEdge) -> bool {
        let Some(mut p) = notify else { return false };
        p.edge = edge;
        self.nics[to].deliver(p);
        true
    }

    /// Fabric configuration (one per run: `clone()` is a refcount bump).
    pub fn cfg(&self) -> &Arc<NetConfig> {
        &self.cfg
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> Time {
        self.handle.now()
    }

    /// Allocate a transfer id for an upcoming data operation.
    pub fn alloc_xfer_id(&mut self) -> XferId {
        let id = XferId(self.next_xfer);
        self.next_xfer += 1;
        id
    }

    /// Register (pin) a memory region on `node`: a `Vec<u8>` becomes a
    /// writable window, a `Bytes` a read-only payload served by reference,
    /// a [`Region::Landing`] a receive buffer (see [`crate::memory`]). The *host cost* of pinning
    /// (`cfg().reg_cost`) must be charged by the caller.
    pub fn register(&mut self, node: usize, data: impl Into<Region>) -> RegionId {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        self.mem[node].insert(id, data.into());
        id
    }

    /// Deregister a region, returning its contents.
    pub fn deregister(&mut self, node: usize, id: RegionId) -> Bytes {
        self.mem[node]
            .remove(id)
            .expect("deregister of unknown region")
    }

    /// Registered memory of `node`.
    pub fn mem(&self, node: usize) -> &NodeMemory {
        &self.mem[node]
    }

    /// Mutable registered memory of `node`.
    pub fn mem_mut(&mut self, node: usize) -> &mut NodeMemory {
        &mut self.mem[node]
    }

    /// One-way propagation latency for control legs (requests, replies): the
    /// canonical route's summed hop latency, with no link occupancy charged
    /// — control packets are small enough that the model treats them as
    /// fluid.
    fn latency(&mut self, src: usize, dst: usize) -> u64 {
        if src == dst {
            return LOOPBACK_LATENCY;
        }
        let mut route = std::mem::take(&mut self.route_buf);
        self.topo.route_into(src, dst, 0, &mut route);
        let latency = route.iter().map(|h| h.latency).sum();
        self.route_buf = route;
        latency
    }

    /// Build per-link channels, seeding the background tenant's injection
    /// schedules: walk every background flow's canonical route once and
    /// turn the per-link flow count into a periodic occupancy replay (see
    /// [`crate::topology::BackgroundJob`] for the fluid model).
    fn init_link_chans(cfg: &NetConfig, topo: &dyn Fabric, nnodes: usize) -> Vec<LinkChan> {
        let mut chans = vec![LinkChan::default(); topo.links()];
        let Some(job) = cfg.background else {
            return chans;
        };
        if chans.is_empty() || nnodes < 2 {
            return chans; // crossbar or single rank: nothing to share
        }
        // Each src injects one message per period to a uniform destination;
        // a few sampled routes stand in for the destination spread, splitting
        // the src's unit rate. Per-link flow weight is in 1/SCALE flow units.
        const SCALE: u64 = 64;
        // De-phases the per-link injection schedules.
        const BG_SEED: u64 = 1;
        let n = nnodes;
        let samples = (n - 1).min(8);
        let w = (SCALE / samples as u64).max(1);
        let mut weight = vec![0u64; topo.links()];
        let mut route = Vec::new();
        for src in 0..n {
            for k in 0..samples {
                let r = crate::topology::mix64(BG_SEED ^ ((src as u64) << 20) ^ k as u64);
                let dst = (src + 1 + (r % (n as u64 - 1)) as usize) % n;
                topo.route_into(src, dst, 0, &mut route);
                for hop in &route {
                    if hop.link != LINK_DEDICATED {
                        weight[hop.link as usize] += w;
                    }
                }
            }
        }
        let busy = cfg.serialize(job.msg_bytes).max(1);
        for (l, &w) in weight.iter().enumerate() {
            if w == 0 {
                continue;
            }
            // w/SCALE flows cross this link, each injecting every
            // `period_ns`: the link sees one injection every `gap` ns.
            let gap = (job.period_ns.max(1).saturating_mul(SCALE) / w).max(1);
            chans[l] = LinkChan {
                free_at: 0,
                bg_next: crate::topology::mix64(BG_SEED ^ 0x6261_636b ^ l as u64) % gap,
                bg_period: gap,
                bg_busy: busy,
            };
        }
        chans
    }

    /// Reserve shared link `link` for `busy` ns starting no earlier than
    /// `t`, first replaying any background-tenant injections that arrived
    /// by `t`; returns the actual start time.
    fn reserve_link(&mut self, link: u32, t: Time, busy: u64) -> Time {
        // Finite switch buffer for the background tenant: an injection that
        // would queue longer than this many serializations is dropped, so an
        // oversubscribed tenant saturates the link instead of running its
        // backlog (and the foreground's arrival times) away unboundedly.
        const BG_BACKLOG_CAP: u64 = 16;
        let ch = &mut self.chans[link as usize];
        if ch.bg_period > 0 && ch.bg_next <= t {
            if ch.bg_busy <= ch.bg_period && ch.free_at <= ch.bg_next {
                // Undersubscribed and idle: no injection queues on another,
                // so the replay collapses to its last injection (O(1)).
                let k = (t - ch.bg_next) / ch.bg_period;
                ch.bg_next += k * ch.bg_period;
                ch.free_at = ch.bg_next + ch.bg_busy;
                ch.bg_next += ch.bg_period;
            } else {
                // Injections arriving after `t` are ignored (fluid
                // approximation), which bounds the replay by arrival time.
                while ch.bg_next <= t {
                    let s = ch.free_at.max(ch.bg_next);
                    if s - ch.bg_next <= BG_BACKLOG_CAP * ch.bg_busy {
                        ch.free_at = s + ch.bg_busy;
                    }
                    ch.bg_next += ch.bg_period;
                }
            }
        }
        let start = ch.free_at.max(t);
        ch.free_at = start + busy;
        start
    }

    /// Pick which equal-cost candidate route a message takes: a schedule
    /// choice point when the topology offers alternatives, so the explorer
    /// can search routing nondeterminism. Flat fabrics (one path) never
    /// consult — or record — anything.
    fn route_choice(&mut self, src: usize, dst: usize) -> usize {
        let n = self.topo.paths(src, dst);
        if n <= 1 {
            return 0;
        }
        match self.handle.oracle() {
            Some(orc) => orc.choose(simcore::ChoicePoint::Route { src, dst, n }),
            None => 0,
        }
    }

    /// Put `bytes` on the wire from `src` to `dst` now: reserve `src`'s
    /// egress DMA, walk the topology to the arrival (placement) time, and
    /// account every wait on the way in the causal edge. The one launch
    /// sequence behind sends, RDMA writes and read responses.
    ///
    /// The route is walked hop-by-hop (virtual cut-through: serialization is
    /// paid once, at the tail; each hop adds propagation latency plus any
    /// wait for its shared link). On the flat crossbar this reduces exactly
    /// to the pre-topology `dma_start + serialize + latency` formula —
    /// dedicated hops never queue. Ingress contention (when the config
    /// models it) then serializes concurrent streams into the destination
    /// NIC, as before.
    fn launch(&mut self, src: usize, dst: usize, bytes: usize) -> Launch {
        let now = self.now();
        let busy = self.cfg.serialize(bytes);
        let dma_start = self.nics[src].reserve_dma(now, busy);
        let mut edge = CausalEdge {
            dma_queue_ns: dma_start - now,
            serialize_ns: busy,
            ..CausalEdge::default()
        };
        if src == dst {
            let arrival = dma_start + busy + LOOPBACK_LATENCY;
            return Launch {
                dma_start,
                arrival,
                edge,
            };
        }
        let choice = self.route_choice(src, dst);
        let mut route = std::mem::take(&mut self.route_buf);
        self.topo.route_into(src, dst, choice, &mut route);
        let mut head = dma_start;
        for hop in &route {
            if hop.link != LINK_DEDICATED {
                let start = self.reserve_link(hop.link, head, busy);
                edge.hop_queue_ns += start - head;
                head = start;
            }
            head += hop.latency;
        }
        self.route_buf = route;
        let mut arrival = head + busy;
        if self.cfg.model_ingress_contention {
            let wire = arrival;
            arrival = self.nics[dst].reserve_ingress(head, busy).max(wire);
            edge.ingress_queue_ns = arrival - wire;
        }
        Launch {
            dma_start,
            arrival,
            edge,
        }
    }

    /// Record a launched payload movement in the ground truth, if the
    /// caller named it as a data transfer.
    fn record_transfer(
        &mut self,
        xfer: Option<XferId>,
        kind: TransferKind,
        src: usize,
        dst: usize,
        bytes: usize,
        l: &Launch,
    ) {
        if let Some(id) = xfer {
            self.transfers.push(TransferRecord {
                xfer_id: id.0,
                src,
                dst,
                bytes,
                phys_start: l.dma_start,
                phys_end: l.arrival,
                kind,
            });
        }
    }

    /// Park `op` in the pending arena and put its token on the engine wheel
    /// for `at`: one slab write and one wheel entry, at post time.
    fn schedule_pending(&mut self, at: Time, op: Pending) {
        let token = self.pending.insert(op) as u64;
        self.handle.schedule_token(at, token);
    }

    /// Post a two-sided send. The packet lands in `dst`'s receive queue and a
    /// completion lands in `src`'s CQ once the transfer (serialization + wire
    /// latency) finishes; both hosts are woken then. If `xfer` is given, the
    /// payload movement is recorded as a ground-truth data transfer.
    ///
    /// When the config carries a non-empty [`crate::fault::FaultPlan`], the
    /// packet may be dropped, duplicated, or delayed between the DMA and the
    /// remote receive queue. The sender's completion fires regardless — the
    /// NIC only knows the bytes left the node — so software above must detect
    /// loss itself (the point of the `simmpi` reliability layer). Every fault
    /// decision is recorded as a [`FaultEvent`] in the ground truth. Packets
    /// marked [`Packet::protect`] (reliability control traffic) bypass the
    /// injector entirely.
    pub fn post_send(
        &mut self,
        src: usize,
        dst: usize,
        packet: Packet,
        user: u64,
        xfer: Option<XferId>,
    ) {
        let now = self.now();
        let mut l = self.launch(src, dst, packet.wire_bytes);
        let mut deliver = true;
        let mut dup_arrival = None;
        if self.faulty && src != dst && !packet.protected {
            let plan = &self.cfg.faults;
            let (events, ty) = (&mut self.fault_events, packet.ty);
            // Record one fault decision in the ground truth; `extra` ns of
            // injected delay push the arrival out and are charged to the edge.
            let mut inject = |arrival: &mut Time, extra: u64, kind: FaultKind| {
                *arrival += extra;
                l.edge.fault_extra_ns += extra;
                events.push(FaultEvent {
                    at: now,
                    src,
                    dst,
                    packet_ty: ty,
                    kind,
                });
            };
            if self.fault_rng.chance(plan.drop_prob) {
                deliver = false;
                inject(&mut l.arrival, 0, FaultKind::Dropped);
            } else {
                if self.fault_rng.chance(plan.delay_prob) {
                    let extra = self.fault_rng.below_inclusive(plan.max_extra_delay);
                    if extra > 0 {
                        inject(&mut l.arrival, extra, FaultKind::Delayed { extra });
                    }
                }
                if plan.explore_jitter_ns > 0 {
                    // Schedule exploration: the oracle picks a discrete
                    // offset inside the bounded jitter window. Without an
                    // installed oracle (or with the canonical one, which
                    // always answers 0) the arrival is untouched.
                    if let Some(orc) = self.handle.oracle() {
                        let step = orc.choose(simcore::ChoicePoint::FaultJitter {
                            src,
                            dst,
                            n: plan.jitter_steps() as usize,
                        });
                        let extra = plan.jitter_delay(step as u32);
                        if extra > 0 {
                            inject(&mut l.arrival, extra, FaultKind::Delayed { extra });
                        }
                    }
                }
                if self.fault_rng.chance(plan.duplicate_prob) {
                    // The copy trails the original by one serialization slot.
                    dup_arrival = Some(l.arrival + l.edge.serialize_ns.max(1));
                    inject(&mut l.arrival, 0, FaultKind::Duplicated);
                }
            }
        }
        if deliver {
            self.record_transfer(xfer, TransferKind::Send, src, dst, packet.payload_len(), &l);
        }
        if let Some(dup_at) = dup_arrival {
            let copy = packet.clone();
            self.schedule_pending(dup_at, Pending::DupDeliver { dst, packet: copy });
        }
        if deliver {
            self.schedule_pending(
                l.arrival,
                Pending::SendDeliver {
                    src,
                    dst,
                    user,
                    packet,
                    edge: l.edge,
                },
            );
        } else {
            // Dropped in the fabric: the send still completes locally.
            self.schedule_pending(
                l.arrival,
                Pending::SendDropComplete {
                    src,
                    user,
                    edge: l.edge,
                },
            );
        }
    }

    /// Post a one-sided RDMA Write of `data` into `(dst, dst_region)` at
    /// `dst_off`. The destination **host is not involved and not woken**; the
    /// bytes simply appear in its registered memory. A completion (with
    /// `user` correlation) lands in `src`'s CQ at remote placement time. An
    /// optional `notify` packet is delivered to `dst` *after* the data — the
    /// usual "write then tell them" idiom.
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_write(
        &mut self,
        src: usize,
        dst: usize,
        dst_region: RegionId,
        dst_off: usize,
        data: Bytes,
        user: u64,
        notify: Option<Packet>,
        xfer: Option<XferId>,
    ) {
        let len = data.len();
        let l = self.launch(src, dst, len);
        self.record_transfer(xfer, TransferKind::RdmaWrite, src, dst, len, &l);
        self.schedule_pending(
            l.arrival,
            Pending::WriteApply {
                src,
                dst,
                region: dst_region,
                off: dst_off,
                data,
                user,
                notify,
                edge: l.edge,
            },
        );
    }

    /// Post a one-sided RDMA Read of `len` bytes from `(target, region)` at
    /// `off`. The request travels one latency to the target, whose NIC
    /// serves it **without host involvement**; the data arrives back at the
    /// initiator in the CQ completion (`Completion::data`). An optional
    /// `notify` packet is delivered to the target after its NIC finishes
    /// serving (used for FIN notifications in rendezvous protocols).
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_read(
        &mut self,
        initiator: usize,
        target: usize,
        region: RegionId,
        off: usize,
        len: usize,
        user: u64,
        notify_target: Option<Packet>,
        xfer: Option<XferId>,
    ) {
        self.rdma_read_imm(
            initiator,
            target,
            region,
            off,
            len,
            user,
            [0; 3],
            notify_target,
            xfer,
        )
    }

    /// [`World::post_rdma_read`] with immediate data attached to the
    /// eventual completion (used by the hw tag-matching pull, whose
    /// completion must carry the matched envelope).
    #[allow(clippy::too_many_arguments)]
    fn rdma_read_imm(
        &mut self,
        initiator: usize,
        target: usize,
        region: RegionId,
        off: usize,
        len: usize,
        user: u64,
        imm: [u64; 3],
        notify_target: Option<Packet>,
        xfer: Option<XferId>,
    ) {
        let now = self.now();
        let request_at = now + self.latency(initiator, target);
        self.schedule_pending(
            request_at,
            Pending::ReadRequest {
                initiator,
                target,
                region,
                off,
                len,
                user,
                imm,
                notify: notify_target,
                xfer,
            },
        );
    }

    // ---- hardware tag matching (hw-tag progress model) -------------------

    /// Post an eager send resolved by the *receiving NIC's* tag matcher: the
    /// payload travels like any two-sided send (DMA, fabric, optional
    /// ground-truth record under `xfer`), but at arrival the NIC matches it
    /// against [`World::hw_post_recv`] descriptors and completes the matched
    /// receive directly — the destination host never sees a packet. The
    /// local wire completion carries `wire_user`.
    ///
    /// Offload traffic rides the fabric's reliable transport: it is exempt
    /// from fault injection, like reliability-layer control traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn hw_send(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        data: Bytes,
        wire_bytes: usize,
        xfer_word: u64,
        wire_user: u64,
        xfer: Option<XferId>,
    ) {
        let pkt = Packet::with_data(
            src,
            wire_bytes,
            crate::packet::hw::EAGER,
            [tag, xfer_word, 0, 0, 0, 0],
            data,
        )
        .protect();
        self.post_send(src, dst, pkt, wire_user, xfer)
    }

    /// Post a rendezvous send resolved by the receiving NIC: an RTS control
    /// packet advertises `(tag, len, region)`; when the remote NIC matches
    /// it, the NIC itself pulls the region with an RDMA Read (recorded as
    /// transfer `xfer`) and delivers `fin` back to this node after the pull
    /// — zero involvement from either host past the post. The matched
    /// receive completes with the pulled bytes and `(src, tag, xfer)`
    /// immediate data.
    #[allow(clippy::too_many_arguments)]
    pub fn hw_send_rndv(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        len: usize,
        region: RegionId,
        xfer: XferId,
        rts_user: u64,
        fin: Packet,
    ) {
        let meta = self.next_hw_meta;
        self.next_hw_meta += 1;
        self.hw_fin_meta.insert(meta, fin);
        let pkt = Packet::control(
            src,
            self.cfg.ctrl_packet_bytes,
            crate::packet::hw::RTS,
            [tag, len as u64, region.0, xfer.0, meta, 0],
        )
        .protect();
        self.post_send(src, dst, pkt, rts_user, None)
    }

    /// Post a receive descriptor into `node`'s NIC matching table (`None`
    /// selectors are wildcards). If a parked unexpected arrival already
    /// matches, the NIC resolves it immediately: eager payloads complete
    /// right away, rendezvous RTSs start their pull. The eventual completion
    /// echoes `user` and carries `(src, tag, xfer word)` immediate data.
    pub fn hw_post_recv(&mut self, node: usize, src: Option<usize>, tag: Option<u64>, user: u64) {
        let pos = self.nics[node]
            .hw_unexpected
            .iter()
            .position(|u| u.matches(src, tag));
        let Some(pos) = pos else {
            self.nics[node]
                .hw_posted
                .push_back(HwPosted { src, tag, user });
            return;
        };
        match self.nics[node].hw_unexpected.remove(pos).unwrap() {
            HwUnexpected::Eager {
                src: s,
                tag: t,
                xfer,
                data,
                edge,
            } => self.hw_complete_recv(node, user, data, edge, [s as u64, t, xfer]),
            HwUnexpected::Rndv {
                src: s,
                tag: t,
                len,
                region,
                xfer,
                fin,
            } => {
                self.hw_start_pull(node, s, region, len, xfer, t, user, fin);
            }
        }
    }

    /// Does an arrival in `node`'s NIC unexpected queue match the selectors
    /// (the hw analogue of scanning the host-side unexpected queue for
    /// `MPI_Iprobe`)?
    pub fn hw_probe(&self, node: usize, src: Option<usize>, tag: Option<u64>) -> bool {
        self.nics[node]
            .hw_unexpected
            .iter()
            .any(|u| u.matches(src, tag))
    }

    /// NIC-side resolution of an offload packet at delivery time.
    fn hw_deliver(&mut self, dst: usize, packet: Packet) {
        let src = packet.src;
        let edge = packet.edge;
        match packet.ty {
            t if t == crate::packet::hw::EAGER => {
                let tag = packet.h[0];
                let xfer_word = packet.h[1];
                let data = packet.data.unwrap_or_default();
                if let Some(pos) = self.nics[dst].hw_match(src, tag) {
                    let e = self.nics[dst].hw_posted.remove(pos).unwrap();
                    self.hw_complete_recv(dst, e.user, data, edge, [src as u64, tag, xfer_word]);
                } else {
                    self.nics[dst].hw_unexpected.push_back(HwUnexpected::Eager {
                        src,
                        tag,
                        xfer: xfer_word,
                        data,
                        edge,
                    });
                }
            }
            t if t == crate::packet::hw::RTS => {
                let tag = packet.h[0];
                let len = packet.h[1] as usize;
                let region = RegionId(packet.h[2]);
                let xfer = packet.h[3];
                let fin = self
                    .hw_fin_meta
                    .remove(&packet.h[4])
                    .expect("hw RTS without FIN template");
                if let Some(pos) = self.nics[dst].hw_match(src, tag) {
                    let e = self.nics[dst].hw_posted.remove(pos).unwrap();
                    self.hw_start_pull(dst, src, region, len, xfer, tag, e.user, fin);
                } else {
                    self.nics[dst].hw_unexpected.push_back(HwUnexpected::Rndv {
                        src,
                        tag,
                        len,
                        region,
                        xfer,
                        fin,
                    });
                }
            }
            other => panic!("unknown hw packet type {other}"),
        }
    }

    /// Push a matched-receive completion into `node`'s CQ.
    fn hw_complete_recv(
        &mut self,
        node: usize,
        user: u64,
        data: Bytes,
        edge: CausalEdge,
        imm: [u64; 3],
    ) {
        self.nics[node].complete(user, Some(data), imm, edge);
    }

    /// Start the NIC-initiated rendezvous pull for a matched RTS.
    #[allow(clippy::too_many_arguments)]
    fn hw_start_pull(
        &mut self,
        dst: usize,
        src: usize,
        region: RegionId,
        len: usize,
        xfer: u64,
        tag: u64,
        user: u64,
        fin: Packet,
    ) {
        self.rdma_read_imm(
            dst,
            src,
            region,
            0,
            len,
            user,
            [src as u64, tag, xfer],
            Some(fin),
            Some(XferId(xfer)),
        );
    }

    /// Drain one completion from `node`'s CQ, if any. The *host cost* of the
    /// poll (`cfg().poll_cost`) must be charged by the caller.
    pub fn poll_cq(&mut self, node: usize) -> Option<Completion> {
        self.nics[node].cq.pop_front()
    }

    /// Drain one received packet from `node`'s receive queue, if any.
    pub fn poll_rx(&mut self, node: usize) -> Option<Packet> {
        self.nics[node].rx.pop_front()
    }

    /// Would a poll on `node` observe anything right now?
    pub fn has_host_events(&self, node: usize) -> bool {
        self.nics[node].has_host_events()
    }

    /// Backlogs of one NIC (what a poll would still find).
    pub fn nic_stats(&self, node: usize) -> NicStats {
        let nic = &self.nics[node];
        NicStats {
            rx_backlog: nic.rx.len(),
            cq_backlog: nic.cq.len(),
        }
    }

    /// Take ownership of the transfer records (e.g. at end of run).
    pub(crate) fn take_transfers(&mut self) -> Vec<TransferRecord> {
        std::mem::take(&mut self.transfers)
    }

    /// Take ownership of the fault events (e.g. at end of run).
    pub(crate) fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.fault_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimOpts, Simulation};

    fn two_node_world() -> (Simulation, SharedWorld) {
        let sim = Simulation::new(2);
        let world = World::new_shared(NetConfig::infiniband_2006(), sim.handle(), 2);
        (sim, world)
    }

    #[test]
    fn send_delivers_packet_and_completion() {
        let (sim, world) = two_node_world();
        let w2 = world.clone();
        let out = sim
            .run(SimOpts::default(), move |ctx| {
                if ctx.rank() == 0 {
                    let xfer = {
                        let mut w = w2.lock();
                        let x = w.alloc_xfer_id();
                        let p = Packet::with_data(
                            0,
                            1064,
                            1,
                            [42, 0, 0, 0, 0, 0],
                            Bytes::from(vec![7u8; 1000]),
                        );
                        w.post_send(0, 1, p, 0, Some(x));
                        x
                    };
                    // Wait for the local completion.
                    loop {
                        if w2.lock().poll_cq(0).is_some() {
                            break;
                        }
                        ctx.park();
                    }
                    let _ = xfer;
                } else {
                    loop {
                        if let Some(p) = w2.lock().poll_rx(1) {
                            assert_eq!(p.src, 0);
                            assert_eq!(p.h[0], 42);
                            assert_eq!(p.data.unwrap()[999], 7);
                            break;
                        }
                        ctx.park();
                    }
                }
            })
            .unwrap();
        // serialization (1064 B at 1 B/ns) + 5 µs latency
        assert_eq!(out.end_time, 1064 + 5000);
        let ts = world.lock().take_transfers();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].bytes, 1000);
        assert_eq!(ts[0].phys_end - ts[0].phys_start, 1064 + 5000);
    }

    #[test]
    fn rdma_write_places_data_without_waking_target() {
        let (sim, world) = two_node_world();
        let w2 = world.clone();
        let out = sim
            .run(SimOpts::default(), move |ctx| {
                if ctx.rank() == 0 {
                    {
                        let mut w = w2.lock();
                        let region = w.register(1, vec![0u8; 100]); // target-side region
                        let x = w.alloc_xfer_id();
                        w.post_rdma_write(
                            0,
                            1,
                            region,
                            10,
                            Bytes::from(vec![5u8; 50]),
                            99,
                            None,
                            Some(x),
                        );
                        // Stash region id for rank 1 via header-free channel:
                        // use a second region on node 0 as a mailbox.
                        let mailbox = w.register(0, region.0.to_le_bytes().to_vec());
                        assert_eq!(mailbox.0, region.0 + 1);
                    }
                    loop {
                        let c = w2.lock().poll_cq(0);
                        if let Some(c) = c {
                            assert_eq!(c.user, 99);
                            break;
                        }
                        ctx.park();
                    }
                    // After completion the data must be in target memory.
                    let w = w2.lock();
                    let data = w.mem(1).get(RegionId(0)).unwrap();
                    assert_eq!(&data[10..60], &[5u8; 50][..]);
                    assert_eq!(data[0], 0);
                } else {
                    // Target host does nothing; it must never be woken.
                    ctx.compute(100);
                }
            })
            .unwrap();
        assert!(out.end_time >= 5050);
        assert_eq!(world.lock().transfers[0].kind, TransferKind::RdmaWrite);
    }

    #[test]
    fn rdma_read_fetches_remote_bytes() {
        let (sim, world) = two_node_world();
        let w2 = world.clone();
        sim.run(SimOpts::default(), move |ctx| {
            if ctx.rank() == 1 {
                // Target registers data at a deterministic region id (0) and
                // idles; its host never participates in the read.
                w2.lock().register(1, (0u8..200).collect::<Vec<u8>>());
                ctx.compute(1_000_000);
            } else {
                ctx.compute(10_000); // let target register first
                {
                    let mut w = w2.lock();
                    let x = w.alloc_xfer_id();
                    w.post_rdma_read(0, 1, RegionId(0), 50, 100, 7, None, Some(x));
                }
                loop {
                    let c = w2.lock().poll_cq(0);
                    if let Some(c) = c {
                        assert_eq!(c.user, 7);
                        let data = c.data.unwrap();
                        assert_eq!(data.len(), 100);
                        assert_eq!(data[0], 50);
                        assert_eq!(data[99], 149);
                        return;
                    }
                    ctx.park();
                }
            }
        })
        .unwrap();
        let ts = world.lock().take_transfers();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].kind, TransferKind::RdmaRead);
        assert_eq!(ts[0].src, 1);
        assert_eq!(ts[0].dst, 0);
        // duration = serialization + return latency
        assert_eq!(ts[0].duration(), 100 + 5000);
    }

    #[test]
    fn dma_serializes_two_concurrent_sends() {
        let (sim, world) = two_node_world();
        let w2 = world.clone();
        sim.run(SimOpts::default(), move |ctx| {
            if ctx.rank() == 0 {
                {
                    let mut w = w2.lock();
                    let x1 = w.alloc_xfer_id();
                    let x2 = w.alloc_xfer_id();
                    let mk = |n| Packet::with_data(0, 1000, 1, [0; 6], Bytes::from(vec![n; 1000]));
                    w.post_send(0, 1, mk(1), 0, Some(x1));
                    w.post_send(0, 1, mk(2), 0, Some(x2));
                }
                let mut got = 0;
                while got < 2 {
                    while w2.lock().poll_cq(0).is_some() {
                        got += 1;
                    }
                    if got < 2 {
                        ctx.park();
                    }
                }
            } else {
                let mut got = 0;
                while got < 2 {
                    while w2.lock().poll_rx(1).is_some() {
                        got += 1;
                    }
                    if got < 2 {
                        ctx.park();
                    }
                }
            }
        })
        .unwrap();
        let ts = world.lock().take_transfers();
        assert_eq!(ts.len(), 2);
        // Second transfer's DMA start must wait for the first to finish.
        assert_eq!(ts[1].phys_start, ts[0].phys_start + 1000);
    }

    #[test]
    fn notify_packet_arrives_with_rdma_write() {
        let (sim, world) = two_node_world();
        let w2 = world.clone();
        sim.run(SimOpts::default(), move |ctx| {
            if ctx.rank() == 0 {
                {
                    let mut w = w2.lock();
                    let region = w.register(1, vec![0u8; 8]);
                    let fin = Packet::control(0, 64, 9, [region.0, 0, 0, 0, 0, 0]);
                    w.post_rdma_write(
                        0,
                        1,
                        region,
                        0,
                        Bytes::from(vec![3u8; 8]),
                        0,
                        Some(fin),
                        None,
                    );
                }
                ctx.compute(1);
            } else {
                loop {
                    let p = w2.lock().poll_rx(1);
                    if let Some(p) = p {
                        assert_eq!(p.ty, 9);
                        // Data must already be visible when the FIN arrives.
                        let w = w2.lock();
                        assert_eq!(w.mem(1).get(RegionId(p.h[0])).unwrap(), &[3u8; 8][..]);
                        return;
                    }
                    ctx.park();
                }
            }
        })
        .unwrap();
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;
    use simcore::{RankCtx, SimOpts, Simulation};

    /// Run `body` on rank 0 of a two-node fabric; rank 1 is a passive target.
    fn on_rank0(body: impl Fn(&mut RankCtx, &SharedWorld) + Send + Sync + 'static) {
        let sim = Simulation::new(2);
        let world = World::new_shared(NetConfig::infiniband_2006(), sim.handle(), 2);
        sim.run(SimOpts::default(), move |ctx| {
            if ctx.rank() == 0 {
                body(ctx, &world);
            }
        })
        .unwrap();
    }

    /// Block until rank 0's next completion and return its payload.
    fn complete(ctx: &mut RankCtx, world: &SharedWorld) -> Option<Bytes> {
        loop {
            if let Some(c) = world.lock().poll_cq(0) {
                return c.data;
            }
            ctx.park();
        }
    }

    #[test]
    fn read_of_a_bytes_region_shares_the_senders_allocation() {
        on_rank0(|ctx, world| {
            let payload = Bytes::from((0u8..200).collect::<Vec<u8>>());
            {
                let mut w = world.lock();
                let region = w.register(1, payload.clone());
                w.post_rdma_read(0, 1, region, 50, 100, 7, None, None);
            }
            let data = complete(ctx, world).unwrap();
            assert_eq!(data.as_ptr(), payload[50..].as_ptr(), "reply must not copy");
            assert_eq!((data.len(), data[0], data[99]), (100, 50, 149));
        });
    }

    #[test]
    fn writable_window_read_twice_around_a_put_sees_both_states() {
        on_rank0(|ctx, world| {
            let window = world.lock().register(1, vec![1u8; 16]);
            let read = |ctx: &mut RankCtx| {
                world
                    .lock()
                    .post_rdma_read(0, 1, window, 0, 16, 0, None, None);
                complete(ctx, world).unwrap()
            };
            let before = read(ctx);
            let put = Bytes::from(vec![2u8; 16]);
            world
                .lock()
                .post_rdma_write(0, 1, window, 0, put, 0, None, None);
            complete(ctx, world);
            let after = read(ctx);
            assert_eq!(&before[..], &[1u8; 16][..], "snapshot predates the put");
            assert_eq!(&after[..], &[2u8; 16][..]);
        });
    }

    #[test]
    fn bytes_region_refuses_write() {
        let run = || {
            on_rank0(|ctx, world| {
                {
                    let mut w = world.lock();
                    let region = w.register(1, Bytes::from(vec![0u8; 64]));
                    w.post_rdma_write(0, 1, region, 0, Bytes::from(vec![1u8; 8]), 0, None, None);
                }
                complete(ctx, world);
            })
        };
        let err =
            std::panic::catch_unwind(run).expect_err("a write into a read-only region must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("region 0 is read-only"), "got: {msg}");
        assert_eq!(msg.lines().count(), 1, "one line: {msg}");
    }
}

#[cfg(test)]
mod ingress_tests {
    use super::*;
    use bytes::Bytes;
    use simcore::{SimOpts, Simulation};

    fn incast_end_time(contention: bool) -> simcore::Time {
        let sim = Simulation::new(3);
        let cfg = NetConfig {
            model_ingress_contention: contention,
            ..NetConfig::infiniband_2006()
        };
        let world = World::new_shared(cfg, sim.handle(), 3);
        let w2 = world.clone();
        let out = sim
            .run(SimOpts::default(), move |ctx| {
                if ctx.rank() == 2 {
                    // Sink: wait for both 100 KB packets.
                    let mut got = 0;
                    while got < 2 {
                        if w2.lock().poll_rx(2).is_some() {
                            got += 1;
                        } else {
                            ctx.park();
                        }
                    }
                } else {
                    let mut w = w2.lock();
                    let pkt = Packet::with_data(
                        ctx.rank(),
                        100_000,
                        1,
                        [0; 6],
                        Bytes::from(vec![1u8; 100_000]),
                    );
                    w.post_send(ctx.rank(), 2, pkt, 0, None);
                }
            })
            .unwrap();
        out.end_time
    }

    #[test]
    fn incast_contention_serializes_arrivals() {
        let free = incast_end_time(false);
        let contended = incast_end_time(true);
        // Without contention both arrive after one serialization; with it,
        // the second must queue behind the first at the receiver.
        assert!(contended > free, "{contended} <= {free}");
        assert!(
            contended >= free + 90_000,
            "second transfer should queue ~one serialization: {contended} vs {free}"
        );
    }

    #[test]
    fn point_to_point_unaffected_by_ingress_model() {
        // A single flow sees identical timing with or without the model.
        let run = |contention: bool| {
            let sim = Simulation::new(2);
            let cfg = NetConfig {
                model_ingress_contention: contention,
                ..NetConfig::infiniband_2006()
            };
            let world = World::new_shared(cfg, sim.handle(), 2);
            let w2 = world.clone();
            sim.run(SimOpts::default(), move |ctx| {
                if ctx.rank() == 0 {
                    let mut w = w2.lock();
                    let pkt =
                        Packet::with_data(0, 50_000, 1, [0; 6], Bytes::from(vec![1u8; 50_000]));
                    w.post_send(0, 1, pkt, 0, None);
                } else {
                    loop {
                        if w2.lock().poll_rx(1).is_some() {
                            break;
                        }
                        ctx.park();
                    }
                }
            })
            .unwrap()
            .end_time
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use bytes::Bytes;
    use simcore::{SimOpts, Simulation};

    #[test]
    fn nic_stats_count_traffic() {
        let sim = Simulation::new(2);
        let world = World::new_shared(NetConfig::infiniband_2006(), sim.handle(), 2);
        let w2 = world.clone();
        sim.run(SimOpts::default(), move |ctx| {
            if ctx.rank() == 0 {
                {
                    let mut w = w2.lock();
                    for i in 0..3 {
                        let pkt = Packet::with_data(0, 128, 1, [i; 6], Bytes::from(vec![1u8; 64]));
                        w.post_send(0, 1, pkt, 0, None);
                    }
                }
                let mut got = 0;
                while got < 3 {
                    if w2.lock().poll_cq(0).is_some() {
                        got += 1;
                    } else {
                        ctx.park();
                    }
                }
            } else {
                // Deliberately leave one packet unpolled to observe backlog.
                let mut got = 0;
                while got < 2 {
                    if w2.lock().poll_rx(1).is_some() {
                        got += 1;
                    } else {
                        ctx.park();
                    }
                }
            }
        })
        .unwrap();
        let w = world.lock();
        let s0 = w.nic_stats(0);
        let s1 = w.nic_stats(1);
        assert_eq!(s0.cq_backlog, 0);
        assert_eq!(s1.rx_backlog, 1, "one packet intentionally unpolled");
    }
}
