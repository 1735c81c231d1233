//! The per-rank MPI endpoint: point-to-point operations, the polling
//! progress engine, and the instrumentation stamps.
//!
//! The polling engine is the default; [`crate::config::ProgressModel`]
//! selects the alternative progress designs (async progress fiber,
//! early-bird delivery, NIC tag matching) documented in `docs/PROGRESS.md`.
//!
//! # Stamp placement (paper Sec. 2.1 analogues)
//!
//! | role | `XFER_BEGIN` | `XFER_END` |
//! |---|---|---|
//! | eager sender | send WR posted | send completion polled |
//! | eager receiver | *(invisible)* | arrival polled (end-only) |
//! | direct-read sender | RTS posted | FIN polled |
//! | direct-read receiver | RDMA Read posted | read completion polled |
//! | pipelined sender | each fragment posted | each fragment completion |
//! | pipelined receiver (frag 1) | *(invisible)* | RTS+frag1 polled (end-only) |
//! | pipelined receiver (rest) | CTS posted | FIN polled |
//!
//! # Locking discipline
//!
//! Fabric state is touched only in short lock scopes; all host-time charges
//! (`RankCtx::busy`) and parks happen with the lock released (see
//! `simnet::world` module docs for why this is load-bearing).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use overlap_core::{OverlapReport, Recorder, RecorderOpts, WaitCause, XferTimeTable};
use simcore::{Activity, Duration, RankCtx, RankDiag};
use simnet::{CausalEdge, Completion, NetConfig, Packet, Region, RegionId, SharedWorld, XferId};

use crate::config::{MpiConfig, ProgressModel, RndvMode};
use crate::proto::{self, wr_kind};
use crate::reliability::{RelStats, Reliability};
use crate::types::{IntoPayload, Request, Src, Status, TagSel};

/// Sentinel meaning "this message is not a data transfer" (zero-payload
/// synchronization packets).
const NO_XFER: u64 = u64::MAX;
/// Local (receiver-allocated) transfer-id namespace, disjoint from fabric
/// ids.
const LOCAL_XFER_BIT: u64 = 1 << 63;

struct Posted {
    req: u64,
    src: Src,
    tag: TagSel,
}

enum Arrival {
    Eager {
        src: usize,
        tag: u64,
        xfer: u64,
        data: Bytes,
        /// Payload already copied out of the bounce buffer (early-bird
        /// delivery paid the copy at arrival-processing time).
        copied: bool,
    },
    RtsRead {
        src: usize,
        tag: u64,
        len: usize,
        region: RegionId,
        xfer: u64,
        sender_req: u64,
    },
    RtsPipe {
        src: usize,
        tag: u64,
        total_len: usize,
        frag1: Bytes,
        sender_req: u64,
    },
}

impl Arrival {
    fn envelope(&self) -> (usize, u64) {
        match self {
            Arrival::Eager { src, tag, .. }
            | Arrival::RtsRead { src, tag, .. }
            | Arrival::RtsPipe { src, tag, .. } => (*src, *tag),
        }
    }
}

struct PipeRecv {
    region: RegionId,
    rest_xfer: u64,
    rest_len: u64,
}

enum Req {
    SendEager {
        done: bool,
        /// Reap on completion without an explicit wait (buffered MPI_Send).
        detached: bool,
        xfer: u64,
        bytes: u64,
        peer: usize,
        tag: u64,
    },
    SendRdvRead {
        done: bool,
        xfer: u64,
        bytes: u64,
        region: RegionId,
        peer: usize,
        tag: u64,
    },
    SendRdvPipe {
        done: bool,
        data: Bytes,
        frag1_len: usize,
        /// (xfer id, len) per posted-but-uncompleted fragment, in post order.
        frags: VecDeque<(u64, u64)>,
        /// Completions still outstanding.
        remaining: usize,
        /// True once every fragment has been posted (CTS received or
        /// single-fragment message).
        all_posted: bool,
        peer: usize,
        tag: u64,
    },
    Recv {
        done: bool,
        result: Option<Status>,
        /// Direct-read in flight: (xfer id, len).
        reading: Option<(u64, u64)>,
        /// Resolved envelope once matched.
        matched: Option<(usize, u64)>,
        pipe: Option<PipeRecv>,
    },
}

impl Req {
    fn is_done(&self) -> bool {
        match self {
            Req::SendEager { done, .. }
            | Req::SendRdvRead { done, .. }
            | Req::SendRdvPipe { done, .. }
            | Req::Recv { done, .. } => *done,
        }
    }
}

/// The per-rank MPI library endpoint.
///
/// Created and finalized by [`crate::harness::run_mpi`], which returns the
/// per-process [`OverlapReport`]s.
pub struct Mpi<'a> {
    ctx: &'a mut RankCtx,
    world: SharedWorld,
    cfg: Arc<MpiConfig>,
    net: Arc<NetConfig>,
    pub(crate) rec: Recorder,
    rank: usize,
    nranks: usize,
    reqs: HashMap<u64, Req>,
    next_req: u64,
    next_local_xfer: u64,
    posted: Vec<Posted>,
    unexpected: VecDeque<Arrival>,
    /// MRU registration cache for rendezvous send buffers, keyed by length.
    /// `busy` entries back an in-flight send and must not be reused or
    /// evicted until its FIN arrives (reusing one would overwrite data the
    /// receiver has not pulled yet).
    send_reg_cache: VecDeque<(usize, RegionId, bool)>,
    /// Lengths whose receive-side pinning cost has been paid (cache mode).
    recv_pin_cache: VecDeque<usize>,
    /// Collective sequence number (tag scoping; every rank calls the
    /// collectives in the same order, so these agree).
    pub(crate) coll_seq: u64,
    /// Active non-blocking collectives, advanced by the progress engine in
    /// id (initiation) order.
    pub(crate) icolls: BTreeMap<u64, crate::icoll::ICollState>,
    pub(crate) next_icoll: u64,
    /// Sequence/ACK/retransmission layer; pass-through on loss-free fabrics.
    rel: Reliability,
    /// Transfers the reliability layer had to retransmit (timeout or NACK).
    /// Blocking on one of these classifies as an ACK/retransmit wait rather
    /// than a protocol wait. Only filled while wait tracing is on.
    retrans_xfers: HashSet<u64>,
    /// The library call this rank entered last; read only by the deadlock
    /// diagnostic.
    last_call: Option<&'static str>,
    /// Schedule oracle snapshot (taken at init). When present, the progress
    /// engine's CQ-vs-RX drain preference becomes an explicit choice point;
    /// when absent the canonical CQ-first policy applies unconditionally.
    oracle: Option<simcore::OracleHandle>,
}

impl<'a> Mpi<'a> {
    /// Initialize the library on this rank (the `MPI_Init` analogue: loads
    /// the a-priori transfer-time table into the recorder and synchronizes
    /// all ranks with a barrier). Every argument after `ctx` is a per-run
    /// value whose clone is a refcount bump.
    pub(crate) fn init(
        ctx: &'a mut RankCtx,
        world: SharedWorld,
        cfg: Arc<MpiConfig>,
        table: XferTimeTable,
        rec_opts: RecorderOpts,
    ) -> Self {
        // A zero interval never shrinks `compute`'s remaining time, so the
        // run would spin on progress wakes forever.
        assert!(
            !matches!(cfg.progress, ProgressModel::AsyncRank { poll_interval: 0 }),
            "ProgressModel::AsyncRank: poll_interval must be > 0"
        );
        let rank = ctx.rank();
        let nranks = ctx.nranks();
        let handle = ctx.handle();
        let clock = move || handle.now();
        let rec = Recorder::new(rank, Box::new(clock), table, rec_opts);
        let net = world.lock().cfg().clone();
        // The reliability layer activates only when the fabric can actually
        // lose/duplicate/reorder packets; otherwise it is pass-through and
        // the wire behavior is identical to the reliability-unaware library.
        let rel_enabled = !net.faults.is_empty();
        let rel_timeout = cfg.retrans_timeout.unwrap_or_else(|| {
            // A few round trips at the largest eager payload: long enough
            // that in-flight packets are not spuriously resent, short enough
            // to matter within one figure run.
            4 * (net.transfer_time(cfg.eager_threshold) + net.transfer_time(net.ctrl_packet_bytes))
        });
        let rel = Reliability::new(
            rel_enabled,
            rank,
            rel_timeout,
            cfg.max_retries,
            net.ctrl_packet_bytes,
            ctx.handle(),
        );
        let oracle = ctx.handle().oracle();
        let mut mpi = Mpi {
            ctx,
            world,
            cfg,
            net,
            rec,
            rank,
            nranks,
            reqs: HashMap::new(),
            next_req: 0,
            next_local_xfer: 0,
            posted: Vec::new(),
            unexpected: VecDeque::new(),
            send_reg_cache: VecDeque::new(),
            recv_pin_cache: VecDeque::new(),
            coll_seq: 0,
            icolls: BTreeMap::new(),
            next_icoll: 0,
            rel,
            retrans_xfers: HashSet::new(),
            last_call: None,
            oracle,
        };
        mpi.call_enter("MPI_Init");
        mpi.barrier_inner();
        mpi.rec.call_exit();
        mpi
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Perform user computation for `d` ns (outside the library — this is
    /// what the overlap bounds measure against).
    ///
    /// Under [`ProgressModel::AsyncRank`] the dedicated progress fiber
    /// time-multiplexes with the application: every `poll_interval` ns of
    /// compute it briefly takes the core and drives the progress engine, so
    /// a long computation is chunked at the fiber's poll boundaries and the
    /// stolen cycles appear as compute slowdown.
    pub fn compute(&mut self, d: Duration) {
        if let ProgressModel::AsyncRank { poll_interval } = self.cfg.progress {
            let mut left = d;
            while left > poll_interval {
                self.ctx.compute(poll_interval);
                left -= poll_interval;
                self.progress_wake();
            }
            self.ctx.compute(left);
        } else {
            self.ctx.compute(d);
        }
    }

    /// One wake of the `async-rank` progress fiber: re-enter the library
    /// mid-compute and drive the progress engine. The first `poll_cost`
    /// slice of the wake — the quantum the fiber always costs, pending work
    /// or not — is recorded as a `progress_steal` wait so attribution can
    /// price the steal exactly. Under exploration, a wake that has host
    /// events pending is a scheduling choice point: the canonical
    /// alternative (`0`) drains them now, `1` defers to the next boundary.
    fn progress_wake(&mut self) {
        if let Some(orc) = &self.oracle {
            if self.world.lock().has_host_events(self.rank) {
                let pick = orc.choose(simcore::ChoicePoint::ProgressWake {
                    rank: self.rank,
                    n: 2,
                });
                if pick == 1 {
                    return;
                }
            }
        }
        self.call_enter("MPI_Progress");
        let t0 = self.ctx.now();
        self.progress();
        if self.rec.wait_tracing() && self.net.poll_cost > 0 {
            // Exactly the poll quantum charged first inside `progress`, so
            // the interval can never overlap a wait recorded later in the
            // same wake (e.g. a registration triggered by a drained RTS).
            self.rec
                .wait_state(t0, t0 + self.net.poll_cost, WaitCause::ProgressSteal, None);
        }
        self.rec.call_exit();
    }

    /// Begin a monitored code section (application-level control over what
    /// the framework reports; paper Sec. 2.3).
    pub fn section_begin(&mut self, name: &'static str) {
        self.rec.section_begin(name);
    }

    /// End the innermost monitored section.
    pub fn section_end(&mut self) {
        self.rec.section_end();
    }

    /// Shut down: synchronize, then emit this process's overlap report, the
    /// reliability-layer counters (final values: the teardown flush may still
    /// bump them) and, when `RecorderOpts::trace` was set on init, the
    /// time-resolved trace (`None` otherwise).
    pub(crate) fn finalize(
        mut self,
    ) -> (
        OverlapReport,
        RelStats,
        Option<overlap_core::trace::RankTrace>,
    ) {
        self.call_enter("MPI_Finalize");
        self.barrier_inner();
        // Reliability flush: a rank must not tear down while any of its
        // packets is un-ACKed — a peer might still need a retransmission
        // that only this rank's progress engine can produce. The deadline
        // wake-ups scheduled per pending packet guarantee the park below is
        // always bounded.
        while self.rel.enabled && self.rel.has_pending() {
            self.wait_for_event();
            self.progress();
        }
        self.rec.call_exit();
        let stats = self.rel.stats();
        let (report, trace) = self.rec.finish_traced();
        (report, stats, trace)
    }

    // ---- public point-to-point API ------------------------------------

    /// Non-blocking send. The buffer is converted once, here (see
    /// [`IntoPayload`]); from then on the library moves it by reference.
    pub fn isend(&mut self, dst: usize, tag: u64, data: impl IntoPayload) -> Request {
        self.call_enter("MPI_Isend");
        let r = self.isend_inner(dst, tag, data.into_payload(), true);
        self.rec.call_exit();
        r
    }

    /// Non-blocking receive.
    pub fn irecv(&mut self, src: Src, tag: TagSel) -> Request {
        self.call_enter("MPI_Irecv");
        let r = self.irecv_inner(src, tag);
        self.rec.call_exit();
        r
    }

    /// Blocking send.
    ///
    /// For eager-sized messages this has *buffered* semantics, as in real
    /// MPI implementations: the payload is already copied into a library
    /// buffer, so the call returns without waiting for the wire — the
    /// transfer can still overlap subsequent computation (paper Sec. 1:
    /// "even with blocking operations, the system can transparently allow
    /// for overlap by copying data to internal message buffers"). Rendezvous
    /// sends block until the transfer completes.
    pub fn send(&mut self, dst: usize, tag: u64, data: impl IntoPayload) {
        self.call_enter("MPI_Send");
        let data = data.into_payload();
        let eager = data.len() <= self.cfg.eager_threshold;
        let r = self.isend_inner(dst, tag, data, true);
        if eager {
            self.detach(r);
        } else {
            self.wait_inner(r);
        }
        self.rec.call_exit();
    }

    /// Fire-and-forget a request: the progress engine reaps it (and stamps
    /// its completion) whenever that happens to be observed.
    fn detach(&mut self, r: Request) {
        if let Some(Req::SendEager { done, detached, .. }) = self.reqs.get_mut(&r.0) {
            if *done {
                self.reqs.remove(&r.0);
            } else {
                *detached = true;
            }
        } else {
            unreachable!("detach of non-eager request");
        }
    }

    /// Blocking receive.
    pub fn recv(&mut self, src: Src, tag: TagSel) -> Status {
        self.call_enter("MPI_Recv");
        let r = self.irecv_inner(src, tag);
        let st = self.wait_inner(r);
        self.rec.call_exit();
        st
    }

    /// Wait for one request.
    pub fn wait(&mut self, req: Request) -> Status {
        self.call_enter("MPI_Wait");
        let st = self.wait_inner(req);
        self.rec.call_exit();
        st
    }

    /// Wait for all given requests; statuses in request order.
    pub fn waitall(&mut self, reqs: &[Request]) -> Vec<Status> {
        self.call_enter("MPI_Waitall");
        let out = reqs.iter().map(|&r| self.wait_inner(r)).collect();
        self.rec.call_exit();
        out
    }

    /// Non-blocking probe for a matching unexpected message. Crucially, this
    /// *invokes the progress engine* — which is why sprinkling `MPI_Iprobe`
    /// through a computation region improves overlap (the paper's NAS SP
    /// tuning, Sec. 4.3).
    pub fn iprobe(&mut self, src: Src, tag: TagSel) -> bool {
        self.call_enter("MPI_Iprobe");
        self.progress();
        // The host unexpected queue under software matching, the NIC's
        // under `hw-tag`.
        let found = if self.cfg.progress == ProgressModel::HwTag {
            let (s, t) = hw_selector(src, tag);
            self.world.lock().hw_probe(self.rank, s, t)
        } else {
            self.unexpected
                .iter()
                .any(|a| envelope_matches(a.envelope(), src, tag))
        };
        self.rec.call_exit();
        found
    }

    /// Combined send+receive (deadlock-free pairwise exchange).
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u64,
        data: impl IntoPayload,
        src: Src,
        recv_tag: TagSel,
    ) -> Status {
        self.call_enter("MPI_Sendrecv");
        let sr = self.isend_inner(dst, send_tag, data.into_payload(), true);
        let rr = self.irecv_inner(src, recv_tag);
        self.wait_inner(sr);
        let st = self.wait_inner(rr);
        self.rec.call_exit();
        st
    }

    // ---- internals ------------------------------------------------------

    fn lib_busy(&mut self, d: Duration) {
        self.ctx.busy(d, Activity::Library);
    }

    /// Memory-registration host time: charged exactly like [`Mpi::lib_busy`]
    /// (identical virtual time), but recorded as a registration wait so
    /// attribution can separate pinning cost from generic library overhead.
    fn reg_busy(&mut self, d: Duration) {
        let t0 = self.ctx.now();
        self.lib_busy(d);
        if self.rec.wait_tracing() {
            let t1 = self.ctx.now();
            self.rec.wait_state(t0, t1, WaitCause::Registration, None);
        }
    }

    fn alloc_req(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn alloc_local_xfer(&mut self) -> u64 {
        let id = LOCAL_XFER_BIT | self.next_local_xfer;
        self.next_local_xfer += 1;
        id
    }

    pub(crate) fn isend_inner(
        &mut self,
        dst: usize,
        tag: u64,
        data: Bytes,
        counted: bool,
    ) -> Request {
        self.progress();
        self.isend_raw(dst, tag, data, counted)
    }

    /// Post a send without invoking the progress engine (used by the
    /// non-blocking collective machines, which already run *inside*
    /// `progress`).
    pub(crate) fn isend_raw(
        &mut self,
        dst: usize,
        tag: u64,
        data: Bytes,
        counted: bool,
    ) -> Request {
        let req_id = self.alloc_req();
        let len = data.len();
        if !counted || len <= self.cfg.eager_threshold {
            self.send_eager(req_id, dst, tag, data, counted);
        } else {
            // Under `hw-tag` both rendezvous modes collapse to a
            // NIC-initiated pull.
            match self.cfg.rndv_mode {
                RndvMode::PipelinedWrite if self.cfg.progress != ProgressModel::HwTag => {
                    self.send_rndv_pipe(req_id, dst, tag, data)
                }
                _ => self.send_rndv_read(req_id, dst, tag, data),
            }
        }
        Request(req_id)
    }

    fn send_eager(&mut self, req_id: u64, dst: usize, tag: u64, payload: Bytes, counted: bool) {
        let len = payload.len();
        if counted {
            // Copy into the pre-registered bounce buffer, then post.
            self.lib_busy(self.net.copy_cost(len) + self.net.post_cost);
        } else {
            self.lib_busy(self.net.post_cost);
        }
        let wire = len + self.net.ctrl_packet_bytes;
        let xfer;
        {
            let mut w = self.world.lock();
            let xfer_id = if counted {
                Some(w.alloc_xfer_id())
            } else {
                None
            };
            xfer = xfer_id.map_or(NO_XFER, |x| x.0);
            let done_user = proto::pack_user(wr_kind::EAGER_SEND, req_id);
            if self.cfg.progress == ProgressModel::HwTag {
                // NIC tag matching: every send — data and synchronization
                // alike — goes through the hardware matching engine, so
                // there is a single matching domain and the host never
                // handles envelopes.
                w.hw_send(self.rank, dst, tag, payload, wire, xfer, done_user, xfer_id);
            } else {
                let ty = if counted {
                    proto::PT_EAGER
                } else {
                    proto::PT_BARRIER
                };
                let meta = [tag, xfer, 0, 0, 0, 0];
                let pkt = Packet::with_data(self.rank, wire, ty, meta, payload);
                self.rel.post(&mut w, dst, pkt, done_user, xfer_id);
            }
        }
        if counted {
            self.rec.xfer_begin(xfer, len as u64);
        }
        self.reqs.insert(
            req_id,
            Req::SendEager {
                done: false,
                detached: false,
                xfer,
                bytes: len as u64,
                peer: dst,
                tag,
            },
        );
    }

    /// Direct-read rendezvous: pin a read-only region that *is* `data` (or
    /// re-point an idle cached pin of the same length at it) and advertise
    /// it; the receiver's RDMA Read returns a slice of this very buffer.
    fn send_rndv_read(&mut self, req_id: u64, dst: usize, tag: u64, data: Bytes) {
        let len = data.len();
        // A cache hit must be an *idle* entry: busy regions back in-flight
        // sends whose data the receiver has not pulled yet.
        let hit = self
            .send_reg_cache
            .iter()
            .position(|&(cached_len, _, busy)| cached_len == len && !busy);
        if hit.is_none() {
            self.reg_busy(self.net.reg_cost(len));
        }
        self.lib_busy(self.net.post_cost);
        let wire = self.net.ctrl_packet_bytes;
        let xfer;
        let region;
        {
            let mut w = self.world.lock();
            region = match hit {
                // Zero-copy either way, so no host copy cost.
                Some(pos) => {
                    let (_, r, _) = self.send_reg_cache.remove(pos).unwrap();
                    w.mem_mut(self.rank).replace(r, data);
                    r
                }
                None => w.register(self.rank, data),
            };
            if self.cfg.use_reg_cache {
                if hit.is_none() && self.send_reg_cache.len() >= self.cfg.reg_cache_entries {
                    // Make room: evict the least-recently-used *idle* entry;
                    // if all are busy the cache temporarily exceeds capacity.
                    let idle = self.send_reg_cache.iter().rposition(|e| !e.2);
                    if let Some((_, evicted, _)) = idle.and_then(|i| self.send_reg_cache.remove(i))
                    {
                        w.deregister(self.rank, evicted);
                    }
                }
                // MRU: most recent in front, busy until the FIN.
                self.send_reg_cache.push_front((len, region, true));
            }
            xfer = w.alloc_xfer_id().0;
            let user = proto::pack_user(wr_kind::IGNORE, 0);
            if self.cfg.progress == ProgressModel::HwTag {
                // The RTS is matched in the receiving NIC, which pulls the
                // data itself and fires this FIN back — zero receiver-host
                // involvement. The template reuses the classic direct-read
                // FIN so the sender-side handler is identical; its `src` is
                // the receiver (the pull initiator).
                let fin = Packet::control(
                    dst,
                    wire,
                    proto::PT_FIN_READ,
                    [req_id, xfer, len as u64, 0, 0, 0],
                );
                w.hw_send_rndv(self.rank, dst, tag, len, region, XferId(xfer), user, fin);
            } else {
                let rts = Packet::control(
                    self.rank,
                    wire,
                    proto::PT_RTS_READ,
                    [tag, len as u64, region.0, xfer, req_id, 0],
                );
                self.rel.post(&mut w, dst, rts, user, None);
            }
        }
        self.rec.xfer_begin(xfer, len as u64);
        self.reqs.insert(
            req_id,
            Req::SendRdvRead {
                done: false,
                xfer,
                bytes: len as u64,
                region,
                peer: dst,
                tag,
            },
        );
    }

    fn send_rndv_pipe(&mut self, req_id: u64, dst: usize, tag: u64, data: Bytes) {
        let len = data.len();
        let frag1_len = len.min(self.cfg.fragment_size);
        self.lib_busy(self.net.copy_cost(frag1_len) + self.net.post_cost);
        let frag1_xfer;
        {
            let mut w = self.world.lock();
            let x = w.alloc_xfer_id();
            frag1_xfer = x.0;
            let pkt = Packet::with_data(
                self.rank,
                frag1_len + self.net.ctrl_packet_bytes,
                proto::PT_RTS_PIPE,
                [tag, len as u64, frag1_xfer, req_id, 0, 0],
                data.slice(0..frag1_len),
            );
            self.rel.post(
                &mut w,
                dst,
                pkt,
                proto::pack_user(wr_kind::FRAG_WRITE, req_id),
                Some(x),
            );
        }
        self.rec.xfer_begin(frag1_xfer, frag1_len as u64);
        let mut frags = VecDeque::new();
        frags.push_back((frag1_xfer, frag1_len as u64));
        self.reqs.insert(
            req_id,
            Req::SendRdvPipe {
                done: false,
                data,
                frag1_len,
                frags,
                remaining: 1,
                all_posted: frag1_len == len,
                peer: dst,
                tag,
            },
        );
    }

    pub(crate) fn irecv_inner(&mut self, src: Src, tag: TagSel) -> Request {
        self.progress();
        self.irecv_raw(src, tag)
    }

    /// Post a receive without invoking the progress engine.
    pub(crate) fn irecv_raw(&mut self, src: Src, tag: TagSel) -> Request {
        let req_id = self.alloc_req();
        self.reqs.insert(
            req_id,
            Req::Recv {
                done: false,
                result: None,
                reading: None,
                matched: None,
                pipe: None,
            },
        );
        if self.cfg.progress == ProgressModel::HwTag {
            // Post the receive descriptor into the NIC matching table; the
            // host pays the post, the NIC does everything else. Matching
            // results come back as `HW_RECV` completions.
            self.lib_busy(self.net.post_cost);
            let (s, t) = hw_selector(src, tag);
            self.world.lock().hw_post_recv(
                self.rank,
                s,
                t,
                proto::pack_user(wr_kind::HW_RECV, req_id),
            );
            return Request(req_id);
        }
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|a| envelope_matches(a.envelope(), src, tag))
        {
            let arrival = self.unexpected.remove(pos).unwrap();
            self.deliver(req_id, arrival);
        } else {
            self.posted.push(Posted {
                req: req_id,
                src,
                tag,
            });
        }
        Request(req_id)
    }

    /// Route a matched arrival into the protocol continuation.
    fn deliver(&mut self, req_id: u64, arrival: Arrival) {
        match arrival {
            Arrival::Eager {
                src,
                tag,
                xfer,
                data,
                copied,
            } => {
                if xfer != NO_XFER && !copied {
                    // Copy out of the library bounce buffer.
                    self.lib_busy(self.net.copy_cost(data.len()));
                }
                self.complete_recv(req_id, src, tag, data);
            }
            Arrival::RtsRead {
                src,
                tag,
                len,
                region,
                xfer,
                sender_req,
            } => {
                self.start_read(req_id, src, tag, len, region, xfer, sender_req);
            }
            Arrival::RtsPipe {
                src,
                tag,
                total_len,
                frag1,
                sender_req,
            } => {
                self.start_pipe_recv(req_id, src, tag, total_len, frag1, sender_req);
            }
        }
    }

    fn complete_recv(&mut self, req_id: u64, src: usize, tag: u64, data: Bytes) {
        let Some(Req::Recv { done, result, .. }) = self.reqs.get_mut(&req_id) else {
            unreachable!("completing a request that is not a receive");
        };
        *done = true;
        *result = Some(Status {
            source: src,
            tag,
            data: Some(data),
        });
    }

    /// Direct-read rendezvous: the receiver pulls the advertised buffer.
    #[allow(clippy::too_many_arguments)]
    fn start_read(
        &mut self,
        req_id: u64,
        src: usize,
        tag: u64,
        len: usize,
        region: RegionId,
        xfer: u64,
        sender_req: u64,
    ) {
        // Receive-side pinning (cached after first use in cache mode).
        let cached = self.cfg.use_reg_cache && self.recv_pin_cache.contains(&len);
        if !cached {
            self.reg_busy(self.net.reg_cost(len));
            if self.cfg.use_reg_cache {
                self.recv_pin_cache.push_front(len);
                self.recv_pin_cache.truncate(self.cfg.reg_cache_entries);
            }
        }
        self.lib_busy(self.net.post_cost);
        {
            let mut w = self.world.lock();
            let fin = Packet::control(
                self.rank,
                self.net.ctrl_packet_bytes,
                proto::PT_FIN_READ,
                [sender_req, xfer, len as u64, 0, 0, 0],
            );
            w.post_rdma_read(
                self.rank,
                src,
                region,
                0,
                len,
                proto::pack_user(wr_kind::RDMA_READ, req_id),
                Some(fin),
                Some(XferId(xfer)),
            );
        }
        self.rec.xfer_begin(xfer, len as u64);
        if let Some(Req::Recv {
            reading, matched, ..
        }) = self.reqs.get_mut(&req_id)
        {
            *reading = Some((xfer, len as u64));
            *matched = Some((src, tag));
        } else {
            unreachable!("start_read on non-recv request");
        }
    }

    /// Pipelined rendezvous: place fragment 1, CTS back the receive buffer.
    fn start_pipe_recv(
        &mut self,
        req_id: u64,
        src: usize,
        tag: u64,
        total_len: usize,
        frag1: Bytes,
        sender_req: u64,
    ) {
        let frag1_len = frag1.len();
        if total_len == frag1_len {
            // Entire message rode with the RTS.
            self.lib_busy(self.net.copy_cost(frag1_len));
            self.complete_recv(req_id, src, tag, frag1);
            return;
        }
        // Register the receive buffer and invite the RDMA Writes.
        self.reg_busy(self.net.reg_cost(total_len));
        self.lib_busy(self.net.post_cost);
        let rest_len = (total_len - frag1_len) as u64;
        let rest_xfer = self.alloc_local_xfer();
        {
            let mut w = self.world.lock();
            // Fragment 1 now; the sender's whole buffer once the RDMA
            // Writes have tiled it in order.
            let landing = Region::Landing {
                run: frag1,
                len: total_len,
            };
            let region = w.register(self.rank, landing);
            let cts = Packet::control(
                self.rank,
                self.net.ctrl_packet_bytes,
                proto::PT_CTS,
                [sender_req, region.0, req_id, 0, 0, 0],
            );
            self.rel
                .post(&mut w, src, cts, proto::pack_user(wr_kind::IGNORE, 0), None);
            if let Some(Req::Recv { pipe, matched, .. }) = self.reqs.get_mut(&req_id) {
                *pipe = Some(PipeRecv {
                    region,
                    rest_xfer,
                    rest_len,
                });
                *matched = Some((src, tag));
            } else {
                unreachable!("start_pipe_recv on non-recv request");
            }
        }
        self.rec.xfer_begin(rest_xfer, rest_len);
    }

    // ---- progress engine ------------------------------------------------

    /// Drive the protocol: drain completions and packets until quiescent.
    /// Called from *every* library entry point — progress only happens while
    /// the application is inside the library (polling semantics).
    pub(crate) fn progress(&mut self) {
        self.lib_busy(self.net.poll_cost);
        loop {
            enum Item {
                C(Completion),
                P(Packet),
            }
            let item = {
                let mut w = self.world.lock();
                // Exploration: when both the completion queue and the
                // receive queue are non-empty, which to drain first is a
                // real interleaving choice. Choice 0 is the canonical
                // CQ-first policy, which also applies with no oracle.
                let rx_first = self.oracle.as_ref().is_some_and(|orc| {
                    let st = w.nic_stats(self.rank);
                    st.cq_backlog > 0
                        && st.rx_backlog > 0
                        && orc.choose(simcore::ChoicePoint::ProgressPoll {
                            rank: self.rank,
                            n: 2,
                        }) == 1
                });
                let completion = if rx_first { None } else { w.poll_cq(self.rank) };
                match completion {
                    Some(c) => Some(Item::C(c)),
                    None => w.poll_rx(self.rank).map(Item::P),
                }
            };
            match item {
                None => break,
                Some(Item::C(c)) => self.handle_completion(c),
                Some(Item::P(p)) => self.handle_packet(p),
            }
        }
        if self.rel.enabled {
            let flagged = {
                let mut w = self.world.lock();
                self.rel.check_timeouts(&mut w)
            };
            for xfer in flagged {
                self.flag_retransmitted(xfer);
            }
        }
        self.advance_collectives();
    }

    /// The wire had to carry `xfer` again (timeout or NACK): its a-priori
    /// time no longer bounds the observed window.
    fn flag_retransmitted(&mut self, xfer: u64) {
        self.rec.xfer_flag(xfer);
        if self.rec.wait_tracing() {
            self.retrans_xfers.insert(xfer);
        }
    }

    /// Stamp the end of transfer `xfer`, then relabel the fabric-contention
    /// share of the delivering `edge` out of its trailing wire-drain wait.
    fn end_xfer(&mut self, xfer: u64, bytes: u64, edge: &CausalEdge) {
        self.rec.xfer_end(xfer, bytes);
        self.rec.note_contention(xfer, edge.contention_ns());
    }

    fn handle_completion(&mut self, c: Completion) {
        let (kind, req_id) = proto::unpack_user(c.user);
        match kind {
            wr_kind::IGNORE => {}
            wr_kind::EAGER_SEND => {
                let mut reap = false;
                if let Some(Req::SendEager {
                    done,
                    detached,
                    xfer,
                    bytes,
                    ..
                }) = self.reqs.get_mut(&req_id)
                {
                    *done = true;
                    reap = *detached;
                    let (xfer, bytes) = (*xfer, *bytes);
                    if xfer != NO_XFER {
                        self.end_xfer(xfer, bytes, &c.edge);
                    }
                }
                if reap {
                    self.reqs.remove(&req_id);
                }
            }
            wr_kind::FRAG_WRITE => {
                let mut finish: Option<(u64, u64)> = None;
                if let Some(Req::SendRdvPipe {
                    done,
                    frags,
                    remaining,
                    all_posted,
                    ..
                }) = self.reqs.get_mut(&req_id)
                {
                    let (xfer, len) = frags.pop_front().expect("fragment completion underflow");
                    finish = Some((xfer, len));
                    *remaining -= 1;
                    if *remaining == 0 && *all_posted {
                        *done = true;
                    }
                }
                if let Some((xfer, len)) = finish {
                    self.end_xfer(xfer, len, &c.edge);
                }
            }
            wr_kind::RDMA_READ => {
                // The sender's own buffer, by reference (see `simnet::memory`).
                let data = c.data.expect("RDMA read completion without data");
                let Some(Req::Recv {
                    reading, matched, ..
                }) = self.reqs.get_mut(&req_id)
                else {
                    panic!("read completion for a non-receive request");
                };
                let (xfer, len) = reading
                    .take()
                    .expect("read completion without reading state");
                let (src, tag) = matched.expect("read completion on unmatched recv");
                self.end_xfer(xfer, len, &c.edge);
                self.complete_recv(req_id, src, tag, data);
            }
            wr_kind::HW_RECV => {
                // NIC-matched receive (hw-tag model): the data was placed
                // directly in the application buffer, so the host pays no
                // copy. The envelope and transfer id ride in the immediate
                // words. End-only stamp: the host first observes the
                // transfer at its completion — NIC matching is invisible.
                let data = c.data.expect("hw recv completion without data");
                let (src, tag, xfer) = (c.imm[0] as usize, c.imm[1], c.imm[2]);
                if xfer != NO_XFER {
                    self.end_xfer(xfer, data.len() as u64, &c.edge);
                }
                self.complete_recv(req_id, src, tag, data);
            }
            other => panic!("unknown completion kind {other}"),
        }
    }

    /// Front half of packet handling: the reliability filter. ACK/NACK
    /// packets terminate here; sequenced packets are deduplicated and
    /// reordered, then delivered in sequence order. On a loss-free fabric
    /// every packet falls straight through to the protocol handler.
    fn handle_packet(&mut self, p: Packet) {
        if self.rel.enabled {
            match p.ty {
                proto::PT_ACK => {
                    self.rel.on_ack(p.src, p.h[0]);
                    return;
                }
                proto::PT_NACK => {
                    let flagged = {
                        let mut w = self.world.lock();
                        self.rel.on_nack(&mut w, p.src, p.h[0])
                    };
                    if let Some(xfer) = flagged {
                        self.flag_retransmitted(xfer);
                    }
                    return;
                }
                _ => {}
            }
            if p.h[5] != 0 {
                let deliverable = {
                    let mut w = self.world.lock();
                    self.rel.on_sequenced(&mut w, p)
                };
                for q in deliverable {
                    self.handle_packet_inner(q);
                }
                return;
            }
        }
        self.handle_packet_inner(p);
    }

    /// Protocol packet handling proper (post-reliability).
    fn handle_packet_inner(&mut self, p: Packet) {
        let arrival = match p.ty {
            proto::PT_EAGER => {
                let xfer = p.h[1];
                let data = p.data.expect("eager packet without payload");
                // End-only stamp: the receiver never saw the initiation.
                self.end_xfer(xfer, data.len() as u64, &p.edge);
                Arrival::Eager {
                    src: p.src,
                    tag: p.h[0],
                    xfer,
                    data,
                    copied: false,
                }
            }
            proto::PT_BARRIER => Arrival::Eager {
                src: p.src,
                tag: p.h[0],
                xfer: NO_XFER,
                data: p.data.unwrap_or_default(),
                copied: false,
            },
            proto::PT_RTS_READ => Arrival::RtsRead {
                src: p.src,
                tag: p.h[0],
                len: p.h[1] as usize,
                region: RegionId(p.h[2]),
                xfer: p.h[3],
                sender_req: p.h[4],
            },
            proto::PT_RTS_PIPE => {
                let frag1 = p.data.expect("RTS_PIPE without fragment");
                // Fragment 1 is observable only on arrival: end-only stamp.
                self.end_xfer(p.h[2], frag1.len() as u64, &p.edge);
                Arrival::RtsPipe {
                    src: p.src,
                    tag: p.h[0],
                    total_len: p.h[1] as usize,
                    frag1,
                    sender_req: p.h[3],
                }
            }
            proto::PT_CTS => {
                self.handle_cts(p);
                return;
            }
            proto::PT_FIN_READ => {
                let Some(Req::SendRdvRead {
                    done,
                    xfer,
                    bytes,
                    region,
                    ..
                }) = self.reqs.get_mut(&p.h[0])
                else {
                    panic!("FIN for unknown rendezvous send");
                };
                *done = true;
                let (xfer, bytes, region) = (*xfer, *bytes, *region);
                debug_assert_eq!(xfer, p.h[1]);
                self.rec.xfer_end(xfer, bytes);
                // The receiver holds the payload now: a cached registration
                // becomes reusable, an uncached one is unpinned.
                match self.send_reg_cache.iter_mut().find(|e| e.1 == region) {
                    Some(e) => e.2 = false,
                    None => drop(self.world.lock().deregister(self.rank, region)),
                }
                return;
            }
            proto::PT_FIN_PIPE => {
                let recv_req = p.h[0];
                let Some(Req::Recv { pipe, matched, .. }) = self.reqs.get_mut(&recv_req) else {
                    panic!("FIN_PIPE for a non-receive request");
                };
                let pipe = pipe.take().expect("FIN_PIPE without pipe state");
                let (src, tag) = matched.expect("FIN_PIPE on unmatched recv");
                // The FIN rides as the final fragment's delivery notice, so
                // its edge carries that fragment's fabric contention.
                self.end_xfer(pipe.rest_xfer, pipe.rest_len, &p.edge);
                // The landing region becomes the receive status as is: the
                // sender's buffer itself when its fragments tiled it.
                let data = self.world.lock().deregister(self.rank, pipe.region);
                self.complete_recv(recv_req, src, tag, data);
                return;
            }
            other => panic!("unknown packet type {other}"),
        };
        // Match against posted receives, else queue as unexpected.
        let mut arrival = arrival;
        let env = arrival.envelope();
        if let Some(pos) = self
            .posted
            .iter()
            .position(|p| envelope_matches(env, p.src, p.tag))
        {
            let posted = self.posted.remove(pos);
            self.deliver(posted.req, arrival);
        } else {
            if self.cfg.progress == ProgressModel::EarlyBird {
                // Early-bird delivery: pay the bounce-buffer copy while
                // processing the arrival, so the receive that eventually
                // matches this message pays nothing and late-sender waits
                // shrink by exactly the copy cost.
                if let Arrival::Eager {
                    xfer, data, copied, ..
                } = &mut arrival
                {
                    if *xfer != NO_XFER {
                        let d = self.net.copy_cost(data.len());
                        *copied = true;
                        self.lib_busy(d);
                    }
                }
            }
            self.unexpected.push_back(arrival);
        }
    }

    /// Sender side of the pipelined scheme: the CTS names the receive buffer;
    /// post all remaining fragments (the last one carries the FIN).
    fn handle_cts(&mut self, p: Packet) {
        let (sender_req, recv_region, recv_req) = (p.h[0], RegionId(p.h[1]), p.h[2]);
        let (data, frag1_len, peer) = match self.reqs.get(&sender_req) {
            Some(Req::SendRdvPipe {
                data,
                frag1_len,
                peer,
                ..
            }) => (data.clone(), *frag1_len, *peer),
            _ => panic!("CTS for unknown pipelined send"),
        };
        let total = data.len();
        let frag_size = self.cfg.fragment_size;
        let nfrags = (total - frag1_len).div_ceil(frag_size);
        self.lib_busy(self.net.post_cost * nfrags as u64);
        let mut new_frags: Vec<(u64, u64)> = Vec::with_capacity(nfrags);
        {
            let mut w = self.world.lock();
            let mut off = frag1_len;
            while off < total {
                let end = (off + frag_size).min(total);
                let x = w.alloc_xfer_id();
                let is_last = end == total;
                let fin = is_last.then(|| {
                    Packet::control(
                        self.rank,
                        self.net.ctrl_packet_bytes,
                        proto::PT_FIN_PIPE,
                        [recv_req, 0, 0, 0, 0, 0],
                    )
                });
                w.post_rdma_write(
                    self.rank,
                    peer,
                    recv_region,
                    off,
                    data.slice(off..end),
                    proto::pack_user(wr_kind::FRAG_WRITE, sender_req),
                    fin,
                    Some(x),
                );
                new_frags.push((x.0, (end - off) as u64));
                off = end;
            }
        }
        for &(xfer, len) in &new_frags {
            self.rec.xfer_begin(xfer, len);
        }
        if let Some(Req::SendRdvPipe {
            frags,
            remaining,
            all_posted,
            ..
        }) = self.reqs.get_mut(&sender_req)
        {
            for f in new_frags {
                frags.push_back(f);
            }
            *remaining += nfrags;
            *all_posted = true;
        }
    }

    // ---- waiting ----------------------------------------------------------

    pub(crate) fn wait_inner(&mut self, req: Request) -> Status {
        loop {
            self.progress();
            if let Some(st) = self.try_take(req) {
                return st;
            }
            self.wait_for_event();
        }
    }

    /// Is the request complete (not consumed)?
    pub(crate) fn req_done(&self, req: Request) -> bool {
        self.reqs.get(&req.0).map(Req::is_done).unwrap_or(true)
    }

    /// Consume a completed request's status (panics if incomplete).
    pub(crate) fn take_status(&mut self, req: Request) -> Status {
        self.try_take(req).expect("request not complete")
    }

    fn try_take(&mut self, req: Request) -> Option<Status> {
        if !self
            .reqs
            .get(&req.0)
            .map(Req::is_done)
            .unwrap_or_else(|| panic!("wait on unknown request {:?}", req))
        {
            return None;
        }
        let r = self.reqs.remove(&req.0).unwrap();
        Some(match r {
            Req::Recv { result, .. } => result.expect("done recv without status"),
            Req::SendEager { peer, tag, .. }
            | Req::SendRdvRead { peer, tag, .. }
            | Req::SendRdvPipe { peer, tag, .. } => Status {
                source: peer,
                tag,
                data: None,
            },
        })
    }

    /// Record a library-call entry in the overlap event stream, and keep its
    /// name for the deadlock diagnostic (last call per rank).
    pub(crate) fn call_enter(&mut self, name: &'static str) {
        self.rec.call_enter(name);
        self.last_call = Some(name);
    }

    /// Park until the NIC has something for us (unless it already does).
    pub(crate) fn wait_for_event(&mut self) {
        let has = self.world.lock().has_host_events(self.rank);
        if !has {
            if self.rec.wait_tracing() {
                // Classify *before* parking: the open-request state at block
                // time is what explains the wait. Recording adds zero
                // virtual time, so traced runs stay time-identical.
                let (mut cause, xfer) = self.classify_block();
                let t0 = self.ctx.now();
                self.park();
                let t1 = self.ctx.now();
                // The reliability layer runs while the rank is parked: if the
                // very transfer this wait was pinned on got retransmitted in
                // the meantime, loss recovery — not the pre-park protocol
                // state — is what the wait was spent on.
                if let Some(x) = xfer {
                    if cause != WaitCause::AckRetransmit && self.retrans_xfers.contains(&x) {
                        cause = WaitCause::AckRetransmit;
                    }
                }
                self.rec.wait_state(t0, t1, cause, xfer);
            } else {
                self.park();
            }
        }
    }

    /// Park, ready to tell a deadlock dump what this rank is waiting for.
    /// The diagnostic is rendered only if the run wedges with this rank
    /// parked here, from state that cannot change while it is: a summary of
    /// the pending communication state, the last call entered, and the
    /// wait-for edge of [`Mpi::blocking_edge`].
    fn park(&mut self) {
        self.ctx.park_with(|| {
            let nic = self.world.lock().nic_stats(self.rank);
            let (waits_on_rank, waits_on_req) =
                Self::blocking_edge(&self.reqs, &self.posted, &self.rel);
            RankDiag {
                rank: self.rank,
                blocked_on: Some(format!(
                    "{} incomplete requests ({} posted recvs, {} unexpected arrivals, \
                     {} un-ACKed sends); NIC backlog rx={} cq={}",
                    self.reqs.values().filter(|r| !r.is_done()).count(),
                    self.posted.len(),
                    self.unexpected.len(),
                    self.rel.pending_packets(),
                    nic.rx_backlog,
                    nic.cq_backlog,
                )),
                last_call: self.last_call.map(str::to_string),
                waits_on_rank,
                waits_on_req,
            }
        });
    }

    /// Classify why this rank is about to block, from its open-request
    /// state. When several requests are open the most *actionable* cause
    /// wins (lowest priority number); ties break on request id, so the
    /// result is independent of `HashMap` iteration order.
    fn classify_block(&self) -> (WaitCause, Option<u64>) {
        // Loss recovery trumps protocol state: once a payload has been
        // retransmitted and its ACK is still outstanding, the stall is the
        // lossy fabric's fault no matter what the open requests look like.
        // (The fragment itself may already have left the request's queue —
        // a dropped packet still completes at the *source* NIC — so only
        // the reliability layer still knows about it.)
        if let Some(x) = self.rel.retrans_pending_xfer() {
            return (WaitCause::AckRetransmit, Some(x));
        }
        // (priority, req_id) -> (cause, xfer)
        type Ranked = ((u8, u64), (WaitCause, Option<u64>));
        let mut best: Option<Ranked> = None;
        for (&req_id, req) in &self.reqs {
            if req.is_done() {
                continue;
            }
            let (prio, cause, xfer) = match req {
                _ if self.req_retransmitted(req) => (
                    0,
                    WaitCause::AckRetransmit,
                    self.req_retrans_xfer(req).or_else(|| self.req_xfer(req)),
                ),
                Req::Recv {
                    matched: None,
                    reading: None,
                    pipe: None,
                    ..
                } => (1, WaitCause::LateSender, None),
                Req::SendRdvPipe {
                    all_posted: false, ..
                } => (2, WaitCause::RendezvousHandshake, None),
                Req::SendRdvRead { xfer, .. } => (3, WaitCause::LateReceiver, Some(*xfer)),
                Req::Recv {
                    reading: Some((xfer, _)),
                    ..
                } => (4, WaitCause::WireDrain, Some(*xfer)),
                Req::Recv { pipe: Some(pr), .. } => (4, WaitCause::WireDrain, Some(pr.rest_xfer)),
                Req::SendRdvPipe { .. } => (5, WaitCause::WireDrain, None),
                Req::SendEager { xfer, .. } => (6, WaitCause::EagerCopy, Some(*xfer)),
                Req::Recv { .. } => (4, WaitCause::WireDrain, None),
            };
            let key = (prio, req_id);
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, (cause, xfer)));
            }
        }
        match best {
            Some((_, hit)) => hit,
            // No open data request: blocked on the reliability layer's
            // outstanding ACKs, or on pure synchronization traffic.
            None if self.rel.pending_packets() > 0 => (WaitCause::AckRetransmit, None),
            None => (WaitCause::Sync, None),
        }
    }

    /// The structured wait-for edge for deadlock cycle reports: the peer
    /// rank whose action must come first, and the open request id this rank
    /// is blocked in. Picks the open request with the lowest id (matching
    /// the deterministic tie-break of [`Mpi::classify_block`]); a receive
    /// names its matched or posted-source peer, `MPI_ANY_SOURCE` receives
    /// name none. With no open data request the edge falls back to the
    /// reliability layer's first un-ACKed peer.
    fn blocking_edge(
        reqs: &HashMap<u64, Req>,
        posted: &[Posted],
        rel: &Reliability,
    ) -> (Option<usize>, Option<u64>) {
        let mut best: Option<(u64, Option<usize>)> = None;
        for (&req_id, req) in reqs {
            if req.is_done() {
                continue;
            }
            if best.is_some_and(|(id, _)| id <= req_id) {
                continue;
            }
            let peer = match req {
                Req::SendEager { peer, .. }
                | Req::SendRdvRead { peer, .. }
                | Req::SendRdvPipe { peer, .. } => Some(*peer),
                Req::Recv {
                    matched: Some((src, _)),
                    ..
                } => Some(*src),
                Req::Recv { .. } => {
                    posted
                        .iter()
                        .find(|p| p.req == req_id)
                        .and_then(|p| match p.src {
                            Src::Rank(r) => Some(r),
                            Src::Any => None,
                        })
                }
            };
            best = Some((req_id, peer));
        }
        match best {
            Some((id, peer)) => (peer, Some(id)),
            None => (rel.first_pending_peer(), None),
        }
    }

    /// True when the request's transfer is known to have been retransmitted.
    fn req_retransmitted(&self, req: &Req) -> bool {
        self.req_retrans_xfer(req).is_some()
    }

    /// The retransmitted wire transfer a request is still waiting on, if
    /// any. A pipelined send scans every outstanding fragment — the lost
    /// one is rarely the front of the queue.
    fn req_retrans_xfer(&self, req: &Req) -> Option<u64> {
        if let Req::SendRdvPipe { frags, .. } = req {
            return frags
                .iter()
                .map(|&(x, _)| x)
                .find(|x| self.retrans_xfers.contains(x));
        }
        self.req_xfer(req)
            .filter(|x| self.retrans_xfers.contains(x))
    }

    /// The single wire transfer a request is waiting on, when identifiable.
    fn req_xfer(&self, req: &Req) -> Option<u64> {
        match req {
            Req::SendEager { xfer, .. } | Req::SendRdvRead { xfer, .. } => Some(*xfer),
            Req::SendRdvPipe { frags, .. } => frags.front().map(|&(x, _)| x),
            Req::Recv {
                reading: Some((x, _)),
                ..
            } => Some(*x),
            Req::Recv { pipe: Some(pr), .. } => Some(pr.rest_xfer),
            Req::Recv { .. } => None,
        }
    }
}

fn envelope_matches(env: (usize, u64), src: Src, tag: TagSel) -> bool {
    src.matches(env.0) && tag.matches(env.1)
}

/// Translate a receive selector into the NIC matching table's wildcard form.
fn hw_selector(src: Src, tag: TagSel) -> (Option<usize>, Option<u64>) {
    let s = match src {
        Src::Rank(r) => Some(r),
        Src::Any => None,
    };
    let t = match tag {
        TagSel::Is(v) => Some(v),
        TagSel::Any => None,
    };
    (s, t)
}
