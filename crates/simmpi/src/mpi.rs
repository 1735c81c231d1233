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
use overlap_core::{Recorder, RecorderOpts, WaitCause, XferTimeTable};
use simcore::{Activity, Duration, RankCtx, RankDiag};
use simnet::{
    CausalEdge, Completion, HwMsg, Matcher, NetConfig, Packet, Region, RegionId, SharedWorld,
    XferId,
};

use crate::config::{MpiConfig, ProgressModel, RndvMode};
use crate::harness::RankOutcome;
use crate::proto::{self, wr_kind};
use crate::reliability::Reliability;
use crate::types::{IntoPayload, Request, Src, Status, TagSel};

/// Sentinel meaning "this message is not a data transfer" (zero-payload
/// synchronization packets).
const NO_XFER: u64 = u64::MAX;
/// Local (receiver-allocated) transfer-id namespace, disjoint from fabric
/// ids.
const LOCAL_XFER_BIT: u64 = 1 << 63;

/// `(rest id, first fragment id, fragment count)` of each pipelined receive,
/// so the soundness check can join the receiver's "rest of message" record
/// to the fabric's fragments.
pub(crate) type PipeRests = Vec<(u64, u64, u64)>;

/// An arrival the host matched or parked; its `(src, tag)` envelope sits
/// beside it in the [`Matcher`].
enum Arrival {
    Eager {
        xfer: u64,
        data: Bytes,
        /// Payload already copied out of the bounce buffer (early-bird
        /// delivery paid the copy at arrival-processing time).
        copied: bool,
    },
    RtsRead {
        len: usize,
        region: RegionId,
        xfer: u64,
        sender_req: u64,
    },
    RtsPipe {
        total_len: usize,
        frag1: Bytes,
        sender_req: u64,
    },
}

#[derive(Clone, Copy)]
struct PipeRecv {
    region: RegionId,
    rest_xfer: u64,
    rest_len: u64,
}

/// Where a posted receive stands. Matching records the envelope together
/// with the state it moves to.
enum Recv {
    /// Not matched by the host yet; under `hw-tag` the NIC matches it and
    /// the host learns the envelope only from the completion.
    Posted,
    /// A direct-read rendezvous: the RDMA Read `xfer` of `len` bytes is in
    /// flight.
    Reading {
        src: usize,
        tag: u64,
        xfer: u64,
        len: u64,
    },
    /// A pipelined rendezvous: the fragments after the first are landing.
    Landing {
        src: usize,
        tag: u64,
        pipe: PipeRecv,
    },
    Done(Status),
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
        data: Bytes,
        frag1_len: usize,
        /// (xfer id, len) per posted-but-uncompleted fragment, in post order.
        frags: VecDeque<(u64, u64)>,
        /// True once every fragment has been posted (CTS received or
        /// single-fragment message).
        all_posted: bool,
        peer: usize,
        tag: u64,
    },
    Recv(Recv),
}

impl Req {
    fn is_done(&self) -> bool {
        match self {
            Req::SendEager { done, .. } | Req::SendRdvRead { done, .. } => *done,
            Req::SendRdvPipe {
                frags, all_posted, ..
            } => *all_posted && frags.is_empty(),
            Req::Recv(recv) => matches!(recv, Recv::Done(_)),
        }
    }
}

/// The per-rank MPI library endpoint.
///
/// Created and finalized by [`crate::harness::run_mpi`], which returns the
/// per-process [`overlap_core::OverlapReport`]s.
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
    /// Only filled while wait tracing is on.
    pipe_rests: PipeRests,
    /// Host-side matching (every progress model but `hw-tag`, where the
    /// NIC matches).
    matcher: Matcher<Arrival>,
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
        let oracle = ctx.handle().oracle().cloned();
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
            pipe_rests: Vec::new(),
            matcher: Matcher::default(),
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
    /// time-resolved trace (`None` otherwise) and the pipelined receives'
    /// fragment ranges.
    pub(crate) fn finalize(mut self) -> RankOutcome {
        self.call_enter("MPI_Finalize");
        self.barrier_inner();
        // Reliability flush: a rank must not tear down while any of its
        // packets is un-ACKed — a peer might still need a retransmission
        // that only this rank's progress engine can produce. The deadline
        // wake-ups scheduled per pending packet guarantee the park below is
        // always bounded.
        self.wait_until(|m| !m.rel.has_pending());
        self.rec.call_exit();
        let rel_stats = self.rel.stats();
        let (report, trace) = self.rec.finish_traced();
        RankOutcome {
            report,
            trace,
            rel_stats,
            pipe_rests: self.pipe_rests,
        }
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
        let (s, t) = selector(src, tag);
        let found = if self.cfg.progress == ProgressModel::HwTag {
            self.world.lock().hw_probe(self.rank, s, t)
        } else {
            self.matcher.probe(s, t)
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
                let msg = HwMsg::Eager {
                    xfer,
                    data: payload,
                    edge: CausalEdge::default(),
                };
                w.hw_send(self.rank, dst, tag, msg, done_user, xfer_id);
            } else {
                let ty = if counted {
                    proto::PT_EAGER
                } else {
                    proto::PT_BARRIER
                };
                let meta = [tag, xfer, 0, 0, 0, 0];
                let wire = len + self.net.ctrl_packet_bytes;
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
            if self.cfg.reg_cache_entries > 0 {
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
                let msg = HwMsg::Rndv {
                    len,
                    region,
                    xfer,
                    fin,
                };
                w.hw_send(self.rank, dst, tag, msg, user, None);
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
                data,
                frag1_len,
                frags,
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
        self.reqs.insert(req_id, Req::Recv(Recv::Posted));
        let (s, t) = selector(src, tag);
        if self.cfg.progress == ProgressModel::HwTag {
            // Post the receive descriptor into the NIC matching table; the
            // host pays the post, the NIC does everything else. Matching
            // results come back as `HW_RECV` completions.
            self.lib_busy(self.net.post_cost);
            let user = proto::pack_user(wr_kind::HW_RECV, req_id);
            self.world.lock().hw_post_recv(self.rank, s, t, user);
        } else if let Some((src, tag, arrival)) = self.matcher.post(s, t, req_id) {
            self.deliver(req_id, src, tag, arrival);
        }
        Request(req_id)
    }

    /// Route a matched arrival into the protocol continuation.
    fn deliver(&mut self, req_id: u64, src: usize, tag: u64, arrival: Arrival) {
        match arrival {
            Arrival::Eager { xfer, data, copied } => {
                if xfer != NO_XFER && !copied {
                    // Copy out of the library bounce buffer.
                    self.lib_busy(self.net.copy_cost(data.len()));
                }
                self.complete_recv(req_id, src, tag, data);
            }
            Arrival::RtsRead {
                len,
                region,
                xfer,
                sender_req,
            } => {
                self.start_read(req_id, src, tag, len, region, xfer, sender_req);
            }
            Arrival::RtsPipe {
                total_len,
                frag1,
                sender_req,
            } => {
                self.start_pipe_recv(req_id, src, tag, total_len, frag1, sender_req);
            }
        }
    }

    fn complete_recv(&mut self, req_id: u64, source: usize, tag: u64, data: Bytes) {
        let data = Some(data);
        self.set_recv(req_id, Recv::Done(Status { source, tag, data }));
    }

    /// Move receive `req_id` to `state`.
    fn set_recv(&mut self, req_id: u64, state: Recv) {
        let Some(Req::Recv(recv)) = self.reqs.get_mut(&req_id) else {
            unreachable!("request {req_id} is not a receive");
        };
        *recv = state;
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
        let cached = self.cfg.reg_cache_entries > 0 && self.recv_pin_cache.contains(&len);
        if !cached {
            self.reg_busy(self.net.reg_cost(len));
            if self.cfg.reg_cache_entries > 0 {
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
        let len = len as u64;
        self.set_recv(
            req_id,
            Recv::Reading {
                src,
                tag,
                xfer,
                len,
            },
        );
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
        let region = {
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
            region
        };
        let pipe = PipeRecv {
            region,
            rest_xfer,
            rest_len,
        };
        self.set_recv(req_id, Recv::Landing { src, tag, pipe });
        self.rec.xfer_begin(rest_xfer, rest_len);
    }

    // ---- progress engine ------------------------------------------------

    /// Drive the protocol: charge a poll, then [`Mpi::drain`]. Called from
    /// *every* library entry point — progress only happens while the
    /// application is inside the library (polling semantics).
    pub(crate) fn progress(&mut self) {
        self.lib_busy(self.net.poll_cost);
        self.drain();
    }

    /// Drain completions and packets until quiescent, then let the
    /// reliability layer and the non-blocking collectives act on what came
    /// in. Costs no virtual time itself.
    fn drain(&mut self) {
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
                if let Some(Req::SendRdvPipe { frags, .. }) = self.reqs.get_mut(&req_id) {
                    finish = Some(frags.pop_front().expect("fragment completion underflow"));
                }
                if let Some((xfer, len)) = finish {
                    self.end_xfer(xfer, len, &c.edge);
                }
            }
            wr_kind::RDMA_READ => {
                // The sender's own buffer, by reference (see `simnet::memory`).
                let data = c.data.expect("RDMA read completion without data");
                let Some(&Req::Recv(Recv::Reading {
                    src,
                    tag,
                    xfer,
                    len,
                })) = self.reqs.get(&req_id)
                else {
                    panic!("read completion for a receive that is not reading");
                };
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
        let (src, tag) = (p.src, p.h[0]);
        let mut arrival = match p.ty {
            proto::PT_EAGER => {
                let xfer = p.h[1];
                let data = p.data.expect("eager packet without payload");
                // End-only stamp: the receiver never saw the initiation.
                self.end_xfer(xfer, data.len() as u64, &p.edge);
                Arrival::Eager {
                    xfer,
                    data,
                    copied: false,
                }
            }
            proto::PT_BARRIER => Arrival::Eager {
                xfer: NO_XFER,
                data: p.data.unwrap_or_default(),
                copied: false,
            },
            proto::PT_RTS_READ => Arrival::RtsRead {
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
                let Some(&Req::Recv(Recv::Landing { src, tag, pipe })) = self.reqs.get(&recv_req)
                else {
                    panic!("FIN_PIPE for a receive that is not landing");
                };
                // The FIN rides as the final fragment's delivery notice, so
                // its edge carries that fragment's fabric contention.
                self.end_xfer(pipe.rest_xfer, pipe.rest_len, &p.edge);
                if self.rec.wait_tracing() {
                    self.pipe_rests.push((pipe.rest_xfer, p.h[1], p.h[2]));
                }
                // The landing region becomes the receive status as is: the
                // sender's buffer itself when its fragments tiled it.
                let data = self.world.lock().deregister(self.rank, pipe.region);
                self.complete_recv(recv_req, src, tag, data);
                return;
            }
            other => panic!("unknown packet type {other}"),
        };
        // Match against posted receives, else queue as unexpected.
        if let Some(req_id) = self.matcher.take_posted(src, tag) {
            self.deliver(req_id, src, tag, arrival);
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
            self.matcher.park(src, tag, arrival);
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
                // The ids are consecutive: allocated in this loop under one
                // world lock.
                let first = new_frags.first().map_or(x.0, |f| f.0);
                let fin = is_last.then(|| {
                    Packet::control(
                        self.rank,
                        self.net.ctrl_packet_bytes,
                        proto::PT_FIN_PIPE,
                        [recv_req, first, nfrags as u64, 0, 0, 0],
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
            frags, all_posted, ..
        }) = self.reqs.get_mut(&sender_req)
        {
            frags.extend(new_frags);
            *all_posted = true;
        }
    }

    // ---- waiting ----------------------------------------------------------

    pub(crate) fn wait_inner(&mut self, req: Request) -> Status {
        self.progress_until(|m| m.req_done(req));
        self.take_status(req)
    }

    /// The body of every blocking call: poll and drain, then
    /// [`Mpi::wait_until`] `done`. When the entry poll can find nothing
    /// unless a delivery rings during it — nothing is pending on the NIC, no
    /// non-blocking collective is live, no un-ACKed packet has a deadline
    /// that may have passed unseen while the rank computed, and `done` does
    /// not hold yet — the poll and the park that would follow it are one
    /// [`RankCtx::wait`].
    pub(crate) fn progress_until(&mut self, done: impl Fn(&Self) -> bool) {
        let idle = !done(self)
            && !self.world.lock().has_host_events(self.rank)
            && !self.collectives_live()
            && !self.rel.has_pending();
        if idle {
            self.park_and_poll(self.net.poll_cost);
        } else {
            self.lib_busy(self.net.poll_cost);
        }
        self.drain();
        self.wait_until(done);
    }

    /// Until `done` holds: wait for the NIC to have something for this rank
    /// (unless it already does), poll, drain.
    fn wait_until(&mut self, done: impl Fn(&Self) -> bool) {
        while !done(self) {
            if self.world.lock().has_host_events(self.rank) {
                self.lib_busy(self.net.poll_cost);
            } else {
                self.park_and_poll(0);
            }
            self.drain();
        }
    }

    /// Is the request complete (not consumed)?
    pub(crate) fn req_done(&self, req: Request) -> bool {
        self.reqs.get(&req.0).map(Req::is_done).unwrap_or(true)
    }

    /// Consume a completed request's status (panics if it is unknown or
    /// incomplete).
    pub(crate) fn take_status(&mut self, req: Request) -> Status {
        let Some(r) = self.reqs.remove(&req.0) else {
            panic!("wait on unknown request {req:?}");
        };
        assert!(r.is_done(), "request not complete");
        match r {
            Req::Recv(Recv::Done(status)) => status,
            Req::Recv(_) => unreachable!("a done receive holds its status"),
            Req::SendEager { peer, tag, .. }
            | Req::SendRdvRead { peer, tag, .. }
            | Req::SendRdvPipe { peer, tag, .. } => Status {
                source: peer,
                tag,
                data: None,
            },
        }
    }

    /// Record a library-call entry in the overlap event stream, and keep its
    /// name for the deadlock diagnostic (last call per rank).
    pub(crate) fn call_enter(&mut self, name: &'static str) {
        self.rec.call_enter(name);
        self.last_call = Some(name);
    }

    /// Park until woken, then charge the poll that wakes up to it; with
    /// `after > 0`, poll for `after` ns first and park only if no delivery
    /// rang meanwhile ([`RankCtx::wait`]). A traced run records the parked
    /// interval as a wait state, classified from the open-request state,
    /// which the rank alone changes and only when it drains.
    fn park_and_poll(&mut self, after: Duration) {
        let waited = self.ctx.wait(after, self.net.poll_cost, || {
            Self::diag(
                &self.world,
                &self.reqs,
                &self.matcher,
                &self.rel,
                &self.retrans_xfers,
                self.last_call,
                self.rank,
            )
        });
        if let Some((parked_at, woke)) = waited {
            if self.rec.wait_tracing() {
                let (cause, xfer) = self.classify_block();
                self.rec.wait_state(parked_at, woke, cause, xfer);
            }
        }
    }

    /// What a rank parked in [`Mpi::park_and_poll`] tells a deadlock dump:
    /// a summary of the pending communication state, the last call entered,
    /// and the wait-for edge of [`Mpi::blocking_edge`]. Takes the fields it
    /// reads because the rank's context is borrowed by the wait it explains.
    fn diag(
        world: &SharedWorld,
        reqs: &HashMap<u64, Req>,
        matcher: &Matcher<Arrival>,
        rel: &Reliability,
        retrans: &HashSet<u64>,
        last_call: Option<&'static str>,
        rank: usize,
    ) -> RankDiag {
        let nic = world.lock().nic_stats(rank);
        let (waits_on_rank, waits_on_req) = Self::blocking_edge(reqs, matcher, rel, retrans);
        let (posted, unexpected) = matcher.lens();
        RankDiag {
            rank,
            blocked_on: Some(format!(
                "{} incomplete requests ({} posted recvs, {} unexpected arrivals, \
                 {} un-ACKed sends); NIC backlog rx={} cq={}",
                reqs.values().filter(|r| !r.is_done()).count(),
                posted,
                unexpected,
                rel.pending_packets(),
                nic.rx_backlog,
                nic.cq_backlog,
            )),
            last_call: last_call.map(str::to_string),
            waits_on_rank,
            waits_on_req,
        }
    }

    /// Classify why this rank is about to block, from its open-request
    /// state. When several requests are open the most *actionable* cause
    /// wins (lowest [`waits_on`] priority); ties break on request id, so the
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
        let open = self.reqs.iter().filter(|(_, req)| !req.is_done());
        let best = open
            .map(|(&id, req)| {
                let (prio, cause, xfer, _) = waits_on(id, req, &self.matcher, &self.retrans_xfers);
                ((prio, id), cause, xfer)
            })
            .min_by_key(|&(key, ..)| key);
        match best {
            Some((_, cause, xfer)) => (cause, xfer),
            // No open data request: blocked on the reliability layer's
            // outstanding ACKs, or on pure synchronization traffic.
            None if self.rel.pending_packets() > 0 => (WaitCause::AckRetransmit, None),
            None => (WaitCause::Sync, None),
        }
    }

    /// The structured wait-for edge for deadlock cycle reports: the open
    /// request with the lowest id and the peer [`waits_on`] names for it.
    /// The pick is by id alone, not by [`Mpi::classify_block`]'s priority:
    /// which open request the rank is blocked in is not tracked. With no
    /// open data request the edge falls back to the reliability layer's
    /// first un-ACKed peer.
    fn blocking_edge(
        reqs: &HashMap<u64, Req>,
        matcher: &Matcher<Arrival>,
        rel: &Reliability,
        retrans: &HashSet<u64>,
    ) -> (Option<usize>, Option<u64>) {
        let open = reqs.iter().filter(|(_, req)| !req.is_done());
        match open.min_by_key(|&(&id, _)| id) {
            Some((&id, req)) => (waits_on(id, req, matcher, retrans).3, Some(id)),
            None => (rel.first_pending_peer(), None),
        }
    }
}

/// What open request `id` waits on: its priority (the most actionable cause
/// is lowest), the cause, the wire transfer when one is identifiable, and
/// the peer whose action must come first (none for an `MPI_ANY_SOURCE`
/// receive). A request whose transfer the reliability layer had to send
/// again (`retrans`) waits on loss recovery before anything else; a
/// pipelined send names only such a fragment, scanning all of them, since
/// the lost one is rarely the front of the queue.
fn waits_on(
    id: u64,
    req: &Req,
    matcher: &Matcher<Arrival>,
    retrans: &HashSet<u64>,
) -> (u8, WaitCause, Option<u64>, Option<usize>) {
    let (prio, cause, xfer, peer) = match req {
        Req::Recv(Recv::Posted) => {
            let src = matcher.posted_sel(id).and_then(|(src, _)| src);
            (1, WaitCause::LateSender, None, src)
        }
        Req::SendRdvPipe {
            frags,
            all_posted,
            peer,
            ..
        } => {
            let lost = frags.iter().map(|&(x, _)| x).find(|x| retrans.contains(x));
            match all_posted {
                false => (2, WaitCause::RendezvousHandshake, lost, Some(*peer)),
                true => (5, WaitCause::WireDrain, lost, Some(*peer)),
            }
        }
        Req::SendRdvRead { xfer, peer, .. } => {
            (3, WaitCause::LateReceiver, Some(*xfer), Some(*peer))
        }
        Req::Recv(Recv::Reading { src, xfer, .. }) => {
            (4, WaitCause::WireDrain, Some(*xfer), Some(*src))
        }
        Req::Recv(Recv::Landing { src, pipe, .. }) => {
            (4, WaitCause::WireDrain, Some(pipe.rest_xfer), Some(*src))
        }
        Req::SendEager { xfer, peer, .. } => (6, WaitCause::EagerCopy, Some(*xfer), Some(*peer)),
        Req::Recv(Recv::Done(_)) => unreachable!("a completed receive waits on nothing"),
    };
    match xfer {
        Some(x) if retrans.contains(&x) => (0, WaitCause::AckRetransmit, xfer, peer),
        _ => (prio, cause, xfer, peer),
    }
}

/// Translate a receive selector into the [`Matcher`]'s wildcard form.
fn selector(src: Src, tag: TagSel) -> (Option<usize>, Option<u64>) {
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
