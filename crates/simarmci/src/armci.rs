//! The per-rank ARMCI endpoint.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use overlap_core::{OverlapReport, Recorder, RecorderOpts, XferTimeTable};
use simcore::{Activity, Duration, RankCtx};
use simmpi::proto::{pack_user, unpack_user};
use simmpi::{bytes_to_f64s, f64s_to_bytes, IntoPayload, ReduceOp};
use simnet::{Completion, NetConfig, Packet, RegionId, SharedWorld};

/// Internal message packet (setup / sync / tiny collectives).
const PT_MSG: u16 = 20;

/// Completion correlation kinds.
const WK_IGNORE: u64 = 0;
const WK_PUT: u64 = 1;
const WK_GET: u64 = 2;

/// Handle to a non-blocking one-sided operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NbHandle(u64);

/// Collectively allocated global memory: one equally sized, registered
/// segment per rank (the result of `ARMCI_Malloc`).
#[derive(Debug, Clone)]
pub struct GlobalMem {
    regions: Vec<RegionId>,
    /// Per-rank segment size in bytes.
    seg_len: usize,
}

struct HandleState {
    done: bool,
    /// (xfer id, len) for the END stamp at completion.
    stamp: (u64, u64),
    /// Fetched data for gets.
    data: Option<Bytes>,
}

/// The per-rank ARMCI library endpoint.
pub struct Armci<'a> {
    ctx: &'a mut RankCtx,
    world: SharedWorld,
    net: std::sync::Arc<NetConfig>,
    rec: Recorder,
    rank: usize,
    nranks: usize,
    handles: HashMap<u64, HandleState>,
    next_handle: u64,
    /// Internal message layer receive buffer.
    msgs: VecDeque<(usize, u64, Bytes)>,
    coll_seq: u64,
}

impl<'a> Armci<'a> {
    /// Initialize ARMCI on this rank and synchronize.
    pub(crate) fn init(
        ctx: &'a mut RankCtx,
        world: SharedWorld,
        table: XferTimeTable,
        rec_opts: RecorderOpts,
    ) -> Self {
        let rank = ctx.rank();
        let nranks = ctx.nranks();
        let handle = ctx.handle();
        let clock = move || handle.now();
        let rec = Recorder::new(rank, Box::new(clock), table, rec_opts);
        let net = world.lock().cfg().clone();
        let mut a = Armci {
            ctx,
            world,
            net,
            rec,
            rank,
            nranks,
            handles: HashMap::new(),
            next_handle: 0,
            msgs: VecDeque::new(),
            coll_seq: 0,
        };
        a.rec.call_enter("ARMCI_Init");
        a.barrier_inner();
        a.rec.call_exit();
        a
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// User computation for `d` ns.
    pub fn compute(&mut self, d: Duration) {
        self.ctx.compute(d);
    }

    /// Shut down and emit the per-process overlap report and, when
    /// `RecorderOpts::trace` was set on init, the time-resolved trace
    /// (`None` otherwise).
    pub(crate) fn finalize(mut self) -> (OverlapReport, Option<overlap_core::trace::RankTrace>) {
        self.rec.call_enter("ARMCI_Finalize");
        self.barrier_inner();
        self.rec.call_exit();
        self.rec.finish_traced()
    }

    /// Collectively allocate `seg_len` bytes of global memory on every rank
    /// (`ARMCI_Malloc`): registers a local segment and exchanges segment
    /// addresses.
    pub fn malloc(&mut self, seg_len: usize) -> GlobalMem {
        self.rec.call_enter("ARMCI_Malloc");
        self.lib_busy(self.net.reg_cost(seg_len));
        let my_region = {
            let mut w = self.world.lock();
            w.register(self.rank, vec![0u8; seg_len])
        };
        // Exchange region ids (setup metadata, not data transfers).
        let tag = self.alloc_coll_tag();
        for dst in 0..self.nranks {
            if dst != self.rank {
                self.msg_send(dst, tag, &my_region.0.to_le_bytes());
            }
        }
        let mut regions = vec![RegionId(0); self.nranks];
        regions[self.rank] = my_region;
        for _ in 0..self.nranks - 1 {
            let (src, _, data) = self.msg_recv_tag(tag);
            regions[src] = RegionId(u64::from_le_bytes(data[..8].try_into().unwrap()));
        }
        self.rec.call_exit();
        GlobalMem { regions, seg_len }
    }

    /// Read from this rank's own segment (local load).
    pub fn local_read(&mut self, mem: &GlobalMem, off: usize, len: usize) -> Vec<u8> {
        let w = self.world.lock();
        w.mem(self.rank)
            .get(mem.regions[self.rank])
            .expect("segment")[off..off + len]
            .to_vec()
    }

    /// Non-blocking one-sided put: RDMA Write `data` into `dst`'s segment at
    /// `off`. Returns a handle for [`Armci::wait`]. `data` is converted once,
    /// here ([`IntoPayload`]), and placed into the target window on arrival.
    pub fn nb_put(
        &mut self,
        mem: &GlobalMem,
        dst: usize,
        off: usize,
        data: impl IntoPayload,
    ) -> NbHandle {
        self.rec.call_enter("ARMCI_NbPut");
        let h = self.put_inner(mem, dst, off, data.into_payload());
        self.rec.call_exit();
        h
    }

    /// Blocking one-sided put (initiate + wait inside one call).
    pub fn put(&mut self, mem: &GlobalMem, dst: usize, off: usize, data: impl IntoPayload) {
        self.rec.call_enter("ARMCI_Put");
        let h = self.put_inner(mem, dst, off, data.into_payload());
        self.wait_inner(h);
        self.rec.call_exit();
    }

    /// Non-blocking one-sided get: RDMA Read `len` bytes from `src`'s
    /// segment at `off`. Data is returned by [`Armci::wait`].
    pub fn nb_get(&mut self, mem: &GlobalMem, src: usize, off: usize, len: usize) -> NbHandle {
        self.rec.call_enter("ARMCI_NbGet");
        let h = self.get_inner(mem, src, off, len);
        self.rec.call_exit();
        h
    }

    /// Blocking one-sided get.
    pub fn get(&mut self, mem: &GlobalMem, src: usize, off: usize, len: usize) -> Bytes {
        self.rec.call_enter("ARMCI_Get");
        let h = self.get_inner(mem, src, off, len);
        let data = self.wait_inner(h);
        self.rec.call_exit();
        data.expect("get returns data")
    }

    /// Wait for one non-blocking operation; returns fetched data for gets.
    pub fn wait(&mut self, h: NbHandle) -> Option<Bytes> {
        self.rec.call_enter("ARMCI_Wait");
        let d = self.wait_inner(h);
        self.rec.call_exit();
        d
    }

    /// Global synchronization (`armci_msg_barrier`).
    pub fn barrier(&mut self) {
        self.rec.call_enter("ARMCI_Barrier");
        self.barrier_inner();
        self.rec.call_exit();
    }

    /// Small global sum over the message layer (MG's norm reductions).
    /// Every rank must pass the same number of values.
    pub fn allreduce_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        self.rec.call_enter("armci_msg_dgop");
        let n = self.nranks;
        let me = self.rank;
        let mut acc = vals.to_vec();
        if n > 1 {
            let tag = self.alloc_coll_tag();
            // Binomial reduce to 0.
            let mut mask = 1usize;
            while mask < n {
                if me & mask == 0 {
                    let src = me | mask;
                    if src < n {
                        let other = bytes_to_f64s(&self.msg_recv_tag(tag).2);
                        ReduceOp::Sum.apply(&mut acc, &other);
                    }
                } else {
                    let dst = me & !mask;
                    self.msg_send(dst, tag, f64s_to_bytes(&acc));
                    break;
                }
                mask <<= 1;
            }
            // Binomial bcast from 0.
            let tag2 = self.alloc_coll_tag();
            let mut mask = 1usize;
            while mask < n {
                if me & mask != 0 {
                    acc = bytes_to_f64s(&self.msg_recv_tag(tag2).2);
                    break;
                }
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if me + mask < n {
                    self.msg_send(me + mask, tag2, f64s_to_bytes(&acc));
                }
                mask >>= 1;
            }
        }
        self.rec.call_exit();
        acc
    }

    // ---- internals --------------------------------------------------------

    fn lib_busy(&mut self, d: Duration) {
        self.ctx.busy(d, Activity::Library);
    }

    fn alloc_handle(&mut self) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        h
    }

    fn alloc_coll_tag(&mut self) -> u64 {
        let t = self.coll_seq;
        self.coll_seq += 1;
        t
    }

    fn put_inner(&mut self, mem: &GlobalMem, dst: usize, off: usize, data: Bytes) -> NbHandle {
        self.progress();
        let len = data.len() as u64;
        assert!(off + data.len() <= mem.seg_len, "put out of segment bounds");
        self.lib_busy(self.net.post_cost);
        let h = self.alloc_handle();
        let xfer;
        {
            let mut w = self.world.lock();
            let x = w.alloc_xfer_id();
            xfer = x.0;
            w.post_rdma_write(
                self.rank,
                dst,
                mem.regions[dst],
                off,
                data,
                pack_user(WK_PUT, h),
                None,
                Some(x),
            );
        }
        self.track(h, xfer, len)
    }

    fn get_inner(&mut self, mem: &GlobalMem, src: usize, off: usize, len: usize) -> NbHandle {
        self.progress();
        assert!(off + len <= mem.seg_len, "get out of segment bounds");
        self.lib_busy(self.net.post_cost);
        let h = self.alloc_handle();
        let xfer;
        {
            let mut w = self.world.lock();
            let x = w.alloc_xfer_id();
            xfer = x.0;
            w.post_rdma_read(
                self.rank,
                src,
                mem.regions[src],
                off,
                len,
                pack_user(WK_GET, h),
                None,
                Some(x),
            );
        }
        self.track(h, xfer, len as u64)
    }

    /// Start tracking posted operation `h`: stamp the transfer's BEGIN (its
    /// END is stamped at completion).
    fn track(&mut self, h: u64, xfer: u64, len: u64) -> NbHandle {
        self.rec.xfer_begin(xfer, len);
        let state = HandleState {
            done: false,
            stamp: (xfer, len),
            data: None,
        };
        self.handles.insert(h, state);
        NbHandle(h)
    }

    fn wait_inner(&mut self, h: NbHandle) -> Option<Bytes> {
        loop {
            self.progress();
            if self.handles.get(&h.0).expect("unknown handle").done {
                return self.handles.remove(&h.0).unwrap().data;
            }
            self.wait_for_event();
        }
    }

    fn wait_for_event(&mut self) {
        let has = self.world.lock().has_host_events(self.rank);
        if !has {
            self.ctx.park();
        }
    }

    fn progress(&mut self) {
        self.lib_busy(self.net.poll_cost);
        loop {
            enum Item {
                C(Completion),
                P(Packet),
            }
            let item = {
                let mut w = self.world.lock();
                if let Some(c) = w.poll_cq(self.rank) {
                    Some(Item::C(c))
                } else {
                    w.poll_rx(self.rank).map(Item::P)
                }
            };
            match item {
                None => break,
                Some(Item::C(c)) => {
                    let (kind, h) = unpack_user(c.user);
                    match kind {
                        WK_IGNORE => {}
                        WK_PUT | WK_GET => {
                            let st = self
                                .handles
                                .get_mut(&h)
                                .expect("completion for unknown handle");
                            st.done = true;
                            st.data = c.data;
                            let (xfer, len) = st.stamp;
                            self.rec.xfer_end(xfer, len);
                        }
                        other => panic!("unknown ARMCI completion kind {other}"),
                    }
                }
                Some(Item::P(p)) => {
                    assert_eq!(p.ty, PT_MSG, "unexpected packet type {}", p.ty);
                    self.msgs
                        .push_back((p.src, p.h[0], p.data.unwrap_or_else(Bytes::new)));
                }
            }
        }
    }

    // ---- internal message layer (setup + sync, not data transfers) -------

    fn msg_send(&mut self, dst: usize, tag: u64, data: impl IntoPayload) {
        let data = data.into_payload();
        self.progress();
        self.lib_busy(self.net.post_cost);
        let mut w = self.world.lock();
        let pkt = Packet::with_data(
            self.rank,
            data.len() + self.net.ctrl_packet_bytes,
            PT_MSG,
            [tag, 0, 0, 0, 0, 0],
            data,
        );
        w.post_send(self.rank, dst, pkt, pack_user(WK_IGNORE, 0), None);
    }

    fn msg_recv_tag(&mut self, tag: u64) -> (usize, u64, Bytes) {
        loop {
            self.progress();
            if let Some(pos) = self.msgs.iter().position(|&(_, t, _)| t == tag) {
                return self.msgs.remove(pos).unwrap();
            }
            self.wait_for_event();
        }
    }

    fn barrier_inner(&mut self) {
        let n = self.nranks;
        if n == 1 {
            return;
        }
        let base = self.alloc_coll_tag() | (1 << 48);
        let mut dist = 1;
        let mut round = 0u64;
        while dist < n {
            let to = (self.rank + dist) % n;
            let from = (self.rank + n - dist) % n;
            self.msg_send(to, base + (round << 32), Bytes::new());
            loop {
                self.progress();
                if let Some(pos) = self
                    .msgs
                    .iter()
                    .position(|&(s, t, _)| s == from && t == base + (round << 32))
                {
                    self.msgs.remove(pos);
                    break;
                }
                self.wait_for_event();
            }
            dist *= 2;
            round += 1;
        }
    }
}
