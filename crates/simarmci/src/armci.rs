//! The per-rank ARMCI endpoint.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use overlap_core::{Recorder, RecorderOpts, XferTimeTable};
use simcore::{Activity, Duration, RankCtx, RankDiag};
use simmpi::proto::{pack_user, unpack_user};
use simmpi::{bytes_to_f64s, f64s_to_bytes, IntoPayload, RankOutcome, ReduceOp};
use simnet::{Completion, NetConfig, Packet, RegionId, SharedWorld};

/// Internal message packet (setup / sync / tiny collectives).
const PT_MSG: u16 = 20;

/// Completion correlation kinds.
const WK_IGNORE: u64 = 0;
const WK_OP: u64 = 1;

/// Handle to a non-blocking one-sided operation: its fabric transfer id.
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

/// A posted one-sided operation, keyed by its transfer id.
enum Op {
    /// Posted; its length for the END stamp at completion.
    InFlight(u64),
    /// Completed; a get's fetched data.
    Done(Option<Bytes>),
}

/// The per-rank ARMCI library endpoint.
pub struct Armci<'a> {
    ctx: &'a mut RankCtx,
    world: SharedWorld,
    net: std::sync::Arc<NetConfig>,
    rec: Recorder,
    rank: usize,
    nranks: usize,
    ops: HashMap<u64, Op>,
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
            ops: HashMap::new(),
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
    pub(crate) fn finalize(mut self) -> RankOutcome {
        self.rec.call_enter("ARMCI_Finalize");
        self.barrier_inner();
        self.rec.call_exit();
        let (report, trace) = self.rec.finish_traced();
        RankOutcome::new(report, trace)
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
            let (src, _, data) = self.msg_recv(None, tag);
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
                        ReduceOp::Sum.fold_le(&mut acc, &self.msg_recv(None, tag).2);
                    }
                } else {
                    let dst = me & !mask;
                    self.msg_send(dst, tag, f64s_to_bytes(&acc));
                    break;
                }
                mask <<= 1;
            }
            // Binomial bcast from 0 of the root's bytes, forwarded as received.
            let tag2 = self.alloc_coll_tag();
            let mut wire = Bytes::new();
            let mut mask = 1usize;
            while mask < n {
                if me & mask != 0 {
                    wire = self.msg_recv(None, tag2).2;
                    acc = bytes_to_f64s(&wire);
                    break;
                }
                mask <<= 1;
            }
            if me == 0 {
                wire = Bytes::from(f64s_to_bytes(&acc));
            }
            mask >>= 1;
            while mask > 0 {
                if me + mask < n {
                    self.msg_send(me + mask, tag2, &wire);
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
        let mut w = self.world.lock();
        let x = w.alloc_xfer_id();
        w.post_rdma_write(
            self.rank,
            dst,
            mem.regions[dst],
            off,
            data,
            pack_user(WK_OP, x.0),
            None,
            Some(x),
        );
        drop(w);
        self.track(x.0, len)
    }

    fn get_inner(&mut self, mem: &GlobalMem, src: usize, off: usize, len: usize) -> NbHandle {
        self.progress();
        assert!(off + len <= mem.seg_len, "get out of segment bounds");
        self.lib_busy(self.net.post_cost);
        let mut w = self.world.lock();
        let x = w.alloc_xfer_id();
        w.post_rdma_read(
            self.rank,
            src,
            mem.regions[src],
            off,
            len,
            pack_user(WK_OP, x.0),
            None,
            Some(x),
        );
        drop(w);
        self.track(x.0, len as u64)
    }

    /// Start tracking the operation posted as transfer `xfer`: stamp its
    /// BEGIN (its END is stamped at completion).
    fn track(&mut self, xfer: u64, len: u64) -> NbHandle {
        self.rec.xfer_begin(xfer, len);
        self.ops.insert(xfer, Op::InFlight(len));
        NbHandle(xfer)
    }

    fn wait_inner(&mut self, h: NbHandle) -> Option<Bytes> {
        self.progress_until(|a| matches!(a.ops.get(&h.0).expect("unknown handle"), Op::Done(_)));
        match self.ops.remove(&h.0) {
            Some(Op::Done(data)) => data,
            _ => unreachable!("progress_until returned before the operation completed"),
        }
    }

    /// The body of every blocking call: poll and drain until `done` holds,
    /// parked between polls until the NIC has something for this rank. When
    /// the entry poll can find nothing unless a delivery rings during it —
    /// the NIC is idle and `done` does not hold yet — the poll and the park
    /// after it are one [`RankCtx::wait`].
    fn progress_until(&mut self, done: impl Fn(&Self) -> bool) {
        let poll = self.net.poll_cost;
        if !done(self) && !self.world.lock().has_host_events(self.rank) {
            self.ctx.wait(poll, poll, RankDiag::default);
        } else {
            self.lib_busy(poll);
        }
        loop {
            self.drain();
            if done(self) {
                return;
            }
            if self.world.lock().has_host_events(self.rank) {
                self.lib_busy(poll);
            } else {
                self.ctx.wait(0, poll, RankDiag::default);
            }
        }
    }

    fn progress(&mut self) {
        self.lib_busy(self.net.poll_cost);
        self.drain();
    }

    /// Drain completions and packets until quiescent; costs no virtual time.
    fn drain(&mut self) {
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
                    let (kind, xfer) = unpack_user(c.user);
                    match kind {
                        WK_IGNORE => {}
                        WK_OP => {
                            let op = self
                                .ops
                                .get_mut(&xfer)
                                .expect("completion for unknown handle");
                            let Op::InFlight(len) = *op else {
                                panic!("transfer {xfer} completed twice");
                            };
                            *op = Op::Done(c.data);
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

    /// Take the first buffered message tagged `tag` (and from `from`, if
    /// given), progressing until one is there.
    fn msg_recv(&mut self, from: Option<usize>, tag: u64) -> (usize, u64, Bytes) {
        let find = |a: &Self| {
            a.msgs
                .iter()
                .position(|&(s, t, _)| t == tag && from.is_none_or(|f| f == s))
        };
        self.progress_until(|a| find(a).is_some());
        let pos = find(self).expect("progress_until returned without the message");
        self.msgs.remove(pos).unwrap()
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
            self.msg_recv(Some(from), base + (round << 32));
            dist *= 2;
            round += 1;
        }
    }
}
