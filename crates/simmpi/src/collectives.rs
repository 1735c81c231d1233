//! Collective operations, built over the instrumented point-to-point layer.
//!
//! Every collective exists in two forms: the world-scoped convenience
//! (`bcast`, `reduce`, ...) and a communicator-scoped variant
//! (`bcast_comm`, ...) operating on a subgroup from [`Mpi::comm_split`] —
//! the row/column communicators NAS-style codes use.
//!
//! The internal sends/receives do not emit `CALL_ENTER`/`CALL_EXIT` events
//! (they never cross the application/library boundary — only the collective
//! itself does), but their message transfers *are* stamped, so the framework
//! observes collective payload traffic exactly as the paper describes for
//! NAS FT's `Alltoall` and the short `Reduce`/`Bcast` messages.

use bytes::Bytes;

use crate::comm::Comm;
use crate::mpi::Mpi;
use crate::types::{bytes_to_f64s, f64s_to_bytes, IntoPayload, ReduceOp, Src, Status, TagSel};

const COLL_TAG_BASE: u64 = 1 << 40;
/// Tag block per communicator.
const COMM_BLOCK: u64 = 1 << 28;
/// Tag block per collective invocation within a communicator.
const OP_BLOCK: u64 = 1 << 16;

impl Mpi<'_> {
    /// The world communicator (all ranks, identity numbering). Cached at
    /// init; this is a refcount bump, called once per collective.
    pub fn comm_world(&self) -> Comm {
        self.world_comm.clone()
    }

    /// Split the world into sub-communicators (`MPI_Comm_split` over
    /// `MPI_COMM_WORLD`): processes with the same `color` land in the same
    /// communicator, ordered by `(key, world rank)`. Collective over all
    /// world ranks.
    pub fn comm_split(&mut self, color: u64, key: u64) -> Comm {
        assert!(color < 4096, "color must be < 4096");
        self.call_enter("MPI_Comm_split");
        // Allgather (color, key) over the world.
        let mut mine = Vec::with_capacity(16);
        mine.extend_from_slice(&color.to_le_bytes());
        mine.extend_from_slice(&key.to_le_bytes());
        let world = self.comm_world();
        let all = self.allgather_in(&world, &mine);
        let split_seq = self.next_split_seq();
        let mut members: Vec<(u64, usize)> = Vec::new(); // (key, world rank)
        for (world_rank, blob) in all.iter().enumerate() {
            let c = u64::from_le_bytes(blob[0..8].try_into().unwrap());
            let k = u64::from_le_bytes(blob[8..16].try_into().unwrap());
            if c == color {
                members.push((k, world_rank));
            }
        }
        members.sort_unstable();
        let ranks: Vec<usize> = members.iter().map(|&(_, r)| r).collect();
        let my_idx = ranks
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller must be a member of its own color");
        self.rec.call_exit();
        Comm {
            id: 1 + split_seq * 4096 + color,
            ranks: ranks.into(),
            my_idx,
        }
    }

    /// Base tag for the next collective on `comm`. Members agree because
    /// they invoke the communicator's collectives in the same order.
    pub(crate) fn coll_tag(&mut self, comm: &Comm) -> u64 {
        let seq = self.next_comm_seq(comm.id);
        COLL_TAG_BASE + comm.id * COMM_BLOCK + (seq % (COMM_BLOCK / OP_BLOCK)) * OP_BLOCK
    }

    // ---- world-scoped conveniences ---------------------------------------

    /// Synchronize all ranks (dissemination algorithm, zero-payload
    /// packets — not counted as data transfers).
    pub fn barrier(&mut self) {
        self.call_enter("MPI_Barrier");
        self.barrier_inner();
        self.rec.call_exit();
    }

    /// Broadcast `data` from `root` to every rank (binomial tree).
    pub fn bcast(&mut self, root: usize, data: &mut Vec<u8>) {
        self.call_enter("MPI_Bcast");
        let comm = self.comm_world();
        self.bcast_in(&comm, root, data);
        self.rec.call_exit();
    }

    /// Reduce `data` elementwise onto `root` (binomial tree). Returns the
    /// result on the root, `None` elsewhere.
    pub fn reduce(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        self.call_enter("MPI_Reduce");
        let comm = self.comm_world();
        let out = self.reduce_in(&comm, root, data, op);
        self.rec.call_exit();
        out
    }

    /// Allreduce = reduce to rank 0 followed by a broadcast, matching the
    /// Reduce/Bcast structure the paper observes in NAS FT.
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.call_enter("MPI_Allreduce");
        let comm = self.comm_world();
        let out = self.allreduce_in(&comm, data, op);
        self.rec.call_exit();
        out
    }

    /// All-to-all personalized exchange: `blocks[i]` goes to rank `i`;
    /// returns the blocks received from each rank. Pairwise-exchange
    /// schedule (`n`−1 rounds of `sendrecv`), the classic long-message
    /// algorithm whose transfers dominate NAS FT. Blocks may have different
    /// lengths, so this doubles as `MPI_Alltoallv`.
    pub fn alltoall(&mut self, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.call_enter("MPI_Alltoall");
        let comm = self.comm_world();
        let out = self.alltoall_in(&comm, blocks);
        self.rec.call_exit();
        out
    }

    /// Variable-block all-to-all (alias of [`Mpi::alltoall`], which already
    /// permits per-destination lengths; named for API parity).
    pub fn alltoallv(&mut self, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.call_enter("MPI_Alltoallv");
        let comm = self.comm_world();
        let out = self.alltoall_in(&comm, blocks);
        self.rec.call_exit();
        out
    }

    /// All-gather via a ring: `n`−1 steps, each forwarding the block
    /// received in the previous step.
    pub fn allgather(&mut self, mine: &[u8]) -> Vec<Vec<u8>> {
        self.call_enter("MPI_Allgather");
        let comm = self.comm_world();
        let out = self.allgather_in(&comm, mine);
        self.rec.call_exit();
        out
    }

    /// Gather every rank's block at `root` (direct algorithm). Returns the
    /// blocks in rank order on the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        self.call_enter("MPI_Gather");
        let comm = self.comm_world();
        let out = self.gather_in(&comm, root, mine);
        self.rec.call_exit();
        out
    }

    /// Scatter `blocks[i]` from `root` to rank `i`; returns this rank's
    /// block.
    pub fn scatter(&mut self, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
        self.call_enter("MPI_Scatter");
        let comm = self.comm_world();
        let out = self.scatter_in(&comm, root, blocks);
        self.rec.call_exit();
        out
    }

    /// Reduce-scatter: elementwise-reduce `data` (length must be a multiple
    /// of the communicator size) and return this rank's slice of the result.
    pub fn reduce_scatter(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.call_enter("MPI_Reduce_scatter");
        let comm = self.comm_world();
        let out = self.reduce_scatter_in(&comm, data, op);
        self.rec.call_exit();
        out
    }

    /// Inclusive prefix reduction (`MPI_Scan`): rank `i` receives the
    /// reduction of ranks `0..=i`.
    pub fn scan(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.call_enter("MPI_Scan");
        let comm = self.comm_world();
        let out = self.scan_in(&comm, data, op);
        self.rec.call_exit();
        out
    }

    // ---- communicator-scoped variants ------------------------------------

    /// Barrier over a communicator.
    pub fn barrier_comm(&mut self, comm: &Comm) {
        self.call_enter("MPI_Barrier");
        self.barrier_comm_inner(comm);
        self.rec.call_exit();
    }

    /// Broadcast over a communicator; `root` is a communicator rank.
    pub fn bcast_comm(&mut self, comm: &Comm, root: usize, data: &mut Vec<u8>) {
        self.call_enter("MPI_Bcast");
        self.bcast_in(comm, root, data);
        self.rec.call_exit();
    }

    /// Reduce over a communicator; `root` is a communicator rank.
    pub fn reduce_comm(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        self.call_enter("MPI_Reduce");
        let out = self.reduce_in(comm, root, data, op);
        self.rec.call_exit();
        out
    }

    /// Allreduce over a communicator.
    pub fn allreduce_comm(&mut self, comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.call_enter("MPI_Allreduce");
        let out = self.allreduce_in(comm, data, op);
        self.rec.call_exit();
        out
    }

    // ---- algorithms -------------------------------------------------------

    fn bcast_in(&mut self, comm: &Comm, root: usize, data: &mut Vec<u8>) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let tag = self.coll_tag(comm);
        let vrank = (comm.rank() + n - root) % n;
        let unmap = |v: usize| comm.world_rank((v + root) % n);
        // One `Bytes` per rank: the root's copy of its buffer, or the block
        // as received; every child gets a clone of it.
        let mut payload = None;
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let st = self.recv_internal(Src::Rank(unmap(vrank - mask)), TagSel::Is(tag));
                let got = st.into_data();
                *data = got.to_vec();
                payload = Some(got);
                break;
            }
            mask <<= 1;
        }
        let payload = payload.unwrap_or_else(|| data.as_slice().into_payload());
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < n {
                self.send_internal(unmap(vrank + mask), tag, &payload);
            }
            mask >>= 1;
        }
    }

    fn reduce_in(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let n = comm.size();
        let mut acc = data.to_vec();
        if n > 1 {
            let tag = self.coll_tag(comm);
            let vrank = (comm.rank() + n - root) % n;
            let unmap = |v: usize| comm.world_rank((v + root) % n);
            let mut mask = 1usize;
            while mask < n {
                if vrank & mask == 0 {
                    let src_v = vrank | mask;
                    if src_v < n {
                        let st = self.recv_internal(Src::Rank(unmap(src_v)), TagSel::Is(tag));
                        let other = bytes_to_f64s(&st.into_data());
                        op.apply(&mut acc, &other);
                    }
                } else {
                    let dst = unmap(vrank & !mask);
                    self.send_internal(dst, tag, f64s_to_bytes(&acc));
                    break;
                }
                mask <<= 1;
            }
        }
        (comm.rank() == root).then_some(acc)
    }

    fn allreduce_in(&mut self, comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let reduced = self.reduce_in(comm, 0, data, op);
        let mut buf = reduced.map(|v| f64s_to_bytes(&v)).unwrap_or_default();
        self.bcast_in(comm, 0, &mut buf);
        bytes_to_f64s(&buf)
    }

    fn alltoall_in(&mut self, comm: &Comm, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let n = comm.size();
        assert_eq!(blocks.len(), n, "alltoall needs one block per rank");
        let me = comm.rank();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = blocks[me].clone();
        let tag = self.coll_tag(comm);
        for k in 1..n {
            let to = comm.world_rank((me + k) % n);
            let from_idx = (me + n - k) % n;
            let from = comm.world_rank(from_idx);
            let block = (&blocks[(me + k) % n]).into_payload();
            let sr = self.isend_inner(to, tag + k as u64, block, true);
            let rr = self.irecv_inner(Src::Rank(from), TagSel::Is(tag + k as u64));
            self.wait_inner(sr);
            let st = self.wait_inner(rr);
            out[from_idx] = st.into_data().to_vec();
        }
        out
    }

    fn allgather_in(&mut self, comm: &Comm, mine: &[u8]) -> Vec<Vec<u8>> {
        let n = comm.size();
        let me = comm.rank();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = mine.to_vec();
        if n > 1 {
            let tag = self.coll_tag(comm);
            let right = comm.world_rank((me + 1) % n);
            let left = comm.world_rank((me + n - 1) % n);
            // The block received in one step is the block forwarded in the
            // next, as the same `Bytes`.
            let mut forward = mine.into_payload();
            for step in 0..n - 1 {
                let recv_block = (me + n - step - 1) % n;
                let sr = self.isend_inner(right, tag + step as u64, forward, true);
                let rr = self.irecv_inner(Src::Rank(left), TagSel::Is(tag + step as u64));
                self.wait_inner(sr);
                forward = self.wait_inner(rr).into_data();
                out[recv_block] = forward.to_vec();
            }
        }
        out
    }

    fn gather_in(&mut self, comm: &Comm, root: usize, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        let n = comm.size();
        let me = comm.rank();
        let tag = self.coll_tag(comm);
        if me == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
            out[me] = mine.to_vec();
            for (src, slot) in out.iter_mut().enumerate() {
                if src != me {
                    let st = self.recv_internal(Src::Rank(comm.world_rank(src)), TagSel::Is(tag));
                    *slot = st.into_data().to_vec();
                }
            }
            Some(out)
        } else {
            self.send_internal(comm.world_rank(root), tag, mine);
            None
        }
    }

    fn scatter_in(&mut self, comm: &Comm, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
        let n = comm.size();
        let me = comm.rank();
        let tag = self.coll_tag(comm);
        if me == root {
            let blocks = blocks.expect("root must supply blocks");
            assert_eq!(blocks.len(), n, "scatter needs one block per rank");
            for (dst, b) in blocks.iter().enumerate() {
                if dst != me {
                    self.send_internal(comm.world_rank(dst), tag, b);
                }
            }
            blocks[me].clone()
        } else {
            let st = self.recv_internal(Src::Rank(comm.world_rank(root)), TagSel::Is(tag));
            st.into_data().to_vec()
        }
    }

    fn reduce_scatter_in(&mut self, comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let n = comm.size();
        assert_eq!(
            data.len() % n,
            0,
            "reduce_scatter length must divide evenly"
        );
        let chunk = data.len() / n;
        // Reduce to communicator rank 0, then scatter the slices.
        let full = self.reduce_in(comm, 0, data, op);
        let blocks: Option<Vec<Vec<u8>>> =
            full.map(|v| v.chunks_exact(chunk).map(f64s_to_bytes).collect());
        let mine = self.scatter_in(comm, 0, blocks.as_deref());
        bytes_to_f64s(&mine)
    }

    fn scan_in(&mut self, comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
        // Linear pipeline: receive the prefix from the left neighbor, fold,
        // forward to the right.
        let n = comm.size();
        let me = comm.rank();
        let mut acc = data.to_vec();
        if n > 1 {
            let tag = self.coll_tag(comm);
            if me > 0 {
                let st = self.recv_internal(Src::Rank(comm.world_rank(me - 1)), TagSel::Is(tag));
                let prefix = bytes_to_f64s(&st.into_data());
                // acc = op(prefix, mine)
                let mine = acc.clone();
                acc = prefix;
                op.apply(&mut acc, &mine);
            }
            if me + 1 < n {
                self.send_internal(comm.world_rank(me + 1), tag, f64s_to_bytes(&acc));
            }
        }
        acc
    }

    /// Dissemination barrier over a communicator's members (zero-payload
    /// packets, not counted as data transfers).
    pub(crate) fn barrier_comm_inner(&mut self, comm: &Comm) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let base = self.coll_tag(comm);
        let mut dist = 1;
        let mut round = 0u64;
        while dist < n {
            let to = comm.world_rank((comm.rank() + dist) % n);
            let from = comm.world_rank((comm.rank() + n - dist) % n);
            let tag = base + round;
            let s = self.isend_inner(to, tag, Bytes::new(), false);
            let r = self.irecv_inner(Src::Rank(from), TagSel::Is(tag));
            self.wait_inner(s);
            self.wait_inner(r);
            dist *= 2;
            round += 1;
        }
    }

    // Internal blocking helpers without CALL events (the collective itself
    // is the library call).
    fn send_internal(&mut self, dst: usize, tag: u64, data: impl IntoPayload) {
        let r = self.isend_inner(dst, tag, data.into_payload(), true);
        self.wait_inner(r);
    }

    fn recv_internal(&mut self, src: Src, tag: TagSel) -> Status {
        let r = self.irecv_inner(src, tag);
        self.wait_inner(r)
    }
}
