//! Collective operations, built over the instrumented point-to-point layer:
//! the five the NAS kernels call (`barrier`, `bcast`, `reduce`, `allreduce`,
//! `alltoall`), over all ranks.
//!
//! The internal sends/receives do not emit `CALL_ENTER`/`CALL_EXIT` events
//! (they never cross the application/library boundary — only the collective
//! itself does), but their message transfers *are* stamped, so the framework
//! observes collective payload traffic exactly as the paper describes for
//! NAS FT's `Alltoall` and the short `Reduce`/`Bcast` messages.

use bytes::Bytes;

use crate::mpi::Mpi;
use crate::types::{bytes_to_f64s, f64s_to_bytes, IntoPayload, ReduceOp, Src, Status, TagSel};

const COLL_TAG_BASE: u64 = 1 << 40;
/// Tag block per collective invocation.
const OP_BLOCK: u64 = 1 << 16;
/// Invocations before the tag blocks wrap.
const OP_BLOCKS: u64 = 1 << 12;

impl Mpi<'_> {
    /// Base tag for the next collective. Ranks agree because they invoke
    /// the collectives in the same order.
    pub(crate) fn coll_tag(&mut self) -> u64 {
        let seq = self.coll_seq;
        self.coll_seq += 1;
        COLL_TAG_BASE + (seq % OP_BLOCKS) * OP_BLOCK
    }

    /// Synchronize all ranks (dissemination algorithm, zero-payload
    /// packets — not counted as data transfers).
    pub fn barrier(&mut self) {
        self.call_enter("MPI_Barrier");
        self.barrier_inner();
        self.rec.call_exit();
    }

    /// Broadcast `data` from `root` to every rank (binomial tree). Elsewhere
    /// `data` is replaced by the payload as received, by reference.
    pub fn bcast(&mut self, root: usize, data: &mut Bytes) {
        self.call_enter("MPI_Bcast");
        self.bcast_in(root, data);
        self.rec.call_exit();
    }

    /// Reduce `data` elementwise onto `root` (binomial tree). Returns the
    /// result on the root, `None` elsewhere.
    pub fn reduce(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        self.call_enter("MPI_Reduce");
        let out = self.reduce_in(root, data, op);
        self.rec.call_exit();
        out
    }

    /// Allreduce = reduce to rank 0 followed by a broadcast, matching the
    /// Reduce/Bcast structure the paper observes in NAS FT.
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.call_enter("MPI_Allreduce");
        let reduced = self.reduce_in(0, data, op);
        let mut buf = reduced.map_or_else(Bytes::new, |v| f64s_to_bytes(&v).into());
        self.bcast_in(0, &mut buf);
        self.rec.call_exit();
        bytes_to_f64s(&buf)
    }

    /// All-to-all personalized exchange: `blocks[i]` goes to rank `i`;
    /// returns the blocks received from each rank. Pairwise-exchange
    /// schedule (`n`−1 rounds of `sendrecv`), the classic long-message
    /// algorithm whose transfers dominate NAS FT. Blocks may have different
    /// lengths.
    pub fn alltoall(&mut self, blocks: &[Bytes]) -> Vec<Bytes> {
        self.call_enter("MPI_Alltoall");
        let n = self.nranks();
        assert_eq!(blocks.len(), n, "alltoall needs one block per rank");
        let me = self.rank();
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[me] = blocks[me].clone();
        let tag = self.coll_tag();
        for k in 1..n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            let sr = self.isend_inner(to, tag + k as u64, blocks[to].clone(), true);
            let rr = self.irecv_inner(Src::Rank(from), TagSel::Is(tag + k as u64));
            self.wait_inner(sr);
            let st = self.wait_inner(rr);
            out[from] = st.into_data();
        }
        self.rec.call_exit();
        out
    }

    // ---- algorithms -------------------------------------------------------

    fn bcast_in(&mut self, root: usize, data: &mut Bytes) {
        let n = self.nranks();
        if n <= 1 {
            return;
        }
        let tag = self.coll_tag();
        let vrank = (self.rank() + n - root) % n;
        let unmap = |v: usize| (v + root) % n;
        // One `Bytes` per rank: the root's buffer, or the block as
        // received; every child gets a clone of it.
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let st = self.recv_internal(Src::Rank(unmap(vrank - mask)), TagSel::Is(tag));
                *data = st.into_data();
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < n {
                self.send_internal(unmap(vrank + mask), tag, &*data);
            }
            mask >>= 1;
        }
    }

    fn reduce_in(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let n = self.nranks();
        let mut acc = data.to_vec();
        if n > 1 {
            let tag = self.coll_tag();
            let vrank = (self.rank() + n - root) % n;
            let unmap = |v: usize| (v + root) % n;
            let mut mask = 1usize;
            while mask < n {
                if vrank & mask == 0 {
                    let src_v = vrank | mask;
                    if src_v < n {
                        let st = self.recv_internal(Src::Rank(unmap(src_v)), TagSel::Is(tag));
                        op.fold_le(&mut acc, &st.into_data());
                    }
                } else {
                    let dst = unmap(vrank & !mask);
                    self.send_internal(dst, tag, f64s_to_bytes(&acc));
                    break;
                }
                mask <<= 1;
            }
        }
        (self.rank() == root).then_some(acc)
    }

    /// Dissemination barrier over zero-payload packets (not counted as data
    /// transfers); init and finalize synchronize with it too.
    pub(crate) fn barrier_inner(&mut self) {
        let n = self.nranks();
        if n <= 1 {
            return;
        }
        let base = self.coll_tag();
        let mut dist = 1;
        let mut round = 0u64;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
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
