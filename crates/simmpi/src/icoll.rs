//! Non-blocking collectives.
//!
//! The paper's FT analysis (Sec. 4.2) shows a blocking `Alltoall` moving
//! long messages with *zero* opportunity for overlap — the whole transpose
//! happens inside one library call. The remedy the MPI community eventually
//! standardized (MPI-3) is non-blocking collectives: initiate, compute,
//! complete. This module implements them as *schedules advanced by the
//! polling progress engine*: each active collective is a small state machine
//! whose rounds post ordinary (instrumented) point-to-point operations, so
//! the overlap framework observes their transfers exactly like any others.
//!
//! Implemented: [`Mpi::ialltoall`] and [`Mpi::iallreduce`] (ring algorithm:
//! reduce-scatter + allgather).
//!
//! Payloads move by reference here too. The ring keeps one copy of the
//! rank's values: a reduce-scatter step folds the received wire bytes into
//! it and encodes only the chunk it sends next; an allgather step decodes
//! the received chunk into it and forwards that same `Bytes`.
//!
//! Like blocking collectives, all ranks must initiate the same collectives
//! in the same order.

use bytes::Bytes;

use crate::mpi::Mpi;
use crate::types::{f64s_to_bytes, le_f64s, ReduceOp, Request, Src, TagSel};

/// Handle to an in-flight non-blocking collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollHandle(pub(crate) u64);

/// Result of a completed non-blocking collective.
#[derive(Debug)]
pub enum CollResult {
    /// Alltoall: one block per rank.
    Blocks(Vec<Bytes>),
    /// Allreduce: the reduced vector.
    Vals(Vec<f64>),
}

impl CollResult {
    /// Unwrap alltoall blocks.
    pub fn into_blocks(self) -> Vec<Bytes> {
        match self {
            CollResult::Blocks(b) => b,
            other => panic!("expected Blocks, got {other:?}"),
        }
    }
}

pub(crate) struct ICollState {
    result: Option<CollResult>,
    kind: Kind,
}

impl ICollState {
    fn take_result(mut self) -> CollResult {
        self.result.take().expect("collective incomplete")
    }
}

enum Kind {
    Alltoall {
        recvs: Vec<(usize, Request)>,
        sends: Vec<Request>,
        out: Vec<Option<Bytes>>,
    },
    Allreduce {
        tag: u64,
        op: ReduceOp,
        /// The rank's own values, in `n` chunks of `len.div_ceil(n)` (the
        /// tail ones short or empty). Received chunks are folded or decoded
        /// into it in place; at the end it is the result.
        vals: Vec<f64>,
        /// The chunk the allgather ring received last, forwarded as it
        /// arrived at the next step.
        carry: Option<Bytes>,
        /// 0 = reduce-scatter ring, 1 = allgather ring, 2 = finished.
        phase: u8,
        step: usize,
        inflight: Option<(Request, Request, usize)>,
    },
}

impl Mpi<'_> {
    /// Non-blocking all-to-all: all sends and receives are posted
    /// immediately (single round), so the transfers proceed while the
    /// application computes — the cure for FT's blocking transpose.
    pub fn ialltoall(&mut self, blocks: &[Bytes]) -> CollHandle {
        self.rec.call_enter("MPI_Ialltoall");
        let n = self.nranks();
        assert_eq!(blocks.len(), n, "ialltoall needs one block per rank");
        let me = self.rank();
        let tag = self.coll_tag();
        let mut out: Vec<Option<Bytes>> = vec![None; n];
        out[me] = Some(blocks[me].clone());
        let mut recvs = Vec::with_capacity(n - 1);
        let mut sends = Vec::with_capacity(n - 1);
        for k in 1..n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            recvs.push((
                from,
                self.irecv_raw(Src::Rank(from), TagSel::Is(tag + k as u64)),
            ));
            sends.push(self.isend_raw(to, tag + k as u64, blocks[to].clone(), true));
        }
        let state = ICollState {
            result: (n <= 1).then(|| CollResult::Blocks(vec![blocks[0].clone()])),
            kind: Kind::Alltoall { recvs, sends, out },
        };
        let h = self.icoll_insert(state);
        self.progress();
        self.rec.call_exit();
        h
    }

    /// Non-blocking allreduce (ring algorithm: a reduce-scatter ring
    /// followed by an allgather ring, `2(n−1)` rounds).
    pub fn iallreduce(&mut self, vals: &[f64], op: ReduceOp) -> CollHandle {
        self.rec.call_enter("MPI_Iallreduce");
        let n = self.nranks();
        let tag = self.coll_tag();
        let mut own = vals.to_vec();
        let state = ICollState {
            result: (n <= 1).then(|| CollResult::Vals(std::mem::take(&mut own))),
            kind: Kind::Allreduce {
                tag,
                op,
                vals: own,
                carry: None,
                phase: 0,
                step: 0,
                inflight: None,
            },
        };
        let h = self.icoll_insert(state);
        self.progress();
        self.rec.call_exit();
        h
    }

    /// Complete a non-blocking collective and return its result.
    pub fn icoll_wait(&mut self, h: CollHandle) -> CollResult {
        self.rec.call_enter("MPI_Wait");
        self.progress_until(|m| m.icolls.get(&h.0).is_none_or(|s| s.result.is_some()));
        let result = self
            .icolls
            .remove(&h.0)
            .expect("collective already taken")
            .take_result();
        self.rec.call_exit();
        result
    }

    fn icoll_insert(&mut self, st: ICollState) -> CollHandle {
        let id = self.next_icoll;
        self.next_icoll += 1;
        self.icolls.insert(id, st);
        CollHandle(id)
    }

    // ---- machine advancement (called from `progress`) ---------------------

    /// Would [`Mpi::advance_collectives`] have anything to advance?
    pub(crate) fn collectives_live(&self) -> bool {
        self.icolls.values().any(|s| s.result.is_none())
    }

    pub(crate) fn advance_collectives(&mut self) {
        let mut next = 0;
        while let Some((&id, st)) = self.icolls.range(next..).next() {
            next = id + 1;
            if st.result.is_some() {
                continue;
            }
            // Out of the map while it advances: `advance_one` needs `&mut self`.
            let mut st = self.icolls.remove(&id).expect("id just seen");
            self.advance_one(&mut st);
            self.icolls.insert(id, st);
        }
    }

    fn advance_one(&mut self, st: &mut ICollState) {
        match &mut st.kind {
            Kind::Alltoall { recvs, sends, out } => {
                recvs.retain(|&(idx, r)| {
                    if self.req_done(r) {
                        let st = self.take_status(r);
                        out[idx] = Some(st.into_data());
                        false
                    } else {
                        true
                    }
                });
                sends.retain(|&s| {
                    if self.req_done(s) {
                        self.take_status(s);
                        false
                    } else {
                        true
                    }
                });
                if recvs.is_empty() && sends.is_empty() {
                    st.result = Some(CollResult::Blocks(
                        out.iter_mut().map(|o| o.take().unwrap()).collect(),
                    ));
                }
            }
            Kind::Allreduce {
                tag,
                op,
                vals,
                carry,
                phase,
                step,
                inflight,
            } => {
                let n = self.nranks();
                let me = self.rank();
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                let (len, per) = (vals.len(), vals.len().div_ceil(n).max(1));
                let chunk = |c: usize| (c * per).min(len)..((c + 1) * per).min(len);
                loop {
                    if let Some((s, r, recv_chunk)) = *inflight {
                        if self.req_done(s) && self.req_done(r) {
                            self.take_status(s);
                            let incoming = self.take_status(r).into_data();
                            let own = &mut vals[chunk(recv_chunk)];
                            if *phase == 0 {
                                op.fold_le(own, &incoming);
                            } else {
                                own.iter_mut()
                                    .zip(le_f64s(&incoming))
                                    .for_each(|(v, x)| *v = x);
                                *carry = Some(incoming);
                            }
                            *inflight = None;
                            *step += 1;
                            if *step == n - 1 {
                                *step = 0;
                                *phase += 1;
                            }
                        } else {
                            return;
                        }
                    }
                    if *phase >= 2 {
                        st.result = Some(CollResult::Vals(std::mem::take(vals)));
                        return;
                    }
                    let (send_chunk, recv_chunk) = if *phase == 0 {
                        ((me + n - *step) % n, (me + n - *step - 1) % n)
                    } else {
                        ((me + 1 + n - *step) % n, (me + n - *step) % n)
                    };
                    let t = *tag + (*phase as u64) * 1000 + *step as u64;
                    // The reduce-scatter sends the chunk it folded last; the
                    // allgather forwards the bytes it received, past step 0.
                    let payload = carry
                        .take()
                        .unwrap_or_else(|| f64s_to_bytes(&vals[chunk(send_chunk)]).into());
                    let s = self.isend_raw(right, t, payload, true);
                    let r = self.irecv_raw(Src::Rank(left), TagSel::Is(t));
                    *inflight = Some((s, r, recv_chunk));
                }
            }
        }
    }
}
