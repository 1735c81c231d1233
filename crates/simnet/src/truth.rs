//! Ground-truth transfer records.

use simcore::{ActivityLog, Time};

/// What kind of fabric operation moved the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Two-sided send (eager data packets).
    Send,
    /// One-sided RDMA Write.
    RdmaWrite,
    /// One-sided RDMA Read.
    RdmaRead,
}

/// Physical record of one data transfer operation, as the simulator saw it.
/// Control packets are *not* recorded — matching the PERUSE-style definition
/// of a message transfer used by the paper.
#[derive(Debug, Clone)]
pub struct TransferRecord {
    /// Fabric-assigned transfer id (also used by the instrumentation layer,
    /// so bounds and truth can be joined per transfer).
    pub xfer_id: u64,
    /// Node whose memory the data left.
    pub src: usize,
    /// Node whose memory the data entered.
    pub dst: usize,
    /// Payload bytes moved.
    pub bytes: usize,
    /// Physical start of the data movement (first byte leaves src memory).
    pub phys_start: Time,
    /// Physical end (last byte lands in dst memory).
    pub phys_end: Time,
    /// Operation kind.
    pub kind: TransferKind,
    /// The fabric dropped this attempt: its bytes left `src` but never
    /// reached `dst`. A retransmission follows under the same `xfer_id`.
    pub lost: bool,
}

impl TransferRecord {
    /// Ground-truth overlap of this transfer with user computation on `log`
    /// (the activity log of whichever rank's perspective is being assessed).
    pub fn true_overlap(&self, log: &ActivityLog) -> u64 {
        log.compute_overlap_with(self.phys_start, self.phys_end)
    }

    /// Physical duration of the transfer.
    pub fn duration(&self) -> u64 {
        self.phys_end - self.phys_start
    }

    /// Whether this attempt is part of `rank`'s side of the transfer: every
    /// attempt is, except a lost one on the receiver that never saw it.
    pub fn seen_by(&self, rank: usize) -> bool {
        !self.lost || self.src == rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Activity, SimOpts, Simulation};

    /// The ground-truth log of one rank that spends `steps` in order.
    fn log_of(steps: &'static [(Activity, u64)]) -> ActivityLog {
        let out = Simulation::new(1)
            .run(SimOpts::default(), move |ctx| {
                for &(kind, ns) in steps {
                    ctx.busy(ns, kind);
                }
            })
            .unwrap();
        out.activity.into_iter().next().unwrap()
    }

    fn rec(src: usize, dst: usize, s: Time, e: Time) -> TransferRecord {
        TransferRecord {
            xfer_id: 0,
            src,
            dst,
            bytes: 100,
            phys_start: s,
            phys_end: e,
            kind: TransferKind::Send,
            lost: false,
        }
    }

    #[test]
    fn a_lost_attempt_is_the_senders_alone() {
        let lost = TransferRecord {
            lost: true,
            ..rec(0, 1, 0, 50)
        };
        assert!(lost.seen_by(0) && !lost.seen_by(1));
        assert!(rec(0, 1, 0, 50).seen_by(1));
    }

    #[test]
    fn true_overlap_intersects_compute() {
        let log = log_of(&[(Activity::Compute, 50), (Activity::LibraryWait, 50)]);
        let t = rec(0, 1, 25, 75);
        assert_eq!(t.true_overlap(&log), 25);
    }
}
