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
}

/// Sum of ground-truth overlaps for every transfer touching `rank` (as source
/// or destination), against that rank's activity log.
pub fn total_true_overlap(transfers: &[TransferRecord], rank: usize, log: &ActivityLog) -> u64 {
    transfers
        .iter()
        .filter(|t| t.src == rank || t.dst == rank)
        .map(|t| t.true_overlap(log))
        .sum()
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
        }
    }

    #[test]
    fn true_overlap_intersects_compute() {
        let log = log_of(&[(Activity::Compute, 50), (Activity::LibraryWait, 50)]);
        let t = rec(0, 1, 25, 75);
        assert_eq!(t.true_overlap(&log), 25);
    }

    #[test]
    fn total_filters_by_rank() {
        let log = log_of(&[(Activity::Compute, 100)]);
        let ts = vec![rec(0, 1, 0, 10), rec(2, 3, 0, 10), rec(4, 0, 20, 30)];
        assert_eq!(total_true_overlap(&ts, 0, &log), 20);
        assert_eq!(total_true_overlap(&ts, 3, &log), 10);
        assert_eq!(total_true_overlap(&ts, 5, &log), 0);
    }
}
