//! Library configuration and presets mirroring the paper's three
//! communication environments.

/// How outstanding communication makes progress between library calls.
///
/// The paper's 2006 libraries are [`ProgressModel::Polling`]: a rank only
/// advances transfers when it re-enters the MPI library. The other models
/// reproduce the modern designs surveyed in `docs/PROGRESS.md` — an
/// asynchronous per-rank progress fiber (Zhou et al., "MPI Progress For
/// All"), early-bird delivery of unexpected eager messages (Marts et al.),
/// and full NIC tag matching. Every model is deterministic, explorable by
/// the schedule oracle, and exactly reconciled in wait-state attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressModel {
    /// Library-call-driven progress — today's default, byte-identical to
    /// the pre-model simulator.
    Polling,
    /// A dedicated progress fiber per rank drives the progress engine every
    /// `poll_interval` ns of virtual compute time. Stolen cycles appear as
    /// compute slowdown and as the `progress_steal` wait cause.
    AsyncRank {
        /// Virtual-time distance between progress-fiber poll boundaries, ns.
        /// Must be > 0: `Mpi::init` panics otherwise.
        poll_interval: simcore::Duration,
    },
    /// Unexpected eager messages are matched and copied into the library's
    /// bounce buffer at arrival-processing time rather than at the next
    /// library call that drains them — the receive that finally matches
    /// pays no copy, so late-sender waits shrink.
    EarlyBird,
    /// Tag matching and the rendezvous handshake complete inside the NIC
    /// with zero host involvement: arrivals match posted receives at wire
    /// arrival time, rendezvous data is pulled NIC-to-NIC, and the host
    /// only observes completions.
    HwTag,
}

impl ProgressModel {
    /// Default `async-rank` poll interval, ns.
    pub const DEFAULT_POLL_INTERVAL: simcore::Duration = 5_000;

    /// Stable label used in CLI specs, series rows, and docs.
    pub fn label(&self) -> &'static str {
        match self {
            ProgressModel::Polling => "polling",
            ProgressModel::AsyncRank { .. } => "async-rank",
            ProgressModel::EarlyBird => "early-bird",
            ProgressModel::HwTag => "hw-tag",
        }
    }

    /// Parse a CLI spec: `polling`, `async-rank`,
    /// `async-rank:interval=<ns>`, `early-bird`, or `hw-tag`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, params) = match spec.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (spec, None),
        };
        match (name, params) {
            ("polling", None) => Ok(ProgressModel::Polling),
            ("early-bird", None) => Ok(ProgressModel::EarlyBird),
            ("hw-tag", None) => Ok(ProgressModel::HwTag),
            ("async-rank", None) => Ok(ProgressModel::AsyncRank {
                poll_interval: Self::DEFAULT_POLL_INTERVAL,
            }),
            ("async-rank", Some(p)) => {
                let interval = p
                    .strip_prefix("interval=")
                    .and_then(|v| v.parse::<simcore::Duration>().ok())
                    .filter(|&v| v > 0)
                    .ok_or_else(|| {
                        format!(
                            "bad async-rank parameters {p:?} \
                             (expected interval=<ns>, ns > 0)"
                        )
                    })?;
                Ok(ProgressModel::AsyncRank {
                    poll_interval: interval,
                })
            }
            _ => Err(format!(
                "unknown progress model {spec:?} (expected polling, \
                 async-rank[:interval=<ns>], early-bird, or hw-tag)"
            )),
        }
    }
}

/// Long-message (rendezvous) protocol variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RndvMode {
    /// Open MPI's default on InfiniBand: RTS carries the first fragment,
    /// the receiver ACKs with a CTS naming its buffer, and the sender
    /// pipelines the remaining fragments as RDMA Writes. Only the initial
    /// fragment can overlap application computation — the rest are scheduled
    /// from inside the wait.
    PipelinedWrite,
    /// Open MPI with `mpi_leave_pinned` / MVAPICH2's zero-copy design: the
    /// RTS advertises the pinned send buffer and the receiver pulls it with
    /// one RDMA Read, notifying the sender on completion.
    DirectRead,
}

/// Tunables of the simulated MPI library.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Messages of at most this many bytes use the eager protocol.
    pub eager_threshold: usize,
    /// Rendezvous variant for longer messages.
    pub rndv_mode: RndvMode,
    /// Fragment size of the pipelined RDMA-Write scheme.
    pub fragment_size: usize,
    /// Capacity of the registration cache, in entries; 0 means no cache.
    /// The cache keeps registrations in an MRU list (`mpi_leave_pinned`
    /// behaviour): repeat transfers from the same-shaped buffers skip
    /// pinning costs.
    pub reg_cache_entries: usize,
    /// Reliability-layer retransmission timeout, ns. `None` derives a value
    /// from the fabric config (a few round trips at the eager threshold).
    /// Only consulted when the fabric has a non-empty fault plan.
    pub retrans_timeout: Option<simcore::Duration>,
    /// Retry budget per packet in the reliability layer. A packet that has
    /// been retransmitted this many times is abandoned, bounding
    /// retransmission livelock: a permanently lossy link eventually drains
    /// to quiescence (and surfaces as a simulated deadlock) instead of
    /// retransmitting forever.
    pub max_retries: u32,
    /// How outstanding communication progresses between library calls. All
    /// presets default to [`ProgressModel::Polling`] (the paper's era);
    /// `repro --progress <model>` overrides it per run.
    pub progress: ProgressModel,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig::open_mpi_pipelined()
    }
}

impl MpiConfig {
    /// Open MPI v1.0-like defaults: eager to 12 KiB, pipelined RDMA Writes
    /// in 128 KiB fragments, no registration cache.
    pub fn open_mpi_pipelined() -> Self {
        MpiConfig {
            eager_threshold: 12 * 1024,
            rndv_mode: RndvMode::PipelinedWrite,
            fragment_size: 128 * 1024,
            reg_cache_entries: 0,
            retrans_timeout: None,
            max_retries: 16,
            progress: ProgressModel::Polling,
        }
    }

    /// Open MPI with `mpi_leave_pinned=1`: direct RDMA with cached
    /// registrations.
    pub fn open_mpi_leave_pinned() -> Self {
        MpiConfig {
            rndv_mode: RndvMode::DirectRead,
            reg_cache_entries: 16,
            ..MpiConfig::open_mpi_pipelined()
        }
    }

    /// MVAPICH2 0.6-like: RDMA-Write eager into pre-registered buffers up to
    /// 12 KiB (the VBUF size of that era), zero-copy RDMA-Read rendezvous
    /// beyond.
    pub fn mvapich2() -> Self {
        MpiConfig {
            eager_threshold: 12 * 1024,
            rndv_mode: RndvMode::DirectRead,
            fragment_size: 128 * 1024,
            reg_cache_entries: 32,
            retrans_timeout: None,
            max_retries: 16,
            progress: ProgressModel::Polling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_mode() {
        assert_eq!(
            MpiConfig::open_mpi_pipelined().rndv_mode,
            RndvMode::PipelinedWrite
        );
        assert_eq!(
            MpiConfig::open_mpi_leave_pinned().rndv_mode,
            RndvMode::DirectRead
        );
        assert_eq!(MpiConfig::mvapich2().rndv_mode, RndvMode::DirectRead);
        assert_eq!(MpiConfig::mvapich2().eager_threshold, 12 * 1024);
    }

    #[test]
    fn presets_default_to_polling_progress() {
        for cfg in [
            MpiConfig::open_mpi_pipelined(),
            MpiConfig::open_mpi_leave_pinned(),
            MpiConfig::mvapich2(),
        ] {
            assert_eq!(cfg.progress, ProgressModel::Polling);
        }
    }

    #[test]
    fn progress_model_specs_parse() {
        assert_eq!(ProgressModel::parse("polling"), Ok(ProgressModel::Polling));
        assert_eq!(
            ProgressModel::parse("early-bird"),
            Ok(ProgressModel::EarlyBird)
        );
        assert_eq!(ProgressModel::parse("hw-tag"), Ok(ProgressModel::HwTag));
        assert_eq!(
            ProgressModel::parse("async-rank"),
            Ok(ProgressModel::AsyncRank {
                poll_interval: ProgressModel::DEFAULT_POLL_INTERVAL
            })
        );
        assert_eq!(
            ProgressModel::parse("async-rank:interval=2500"),
            Ok(ProgressModel::AsyncRank {
                poll_interval: 2_500
            })
        );
        for bad in [
            "",
            "pollling",
            "async-rank:interval=0",
            "async-rank:interval=x",
            "async-rank:window=5",
            "hw-tag:k=2",
        ] {
            assert!(ProgressModel::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn progress_model_labels_round_trip() {
        for spec in ["polling", "async-rank", "early-bird", "hw-tag"] {
            assert_eq!(ProgressModel::parse(spec).unwrap().label(), spec);
        }
    }
}
