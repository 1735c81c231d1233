//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes, ahead of time, how the fabric misbehaves:
//! random packet drops / duplications / extra delays (seeded, so runs are
//! bit-reproducible), transient per-link degradation windows, and NIC stall
//! intervals. The plan lives in [`crate::NetConfig`] and is applied by
//! [`crate::World`] at the packet-delivery point of two-sided sends — the
//! operations a software reliability layer must protect. One-sided RDMA
//! operations model hardware-reliable channels and are not perturbed.
//!
//! An empty plan (the default) draws no random numbers and takes no branch
//! that alters delivery, so fault-free runs are byte-identical to a build
//! without this module.

use simcore::Time;

/// A transient window during which one directed link is degraded: every
/// packet leaving `src` for `dst` with a DMA start inside `[from, until)`
/// arrives `extra_delay` ns later than the healthy cost model predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDegradation {
    /// Source node of the affected directed link.
    pub src: usize,
    /// Destination node of the affected directed link.
    pub dst: usize,
    /// Start of the degradation window (inclusive, virtual ns).
    pub from: Time,
    /// End of the degradation window (exclusive, virtual ns).
    pub until: Time,
    /// Extra one-way delay added while the window is active.
    pub extra_delay: u64,
}

/// A window during which one node's NIC stalls: packets that would arrive
/// inside `[from, until)` are held and delivered at `until` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct NicStall {
    /// The stalled node.
    pub node: usize,
    /// Start of the stall (inclusive, virtual ns).
    pub from: Time,
    /// End of the stall (exclusive, virtual ns); held packets land here.
    pub until: Time,
}

/// A seeded, declarative description of fabric misbehavior for one run.
///
/// Probabilities are evaluated per two-sided packet in posting order with a
/// splitmix64 stream seeded from `seed`, so a fixed plan yields a
/// bit-identical fault sequence on every run. [`FaultPlan::none`] (the
/// `Default`) is recognized by [`FaultPlan::is_empty`] and short-circuits
/// all fault logic.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-packet random draws.
    pub seed: u64,
    /// Probability that a packet is silently dropped in the fabric.
    pub drop_prob: f64,
    /// Probability that a packet is delivered twice.
    pub duplicate_prob: f64,
    /// Probability that a packet is delayed by a random extra amount.
    pub delay_prob: f64,
    /// Upper bound (inclusive) on the random extra delay, in ns.
    pub max_extra_delay: u64,
    /// Transient per-link degradation windows.
    pub degraded_links: Vec<LinkDegradation>,
    /// NIC stall intervals.
    pub nic_stalls: Vec<NicStall>,
    /// Width of the schedule-exploration jitter window, in ns. When nonzero
    /// *and* a schedule oracle is installed, the oracle may delay each
    /// two-sided packet's arrival by one of [`FaultPlan::jitter_steps`]
    /// discrete offsets in `[0, explore_jitter_ns]` — choice 0 (and every
    /// run without an oracle, e.g. under the canonical engine) adds nothing.
    pub explore_jitter_ns: u64,
    /// Number of discrete jitter offsets, including the zero offset.
    /// Values below 2 fall back to 4.
    pub explore_jitter_steps: u32,
}

impl FaultPlan {
    /// The empty plan: a perfectly healthy fabric.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_extra_delay: 0,
            degraded_links: Vec::new(),
            nic_stalls: Vec::new(),
            explore_jitter_ns: 0,
            explore_jitter_steps: 0,
        }
    }

    /// Uniform random loss at rate `p` on every two-sided packet.
    pub fn uniform_loss(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            drop_prob: p,
            ..FaultPlan::none()
        }
    }

    /// Does this plan inject any fault at all? Empty plans must take the
    /// exact fault-free code path in the world.
    pub fn is_empty(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.delay_prob == 0.0
            && self.degraded_links.is_empty()
            && self.nic_stalls.is_empty()
            && self.explore_jitter_ns == 0
    }

    /// Effective number of discrete jitter offsets the oracle chooses from
    /// (see [`FaultPlan::explore_jitter_ns`]).
    pub fn jitter_steps(&self) -> u32 {
        if self.explore_jitter_steps >= 2 {
            self.explore_jitter_steps
        } else {
            4
        }
    }

    /// The extra delay for jitter step `step` (step 0 is always 0 ns; the
    /// last step is the full window).
    pub fn jitter_delay(&self, step: u32) -> u64 {
        let steps = self.jitter_steps();
        (self.explore_jitter_ns * u64::from(step.min(steps - 1))) / u64::from(steps - 1)
    }

    /// Total extra delay the degradation windows add to a packet leaving
    /// `src` for `dst` at `when`.
    pub fn degradation_delay(&self, src: usize, dst: usize, when: Time) -> u64 {
        self.degraded_links
            .iter()
            .filter(|d| d.src == src && d.dst == dst && d.from <= when && when < d.until)
            .map(|d| d.extra_delay)
            .sum()
    }

    /// Earliest time a packet arriving at `node` at `when` can actually be
    /// delivered, given the NIC stall windows (`when` if no stall covers it).
    pub fn stall_release(&self, node: usize, when: Time) -> Time {
        self.nic_stalls
            .iter()
            .filter(|s| s.node == node && s.from <= when && when < s.until)
            .map(|s| s.until)
            .fold(when, Time::max)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// What the fault layer did to one packet. Recorded in the world's ground
/// truth so tests and harnesses can correlate observed anomalies (timeouts,
/// retransmissions, clamped bounds) with the injected cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The packet was silently dropped; the sender's completion still fires
    /// (the NIC saw the bytes leave).
    Dropped,
    /// A second copy of the packet was delivered after the first.
    Duplicated,
    /// Random extra delay added to the packet's arrival.
    Delayed {
        /// The extra delay, in ns.
        extra: u64,
    },
    /// A degradation window on the link added deterministic extra delay.
    LinkDegraded {
        /// The extra delay, in ns.
        extra: u64,
    },
    /// The destination NIC was stalled; delivery slipped to the window end.
    NicStalled {
        /// When the packet was actually delivered.
        released_at: Time,
    },
}

impl FaultKind {
    /// Stable lowercase tag for this fault kind (trace/export naming).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Dropped => "dropped",
            FaultKind::Duplicated => "duplicated",
            FaultKind::Delayed { .. } => "delayed",
            FaultKind::LinkDegraded { .. } => "link_degraded",
            FaultKind::NicStalled { .. } => "nic_stalled",
        }
    }
}

impl FaultEvent {
    /// One-line human-readable description of the affected packet and the
    /// fault parameters (used as the `detail` of trace fault markers).
    pub fn describe(&self) -> String {
        let extra = match self.kind {
            FaultKind::Delayed { extra } | FaultKind::LinkDegraded { extra } => {
                format!(" extra {extra} ns")
            }
            FaultKind::NicStalled { released_at } => format!(" released at {released_at} ns"),
            _ => String::new(),
        };
        format!("{} -> {} ty {}{extra}", self.src, self.dst, self.packet_ty)
    }
}

/// Ground-truth record of one fault-layer decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the posting that triggered the decision.
    pub at: Time,
    /// Source node of the affected packet.
    pub src: usize,
    /// Destination node of the affected packet.
    pub dst: usize,
    /// Library packet-type discriminator of the affected packet.
    pub packet_ty: u16,
    /// What happened.
    pub kind: FaultKind,
}

/// Deterministic splitmix64 stream for per-packet fault draws.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub(crate) fn new(seed: u64) -> Self {
        FaultRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        simcore::oracle::splitmix64(&mut self.state)
    }

    /// `true` with probability `p` (53 uniform mantissa bits).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Uniform draw from `0..=max`.
    pub(crate) fn below_inclusive(&mut self, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        self.next_u64() % (max + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::uniform_loss(1, 0.01).is_empty());
        // A plan with only a stall window still counts as faulty.
        let plan = FaultPlan {
            nic_stalls: vec![NicStall {
                node: 0,
                from: 0,
                until: 10,
            }],
            ..FaultPlan::none()
        };
        assert!(!plan.is_empty());
    }

    #[test]
    fn degradation_windows_filter_by_link_and_time() {
        let plan = FaultPlan {
            degraded_links: vec![LinkDegradation {
                src: 0,
                dst: 1,
                from: 100,
                until: 200,
                extra_delay: 50,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.degradation_delay(0, 1, 150), 50);
        assert_eq!(plan.degradation_delay(0, 1, 200), 0); // exclusive end
        assert_eq!(plan.degradation_delay(0, 1, 99), 0);
        assert_eq!(plan.degradation_delay(1, 0, 150), 0); // directed
    }

    #[test]
    fn stall_release_pushes_past_window() {
        let plan = FaultPlan {
            nic_stalls: vec![NicStall {
                node: 2,
                from: 1_000,
                until: 5_000,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.stall_release(2, 3_000), 5_000);
        assert_eq!(plan.stall_release(2, 5_000), 5_000); // exclusive end
        assert_eq!(plan.stall_release(1, 3_000), 3_000);
    }

    #[test]
    fn fault_rng_is_deterministic() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::new(7);
        let mut hits = 0;
        for _ in 0..10_000 {
            if c.chance(0.1) {
                hits += 1;
            }
        }
        // Loose sanity band around the expected 1000.
        assert!((700..1300).contains(&hits), "hits = {hits}");
        assert!(!FaultRng::new(0).chance(0.0));
        assert_eq!(FaultRng::new(0).below_inclusive(0), 0);
        let d = FaultRng::new(3).below_inclusive(10);
        assert!(d <= 10);
    }

    #[test]
    fn jitter_steps_and_delays() {
        let plan = FaultPlan {
            explore_jitter_ns: 900,
            explore_jitter_steps: 4,
            ..FaultPlan::none()
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.jitter_steps(), 4);
        assert_eq!(plan.jitter_delay(0), 0);
        assert_eq!(plan.jitter_delay(1), 300);
        assert_eq!(plan.jitter_delay(3), 900);
        assert_eq!(plan.jitter_delay(99), 900); // clamped
                                                // steps < 2 falls back to 4
        let p2 = FaultPlan {
            explore_jitter_ns: 300,
            ..FaultPlan::none()
        };
        assert_eq!(p2.jitter_steps(), 4);
        assert_eq!(p2.jitter_delay(3), 300);
    }
}
