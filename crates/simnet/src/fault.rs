//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes, ahead of time, how the fabric misbehaves:
//! random packet drops / duplications / extra delays (seeded, so runs are
//! bit-reproducible) and an oracle-chosen jitter window for schedule
//! exploration. The plan lives in [`crate::NetConfig`] and is applied by
//! [`crate::World`] at the packet-delivery point of two-sided sends — the
//! operations a software reliability layer must protect. One-sided RDMA
//! operations model hardware-reliable channels and are not perturbed.
//!
//! An empty plan (the default) draws no random numbers and takes no branch
//! that alters delivery, so fault-free runs are byte-identical to a build
//! without this module.

use simcore::Time;

/// Number of discrete offsets in the schedule-exploration jitter window
/// ([`FaultPlan::explore_jitter_ns`]), the zero offset included.
pub(crate) const JITTER_STEPS: u32 = 3;

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
    /// Width of the schedule-exploration jitter window, in ns. When nonzero
    /// *and* a schedule oracle is installed, the oracle may delay each
    /// two-sided packet's arrival by one of three evenly spaced offsets in
    /// `[0, explore_jitter_ns]` — choice 0 (and every run without an
    /// oracle, e.g. under the canonical engine) adds nothing.
    pub explore_jitter_ns: u64,
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
            explore_jitter_ns: 0,
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
            && self.explore_jitter_ns == 0
    }

    /// The extra delay for jitter step `step` (step 0 is always 0 ns; the
    /// last step is the full window).
    pub(crate) fn jitter_delay(&self, step: u32) -> u64 {
        let last = JITTER_STEPS - 1;
        (self.explore_jitter_ns * u64::from(step.min(last))) / u64::from(last)
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
}

impl FaultKind {
    /// Stable lowercase tag for this fault kind (trace/export naming).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Dropped => "dropped",
            FaultKind::Duplicated => "duplicated",
            FaultKind::Delayed { .. } => "delayed",
        }
    }
}

impl FaultEvent {
    /// One-line human-readable description of the affected packet and the
    /// fault parameters (used as the `detail` of trace fault markers).
    pub fn describe(&self) -> String {
        let extra = match self.kind {
            FaultKind::Delayed { extra } => format!(" extra {extra} ns"),
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
    pub(crate) src: usize,
    /// Destination node of the affected packet.
    pub(crate) dst: usize,
    /// Library packet-type discriminator of the affected packet.
    pub(crate) packet_ty: u16,
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

    /// Uniform draw from `0..=max` (`u64::MAX` is the full range).
    pub(crate) fn below_inclusive(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(1) => 0,
            Some(span) => self.next_u64() % span,
            None => self.next_u64(),
        }
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
    fn full_range_delay_draw_does_not_overflow() {
        let raw = FaultRng::new(5).next_u64();
        assert_eq!(FaultRng::new(5).below_inclusive(u64::MAX), raw);
    }

    #[test]
    fn jitter_steps_and_delays() {
        let plan = FaultPlan {
            explore_jitter_ns: 900,
            ..FaultPlan::none()
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.jitter_delay(0), 0);
        assert_eq!(plan.jitter_delay(1), 450);
        assert_eq!(plan.jitter_delay(2), 900);
        assert_eq!(plan.jitter_delay(99), 900); // clamped
    }
}
