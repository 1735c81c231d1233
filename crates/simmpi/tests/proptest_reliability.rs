//! Property tests for the reliability layer: under *random* seeded fault
//! plans (loss, duplication, and delay each up to 10%), every payload must
//! arrive intact and every overlap report must keep its clamped-bound
//! invariant (`min <= max <= wall`) instead of panicking.

use proptest::prelude::*;

use overlap_core::RecorderOpts;
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::{FaultPlan, NetConfig};

fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn payload(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (rank.wrapping_mul(31) ^ round.wrapping_mul(17) ^ i) as u8)
        .collect()
}

/// Probabilities are drawn as integer percentage points (0..=10) so the
/// vendored proptest's integer-range strategies can generate them.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1_000_000, 0u64..11, 0u64..11, 0u64..11).prop_map(|(seed, drop, dup, delay)| FaultPlan {
        seed,
        drop_prob: drop as f64 / 100.0,
        duplicate_prob: dup as f64 / 100.0,
        delay_prob: delay as f64 / 100.0,
        max_extra_delay: 15_000,
        ..FaultPlan::none()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_fault_plans_preserve_delivery(plan in arb_plan()) {
        // Small-but-mixed sizes: eager, threshold-straddling, rendezvous.
        let sizes: &'static [usize] = &[1, 2 << 10, 12 << 10, 96 << 10];
        let net = NetConfig { faults: plan, ..NetConfig::default() };
        let out = run_mpi(
            3,
            net,
            MpiConfig::default(),
            RecorderOpts::default(),
            move |mpi| {
                let me = mpi.rank();
                let n = mpi.nranks();
                let dst = (me + 1) % n;
                let src = (me + n - 1) % n;
                for (round, &len) in sizes.iter().enumerate() {
                    let data = payload(me, round, len);
                    let want = checksum(&payload(src, round, len));
                    let sr = mpi.isend(dst, round as u64, &data);
                    let st = mpi.recv(Src::Rank(src), TagSel::Is(round as u64));
                    let got = st.data.unwrap();
                    // Plain asserts: a failure panics the rank, which
                    // surfaces as a run error (prop_assert can't cross the
                    // closure boundary).
                    assert_eq!(got.len(), len, "length corrupted under faults");
                    assert_eq!(checksum(&got), want, "payload corrupted under faults");
                    mpi.wait(sr);
                }
            },
        );
        let out = out.expect("run completes under random fault plan");
        // Clamped-bound invariant: graceful degradation must never produce
        // an impossible bound, whatever the fault plan did to the stream.
        for r in &out.reports {
            prop_assert!(r.total.min_overlap <= r.total.max_overlap);
            for b in &r.by_bin {
                prop_assert!(b.min_overlap <= b.max_overlap);
            }
        }
    }
}
