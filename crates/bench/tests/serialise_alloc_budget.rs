//! Allocation budget of the served read path.
//!
//! `/report`, `/waits`, `/attribution.json` and `/critpath.folded` print what
//! a `SessionFold` builds. Building each allocates in proportion to its
//! output, not to the transfers or waits folded: the attribution walk keeps a
//! cause breakdown in a fixed array, the collapsed stacks aggregate by key and
//! format a line once, and the report and wait states consume the walk
//! without collecting it. `Serialize` writes its text member by member, so
//! printing an attribution artifact allocates only as the output string
//! grows. A per-record, per-wait or per-slice allocation costs thousands of
//! calls here; this test keeps all of them out, independently of the
//! (frozen) `benchmark/` ledger. On the way in, decoding a stream line that
//! has no escape and no name not seen before allocates nothing.
//!
//! One `#[test]` only: the counters are process-wide, and tests of one binary
//! run concurrently.

use overlap_core::stream::parse_line;
use overlap_core::trace::{jsonl, TraceBundle};
use overlap_core::{
    Clock, ManualClock, Recorder, RecorderOpts, SessionFold, WaitCause, XferTimeTable,
};

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

const RANKS: usize = 2;

/// The exported stream of one scope where each of `RANKS` ranks runs
/// `xfers` isend/compute/wait cycles over every size bin, each wait split
/// between a late receiver pinned on the transfer and an unpinned sync, so
/// every transfer leaves a record with several cause slices.
fn stream(xfers: u64) -> String {
    let mut bundle = TraceBundle {
        scope: "budget".into(),
        ranks: Vec::new(),
        extras: Vec::new(),
    };
    for rank in 0..RANKS {
        let clock = ManualClock::new();
        let mut rec = Recorder::new(
            rank,
            Box::new(clock.clone()),
            XferTimeTable::sample(1, 8 << 20, |b| 2_000 + b / 4),
            RecorderOpts {
                trace: true,
                ..RecorderOpts::default()
            },
        );
        for id in 0..xfers {
            let bytes = 512 << (id % 7);
            rec.call_enter("MPI_Isend");
            rec.xfer_begin(id, bytes);
            clock.advance(10);
            rec.call_exit();
            clock.advance(300);
            rec.call_enter("MPI_Wait");
            let t = clock.now();
            clock.advance(5_000);
            rec.wait_state(t, t + 3_000, WaitCause::LateReceiver, Some(id));
            rec.wait_state(t + 3_000, t + 4_000, WaitCause::Sync, None);
            rec.xfer_end(id, bytes);
            rec.call_exit();
        }
        let (_, trace) = rec.finish_traced();
        bundle.ranks.push(trace.expect("recorder was traced"));
    }
    jsonl(&[bundle])
}

/// Allocator calls `f` makes.
fn calls(f: impl FnOnce()) -> u64 {
    let a0 = bench::alloc::snapshot();
    f();
    bench::alloc::region(a0, bench::alloc::snapshot()).0
}

/// At most this many allocator calls per built artifact, whatever the size.
const CEILING: u64 = 300;
/// At 4× the transfers, at most this many calls more than at 1×.
const GROWTH: u64 = 16;

#[test]
fn served_artifacts_stay_inside_their_allocation_budget() {
    // Allocator calls at 1 000 and at 4 000 transfers, per artifact.
    let mut counts: Vec<(&str, [u64; 2])> =
        ["collapsed()", "attribution()", "wait_states()", "report()"]
            .into_iter()
            .map(|name| (name, [0; 2]))
            .collect();
    for (at, per_rank) in [500, 2_000].into_iter().enumerate() {
        let transfers = per_rank * RANKS as u64;
        let text = stream(per_rank);
        let mut fold = SessionFold::default();
        fold.push_text(&text).expect("stream folds");
        // Every name is pooled by now, and no line has an escape.
        let decoded = calls(|| {
            for line in text.lines() {
                std::hint::black_box(parse_line(line).expect("line decodes"));
            }
        });
        assert_eq!(
            decoded, 0,
            "decoding {transfers} transfers' lines made {decoded} allocator calls"
        );

        counts[0].1[at] = calls(|| drop(std::hint::black_box(fold.collapsed())));
        counts[1].1[at] = calls(|| drop(std::hint::black_box(fold.attribution("budget"))));
        counts[2].1[at] = calls(|| drop(std::hint::black_box(fold.wait_states())));
        counts[3].1[at] = calls(|| drop(std::hint::black_box(fold.report())));

        let artifact = fold.attribution("budget");
        let printed = calls(|| {
            let text = serde_json::to_string_pretty(&artifact).expect("artifact serializes");
            std::hint::black_box(text);
        });
        assert!(
            printed <= 64,
            "{transfers} transfers: printing the attribution artifact made {printed} \
             allocator calls (budget 64, output growth only) — a tree is back"
        );
    }
    for (name, [small, large]) in counts {
        assert!(
            large <= small + GROWTH && large <= CEILING,
            "{name} made {small} allocator calls at 1 000 transfers and {large} at 4 000 \
             (budget: at most {GROWTH} more, never above {CEILING}) — a per-transfer or \
             per-wait allocation is back"
        );
    }
}
