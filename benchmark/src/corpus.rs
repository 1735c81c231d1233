//! `corpus(seed)`: the JSONL event streams the service workloads push.
//!
//! Stream *i* is a 16-rank (4x4) halo exchange plus one late-receiver pair,
//! run through `simmpi::run_mpi` with trace capture. `StdRng(seed * 8 + i)`
//! orders the iterations' message sizes ({1 KiB, 8 KiB, 64 KiB, 512 KiB}:
//! eager, eager, rendezvous, fragmented rendezvous, each equally often) and
//! draws each compute gap from 5-200 us. Even streams run on the flat fabric;
//! odd ones on `fat-tree:k=4` under a seeded plan that duplicates and delays
//! 0.5 % of packets each, so fault, ACK-wait and contention lines occur. Iteration counts are fixed so that
//! every stream is 23 k +- 10 % lines and the latency samples are
//! homogeneous.

use overlap_core::trace::{jsonl, ExtraEvent, TraceBundle};
use overlap_core::RecorderOpts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmpi::{run_mpi, MpiConfig, Src, TagSel};
use simnet::{FaultPlan, NetConfig, TopologySpec};

/// Streams in the full corpus (`--smoke` uses the first two).
pub const STREAMS: usize = 8;
/// Lines per live chunk: what the `--stream` tee sends per connection.
pub const CHUNK_LINES: usize = 2_000;
/// Halo iterations per message size, fixed once so that a stream is about
/// 23 k lines: under a fault plan the reliability layer waits on an ACK per
/// packet and records each wait, so a faulted stream needs fewer iterations
/// for the same line count.
const ROUNDS_FLAT: usize = 6;
const ROUNDS_FAULTED: usize = 5;
const SIDE: usize = 4;
const SIZES: [usize; 4] = [1 << 10, 8 << 10, 64 << 10, 512 << 10];

/// One piece of a stream as the live writer sends it: the schema header
/// restated, then up to [`CHUNK_LINES`] lines.
pub struct Chunk {
    pub text: String,
    /// Raw event lines in the chunk: what the server's `ok events=` must say.
    pub events: u64,
    /// Lines in the chunk, header excluded.
    pub lines: u64,
}

/// One generated stream and the batch artifacts the served ones must equal.
pub struct Stream {
    /// Session name the stream is pushed under.
    pub name: String,
    /// The whole stream, as `overlap_core::trace::jsonl` encodes it.
    pub text: String,
    /// Lines in `text`, header included.
    pub lines: u64,
    /// Raw event lines in `text`.
    pub events: u64,
    pub chunks: Vec<Chunk>,
    /// `<name>.attribution.json` built by the batch pipeline.
    pub batch_attribution: String,
    /// `<name>.critpath.folded` built by the batch pipeline.
    pub batch_collapsed: String,
}

fn is_event_line(line: &str) -> bool {
    // Derived lines are tagged xfer_bounds / wait / fault / header; the rest
    // are raw instrumentation events.
    ![
        "\"ev\":\"xfer_bounds\"",
        "\"ev\":\"wait\"",
        "\"ev\":\"fault\"",
        "\"ev\":\"header\"",
    ]
    .iter()
    .any(|tag| line.contains(tag))
}

fn chunks_of(text: &str) -> Vec<Chunk> {
    let mut lines = text.lines();
    let header = lines.next().expect("jsonl export starts with its header");
    let body: Vec<&str> = lines.collect();
    body.chunks(CHUNK_LINES)
        .map(|c| {
            let mut t = String::with_capacity(c.iter().map(|l| l.len() + 1).sum::<usize>() + 64);
            t.push_str(header);
            t.push('\n');
            for l in c {
                t.push_str(l);
                t.push('\n');
            }
            Chunk {
                text: t,
                events: c.iter().filter(|l| is_event_line(l)).count() as u64,
                lines: c.len() as u64,
            }
        })
        .collect()
}

/// Simulate stream `i` of `corpus(seed)` and return its captured bundle.
/// Panics if the simulation fails or its reports break an invariant: the
/// benchmark cannot measure a service on input the batch pipeline rejects.
pub fn bundle(seed: u64, i: usize) -> TraceBundle {
    let mut rng = StdRng::seed_from_u64(seed * 8 + i as u64);
    let faulted = i % 2 == 1;
    // Every size the same number of times, in a seeded order: the line count
    // depends on the sizes, so drawing them freely would make streams differ
    // by a third.
    let rounds = if faulted { ROUNDS_FAULTED } else { ROUNDS_FLAT };
    let mut sizes: Vec<usize> = SIZES.iter().flat_map(|&s| vec![s; rounds]).collect();
    for k in (1..sizes.len()).rev() {
        sizes.swap(k, rng.gen_range(0..k + 1));
    }
    let plan: Vec<(usize, u64)> = sizes
        .into_iter()
        .map(|bytes| (bytes, rng.gen_range(5_000u64..200_000)))
        .collect();
    let net = if !faulted {
        NetConfig::default()
    } else {
        NetConfig {
            topology: TopologySpec::FatTree { k: 4 },
            model_ingress_contention: true,
            faults: FaultPlan {
                seed: seed * 8 + i as u64,
                duplicate_prob: 0.005,
                delay_prob: 0.005,
                max_extra_delay: 20_000,
                ..FaultPlan::none()
            },
            ..NetConfig::default()
        }
    };
    // No drops, and a retransmission timeout no delay can reach: at this
    // commit a rank that retransmits to several peers in one poll walks them
    // in `HashMap` order (`simmpi::reliability::check_timeouts`), so a run
    // with retransmissions does not repeat and could not be a seeded input.
    let mpi_cfg = MpiConfig {
        retrans_timeout: Some(50_000_000),
        ..MpiConfig::default()
    };
    let rec = RecorderOpts {
        trace: true,
        ..Default::default()
    };
    let out = run_mpi(SIDE * SIDE, net, mpi_cfg, rec, move |mpi| {
        let me = mpi.rank();
        let (x, y) = (me % SIDE, me / SIDE);
        let at = |x: usize, y: usize| (y % SIDE) * SIDE + (x % SIDE);
        let neighbors = [
            at(x + 1, y),
            at(x + SIDE - 1, y),
            at(x, y + 1),
            at(x, y + SIDE - 1),
        ];
        for (it, &(bytes, gap)) in plan.iter().enumerate() {
            let tag = it as u64;
            let msg = vec![1u8; bytes];
            let recvs: Vec<_> = neighbors
                .iter()
                .map(|&nb| mpi.irecv(Src::Rank(nb), TagSel::Is(tag)))
                .collect();
            let sends: Vec<_> = neighbors
                .iter()
                .map(|&nb| mpi.isend(nb, tag, &msg))
                .collect();
            mpi.compute(gap);
            mpi.waitall(&sends);
            mpi.waitall(&recvs);
            // The late-receiver pair: rank 5 computes on before it posts.
            let late = 1_000 + tag;
            if me == 0 {
                mpi.send(5, late, &msg);
            } else if me == 5 {
                mpi.compute(2 * gap);
                mpi.recv(Src::Rank(0), TagSel::Is(late));
            }
        }
    })
    .unwrap_or_else(|e| panic!("corpus stream {i}: {}", e.one_line()));
    let violations = overlap_core::check_reports(&out.reports);
    assert!(
        violations.is_empty(),
        "corpus stream {i}: {} report invariant violation(s), first: {}",
        violations.len(),
        violations[0]
    );
    TraceBundle {
        scope: format!("corpus/s{i}"),
        ranks: out.traces,
        extras: out
            .faults
            .iter()
            .map(|f| ExtraEvent {
                t: f.at,
                name: format!("fault.{}", f.kind.label()),
                detail: f.describe(),
            })
            .collect(),
    }
}

/// Encode a bundle as the stream pushed under session `name`, with the
/// batch artifacts of the same bundle.
pub fn stream_of(name: String, bundle: &TraceBundle) -> Stream {
    let text = jsonl(std::slice::from_ref(bundle));
    let scoped = [(bundle.scope.clone(), bundle)];
    let artifact = bench::critpath::attribution_artifact(&name, &scoped);
    Stream {
        lines: text.lines().count() as u64,
        events: bundle.ranks.iter().map(|r| r.events.len() as u64).sum(),
        chunks: chunks_of(&text),
        batch_attribution: serde_json::to_string_pretty(&artifact)
            .expect("attribution artifact serializes"),
        batch_collapsed: bench::critpath::collapsed(&scoped),
        name,
        text,
    }
}

/// The first `n` streams of `corpus(seed)`.
pub fn corpus(seed: u64, n: usize) -> Vec<Stream> {
    (0..n)
        .map(|i| stream_of(format!("s{i}"), &bundle(seed, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_sizes_in_band() {
        let a = corpus(3, 2);
        let b = corpus(3, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
            assert!(
                (20_700..=25_300).contains(&x.lines),
                "stream {} has {} lines",
                x.name,
                x.lines
            );
            let chunk_events: u64 = x.chunks.iter().map(|c| c.events).sum();
            assert_eq!(chunk_events, x.events);
            let chunk_lines: u64 = x.chunks.iter().map(|c| c.lines).sum();
            assert_eq!(chunk_lines + 1, x.lines);
        }
        assert_ne!(a[0].text, corpus(4, 1)[0].text);
        // The odd stream runs under the fault plan: fault lines must occur.
        assert!(a[1].text.contains("\"ev\":\"fault\""));
    }
}
