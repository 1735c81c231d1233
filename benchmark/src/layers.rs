//! Per-layer rows: each times calls into one crate's public functions, in
//! isolation, on a deterministic input, and names the end-to-end metric and
//! workload it should move. Every simulator row should move nothing on
//! `serve-*`; every `overlapd`/`stream` row nothing on `suite`/`halo4k`.
//!
//! A row is repeated (one untimed warm-up call, then 7 timed; 3 under the
//! driver, whose runs are short) and reported as median and quartiles.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::time::Instant;

use nasbench::runner::{run_benchmark, NasBenchmark};
use nasbench::Class;
use overlap_core::processor::Processor;
use overlap_core::stream::{parse_line, SessionFold};
use overlap_core::trace::{chrome_json, default_window_width, jsonl, windowed, TraceBundle};
use overlap_core::{ManualClock, Recorder, RecorderOpts, SizeBins, XferTimeTable};
use overlapd::push_text;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::sched::TimingWheel;
use simcore::{SimOpts, Simulation};
use simmpi::{run_mpi, MpiConfig, ProgressModel, ReduceOp, Src, TagSel};
use simnet::{Cluster, FaultPlan, NetConfig, Packet, RegionId, TopologySpec};

use crate::alloc;
use crate::corpus::{self, Stream};
use crate::host;
use crate::record::{LayerRow, LayersRecord, SCHEMA};
use crate::stats::{median, quartiles};
use crate::workloads::{http, registry, Running};

/// Which rows to run and how often.
#[derive(Clone, Copy)]
pub enum Scope {
    /// `layers`: every row, 7 repeats, plus one row per harness.
    Full,
    /// The driver's `--trace 1` run: the rows `BENCHMARK.json` lists (no
    /// per-harness rows), 3 repeats, so the run ends within its budget.
    Driver {
        /// `--seconds`; the rows stop repeating past it.
        seconds: f64,
    },
}

/// One row of the table: its unit and the end-to-end metric and workload it
/// should move. The table is the layer -> end-to-end map; `BENCHMARK.json`
/// lists exactly these rows as its `per_layer` metrics.
pub struct RowDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> RowDef {
    RowDef { name, unit, moves }
}

const SUITE: &str = "wall_s on suite";
const HALO: &str = "wall_s on halo4k";
const BOTH: &str = "wall_s on suite and halo4k";
const ABLATION: &str = "wall_s on suite (ablation rows only)";
const FIG19: &str = "wall_s on suite (fig19)";
const EXPORT: &str = "export_mb_per_s, wall_s on export; setup_s on serve-*";
const INGEST: &str = "ingest_lines_per_s, wall_s, peak_rss_mb on serve-bulk";
const READS: &str = "push_to_report_ms_* on serve-bulk, read_ms_* on serve-live";
const PUSH: &str = "push_ms_*, wall_s on serve-live";

pub const ROWS: [RowDef; 59] = [
    def("simcore.sched.hold64_ns", "ns", SUITE),
    def("simcore.sched.hold64k_ns", "ns", HALO),
    def("simcore.engine.event_ns", "ns", BOTH),
    def("simcore.engine.events", "count", BOTH),
    def("simcore.fiber.switch_ns", "ns", BOTH),
    def("simcore.fiber.spawn_us", "us", "wall_s, peak_rss_mb on halo4k"),
    def("simnet.topology.route_ns.flat", "ns", SUITE),
    def("simnet.topology.route_ns.fat-tree", "ns", HALO),
    def("simnet.topology.route_ns.dragonfly", "ns", ABLATION),
    def("simnet.world.send_ns.flat", "ns", SUITE),
    def("simnet.world.xfers", "count", SUITE),
    def("simnet.world.send_ns.fat-tree", "ns", HALO),
    def("simnet.world.rdma_read_ns.flat", "ns", SUITE),
    def("simmpi.pt2pt.eager_ns", "ns", SUITE),
    def("simmpi.pt2pt.pipelined_ns", "ns", SUITE),
    def("simmpi.pt2pt.direct_ns", "ns", SUITE),
    def("simmpi.pt2pt.large_mb_per_s", "MB/s", "alloc_gb, wall_s on suite"),
    def("simmpi.match.depth256_ns", "ns", BOTH),
    def("simmpi.coll.allreduce16_ns", "ns", SUITE),
    def("simmpi.progress.async-rank_ns", "ns", ABLATION),
    def("simmpi.progress.early-bird_ns", "ns", ABLATION),
    def("simmpi.progress.hw-tag_ns", "ns", ABLATION),
    def("simmpi.reliability.faulted_ns", "ns", ABLATION),
    def("simarmci.put_nb_ns", "ns", FIG19),
    def("simarmci.get_ns", "ns", FIG19),
    def("nasbench.bt_ms", "ms", SUITE),
    def("nasbench.cg_ms", "ms", SUITE),
    def("nasbench.lu_ms", "ms", SUITE),
    def("nasbench.ft_ms", "ms", SUITE),
    def("nasbench.sp_ms", "ms", SUITE),
    def("nasbench.mg_ms", "ms", SUITE),
    def("overlap-core.recorder.msg_ns", "ns", BOTH),
    def("overlap-core.recorder.msg_traced_ns", "ns", "wall_s on export"),
    def("overlap-core.recorder.finish_traced_ms", "ms", "wall_s on export; setup_s on serve-*"),
    def("overlap-core.recorder.overhead_pct", "%", BOTH),
    def("overlap-core.recorder.trace_overhead_pct", "%", "wall_s on export"),
    def("overlap-core.processor.event_ns", "ns", "wall_s on suite, halo4k, export"),
    def("overlap-core.trace.jsonl_ns_per_line", "ns", EXPORT),
    def("overlap-core.trace.chrome_ns_per_event", "ns", EXPORT),
    def("overlap-core.trace.windowed_ns_per_event", "ns", EXPORT),
    def("overlap-core.attribution.build_ms", "ms", EXPORT),
    def("overlap-core.artifact.collapsed_ms", "ms", EXPORT),
    def("overlap-core.stream.parse_ns_per_line", "ns", INGEST),
    def("overlap-core.stream.push_ns_per_line", "ns", INGEST),
    def("overlap-core.stream.allocs_per_line", "count", "alloc_calls on serve-bulk"),
    def("overlap-core.stream.retained_bytes_per_line", "B", "peak_rss_mb on serve-bulk"),
    def("overlap-core.stream.report_ms", "ms", READS),
    def("overlap-core.stream.series_ms", "ms", READS),
    def("overlapd.client.push_overhead_ns_per_line", "ns", PUSH),
    def("overlapd.server.conn_setup_us", "us", PUSH),
    def("overlapd.http.healthz_us", "us", READS),
    def("overlapd.http.report_ms", "ms", READS),
    def("overlapd.http.series_ms", "ms", READS),
    def("overlapd.http.attribution_ms", "ms", "wall_s on serve-bulk"),
    def("overlapd.http.critpath_ms", "ms", "wall_s on serve-bulk"),
    def("overlapd.http.fleet_ms", "ms", "read_ms_* on serve-live"),
    def("overlapd.http.upload_ns_per_line", "ns", "the POST transport; no workload uses it"),
    def(
        "overlapd.reconcile_pct",
        "%",
        "must stay <= 15: |push to a fold-free sink + push_text + report build + HTTP round trip - one push-to-report cycle|",
    ),
    // One row per harness, `bench.harness_ms.<id>`, in `layers` only.
    def("bench.harness_ms", "ms", "wall_s on suite (halo-4k: on halo4k)"),
];

struct Rows {
    repeats: usize,
    deadline: Option<(Instant, f64)>,
    rows: Vec<LayerRow>,
}

impl Rows {
    /// Time `f` (one reading per call, in the row's unit) and record the row.
    fn row(&mut self, name: &str, mut f: impl FnMut() -> f64) -> f64 {
        let _warm_up = f();
        let mut samples = Vec::with_capacity(self.repeats);
        for _ in 0..self.repeats {
            samples.push(f());
            // Past the driver's budget one reading per row has to do.
            if matches!(self.deadline, Some((t0, s)) if t0.elapsed().as_secs_f64() > s) {
                break;
            }
        }
        self.push(name, &samples)
    }

    /// Record a row from readings taken while another row was timed.
    fn push(&mut self, name: &str, samples: &[f64]) -> f64 {
        // A harness row is `bench.harness_ms.<id>`; every other name is in
        // the table as it stands.
        let d = ROWS
            .iter()
            .find(|d| {
                name == d.name
                    || name
                        .strip_prefix(d.name)
                        .is_some_and(|r| r.starts_with('.'))
            })
            .unwrap_or_else(|| panic!("row {name} is in the table"));
        let (q1, q3) = quartiles(samples);
        let value = median(samples);
        // Printed as it is measured: a full run takes a minute.
        println!(
            "{name} {value} {}  # n={} q1={q1} q3={q3} -> {}",
            d.unit,
            samples.len(),
            d.moves
        );
        self.rows.push(LayerRow {
            name: name.to_string(),
            unit: d.unit.to_string(),
            value,
            q1,
            q3,
            n: samples.len() as u64,
            moves: d.moves.to_string(),
        });
        value
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- simcore

/// `TimingWheel` pop+push hold model with `outstanding` entries pending.
fn wheel_hold_ns(outstanding: usize) -> f64 {
    const EVENTS: u64 = 400_000;
    const SPREAD: u64 = 10_000;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut wheel = TimingWheel::new();
    let mut seq = 0u64;
    for _ in 0..outstanding {
        wheel.push(rng.gen_range(0..SPREAD), seq, ());
        seq += 1;
    }
    let s = secs(|| {
        for _ in 0..EVENTS {
            let (t, ..) = wheel.pop().expect("hold population never empties");
            wheel.push(t + 1 + rng.gen_range(0..SPREAD), seq, ());
            seq += 1;
        }
    });
    std::hint::black_box(wheel.len());
    s * 1e9 / EVENTS as f64
}

/// `Simulation::run`: 4 ranks x 250 k `compute(5)` beside a token chain.
/// Returns (ns per processed event, events processed).
fn engine_run() -> (f64, f64) {
    const STEPS: u64 = 250_000;
    let sim = Simulation::new(4);
    let handle = sim.handle();
    handle.set_token_handler(move |h, tok| {
        if tok > 0 {
            h.schedule_token(h.now() + 7, tok - 1);
        }
    });
    handle.schedule_token(1, STEPS);
    let t0 = Instant::now();
    let out = sim
        .run(SimOpts::default(), move |ctx| {
            for _ in 0..STEPS {
                ctx.compute(5);
            }
        })
        .expect("engine row completes");
    let events = out.events_processed as f64;
    (t0.elapsed().as_secs_f64() * 1e9 / events, events)
}

/// Two ranks handing control back and forth with `park`/`wake_rank`.
fn fiber_switch_ns() -> f64 {
    const ROUNDS: u64 = 100_000;
    let sim = Simulation::new(2);
    let s = secs(|| {
        sim.run(SimOpts::default(), |ctx| {
            let h = ctx.handle();
            for _ in 0..ROUNDS {
                if ctx.rank() == 0 {
                    // Rank 1 parks at time 0; by the time this wake is
                    // processed it is parked, so no wake is lost.
                    ctx.compute(1);
                    h.wake_rank(1);
                    ctx.park();
                } else {
                    ctx.park();
                    h.wake_rank(0);
                }
            }
        })
        .expect("fiber row completes");
    });
    s * 1e9 / (2 * ROUNDS) as f64
}

/// `Simulation::new(4096)` and a run of empty bodies, us per rank.
fn fiber_spawn_us() -> f64 {
    const RANKS: usize = 4096;
    let s = secs(|| {
        Simulation::new(RANKS)
            .run(SimOpts::default(), |_ctx| {})
            .expect("spawn row completes");
    });
    s * 1e6 / RANKS as f64
}

// ----------------------------------------------------------------- simnet

/// `route_into` over 1 M seeded pairs on `spec` fitted to 4096 hosts.
fn route_ns(spec: TopologySpec) -> f64 {
    const PAIRS: usize = 1_000_000;
    const HOSTS: usize = 4096;
    let cfg = NetConfig::default();
    let topo = spec.fitted(HOSTS).build(
        cfg.wire_latency,
        cfg.switch_radix,
        cfg.inter_switch_extra,
        cfg.hop_latency,
    );
    let mut rng = StdRng::seed_from_u64(0x70b0);
    let mut route = Vec::new();
    let mut hops = 0usize;
    let s = secs(|| {
        for _ in 0..PAIRS {
            let src = rng.gen_range(0..HOSTS);
            let dst = (src + rng.gen_range(1..HOSTS)) % HOSTS;
            topo.route_into(src, dst, 0, &mut route);
            hops += route.len();
        }
    });
    std::hint::black_box(hops);
    s * 1e9 / PAIRS as f64
}

const RAW_RANKS: usize = 16;
const RAW_OPS: u64 = 2_000;

fn raw_net(spec: TopologySpec) -> NetConfig {
    NetConfig {
        topology: spec,
        model_ingress_contention: true,
        ..NetConfig::default()
    }
}

/// Raw `post_send` + `poll_cq`: every rank sends 4 KiB packets across the
/// fabric, one in flight. Returns (host ns per completed transfer, transfers).
fn world_send(spec: TopologySpec) -> (f64, f64) {
    let cluster = Cluster::new(RAW_RANKS, raw_net(spec));
    let payload = bytes::Bytes::from(vec![7u8; 4096]);
    let t0 = Instant::now();
    let out = cluster
        .run(SimOpts::default(), move |ctx, world| {
            let me = ctx.rank();
            let dst = (me + RAW_RANKS / 2) % RAW_RANKS;
            for i in 0..RAW_OPS {
                {
                    let mut w = world.lock();
                    let x = w.alloc_xfer_id();
                    let p =
                        Packet::with_data(me, 4096 + 64, 1, [i, 0, 0, 0, 0, 0], payload.clone());
                    w.post_send(me, dst, p, i, Some(x));
                }
                loop {
                    let mut w = world.lock();
                    while w.poll_rx(me).is_some() {}
                    if w.poll_cq(me).is_some() {
                        break;
                    }
                    drop(w);
                    ctx.park();
                }
            }
        })
        .expect("raw send row completes");
    let xfers = out.transfers.len() as f64;
    (t0.elapsed().as_secs_f64() * 1e9 / xfers, xfers)
}

/// Raw `post_rdma_read` + `poll_cq` on the flat fabric, host ns per read.
fn world_rdma_read_ns() -> f64 {
    let cluster = Cluster::new(RAW_RANKS, raw_net(TopologySpec::Flat));
    let regions: Vec<RegionId> = {
        let world = cluster.world();
        let mut w = world.lock();
        (0..RAW_RANKS)
            .map(|node| w.register(node, vec![3u8; 64 << 10]))
            .collect()
    };
    let t0 = Instant::now();
    let out = cluster
        .run(SimOpts::default(), move |ctx, world| {
            let me = ctx.rank();
            let target = (me + RAW_RANKS / 2) % RAW_RANKS;
            for i in 0..RAW_OPS {
                {
                    let mut w = world.lock();
                    let x = w.alloc_xfer_id();
                    w.post_rdma_read(me, target, regions[target], 0, 4096, i, None, Some(x));
                }
                loop {
                    if world.lock().poll_cq(me).is_some() {
                        break;
                    }
                    ctx.park();
                }
            }
        })
        .expect("raw read row completes");
    t0.elapsed().as_secs_f64() * 1e9 / out.transfers.len() as f64
}

// ----------------------------------------------------------------- simmpi

fn quiet() -> RecorderOpts {
    RecorderOpts {
        enabled: false,
        ..Default::default()
    }
}

/// 2-rank Isend/Irecv/Waitall ping-pong of `bytes`, `rounds` each way;
/// host seconds for the whole run.
fn pingpong_secs(
    net: NetConfig,
    cfg: MpiConfig,
    rec: RecorderOpts,
    bytes: usize,
    rounds: u64,
) -> f64 {
    secs(|| {
        run_mpi(2, net, cfg, rec, move |mpi| {
            let msg = vec![0x5Au8; bytes];
            let peer = 1 - mpi.rank();
            for i in 0..rounds {
                let r = mpi.irecv(Src::Rank(peer), TagSel::Is(i));
                let s = mpi.isend(peer, i, &msg);
                mpi.waitall(&[s, r]);
            }
        })
        .unwrap_or_else(|e| panic!("ping-pong row: {}", e.one_line()));
    })
}

const EAGER_BYTES: usize = 1 << 10;
const EAGER_ROUNDS: u64 = 2_000;
const RNDV_BYTES: usize = 256 << 10;
const RNDV_ROUNDS: u64 = 200;

/// Host ns per message of the eager ping-pong under `cfg` on `net`.
fn eager_ns(net: NetConfig, cfg: MpiConfig) -> f64 {
    pingpong_secs(net, cfg, quiet(), EAGER_BYTES, EAGER_ROUNDS) * 1e9 / (2 * EAGER_ROUNDS) as f64
}

fn rndv_ns(cfg: MpiConfig) -> f64 {
    pingpong_secs(NetConfig::default(), cfg, quiet(), RNDV_BYTES, RNDV_ROUNDS) * 1e9
        / (2 * RNDV_ROUNDS) as f64
}

/// 4 MB messages: simulated payload MB moved per host second.
fn large_mb_per_s() -> f64 {
    const BYTES: usize = 4 << 20;
    const ROUNDS: u64 = 8;
    let s = pingpong_secs(
        NetConfig::default(),
        MpiConfig::default(),
        quiet(),
        BYTES,
        ROUNDS,
    );
    (2 * ROUNDS) as f64 * BYTES as f64 / 1e6 / s
}

/// 256 unexpected eager messages matched in reverse tag order.
fn match_depth256_ns() -> f64 {
    const DEPTH: u64 = 256;
    const ROUNDS: u64 = 20;
    let s = secs(|| {
        run_mpi(
            2,
            NetConfig::default(),
            MpiConfig::default(),
            quiet(),
            |mpi| {
                let msg = [1u8; 64];
                for round in 0..ROUNDS {
                    let base = round * DEPTH;
                    if mpi.rank() == 0 {
                        for t in 0..DEPTH {
                            mpi.send(1, base + t, &msg);
                        }
                        mpi.barrier();
                    } else {
                        // The barrier drains every arrival into the unexpected
                        // queue before the first receive is posted.
                        mpi.barrier();
                        for t in (0..DEPTH).rev() {
                            mpi.recv(Src::Rank(0), TagSel::Is(base + t));
                        }
                    }
                }
            },
        )
        .unwrap_or_else(|e| panic!("match row: {}", e.one_line()));
    });
    s * 1e9 / (DEPTH * ROUNDS) as f64
}

fn allreduce16_ns() -> f64 {
    const ROUNDS: u64 = 300;
    let s = secs(|| {
        run_mpi(
            16,
            NetConfig::default(),
            MpiConfig::default(),
            quiet(),
            |mpi| {
                let v = [mpi.rank() as f64; 8];
                for _ in 0..ROUNDS {
                    std::hint::black_box(mpi.allreduce(&v, ReduceOp::Sum));
                }
            },
        )
        .unwrap_or_else(|e| panic!("allreduce row: {}", e.one_line()));
    });
    s * 1e9 / ROUNDS as f64
}

// --------------------------------------------------------------- simarmci

/// `(nb_put + wait, get)` host ns per 4 KiB operation.
fn armci_ns() -> (f64, f64) {
    const OPS: usize = 2_000;
    let times = std::sync::Arc::new(std::sync::Mutex::new((0.0, 0.0)));
    let sink = times.clone();
    simarmci::run_armci(2, NetConfig::default(), quiet(), move |a| {
        let mem = a.malloc(64 << 10);
        let data = vec![9u8; 4096];
        a.barrier();
        let put = secs(|| {
            if a.rank() == 0 {
                for _ in 0..OPS {
                    let h = a.nb_put(&mem, 1, 0, &data);
                    a.wait(h);
                }
            }
        });
        a.barrier();
        let get = secs(|| {
            if a.rank() == 0 {
                for _ in 0..OPS {
                    std::hint::black_box(a.get(&mem, 1, 0, 4096));
                }
            }
        });
        a.barrier();
        if a.rank() == 0 {
            *sink.lock().expect("row timing mutex") = (put, get);
        }
    })
    .unwrap_or_else(|e| panic!("armci row: {}", e.one_line()));
    let (put, get) = *times.lock().expect("row timing mutex");
    (put * 1e9 / OPS as f64, get * 1e9 / OPS as f64)
}

// ----------------------------------------------------------- overlap-core

fn flat_table() -> XferTimeTable {
    XferTimeTable::sample(1, 8 << 20, |b| 5_000 + b)
}

/// The six-event message cycle on a `ManualClock`, ring 4096: host ns per
/// message, and ms to finish the recorder afterwards. With `trace` the
/// finish runs the attribution over everything retained, which grows faster
/// than linearly with the transfers of a rank (76 ms at 5 k messages, 277 ms
/// at 10 k, 11 s at 40 k when this row was written), so the count stays
/// small and the finish has a row of its own.
fn recorder_cycle(trace: bool) -> (f64, f64) {
    const MSGS: u64 = 10_000;
    let clock = ManualClock::new();
    let opts = RecorderOpts {
        trace,
        ..Default::default()
    };
    let mut rec = Recorder::new(0, Box::new(clock.clone()), flat_table(), opts);
    let cycle = secs(|| {
        for id in 0..MSGS {
            clock.advance(100);
            rec.call_enter("MPI_Isend");
            rec.xfer_begin(id, 4096);
            clock.advance(10);
            rec.call_exit();
            clock.advance(500);
            rec.call_enter("MPI_Wait");
            rec.xfer_end(id, 4096);
            clock.advance(10);
            rec.call_exit();
        }
    });
    let finish = secs(|| drop(std::hint::black_box(rec.finish_traced())));
    (cycle * 1e9 / MSGS as f64, finish * 1e3)
}

/// A 16-rank halo through `run_mpi` under recorder options `rec`; seconds.
fn halo_secs(rec: RecorderOpts) -> f64 {
    const SIDE: usize = 4;
    secs(|| {
        run_mpi(
            SIDE * SIDE,
            NetConfig::default(),
            MpiConfig::default(),
            rec,
            |mpi| {
                let me = mpi.rank();
                let (x, y) = (me % SIDE, me / SIDE);
                let at = |x: usize, y: usize| (y % SIDE) * SIDE + (x % SIDE);
                let nbs = [
                    at(x + 1, y),
                    at(x + SIDE - 1, y),
                    at(x, y + 1),
                    at(x, y + SIDE - 1),
                ];
                let msg = vec![1u8; 2048];
                for it in 0..150u64 {
                    let mut reqs: Vec<_> = nbs
                        .iter()
                        .map(|&nb| mpi.irecv(Src::Rank(nb), TagSel::Is(it)))
                        .collect();
                    reqs.extend(nbs.iter().map(|&nb| mpi.isend(nb, it, &msg)));
                    mpi.compute(20_000);
                    mpi.waitall(&reqs);
                }
            },
        )
        .unwrap_or_else(|e| panic!("halo row: {}", e.one_line()));
    })
}

// ---------------------------------------------------------------- overlapd

/// GET `path`, asserting a 200; seconds from connect to last body byte.
fn get_secs(addr: &str, path: &str) -> f64 {
    secs(|| {
        let (status, body) = http(addr, "GET", path, &[]).expect("layer GET succeeds");
        assert_eq!(status, 200, "GET {path}");
        std::hint::black_box(body);
    })
}

/// Mean seconds of `n` calls of `f`.
fn mean_secs(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).sum::<f64>() / n as f64
}

fn stream_rows(r: &mut Rows, s: &Stream, bundle: &TraceBundle) {
    let lines = s.lines as f64;
    let events = s.events as f64;
    let bundles = std::slice::from_ref(bundle);

    // Encode side: what `export` runs per harness and the corpus set-up runs
    // per stream.
    r.row("overlap-core.processor.event_ns", || {
        let table = simmpi::default_xfer_table(&NetConfig::default());
        let bins = SizeBins::default();
        secs(|| {
            for tr in &bundle.ranks {
                let mut p = Processor::new(table.clone(), bins.clone());
                for e in &tr.events {
                    p.process(*e);
                }
                let end = tr.events.last().map_or(0, |e| e.t);
                std::hint::black_box(p.finish(end, tr.rank, tr.events.len() as u64, 0));
            }
        }) * 1e9
            / events
    });
    r.row("overlap-core.trace.jsonl_ns_per_line", || {
        secs(|| drop(std::hint::black_box(jsonl(bundles)))) * 1e9 / lines
    });
    r.row("overlap-core.trace.chrome_ns_per_event", || {
        secs(|| drop(std::hint::black_box(chrome_json(bundles)))) * 1e9 / events
    });
    r.row("overlap-core.trace.windowed_ns_per_event", || {
        let width = default_window_width(bundle);
        secs(|| drop(std::hint::black_box(windowed(bundle, width)))) * 1e9 / events
    });
    let scoped = [(bundle.scope.clone(), bundle)];
    r.row("overlap-core.attribution.build_ms", || {
        secs(|| {
            drop(std::hint::black_box(bench::critpath::attribution_artifact(
                &s.name, &scoped,
            )))
        }) * 1e3
    });
    r.row("overlap-core.artifact.collapsed_ms", || {
        secs(|| drop(std::hint::black_box(bench::critpath::collapsed(&scoped)))) * 1e3
    });

    // Decode side: the stages of one push-to-report cycle, each timed
    // directly and on its own (no stage is the difference of two others, so
    // nothing cancels in the reconciliation row below). One repeat parses
    // the stream, then folds it into a fresh session, and feeds four rows:
    // the two times, the fold's allocator calls, and the live heap it still
    // holds when the push returns (the bounded-memory claim as a number).
    // No public entry point takes a parsed line, so the fold without the
    // parse has no row: parse is nine tenths of the push and their
    // difference is inside the noise of either.
    let mut pushes = Vec::new();
    let (mut allocs, mut retained) = (Vec::new(), Vec::new());
    r.row("overlap-core.stream.parse_ns_per_line", || {
        let parse = secs(|| {
            for line in s.text.lines() {
                std::hint::black_box(parse_line(line).is_ok());
            }
        });
        let before = alloc::snapshot();
        let mut fold = SessionFold::default();
        let push = secs(|| fold.push_text(&s.text).expect("corpus stream folds"));
        let after = alloc::snapshot();
        drop(fold);
        pushes.push(push * 1e9 / lines);
        allocs.push(alloc::region(before, after).0 as f64 / lines);
        retained.push(after.live.saturating_sub(before.live) as f64 / lines);
        parse * 1e9 / lines
    });
    // Each vector carries the warm-up call's reading first; drop it as `row`
    // drops the warm-up's time.
    r.push("overlap-core.stream.push_ns_per_line", &pushes[1..]);
    r.push("overlap-core.stream.allocs_per_line", &allocs[1..]);
    r.push(
        "overlap-core.stream.retained_bytes_per_line",
        &retained[1..],
    );

    let mut fold = SessionFold::default();
    fold.push_text(&s.text).expect("corpus stream folds");
    r.row("overlap-core.stream.report_ms", || {
        secs(|| drop(std::hint::black_box(serde_json::to_string(&fold.report())))) * 1e3
    });
    r.row("overlap-core.stream.series_ms", || {
        secs(|| {
            drop(std::hint::black_box(serde_json::to_string(
                &fold.series(None),
            )))
        }) * 1e3
    });

    // Through the server.
    r.row("overlapd.client.push_overhead_ns_per_line", || {
        sink_push_secs(&s.text) * 1e9 / lines
    });
    let srv = Running::start();
    let addr = srv.addr.as_str();
    r.row("overlapd.server.conn_setup_us", || {
        mean_secs(50, || {
            secs(|| {
                push_text(addr, "empty", "").expect("empty push");
            })
        }) * 1e6
    });
    r.row("overlapd.http.healthz_us", || {
        mean_secs(50, || get_secs(addr, "/healthz")) * 1e6
    });
    push_text(addr, "loaded", &s.text).expect("layer push");
    for (row, path) in [
        ("overlapd.http.report_ms", "/v1/sessions/loaded/report"),
        ("overlapd.http.series_ms", "/v1/sessions/loaded/series"),
        (
            "overlapd.http.attribution_ms",
            "/v1/sessions/loaded/attribution.json",
        ),
        (
            "overlapd.http.critpath_ms",
            "/v1/sessions/loaded/critpath.folded",
        ),
        ("overlapd.http.fleet_ms", "/v1/fleet"),
    ] {
        r.row(row, || get_secs(addr, path) * 1e3);
    }
    // Every timed push goes to a session of its own, as in `serve-bulk`.
    let mut sessions = 0u32;
    let mut fresh = || {
        sessions += 1;
        format!("row{sessions}")
    };
    r.row("overlapd.http.upload_ns_per_line", || {
        let path = format!("/v1/sessions/{}", fresh());
        secs(|| {
            let (status, _) = http(addr, "POST", &path, s.text.as_bytes()).expect("upload");
            assert_eq!(status, 200, "POST {path}");
        }) * 1e9
            / lines
    });

    // The additivity test: the four stages of a push-to-report cycle, each
    // timed directly and on its own, summed and held against the cycle
    // itself on a fresh session. One repeat times all five back to back,
    // because the host changes speed between one row and the next. The fold
    // runs as the server runs it, on a thread of its own (whose allocator
    // arena is new). What the sum leaves out (the report body's way over the
    // wire) or counts twice (the client framing the next frame while the
    // server folds the last) is the residue.
    let residues: Vec<f64> = (0..=r.repeats)
        .map(|_| {
            let overhead = sink_push_secs(&s.text);
            let push = std::thread::scope(|sc| {
                let folding = sc.spawn(|| {
                    let mut session = SessionFold::default();
                    secs(|| session.push_text(&s.text).expect("corpus stream folds"))
                });
                folding.join().expect("fold thread does not panic")
            });
            let report = secs(|| drop(std::hint::black_box(serde_json::to_string(&fold.report()))));
            let round_trip = get_secs(addr, "/healthz");
            let n = fresh();
            let cycle = secs(|| {
                push_text(addr, &n, &s.text).expect("layer push");
                http(addr, "GET", &format!("/v1/sessions/{n}/report"), &[]).expect("layer GET");
            });
            100.0 * (overhead + push + report + round_trip - cycle).abs() / cycle
        })
        .collect();
    r.push("overlapd.reconcile_pct", &residues[1..]);
    srv.stop();
}

/// Seconds of one `push_text` of `text` to a listener that speaks the
/// server's side of OVLP1 (greeting, frames, reply) and folds nothing: what
/// a push costs apart from the fold (connect, the client's framing, the
/// bytes' way over loopback, the frame reads), timed directly.
fn sink_push_secs(text: &str) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the sink");
    let addr = listener.local_addr().expect("sink address").to_string();
    let sink = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        reader.read_line(&mut String::new())?;
        let mut frame = Vec::new();
        loop {
            let mut len = [0u8; 4];
            reader.read_exact(&mut len)?;
            let len = u32::from_be_bytes(len) as usize;
            if len == 0 {
                break;
            }
            frame.resize(len, 0);
            reader.read_exact(&mut frame)?;
        }
        stream.write_all(b"ok events=0\n")
    });
    let s = secs(|| {
        push_text(&addr, "sink", text).expect("push to the sink");
    });
    sink.join()
        .expect("sink thread does not panic")
        .expect("sink reads the whole push");
    s
}

fn harness_rows(r: &mut Rows) {
    for h in registry().into_iter().filter(|h| h.id != "fig20") {
        r.row(&format!("bench.harness_ms.{}", h.id), || {
            secs(|| drop(std::hint::black_box((h.run)()))) * 1e3
        });
    }
}

/// Run the rows. `seed` picks the corpus stream the `overlap-core` and
/// `overlapd` rows work on.
pub fn run(seed: u64, smoke: bool, scope: Scope) -> LayersRecord {
    let loadavg_before = host::loadavg();
    let calib_before = host::calib_ms();
    let mut r = Rows {
        repeats: match (scope, smoke) {
            (_, true) => 1,
            (Scope::Full, false) => 7,
            (Scope::Driver { .. }, false) => 3,
        },
        deadline: match scope {
            Scope::Driver { seconds } => Some((Instant::now(), seconds)),
            Scope::Full => None,
        },
        rows: Vec::new(),
    };
    bench::runner::set_jobs(1);

    r.row("simcore.sched.hold64_ns", || wheel_hold_ns(64));
    r.row("simcore.sched.hold64k_ns", || wheel_hold_ns(65_536));
    let mut events = Vec::new();
    r.row("simcore.engine.event_ns", || {
        let (ns, n) = engine_run();
        events.push(n);
        ns
    });
    r.push("simcore.engine.events", &events[1..]);
    r.row("simcore.fiber.switch_ns", fiber_switch_ns);
    r.row("simcore.fiber.spawn_us", fiber_spawn_us);

    r.row("simnet.topology.route_ns.flat", || {
        route_ns(TopologySpec::Flat)
    });
    r.row("simnet.topology.route_ns.fat-tree", || {
        route_ns(TopologySpec::FatTree { k: 8 })
    });
    r.row("simnet.topology.route_ns.dragonfly", || {
        route_ns(TopologySpec::Dragonfly { a: 4, p: 2, h: 2 })
    });
    let mut xfers = Vec::new();
    r.row("simnet.world.send_ns.flat", || {
        let (ns, n) = world_send(TopologySpec::Flat);
        xfers.push(n);
        ns
    });
    r.push("simnet.world.xfers", &xfers[1..]);
    r.row("simnet.world.send_ns.fat-tree", || {
        world_send(TopologySpec::FatTree { k: 4 }).0
    });
    r.row("simnet.world.rdma_read_ns.flat", world_rdma_read_ns);

    let flat = NetConfig::default;
    r.row("simmpi.pt2pt.eager_ns", || {
        eager_ns(flat(), MpiConfig::default())
    });
    r.row("simmpi.pt2pt.pipelined_ns", || {
        rndv_ns(MpiConfig::open_mpi_pipelined())
    });
    r.row("simmpi.pt2pt.direct_ns", || {
        rndv_ns(MpiConfig::open_mpi_leave_pinned())
    });
    r.row("simmpi.pt2pt.large_mb_per_s", large_mb_per_s);
    r.row("simmpi.match.depth256_ns", match_depth256_ns);
    r.row("simmpi.coll.allreduce16_ns", allreduce16_ns);
    for model in [
        ProgressModel::AsyncRank {
            poll_interval: ProgressModel::DEFAULT_POLL_INTERVAL,
        },
        ProgressModel::EarlyBird,
        ProgressModel::HwTag,
    ] {
        r.row(&format!("simmpi.progress.{}_ns", model.label()), || {
            let cfg = MpiConfig {
                progress: model,
                ..MpiConfig::default()
            };
            eager_ns(flat(), cfg)
        });
    }
    r.row("simmpi.reliability.faulted_ns", || {
        let net = NetConfig {
            faults: FaultPlan::uniform_loss(seed, 0.01),
            ..flat()
        };
        eager_ns(net, MpiConfig::default())
    });

    let mut gets = Vec::new();
    r.row("simarmci.put_nb_ns", || {
        let (put, get) = armci_ns();
        gets.push(get);
        put
    });
    r.push("simarmci.get_ns", &gets[1..]);

    for (name, k) in [
        ("bt", NasBenchmark::Bt),
        ("cg", NasBenchmark::Cg),
        ("lu", NasBenchmark::Lu),
        ("ft", NasBenchmark::Ft),
        ("sp", NasBenchmark::Sp),
        ("mg", NasBenchmark::MgMpi),
    ] {
        r.row(&format!("nasbench.{name}_ms"), || {
            secs(|| {
                let art = run_benchmark(k, Class::A, 16, flat(), RecorderOpts::default());
                std::hint::black_box(art.end_time());
            }) * 1e3
        });
    }

    r.row("overlap-core.recorder.msg_ns", || recorder_cycle(false).0);
    let mut finishes = Vec::new();
    r.row("overlap-core.recorder.msg_traced_ns", || {
        let (cycle, finish) = recorder_cycle(true);
        finishes.push(finish);
        cycle
    });
    r.push("overlap-core.recorder.finish_traced_ms", &finishes[1..]);
    // The paper's < 0.9 % claim restated in host time: successive
    // differences of one halo run with the recorder off, on, and tracing.
    let mut capture = Vec::new();
    r.row("overlap-core.recorder.overhead_pct", || {
        let off = halo_secs(quiet());
        let on = halo_secs(RecorderOpts::default());
        let traced = halo_secs(RecorderOpts {
            trace: true,
            ..Default::default()
        });
        capture.push(100.0 * (traced - on) / off);
        100.0 * (on - off) / off
    });
    r.push("overlap-core.recorder.trace_overhead_pct", &capture[1..]);

    let bundle = corpus::bundle(seed, 0);
    stream_rows(
        &mut r,
        &corpus::stream_of("s0".to_string(), &bundle),
        &bundle,
    );

    if matches!(scope, Scope::Full) && !smoke {
        // Whole harnesses are too long to repeat seven times.
        r.repeats = 3;
        harness_rows(&mut r);
    }

    LayersRecord {
        schema: SCHEMA.to_string(),
        seed,
        smoke,
        host: host::fingerprint(),
        loadavg_before,
        loadavg_after: host::loadavg(),
        host_calib_ms_before: calib_before,
        host_calib_ms_after: host::calib_ms(),
        rows: r.rows,
    }
}
