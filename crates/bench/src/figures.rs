//! Reproduction harnesses for every figure in the paper's evaluation.

use std::time::Instant;

use nasbench::runner::{summarize, NasBenchmark};
use nasbench::sp::SP_OVERLAP_SECTION;
use nasbench::Class;
use overlap_core::RecorderOpts;
use simmpi::MpiConfig;

use crate::micro::{overlap_sweep_scoped, MicroPoint, Pairing};
use crate::{f_ms, f_us, pct, sim, Series};

/// Transfers per microbenchmark point (paper used 1000; percentages are
/// per-transfer averages, so a few hundred suffice).
const MICRO_REPS: usize = 200;

fn micro_series(
    id: &'static str,
    title: &str,
    cfg: MpiConfig,
    bytes: usize,
    computes_us: &[u64],
    pairing: Pairing,
    show: Side,
) -> Series {
    let computes_ns: Vec<u64> = computes_us.iter().map(|&c| c * 1_000).collect();
    let points = overlap_sweep_scoped(id, cfg, bytes, MICRO_REPS, &computes_ns, pairing);
    let mut columns = vec!["compute_us".to_string()];
    match show {
        Side::Sender => columns.extend(["snd_min%", "snd_max%", "snd_wait_us"].map(String::from)),
        Side::Receiver => columns.extend(["rcv_min%", "rcv_max%", "rcv_wait_us"].map(String::from)),
        Side::Both => columns.extend(
            [
                "snd_min%",
                "snd_max%",
                "snd_wait_us",
                "rcv_min%",
                "rcv_max%",
                "rcv_wait_us",
            ]
            .map(String::from),
        ),
    }
    let rows = points
        .iter()
        .map(|p: &MicroPoint| {
            let mut row = vec![format!("{}", p.compute_ns / 1_000)];
            match show {
                Side::Sender => row.extend([pct(p.snd_min), pct(p.snd_max), f_us(p.snd_wait_ns)]),
                Side::Receiver => row.extend([pct(p.rcv_min), pct(p.rcv_max), f_us(p.rcv_wait_ns)]),
                Side::Both => row.extend([
                    pct(p.snd_min),
                    pct(p.snd_max),
                    f_us(p.snd_wait_ns),
                    pct(p.rcv_min),
                    pct(p.rcv_max),
                    f_us(p.rcv_wait_ns),
                ]),
            }
            row
        })
        .collect();
    Series {
        id,
        title: title.to_string(),
        columns,
        rows,
    }
}

#[derive(Clone, Copy)]
enum Side {
    Sender,
    Receiver,
    Both,
}

const LONG_COMPUTES_US: [u64; 8] = [0, 250, 500, 750, 1000, 1250, 1500, 1750];

/// Fig. 3: eager exchange (10 KB), Isend–Irecv, both sides.
pub fn fig03() -> Series {
    micro_series(
        "fig03",
        "Isend-Irecv, eager protocol, 10 KB",
        MpiConfig::open_mpi_pipelined(),
        10 << 10,
        &[0, 5, 10, 15, 20, 25, 30],
        Pairing::IsendIrecv,
        Side::Both,
    )
}

/// Fig. 4: Isend–Recv under pipelined RDMA (1 MB), sender side.
pub fn fig04() -> Series {
    micro_series(
        "fig04",
        "Isend-Recv, pipelined RDMA, 1 MB (sender)",
        MpiConfig::open_mpi_pipelined(),
        1 << 20,
        &LONG_COMPUTES_US,
        Pairing::IsendRecv,
        Side::Sender,
    )
}

/// Fig. 5: Isend–Recv under direct RDMA (1 MB), sender side.
pub fn fig05() -> Series {
    micro_series(
        "fig05",
        "Isend-Recv, direct RDMA, 1 MB (sender)",
        MpiConfig::open_mpi_leave_pinned(),
        1 << 20,
        &LONG_COMPUTES_US,
        Pairing::IsendRecv,
        Side::Sender,
    )
}

/// Fig. 6: Send–Irecv under pipelined RDMA (1 MB), receiver side.
pub fn fig06() -> Series {
    micro_series(
        "fig06",
        "Send-Irecv, pipelined RDMA, 1 MB (receiver)",
        MpiConfig::open_mpi_pipelined(),
        1 << 20,
        &LONG_COMPUTES_US,
        Pairing::SendIrecv,
        Side::Receiver,
    )
}

/// Fig. 7: Send–Irecv under direct RDMA (1 MB), receiver side.
pub fn fig07() -> Series {
    micro_series(
        "fig07",
        "Send-Irecv, direct RDMA, 1 MB (receiver)",
        MpiConfig::open_mpi_leave_pinned(),
        1 << 20,
        &LONG_COMPUTES_US,
        Pairing::SendIrecv,
        Side::Receiver,
    )
}

/// Fig. 8: Isend–Irecv under pipelined RDMA (1 MB), both sides.
pub fn fig08() -> Series {
    micro_series(
        "fig08",
        "Isend-Irecv, pipelined RDMA, 1 MB",
        MpiConfig::open_mpi_pipelined(),
        1 << 20,
        &LONG_COMPUTES_US,
        Pairing::IsendIrecv,
        Side::Both,
    )
}

/// Fig. 9: Isend–Irecv under direct RDMA (1 MB), both sides.
pub fn fig09() -> Series {
    micro_series(
        "fig09",
        "Isend-Irecv, direct RDMA, 1 MB",
        MpiConfig::open_mpi_leave_pinned(),
        1 << 20,
        &LONG_COMPUTES_US,
        Pairing::IsendIrecv,
        Side::Both,
    )
}

fn nas_series(
    id: &'static str,
    title: &str,
    bench: NasBenchmark,
    cases: &[(Class, usize)],
) -> Series {
    let rows = crate::runner::par_map(cases, |&(class, np)| {
        let scope = format!("{id}/{class}np{np}");
        let art = sim::nas(Some(scope), bench, class, np, RecorderOpts::default());
        let s = summarize(bench, class, np, &art);
        vec![
            class.to_string(),
            np.to_string(),
            pct(s.min_pct),
            pct(s.max_pct),
            f_ms(s.data_transfer_ms),
            f_ms(s.comm_call_ms),
            s.transfers.to_string(),
        ]
    });
    Series {
        id,
        title: title.to_string(),
        columns: [
            "class",
            "np",
            "min_ovl%",
            "max_ovl%",
            "xfer_ms",
            "mpi_ms",
            "transfers",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// Fig. 10: NAS BT overlap characterization (Open MPI, pipelined).
pub fn fig10() -> Series {
    nas_series(
        "fig10",
        "NAS BT overlap (Open-MPI-like pipelined)",
        NasBenchmark::Bt,
        &[
            (Class::A, 4),
            (Class::A, 9),
            (Class::A, 16),
            (Class::B, 4),
            (Class::B, 9),
            (Class::B, 16),
        ],
    )
}

/// Fig. 11: NAS CG overlap characterization (Open MPI, pipelined).
pub fn fig11() -> Series {
    nas_series(
        "fig11",
        "NAS CG overlap (Open-MPI-like pipelined)",
        NasBenchmark::Cg,
        &[
            (Class::A, 4),
            (Class::A, 8),
            (Class::A, 16),
            (Class::B, 4),
            (Class::B, 8),
            (Class::B, 16),
        ],
    )
}

/// Fig. 12: NAS LU overlap characterization (MVAPICH2-like).
pub fn fig12() -> Series {
    nas_series(
        "fig12",
        "NAS LU overlap (MVAPICH2-like)",
        NasBenchmark::Lu,
        &[
            (Class::A, 4),
            (Class::A, 8),
            (Class::A, 16),
            (Class::B, 4),
            (Class::B, 8),
            (Class::B, 16),
        ],
    )
}

/// Fig. 13: NAS FT overlap characterization (MVAPICH2-like).
pub fn fig13() -> Series {
    nas_series(
        "fig13",
        "NAS FT overlap (MVAPICH2-like)",
        NasBenchmark::Ft,
        &[
            (Class::A, 4),
            (Class::A, 8),
            (Class::A, 16),
            (Class::B, 4),
            (Class::B, 8),
            (Class::B, 16),
        ],
    )
}

/// The original and modified SP codes, with their scope labels.
const SP_VARIANTS: [(NasBenchmark, &str); 2] = [
    (NasBenchmark::Sp, "orig"),
    (NasBenchmark::SpModified, "mod"),
];

fn sp_compare(id: &'static str, title: &str, class: Class, whole_code: bool) -> Series {
    let nps = [4usize, 9, 16];
    // One item per simulation, so a pair's two runs can take both cores.
    let items: [_; 6] = std::array::from_fn(|i| (nps[i / 2], SP_VARIANTS[i % 2]));
    let runs = crate::runner::par_map(&items, |&(np, (bench, variant))| {
        let scope = format!("{id}/np{np}/{variant}");
        let art = sim::nas(Some(scope), bench, class, np, RecorderOpts::default());
        let r = &art.reports[0];
        let total = if whole_code {
            &r.total
        } else {
            &r.sections[SP_OVERLAP_SECTION].total
        };
        (total.min_pct(), total.max_pct())
    });
    let rows = nps
        .iter()
        .zip(runs.as_chunks().0)
        .map(|(np, &[(omin, omax), (mmin, mmax)])| {
            vec![np.to_string(), pct(omin), pct(omax), pct(mmin), pct(mmax)]
        })
        .collect();
    Series {
        id,
        title: title.to_string(),
        columns: ["np", "orig_min%", "orig_max%", "mod_min%", "mod_max%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Fig. 14: SP overlap-section measurement, original vs modified, class A.
pub fn fig14() -> Series {
    sp_compare(
        "fig14",
        "SP overlapping section, original vs modified, class A",
        Class::A,
        false,
    )
}

/// Fig. 15: same as fig 14 for class B.
pub fn fig15() -> Series {
    sp_compare(
        "fig15",
        "SP overlapping section, original vs modified, class B",
        Class::B,
        false,
    )
}

/// Fig. 16: SP whole-code measurement, original vs modified, class A.
pub fn fig16() -> Series {
    sp_compare(
        "fig16",
        "SP complete code, original vs modified, class A",
        Class::A,
        true,
    )
}

/// Fig. 17: same as fig 16 for class B.
pub fn fig17() -> Series {
    sp_compare(
        "fig17",
        "SP complete code, original vs modified, class B",
        Class::B,
        true,
    )
}

/// Fig. 18: SP total MPI time, original vs modified.
pub fn fig18() -> Series {
    let grid: [(Class, usize); 6] =
        std::array::from_fn(|i| ([Class::A, Class::B][i / 3], [4, 9, 16][i % 3]));
    let items: [_; 12] = std::array::from_fn(|i| (grid[i / 2], SP_VARIANTS[i % 2]));
    let runs = crate::runner::par_map(&items, |&((class, np), (bench, variant))| {
        let scope = format!("fig18/{class}np{np}/{variant}");
        let art = sim::nas(Some(scope), bench, class, np, RecorderOpts::default());
        art.reports[0].comm_call_time as f64 / 1e6
    });
    let rows = grid
        .iter()
        .zip(runs.as_chunks().0)
        .map(|((class, np), &[o, m])| {
            vec![
                class.to_string(),
                np.to_string(),
                f_ms(o),
                f_ms(m),
                pct(100.0 * (o - m) / o),
            ]
        })
        .collect();
    Series {
        id: "fig18",
        title: "SP total MPI time, original vs modified".to_string(),
        columns: ["class", "np", "orig_mpi_ms", "mod_mpi_ms", "improvement%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Fig. 19: MG over ARMCI, blocking vs non-blocking overlap, class B.
pub fn fig19() -> Series {
    let nps = [4usize, 8, 16];
    let variants = [
        (NasBenchmark::MgArmciBlocking, "blocking"),
        (NasBenchmark::MgArmciNonBlocking, "nonblocking"),
    ];
    let items: [_; 6] = std::array::from_fn(|i| (nps[i / 2], variants[i % 2]));
    let runs = crate::runner::par_map(&items, |&(np, (bench, variant))| {
        let scope = format!("fig19/np{np}/{variant}");
        let art = sim::nas(Some(scope), bench, Class::B, np, RecorderOpts::default());
        let t = &art.reports[0].total;
        (t.min_pct(), t.max_pct())
    });
    let rows = nps
        .iter()
        .zip(runs.as_chunks().0)
        .map(|(np, &[(bmin, bmax), (nmin, nmax)])| {
            vec![np.to_string(), pct(bmin), pct(bmax), pct(nmin), pct(nmax)]
        })
        .collect();
    Series {
        id: "fig19",
        title: "NAS MG over ARMCI, blocking vs non-blocking, class B".to_string(),
        columns: ["np", "blk_min%", "blk_max%", "nb_min%", "nb_max%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// Fig. 20: instrumentation overhead — wall-clock run time with the
/// recorder enabled vs disabled, per benchmark.
pub fn fig20() -> Series {
    let benches = [
        NasBenchmark::Bt,
        NasBenchmark::Cg,
        NasBenchmark::Lu,
        NasBenchmark::Ft,
        NasBenchmark::Sp,
        NasBenchmark::MgMpi,
    ];
    let mut rows = Vec::new();
    // Deliberately serial: this harness times host wall-clock, and running
    // its repetitions concurrently would perturb the measurement.
    for bench in benches {
        // Warm up, then take the minimum of several runs — wall-clock noise
        // on a shared host dwarfs the true instrumentation cost otherwise.
        let wall = |enabled: bool| {
            let rec = RecorderOpts {
                enabled,
                ..Default::default()
            };
            let t0 = Instant::now();
            let art = sim::nas(None, bench, Class::A, 4, rec);
            let dt = t0.elapsed().as_secs_f64();
            (dt, art.end_time())
        };
        let _ = wall(false);
        let _ = wall(true);
        let mut off = f64::INFINITY;
        let mut on = f64::INFINITY;
        let mut vt = (0u64, 0u64);
        for _ in 0..5 {
            let (toff, voff) = wall(false);
            let (ton, von) = wall(true);
            off = off.min(toff);
            on = on.min(ton);
            vt = (voff, von);
        }
        assert_eq!(vt.0, vt.1, "instrumentation must not perturb virtual time");
        rows.push(vec![
            bench.name().to_string(),
            format!("{:.1}", off * 1e3),
            format!("{:.1}", on * 1e3),
            format!("{:.2}", (100.0 * (on - off) / off).max(0.0)),
        ]);
    }
    Series {
        id: "fig20",
        title: "Instrumentation overhead (wall-clock, class A, np=4)".to_string(),
        columns: ["bench", "uninstr_ms", "instr_ms", "overhead%"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// All figure harnesses in canonical order, with the rank counts the
/// runner's `--json` report exposes.
pub fn all() -> Vec<crate::Harness> {
    use crate::{Harness, HarnessKind::Figure};
    vec![
        Harness::new("fig03", Figure, 2, fig03),
        Harness::new("fig04", Figure, 2, fig04),
        Harness::new("fig05", Figure, 2, fig05),
        Harness::new("fig06", Figure, 2, fig06),
        Harness::new("fig07", Figure, 2, fig07),
        Harness::new("fig08", Figure, 2, fig08),
        Harness::new("fig09", Figure, 2, fig09),
        Harness::new("fig10", Figure, 16, fig10),
        Harness::new("fig11", Figure, 16, fig11),
        Harness::new("fig12", Figure, 16, fig12),
        Harness::new("fig13", Figure, 16, fig13),
        Harness::new("fig14", Figure, 16, fig14),
        Harness::new("fig15", Figure, 16, fig15),
        Harness::new("fig16", Figure, 16, fig16),
        Harness::new("fig17", Figure, 16, fig17),
        Harness::new("fig18", Figure, 16, fig18),
        Harness::new("fig19", Figure, 16, fig19),
        Harness::new("fig20", Figure, 4, fig20),
    ]
}
