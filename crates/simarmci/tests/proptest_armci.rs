//! Property tests: random one-sided operation sequences against a local
//! model of the global memory, plus bound validation.

use proptest::prelude::*;

use overlap_core::RecorderOpts;
use simarmci::run_armci;
use simnet::NetConfig;

#[derive(Debug, Clone, Copy)]
enum OneSided {
    Put {
        dst: usize,
        off: usize,
        len: usize,
        val: u8,
    },
    Get {
        src: usize,
        off: usize,
        len: usize,
    },
    Barrier,
}

const SEG: usize = 4096;

fn arb_op(nranks: usize) -> impl Strategy<Value = OneSided> {
    prop_oneof![
        (0..nranks, 0usize..SEG, 1usize..SEG, any::<u8>()).prop_map(|(dst, off, len, val)| {
            OneSided::Put {
                dst,
                off,
                len: len.min(SEG - off),
                val,
            }
        }),
        (0..nranks, 0usize..SEG, 1usize..SEG).prop_map(|(src, off, len)| OneSided::Get {
            src,
            off,
            len: len.min(SEG - off)
        }),
        Just(OneSided::Barrier),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rank 0 drives a random op sequence against idle targets while
    /// maintaining a local model of every segment; gets must always return
    /// exactly the modeled contents (single-writer semantics).
    #[test]
    fn single_writer_sequences_match_model(ops in prop::collection::vec(arb_op(3), 1..25)) {
        let ops_in = ops.clone();
        run_armci(3, NetConfig::default(), RecorderOpts::default(), move |a| {
            let mem = a.malloc(SEG);
            a.barrier();
            if a.rank() == 0 {
                let mut model = vec![vec![0u8; SEG]; a.nranks()];
                for op in &ops_in {
                    match *op {
                        OneSided::Put { dst, off, len, val } => {
                            let data = vec![val; len];
                            a.put(&mem, dst, off, &data);
                            model[dst][off..off + len].copy_from_slice(&data);
                        }
                        OneSided::Get { src, off, len } => {
                            let got = a.get(&mem, src, off, len);
                            assert_eq!(&got[..], &model[src][off..off + len], "get mismatch");
                        }
                        OneSided::Barrier => {}
                    }
                }
            }
            a.barrier();
        })
        .expect("run failed");
    }

    /// Bounds bracket truth for random non-blocking pipelines.
    #[test]
    fn nb_pipelines_respect_bounds(
        lens in prop::collection::vec(1usize..400_000, 1..10),
        computes in prop::collection::vec(0u64..800_000, 1..10),
    ) {
        let lens_in = lens.clone();
        let computes_in = computes.clone();
        let rec = RecorderOpts { trace: true, ..RecorderOpts::default() };
        let out = run_armci(2, NetConfig::default(), rec, move |a| {
            let mem = a.malloc(400_000);
            a.barrier();
            if a.rank() == 0 {
                for (i, &len) in lens_in.iter().enumerate() {
                    let h = a.nb_put(&mem, 1, 0, vec![i as u8; len]);
                    a.compute(computes_in[i % computes_in.len()]);
                    a.wait(h);
                }
            }
            a.barrier();
        })
        .expect("run failed");
        prop_assert_eq!(out.check(), []);
        prop_assert_eq!(out.reports[0].total.transfers as usize, lens.len());
    }
}
