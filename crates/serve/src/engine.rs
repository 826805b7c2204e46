//! Request evaluation: the body a request's answer carries.
//!
//! Evaluation is a pure function of the [`Work`] value — no clock, no
//! randomness, no ambient configuration — which is what makes the cached
//! and freshly-computed paths byte-identical and the whole service
//! deterministic under any concurrency. The pricing itself is the one
//! evaluator, [`iconv_tune::estimate`]; this module renders its answer.

use crate::protocol::Work;

/// Run the simulation a request asks for and render the response body
/// (the id-free interior cached by the server).
pub fn evaluate(work: &Work) -> String {
    iconv_tune::estimate(work).body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, Response, TpuHwSpec};
    use iconv_gpusim::{GpuAlgo, GpuConfig, GpuSim};
    use iconv_tensor::ConvShape;
    use iconv_tpusim::{SimMode, Simulator, TpuConfig};

    fn shape() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    #[test]
    fn tpu_body_matches_the_in_process_simulator() {
        let work = Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec::default(),
        };
        let line = crate::protocol::finish_response(None, &evaluate(&work));
        let Ok(Response::Tpu { est, .. }) = parse_response(&line) else {
            panic!("bad body: {line}");
        };
        let rep =
            Simulator::new(TpuConfig::tpu_v2()).simulate_conv("x", &shape(), SimMode::ChannelFirst);
        assert_eq!(est.cycles, rep.cycles);
        assert_eq!(est.dram_bytes, rep.dram_bytes);
        assert_eq!(est.dispatch + est.first_fill + est.steady, est.cycles);
    }

    #[test]
    fn gpu_body_is_bit_exact() {
        let work = Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::ChannelFirst { reuse: true },
            hw: Default::default(),
        };
        let line = crate::protocol::finish_response(None, &evaluate(&work));
        let Ok(Response::Gpu { est, .. }) = parse_response(&line) else {
            panic!("bad body: {line}");
        };
        let rep = GpuSim::new(GpuConfig::v100()).simulate_conv(
            "x",
            &shape(),
            GpuAlgo::ChannelFirst { reuse: true },
        );
        assert_eq!(est.cycles.to_bits(), rep.timing.cycles.to_bits());
        assert_eq!(
            est.compute_cycles.to_bits(),
            rep.timing.compute_cycles.to_bits()
        );
        assert_eq!(
            est.memory_cycles.to_bits(),
            rep.timing.memory_cycles.to_bits()
        );
    }

    #[test]
    fn answer_bytes_are_pinned() {
        // Every body `evaluate` renders over the key-pinning works (the
        // workload table, every pass leg, and per distinct paper shape a
        // GEMM, the tune keys and every valid grid candidate), at batch 1
        // and 8, plus each candidate's backward and transposed twin and
        // the TPU word/MXU overrides under every lowering and pass. A
        // refactor of either engine must leave every answer byte in place.
        use iconv_api::tuned::candidates;
        use iconv_api::{stable_hash64, table, TpuChip, TuneTarget, TunedConfig};
        use iconv_core::{ConvPass, ALL_PASSES};

        let targets = [
            TuneTarget::Tpu { chip: TpuChip::V2 },
            TuneTarget::Tpu { chip: TpuChip::V3 },
            TuneTarget::Gpu,
        ];
        let mut works = table::workload_works(false);
        for leg in table::PASS_LEGS {
            works.extend(table::pass_leg_works(false, leg).unwrap());
        }
        for shape in [1, 8]
            .into_iter()
            .flat_map(iconv_workloads::distinct_shapes)
        {
            let (m, n, k) = shape.gemm_mnk();
            works.push(Work::TpuGemm {
                m,
                n,
                k,
                hw: TpuHwSpec::default(),
            });
            for target in targets {
                works.push(Work::Tune { shape, target });
                for c in candidates(target).iter().filter(|c| c.is_valid()) {
                    works.push(c.to_work(shape));
                    for pass in [ConvPass::Wgrad, ConvPass::Dgrad, ConvPass::Transpose] {
                        works.push(match *c {
                            TunedConfig::Tpu { mode, hw } => Work::TpuPass {
                                shape,
                                pass,
                                mode,
                                hw,
                            },
                            TunedConfig::Gpu { algo, hw } => Work::GpuPass {
                                shape,
                                pass,
                                algo,
                                hw,
                            },
                        });
                    }
                }
            }
            for word_elems in [1, 2, 16] {
                for mxus in [1, 2] {
                    for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
                        for pass in ALL_PASSES {
                            let hw = TpuHwSpec {
                                word_elems: Some(word_elems),
                                mxus: Some(mxus),
                                ..TpuHwSpec::default()
                            };
                            works.push(Work::TpuPass {
                                shape,
                                pass,
                                mode,
                                hw,
                            });
                        }
                    }
                }
            }
        }
        let bodies = iconv_par::par_map(&works, evaluate);
        let digest = bodies
            .iter()
            .fold(0, |h, body| stable_hash64(&format!("{h:016x}{body}")));
        assert_eq!((works.len(), digest), (243_216, 0x5702_bc38_ff98_8822));
    }
}
