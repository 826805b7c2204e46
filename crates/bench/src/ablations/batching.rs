//! **Ablation: batch size vs word packing** — the HWCN layout fills each
//! 8-element vector-memory word with batch items (paper Sec. IV-A
//! "Leveraging Large Word Size"). This ablation sweeps the batch to show
//! where the packing breaks down (shallow batches on strided layers) and
//! that dense layers recover via spatial packing. The port idle ratio
//! (Fig. 16b's metric) shows how full the words are.

use crate::fmt::{banner, header};
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, Simulator, TpuConfig};

/// Render the experiment's full report.
///
/// # Panics
///
/// If the claim it prints fails. Up to batch 8, the strided layer's
/// utilization and port idle ratio must rise with the batch, from under
/// half idle at batch 1. Its utilization must stay below the dense
/// layer's at every batch, and the dense layer must idle over half its
/// port cycles at every batch.
pub fn report() -> String {
    let mut out = String::new();
    let sim = Simulator::new(TpuConfig::tpu_v2());
    banner(
        &mut out,
        "Ablation: batch size vs vector-memory word packing (word = 8)",
    );
    header(
        &mut out,
        &[
            "batch",
            "dense TF/s",
            "dense util%",
            "dense idle%",
            "strided TF/s",
            "strided util%",
            "strided idle%",
        ],
        &[6, 11, 11, 11, 13, 13, 13],
    );
    let (mut prev_util, mut prev_idle) = (0.0, 0.0);
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let dense = ConvShape::square(n, 128, 28, 128, 3, 1, 1).expect("valid layer");
        let strided = ConvShape::square(n, 128, 28, 128, 3, 2, 1).expect("valid layer");
        let d = sim.simulate_conv("d", &dense, SimMode::ChannelFirst);
        let s = sim.simulate_conv("s", &strided, SimMode::ChannelFirst);
        let (du, su) = (d.utilization(sim.config()), s.utilization(sim.config()));
        let (di, si) = (d.sram.idle_ratio(), s.sram.idle_ratio());
        assert!(su < du, "batch {n}: strided util {su:.3} >= dense {du:.3}");
        assert!(
            di > 0.5,
            "batch {n}: dense idle ratio {di:.3} is not above 50%"
        );
        if n == 1 {
            assert!(
                si < 0.5,
                "batch 1: strided idle ratio {si:.3} is not below 50%"
            );
        }
        if n <= 8 {
            assert!(
                su > prev_util,
                "batch {n}: strided util {su:.3} did not rise"
            );
            assert!(
                si > prev_idle,
                "batch {n}: strided idle {si:.3} did not rise"
            );
            (prev_util, prev_idle) = (su, si);
        }
        crate::outln!(
            out,
            "{:>6}  {:>11.1}  {:>11.1}  {:>11.1}  {:>13.1}  {:>13.1}  {:>13.1}",
            n,
            d.tflops(sim.config()),
            100.0 * du,
            100.0 * di,
            s.tflops(sim.config()),
            100.0 * su,
            100.0 * si
        );
    }
    crate::outln!(
        out,
        "\nDense (stride-1) layers pack pixels into every word at any batch, so their\n\
         ports idle over half the time. Strided layers can pack only batch items: at\n\
         batch 1 each word carries one element and the ports are busy most cycles,\n\
         and the idle share rises until the words fill at batch 8 (paper Sec. IV-A\n\
         and IV-C). The serializer stalls only at batch 1; the rest of the strided\n\
         utilization ramp is fixed pipeline cost spread over more rows — why the\n\
         TPU-v2 design leans on training-scale batches."
    );
    out
}

/// Run the experiment, printing the report.
pub fn run() {
    print!("{}", report());
}
