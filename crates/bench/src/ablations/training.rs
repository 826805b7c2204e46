//! **Ablation: training step breakdown** — forward / weight-gradient /
//! input-gradient cycles per network on TPUSim, exercising the
//! `iconv_core::backward` lowering at timing level. TPU-v2/v3 are training
//! chips; this shows the channel-first decomposition carries the whole
//! training step, not just inference.

use crate::fmt::{banner, header};
use iconv_tpusim::{Simulator, TpuConfig};
use iconv_workloads::all_models;

/// Render the experiment's full report.
pub fn report() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation: training-step breakdown on TPUSim (batch 8)",
    );
    let sim = Simulator::new(TpuConfig::tpu_v2());
    header(
        &mut out,
        &[
            "model", "fwd ms", "wgrad ms", "dgrad ms", "step ms", "step/fwd",
        ],
        &[10, 8, 9, 9, 8, 9],
    );
    for m in all_models(8) {
        let reports = sim.simulate_model_training(&m);
        let mut fwd = 0u64;
        let mut wg = 0u64;
        let mut dg = 0u64;
        for (r, k) in &reports {
            fwd += r.forward.cycles * *k as u64;
            wg += r.wgrad.cycles * *k as u64;
            dg += r.dgrad.as_ref().map_or(0, |d| d.cycles) * *k as u64;
        }
        let to_ms = |c: u64| sim.config().cycles_to_seconds(c) * 1e3;
        crate::outln!(
            out,
            "{:>10}  {:>8.2}  {:>9.2}  {:>9.2}  {:>8.2}  {:>8.2}x",
            m.name,
            to_ms(fwd),
            to_ms(wg),
            to_ms(dg),
            to_ms(fwd + wg + dg),
            (fwd + wg + dg) as f64 / fwd as f64
        );
    }
    crate::outln!(
        out,
        "\nBoth gradients inherit the per-tap 1x1 decomposition (dW = A'dY per tap,\n\
         dX += dY·B' per tap), so a training step costs ~3 forward passes — the\n\
         classic rule of thumb, recovered from the lowered schedules."
    );
    out
}

/// Run the experiment, printing the report.
pub fn run() {
    print!("{}", report());
}
