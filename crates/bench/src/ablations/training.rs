//! **Ablation: training step breakdown** — forward / weight-gradient /
//! input-gradient cycles per network on TPUSim, exercising the
//! `iconv_core::backward` lowering at timing level through the same pass
//! model the `passes` experiment reports. TPU-v2/v3 are training chips;
//! this shows the channel-first schedule carries the whole training step,
//! not just inference.

use crate::fmt::{banner, header};
use iconv_tpusim::{Simulator, TpuConfig};
use iconv_workloads::all_models;

/// Render the experiment's full report.
///
/// # Panics
///
/// If the claim it prints fails on any model: a training step costs 2–3
/// forward passes, and neither gradient costs 1.5 forward passes or more.
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
        let ratio = |c: u64| c as f64 / fwd as f64;
        let step = ratio(fwd + wg + dg);
        assert!(
            (2.0..=3.0).contains(&step),
            "{}: a step costs {step:.2} forward passes, not 2-3",
            m.name
        );
        for (pass, c) in [("wgrad", wg), ("dgrad", dg)] {
            assert!(
                ratio(c) < 1.5,
                "{}: {pass} costs {:.2} forward passes, not under 1.5",
                m.name,
                ratio(c)
            );
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
            step
        );
    }
    crate::outln!(
        out,
        "\nEach gradient is the pass model the `passes` experiment reports: wgrad tiles\n\
         its K over the N·Ho·Wo pixels, and dgrad streams the rotated filter over the\n\
         stride-dilated dY (DESIGN §15). A step costs 2-3 forward passes and each\n\
         gradient under 1.5: wgrad's pixel reduction fills PE rows that shallow\n\
         layers' taps leave empty, while strided layers' dgrad pays for the zeros."
    );
    out
}

/// Run the experiment, printing the report.
pub fn run() {
    print!("{}", report());
}
