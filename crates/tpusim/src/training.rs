//! Training-step timing: one layer's forward, weight-gradient and
//! input-gradient passes, each priced by [`Simulator::simulate_pass`] under
//! the channel-first schedule — the one pass model the rest of the
//! simulator reports (see `iconv_core::backward` for the lowered semantics).
//! TPU-v2/v3 are training chips, so the training step is the workload the
//! hardware was actually sized for.

use crate::config::TpuConfig;
use crate::engine::{SimMode, Simulator};
use crate::report::LayerReport;
use iconv_core::ConvPass;
use iconv_tensor::ConvShape;
use iconv_workloads::Model;

/// The three computations of one training step for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Forward pass.
    pub forward: LayerReport,
    /// Weight gradient (`dW = lowered(IFMap)ᵀ · dY`, K over pixels).
    pub wgrad: LayerReport,
    /// Input gradient (`dX = lowered(dY) · rot180(W)ᵀ` over the
    /// stride-dilated `dY`), `None` for the first layer of a network (no
    /// upstream gradient needed).
    pub dgrad: Option<LayerReport>,
}

impl TrainingReport {
    /// Total cycles of the step.
    pub fn total_cycles(&self) -> u64 {
        self.forward.cycles + self.wgrad.cycles + self.dgrad.as_ref().map_or(0, |d| d.cycles)
    }

    /// Total FLOPs of the step (3× the forward pass when dgrad runs).
    pub fn total_flops(&self) -> u64 {
        self.forward.flops + self.wgrad.flops + self.dgrad.as_ref().map_or(0, |d| d.flops)
    }
}

impl Simulator {
    /// One full training step for a layer: the forward, wgrad and
    /// (optionally) dgrad [`Simulator::simulate_pass`] reports, all
    /// channel-first.
    ///
    /// # Examples
    ///
    /// ```
    /// # use iconv_tpusim::{Simulator, TpuConfig};
    /// # use iconv_tensor::ConvShape;
    /// # fn main() -> Result<(), iconv_tensor::ShapeError> {
    /// let sim = Simulator::new(TpuConfig::tpu_v2());
    /// let layer = ConvShape::square(8, 128, 28, 128, 3, 1, 1)?;
    /// let step = sim.simulate_training_step("res4", &layer, true);
    /// assert_eq!(step.total_flops(), 3 * step.forward.flops);
    /// # Ok(()) }
    /// ```
    pub fn simulate_training_step(
        &self,
        name: &str,
        shape: &ConvShape,
        needs_dgrad: bool,
    ) -> TrainingReport {
        let pass = |pass| self.simulate_pass(name, shape, pass, SimMode::ChannelFirst);
        TrainingReport {
            forward: pass(ConvPass::Forward),
            wgrad: pass(ConvPass::Wgrad),
            dgrad: needs_dgrad.then(|| pass(ConvPass::Dgrad)),
        }
    }

    /// Training-step cycles for a whole model (dgrad skipped on the first
    /// layer).
    pub fn simulate_model_training(&self, model: &Model) -> Vec<(TrainingReport, usize)> {
        model
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                (
                    self.simulate_training_step(&l.name, &l.shape, i > 0),
                    l.count,
                )
            })
            .collect()
    }
}

/// Peak TFLOPS helper for training reports.
pub fn training_tflops(cfg: &TpuConfig, reports: &[(TrainingReport, usize)]) -> f64 {
    let cycles: u64 = reports
        .iter()
        .map(|(r, k)| r.total_cycles() * *k as u64)
        .sum();
    let flops: u64 = reports
        .iter()
        .map(|(r, k)| r.total_flops() * *k as u64)
        .sum();
    if cycles == 0 {
        return 0.0;
    }
    flops as f64 / cfg.cycles_to_seconds(cycles) / 1e12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpuConfig;

    fn sim() -> Simulator {
        Simulator::new(TpuConfig::tpu_v2())
    }

    fn layer() -> ConvShape {
        ConvShape::square(8, 128, 28, 128, 3, 1, 1).unwrap()
    }

    #[test]
    fn gradient_passes_cost_about_a_forward_each() {
        // Same MACs, same machine: each gradient pass lands within ~2x of
        // the forward for square layers.
        let step = sim().simulate_training_step("l", &layer(), true);
        let fwd = step.forward.cycles;
        let dg = step.dgrad.unwrap().cycles;
        for (name, c) in [("wgrad", step.wgrad.cycles), ("dgrad", dg)] {
            let ratio = c as f64 / fwd as f64;
            assert!((0.5..2.0).contains(&ratio), "{name} ratio {ratio}");
        }
    }

    #[test]
    fn training_step_is_about_3x_inference() {
        let s = sim();
        let step = s.simulate_training_step("l", &layer(), true);
        let ratio = step.total_cycles() as f64 / step.forward.cycles as f64;
        assert!((2.2..4.0).contains(&ratio), "training/forward = {ratio}");
        assert_eq!(step.total_flops(), 3 * step.forward.flops);
    }

    #[test]
    fn first_layer_skips_dgrad() {
        let s = sim();
        let step = s.simulate_training_step("conv1", &layer(), false);
        assert!(step.dgrad.is_none());
        assert_eq!(step.total_flops(), 2 * step.forward.flops);
    }

    #[test]
    fn tpu_v3_trains_faster_than_v2() {
        let model = iconv_workloads::resnet50(8);
        let v2 = Simulator::new(TpuConfig::tpu_v2());
        let v3 = Simulator::new(TpuConfig::tpu_v3());
        let t2: u64 = v2
            .simulate_model_training(&model)
            .iter()
            .map(|(r, k)| r.total_cycles() * *k as u64)
            .sum();
        let t3: u64 = v3
            .simulate_model_training(&model)
            .iter()
            .map(|(r, k)| r.total_cycles() * *k as u64)
            .sum();
        // v3 wins in wall-clock (cycles x clock): compare seconds.
        let s2 = v2.config().cycles_to_seconds(t2);
        let s3 = v3.config().cycles_to_seconds(t3);
        assert!(s3 < s2 * 0.75, "v3 {s3:.4}s vs v2 {s2:.4}s");
    }

    #[test]
    fn gradient_reports_stay_conserved() {
        let s = sim();
        let step = s.simulate_training_step("l", &layer(), true);
        assert!(step.forward.assert_conserved());
        assert!(step.wgrad.assert_conserved());
        assert!(step.dgrad.unwrap().assert_conserved());
    }

    #[test]
    fn asymmetric_layer_gradients_differ_sensibly() {
        // Co >> Ci: dgrad's reduction (over Co) is deeper than wgrad's
        // K-side, so their pass counts differ.
        let shape = ConvShape::square(8, 32, 28, 512, 3, 1, 1).unwrap();
        let step = sim().simulate_training_step("l", &shape, true);
        let (wg, dg) = (step.wgrad, step.dgrad.unwrap());
        assert_ne!(wg.cycles, dg.cycles);
        assert!(wg.flops == dg.flops);
    }
}
