//! Per-layer convolution timing under each GPU algorithm.

use crate::config::GpuConfig;
use crate::kernel::{time_kernel, KernelTiming};
use crate::traffic;
use crate::traffic::{ReuseFetches, Traffic};
use iconv_core::ConvPass;
use iconv_tensor::ConvShape;
use iconv_trace::TraceSink;
use iconv_workloads::Model;
use std::fmt;

/// The GPU convolution algorithms compared in Figs. 2a, 4a, 17 and 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuAlgo {
    /// cuDNN's `IMPLICIT_PRECOMP_GEMM` proxy: implicit channel-last im2col
    /// staging input regions in shared memory (Lym-et-al. structure).
    CudnnImplicit,
    /// Our block-level implicit channel-first im2col; `reuse` enables the
    /// inter-tile reordering of Sec. V.
    ChannelFirst {
        /// Enable the inter-tile reuse reordering.
        reuse: bool,
    },
    /// Explicit im2col: a bandwidth-bound transform kernel followed by a
    /// plain GEMM over the materialized matrix.
    ExplicitIm2col,
    /// A plain GEMM of the lowered dimensions — not a convolution at all,
    /// the Fig. 4 "GEMM" reference bars.
    GemmEquivalent,
    /// Dukhan's indirect convolution: the implicit channel-first schedule
    /// fed through a pointer table. DRAM adds the pointer bytes, and every
    /// block pays a per-tap pointer dereference the implicit address
    /// generation computes for free.
    Indirect,
}

impl fmt::Display for GpuAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuAlgo::CudnnImplicit => write!(f, "cudnn-implicit"),
            GpuAlgo::ChannelFirst { reuse: true } => write!(f, "channel-first+reuse"),
            GpuAlgo::ChannelFirst { reuse: false } => write!(f, "channel-first"),
            GpuAlgo::ExplicitIm2col => write!(f, "explicit-im2col"),
            GpuAlgo::GemmEquivalent => write!(f, "gemm-equivalent"),
            GpuAlgo::Indirect => write!(f, "indirect"),
        }
    }
}

/// Timing of one conv layer under one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuLayerReport {
    /// Layer identifier.
    pub name: String,
    /// Algorithm used.
    pub algo: GpuAlgo,
    /// Kernel timing (for explicit: transform + GEMM combined).
    pub timing: KernelTiming,
    /// Cycles of the explicit transform alone (zero for implicit).
    pub transform_cycles: f64,
    /// Useful convolution FLOPs (excludes K-padding waste).
    pub conv_flops: u64,
}

impl GpuLayerReport {
    /// Achieved TFLOPS over *useful* conv FLOPs.
    pub fn tflops(&self, cfg: &GpuConfig) -> f64 {
        if self.timing.cycles == 0.0 {
            return 0.0;
        }
        self.conv_flops as f64 / cfg.cycles_to_seconds(self.timing.cycles) / 1e12
    }

    /// Wall-clock seconds.
    pub fn seconds(&self, cfg: &GpuConfig) -> f64 {
        cfg.cycles_to_seconds(self.timing.cycles)
    }
}

/// The GPU simulator.
#[derive(Debug, Clone, Copy)]
pub struct GpuSim {
    config: GpuConfig,
}

impl GpuSim {
    /// Create a simulator over `config`.
    pub fn new(config: GpuConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Simulate one layer under `algo`.
    pub fn simulate_conv(&self, name: &str, shape: &ConvShape, algo: GpuAlgo) -> GpuLayerReport {
        self.simulate_conv_shared(name, shape, algo, &mut ReuseFetches::new(*shape))
    }

    /// [`GpuSim::simulate_conv`], taking the reuse-ordered fetch count from
    /// `fetches` when an earlier estimate of the same layer already counted
    /// it for this output tile. A design-space search hands one
    /// [`ReuseFetches`] to all its GPU candidates, so the channel-first
    /// reuse and indirect estimates that block the layer alike count its
    /// traffic once. The report is identical to a lone `simulate_conv`.
    pub fn simulate_conv_shared(
        &self,
        name: &str,
        shape: &ConvShape,
        algo: GpuAlgo,
        fetches: &mut ReuseFetches,
    ) -> GpuLayerReport {
        self.simulate(name, shape, ConvPass::Forward, algo, fetches)
    }

    /// Simulate one convolution pass (forward, wgrad, dgrad, or transposed
    /// convolution) under `algo`: the pass's GEMM view (see
    /// [`ConvPass::gemm_mnk`]) over the corresponding tensor traffic.
    pub fn simulate_pass(
        &self,
        name: &str,
        shape: &ConvShape,
        pass: ConvPass,
        algo: GpuAlgo,
    ) -> GpuLayerReport {
        self.simulate(name, shape, pass, algo, &mut ReuseFetches::new(*shape))
    }

    /// The one cost path behind every (pass, algorithm) pair.
    fn simulate(
        &self,
        name: &str,
        shape: &ConvShape,
        pass: ConvPass,
        algo: GpuAlgo,
        fetches: &mut ReuseFetches,
    ) -> GpuLayerReport {
        let cfg = &self.config;
        let (m, n, k_view) = pass.gemm_mnk(shape);
        let (timing, transform_cycles) = match algo {
            GpuAlgo::CudnnImplicit => {
                let t = self.implicit_traffic(shape, pass, algo, fetches);
                let k = self.k_padded(shape, pass, false);
                // Strided access breaks the conflict-free shared-memory
                // layout the channel-last design relies on (Lym et al.
                // lay the IFMap out offline for unit stride): consecutive
                // lanes hit banks `stride` apart, serializing the fill. A
                // backward gather scatters the same way: dgrad's dilation
                // holes and wgrad's strided windows. Calibrated against
                // the paper's Fig. 4a degradations. 1x1 filters gather
                // whole channel vectors per pixel and need no
                // window-overlap routing, so they escape the conflict
                // serialization.
                let conflicts = if shape.hf * shape.wf > 1 {
                    ((shape.stride_h * shape.stride_w) as f64).min(3.0)
                } else {
                    1.0
                };
                // Conflicted banks also delay operand delivery into the
                // tensor cores (load-use stalls), throttling compute by a
                // shallower factor than the fill itself.
                let sw = conflicts.powf(0.25).recip();
                (
                    crate::kernel::time_kernel_with_penalty(cfg, m, n, k, &t, sw, conflicts),
                    0.0,
                )
            }
            GpuAlgo::ChannelFirst { .. } => {
                let t = self.implicit_traffic(shape, pass, algo, fetches);
                let k = self.k_padded(shape, pass, true);
                (
                    time_kernel(cfg, m, n, k, &t, cfg.sw_pipeline_efficiency),
                    0.0,
                )
            }
            GpuAlgo::GemmEquivalent => {
                let t = traffic::view_gemm(cfg, m, n, k_view);
                let k = self.k_padded(shape, pass, false);
                (time_kernel(cfg, m, n, k, &t, 1.0), 0.0)
            }
            GpuAlgo::ExplicitIm2col => {
                let t = traffic::view_gemm(cfg, m, n, k_view);
                let k = self.k_padded(shape, pass, false);
                let mut timing = time_kernel(cfg, m, n, k, &t, 1.0);
                let transform = self.transform_cycles(shape, pass);
                timing.cycles += transform;
                timing.memory_cycles += transform;
                (timing, transform)
            }
            GpuAlgo::Indirect => {
                let t = self.implicit_traffic(shape, pass, algo, fetches);
                let k = self.k_padded(shape, pass, true);
                (self.apply_indirect(shape, pass, t, m, n, k), 0.0)
            }
        };
        GpuLayerReport {
            name: name.to_string(),
            algo,
            timing,
            transform_cycles,
            conv_flops: shape.flops(),
        }
    }

    /// Global-memory traffic of an implicit schedule. Forward blocks stage
    /// the input region (cuDNN) or fetch per tap (channel-first, and the
    /// indirect schedule with reuse); below the WMMA fragment size the
    /// packed-tap kernel stages whole input rows instead, since per-pixel
    /// vectors would be sub-sector fetches and its precomputed per-tap
    /// addressing keeps the staging conflict-free. Every other pass streams
    /// its gathered tensor straight from DRAM.
    fn implicit_traffic(
        &self,
        shape: &ConvShape,
        pass: ConvPass,
        algo: GpuAlgo,
        fetches: &mut ReuseFetches,
    ) -> Traffic {
        let cfg = &self.config;
        let reuse = match algo {
            GpuAlgo::ChannelFirst { reuse } => reuse,
            _ => true,
        };
        match pass {
            ConvPass::Forward if algo != GpuAlgo::CudnnImplicit && shape.ci >= 16 => {
                traffic::channel_first(cfg, shape, reuse, fetches)
            }
            ConvPass::Forward => traffic::channel_last(cfg, shape),
            _ => traffic::pass_implicit(cfg, shape, pass),
        }
    }

    /// K-dimension of a pass's GEMM view as the schedule pads it. Per-tap
    /// schedules pad each tap's gathered channels (`Ci` forward, `Co` for
    /// dgrad and transpose) to the WMMA fragment granularity (16). Below
    /// the fragment size consecutive taps pack into shared fragments (the
    /// GPU analogue of the TPU multi-tile merge), and wgrad reduces over
    /// pixels with no tap structure, so both pad the whole reduction once.
    /// Channel-last and the dense GEMMs pad the whole K to the slice width.
    fn k_padded(&self, shape: &ConvShape, pass: ConvPass, per_tap: bool) -> usize {
        let (_, _, k) = pass.gemm_mnk(shape);
        let (_, channels, _) = pass.gathered(shape);
        if per_tap && pass != ConvPass::Wgrad && channels >= 16 {
            shape.hf * shape.wf * channels.div_ceil(16) * 16
        } else {
            let granule = if per_tap { 16 } else { self.config.block.bk };
            k.div_ceil(granule) * granule
        }
    }

    /// The explicit transform kernel: bandwidth-bound. The lowered-view
    /// write dominates and streams sequentially (for dgrad, the
    /// zero-dilated rotated-filter matrix); the source gather reads whole
    /// rows through the cache hierarchy, so it is charged at row-run
    /// efficiency rather than per-window.
    fn transform_cycles(&self, shape: &ConvShape, pass: ConvPass) -> f64 {
        let cfg = &self.config;
        let dram = iconv_dram::DramModel::new(cfg.dram);
        let lowered = pass.lowered_view_elems(shape) as u64 * cfg.elem_bytes;
        let (src_elems, channels, width) = pass.gathered(shape);
        let src = src_elems as u64 * cfg.elem_bytes;
        let row_run = (width * channels) as u64 * cfg.elem_bytes;
        lowered as f64 / (cfg.dram.bytes_per_cycle * dram.efficiency(4096))
            + src as f64 / (cfg.dram.bytes_per_cycle * dram.efficiency(row_run))
            + cfg.launch_cycles as f64
    }

    /// Layer the indirect-convolution costs onto an implicit schedule: the
    /// pointer table adds its bytes to the gathered side, and each block
    /// serializes one pointer dereference per filter tap before its tensor
    /// cores can start.
    fn apply_indirect(
        &self,
        shape: &ConvShape,
        pass: ConvPass,
        base: Traffic,
        m: usize,
        n: usize,
        k: usize,
    ) -> KernelTiming {
        const PTR_BYTES: u64 = 8;
        let cfg = &self.config;
        let t = Traffic {
            a_bytes: base.a_bytes + pass.indirect_ptr_entries(shape) as u64 * PTR_BYTES,
            ..base
        };
        let mut timing = time_kernel(cfg, m, n, k, &t, cfg.sw_pipeline_efficiency);
        let deref = (timing.blocks * (shape.hf * shape.wf) as u64) as f64;
        timing.cycles += deref;
        timing.memory_cycles += deref;
        timing
    }

    /// [`GpuSim::simulate_conv`] with kernel stages emitted into `sink`:
    /// a `launch`/`transform`/`exec` span partition of the (rounded) total
    /// on a per-layer track, the overlapped compute and DRAM-traffic
    /// durations on detail tracks, and `gpusim.*` counters.
    pub fn simulate_conv_traced(
        &self,
        name: &str,
        shape: &ConvShape,
        algo: GpuAlgo,
        sink: &mut dyn TraceSink,
    ) -> GpuLayerReport {
        let rep = self.simulate_conv(name, shape, algo);
        let total = rep.timing.cycles.round() as u64;
        // Clamp each stage in turn so the three spans partition the rounded
        // total exactly even at rounding boundaries.
        let launch = self.config.launch_cycles.min(total);
        let transform = (rep.transform_cycles.round() as u64).min(total - launch);
        let exec = total - launch - transform;
        if sink.enabled() {
            let track = format!("{name} [{algo}]");
            sink.span(&track, "launch", 0, launch);
            sink.span(&track, "transform", launch, transform);
            sink.span(&track, "exec", launch + transform, exec);
            let compute = rep.timing.compute_cycles.round() as u64;
            let memory = rep.timing.memory_cycles.round() as u64;
            sink.span(
                &format!("{track} compute"),
                "tensor-core",
                launch + transform,
                compute,
            );
            sink.span(
                &format!("{track} memory"),
                "dram-traffic",
                launch + transform,
                memory,
            );
            sink.counter("gpusim.layers", 1);
            sink.counter("gpusim.cycles", total);
            sink.counter("gpusim.launch_cycles", launch);
            sink.counter("gpusim.transform_cycles", transform);
            sink.counter("gpusim.compute_cycles", compute);
            sink.counter("gpusim.memory_cycles", memory);
            sink.counter("gpusim.blocks", rep.timing.blocks);
            sink.counter("gpusim.flops", rep.timing.flops);
        }
        rep
    }

    /// Simulate every layer of a model; returns per-layer reports (paired
    /// with their occurrence counts) in execution order.
    pub fn simulate_model(&self, model: &Model, algo: GpuAlgo) -> Vec<(GpuLayerReport, usize)> {
        model
            .layers
            .iter()
            .map(|l| (self.simulate_conv(&l.name, &l.shape, algo), l.count))
            .collect()
    }

    /// Total seconds for a model under `algo`.
    pub fn model_seconds(&self, model: &Model, algo: GpuAlgo) -> f64 {
        self.simulate_model(model, algo)
            .iter()
            .map(|(r, k)| r.seconds(&self.config) * *k as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> GpuSim {
        GpuSim::new(GpuConfig::v100())
    }

    fn layer(ci: usize, hw: usize, co: usize, f: usize, stride: usize) -> ConvShape {
        ConvShape::square(8, ci, hw, co, f, stride, f / 2).unwrap()
    }

    #[test]
    fn cudnn_proxy_degrades_with_stride() {
        // Fig. 4a: channel-last TFLOPS drop ~30% at stride 2, more at 4.
        let s = sim();
        let t1 = s
            .simulate_conv("l", &layer(128, 56, 128, 3, 1), GpuAlgo::CudnnImplicit)
            .tflops(s.config());
        let t2 = s
            .simulate_conv("l", &layer(128, 56, 128, 3, 2), GpuAlgo::CudnnImplicit)
            .tflops(s.config());
        let drop = 1.0 - t2 / t1;
        assert!(
            drop > 0.15,
            "stride-2 drop only {drop:.2} ({t1:.1} -> {t2:.1})"
        );
    }

    #[test]
    fn channel_first_degrades_less_than_cudnn_under_stride() {
        // On the GPU ours is not perfectly stride-flat (that is the TPU
        // result, Fig. 4b) — but it must degrade substantially less than
        // the channel-last proxy (Fig. 18a).
        let s = sim();
        let ours = GpuAlgo::ChannelFirst { reuse: true };
        let t1 = s
            .simulate_conv("l", &layer(128, 56, 128, 3, 1), ours)
            .tflops(s.config());
        let t2 = s
            .simulate_conv("l", &layer(128, 56, 128, 3, 2), ours)
            .tflops(s.config());
        let our_drop = 1.0 - t2 / t1;
        let c1 = s
            .simulate_conv("l", &layer(128, 56, 128, 3, 1), GpuAlgo::CudnnImplicit)
            .tflops(s.config());
        let c2 = s
            .simulate_conv("l", &layer(128, 56, 128, 3, 2), GpuAlgo::CudnnImplicit)
            .tflops(s.config());
        let cudnn_drop = 1.0 - c2 / c1;
        assert!(
            our_drop < 0.45,
            "stride-2 drop {our_drop:.2} ({t1:.1} -> {t2:.1})"
        );
        assert!(
            our_drop < cudnn_drop,
            "ours {our_drop:.2} vs cudnn {cudnn_drop:.2}"
        );
    }

    #[test]
    fn ours_beats_cudnn_on_strided_layers() {
        // Fig. 18a: ours faster where stride > 1.
        let s = sim();
        let shape = layer(128, 56, 128, 3, 2);
        let ours = s.simulate_conv("l", &shape, GpuAlgo::ChannelFirst { reuse: true });
        let cudnn = s.simulate_conv("l", &shape, GpuAlgo::CudnnImplicit);
        assert!(
            ours.timing.cycles < cudnn.timing.cycles,
            "ours {} vs cudnn {}",
            ours.timing.cycles,
            cudnn.timing.cycles
        );
    }

    #[test]
    fn near_parity_on_dense_layers() {
        // Fig. 17: within a few percent at stride 1.
        let s = sim();
        let shape = layer(512, 14, 512, 3, 1);
        let ours = s.simulate_conv("l", &shape, GpuAlgo::ChannelFirst { reuse: true });
        let cudnn = s.simulate_conv("l", &shape, GpuAlgo::CudnnImplicit);
        let ratio = ours.timing.cycles / cudnn.timing.cycles;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn explicit_slower_than_implicit() {
        // Fig. 2a: explicit ≈ 25-30% slower; its GEMM portion ≈ the implicit
        // time.
        let s = sim();
        let shape = layer(512, 14, 512, 3, 1);
        let exp = s.simulate_conv("l", &shape, GpuAlgo::ExplicitIm2col);
        let imp = s.simulate_conv("l", &shape, GpuAlgo::CudnnImplicit);
        assert!(exp.timing.cycles > imp.timing.cycles);
        assert!(exp.transform_cycles > 0.0);
        let gemm_only = exp.timing.cycles - exp.transform_cycles;
        let ratio = gemm_only / imp.timing.cycles;
        assert!((0.6..1.4).contains(&ratio), "GEMM-portion ratio {ratio}");
    }

    #[test]
    fn gemm_reference_faster_than_implicit_under_stride() {
        // Fig. 4a: the equivalent GEMM's TFLOPS stay high under stride.
        let s = sim();
        let shape = layer(128, 56, 128, 3, 4);
        let gemm = s.simulate_conv("l", &shape, GpuAlgo::GemmEquivalent);
        let cudnn = s.simulate_conv("l", &shape, GpuAlgo::CudnnImplicit);
        assert!(gemm.tflops(s.config()) > cudnn.tflops(s.config()));
    }

    #[test]
    fn reuse_helps_memory_bound_layers() {
        // Fig. 18b: the reordering speeds up layers whose fills are not
        // fully overlapped.
        let s = sim();
        let shape = layer(32, 112, 32, 3, 2); // shallow channels: memory bound
        let with = s.simulate_conv("l", &shape, GpuAlgo::ChannelFirst { reuse: true });
        let without = s.simulate_conv("l", &shape, GpuAlgo::ChannelFirst { reuse: false });
        assert!(
            with.timing.cycles < without.timing.cycles,
            "with {} vs without {}",
            with.timing.cycles,
            without.timing.cycles
        );
    }

    #[test]
    fn traced_stages_partition_rounded_cycles() {
        use iconv_trace::Recorder;
        let s = sim();
        let shape = layer(128, 28, 128, 3, 2);
        for algo in [
            GpuAlgo::CudnnImplicit,
            GpuAlgo::ChannelFirst { reuse: true },
            GpuAlgo::ExplicitIm2col,
            GpuAlgo::GemmEquivalent,
            GpuAlgo::Indirect,
        ] {
            let mut rec = Recorder::new();
            let rep = s.simulate_conv_traced("l", &shape, algo, &mut rec);
            let track = format!("l [{algo}]");
            assert_eq!(
                rec.track_total(&track),
                rep.timing.cycles.round() as u64,
                "{algo}"
            );
            assert_eq!(rec.counters()["gpusim.blocks"], rep.timing.blocks);
            // Traced and plain runs agree.
            assert_eq!(rep, s.simulate_conv("l", &shape, algo));
        }
    }

    #[test]
    fn model_simulation_runs() {
        let s = sim();
        let m = iconv_workloads::alexnet(8);
        let secs = s.model_seconds(&m, GpuAlgo::CudnnImplicit);
        assert!(secs > 0.0 && secs < 1.0, "{secs}");
    }

    const ALL_ALGOS: [GpuAlgo; 6] = [
        GpuAlgo::CudnnImplicit,
        GpuAlgo::ChannelFirst { reuse: true },
        GpuAlgo::ChannelFirst { reuse: false },
        GpuAlgo::ExplicitIm2col,
        GpuAlgo::GemmEquivalent,
        GpuAlgo::Indirect,
    ];

    #[test]
    fn forward_pass_is_simulate_conv() {
        let s = sim();
        let shape = layer(128, 28, 128, 3, 2);
        for algo in ALL_ALGOS {
            assert_eq!(
                s.simulate_pass("l", &shape, iconv_core::ConvPass::Forward, algo),
                s.simulate_conv("l", &shape, algo),
                "{algo}"
            );
        }
    }

    #[test]
    fn every_pass_times_every_algo() {
        let s = sim();
        for shape in [layer(96, 27, 256, 5, 2), layer(3, 224, 64, 7, 2)] {
            for pass in iconv_core::ALL_PASSES {
                for algo in ALL_ALGOS {
                    let rep = s.simulate_pass("l", &shape, pass, algo);
                    assert!(
                        rep.timing.cycles.is_finite() && rep.timing.cycles > 0.0,
                        "{pass}/{algo}: {}",
                        rep.timing.cycles
                    );
                    assert_eq!(rep.conv_flops, shape.flops(), "{pass}/{algo}");
                }
            }
        }
    }

    #[test]
    fn transpose_pass_costs_exactly_like_dgrad() {
        let s = sim();
        let shape = layer(128, 28, 256, 3, 2);
        for algo in ALL_ALGOS {
            let d = s.simulate_pass("l", &shape, iconv_core::ConvPass::Dgrad, algo);
            let t = s.simulate_pass("l", &shape, iconv_core::ConvPass::Transpose, algo);
            assert_eq!(d.timing, t.timing, "{algo}");
        }
    }

    #[test]
    fn indirect_traffic_sits_between_implicit_and_explicit() {
        let s = sim();
        let cfg = s.config();
        let shape = layer(128, 28, 256, 3, 1);
        for pass in iconv_core::ALL_PASSES {
            let (m, n, k_view) = pass.gemm_mnk(&shape);
            let imp = traffic::pass_implicit(cfg, &shape, pass).total();
            let ptr = pass.indirect_ptr_entries(&shape) as u64 * 8;
            let ind = imp + ptr;
            // Explicit lowers the view to DRAM and reads it back on top of
            // the GEMM's own streams.
            let exp = traffic::view_gemm(cfg, m, n, k_view).total()
                + pass.lowered_view_elems(&shape) as u64 * cfg.elem_bytes;
            assert!(ind > imp, "{pass}: pointer table adds traffic");
            assert!(ind < exp, "{pass}: indirect {ind} vs explicit {exp}");
        }
    }

    #[test]
    fn indirect_dereference_slows_the_kernel() {
        let s = sim();
        let shape = layer(128, 28, 256, 3, 1);
        for pass in iconv_core::ALL_PASSES {
            let ind = s.simulate_pass("l", &shape, pass, GpuAlgo::Indirect);
            let imp = s.simulate_pass("l", &shape, pass, GpuAlgo::ChannelFirst { reuse: true });
            assert!(
                ind.timing.cycles > imp.timing.cycles,
                "{pass}: indirect {} vs implicit {}",
                ind.timing.cycles,
                imp.timing.cycles
            );
        }
    }
}
