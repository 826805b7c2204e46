//! Where cycle estimates come from.
//!
//! The bench runners and the figure reductions measure through one trait,
//! [`CycleSource`]; [`InProcessSource`] is the in-process implementation
//! every other source must agree with. The tune search calls the same
//! simulators directly (see [`crate::search`]), and the tune proptests pin
//! it bit for bit to this source's per-candidate estimates.

use iconv_api::{resolve_gpu, resolve_tpu, GpuHwSpec, TpuHwSpec, Work};
use iconv_gpusim::{GpuAlgo, GpuConfig, GpuSim};
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, Simulator, TpuConfig};

use crate::search::tune;

/// A cycle total in the currency of whichever engine produced it: TPU
/// estimates are exact integers, GPU estimates are analytic `f64`s whose
/// bit pattern must survive any transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CycleCount {
    /// Cycle-exact TPU total.
    Tpu(u64),
    /// Analytic GPU total (`KernelTiming::cycles`, bit-exact).
    Gpu(f64),
    /// Best-config total from a design-space search (`Work::Tune`). TPU
    /// winners cross as exact integral `f64`s; GPU winners are bit-exact.
    Tuned(f64),
}

impl CycleCount {
    /// The TPU total.
    ///
    /// # Panics
    ///
    /// Panics when the estimate came from another engine — the figure
    /// reductions know statically which engine each work targets, so a
    /// mismatch is a bug, not a recoverable condition.
    pub fn tpu(self) -> u64 {
        match self {
            CycleCount::Tpu(c) => c,
            CycleCount::Gpu(c) => panic!("expected a TPU cycle count, got GPU {c}"),
            CycleCount::Tuned(c) => panic!("expected a TPU cycle count, got tuned {c}"),
        }
    }

    /// The GPU total.
    ///
    /// # Panics
    ///
    /// Panics when the estimate came from another engine.
    pub fn gpu(self) -> f64 {
        match self {
            CycleCount::Gpu(c) => c,
            CycleCount::Tpu(c) => panic!("expected a GPU cycle count, got TPU {c}"),
            CycleCount::Tuned(c) => panic!("expected a GPU cycle count, got tuned {c}"),
        }
    }

    /// The tuned total.
    ///
    /// # Panics
    ///
    /// Panics when the estimate did not come from a `Work::Tune` search.
    pub fn tuned(self) -> f64 {
        match self {
            CycleCount::Tuned(c) => c,
            CycleCount::Tpu(c) => panic!("expected a tuned cycle count, got TPU {c}"),
            CycleCount::Gpu(c) => panic!("expected a tuned cycle count, got GPU {c}"),
        }
    }

    /// The total as an `f64` in the measuring engine's own currency — the
    /// comparison currency the tuner ranks candidates in (TPU integers
    /// below 2^53 convert exactly).
    pub fn as_f64(self) -> f64 {
        match self {
            CycleCount::Tpu(c) => c as f64,
            CycleCount::Gpu(c) | CycleCount::Tuned(c) => c,
        }
    }
}

/// Where layer estimates come from: the in-process simulators, or a remote
/// `iconv-serve` instance (`expall --via-serve`).
///
/// Implementations must be *bit*-deterministic: the same query returns the
/// same value every time, so the summary JSON is byte-identical whichever
/// source backs it. GPU estimates carry the raw `f64` total cycles
/// (`KernelTiming::cycles`) because downstream arithmetic must replay the
/// in-process operation sequence exactly.
///
/// The vocabulary is [`iconv_api::Work`]: one `estimate` call per unit, or
/// a whole table at once via [`estimate_many`](CycleSource::estimate_many)
/// — which a networked source can override to pipeline a single batched
/// request instead of `works.len()` round trips.
pub trait CycleSource: Sync {
    /// Estimate one unit of work.
    fn estimate(&self, work: &Work) -> CycleCount;

    /// Estimate a whole table, preserving input order. The default fans
    /// the per-item [`estimate`](CycleSource::estimate) over `jobs`
    /// workers; any override must return exactly the same values in the
    /// same order (pinned by the `estimate_many` contract test).
    fn estimate_many(&self, jobs: usize, works: &[Work]) -> Vec<CycleCount> {
        iconv_par::par_map_jobs(jobs, works, |w| self.estimate(w))
    }

    /// Total cycles of a TPU convolution under `mode` (default hardware).
    fn tpu_conv_cycles(&self, shape: &ConvShape, mode: SimMode) -> u64 {
        self.estimate(&Work::TpuConv {
            shape: *shape,
            mode,
            hw: TpuHwSpec::default(),
        })
        .tpu()
    }

    /// Total cycles of a TPU GEMM (default hardware).
    fn tpu_gemm_cycles(&self, m: usize, n: usize, k: usize) -> u64 {
        self.estimate(&Work::TpuGemm {
            m,
            n,
            k,
            hw: TpuHwSpec::default(),
        })
        .tpu()
    }

    /// Total cycles of a GPU convolution under `algo` (bit-exact `f64`,
    /// default hardware).
    fn gpu_conv_cycles(&self, shape: &ConvShape, algo: GpuAlgo) -> f64 {
        self.estimate(&Work::GpuConv {
            shape: *shape,
            algo,
            hw: GpuHwSpec::default(),
        })
        .gpu()
    }

    /// Total cycles of a TPU convolution pass under `mode` (default
    /// hardware). `ConvPass::Forward` is exactly
    /// [`tpu_conv_cycles`](CycleSource::tpu_conv_cycles).
    fn tpu_pass_cycles(&self, shape: &ConvShape, pass: iconv_core::ConvPass, mode: SimMode) -> u64 {
        self.estimate(&Work::TpuPass {
            shape: *shape,
            pass,
            mode,
            hw: TpuHwSpec::default(),
        })
        .tpu()
    }

    /// Total cycles of a GPU convolution pass under `algo` (bit-exact
    /// `f64`, default hardware).
    fn gpu_pass_cycles(&self, shape: &ConvShape, pass: iconv_core::ConvPass, algo: GpuAlgo) -> f64 {
        self.estimate(&Work::GpuPass {
            shape: *shape,
            pass,
            algo,
            hw: GpuHwSpec::default(),
        })
        .gpu()
    }
}

/// The in-process source: calls the simulators directly.
pub struct InProcessSource {
    sim: Simulator,
    gpu: GpuSim,
}

impl InProcessSource {
    /// Source over the paper's default TPU-v2 / V100 configurations.
    pub fn new() -> Self {
        Self {
            sim: Simulator::new(TpuConfig::tpu_v2()),
            gpu: GpuSim::new(GpuConfig::v100()),
        }
    }
}

impl Default for InProcessSource {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleSource for InProcessSource {
    fn estimate(&self, work: &Work) -> CycleCount {
        match work {
            Work::TpuConv { shape, mode, hw } => {
                let cycles = if *hw == TpuHwSpec::default() {
                    self.sim.simulate_conv("summary", shape, *mode).cycles
                } else {
                    Simulator::new(resolve_tpu(hw))
                        .simulate_conv("summary", shape, *mode)
                        .cycles
                };
                CycleCount::Tpu(cycles)
            }
            Work::TpuGemm { m, n, k, hw } => {
                let cycles = if *hw == TpuHwSpec::default() {
                    self.sim.simulate_gemm("summary", *m, *n, *k).cycles
                } else {
                    Simulator::new(resolve_tpu(hw))
                        .simulate_gemm("summary", *m, *n, *k)
                        .cycles
                };
                CycleCount::Tpu(cycles)
            }
            Work::TpuPass {
                shape,
                pass,
                mode,
                hw,
            } => {
                let cycles = if *hw == TpuHwSpec::default() {
                    self.sim
                        .simulate_pass("summary", shape, *pass, *mode)
                        .cycles
                } else {
                    Simulator::new(resolve_tpu(hw))
                        .simulate_pass("summary", shape, *pass, *mode)
                        .cycles
                };
                CycleCount::Tpu(cycles)
            }
            Work::GpuConv { shape, algo, hw } => {
                let cycles = if *hw == GpuHwSpec::default() {
                    self.gpu
                        .simulate_conv("summary", shape, *algo)
                        .timing
                        .cycles
                } else {
                    GpuSim::new(resolve_gpu(hw))
                        .simulate_conv("summary", shape, *algo)
                        .timing
                        .cycles
                };
                CycleCount::Gpu(cycles)
            }
            Work::GpuPass {
                shape,
                pass,
                algo,
                hw,
            } => {
                let cycles = if *hw == GpuHwSpec::default() {
                    self.gpu
                        .simulate_pass("summary", shape, *pass, *algo)
                        .timing
                        .cycles
                } else {
                    GpuSim::new(resolve_gpu(hw))
                        .simulate_pass("summary", shape, *pass, *algo)
                        .timing
                        .cycles
                };
                CycleCount::Gpu(cycles)
            }
            Work::Tune { shape, target } => CycleCount::Tuned(tune(shape, *target).tuned_cycles),
        }
    }
}
