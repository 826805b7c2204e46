//! Where estimates come from.
//!
//! [`estimate`] is the one evaluator: every consumer that prices a
//! [`Work`] in-process (the serve engine, [`InProcessSource`], the tune
//! proptests) calls it. The bench runners and the figure reductions
//! measure through one trait, [`CycleSource`]; [`InProcessSource`] is the
//! in-process implementation every other source must agree with. The tune
//! search calls the same simulators directly (see [`crate::search`]), and
//! the tune proptests pin it bit for bit to this evaluator's per-candidate
//! estimates.

use iconv_api::proto::{Estimate, GpuEstimate, TpuEstimate};
use iconv_api::{resolve_gpu, resolve_tpu, Work};
use iconv_core::ConvPass;
use iconv_gpusim::{GpuLayerReport, GpuSim};
use iconv_tpusim::{LayerReport, Simulator};

use crate::search::tune;

/// Price one unit of work on the simulator it names.
///
/// A pure function of `work` — no clock, no randomness, no ambient
/// configuration — which is what makes a cached answer and a fresh one
/// byte-identical. A forward convolution is the forward pass, so the
/// simulators are called in four places: a TPU pass, a TPU GEMM, a GPU
/// pass and the tune search.
pub fn estimate(work: &Work) -> Estimate {
    match *work {
        Work::TpuConv { shape, mode, hw } => estimate(&Work::TpuPass {
            shape,
            pass: ConvPass::Forward,
            mode,
            hw,
        }),
        Work::GpuConv { shape, algo, hw } => estimate(&Work::GpuPass {
            shape,
            pass: ConvPass::Forward,
            algo,
            hw,
        }),
        Work::TpuPass {
            shape,
            pass,
            mode,
            hw,
        } => tpu(&Simulator::new(resolve_tpu(&hw)).simulate_pass("estimate", &shape, pass, mode)),
        Work::TpuGemm { m, n, k, hw } => {
            tpu(&Simulator::new(resolve_tpu(&hw)).simulate_gemm("estimate", m, n, k))
        }
        Work::GpuPass {
            shape,
            pass,
            algo,
            hw,
        } => gpu(&GpuSim::new(resolve_gpu(&hw)).simulate_pass("estimate", &shape, pass, algo)),
        // The search measures candidates sequentially on the calling
        // thread, so its answer is independent of any worker count.
        Work::Tune { shape, target } => Estimate::Tune(tune(&shape, target)),
    }
}

fn tpu(rep: &LayerReport) -> Estimate {
    Estimate::Tpu(TpuEstimate {
        cycles: rep.cycles,
        compute_cycles: rep.compute_cycles,
        exposed_memory_cycles: rep.exposed_memory_cycles,
        dram_bytes: rep.dram_bytes,
        workspace_bytes: rep.workspace_bytes,
        flops: rep.flops,
        dispatch: rep.phases.dispatch,
        first_fill: rep.phases.first_fill,
        steady: rep.phases.steady,
    })
}

fn gpu(rep: &GpuLayerReport) -> Estimate {
    Estimate::Gpu(GpuEstimate {
        cycles: rep.timing.cycles,
        compute_cycles: rep.timing.compute_cycles,
        memory_cycles: rep.timing.memory_cycles,
        transform_cycles: rep.transform_cycles,
        blocks: rep.timing.blocks,
        flops: rep.conv_flops,
    })
}

/// Where layer estimates come from: the in-process evaluator, or a remote
/// `iconv-serve` instance (`expall --via-serve`).
///
/// Implementations must be *bit*-deterministic: the same query returns the
/// same [`Estimate`] every time, so the summary JSON is byte-identical
/// whichever source backs it. GPU estimates carry raw `f64`s
/// (`KernelTiming::cycles` and its parts) because downstream arithmetic
/// must replay the in-process operation sequence exactly.
///
/// The vocabulary is [`iconv_api::Work`]: one `estimate` call per unit, or
/// a whole table at once via [`estimate_many`](CycleSource::estimate_many)
/// — which a networked source can override to pipeline a single batched
/// request instead of `works.len()` round trips.
pub trait CycleSource: Sync {
    /// Estimate one unit of work.
    fn estimate(&self, work: &Work) -> Estimate;

    /// Estimate a whole table, preserving input order. The default fans
    /// the per-item [`estimate`](CycleSource::estimate) over `jobs`
    /// workers; any override must return exactly the same values in the
    /// same order (pinned by the `estimate_many` contract test).
    fn estimate_many(&self, jobs: usize, works: &[Work]) -> Vec<Estimate> {
        iconv_par::par_map_jobs(jobs, works, |w| self.estimate(w))
    }
}

/// The in-process source: the [`estimate`] evaluator itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessSource;

impl CycleSource for InProcessSource {
    fn estimate(&self, work: &Work) -> Estimate {
        estimate(work)
    }
}
