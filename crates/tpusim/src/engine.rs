//! The TPUSim engine: phase-level cycle estimates of one TPU core running
//! any convolution pass through implicit channel-first im2col, the explicit
//! and indirect baselines (Fig. 2b), and plain GEMMs.
//!
//! Every estimate is a closed form. A pass streams its GEMM view's rows
//! through weight-stationary array passes, stretched by vector-memory port
//! stalls; the stream, fill/drain and first weight-load terms are
//! `iconv_systolic::gemm_timing`'s double-buffered formula, which that
//! crate checks against its stepped PE grid. DRAM time comes from the
//! run-length-aware `iconv-dram` model. Layers are chunked to fit the
//! double-buffered IFMap budget, and each chunk's DRAM fill overlaps the
//! previous chunk's GEMM: the Fig. 3/8 pipeline.

use crate::config::TpuConfig;
use crate::report::{LayerReport, ModelReport, Phases};
use iconv_core::schedule::tpu_group_size;
use iconv_core::{ConvPass, FilterTile};
use iconv_dram::DramModel;
use iconv_sram::PortStats;
use iconv_tensor::{ConvShape, Layout};
use iconv_trace::{NullSink, TraceSink};
use iconv_workloads::Model;

/// Emit the conserved span partition and the standard per-layer counters
/// for a finished report, and (in debug builds) check the invariants.
fn emit_layer_trace(sink: &mut dyn TraceSink, rep: &LayerReport) {
    debug_assert!(rep.assert_conserved());
    if !sink.enabled() {
        return;
    }
    let p = rep.phases;
    sink.span(&rep.name, "dispatch", 0, p.dispatch);
    sink.span(&rep.name, "ifmap-fill", p.dispatch, p.first_fill);
    sink.span(&rep.name, "steady", p.dispatch + p.first_fill, p.steady);
    sink.counter("tpusim.layers", 1);
    sink.counter("tpusim.cycles", rep.cycles);
    sink.counter("tpusim.dispatch_cycles", p.dispatch);
    sink.counter("tpusim.first_fill_cycles", p.first_fill);
    sink.counter("tpusim.steady_cycles", p.steady);
    sink.counter("tpusim.compute_cycles", rep.compute_cycles);
    sink.counter("tpusim.exposed_memory_cycles", rep.exposed_memory_cycles);
    sink.counter("tpusim.dram_bytes", rep.dram_bytes);
    rep.sram.record(sink);
}

/// How a convolution is lowered for simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// The paper's implicit channel-first algorithm; `group_size = None`
    /// selects the TPU strategy `min(R/Ci, Wf)`.
    #[default]
    ChannelFirst,
    /// Channel-first with a forced multi-tile group size (Fig. 14a sweep).
    ChannelFirstGrouped(usize),
    /// Explicit im2col: a memory-bound lowering pass, then a GEMM over the
    /// materialized matrix (the Fig. 2b baseline).
    Explicit,
    /// Dukhan's indirect-convolution baseline: the implicit channel-first
    /// schedule fed through a pointer table instead of address generation.
    /// DRAM traffic is the tensor footprint plus the pointer bytes, and
    /// every row tile pays a per-tap pointer-dereference dispatch cost.
    Indirect,
}

/// The simulator: immutable configuration plus per-call simulation.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: TpuConfig,
    dram: DramModel,
}

impl Simulator {
    /// Create a simulator for `config`.
    pub fn new(config: TpuConfig) -> Self {
        Self {
            dram: DramModel::new(config.dram),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TpuConfig {
        &self.config
    }

    /// Elements packed per vector-memory word access for this layer's
    /// stream: the batch dimension fills the word (`HWCN`); when the batch
    /// is shallow but the layer is dense (`stride_w = 1`), consecutive
    /// pixels pack instead.
    fn word_packing(&self, shape: &ConvShape) -> usize {
        let w = self.config.vector_mem.word_elems;
        if shape.n >= w || (shape.stride_w == 1 && shape.dil_w == 1) {
            w
        } else {
            // `n` is validated non-zero by `ConvShapeBuilder::build`.
            shape.n
        }
    }

    /// The bytes of the tensor `pass` gathers and the DRAM run length its
    /// layout gives that gather. The backward passes gather the
    /// output-side tensor, whose stride-dilated view scatters exactly like
    /// a strided forward gather.
    fn gather(&self, shape: &ConvShape, pass: ConvPass) -> (u64, u64) {
        let eb = self.config.vector_mem.elem_bytes as u64;
        let (elems, channels, width) = pass.gathered(shape);
        // HWCN/NHWC: channels (× batch for HWCN) of one pixel are
        // contiguous; CHW layouts: only the width dimension is. Dense-width
        // layers extend the run across the row's pixels.
        let per_pixel = match self.config.ifmap_layout {
            Layout::Hwcn => (channels * shape.n) as u64 * eb,
            Layout::Nhwc => channels as u64 * eb,
            Layout::Nchw | Layout::Chwn => eb,
        };
        let run = if shape.stride_w == 1 && shape.dil_w == 1 {
            per_pixel * width as u64
        } else {
            per_pixel
        };
        (elems as u64 * eb, run)
    }

    /// Half the IFMap buffer: what one stage of the double-buffered
    /// pipeline may hold.
    fn stage_budget(&self) -> u64 {
        (self.config.total_sram_bytes() as f64 * self.config.ifmap_buffer_fraction / 2.0) as u64
    }

    /// Close the Fig. 3/8 pipeline over a layer's compute and memory
    /// totals: per-chunk fills overlap the previous chunk's GEMM. Chunk
    /// totals carry their remainders, so no cycle of either phase is lost
    /// and memory stays visible even when `mem < chunks`; the first
    /// chunk's fill, the largest, is the exposed head. The schedule knob
    /// selects the per-chunk-barrier closed form or the double-buffered
    /// overlap. Returns the phases and the exposed memory cycles.
    fn pipeline(&self, compute: u64, mem: u64, chunks: u64) -> (Phases, u64) {
        let first_fill = mem.div_ceil(chunks);
        let steady = self.config.schedule.steady_cycles(compute, mem, chunks);
        // `steady ≥ compute` by construction, so `exposed` never saturates.
        debug_assert!(first_fill + steady >= compute);
        let phases = Phases {
            dispatch: self.config.dispatch_cycles,
            first_fill,
            steady,
        };
        (phases, (first_fill + steady).saturating_sub(compute))
    }

    /// Simulate one convolution layer: [`Simulator::simulate_pass`] with
    /// [`ConvPass::Forward`].
    pub fn simulate_conv(&self, name: &str, shape: &ConvShape, mode: SimMode) -> LayerReport {
        self.simulate_conv_traced(name, shape, mode, &mut NullSink)
    }

    /// Simulate one convolution layer, emitting phase spans (a conserved
    /// partition of `cycles` on a track named after the layer) plus
    /// breakdown counters into `sink`.
    pub fn simulate_conv_traced(
        &self,
        name: &str,
        shape: &ConvShape,
        mode: SimMode,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        self.simulate_pass_traced(name, shape, ConvPass::Forward, mode, sink)
    }

    /// Simulate one convolution pass (forward, wgrad, dgrad, or transposed
    /// convolution) of the layer described by `shape` under `mode`.
    pub fn simulate_pass(
        &self,
        name: &str,
        shape: &ConvShape,
        pass: ConvPass,
        mode: SimMode,
    ) -> LayerReport {
        self.simulate_pass_traced(name, shape, pass, mode, &mut NullSink)
    }

    /// [`Simulator::simulate_pass`] with conserved phase spans and counters
    /// emitted into `sink`.
    pub fn simulate_pass_traced(
        &self,
        name: &str,
        shape: &ConvShape,
        pass: ConvPass,
        mode: SimMode,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        let rep = match mode {
            SimMode::ChannelFirst => self.simulate_implicit(name, shape, pass, None, sink),
            SimMode::ChannelFirstGrouped(g) => {
                self.simulate_implicit(name, shape, pass, Some(g), sink)
            }
            SimMode::Explicit => self.simulate_explicit(name, shape, pass, sink),
            SimMode::Indirect => {
                let rep = self.simulate_implicit(name, shape, pass, None, sink);
                self.apply_indirect_overhead(rep, shape, pass, sink)
            }
        };
        emit_layer_trace(sink, &rep);
        rep
    }

    /// Implicit channel-first execution of any pass (BP-Im2col): the
    /// address generator gathers the pass's im2col view straight from its
    /// source tensor, so DRAM moves exactly the three tensor footprints.
    ///
    /// Forward gathers the IFMap and packs each filter row's `Wf·Ci`
    /// reduction. dgrad and transpose run the same schedule with the roles
    /// swapped: the gathered operand is the stride-dilated output gradient
    /// (`Co` channels), the resident operand the 180°-rotated filter, and
    /// the stream writes input pixels. wgrad's K runs over the `N·Ho·Wo`
    /// pixels, so taps give no packing trick: it tiles K like a plain GEMM,
    /// with the IFMap gathered on the fly. `group = None` selects the TPU
    /// duplication strategy.
    fn simulate_implicit(
        &self,
        name: &str,
        shape: &ConvShape,
        pass: ConvPass,
        group: Option<usize>,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        let cfg = &self.config;
        let (rows, cols) = (cfg.array.rows, cfg.array.cols);
        let eb = cfg.vector_mem.elem_bytes as u64;
        let (m, out_cols, k) = pass.gemm_mnk(shape);
        // Filter rows, taps per row, and channels each tap reduces over.
        let (filter_rows, taps, channels) = match pass {
            ConvPass::Forward => (shape.hf, shape.wf, shape.ci),
            ConvPass::Wgrad => (1, 1, k),
            ConvPass::Dgrad | ConvPass::Transpose => (shape.hf, shape.wf, shape.co),
        };
        // Duplication cannot usefully exceed what fills the array.
        let group = group
            .unwrap_or_else(|| tpu_group_size(rows, channels, taps))
            .clamp(1, rows.div_ceil(channels));

        // --- Compute phase. With duplication factor `group`, up to
        // `group·channels` K-rows are concurrently resident, so each filter
        // row's `taps·channels` reduction packs the PE rows densely in
        // `ceil(taps·channels / cap)` passes — a tap may straddle two passes
        // (its second residency copy supplies the tail), which is what lets
        // non-dividing channel counts (e.g. Ci = 96) avoid per-tap padding.
        let cap = (group * channels).min(rows).max(1);
        let passes_per_row = (taps * channels).div_ceil(cap) as u64;
        let total_passes = filter_rows as u64 * passes_per_row * out_cols.div_ceil(cols) as u64;
        // Multiple MXUs (TPU-v3) process independent passes concurrently,
        // each pulling its own stream from the shared vector memories.
        let stream_cycles = total_passes.div_ceil(cfg.mxus as u64) * m as u64;
        // Serializer/port contention: per active array, delivering one
        // element per cycle needs `1/packing` reads per cycle; write-back
        // adds `(m·out_cols/rows)/stream/packing` writes per cycle (rare —
        // each output element is written once while inputs are re-read per
        // tap). Demand beyond one access per cycle stalls the stream.
        let packing = self.word_packing(shape);
        let write_elems_per_array = (m * out_cols / rows.max(1)) as f64;
        let port_demand = (1.0 + write_elems_per_array / (stream_cycles.max(1) as f64))
            * cfg.mxus as f64
            / packing as f64;
        let stall = port_demand.max(1.0);
        let compute_cycles = (stream_cycles as f64 * stall).ceil() as u64
            + (rows + cols - 1) as u64 // pipeline fill/drain, exposed once
            + rows as u64; // first weight load (rest double-buffered)

        // --- Memory phase: the pass gathers one tensor at its layout's run
        // length, and streams the filter and the third tensor sequentially.
        let ifmap_bytes = shape.ifmap_elems() as u64 * eb;
        let filter_bytes = shape.filter_elems() as u64 * eb;
        let ofmap_bytes = shape.ofmap_elems() as u64 * eb;
        let (gathered_bytes, run) = self.gather(shape, pass);
        let third_bytes = if pass.gathers_output_side() {
            ifmap_bytes
        } else {
            ofmap_bytes
        };
        let fill = self.dram.transfer_cycles(gathered_bytes, run);
        let weights = self.dram.transfer_cycles(filter_bytes, 4096);
        let third = self.dram.transfer_cycles(third_bytes, 4096);
        let mem_cycles = fill + weights + third;

        // --- Workspace and chunking: the gathered operand's resident tile,
        // duplicated per group member, within the double-buffered budget.
        let workspace_bytes = match pass {
            ConvPass::Forward => self.forward_workspace(shape, group),
            ConvPass::Wgrad => ifmap_bytes,
            ConvPass::Dgrad | ConvPass::Transpose => ofmap_bytes * group as u64,
        };
        let chunks = workspace_bytes
            .div_ceil(self.stage_budget().max(1))
            .max(cfg.min_pipeline_stages);
        let (phases, exposed) = self.pipeline(compute_cycles, mem_cycles, chunks);

        // --- Vector-memory port stats (per-array averages). Reads count
        // every streamed pass, whichever MXU runs it: `stream_cycles` is
        // already divided across the MXUs, which share the ports.
        let row_occ = ((taps * channels) as f64 / (passes_per_row as f64 * rows as f64)).min(1.0);
        let reads = ((total_passes * m as u64) as f64 * row_occ / packing as f64) as u64;
        // One division: `/rows/packing` truncated twice, dropping up to
        // `packing − 1` extra words.
        let writes = (m * out_cols) as u64 / (rows * packing) as u64;
        let col_occ = out_cols as f64 / (out_cols.div_ceil(cols) * cols) as f64;

        // Forward only: the `passes` experiment's counter rollups in
        // `results/summary.json` hold no breakdown for the other passes.
        if pass == ConvPass::Forward && sink.enabled() {
            let stall_extra =
                compute_cycles - stream_cycles - (rows + cols - 1) as u64 - rows as u64;
            // Breakdown counters for the rollups...
            sink.counter("tpusim.dram_fill_cycles", fill);
            sink.counter("tpusim.dram_weight_load_cycles", weights);
            sink.counter("tpusim.dram_writeback_cycles", third);
            sink.counter("tpusim.stream_cycles", stream_cycles);
            sink.counter("tpusim.stall_cycles", stall_extra);
            sink.counter("tpusim.chunks", chunks);
            // ...and detail tracks showing what overlaps inside `steady`:
            // the serialized DRAM stream and the serialized array activity,
            // each drawn from cycle 0 of the layer's local timeline.
            let mem_track = format!("{name} mem");
            sink.span(&mem_track, "ifmap-fill", 0, fill);
            sink.span(&mem_track, "weight-load", fill, weights);
            sink.span(&mem_track, "writeback", fill + weights, third);
            let comp_track = format!("{name} compute");
            sink.span(&comp_track, "weight-load", 0, rows as u64);
            sink.span(&comp_track, "stream", rows as u64, stream_cycles);
            sink.span(
                &comp_track,
                "stall",
                rows as u64 + stream_cycles,
                stall_extra,
            );
            sink.span(
                &comp_track,
                "fill-drain",
                rows as u64 + stream_cycles + stall_extra,
                (rows + cols - 1) as u64,
            );
        }

        LayerReport {
            name: name.to_string(),
            cycles: phases.total(),
            compute_cycles,
            exposed_memory_cycles: exposed,
            // Useful MACs: every pass does the forward's work, although the
            // dgrad stream above still spends cycles on the dilation zeros.
            flops: shape.flops(),
            dram_bytes: ifmap_bytes + filter_bytes + ofmap_bytes,
            workspace_bytes,
            // Port stats are measured over the compute (streaming) period,
            // averaged across all arrays; idle arrays dilute the demand.
            sram: PortStats {
                cycles: compute_cycles,
                reads,
                writes,
            },
            array_occupancy: row_occ * col_occ,
            phases,
        }
    }

    /// Forward's workspace: the widest group's resident IFMap words
    /// (duplicated per member). A `TileSchedule::multi_tile` group is a
    /// chunk of up to `group` consecutive taps of one filter row, cut at
    /// `Wf`, and a tap's working set is its valid output rows × valid
    /// output columns. So the widest group is the row with the most valid
    /// outputs times the chunk whose taps sum to the most valid columns
    /// (`tests/proptests.rs` pins this to the schedule's own sum).
    fn forward_workspace(&self, shape: &ConvShape, group: usize) -> u64 {
        let vm = &self.config.vector_mem;
        let batch_words = shape.n.div_ceil(vm.word_elems) as u64;
        let widest_row = (0..shape.hf)
            .map(|fh| FilterTile::new(fh, 0).valid_out_h(shape))
            .max()
            .unwrap_or(0);
        let widest_chunk = (0..shape.wf)
            .step_by(group)
            .map(|fw0| {
                (fw0..(fw0 + group).min(shape.wf))
                    .map(|fw| FilterTile::new(0, fw).valid_out_w(shape))
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        (widest_row * widest_chunk) as u64 * batch_words * vm.word_bytes() * shape.ci as u64
    }

    /// Simulate a plain `M × N × K` GEMM (the TPU's native primitive,
    /// Fig. 13a validation target).
    pub fn simulate_gemm(&self, name: &str, m: usize, n: usize, k: usize) -> LayerReport {
        self.gemm_report(name, m, n, k, &mut NullSink)
    }

    /// [`Simulator::simulate_gemm`] with phase spans and counters emitted
    /// into `sink`.
    pub fn simulate_gemm_traced(
        &self,
        name: &str,
        m: usize,
        n: usize,
        k: usize,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        let rep = self.gemm_report(name, m, n, k, sink);
        emit_layer_trace(sink, &rep);
        rep
    }

    fn gemm_report(
        &self,
        name: &str,
        m: usize,
        n: usize,
        k: usize,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        let cfg = &self.config;
        let (rows, cols) = (cfg.array.rows, cfg.array.cols);
        let eb = cfg.vector_mem.elem_bytes as u64;
        let passes = k.div_ceil(rows) as u64 * n.div_ceil(cols) as u64;
        // Pipeline fill/drain and the first weight load, exposed once.
        let overhead = (rows + cols - 1) as u64 + rows as u64;
        let compute_cycles = passes.div_ceil(cfg.mxus as u64) * m as u64 + overhead;

        let a_bytes = (m * k) as u64 * eb;
        let b_bytes = (k * n) as u64 * eb;
        let c_bytes = (m * n) as u64 * eb;
        // B resident when it fits in a quarter of SRAM, else re-streamed per
        // A chunk.
        let budget = self.stage_budget();
        // Capacity chunks decide whether B must be re-streamed; the
        // pipeline runs at least `min_pipeline_stages` fill/compute stages.
        let capacity_chunks = a_bytes.div_ceil(budget.max(1)).max(1);
        let chunks = capacity_chunks.max(cfg.min_pipeline_stages);
        let b_resident = b_bytes < cfg.total_sram_bytes() / 4;
        let b_traffic = if b_resident {
            b_bytes
        } else {
            b_bytes * capacity_chunks
        };
        let fill = self.dram.transfer_cycles(a_bytes, 4096);
        let weights = self.dram.transfer_cycles(b_traffic, 4096);
        let writeback = self.dram.transfer_cycles(c_bytes, 4096);
        let (phases, exposed) = self.pipeline(compute_cycles, fill + weights + writeback, chunks);
        let occupancy = (k as f64 / (k.div_ceil(rows) * rows) as f64)
            * (n as f64 / (n.div_ceil(cols) * cols) as f64);

        if sink.enabled() {
            sink.counter("tpusim.dram_fill_cycles", fill);
            sink.counter("tpusim.dram_weight_load_cycles", weights);
            sink.counter("tpusim.dram_writeback_cycles", writeback);
            sink.counter("tpusim.chunks", chunks);
        }

        // Every MXU's passes cross the shared ports: count the whole
        // stream, not the per-MXU share `compute_cycles` holds.
        let words = (passes * m as u64 + overhead) / cfg.vector_mem.word_elems as u64;
        LayerReport {
            name: name.to_string(),
            cycles: phases.total(),
            compute_cycles,
            exposed_memory_cycles: exposed,
            flops: 2 * (m as u64) * (n as u64) * (k as u64),
            dram_bytes: a_bytes + b_traffic + c_bytes,
            workspace_bytes: a_bytes.min(budget),
            sram: PortStats {
                cycles: phases.total(),
                reads: words,
                writes: words,
            },
            array_occupancy: occupancy,
            phases,
        }
    }

    /// Explicit im2col of any pass: a bandwidth-bound transform that
    /// gathers the pass's source tensor and writes its lowered view (for
    /// dgrad, the zero-dilated rotated-filter matrix), then a GEMM that
    /// streams the materialized matrix back in.
    fn simulate_explicit(
        &self,
        name: &str,
        shape: &ConvShape,
        pass: ConvPass,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        let (transform, transform_bytes) = self.explicit_transform(shape, pass);
        let (m, n, k) = pass.gemm_mnk(shape);
        let mut gemm = self.gemm_report(name, m, n, k, sink);
        // The lowering pass runs before the GEMM pipeline starts: it
        // extends the exposed head, keeping the partition exact.
        gemm.cycles += transform;
        gemm.exposed_memory_cycles += transform;
        gemm.phases.first_fill += transform;
        gemm.dram_bytes += transform_bytes;
        gemm.flops = shape.flops();
        sink.counter("tpusim.transform_cycles", transform);
        gemm
    }

    /// The explicit transform of `pass`: its cycles and its DRAM bytes. It
    /// gathers the source tensor (short runs under stride) and writes the
    /// lowered view sequentially.
    fn explicit_transform(&self, shape: &ConvShape, pass: ConvPass) -> (u64, u64) {
        let eb = self.config.vector_mem.elem_bytes as u64;
        let lowered_bytes = pass.lowered_view_elems(shape) as u64 * eb;
        let (src_bytes, run) = self.gather(shape, pass);
        let cycles = self.dram.transfer_cycles(src_bytes, run)
            + self.dram.transfer_cycles(lowered_bytes, 4096);
        (cycles, src_bytes + lowered_bytes)
    }

    /// Cycles the forward explicit transform alone would take (the
    /// stacked-bar breakdown of Fig. 2b).
    pub fn explicit_transform_cycles(&self, shape: &ConvShape) -> u64 {
        self.explicit_transform(shape, ConvPass::Forward).0
    }

    /// Layer Dukhan's indirect-convolution costs onto an implicit report:
    /// the pointer table streams in ahead of the pipeline (extending the
    /// exposed head), and every row tile pays a per-tap pointer dereference
    /// before it can issue (a dispatch-side cost — indirection serializes
    /// address resolution that the implicit address generator computes for
    /// free). The phase partition stays exact.
    fn apply_indirect_overhead(
        &self,
        mut rep: LayerReport,
        shape: &ConvShape,
        pass: ConvPass,
        sink: &mut dyn TraceSink,
    ) -> LayerReport {
        const PTR_BYTES: u64 = 8;
        let entries = pass.indirect_ptr_entries(shape) as u64;
        let ptr_bytes = entries * PTR_BYTES;
        let ptr_cycles = self.dram.transfer_cycles(ptr_bytes, 4096);
        let (m, _, _) = pass.gemm_mnk(shape);
        let taps = (shape.hf * shape.wf) as u64;
        let dispatch_extra = m.div_ceil(self.config.array.rows) as u64 * taps;
        rep.cycles += ptr_cycles + dispatch_extra;
        rep.phases.first_fill += ptr_cycles;
        rep.phases.dispatch += dispatch_extra;
        rep.exposed_memory_cycles += ptr_cycles;
        rep.dram_bytes += ptr_bytes;
        sink.counter("tpusim.indirect_ptr_cycles", ptr_cycles);
        sink.counter("tpusim.indirect_dispatch_cycles", dispatch_extra);
        rep
    }

    /// Simulate every conv layer of `model`.
    pub fn simulate_model(&self, model: &Model, mode: SimMode) -> ModelReport {
        self.simulate_model_traced(model, mode, &mut NullSink)
    }

    /// [`Simulator::simulate_model`] with per-layer spans and counters
    /// emitted into `sink`.
    pub fn simulate_model_traced(
        &self,
        model: &Model,
        mode: SimMode,
        sink: &mut dyn TraceSink,
    ) -> ModelReport {
        ModelReport {
            name: model.name.to_string(),
            layers: model
                .layers
                .iter()
                .map(|l| {
                    (
                        self.simulate_conv_traced(&l.name, &l.shape, mode, sink),
                        l.count,
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> Simulator {
        Simulator::new(TpuConfig::tpu_v2())
    }

    fn layer(ci: usize, hw: usize, co: usize, f: usize, stride: usize, n: usize) -> ConvShape {
        ConvShape::square(n, ci, hw, co, f, stride, f / 2).unwrap()
    }

    #[test]
    fn compute_bound_layer_hits_high_utilization() {
        // 128-channel dense 3x3 at 56x56, batch 8: fills the array.
        let s = layer(128, 56, 128, 3, 1, 8);
        let r = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        let u = r.utilization(sim().config());
        assert!(u > 0.7, "utilization {u}");
    }

    #[test]
    fn small_channel_layer_benefits_from_multi_tile() {
        let s = layer(8, 128, 128, 3, 1, 8);
        let single = sim().simulate_conv("l", &s, SimMode::ChannelFirstGrouped(1));
        let auto = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        assert!(
            auto.cycles * 2 < single.cycles,
            "multi-tile should be >2x faster: {} vs {}",
            auto.cycles,
            single.cycles
        );
        assert!(auto.workspace_bytes > single.workspace_bytes);
    }

    #[test]
    fn fig14a_diminishing_returns() {
        // N=8, Ci=8, Wi=Co=128, Wf=3 (the paper's Fig. 14a layer).
        let s = layer(8, 128, 128, 3, 1, 8);
        let mut cycles = Vec::new();
        let mut workspace = Vec::new();
        for g in 1..=3 {
            let r = sim().simulate_conv("l", &s, SimMode::ChannelFirstGrouped(g));
            cycles.push(r.cycles);
            workspace.push(r.workspace_bytes);
        }
        assert!(cycles[0] > cycles[1] && cycles[1] > cycles[2]);
        // Workspace grows roughly linearly.
        let ratio = workspace[2] as f64 / workspace[0] as f64;
        assert!(ratio > 2.5 && ratio < 3.5, "workspace ratio {ratio}");
    }

    #[test]
    fn tpu_stride_insensitivity() {
        // Fig. 4b: TFLOPS roughly flat across strides for compute-heavy
        // layers (both FLOPs and cycles shrink together).
        let cfg = sim();
        let t1 = {
            let s = layer(256, 28, 256, 3, 1, 8);
            let r = cfg.simulate_conv("s1", &s, SimMode::ChannelFirst);
            r.tflops(cfg.config())
        };
        let t2 = {
            let s = layer(256, 28, 256, 3, 2, 8);
            let r = cfg.simulate_conv("s2", &s, SimMode::ChannelFirst);
            r.tflops(cfg.config())
        };
        let drop = (t1 - t2) / t1;
        assert!(
            drop < 0.25,
            "stride-2 drop {drop:.2} (t1={t1:.1}, t2={t2:.1})"
        );
    }

    #[test]
    fn explicit_slower_than_implicit() {
        // Fig. 2b: explicit im2col ~20-30% slower.
        let s = layer(64, 56, 64, 3, 1, 8);
        let imp = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        let exp = sim().simulate_conv("l", &s, SimMode::Explicit);
        assert!(exp.cycles > imp.cycles, "{} vs {}", exp.cycles, imp.cycles);
        let overhead = exp.cycles as f64 / imp.cycles as f64;
        assert!(
            overhead > 1.05 && overhead < 2.5,
            "explicit overhead {overhead}"
        );
    }

    #[test]
    fn gemm_matches_closed_form_when_compute_bound() {
        let s = sim();
        let r = s.simulate_gemm("g", 4096, 1024, 1024);
        // passes = 8*8 = 64; stream = 64*4096.
        let expect = 64 * 4096 + 255 + 128;
        assert!(r.compute_cycles == expect);
        assert!(r.cycles >= r.compute_cycles);
        let u = r.utilization(s.config());
        assert!(u > 0.8, "{u}");
    }

    #[test]
    fn hwcn_layout_faster_than_nchw_for_strided() {
        let shape = layer(64, 56, 64, 3, 2, 8);
        let hwcn = sim().simulate_conv("l", &shape, SimMode::ChannelFirst);
        let mut cfg = TpuConfig::tpu_v2();
        cfg.ifmap_layout = Layout::Nchw;
        let nchw = Simulator::new(cfg).simulate_conv("l", &shape, SimMode::ChannelFirst);
        assert!(
            nchw.cycles >= hwcn.cycles,
            "{} vs {}",
            nchw.cycles,
            hwcn.cycles
        );
    }

    #[test]
    fn model_simulation_produces_all_layers() {
        let m = iconv_workloads::alexnet(8);
        let rep = sim().simulate_model(&m, SimMode::ChannelFirst);
        assert_eq!(rep.layers.len(), 5);
        assert!(rep.total_cycles() > 0);
        assert_eq!(rep.total_flops(), m.total_flops());
    }

    #[test]
    fn port_reads_count_every_mxu() {
        // The same work reads the same words whether one MXU streams it or
        // two share it; only the cycles it takes may differ.
        let mut two = TpuConfig::tpu_v2();
        two.mxus = 2;
        let (one, two) = (sim(), Simulator::new(two));
        for m in iconv_workloads::all_models(8) {
            for l in &m.layers {
                for pass in iconv_core::ALL_PASSES {
                    for mode in [SimMode::ChannelFirst, SimMode::Explicit] {
                        let r1 = one.simulate_pass(&l.name, &l.shape, pass, mode);
                        let r2 = two.simulate_pass(&l.name, &l.shape, pass, mode);
                        let what = format!("{} {} {pass} {mode:?}", m.name, l.name);
                        assert_eq!(r1.sram.reads, r2.sram.reads, "{what}");
                    }
                }
            }
        }
        for (m, n, k) in [(4096, 1024, 1024), (128, 128, 128), (8192, 64, 256)] {
            let (r1, r2) = (
                one.simulate_gemm("g", m, n, k),
                two.simulate_gemm("g", m, n, k),
            );
            assert_eq!(r1.sram.reads, r2.sram.reads, "{m}x{n}x{k}");
            assert_eq!(r1.sram.writes, r2.sram.writes, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn big_layer_chunks_fit_budget() {
        // YOLO conv1 at batch 64 exceeds 32MB: must chunk, not explode.
        let s = layer(32, 208, 64, 3, 1, 64);
        let r = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        assert!(r.cycles > 0);
        // Workspace reported is pre-chunking demand; sanity only.
        assert!(r.workspace_bytes > 0);
    }

    #[test]
    fn chunked_steady_matches_per_chunk_loop() {
        // The closed form must equal the literal Σᵢ max(computeᵢ, memᵢ).
        use iconv_core::chunked_steady;
        let loopy = |c: u64, m: u64, n: u64| -> u64 {
            (0..n)
                .map(|i| {
                    let ci = c / n + u64::from(i < c % n);
                    let mi = m / n + u64::from(i < m % n);
                    ci.max(mi)
                })
                .sum()
        };
        for &(c, m, n) in &[
            (0u64, 0u64, 1u64),
            (0, 5, 8),
            (5, 0, 8),
            (3, 3, 8),
            (1000, 7, 8),
            (7, 1000, 8),
            (262_527, 18_341, 8),
            (12_345, 12_344, 17),
            (u64::from(u32::MAX), 3, 1000),
        ] {
            assert_eq!(chunked_steady(c, m, n), loopy(c, m, n), "c={c} m={m} n={n}");
        }
    }

    #[test]
    fn tiny_memory_phase_is_not_free() {
        // Regression: with `mem_cycles < chunks` the old truncating math
        // gave `mem_chunk = 0`, erasing the memory phase entirely. Force
        // `chunks` above any plausible transfer time.
        let mut cfg = TpuConfig::tpu_v2();
        cfg.min_pipeline_stages = 1 << 24;
        let s = layer(64, 28, 64, 3, 1, 8);
        let sim = Simulator::new(cfg);
        let r = sim.simulate_conv("l", &s, SimMode::ChannelFirst);
        assert!(r.phases.first_fill >= 1, "memory must stay visible");
        assert!(r.assert_conserved());
        // The layer is memory-touched: exposed accounts for all of the
        // non-overlapped DRAM time, so cycles strictly exceed dispatch +
        // compute.
        assert!(r.cycles > sim.config().dispatch_cycles + r.compute_cycles);
    }

    #[test]
    fn exposed_never_underflows_when_memory_dominates() {
        // Regression: `steady < compute_cycles` after truncation made
        // `cycles − dispatch − compute` wrap. Pin the correct identity on
        // a strongly memory-bound layer (1x1, huge channel traffic, tiny
        // batch) and on the sweep that used to trip it.
        let s = layer(2048, 7, 2048, 1, 1, 1);
        let r = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        assert!(r.exposed_memory_cycles < r.cycles, "no wraparound");
        assert_eq!(
            r.compute_cycles + r.exposed_memory_cycles,
            r.cycles - r.phases.dispatch
        );
        for (m, n, k) in [(128, 128, 128), (256, 8192, 64), (8192, 64, 256)] {
            let g = sim().simulate_gemm("g", m, n, k);
            assert!(g.exposed_memory_cycles < g.cycles);
            assert!(g.assert_conserved());
        }
    }

    #[test]
    fn traced_spans_partition_cycles_exactly() {
        // Always-on enforcement of the conservation invariant through the
        // public traced API: the spans on the layer's track sum to the
        // reported `cycles`, for every mode.
        use iconv_trace::Recorder;
        let s = layer(96, 28, 128, 3, 2, 4);
        for mode in [
            SimMode::ChannelFirst,
            SimMode::ChannelFirstGrouped(2),
            SimMode::Explicit,
            SimMode::Indirect,
        ] {
            let mut rec = Recorder::new();
            let r = sim().simulate_conv_traced("l", &s, mode, &mut rec);
            assert!(r.assert_conserved());
            assert_eq!(rec.track_total("l"), r.cycles, "{mode:?}");
            assert_eq!(rec.counters()["tpusim.cycles"], r.cycles);
            assert_eq!(rec.counters()["tpusim.compute_cycles"], r.compute_cycles);
        }
        let mut rec = Recorder::new();
        let g = sim().simulate_gemm_traced("g", 512, 512, 512, &mut rec);
        assert_eq!(rec.track_total("g"), g.cycles);
    }

    #[test]
    fn untraced_and_traced_reports_are_identical() {
        use iconv_trace::Recorder;
        let s = layer(64, 56, 64, 3, 1, 8);
        let plain = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        let mut rec = Recorder::new();
        let traced = sim().simulate_conv_traced("l", &s, SimMode::ChannelFirst, &mut rec);
        assert_eq!(plain, traced);
        assert!(!rec.is_empty());
    }

    #[test]
    fn every_pass_conserves_under_every_mode() {
        use iconv_core::ALL_PASSES;
        let shapes = [
            layer(64, 56, 64, 3, 1, 8),
            layer(96, 27, 256, 5, 2, 8),
            layer(3, 227, 96, 11, 4, 8),
        ];
        let modes = [
            SimMode::ChannelFirst,
            SimMode::ChannelFirstGrouped(2),
            SimMode::Explicit,
            SimMode::Indirect,
        ];
        for s in &shapes {
            for pass in ALL_PASSES {
                for mode in modes {
                    let r = sim().simulate_pass("l", s, pass, mode);
                    assert!(r.assert_conserved(), "{pass} {mode:?}");
                    assert_eq!(r.flops, s.flops(), "{pass} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn pass_dram_ordering_implicit_indirect_explicit() {
        use iconv_core::ALL_PASSES;
        let eb = sim().config().vector_mem.elem_bytes as u64;
        let s = layer(96, 27, 256, 5, 2, 8);
        let footprint = (s.ifmap_elems() + s.filter_elems() + s.ofmap_elems()) as u64 * eb;
        for pass in ALL_PASSES {
            let imp = sim().simulate_pass("l", &s, pass, SimMode::ChannelFirst);
            let ind = sim().simulate_pass("l", &s, pass, SimMode::Indirect);
            let exp = sim().simulate_pass("l", &s, pass, SimMode::Explicit);
            // Implicit moves exactly the tensor footprint; the pointer
            // table sits strictly between it and the materialized matrix.
            assert_eq!(imp.dram_bytes, footprint, "{pass}");
            let lowered = pass.lowered_view_elems(&s) as u64 * eb;
            assert!(exp.dram_bytes >= footprint + 2 * lowered, "{pass}");
            assert!(
                imp.dram_bytes < ind.dram_bytes && ind.dram_bytes < exp.dram_bytes,
                "{pass}: {} / {} / {}",
                imp.dram_bytes,
                ind.dram_bytes,
                exp.dram_bytes
            );
        }
    }

    #[test]
    fn forward_pass_is_simulate_conv() {
        use iconv_core::ConvPass;
        let s = layer(64, 56, 64, 3, 1, 8);
        for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
            let a = sim().simulate_conv("l", &s, mode);
            let b = sim().simulate_pass("l", &s, ConvPass::Forward, mode);
            assert_eq!(a, b, "{mode:?}");
        }
    }

    #[test]
    fn transpose_costs_exactly_like_dgrad() {
        use iconv_core::ConvPass;
        let s = layer(64, 28, 32, 4, 2, 8);
        for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
            let d = sim().simulate_pass("l", &s, ConvPass::Dgrad, mode);
            let t = sim().simulate_pass("l", &s, ConvPass::Transpose, mode);
            assert_eq!(d, t, "{mode:?}");
        }
    }

    #[test]
    fn dgrad_implicit_beats_explicit_on_deep_layers() {
        use iconv_core::ConvPass;
        // ci >= 16: the materialized dilated view dwarfs the footprint.
        let s = layer(64, 56, 64, 3, 2, 8);
        let imp = sim().simulate_pass("l", &s, ConvPass::Dgrad, SimMode::ChannelFirst);
        let exp = sim().simulate_pass("l", &s, ConvPass::Dgrad, SimMode::Explicit);
        assert!(imp.cycles <= exp.cycles, "{} vs {}", imp.cycles, exp.cycles);
    }

    #[test]
    fn wgrad_group_spellings_share_one_schedule() {
        use iconv_core::ConvPass;
        let s = layer(8, 56, 128, 3, 1, 8);
        let auto = sim().simulate_pass("l", &s, ConvPass::Wgrad, SimMode::ChannelFirst);
        let g4 = sim().simulate_pass("l", &s, ConvPass::Wgrad, SimMode::ChannelFirstGrouped(4));
        assert_eq!(auto, g4);
    }

    #[test]
    fn pass_traced_spans_partition_cycles() {
        use iconv_core::{ConvPass, ALL_PASSES};
        use iconv_trace::Recorder;
        let s = layer(96, 28, 128, 3, 2, 4);
        for pass in ALL_PASSES {
            for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
                let mut rec = Recorder::new();
                let r = sim().simulate_pass_traced("l", &s, pass, mode, &mut rec);
                assert_eq!(rec.track_total("l"), r.cycles, "{pass} {mode:?}");
            }
        }
        // Indirect overhead lands in the dispatch + exposed head, visibly.
        let fwd = sim().simulate_pass("l", &s, ConvPass::Forward, SimMode::ChannelFirst);
        let ind = sim().simulate_pass("l", &s, ConvPass::Forward, SimMode::Indirect);
        assert!(ind.phases.dispatch > fwd.phases.dispatch);
        assert!(ind.cycles > fwd.cycles);
    }

    #[test]
    fn word_size_one_stalls_compute() {
        let s = layer(128, 28, 128, 3, 2, 2); // shallow batch, strided
        let base = sim().simulate_conv("l", &s, SimMode::ChannelFirst);
        let w1 = Simulator::new(TpuConfig::tpu_v2().with_word_elems(1));
        let r1 = w1.simulate_conv("l", &s, SimMode::ChannelFirst);
        assert!(r1.compute_cycles >= base.compute_cycles);
    }
}
