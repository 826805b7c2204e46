//! Cycle-stepped micro-simulation of the full TPU datapath — the machine of
//! paper Fig. 10, wired end to end:
//!
//! ```text
//!  vector memories ──word──▶ serializers ──elem/cycle──▶ systolic array
//!        ▲                                                    │
//!        └──────word──── de-serializers ◀──result/cycle───────┘
//! ```
//!
//! Every component is stepped every cycle: each single-port SRAM array
//! accepts at most one access per cycle (reads for the serializer, writes
//! from the de-serializer, interleaved exactly as Sec. IV-A describes); the
//! serializers hold one word and issue one element per cycle into their PE
//! row with the systolic skew; the weight-stationary grid computes; the
//! de-serializers pack results back into words.
//!
//! It produces *both* bit-exact OFMaps and exact cycle counts with real
//! port-conflict behaviour, at small scale. Tests verify the OFMap against
//! direct convolution, the port discipline (never two accesses in one
//! cycle), that word 2 interleaves write-backs into idle port cycles
//! without a stall, and that word 1 with write-back stalls. No test
//! compares its cycles with the phase-level engine's. The two disagree,
//! and reconciling them is ROADMAP item 6.

use iconv_core::addrgen::{AddrGen, ArrayOp, VectorMemSpec};
use iconv_core::schedule::TileSchedule;
use iconv_systolic::{ArrayConfig, SystolicArray};
use iconv_tensor::conv_ref::{filter_dims, ifmap_dims, ofmap_dims};
use iconv_tensor::im2col::ofmap_from_matrix;
use iconv_tensor::{ConvShape, Layout, Matrix, Scalar, Tensor};
use iconv_trace::{NullSink, TraceSink};

/// Result of a micro-simulated convolution.
#[derive(Debug, Clone)]
pub struct MicroRun<T> {
    /// The OFMap, `NCHW`, bit-exact for integer scalars.
    pub ofmap: Tensor<T>,
    /// Exact cycles, including weight loads, port stalls and drains.
    pub cycles: u64,
    /// Total vector-memory read accesses issued.
    pub sram_reads: u64,
    /// Total vector-memory write accesses issued.
    pub sram_writes: u64,
    /// Cycles lost to read/write port conflicts.
    pub port_stall_cycles: u64,
}

impl<T> MicroRun<T> {
    /// Port busy fraction over the run.
    pub fn port_utilization(&self, arrays: usize) -> f64 {
        (self.sram_reads + self.sram_writes) as f64 / (self.cycles as f64 * arrays as f64)
    }
}

/// One per-PE-row serializer: holds a word, issues one element per cycle.
#[derive(Debug, Clone)]
struct Serializer<T> {
    /// Remaining elements of the current word (front = next to issue).
    word: Vec<Option<T>>,
    cursor: usize,
}

impl<T: Scalar> Serializer<T> {
    fn new() -> Self {
        Self {
            word: Vec::new(),
            cursor: 0,
        }
    }

    fn empty(&self) -> bool {
        self.cursor >= self.word.len()
    }

    fn load(&mut self, word: Vec<Option<T>>) {
        debug_assert!(self.empty(), "serializer overrun");
        self.word = word;
        self.cursor = 0;
    }

    fn issue(&mut self) -> Option<T> {
        let v = self.word.get(self.cursor).copied().flatten();
        self.cursor += 1;
        v
    }
}

/// Cycle-stepped micro-simulation of one convolution with the channel-first
/// schedule on the Fig. 10 machine.
///
/// `spec.arrays` vector memories feed an `spec.arrays × cols` grid; the
/// schedule's groups run back to back. `write_back` enables OFMap
/// de-serialization into the same vector memories (contending for the
/// single ports); with it off, results stream to a separate buffer (the
/// TPU-v1-style split memory, for ablation).
///
/// # Panics
///
/// Panics if a tile group needs more PE rows than `spec.arrays`, or if
/// tensor dims mismatch `shape`.
pub fn run_conv<T: Scalar>(
    shape: &ConvShape,
    ifmap: &Tensor<T>,
    filter: &Tensor<T>,
    spec: VectorMemSpec,
    cols: usize,
    schedule: &TileSchedule,
    write_back: bool,
) -> MicroRun<T> {
    run_conv_traced(
        shape,
        ifmap,
        filter,
        spec,
        cols,
        schedule,
        write_back,
        &mut NullSink,
    )
}

/// [`run_conv`] with per-pass `weight-load` / `stream` / `drain` spans on a
/// `microsim` track (their durations sum exactly to the returned `cycles`)
/// and port counters emitted into `sink`.
#[allow(clippy::too_many_arguments)]
pub fn run_conv_traced<T: Scalar>(
    shape: &ConvShape,
    ifmap: &Tensor<T>,
    filter: &Tensor<T>,
    spec: VectorMemSpec,
    cols: usize,
    schedule: &TileSchedule,
    write_back: bool,
    sink: &mut dyn TraceSink,
) -> MicroRun<T> {
    assert_eq!(ifmap.dims(), ifmap_dims(shape), "ifmap dims mismatch");
    assert_eq!(filter.dims(), filter_dims(shape), "filter dims mismatch");
    let m_total = shape.lowered_rows();
    let mut acc = Matrix::<T>::zeros(m_total, shape.co);
    let mut cycles = 0u64;
    let mut sram_reads = 0u64;
    let mut sram_writes = 0u64;
    let mut stalls = 0u64;
    let arrays = spec.arrays;
    let grid = ArrayConfig { rows: arrays, cols };

    for group in schedule.groups() {
        let gen = AddrGen::new(shape, spec, group);
        // Column-tile Co over the grid width.
        let mut col0 = 0;
        while col0 < shape.co {
            let ncols = cols.min(shape.co - col0);
            let b = group.b_merged(shape, filter);
            let b_sub = Matrix::from_fn(group.occupied_rows(shape), ncols, |r, c| b[(r, col0 + c)]);
            let mut array = SystolicArray::with_weights(grid, &b_sub);
            let pass_start = cycles;
            let weight_load = SystolicArray::<T>::weight_load_cycles(grid);
            cycles += weight_load;

            // Streamed A rows are assembled through serializers, one lowered
            // row per issue cycle (modulo port stalls). We model the port
            // discipline cycle by cycle, then hand the assembled activation
            // matrix to the (already cycle-validated) systolic grid.
            let mut serializers: Vec<Serializer<T>> =
                (0..arrays).map(|_| Serializer::new()).collect();
            let mut a_rows: Vec<Vec<T>> = Vec::with_capacity(m_total);
            let mut row_ids: Vec<usize> = Vec::with_capacity(m_total);
            let mut step = 0usize;
            let mut lane = 0usize;
            // Pending OFMap write-backs per array: each completed output
            // word costs one port access on its target array.
            let mut pending_writes: u64 = 0;
            let mut stream_cycles = 0u64;
            while step < gen.steps() {
                // Refill phase: any serializer that ran dry loads its next
                // word — one port access. A pending OFMap write to the same
                // array must wait (interleave), stalling the stream a cycle.
                let mut port_used = vec![false; arrays];
                if lane == 0 {
                    for (a, ser) in serializers.iter_mut().enumerate() {
                        if !ser.empty() {
                            continue; // already refilled before a stall retry
                        }
                        match gen.op(step, a) {
                            ArrayOp::Read(_) => {
                                let word: Vec<Option<T>> = (0..spec.word_elems)
                                    .map(|l| gen.element(step, a, l).map(|c| ifmap.get(c)))
                                    .collect();
                                ser.load(word);
                                sram_reads += 1;
                                port_used[a] = true;
                            }
                            ArrayOp::ZeroInject => {
                                ser.load(vec![None; spec.word_elems]);
                            }
                            ArrayOp::Unassigned => {
                                ser.load(vec![None; spec.word_elems]);
                            }
                        }
                    }
                }
                // Drain one pending output word into a free port slot; the
                // de-serializer buffers a few words, so the stream only
                // stalls when the buffer would overflow (all ports busy for
                // too long — the word-1 pathology).
                const WRITE_BUFFER_WORDS: u64 = 4;
                if write_back {
                    if pending_writes > 0 && port_used.iter().any(|&u| !u) {
                        pending_writes -= 1;
                        sram_writes += 1;
                    }
                    if pending_writes > WRITE_BUFFER_WORDS {
                        stalls += 1;
                        stream_cycles += 1;
                        continue;
                    }
                }
                // Issue phase: one element per row into the assembled A row.
                let mut row = vec![T::zero(); arrays];
                for (a, ser) in serializers.iter_mut().enumerate() {
                    if let Some(v) = ser.issue() {
                        row[a] = v;
                    }
                }
                if let Some(lowered_row) = gen.lowered_row(step, lane) {
                    a_rows.push(row);
                    row_ids.push(lowered_row);
                    // Every `word_elems` issued rows completes one output
                    // word per active... per Co column group: approximate a
                    // word of results ready per packing interval.
                    if write_back && a_rows.len().is_multiple_of(spec.word_elems) {
                        pending_writes += 1;
                    }
                }
                stream_cycles += 1;
                lane += 1;
                if lane == spec.word_elems {
                    lane = 0;
                    step += 1;
                }
            }
            cycles += stream_cycles;

            // Run the assembled activations through the grid (its own exact
            // fill/drain latency added once per pass).
            let k = group.occupied_rows(shape);
            let a = Matrix::from_fn(a_rows.len(), k, |r, c| a_rows[r][c]);
            let (out, elapsed) = array.stream(&a);
            // The streaming above and the grid injection overlap: the grid's
            // cycle count covers the same issue cycles plus fill/drain, so
            // count only the excess.
            let drain = elapsed.saturating_sub(stream_cycles);
            cycles += drain;
            if sink.enabled() {
                sink.span("microsim", "weight-load", pass_start, weight_load);
                sink.span(
                    "microsim",
                    "stream",
                    pass_start + weight_load,
                    stream_cycles,
                );
                sink.span(
                    "microsim",
                    "drain",
                    pass_start + weight_load + stream_cycles,
                    drain,
                );
            }
            for (i, &row) in row_ids.iter().enumerate() {
                for c in 0..ncols {
                    acc[(row, col0 + c)] += out[(i, c)];
                }
            }
            col0 += ncols;
        }
    }

    sink.counter("microsim.cycles", cycles);
    sink.counter("microsim.sram_reads", sram_reads);
    sink.counter("microsim.sram_writes", sram_writes);
    sink.counter("microsim.port_stall_cycles", stalls);

    MicroRun {
        ofmap: ofmap_from_matrix(shape, &acc),
        cycles,
        sram_reads,
        sram_writes,
        port_stall_cycles: stalls,
    }
}

/// Convenience: run with the TPU schedule, random data, and check against
/// direct convolution; returns the run for inspection.
/// # Examples
///
/// ```
/// # use iconv_core::addrgen::VectorMemSpec;
/// # use iconv_tpusim::microsim::self_check;
/// # use iconv_tensor::ConvShape;
/// # fn main() -> Result<(), iconv_tensor::ShapeError> {
/// // The paper's Fig. 10 machine: 4 vector memories, word 2, 4x4 grid.
/// let shape = ConvShape::square(2, 4, 5, 4, 3, 1, 0)?;
/// let spec = VectorMemSpec { arrays: 4, word_elems: 2 };
/// let run = self_check(&shape, spec, 4, 1, true);
/// assert_eq!(run.port_stall_cycles, 0); // word 2 interleaves cleanly
/// # Ok(()) }
/// ```
///
pub fn self_check(
    shape: &ConvShape,
    spec: VectorMemSpec,
    cols: usize,
    seed: u64,
    write_back: bool,
) -> MicroRun<i64> {
    let x = Tensor::<i64>::random(ifmap_dims(shape), Layout::Nchw, seed);
    let f = Tensor::<i64>::random(filter_dims(shape), Layout::Nchw, seed + 1);
    let want = iconv_tensor::conv_ref::direct_conv(shape, &x, &f);
    let sched = TileSchedule::tpu(shape, spec.arrays);
    let run = run_conv(shape, &x, &f, spec, cols, &sched, write_back);
    assert!(
        want.approx_eq(&run.ofmap, 0.0),
        "micro-simulated OFMap diverged for {shape}"
    );
    assert_eq!(run.ofmap.dims(), ofmap_dims(shape));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig10_spec() -> VectorMemSpec {
        VectorMemSpec {
            arrays: 4,
            word_elems: 2,
        }
    }

    #[test]
    fn fig10_machine_end_to_end() {
        // Paper Fig. 10: N=2, Ci=4, 5x5, 3x3 filter on a 4x4 grid with
        // word-2 vector memories.
        let shape = ConvShape::square(2, 4, 5, 4, 3, 1, 0).unwrap();
        let run = self_check(&shape, fig10_spec(), 4, 42, true);
        assert!(run.cycles > 0);
        // Word 2 with write-back: port demand 1.0 — interleave with zero
        // contention, exactly the paper's claim.
        assert_eq!(run.port_stall_cycles, 0, "word 2 must interleave cleanly");
    }

    #[test]
    fn fig11_multi_tile_machine() {
        // Paper Fig. 11: Ci=2 with a 2-tile merge filling the 4 rows.
        let shape = ConvShape::square(2, 2, 5, 4, 3, 1, 0).unwrap();
        let sched = TileSchedule::tpu(&shape, 4);
        assert_eq!(sched.max_duplication(), 2);
        let run = self_check(&shape, fig10_spec(), 4, 7, true);
        assert_eq!(run.port_stall_cycles, 0);
    }

    #[test]
    fn strided_and_padded_cases() {
        for (i, shape) in [
            ConvShape::square(2, 4, 7, 3, 3, 2, 1).unwrap(),
            ConvShape::square(4, 2, 6, 5, 3, 1, 1).unwrap(),
            ConvShape::square(2, 4, 5, 2, 1, 1, 0).unwrap(),
        ]
        .into_iter()
        .enumerate()
        {
            let _ = self_check(&shape, fig10_spec(), 3, 10 + i as u64, true);
        }
    }

    #[test]
    fn word1_with_writeback_stalls_word2_does_not() {
        // The Sec. IV-A interleave argument, demonstrated rather than
        // assumed: at word 1 every cycle is a read, so write-backs steal
        // cycles; at word ≥ 2 they slot into the idle port cycles.
        let shape = ConvShape::square(2, 4, 6, 4, 3, 1, 0).unwrap();
        let w1 = self_check(
            &shape,
            VectorMemSpec {
                arrays: 4,
                word_elems: 1,
            },
            4,
            3,
            true,
        );
        let w2 = self_check(&shape, fig10_spec(), 4, 3, true);
        assert!(w1.port_stall_cycles > 0, "word 1 must stall on write-back");
        assert_eq!(w2.port_stall_cycles, 0);
        assert!(w1.cycles > w2.cycles);
    }

    #[test]
    fn split_memory_never_stalls() {
        // TPU-v1-style split buffers (write_back = false): no contention at
        // any word size.
        let shape = ConvShape::square(2, 4, 6, 4, 3, 1, 0).unwrap();
        let run = self_check(
            &shape,
            VectorMemSpec {
                arrays: 4,
                word_elems: 1,
            },
            4,
            3,
            false,
        );
        assert_eq!(run.port_stall_cycles, 0);
        assert_eq!(run.sram_writes, 0);
    }

    #[test]
    fn read_counts_match_the_address_generator() {
        let shape = ConvShape::square(2, 4, 5, 4, 3, 1, 0).unwrap();
        let sched = TileSchedule::tpu(&shape, 4);
        let expected: u64 = sched
            .groups()
            .iter()
            .map(|g| AddrGen::new(&shape, fig10_spec(), g).total_reads())
            .sum();
        let run = self_check(&shape, fig10_spec(), 4, 5, true);
        assert_eq!(run.sram_reads, expected);
    }

    #[test]
    fn traced_spans_partition_micro_cycles() {
        // The microsim's weight-load/stream/drain spans must sum exactly
        // to the cycle-stepped total — conservation at the ground-truth
        // level, not just in the phase engine.
        use iconv_trace::Recorder;
        let shape = ConvShape::square(2, 4, 5, 4, 3, 1, 0).unwrap();
        let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, 11);
        let f = Tensor::<i64>::random(filter_dims(&shape), Layout::Nchw, 12);
        let sched = TileSchedule::tpu(&shape, 4);
        let mut rec = Recorder::new();
        let run = run_conv_traced(&shape, &x, &f, fig10_spec(), 4, &sched, true, &mut rec);
        assert_eq!(rec.track_total("microsim"), run.cycles);
        assert_eq!(rec.counters()["microsim.sram_reads"], run.sram_reads);
        assert_eq!(
            rec.counters()["microsim.port_stall_cycles"],
            run.port_stall_cycles
        );
    }

    #[test]
    fn port_utilization_below_one() {
        let shape = ConvShape::square(2, 4, 6, 4, 3, 1, 0).unwrap();
        let run = self_check(&shape, fig10_spec(), 4, 9, true);
        let u = run.port_utilization(4);
        assert!(u > 0.0 && u <= 1.0, "port utilization {u}");
    }
}
