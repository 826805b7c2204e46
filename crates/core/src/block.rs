//! Block-level channel-first im2col for output-partitioned GEMM engines
//! (paper Sec. V, Fig. 12).
//!
//! GPUs parallelize GEMM by assigning each **output tile** to a thread
//! block, so partial sums must stay inside a block (no atomics). The flat
//! filter-decomposition schedule would accumulate the OFMap `Hf·Wf` times
//! globally; the block-level variant instead applies the channel-first
//! decomposition *inside* each output tile: a block iterates over the
//! K-dimension in channel-first order (per-tap `Ci` slices), fetching each
//! tap's input sub-tile from global memory into shared memory and running a
//! tensor-core GEMM per slice.
//!
//! [`FetchOrder::Reordered`] implements the inter-tile reuse optimization
//! (Sec. V "Inter-tile Reuse"): consecutive taps are ordered greedily by
//! working-set overlap, so part of each shared-memory fill is already
//! resident. The paper leaves optimal reordering to future work; the greedy
//! nearest-neighbour order here is the "simple reordering" it describes.
//!
//! Tap order and block traffic are counted in closed form, by interval
//! arithmetic over the output rectangles each tap reads validly. The
//! [`reference`](mod@reference) module keeps the set-building versions
//! they replaced, as the oracles the closed forms are tested against.

use crate::decompose::{Axis, FilterTile};
use iconv_tensor::conv_ref::{filter_dims, ifmap_dims};
use iconv_tensor::{ConvShape, Coord, Matrix, Scalar, Tensor};
use std::cmp::Reverse;
use std::ops::Range;

/// Thread-block tiling of the output GEMM (`M = N·Ho·Wo` × `N = Co`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockConfig {
    /// Output rows per thread block (`M` tile).
    pub bm: usize,
    /// Output columns per thread block (`N` tile).
    pub bn: usize,
    /// K-slice depth per shared-memory stage (≤ `Ci`; one tap is split into
    /// `ceil(Ci / bk)` slices).
    pub bk: usize,
}

impl BlockConfig {
    /// The CUDA-SDK-style 128×128×32 blocking used by the paper's
    /// `cudaTensorCoreGemm`-based implementation.
    pub fn cuda_sdk() -> Self {
        Self {
            bm: 128,
            bn: 128,
            bk: 32,
        }
    }
}

/// Execution order of the decomposed filter taps within each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchOrder {
    /// Taps "as they show up on the original filter" (raster) — no reuse.
    #[default]
    Naive,
    /// Greedy nearest-neighbour by working-set overlap — the inter-tile
    /// reuse optimization.
    Reordered,
}

/// One thread block's output tile: rows `row0 .. row0+rows`, columns
/// `col0 .. col0+cols` of the output matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputBlock {
    /// First output-matrix row.
    pub row0: usize,
    /// Row count (≤ `bm`; edge blocks are smaller).
    pub rows: usize,
    /// First output-matrix column.
    pub col0: usize,
    /// Column count (≤ `bn`).
    pub cols: usize,
}

/// One K-stage of a block: tap `tile`, channels `ci0 .. ci0+ci_len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KSlice {
    /// The decomposed filter tap.
    pub tile: FilterTile,
    /// First channel of the slice.
    pub ci0: usize,
    /// Channel count (≤ `bk`).
    pub ci_len: usize,
}

/// The block-level decomposition of one convolution.
#[derive(Debug, Clone)]
pub struct BlockDecomposition {
    shape: ConvShape,
    config: BlockConfig,
    order: FetchOrder,
    /// Tap order resolved once at construction (the greedy reorder is
    /// quadratic in the tap count, too costly to recompute per block).
    taps: Vec<FilterTile>,
    /// Per tap in `taps`, the output rectangles its block counts need.
    steps: Vec<TapStep>,
    /// The output plane the block rows run over.
    plane: Plane,
}

impl BlockDecomposition {
    /// Create a decomposition.
    pub fn new(shape: ConvShape, config: BlockConfig, order: FetchOrder) -> Self {
        let taps = match order {
            FetchOrder::Naive => FilterTile::all(&shape),
            FetchOrder::Reordered => reordered_taps(&shape),
        };
        let plane = Plane {
            ho: shape.out_h(),
            wo: shape.out_w(),
        };
        let (ah, aw) = (Axis::h(&shape), Axis::w(&shape));
        let prevs = std::iter::once(None).chain(taps.iter().copied().map(Some));
        let steps = taps
            .iter()
            .zip(prevs)
            .map(|(&tile, prev)| TapStep::new(ah, aw, plane.wo, tile, prev))
            .collect();
        Self {
            shape,
            config,
            order,
            taps,
            steps,
            plane,
        }
    }

    /// The convolution being decomposed.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The blocking parameters.
    pub fn config(&self) -> BlockConfig {
        self.config
    }

    /// Taps in the configured fetch order (resolved at construction).
    pub fn tap_order(&self) -> &[FilterTile] {
        &self.taps
    }

    /// The configured fetch order.
    pub fn order(&self) -> FetchOrder {
        self.order
    }

    /// All thread-block output tiles, row-major over the output matrix.
    pub fn output_blocks(&self) -> Vec<OutputBlock> {
        let (m, n, _) = self.shape.gemm_mnk();
        let mut blocks = Vec::new();
        let mut row0 = 0;
        while row0 < m {
            let rows = self.config.bm.min(m - row0);
            let mut col0 = 0;
            while col0 < n {
                let cols = self.config.bn.min(n - col0);
                blocks.push(OutputBlock {
                    row0,
                    rows,
                    col0,
                    cols,
                });
                col0 += cols;
            }
            row0 += rows;
        }
        blocks
    }

    /// The K-slices each block iterates, in fetch order: for each tap (in
    /// [`Self::tap_order`]), `ceil(Ci / bk)` channel slices.
    pub fn k_slices(&self) -> Vec<KSlice> {
        let mut slices = Vec::new();
        for &tile in &self.taps {
            let mut ci0 = 0;
            while ci0 < self.shape.ci {
                let ci_len = self.config.bk.min(self.shape.ci - ci0);
                slices.push(KSlice { tile, ci0, ci_len });
                ci0 += ci_len;
            }
        }
        slices
    }

    /// Global-memory elements fetched by `block` across its decomposed
    /// filter taps, with and without counting reuse from the previously
    /// resident tap's sub-tile: returns `(total_without_reuse,
    /// total_with_reuse)` in elements (distinct `(image, pixel)` coordinates
    /// × all `Ci` channels).
    ///
    /// Reuse is accounted at **tap granularity**: the on-chip window
    /// (shared memory + L2) is assumed to retain one tap's full working set,
    /// so the next tap only fetches the coordinates outside the overlap —
    /// the Sec. V inter-tile-reuse model. Channel sub-slicing (`bk`) affects
    /// compute staging, not traffic: each (pixel, channel) is fetched once
    /// per tap visit regardless of slicing.
    ///
    /// Counted in O(1) per tap. Within one image a tap maps output rows to
    /// input pixels injectively, so a tap's cold fetch is the number of
    /// block rows inside its valid-output rectangle. The previous tap read
    /// the same pixel only at a fixed output shift, so the warm fetch
    /// subtracts the block rows whose shifted twin is also in the block and
    /// valid for that tap. Tested equal to
    /// [`reference::block_fetch_elems`], which builds the coordinate sets.
    pub fn block_fetch_elems(&self, block: &OutputBlock) -> (u64, u64) {
        let (start, end) = (block.row0, block.row0 + block.rows);
        let (first, last) = (self.plane.pos(start), self.plane.pos(end));
        let pos = |r: usize| match r {
            r if r == start => first,
            r if r == end => last,
            r => self.plane.pos(r),
        };
        let ci = self.shape.ci as u64;
        let mut cold = 0u64;
        let mut warm = 0u64;
        for step in &self.steps {
            let fetched = step.valid.below(last) - step.valid.below(first);
            let resident = step.resident.as_ref().map_or(0, |res| {
                // Rows `r` whose twin `r + delta` also lies in the block.
                let lo = start.max(start.saturating_add_signed(-res.delta));
                let hi = end.min(end.saturating_add_signed(-res.delta));
                if hi <= lo {
                    return 0;
                }
                res.shared.below(pos(hi)) - res.shared.below(pos(lo))
            });
            cold += fetched * ci;
            warm += (fetched - resident) * ci;
        }
        (cold, warm)
    }

    /// Whole-layer global traffic in elements: `(naive, with_reuse)` summed
    /// over all blocks. The ratio drives the Fig. 18b speedups.
    ///
    /// Summed by period, not block by block. A block's counts depend only
    /// on its rows, so the column blocks over one row range are identical,
    /// and a shift by whole images leaves the counts unchanged. Full row
    /// blocks start at multiples of `bm`, so they repeat with period
    /// `P = Ho·Wo / gcd(Ho·Wo, bm)`: only the first `min(P, full)` are
    /// counted, each weighted by how often its phase recurs. The ragged last
    /// block is added, and the total multiplied by the column-block count.
    /// Tested equal to [`reference::layer_fetch_elems`], the per-block sum.
    pub fn layer_fetch_elems(&self) -> (u64, u64) {
        let (m, n, _) = self.shape.gemm_mnk();
        let (bm, cols) = (self.config.bm, self.config.bn.min(n));
        let per_img = self.plane.ho * self.plane.wo;
        let full = m / bm;
        let period = per_img / gcd(per_img, bm);
        let (mut cold, mut warm) = (0, 0);
        let mut add = |row0: usize, rows: usize, times: usize| {
            let block = OutputBlock {
                row0,
                rows,
                col0: 0,
                cols,
            };
            let (c, w) = self.block_fetch_elems(&block);
            cold += c * times as u64;
            warm += w * times as u64;
        };
        for phase in 0..full.min(period) {
            add(phase * bm, bm, (full - phase).div_ceil(period));
        }
        if m % bm != 0 {
            add(full * bm, m % bm, 1);
        }
        let col_blocks = n.div_ceil(self.config.bn) as u64;
        (cold * col_blocks, warm * col_blocks)
    }

    /// Whole-layer traffic without reuse, in elements: the first half of
    /// [`Self::layer_fetch_elems`], counted without walking the blocks.
    /// With no reuse a block fetches, per tap, its rows inside the tap's
    /// valid rectangle, and the row blocks partition the rows, so the
    /// layer fetches `Σ_taps N·|valid|·Ci` per column block. That depends
    /// on neither `bm` nor the tap order. Tested equal to the first half of
    /// [`reference::layer_fetch_elems`].
    pub fn layer_cold_elems(&self) -> u64 {
        let (_, n, _) = self.shape.gemm_mnk();
        let per_img: u64 = self
            .steps
            .iter()
            .map(|s| (s.valid.h.len() * s.valid.w.len()) as u64)
            .sum();
        let col_blocks = n.div_ceil(self.config.bn) as u64;
        per_img * (self.shape.n * self.shape.ci) as u64 * col_blocks
    }

    /// Functional execution: compute the convolution with the block-level
    /// schedule (each block accumulates privately — no cross-block writes),
    /// proving the schedule needs no atomics. Output in `NCHW`.
    ///
    /// # Panics
    ///
    /// Panics if tensor dims do not match the shape.
    pub fn execute<T: Scalar>(&self, ifmap: &Tensor<T>, filter: &Tensor<T>) -> Tensor<T> {
        assert_eq!(ifmap.dims(), ifmap_dims(&self.shape), "ifmap dims mismatch");
        assert_eq!(
            filter.dims(),
            filter_dims(&self.shape),
            "filter dims mismatch"
        );
        let (m, _, _) = self.shape.gemm_mnk();
        let mut out = Matrix::<T>::zeros(m, self.shape.co);
        let (ho, wo) = (self.shape.out_h(), self.shape.out_w());
        for block in self.output_blocks() {
            for slice in self.k_slices() {
                for r in block.row0..block.row0 + block.rows {
                    let n = r / (ho * wo);
                    let oh = (r / wo) % ho;
                    let ow = r % wo;
                    let Some((h, w)) = slice.tile.input_pixel(&self.shape, oh, ow) else {
                        continue;
                    };
                    for ci in slice.ci0..slice.ci0 + slice.ci_len {
                        let a = ifmap.get(Coord::new(n, ci, h, w));
                        if a == T::zero() {
                            continue;
                        }
                        for co in block.col0..block.col0 + block.cols {
                            let b = filter.get(Coord::new(co, ci, slice.tile.fh, slice.tile.fw));
                            out[(r, co)] += a * b;
                        }
                    }
                }
            }
        }
        iconv_tensor::im2col::ofmap_from_matrix(&self.shape, &out)
    }
}

/// Greatest common divisor (Euclid).
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The `Ho × Wo` output plane, repeated per image along the output-matrix
/// rows (`r = img·Ho·Wo + oh·Wo + ow`).
#[derive(Debug, Clone, Copy)]
struct Plane {
    ho: usize,
    wo: usize,
}

impl Plane {
    /// Output-matrix row `r` as `(img, oh, ow)`.
    fn pos(&self, r: usize) -> Pos {
        let per_img = self.ho * self.wo;
        Pos {
            img: r / per_img,
            oh: r % per_img / self.wo,
            ow: r % self.wo,
        }
    }
}

/// An output-matrix row split into image, output row and output column.
#[derive(Debug, Clone, Copy)]
struct Pos {
    img: usize,
    oh: usize,
    ow: usize,
}

/// Output pixels `oh ∈ h`, `ow ∈ w`, repeated in every image.
#[derive(Debug, Clone)]
struct Rect {
    h: Range<usize>,
    w: Range<usize>,
}

impl Rect {
    /// Points of the rectangle, over all images, whose output-matrix row
    /// lies before `p`. Each whole image before `p` holds the full
    /// rectangle and `p`'s image a row-major prefix of it.
    fn below(&self, p: Pos) -> u64 {
        let whole_rows = p.oh.clamp(self.h.start, self.h.end) - self.h.start;
        let part = if self.h.contains(&p.oh) {
            p.ow.clamp(self.w.start, self.w.end) - self.w.start
        } else {
            0
        };
        (p.img * self.h.len() + whole_rows) as u64 * self.w.len() as u64 + part as u64
    }
}

/// One tap of the fetch order, with the output rectangles its block
/// counts need.
#[derive(Debug, Clone)]
struct TapStep {
    /// Outputs at which the tap reads a valid pixel.
    valid: Rect,
    /// Pixels the previous tap also read; `None` for the first tap and
    /// when the two taps share no pixel.
    resident: Option<Resident>,
}

/// Where the previous tap read the pixels a tap reads again.
#[derive(Debug, Clone)]
struct Resident {
    /// The previous tap read row `r`'s pixel at row `r + delta`
    /// (`delta = kh·Wo + kw` from the per-axis output shifts).
    delta: isize,
    /// Outputs at which both reads are valid; this keeps `r + delta` in
    /// `r`'s image.
    shared: Rect,
}

impl TapStep {
    fn new(ah: Axis, aw: Axis, wo: usize, tile: FilterTile, prev: Option<FilterTile>) -> Self {
        let resident = prev.and_then(|p| {
            let (kh, h) = ah.shared(tile.fh, p.fh)?;
            let (kw, w) = aw.shared(tile.fw, p.fw)?;
            (!h.is_empty() && !w.is_empty()).then(|| Resident {
                delta: kh * wo as isize + kw,
                shared: Rect { h, w },
            })
        });
        Self {
            valid: Rect {
                h: ah.valid(tile.fh),
                w: aw.valid(tile.fw),
            },
            resident,
        }
    }
}

/// Greedy nearest-neighbour tap order: start at `(0,0)`, repeatedly take the
/// unvisited tap with the largest working-set overlap with the current one
/// (ties broken by raster order).
///
/// The overlap of two taps is a product of per-axis overlaps, so the walk
/// reads two `Hf×Hf` and `Wf×Wf` tables built up front. Tested equal to
/// [`reference::reordered_taps`], which intersects enumerated working sets.
pub fn reordered_taps(shape: &ConvShape) -> Vec<FilterTile> {
    let all = FilterTile::all(shape);
    if all.len() <= 2 {
        return all;
    }
    let table = |axis: Axis, taps: usize| -> Vec<usize> {
        (0..taps * taps)
            .map(|i| axis.overlap(i / taps, i % taps))
            .collect()
    };
    let ov_h = table(Axis::h(shape), shape.hf);
    let ov_w = table(Axis::w(shape), shape.wf);
    let overlap =
        |a: FilterTile, b: FilterTile| ov_h[a.fh * shape.hf + b.fh] * ov_w[a.fw * shape.wf + b.fw];
    let mut order = Vec::with_capacity(all.len());
    let mut used = vec![false; all.len()];
    let mut cur = 0usize;
    used[cur] = true;
    order.push(all[cur]);
    for _ in 1..all.len() {
        cur = (0..all.len())
            .filter(|&i| !used[i])
            .max_by_key(|&i| (overlap(all[cur], all[i]), Reverse(i)))
            .expect("unvisited tap must exist");
        used[cur] = true;
        order.push(all[cur]);
    }
    order
}

/// The set-building versions of the tap order and the block traffic,
/// retained as the enumeration oracles for [`reordered_taps`] and
/// [`BlockDecomposition::block_fetch_elems`] (see
/// `tests/block_equivalence.rs`). They materialize whole-plane working sets
/// and per-block coordinate sets, so they cost O(outputs) per tap where the
/// closed forms cost O(1). [`layer_fetch_elems`](reference::layer_fetch_elems)
/// is the block-by-block sum the periodic
/// [`BlockDecomposition::layer_fetch_elems`] replaced.
pub mod reference {
    use super::{BlockDecomposition, OutputBlock};
    use crate::decompose::FilterTile;
    use iconv_tensor::ConvShape;
    use std::collections::BTreeSet;

    /// Greedy nearest-neighbour tap order by intersecting the enumerated
    /// working sets of every pair of taps.
    pub fn reordered_taps(shape: &ConvShape) -> Vec<FilterTile> {
        let all = FilterTile::all(shape);
        if all.len() <= 2 {
            return all;
        }
        // Precompute working sets once; overlap() would recompute per pair.
        let sets: Vec<BTreeSet<(usize, usize)>> =
            all.iter().map(|t| t.working_set(shape)).collect();
        let mut order = vec![all[0]];
        let mut used = vec![false; all.len()];
        used[0] = true;
        let mut cur = 0usize;
        for _ in 1..all.len() {
            let mut best: Option<(usize, usize)> = None; // (overlap, idx)
            for (i, t) in all.iter().enumerate() {
                let _ = t;
                if used[i] {
                    continue;
                }
                let ov = sets[cur].intersection(&sets[i]).count();
                let better = match best {
                    None => true,
                    Some((bov, bidx)) => ov > bov || (ov == bov && i < bidx),
                };
                if better {
                    best = Some((ov, i));
                }
            }
            let (_, idx) = best.expect("unvisited tap must exist");
            used[idx] = true;
            order.push(all[idx]);
            cur = idx;
        }
        order
    }

    /// The distinct input pixels `(h, w)` a block must fetch for one tap —
    /// the shared-memory A-subtile footprint, per channel per image.
    pub fn block_tap_pixels(
        d: &BlockDecomposition,
        block: &OutputBlock,
        tile: FilterTile,
    ) -> BTreeSet<(usize, usize)> {
        let shape = d.shape();
        let (ho, wo) = (shape.out_h(), shape.out_w());
        let mut set = BTreeSet::new();
        for r in block.row0..block.row0 + block.rows {
            let oh = (r / wo) % ho;
            let ow = r % wo;
            if let Some(p) = tile.input_pixel(shape, oh, ow) {
                set.insert(p);
            }
        }
        set
    }

    /// The distinct `(image, h, w)` input coordinates a block must fetch
    /// for one tap — per-image, so blocks spanning batch boundaries count
    /// each image's footprint separately.
    pub fn block_tap_coords(
        d: &BlockDecomposition,
        block: &OutputBlock,
        tile: FilterTile,
    ) -> BTreeSet<(usize, usize, usize)> {
        let shape = d.shape();
        let (ho, wo) = (shape.out_h(), shape.out_w());
        let per_img = ho * wo;
        let mut set = BTreeSet::new();
        for r in block.row0..block.row0 + block.rows {
            let img = r / per_img;
            let oh = (r / wo) % ho;
            let ow = r % wo;
            if let Some((h, w)) = tile.input_pixel(shape, oh, ow) {
                set.insert((img, h, w));
            }
        }
        set
    }

    /// [`BlockDecomposition::layer_fetch_elems`] as the sum of
    /// [`BlockDecomposition::block_fetch_elems`] over every
    /// [`BlockDecomposition::output_blocks`] tile.
    pub fn layer_fetch_elems(d: &BlockDecomposition) -> (u64, u64) {
        d.output_blocks()
            .iter()
            .map(|b| d.block_fetch_elems(b))
            .fold((0, 0), |(cold, warm), (c, w)| (cold + c, warm + w))
    }

    /// [`BlockDecomposition::block_fetch_elems`] by building each tap's
    /// coordinate set and diffing it against the previous tap's.
    pub fn block_fetch_elems(d: &BlockDecomposition, block: &OutputBlock) -> (u64, u64) {
        let ci = d.shape().ci as u64;
        let mut cold = 0u64;
        let mut warm = 0u64;
        let mut prev: Option<BTreeSet<(usize, usize, usize)>> = None;
        for &tile in d.tap_order() {
            let coords = block_tap_coords(d, block, tile);
            cold += coords.len() as u64 * ci;
            let fresh = match &prev {
                Some(p) => coords.difference(p).count() as u64,
                None => coords.len() as u64,
            };
            warm += fresh * ci;
            prev = Some(coords);
        }
        (cold, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iconv_tensor::conv_ref::direct_conv;
    use iconv_tensor::Layout;

    fn shape() -> ConvShape {
        ConvShape::square(2, 5, 9, 6, 3, 1, 1).unwrap()
    }

    fn cfg() -> BlockConfig {
        BlockConfig {
            bm: 16,
            bn: 4,
            bk: 3,
        }
    }

    #[test]
    fn output_blocks_tile_exactly() {
        let d = BlockDecomposition::new(shape(), cfg(), FetchOrder::Naive);
        let (m, n, _) = shape().gemm_mnk();
        let blocks = d.output_blocks();
        let covered: usize = blocks.iter().map(|b| b.rows * b.cols).sum();
        assert_eq!(covered, m * n);
        // Edge blocks are clipped, not padded.
        assert!(blocks
            .iter()
            .all(|b| b.row0 + b.rows <= m && b.col0 + b.cols <= n));
    }

    #[test]
    fn k_slices_cover_all_taps_and_channels() {
        let d = BlockDecomposition::new(shape(), cfg(), FetchOrder::Naive);
        let slices = d.k_slices();
        // 9 taps × ceil(5/3)=2 slices.
        assert_eq!(slices.len(), 18);
        let total_k: usize = slices.iter().map(|s| s.ci_len).sum();
        assert_eq!(total_k, shape().lowered_cols());
    }

    #[test]
    fn execute_matches_direct_conv_both_orders() {
        let s = shape();
        let x = Tensor::<i64>::random(ifmap_dims(&s), Layout::Nchw, 1);
        let f = Tensor::<i64>::random(filter_dims(&s), Layout::Nchw, 2);
        let want = direct_conv(&s, &x, &f);
        for order in [FetchOrder::Naive, FetchOrder::Reordered] {
            let got = BlockDecomposition::new(s, cfg(), order).execute(&x, &f);
            assert!(want.approx_eq(&got, 0.0), "{order:?}");
        }
    }

    #[test]
    fn execute_matches_with_strides_and_big_blocks() {
        let s = ConvShape::square(1, 3, 11, 4, 3, 2, 1).unwrap();
        let x = Tensor::<i64>::random(ifmap_dims(&s), Layout::Nchw, 3);
        let f = Tensor::<i64>::random(filter_dims(&s), Layout::Nchw, 4);
        let want = direct_conv(&s, &x, &f);
        let big = BlockConfig {
            bm: 1024,
            bn: 1024,
            bk: 1024,
        };
        let got = BlockDecomposition::new(s, big, FetchOrder::Reordered).execute(&x, &f);
        assert!(want.approx_eq(&got, 0.0));
    }

    #[test]
    fn reordered_taps_is_a_permutation() {
        let s = ConvShape::square(1, 2, 9, 2, 5, 2, 2).unwrap();
        let order = reordered_taps(&s);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, FilterTile::all(&s));
    }

    #[test]
    fn reuse_reduces_traffic_stride_1() {
        // Stride 1: adjacent taps overlap heavily, so reordered traffic is
        // much lower than naive.
        let s = ConvShape::square(1, 8, 28, 8, 3, 1, 1).unwrap();
        let d = BlockDecomposition::new(
            s,
            BlockConfig {
                bm: 64,
                bn: 8,
                bk: 8,
            },
            FetchOrder::Reordered,
        );
        let (cold, warm) = d.layer_fetch_elems();
        assert!(warm < cold, "reuse must reduce traffic: {warm} vs {cold}");
        assert!(
            (warm as f64) < 0.6 * cold as f64,
            "expected >40% cut, got {warm}/{cold}"
        );
    }

    #[test]
    fn reordered_beats_naive_order_under_stride_2() {
        // Under stride 2 only congruent taps share data; the greedy order
        // chains them while the raster order alternates congruence classes.
        let s = ConvShape::square(1, 8, 56, 8, 3, 2, 1).unwrap();
        let naive = BlockDecomposition::new(
            s,
            BlockConfig {
                bm: 64,
                bn: 8,
                bk: 8,
            },
            FetchOrder::Naive,
        );
        let reord = BlockDecomposition::new(
            s,
            BlockConfig {
                bm: 64,
                bn: 8,
                bk: 8,
            },
            FetchOrder::Reordered,
        );
        let (_, warm_naive) = naive.layer_fetch_elems();
        let (_, warm_reord) = reord.layer_fetch_elems();
        assert!(
            warm_reord < warm_naive,
            "reordered {warm_reord} should beat naive {warm_naive}"
        );
    }

    #[test]
    fn block_tap_pixels_respects_block_rows() {
        let s = shape();
        let d = BlockDecomposition::new(s, cfg(), FetchOrder::Naive);
        let blocks = d.output_blocks();
        let tile = FilterTile::new(1, 1);
        // A small block touches at most `rows` pixels.
        let px = reference::block_tap_pixels(&d, &blocks[0], tile);
        assert!(px.len() <= blocks[0].rows);
        assert!(!px.is_empty());
    }
}
