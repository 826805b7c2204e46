//! Global-memory traffic accounting per convolution schedule.
//!
//! The schedules differ in *what* each thread block stages into shared
//! memory, which is where the paper's stride effects come from:
//!
//! * **Channel-last (cuDNN proxy, Lym-et-al. structure)** — each output
//!   block stages the *input region* covering its receptive fields and
//!   dynamically forms lowered rows from it. The region (≈ the whole IFMap,
//!   summed over blocks) does **not** shrink with stride, while the GEMM
//!   work does: the Fig. 3 imbalance.
//! * **Channel-first (ours)** — each block fetches, per decomposed filter
//!   tap, exactly the pixels that tap needs for the block's outputs. Traffic
//!   scales with the *output* count, so it shrinks with the GEMM under
//!   stride: the Fig. 8b balance. With inter-tile reuse
//!   ([`iconv_core::FetchOrder::Reordered`]), overlap with the previously
//!   resident tap is subtracted.
//! * **GEMM-equivalent** — dense `A` rows; the Fig. 4 reference bars.

use crate::config::GpuConfig;
use iconv_core::{BlockConfig, BlockDecomposition, ConvPass, FetchOrder};
use iconv_tensor::ConvShape;

/// Traffic (bytes) and the characteristic DRAM run length of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Total bytes read from global memory for the `A` (IFMap) side.
    pub a_bytes: u64,
    /// Total bytes read for the `B` (filter) side.
    pub b_bytes: u64,
    /// Bytes written for the output.
    pub c_bytes: u64,
    /// Characteristic contiguous run length of the `A`-side accesses.
    pub a_run_bytes: u64,
}

impl Traffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.a_bytes + self.b_bytes + self.c_bytes
    }
}

/// V100 L2 capacity; a B column-tile that fits in half of it stays resident
/// across the m-blocks that share it.
const L2_BYTES: u64 = 6 * 1024 * 1024;

fn common_bc(cfg: &GpuConfig, shape: &ConvShape) -> (u64, u64, u64, u64) {
    let (m, n, k) = shape.gemm_mnk();
    view_bc(cfg, m, n, k)
}

/// The B/C side of any `M×N×K` GEMM view under the block schedule — the
/// backward passes run the same tiling over swapped tensor roles, so the
/// view dimensions are a parameter rather than always `shape.gemm_mnk()`.
fn view_bc(cfg: &GpuConfig, m: usize, n: usize, k: usize) -> (u64, u64, u64, u64) {
    let blocks_m = m.div_ceil(cfg.block.bm) as u64;
    let blocks_n = n.div_ceil(cfg.block.bn) as u64;
    // B column-tile: re-read per m-block only when it cannot stay in L2.
    let b_tile = (k * cfg.block.bn.min(n)) as u64 * cfg.elem_bytes;
    let b_bytes = if b_tile <= L2_BYTES / 2 {
        (k * n) as u64 * cfg.elem_bytes
    } else {
        b_tile * blocks_m * blocks_n
    };
    let c_bytes = (m * n) as u64 * cfg.elem_bytes;
    (blocks_m, blocks_n, b_bytes, c_bytes)
}

/// Traffic of the channel-last (cuDNN-proxy) schedule: the input coverage is
/// staged once per output-column block regardless of stride.
pub fn channel_last(cfg: &GpuConfig, shape: &ConvShape) -> Traffic {
    let (_bm, blocks_n, b_bytes, c_bytes) = common_bc(cfg, shape);
    let ifmap_bytes = shape.ifmap_elems() as u64 * cfg.elem_bytes;
    // When the stride exceeds the (dilated) filter extent, some input
    // pixels belong to no receptive field and are never fetched: per
    // dimension, only `min(f, s)` of every `s` rows/columns are used.
    let used_h = (shape.eff_hf().min(shape.stride_h) as f64) / shape.stride_h as f64;
    let used_w = (shape.eff_wf().min(shape.stride_w) as f64) / shape.stride_w as f64;
    // Region loads are row-contiguous in the NHWC global layout while the
    // filter covers every column (stride ≤ filter width); beyond that only
    // the strided pixels are read, so runs shrink to one channel vector.
    let run = if shape.stride_w <= shape.eff_wf() {
        (shape.wi * shape.ci) as u64 * cfg.elem_bytes
    } else {
        shape.ci as u64 * cfg.elem_bytes
    };
    Traffic {
        a_bytes: (ifmap_bytes as f64 * used_h * used_w) as u64 * blocks_n,
        b_bytes,
        c_bytes,
        a_run_bytes: run,
    }
}

/// The reuse-ordered A-side fetch counts of one layer, one per thread-block
/// output tile.
///
/// [`BlockDecomposition::layer_fetch_elems`] reads only the tile's `bm`
/// and `bn`, and it is most of what a channel-first estimate costs. So
/// estimates of one layer under several configurations (a design-space
/// search) count each distinct `(bm, bn)` once and share it. A fresh value
/// per estimate shares nothing.
#[derive(Debug)]
pub struct ReuseFetches {
    shape: ConvShape,
    counts: Vec<((usize, usize), u64)>,
}

impl ReuseFetches {
    /// No counts yet, for estimates of `shape`.
    pub fn new(shape: ConvShape) -> Self {
        Self {
            shape,
            counts: Vec::new(),
        }
    }

    /// The layer's A-side elements under the reuse reordering with output
    /// tiles of `block`, counted on the first request for its `(bm, bn)`.
    fn elems(&mut self, shape: &ConvShape, block: BlockConfig) -> u64 {
        debug_assert_eq!(*shape, self.shape, "fetch counts shared across layers");
        let tile = (block.bm, block.bn);
        if let Some(&(_, n)) = self.counts.iter().find(|(t, _)| *t == tile) {
            return n;
        }
        let n = BlockDecomposition::new(self.shape, block, FetchOrder::Reordered)
            .layer_fetch_elems()
            .1;
        self.counts.push((tile, n));
        n
    }
}

/// Traffic of the block-level channel-first schedule, with or without the
/// inter-tile reuse reordering. Exact whole-layer accounting: with reuse via
/// [`BlockDecomposition::layer_fetch_elems`], which counts each distinct
/// block phase in closed form (O(1) per tap) and weights it by how often
/// the phase recurs over the layer's row and column blocks, taken from
/// `fetches` when another estimate of the layer already counted this
/// tile; without it via [`BlockDecomposition::layer_cold_elems`], one
/// product per tap.
pub fn channel_first(
    cfg: &GpuConfig,
    shape: &ConvShape,
    reuse: bool,
    fetches: &mut ReuseFetches,
) -> Traffic {
    // The paper's naive order "has no data reuse" (Fig. 12): each tap's
    // sub-tile is fetched in full. The reordering keeps the previous tap
    // resident and fetches only the fresh pixels.
    let a_elems = if reuse {
        fetches.elems(shape, cfg.block)
    } else {
        BlockDecomposition::new(*shape, cfg.block, FetchOrder::Naive).layer_cold_elems()
    };
    let (_bm, _bn, b_bytes, c_bytes) = common_bc(cfg, shape);
    // Tap fetches: contiguous across channels (× consecutive pixels when the
    // layer is dense in `w`).
    let per_pixel = shape.ci as u64 * cfg.elem_bytes;
    let run = if shape.stride_w == 1 && shape.dil_w == 1 {
        per_pixel * shape.out_w().min(cfg.block.bm) as u64
    } else {
        per_pixel
    };
    Traffic {
        a_bytes: a_elems * cfg.elem_bytes,
        b_bytes,
        c_bytes,
        a_run_bytes: run,
    }
}

/// Traffic of a plain `M×N×K` GEMM over a pass's view (the Fig. 4
/// reference, and the GEMM half of explicit im2col): dense `A` rows
/// streamed once per output-column block.
pub fn view_gemm(cfg: &GpuConfig, m: usize, n: usize, k: usize) -> Traffic {
    let (_bm, blocks_n, b_bytes, c_bytes) = view_bc(cfg, m, n, k);
    // An A row-tile (bm × K) that fits in half the L2 is read once and
    // reused across the output-column blocks (swizzled launch order).
    let a_tile = (cfg.block.bm * k) as u64 * cfg.elem_bytes;
    let a_reads = if a_tile <= L2_BYTES / 2 { 1 } else { blocks_n };
    Traffic {
        a_bytes: (m * k) as u64 * cfg.elem_bytes * a_reads,
        b_bytes,
        c_bytes,
        a_run_bytes: (k as u64 * cfg.elem_bytes).max(4096),
    }
}

/// Traffic of an *implicit* backward/transposed pass: the gathered operand
/// streams straight from its tensor (no lowered matrix, no materialized
/// zero dilation — BP-Im2col), so the A side is exactly the source tensor's
/// footprint; B and C follow the pass's GEMM view, which maps them onto the
/// other operand and the result tensor byte-for-byte (`K·N` is the filter
/// for dgrad and dY for wgrad; `M·N` is the written gradient).
pub fn pass_implicit(cfg: &GpuConfig, shape: &ConvShape, pass: ConvPass) -> Traffic {
    let (m, n, k) = pass.gemm_mnk(shape);
    let (_bm, _bn, b_bytes, c_bytes) = view_bc(cfg, m, n, k);
    let (src_elems, channels, width) = pass.gathered(shape);
    // Gathers are contiguous across channels (× consecutive pixels when the
    // layer is dense in `w` — dilation holes break the run exactly like a
    // forward stride).
    let per_pixel = channels as u64 * cfg.elem_bytes;
    let run = if shape.stride_w == 1 && shape.dil_w == 1 {
        per_pixel * width as u64
    } else {
        per_pixel
    };
    Traffic {
        a_bytes: src_elems as u64 * cfg.elem_bytes,
        b_bytes,
        c_bytes,
        a_run_bytes: run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::v100()
    }

    fn shape(stride: usize) -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, stride, 1).unwrap()
    }

    #[test]
    fn channel_last_a_traffic_is_stride_independent() {
        let t1 = channel_last(&cfg(), &shape(1));
        let t2 = channel_last(&cfg(), &shape(2));
        assert_eq!(t1.a_bytes, t2.a_bytes);
        // ...while the GEMM work shrinks 4x: the Fig. 3 imbalance.
        assert!(shape(1).flops() > 3 * shape(2).flops());
    }

    #[test]
    fn channel_first_a_traffic_shrinks_with_stride() {
        let t1 = channel_first(&cfg(), &shape(1), true, &mut ReuseFetches::new(shape(1)));
        let t2 = channel_first(&cfg(), &shape(2), true, &mut ReuseFetches::new(shape(2)));
        assert!(
            (t2.a_bytes as f64) < 0.6 * t1.a_bytes as f64,
            "s1 {} vs s2 {}",
            t1.a_bytes,
            t2.a_bytes
        );
    }

    #[test]
    fn reuse_cuts_channel_first_traffic() {
        let s = shape(2);
        let naive = channel_first(&cfg(), &s, false, &mut ReuseFetches::new(s));
        let reordered = channel_first(&cfg(), &s, true, &mut ReuseFetches::new(s));
        assert!(
            reordered.a_bytes < naive.a_bytes,
            "reordered {} vs naive {}",
            reordered.a_bytes,
            naive.a_bytes
        );
    }

    #[test]
    fn stride1_parity_between_schedules() {
        // At stride 1 the reordered channel-first traffic is within ~2x of
        // the channel-last coverage (both ≈ one pass over the used input per
        // n-block).
        // Per-block strips re-fetch their row halo (no L2 model), so the
        // channel-first total sits a small multiple above the one-pass
        // coverage; it must stay the same order of magnitude.
        let s = shape(1);
        let cl = channel_last(&cfg(), &s);
        let cf = channel_first(&cfg(), &s, true, &mut ReuseFetches::new(s));
        let ratio = cf.a_bytes as f64 / cl.a_bytes as f64;
        assert!((0.4..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gemm_equivalent_scales_with_lowered_size() {
        let gemm = |s: ConvShape| {
            let (m, n, k) = s.gemm_mnk();
            view_gemm(&cfg(), m, n, k)
        };
        let ratio = gemm(shape(1)).a_bytes as f64 / gemm(shape(2)).a_bytes as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pass_implicit_traffic_is_the_tensor_footprint() {
        // B-resident shape: every pass's implicit traffic is exactly the
        // three tensor footprints (no lowered matrix ever hits DRAM).
        let c = cfg();
        let s = shape(2);
        for pass in iconv_core::ALL_PASSES {
            let t = pass_implicit(&c, &s, pass);
            let (m, n, k) = pass.gemm_mnk(&s);
            let src = if pass.gathers_output_side() {
                s.ofmap_elems()
            } else {
                s.ifmap_elems()
            };
            assert_eq!(t.a_bytes, src as u64 * c.elem_bytes, "{pass}");
            assert_eq!(
                t.b_bytes,
                (k * n) as u64 * c.elem_bytes,
                "{pass} B resident"
            );
            assert_eq!(t.c_bytes, (m * n) as u64 * c.elem_bytes, "{pass}");
        }
        // dgrad's B side is the filter; wgrad's is dY.
        let d = pass_implicit(&c, &s, iconv_core::ConvPass::Dgrad);
        assert_eq!(d.b_bytes, s.filter_elems() as u64 * c.elem_bytes);
        let w = pass_implicit(&c, &s, iconv_core::ConvPass::Wgrad);
        assert_eq!(w.b_bytes, s.ofmap_elems() as u64 * c.elem_bytes);
    }

    #[test]
    fn channel_first_matches_the_per_block_sum() {
        // The periodic whole-layer count must reproduce the exact per-block
        // sum from iconv-core, with and without reuse; batch 3 puts blocks
        // across image boundaries.
        let s = ConvShape::square(3, 4, 10, 8, 3, 1, 1).unwrap();
        for (reuse, order) in [(false, FetchOrder::Naive), (true, FetchOrder::Reordered)] {
            let t = channel_first(&cfg(), &s, reuse, &mut ReuseFetches::new(s));
            let decomp = BlockDecomposition::new(s, cfg().block, order);
            let (cold, warm) = iconv_core::block::reference::layer_fetch_elems(&decomp);
            let want = if reuse { warm } else { cold };
            assert_eq!(t.a_bytes, want * cfg().elem_bytes, "reuse={reuse}");
        }
    }
}
