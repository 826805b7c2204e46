//! The closed-form tap overlap, tap order and block traffic equal the
//! set-building oracles they replaced (`block::reference`,
//! `FilterTile::working_set`), integer for integer.
//!
//! Random shapes cover per-axis strides and dilations 1–3, symmetric,
//! asymmetric and "SAME" padding, batches 1–3, block heights from one row
//! to beyond two images, so blocks straddle image boundaries and the last
//! block is ragged, and block widths from one column to beyond `Co`, so a
//! layer spans one or several column blocks. The periodic whole-layer
//! count and the closed-form no-reuse count equal the block-by-block sum.
//! A deterministic sweep then checks every distinct paper shape at batch 1
//! and 8 under the tune grid's block tiles.

use iconv_core::block::{
    reference, reordered_taps, BlockConfig, BlockDecomposition, FetchOrder, OutputBlock,
};
use iconv_core::decompose::FilterTile;
use iconv_tensor::ConvShape;
use proptest::prelude::*;
use std::collections::BTreeSet;

const ORDERS: [FetchOrder; 2] = [FetchOrder::Naive, FetchOrder::Reordered];

/// Strided, dilated, padded shapes. Pad mode 0 pads symmetrically, 1 sets
/// independent trailing pads, 2 uses the framework "SAME" padding.
fn strided_shapes() -> impl Strategy<Value = ConvShape> {
    (
        (1usize..=3, 1usize..=3, 1usize..=4, 1usize..=4), // n, ci, hf, wf
        (1usize..=3, 1usize..=3, 1usize..=3, 1usize..=3), // stride h/w, dil h/w
        (0usize..=2, 0usize..=2, 0usize..=2, 0usize..=2), // pads: h, w, h end, w end
        (0usize..=2, 0usize..=9, 0usize..=9, 1usize..=9), // pad mode, extra h/w, co
    )
        .prop_filter_map(
            "filter must fit",
            |((n, ci, hf, wf), (sh, sw, dh, dw), (ph, pw, phe, pwe), (mode, xh, xw, co))| {
                let (eff_h, eff_w) = (dh * (hf - 1) + 1, dw * (wf - 1) + 1);
                let (phe, pwe) = if mode == 1 { (phe, pwe) } else { (ph, pw) };
                let hi = eff_h.saturating_sub(ph + phe).max(1) + xh;
                let wi = eff_w.saturating_sub(pw + pwe).max(1) + xw;
                let b = ConvShape::new(n, ci, hi, wi, co, hf, wf)
                    .stride_hw(sh, sw)
                    .dilation_hw(dh, dw);
                match mode {
                    0 => b.pad_hw(ph, pw),
                    1 => b.pad_hw(ph, pw).pad_end_hw(phe, pwe),
                    _ => b.same_pad(),
                }
                .build()
                .ok()
            },
        )
}

/// Outputs on one axis whose tap reads a valid input, by enumeration.
fn enumerate_valid(out: usize, stride: usize, off: usize, pad: usize, extent: usize) -> usize {
    (0..out)
        .filter(|o| {
            (o * stride + off)
                .checked_sub(pad)
                .is_some_and(|x| x < extent)
        })
        .count()
}

/// The periodic whole-layer count and the no-reuse closed form equal the
/// block-by-block sum.
fn assert_layer_matches(d: &BlockDecomposition) {
    let want = reference::layer_fetch_elems(d);
    let ctx = format!("{} {:?} {:?}", d.shape(), d.config(), d.order());
    assert_eq!(d.layer_fetch_elems(), want, "{ctx}");
    assert_eq!(d.layer_cold_elems(), want.0, "{ctx}");
}

fn assert_blocks_match(d: &BlockDecomposition, blocks: &[OutputBlock]) {
    for b in blocks {
        assert_eq!(
            d.block_fetch_elems(b),
            reference::block_fetch_elems(d, b),
            "{} {:?} {:?} {:?}",
            d.shape(),
            d.config(),
            d.order(),
            b
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Per-axis valid counts and pairwise overlaps equal enumeration.
    #[test]
    fn valid_counts_and_overlap_match_enumeration(shape in strided_shapes()) {
        let taps = FilterTile::all(&shape);
        let sets: Vec<BTreeSet<(usize, usize)>> =
            taps.iter().map(|t| t.working_set(&shape)).collect();
        for (a, ws) in taps.iter().zip(&sets) {
            prop_assert_eq!(
                a.valid_out_h(&shape),
                enumerate_valid(shape.out_h(), shape.stride_h, a.fh * shape.dil_h, shape.pad_h, shape.hi),
                "{} {}", shape, a
            );
            prop_assert_eq!(
                a.valid_out_w(&shape),
                enumerate_valid(shape.out_w(), shape.stride_w, a.fw * shape.dil_w, shape.pad_w, shape.wi),
                "{} {}", shape, a
            );
            prop_assert_eq!(a.working_set_len(&shape), ws.len(), "{} {}", shape, a);
            for (b, other) in taps.iter().zip(&sets) {
                prop_assert_eq!(
                    a.overlap(b, &shape),
                    ws.intersection(other).count(),
                    "{} {} {}", shape, a, b
                );
            }
        }
    }

    /// Tap order and per-block `(cold, warm)` equal the set-building
    /// references under both fetch orders, for every block, and the
    /// whole-layer count equals the per-block sum.
    #[test]
    fn closed_form_matches_reference(
        shape in strided_shapes(),
        bm_seed in 0usize..1 << 20,
        bn_seed in 0usize..1 << 20,
    ) {
        prop_assert_eq!(reordered_taps(&shape), reference::reordered_taps(&shape), "{}", shape);
        let bm = 1 + bm_seed % (2 * shape.out_h() * shape.out_w() + 3);
        let bn = 1 + bn_seed % (shape.co + 1);
        let cfg = BlockConfig { bm, bn, bk: 4 };
        for order in ORDERS {
            let d = BlockDecomposition::new(shape, cfg, order);
            assert_blocks_match(&d, &d.output_blocks());
            assert_layer_matches(&d);
        }
    }
}

/// Up to eight blocks spread over the layer: the first, the ragged last
/// one, the first two straddling an image boundary, and an even stride
/// through the rest.
fn sample_blocks(d: &BlockDecomposition) -> Vec<OutputBlock> {
    let blocks = d.output_blocks();
    let per_img = d.shape().out_h() * d.shape().out_w();
    let mut idx: BTreeSet<usize> = [0, blocks.len() - 1].into_iter().collect();
    idx.extend(
        blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.row0 % per_img + b.rows > per_img)
            .map(|(i, _)| i)
            .take(2),
    );
    let step = (blocks.len() / 4).max(1);
    idx.extend((0..blocks.len()).step_by(step).take(4));
    idx.into_iter().map(|i| blocks[i]).collect()
}

/// The tap order of every paper shape equals the reference. The order
/// depends only on the spatial geometry, so one shape per geometry at
/// batch 1 stands for all channel counts and batches.
#[test]
fn paper_tap_orders_match_reference() {
    let mut seen = BTreeSet::new();
    for s in iconv_workloads::distinct_shapes(1) {
        let geometry = (
            (s.hi, s.wi, s.hf, s.wf, s.stride_h, s.stride_w),
            (s.pad_h, s.pad_w, s.pad_h_end, s.pad_w_end, s.dil_h, s.dil_w),
        );
        if seen.insert(geometry) {
            assert_eq!(reordered_taps(&s), reference::reordered_taps(&s), "{s}");
        }
    }
}

/// Every distinct paper shape at batch 1 and 8, under each tune-grid block
/// tile and both orders. Blocks are sampled per layer so the set-building
/// oracle stays cheap in debug builds; the whole-layer counts, with and
/// without reuse, are checked against the full per-block sum.
#[test]
fn paper_blocks_match_reference() {
    let tiles = [(128, 128, 32), (64, 64, 32), (128, 128, 64)];
    let mut shapes = 0;
    for batch in [1, 8] {
        for shape in iconv_workloads::distinct_shapes(batch) {
            shapes += 1;
            for (bm, bn, bk) in tiles {
                for order in ORDERS {
                    let d = BlockDecomposition::new(shape, BlockConfig { bm, bn, bk }, order);
                    assert_blocks_match(&d, &sample_blocks(&d));
                    assert_layer_matches(&d);
                }
            }
        }
    }
    assert!(shapes > 300, "only {shapes} paper shapes");
}
