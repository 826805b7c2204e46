//! Property-based tests of the tensor substrate: random shapes, layouts and
//! data, checking the algebraic invariants everything downstream rests on.

use iconv_tensor::conv_ref::{direct_conv, filter_dims, ifmap_dims};
use iconv_tensor::im2col::{conv_explicit, entry_coord, lower, output_to_row, row_to_output};
use iconv_tensor::{ColumnOrder, ConvShape, Dims, Layout, Matrix, ShapeError, Tensor};
use proptest::prelude::*;

/// Random valid convolution shapes, kept small for test speed.
fn conv_shapes() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=3, // n
        1usize..=6, // ci
        1usize..=4, // hf
        1usize..=4, // wf
        1usize..=6, // co
        1usize..=3, // stride
        0usize..=2, // pad
        1usize..=2, // dilation
        0usize..=6, // extra spatial beyond minimum
    )
        .prop_filter_map("filter must fit", |(n, ci, hf, wf, co, s, p, d, extra)| {
            let eff_h = d * (hf - 1) + 1;
            let eff_w = d * (wf - 1) + 1;
            let hi = eff_h.saturating_sub(2 * p).max(1) + extra;
            let wi = eff_w.saturating_sub(2 * p).max(1) + extra;
            ConvShape::new(n, ci, hi, wi, co, hf, wf)
                .stride(s)
                .pad(p)
                .dilation(d)
                .build()
                .ok()
        })
}

/// Any `usize`: mostly 1–7, sometimes below a million, near `usize::MAX`
/// or uniform, so that the products of a few fields land on both sides of
/// overflow.
fn any_field() -> impl Strategy<Value = usize> {
    (0u32..16, 0usize..usize::MAX).prop_map(|(class, v)| match class {
        0..=11 => 1 + v % 7,
        12 | 13 => v % 1_000_000,
        14 => usize::MAX - v % 4,
        _ => v,
    })
}

/// `ConvShapeBuilder::build` over any value in every field.
fn any_build() -> impl Strategy<Value = Result<ConvShape, ShapeError>> {
    let f = any_field;
    (
        (f(), f(), f(), f(), f(), f(), f()),
        (f(), f(), f(), f(), f(), f(), f(), f()),
    )
        .prop_map(
            |((n, ci, hi, wi, co, hf, wf), (sh, sw, ph, pw, phe, pwe, dh, dw))| {
                ConvShape::new(n, ci, hi, wi, co, hf, wf)
                    .stride_hw(sh, sw)
                    .pad_hw(ph, pw)
                    .pad_end_hw(phe, pwe)
                    .dilation_hw(dh, dw)
                    .build()
            },
        )
}

fn dims() -> impl Strategy<Value = Dims> {
    (1usize..=4, 1usize..=5, 1usize..=5, 1usize..=5).prop_map(|(n, c, h, w)| Dims::new(n, c, h, w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layout offsets are bijections onto `0..len` for every layout.
    #[test]
    fn layout_offsets_are_bijective(d in dims()) {
        for layout in Layout::ALL {
            let mut seen = vec![false; d.len()];
            for coord in d.iter() {
                let off = layout.offset(d, coord);
                prop_assert!(off < d.len());
                prop_assert!(!seen[off], "collision at {off} in {layout}");
                seen[off] = true;
                prop_assert_eq!(layout.coord(d, off), coord);
            }
        }
    }

    /// Relayout round-trips preserve logical contents.
    #[test]
    fn relayout_roundtrip(d in dims(), seed in 0u64..1000) {
        let t = Tensor::<i32>::random(d, Layout::Nchw, seed);
        for layout in Layout::ALL {
            prop_assert!(t.relayout(layout).relayout(Layout::Nchw).approx_eq(&t, 0.0));
        }
    }

    /// Output-pixel <-> lowered-row mappings invert each other.
    #[test]
    fn row_mapping_bijective(shape in conv_shapes()) {
        for row in 0..shape.lowered_rows() {
            let (n, oh, ow) = row_to_output(&shape, row);
            prop_assert!(n < shape.n && oh < shape.out_h() && ow < shape.out_w());
            prop_assert_eq!(output_to_row(&shape, n, oh, ow), row);
        }
    }

    /// Column index <-> tap mappings invert each other in both orders.
    #[test]
    fn column_mapping_bijective(shape in conv_shapes()) {
        for order in ColumnOrder::ALL {
            for col in 0..shape.lowered_cols() {
                let tap = order.tap(&shape, col);
                prop_assert_eq!(order.col(&shape, tap), col);
            }
        }
    }

    /// The two lowered orders are column permutations of each other, and
    /// GEMM is invariant under the paired permutation — the paper's
    /// correctness argument for channel-first im2col.
    #[test]
    fn column_permutation_invariance(shape in conv_shapes(), seed in 0u64..1000) {
        let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, seed);
        let last = lower(&shape, &x, ColumnOrder::ChannelLast);
        let first = lower(&shape, &x, ColumnOrder::ChannelFirst);
        let perm = ColumnOrder::ChannelFirst.permutation_to(ColumnOrder::ChannelLast, &shape);
        prop_assert_eq!(last.permute_cols(&perm), first);
    }

    /// Explicit im2col + GEMM equals direct convolution, bit-exactly on
    /// integers, for both column orders.
    #[test]
    fn explicit_equals_direct(shape in conv_shapes(), seed in 0u64..1000) {
        let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, seed);
        let f = Tensor::<i64>::random(filter_dims(&shape), Layout::Nchw, seed + 1);
        let want = direct_conv(&shape, &x, &f);
        for order in ColumnOrder::ALL {
            prop_assert!(want.approx_eq(&conv_explicit(&shape, &x, &f, order), 0.0));
        }
    }

    /// Every lowered entry is either a valid in-bounds coordinate or a
    /// padding zero, and valid entries cover each coordinate of the
    /// receptive field exactly once per row.
    #[test]
    fn lowered_entries_in_bounds(shape in conv_shapes()) {
        let idims = ifmap_dims(&shape);
        for row in [0, shape.lowered_rows() - 1, shape.lowered_rows() / 2] {
            let mut seen = std::collections::BTreeSet::new();
            for col in 0..shape.lowered_cols() {
                if let Some(c) = entry_coord(&shape, ColumnOrder::ChannelFirst, row, col) {
                    prop_assert!(idims.contains(c), "{c} out of bounds");
                    prop_assert!(seen.insert(c), "duplicate {c} in row {row}");
                }
            }
        }
    }

    /// GEMM: blocked reference equals naive for arbitrary block sizes, and
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn gemm_identities(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        bs in 1usize..8, seed in 0u64..1000,
    ) {
        let mut s = seed;
        let mut next = move || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); ((s >> 33) % 17) as i64 - 8 };
        let a = Matrix::<i64>::from_fn(m, k, |_, _| next());
        let b = Matrix::<i64>::from_fn(k, n, |_, _| next());
        let c = a.matmul(&b);
        prop_assert_eq!(&a.reference_blocked(&b, bs), &c);
        prop_assert_eq!(b.transpose().matmul(&a.transpose()), c.transpose());
    }

    /// The packed register-blocked kernel is **bit-identical** to the plain
    /// `i-k-j` triple loop on floats over ragged shapes straddling the
    /// MR/NR panel boundaries — not approximately equal: the ascending-`k`
    /// single-accumulator order is a contract.
    #[test]
    fn packed_bit_identical_to_naive_f32(
        m in 1usize..=70, k in 1usize..=70, n in 1usize..=70, seed in 0u64..1000,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) % 2000) as f32 * 0.0173 - 17.3
        };
        let a = Matrix::<f32>::from_fn(m, k, |_, _| next());
        let b = Matrix::<f32>::from_fn(k, n, |_, _| next());
        let want = a.reference_gemm(&b);
        prop_assert_eq!(a.matmul(&b).as_slice(), want.as_slice());
        prop_assert_eq!(a.par_matmul(&b).as_slice(), want.as_slice());
    }

    /// Same bit-identity contract for f64 with a reused workspace across
    /// differently-shaped calls (stale pad lanes must never leak).
    #[test]
    fn packed_bit_identical_reused_workspace_f64(
        m1 in 1usize..=40, k1 in 1usize..=40, n1 in 1usize..=40,
        m2 in 1usize..=40, k2 in 1usize..=40, n2 in 1usize..=40,
        seed in 0u64..1000,
    ) {
        let mut ws = iconv_tensor::GemmWorkspace::new();
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) % 4000) as f64 * 0.00137 - 2.74
        };
        for (m, k, n) in [(m1, k1, n1), (m2, k2, n2)] {
            let a = Matrix::<f64>::from_fn(m, k, |_, _| next());
            let b = Matrix::<f64>::from_fn(k, n, |_, _| next());
            prop_assert_eq!(
                a.matmul_with(&b, &mut ws).as_slice(),
                a.reference_gemm(&b).as_slice()
            );
        }
    }

    /// Zero-dim edges: any of m, k, n being 0 yields the right-shaped
    /// (zero) result from every GEMM entry point.
    #[test]
    fn packed_zero_dim_edges(m in 0usize..=5, k in 0usize..=5, n in 0usize..=5, z in 0usize..3) {
        // Force at least one zero dimension.
        let (m, k, n) = match z {
            0 => (0, k, n),
            1 => (m, 0, n),
            _ => (m, k, 0),
        };
        let a = Matrix::<f32>::from_fn(m, k, |r, c| (r + c) as f32);
        let b = Matrix::<f32>::from_fn(k, n, |r, c| (r * 2 + c) as f32);
        let want = a.reference_gemm(&b);
        prop_assert_eq!(&a.matmul(&b), &want);
        prop_assert_eq!(&a.par_matmul(&b), &want);
        prop_assert_eq!(want.shape(), (m, n));
        prop_assert!(want.as_slice().iter().all(|&v| v == 0.0));
    }

    /// i64 magnitudes near the overflow edge: the packed kernel performs
    /// exactly the naive multiply/add sequence (pad lanes only ever add
    /// `0 * b`), so any sum the naive loop computes without wrapping, the
    /// packed kernel computes identically.
    #[test]
    fn packed_i64_overflow_adjacent(
        m in 1usize..=9, k in 1usize..=7, n in 1usize..=9, seed in 0u64..1000,
    ) {
        // |a|,|b| ≤ 2^30, so each product ≤ 2^60 and k ≤ 7 partial sums stay
        // under i64::MAX (7·2^60 ≈ 8.1e18 < 9.2e18) even in the worst case,
        // while landing within 15% of the overflow edge.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (s >> 3) as i64 & ((1i64 << 30) - 1);
            if s & 1 == 0 { v } else { -v }
        };
        let a = Matrix::<i64>::from_fn(m, k, |_, _| next());
        let b = Matrix::<i64>::from_fn(k, n, |_, _| next());
        prop_assert_eq!(a.matmul(&b).as_slice(), a.reference_gemm(&b).as_slice());
    }

    /// FLOP accounting equals the lowered GEMM dimensions.
    #[test]
    fn flops_consistent(shape in conv_shapes()) {
        let (m, n, k) = shape.gemm_mnk();
        prop_assert_eq!(shape.flops(), 2 * (m * n * k) as u64);
        prop_assert_eq!(shape.lowered_elems(), m * k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `build` never panics, whatever its fields hold, and a shape it
    /// accepts has every derived count in range: this crate's accessors
    /// and each pass's `2·M·N·K` (tests build with overflow checks on).
    #[test]
    fn build_never_panics(built in any_build()) {
        if let Ok(s) = built {
            let _ = (s.eff_hf(), s.eff_wf(), s.ifmap_elems(), s.filter_elems());
            let _ = (s.ofmap_elems(), s.lowered_elems(), s.flops());
            let (m, n, k) = s.gemm_mnk();
            let _ = 2 * m * n * k;
            let _ = 2 * (s.n * s.hi * s.wi) * s.ci * (s.hf * s.wf * s.co);
        }
    }
}

/// Non-proptest sanity: arbitrary fields build valid shapes and overflowing
/// ones alike.
#[test]
fn any_build_covers_both_outcomes() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let (mut built, mut overflowed) = (0, 0);
    for _ in 0..4096 {
        match any_build().new_tree(&mut runner).unwrap().current() {
            Ok(_) => built += 1,
            Err(e) if e.to_string().contains("overflows") => overflowed += 1,
            Err(_) => {}
        }
    }
    assert!(
        built >= 100 && overflowed >= 100,
        "{built} built, {overflowed} overflowed"
    );
}

/// Non-proptest sanity: the strategy actually generates strides/dilations.
#[test]
fn strategy_covers_variants() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let mut saw_stride = false;
    let mut saw_dil = false;
    for _ in 0..200 {
        let s = conv_shapes().new_tree(&mut runner).unwrap().current();
        saw_stride |= s.stride_h > 1;
        saw_dil |= s.dil_h > 1;
    }
    assert!(
        saw_stride && saw_dil,
        "strategy must exercise stride and dilation"
    );
}
