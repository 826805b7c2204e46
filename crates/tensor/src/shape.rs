//! Convolution problem shapes and their derived quantities.
//!
//! [`ConvShape`] is the central description of a convolution layer used
//! throughout the workspace: the batch size, input/output channel counts,
//! spatial extents, filter extents, stride, padding and dilation. All other
//! crates (the im2col algebra, the simulators, the workload tables) consume
//! this type.

use std::fmt;

/// Error returned when a convolution shape is inconsistent.
///
/// Produced by [`ConvShape::new`] when a dimension is zero, or when the
/// filter (after dilation) does not fit into the padded input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    msg: String,
}

impl ShapeError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid convolution shape: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// A complete description of one convolution layer.
///
/// Dimension naming follows the paper: the IFMap is `N × Ci × Hi × Wi`, the
/// filter is `Co × Ci × Hf × Wf`, and the OFMap is `N × Co × Ho × Wo` where
/// `Ho`/`Wo` are derived via [`ConvShape::out_h`]/[`ConvShape::out_w`].
///
/// # Examples
///
/// ```
/// # use iconv_tensor::ConvShape;
/// # fn main() -> Result<(), iconv_tensor::ShapeError> {
/// // ResNet-50 conv1: 224x224x3 -> 112x112x64, 7x7 filter, stride 2, pad 3.
/// let conv1 = ConvShape::new(1, 3, 224, 224, 64, 7, 7).stride(2).pad(3).build()?;
/// assert_eq!((conv1.out_h(), conv1.out_w()), (112, 112));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size `N`.
    pub n: usize,
    /// Input channels `Ci`.
    pub ci: usize,
    /// Input height `Hi`.
    pub hi: usize,
    /// Input width `Wi`.
    pub wi: usize,
    /// Output channels `Co`.
    pub co: usize,
    /// Filter height `Hf`.
    pub hf: usize,
    /// Filter width `Wf`.
    pub wf: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Leading (top) vertical zero padding. All geometry in the workspace
    /// treats `pad_h` as the offset of the first input row; the trailing
    /// pad only widens the output range via [`ConvShape::out_h`].
    pub pad_h: usize,
    /// Leading (left) horizontal zero padding.
    pub pad_w: usize,
    /// Trailing (bottom) vertical zero padding. Equal to `pad_h` for the
    /// common symmetric case; [`ConvShapeBuilder::same_pad`] sets it one
    /// larger for even effective filters (framework "SAME" semantics).
    pub pad_h_end: usize,
    /// Trailing (right) horizontal zero padding.
    pub pad_w_end: usize,
    /// Vertical dilation (1 = dense filter).
    pub dil_h: usize,
    /// Horizontal dilation (1 = dense filter).
    pub dil_w: usize,
}

/// Builder for [`ConvShape`]; created by [`ConvShape::new`].
#[derive(Debug, Clone, Copy)]
pub struct ConvShapeBuilder {
    shape: ConvShape,
}

impl ConvShapeBuilder {
    /// Set both strides to `s`.
    pub fn stride(mut self, s: usize) -> Self {
        self.shape.stride_h = s;
        self.shape.stride_w = s;
        self
    }

    /// Set the strides individually.
    pub fn stride_hw(mut self, sh: usize, sw: usize) -> Self {
        self.shape.stride_h = sh;
        self.shape.stride_w = sw;
        self
    }

    /// Set all four paddings to `p` (symmetric).
    pub fn pad(mut self, p: usize) -> Self {
        self.shape.pad_h = p;
        self.shape.pad_w = p;
        self.shape.pad_h_end = p;
        self.shape.pad_w_end = p;
        self
    }

    /// Set the per-axis paddings (symmetric: trailing pads follow).
    pub fn pad_hw(mut self, ph: usize, pw: usize) -> Self {
        self.shape.pad_h = ph;
        self.shape.pad_w = pw;
        self.shape.pad_h_end = ph;
        self.shape.pad_w_end = pw;
        self
    }

    /// Override the trailing (bottom/right) paddings independently of the
    /// leading ones. Call after [`Self::pad`]/[`Self::pad_hw`], which reset
    /// both sides.
    pub fn pad_end_hw(mut self, ph_end: usize, pw_end: usize) -> Self {
        self.shape.pad_h_end = ph_end;
        self.shape.pad_w_end = pw_end;
        self
    }

    /// Set both dilations to `d`.
    pub fn dilation(mut self, d: usize) -> Self {
        self.shape.dil_h = d;
        self.shape.dil_w = d;
        self
    }

    /// Set the dilations individually.
    pub fn dilation_hw(mut self, dh: usize, dw: usize) -> Self {
        self.shape.dil_h = dh;
        self.shape.dil_w = dw;
        self
    }

    /// "Same" padding: choose padding so that `Ho = ceil(Hi/stride)`,
    /// exactly, for every effective filter size.
    ///
    /// For an *even* effective filter `f` there is no symmetric padding
    /// that hits the target, so this pads asymmetrically the way the
    /// frameworks do: `leading = (f−1)/2`, `trailing = f/2` (one more at
    /// the bottom/right). Odd filters get the familiar `f/2` on both
    /// sides — identical to the historical behavior. Callers that need
    /// the old symmetric rounding (which over-pads even filters by one
    /// row/column) can use [`Self::same_pad_symmetric`].
    pub fn same_pad(mut self) -> Self {
        let eff_h = self.shape.dil_h * (self.shape.hf - 1) + 1;
        let eff_w = self.shape.dil_w * (self.shape.wf - 1) + 1;
        self.shape.pad_h = (eff_h - 1) / 2;
        self.shape.pad_w = (eff_w - 1) / 2;
        self.shape.pad_h_end = eff_h / 2;
        self.shape.pad_w_end = eff_w / 2;
        self
    }

    /// The pre-asymmetric "same" padding: `pad = f/2` on both sides.
    ///
    /// Exact for odd effective filters; for even filters this over-pads by
    /// one, so a stride-1 layer comes out one larger (`Ho = Hi + 1`) —
    /// see `same_pad_symmetric_overshoots_for_even_filters`. Kept for
    /// callers that must reproduce historical symmetric-only geometry.
    pub fn same_pad_symmetric(mut self) -> Self {
        let eff_h = self.shape.dil_h * (self.shape.hf - 1) + 1;
        let eff_w = self.shape.dil_w * (self.shape.wf - 1) + 1;
        self.shape.pad_h = eff_h / 2;
        self.shape.pad_w = eff_w / 2;
        self.shape.pad_h_end = self.shape.pad_h;
        self.shape.pad_w_end = self.shape.pad_w;
        self
    }

    /// Validate and produce the final [`ConvShape`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any dimension, stride or dilation is zero,
    /// if the dilated filter does not fit into the padded input, or if a
    /// count derived from the shape does not fit in a `usize`: an
    /// effective filter extent, a padded input extent, a tensor or lowered
    /// element count, the MACs or FLOPs, or a pass's GEMM product.
    pub fn build(self) -> Result<ConvShape, ShapeError> {
        let s = self.shape;
        let dims = [
            ("n", s.n),
            ("ci", s.ci),
            ("hi", s.hi),
            ("wi", s.wi),
            ("co", s.co),
            ("hf", s.hf),
            ("wf", s.wf),
            ("stride_h", s.stride_h),
            ("stride_w", s.stride_w),
            ("dil_h", s.dil_h),
            ("dil_w", s.dil_w),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(ShapeError::new(format!("{name} must be non-zero")));
            }
        }
        let overflows = |what: &str| ShapeError::new(format!("{what} overflows"));
        let eff = |dil: usize, f: usize| dil.checked_mul(f - 1)?.checked_add(1);
        let padded = |i: usize, lead: usize, trail: usize| i.checked_add(lead)?.checked_add(trail);
        let eff_h = eff(s.dil_h, s.hf).ok_or_else(|| overflows("effective filter height"))?;
        let eff_w = eff(s.dil_w, s.wf).ok_or_else(|| overflows("effective filter width"))?;
        let padded_h =
            padded(s.hi, s.pad_h, s.pad_h_end).ok_or_else(|| overflows("padded input height"))?;
        let padded_w =
            padded(s.wi, s.pad_w, s.pad_w_end).ok_or_else(|| overflows("padded input width"))?;
        if padded_h < eff_h {
            return Err(ShapeError::new(format!(
                "effective filter height {eff_h} exceeds padded input height {padded_h}"
            )));
        }
        if padded_w < eff_w {
            return Err(ShapeError::new(format!(
                "effective filter width {eff_w} exceeds padded input width {padded_w}"
            )));
        }
        // Every other count is a product of some of the factors of one of
        // these two FLOP counts, each factor at least 1, so it fits when
        // they do: forward and wgrad run `2·(N·Ho·Wo)·Co·(Hf·Wf·Ci)`, dgrad
        // and transpose `2·(N·Hi·Wi)·Ci·(Hf·Wf·Co)`.
        let flops = |rows: [usize; 3]| {
            let factors = [2, rows[0], rows[1], rows[2], s.hf, s.wf, s.ci, s.co];
            factors.iter().try_fold(1usize, |p, &f| p.checked_mul(f))
        };
        if flops([s.n, s.out_h(), s.out_w()]).is_none() {
            return Err(overflows("forward FLOP count"));
        }
        if flops([s.n, s.hi, s.wi]).is_none() {
            return Err(overflows("dgrad FLOP count"));
        }
        Ok(s)
    }
}

impl ConvShape {
    /// Start building a shape from the seven core dimensions; stride and
    /// dilation default to 1, padding to 0.
    #[allow(clippy::new_ret_no_self)] // deliberately returns the builder
    pub fn new(
        n: usize,
        ci: usize,
        hi: usize,
        wi: usize,
        co: usize,
        hf: usize,
        wf: usize,
    ) -> ConvShapeBuilder {
        ConvShapeBuilder {
            shape: ConvShape {
                n,
                ci,
                hi,
                wi,
                co,
                hf,
                wf,
                stride_h: 1,
                stride_w: 1,
                pad_h: 0,
                pad_w: 0,
                pad_h_end: 0,
                pad_w_end: 0,
                dil_h: 1,
                dil_w: 1,
            },
        }
    }

    /// Convenience constructor for square spatial/filter dims.
    ///
    /// # Errors
    ///
    /// Same as [`ConvShapeBuilder::build`].
    pub fn square(
        n: usize,
        ci: usize,
        hw: usize,
        co: usize,
        f: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        ConvShape::new(n, ci, hw, hw, co, f, f)
            .stride(stride)
            .pad(pad)
            .build()
    }

    /// Effective (dilated) filter height: `dil_h * (hf - 1) + 1`.
    pub fn eff_hf(&self) -> usize {
        self.dil_h * (self.hf - 1) + 1
    }

    /// Effective (dilated) filter width: `dil_w * (wf - 1) + 1`.
    pub fn eff_wf(&self) -> usize {
        self.dil_w * (self.wf - 1) + 1
    }

    /// Output height `Ho`.
    pub fn out_h(&self) -> usize {
        (self.hi + self.pad_h + self.pad_h_end - self.eff_hf()) / self.stride_h + 1
    }

    /// Output width `Wo`.
    pub fn out_w(&self) -> usize {
        (self.wi + self.pad_w + self.pad_w_end - self.eff_wf()) / self.stride_w + 1
    }

    /// True when either axis pads differently at the two ends (even-filter
    /// "SAME" geometry). Symmetric shapes render keys, wire encodings and
    /// display strings exactly as they always have; only asymmetric shapes
    /// carry the extra trailing-pad fields.
    pub fn has_asymmetric_pad(&self) -> bool {
        self.pad_h_end != self.pad_h || self.pad_w_end != self.pad_w
    }

    /// Number of rows of the lowered IFMap matrix: `N * Ho * Wo`.
    pub fn lowered_rows(&self) -> usize {
        self.n * self.out_h() * self.out_w()
    }

    /// Number of columns of the lowered IFMap matrix: `Hf * Wf * Ci`.
    pub fn lowered_cols(&self) -> usize {
        self.hf * self.wf * self.ci
    }

    /// Elements of the IFMap: `N * Ci * Hi * Wi`.
    pub fn ifmap_elems(&self) -> usize {
        self.n * self.ci * self.hi * self.wi
    }

    /// Elements of the filter tensor: `Co * Ci * Hf * Wf`.
    pub fn filter_elems(&self) -> usize {
        self.co * self.ci * self.hf * self.wf
    }

    /// Elements of the OFMap: `N * Co * Ho * Wo`.
    pub fn ofmap_elems(&self) -> usize {
        self.n * self.co * self.out_h() * self.out_w()
    }

    /// Elements of the (conceptual) lowered IFMap matrix.
    pub fn lowered_elems(&self) -> usize {
        self.lowered_rows() * self.lowered_cols()
    }

    /// Data duplication factor of explicit im2col: lowered elems / IFMap
    /// elems. Up to `Hf * Wf` for stride 1 (the paper's memory-overhead
    /// argument in Table I).
    pub fn duplication_factor(&self) -> f64 {
        self.lowered_elems() as f64 / self.ifmap_elems() as f64
    }

    /// Multiply–accumulate operations of the convolution.
    pub fn macs(&self) -> u64 {
        self.ofmap_elems() as u64 * (self.ci * self.hf * self.wf) as u64
    }

    /// Floating-point operations (2 per MAC), the figure-of-merit unit used
    /// for all TFLOPS numbers in the paper.
    pub fn flops(&self) -> u64 {
        2 * self.macs()
    }

    /// Equivalent GEMM dimensions `(M, N, K)` after im2col lowering:
    /// `M = N·Ho·Wo`, `N = Co`, `K = Hf·Wf·Ci`.
    pub fn gemm_mnk(&self) -> (usize, usize, usize) {
        (self.lowered_rows(), self.co, self.lowered_cols())
    }

    /// True when the convolution is already a GEMM (1×1 filter, unit stride,
    /// no padding): the case where im2col degenerates to a reshape.
    pub fn is_pointwise(&self) -> bool {
        self.hf == 1
            && self.wf == 1
            && self.stride_h == 1
            && self.stride_w == 1
            && self.pad_h == 0
            && self.pad_w == 0
            && self.pad_h_end == 0
            && self.pad_w_end == 0
    }

    /// Shape of one batch item (`n = 1`), used when a simulator iterates
    /// batch items explicitly.
    pub fn single_batch(&self) -> ConvShape {
        ConvShape { n: 1, ..*self }
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N{} Ci{} {}x{} Co{} f{}x{} s{}x{} p{}x{}",
            self.n,
            self.ci,
            self.hi,
            self.wi,
            self.co,
            self.hf,
            self.wf,
            self.stride_h,
            self.stride_w,
            self.pad_h,
            self.pad_w
        )?;
        if self.has_asymmetric_pad() {
            write!(f, "+{}x{}", self.pad_h_end, self.pad_w_end)?;
        }
        if self.dil_h != 1 || self.dil_w != 1 {
            write!(f, " d{}x{}", self.dil_h, self.dil_w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims_basic() {
        let s = ConvShape::square(1, 8, 5, 4, 3, 1, 0).unwrap();
        assert_eq!(s.out_h(), 3);
        assert_eq!(s.out_w(), 3);
    }

    #[test]
    fn output_dims_stride_pad() {
        // ResNet conv1.
        let s = ConvShape::square(1, 3, 224, 64, 7, 2, 3).unwrap();
        assert_eq!(s.out_h(), 112);
        assert_eq!(s.out_w(), 112);
    }

    #[test]
    fn output_dims_dilation() {
        let s = ConvShape::new(1, 1, 9, 9, 1, 3, 3)
            .dilation(2)
            .build()
            .unwrap();
        // effective filter = 5 -> out = 5
        assert_eq!(s.eff_hf(), 5);
        assert_eq!(s.out_h(), 5);
    }

    #[test]
    fn same_pad_keeps_size_for_odd_filters() {
        let s = ConvShape::new(1, 4, 14, 14, 4, 3, 3)
            .same_pad()
            .build()
            .unwrap();
        assert_eq!((s.out_h(), s.out_w()), (14, 14));
        let s = ConvShape::new(1, 4, 14, 14, 4, 5, 5)
            .same_pad()
            .build()
            .unwrap();
        assert_eq!((s.out_h(), s.out_w()), (14, 14));
    }

    /// Even effective filters have no symmetric "same" padding, so
    /// [`ConvShapeBuilder::same_pad`] pads asymmetrically — one more at the
    /// trailing edge, the framework convention — and hits the
    /// `Ho = ceil(Hi/stride)` target exactly.
    #[test]
    fn same_pad_is_exact_for_even_filters() {
        let s = ConvShape::new(1, 4, 14, 14, 4, 4, 4)
            .same_pad()
            .build()
            .unwrap();
        assert_eq!((s.pad_h, s.pad_w), (1, 1));
        assert_eq!((s.pad_h_end, s.pad_w_end), (2, 2));
        assert!(s.has_asymmetric_pad());
        assert_eq!((s.out_h(), s.out_w()), (14, 14));
        let s = ConvShape::new(1, 4, 14, 14, 4, 2, 2)
            .stride(2)
            .same_pad()
            .build()
            .unwrap();
        assert_eq!((s.pad_h, s.pad_h_end), (0, 1));
        assert_eq!((s.out_h(), s.out_w()), (7, 7)); // target: ceil(14/2) = 7
    }

    /// The historical symmetric rounding stays available, with the
    /// documented overshoot: `pad = f/2` on both sides adds one extra
    /// row/column, so stride 1 yields `Ho = Hi + 1` and stride 2 yields
    /// `Hi/2 + 1` rather than the `ceil(Hi/stride)` target.
    #[test]
    fn same_pad_symmetric_overshoots_for_even_filters() {
        let s = ConvShape::new(1, 4, 14, 14, 4, 4, 4)
            .same_pad_symmetric()
            .build()
            .unwrap();
        assert_eq!((s.pad_h, s.pad_w), (2, 2));
        assert!(!s.has_asymmetric_pad());
        assert_eq!((s.out_h(), s.out_w()), (15, 15));
        let s = ConvShape::new(1, 4, 14, 14, 4, 2, 2)
            .stride(2)
            .same_pad_symmetric()
            .build()
            .unwrap();
        assert_eq!((s.out_h(), s.out_w()), (8, 8));
    }

    /// Odd filters are unaffected by the asymmetric fix: both `same_pad`
    /// flavors produce identical symmetric shapes.
    #[test]
    fn same_pad_flavors_agree_on_odd_filters() {
        for f in [1usize, 3, 5, 7] {
            let a = ConvShape::new(1, 4, 14, 14, 4, f, f)
                .same_pad()
                .build()
                .unwrap();
            let b = ConvShape::new(1, 4, 14, 14, 4, f, f)
                .same_pad_symmetric()
                .build()
                .unwrap();
            assert_eq!(a, b, "f={f}");
            assert!(!a.has_asymmetric_pad(), "f={f}");
        }
    }

    /// Trailing pad participates in validation and output geometry: a
    /// filter that only fits thanks to the trailing pad builds, and the
    /// extra output positions come from the trailing edge.
    #[test]
    fn trailing_pad_extends_output() {
        let s = ConvShape::new(1, 1, 5, 5, 1, 3, 3)
            .pad_hw(0, 0)
            .pad_end_hw(2, 2)
            .build()
            .unwrap();
        assert_eq!((s.out_h(), s.out_w()), (5, 5));
        // Too-large filter fits once the trailing pad is counted.
        assert!(ConvShape::new(1, 1, 2, 2, 1, 3, 3)
            .pad_end_hw(1, 1)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(ConvShape::new(0, 1, 5, 5, 1, 3, 3).build().is_err());
        assert!(ConvShape::new(1, 1, 5, 5, 1, 0, 3).build().is_err());
        let err = ConvShape::new(1, 1, 5, 5, 1, 3, 3).stride(0).build();
        assert!(err.is_err());
    }

    #[test]
    fn filter_larger_than_input_rejected() {
        assert!(ConvShape::new(1, 1, 2, 2, 1, 3, 3).build().is_err());
        // ...but fits with padding.
        assert!(ConvShape::new(1, 1, 2, 2, 1, 3, 3).pad(1).build().is_ok());
    }

    #[test]
    fn counts_that_overflow_are_rejected() {
        let rejects = |b: ConvShapeBuilder, what: &str| {
            let err = b.build().expect_err(what).to_string();
            assert!(err.contains(what), "{err}");
        };
        let tall = ConvShape::new(1, 1, usize::MAX, 8, 1, 1, 1).pad(1);
        rejects(tall, "padded input height");
        let wide = ConvShape::new(99_999_999, 99_999_999_999, 56, 56, 64, 3, 3).pad(1);
        rejects(wide, "FLOP count");
        let dilated = ConvShape::new(1, 1, 8, 8, 1, 3, 3).dilation(usize::MAX);
        rejects(dilated, "effective filter height");
        // dgrad's GEMM spans the input plane: a stride-4 layer fits forward
        // with room to spare but overflows over `N·Hi·Wi`.
        let n = (1usize << 63) / (64 * 64 * 9) + 1;
        rejects(
            ConvShape::new(n, 1, 64, 64, 1, 3, 3).stride(4),
            "dgrad FLOP count",
        );
        assert!(ConvShape::new(n / 16, 1, 64, 64, 1, 3, 3)
            .stride(4)
            .build()
            .is_ok());
    }

    #[test]
    fn lowered_dims_and_duplication() {
        let s = ConvShape::square(1, 8, 5, 4, 3, 1, 0).unwrap();
        assert_eq!(s.lowered_rows(), 9);
        assert_eq!(s.lowered_cols(), 72);
        // 9*72 / (8*25) = 3.24x duplication
        assert!((s.duplication_factor() - 3.24).abs() < 1e-9);
    }

    #[test]
    fn flops_match_gemm() {
        let s = ConvShape::square(2, 16, 14, 32, 3, 1, 1).unwrap();
        let (m, n, k) = s.gemm_mnk();
        assert_eq!(s.flops(), 2 * (m * n * k) as u64);
    }

    #[test]
    fn pointwise_detection() {
        assert!(ConvShape::square(1, 8, 5, 4, 1, 1, 0)
            .unwrap()
            .is_pointwise());
        assert!(!ConvShape::square(1, 8, 5, 4, 3, 1, 1)
            .unwrap()
            .is_pointwise());
        let strided_1x1 = ConvShape::square(1, 8, 5, 4, 1, 2, 0).unwrap();
        assert!(!strided_1x1.is_pointwise());
    }

    #[test]
    fn display_is_compact() {
        let s = ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap();
        let d = format!("{s}");
        assert!(d.contains("N8") && d.contains("f3x3"));
    }
}
