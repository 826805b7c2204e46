//! The convolution-pass vocabulary: which of the four GEMM-shaped passes a
//! layer runs as.
//!
//! Training chips execute three distinct convolutions per layer — the
//! forward pass, the weight gradient and the input gradient — and
//! generator/segmentation networks add transposed convolution as a primary
//! op. All four are matrix multiplications over *views* of the same three
//! tensors (BP-Im2col), so one [`iconv_tensor::ConvShape`] plus a
//! [`ConvPass`] fully determines the GEMM each pass streams:
//!
//! | pass      | M          | N  | K          | reads          | writes |
//! |-----------|------------|----|------------|----------------|--------|
//! | forward   | `N·Ho·Wo`  | Co | `Hf·Wf·Ci` | IFMap, filter  | OFMap  |
//! | wgrad     | `Hf·Wf·Ci` | Co | `N·Ho·Wo`  | IFMap, dY      | dW     |
//! | dgrad     | `N·Hi·Wi`  | Ci | `Hf·Wf·Co` | dY, filter     | dX     |
//! | transpose | `N·Hi·Wi`  | Ci | `Hf·Wf·Co` | input, filter  | output |
//!
//! dgrad is the forward schedule run through a 180°-rotated filter over the
//! stride-dilated output gradient (see [`crate::backward`]); transposed
//! convolution is the same GEMM applied to an input rather than a gradient,
//! so the two passes share cost structure but are distinct vocabulary (a
//! transpose layer's `shape` describes the *forward* convolution whose
//! adjoint it computes). Forward and wgrad multiply the same three
//! dimension groups, so their dense GEMMs perform exactly `shape.flops()`;
//! the dgrad/transpose *dense* view ranges over input pixels and the
//! stride-dilated gradient, so its `2·M·N·K` is an upper bound on the
//! useful work — the adjoint identity pins useful MACs at `shape.flops()`
//! for every pass, which is what the cost models report.

use iconv_tensor::ConvShape;

/// Which pass of a convolution layer to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ConvPass {
    /// The inference/forward pass (the paper's sole subject).
    #[default]
    Forward,
    /// Weight gradient: `dW = lowered(IFMap)ᵀ · dY`.
    Wgrad,
    /// Input gradient: `dX = lowered(dY) · rot180(W)ᵀ`.
    Dgrad,
    /// Transposed convolution (a.k.a. deconvolution): the dgrad GEMM
    /// applied to an activation, upsampling `Ho×Wo → Hi×Wi`.
    Transpose,
}

/// All passes, in wire order (the CI matrix iterates this).
pub const ALL_PASSES: [ConvPass; 4] = [
    ConvPass::Forward,
    ConvPass::Wgrad,
    ConvPass::Dgrad,
    ConvPass::Transpose,
];

impl ConvPass {
    /// The canonical wire spelling (also the canonical-key component).
    pub fn wire(self) -> &'static str {
        match self {
            ConvPass::Forward => "forward",
            ConvPass::Wgrad => "wgrad",
            ConvPass::Dgrad => "dgrad",
            ConvPass::Transpose => "transpose",
        }
    }

    /// Parse a wire spelling (the inverse of [`ConvPass::wire`]).
    pub fn from_wire(s: &str) -> Option<Self> {
        match s {
            "forward" => Some(ConvPass::Forward),
            "wgrad" => Some(ConvPass::Wgrad),
            "dgrad" => Some(ConvPass::Dgrad),
            "transpose" => Some(ConvPass::Transpose),
            _ => None,
        }
    }

    /// The `(M, N, K)` of this pass's GEMM view of `shape` (see the module
    /// table). `2·M·N·K == shape.flops()` for every pass.
    pub fn gemm_mnk(self, shape: &ConvShape) -> (usize, usize, usize) {
        let pixels = shape.n * shape.out_h() * shape.out_w();
        let taps_in = shape.hf * shape.wf * shape.ci;
        let taps_out = shape.hf * shape.wf * shape.co;
        match self {
            ConvPass::Forward => (pixels, shape.co, taps_in),
            ConvPass::Wgrad => (taps_in, shape.co, pixels),
            ConvPass::Dgrad | ConvPass::Transpose => {
                (shape.n * shape.hi * shape.wi, shape.ci, taps_out)
            }
        }
    }

    /// Elements of the conceptual lowered matrix this pass would
    /// materialize under *explicit* im2col: `M·K` of the GEMM view. For the
    /// forward and wgrad passes this is the classic lowered IFMap (they
    /// share it, transposed); dgrad/transpose lower the output-side tensor.
    pub fn lowered_view_elems(self, shape: &ConvShape) -> usize {
        let (m, _, k) = self.gemm_mnk(shape);
        m * k
    }

    /// Pointer-table entries of Dukhan's indirect-convolution buffer for
    /// this pass: one pointer per (output pixel, filter tap), shared across
    /// the batch and channel dimensions.
    pub fn indirect_ptr_entries(self, shape: &ConvShape) -> usize {
        let taps = shape.hf * shape.wf;
        match self {
            ConvPass::Forward | ConvPass::Wgrad => shape.out_h() * shape.out_w() * taps,
            ConvPass::Dgrad | ConvPass::Transpose => shape.hi * shape.wi * taps,
        }
    }

    /// Whether this pass streams the *output-side* tensor (dY or the
    /// transpose input) as its gathered operand — i.e. the im2col view is
    /// taken over a `Co`-channel, `Ho×Wo`-spatial tensor rather than the
    /// IFMap.
    pub fn gathers_output_side(self) -> bool {
        matches!(self, ConvPass::Dgrad | ConvPass::Transpose)
    }

    /// The tensor this pass gathers, as `(elements, channels, width)`: the
    /// IFMap for forward and wgrad, the output-side tensor for dgrad and
    /// transpose (see [`ConvPass::gathers_output_side`]).
    pub fn gathered(self, shape: &ConvShape) -> (usize, usize, usize) {
        if self.gathers_output_side() {
            (shape.ofmap_elems(), shape.co, shape.out_w())
        } else {
            (shape.ifmap_elems(), shape.ci, shape.wi)
        }
    }
}

impl std::fmt::Display for ConvPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::square(8, 96, 27, 256, 5, 2, 2).unwrap()
    }

    #[test]
    fn wire_round_trips() {
        for p in ALL_PASSES {
            assert_eq!(ConvPass::from_wire(p.wire()), Some(p));
        }
        assert_eq!(ConvPass::from_wire("sideways"), None);
    }

    #[test]
    fn view_flops_bound_useful_flops() {
        let s = shape();
        for p in ALL_PASSES {
            let (m, n, k) = p.gemm_mnk(&s);
            // The dense view never undercounts the useful work...
            assert!(2 * (m * n * k) as u64 >= s.flops(), "{p}");
        }
        // ...and forward/wgrad perform it exactly.
        for p in [ConvPass::Forward, ConvPass::Wgrad] {
            let (m, n, k) = p.gemm_mnk(&s);
            assert_eq!(2 * (m * n * k) as u64, s.flops(), "{p}");
        }
    }

    #[test]
    fn forward_view_matches_shape_gemm() {
        let s = shape();
        assert_eq!(ConvPass::Forward.gemm_mnk(&s), s.gemm_mnk());
        assert_eq!(ConvPass::Forward.lowered_view_elems(&s), s.lowered_elems());
        // wgrad lowers the same matrix, transposed.
        assert_eq!(ConvPass::Wgrad.lowered_view_elems(&s), s.lowered_elems());
    }

    #[test]
    fn dgrad_and_transpose_share_the_view() {
        let s = shape();
        assert_eq!(
            ConvPass::Dgrad.gemm_mnk(&s),
            ConvPass::Transpose.gemm_mnk(&s)
        );
        let (m, n, k) = ConvPass::Dgrad.gemm_mnk(&s);
        assert_eq!(m, s.n * s.hi * s.wi);
        assert_eq!(n, s.ci);
        assert_eq!(k, s.hf * s.wf * s.co);
    }

    #[test]
    fn pointer_table_is_batch_and_channel_free() {
        let s = shape();
        let fwd = ConvPass::Forward.indirect_ptr_entries(&s);
        assert_eq!(fwd, s.out_h() * s.out_w() * s.hf * s.wf);
        // Doubling the batch or channels leaves the table unchanged.
        let big = ConvShape::square(16, 192, 27, 512, 5, 2, 2).unwrap();
        assert_eq!(ConvPass::Forward.indirect_ptr_entries(&big), fwd);
        assert_eq!(
            ConvPass::Dgrad.indirect_ptr_entries(&s),
            s.hi * s.wi * s.hf * s.wf
        );
    }
}
