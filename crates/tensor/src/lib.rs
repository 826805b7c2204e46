//! # iconv-tensor
//!
//! Tensor substrate for the `implicit-conv` workspace: convolution shapes,
//! feature-map layouts, dense tensors, the reference (direct) convolution,
//! reference GEMM, and the **explicit** im2col baseline.
//!
//! Everything downstream — the channel-first implicit im2col algebra in
//! `iconv-core`, the TPU simulator, the GPU model — is defined in terms of,
//! and tested against, the primitives here.
//!
//! ## Quick tour
//!
//! ```
//! use iconv_tensor::{conv_ref, im2col, ColumnOrder, ConvShape, Layout, Tensor};
//!
//! # fn main() -> Result<(), iconv_tensor::ShapeError> {
//! let shape = ConvShape::square(1, 8, 5, 4, 3, 1, 0)?; // the paper's Fig. 5 example
//! let x = Tensor::<f32>::random(conv_ref::ifmap_dims(&shape), Layout::Nhwc, 1);
//! let f = Tensor::<f32>::random(conv_ref::filter_dims(&shape), Layout::Nchw, 2);
//!
//! // Golden model:
//! let golden = conv_ref::direct_conv(&shape, &x, &f);
//! // Explicit im2col with the paper's channel-first column order:
//! let lowered = im2col::conv_explicit(&shape, &x, &f, ColumnOrder::ChannelFirst);
//! assert!(golden.approx_eq(&lowered, 1e-4));
//! # Ok(()) }
//! ```

pub mod conv_ref;
pub mod im2col;
pub mod layout;
pub mod mat;
pub mod shape;
pub mod tensor;

pub use im2col::{ColumnOrder, Tap};
pub use layout::{Axis, Coord, Dims, Layout};
pub use mat::{GemmWorkspace, Matrix};
pub use shape::{ConvShape, ConvShapeBuilder, ShapeError};
pub use tensor::{Scalar, Tensor};
