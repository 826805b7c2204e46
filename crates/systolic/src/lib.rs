//! # iconv-systolic
//!
//! A cycle-stepped, functional **weight-stationary systolic array** — the
//! dataflow ground truth beneath TPUSim.
//!
//! * [`mod@array`] — the PE grid, stepped cycle by cycle, producing both real
//!   GEMM results and exact cycle counts;
//! * [`timing`] — the closed-form pass/GEMM latency formulas, validated
//!   cycle-exactly against the stepped grid;
//! * [`conv`] — channel-first implicit convolution executed end-to-end on
//!   the grid, proving the full Sec. IV dataflow (including multi-tile
//!   merging) equals direct convolution.
//!
//! ```
//! use iconv_systolic::{ArrayConfig, conv::self_check};
//! use iconv_tensor::ConvShape;
//!
//! # fn main() -> Result<(), iconv_tensor::ShapeError> {
//! // The paper's Fig. 10 working example on a 4x4 array.
//! let shape = ConvShape::square(2, 4, 5, 4, 3, 1, 0)?;
//! assert!(self_check(ArrayConfig { rows: 4, cols: 4 }, &shape, 1));
//! # Ok(()) }
//! ```

pub mod array;
pub mod conv;
pub mod reference;
pub mod timing;

pub use array::{ArrayConfig, SystolicArray};
pub use timing::{gemm_timing, tile_stream_cycles, GemmTiming};
