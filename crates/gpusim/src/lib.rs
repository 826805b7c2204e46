//! # iconv-gpusim
//!
//! A V100 Tensor-Core GPU timing model running the paper's convolution
//! schedules (Secs. II, V): the cuDNN-proxy implicit **channel-last**
//! algorithm, our block-level implicit **channel-first** algorithm (with and
//! without inter-tile reuse), the **explicit** im2col baseline, the plain
//! **GEMM-equivalent** reference and Dukhan's **indirect** convolution, for
//! every pass of training through one cost path.
//!
//! All schedules run on the *identical* machine model (SM fleet, shared-
//! memory tile pipeline, run-length-aware HBM), so differences isolate the
//! algorithmic effects the paper measures: stride sensitivity (Fig. 4a),
//! explicit-transform overhead (Fig. 2a), near-parity at batch 8 (Fig. 17),
//! strided-layer wins (Fig. 18a) and inter-tile reuse (Fig. 18b).
//!
//! ```
//! use iconv_gpusim::{GpuAlgo, GpuConfig, GpuSim};
//! use iconv_tensor::ConvShape;
//!
//! # fn main() -> Result<(), iconv_tensor::ShapeError> {
//! let sim = GpuSim::new(GpuConfig::v100());
//! let layer = ConvShape::square(8, 128, 56, 128, 3, 2, 1)?; // strided
//! let ours = sim.simulate_conv("l", &layer, GpuAlgo::ChannelFirst { reuse: true });
//! let cudnn = sim.simulate_conv("l", &layer, GpuAlgo::CudnnImplicit);
//! assert!(ours.timing.cycles <= cudnn.timing.cycles * 1.05);
//! # Ok(()) }
//! ```

pub mod config;
pub mod conv;
pub mod kernel;
pub mod traffic;

pub use config::{GpuConfig, GpuConfigBuilder, GpuConfigError};
pub use conv::{GpuAlgo, GpuLayerReport, GpuSim};
pub use kernel::KernelTiming;
pub use traffic::{ReuseFetches, Traffic};
