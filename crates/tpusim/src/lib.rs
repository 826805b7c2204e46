//! # iconv-tpusim
//!
//! **TPUSim** — a configurable cycle-level simulator of a TPU-v2 core
//! executing convolutions via the implicit channel-first im2col algorithm
//! (paper Secs. IV & VI, Table II).
//!
//! The engine is a phase-level pipeline model of closed forms, each checked
//! at finer granularity elsewhere: its pass latency is the double-buffered
//! formula that `iconv-systolic`'s `gemm_timing` checks against the stepped
//! PE grid, and DRAM transfer times come from the run-length-aware model in
//! `iconv-dram` (checked against a bank/row-buffer trace simulator).
//! Layer-scale runs are therefore fast without being hand-waved.
//!
//! ```
//! use iconv_tpusim::{Simulator, SimMode, TpuConfig};
//! use iconv_tensor::ConvShape;
//!
//! # fn main() -> Result<(), iconv_tensor::ShapeError> {
//! let sim = Simulator::new(TpuConfig::tpu_v2());
//! let layer = ConvShape::square(8, 64, 56, 64, 3, 1, 1)?; // ResNet-ish
//! let report = sim.simulate_conv("res2_3x3", &layer, SimMode::ChannelFirst);
//! println!("{}: {:.1} TFLOPS", report.name, report.tflops(sim.config()));
//! # Ok(()) }
//! ```

pub mod config;
pub mod engine;
pub mod microsim;
pub mod report;
pub mod training;

pub use config::{TpuConfig, TpuConfigBuilder, TpuConfigError};
pub use engine::{SimMode, Simulator};
pub use report::{Bottleneck, LayerReport, ModelReport, Phases};
pub use training::TrainingReport;
