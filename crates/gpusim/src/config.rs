//! V100 Tensor-Core GPU model configuration (paper Sec. VI: CUDA 10.2,
//! cuDNN 7, FP16, `cudaTensorCoreGemm`-style blocking).

use std::fmt;

use iconv_core::{BlockConfig, PipelineSchedule};
use iconv_dram::DramConfig;

/// Static GPU parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors (V100: 80).
    pub sms: usize,
    /// Tensor-core MACs per SM per cycle (V100: 8 TCs × 64 FP16 FMA = 512).
    pub tc_macs_per_sm_cycle: u64,
    /// Core clock in MHz (V100 SXM2 boost: 1530).
    pub clock_mhz: f64,
    /// Shared memory per SM in bytes (V100: 96 KB usable).
    pub shared_bytes: u64,
    /// Element size in bytes (FP16: 2).
    pub elem_bytes: u64,
    /// Off-chip memory model parameters.
    pub dram: DramConfig,
    /// Thread-block GEMM tile.
    pub block: BlockConfig,
    /// Concurrent thread blocks per SM (bounded by shared memory for the
    /// double-buffered tiles).
    pub blocks_per_sm: usize,
    /// Kernel launch + tail overhead in cycles (~3 µs).
    pub launch_cycles: u64,
    /// Relative software pipeline efficiency of our open implementation vs
    /// cuDNN's microarchitecture-tuned kernels (the paper attributes its
    /// average 1% gap to "low-level microarchitecture-specific
    /// optimizations unavailable to us").
    pub sw_pipeline_efficiency: f64,
    /// Shared-memory fill / compute overlap discipline. The cp.async-style
    /// `DoubleBuffered` prefetch (the CUDA SDK kernel the paper models) is
    /// the default: `cycles = max(compute, memory) + launch`.
    /// `SingleBuffered` is the serialized reference without prefetch:
    /// `cycles = compute + memory + launch`.
    pub schedule: PipelineSchedule,
}

impl GpuConfig {
    /// NVIDIA V100 (SXM2) with the paper's software stack.
    pub fn v100() -> Self {
        Self {
            sms: 80,
            tc_macs_per_sm_cycle: 512,
            clock_mhz: 1530.0,
            shared_bytes: 96 * 1024,
            elem_bytes: 2,
            dram: DramConfig::hbm2_v100(),
            block: BlockConfig::cuda_sdk(),
            blocks_per_sm: 2,
            launch_cycles: 4_600,
            sw_pipeline_efficiency: 0.985,
            schedule: PipelineSchedule::DoubleBuffered,
        }
    }

    /// Peak FP16 tensor-core TFLOPS.
    pub fn peak_tflops(&self) -> f64 {
        2.0 * (self.sms as u64 * self.tc_macs_per_sm_cycle) as f64 * self.clock_mhz * 1e6 / 1e12
    }

    /// Convert cycles to seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_mhz * 1e6)
    }

    /// A canonical, injective text rendering of every configuration field —
    /// the GPU analogue of `TpuConfig::canonical_key`, used as the hardware
    /// component of `iconv-serve` cache keys. Floats use shortest
    /// round-trip `Display`, so distinct values never alias.
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        self.write_canonical_key(&mut key)
            .expect("a String accepts every write");
        key
    }

    /// Write [`Self::canonical_key`] into `out`, so a larger key can embed
    /// it without an intermediate `String`.
    pub fn write_canonical_key(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let d = &self.dram;
        write!(
            out,
            "gpu;sms{};tc{};clk{};sh{};eb{};dram{},{},{},{},{},{},{},{};blk{}x{}x{};bpsm{};launch{};swpe{};sched{}",
            self.sms,
            self.tc_macs_per_sm_cycle,
            self.clock_mhz,
            self.shared_bytes,
            self.elem_bytes,
            d.bytes_per_cycle,
            d.burst_bytes,
            d.row_bytes,
            d.banks,
            d.t_activate,
            d.t_precharge,
            d.t_cas,
            d.base_latency,
            self.block.bm,
            self.block.bn,
            self.block.bk,
            self.blocks_per_sm,
            self.launch_cycles,
            self.sw_pipeline_efficiency,
            self.schedule
        )
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::v100()
    }
}

/// Why a [`GpuConfigBuilder`] refused to produce a config.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuConfigError {
    /// SM count must be ≥ 1.
    ZeroSms,
    /// Tensor-core MAC throughput must be ≥ 1 MAC/SM/cycle.
    ZeroTensorCoreMacs,
    /// Clock must be finite and positive (MHz).
    BadClock(f64),
    /// Element size must be ≥ 1 byte.
    ZeroElemBytes,
    /// Every thread-block tile dimension must be ≥ 1.
    ZeroBlockDim,
    /// At least one resident block per SM is required.
    ZeroBlocksPerSm,
    /// The double-buffered tiles of all resident blocks must fit in shared
    /// memory: `blocks_per_sm × 2 × (bm·bk + bk·bn) × elem_bytes ≤
    /// shared_bytes`.
    SharedMemOverflow {
        /// Bytes the resident tiles need.
        need: u64,
        /// Shared memory actually available per SM.
        have: u64,
    },
    /// Software pipeline efficiency must lie in (0, 1].
    BadPipelineEfficiency(f64),
    /// DRAM bank count must be a power of two.
    NonPowerOfTwoDramBanks(u64),
}

impl fmt::Display for GpuConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroSms => write!(f, "SM count must be >= 1"),
            Self::ZeroTensorCoreMacs => write!(f, "tensor-core MACs/SM/cycle must be >= 1"),
            Self::BadClock(v) => write!(f, "clock must be finite and positive, got {v} MHz"),
            Self::ZeroElemBytes => write!(f, "element size must be >= 1 byte"),
            Self::ZeroBlockDim => write!(f, "thread-block tile dimensions must be >= 1"),
            Self::ZeroBlocksPerSm => write!(f, "blocks per SM must be >= 1"),
            Self::SharedMemOverflow { need, have } => write!(
                f,
                "double-buffered tiles need {need} B shared memory but only {have} B available"
            ),
            Self::BadPipelineEfficiency(v) => {
                write!(f, "pipeline efficiency must be in (0, 1], got {v}")
            }
            Self::NonPowerOfTwoDramBanks(n) => {
                write!(f, "dram bank count must be a power of two, got {n}")
            }
        }
    }
}

impl std::error::Error for GpuConfigError {}

/// Validated builder for [`GpuConfig`], seeded from the V100 preset (or any
/// base via [`GpuConfig::builder_from`]). See `TpuConfigBuilder` for the
/// policy: external input goes through a builder so domain violations —
/// including the shared-memory capacity constraint the blocking model relies
/// on — become typed errors rather than nonsense simulations.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfigBuilder {
    cfg: GpuConfig,
}

impl GpuConfigBuilder {
    /// Streaming-multiprocessor count.
    pub fn sms(mut self, sms: usize) -> Self {
        self.cfg.sms = sms;
        self
    }

    /// Tensor-core MACs per SM per cycle.
    pub fn tc_macs_per_sm_cycle(mut self, macs: u64) -> Self {
        self.cfg.tc_macs_per_sm_cycle = macs;
        self
    }

    /// Core clock in MHz.
    pub fn clock_mhz(mut self, mhz: f64) -> Self {
        self.cfg.clock_mhz = mhz;
        self
    }

    /// Thread-block GEMM tile.
    pub fn block(mut self, block: BlockConfig) -> Self {
        self.cfg.block = block;
        self
    }

    /// Concurrent thread blocks per SM.
    pub fn blocks_per_sm(mut self, blocks: usize) -> Self {
        self.cfg.blocks_per_sm = blocks;
        self
    }

    /// Kernel launch + tail overhead in cycles.
    pub fn launch_cycles(mut self, cycles: u64) -> Self {
        self.cfg.launch_cycles = cycles;
        self
    }

    /// Relative software pipeline efficiency in (0, 1].
    pub fn sw_pipeline_efficiency(mut self, eff: f64) -> Self {
        self.cfg.sw_pipeline_efficiency = eff;
        self
    }

    /// Replace the off-chip memory model wholesale.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.cfg.dram = dram;
        self
    }

    /// Shared-memory fill / compute overlap discipline.
    pub fn schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    /// Validate every knob and return the finished config.
    pub fn build(self) -> Result<GpuConfig, GpuConfigError> {
        let c = &self.cfg;
        if c.sms == 0 {
            return Err(GpuConfigError::ZeroSms);
        }
        if c.tc_macs_per_sm_cycle == 0 {
            return Err(GpuConfigError::ZeroTensorCoreMacs);
        }
        if !c.clock_mhz.is_finite() || c.clock_mhz <= 0.0 {
            return Err(GpuConfigError::BadClock(c.clock_mhz));
        }
        if c.elem_bytes == 0 {
            return Err(GpuConfigError::ZeroElemBytes);
        }
        if c.block.bm == 0 || c.block.bn == 0 || c.block.bk == 0 {
            return Err(GpuConfigError::ZeroBlockDim);
        }
        if c.blocks_per_sm == 0 {
            return Err(GpuConfigError::ZeroBlocksPerSm);
        }
        let tile_bytes = (c.block.bm * c.block.bk + c.block.bk * c.block.bn) as u64 * c.elem_bytes;
        let need = c.blocks_per_sm as u64 * 2 * tile_bytes;
        if need > c.shared_bytes {
            return Err(GpuConfigError::SharedMemOverflow {
                need,
                have: c.shared_bytes,
            });
        }
        if !c.sw_pipeline_efficiency.is_finite()
            || c.sw_pipeline_efficiency <= 0.0
            || c.sw_pipeline_efficiency > 1.0
        {
            return Err(GpuConfigError::BadPipelineEfficiency(
                c.sw_pipeline_efficiency,
            ));
        }
        if c.dram.banks == 0 || !c.dram.banks.is_power_of_two() {
            return Err(GpuConfigError::NonPowerOfTwoDramBanks(c.dram.banks));
        }
        Ok(self.cfg)
    }
}

impl GpuConfig {
    /// Builder seeded from the V100 preset.
    pub fn builder() -> GpuConfigBuilder {
        Self::builder_from(Self::v100())
    }

    /// Builder seeded from an arbitrary base config.
    pub fn builder_from(base: GpuConfig) -> GpuConfigBuilder {
        GpuConfigBuilder { cfg: base }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_peak_is_125_tflops() {
        let t = GpuConfig::v100().peak_tflops();
        assert!((t - 125.3).abs() < 1.0, "peak = {t}");
    }

    #[test]
    fn canonical_key_distinguishes_configs() {
        let base = GpuConfig::v100();
        let mut faster = base;
        faster.clock_mhz = 1544.0;
        let mut wider = base;
        wider.block.bk = 64;
        assert_eq!(base.canonical_key(), GpuConfig::v100().canonical_key());
        assert_ne!(base.canonical_key(), faster.canonical_key());
        assert_ne!(base.canonical_key(), wider.canonical_key());
    }

    #[test]
    fn shared_memory_fits_double_buffered_tiles() {
        let c = GpuConfig::v100();
        let tile_bytes = (c.block.bm * c.block.bk + c.block.bk * c.block.bn) as u64 * c.elem_bytes;
        // Two blocks per SM, each double buffered.
        assert!(2 * 2 * tile_bytes <= c.shared_bytes);
    }

    #[test]
    fn builder_defaults_match_preset() {
        assert_eq!(GpuConfig::builder().build().unwrap(), GpuConfig::v100());
    }

    #[test]
    fn builder_accepts_faster_clock_and_wider_tiles() {
        let faster = GpuConfig::builder().clock_mhz(1544.0).build().unwrap();
        assert_ne!(faster.canonical_key(), GpuConfig::v100().canonical_key());
        // A wider-K tile doubles the double-buffered footprint, so it only
        // fits at single-block residency.
        let mut block = BlockConfig::cuda_sdk();
        block.bk = 64;
        let wider = GpuConfig::builder()
            .block(block)
            .blocks_per_sm(1)
            .build()
            .unwrap();
        assert_ne!(wider.canonical_key(), GpuConfig::v100().canonical_key());
        assert!(GpuConfig::builder().block(block).build().is_err());
    }

    #[test]
    fn builder_rejects_out_of_domain_knobs() {
        use GpuConfigError as E;
        assert_eq!(GpuConfig::builder().sms(0).build(), Err(E::ZeroSms));
        assert_eq!(
            GpuConfig::builder().tc_macs_per_sm_cycle(0).build(),
            Err(E::ZeroTensorCoreMacs)
        );
        assert_eq!(
            GpuConfig::builder().clock_mhz(-1.0).build(),
            Err(E::BadClock(-1.0))
        );
        assert_eq!(
            GpuConfig::builder().blocks_per_sm(0).build(),
            Err(E::ZeroBlocksPerSm)
        );
        assert_eq!(
            GpuConfig::builder().sw_pipeline_efficiency(0.0).build(),
            Err(E::BadPipelineEfficiency(0.0))
        );
        let mut block = BlockConfig::cuda_sdk();
        block.bm = 0;
        assert_eq!(
            GpuConfig::builder().block(block).build(),
            Err(E::ZeroBlockDim)
        );
        let mut dram = DramConfig::hbm2_v100();
        dram.banks = 100;
        assert_eq!(
            GpuConfig::builder().dram(dram).build(),
            Err(E::NonPowerOfTwoDramBanks(100))
        );
    }

    #[test]
    fn builder_enforces_shared_memory_capacity() {
        // 16 resident double-buffered CUDA-SDK tiles blow the 96 KB budget.
        let err = GpuConfig::builder().blocks_per_sm(16).build().unwrap_err();
        match err {
            GpuConfigError::SharedMemOverflow { need, have } => {
                assert!(need > have, "need={need} have={have}");
            }
            other => panic!("expected SharedMemOverflow, got {other:?}"),
        }
    }
}
