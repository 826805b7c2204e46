//! TPUSim configuration (paper Table II), fully parameterizable for the
//! design-space explorations of Fig. 16.

use std::fmt;

use iconv_core::PipelineSchedule;
use iconv_dram::DramConfig;
use iconv_sram::VectorMemConfig;
use iconv_systolic::ArrayConfig;
use iconv_tensor::Layout;

/// Complete configuration of one simulated TPU core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuConfig {
    /// Systolic array geometry (TPU-v2: 128 × 128 weight-stationary).
    pub array: ArrayConfig,
    /// Core clock in MHz (TPU-v2: 700).
    pub clock_mhz: f64,
    /// One vector memory per PE row (TPU-v2: 128 arrays of 256 KB, 8 × 4 B
    /// words).
    pub vector_mem: VectorMemConfig,
    /// Off-chip memory (TPU-v2: 700 GB/s HBM).
    pub dram: DramConfig,
    /// DRAM-resident IFMap layout; `HWCN` is the paper's proposal, `NCHW`
    /// the conventional baseline (Fig. 7 comparison).
    pub ifmap_layout: Layout,
    /// Fraction of on-chip memory budgeted to double-buffered IFMap tiles
    /// (the rest holds OFMaps, weights in flight, and spill margin).
    pub ifmap_buffer_fraction: f64,
    /// Fixed per-layer dispatch overhead in cycles (instruction fetch,
    /// DMA descriptor setup).
    pub dispatch_cycles: u64,
    /// Minimum number of double-buffered pipeline stages a layer's DRAM
    /// stream is split into: even when the whole working set fits on chip,
    /// the DMA engine fills it in pieces that overlap with compute, so only
    /// `1/stages` of the transfer is exposed at the pipeline head.
    pub min_pipeline_stages: u64,
    /// Number of systolic arrays (MXUs) sharing the vector memories.
    /// TPU-v2 has 1; TPU-v3 adds a second to soak up the spare
    /// vector-memory bandwidth the Fig. 16b analysis exposes (paper
    /// Sec. VII-A: "this insight explains why the TPUv3 chooses to add
    /// another systolic array").
    pub mxus: usize,
    /// SRAM fill / compute overlap discipline of the chunked DMA pipeline.
    /// `SingleBuffered` (the paper's measured model) pays a per-chunk
    /// barrier; `DoubleBuffered` prefetches the next chunk behind
    /// steady-state compute, hiding fill cycles entirely when compute-bound.
    pub schedule: PipelineSchedule,
}

impl TpuConfig {
    /// The TPU-v2 core of paper Table II.
    pub fn tpu_v2() -> Self {
        Self {
            array: ArrayConfig::tpu_v2(),
            clock_mhz: 700.0,
            vector_mem: VectorMemConfig::tpu_v2(),
            dram: DramConfig::hbm_tpu_v2(),
            ifmap_layout: Layout::Hwcn,
            ifmap_buffer_fraction: 0.45,
            dispatch_cycles: 1_000,
            min_pipeline_stages: 8,
            mxus: 1,
            schedule: PipelineSchedule::SingleBuffered,
        }
    }

    /// A TPU-v3 core: two 128×128 MXUs sharing the vector memories, a
    /// faster clock, and more HBM bandwidth (published deltas over v2).
    pub fn tpu_v3() -> Self {
        let mut c = Self::tpu_v2();
        c.mxus = 2;
        c.clock_mhz = 940.0;
        // ~450 GB/s per core at 940 MHz.
        c.dram.bytes_per_cycle = 479.0;
        c
    }

    /// Total unified on-chip memory in bytes (TPU-v2: 32 MB).
    pub fn total_sram_bytes(&self) -> u64 {
        self.vector_mem.capacity_bytes * self.array.rows as u64
    }

    /// Peak MACs per cycle: `mxus × rows × cols`.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        (self.mxus * self.array.rows * self.array.cols) as u64
    }

    /// Peak TFLOPS (2 FLOPs per MAC).
    pub fn peak_tflops(&self) -> f64 {
        2.0 * self.peak_macs_per_cycle() as f64 * self.clock_mhz * 1e6 / 1e12
    }

    /// Convert cycles to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e6)
    }

    /// Scale the systolic array (and the per-row vector-memory count with
    /// it, keeping total SRAM constant) — the Fig. 16a sweep.
    pub fn with_array_size(mut self, size: usize) -> Self {
        let total = self.total_sram_bytes();
        self.array = ArrayConfig {
            rows: size,
            cols: size,
        };
        self.vector_mem.capacity_bytes = total / size as u64;
        self
    }

    /// Change the vector-memory word size in elements — the Fig. 16b sweep.
    pub fn with_word_elems(mut self, word_elems: usize) -> Self {
        self.vector_mem.word_elems = word_elems;
        self
    }

    /// A canonical, injective text rendering of *every* configuration field,
    /// used as the hardware component of content-addressed cache keys (the
    /// `iconv-serve` report cache): two configs produce the same string iff
    /// they denote the same simulated machine. Floats use Rust's shortest
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
        let vm = &self.vector_mem;
        let d = &self.dram;
        write!(
            out,
            "tpu;a{}x{};clk{};vm{}x{}x{};dram{},{},{},{},{},{},{},{};lay{:?};frac{};disp{};stages{};mxus{};sched{}",
            self.array.rows,
            self.array.cols,
            self.clock_mhz,
            vm.word_elems,
            vm.elem_bytes,
            vm.capacity_bytes,
            d.bytes_per_cycle,
            d.burst_bytes,
            d.row_bytes,
            d.banks,
            d.t_activate,
            d.t_precharge,
            d.t_cas,
            d.base_latency,
            self.ifmap_layout,
            self.ifmap_buffer_fraction,
            self.dispatch_cycles,
            self.min_pipeline_stages,
            self.mxus,
            self.schedule
        )
    }
}

impl Default for TpuConfig {
    fn default() -> Self {
        Self::tpu_v2()
    }
}

/// Why a [`TpuConfigBuilder`] refused to produce a config.
///
/// Each variant names the knob that was out of domain, so callers (the serve
/// request validator in particular) can surface a precise `bad-request`
/// detail instead of a panic deep inside the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum TpuConfigError {
    /// Systolic array rows/cols must both be ≥ 1.
    ZeroArrayDim,
    /// Vector-memory word width in elements must be ≥ 1.
    ZeroWordElems,
    /// Element size in bytes must be ≥ 1.
    ZeroElemBytes,
    /// Per-row vector memory capacity must be ≥ 1 byte; scaling the array up
    /// past the total-SRAM budget drives this to zero.
    ZeroVectorMemCapacity,
    /// At least one MXU must be present.
    ZeroMxus,
    /// Clock must be finite and positive (MHz).
    BadClock(f64),
    /// IFMap buffer fraction must lie in (0, 1].
    BadIfmapFraction(f64),
    /// The DMA pipeline needs at least one stage.
    ZeroPipelineStages,
    /// DRAM bank count must be a power of two (the bank-interleaving hash
    /// takes low address bits).
    NonPowerOfTwoDramBanks(u64),
    /// DRAM burst length must be ≥ 1 byte.
    ZeroDramBurst,
}

impl fmt::Display for TpuConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroArrayDim => write!(f, "systolic array dimensions must be >= 1"),
            Self::ZeroWordElems => write!(f, "vector-memory word width must be >= 1 element"),
            Self::ZeroElemBytes => write!(f, "element size must be >= 1 byte"),
            Self::ZeroVectorMemCapacity => {
                write!(f, "per-row vector memory capacity underflows to 0 bytes")
            }
            Self::ZeroMxus => write!(f, "at least one MXU is required"),
            Self::BadClock(v) => write!(f, "clock must be finite and positive, got {v} MHz"),
            Self::BadIfmapFraction(v) => {
                write!(f, "ifmap buffer fraction must be in (0, 1], got {v}")
            }
            Self::ZeroPipelineStages => write!(f, "pipeline stage count must be >= 1"),
            Self::NonPowerOfTwoDramBanks(n) => {
                write!(f, "dram bank count must be a power of two, got {n}")
            }
            Self::ZeroDramBurst => write!(f, "dram burst length must be >= 1 byte"),
        }
    }
}

impl std::error::Error for TpuConfigError {}

/// Validated builder for [`TpuConfig`].
///
/// Starts from a known-good base (`tpu_v2` unless [`TpuConfig::builder_from`]
/// says otherwise), applies overrides, and checks every knob's domain in
/// [`build`](TpuConfigBuilder::build). Field-literal construction still works
/// for internal code that mutates a copy of a preset, but anything deriving a
/// config from *external input* (the serve wire protocol, CLI flags) should
/// come through here so out-of-domain values surface as a typed error
/// instead of a panic or a silently nonsensical simulation.
#[derive(Debug, Clone, Copy)]
pub struct TpuConfigBuilder {
    cfg: TpuConfig,
}

impl TpuConfigBuilder {
    /// Square array size; keeps total SRAM constant like
    /// [`TpuConfig::with_array_size`].
    pub fn array_size(mut self, size: usize) -> Self {
        let total = self.cfg.total_sram_bytes();
        self.cfg.array = ArrayConfig {
            rows: size,
            cols: size,
        };
        // `with_array_size` divides the SRAM budget by `size`; keep zero out
        // of the divisor so `build` reports `ZeroArrayDim` instead of
        // panicking here.
        self.cfg.vector_mem.capacity_bytes = if size == 0 { 0 } else { total / size as u64 };
        self
    }

    /// Vector-memory word width in elements.
    pub fn word_elems(mut self, word_elems: usize) -> Self {
        self.cfg.vector_mem.word_elems = word_elems;
        self
    }

    /// Number of MXUs sharing the vector memories.
    pub fn mxus(mut self, mxus: usize) -> Self {
        self.cfg.mxus = mxus;
        self
    }

    /// Core clock in MHz.
    pub fn clock_mhz(mut self, mhz: f64) -> Self {
        self.cfg.clock_mhz = mhz;
        self
    }

    /// DRAM-resident IFMap layout.
    pub fn ifmap_layout(mut self, layout: Layout) -> Self {
        self.cfg.ifmap_layout = layout;
        self
    }

    /// Fraction of on-chip memory budgeted to IFMap tiles.
    pub fn ifmap_buffer_fraction(mut self, fraction: f64) -> Self {
        self.cfg.ifmap_buffer_fraction = fraction;
        self
    }

    /// Fixed per-layer dispatch overhead in cycles.
    pub fn dispatch_cycles(mut self, cycles: u64) -> Self {
        self.cfg.dispatch_cycles = cycles;
        self
    }

    /// Minimum number of double-buffered DMA pipeline stages.
    pub fn min_pipeline_stages(mut self, stages: u64) -> Self {
        self.cfg.min_pipeline_stages = stages;
        self
    }

    /// Replace the off-chip memory model wholesale.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.cfg.dram = dram;
        self
    }

    /// SRAM fill / compute overlap discipline of the DMA pipeline.
    pub fn schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    /// Validate every knob and return the finished config.
    pub fn build(self) -> Result<TpuConfig, TpuConfigError> {
        let c = &self.cfg;
        if c.array.rows == 0 || c.array.cols == 0 {
            return Err(TpuConfigError::ZeroArrayDim);
        }
        if c.vector_mem.word_elems == 0 {
            return Err(TpuConfigError::ZeroWordElems);
        }
        if c.vector_mem.elem_bytes == 0 {
            return Err(TpuConfigError::ZeroElemBytes);
        }
        if c.vector_mem.capacity_bytes == 0 {
            return Err(TpuConfigError::ZeroVectorMemCapacity);
        }
        if c.mxus == 0 {
            return Err(TpuConfigError::ZeroMxus);
        }
        if !c.clock_mhz.is_finite() || c.clock_mhz <= 0.0 {
            return Err(TpuConfigError::BadClock(c.clock_mhz));
        }
        if !c.ifmap_buffer_fraction.is_finite()
            || c.ifmap_buffer_fraction <= 0.0
            || c.ifmap_buffer_fraction > 1.0
        {
            return Err(TpuConfigError::BadIfmapFraction(c.ifmap_buffer_fraction));
        }
        if c.min_pipeline_stages == 0 {
            return Err(TpuConfigError::ZeroPipelineStages);
        }
        if c.dram.banks == 0 || !c.dram.banks.is_power_of_two() {
            return Err(TpuConfigError::NonPowerOfTwoDramBanks(c.dram.banks));
        }
        if c.dram.burst_bytes == 0 {
            return Err(TpuConfigError::ZeroDramBurst);
        }
        Ok(self.cfg)
    }
}

impl TpuConfig {
    /// Builder seeded from the TPU-v2 preset.
    pub fn builder() -> TpuConfigBuilder {
        Self::builder_from(Self::tpu_v2())
    }

    /// Builder seeded from an arbitrary base config (e.g. `tpu_v3`).
    pub fn builder_from(base: TpuConfig) -> TpuConfigBuilder {
        TpuConfigBuilder { cfg: base }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameters() {
        let c = TpuConfig::tpu_v2();
        assert_eq!(c.array.rows, 128);
        assert_eq!(c.array.cols, 128);
        assert_eq!(c.clock_mhz, 700.0);
        assert_eq!(c.vector_mem.word_elems, 8);
        assert_eq!(c.vector_mem.elem_bytes, 4);
        assert_eq!(c.total_sram_bytes(), 32 * 1024 * 1024);
        assert!((c.dram.bytes_per_cycle - 1000.0).abs() < 1.0); // 700 GB/s @ 700 MHz
    }

    #[test]
    fn peak_tflops_matches_tpu_v2_core() {
        // One TPU-v2 core: 128*128*2*700e6 ≈ 22.9 TFLOPS.
        let t = TpuConfig::tpu_v2().peak_tflops();
        assert!((t - 22.9).abs() < 0.1, "peak = {t}");
    }

    #[test]
    fn array_resize_preserves_total_sram() {
        let c = TpuConfig::tpu_v2().with_array_size(256);
        assert_eq!(c.array.rows, 256);
        assert_eq!(c.total_sram_bytes(), 32 * 1024 * 1024);
        assert_eq!(c.vector_mem.capacity_bytes, 128 * 1024);
    }

    #[test]
    fn tpu_v3_doubles_peak_compute() {
        let v2 = TpuConfig::tpu_v2();
        let v3 = TpuConfig::tpu_v3();
        // 2 MXUs x faster clock: v3 core ≈ 61.6 TFLOPS vs v2's 22.9.
        assert!(v3.peak_tflops() > 2.5 * v2.peak_tflops());
        assert_eq!(v3.mxus, 2);
    }

    #[test]
    fn canonical_key_distinguishes_every_knob() {
        let base = TpuConfig::tpu_v2();
        let variants = [
            base,
            base.with_array_size(256),
            base.with_word_elems(16),
            TpuConfig::tpu_v3(),
            {
                let mut c = base;
                c.ifmap_layout = Layout::Nchw;
                c
            },
            {
                let mut c = base;
                c.ifmap_buffer_fraction = 0.5;
                c
            },
            {
                let mut c = base;
                c.dram.bytes_per_cycle += 0.5;
                c
            },
            {
                let mut c = base;
                c.schedule = PipelineSchedule::DoubleBuffered;
                c
            },
        ];
        let keys: std::collections::BTreeSet<String> =
            variants.iter().map(TpuConfig::canonical_key).collect();
        assert_eq!(keys.len(), variants.len(), "{keys:?}");
        // Identical configs agree.
        assert_eq!(base.canonical_key(), TpuConfig::tpu_v2().canonical_key());
    }

    #[test]
    fn cycles_seconds_roundtrip() {
        let c = TpuConfig::tpu_v2();
        assert!((c.cycles_to_seconds(700_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn builder_defaults_match_preset() {
        assert_eq!(TpuConfig::builder().build().unwrap(), TpuConfig::tpu_v2());
        assert_eq!(
            TpuConfig::builder_from(TpuConfig::tpu_v3())
                .build()
                .unwrap(),
            TpuConfig::tpu_v3()
        );
    }

    #[test]
    fn builder_matches_with_helpers() {
        let a = TpuConfig::builder()
            .array_size(256)
            .word_elems(16)
            .build()
            .unwrap();
        let b = TpuConfig::tpu_v2().with_array_size(256).with_word_elems(16);
        assert_eq!(a, b);
    }

    #[test]
    fn builder_rejects_out_of_domain_knobs() {
        use TpuConfigError as E;
        assert_eq!(
            TpuConfig::builder().array_size(0).build(),
            Err(E::ZeroArrayDim)
        );
        assert_eq!(
            TpuConfig::builder().word_elems(0).build(),
            Err(E::ZeroWordElems)
        );
        assert_eq!(TpuConfig::builder().mxus(0).build(), Err(E::ZeroMxus));
        assert_eq!(
            TpuConfig::builder().clock_mhz(0.0).build(),
            Err(E::BadClock(0.0))
        );
        assert!(TpuConfig::builder().clock_mhz(f64::NAN).build().is_err());
        assert_eq!(
            TpuConfig::builder().ifmap_buffer_fraction(1.5).build(),
            Err(E::BadIfmapFraction(1.5))
        );
        assert_eq!(
            TpuConfig::builder().min_pipeline_stages(0).build(),
            Err(E::ZeroPipelineStages)
        );
        // Scaling the array past the SRAM budget drives per-row capacity to 0.
        assert_eq!(
            TpuConfig::builder().array_size(1 << 30).build(),
            Err(E::ZeroVectorMemCapacity)
        );
        let mut dram = DramConfig::hbm_tpu_v2();
        dram.banks = 96;
        assert_eq!(
            TpuConfig::builder().dram(dram).build(),
            Err(E::NonPowerOfTwoDramBanks(96))
        );
    }

    #[test]
    fn builder_errors_display_the_offending_knob() {
        let msg = TpuConfig::builder().array_size(0).build().unwrap_err();
        assert!(msg.to_string().contains("array"), "{msg}");
        let msg = {
            let mut dram = DramConfig::hbm_tpu_v2();
            dram.banks = 3;
            TpuConfig::builder().dram(dram).build().unwrap_err()
        };
        assert!(msg.to_string().contains("power of two"), "{msg}");
    }
}
