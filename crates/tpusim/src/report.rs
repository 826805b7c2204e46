//! Simulation reports: per-layer and per-model cycle/traffic/utilization
//! accounting.

use crate::config::TpuConfig;
use iconv_sram::PortStats;
use std::fmt;

/// The three phases that partition a layer's `cycles` exactly:
/// `dispatch + first_fill + steady == cycles`. This is the span layout the
/// trace layer emits, and the identity [`LayerReport::assert_conserved`]
/// enforces — per-phase attribution that cannot drift from the total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phases {
    /// Fixed host dispatch overhead.
    pub dispatch: u64,
    /// Exposed head of the pipeline: the first chunk's DRAM fill (plus the
    /// explicit-im2col transform, in that mode) that nothing overlaps.
    pub first_fill: u64,
    /// Steady-state pipeline: per-chunk `max(compute, memory)`, where
    /// memory beyond compute is the exposed tail.
    pub steady: u64,
}

impl Phases {
    /// `dispatch + first_fill + steady` — must equal the report's `cycles`.
    pub fn total(&self) -> u64 {
        self.dispatch + self.first_fill + self.steady
    }
}

/// Result of simulating one layer (or one GEMM).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Human-readable identifier.
    pub name: String,
    /// Total cycles, including dispatch and exposed memory time.
    pub cycles: u64,
    /// Cycles attributable to GEMM streaming (the compute component).
    pub compute_cycles: u64,
    /// Cycles of DRAM transfer *not* hidden under compute.
    pub exposed_memory_cycles: u64,
    /// FLOPs performed (2 × MACs).
    pub flops: u64,
    /// DRAM bytes moved (reads + writes).
    pub dram_bytes: u64,
    /// Peak on-chip workspace used for IFMap tiles, bytes (the Fig. 14a
    /// metric).
    pub workspace_bytes: u64,
    /// Vector-memory port activity over the layer.
    pub sram: PortStats,
    /// PE-array occupancy of the schedule: fraction of PE rows doing useful
    /// work, before pipeline effects.
    pub array_occupancy: f64,
    /// Span partition of `cycles` (see [`Phases`]).
    pub phases: Phases,
}

/// What limits a simulated layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// GEMM streaming dominates and the array is well occupied.
    Compute,
    /// Exposed DRAM time dominates.
    Memory,
    /// The array streams but mostly empty rows/columns (small Ci/Co).
    Occupancy,
    /// Fixed dispatch overhead dominates (tiny layer).
    Overhead,
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Bottleneck::Compute => "compute",
            Bottleneck::Memory => "memory",
            Bottleneck::Occupancy => "occupancy",
            Bottleneck::Overhead => "overhead",
        })
    }
}

impl LayerReport {
    /// Enforce the cycle-conservation invariants: the phase spans partition
    /// `cycles` exactly, and compute + exposed memory account for every
    /// post-dispatch cycle. Panics with a diagnostic when violated. Called
    /// from `debug_assert!` at every construction site and from the
    /// always-on invariant tests.
    #[track_caller]
    pub fn assert_conserved(&self) -> bool {
        assert_eq!(
            self.phases.total(),
            self.cycles,
            "{}: phases {:?} sum to {} but cycles = {}",
            self.name,
            self.phases,
            self.phases.total(),
            self.cycles
        );
        assert_eq!(
            self.compute_cycles + self.exposed_memory_cycles,
            self.cycles - self.phases.dispatch,
            "{}: compute {} + exposed {} != cycles {} - dispatch {}",
            self.name,
            self.compute_cycles,
            self.exposed_memory_cycles,
            self.cycles,
            self.phases.dispatch
        );
        // Under every schedule (single- or double-buffered, or
        // explicit-im2col) the steady phase runs at least as long as the
        // compute it hides: overlap can only hide memory behind compute,
        // never shrink compute itself.
        assert!(
            self.phases.steady >= self.compute_cycles,
            "{}: steady {} < compute {}",
            self.name,
            self.phases.steady,
            self.compute_cycles
        );
        true
    }

    /// Classify what limits this layer (used by the reporting runners and
    /// the `simulate` CLI to explain numbers, not just print them).
    pub fn bottleneck(&self, config: &TpuConfig) -> Bottleneck {
        if config.dispatch_cycles * 2 > self.cycles {
            Bottleneck::Overhead
        } else if self.exposed_memory_cycles * 2 > self.cycles {
            Bottleneck::Memory
        } else if self.array_occupancy < 0.5 {
            Bottleneck::Occupancy
        } else {
            Bottleneck::Compute
        }
    }

    /// Achieved TFLOPS at `config`'s clock.
    pub fn tflops(&self, config: &TpuConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops as f64 / config.cycles_to_seconds(self.cycles) / 1e12
    }

    /// Fraction of peak MAC throughput achieved.
    pub fn utilization(&self, config: &TpuConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.flops / 2) as f64 / (self.cycles as f64 * config.peak_macs_per_cycle() as f64)
    }

    /// Wall-clock seconds at `config`'s clock.
    pub fn seconds(&self, config: &TpuConfig) -> f64 {
        config.cycles_to_seconds(self.cycles)
    }
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles ({} compute, {} exposed mem), {:.2} GFLOP, {:.1} MB DRAM",
            self.name,
            self.cycles,
            self.compute_cycles,
            self.exposed_memory_cycles,
            self.flops as f64 / 1e9,
            self.dram_bytes as f64 / 1e6
        )
    }
}

/// Result of simulating a whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Model name.
    pub name: String,
    /// Per-layer reports in execution order (repeated layers expanded into
    /// their cycle contribution via `weight`).
    pub layers: Vec<(LayerReport, usize)>,
}

impl ModelReport {
    /// Total cycles across all layer instances.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|(l, k)| l.cycles * *k as u64).sum()
    }

    /// Total FLOPs across all layer instances.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(|(l, k)| l.flops * *k as u64).sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn total_dram_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|(l, k)| l.dram_bytes * *k as u64)
            .sum()
    }

    /// Model-level achieved TFLOPS.
    pub fn tflops(&self, config: &TpuConfig) -> f64 {
        let s = config.cycles_to_seconds(self.total_cycles());
        if s == 0.0 {
            return 0.0;
        }
        self.total_flops() as f64 / s / 1e12
    }

    /// Wall-clock seconds.
    pub fn seconds(&self, config: &TpuConfig) -> f64 {
        config.cycles_to_seconds(self.total_cycles())
    }

    /// Cycle-weighted mean SRAM idle ratio (Fig. 16b metric).
    pub fn sram_idle_ratio(&self) -> f64 {
        let mut merged = PortStats::default();
        for (l, k) in &self.layers {
            let mut s = l.sram;
            s.cycles *= *k as u64;
            s.reads *= *k as u64;
            s.writes *= *k as u64;
            merged.merge(&s);
        }
        merged.idle_ratio()
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} layers, {} cycles, {:.2} GFLOP",
            self.name,
            self.layers.len(),
            self.total_cycles(),
            self.total_flops() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: u64, flops: u64) -> LayerReport {
        LayerReport {
            name: "l".into(),
            cycles,
            compute_cycles: cycles,
            exposed_memory_cycles: 0,
            flops,
            dram_bytes: 1000,
            workspace_bytes: 0,
            sram: PortStats {
                cycles,
                reads: cycles / 8,
                writes: cycles / 8,
            },
            array_occupancy: 1.0,
            phases: Phases {
                dispatch: 0,
                first_fill: 0,
                steady: cycles,
            },
        }
    }

    #[test]
    fn conservation_holds_for_helper_and_catches_violations() {
        let l = layer(100, 200);
        assert!(l.assert_conserved());
        let mut bad = layer(100, 200);
        bad.phases.steady += 1;
        assert!(std::panic::catch_unwind(move || bad.assert_conserved()).is_err());
        let mut bad2 = layer(100, 200);
        bad2.exposed_memory_cycles = 7; // compute already equals cycles
        assert!(std::panic::catch_unwind(move || bad2.assert_conserved()).is_err());
    }

    #[test]
    fn tflops_math() {
        let cfg = TpuConfig::tpu_v2();
        // 700M cycles = 1 s; 22.9 TFLOP in 1 s = peak.
        let l = layer(700_000_000, 22_937_600_000_000);
        assert!((l.tflops(&cfg) - cfg.peak_tflops()).abs() < 0.1);
        assert!((l.utilization(&cfg) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn model_totals_respect_weights() {
        let m = ModelReport {
            name: "m".into(),
            layers: vec![(layer(100, 200), 3), (layer(50, 80), 1)],
        };
        assert_eq!(m.total_cycles(), 350);
        assert_eq!(m.total_flops(), 680);
        assert_eq!(m.total_dram_bytes(), 4000);
    }

    #[test]
    fn idle_ratio_weighted() {
        let m = ModelReport {
            name: "m".into(),
            layers: vec![(layer(800, 0), 1)],
        };
        // reads+writes = 100+100 over 800 cycles -> 25% busy.
        assert!((m.sram_idle_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_reports_zero() {
        let cfg = TpuConfig::tpu_v2();
        let l = layer(0, 0);
        assert_eq!(l.tflops(&cfg), 0.0);
        assert_eq!(l.utilization(&cfg), 0.0);
    }
}
