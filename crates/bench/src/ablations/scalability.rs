//! **Ablation: hardware-scalability argument (paper Sec. II-C)** — quantify
//! "Unscalable Hardware": the crossbar + banked SRAM the channel-last
//! implicit design needs at each GEMM-engine scale, versus channel-first's
//! single-bank, crossbar-free requirement.

use crate::fmt::{banner, header};
use iconv_sram::{AreaModel, CrossbarModel};

/// Render the experiment's full report.
///
/// # Panics
///
/// If the claim it prints fails: crossbar area must grow faster than the
/// port count, and 128-way banking must cost more area than one bank.
pub fn report() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation (Sec. II-C): routing hardware required per GEMM-engine scale",
    );
    let xbar = CrossbarModel::default();
    let area = AreaModel::freepdk45();
    header(
        &mut out,
        &[
            "PE rows",
            "xbar area*",
            "xbar pJ/bit",
            "banked mm2",
            "chan-first",
        ],
        &[8, 10, 11, 10, 10],
    );
    // Banked-SRAM penalty: P banks of (2MB/P) each versus one wide-word
    // macro bank of the same total capacity.
    let total = 2 * 1024 * 1024u64;
    let single = area.area_mm2(total, 32);
    let mut prev: Option<(usize, f64)> = None;
    for ports in [32usize, 64, 128, 256, 512] {
        let xbar_area = xbar.area(ports, 32);
        if let Some((p0, a0)) = prev {
            assert!(
                xbar_area / a0 > ports as f64 / p0 as f64,
                "crossbar area {a0:.1} -> {xbar_area:.1} grows no faster than ports {p0} -> {ports}"
            );
        }
        prev = Some((ports, xbar_area));
        let per_bank = (total / ports as u64).max(64);
        let banked: f64 = area.area_mm2(per_bank, 4) * ports as f64;
        crate::outln!(
            out,
            "{:>8}  {:>10.1}  {:>11.1}  {:>10.2}  {:>10}",
            ports,
            xbar_area,
            xbar.energy_per_bit(ports),
            banked,
            "0 (none)"
        );
    }
    let banking = area.area_mm2((total / 128).max(64), 4) * 128.0 / single;
    assert!(
        banking > 1.0,
        "128-way banking costs {banking:.2}x one bank"
    );
    crate::outln!(
        out,
        "\n*area in units of one 32-lane GPU shuffle network (what Lym et al. reuse\n\
         for free on an SM). At TPU scale the crossbar alone costs tens of such\n\
         networks and grows quadratically, while {}-way banking inflates the SRAM\n\
         ~{:.1}x over a single wide-word bank — the paper's reason channel-last\n\
         implicit im2col cannot ride up to a 128x128 systolic array.",
        128,
        banking
    );
    out
}

/// Run the experiment, printing the report.
pub fn run() {
    print!("{}", report());
}
