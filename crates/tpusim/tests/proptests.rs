//! Property-based sanity of the TPU simulator: monotonicity, conservation
//! and cross-model invariants over randomized layers.

use iconv_core::TileSchedule;
use iconv_models::Roofline;
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, Simulator, TpuConfig};
use proptest::prelude::*;

fn conv_shapes() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=16,  // n
        1usize..=256, // ci
        1usize..=3,   // hf=wf
        1usize..=128, // co
        1usize..=2,   // stride
        prop::sample::select(vec![7usize, 14, 28, 56]),
    )
        .prop_filter_map("valid", |(n, ci, f, co, s, hw)| {
            ConvShape::new(n, ci, hw, hw, co, f, f)
                .stride(s)
                .pad(f / 2)
                .build()
                .ok()
        })
}

/// Layers with independent strides, dilation and padding per axis, and
/// filters up to 7 wide, for the workspace closed form.
fn strided_dilated_shapes() -> impl Strategy<Value = ConvShape> {
    (
        (1usize..=16, 1usize..=256, 4usize..=30, 4usize..=30), // n, ci, hi, wi
        (1usize..=7, 1usize..=7),                              // hf, wf
        (1usize..=3, 1usize..=3, 1usize..=2, 1usize..=2),      // sh, sw, dh, dw
        (0usize..=3, 0usize..=3),                              // ph, pw
    )
        .prop_filter_map(
            "valid",
            |((n, ci, hi, wi), (hf, wf), (sh, sw, dh, dw), (ph, pw))| {
                ConvShape::new(n, ci, hi, wi, 16, hf, wf)
                    .stride_hw(sh, sw)
                    .dilation_hw(dh, dw)
                    .pad_hw(ph, pw)
                    .build()
                    .ok()
            },
        )
}

/// The channel-first workspace as the engine computed it before the
/// closed form: over the groups of the `TileSchedule::multi_tile` the
/// engine runs, the largest Σ `working_set_len` × batch words × word
/// bytes × `Ci`.
fn schedule_workspace(cfg: &TpuConfig, shape: &ConvShape, group: usize) -> u64 {
    let group = group.clamp(1, cfg.array.rows.div_ceil(shape.ci));
    let batch_words = shape.n.div_ceil(cfg.vector_mem.word_elems) as u64;
    let word_bytes = cfg.vector_mem.word_bytes();
    TileSchedule::multi_tile(shape, group)
        .groups()
        .iter()
        .map(|g| {
            g.tiles()
                .iter()
                .map(|t| t.working_set_len(shape) as u64 * batch_words * word_bytes)
                .sum::<u64>()
                * shape.ci as u64
        })
        .max()
        .unwrap_or(0)
}

/// `workspace_bytes` of `ChannelFirstGrouped(g)` for every `g` in
/// `1..=Wf+1` equals [`schedule_workspace`].
fn assert_workspace_matches_schedule(cfg: &TpuConfig, shape: &ConvShape) {
    let sim = Simulator::new(*cfg);
    for g in 1..=shape.wf + 1 {
        let rep = sim.simulate_conv("l", shape, SimMode::ChannelFirstGrouped(g));
        assert_eq!(
            rep.workspace_bytes,
            schedule_workspace(cfg, shape, g),
            "{shape} array {} g{g}",
            cfg.array.rows
        );
    }
}

/// Every distinct paper shape at batch 1 and 8, on 64-, 128- and 256-row
/// arrays.
#[test]
fn workspace_closed_form_matches_the_schedule_on_paper_shapes() {
    for batch in [1, 8] {
        for shape in iconv_workloads::distinct_shapes(batch) {
            for array in [64, 128, 256] {
                let cfg = TpuConfig::tpu_v2().with_array_size(array);
                assert_workspace_matches_schedule(&cfg, &shape);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The closed-form channel-first workspace equals the largest
    /// `TileSchedule` group's on strided, dilated and padded layers.
    #[test]
    fn workspace_closed_form_matches_the_schedule(
        shape in strided_dilated_shapes(),
        array in prop::sample::select(vec![64usize, 128, 256]),
    ) {
        assert_workspace_matches_schedule(&TpuConfig::tpu_v2().with_array_size(array), &shape);
    }

    /// Simulated latency never beats the machine roofline.
    #[test]
    fn never_beats_roofline(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        let rep = sim.simulate_conv("l", &shape, SimMode::ChannelFirst);
        let min = Roofline::tpu_v2().min_cycles(shape.macs(), rep.dram_bytes);
        prop_assert!(rep.cycles as f64 >= min * 0.999,
            "{shape}: {} cycles < roofline {min:.0}", rep.cycles);
    }

    /// Utilization and occupancy are proper fractions.
    #[test]
    fn fractions_in_range(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        let rep = sim.simulate_conv("l", &shape, SimMode::ChannelFirst);
        let u = rep.utilization(sim.config());
        prop_assert!((0.0..=1.0).contains(&u), "utilization {u}");
        prop_assert!((0.0..=1.0).contains(&rep.array_occupancy));
        prop_assert!(rep.compute_cycles <= rep.cycles);
    }

    /// Doubling the batch size never makes the layer *more* than ~2.2x
    /// slower and never faster (work scales linearly, overheads amortize).
    #[test]
    fn batch_monotone(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        let double = ConvShape { n: shape.n * 2, ..shape };
        let a = sim.simulate_conv("l", &shape, SimMode::ChannelFirst).cycles;
        let b = sim.simulate_conv("l", &double, SimMode::ChannelFirst).cycles;
        prop_assert!(b >= a, "batch x2 got faster: {a} -> {b}");
        prop_assert!(b as f64 <= 2.3 * a as f64, "batch x2 superlinear: {a} -> {b}");
    }

    /// The explicit baseline is never cheaper in DRAM traffic than the
    /// implicit method (it moves the lowered matrix on top).
    #[test]
    fn explicit_always_moves_more_data(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        let imp = sim.simulate_conv("l", &shape, SimMode::ChannelFirst);
        let exp = sim.simulate_conv("l", &shape, SimMode::Explicit);
        prop_assert!(exp.dram_bytes > imp.dram_bytes);
    }

    /// Multi-tile grouping never hurts: the auto strategy is at least as
    /// fast as single-tile.
    #[test]
    fn auto_strategy_never_slower_than_single(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        let auto = sim.simulate_conv("l", &shape, SimMode::ChannelFirst).cycles;
        let single = sim.simulate_conv("l", &shape, SimMode::ChannelFirstGrouped(1)).cycles;
        prop_assert!(auto <= single, "auto {auto} > single {single}");
    }

    /// A TPU-v3 core is never slower than v2 on compute-bound layers (its
    /// two MXUs dominate); on memory-bound layers it may lose modestly —
    /// its per-core HBM share is smaller — but never by more than the
    /// bandwidth ratio.
    #[test]
    fn v3_vs_v2_wallclock(shape in conv_shapes()) {
        let v2 = Simulator::new(TpuConfig::tpu_v2());
        let v3 = Simulator::new(TpuConfig::tpu_v3());
        let r2 = v2.simulate_conv("l", &shape, SimMode::ChannelFirst);
        let s2 = r2.seconds(v2.config());
        let s3 = {
            let r = v3.simulate_conv("l", &shape, SimMode::ChannelFirst);
            r.seconds(v3.config())
        };
        let v3_balance = v3.config().peak_macs_per_cycle() as f64
            / v3.config().dram.bytes_per_cycle;
        let compute_bound = shape.macs() as f64 / r2.dram_bytes as f64 >= v3_balance;
        if compute_bound {
            prop_assert!(s3 <= s2 * 1.02, "compute-bound: v3 {s3} vs v2 {s2}");
        } else {
            // Bounded by the per-core bandwidth ratio (~2.1x) plus margin.
            prop_assert!(s3 <= s2 * 2.3, "memory-bound: v3 {s3} vs v2 {s2}");
        }
    }

    /// Training: gradient passes conserve FLOPs (each equals the forward).
    #[test]
    fn training_flops_conserved(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        let step = sim.simulate_training_step("l", &shape, true);
        prop_assert_eq!(step.forward.flops, step.wgrad.flops);
        prop_assert_eq!(step.total_flops(), 3 * step.forward.flops);
        prop_assert!(step.total_cycles() > step.forward.cycles);
    }

    /// Cycle conservation on randomized shapes, all modes: phase spans
    /// partition `cycles`, and `compute + exposed == cycles − dispatch`.
    #[test]
    fn conservation_on_random_shapes(shape in conv_shapes()) {
        let sim = Simulator::new(TpuConfig::tpu_v2());
        for mode in [SimMode::ChannelFirst, SimMode::ChannelFirstGrouped(3), SimMode::Explicit] {
            let rep = sim.simulate_conv("l", &shape, mode);
            prop_assert!(rep.assert_conserved(), "{mode:?} on {shape}");
        }
    }
}

/// The exhaustive table sweep: every layer of every workload model, under
/// every lowering mode and every IFMap layout, must satisfy the cycle
/// conservation invariants. This is the always-on net beneath the trace
/// layer — the whole class of remainder-truncation / underflow accounting
/// bugs fails this test.
#[test]
fn conservation_over_all_workload_tables() {
    use iconv_tensor::Layout;
    let mut checked = 0usize;
    for layout in [Layout::Hwcn, Layout::Nhwc, Layout::Nchw, Layout::Chwn] {
        let mut cfg = TpuConfig::tpu_v2();
        cfg.ifmap_layout = layout;
        let sim = Simulator::new(cfg);
        for model in iconv_workloads::all_models(8) {
            for layer in &model.layers {
                for mode in [
                    SimMode::ChannelFirst,
                    SimMode::ChannelFirstGrouped(2),
                    SimMode::Explicit,
                ] {
                    let rep = sim.simulate_conv(&layer.name, &layer.shape, mode);
                    assert!(
                        rep.assert_conserved(),
                        "{}/{} {mode:?} {layout:?}",
                        model.name,
                        layer.name
                    );
                    assert!(rep.compute_cycles <= rep.cycles);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 500, "sweep too small: {checked} reports");
}
