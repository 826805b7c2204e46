//! Content-addressed cache keys.
//!
//! A key is the canonical text rendering of *what will be simulated*:
//! the fully-resolved hardware configuration, the lowering mode after the
//! engine's own normalization, and every shape field. Requests that denote
//! the same simulation — default vs. explicit padding, `dilation:1` spelled
//! or omitted, an `hw` override equal to the chip default, an auto
//! channel-first group vs. the same group requested explicitly, a forward
//! group wider than the filter vs. one exactly `Wf` wide — collapse to one
//! key; requests that differ in any observable way never collide,
//! because every component is an injective rendering
//! ([`iconv_tpusim::TpuConfig::canonical_key`] and friends).
//!
//! Keying is two steps. [`canonical`] normalizes a [`Work`] into a
//! [`Canonical`] value, and [`canonical_key`] renders that value through
//! its `Display`. Two works share a key exactly when their `Canonical`s are
//! equal. The group normalization is exposed as [`tpu_mode`], so the tune
//! search's alias pruning compares resolved configs and normalized modes
//! and never builds the text.

use std::fmt::{self, Write as _};

use iconv_core::{tpu_group_size, ConvPass};
use iconv_gpusim::{GpuAlgo, GpuConfig};
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, TpuConfig};

use crate::gpuspec::resolve_gpu;
use crate::spec::resolve_tpu;
use crate::tuned::TuneTarget;
use crate::work::Work;

/// Initial buffer for a rendered key: hardware keys over the paper tables
/// and the tune grid run 181–215 bytes, so one allocation holds any of
/// them.
const KEY_CAPACITY: usize = 256;

/// A TPU lowering mode after normalization: the channel-first group is
/// resolved and clamped, so every spelling that runs the same schedule is
/// one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpuMode {
    /// Channel-first with this many taps per duplication group.
    ChannelFirst(usize),
    /// Explicit im2col.
    Explicit,
    /// Indirect-buffer lowering.
    Indirect,
}

impl fmt::Display for TpuMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpuMode::ChannelFirst(g) => write!(f, "cf:g{g}"),
            TpuMode::Explicit => f.write_str("explicit"),
            TpuMode::Indirect => f.write_str("indirect"),
        }
    }
}

/// A unit of work after every normalization its cache key applies:
/// hardware resolved against the chip defaults, a forward-pass spelling
/// folded into the plain conv, and the TPU channel-first group resolved.
/// Equal values render equal keys and vice versa. Validated configs carry
/// only finite, positive floats, so the derived `PartialEq` agrees with
/// the rendering's shortest round-trip float text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Canonical {
    /// A convolution pass on the TPU model.
    TpuConv {
        /// The pass; `Forward` is the plain conv.
        pass: ConvPass,
        /// Lowering mode, group resolved.
        mode: TpuMode,
        /// Resolved hardware.
        cfg: TpuConfig,
        /// Layer shape.
        shape: ConvShape,
    },
    /// A plain GEMM on the TPU model.
    TpuGemm {
        /// Resolved hardware.
        cfg: TpuConfig,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
    },
    /// A convolution pass on the GPU model.
    GpuConv {
        /// The pass; `Forward` is the plain conv.
        pass: ConvPass,
        /// Kernel algorithm.
        algo: GpuAlgo,
        /// Resolved hardware.
        cfg: GpuConfig,
        /// Layer shape.
        shape: ConvShape,
    },
    /// A design-space search.
    Tune {
        /// Simulator searched.
        target: TuneTarget,
        /// Layer shape.
        shape: ConvShape,
    },
}

/// Normalize a unit of work: resolve its hardware, alias a forward-pass
/// spelling to the plain conv, and resolve the TPU channel-first group.
///
/// # Panics
///
/// Panics if the work's hardware spec fails validation (see
/// [`resolve_tpu`]).
pub fn canonical(work: &Work) -> Canonical {
    match *work {
        Work::TpuConv { shape, mode, hw } => {
            tpu_conv(shape, ConvPass::Forward, mode, resolve_tpu(&hw))
        }
        Work::TpuPass {
            shape,
            pass,
            mode,
            hw,
        } => tpu_conv(shape, pass, mode, resolve_tpu(&hw)),
        Work::TpuGemm { m, n, k, hw } => Canonical::TpuGemm {
            cfg: resolve_tpu(&hw),
            m,
            n,
            k,
        },
        Work::GpuConv { shape, algo, hw } => Canonical::GpuConv {
            pass: ConvPass::Forward,
            algo,
            cfg: resolve_gpu(&hw),
            shape,
        },
        Work::GpuPass {
            shape,
            pass,
            algo,
            hw,
        } => Canonical::GpuConv {
            pass,
            algo,
            cfg: resolve_gpu(&hw),
            shape,
        },
        Work::Tune { shape, target } => Canonical::Tune { target, shape },
    }
}

/// A TPU conv pass with its lowering mode normalized by [`tpu_mode`].
fn tpu_conv(shape: ConvShape, pass: ConvPass, mode: SimMode, cfg: TpuConfig) -> Canonical {
    Canonical::TpuConv {
        pass,
        mode: tpu_mode(&shape, pass, mode, cfg.array.rows),
        cfg,
        shape,
    }
}

/// A TPU lowering mode normalized *for this shape, pass and array height*:
/// `ChannelFirst` resolves its automatic group size, and explicit groups
/// are clamped to the largest group the engine can tell apart. The
/// duplication axis is pass-dependent:
///
/// - forward duplicates over `Ci` and groups taps within one filter row,
///   so a group wider than `Wf` runs the `Wf` schedule;
/// - dgrad/transpose duplicate over `Co`, and their workspace grows with
///   the unclamped group, so only the array height bounds it;
/// - wgrad streams a plain GEMM with no duplication at all, so every group
///   spelling collapses to `g1`.
///
/// [`canonical`] keys with this, and the tune search prunes aliases with
/// it, so both agree on which spellings are one simulation.
pub fn tpu_mode(shape: &ConvShape, pass: ConvPass, mode: SimMode, rows: usize) -> TpuMode {
    let channels = if pass.gathers_output_side() {
        shape.co
    } else {
        shape.ci
    };
    let max_group = match pass {
        ConvPass::Wgrad => 1,
        ConvPass::Forward => rows.div_ceil(channels).min(shape.wf),
        ConvPass::Dgrad | ConvPass::Transpose => rows.div_ceil(channels),
    };
    match mode {
        SimMode::Explicit => TpuMode::Explicit,
        SimMode::Indirect => TpuMode::Indirect,
        SimMode::ChannelFirst => {
            TpuMode::ChannelFirst(tpu_group_size(rows, channels, shape.wf).clamp(1, max_group))
        }
        SimMode::ChannelFirstGrouped(g) => TpuMode::ChannelFirst(g.clamp(1, max_group)),
    }
}

impl fmt::Display for Canonical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Canonical::TpuConv {
                pass,
                mode,
                cfg,
                shape,
            } => {
                cfg.write_canonical_key(f)?;
                write_conv(f, *pass, mode, shape)
            }
            Canonical::TpuGemm { cfg, m, n, k } => {
                cfg.write_canonical_key(f)?;
                write!(f, ";gemm;m{m},n{n},k{k}")
            }
            Canonical::GpuConv {
                pass,
                algo,
                cfg,
                shape,
            } => {
                cfg.write_canonical_key(f)?;
                write_conv(f, *pass, algo, shape)
            }
            Canonical::Tune { target, shape } => {
                write!(f, "tune;{};", target.key_component())?;
                write_shape(f, shape)
            }
        }
    }
}

/// The conv segments after the hardware: `;conv;{mode};{shape}` for the
/// forward pass — the historical plain-conv key — and
/// `;conv;{pass};{mode};{shape}` otherwise, which keeps every pass key
/// injective against every plain key by segment count alone.
fn write_conv(
    f: &mut fmt::Formatter<'_>,
    pass: ConvPass,
    mode: &dyn fmt::Display,
    shape: &ConvShape,
) -> fmt::Result {
    f.write_str(";conv;")?;
    if pass != ConvPass::Forward {
        write!(f, "{};", pass.wire())?;
    }
    write!(f, "{mode};")?;
    write_shape(f, shape)
}

/// Canonical rendering of a shape: every field, fixed order. Symmetric
/// shapes render exactly as they always have; an asymmetric trailing pad
/// appends a `phe`/`pwe` suffix, which keeps the rendering injective (a
/// symmetric key never contains the suffix, and two asymmetric shapes
/// differing only in trailing pad render differently).
fn write_shape(f: &mut fmt::Formatter<'_>, s: &ConvShape) -> fmt::Result {
    write!(
        f,
        "n{},ci{},hi{},wi{},co{},hf{},wf{},sh{},sw{},ph{},pw{},dh{},dw{}",
        s.n,
        s.ci,
        s.hi,
        s.wi,
        s.co,
        s.hf,
        s.wf,
        s.stride_h,
        s.stride_w,
        s.pad_h,
        s.pad_w,
        s.dil_h,
        s.dil_w
    )?;
    if s.has_asymmetric_pad() {
        write!(f, ",phe{},pwe{}", s.pad_h_end, s.pad_w_end)?;
    }
    Ok(())
}

/// Derive the cache key for a unit of work: [`canonical`] rendered into
/// one buffer.
pub fn canonical_key(work: &Work) -> String {
    let mut key = String::with_capacity(KEY_CAPACITY);
    write!(key, "{}", canonical(work)).expect("a String accepts every write");
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpuspec::GpuHwSpec;
    use crate::spec::{TpuChip, TpuHwSpec};
    use crate::tuned::candidates;
    use crate::{stable_hash64, table};

    const TARGETS: [TuneTarget; 3] = [
        TuneTarget::Tpu { chip: TpuChip::V2 },
        TuneTarget::Tpu { chip: TpuChip::V3 },
        TuneTarget::Gpu,
    ];

    /// Every valid tune-grid candidate for `target`, as work on `shape`.
    fn grid_works(shape: ConvShape, target: TuneTarget) -> Vec<Work> {
        candidates(target)
            .iter()
            .filter(|c| c.is_valid())
            .map(|c| c.to_work(shape))
            .collect()
    }

    #[test]
    fn key_bytes_are_pinned() {
        // The workload table, every pass leg, and per distinct paper shape
        // a GEMM plus, per target, the tune key and every valid grid
        // candidate. The byte length was recorded when keys were still
        // built by `format!` per segment: persisted `--tune-cache` files and
        // hash-ring placement depend on these exact bytes. The digest moved
        // once since, when forward groups wider than the filter started to
        // key as `Wf` (`cf:g4` → `cf:g3` on ci=8, 3×3: same length).
        let mut works = table::workload_works(false);
        for leg in table::PASS_LEGS {
            works.extend(table::pass_leg_works(false, leg).unwrap());
        }
        for shape in iconv_workloads::distinct_shapes(8) {
            let (m, n, k) = shape.gemm_mnk();
            works.push(Work::TpuGemm {
                m,
                n,
                k,
                hw: TpuHwSpec::default(),
            });
            for target in TARGETS {
                works.push(Work::Tune { shape, target });
                works.extend(grid_works(shape, target));
            }
        }
        let mut all = String::new();
        for w in &works {
            all.push_str(&canonical_key(w));
            all.push('\n');
        }
        assert_eq!(
            (works.len(), all.len(), stable_hash64(&all)),
            (33_813, 6_349_598, 0xb3ed_5eed_5d43_4049)
        );
    }

    #[test]
    fn canonical_equality_is_key_equality() {
        // Over each paper shape's tune grid — the aliases the search prunes
        // by comparing `Canonical`s — two works have equal canonical values
        // exactly when they have equal keys.
        for shape in iconv_workloads::distinct_shapes(8) {
            for target in TARGETS {
                let keyed: Vec<(Canonical, String)> = grid_works(shape, target)
                    .iter()
                    .map(|w| (canonical(w), canonical_key(w)))
                    .collect();
                for (i, (ca, ka)) in keyed.iter().enumerate() {
                    for (cb, kb) in &keyed[i + 1..] {
                        assert_eq!(ca == cb, ka == kb, "{ka} vs {kb}");
                    }
                }
            }
        }
    }

    fn shape() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    #[test]
    fn default_hw_spellings_share_a_key() {
        let explicit_defaults = TpuHwSpec {
            chip: TpuChip::V2,
            array: Some(128),
            word_elems: Some(8),
            mxus: Some(1),
            layout: Some(iconv_tensor::Layout::Hwcn),
            schedule: Some(iconv_core::PipelineSchedule::SingleBuffered),
        };
        let a = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec::default(),
        });
        let b = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: explicit_defaults,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn auto_group_aliases_its_resolved_spelling() {
        // ci=64 on a 128-row array: auto group = ceil(128/64).min(3) = 2.
        let auto = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec::default(),
        });
        let explicit2 = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirstGrouped(2),
            hw: TpuHwSpec::default(),
        });
        // An over-asked group clamps to the same schedule as well.
        let clamped = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirstGrouped(99),
            hw: TpuHwSpec::default(),
        });
        assert_eq!(auto, explicit2);
        assert_eq!(explicit2, clamped);
        // ...but a genuinely different group is a different key.
        let g1 = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirstGrouped(1),
            hw: TpuHwSpec::default(),
        });
        assert_ne!(auto, g1);
    }

    #[test]
    fn distinct_work_never_collides() {
        let mut keys = std::collections::BTreeSet::new();
        let mut n = 0;
        for ci in [3, 64, 128] {
            for stride in [1, 2] {
                let s = ConvShape::square(4, ci, 28, 32, 3, stride, 1).unwrap();
                for mode in [SimMode::ChannelFirstGrouped(1), SimMode::Explicit] {
                    for hw in [
                        TpuHwSpec::default(),
                        TpuHwSpec {
                            chip: TpuChip::V3,
                            ..TpuHwSpec::default()
                        },
                        TpuHwSpec {
                            array: Some(256),
                            ..TpuHwSpec::default()
                        },
                        TpuHwSpec {
                            schedule: Some(iconv_core::PipelineSchedule::DoubleBuffered),
                            ..TpuHwSpec::default()
                        },
                    ] {
                        keys.insert(canonical_key(&Work::TpuConv { shape: s, mode, hw }));
                        n += 1;
                    }
                }
                for algo in [GpuAlgo::CudnnImplicit, GpuAlgo::ExplicitIm2col] {
                    for hw in [
                        GpuHwSpec::default(),
                        GpuHwSpec {
                            sms: Some(108),
                            ..GpuHwSpec::default()
                        },
                    ] {
                        keys.insert(canonical_key(&Work::GpuConv { shape: s, algo, hw }));
                        n += 1;
                    }
                }
                for target in [
                    TuneTarget::Tpu { chip: TpuChip::V2 },
                    TuneTarget::Tpu { chip: TpuChip::V3 },
                    TuneTarget::Gpu,
                ] {
                    keys.insert(canonical_key(&Work::Tune { shape: s, target }));
                    n += 1;
                }
            }
        }
        keys.insert(canonical_key(&Work::TpuGemm {
            m: 64,
            n: 64,
            k: 64,
            hw: TpuHwSpec::default(),
        }));
        n += 1;
        assert_eq!(keys.len(), n, "cache-key collision in sweep");
    }

    #[test]
    fn default_gpu_hw_keeps_the_historical_v100_key() {
        let work = Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec::default(),
        };
        let key = canonical_key(&work);
        assert!(
            key.starts_with(&iconv_gpusim::GpuConfig::v100().canonical_key()),
            "{key}"
        );
        // Explicitly-spelled defaults alias the preset key too.
        let explicit = Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec {
                sms: Some(80),
                clock_mhz: Some(1530.0),
                ..GpuHwSpec::default()
            },
        };
        assert_eq!(key, canonical_key(&explicit));
    }

    #[test]
    fn tune_keys_name_target_and_shape() {
        let key = canonical_key(&Work::Tune {
            shape: shape(),
            target: TuneTarget::Tpu { chip: TpuChip::V2 },
        });
        assert!(key.starts_with("tune;tpu:v2;n8,"), "{key}");
    }

    #[test]
    fn forward_pass_aliases_the_plain_conv_key() {
        for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
            let plain = canonical_key(&Work::TpuConv {
                shape: shape(),
                mode,
                hw: TpuHwSpec::default(),
            });
            let spelled = canonical_key(&Work::TpuPass {
                shape: shape(),
                pass: ConvPass::Forward,
                mode,
                hw: TpuHwSpec::default(),
            });
            assert_eq!(plain, spelled);
        }
        let plain = canonical_key(&Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec::default(),
        });
        let spelled = canonical_key(&Work::GpuPass {
            shape: shape(),
            pass: ConvPass::Forward,
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec::default(),
        });
        assert_eq!(plain, spelled);
    }

    #[test]
    fn pass_keys_never_collide_with_forward_or_each_other() {
        let mut keys = std::collections::BTreeSet::new();
        let mut n = 0;
        for pass in [ConvPass::Wgrad, ConvPass::Dgrad, ConvPass::Transpose] {
            for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
                keys.insert(canonical_key(&Work::TpuPass {
                    shape: shape(),
                    pass,
                    mode,
                    hw: TpuHwSpec::default(),
                }));
                n += 1;
            }
            keys.insert(canonical_key(&Work::GpuPass {
                shape: shape(),
                pass,
                algo: GpuAlgo::CudnnImplicit,
                hw: GpuHwSpec::default(),
            }));
            n += 1;
        }
        // dgrad and transpose share a cost model but are distinct
        // vocabulary, so their keys must stay distinct too.
        assert_eq!(keys.len(), n, "pass-key collision");
        // ...and none of them collide with the forward key space.
        for mode in [SimMode::ChannelFirst, SimMode::Explicit] {
            assert!(!keys.contains(&canonical_key(&Work::TpuConv {
                shape: shape(),
                mode,
                hw: TpuHwSpec::default(),
            })));
        }
    }

    #[test]
    fn wgrad_group_spellings_collapse_to_one_key() {
        // wgrad streams a plain GEMM — no duplication axis — so every
        // channel-first group spelling keys (and runs) identically.
        let spell = |mode| {
            canonical_key(&Work::TpuPass {
                shape: shape(),
                pass: ConvPass::Wgrad,
                mode,
                hw: TpuHwSpec::default(),
            })
        };
        let auto = spell(SimMode::ChannelFirst);
        assert_eq!(auto, spell(SimMode::ChannelFirstGrouped(1)));
        assert_eq!(auto, spell(SimMode::ChannelFirstGrouped(4)));
        assert!(auto.contains(";wgrad;cf:g1;"), "{auto}");
    }

    #[test]
    fn dgrad_groups_clamp_against_co_not_ci() {
        // ci=8, co=64 on a 128-row array: the forward clamp allows groups
        // up to 16, but dgrad duplicates over co, so its ceiling is 2.
        let s = ConvShape::square(4, 8, 28, 64, 3, 1, 1).unwrap();
        let spell = |mode| {
            canonical_key(&Work::TpuPass {
                shape: s,
                pass: ConvPass::Dgrad,
                mode,
                hw: TpuHwSpec::default(),
            })
        };
        assert_eq!(
            spell(SimMode::ChannelFirstGrouped(2)),
            spell(SimMode::ChannelFirstGrouped(99))
        );
        assert_ne!(
            spell(SimMode::ChannelFirstGrouped(1)),
            spell(SimMode::ChannelFirstGrouped(2))
        );
    }

    #[test]
    fn forward_groups_wider_than_the_filter_key_and_run_as_wf() {
        // The forward engine groups taps within one filter row, so every
        // group from `Wf` up runs the `Wf` schedule: ci=8 on 3×3 and 1×1
        // filters (the array fits 16 copies of 8 channels), a 7×7 stem and
        // every paper shape, on three array heights.
        let mut shapes = vec![
            ConvShape::square(4, 8, 28, 64, 3, 1, 1).unwrap(),
            ConvShape::square(4, 8, 28, 64, 1, 1, 0).unwrap(),
            ConvShape::square(2, 3, 56, 64, 7, 2, 3).unwrap(),
        ];
        shapes.extend(iconv_workloads::distinct_shapes(8));
        for shape in shapes {
            for array in [Some(64), None, Some(256)] {
                let hw = TpuHwSpec {
                    array,
                    ..TpuHwSpec::default()
                };
                let sim = iconv_tpusim::Simulator::new(resolve_tpu(&hw));
                let run = |g| {
                    let mode = SimMode::ChannelFirstGrouped(g);
                    let key = canonical_key(&Work::TpuConv { shape, mode, hw });
                    (key, sim.simulate_conv("l", &shape, mode))
                };
                let at_wf = run(shape.wf);
                for g in shape.wf + 1..=shape.wf + 2 {
                    assert_eq!(run(g), at_wf, "{shape} array {array:?} g{g}");
                }
            }
        }
    }

    #[test]
    fn asymmetric_pad_extends_the_key_injectively() {
        let sym = ConvShape::new(1, 4, 14, 14, 4, 4, 4)
            .same_pad_symmetric()
            .build()
            .unwrap();
        let asym = ConvShape::new(1, 4, 14, 14, 4, 4, 4)
            .same_pad()
            .build()
            .unwrap();
        let key = |shape| {
            canonical_key(&Work::TpuConv {
                shape,
                mode: SimMode::Explicit,
                hw: TpuHwSpec::default(),
            })
        };
        // Symmetric keys carry no suffix (byte-stable with history);
        // asymmetric keys do, and the two never collide.
        assert!(!key(sym).contains("phe"));
        assert!(key(asym).contains(",phe2,pwe2"));
        assert_ne!(key(sym), key(asym));
    }
}
