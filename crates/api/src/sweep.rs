//! Compact sweep specifications: base shape × axis ranges → `Work` items.
//!
//! The paper's evaluation is sweep-shaped (network × layer × layout ×
//! stride × hardware), so the `batch` protocol op accepts either an
//! explicit item array or a [`SweepSpec`]: one base layer plus value lists
//! for the axes that vary. [`SweepSpec::expand`] turns the spec into the
//! equivalent item array in a **fixed order** — `layouts × cis × strides ×
//! dilations`, innermost last — so a sweep and the hand-written item list
//! it denotes produce byte-identical response streams.

use std::fmt;

use iconv_gpusim::GpuAlgo;
use iconv_tensor::{ConvShape, Layout};
use iconv_tpusim::SimMode;

use crate::spec::TpuHwSpec;
use crate::work::Work;

/// Upper bound on the number of items one sweep (or batch) may expand to;
/// keeps a single request line from admitting unbounded work.
pub const MAX_SWEEP_ITEMS: usize = 16_384;

/// Upper bound on one request line's length in bytes, newline excluded.
/// `served` and `routed` answer a longer line with a typed `parse` error
/// and close the connection, so a client that never sends a newline
/// cannot grow a server buffer without bound. 16 MiB is 3.7× a batch of
/// [`MAX_SWEEP_ITEMS`] copies of a longest legitimate item (AlexNet conv1
/// on a TPU-v3 with every hardware override spelled out, 274 bytes):
/// ~4.5 MB.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// What the swept layers run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepTarget {
    /// The TPU model under one lowering mode.
    Tpu {
        /// Lowering mode applied to every item.
        mode: SimMode,
        /// Hardware overrides applied to every item (the `layouts` axis
        /// overrides `hw.layout` per item).
        hw: TpuHwSpec,
    },
    /// The V100 tensor-core model under one algorithm.
    Gpu {
        /// Kernel algorithm applied to every item.
        algo: GpuAlgo,
    },
}

/// A compact batch: one base shape plus the axis values to sweep. Empty
/// axis lists mean "keep the base value".
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The base layer; unswept fields (batch, spatial size, channel counts,
    /// padding) are taken from here verbatim.
    pub base: ConvShape,
    /// What to run each item on.
    pub target: SweepTarget,
    /// Input-channel values (empty: the base's `ci`).
    pub cis: Vec<usize>,
    /// Square stride values (empty: the base's `stride_h`/`stride_w`).
    pub strides: Vec<usize>,
    /// Square dilation values (empty: the base's `dil_h`/`dil_w`).
    pub dilations: Vec<usize>,
    /// IFMap layout values — TPU targets only (empty: the spec's `hw`
    /// layout, i.e. the chip default unless overridden).
    pub layouts: Vec<Layout>,
}

/// Why a sweep failed to expand.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The axis product exceeds [`MAX_SWEEP_ITEMS`].
    TooLarge(usize),
    /// A `layouts` axis was given for a GPU target (the GPU model fixes its
    /// own data layout).
    LayoutsOnGpu,
    /// A swept combination produced an invalid shape.
    BadShape {
        /// The offending (ci, stride, dilation) combination.
        ci: usize,
        /// Stride of the combination.
        stride: usize,
        /// Dilation of the combination.
        dilation: usize,
        /// The shape validator's message.
        detail: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLarge(n) => {
                write!(f, "sweep expands to {n} items (limit {MAX_SWEEP_ITEMS})")
            }
            Self::LayoutsOnGpu => write!(f, "\"layouts\" axis is only valid for tpu targets"),
            Self::BadShape {
                ci,
                stride,
                dilation,
                detail,
            } => write!(
                f,
                "invalid swept shape at ci={ci} stride={stride} dilation={dilation}: {detail}"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepSpec {
    /// A sweep with no varying axes (expands to exactly the base layer).
    pub fn new(base: ConvShape, target: SweepTarget) -> Self {
        Self {
            base,
            target,
            cis: Vec::new(),
            strides: Vec::new(),
            dilations: Vec::new(),
            layouts: Vec::new(),
        }
    }

    /// Expand to the equivalent explicit item list, in `layouts × cis ×
    /// strides × dilations` order (dilations innermost).
    ///
    /// # Errors
    ///
    /// See [`SweepError`]. Shape validation runs per combination, so a
    /// sweep either expands completely or reports the first bad
    /// combination.
    pub fn expand(&self) -> Result<Vec<Work>, SweepError> {
        if !self.layouts.is_empty() && matches!(self.target, SweepTarget::Gpu { .. }) {
            return Err(SweepError::LayoutsOnGpu);
        }
        // An empty axis keeps the base value; a non-square base stride or
        // dilation survives only when that axis is unswept.
        let cis: Vec<usize> = if self.cis.is_empty() {
            vec![self.base.ci]
        } else {
            self.cis.clone()
        };
        let strides: Vec<Option<usize>> = if self.strides.is_empty() {
            vec![None]
        } else {
            self.strides.iter().copied().map(Some).collect()
        };
        let dilations: Vec<Option<usize>> = if self.dilations.is_empty() {
            vec![None]
        } else {
            self.dilations.iter().copied().map(Some).collect()
        };
        let layouts: Vec<Option<Layout>> = if self.layouts.is_empty() {
            vec![None]
        } else {
            self.layouts.iter().copied().map(Some).collect()
        };
        let total = layouts.len() * cis.len() * strides.len() * dilations.len();
        if total > MAX_SWEEP_ITEMS {
            return Err(SweepError::TooLarge(total));
        }
        let mut out = Vec::with_capacity(total);
        for &layout in &layouts {
            for &ci in &cis {
                for &stride in &strides {
                    for &dilation in &dilations {
                        let b = &self.base;
                        let (sh, sw) = match stride {
                            Some(s) => (s, s),
                            None => (b.stride_h, b.stride_w),
                        };
                        let (dh, dw) = match dilation {
                            Some(d) => (d, d),
                            None => (b.dil_h, b.dil_w),
                        };
                        let shape = ConvShape::new(b.n, ci, b.hi, b.wi, b.co, b.hf, b.wf)
                            .stride_hw(sh, sw)
                            .pad_hw(b.pad_h, b.pad_w)
                            .pad_end_hw(b.pad_h_end, b.pad_w_end)
                            .dilation_hw(dh, dw)
                            .build()
                            .map_err(|e| SweepError::BadShape {
                                ci,
                                stride: sh,
                                dilation: dh,
                                detail: e.to_string(),
                            })?;
                        out.push(match self.target {
                            SweepTarget::Tpu { mode, hw } => {
                                let mut hw = hw;
                                if layout.is_some() {
                                    hw.layout = layout;
                                }
                                Work::TpuConv { shape, mode, hw }
                            }
                            SweepTarget::Gpu { algo } => Work::GpuConv {
                                shape,
                                algo,
                                hw: crate::GpuHwSpec::default(),
                            },
                        });
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    fn tpu_target() -> SweepTarget {
        SweepTarget::Tpu {
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec::default(),
        }
    }

    #[test]
    fn empty_axes_expand_to_the_base_layer() {
        let works = SweepSpec::new(base(), tpu_target()).expand().unwrap();
        assert_eq!(
            works,
            vec![Work::TpuConv {
                shape: base(),
                mode: SimMode::ChannelFirst,
                hw: TpuHwSpec::default(),
            }]
        );
    }

    #[test]
    fn expansion_order_is_layouts_cis_strides_dilations() {
        let mut spec = SweepSpec::new(base(), tpu_target());
        spec.cis = vec![3, 64];
        spec.strides = vec![1, 2];
        spec.layouts = vec![Layout::Hwcn, Layout::Nchw];
        let works = spec.expand().unwrap();
        assert_eq!(works.len(), 8);
        // First half HWCN, second half NCHW; within a layout, ci varies
        // slower than stride.
        let fields: Vec<(Layout, usize, usize)> = works
            .iter()
            .map(|w| match w {
                Work::TpuConv { shape, hw, .. } => (hw.layout.unwrap(), shape.ci, shape.stride_h),
                _ => panic!("wrong work kind"),
            })
            .collect();
        assert_eq!(fields[0], (Layout::Hwcn, 3, 1));
        assert_eq!(fields[1], (Layout::Hwcn, 3, 2));
        assert_eq!(fields[2], (Layout::Hwcn, 64, 1));
        assert_eq!(fields[3], (Layout::Hwcn, 64, 2));
        assert_eq!(fields[4], (Layout::Nchw, 3, 1));
        assert_eq!(fields[7], (Layout::Nchw, 64, 2));
    }

    #[test]
    fn gpu_sweeps_reject_layout_axes_and_keep_algos() {
        let mut spec = SweepSpec::new(
            base(),
            SweepTarget::Gpu {
                algo: GpuAlgo::CudnnImplicit,
            },
        );
        spec.strides = vec![1, 2, 3];
        let works = spec.expand().unwrap();
        assert_eq!(works.len(), 3);
        assert!(works.iter().all(|w| matches!(
            w,
            Work::GpuConv {
                algo: GpuAlgo::CudnnImplicit,
                ..
            }
        )));
        spec.layouts = vec![Layout::Nchw];
        assert_eq!(spec.expand(), Err(SweepError::LayoutsOnGpu));
    }

    #[test]
    fn oversized_and_invalid_sweeps_are_typed_errors() {
        let mut spec = SweepSpec::new(base(), tpu_target());
        spec.cis = (1..=200).collect();
        spec.strides = (1..=10).collect();
        spec.dilations = (1..=10).collect();
        assert_eq!(spec.expand(), Err(SweepError::TooLarge(20_000)));

        let mut spec = SweepSpec::new(base(), tpu_target());
        spec.dilations = vec![1, 1000]; // dilated filter larger than input
        match spec.expand() {
            Err(SweepError::BadShape { dilation: 1000, .. }) => {}
            other => panic!("expected BadShape, got {other:?}"),
        }
    }

    #[test]
    fn unswept_axes_keep_non_square_base_values() {
        let rect = ConvShape::new(1, 16, 32, 32, 16, 3, 3)
            .stride_hw(2, 1)
            .build()
            .unwrap();
        let mut spec = SweepSpec::new(rect, tpu_target());
        spec.cis = vec![16, 32];
        let works = spec.expand().unwrap();
        for w in &works {
            let Work::TpuConv { shape, .. } = w else {
                panic!("wrong kind")
            };
            assert_eq!((shape.stride_h, shape.stride_w), (2, 1));
        }
    }
}
