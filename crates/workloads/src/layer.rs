//! Layer and model descriptors.

use iconv_tensor::ConvShape;
use std::fmt;

/// One convolution layer of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Layer name as usually written for the network (e.g. `conv3_2`).
    pub name: String,
    /// The convolution shape (batch size baked in by the model constructor).
    pub shape: ConvShape,
    /// How many times this exact layer occurs in the network (weights
    /// differ; timing does not), so end-to-end sums stay honest without
    /// duplicating table rows.
    pub count: usize,
}

impl Layer {
    /// Construct a layer occurring once.
    pub fn new(name: impl Into<String>, shape: ConvShape) -> Self {
        Self {
            name: name.into(),
            shape,
            count: 1,
        }
    }

    /// Construct a layer occurring `count` times.
    pub fn repeated(name: impl Into<String>, shape: ConvShape, count: usize) -> Self {
        Self {
            name: name.into(),
            shape,
            count,
        }
    }

    /// Total FLOPs contributed by all occurrences.
    pub fn total_flops(&self) -> u64 {
        self.shape.flops() * self.count as u64
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.shape)?;
        if self.count > 1 {
            write!(f, " x{}", self.count)?;
        }
        Ok(())
    }
}

/// A CNN described by its convolution layers.
///
/// Only convolutions are listed: they dominate runtime on GEMM accelerators
/// and are the paper's entire subject. Pooling/BN/activation are omitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Network name as used in the paper's figures.
    pub name: &'static str,
    /// The convolution layers, in execution order.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Total FLOPs of the convolution layers.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(Layer::total_flops).sum()
    }

    /// Total distinct conv layer instances (expanding `count`).
    pub fn layer_instances(&self) -> usize {
        self.layers.iter().map(|l| l.count).sum()
    }

    /// Layers with any stride greater than one (the Fig. 18a selection).
    pub fn strided_layers(&self) -> Vec<&Layer> {
        self.layers
            .iter()
            .filter(|l| l.shape.stride_h > 1 || l.shape.stride_w > 1)
            .collect()
    }

    /// Sum of IFMap bytes across layer instances (Table I "IFmaps" row).
    pub fn ifmap_bytes(&self, elem_bytes: usize) -> u64 {
        self.layers
            .iter()
            .map(|l| iconv_tensor::im2col::ifmap_bytes(&l.shape, elem_bytes) * l.count as u64)
            .sum()
    }

    /// Sum of lowered-matrix bytes (Table I "Lower IFmaps" row).
    pub fn lowered_bytes(&self, elem_bytes: usize) -> u64 {
        self.layers
            .iter()
            .map(|l| iconv_tensor::im2col::lowered_bytes(&l.shape, elem_bytes) * l.count as u64)
            .sum()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} conv layers, {:.2} GFLOPs)",
            self.name,
            self.layer_instances(),
            self.total_flops() as f64 / 1e9
        )
    }
}

/// Build a square conv layer; panics on inconsistent dims (tables are
/// static, so a panic is a compile-time-style table bug).
#[allow(clippy::too_many_arguments)] // mirrors the paper table columns
pub(crate) fn conv(
    name: &str,
    n: usize,
    ci: usize,
    hw: usize,
    co: usize,
    f: usize,
    stride: usize,
    pad: usize,
) -> Layer {
    Layer::new(
        name,
        ConvShape::square(n, ci, hw, co, f, stride, pad)
            .unwrap_or_else(|e| panic!("bad table entry {name}: {e}")),
    )
}
