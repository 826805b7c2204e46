//! # iconv-workloads
//!
//! Convolution-layer tables for the networks evaluated in the paper:
//! AlexNet, ZFNet, VGG16, ResNet-50, GoogLeNet, DenseNet-121 and YOLOv2
//! (Sec. VI), plus the representative-layer selections used by Figs. 4
//! and 18.
//!
//! ```
//! use iconv_workloads::{resnet50, all_models};
//!
//! let r50 = resnet50(8);
//! assert_eq!(r50.layers.len(), 53);
//! assert_eq!(all_models(8).len(), 7);
//! ```

pub mod layer;
pub mod nets;

pub use layer::{Layer, Model};
pub use nets::{
    alexnet, all_models, dcgan_generator, densenet121, distinct_shapes, googlenet, resnet50,
    resnet_representative_layers, table1_models, transpose_models, unet, vgg16, yolov2, zfnet,
};
