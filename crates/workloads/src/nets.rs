//! Convolution-layer tables for the seven networks evaluated in the paper
//! (Sec. VI "Workload"): AlexNet, ZFNet, VGG16, ResNet-50, GoogLeNet,
//! DenseNet-121 and YOLOv2. ImageNet-scale inputs (YOLOv2 uses its native
//! 416×416 detection resolution).

use crate::layer::{conv, Layer, Model};
use iconv_tensor::ConvShape;

/// AlexNet (Krizhevsky et al. 2012), 227×227 input, 5 conv layers.
pub fn alexnet(n: usize) -> Model {
    Model {
        name: "AlexNet",
        layers: vec![
            conv("conv1", n, 3, 227, 96, 11, 4, 0),
            conv("conv2", n, 96, 27, 256, 5, 1, 2),
            conv("conv3", n, 256, 13, 384, 3, 1, 1),
            conv("conv4", n, 384, 13, 384, 3, 1, 1),
            conv("conv5", n, 384, 13, 256, 3, 1, 1),
        ],
    }
}

/// ZFNet (Zeiler & Fergus 2014), 224×224 input, 5 conv layers.
pub fn zfnet(n: usize) -> Model {
    Model {
        name: "ZFNet",
        layers: vec![
            conv("conv1", n, 3, 224, 96, 7, 2, 1),
            conv("conv2", n, 96, 55, 256, 5, 2, 0),
            conv("conv3", n, 256, 13, 384, 3, 1, 1),
            conv("conv4", n, 384, 13, 384, 3, 1, 1),
            conv("conv5", n, 384, 13, 256, 3, 1, 1),
        ],
    }
}

/// VGG-16 (Simonyan & Zisserman 2014), 13 conv layers, all 3×3 stride 1.
pub fn vgg16(n: usize) -> Model {
    let mut layers = Vec::new();
    let stages: [(usize, usize, usize, usize); 5] = [
        // (in_ch at stage start, out_ch, spatial, convs)
        (3, 64, 224, 2),
        (64, 128, 112, 2),
        (128, 256, 56, 3),
        (256, 512, 28, 3),
        (512, 512, 14, 3),
    ];
    for (stage, &(cin, cout, hw, reps)) in stages.iter().enumerate() {
        for i in 0..reps {
            let ci = if i == 0 { cin } else { cout };
            layers.push(conv(
                &format!("conv{}_{}", stage + 1, i + 1),
                n,
                ci,
                hw,
                cout,
                3,
                1,
                1,
            ));
        }
    }
    Model {
        name: "VGG16",
        layers,
    }
}

/// ResNet-50 (He et al. 2016): conv1 plus four bottleneck stages
/// (3, 4, 6, 3 blocks), stride-2 at the first 3×3 of stages 3–5, with
/// 1×1 projection shortcuts.
pub fn resnet50(n: usize) -> Model {
    let mut layers = vec![conv("conv1", n, 3, 224, 64, 7, 2, 3)];
    // (stage, blocks, in_ch, mid_ch, out_ch, in_spatial, stride_of_first)
    let stages = [
        (2usize, 3usize, 64usize, 64usize, 256usize, 56usize, 1usize),
        (3, 4, 256, 128, 512, 56, 2),
        (4, 6, 512, 256, 1024, 28, 2),
        (5, 3, 1024, 512, 2048, 14, 2),
    ];
    for (stage, blocks, in_ch, mid, out, in_hw, first_stride) in stages {
        for b in 0..blocks {
            let (ci, hw, s) = if b == 0 {
                (in_ch, in_hw, first_stride)
            } else {
                (out, in_hw / first_stride, 1)
            };
            let out_hw = hw / s;
            let p = |suffix: &str| format!("conv{stage}_{}_{suffix}", b + 1);
            layers.push(conv(&p("1x1a"), n, ci, hw, mid, 1, 1, 0));
            // Stride applied at the 3x3 (the torchvision-style variant).
            layers.push(conv(&p("3x3"), n, mid, hw, mid, 3, s, 1));
            layers.push(conv(&p("1x1b"), n, mid, out_hw, out, 1, 1, 0));
            if b == 0 {
                layers.push(conv(&p("proj"), n, ci, hw, out, 1, s, 0));
            }
        }
    }
    Model {
        name: "ResNet",
        layers,
    }
}

/// GoogLeNet / Inception-v1 (Szegedy et al. 2015): stem plus nine inception
/// modules.
pub fn googlenet(n: usize) -> Model {
    let mut layers = vec![
        conv("conv1", n, 3, 224, 64, 7, 2, 3),
        conv("conv2_red", n, 64, 56, 64, 1, 1, 0),
        conv("conv2", n, 64, 56, 192, 3, 1, 1),
    ];
    // (name, in_ch, n1x1, n3x3red, n3x3, n5x5red, n5x5, pool_proj, spatial)
    let modules = [
        ("3a", 192, 64, 96, 128, 16, 32, 32, 28),
        ("3b", 256, 128, 128, 192, 32, 96, 64, 28),
        ("4a", 480, 192, 96, 208, 16, 48, 64, 14),
        ("4b", 512, 160, 112, 224, 24, 64, 64, 14),
        ("4c", 512, 128, 128, 256, 24, 64, 64, 14),
        ("4d", 512, 112, 144, 288, 32, 64, 64, 14),
        ("4e", 528, 256, 160, 320, 32, 128, 128, 14),
        ("5a", 832, 256, 160, 320, 32, 128, 128, 7),
        ("5b", 832, 384, 192, 384, 48, 128, 128, 7),
    ];
    for (m, ci, n1, n3r, n3, n5r, n5, pp, hw) in modules {
        layers.push(conv(&format!("inc{m}_1x1"), n, ci, hw, n1, 1, 1, 0));
        layers.push(conv(&format!("inc{m}_3x3red"), n, ci, hw, n3r, 1, 1, 0));
        layers.push(conv(&format!("inc{m}_3x3"), n, n3r, hw, n3, 3, 1, 1));
        layers.push(conv(&format!("inc{m}_5x5red"), n, ci, hw, n5r, 1, 1, 0));
        layers.push(conv(&format!("inc{m}_5x5"), n, n5r, hw, n5, 5, 1, 2));
        layers.push(conv(&format!("inc{m}_pool"), n, ci, hw, pp, 1, 1, 0));
    }
    Model {
        name: "GoogleNet",
        layers,
    }
}

/// DenseNet-121 (Huang et al. 2017): growth rate 32, blocks of
/// (6, 12, 24, 16) layers, each a 1×1 bottleneck (→128) plus 3×3 (→32),
/// with channel-halving 1×1 transitions.
pub fn densenet121(n: usize) -> Model {
    let growth = 32;
    let bottleneck = 4 * growth; // 128
    let mut layers = vec![conv("conv0", n, 3, 224, 64, 7, 2, 3)];
    let mut ch = 64;
    let blocks = [
        (1usize, 6usize, 56usize),
        (2, 12, 28),
        (3, 24, 14),
        (4, 16, 7),
    ];
    for (bi, reps, hw) in blocks {
        for l in 0..reps {
            let p = format!("block{bi}_l{}", l + 1);
            layers.push(conv(&format!("{p}_1x1"), n, ch, hw, bottleneck, 1, 1, 0));
            layers.push(conv(
                &format!("{p}_3x3"),
                n,
                bottleneck,
                hw,
                growth,
                3,
                1,
                1,
            ));
            ch += growth;
        }
        if bi < 4 {
            layers.push(conv(&format!("trans{bi}"), n, ch, hw, ch / 2, 1, 1, 0));
            ch /= 2;
        }
    }
    Model {
        name: "DesNet",
        layers,
    }
}

/// YOLOv2 (Redmon & Farhadi 2016): Darknet-19 backbone at the native
/// 416×416 detection resolution, plus the detection head.
pub fn yolov2(n: usize) -> Model {
    Model {
        name: "YOLO",
        layers: vec![
            conv("conv1", n, 3, 416, 32, 3, 1, 1),
            conv("conv2", n, 32, 208, 64, 3, 1, 1),
            conv("conv3", n, 64, 104, 128, 3, 1, 1),
            conv("conv4", n, 128, 104, 64, 1, 1, 0),
            conv("conv5", n, 64, 104, 128, 3, 1, 1),
            conv("conv6", n, 128, 52, 256, 3, 1, 1),
            conv("conv7", n, 256, 52, 128, 1, 1, 0),
            conv("conv8", n, 128, 52, 256, 3, 1, 1),
            conv("conv9", n, 256, 26, 512, 3, 1, 1),
            conv("conv10", n, 512, 26, 256, 1, 1, 0),
            conv("conv11", n, 256, 26, 512, 3, 1, 1),
            conv("conv12", n, 512, 26, 256, 1, 1, 0),
            conv("conv13", n, 256, 26, 512, 3, 1, 1),
            conv("conv14", n, 512, 13, 1024, 3, 1, 1),
            conv("conv15", n, 1024, 13, 512, 1, 1, 0),
            conv("conv16", n, 512, 13, 1024, 3, 1, 1),
            conv("conv17", n, 1024, 13, 512, 1, 1, 0),
            conv("conv18", n, 512, 13, 1024, 3, 1, 1),
            conv("conv19", n, 1024, 13, 1024, 3, 1, 1),
            conv("conv20", n, 1024, 13, 1024, 3, 1, 1),
            conv("passthrough", n, 512, 26, 64, 1, 1, 0),
            conv("conv21", n, 1280, 13, 1024, 3, 1, 1),
            conv("detect", n, 1024, 13, 425, 1, 1, 0),
        ],
    }
}

/// DCGAN generator (Radford et al. 2016), 64×64 output: four stride-2
/// 4×4 transposed convolutions on top of the z-projection — *not* in the
/// paper's workload set; included as a transposed-conv-heavy table for the
/// backprop/transpose pass sweeps (`passes` runner, CI pass matrix).
///
/// Each layer is described by its **forward** [`ConvShape`] — the
/// convolution whose `ConvPass::Transpose` pass performs the upsample —
/// so `ci` is the layer's *output* channels and `hw` its *output* spatial
/// size, per the pass-vocabulary convention (DESIGN.md §15).
pub fn dcgan_generator(n: usize) -> Model {
    Model {
        name: "DCGAN-G",
        layers: vec![
            // z (100) 1x1 -> 4x4x1024 full projection.
            conv("tconv1", n, 1024, 4, 100, 4, 1, 0),
            // 4x4x1024 -> 8x8x512, then doubling spatial / halving depth.
            conv("tconv2", n, 512, 8, 1024, 4, 2, 1),
            conv("tconv3", n, 256, 16, 512, 4, 2, 1),
            conv("tconv4", n, 128, 32, 256, 4, 2, 1),
            conv("tconv5", n, 3, 64, 128, 4, 2, 1),
        ],
    }
}

/// U-Net (Ronneberger et al. 2015) at a padded 256×256 resolution:
/// double-conv encoder, 1024-channel bottleneck, and a decoder whose
/// 2×2 stride-2 up-convolutions are transposed convs. Like
/// [`dcgan_generator`], the `up*` layers are described by their forward
/// [`ConvShape`]s; the decoder convs consume concatenated skip channels.
pub fn unet(n: usize) -> Model {
    let mut layers = Vec::new();
    // Encoder: (in_ch, out_ch, spatial) double-conv stages.
    let enc = [
        (3usize, 64usize, 256usize),
        (64, 128, 128),
        (128, 256, 64),
        (256, 512, 32),
        (512, 1024, 16), // bottleneck
    ];
    for (i, &(cin, cout, hw)) in enc.iter().enumerate() {
        let tag = if i == 4 {
            "bott".into()
        } else {
            format!("enc{}", i + 1)
        };
        layers.push(conv(&format!("{tag}a"), n, cin, hw, cout, 3, 1, 1));
        layers.push(conv(&format!("{tag}b"), n, cout, hw, cout, 3, 1, 1));
    }
    // Decoder: up-conv (forward shape of the 2x2 s2 transposed conv) then
    // a double conv over the concatenated skip + upsampled channels.
    let dec = [
        (4usize, 1024usize, 32usize),
        (3, 512, 64),
        (2, 256, 128),
        (1, 128, 256),
    ];
    for (stage, cin, hw) in dec {
        layers.push(conv(&format!("up{stage}"), n, cin / 2, hw, cin, 2, 2, 0));
        layers.push(conv(&format!("dec{stage}a"), n, cin, hw, cin / 2, 3, 1, 1));
        layers.push(conv(
            &format!("dec{stage}b"),
            n,
            cin / 2,
            hw,
            cin / 2,
            3,
            1,
            1,
        ));
    }
    layers.push(conv("head", n, 64, 256, 2, 1, 1, 0));
    Model {
        name: "UNet",
        layers,
    }
}

/// The transposed-conv-heavy tables ([`dcgan_generator`], [`unet`]) used
/// by the pass sweeps.
pub fn transpose_models(n: usize) -> Vec<Model> {
    vec![dcgan_generator(n), unet(n)]
}

/// All seven evaluated networks at batch size `n`, in the paper's figure
/// order.
pub fn all_models(n: usize) -> Vec<Model> {
    vec![
        alexnet(n),
        densenet121(n),
        googlenet(n),
        resnet50(n),
        vgg16(n),
        yolov2(n),
        zfnet(n),
    ]
}

/// The distinct layer shapes of [`all_models`] at batch size `n`, in table
/// order (159 at batch 8, over 276 layers).
pub fn distinct_shapes(n: usize) -> Vec<ConvShape> {
    let mut shapes: Vec<ConvShape> = Vec::new();
    for model in all_models(n) {
        for layer in &model.layers {
            if !shapes.contains(&layer.shape) {
                shapes.push(layer.shape);
            }
        }
    }
    shapes
}

/// The five networks of Table I (memory-overhead comparison).
pub fn table1_models(n: usize) -> Vec<Model> {
    vec![alexnet(n), resnet50(n), vgg16(n), yolov2(n), densenet121(n)]
}

/// The representative ResNet layers of Fig. 4 / Fig. 18, labelled by
/// `(Wi, Ci, Co, Wf)` as in the paper's x-axes, at the requested stride.
///
/// These are the unique 3×3 bottleneck shapes of ResNet-50's four stages.
pub fn resnet_representative_layers(n: usize, stride: usize) -> Vec<Layer> {
    [
        (56usize, 64usize, 64usize, 3usize),
        (56, 128, 128, 3),
        (28, 256, 256, 3),
        (14, 512, 512, 3),
    ]
    .iter()
    .map(|&(wi, ci, co, wf)| {
        Layer::new(
            format!("{wi}-{ci}-{co}-{wf}-s{stride}"),
            ConvShape::square(n, ci, wi, co, wf, stride, wf / 2).expect("valid table entry"),
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_match_architectures() {
        assert_eq!(alexnet(1).layers.len(), 5);
        assert_eq!(zfnet(1).layers.len(), 5);
        assert_eq!(vgg16(1).layers.len(), 13);
        // ResNet-50: 1 + (3+4+6+3)*3 + 4 projections = 53.
        assert_eq!(resnet50(1).layers.len(), 53);
        // GoogLeNet: 3 stem + 9 modules × 6 convs = 57.
        assert_eq!(googlenet(1).layers.len(), 57);
        // DenseNet-121: 1 + 58*2 + 3 transitions = 120.
        assert_eq!(densenet121(1).layers.len(), 120);
        assert_eq!(yolov2(1).layers.len(), 23);
    }

    #[test]
    fn flops_in_published_ballpark() {
        // Published conv-FLOP counts (N=1, multiply-add = 2 FLOPs):
        // VGG16 ≈ 30.7 G, ResNet-50 ≈ 7.7 G (conv-only ≈ 7), AlexNet ≈ 1.3 G.
        let v = vgg16(1).total_flops() as f64 / 1e9;
        assert!((28.0..33.0).contains(&v), "VGG16 {v} GFLOPs");
        let r = resnet50(1).total_flops() as f64 / 1e9;
        assert!((6.5..8.5).contains(&r), "ResNet-50 {r} GFLOPs");
        // AlexNet here is the ungrouped (single-GPU) variant: ~2.2 G vs the
        // original 2-group network's ~1.3 G.
        let a = alexnet(1).total_flops() as f64 / 1e9;
        assert!((1.8..2.4).contains(&a), "AlexNet {a} GFLOPs");
        let g = googlenet(1).total_flops() as f64 / 1e9;
        assert!((2.5..3.5).contains(&g), "GoogLeNet {g} GFLOPs");
    }

    #[test]
    fn channel_chains_are_consistent() {
        // Every model: the input channels of layer i+1 must be producible
        // from some earlier layer's output channels (sequential nets: exactly
        // the previous layer's Co). Check the strictly sequential ones.
        for m in [alexnet(1), zfnet(1), vgg16(1)] {
            for w in m.layers.windows(2) {
                assert_eq!(
                    w[1].shape.ci, w[0].shape.co,
                    "{}: {} -> {}",
                    m.name, w[0].name, w[1].name
                );
            }
        }
    }

    #[test]
    fn spatial_dims_produce_integer_outputs() {
        for m in all_models(1) {
            for l in &m.layers {
                // ConvShape::square already validated; check output nonzero.
                assert!(
                    l.shape.out_h() > 0 && l.shape.out_w() > 0,
                    "{} {}",
                    m.name,
                    l
                );
            }
        }
    }

    #[test]
    fn densenet_channel_growth() {
        let d = densenet121(1);
        // Last dense layer of block 4 consumes 512 + 15*32 = 992 channels.
        let last_1x1 = d
            .layers
            .iter()
            .find(|l| l.name == "block4_l16_1x1")
            .expect("layer exists");
        assert_eq!(last_1x1.shape.ci, 992);
    }

    #[test]
    fn resnet_strided_blocks_present() {
        let r = resnet50(1);
        let strided = r.strided_layers();
        // conv1 + (3x3 + proj) at stages 3, 4, 5 = 7 strided layers.
        assert_eq!(strided.len(), 7);
        assert!(strided.iter().all(|l| l.shape.stride_h == 2));
    }

    #[test]
    fn table1_duplication_ratios_match_paper_shape() {
        // Paper Table I: lowered IFMaps are 1.5x-10.5x the raw IFMaps.
        for m in table1_models(64) {
            let ratio = m.lowered_bytes(4) as f64 / m.ifmap_bytes(4) as f64;
            assert!(
                (1.3..12.0).contains(&ratio),
                "{}: lowered/ifmap = {ratio:.2}",
                m.name
            );
        }
        // VGG16 is 3x3-dominated: close to 9x.
        let v = vgg16(64);
        let ratio = v.lowered_bytes(4) as f64 / v.ifmap_bytes(4) as f64;
        assert!((7.0..9.2).contains(&ratio), "VGG16 ratio {ratio:.2}");
    }

    #[test]
    fn representative_layers_follow_label_format() {
        let layers = resnet_representative_layers(8, 2);
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0].name, "56-64-64-3-s2");
        assert_eq!(layers[0].shape.stride_h, 2);
        assert_eq!(layers[0].shape.n, 8);
    }

    #[test]
    fn transpose_tables_are_upconv_heavy() {
        let models = transpose_models(1);
        assert_eq!(models.len(), 2);

        let g = &models[0];
        assert_eq!(g.name, "DCGAN-G");
        assert_eq!(g.layers.len(), 5);
        // Four of five generator layers are stride-2 4x4 upsamples.
        let strided = g.layers.iter().filter(|l| l.shape.stride_h == 2).count();
        assert_eq!(strided, 4);
        assert!(g.layers.iter().all(|l| l.shape.hf == 4));
        // Forward-shape convention: depth halves / spatial doubles going up
        // the generator, so consecutive forward shapes chain co -> ci.
        for w in g.layers.windows(2) {
            assert_eq!(w[0].shape.ci, w[1].shape.co);
        }

        let u = &models[1];
        assert_eq!(u.name, "UNet");
        // 5 double-conv stages + 4 x (up + double conv) + 1x1 head = 23.
        assert_eq!(u.layers.len(), 23);
        let ups: Vec<_> = u
            .layers
            .iter()
            .filter(|l| l.name.starts_with("up"))
            .collect();
        assert_eq!(ups.len(), 4);
        // Every up-conv is the forward shape of a 2x2 stride-2 transposed
        // conv that exactly doubles the spatial size: out = hw / 2.
        for l in &ups {
            assert_eq!((l.shape.hf, l.shape.stride_h, l.shape.pad_h), (2, 2, 0));
            assert_eq!(l.shape.out_h(), l.shape.hi / 2);
            assert_eq!(l.shape.co, 2 * l.shape.ci);
        }
    }

    #[test]
    fn batch_size_scales_flops_linearly() {
        let f1 = resnet50(1).total_flops();
        let f8 = resnet50(8).total_flops();
        assert_eq!(f8, 8 * f1);
    }
}
