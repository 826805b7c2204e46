//! Criterion benchmarks of the dataflow substrates: reference GEMM, the
//! cycle-stepped systolic array, address generation, tile scheduling, the
//! channel-first block traffic counts, and one design-space search per
//! target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iconv_api::{TpuChip, TuneTarget};
use iconv_core::addrgen::{AddrGen, VectorMemSpec};
use iconv_core::block::{reference, BlockConfig, BlockDecomposition, FetchOrder};
use iconv_core::schedule::TileSchedule;
use iconv_systolic::reference::ReferenceArray;
use iconv_systolic::{ArrayConfig, SystolicArray};
use iconv_tensor::{ConvShape, Matrix};
use iconv_tune::tune;
use std::hint::black_box;

fn bench_reference_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("reference_gemm");
    for n in [32usize, 64, 128, 256] {
        let a = Matrix::<f32>::from_fn(n, n, |r, s| (r * 31 + s) as f32 * 0.01);
        let b = Matrix::<f32>::from_fn(n, n, |r, s| (r + s * 17) as f32 * 0.01);
        g.throughput(criterion::Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| black_box(&a).reference_gemm(&b))
        });
        g.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            let mut ws = iconv_tensor::GemmWorkspace::new();
            bch.iter(|| black_box(&a).matmul_with(&b, &mut ws))
        });
        g.bench_with_input(BenchmarkId::new("packed_par", n), &n, |bch, _| {
            bch.iter(|| black_box(&a).par_matmul(&b))
        });
    }
    g.finish();
}

fn bench_systolic_array(c: &mut Criterion) {
    // Stepping the PE grid is the expensive ground-truth path: quantify it.
    let cfg = ArrayConfig { rows: 16, cols: 16 };
    let a = Matrix::<i64>::from_fn(64, 16, |r, s| (r + s) as i64 % 7 - 3);
    let b = Matrix::<i64>::from_fn(16, 16, |r, s| (r * s) as i64 % 5 - 2);
    c.bench_function("systolic_16x16_stream64", |bch| {
        bch.iter(|| {
            let mut arr = SystolicArray::with_weights(cfg, black_box(&b));
            arr.stream(&a)
        })
    });

    // Band-stepped vs naive full-grid reference at the sizes the tentpole
    // optimization targets; per-stream M is 2x the grid rows, the tile
    // schedulers' common case.
    let mut g = c.benchmark_group("systolic_stream");
    for size in [32usize, 128] {
        let cfg = ArrayConfig {
            rows: size,
            cols: size,
        };
        let m = 2 * size;
        let a = Matrix::<i64>::from_fn(m, size, |r, s| (r * 3 + s) as i64 % 7 - 3);
        let b = Matrix::<i64>::from_fn(size, size, |r, s| (r * s) as i64 % 5 - 2);
        g.throughput(criterion::Throughput::Elements((m * size * size) as u64));
        g.bench_with_input(BenchmarkId::new("optimized", size), &size, |bch, _| {
            let mut arr = SystolicArray::with_weights(cfg, &b);
            bch.iter(|| arr.stream(black_box(&a)))
        });
        g.bench_with_input(BenchmarkId::new("reference", size), &size, |bch, _| {
            let mut arr = ReferenceArray::with_weights(cfg, &b);
            bch.iter(|| arr.stream(black_box(&a)))
        });
    }
    g.finish();
}

fn bench_addrgen(c: &mut Criterion) {
    let shape = ConvShape::square(8, 8, 28, 32, 3, 1, 1).unwrap();
    let spec = VectorMemSpec {
        arrays: 32,
        word_elems: 8,
    };
    let sched = TileSchedule::tpu(&shape, 32);
    c.bench_function("addrgen_full_stream", |b| {
        b.iter(|| {
            let mut reads = 0u64;
            for group in sched.groups() {
                let gen = AddrGen::new(&shape, spec, group);
                for step in 0..gen.steps() {
                    for array in 0..spec.arrays {
                        if let iconv_core::ArrayOp::Read(_) = gen.op(step, array) {
                            reads += 1;
                        }
                    }
                }
            }
            black_box(reads)
        })
    });
}

fn bench_scheduling(c: &mut Criterion) {
    let shape = ConvShape::square(8, 8, 56, 128, 7, 1, 3).unwrap();
    c.bench_function("tile_schedule_tpu", |b| {
        b.iter(|| TileSchedule::tpu(black_box(&shape), 128))
    });
    // Closed-form tap order against the set-intersecting reference it
    // replaced.
    c.bench_function("reordered_taps_7x7", |b| {
        b.iter(|| iconv_core::block::reordered_taps(black_box(&shape)))
    });
    c.bench_function("reordered_taps/reference/7x7", |b| {
        b.iter(|| reference::reordered_taps(black_box(&shape)))
    });
}

fn bench_block_fetch(c: &mut Criterion) {
    // ResNet-50's 56x56 3x3 layer at batch 8 under the CUDA-SDK tiling: 196
    // blocks x 9 taps through the reordered (warm) path, closed form
    // against the set-building reference. `layer` is the whole-layer
    // periodic sum, which counts 49 distinct block phases.
    let shape = ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap();
    let d = BlockDecomposition::new(shape, BlockConfig::cuda_sdk(), FetchOrder::Reordered);
    let blocks = d.output_blocks();
    let mut g = c.benchmark_group("block_fetch");
    g.bench_function("layer/resnet50_3x3_56", |b| {
        b.iter(|| black_box(&d).layer_fetch_elems().1)
    });
    g.bench_function("closed_form/resnet50_3x3_56", |b| {
        b.iter(|| {
            blocks
                .iter()
                .map(|blk| d.block_fetch_elems(black_box(blk)).1)
                .sum::<u64>()
        })
    });
    g.bench_function("reference/resnet50_3x3_56", |b| {
        b.iter(|| {
            blocks
                .iter()
                .map(|blk| reference::block_fetch_elems(&d, black_box(blk)).1)
                .sum::<u64>()
        })
    });
    g.finish();
}

fn bench_tune_search(c: &mut Criterion) {
    // One search of the same layer per target: alias pruning plus every
    // surviving candidate simulated in process. Every TPU-v3 candidate
    // runs non-default hardware.
    let shape = ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap();
    let mut g = c.benchmark_group("tune_search");
    for (name, target) in [
        ("tpu_v2", TuneTarget::Tpu { chip: TpuChip::V2 }),
        ("tpu_v3", TuneTarget::Tpu { chip: TpuChip::V3 }),
        ("gpu", TuneTarget::Gpu),
    ] {
        g.bench_function(&format!("{name}/resnet50_3x3_56"), |b| {
            b.iter(|| tune(black_box(&shape), target))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_reference_gemm,
    bench_systolic_array,
    bench_addrgen,
    bench_scheduling,
    bench_block_fetch,
    bench_tune_search
);
criterion_main!(benches);
