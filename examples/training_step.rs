//! Training with channel-first im2col: compute a real gradient step
//! functionally (forward, weight gradient, input gradient — all through the
//! per-tap decomposition), verify the adjoint identity, then time the same
//! step on simulated TPU-v2 and TPU-v3 cores with the implicit pass model.
//!
//! Run with: `cargo run --release --example training_step`

use implicit_conv::core::backward::{dgrad, inner, wgrad};
use implicit_conv::prelude::*;
use implicit_conv::tensor::conv_ref::{direct_conv, filter_dims, ifmap_dims, ofmap_dims};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small layer, functionally.
    let shape = ConvShape::square(2, 8, 14, 16, 3, 1, 1)?;
    let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, 1);
    let w = Tensor::<i64>::random(filter_dims(&shape), Layout::Nchw, 2);
    let dy = Tensor::<i64>::random(ofmap_dims(&shape), Layout::Nchw, 3);

    let y = direct_conv(&shape, &x, &w);
    let dw = wgrad(&shape, &x, &dy);
    let dx = dgrad(&shape, &w, &dy);

    // The adjoint identity <dY, conv(X)> = <dW, W> = <dX, X> holds exactly
    // on integers — the algebraic proof that the per-tap gradient lowering
    // is the true transpose of the per-tap forward lowering.
    let lhs = inner(&dy, &y);
    assert_eq!(lhs, inner(&dw, &w));
    assert_eq!(lhs, inner(&dx, &x));
    println!("Layer {shape}");
    println!("adjoint identity:  <dY, Y> = <dW, W> = <dX, X> = {lhs}  ✓ (bit-exact)");

    // Now time one ResNet-50 training step on each TPU generation.
    let model = resnet50(8);
    println!("\nResNet-50 training step (batch 8):");
    for (name, cfg) in [
        ("TPU-v2", TpuConfig::tpu_v2()),
        ("TPU-v3", TpuConfig::tpu_v3()),
    ] {
        let sim = Simulator::new(cfg);
        let reports = sim.simulate_model_training(&model);
        let mut fwd = 0u64;
        let mut wg = 0u64;
        let mut dg = 0u64;
        for (r, k) in &reports {
            fwd += r.forward.cycles * *k as u64;
            wg += r.wgrad.cycles * *k as u64;
            dg += r.dgrad.as_ref().map_or(0, |d| d.cycles) * *k as u64;
        }
        let ms = |c: u64| cfg.cycles_to_seconds(c) * 1e3;
        println!(
            "  {name}: fwd {:.2} ms + wgrad {:.2} ms + dgrad {:.2} ms = {:.2} ms \
             ({:.1} TFLOPS sustained)",
            ms(fwd),
            ms(wg),
            ms(dg),
            ms(fwd + wg + dg),
            implicit_conv::tpusim::training::training_tflops(&cfg, &reports),
        );
    }
    println!("\nBoth gradients are priced by the same implicit pass model as the forward");
    println!("(`Simulator::simulate_pass`) — no extra im2col machinery is needed for training.");
    Ok(())
}
