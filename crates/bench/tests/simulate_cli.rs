//! The `simulate` CLI, driven as a user would: a layer prints the cycle
//! count the library computes for it, a model trains on TPU-v3, and bad
//! input (a zero dimension, a layer whose counts overflow, `--train` on the
//! GPU, both `--model` and `--layer`) is a usage error with exit status 2.

use std::process::{Command, Output};

use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, Simulator, TpuConfig};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("run simulate")
}

#[test]
fn a_layer_prints_the_library_cycle_count() {
    let out = simulate(&[
        "--target",
        "tpu",
        "--layer",
        "64,56,64,3,1,1",
        "--batch",
        "8",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let shape = ConvShape::square(8, 64, 56, 64, 3, 1, 1).expect("valid layer");
    let cycles = Simulator::new(TpuConfig::tpu_v2())
        .simulate_conv("layer", &shape, SimMode::ChannelFirst)
        .cycles;
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!(": {cycles} cycles")),
        "want {cycles} cycles in {stdout:?}"
    );
}

#[test]
fn a_model_trains_on_tpu_v3() {
    let out = simulate(&[
        "--target", "tpu-v3", "--model", "resnet50", "--batch", "8", "--train",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("training step"));
}

#[test]
fn bad_input_is_a_usage_error() {
    for args in [
        &["--target", "gpu", "--model", "vgg16", "--train"][..],
        &["--layer", "0,56,64,3,1,1"],
        // Its IFMap alone holds over 2^64 elements.
        &["--layer", "99999999999,56,64,3,1,1", "--batch", "99999999"],
        &["--model", "vgg16", "--layer", "64,56,64,3,1,1"],
    ] {
        let out = simulate(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
