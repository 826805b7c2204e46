//! `simulate` — a small CLI over the simulators, for downstream users who
//! want numbers for their own layers/models without writing Rust.
//!
//! ```text
//! simulate --target tpu        --model resnet50 --batch 8
//! simulate --target tpu-v3     --model vgg16 --batch 8 --train
//! simulate --target gpu        --layer 64,56,64,3,1,1 --batch 8
//! simulate --target tpu        --layer 3,224,64,7,2,3 --batch 64
//! ```
//!
//! `--layer` takes `ci,hw,co,f,stride,pad`.

use iconv_gpusim::{GpuAlgo, GpuConfig, GpuSim};
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, Simulator, TpuConfig};
use std::process::ExitCode;

struct Args {
    target: String,
    model: Option<String>,
    layer: Option<Vec<usize>>,
    batch: usize,
    train: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        target: "tpu".to_string(),
        model: None,
        layer: None,
        batch: 8,
        train: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--target" => args.target = it.next().ok_or("--target needs a value")?,
            "--model" => args.model = Some(it.next().ok_or("--model needs a value")?),
            "--layer" => {
                let spec = it.next().ok_or("--layer needs ci,hw,co,f,stride,pad")?;
                let vals: Result<Vec<usize>, _> =
                    spec.split(',').map(|v| v.trim().parse()).collect();
                let vals = vals.map_err(|e| format!("bad --layer: {e}"))?;
                if vals.len() != 6 {
                    return Err("--layer needs exactly ci,hw,co,f,stride,pad".into());
                }
                args.layer = Some(vals);
            }
            "--batch" => {
                args.batch = it
                    .next()
                    .ok_or("--batch needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --batch: {e}"))?;
            }
            "--train" => args.train = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.model.is_some() == args.layer.is_some() {
        return Err("give exactly one of --model or --layer".into());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "simulate — run a layer or model through the TPU/GPU simulators\n\n\
         USAGE:\n  simulate --target tpu|tpu-v3|gpu (--model NAME | --layer ci,hw,co,f,s,p)\n\
         \x20          [--batch N] [--train]\n\n\
         MODELS: alexnet zfnet vgg16 resnet50 googlenet densenet121 yolov2\n\
         EXAMPLES:\n  simulate --target tpu --model resnet50 --batch 8\n\
         \x20 simulate --target gpu --layer 64,56,64,3,2,1 --batch 8\n\
         \x20 simulate --target tpu-v3 --model vgg16 --train"
    );
}

fn lookup_model(name: &str, batch: usize) -> Option<iconv_workloads::Model> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Some(iconv_workloads::alexnet(batch)),
        "zfnet" => Some(iconv_workloads::zfnet(batch)),
        "vgg16" | "vgg" => Some(iconv_workloads::vgg16(batch)),
        "resnet50" | "resnet" => Some(iconv_workloads::resnet50(batch)),
        "googlenet" | "inception" => Some(iconv_workloads::googlenet(batch)),
        "densenet121" | "densenet" => Some(iconv_workloads::densenet121(batch)),
        "yolov2" | "yolo" => Some(iconv_workloads::yolov2(batch)),
        _ => None,
    }
}

fn run_tpu(cfg: TpuConfig, args: &Args) -> Result<(), String> {
    let sim = Simulator::new(cfg);
    if let Some(name) = &args.model {
        let model = lookup_model(name, args.batch).ok_or(format!("unknown model {name}"))?;
        if args.train {
            let reports = sim.simulate_model_training(&model);
            let cycles: u64 = reports
                .iter()
                .map(|(r, k)| r.total_cycles() * *k as u64)
                .sum();
            println!(
                "{} training step @ batch {}: {:.2} ms, {:.1} TFLOPS",
                model.name,
                args.batch,
                cfg.cycles_to_seconds(cycles) * 1e3,
                iconv_tpusim::training::training_tflops(&cfg, &reports)
            );
        } else {
            let rep = sim.simulate_model(&model, SimMode::ChannelFirst);
            println!(
                "{} inference @ batch {}: {:.2} ms, {:.1} TFLOPS ({:.0}% of peak), {:.0} MB DRAM",
                model.name,
                args.batch,
                rep.seconds(&cfg) * 1e3,
                rep.tflops(&cfg),
                100.0 * rep.tflops(&cfg) / cfg.peak_tflops(),
                rep.total_dram_bytes() as f64 / 1e6
            );
        }
    } else {
        let shape = layer_shape(args)?;
        let rep = sim.simulate_conv("layer", &shape, SimMode::ChannelFirst);
        println!(
            "{shape}: {} cycles = {:.1} us, {:.1} TFLOPS ({:.0}% util), workspace {:.2} MB [{}-bound]",
            rep.cycles,
            rep.seconds(&cfg) * 1e6,
            rep.tflops(&cfg),
            100.0 * rep.utilization(&cfg),
            rep.workspace_bytes as f64 / 1e6,
            rep.bottleneck(&cfg)
        );
        if args.train {
            let step = sim.simulate_training_step("layer", &shape, true);
            println!(
                "training step: fwd {} + wgrad {} + dgrad {} = {} cycles",
                step.forward.cycles,
                step.wgrad.cycles,
                step.dgrad.as_ref().map_or(0, |d| d.cycles),
                step.total_cycles()
            );
        }
    }
    Ok(())
}

fn run_gpu(args: &Args) -> Result<(), String> {
    let cfg = GpuConfig::v100();
    let sim = GpuSim::new(cfg);
    if args.train {
        return Err("--train is TPU-only (the GPU model times inference schedules)".into());
    }
    if let Some(name) = &args.model {
        let model = lookup_model(name, args.batch).ok_or(format!("unknown model {name}"))?;
        let ours = sim.model_seconds(&model, GpuAlgo::ChannelFirst { reuse: true });
        let cudnn = sim.model_seconds(&model, GpuAlgo::CudnnImplicit);
        println!(
            "{} @ batch {}: ours {:.2} ms, cuDNN-proxy {:.2} ms (ratio {:.3})",
            model.name,
            args.batch,
            ours * 1e3,
            cudnn * 1e3,
            ours / cudnn
        );
    } else {
        let shape = layer_shape(args)?;
        for algo in [
            GpuAlgo::CudnnImplicit,
            GpuAlgo::ChannelFirst { reuse: true },
            GpuAlgo::GemmEquivalent,
        ] {
            let r = sim.simulate_conv("layer", &shape, algo);
            println!(
                "{:<22} {:.1} us, {:.1} TFLOPS",
                algo.to_string(),
                r.seconds(&cfg) * 1e6,
                r.tflops(&cfg)
            );
        }
    }
    Ok(())
}

fn layer_shape(args: &Args) -> Result<ConvShape, String> {
    let v = args.layer.as_ref().ok_or("--layer required")?;
    ConvShape::square(args.batch, v[0], v[1], v[2], v[3], v[4], v[5])
        .map_err(|e| format!("invalid layer: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return ExitCode::from(u8::from(e != "help") * 2);
        }
    };
    let result = match args.target.as_str() {
        "tpu" => run_tpu(TpuConfig::tpu_v2(), &args),
        "tpu-v3" => run_tpu(TpuConfig::tpu_v3(), &args),
        "gpu" => run_gpu(&args),
        other => Err(format!("unknown target {other} (tpu | tpu-v3 | gpu)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
