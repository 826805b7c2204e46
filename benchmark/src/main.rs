//! `iconv-benchmark`: run, trace and compare the end-to-end benchmark.
//! See `benchmark/README.md`.

use iconv_benchmark::child::build_bins;
use iconv_benchmark::compare::{compare, ResultFile};
use iconv_benchmark::metrics::{END_TO_END, PER_LAYER};
use iconv_benchmark::report::{summary_line, write_result, RunResult};
use iconv_benchmark::serve::{ServeSpec, EXPLORE, HOT, ROUTED};
use iconv_benchmark::{offline, serve, trace};

const USAGE: &str = "usage: iconv-benchmark [run | trace] [--workload NAME]... [--seed N] \
     [--seconds S] [--trace 0|1]\n       iconv-benchmark compare [--claim METRIC:WORKLOAD] \
     --parent FILE... --change FILE...\n       workloads: hot, explore, routed, offline";

/// Every workload, in report order.
const WORKLOADS: [&str; 4] = ["hot", "explore", "routed", "offline"];

/// Measured seconds per workload when not given: five 8-second steps.
const DEFAULT_SECONDS: f64 = 40.0;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_options(args: &[String], traced: Option<bool>) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: traced.unwrap_or(false),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                o.workloads.push(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0)
                    .ok_or("--seconds needs a number of at least 1")?;
            }
            "--trace" if traced.is_none() => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(o)
}

fn spec(name: &str) -> Option<&'static ServeSpec> {
    [&HOT, &EXPLORE, &ROUTED]
        .into_iter()
        .find(|s| s.name == name)
}

fn measure(args: &[String], traced: Option<bool>) -> i32 {
    let o = match parse_options(args, traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("iconv-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let bins = match build_bins() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("iconv-benchmark: {e}");
            return 1;
        }
    };
    let mut results: Vec<RunResult> = Vec::new();
    for w in &o.workloads {
        let r = match (spec(w), o.traced) {
            (Some(s), false) => serve::run(s, &bins, o.seed, o.seconds),
            (Some(s), true) => trace::serve_trace(s, &bins, o.seed, o.seconds),
            (None, false) => offline::run(&bins, o.seconds),
            (None, true) => trace::offline_trace(&bins),
        };
        match r {
            Ok(r) => {
                r.print();
                results.push(r);
            }
            Err(e) => {
                eprintln!("iconv-benchmark: {w}: {e}");
                return 1;
            }
        }
    }
    let kind = if o.traced { "trace" } else { "run" };
    match write_result(kind, o.seed, o.seconds, &results) {
        Ok(path) => println!("result file {}", path.display()),
        Err(e) => eprintln!("iconv-benchmark: cannot write the result file: {e}"),
    }
    let names: Vec<&str> = if o.traced {
        PER_LAYER.iter().map(|(n, ..)| *n).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    println!("{}", summary_line(&results, &names));
    let failed: Vec<&str> = results
        .iter()
        .filter(|r| !r.correct())
        .map(|r| r.workload)
        .collect();
    if failed.is_empty() {
        0
    } else {
        for w in failed {
            eprintln!("iconv-benchmark: {w}: output check failed");
        }
        1
    }
}

fn compare_cmd(args: &[String]) -> i32 {
    let mut claim = None;
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--claim" => match it.next().and_then(|c| c.split_once(':')) {
                Some((m, w)) => claim = Some((m.to_owned(), w.to_owned())),
                None => {
                    eprintln!("iconv-benchmark: --claim takes METRIC:WORKLOAD\n{USAGE}");
                    return 2;
                }
            },
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => match side.as_mut() {
                Some(list) => list.push(file.to_owned()),
                None => {
                    eprintln!("iconv-benchmark: unexpected argument {file:?}\n{USAGE}");
                    return 2;
                }
            },
        }
    }
    let load = |files: &[String]| -> Result<Vec<ResultFile>, String> {
        files
            .iter()
            .map(|f| {
                std::fs::read_to_string(f)
                    .map_err(|e| format!("{f}: {e}"))
                    .and_then(|t| ResultFile::parse(&t).map_err(|e| format!("{f}: {e}")))
            })
            .collect()
    };
    let report = load(&parent).and_then(|p| {
        let c = load(&change)?;
        compare(
            &p,
            &c,
            claim.as_ref().map(|(m, w)| (m.as_str(), w.as_str())),
        )
    });
    match report {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
            0
        }
        Err(e) => {
            eprintln!("iconv-benchmark: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => measure(&args[1..], Some(false)),
        Some("trace") => measure(&args[1..], Some(true)),
        _ => measure(&args, None),
    };
    std::process::exit(code);
}
