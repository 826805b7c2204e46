//! Command-line parsing for `loadgen`, extracted from the binary so the
//! flag grammar is unit-testable: rejection of zero/negative counts,
//! missing values and unknown flags are contracts with tests, not
//! `main()` folklore.

use std::time::Duration;

use crate::client::DEFAULT_CONNECT_TIMEOUT;

/// Flag summary printed with every parse error.
pub const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--concurrency N] [--workers N] \
     [--models all|small] [--pass forward|wgrad|dgrad|transpose|indirect] \
     [--connect-timeout SECS] [--out PATH] [--shutdown] \
     [--window N] [--passes N] [--batch N]";

/// Parsed `loadgen` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenArgs {
    /// External server address; `None` boots an in-process server.
    pub addr: Option<String>,
    /// Closed-loop connections.
    pub concurrency: usize,
    /// Worker threads for in-process servers.
    pub workers: usize,
    /// Restrict the workload table to the small models.
    pub small: bool,
    /// Which convolution-pass leg the workload table estimates: `forward`
    /// (the historical four-estimator table), a backward/transposed pass,
    /// or the `indirect` lowering of the forward pass. Matches the CI
    /// pass-matrix leg names.
    pub pass: String,
    /// Budget for the initial connect race against a booting server.
    pub connect_timeout: Duration,
    /// Report path.
    pub out: String,
    /// Send `shutdown` to the target server when done.
    pub shutdown: bool,
    /// Pipelining window per connection.
    pub window: usize,
    /// Workload-table passes (pass 1 cold, later passes warm).
    pub passes: usize,
    /// Items per `batch` request; 0 = one request line per estimate.
    pub batch: usize,
}

fn positive_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{name} needs a positive integer (got {v:?}); {USAGE}"))
}

fn positive_usize(name: &str, v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{name} needs a positive integer (got {v:?}); {USAGE}"))
}

/// Parse a `loadgen` argument list (without the program name).
pub fn parse_loadgen_args(args: impl IntoIterator<Item = String>) -> Result<LoadgenArgs, String> {
    let mut parsed = LoadgenArgs {
        addr: None,
        concurrency: 8,
        workers: iconv_par::default_jobs(),
        small: false,
        pass: "forward".to_owned(),
        connect_timeout: DEFAULT_CONNECT_TIMEOUT,
        out: "BENCH_serve.json".to_owned(),
        shutdown: false,
        window: 32,
        passes: 2,
        batch: 0,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value; {USAGE}"))
        };
        match a.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")?),
            "--concurrency" => {
                parsed.concurrency = positive_usize("--concurrency", &value("--concurrency")?)?;
            }
            "--workers" => parsed.workers = positive_usize("--workers", &value("--workers")?)?,
            "--connect-timeout" => {
                parsed.connect_timeout = Duration::from_secs(positive_u64(
                    "--connect-timeout",
                    &value("--connect-timeout")?,
                )?);
            }
            "--out" => parsed.out = value("--out")?,
            "--shutdown" => parsed.shutdown = true,
            "--models" => {
                parsed.small = match value("--models")?.as_str() {
                    "all" => false,
                    "small" => true,
                    other => {
                        return Err(format!(
                            "--models must be all|small (got {other:?}); {USAGE}"
                        ))
                    }
                }
            }
            "--pass" => {
                let v = value("--pass")?;
                match v.as_str() {
                    "forward" | "wgrad" | "dgrad" | "transpose" | "indirect" => parsed.pass = v,
                    other => {
                        return Err(format!(
                            "--pass must be forward|wgrad|dgrad|transpose|indirect \
                             (got {other:?}); {USAGE}"
                        ))
                    }
                }
            }
            "--window" => parsed.window = positive_usize("--window", &value("--window")?)?,
            "--passes" => parsed.passes = positive_usize("--passes", &value("--passes")?)?,
            "--batch" => parsed.batch = positive_usize("--batch", &value("--batch")?)?,
            other => return Err(format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LoadgenArgs, String> {
        parse_loadgen_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_are_closed_loop() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.out, "BENCH_serve.json");
        assert_eq!(a.window, 32);
        assert_eq!(a.passes, 2);
        assert_eq!(a.batch, 0);
    }

    #[test]
    fn pass_flag_selects_a_leg_and_rejects_strangers() {
        assert_eq!(parse(&[]).unwrap().pass, "forward");
        for leg in ["forward", "wgrad", "dgrad", "transpose", "indirect"] {
            assert_eq!(parse(&["--pass", leg]).unwrap().pass, leg);
        }
        let e = parse(&["--pass", "sideways"]).unwrap_err();
        assert!(e.contains("--pass"), "{e}");
    }

    #[test]
    fn explicit_out_beats_the_mode_default() {
        let a = parse(&["--out", "custom.json"]).unwrap();
        assert_eq!(a.out, "custom.json");
    }

    /// Zero fails the shared positive-integer check.
    #[test]
    fn rejects_zero_rate() {
        let err = parse(&["--window", "0"]).unwrap_err();
        assert!(err.contains("--window needs a positive integer"), "{err}");
    }

    /// A negative count fails the same check.
    #[test]
    fn rejects_negative_rate() {
        let err = parse(&["--passes", "-5"]).unwrap_err();
        assert!(err.contains("--passes needs a positive integer"), "{err}");
    }

    #[test]
    fn missing_value_is_reported() {
        let err = parse(&["--window"]).unwrap_err();
        assert!(err.contains("--window requires a value"), "{err}");
    }

    /// The open-loop generator's flags are gone: a stale script that still
    /// passes one fails to parse (exit 2) instead of silently running the
    /// closed loop. The error names the first flag it did not know.
    fn assert_unknown(flags: &[&str], culprit: &str) {
        let err = parse(flags).unwrap_err();
        assert!(
            err.starts_with(&format!("unknown argument {culprit:?}")),
            "{flags:?}: {err}"
        );
    }

    #[test]
    fn soak_without_the_switch_is_an_error() {
        assert_unknown(&["--soak"], "--soak");
    }

    #[test]
    fn open_flags_without_the_switch_are_errors() {
        for flags in [
            &["--knee"][..],
            &["--rate", "300"][..],
            &["--requests", "1200"][..],
            &["--slo", "50ms"][..],
            &["--zipf-s", "1.1"][..],
            &["--seed", "42"][..],
            &["--batch-size", "8"][..],
            &["--rate-min", "50"][..],
            &["--rate-max", "1600"][..],
        ] {
            assert_unknown(flags, flags[0]);
        }
    }

    /// The switch itself is unknown now, so a closed-loop flag beside it
    /// still fails, whichever side of it the closed-loop flag sits.
    #[test]
    fn closed_flags_with_the_switch_are_conflicts() {
        assert_unknown(&["--open-loop"], "--open-loop");
        assert_unknown(&["--open-loop", "--window", "16"], "--open-loop");
        assert_unknown(
            &["--passes", "3", "--open-loop", "--batch", "4"],
            "--open-loop",
        );
    }
}
