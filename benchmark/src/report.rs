//! Results: printing, the host stamp, and the result files `compare`
//! reads.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use iconv_api::json::{write_str, Json};

use crate::child::{out_dir, repo_root};
use crate::gen::StepSummary;
use crate::metrics::Measured;

/// What one workload run measured and found.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Metrics, in report order.
    pub metrics: Vec<Measured>,
    /// Ladder steps (serve workloads).
    pub steps: Vec<StepSummary>,
    /// Requests (or `expall` runs) attempted.
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// Check failures; a correct run has none.
    pub problems: Vec<String>,
    /// Facts worth printing that are not metrics (digests, key counts).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `workload metric value unit` lines, then steps, notes and problems.
    pub fn print(&self) {
        let w = self.workload;
        for m in &self.metrics {
            println!("{w} {} {} {}", m.name, num(m.value), m.unit);
        }
        for (i, s) in self.steps.iter().enumerate() {
            let k = i + 1;
            println!("{w} step{k}.rate {} 1/s", s.rate);
            println!("{w} step{k}.sent {} count", s.sent);
            println!("{w} step{k}.ok {} count", s.ok);
            println!("{w} step{k}.failed {} count", s.failed);
            println!("{w} step{k}.late_p99_us {} us", num(s.late_p99_us));
            println!("{w} step{k}.p50_ms {} ms", num(s.p50_ms));
            let p99 = s.p99_ms.map_or("unsupported".to_owned(), num);
            println!("{w} step{k}.p99_ms {p99} ms");
            println!("{w} step{k}.backlog {} count", s.backlog);
            let verdict = match (s.valid, s.pass) {
                (false, _) => "invalid",
                (true, true) => "pass",
                (true, false) => "fail",
            };
            println!("{w} step{k}.verdict {verdict}");
        }
        for (k, v) in &self.notes {
            println!("{w} {k} {v}");
        }
        for p in &self.problems {
            println!("{w} CHECK FAILED: {p}");
        }
    }
}

/// A number with all its digits (`inf` for an unbounded latency).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "inf".to_owned()
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The host a result was measured on. Runs compare only on one host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Build profile of the benchmark.
    pub profile: String,
}

impl Host {
    /// Describe this host.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        }
    }

    /// The host object of a result file.
    pub fn from_json(v: &Json) -> Option<Self> {
        let o = v.as_obj()?;
        let text = |k: &str| o.get(k).and_then(Json::as_str).map(str::to_owned);
        Some(Self {
            nproc: usize::try_from(o.get("nproc")?.as_u64()?).ok()?,
            cpu: text("cpu")?,
            rustc: text("rustc")?,
            profile: text("profile")?,
        })
    }

    /// The fields as one comparable string.
    pub fn fingerprint(&self) -> String {
        format!(
            "nproc={} cpu={} rustc={} profile={}",
            self.nproc, self.cpu, self.rustc, self.profile
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit under test, or `unknown` outside a git checkout.
fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Write the result file of one invocation under `benchmark/out/` and
/// return its path.
pub fn write_result(
    kind: &str,
    seed: u64,
    seconds: f64,
    results: &[RunResult],
) -> std::io::Result<PathBuf> {
    let host = Host::detect();
    let mut s = String::from("{\"host\":{\"nproc\":");
    let _ = write!(s, "{},\"cpu\":", host.nproc);
    write_str(&mut s, &host.cpu);
    s.push_str(",\"rustc\":");
    write_str(&mut s, &host.rustc);
    s.push_str(",\"profile\":");
    write_str(&mut s, &host.profile);
    s.push_str("},\"git_rev\":");
    write_str(&mut s, &git_rev());
    let _ = write!(
        s,
        ",\"kind\":\"{kind}\",\"seed\":{seed},\"seconds\":{seconds},\"workloads\":{{"
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n\"{}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            r.workload,
            r.correct(),
            r.attempted,
            r.failed
        );
        for (j, m) in r.metrics.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("},\"steps\":[");
        for (j, st) in r.steps.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rate\":{},\"sent\":{},\"ok\":{},\"failed\":{},\"completed\":{},\
                 \"backlog\":{},\"late_p99_us\":{},\"p50_ms\":{},\"p99_ms\":{},\
                 \"valid\":{},\"pass\":{}}}",
                st.rate,
                st.sent,
                st.ok,
                st.failed,
                st.completed,
                st.backlog,
                json_num(st.late_p99_us),
                json_num(st.p50_ms),
                json_num(st.p99_ms.unwrap_or(f64::NAN)),
                st.valid,
                st.pass
            );
        }
        s.push_str("],\"notes\":{");
        for (j, (k, v)) in r.notes.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write_str(&mut s, k);
            s.push(':');
            write_str(&mut s, v);
        }
        s.push_str("},\"problems\":[");
        for (j, p) in r.problems.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write_str(&mut s, p);
        }
        s.push_str("]}");
    }
    s.push_str("\n}}\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!("{kind}-{stamp}-seed{seed}.json"));
    std::fs::write(&path, s)?;
    Ok(path)
}

/// The last line of output: one JSON object with the metrics `names`,
/// prefixed by their workload when there is more than one.
pub fn summary_line(results: &[RunResult], names: &[&str]) -> String {
    let correct = results.iter().all(RunResult::correct);
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    let mut first = true;
    for r in results {
        for m in r
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
        {
            if !first {
                s.push(',');
            }
            first = false;
            let name = if results.len() > 1 {
                format!("{}.{}", r.workload, m.name)
            } else {
                m.name.clone()
            };
            let _ = write!(
                s,
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_num(m.value),
                m.unit
            );
        }
    }
    s.push_str("}}");
    s
}
