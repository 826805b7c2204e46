//! Building the release binaries and running them as child processes.
//!
//! Every child is killed and reaped when its handle drops — on success,
//! on error and while a panic unwinds — so a failed run leaves nothing
//! listening.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use iconv_api::json::{self, Json};

/// How long a server may take to print its `listening on` line.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);
/// Niceness of server children (see [`Child::spawn_server`]).
const SERVER_NICE: &str = "19";

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where runs write results, traces and scratch files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Paths of the release binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    /// The estimate server.
    pub served: PathBuf,
    /// The consistent-hash router.
    pub routed: PathBuf,
    /// The experiment runner.
    pub expall: PathBuf,
}

/// Build `served`, `routed` and `expall` in release mode from the
/// repository's own workspace and return their paths, as Cargo reports
/// them (so `CARGO_TARGET_DIR` is honoured).
pub fn build_bins() -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = repo_root().join("Cargo.toml");
    let out = Command::new(cargo)
        .arg("build")
        .arg("--release")
        .arg("--quiet")
        .arg("--message-format=json-render-diagnostics")
        .arg("--manifest-path")
        .arg(&manifest)
        .args(["--bin", "served", "--bin", "routed", "--bin", "expall"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo build of {} failed: {}",
            manifest.display(),
            out.status
        ));
    }
    let found = |name: &str| -> Result<PathBuf, String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| json::parse(l).ok())
            .find_map(|msg| executable(&msg, name))
            .ok_or_else(|| format!("cargo reported no executable for {name}"))
    };
    Ok(Bins {
        served: found("served")?,
        routed: found("routed")?,
        expall: found("expall")?,
    })
}

fn executable(msg: &Json, name: &str) -> Option<PathBuf> {
    let obj = msg.as_obj()?;
    let target = obj.get("target")?.as_obj()?;
    if target.get("name")?.as_str()? != name {
        return None;
    }
    obj.get("executable")?.as_str().map(PathBuf::from)
}

/// A child process that is killed and reaped on drop.
pub struct Child {
    name: String,
    proc: std::process::Child,
}

impl Child {
    /// Spawn `program` with `args` in `cwd`, stdout piped, stderr dropped.
    fn spawn(name: &str, program: &Path, args: &[String], cwd: &Path) -> Result<Self, String> {
        let proc = Command::new(program)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {name} ({}): {e}", program.display()))?;
        Ok(Self {
            name: name.to_owned(),
            proc,
        })
    }

    /// Spawn a server at lower scheduling priority and wait for its
    /// `listening on <addr>` line.
    ///
    /// The load generator shares the host's cores with the fleet. At equal
    /// priority, simulating workers delay the sender's wake-ups by several
    /// milliseconds, so the generator falls behind its schedule; niced
    /// servers leave it the punctuality a client on its own machine has.
    /// `nice` execs the server, so the child's pid is the server's.
    pub fn spawn_server(
        name: &str,
        program: &Path,
        args: &[String],
    ) -> Result<(Self, String), String> {
        let mut niced = vec!["-n".to_owned(), SERVER_NICE.to_owned()];
        niced.push(program.display().to_string());
        niced.extend_from_slice(args);
        let mut child = Self::spawn(name, Path::new("nice"), &niced, &repo_root())?;
        let stdout = child.take_stdout().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader thread ends at the first line, or at EOF once a child
        // that never printed is killed; the server writes nothing else to
        // stdout.
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(LISTEN_TIMEOUT);
        let child = match line {
            Ok(_) => child,
            Err(_) => {
                drop(child);
                let _ = reader.join();
                return Err(format!("{name} did not report its address"));
            }
        };
        let _ = reader.join();
        let line = line.expect("checked above");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("{name} printed {line:?} instead of its address"))?
            .to_owned();
        Ok((child, addr))
    }

    /// Peak resident set size so far (`VmHWM`), kibibytes.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        peak_rss_kb(self.proc.id())
    }

    /// Take the child's stdout pipe.
    fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.proc.stdout.take()
    }

    /// Wait up to `timeout` for the child to exit, sampling its peak RSS
    /// meanwhile; returns the exit status and the largest peak seen.
    pub fn wait(&mut self, timeout: Duration) -> Result<(ExitStatus, u64), String> {
        let t0 = Instant::now();
        let mut peak = 0;
        loop {
            if let Some(kb) = self.peak_rss_kb() {
                peak = peak.max(kb);
            }
            match self.proc.try_wait() {
                Ok(Some(status)) => return Ok((status, peak)),
                Ok(None) if t0.elapsed() < timeout => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err(format!("{} did not exit within {timeout:?}", self.name)),
                Err(e) => return Err(format!("wait for {}: {e}", self.name)),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
        }
        let _ = self.proc.wait();
    }
}

/// `VmHWM` of process `pid`, kibibytes.
fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Run `program` to completion in `cwd`, returning its stdout, exit
/// status, wall seconds and peak RSS (kibibytes).
pub fn run_to_end(
    name: &str,
    program: &Path,
    args: &[String],
    cwd: &Path,
    timeout: Duration,
) -> Result<(Vec<u8>, ExitStatus, f64, u64), String> {
    let t0 = Instant::now();
    let mut child = Child::spawn(name, program, args, cwd)?;
    let mut stdout = child.take_stdout().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        stdout.read_to_end(&mut buf).map(|_| buf)
    });
    let waited = child.wait(timeout);
    let wall = t0.elapsed().as_secs_f64();
    // Dropping kills a child that overran, which ends the reader at EOF.
    drop(child);
    let out = reader.join().expect("stdout reader panicked");
    let (status, peak) = waited?;
    let out = out.map_err(|e| format!("read {name} stdout: {e}"))?;
    Ok((out, status, wall, peak))
}
