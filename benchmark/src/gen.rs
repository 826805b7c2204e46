//! The open-loop load generator: one connection, a sender thread that
//! writes each line at its intended time, and a receiver thread that stamps
//! completions. Latency is measured from the intended send time, so a
//! stall charges every request queued behind it.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use iconv_api::proto::{encode_simple, parse_response, Response, StatsSnapshot};

use crate::check::Checker;
use crate::schedule::{Entry, Population};
use crate::serve::NOMINAL_STEP;
use crate::stats::{nearest_rank, nearest_rank_or_max};

/// How long the receiver waits for one response line before declaring
/// the server wedged.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// A step whose generator ran later than this at p99 is invalid, unless
/// the SLO is so loose that a hundredth of it is longer (see
/// [`late_limit_ns`]).
pub const MAX_LATE_P99_NS: u64 = 1_000_000;
/// Share of offered requests a passing step must complete in its window.
pub const MIN_COMPLETED_SHARE: f64 = 0.98;

/// One client connection, split into buffered halves.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    /// Send one line and read `n` response lines, in lockstep.
    pub fn call(&mut self, line: &str, n: usize) -> io::Result<Vec<String>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        (0..n).map(|_| read_line(&mut self.reader)).collect()
    }

    /// The server's `stats` snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        let line = self
            .call(&encode_simple("stats", None), 1)
            .map_err(|e| format!("stats: {e}"))?;
        match parse_response(&line[0]) {
            Ok(Response::Stats { stats, .. }) => Ok(stats),
            other => Err(format!("stats: unexpected response {other:?}")),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.call(&encode_simple("shutdown", None), 1).map(drop)
    }
}

fn read_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    line.truncate(line.trim_end().len());
    Ok(line)
}

/// Per-request stamps of one step, nanoseconds from the step's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// When the request was due.
    pub intended: u64,
    /// When its line was handed to the socket.
    pub sent: u64,
    /// When its first response line arrived (traced steps only).
    pub first: u64,
    /// When its last response line arrived.
    pub done: u64,
    /// Every response line of the request was a success.
    pub ok: bool,
}

/// How late the generator may run at p99 before a step under `slo_ms` is
/// invalid: 1 ms, or 1% of the SLO when that is longer. On a host whose
/// cores the fleet's simulating workers also occupy, a woken sender can
/// wait a scheduler slice (a few ms) for a core; against a 500 ms SLO that
/// is noise, against a 50 ms one it is not.
pub fn late_limit_ns(slo_ms: f64) -> u64 {
    MAX_LATE_P99_NS.max((slo_ms * 1e4) as u64)
}

/// The intended send time of entry `i` at `rate` requests per second.
pub fn intended_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64
}

/// Send `entries` at `rate` over `conn` and collect one [`Stamp`] each,
/// checking every response line with `checker`. Returns once every
/// response has arrived, so the server has drained.
pub fn run_step(
    conn: &mut Conn,
    pop: &Population,
    rate: u64,
    entries: &[Entry],
    checker: &mut Checker,
    traced: bool,
) -> io::Result<Vec<Stamp>> {
    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_nanos() as u64;
    let Conn { reader, writer } = conn;
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> io::Result<Vec<(u64, u64, bool)>> {
            let mut out = Vec::with_capacity(entries.len());
            let mut line = String::new();
            for e in entries {
                let mut ok = true;
                let mut first = 0;
                let n = e.n_lines();
                for j in 0..n {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    if j == 0 && traced {
                        first = clock();
                    }
                    ok &= checker.on_line(e, j, line.trim_end());
                }
                out.push((first, clock(), ok));
            }
            Ok(out)
        });
        let sent = (|| -> io::Result<Vec<u64>> {
            let mut sent = Vec::with_capacity(entries.len());
            for (i, e) in entries.iter().enumerate() {
                let due = intended_ns(i as u64, rate);
                let now = clock();
                if now < due {
                    writer.flush()?;
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                sent.push(clock());
                e.write_line(pop, writer)?;
                writer.write_all(b"\n")?;
            }
            writer.flush()?;
            Ok(sent)
        })();
        if sent.is_err() {
            // Unblock the receiver: nothing more will arrive. Both halves
            // share one socket.
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Read);
        }
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    let (sent, received) = (sent?, received?);
    Ok(received
        .into_iter()
        .zip(sent)
        .enumerate()
        .map(|(i, ((first, done, ok), sent))| Stamp {
            intended: intended_ns(i as u64, rate),
            sent,
            first,
            done,
            ok,
        })
        .collect())
}

/// What one ladder step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    /// Offered rate, requests per second.
    pub rate: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered without error.
    pub ok: u64,
    /// Requests with at least one typed-error line.
    pub failed: u64,
    /// Successes completed by the end of the step's window.
    pub completed: u64,
    /// Requests not finished when the window closed.
    pub backlog: u64,
    /// p99 of how late the sender wrote, microseconds.
    pub late_p99_us: f64,
    /// Median latency, milliseconds (failures count as unbounded).
    pub p50_ms: f64,
    /// p99 latency, milliseconds; `None` with fewer than ten samples
    /// beyond it.
    pub p99_ms: Option<f64>,
    /// The generator kept to its schedule.
    pub valid: bool,
    /// Valid, and met the SLO without a growing backlog.
    pub pass: bool,
}

impl StepSummary {
    /// Summarize `stamps` of a step offered at `rate` under `slo_ms`.
    pub fn new(rate: u64, stamps: &[Stamp], slo_ms: f64) -> Self {
        let n = stamps.len() as u64;
        let end = intended_ns(n, rate);
        let mut lat: Vec<u64> = stamps
            .iter()
            .map(|s| {
                if s.ok {
                    s.done.saturating_sub(s.intended)
                } else {
                    u64::MAX
                }
            })
            .collect();
        lat.sort_unstable();
        let mut late: Vec<u64> = stamps
            .iter()
            .map(|s| s.sent.saturating_sub(s.intended))
            .collect();
        late.sort_unstable();
        let ok = stamps.iter().filter(|s| s.ok).count() as u64;
        let completed = stamps.iter().filter(|s| s.ok && s.done <= end).count() as u64;
        let backlog = stamps.iter().filter(|s| s.done > end).count() as u64;
        let ms = |ns: u64| {
            if ns == u64::MAX {
                f64::INFINITY
            } else {
                ns as f64 / 1e6
            }
        };
        let late_p99 = nearest_rank_or_max(&late, 0.99);
        let p50_ms = nearest_rank(&lat, 0.5).map_or(f64::INFINITY, ms);
        let p99_ms = nearest_rank(&lat, 0.99).map(ms);
        let valid = late_p99 <= late_limit_ns(slo_ms);
        let pass = valid
            && p99_ms.is_some_and(|p| p <= slo_ms)
            && completed as f64 >= MIN_COMPLETED_SHARE * n as f64
            && backlog as f64 <= rate as f64 * slo_ms / 1e3;
        Self {
            rate,
            sent: n,
            ok,
            failed: n - ok,
            completed,
            backlog,
            late_p99_us: late_p99 as f64 / 1e3,
            p50_ms,
            p99_ms,
            valid,
            pass,
        }
    }
}

/// The highest passing rate of a ladder (`0` when no step passed).
pub fn max_rps_slo(steps: &[StepSummary]) -> u64 {
    steps
        .iter()
        .filter(|s| s.pass)
        .map(|s| s.rate)
        .max()
        .unwrap_or(0)
}

/// Whether the ladder goes on after `done` steps: the steps up to the
/// nominal one always run, so the nominal rate is always measured; after
/// that the ladder stops at the first failing step.
pub fn ladder_continues(done: &[StepSummary]) -> bool {
    done.len() <= NOMINAL_STEP || done.iter().all(|s| s.pass)
}
