//! A blocking client for the serve protocol: typed one-shot calls plus the
//! split `send`/`recv` surface the load generator uses for windowed
//! pipelining, and a [`RetryClient`] wrapper that survives transient
//! faults (drops, short writes, worker crashes) by reconnecting and
//! re-issuing the request.
//!
//! Request-level retry is sound here because every estimate is keyed by
//! its canonical cache key and simulations are pure: re-asking after an
//! ambiguous failure either hits the cache entry the lost answer created
//! or recomputes the identical bytes — idempotent either way.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use iconv_faults::{mix64, unit_f64, GOLDEN_GAMMA};

use crate::protocol::{
    encode_batch, encode_estimate, encode_simple, parse_response, ErrorKind, Estimate,
    EstimateRequest, Response, ShardStat, StatsSnapshot, Work,
};

/// Connect-retry budget shared by every tool that races a freshly-booted
/// server (loadgen, chaosgen, the bench adapter, integration tests). One
/// constant instead of scattered hardcoded `Duration::from_secs(5)` calls;
/// `loadgen --connect-timeout` overrides it per run.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-item outcome of a [`Client::batch`] call: the estimate, or the
/// typed protocol error the server attached to that item (deadline, busy,
/// shutting-down).
pub type BatchItemResult = Result<Estimate, (ErrorKind, String)>;

/// Anything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including server disconnect).
    Io(io::Error),
    /// The server's reply could not be decoded.
    Malformed(String),
    /// The server answered with a typed protocol error.
    Server {
        /// The error code.
        kind: ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// The reply decoded fine but was not the kind the call expected.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Malformed(d) => write!(f, "malformed response: {d}"),
            ClientError::Server { kind, detail } => write!(f, "server error ({kind}): {detail}"),
            ClientError::Unexpected(d) => write!(f, "unexpected response: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a serve endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    pub(crate) fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Connect, retrying every 20 ms until `timeout` elapses (a zero
    /// timeout makes one attempt) — for racing a server that is still
    /// binding its socket (CI boots `served` in the background and
    /// connects "immediately").
    ///
    /// # Errors
    ///
    /// Returns the last connect error once the deadline passes.
    pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Queue one raw request line (no newline) without flushing — the
    /// pipelined half of the API.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Flush queued requests to the server.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Read one raw response line (without the newline).
    ///
    /// # Errors
    ///
    /// Propagates read failures; EOF maps to `UnexpectedEof`.
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read and decode one response.
    ///
    /// # Errors
    ///
    /// Transport or decode failures (a typed server error decodes
    /// *successfully* into [`Response::Error`]).
    pub fn recv_response(&mut self) -> Result<Response, ClientError> {
        let line = self.recv_line()?;
        parse_response(&line).map_err(|e| ClientError::Malformed(format!("{e} in {line:?}")))
    }

    /// Send one request line and read its response (the non-pipelined
    /// path; responses come back in request order).
    ///
    /// # Errors
    ///
    /// Transport or decode failures.
    pub fn call(&mut self, line: &str) -> Result<Response, ClientError> {
        self.send_line(line)?;
        self.flush()?;
        self.recv_response()
    }

    /// Estimate one unit of work. The answer is the server's
    /// [`Estimate`], every `f64` bit-identical to the server-side
    /// simulation; a repeated work is a cache hit.
    ///
    /// # Errors
    ///
    /// Transport, decode, or typed server errors.
    pub fn estimate(&mut self, work: &Work) -> Result<Estimate, ClientError> {
        let line = encode_estimate(&EstimateRequest {
            id: None,
            work: *work,
            deadline_ms: None,
        });
        match self.call(&line)? {
            Response::Error { kind, detail, .. } => Err(ClientError::Server { kind, detail }),
            other => estimate_of(&other),
        }
    }

    /// Estimate a whole slice of works in one `batch` request. The server
    /// streams item replies in item order followed by a summary line; this
    /// returns one result per input work, in input order.
    ///
    /// # Errors
    ///
    /// Transport or decode failures, a batch-level server error (e.g. a
    /// rejected request), or a summary that does not match the item count.
    /// *Per-item* errors do not fail the call — they come back as the
    /// `Err` variant of that item's [`BatchItemResult`].
    pub fn batch(
        &mut self,
        works: &[Work],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<BatchItemResult>, ClientError> {
        if works.is_empty() {
            return Ok(Vec::new());
        }
        self.send_line(&encode_batch(None, works, deadline_ms))?;
        self.flush()?;
        let mut out = Vec::with_capacity(works.len());
        for i in 0..works.len() {
            match self.recv_response()? {
                Response::Error { kind, detail, .. } => {
                    if i == 0 && kind == ErrorKind::BadRequest {
                        // A rejected batch is one error line, not n+1.
                        return Err(ClientError::Server { kind, detail });
                    }
                    out.push(Err((kind, detail)));
                }
                other => out.push(Ok(estimate_of(&other)?)),
            }
        }
        match self.recv_response()? {
            Response::Batch { items, errors, .. } => {
                let want_errors = out.iter().filter(|r| r.is_err()).count() as u64;
                if items != works.len() as u64 || errors != want_errors {
                    return Err(ClientError::Unexpected(format!(
                        "batch summary {items} items / {errors} errors, \
                         expected {} / {want_errors}",
                        works.len()
                    )));
                }
                Ok(out)
            }
            other => Err(ClientError::Unexpected(format!(
                "missing batch summary, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport, decode, or typed server errors.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&encode_simple("stats", None))? {
            Response::Stats { stats, .. } => Ok(stats),
            Response::Error { kind, detail, .. } => Err(ClientError::Server { kind, detail }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the server's per-shard cache counters (the striped cache's
    /// internals; shard sums equal the global `stats` counters).
    ///
    /// # Errors
    ///
    /// Transport, decode, or typed server errors.
    pub fn shards(&mut self) -> Result<Vec<ShardStat>, ClientError> {
        match self.call(&encode_simple("shards", None))? {
            Response::Shards { shards, .. } => Ok(shards),
            Response::Error { kind, detail, .. } => Err(ClientError::Server { kind, detail }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport, decode, or typed server errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&encode_simple("ping", None))? {
            Response::Pong { .. } => Ok(()),
            Response::Error { kind, detail, .. } => Err(ClientError::Server { kind, detail }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to drain and shut down.
    ///
    /// # Errors
    ///
    /// Transport, decode, or typed server errors.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&encode_simple("shutdown", None))? {
            Response::ShutdownAck { .. } => Ok(()),
            Response::Error { kind, detail, .. } => Err(ClientError::Server { kind, detail }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// The estimate an answer carries; any other answer is unexpected.
fn estimate_of(reply: &Response) -> Result<Estimate, ClientError> {
    reply
        .estimate()
        .ok_or_else(|| ClientError::Unexpected(format!("{reply:?}")))
}

/// Retry schedule for [`RetryClient`]: capped exponential backoff with
/// deterministic jitter. The jitter is a pure function of
/// `(seed, salt, attempt)` — two runs with the same seed sleep the same
/// schedule, which keeps chaos runs byte-reproducible end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries per request (first attempt included). `1` disables
    /// retry.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after that.
    pub base_delay: Duration,
    /// Ceiling the doubling saturates at.
    pub max_delay: Duration,
    /// Jitter seed (mix with the per-call salt).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x1c0_feed,
        }
    }
}

impl RetryPolicy {
    /// The backoff slept after failed attempt number `attempt` (0-based):
    /// `min(base << attempt, max)` scaled into `[50%, 100%]` by the
    /// deterministic jitter stream. Pure — exposed so tests can pin the
    /// schedule.
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let h =
            mix64(self.seed ^ salt ^ u64::from(attempt.wrapping_add(1)).wrapping_mul(GOLDEN_GAMMA));
        exp.mul_f64(0.5 + 0.5 * unit_f64(h))
    }
}

/// Is this failure worth re-asking about? Transport errors and decode
/// failures leave the connection in an unknown state (a fault may have
/// eaten half a line) — retry on a *fresh* connection. `busy`,
/// `worker-crashed`, and `deadline` are transient server-side conditions
/// on a still-synchronized connection. `bad-request`/`parse`/
/// `shutting-down` are terminal: the request itself (or the server's
/// lifecycle) is the problem.
fn is_transient(e: &ClientError) -> Option<bool> {
    match e {
        ClientError::Io(_) | ClientError::Malformed(_) => Some(true),
        ClientError::Server { kind, .. } => match kind {
            ErrorKind::Busy | ErrorKind::WorkerCrashed | ErrorKind::Deadline => Some(false),
            ErrorKind::Parse | ErrorKind::BadRequest | ErrorKind::ShuttingDown => None,
        },
        ClientError::Unexpected(_) => Some(true),
    }
}

/// A [`Client`] wrapper that retries transient failures with the
/// [`RetryPolicy`] schedule, reconnecting whenever the connection state is
/// no longer trustworthy. Safe for estimate traffic because responses are
/// idempotent (see the module docs); *not* for `shutdown`, which this type
/// deliberately issues at most once.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    connect_timeout: Duration,
    inner: Option<Client>,
    retries: u64,
    reconnects: u64,
}

impl RetryClient {
    /// Connect (with the connect-retry budget) and wrap the connection.
    ///
    /// # Errors
    ///
    /// Returns the last connect error once `connect_timeout` elapses.
    pub fn connect(
        addr: &str,
        policy: RetryPolicy,
        connect_timeout: Duration,
    ) -> io::Result<RetryClient> {
        let inner = Client::connect_retry(addr, connect_timeout)?;
        Ok(RetryClient {
            addr: addr.to_owned(),
            policy,
            connect_timeout,
            inner: Some(inner),
            retries: 0,
            reconnects: 0,
        })
    }

    /// Attempts re-issued beyond each request's first try.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections re-established after ambiguous failures.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Run `op` with the retry schedule. `salt` decorrelates the jitter
    /// streams of concurrent callers (pass a per-client or per-request
    /// id).
    ///
    /// # Errors
    ///
    /// The final attempt's error, or any terminal (non-transient) error
    /// immediately.
    pub fn with_retry<T>(
        &mut self,
        salt: u64,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let attempts = self.policy.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            let client = match self.inner.as_mut() {
                Some(c) => c,
                None => {
                    self.reconnects += 1;
                    self.inner = Some(Client::connect_retry(&self.addr, self.connect_timeout)?);
                    self.inner.as_mut().expect("just connected")
                }
            };
            let err = match op(client) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let Some(reconnect) = is_transient(&err) else {
                return Err(err);
            };
            if reconnect {
                // Drop the stream: any in-flight bytes from the failed
                // exchange die with it, so a stale response can never be
                // misread as the answer to the re-issued request.
                self.inner = None;
            }
            attempt += 1;
            if attempt >= attempts {
                return Err(err);
            }
            self.retries += 1;
            std::thread::sleep(self.policy.backoff(attempt - 1, salt));
        }
    }

    /// [`Client::batch`] with retries (all-or-nothing per attempt).
    ///
    /// # Errors
    ///
    /// See [`RetryClient::with_retry`].
    pub fn batch(
        &mut self,
        works: &[Work],
        deadline_ms: Option<u64>,
        salt: u64,
    ) -> Result<Vec<BatchItemResult>, ClientError> {
        self.with_retry(salt, |c| c.batch(works, deadline_ms))
    }

    /// [`Client::stats`] with retries.
    ///
    /// # Errors
    ///
    /// See [`RetryClient::with_retry`].
    pub fn stats(&mut self, salt: u64) -> Result<StatsSnapshot, ClientError> {
        self.with_retry(salt, Client::stats)
    }

    /// [`Client::call`] with retries, for raw request lines.
    ///
    /// # Errors
    ///
    /// See [`RetryClient::with_retry`].
    pub fn call(&mut self, line: &str, salt: u64) -> Result<Response, ClientError> {
        self.with_retry(salt, |c| match c.call(line)? {
            Response::Error { kind, detail, .. } => Err(ClientError::Server { kind, detail }),
            other => Ok(other),
        })
    }

    /// One-shot graceful shutdown — never retried (a lost ack after the
    /// server began draining must not turn into a second shutdown racing
    /// the first).
    ///
    /// # Errors
    ///
    /// Transport, decode, or typed server errors.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.inner.as_mut() {
            Some(c) => c.shutdown_server(),
            None => {
                self.reconnects += 1;
                let c = Client::connect_retry(&self.addr, self.connect_timeout)?;
                self.inner = Some(c);
                self.inner
                    .as_mut()
                    .expect("just connected")
                    .shutdown_server()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy::default();
        for attempt in 0..8 {
            for salt in [0u64, 1, 99] {
                let d = p.backoff(attempt, salt);
                assert_eq!(d, p.backoff(attempt, salt), "same inputs, same sleep");
                let ceiling = p
                    .base_delay
                    .saturating_mul(1u32 << attempt)
                    .min(p.max_delay);
                assert!(d <= ceiling, "attempt {attempt}: {d:?} > {ceiling:?}");
                assert!(
                    d >= ceiling.mul_f64(0.5),
                    "attempt {attempt}: {d:?} below the jitter floor"
                );
            }
        }
        // Jitter actually varies across salts.
        assert_ne!(p.backoff(3, 1), p.backoff(3, 2));
    }

    #[test]
    fn transient_classification() {
        use std::io::ErrorKind as Io;
        assert_eq!(
            is_transient(&ClientError::Io(io::Error::from(Io::ConnectionReset))),
            Some(true)
        );
        assert_eq!(
            is_transient(&ClientError::Malformed("half a line".into())),
            Some(true)
        );
        for kind in [
            ErrorKind::Busy,
            ErrorKind::WorkerCrashed,
            ErrorKind::Deadline,
        ] {
            assert_eq!(
                is_transient(&ClientError::Server {
                    kind,
                    detail: String::new()
                }),
                Some(false),
                "{kind} must retry without reconnecting"
            );
        }
        for kind in [
            ErrorKind::Parse,
            ErrorKind::BadRequest,
            ErrorKind::ShuttingDown,
        ] {
            assert_eq!(
                is_transient(&ClientError::Server {
                    kind,
                    detail: String::new()
                }),
                None,
                "{kind} must be terminal"
            );
        }
    }
}
