//! One client connection, end to end, for `served` and `routed` alike: the
//! acceptor, the registry of live connections, and each connection's
//! reader and writer.
//!
//! The **reader** turns each request line into a [`Slot`]: the request's
//! framing (its id, and whether it is a single or a batch of `n`) plus its
//! `n` bodies, each ready inline or pending on the tier — on the worker
//! pool in `served`, on a backend link in `routed`. The **writer** renders
//! the slots in request order, item lines and then a batch's summary, so a
//! pipelined client reads its answers in the order it asked.
//!
//! Before the reader admits a request or sends anything to a backend, it
//! takes one credit for each line the request will emit, and the writer
//! hands the credits back as the lines leave. A connection therefore owes
//! at most [`MAX_OWED_LINES`] unwritten answer lines: the largest batch and
//! its summary, so any one request fits. A reader out of credits stops
//! reading and TCP pushes back on the client, so one that never reads holds
//! a bounded buffer however much it sends. This is the paper's fixed,
//! double-buffered working set applied to answers: a fixed number in
//! flight, and a producer that waits while they are all taken.
//!
//! The writer flushes only before it blocks, on the next slot or on a body
//! that is not ready. However it ends, it wakes its reader and stops it.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iconv_faults::{FaultPoint, FaultSite, Injection};

use crate::protocol::{
    batch_summary_body, error_body, finish_item_response, finish_response, parse_request,
    ErrorKind, Request, MAX_LINE_BYTES, MAX_SWEEP_ITEMS,
};

/// Answer lines a connection may owe its client at once: a largest batch's
/// items plus its summary, so any one request fits.
pub const MAX_OWED_LINES: usize = MAX_SWEEP_ITEMS + 1;

/// How long a graceful shutdown lets writers send what they owe before it
/// shuts their sockets for writing. A client that reads its answers gets
/// them well within this; one that never reads cannot hold shutdown open.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// Back-off after a real accept error, such as running out of file
/// descriptors, before accepting again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long [`Acceptor::stop`] waits for its waking connection to be taken.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What a tier (`served` or `routed`) does with its connections' requests.
pub(crate) trait Tier: Send + Sync + Sized + 'static {
    /// Prefix of the tier's thread names.
    const NAME: &'static str;
    /// The inside of an answer line, without its framing.
    type Body: AsRef<str> + From<String> + Send;
    /// Bodies that were not ready when their slot was queued.
    type Pending: Send;
    /// State the reader and the writer each keep for the connection.
    type Reader: Default + Send;
    type Writer: Default + Send;

    fn gate(&self) -> &Gate;

    /// The armed per-line fault seams (`read`, `write`, `partial`, `delay`).
    fn faults(&self) -> Option<&Arc<dyn FaultPoint>> {
        None
    }
    /// Count one line answered with a `parse` or `bad-request` error.
    fn parse_error(&self);

    /// Admit a request, read as `line` at `received`, whose credits are
    /// taken.
    fn admit(
        self: &Arc<Self>,
        req: Request,
        line: &str,
        received: Instant,
        reader: &mut Self::Reader,
    ) -> Slot<Self>;

    /// Body `i` of `pending`; `None` if it is not ready, unless `wait`,
    /// which blocks until it is.
    fn body(
        &self,
        pending: &mut Self::Pending,
        i: usize,
        wait: bool,
        writer: &mut Self::Writer,
    ) -> Option<Self::Body>;
}

/// One request's answer, as the reader hands it to the writer.
pub(crate) struct Slot<T: Tier> {
    pub(crate) id: Option<String>,
    /// `Some(n)`: a batch of `n` items, answered by `n` item lines and a
    /// summary. `None`: one line.
    pub(crate) batch: Option<usize>,
    pub(crate) bodies: Bodies<T>,
}

pub(crate) enum Bodies<T: Tier> {
    Ready(std::vec::IntoIter<T::Body>),
    Pending(T::Pending),
}

impl<T: Tier> Slot<T> {
    pub(crate) fn ready(id: Option<String>, batch: Option<usize>, bodies: Vec<T::Body>) -> Self {
        let bodies = Bodies::Ready(bodies.into_iter());
        Self { id, batch, bodies }
    }

    pub(crate) fn one(id: Option<String>, body: String) -> Self {
        Self::ready(id, None, vec![body.into()])
    }
}

/// A listener's shutdown state and live connections, shared by its tier,
/// its acceptor and its handle. Each connection is registered under an id
/// with a dup of its stream and its threads, and leaves when its last
/// thread ends, so a long-running server holds descriptors only for live
/// connections.
#[derive(Default)]
pub(crate) struct Gate {
    /// Set once shutdown is requested: new work is refused and the
    /// acceptor stops.
    draining: AtomicBool,
    requested: Mutex<bool>,
    requested_cv: Condvar,
    registry: Mutex<Registry>,
    /// Notified whenever a connection leaves the registry.
    ended: Condvar,
}

impl Gate {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn request_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        *self.requested.lock().expect("shutdown flag poisoned") = true;
        self.requested_cv.notify_all();
    }

    /// Wait up to `timeout` for a shutdown request; true once one came.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let requested = self.requested.lock().expect("shutdown flag poisoned");
        let (requested, _) = self
            .requested_cv
            .wait_timeout_while(requested, timeout, |requested| !*requested)
            .expect("shutdown flag poisoned");
        *requested
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("connection registry poisoned")
    }

    /// One of connection `id`'s threads is done; the last one removes the
    /// connection, closing the registry's dup of its stream.
    fn end(&self, id: u64) {
        let mut registry = self.registry();
        if let Some(conn) = registry.live.get_mut(&id) {
            conn.running -= 1;
            if conn.running == 0 {
                registry.live.remove(&id);
                self.ended.notify_all();
            }
        }
    }

    /// Shut the read half of every live connection, which stops its reader
    /// and leaves its writer free to send what it owes. After
    /// [`DRAIN_TIMEOUT`], shut the write half of any still open, which
    /// fails a write blocked on a client that does not read. Then join
    /// every thread.
    pub(crate) fn close_all(&self) {
        let registry = self.registry();
        for conn in registry.live.values() {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let (mut registry, _) = self
            .ended
            .wait_timeout_while(registry, DRAIN_TIMEOUT, |r| !r.live.is_empty())
            .expect("connection registry poisoned");
        let live = std::mem::take(&mut registry.live);
        drop(registry);
        for conn in live.values() {
            let _ = conn.stream.shutdown(Shutdown::Write);
        }
        for conn in live.into_values() {
            for handle in conn.threads {
                let _ = handle.join();
            }
        }
    }
}

/// A listener's acceptor thread. It blocks in `accept`, so a connection
/// starts at once.
pub(crate) struct Acceptor {
    pub(crate) addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Accept connections on `listener` and serve them with `tier` until its
    /// gate drains.
    pub(crate) fn spawn<T: Tier>(listener: TcpListener, tier: &Arc<T>) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let tier = Arc::clone(tier);
        let thread = std::thread::Builder::new()
            .name(format!("{}-accept", T::NAME))
            .spawn(move || loop {
                let accepted = listener.accept();
                if tier.gate().draining() {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        if let Err(e) = start(&tier, stream) {
                            eprintln!("{}: failed to start connection: {e}", T::NAME);
                        }
                    }
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            })?;
        Ok(Self { addr, thread })
    }

    /// Join the acceptor once its gate drains. It is woken by a connection
    /// of the owner's, through loopback when the listener is bound to an
    /// unspecified address, which it drops without starting.
    pub(crate) fn stop(self) {
        let mut to = self.addr;
        if to.ip().is_unspecified() {
            to.set_ip(match to {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&to, WAKE_TIMEOUT);
        let _ = self.thread.join();
    }
}

#[derive(Default)]
struct Registry {
    next_id: u64,
    live: BTreeMap<u64, LiveConn>,
}

struct LiveConn {
    /// Shut by [`Gate::close_all`] to end the connection.
    stream: TcpStream,
    threads: Vec<JoinHandle<()>>,
    running: usize,
}

/// Register `stream` with `tier`'s gate and run its writer and its
/// reader, each on a thread of its own. Slots go from the reader to the
/// writer and credits come back the other way; a half that ends drops its
/// sender, which wakes the other. A panic in either half is absorbed on its
/// thread: it ends only that half, never the acceptor, the pool or another
/// connection. The writer is spawned first: a reader that fails to spawn
/// drops its sender, which ends the writer too.
fn start<T: Tier>(tier: &Arc<T>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let (read_half, registered) = (stream.try_clone()?, stream.try_clone()?);
    let (slots, slots_rx) = channel();
    let (credits, credits_rx) = channel();
    let (writer, reader) = (Arc::clone(tier), Arc::clone(tier));
    let halves: [Box<dyn FnOnce() + Send>; 2] = [
        Box::new(move || write(&*writer, stream, &slots_rx, credits)),
        Box::new(move || read(&reader, read_half, &credits_rx, &slots)),
    ];
    // Held while spawning, so a half that ends at once finds its entry.
    let mut registry = tier.gate().registry();
    let id = registry.next_id;
    registry.next_id += 1;
    let mut conn = LiveConn {
        stream: registered,
        threads: Vec::with_capacity(halves.len()),
        running: 0,
    };
    let mut spawned = Ok(());
    for (half, name) in halves.into_iter().zip(["write", "read"]) {
        let tier = Arc::clone(tier);
        let name = format!("{}-{name}", T::NAME);
        let thread = std::thread::Builder::new().name(name).spawn(move || {
            let _ = catch_unwind(AssertUnwindSafe(half));
            tier.gate().end(id);
        });
        match thread {
            Ok(handle) => {
                conn.threads.push(handle);
                conn.running += 1;
            }
            Err(e) => {
                spawned = Err(e);
                break;
            }
        }
    }
    if conn.running > 0 {
        registry.live.insert(id, conn);
    }
    spawned
}

/// The reader half: read each line, take its credits, admit it and queue
/// its slot. A malformed line is answered with a typed error and reading
/// goes on. At most `MAX_LINE_BYTES + 1` bytes are read for a line, so a
/// client that never sends a newline costs a bounded buffer: a longer line
/// is answered the same way, and reading stops.
fn read<T: Tier>(
    tier: &Arc<T>,
    stream: TcpStream,
    credits: &Receiver<usize>,
    slots: &Sender<Slot<T>>,
) {
    let mut state = T::Reader::default();
    let mut input = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut free = MAX_OWED_LINES;
    loop {
        let mut last = false;
        let refuse = |detail: &str| Err((None, error_body(ErrorKind::Parse, detail)));
        buf.clear();
        let read = input
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf);
        let received = Instant::now();
        let parsed = match read {
            Ok(0) | Err(_) => return,
            Ok(n) if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                last = true;
                refuse(&format!("request line exceeds {MAX_LINE_BYTES} bytes"))
            }
            Ok(_) => match std::str::from_utf8(&buf) {
                Err(_) => refuse("request line is not UTF-8"),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    // Fault seam: an injected read error behaves exactly like a
                    // mid-request network failure. The socket is shut down both
                    // ways so the client sees the drop rather than a stall (the
                    // writer's handle and the registry's dup would otherwise
                    // hold it open).
                    if let Some(f) = tier.faults() {
                        if f.decide(FaultSite::SockRead).is_some() {
                            f.observe(FaultSite::SockRead);
                            let _ = input.get_ref().shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    let line = line.trim_end();
                    match parse_request(line) {
                        Ok(req) => Ok((req, line)),
                        Err(e) => Err((e.id, error_body(e.kind, &e.detail))),
                    }
                }
            },
        };
        let lines = match &parsed {
            Ok((Request::Batch { items, .. }, _)) => items.len() + 1,
            _ => 1,
        };
        while free < lines {
            match credits.recv() {
                Ok(n) => free += n,
                Err(_) => return,
            }
        }
        free -= lines;
        let slot = match parsed {
            Ok((req, line)) => tier.admit(req, line, received, &mut state),
            Err((id, body)) => {
                tier.parse_error();
                Slot::one(id, body)
            }
        };
        if slots.send(slot).is_err() || last {
            return;
        }
    }
}

/// The writer's side of the socket: it writes lines, consulting the
/// per-line fault seams, and hands their credits back.
struct Out<'a> {
    out: BufWriter<TcpStream>,
    faults: Option<&'a Arc<dyn FaultPoint>>,
    credits: Sender<usize>,
    /// Lines written whose credits are not handed back yet.
    owed: usize,
}

impl Out<'_> {
    /// Write one line; false once the connection is lost.
    fn line(&mut self, line: &str) -> bool {
        // Fault seams, consulted once per answer line. A `Delay` stalls
        // mid-stream with everything so far flushed (slow-loris); a
        // `PartialWrite` flushes a prefix of the line and drops the
        // connection; a `SockWrite` drops it cold. The explicit
        // `Shutdown::Both` matters: the reader's handle and the registry's
        // dup would otherwise keep the socket open and the client blocked.
        if let Some(f) = self.faults {
            if let Some(Injection::Delay { ms }) = f.decide(FaultSite::Delay) {
                let _ = self.out.flush();
                std::thread::sleep(Duration::from_millis(ms));
                f.observe(FaultSite::Delay);
            }
            if let Some(Injection::PartialWrite { keep }) = f.decide(FaultSite::PartialWrite) {
                let keep = keep.min(line.len());
                let _ = self.out.write_all(&line.as_bytes()[..keep]);
                let _ = self.out.flush();
                let _ = self.out.get_ref().shutdown(Shutdown::Both);
                f.observe(FaultSite::PartialWrite);
                return false;
            }
            if f.decide(FaultSite::SockWrite).is_some() {
                let _ = self.out.get_ref().shutdown(Shutdown::Both);
                f.observe(FaultSite::SockWrite);
                return false;
            }
        }
        self.owed += 1;
        self.out.write_all(line.as_bytes()).is_ok() && self.out.write_all(b"\n").is_ok()
    }

    fn release(&mut self) {
        if self.owed > 0 {
            let _ = self.credits.send(std::mem::take(&mut self.owed));
        }
    }

    /// Release, then flush; false once the connection is lost.
    fn flush(&mut self) -> bool {
        self.release();
        self.out.flush().is_ok()
    }
}

impl Drop for Out<'_> {
    /// However the writer ends, send what it wrote and stop the reader: a
    /// read it is blocked in returns, and dropping the credits' sender ends
    /// a wait for credits.
    fn drop(&mut self) {
        let _ = self.out.flush();
        let _ = self.out.get_ref().shutdown(Shutdown::Both);
    }
}

/// The writer half: render each slot in request order, until the reader
/// has ended and every slot is written, or the connection is lost.
fn write<T: Tier>(tier: &T, stream: TcpStream, slots: &Receiver<Slot<T>>, credits: Sender<usize>) {
    let mut state = T::Writer::default();
    let mut out = Out {
        out: BufWriter::new(stream),
        faults: tier.faults(),
        credits,
        owed: 0,
    };
    loop {
        let mut slot = match slots.try_recv() {
            Ok(slot) => slot,
            Err(TryRecvError::Empty) if out.flush() => match slots.recv() {
                Ok(slot) => slot,
                Err(_) => return,
            },
            Err(_) => return,
        };
        let id = slot.id.as_deref();
        let mut errors = 0;
        for i in 0..slot.batch.unwrap_or(1) {
            let mut body = |wait| match &mut slot.bodies {
                Bodies::Ready(bodies) => bodies.next(),
                Bodies::Pending(pending) => tier.body(pending, i, wait, &mut state),
            };
            let body = match body(false) {
                Some(body) => body,
                None if out.flush() => body(true).expect("a waited-for body is ready"),
                None => return,
            };
            let body = body.as_ref();
            let line = match slot.batch {
                Some(_) => {
                    errors += u64::from(body.starts_with("\"ok\":false"));
                    finish_item_response(id, i, body)
                }
                None => finish_response(id, body),
            };
            if !out.line(&line) {
                return;
            }
        }
        let summary = slot.batch.map(|n| batch_summary_body(n as u64, errors));
        if summary.is_some_and(|summary| !out.line(&finish_response(id, &summary))) {
            return;
        }
        out.release();
    }
}
