//! The TCP serving front-end: non-blocking readiness loop feeding
//! [`dart_serve::ServeRuntime`], with explicit backpressure.
//!
//! Thread layout for one [`NetServer`] — `io_threads` threads, no others:
//!
//! ```text
//!   listener (shared, non-blocking)
//!      │ accepted by whichever IO thread's poller fires first
//!  ┌───▼────┐  ┌────────┐     each owns its connections outright:
//!  │ io-0   │  │ io-1 … │     read → decode → try_submit_on(own lane),
//!  └─┬────▲─┘  └─┬────▲─┘     take own lane → encode → flush
//!    │    │      │    │
//!    │    └──────│────┴─ CompletionLane per IO thread: shard workers
//!    ▼           ▼       append a served batch under one lock and, on
//!  shard queues / workers (dart-serve)   the empty→non-empty edge, wake
//!                                        that thread's poller
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **An IO thread never blocks on the runtime.** Admission uses
//!   [`dart_serve::ServeRuntime::try_submit_on`]; a full shard queue
//!   comes back as a NACK frame carrying the queue depth, written to the
//!   client instead of parking the thread.
//! * **Every accepted frame is answered exactly once** — a response
//!   (served or failed) or a NACK, never both, never neither.
//! * **A connection's socket and outbox are touched only by the owning
//!   IO thread.** Each IO thread submits through its own
//!   [`CompletionLane`], so its connections' responses come back to it
//!   and nobody else: on every loop pass it swaps the lane's mailbox
//!   out, encodes each response straight into its connection's outbox
//!   (all of one pass's responses for a conn share one flush), and
//!   writes. No connection state is shared, so none of it is locked.
//! * **A completion can never be stranded.** The lane fires its wake on
//!   the mailbox's empty→non-empty edge, read under the mailbox lock,
//!   and the wake is held by the poller's [`Waker`] primitive itself
//!   until the next `wait` consumes it — there is no separate "already
//!   woken" latch to fall out of step and silently degrade the server
//!   to [`NetConfig::poll_timeout_ms`] polling.
//! * **Writable interest only while pending.** `EPOLLOUT` (or the
//!   fallback poller's equivalent) is registered exactly while a conn's
//!   outbox holds un-flushed bytes and dropped once it drains — a
//!   level-triggered writable interest left on an idle socket would
//!   fire on every wait.
//! * **Slow readers cannot pin memory.** A connection whose un-flushed
//!   outbox exceeds [`NetConfig::write_buf_cap`] is disconnected, and a
//!   connection with more than [`NetConfig::max_inflight_per_conn`]
//!   unanswered frames gets NACKs instead of new submissions.
//! * **Dead connections free their serving state.** Reaping a conn
//!   retires its namespaced streams (`conn_id << 32 | stream`) from the
//!   shard LRU maps instead of letting them squat until cap churn
//!   displaces live streams, and with [`NetConfig::idle_timeout_ms`]
//!   set, connections with no traffic and nothing in flight are reaped
//!   (reason `idle`) instead of holding state forever.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dart_serve::{CompletionLane, PrefetchResponse, ServeRuntime, SubmitRejected};

use crate::conn::{Conn, Mode};
use crate::counters::{reason, Counters};
use crate::http::{HeadParser, HttpStep};
use crate::sys::{Event, Poller, Waker};
use crate::wire::{
    encode_nack, encode_response, Frame, FrameDecoder, NackFrame, RequestFrame, ResponseFrame,
    MAGIC0,
};

/// Front-end configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port;
    /// read it back via [`NetServer::local_addr`]).
    pub addr: String,
    /// Acceptor/IO threads, each with its own poller (clamped ≥ 1). The
    /// listener is registered in every poller; a connection is owned —
    /// reads, writes and all its state — by whichever thread accepted it.
    pub io_threads: usize,
    /// Per-connection admission cap: frames submitted but not yet
    /// answered. Beyond it new frames are NACKed (depth = the in-flight
    /// count) without touching the shard queues.
    pub max_inflight_per_conn: u64,
    /// Per-connection un-flushed outbox cap in bytes; a reader slower
    /// than its response stream is disconnected when crossed.
    pub write_buf_cap: usize,
    /// Longest an IO thread sleeps in its poller with nothing to do,
    /// milliseconds (clamped ≥ 1). Traffic, completions and shutdown all
    /// wake it at once; this only paces the periodic idle-reaping scan.
    pub poll_timeout_ms: u64,
    /// Reap connections with no traffic, nothing in flight, and an empty
    /// outbox after this many milliseconds (disconnect reason `idle`).
    /// `0` disables idle reaping.
    pub idle_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            io_threads: 2,
            max_inflight_per_conn: 1024,
            write_buf_cap: 1 << 20,
            poll_timeout_ms: 2,
            idle_timeout_ms: 0,
        }
    }
}

/// State shared by the IO threads (and read by [`NetServer`]).
struct Shared {
    runtime: Arc<ServeRuntime>,
    cfg: NetConfig,
    counters: Counters,
    /// Connection ids namespace wire streams inside the runtime
    /// (`conn_id << 32 | stream`), so they are unique across IO threads.
    next_conn_id: AtomicU32,
    shutdown: AtomicBool,
    /// Epoch for [`Shared::now_ms`] (idle-timeout arithmetic on a
    /// compact monotone u64 instead of `Instant`s per conn).
    epoch: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

#[cfg(unix)]
fn fd_of(s: &impl std::os::unix::io::AsRawFd) -> i32 {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of<T>(_s: &T) -> i32 {
    0
}

const LISTENER_TOKEN: u64 = 0;
/// Reads drained from one connection per readiness event before yielding
/// to the rest of the loop (level-triggered pollers re-report).
const READ_BUDGET: usize = 64;

/// The running front-end. [`NetServer::shutdown`] stops it explicitly;
/// merely dropping it also flags shutdown and joins every thread (no
/// leak), losing only the chance to surface a worker panic.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    io_threads: Vec<JoinHandle<()>>,
    /// One per IO thread, to cut its poll short at shutdown.
    wakers: Vec<Waker>,
}

impl NetServer {
    /// Bind `cfg.addr` and start the IO threads.
    pub fn start(runtime: Arc<ServeRuntime>, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let listener = Arc::new(listener);

        let shared = Arc::new(Shared {
            runtime,
            cfg: NetConfig {
                io_threads: cfg.io_threads.max(1),
                poll_timeout_ms: cfg.poll_timeout_ms.max(1),
                ..cfg
            },
            counters: Counters::register(),
            next_conn_id: AtomicU32::new(1),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });

        // Built up front so that an error below drops it, which stops and
        // joins whichever IO threads had already started.
        let mut server =
            NetServer { shared, local_addr, io_threads: Vec::new(), wakers: Vec::new() };
        for i in 0..server.shared.cfg.io_threads {
            let mut poller = Poller::new()?;
            poller.register(fd_of(&*listener), LISTENER_TOKEN)?;
            let waker = poller.waker();
            server.wakers.push(waker.clone());
            // This thread's completions come back through its own lane,
            // whose empty→non-empty edge wakes its poller.
            let lane = CompletionLane::new(move || waker.wake());
            let shared = Arc::clone(&server.shared);
            let listener = Arc::clone(&listener);
            server.io_threads.push(
                std::thread::Builder::new()
                    .name(format!("dart-net-io-{i}"))
                    .spawn(move || io_loop(&shared, &listener, poller, &lane))?,
            );
        }
        Ok(server)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Threads this server is running: exactly the configured
    /// `io_threads` (0 once stopped).
    pub fn thread_count(&self) -> usize {
        self.io_threads.len()
    }

    /// Flag shutdown, wake every IO thread, and join. Returns whether
    /// any of them had panicked. Idempotent: the handle vector drains,
    /// so a second call is a no-op.
    fn stop_threads(&mut self) -> bool {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        let mut panicked = false;
        for h in self.io_threads.drain(..) {
            panicked |= h.join().is_err();
        }
        panicked
    }

    /// Stop accepting, tear down every connection (reason `shutdown`),
    /// and join the threads. Responses still inside the serving runtime
    /// at this point are dropped — quiesce clients first if every
    /// response matters.
    pub fn shutdown(mut self) {
        if self.stop_threads() {
            panic!("a dart-net IO thread panicked");
        }
    }
}

impl Drop for NetServer {
    /// Dropping without [`NetServer::shutdown`] performs the same
    /// flag-and-join (a no-op after an explicit shutdown), so the IO
    /// threads never outlive the handle. A thread's panic is swallowed
    /// here only when this thread is already unwinding — a double panic
    /// would abort.
    fn drop(&mut self) {
        if self.stop_threads() && !std::thread::panicking() {
            panic!("a dart-net IO thread panicked");
        }
    }
}

/// How often the owning IO thread runs its full-scan pass (idle reaping
/// plus the safety net behind the event-driven fast path).
fn scan_interval(cfg: &NetConfig) -> Duration {
    if cfg.idle_timeout_ms > 0 {
        // Scan a few times per idle window so reaping lands within
        // ~1.25x the configured timeout, but never busier than 1 ms.
        Duration::from_millis((cfg.idle_timeout_ms / 4).clamp(1, 250))
    } else {
        Duration::from_millis(250)
    }
}

/// One IO thread: poll, accept, read/decode/submit, route this thread's
/// completions into their connections' outboxes, flush, maintain
/// writable interest, reap.
fn io_loop(
    shared: &Shared,
    listener: &TcpListener,
    mut poller: Poller,
    lane: &Arc<CompletionLane>,
) {
    let mut local: HashMap<u32, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut completed: Vec<PrefetchResponse> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut dead: Vec<u32> = Vec::new();
    let scan_every = scan_interval(&shared.cfg);
    let mut last_scan = Instant::now();

    while !shared.shutdown.load(Ordering::SeqCst) {
        if poller.wait(&mut events, shared.cfg.poll_timeout_ms).is_err() {
            continue;
        }
        touched.clear();
        dead.clear();
        for ev in events.iter().copied() {
            if ev.token == LISTENER_TOKEN {
                accept_ready(shared, listener, &mut poller, &mut local);
                continue;
            }
            let id = ev.token as u32;
            let Some(conn) = local.get_mut(&id) else { continue };
            if ev.hangup {
                conn.doom(reason::EOF);
            }
            if ev.readable {
                read_ready(shared, lane, conn, &mut read_buf);
            }
            // Writable events need nothing here: `service_conn` flushes.
            touched.push(id);
        }

        // Taken every pass, not only when the waker fired: a completion
        // that lands while this thread is busy above is picked up now
        // (its wake then costs one spurious `wait` return, never a stall).
        lane.take_into(&mut completed);
        route_completions(shared, &mut local, &mut completed, &mut touched);

        // Service only what something happened to this pass...
        touched.sort_unstable();
        touched.dedup();
        for &id in &touched {
            if let Some(conn) = local.get_mut(&id) {
                if service_conn(shared, &mut poller, conn) {
                    dead.push(id);
                }
            }
        }
        // ...plus a periodic full pass: idle reaping, and the safety net
        // behind the event-driven fast path.
        if last_scan.elapsed() >= scan_every {
            last_scan = Instant::now();
            let now_ms = shared.now_ms();
            for (&id, conn) in local.iter_mut() {
                if is_idle(shared, conn, now_ms) {
                    conn.doom(reason::IDLE);
                }
                if service_conn(shared, &mut poller, conn) {
                    dead.push(id);
                }
            }
        }
        reap(shared, &mut poller, &mut local, &dead);
    }

    // Orderly exit: every connection this thread owns goes down as
    // `shutdown`.
    let all: Vec<u32> = local.keys().copied().collect();
    for conn in local.values_mut() {
        conn.doom(reason::SHUTDOWN);
    }
    reap(shared, &mut poller, &mut local, &all);
}

/// Encode each completed response straight into its connection's outbox
/// (mailbox order, so per-stream `seq` order is the shard worker's),
/// release its in-flight slot, and mark the conn touched so this pass
/// flushes it. A response whose connection is gone is an orphan.
fn route_completions(
    shared: &Shared,
    local: &mut HashMap<u32, Conn>,
    completed: &mut Vec<PrefetchResponse>,
    touched: &mut Vec<u32>,
) {
    if completed.is_empty() {
        return;
    }
    let now_ms = shared.now_ms();
    let (mut routed, mut orphaned) = (0u64, 0u64);
    for resp in completed.drain(..) {
        let Some(conn) = local.get_mut(&((resp.stream_id >> 32) as u32)) else {
            orphaned += 1;
            continue;
        };
        let frame = ResponseFrame {
            stream: resp.stream_id as u32,
            seq: resp.seq,
            latency_ns: resp.latency_ns,
            failed: resp.error.is_some(),
            blocks: resp.prefetch_blocks,
        };
        encode_response(&frame, &mut conn.out);
        conn.inflight -= 1;
        if conn.appended == 0 {
            conn.last_activity_ms = now_ms;
            touched.push(conn.id);
        }
        conn.appended += 1;
        routed += 1;
    }
    // Counted before anything is flushed: the moment the bytes hit the
    // socket a client can act on them (e.g. scrape /metrics), and the
    // scraped counter must already include these responses.
    shared.counters.responses_out.add(routed);
    shared.counters.orphaned.add(orphaned);
}

/// Whether a conn qualifies for idle reaping **right now**: idle
/// reaping enabled, no request in flight (a slow shard must not get its
/// client reaped from under it), nothing buffered to send, and no
/// traffic for the configured window.
fn is_idle(shared: &Shared, conn: &Conn, now_ms: u64) -> bool {
    let idle = shared.cfg.idle_timeout_ms;
    idle > 0
        && conn.inflight == 0
        && conn.pending() == 0
        && now_ms.saturating_sub(conn.last_activity_ms) >= idle
}

/// Per-pass work for one conn something happened to: flush its outbox,
/// finish close-after-flush HTTP responses, detect dooms (returns true =
/// reap me), and keep writable interest in lock-step with "outbox has
/// pending bytes".
fn service_conn(shared: &Shared, poller: &mut Poller, conn: &mut Conn) -> bool {
    if std::mem::take(&mut conn.appended) > 1 {
        shared.counters.batched_writes.inc();
    }
    conn.flush(shared.cfg.write_buf_cap);
    let pending = conn.pending();
    if conn.close_after_flush && pending == 0 {
        conn.doom(reason::HTTP_DONE);
    }
    if conn.doom_code() != reason::ALIVE {
        return true;
    }
    let fd = fd_of(&conn.stream);
    let token = conn.id as u64;
    if pending > 0 && !conn.writable_registered {
        if poller.set_writable(fd, token, true).is_ok() {
            conn.writable_registered = true;
            shared.counters.writable_regs.inc();
            shared.counters.writable_watch.add(1);
        }
        // On failure the periodic scan keeps flushing it — degraded, not
        // stuck.
    } else if pending == 0
        && conn.writable_registered
        && poller.set_writable(fd, token, false).is_ok()
    {
        conn.writable_registered = false;
        shared.counters.writable_watch.sub(1);
    }
    false
}

/// Tear down every conn in `dead` (duplicates tolerated — the second
/// remove is a no-op): deregister, retire its streams from the serving
/// shards, final best-effort flush, close, count.
fn reap(shared: &Shared, poller: &mut Poller, local: &mut HashMap<u32, Conn>, dead: &[u32]) {
    for &id in dead {
        let Some(mut conn) = local.remove(&id) else { continue };
        let _ = poller.deregister(fd_of(&conn.stream), id as u64);
        if conn.writable_registered {
            shared.counters.writable_watch.sub(1);
        }
        // Free the dead conn's stream state in the shard LRU maps
        // (namespaced `conn_id << 32 | stream`) instead of letting it
        // squat there displacing live streams until cap churn clears it.
        shared.runtime.retire_streams_with_prefix(id);
        // One last push of whatever the socket will still take (best
        // effort — a NACK or HTTP body already in the outbox).
        conn.flush(shared.cfg.write_buf_cap);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        shared.counters.active.sub(1);
        shared.counters.disconnected(conn.doom_code());
    }
}

/// Accept everything pending (the listener is level-triggered and shared
/// across IO threads, so `WouldBlock` here may just mean another thread
/// won the race).
fn accept_ready(
    shared: &Shared,
    listener: &TcpListener,
    poller: &mut Poller,
    local: &mut HashMap<u32, Conn>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.accepted.inc();
                if stream.set_nonblocking(true).is_err() {
                    accept_failed(shared, &stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = loop {
                    let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    // Skip the listener's token on u32 wrap-around.
                    if id as u64 != LISTENER_TOKEN {
                        break id;
                    }
                };
                if poller.register(fd_of(&stream), id as u64).is_err() {
                    accept_failed(shared, &stream);
                    continue;
                }
                local.insert(id, Conn::new(id, stream, shared.now_ms()));
                shared.counters.active.add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// An accepted socket we could not set up (non-blocking mode or poller
/// registration failed): tear it down explicitly and count it — it used
/// to be silently dropped with no shutdown, no counter, and no reason.
fn accept_failed(shared: &Shared, stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Both);
    shared.counters.disconnected(reason::ACCEPT_ERROR);
}

/// Drain one connection's socket (bounded by [`READ_BUDGET`]) and feed
/// the bytes to whichever parser its first byte selected.
fn read_ready(shared: &Shared, lane: &Arc<CompletionLane>, conn: &mut Conn, read_buf: &mut [u8]) {
    for _ in 0..READ_BUDGET {
        if conn.doom_code() != reason::ALIVE {
            return;
        }
        match conn.stream.read(read_buf) {
            Ok(0) => {
                conn.doom(reason::EOF);
                return;
            }
            Ok(n) => {
                conn.last_activity_ms = shared.now_ms();
                handle_bytes(shared, lane, conn, &read_buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.doom(reason::IO_ERROR);
                return;
            }
        }
    }
}

fn handle_bytes(shared: &Shared, lane: &Arc<CompletionLane>, conn: &mut Conn, bytes: &[u8]) {
    if let Mode::Undecided = conn.mode {
        conn.mode = if bytes[0] == MAGIC0 {
            Mode::Binary(FrameDecoder::new())
        } else {
            Mode::Http(HeadParser::default())
        };
    }
    // The parser is moved out while it runs so the frames it yields can
    // borrow the rest of the conn mutably.
    let mut mode = std::mem::replace(&mut conn.mode, Mode::Undecided);
    match &mut mode {
        Mode::Undecided => unreachable!("mode decided above"),
        Mode::Binary(decoder) => {
            decoder.extend(bytes);
            loop {
                match decoder.next() {
                    Ok(Some(Frame::Request(req))) => handle_request(shared, lane, conn, req),
                    // Clients must not send server-side frame kinds.
                    Ok(Some(_)) | Err(_) => {
                        conn.doom(reason::PROTOCOL_ERROR);
                        break;
                    }
                    Ok(None) => break,
                }
            }
        }
        // Response already queued: ignore trailing bytes.
        Mode::Http(_) if conn.close_after_flush => {}
        Mode::Http(parser) => {
            // A scrape must be counted *before* the exposition renders, so
            // the document a scraper reads already includes that scrape —
            // otherwise the served body is one request behind an
            // in-process `render_metrics()` taken at the same moment.
            let counted = std::cell::Cell::new(false);
            match parser.feed(bytes, || {
                counted.set(true);
                shared.counters.http_requests.inc();
                shared.runtime.render_metrics()
            }) {
                HttpStep::NeedMore => {}
                HttpStep::Respond(response) => {
                    if !counted.get() {
                        shared.counters.http_requests.inc();
                    }
                    conn.out.extend_from_slice(&response);
                    conn.close_after_flush = true;
                }
            }
        }
    }
    conn.mode = mode;
}

/// Admission + submission for one decoded request frame. Never blocks:
/// over-cap connections and full shard queues are answered with a NACK
/// frame carrying the relevant depth.
fn handle_request(shared: &Shared, lane: &Arc<CompletionLane>, conn: &mut Conn, req: RequestFrame) {
    shared.counters.frames_in.inc();
    let depth = if conn.inflight >= shared.cfg.max_inflight_per_conn {
        shared.counters.nacks_admission.inc();
        conn.inflight
    } else {
        match shared.runtime.try_submit_on(lane, req.into_prefetch(conn.id)) {
            Ok(()) => {
                conn.inflight += 1;
                return;
            }
            Err(SubmitRejected::QueueFull { depth, .. }) => {
                shared.counters.nacks_queue_full.inc();
                depth
            }
        }
    };
    encode_nack(&NackFrame { stream: req.stream, addr: req.addr, depth }, &mut conn.out);
}
