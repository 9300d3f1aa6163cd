//! `repro serve`: a crash-tolerant schedule-query service over the
//! traffic store — ROADMAP item 2's "best-schedule lookup as a
//! service", engineered to degrade rather than die.
//!
//! # Protocol
//!
//! Line-delimited JSON over a local TCP socket. One request per line:
//!
//! ```text
//! {"machine":"i5","n":8,"threads":4,"top":2,"passes":""}
//! ```
//!
//! `machine` names one of the known machines (the VTune desktop plus the
//! paper's three evaluation nodes), case-insensitively: a full name, or
//! a substring that exactly one name contains — a query several names
//! contain (`"Ivy Bridge"`) is a `bad_request` listing them; `n` is
//! the box edge (must divide every edge of the paper workload's
//! 512×384×256 domain);
//! `threads` defaults to the machine's core count; `top` (default 3)
//! bounds how many ranked variants are measured and returned; `passes`
//! is a pass-pipeline spec applied to each measured variant. One JSON
//! response per line:
//!
//! ```text
//! {"ok":true,"machine":"...","n":8,"threads":4,"stale":false,
//!  "generation":0,
//!  "variants":[{"name":"...","seconds":1.2e-2,"compute_s":...,
//!               "memory_s":...,"overhead_s":...,"source":"sim"}],
//!  "series":[...]}
//! ```
//!
//! `variants` is ranked fastest-first; `source` says where each
//! variant's traffic came from (`warm` = already held under its key by
//! the server's [`TrafficCache`], loaded from the store or measured by
//! an earlier request; `sim` = not held under its key when asked —
//! simulated for this request, or recorded from the same access stream
//! simulated under another key (`Plan::stream`); `analytic` =
//! closed-form fallback in degraded mode); `series` is the predicted
//! seconds of the top variant at 1..=threads threads (the figure
//! series). Failures answer
//! `{"ok":false,"error":...}` with the errors catalogued in DESIGN.md
//! §15 — the server process itself does not die with the request.
//!
//! # Connection model
//!
//! One thread per connection reads a line, answers it and writes the
//! reply — framed with its newline in one buffer and sent with one
//! `write` on a `TCP_NODELAY` socket, so a warm answer costs its layers
//! (tens of µs), not a delayed ACK (~40 ms when the newline was a
//! segment of its own). Pipelined requests are answered in order, each
//! as soon as it is read: nothing holds a tight-loop client back, and
//! no connection starves another, because each has a thread of its own
//! (DESIGN.md §15 *Pacing, retired*). A request line
//! is capped at 64 KiB (`MAX_LINE`), and a partial line may wait at most
//! 2 s for its newline (`STALL`): a longer or slower one gets one
//! `bad_request` and the connection is closed. At most 256 connections
//! (`MAX_CONNS`) are open at once; one more is answered `overloaded`
//! and closed by the accept loop. That loop blocks in `accept`, so a new
//! connection is taken the moment it arrives; [`Server::drain`] wakes it
//! with a connection of its own. With no reader thread, a
//! vanished client is noticed where the connection thread already
//! polls: the idle `read` (at once), a follower's 20 ms park on its
//! flight and the injected-hang loop (`Conn::probe`) — so within
//! ~20 ms of the disconnect, which is what cancels an abandoned flight.
//!
//! The analytic ranking — a pure function of (machine, `n`, `threads`)
//! over a finite request domain — is memoised per key, cut to the 32
//! entries `top` can ask for. It needs no eviction and no invalidation:
//! it holds analytic ranks only, never store-derived traffic.
//!
//! # Failure model (admission → coalesce → execute → degrade)
//!
//! * **Admission**: a bounded inflight counter; at capacity the request
//!   is rejected *immediately* with `"overloaded"` + `retry_after_ms`,
//!   never queued unboundedly. [`SweepBudget`] carries the per-point
//!   execution deadline and append retry policy.
//! * **Coalescing**: cold points are keyed by their access stream and
//!   hierarchy ([`Point::stream`]); a thundering herd on one key — or on
//!   several keys that replay one stream — triggers exactly one
//!   simulation, run by a detached flight worker that then records every
//!   other key asked from it. All requests — including the one that
//!   created the flight — park as followers on their key's result or
//!   failure. A worker panic or
//!   cancellation is published to every follower and the flight is
//!   removed from the map either way: the map cannot be poisoned. A
//!   flight all its requesters abandoned cannot be joined while it
//!   unwinds; the next request replaces it with a fresh one.
//!
//!   *Answered without a flight*: a cold point whose stream and
//!   hierarchy this process already produced, with no flight of that
//!   stream running, needs no producer run. It takes the same miss path
//!   on the request's own thread, under the request token (and the
//!   point deadline), and starts no flight ([`ServeStats::flights`]).
//!   A running flight is joined before "produced" is asked, and leaves
//!   the map only after its keys are recorded, so no key it holds is
//!   recorded beside it. What such a point costs is the lookup and the
//!   append, ~10 µs (~30 µs when the pipeline's plan must be lowered
//!   first); through a flight and a thread hop a request of such points
//!   took ~0.37 ms, now ~0.12 ms, and `serve_cold` `p25_ms` read
//!   0.34 → 0.11 ms (DESIGN.md §15). Such a point is not probed for a
//!   vanished client; only an injected hang can hold it, and the
//!   deadlines bound that.
//! * **Execution**: each flight runs under its own [`CancelToken`]
//!   chained off the server token, held by an [`InterestSet`] of the
//!   requests that want it. Client disconnect trips the per-request
//!   token; when the *last* interested request lets go the flight token
//!   trips and the plan interpreter stops at its next checkpoint — an
//!   abandoned point never simulates into the void, while one live
//!   follower keeps it running. Deadlines are token state
//!   ([`CancelToken::child_until`]), not a watcher thread: a request
//!   token carries `request_deadline`, noticed by the parked follower's
//!   20 ms poll, and a flight token carries `point_deadline`, noticed by
//!   the interpreter's next checkpoint.
//! * **Degradation**: when the store's writer flock is held elsewhere
//!   the server runs read-only: the cache's store snapshot is refreshed
//!   per request ([`TrafficCache::refresh_if_compacted`] — one `stat`,
//!   and one re-read per change the external writer made), warm answers
//!   come from it, cold points fall back to the analytic model, and
//!   every response is tagged `"stale":true` — if the operator allowed
//!   it (`stale_ok`); otherwise requests answer `"stale_store"` and the
//!   server stays up. [`Server::drain`] stops accepting, lets inflight
//!   requests finish, then compacts the store to its canonical bytes.
//!
//! The server keeps no store state of its own: the warm path is
//! [`TrafficCache::peek`] (no counters, no flock), and a flight's
//! measurement is in the cache before the flight leaves the map.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::engine::SweepBudget;
use crate::json::json_str;
use crate::model::{self, Workload};
use crate::spec::MachineSpec;
use crate::sweep;
use crate::traffic::{store_key_with_passes, Boxes, Point, TrafficCache};
use pdesched_cachesim::CacheConfig;
use pdesched_core::plan::Stream;
use pdesched_core::{Pipeline, Variant};
use pdesched_par::cancel::{self, CancelToken, Cancelled, InterestSet};

/// The most variants one request can ask for (`top` is clamped to it),
/// and therefore all a memoised ranking has to keep.
const MAX_TOP: usize = 32;

/// Longest request line accepted, newline excluded. A longer one gets a
/// single `bad_request` and the connection is closed, so a newline-less
/// flood cannot grow a connection's buffer past this (plus one read).
const MAX_LINE: usize = 64 * 1024;

/// Longest a partial request line may wait for its newline. Past it the
/// line gets a single `bad_request` and the connection is closed, so
/// clients that each send a line's first byte and stop cannot hold
/// [`MAX_CONNS`] connections forever.
pub const STALL: Duration = Duration::from_secs(2);

/// Most connections open at once. The accept loop answers one past it
/// with the `overloaded` line and closes it, so a connection flood
/// cannot spawn threads without bound.
pub const MAX_CONNS: usize = 256;

/// How long an idle connection blocks in `read` before it looks at the
/// server token again.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// What an injected socket fault does to the request it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFaultAction {
    /// Close the connection without answering — the client sees EOF
    /// mid-request, as if the server was killed at that instant.
    DropConnection,
    /// Park the request until the server token trips or its client is
    /// gone (bounded by a safety cap) — the window `serve_storm.sh`
    /// SIGKILLs into.
    Hang,
}

/// Deterministic fault injection on the request path, mirroring
/// [`crate::fault::FaultHook`] on the store path. The production server
/// installs none; tests and `REPRO_FAULT` install implementations.
pub trait ServeHook: Send + Sync {
    /// Called once per received request line with its global index.
    fn on_request(&self, request_index: u64) -> Option<ServeFaultAction> {
        let _ = request_index;
        None
    }
}

/// Server configuration; `Default` gives a loopback ephemeral-port
/// server with an in-memory cache.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (ephemeral port).
    pub addr: String,
    /// Backing traffic store; `None` = in-memory only (never stale).
    pub store: Option<PathBuf>,
    /// No effect: every cold point is measured on one thread, its
    /// flight's or its request's. Kept, with `repro serve --threads`,
    /// only because `benchmark/` sets it; ROADMAP item 1 drops that.
    pub engine_threads: usize,
    /// Admission bound: requests being processed at once; at capacity
    /// new requests are rejected with `"overloaded"`.
    pub max_inflight: usize,
    /// Suggested client backoff returned with an overload rejection.
    pub retry_after: Duration,
    /// Per-request wall-clock deadline (`None` = unbounded).
    pub request_deadline: Option<Duration>,
    /// Serve snapshot answers tagged `"stale":true` when the store
    /// writer flock is held elsewhere; when `false` such requests are
    /// answered with `"stale_store"` instead.
    pub stale_ok: bool,
    /// Execution budget: `point_deadline` bounds each flight and each
    /// point answered without one; `max_retries`/`backoff` configure
    /// store-append retries.
    pub budget: SweepBudget,
    /// How long [`Server::drain`] waits for inflight work.
    pub drain_deadline: Duration,
    /// Request-path fault injection (tests, `REPRO_FAULT`).
    pub hook: Option<Arc<dyn ServeHook>>,
    /// Store/measurement-path fault injection, installed on the owned
    /// cache (tests, `REPRO_FAULT`'s `hang-sim`/`panic-sim` kinds).
    pub store_fault: Option<Arc<dyn crate::fault::FaultHook>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store: None,
            engine_threads: 1,
            max_inflight: 8,
            retry_after: Duration::from_millis(100),
            request_deadline: None,
            stale_ok: false,
            budget: SweepBudget::default(),
            drain_deadline: Duration::from_secs(10),
            hook: None,
            store_fault: None,
        }
    }
}

/// Service counters (all monotonic except `inflight`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Request lines received (including rejected ones).
    pub requests: u64,
    /// Requests and connections rejected by admission control.
    pub rejected: u64,
    /// Requests that joined an already-running flight.
    pub coalesced: u64,
    /// Flights started: cold points that needed a producer run (a point
    /// whose stream this process already produced is answered on its
    /// request's thread and starts none).
    pub flights: u64,
    /// Requests currently being processed.
    pub inflight: usize,
}

/// One coalesced cold-stream execution; see the module docs.
struct Flight {
    token: CancelToken,
    interest: InterestSet,
    /// The distinct points its requesters asked for, in joining order:
    /// the worker measures each before the flight leaves the map — the
    /// first produces the stream, the rest are recorded from it.
    points: Mutex<Vec<ColdPoint>>,
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Running,
    /// Each point's key with its DRAM bytes or failure.
    Done(Vec<(String, Result<u64, String>)>),
}

/// What flights are keyed by: the access stream and the whole
/// hierarchy it is measured on (the workload is always one box).
type FlightKey = (Stream, Vec<CacheConfig>);

/// A memoised analytic ranking, fastest first; see `ServerInner::ranks`.
type Ranking = Arc<[sweep::RankedVariant]>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct ServerInner {
    cfg: ServeConfig,
    cache: TrafficCache,
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    machines: Vec<MachineSpec>,
    /// Memoised analytic rankings, keyed by (machine name, box edge,
    /// threads) and cut to the [`MAX_TOP`] entries a request can ask
    /// for. The ranking is a pure function of its key and the key domain
    /// is finite (4 machines × the 7 box edges dividing the domain ×
    /// `hw_threads`), so the table needs neither eviction nor
    /// invalidation: it never holds store-derived traffic.
    ranks: Mutex<HashMap<(&'static str, i32, usize), Ranking>>,
    token: CancelToken,
    draining: AtomicBool,
    inflight: AtomicUsize,
    /// Open connections, each with its thread; capped at [`MAX_CONNS`].
    conns: AtomicUsize,
    active_flights: AtomicUsize,
    flights_started: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
}

/// The running service; see the module docs for the protocol and
/// failure model. Dropping the server drains it.
pub struct Server {
    inner: Arc<ServerInner>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Whether [`Server::drain`]'s wake-up connection reached the
    /// listener, so that the accept thread is sure to return.
    accept_woken: AtomicBool,
}

impl Server {
    /// Bind and start serving. Binding is the only fallible step —
    /// everything after this returns degrades per request instead of
    /// failing the server.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let cache = match &cfg.store {
            Some(path) => TrafficCache::with_store(path),
            None => TrafficCache::new(),
        };
        let cache = match &cfg.store_fault {
            Some(hook) => cache.with_fault_hook(Arc::clone(hook)),
            None => cache,
        };
        cache.set_append_retry(cfg.budget.max_retries, cfg.budget.backoff);
        let mut machines = vec![MachineSpec::i5_desktop()];
        machines.extend(MachineSpec::evaluation_nodes());

        let inner = Arc::new(ServerInner {
            cfg,
            cache,
            flights: Mutex::new(HashMap::new()),
            machines,
            ranks: Mutex::new(HashMap::new()),
            token: CancelToken::new(),
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            active_flights: AtomicUsize::new(0),
            flights_started: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        });

        let accept_inner = Arc::downgrade(&inner);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&accept_inner, listener);
        });

        Ok(Server {
            inner,
            local_addr,
            accept_thread: Some(accept_thread),
            accept_woken: AtomicBool::new(false),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The cache this server owns (counters, store health).
    pub fn cache(&self) -> &TrafficCache {
        &self.inner.cache
    }

    /// Service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.inner.requests.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            flights: self.inner.flights_started.load(Ordering::Relaxed),
            inflight: self.inner.inflight.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, let inflight requests and
    /// flights finish (bounded by `drain_deadline`, after which they
    /// are cancelled), then flush and compact the store to its
    /// canonical bytes. Returns whether the drain was clean (nothing
    /// had to be cancelled). Idempotent.
    pub fn drain(&self) -> bool {
        let inner = &self.inner;
        self.stop_accepting(connect_addr(self.local_addr));
        let deadline = Instant::now() + inner.cfg.drain_deadline;
        let quiet = |inner: &ServerInner| {
            inner.inflight.load(Ordering::SeqCst) == 0
                && inner.active_flights.load(Ordering::SeqCst) == 0
        };
        let mut clean = true;
        while !quiet(inner) {
            if Instant::now() >= deadline {
                clean = false;
                inner.token.trip("drain deadline");
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // After a forced trip, flights unwind at their next checkpoint;
        // give them a bounded moment so the compaction below cannot
        // race a straggler's append.
        let hard = Instant::now() + Duration::from_secs(2);
        while !quiet(inner) && Instant::now() < hard {
            std::thread::sleep(Duration::from_millis(2));
        }
        inner.token.trip("server shutdown");
        inner.cache.compact_store();
        inner.cache.flush_store();
        clean
    }

    /// Mark the server draining and wake the accept loop, blocked in
    /// `accept`, with one connection to `wake` (the listener's own
    /// address). Only the first call connects. If the connect fails, the
    /// accept thread stays parked until some later connection arrives,
    /// and returns then; `Drop` detaches it rather than wait for that.
    /// It holds the server weakly, so the cache and its store lock go
    /// with the last connection, not with that thread.
    fn stop_accepting(&self, wake: SocketAddr) {
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            let woken = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok();
            self.accept_woken.store(woken, Ordering::SeqCst);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
        if let Some(h) = self.accept_thread.take() {
            if self.accept_woken.load(Ordering::SeqCst) {
                let _ = h.join();
            }
        }
    }
}

/// How long [`Server::drain`]'s wake-up connect may take. On loopback it
/// completes or is refused at once; it only times out when the listen
/// queue is full, and then `accept` is not blocked anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// The address a connection to a listener bound at `addr` goes to: an
/// unspecified address (`0.0.0.0`, `::`) maps to its family's loopback.
fn connect_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accept connections until the server drains. The listener blocks;
/// [`Server::drain`] wakes it with a connection of its own, so the flag
/// is read after every `accept`, whatever it returned.
fn accept_loop(inner: &Weak<ServerInner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // `None` once the server and its connections are all gone: a
        // drop whose wake-up connect failed left this thread parked.
        let Some(inner) = inner.upgrade() else { return };
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Only this thread opens connections, so the count cannot
                // pass the cap between the check and the spawn.
                if inner.conns.load(Ordering::SeqCst) >= MAX_CONNS {
                    refuse_connection(&inner, stream);
                    continue;
                }
                inner.conns.fetch_add(1, Ordering::SeqCst);
                let conn_inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    let _slot = Slot(&conn_inner.conns);
                    handle_connection(&conn_inner, stream)
                });
            }
            // A failing accept (out of file descriptors) fails again at
            // once: back off rather than spin a core until one frees.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Answer a connection over [`MAX_CONNS`] with the `overloaded` line and
/// close it, on the accept thread, which must not block: the socket is
/// made non-blocking and only what the client already sent is read off
/// (closing a socket with unread bytes resets it, which can destroy the
/// reply before the client reads it).
fn refuse_connection(inner: &ServerInner, mut stream: TcpStream) {
    inner.rejected.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_nonblocking(true);
    let mut chunk = [0u8; 4096];
    while matches!(stream.read(&mut chunk), Ok(n) if n > 0) {}
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(format!("{}\n", overloaded(inner)).as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// The admission-control rejection, with the configured client backoff.
fn overloaded(inner: &ServerInner) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{}}}",
        inner.cfg.retry_after.as_millis()
    )
}

/// One client connection, owned by the one thread that reads, answers
/// and writes it.
struct Conn {
    stream: TcpStream,
    /// Received and not yet answered: a partial line, or pipelined
    /// lines behind the one being answered.
    buf: Vec<u8>,
    /// Tripped when the client is gone; parent of every request token.
    token: CancelToken,
}

/// What one `read` on a connection produced.
enum Fill {
    /// Bytes were appended to `buf`.
    Data,
    /// Nothing to read right now (timeout, or non-blocking and empty).
    Idle,
    /// EOF or a hard error: the client is gone.
    Closed,
}

impl Conn {
    /// One `read` into `buf`; in blocking mode it waits up to
    /// [`IDLE_POLL`]. A timeout appends nothing and keeps what a partial
    /// line already holds.
    fn fill(&mut self) -> Fill {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Fill::Closed,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Fill::Data
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Fill::Idle
            }
            Err(_) => Fill::Closed,
        }
    }

    /// Send one reply line: framed with its newline and written with ONE
    /// `write`, so it leaves as one segment (a newline sent on its own
    /// waits behind Nagle for the client's delayed ACK, ~40 ms).
    fn send(&mut self, mut reply: String) -> std::io::Result<()> {
        reply.push('\n');
        self.stream.write_all(reply.as_bytes())
    }

    /// Disconnect probe for the waits that already poll (a parked
    /// follower, an injected hang): trips the connection token when the
    /// client is gone. It *reads* without blocking rather than peeking,
    /// because an EOF hides behind pipelined requests until they are
    /// taken out of the socket; the read-ahead stops at one line cap,
    /// beyond which the kernel's socket buffer pushes back on the client.
    fn probe(&mut self) {
        if self.token.is_tripped() || self.stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut gone = false;
        while !gone && self.buf.len() <= MAX_LINE {
            match self.fill() {
                Fill::Data => {}
                Fill::Idle => break,
                Fill::Closed => gone = true,
            }
        }
        // A socket stuck in non-blocking mode would spin the read loop.
        gone |= self.stream.set_nonblocking(false).is_err();
        if gone {
            self.token.trip("client disconnected");
        }
    }
}

/// One thread per connection: read a line, answer it, write the reply,
/// in order. The client going away is noticed by the next `read` when
/// idle and by [`Conn::probe`] while a request waits.
fn handle_connection(inner: &Arc<ServerInner>, stream: TcpStream) {
    // Replies are single writes; without this a reply would still wait
    // behind the previous one's delayed ACK (Nagle).
    let _ = stream.set_nodelay(true);
    // The idle read wakes up to notice the server token.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let mut conn = Conn { stream, buf: Vec::new(), token: inner.token.child() };
    // Since when the buffer has held a partial line.
    let mut partial_since = None;
    loop {
        let newline = conn.buf.iter().position(|&b| b == b'\n');
        if newline.unwrap_or(conn.buf.len()) > MAX_LINE {
            refuse(&mut conn, &format!("request line exceeds {MAX_LINE} bytes"));
            break;
        }
        let Some(newline) = newline else {
            if conn.buf.is_empty() {
                partial_since = None;
            } else if partial_since.get_or_insert_with(Instant::now).elapsed() >= STALL {
                refuse(&mut conn, "request line stalled");
                break;
            }
            match conn.fill() {
                Fill::Closed => break,
                Fill::Idle if inner.token.is_tripped() => break,
                Fill::Data | Fill::Idle => continue,
            }
        };
        let line = String::from_utf8_lossy(&conn.buf[..newline]).trim().to_string();
        conn.buf.drain(..=newline);
        partial_since = None;
        if line.is_empty() {
            continue;
        }
        // Injected DropConnection (`None`): die without answering.
        let Some(reply) = process_request(inner, &mut conn, &line) else { break };
        if conn.send(reply).is_err() {
            break;
        }
    }
    conn.token.trip("connection closed");
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Answer a line that is too long ([`MAX_LINE`]) or too slow ([`STALL`])
/// with one `bad_request` and give the connection up. The client may
/// still be sending, and closing a socket with unread bytes resets it —
/// which can destroy the reply before the client reads it — so
/// half-close and discard input for a bounded moment.
fn refuse(conn: &mut Conn, detail: &str) {
    if conn.send(err_json("bad_request", detail)).is_err() {
        return;
    }
    let _ = conn.stream.shutdown(Shutdown::Write);
    let until = Instant::now() + Duration::from_secs(1);
    loop {
        conn.buf.clear();
        if !matches!(conn.fill(), Fill::Data) || Instant::now() >= until {
            break;
        }
    }
}

/// Admission guard: holds one slot of a counter (inflight requests, open
/// connections), released on drop (so panics and early returns can never
/// leak a slot).
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer one request line; `None` means "drop the connection"
/// (injected fault only).
fn process_request(inner: &Arc<ServerInner>, conn: &mut Conn, line: &str) -> Option<String> {
    let index = inner.requests.fetch_add(1, Ordering::SeqCst);

    // Injected socket faults fire before admission, like a fault in the
    // kernel's accept queue would.
    if let Some(action) = inner.cfg.hook.as_ref().and_then(|h| h.on_request(index)) {
        match action {
            ServeFaultAction::DropConnection => return None,
            ServeFaultAction::Hang => {
                // The SIGKILL window: park until shutdown or until the
                // client is gone, bounded so a forgotten fault cannot
                // wedge a test run forever.
                let cap = Instant::now() + Duration::from_secs(60);
                while !conn.token.is_tripped() && Instant::now() < cap {
                    std::thread::sleep(Duration::from_millis(10));
                    conn.probe();
                }
            }
        }
    }

    // Admission: reject instead of queueing.
    if inner.draining.load(Ordering::SeqCst) || inner.token.is_tripped() {
        return Some(err_json("draining", "server is shutting down"));
    }
    if inner.inflight.fetch_add(1, Ordering::SeqCst) >= inner.cfg.max_inflight {
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
        inner.rejected.fetch_add(1, Ordering::SeqCst);
        return Some(overloaded(inner));
    }
    let _slot = Slot(&inner.inflight);

    // Per-request token: child of the connection token (disconnect
    // cascades in), carrying the request deadline if one is set.
    let req_token = match inner.cfg.request_deadline {
        Some(d) => conn.token.child_until(Instant::now() + d, "request deadline"),
        None => conn.token.child(),
    };

    Some(answer(inner, conn, &req_token, line))
}

/// Parse, validate, rank, measure, respond. Always returns a JSON line.
fn answer(
    inner: &Arc<ServerInner>,
    conn: &mut Conn,
    req_token: &CancelToken,
    line: &str,
) -> String {
    let req = match parse_flat_json(line) {
        Ok(map) => map,
        Err(e) => return err_json("bad_request", &format!("malformed JSON: {e}")),
    };
    let Some(JVal::S(machine_q)) = req.get("machine") else {
        return err_json("bad_request", "missing string field \"machine\"");
    };
    let spec = match resolve_machine(&inner.machines, machine_q) {
        Ok(spec) => spec,
        Err(detail) => return err_json("bad_request", &detail),
    };
    // Integral numbers of any sign and size parse; the range checks
    // below refuse the ones out of range, echoing the value as sent (a
    // cast first would saturate it). `+ 0.0` folds `-0` into `0`.
    let n = match req.get("n") {
        Some(JVal::N(v)) if v.fract() == 0.0 => *v + 0.0,
        _ => return err_json("bad_request", "missing or non-integer field \"n\""),
    };
    // Bounded by the longest domain edge *before* the cast.
    if !(2.0..=512.0).contains(&n) || !model::tiles_paper_domain(n as i32) {
        return err_json(
            "bad_request",
            &format!("box edge {n} must divide the 512x384x256 domain"),
        );
    }
    let n = n as i32;
    let threads = match req.get("threads") {
        None => spec.cores() as f64,
        Some(JVal::N(v)) if v.fract() == 0.0 => *v + 0.0,
        _ => return err_json("bad_request", "non-integer field \"threads\""),
    };
    if !(1.0..=spec.hw_threads() as f64).contains(&threads) {
        return err_json(
            "bad_request",
            &format!("threads {threads} out of range 1..={} for {}", spec.hw_threads(), spec.name),
        );
    }
    let threads = threads as usize;
    let top = match req.get("top") {
        None => 3.0,
        Some(JVal::N(v)) if v.fract() == 0.0 => *v + 0.0,
        _ => return err_json("bad_request", "non-integer field \"top\""),
    };
    if top < 1.0 {
        return err_json("bad_request", &format!("top {top} must be at least 1"));
    }
    let top = top.min(MAX_TOP as f64) as usize;
    let pipeline = match req.get("passes") {
        None => Pipeline::empty(),
        Some(JVal::S(spec_str)) => match Pipeline::parse(spec_str) {
            Ok(p) => p,
            Err(e) => return err_json("bad_request", &format!("bad passes spec: {e}")),
        },
        Some(_) => return err_json("bad_request", "non-string field \"passes\""),
    };

    // Degradation policy: writer flock held elsewhere → read-only.
    let stale = inner.cache.store_read_only();
    if stale {
        if !inner.cfg.stale_ok {
            return err_json(
                "stale_store",
                "store writer flock held elsewhere; start with --stale-ok to serve snapshots",
            );
        }
        // Pick up the external writer's appends/compactions: a cheap
        // stat when nothing changed, an atomic snapshot swap when the
        // file moved underneath us.
        inner.cache.refresh_if_compacted();
    }

    // Rank the whole space analytically at the requested thread count,
    // then measure the short list (the paper's two-stage recipe).
    let ranked = ranked_top(inner, spec, n, threads);
    if ranked.is_empty() {
        return err_json("bad_request", &format!("no schedule variant is valid for box edge {n}"));
    }
    let wl = Workload::paper(n);
    let hierarchy = model::prediction_hierarchy(spec, threads);
    let mut rows = Vec::new();
    for r in ranked.iter().take(top) {
        let key = store_key_with_passes(r.variant, n, &hierarchy, &pipeline);
        if req_token.is_tripped() {
            return cancel_json(req_token);
        }
        let (dram, source) = match inner.cache.peek(&key) {
            Some(t) => (t.dram_bytes, "warm"),
            None if stale => {
                // Read-only degradation: no simulation, answer from the
                // closed-form model rather than block or die.
                push_row(&mut rows, r.variant, &r.prediction, "analytic");
                continue;
            }
            None => {
                let point = ColdPoint {
                    key,
                    variant: r.variant,
                    n,
                    hierarchy: hierarchy.clone(),
                    pipeline: pipeline.clone(),
                };
                let stream =
                    Point::new(r.variant, n, &hierarchy, &pipeline, Boxes::Single).stream();
                let measured = match stream {
                    Ok(stream) => fly(inner, conn, req_token, (stream, hierarchy.clone()), point),
                    // Refused: there is no stream to fly. The cache's miss
                    // path counts the miss and returns the refusal.
                    Err(_) => measure_here(inner, req_token, &point),
                };
                match measured {
                    Ok(dram) => (dram, "sim"),
                    Err(e) => {
                        if req_token.is_tripped() {
                            return cancel_json(req_token);
                        }
                        return err_json("point_failed", &e);
                    }
                }
            }
        };
        let p = model::predict_time_with_traffic(spec, r.variant, wl, threads, dram);
        push_row(&mut rows, r.variant, &p, source);
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Figure series: the top variant's predicted scaling 1..=threads.
    let best = rows.first().map(|r| r.2).unwrap_or(ranked[0].variant);
    let series: Vec<f64> =
        (1..=threads).map(|t| model::predict_time_analytic(spec, best, wl, t).seconds).collect();

    let mut out = String::with_capacity(512);
    out.push_str("{\"ok\":true,\"machine\":");
    out.push_str(&json_str(spec.name));
    out.push_str(&format!(
        ",\"n\":{n},\"threads\":{threads},\"stale\":{stale},\"generation\":{},\"variants\":[",
        inner.cache.store_generation()
    ));
    for (i, (_, row, _)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(row);
    }
    out.push_str("],\"series\":[");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fnum(*s));
    }
    out.push_str("]}");
    out
}

/// The machine a request names: an exact (case-insensitive) name wins,
/// else the *one* machine whose name contains the query. `Err` is the
/// `bad_request` detail — a query several machines match is refused
/// rather than resolved to whichever is listed first.
fn resolve_machine<'a>(
    machines: &'a [MachineSpec],
    query: &str,
) -> Result<&'a MachineSpec, String> {
    let names = |ms: &mut dyn Iterator<Item = &MachineSpec>| {
        ms.map(|m| m.name).collect::<Vec<_>>().join(", ")
    };
    let query_lc = query.to_lowercase();
    let mut matches = Vec::new();
    for m in machines {
        let name = m.name.to_lowercase();
        if name == query_lc {
            return Ok(m);
        }
        if name.contains(&query_lc) {
            matches.push(m);
        }
    }
    match matches[..] {
        [one] => Ok(one),
        [] => Err(format!("unknown machine {query:?}; known: {}", names(&mut machines.iter()))),
        _ => Err(format!(
            "ambiguous machine {query:?}; candidates: {}",
            names(&mut matches.iter().copied())
        )),
    }
}

/// The analytic ranking of the whole variant space at (machine, n,
/// threads), cut to [`MAX_TOP`] and memoised in `inner.ranks`. Computed
/// outside the lock: two first requests may both rank, the first insert
/// wins, and both hold identical values.
fn ranked_top(inner: &ServerInner, spec: &MachineSpec, n: i32, threads: usize) -> Ranking {
    let key = (spec.name, n, threads);
    if let Some(hit) = lock(&inner.ranks).get(&key) {
        return Arc::clone(hit);
    }
    let mut ranked = sweep::rank_all_at(spec, n, threads);
    ranked.truncate(MAX_TOP);
    Arc::clone(lock(&inner.ranks).entry(key).or_insert_with(|| ranked.into()))
}

/// One response row: (seconds for sorting, rendered JSON, variant).
type Row = (f64, String, Variant);

fn push_row(rows: &mut Vec<Row>, variant: Variant, p: &model::Prediction, source: &str) {
    let row = format!(
        "{{\"name\":{},\"seconds\":{},\"compute_s\":{},\"memory_s\":{},\"overhead_s\":{},\"source\":\"{source}\"}}",
        json_str(&variant.name()),
        fnum(p.seconds),
        fnum(p.compute_s),
        fnum(p.memory_s),
        fnum(p.overhead_s),
    );
    rows.push((p.seconds, row, variant));
}

/// One point to measure: a key of a flight's stream.
#[derive(Clone)]
struct ColdPoint {
    key: String,
    variant: Variant,
    n: i32,
    hierarchy: Vec<CacheConfig>,
    pipeline: Pipeline,
}

/// Single-flight execution of one cold point, coalesced with every cold
/// point of the same stream: returns its DRAM bytes. A point whose
/// stream this process already produced, with no flight of that stream
/// running, needs no producer run and is answered here instead.
fn fly(
    inner: &Arc<ServerInner>,
    conn: &mut Conn,
    req_token: &CancelToken,
    flight_key: FlightKey,
    point: ColdPoint,
) -> Result<u64, String> {
    // Take one interest in the stream's flight, under the map lock:
    // releasing the last one (all requesters gone) trips the flight
    // token and the worker stops at its next interpreter checkpoint. A
    // flight every requester has already let go of cannot be joined —
    // it is only unwinding, and joining would hand a live requester the
    // abandonment — so it is replaced by a fresh one under the same key.
    // A joiner adds its point unless the flight already has that key.
    // A running flight is joined before "produced" is asked: its first
    // point produces the stream before the rest are recorded, and those
    // are its to record until it leaves the map.
    let key = point.key.clone();
    let (flight, _interest, coalesced) = {
        let mut flights = lock(&inner.flights);
        let joined =
            flights.get(&flight_key).and_then(|f| Some((Arc::clone(f), f.interest.try_join()?)));
        match joined {
            Some((flight, interest)) => {
                let mut points = lock(&flight.points);
                if points.iter().all(|p| p.key != point.key) {
                    points.push(point);
                }
                drop(points);
                (flight, interest, true)
            }
            None if inner.cache.produced(&flight_key.0, Boxes::Single, &flight_key.1).is_some() => {
                drop(flights);
                return measure_here(inner, req_token, &point);
            }
            None => {
                inner.flights_started.fetch_add(1, Ordering::SeqCst);
                let token = match inner.cfg.budget.point_deadline {
                    Some(d) => inner.token.child_until(Instant::now() + d, "point deadline"),
                    None => inner.token.child(),
                };
                let flight = Arc::new(Flight {
                    interest: InterestSet::new(token.clone(), "abandoned by every requester"),
                    token,
                    points: Mutex::new(vec![point]),
                    state: Mutex::new(FlightState::Running),
                    cv: Condvar::new(),
                });
                let interest = flight.interest.join();
                flights.insert(flight_key.clone(), Arc::clone(&flight));
                spawn_flight_worker(inner, &flight, flight_key);
                (flight, interest, false)
            }
        }
    };
    if coalesced {
        inner.coalesced.fetch_add(1, Ordering::SeqCst);
    }

    let mut state = lock(&flight.state);
    loop {
        if let FlightState::Done(results) = &*state {
            let (_, result) = results.iter().find(|(k, _)| *k == key).expect("a joined point");
            return result.clone();
        }
        if req_token.is_tripped() {
            return Err(format!(
                "cancelled: {}",
                req_token.reason().unwrap_or_else(|| "request cancelled".into())
            ));
        }
        let (guard, wait) = flight
            .cv
            .wait_timeout(state, Duration::from_millis(20))
            .unwrap_or_else(|e| e.into_inner());
        state = guard;
        if wait.timed_out() {
            // Nobody reads the socket while this thread is parked, so
            // the park's own poll is where a vanished client is noticed
            // (within 20 ms) — outside the flight lock.
            drop(state);
            conn.probe();
            state = lock(&flight.state);
        }
    }
}

fn spawn_flight_worker(inner: &Arc<ServerInner>, flight: &Arc<Flight>, flight_key: FlightKey) {
    let inner = Arc::clone(inner);
    let flight = Arc::clone(flight);
    inner.active_flights.fetch_add(1, Ordering::SeqCst);
    std::thread::spawn(move || {
        let mut results = Vec::new();
        loop {
            // The next point to measure — or, with every joined point
            // measured, the flight leaves the map (failures too: the map
            // is never poisoned; a later request simply starts a fresh
            // flight). Both under the map lock a joiner holds while it
            // adds a point, so none is left behind, and each point is in
            // the cache before the flight is gone: a request arriving
            // after the removal finds it warm.
            let next = {
                let mut flights = lock(&inner.flights);
                let points = lock(&flight.points);
                match points.get(results.len()) {
                    Some(point) => point.clone(),
                    None => {
                        // Unless a later request already replaced this
                        // (abandoned) flight with a fresh one.
                        if flights.get(&flight_key).is_some_and(|f| Arc::ptr_eq(f, &flight)) {
                            flights.remove(&flight_key);
                        }
                        break;
                    }
                }
            };
            // The flight token is ambient for the whole measurement, so
            // plan execution polls it at its checkpoints and an abandoned
            // flight stops mid-execution.
            let result = {
                let _ambient = cancel::set_current(Some(flight.token.clone()));
                measure_cold(&inner.cache, &next)
            };
            results.push((next.key, result));
        }
        *lock(&flight.state) = FlightState::Done(results);
        flight.cv.notify_all();
        inner.active_flights.fetch_sub(1, Ordering::SeqCst);
    });
}

/// A cold point that needs no flight — its stream is already produced,
/// or it is refused — measured on the request's own thread. The request
/// token is ambient, as a flight's token is for a flight, and carries
/// the point deadline if one is set.
fn measure_here(
    inner: &ServerInner,
    req_token: &CancelToken,
    point: &ColdPoint,
) -> Result<u64, String> {
    let token = match inner.cfg.budget.point_deadline {
        Some(d) => req_token.child_until(Instant::now() + d, "point deadline"),
        None => req_token.clone(),
    };
    let _ambient = cancel::set_current(Some(token));
    measure_cold(&inner.cache, point)
}

/// One cold point through the cache's miss path: produced, or recorded
/// from a stream the cache already produced. Its DRAM bytes, or the
/// failure a reply reports.
fn measure_cold(cache: &TrafficCache, point: &ColdPoint) -> Result<u64, String> {
    let ColdPoint { variant, n, hierarchy, pipeline, .. } = point;
    match catch_unwind(AssertUnwindSafe(|| cache.get_optimized(*variant, *n, hierarchy, pipeline)))
    {
        Ok(Ok(t)) => Ok(t.dram_bytes),
        Ok(Err(e)) => Err(format!("pipeline rejected: {e}")),
        Err(payload) => Err(describe_panic(payload)),
    }
}

fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(c) = payload.downcast_ref::<Cancelled>() {
        return format!("cancelled: {}", c.reason);
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return format!("panicked: {s}");
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return format!("panicked: {s}");
    }
    "panicked".to_string()
}

fn cancel_json(req_token: &CancelToken) -> String {
    let reason = req_token.reason().unwrap_or_else(|| "cancelled".into());
    let error = if reason.contains("deadline") { "deadline" } else { "cancelled" };
    err_json(error, &reason)
}

fn err_json(error: &str, detail: &str) -> String {
    format!("{{\"ok\":false,\"error\":{},\"detail\":{}}}", json_str(error), json_str(detail))
}

/// A float that round-trips as JSON (never NaN/inf in our outputs, but
/// degrade to null rather than emit invalid JSON).
fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// A parsed flat-JSON value (the protocol needs no nesting).
enum JVal {
    S(String),
    N(f64),
    // No request field is boolean today; parsed for forward
    // compatibility so clients sending one get a field-level error,
    // not a protocol error.
    #[allow(dead_code)]
    B(bool),
}

/// Minimal parser for one flat JSON object: string/number/bool/null
/// values only (nested containers are rejected — the request schema is
/// flat by design). Std-only, like everything else in this repo.
fn parse_flat_json(text: &str) -> Result<HashMap<String, JVal>, String> {
    let mut chars = text.chars().peekable();
    let mut map = HashMap::new();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        match chars.peek() {
            Some('"') => {
                let v = parse_string(&mut chars)?;
                map.insert(key, JVal::S(v));
            }
            Some('t') | Some('f') | Some('n') => {
                let word = parse_word(&mut chars);
                match word.as_str() {
                    "true" => {
                        map.insert(key, JVal::B(true));
                    }
                    "false" => {
                        map.insert(key, JVal::B(false));
                    }
                    // null = field absent.
                    "null" => {}
                    _ => return Err(format!("bad literal {word:?}")),
                }
            }
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: f64 = num.parse().map_err(|_| format!("bad number {num:?}"))?;
                map.insert(key, JVal::N(v));
            }
            Some(c) => return Err(format!("unsupported value starting with {c:?}")),
            None => return Err("truncated object".into()),
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return Ok(map),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// A run of ASCII letters, left delimiter untouched.
fn parse_word(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> String {
    let mut word = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_alphabetic() {
            word.push(c);
            chars.next();
        } else {
            break;
        }
    }
    word
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected string".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{0008}'),
                Some('f') => out.push('\u{000C}'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_round_trips_the_request_schema() {
        let m = parse_flat_json(
            r#"{"machine":"i5","n":8,"threads":4,"top":2,"passes":"","extra":null,"flag":true}"#,
        )
        .unwrap();
        assert!(matches!(m.get("machine"), Some(JVal::S(s)) if s == "i5"));
        assert!(matches!(m.get("n"), Some(JVal::N(v)) if *v == 8.0));
        assert!(matches!(m.get("threads"), Some(JVal::N(v)) if *v == 4.0));
        assert!(matches!(m.get("passes"), Some(JVal::S(s)) if s.is_empty()));
        assert!(!m.contains_key("extra"), "null reads as absent");
        assert!(matches!(m.get("flag"), Some(JVal::B(true))));
    }

    #[test]
    fn flat_json_rejects_torn_and_nested_input() {
        assert!(parse_flat_json("").is_err());
        assert!(parse_flat_json("{\"a\":1").is_err());
        assert!(parse_flat_json("{\"a\":[1]}").is_err(), "nesting is rejected");
        assert!(parse_flat_json("{\"a\":{}}").is_err());
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{\"a\"}").is_err());
    }

    #[test]
    fn flat_json_unescapes_strings() {
        let m = parse_flat_json("{\"k\":\"a\\\"b\\u0041\"}").unwrap();
        assert!(matches!(m.get("k"), Some(JVal::S(s)) if s == "a\"bA"));
    }

    #[test]
    fn empty_object_and_whitespace_parse() {
        assert!(parse_flat_json("{}").unwrap().is_empty());
        let m = parse_flat_json(" { \"a\" : -1.5e-3 } ").unwrap();
        assert!(matches!(m.get("a"), Some(JVal::N(v)) if (*v + 1.5e-3).abs() < 1e-12));
    }

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:7".parse().unwrap();
        let v6: SocketAddr = "[::]:7".parse().unwrap();
        let lan: SocketAddr = "10.1.2.3:7".parse().unwrap();
        assert_eq!(connect_addr(v4), "127.0.0.1:7".parse().unwrap());
        assert_eq!(connect_addr(v6), "[::1]:7".parse().unwrap());
        assert_eq!(connect_addr(lan), lan);
    }

    /// A drain whose wake-up connect fails still returns, and `Drop`
    /// detaches the accept thread instead of joining it: the thread stays
    /// parked in `accept`, holding the listener, until the next
    /// connection arrives, and then returns and closes it. It holds the
    /// server weakly, so the store's writer lock is released at the drop.
    #[test]
    fn a_failed_wake_up_never_hangs_drop() {
        let dir = pdesched_testkit::TempDir::new("servwake");
        let store = dir.file("t.txt");
        let server =
            Server::start(ServeConfig { store: Some(store.clone()), ..ServeConfig::default() })
                .expect("bind");
        let addr = server.local_addr();
        // A loopback port nothing listens on: the connect is refused.
        let refused = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        server.stop_accepting(refused);
        assert!(!server.accept_woken.load(Ordering::SeqCst));

        let t0 = Instant::now();
        drop(server);
        assert!(t0.elapsed() < Duration::from_secs(1), "drop took {:?}", t0.elapsed());
        assert!(!TrafficCache::with_store(&store).store_read_only(), "the store is still locked");

        // The parked thread still listens; one connection releases it.
        let late = TcpStream::connect(addr).expect("the listener is still open");
        drop(late);
        let t0 = Instant::now();
        while TcpStream::connect(addr).is_ok() {
            assert!(t0.elapsed() < Duration::from_secs(5), "the accept thread never returned");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
