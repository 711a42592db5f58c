//! The `flm-serve` server: an event-driven FLMC-RPC server — one reactor
//! thread multiplexing every connection over epoll, a small worker pool for
//! CPU-bound refutation work, and an optional on-disk certificate store.
//!
//! # Architecture
//!
//! The reactor thread owns the nonblocking listener and every connection.
//! Each connection is a `Conn`, the socket-free state machine in
//! `crate::conn`; the reactor (a `Frontend` driven by `Service`, the
//! same driver `flm-router` runs) only moves bytes and applies interest.
//! Decoded requests either execute inline on the reactor (zero-hold pings,
//! stats snapshots, peer `FetchCert` lookups) or become jobs for the worker
//! pool (refute, verify, audit, held pings, `PutCert`). Pipelining is
//! first-class: responses are written in strict request order no matter
//! which worker finishes first, and a connection at its pipeline cap simply
//! stops being read — TCP backpressure does the rest. One process therefore
//! serves thousands of concurrent sockets with `workers` threads, instead of
//! one per socket.
//!
//! # Shedding
//!
//! Load is shed with an answer, never a silently dropped socket, at two
//! points. Per *request*: a worker-bound request arriving while every
//! worker is busy and the job queue is full is answered with a typed
//! [`Response::Overloaded`] frame and the connection stays open (counted
//! as `requests_shed`; inline requests still serve, so a saturated server
//! remains observable). Per *connection*: an accept beyond
//! `MAX_CONNECTIONS` (2,048) is answered with `Overloaded` and closed
//! (counted as `connections_shed`).
//!
//! # Budgets
//!
//! Per-connection hostile-input budgets reuse the hardening from the
//! certificate layer: a frame-body byte cap
//! ([`crate::frame::DEFAULT_MAX_BODY_BYTES`], checked before allocation),
//! an idle timeout (an idle peer cannot pin a connection slot forever), a
//! per-connection request budget, a pipeline depth cap (`MAX_PIPELINED`,
//! 32), and the default `RunPolicy` as a ceiling clamped onto every
//! refutation request ([`query::clamp_policy`]).
//!
//! # Caching
//!
//! Workers share the process-global `flm_sim::runcache`, so byte-identical
//! queries from *different* connections are warm hits — sound because a hit
//! requires the full canonical run key to match byte-for-byte, and under
//! the determinism axiom that key fixes the behavior. With
//! [`ServeConfig::store_dir`] set, refutations additionally consult a
//! [`CertStore`]: memory → disk → simulate, with every fresh certificate
//! persisted, so warm hits survive restarts. The [`Request::Stats`] RPC
//! exposes every counter so both layers are observable.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flm_sim::runcache::RunKey;

use crate::audit;
use crate::client::Client;
use crate::conn::{self, Conn, ConnCounters, Incoming, Limits};
use crate::frame::DEFAULT_MAX_BODY_BYTES;
use crate::query::{self, Theorem};
use crate::rpc::{ErrorCode, Request, Response, StatsReport};
use crate::shard::ShardMap;
use crate::store::{self, CertStore};
use crate::sys::{self, Event, Interest, Poller};

/// Server configuration. [`ServeConfig::default`] is sized for the loopback
/// quickstart. The front limits are constants in this module that the
/// server shares with the router: `MAX_CONNECTIONS` (2,048 connections),
/// `MAX_PIPELINED` (32 requests in flight per connection) and
/// [`crate::frame::DEFAULT_MAX_BODY_BYTES`]. Every requested `RunPolicy`
/// is clamped to the default one ([`query::clamp_policy`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7115` or `127.0.0.1:0` (ephemeral).
    pub addr: String,
    /// Worker threads for CPU-bound work (refute/verify/audit/held pings).
    /// Each request runs on one worker.
    pub workers: usize,
    /// Worker-bound requests allowed to wait in the job queue before
    /// further worker-bound requests are shed with a typed answer.
    pub queue_depth: usize,
    /// Idle timeout: a connection with no in-flight work and no unread
    /// bytes past this is closed.
    pub read_timeout: Duration,
    /// Requests one connection may issue before it is asked to reconnect
    /// (answered with a typed `connection-budget` error).
    pub max_requests_per_conn: u64,
    /// Cap on [`Request::Ping`] worker holds, milliseconds.
    pub max_hold_ms: u32,
    /// Root directory for the persistent certificate store; `None` serves
    /// from the in-memory caches only (warmth dies with the process).
    pub store_dir: Option<PathBuf>,
    /// This process's place in a sharded cluster; `None` serves unsharded
    /// (every key is owned locally, no ownership checks).
    pub shard: Option<ShardRole>,
    /// Memory-tier entry capacity for the certificate store; `None` uses
    /// [`store::MEMORY_ENTRIES`].
    pub store_mem_cap: Option<usize>,
}

/// A shard's identity in the cluster: its id plus the full topology every
/// peer and the router agree on byte-for-byte ([`ShardMap::encode`]).
#[derive(Debug, Clone)]
pub struct ShardRole {
    /// This process's shard id — an index into `map`.
    pub id: u32,
    /// The cluster topology.
    pub map: ShardMap,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 32,
            read_timeout: IDLE_TIMEOUT,
            max_requests_per_conn: 4096,
            max_hold_ms: 100,
            store_dir: None,
            shard: None,
            store_mem_cap: None,
        }
    }
}

/// Monotonic service counters, shared across threads and surfaced by the
/// Stats RPC.
#[derive(Default)]
struct Counters {
    conn: Arc<ConnCounters>,
    requests_ping: AtomicU64,
    requests_refute: AtomicU64,
    requests_verify: AtomicU64,
    requests_audit: AtomicU64,
    requests_stats: AtomicU64,
    requests_shed: AtomicU64,
    requests_fetch: AtomicU64,
    requests_put: AtomicU64,
    wrong_shard: AtomicU64,
    peer_fetches: AtomicU64,
    async_refutes: AtomicU64,
}

/// One unit of CPU-bound work handed from the reactor to the pool.
struct Job {
    conn: u64,
    seq: u64,
    request: Request,
}

/// A finished job on its way back to the reactor.
struct Completion {
    conn: u64,
    seq: u64,
    response: Response,
}

struct Shared {
    config: ServeConfig,
    counters: Counters,
    store: Option<CertStore>,
    jobs: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: sys::Waker,
    busy_workers: AtomicUsize,
    shutdown: AtomicBool,
    /// Set by the reactor once it has stopped parsing requests: the job
    /// queue can only shrink from here, so a worker observing this flag
    /// and an empty queue may exit without orphaning a connection.
    jobs_closed: AtomicBool,
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn snapshot(&self) -> StatsReport {
        let c = &self.counters;
        let cache = flm_sim::runcache::stats();
        let async_stats = flm_core::refute::async_search_stats();
        let store = self
            .store
            .as_ref()
            .map(CertStore::stats)
            .unwrap_or_default();
        StatsReport {
            connections_accepted: c.conn.accepted.load(Ordering::Relaxed),
            connections_shed: c.conn.shed.load(Ordering::Relaxed),
            requests_ping: c.requests_ping.load(Ordering::Relaxed),
            requests_refute: c.requests_refute.load(Ordering::Relaxed),
            requests_verify: c.requests_verify.load(Ordering::Relaxed),
            requests_audit: c.requests_audit.load(Ordering::Relaxed),
            requests_stats: c.requests_stats.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
            responses_error: c.conn.responses_error.load(Ordering::Relaxed),
            malformed_frames: c.conn.malformed_frames.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            cache_bytes_saved: cache.bytes_saved,
            store_mem_hits: store.mem_hits,
            store_disk_hits: store.disk_hits,
            store_misses: store.misses,
            store_stores: store.stores,
            store_quarantined: store.quarantined,
            store_mem_evictions: store.evictions,
            requests_fetch: c.requests_fetch.load(Ordering::Relaxed),
            requests_put: c.requests_put.load(Ordering::Relaxed),
            wrong_shard: c.wrong_shard.load(Ordering::Relaxed),
            peer_fetches: c.peer_fetches.load(Ordering::Relaxed),
            async_refutes: c.async_refutes.load(Ordering::Relaxed),
            async_schedules_explored: async_stats.0,
            async_bivalent_forks: async_stats.1,
            shard_id: self.config.shard.as_ref().map_or(0, |r| u64::from(r.id)),
            shard_count: self
                .config
                .shard
                .as_ref()
                .map_or(0, |r| u64::from(r.map.count())),
            profile: if flm_core::profile::enabled() {
                flm_core::profile::report()
            } else {
                String::new()
            },
        }
    }
}

/// A running FLMC-RPC server. Dropping without [`Server::shutdown`] leaves
/// the threads serving until the process exits (the `flm-serve` binary's
/// mode); tests call `shutdown` for a clean join.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, builds the poller (and certificate store when
    /// configured), and spawns the reactor and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind, poller-creation, and store-open failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let counters = Counters::default();
        let (front, waker, local_addr) = Frontend::bind(
            &config.addr,
            Some(config.max_requests_per_conn),
            "serving",
            FIRST_CONN_TOKEN,
            Arc::clone(&counters.conn),
        )?;
        let workers = config.workers.max(1);
        let store = match &config.store_dir {
            Some(dir) => {
                let cap = config.store_mem_cap.unwrap_or(store::MEMORY_ENTRIES);
                Some(
                    CertStore::open_with_capacity(dir.clone(), cap)
                        .map_err(|e| std::io::Error::other(e.to_string()))?,
                )
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            config: ServeConfig { workers, ..config },
            counters,
            store,
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            busy_workers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            jobs_closed: AtomicBool::new(false),
        });

        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let timeout = shared.config.read_timeout;
                let shutdown = Arc::clone(&shared);
                Reactor { front, shared }.run(&shutdown.shutdown, timeout);
            })
        };

        Ok(Server {
            local_addr,
            shared,
            reactor: Some(reactor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the service counters and cache statistics —
    /// the same report the Stats RPC returns, without a connection.
    pub fn stats(&self) -> StatsReport {
        self.shared.snapshot()
    }

    /// Workers currently executing a job. The saturation tests use this to
    /// wait for the pool to be provably busy before expecting
    /// [`Response::Overloaded`].
    pub fn busy_workers(&self) -> usize {
        self.shared.busy_workers.load(Ordering::SeqCst)
    }

    /// Drops the certificate store's in-memory layer (a no-op without a
    /// store), forcing the next lookup back to disk. Benches use this to
    /// isolate the disk-warm path from the memory-warm one.
    pub fn drop_store_memory(&self) {
        if let Some(store) = &self.shared.store {
            store.clear_memory();
        }
    }

    /// Blocks until the server is shut down (never, unless another thread
    /// holds a handle). The `flm-serve` binary parks here.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stops accepting, lets in-flight requests complete and flush, and
    /// joins every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.shared.job_ready.notify_all();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.shared.job_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: stop the threads without joining (join may deadlock
        // if drop runs on a panic path). `shutdown` is the clean way.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.shared.job_ready.notify_all();
    }
}

/// Client connections one reactor holds, in the server and the router
/// alike; an accept past this is answered [`Response::Overloaded`] and
/// closed.
pub(crate) const MAX_CONNECTIONS: usize = 2048;
/// Unanswered pipelined requests one client connection may have in flight
/// before its reactor stops reading the socket (TCP backpressure), in the
/// server and the router alike.
pub(crate) const MAX_PIPELINED: usize = 32;
/// The router's idle timeout for front connections, and the default
/// [`ServeConfig::read_timeout`].
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Longest one readiness wait blocks, which bounds how late a reactor
/// notices a shutdown request.
const TURN: Duration = Duration::from_millis(250);
/// How often a reactor sweeps idle connections.
const SWEEP_INTERVAL: Duration = Duration::from_secs(1);
/// How long a shutdown waits for in-flight answers to drain.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// A client connection: its socket, the interest registered for it, and
/// the socket-free [`Conn`] that decides everything else.
struct Front {
    stream: TcpStream,
    interest: Interest,
    conn: Conn,
}

/// The client-facing half of a reactor — listener, poller, wake channel,
/// and every client connection, driven over [`Conn`]. The server and the
/// router both run on it through [`Service`].
pub(crate) struct Frontend {
    pub(crate) poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Front>,
    counters: Arc<ConnCounters>,
    limits: Limits,
    /// Names the service in the connection-shed detail.
    label: &'static str,
    /// Tokens from here up are client connections.
    first_token: u64,
    next_token: u64,
    chunk: Vec<u8>,
}

impl Frontend {
    /// Binds the nonblocking listener (returning its address) and builds
    /// the poller and the wake channel; connection tokens are handed out
    /// from `first_token` up. Every connection gets the front limits
    /// (`MAX_PIPELINED`, [`DEFAULT_MAX_BODY_BYTES`]) and `max_requests`
    /// as its request budget.
    pub(crate) fn bind(
        addr: &str,
        max_requests: Option<u64>,
        label: &'static str,
        first_token: u64,
        counters: Arc<ConnCounters>,
    ) -> std::io::Result<(Frontend, sys::Waker, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        sys::deepen_backlog(&listener)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let (waker, wake_rx) = sys::wake_channel()?;
        poller.register(listener.as_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(wake_rx.as_fd(), TOKEN_WAKER, Interest::READABLE)?;
        let front = Frontend {
            poller,
            listener,
            wake_rx,
            conns: HashMap::new(),
            counters,
            limits: Limits {
                max_body_bytes: DEFAULT_MAX_BODY_BYTES,
                max_pipelined: MAX_PIPELINED,
                max_requests,
            },
            label,
            first_token,
            next_token: first_token,
            chunk: vec![0; 16 * 1024],
        };
        Ok((front, waker, local_addr))
    }

    /// Accepts every pending connection. One past `MAX_CONNECTIONS` is
    /// answered with a typed `Overloaded` frame and closed: shedding with
    /// an answer is the contract, so clients always learn *why*.
    fn accept(&mut self) {
        loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let _ = stream.set_nodelay(true);
            let held = self.conns.len();
            if held >= MAX_CONNECTIONS {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                let response = Response::Overloaded {
                    queued: held as u32,
                    detail: format!(
                        "{} {held} connections (cap {MAX_CONNECTIONS}); retry later",
                        self.label
                    ),
                };
                // The socket is fresh, so this tiny frame lands in the empty
                // send buffer; a 1s timeout bounds the pathological case.
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                if let Ok(bytes) = response.to_frame().encode() {
                    let _ = stream.write_all(&bytes);
                }
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            let interest = Interest::READABLE;
            if stream.set_nonblocking(true).is_err()
                || self
                    .poller
                    .register(stream.as_fd(), token, interest)
                    .is_err()
            {
                continue;
            }
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            let conn = Conn::new(self.limits, Instant::now());
            let front = Front {
                stream,
                interest,
                conn,
            };
            self.conns.insert(token, front);
        }
    }

    /// Reads one chunk into a connection that wants input. False when
    /// there is nothing more to read now: the socket would block, the peer
    /// finished, the pipeline is at its cap, or the connection is gone.
    fn read(&mut self, token: u64) -> bool {
        let Some(front) = self.conns.get_mut(&token) else {
            return false;
        };
        if !front.conn.wants_read() {
            return false;
        }
        match conn::read_nonblocking(&mut front.stream, &mut self.chunk) {
            Ok(Some(0)) => front.conn.peer_closed(),
            Ok(Some(n)) => {
                front.conn.received(&self.chunk[..n], Instant::now());
                return true;
            }
            Ok(None) => {}
            Err(_) => self.close(token),
        }
        false
    }

    /// Fills a slot; a connection closed meanwhile makes this a no-op.
    pub(crate) fn fill(&mut self, token: u64, seq: u64, response: &Response) {
        if let Some(front) = self.conns.get_mut(&token) {
            front.conn.fill(seq, response, &self.counters);
        }
    }

    /// Fills a slot with an encoded frame; a no-op on a closed connection.
    pub(crate) fn fill_bytes(&mut self, token: u64, seq: u64, bytes: Vec<u8>) {
        if let Some(front) = self.conns.get_mut(&token) {
            front.conn.fill_bytes(seq, bytes);
        }
    }

    /// Writes what the socket accepts, closes a finished connection, and
    /// applies the interest its state now calls for. False when the
    /// connection was closed.
    fn flush(&mut self, token: u64) -> bool {
        let Some(front) = self.conns.get_mut(&token) else {
            return false;
        };
        let open = match conn::write_nonblocking(&mut front.stream, front.conn.output()) {
            Ok(n) => {
                front.conn.wrote(n, Instant::now());
                let (fd, wanted) = (front.stream.as_fd(), front.conn.interest());
                !front.conn.finished()
                    && (self.poller)
                        .update(fd, token, &mut front.interest, wanted)
                        .is_ok()
            }
            Err(_) => false,
        };
        if !open {
            self.close(token);
        }
        open
    }

    /// Dropping a stream closes the fd, which also removes it from the
    /// epoll set; the explicit deregister covers the (benign) case of the
    /// kernel delaying that.
    fn close(&mut self, token: u64) {
        if let Some(front) = self.conns.remove(&token) {
            let _ = self.poller.deregister(front.stream.as_fd());
        }
    }

    /// Closes every connection `doomed` picks, as [`Frontend::close`] does.
    fn close_where(&mut self, doomed: impl Fn(&Conn) -> bool) {
        let poller = &self.poller;
        self.conns.retain(|_, front| {
            let close = doomed(&front.conn);
            if close {
                let _ = poller.deregister(front.stream.as_fd());
            }
            !close
        });
    }
}

/// A reactor built on a [`Frontend`]. It supplies what to do with each
/// decoded request, plus hooks for the work it carries besides client
/// connections; the event loop, the read-parse-flush cycle, the idle
/// sweep, and the shutdown drain are the trait's, one copy for the server
/// and the router.
pub(crate) trait Service {
    fn front(&mut self) -> &mut Frontend;

    /// Answers, hands off, or forwards one decoded request.
    fn request(&mut self, token: u64, incoming: Incoming);

    /// An event on a descriptor the service registered itself.
    fn event(&mut self, _ev: &Event) {}

    /// Work after each batch of events.
    fn turn(&mut self) {}

    /// Periodic work, once per [`SWEEP_INTERVAL`].
    fn sweep(&mut self, _now: Instant) {}

    /// The shutdown drain began: no request will be parsed again.
    fn draining(&mut self) {}

    /// Serves until `shutdown` is set, then drains: stop accepting, stop
    /// parsing, close each connection once nothing is pending on it (so
    /// in-flight requests complete and flush), and give up on the rest
    /// after [`SHUTDOWN_GRACE`].
    fn run(&mut self, shutdown: &AtomicBool, idle_timeout: Duration) {
        let mut events = Vec::new();
        let mut last_sweep = Instant::now();
        let mut shutdown_at: Option<Instant> = None;
        loop {
            if self.front().poller.wait(&mut events, Some(TURN)).is_err() {
                continue;
            }
            if shutdown_at.is_none() && shutdown.load(Ordering::SeqCst) {
                let front = self.front();
                let _ = front.poller.deregister(front.listener.as_fd());
                for front in front.conns.values_mut() {
                    front.conn.close_when_drained();
                }
                shutdown_at = Some(Instant::now());
                self.draining();
            }
            for ev in &events {
                let front = self.front();
                match ev.token {
                    TOKEN_LISTENER if shutdown_at.is_none() => front.accept(),
                    TOKEN_LISTENER => {}
                    TOKEN_WAKER => sys::drain_wakes(&front.wake_rx),
                    token if token < front.first_token => self.event(ev),
                    // Stale event for a connection closed earlier in this
                    // batch.
                    token if !front.conns.contains_key(&token) => {}
                    token if ev.hangup => front.close(token),
                    token => {
                        if (!ev.writable || front.flush(token)) && ev.readable {
                            self.readable(token);
                        }
                    }
                }
            }
            self.turn();
            let now = Instant::now();
            if now.duration_since(last_sweep) >= SWEEP_INTERVAL {
                last_sweep = now;
                self.sweep(now);
                self.front()
                    .close_where(|conn| conn.timed_out(now, idle_timeout));
            }
            if let Some(began) = shutdown_at {
                let front = self.front();
                front.close_where(Conn::idle);
                if front.conns.is_empty() || now.duration_since(began) > SHUTDOWN_GRACE {
                    return;
                }
            }
        }
    }

    /// Reads everything available, handing each complete request over as
    /// it is parsed, then settles the connection.
    fn readable(&mut self, token: u64) {
        while self.front().read(token) {
            self.parse(token);
        }
        self.advance(token);
    }

    /// Settles a connection after IO or answers: parse what the pipeline
    /// cap deferred (or resolve a half-close), then flush.
    fn advance(&mut self, token: u64) {
        self.parse(token);
        self.front().flush(token);
    }

    fn parse(&mut self, token: u64) {
        loop {
            let front = self.front();
            let Some(f) = front.conns.get_mut(&token) else {
                return;
            };
            let Some(incoming) = f.conn.next_request(&front.counters, Instant::now()) else {
                return;
            };
            self.request(token, incoming);
        }
    }
}

/// The server's reactor: decoded requests are answered inline or handed
/// to the worker pool, whose completions come back through the waker.
struct Reactor {
    front: Frontend,
    shared: Arc<Shared>,
}

impl Service for Reactor {
    fn front(&mut self) -> &mut Frontend {
        &mut self.front
    }

    /// Answers one decoded request inline, hands it to the worker pool, or
    /// sheds it.
    fn request(&mut self, token: u64, Incoming { seq, request, .. }: Incoming) {
        let shared = &self.shared;
        // Zero-hold pings, stats snapshots and peer `FetchCert` lookups run
        // on the reactor: none simulates, and each keeps answering while the
        // pool is saturated. Queued behind a busy pool, a `FetchCert` would
        // stall the asking shard's worker until its peer read timeout.
        let inline = match &request {
            Request::Ping { hold_ms, .. } => (*hold_ms).min(shared.config.max_hold_ms) == 0,
            Request::Stats | Request::FetchCert { .. } => true,
            _ => false,
        };
        if inline {
            let response = contained(|| dispatch(request, shared));
            return self.front.fill(token, seq, &response);
        }
        let mut jobs = relock(shared.jobs.lock());
        let busy = shared.busy_workers.load(Ordering::SeqCst);
        if busy < shared.config.workers || jobs.len() < shared.config.queue_depth {
            jobs.push_back(Job {
                conn: token,
                seq,
                request,
            });
            drop(jobs);
            shared.job_ready.notify_one();
            return;
        }
        let queued = jobs.len() as u32;
        drop(jobs);
        shared
            .counters
            .requests_shed
            .fetch_add(1, Ordering::Relaxed);
        let response = Response::Overloaded {
            queued,
            detail: format!(
                "all {} workers busy and {queued} requests queued; retry later",
                shared.config.workers
            ),
        };
        self.front.fill(token, seq, &response);
    }

    /// Drains the completion queue: fill slots, then settle each touched
    /// connection (which also re-parses frames the pipeline cap deferred).
    fn turn(&mut self) {
        let done = std::mem::take(&mut *relock(self.shared.completions.lock()));
        for done in done {
            self.front.fill(done.conn, done.seq, &done.response);
            self.advance(done.conn);
        }
    }

    /// Drain mode was entered in this order: stop accepting, stop parsing
    /// (so no job is ever enqueued again), and only now tell the workers
    /// the queue can no longer grow — that ordering is what lets a worker
    /// exit on "closed + empty" without orphaning a connection
    /// mid-pipeline.
    fn draining(&mut self) {
        self.shared.jobs_closed.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = relock(shared.jobs.lock());
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                // Exit only once the reactor has promised no more jobs
                // (`jobs_closed`), not on the shutdown flag alone — a
                // worker that quits while the reactor is still parsing
                // would orphan a connection mid-pipeline.
                if shared.jobs_closed.load(Ordering::SeqCst) {
                    return;
                }
                jobs = relock(shared.job_ready.wait(jobs));
            }
        };
        shared.busy_workers.fetch_add(1, Ordering::SeqCst);
        let response = contained(|| dispatch(job.request, shared));
        shared.busy_workers.fetch_sub(1, Ordering::SeqCst);
        relock(shared.completions.lock()).push(Completion {
            conn: job.conn,
            seq: job.seq,
            response,
        });
        shared.waker.wake();
    }
}

/// Runs one job with its panics contained: a request that panics (a bug in
/// a protocol or a refuter, say) is answered `Internal` in its own slot,
/// and the worker lives on to serve the next job.
fn contained(job: impl FnOnce() -> Response) -> Response {
    flm_sim::contain_panics(job).unwrap_or_else(|panic| {
        Response::error(ErrorCode::Internal, format!("request panicked: {panic}"))
    })
}

/// Executes one request: a worker runs the CPU-bound kinds, the reactor
/// the inline ones (zero-hold pings, stats, `FetchCert`).
fn dispatch(request: Request, shared: &Shared) -> Response {
    let c = &shared.counters;
    match request {
        Request::Ping { payload, hold_ms } => {
            c.requests_ping.fetch_add(1, Ordering::Relaxed);
            let hold = hold_ms.min(shared.config.max_hold_ms);
            if hold > 0 {
                std::thread::sleep(Duration::from_millis(u64::from(hold)));
            }
            Response::Pong { payload }
        }
        Request::Refute(params) => {
            c.requests_refute.fetch_add(1, Ordering::Relaxed);
            let theorem = match Theorem::parse(&params.theorem) {
                Ok(theorem) => theorem,
                Err(e) => return Response::error(ErrorCode::BadRequest, e),
            };
            let policy = query::clamp_policy(params.policy);
            let protocol = params.protocol.as_deref();
            let graph = params.graph.as_ref();
            let f = params.f as usize;
            // One key for ownership and the store: the clamped query's, the
            // same key `shard::routing_key` gives the router.
            let key = query::canonical_query_key(theorem, protocol, graph, f, &policy);
            // Sharded: an off-owner request is answered with the owner's
            // address, never silently double-simulated.
            if let Some(role) = &shared.config.shard {
                let owner = role.map.owner_of(&key);
                if owner != role.id {
                    c.wrong_shard.fetch_add(1, Ordering::Relaxed);
                    return Response::WrongShard {
                        owner,
                        addr: role.map.addr(owner).to_owned(),
                    };
                }
            }
            if theorem == Theorem::FlpAsync {
                c.async_refutes.fetch_add(1, Ordering::Relaxed);
            }

            // Durable layer first: memory → disk → simulate. A stored hit
            // is byte-identical to a fresh run of the same canonical key
            // (determinism axiom), so which layer answered is invisible to
            // the client.
            if let Some(store) = &shared.store {
                if let Some(bytes) = store.lookup(&key) {
                    return Response::Certificate { bytes };
                }
                // Owned key, cold store: before paying for a simulation,
                // ask the peer shards — after a topology change the
                // previous owner's disk still holds the certificate.
                if let Some(bytes) = fetch_from_peers(shared, &key) {
                    store.store(&key, &bytes);
                    return Response::Certificate { bytes };
                }
            }
            match query::refute_to_bytes(theorem, protocol, graph, f, policy) {
                Ok(bytes) => {
                    if let Some(store) = &shared.store {
                        store.store(&key, &bytes);
                    }
                    Response::Certificate { bytes }
                }
                Err(e) => {
                    let code = match e {
                        query::QueryError::BadRequest { .. }
                        | query::QueryError::UnknownTheorem { .. } => ErrorCode::BadRequest,
                        query::QueryError::Refute { .. } => ErrorCode::RefuteFailed,
                        query::QueryError::SelfCheck { .. } => ErrorCode::Internal,
                    };
                    Response::error(code, e)
                }
            }
        }
        Request::Verify { cert } => {
            c.requests_verify.fetch_add(1, Ordering::Relaxed);
            let (verdict, detail) = audit::verify_bytes(&cert);
            Response::Verify { verdict, detail }
        }
        Request::Audit { cert } => {
            c.requests_audit.fetch_add(1, Ordering::Relaxed);
            let report = audit::audit_bytes(&cert, false);
            Response::Audit {
                exit_code: report.exit_code,
                report: report.report,
                diagnostics: report.diagnostics,
            }
        }
        Request::Stats => {
            c.requests_stats.fetch_add(1, Ordering::Relaxed);
            Response::Stats(shared.snapshot())
        }
        Request::FetchCert { key } => {
            c.requests_fetch.fetch_add(1, Ordering::Relaxed);
            // A store lookup (memory, then a verified disk read), never a
            // simulation. Deliberately *not* ownership-checked: the caller
            // is a shard that owns this key now and is asking the previous
            // owner.
            let cert = shared
                .store
                .as_ref()
                .and_then(|store| store.lookup(&RunKey::from_bytes(key)));
            Response::FetchCert { cert }
        }
        Request::PutCert { key, cert } => {
            c.requests_put.fetch_add(1, Ordering::Relaxed);
            // Ownership-checked: certificates are shipped *to* their owner.
            if let Some(role) = &shared.config.shard {
                let owner = role.map.owner_of_bytes(&key);
                if owner != role.id {
                    c.wrong_shard.fetch_add(1, Ordering::Relaxed);
                    return Response::WrongShard {
                        owner,
                        addr: role.map.addr(owner).to_owned(),
                    };
                }
            }
            let Some(store) = &shared.store else {
                let detail = "this server has no store directory; nowhere to keep the certificate";
                return Response::error(ErrorCode::BadRequest, detail);
            };
            // Ship-verify-then-own: shipped bytes pass the same decode +
            // canonical re-encode gate a disk load does before this store
            // will ever serve them.
            if !store::verified_cert_bytes(&cert) {
                let detail = "shipped bytes are not a canonically-encoded FLMC certificate";
                return Response::error(ErrorCode::BadRequest, detail);
            }
            store.store(&RunKey::from_bytes(key), &cert);
            Response::PutCert
        }
    }
}

/// Peer-connect budget for fetch-on-miss: a down peer costs at most this
/// long before the shard falls back to simulating.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(200);
/// Peer-read budget for fetch-on-miss: a lookup is a disk read, not a
/// simulation, so a healthy peer answers in microseconds.
const PEER_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// After a local store miss on an owned key, asks each peer shard's store
/// for the certificate (the pull half of topology-change recovery).
/// Received bytes are adopted only after the ship-verify-then-own gate.
fn fetch_from_peers(shared: &Shared, key: &RunKey) -> Option<Vec<u8>> {
    let role = shared.config.shard.as_ref()?;
    for (peer, addr) in role.map.addrs().iter().enumerate() {
        if peer as u32 == role.id {
            continue;
        }
        let Ok(mut client) = Client::connect_timeout(addr, PEER_CONNECT_TIMEOUT) else {
            continue;
        };
        if client.set_read_timeout(Some(PEER_READ_TIMEOUT)).is_err() {
            continue;
        }
        let Ok(Some(bytes)) = client.fetch_cert(key.bytes()) else {
            continue;
        };
        if store::verified_cert_bytes(&bytes) {
            shared.counters.peer_fetches.fetch_add(1, Ordering::Relaxed);
            return Some(bytes);
        }
    }
    None
}

/// Writes a bound address to a port file atomically — temp file in the
/// same directory, then rename, the `CertStore` discipline — so a
/// concurrently polling reader (the shard-spawning scripts and tests) sees
/// either no file or a complete `host:port\n`, never a half-written one.
///
/// # Errors
///
/// Propagates filesystem failures; the temp file is removed on error.
pub fn write_port_file(path: &Path, addr: SocketAddr) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".port-tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, format!("{addr}\n"))?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_file_write_is_atomic_under_a_concurrent_reader() {
        let dir = std::env::temp_dir().join(format!(
            "flm-portfile-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("port");
        let addr: SocketAddr = "127.0.0.1:7415".parse().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (path, stop) = (path.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Poll like the shard-spawning scripts do: any observed
                // content must be a complete address, never a prefix.
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        assert_eq!(text, "127.0.0.1:7415\n", "partial port file observed");
                    }
                }
            })
        };
        for _ in 0..200 {
            write_port_file(&path, addr).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".port-tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_job_is_answered_internal_and_the_worker_goes_on() {
        match contained(|| panic!("refuter invariant broken")) {
            Response::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(detail.contains("refuter invariant broken"), "{detail}");
            }
            other => panic!("expected a typed Internal error, got {other:?}"),
        }
        let next = contained(|| Response::Pong { payload: vec![7] });
        assert!(matches!(next, Response::Pong { payload } if payload == [7]));
    }

    #[test]
    fn server_binds_ephemeral_and_shuts_down() {
        let server = Server::start(ServeConfig {
            workers: 2,
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        })
        .unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.stats().requests_served(), 0);
        server.shutdown();
    }
}
