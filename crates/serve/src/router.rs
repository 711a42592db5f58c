//! The `flm-router` front: a second epoll driver over the connection core
//! (`crate::conn`) that fans a sharded cluster out behind one address.
//!
//! # Architecture
//!
//! One nonblocking thread owns the front listener, every front connection,
//! and one persistent pipelined connection per shard. Front connections
//! run on the server's `Frontend` and `crate::conn::Conn`, with no
//! per-connection request budget. A front request is
//! parsed just enough to route: keyed requests (Refute by
//! [`crate::shard::routing_key`], Verify/Audit by certificate fingerprint,
//! FetchCert/PutCert by their key bytes) are forwarded verbatim to the
//! owning shard's connection; Ping is answered locally (the router echoes
//! with zero hold — liveness of the router, not of a shard); Stats fans
//! out to every shard and aggregates the answers into one
//! [`Response::ClusterStats`] view alongside the router's own counters.
//!
//! Because each shard answers its connection in strict request order (the
//! serve plane's pipelining contract), a per-backend FIFO of pending
//! entries is all the correlation the router needs: the k-th response
//! frame on a backend belongs to the k-th unanswered request the router
//! wrote to it; backends decode with the same `FrameReader` and write
//! with the same nonblocking loop as the front connections.
//!
//! # Failure semantics
//!
//! A backend that refuses connections or drops mid-stream is marked down:
//! every request pending on it — and every new request routed to it — is
//! answered with a typed [`Response::ShardDown`] naming the shard, so one
//! dead shard degrades exactly its key range while every other range keeps
//! serving warm. The router retries the connect on a timer (bounded
//! blocking connect, so a dead shard costs milliseconds per sweep, not a
//! wedged reactor) and the range heals the moment the shard is back.
//!
//! A shard closing the backend connection at its per-connection request
//! budget is not a failure: the router opens a fresh connection and
//! re-sends, in order, every request still pending on the old one.
//!
//! # Shedding
//!
//! Two levels, both answered and typed: a front accept past
//! `server::MAX_CONNECTIONS` (2,048) is answered [`Response::Overloaded`]
//! and closed; a request for a backend whose pending queue is at
//! `BACKEND_PENDING_CAP` (256, in this module) is answered `Overloaded`
//! with the connection kept open — per-shard backpressure, not per-router.
//!
//! # Limits
//!
//! The front shares the server's constants: `server::MAX_PIPELINED` (32)
//! requests in flight per connection, [`DEFAULT_MAX_BODY_BYTES`] per frame
//! body (backend frames too), and `server::IDLE_TIMEOUT` (10 s) for idle
//! front connections.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{self, ConnCounters, FrameReader, Incoming};
use crate::frame::{Frame, DEFAULT_MAX_BODY_BYTES};
use crate::rpc::{
    kind, ClusterStatsReport, ErrorCode, Request, Response, RouterStatsReport, ShardStatus,
    StatsReport,
};
use crate::server::{Frontend, Service, IDLE_TIMEOUT};
use crate::shard::{self, ShardMap};
use crate::sys::{self, Event, Interest};

/// Router configuration. The limits are constants (see the module's
/// *Limits* section): the front shares the server's, and
/// `BACKEND_PENDING_CAP` bounds each backend.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Front bind address, e.g. `127.0.0.1:7415` or `127.0.0.1:0`.
    pub addr: String,
    /// The shard topology — must be byte-identical to what every shard was
    /// started with, or ownership checks will disagree.
    pub shards: ShardMap,
    /// How often a down backend's connect is retried.
    pub reconnect_interval: Duration,
}

impl RouterConfig {
    /// A configuration fronting `shards`, retrying a down shard every
    /// second.
    pub fn new(addr: impl Into<String>, shards: ShardMap) -> RouterConfig {
        RouterConfig {
            addr: addr.into(),
            shards,
            reconnect_interval: Duration::from_secs(1),
        }
    }
}

/// Unanswered requests one backend may carry before further requests for
/// that shard are shed with [`Response::Overloaded`].
pub(crate) const BACKEND_PENDING_CAP: usize = 256;

/// Router counters, shared with the handle for observability.
#[derive(Default)]
struct Counters {
    conn: Arc<ConnCounters>,
    requests_routed: AtomicU64,
    requests_local: AtomicU64,
    requests_shed: AtomicU64,
    shard_down_answers: AtomicU64,
    backend_reconnects: AtomicU64,
}

/// Per-shard observability shared with the handle.
struct ShardGauge {
    routed: AtomicU64,
    up: AtomicBool,
}

struct Shared {
    config: RouterConfig,
    counters: Counters,
    gauges: Vec<ShardGauge>,
    shutdown: AtomicBool,
    waker: sys::Waker,
}

impl Shared {
    fn snapshot(&self) -> RouterStatsReport {
        let c = &self.counters;
        RouterStatsReport {
            connections_accepted: c.conn.accepted.load(Ordering::Relaxed),
            connections_shed: c.conn.shed.load(Ordering::Relaxed),
            requests_routed: c.requests_routed.load(Ordering::Relaxed),
            requests_local: c.requests_local.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
            responses_error: c.conn.responses_error.load(Ordering::Relaxed),
            malformed_frames: c.conn.malformed_frames.load(Ordering::Relaxed),
            shard_down_answers: c.shard_down_answers.load(Ordering::Relaxed),
            backend_reconnects: c.backend_reconnects.load(Ordering::Relaxed),
        }
    }
}

/// A running router. Like [`crate::server::Server`]: `shutdown` for a
/// clean join, `wait` to park a binary on it.
pub struct Router {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the front listener, connects to every reachable shard, and
    /// spawns the reactor. Shards that are not yet up are fine — their
    /// ranges answer [`Response::ShardDown`] until the reconnect sweep
    /// finds them.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation failures only; backend connects
    /// are retried, never fatal.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        let first_front = FIRST_BACKEND_TOKEN + u64::from(config.shards.count());
        let counters = Counters::default();
        // The front carries no request budget: a client reaching several
        // shards through one connection is the router's whole point.
        let (front, waker, local_addr) = Frontend::bind(
            &config.addr,
            None,
            "router serving",
            first_front,
            Arc::clone(&counters.conn),
        )?;
        let gauges = (0..config.shards.count())
            .map(|_| ShardGauge {
                routed: AtomicU64::new(0),
                up: AtomicBool::new(false),
            })
            .collect();
        let shared = Arc::new(Shared {
            config,
            counters,
            gauges,
            shutdown: AtomicBool::new(false),
            waker,
        });
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let shards = shared.config.shards.count() as usize;
                let mut reactor = Reactor {
                    front,
                    shared: Arc::clone(&shared),
                    backends: (0..shards).map(|_| Backend::default()).collect(),
                    aggs: HashMap::new(),
                    next_agg: 0,
                };
                // First connect pass before serving: a cluster whose shards
                // are already up routes from the first request.
                for shard in 0..shards {
                    reactor.try_connect(shard as u32);
                }
                reactor.run(&shared.shutdown, IDLE_TIMEOUT);
            })
        };
        Ok(Router {
            local_addr,
            shared,
            reactor: Some(reactor),
        })
    }

    /// The bound front address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the router's own counters.
    pub fn stats(&self) -> RouterStatsReport {
        self.shared.snapshot()
    }

    /// Shards the router currently holds a live connection to.
    pub fn shards_up(&self) -> u32 {
        self.shared
            .gauges
            .iter()
            .filter(|g| g.up.load(Ordering::Relaxed))
            .count() as u32
    }

    /// Blocks until shutdown; the `flm-router` binary parks here.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }

    /// Stops accepting, flushes what can be flushed, and joins the reactor.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }
}

/// Backend tokens are fixed at `2..2 + shard_count`; front connection
/// tokens start above them.
const FIRST_BACKEND_TOKEN: u64 = 2;

/// Bounded blocking connect for backends: a dead shard costs at most this
/// per reconnect attempt, on the reactor thread by design (the sweep runs
/// at 1 Hz, so worst case is `250ms × dead shards` per second).
const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Who is waiting for a backend's answer.
enum Waiter {
    /// A forwarded front request: the response frame passes through
    /// verbatim into this front slot.
    Front { conn: u64, seq: u64 },
    /// One leg of a Stats fan-out.
    Stats { agg: u64 },
}

/// A request written to a backend and not yet answered. FIFO per backend
/// is sound because shards answer in strict request order. The frame
/// bytes are kept so the request can be re-sent on a fresh connection.
struct Pending {
    waiter: Waiter,
    request: Vec<u8>,
}

/// One shard's connection (or the absence of one).
#[derive(Default)]
struct Backend {
    stream: Option<TcpStream>,
    input: FrameReader,
    output: Vec<u8>,
    pending: VecDeque<Pending>,
    /// Responses received on the current connection.
    answered: u64,
    interest: Interest,
    last_attempt: Option<Instant>,
}

/// A Stats fan-out in flight: the front slot it answers, the router's own
/// report (snapshotted at fan-out time), and the per-shard rows being
/// filled as answers arrive. An aggregation whose front connection closed
/// still completes; its answer then fills nothing.
struct StatsAgg {
    conn: u64,
    seq: u64,
    router: RouterStatsReport,
    shards: Vec<Option<ShardStatus>>,
    outstanding: usize,
}

/// The router's epoll driver: the server's [`Frontend`] for client
/// connections, plus one pipelined connection per shard.
struct Reactor {
    front: Frontend,
    shared: Arc<Shared>,
    backends: Vec<Backend>,
    aggs: HashMap<u64, StatsAgg>,
    next_agg: u64,
}

impl Reactor {
    // ---- backends ----------------------------------------------------

    /// Retries a down backend's connect once the retry interval has passed.
    fn reconnect_if_due(&mut self, shard: u32, now: Instant) {
        let backend = &self.backends[shard as usize];
        let due = backend.stream.is_none()
            && backend
                .last_attempt
                .is_none_or(|t| now.duration_since(t) >= self.shared.config.reconnect_interval);
        if due {
            self.try_connect(shard);
        }
    }

    /// Attempts one bounded connect to a down backend.
    fn try_connect(&mut self, shard: u32) {
        let backend = &mut self.backends[shard as usize];
        if backend.stream.is_some() {
            return;
        }
        backend.last_attempt = Some(Instant::now());
        let Some(stream) = connect_backend(self.shared.config.shards.addr(shard)) else {
            return;
        };
        let token = FIRST_BACKEND_TOKEN + u64::from(shard);
        if self
            .front
            .poller
            .register(stream.as_fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        backend.stream = Some(stream);
        backend.answered = 0;
        backend.interest = Interest::READABLE;
        self.shared
            .counters
            .backend_reconnects
            .fetch_add(1, Ordering::Relaxed);
        self.shared.gauges[shard as usize]
            .up
            .store(true, Ordering::Relaxed);
    }

    /// Drops a backend's connection and whatever bytes were in flight on it.
    fn disconnect(&mut self, shard: u32) {
        let backend = &mut self.backends[shard as usize];
        if let Some(stream) = backend.stream.take() {
            let _ = self.front.poller.deregister(stream.as_fd());
        }
        backend.input.clear();
        backend.output.clear();
    }

    /// Tears a backend down and answers everything pending on it: forwarded
    /// requests become typed `ShardDown`, stats legs report the shard down.
    fn fail_backend(&mut self, shard: u32, why: &str) {
        self.disconnect(shard);
        let backend = &mut self.backends[shard as usize];
        backend.last_attempt = Some(Instant::now());
        let pending = std::mem::take(&mut backend.pending);
        self.shared.gauges[shard as usize]
            .up
            .store(false, Ordering::Relaxed);
        let detail = format!("shard {shard} connection failed: {why}");
        for Pending { waiter, .. } in pending {
            match waiter {
                Waiter::Front { conn, seq } => {
                    let c = &self.shared.counters;
                    c.shard_down_answers.fetch_add(1, Ordering::Relaxed);
                    let response = Response::ShardDown {
                        shard,
                        detail: detail.clone(),
                    };
                    self.front.fill(conn, seq, &response);
                    self.advance(conn);
                }
                Waiter::Stats { agg } => self.stats_leg_answered(agg, shard, None),
            }
        }
    }

    /// Moves a backend to a fresh connection after the shard closed the old
    /// one at its per-connection request budget, and re-sends, in order,
    /// every request still pending. The budget is the shard's connection
    /// hygiene, not a failure of its key range, so nothing is answered
    /// `ShardDown` unless the reconnect itself fails.
    fn renew_backend(&mut self, shard: u32) {
        self.disconnect(shard);
        self.try_connect(shard);
        let backend = &mut self.backends[shard as usize];
        if backend.stream.is_none() {
            self.fail_backend(shard, "reconnect after the request budget failed");
            return;
        }
        for pending in &backend.pending {
            backend.output.extend_from_slice(&pending.request);
        }
        self.flush_backend(shard);
    }

    fn backend_event(&mut self, shard: u32, writable: bool) {
        if self.backends[shard as usize].stream.is_none() {
            return;
        }
        if writable && !self.flush_backend(shard) {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let backend = &mut self.backends[shard as usize];
            let Some(stream) = backend.stream.as_mut() else {
                return;
            };
            match conn::read_nonblocking(stream, &mut chunk) {
                Ok(Some(0)) => return self.fail_backend(shard, "peer closed"),
                Ok(Some(n)) => {
                    backend.input.push(&chunk[..n]);
                    if !self.parse_backend(shard) {
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => return self.fail_backend(shard, &e.to_string()),
            }
        }
    }

    /// Parses complete response frames off a backend, pairing each with the
    /// front of its FIFO. False when the connection was replaced or failed.
    fn parse_backend(&mut self, shard: u32) -> bool {
        loop {
            let backend = &mut self.backends[shard as usize];
            let frame = match backend.input.next_frame(DEFAULT_MAX_BODY_BYTES) {
                Ok(Some(frame)) => frame,
                Ok(None) => return true,
                Err(_) => {
                    self.fail_backend(shard, "malformed response frame");
                    return false;
                }
            };
            // A connection that answered nothing before its budget error
            // would only repeat it: that error passes through instead.
            if backend.answered > 0 && is_budget_error(&frame) {
                self.renew_backend(shard);
                return false;
            }
            let Some(Pending { waiter, .. }) = backend.pending.pop_front() else {
                // A response with no matching request: the backend broke
                // the pipelining contract.
                self.fail_backend(shard, "unsolicited response frame");
                return false;
            };
            backend.answered += 1;
            match waiter {
                Waiter::Front { conn, seq } => {
                    // Pass-through: the shard's bytes are the answer,
                    // re-encoded verbatim.
                    let bytes = frame
                        .encode()
                        .expect("a frame decoded off the wire re-encodes");
                    self.front.fill_bytes(conn, seq, bytes);
                    self.advance(conn);
                }
                Waiter::Stats { agg } => {
                    let report = match Response::from_frame(&frame) {
                        Ok(Response::Stats(report)) => Some(report),
                        _ => None,
                    };
                    self.stats_leg_answered(agg, shard, report);
                }
            }
        }
    }

    /// Writes what the backend accepts and applies the interest that
    /// leaves. False when the backend was failed.
    fn flush_backend(&mut self, shard: u32) -> bool {
        let backend = &mut self.backends[shard as usize];
        let token = FIRST_BACKEND_TOKEN + u64::from(shard);
        let Some(stream) = backend.stream.as_mut() else {
            return false;
        };
        let written = conn::write_nonblocking(stream, &backend.output);
        let result = written.and_then(|n| {
            backend.output.drain(..n);
            let wanted = Interest {
                readable: true,
                writable: !backend.output.is_empty(),
            };
            let poller = &self.front.poller;
            poller.update(stream.as_fd(), token, &mut backend.interest, wanted)
        });
        if let Err(e) = result {
            self.fail_backend(shard, &e.to_string());
            return false;
        }
        true
    }

    /// Queues a request on a backend (connecting lazily if the retry timer
    /// allows) and records who is waiting.
    fn forward(&mut self, shard: u32, request: Vec<u8>, waiter: Waiter) -> ForwardOutcome {
        self.reconnect_if_due(shard, Instant::now());
        let backend = &mut self.backends[shard as usize];
        if backend.stream.is_none() {
            return ForwardOutcome::Down;
        }
        if backend.pending.len() >= BACKEND_PENDING_CAP {
            return ForwardOutcome::Saturated;
        }
        backend.output.extend_from_slice(&request);
        backend.pending.push_back(Pending { waiter, request });
        self.shared.gauges[shard as usize]
            .routed
            .fetch_add(1, Ordering::Relaxed);
        // A failed write answers everything pending, this entry included.
        self.flush_backend(shard);
        ForwardOutcome::Sent
    }

    // ---- stats fan-out ------------------------------------------------

    /// Starts a Stats aggregation for one front slot: snapshot the router,
    /// fan a Stats request out to every shard, mark down shards instantly.
    fn start_stats(&mut self, conn: u64, seq: u64) {
        let count = self.shared.config.shards.count();
        let agg_id = self.next_agg;
        self.next_agg += 1;
        self.aggs.insert(
            agg_id,
            StatsAgg {
                conn,
                seq,
                router: self.shared.snapshot(),
                shards: (0..count).map(|_| None).collect(),
                outstanding: count as usize,
            },
        );
        let stats_frame = Request::Stats
            .to_frame()
            .encode()
            .expect("a Stats frame always encodes");
        for shard in 0..count {
            let waiter = Waiter::Stats { agg: agg_id };
            match self.forward(shard, stats_frame.clone(), waiter) {
                ForwardOutcome::Sent => {}
                // A down shard's row is complete at once; when every shard
                // is down, the last such row completes the aggregation.
                ForwardOutcome::Down | ForwardOutcome::Saturated => {
                    self.stats_leg_answered(agg_id, shard, None);
                }
            }
        }
    }

    /// Records one shard's row (`None` reports the shard down), and
    /// answers the front slot once every row is in.
    fn stats_leg_answered(&mut self, agg_id: u64, shard: u32, report: Option<StatsReport>) {
        let routed = self.shared.gauges[shard as usize]
            .routed
            .load(Ordering::Relaxed);
        let addr = self.shared.config.shards.addr(shard).to_owned();
        let Some(agg) = self.aggs.get_mut(&agg_id) else {
            return;
        };
        agg.shards[shard as usize] = Some(ShardStatus {
            shard,
            addr,
            up: report.is_some(),
            routed,
            report,
        });
        agg.outstanding -= 1;
        if agg.outstanding > 0 {
            return;
        }
        let Some(agg) = self.aggs.remove(&agg_id) else {
            return;
        };
        let report = ClusterStatsReport {
            router: agg.router,
            shards: agg.shards.into_iter().flatten().collect(),
        };
        let response = Response::ClusterStats(report);
        self.front.fill(agg.conn, agg.seq, &response);
        self.advance(agg.conn);
    }
}

impl Service for Reactor {
    fn front(&mut self) -> &mut Frontend {
        &mut self.front
    }

    fn event(&mut self, ev: &Event) {
        self.backend_event((ev.token - FIRST_BACKEND_TOKEN) as u32, ev.writable);
    }

    /// Retries the connect of every down backend that is due.
    fn sweep(&mut self, now: Instant) {
        for shard in 0..self.backends.len() as u32 {
            self.reconnect_if_due(shard, now);
        }
    }

    /// Routes one decoded front request: decode just enough to pick the
    /// shard, then forward the frame bytes verbatim — the shard's encoder
    /// and the client's agree because they are the same code.
    fn request(&mut self, token: u64, incoming: Incoming) {
        let seq = incoming.seq;
        let shared = Arc::clone(&self.shared);
        let c = &shared.counters;
        let fingerprint = match incoming.request {
            Request::Ping { payload, .. } => {
                // The router answers pings itself, with zero hold: a pong
                // through the router proves the router, not a shard.
                c.requests_local.fetch_add(1, Ordering::Relaxed);
                self.front.fill(token, seq, &Response::Pong { payload });
                return;
            }
            Request::Stats => {
                c.requests_local.fetch_add(1, Ordering::Relaxed);
                self.start_stats(token, seq);
                return;
            }
            Request::Refute(params) => match shard::routing_key(&params) {
                Ok(key) => key.fingerprint(),
                Err(e) => {
                    let response = Response::error(ErrorCode::BadRequest, e);
                    return self.front.fill(token, seq, &response);
                }
            },
            // Any shard can verify or audit; fingerprint-of-bytes routing
            // spreads the CPU deterministically.
            Request::Verify { cert } | Request::Audit { cert } => {
                flm_sim::runcache::fingerprint(&cert)
            }
            Request::FetchCert { key } | Request::PutCert { key, .. } => {
                flm_sim::runcache::fingerprint(&key)
            }
        };
        let shard = shard::owner_for_count(shared.config.shards.count(), fingerprint);
        // The body arrived under a `u32` length prefix, so it fits one again.
        let bytes = incoming.frame.encode();
        let bytes = bytes.expect("a frame decoded off the wire re-encodes");
        let response = match self.forward(shard, bytes, Waiter::Front { conn: token, seq }) {
            ForwardOutcome::Sent => {
                c.requests_routed.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ForwardOutcome::Down => {
                c.shard_down_answers.fetch_add(1, Ordering::Relaxed);
                Response::ShardDown {
                    shard,
                    detail: format!(
                        "shard {shard} at {} is unreachable; its key range is degraded",
                        shared.config.shards.addr(shard)
                    ),
                }
            }
            ForwardOutcome::Saturated => {
                c.requests_shed.fetch_add(1, Ordering::Relaxed);
                let pending = self.backends[shard as usize].pending.len() as u32;
                Response::Overloaded {
                    queued: pending,
                    detail: format!(
                        "shard {shard} has {pending} requests in flight \
                         (cap {BACKEND_PENDING_CAP}); retry later"
                    ),
                }
            }
        };
        self.front.fill(token, seq, &response);
    }
}

/// What [`Reactor::forward`] did with a request.
enum ForwardOutcome {
    /// Queued on a live backend (or the backend failed mid-write, in which
    /// case the entry was already answered `ShardDown`).
    Sent,
    /// The shard is down and the retry timer says not yet.
    Down,
    /// The shard's pending queue is at capacity.
    Saturated,
}

/// True for a shard's typed `ConnectionBudget` error. Only error frames
/// are decoded, so certificate answers pass through untouched.
fn is_budget_error(frame: &Frame) -> bool {
    frame.kind == kind::RESP_ERROR
        && matches!(
            Response::from_frame(frame),
            Ok(Response::Error {
                code: ErrorCode::ConnectionBudget,
                ..
            })
        )
}

/// One bounded, blocking connect; the stream comes back nonblocking.
fn connect_backend(addr: &str) -> Option<TcpStream> {
    use std::net::ToSocketAddrs as _;
    let sockaddr = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&sockaddr, BACKEND_CONNECT_TIMEOUT).ok()?;
    stream.set_nonblocking(true).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(addrs: &[&str]) -> ShardMap {
        ShardMap::new(addrs.iter().map(|s| (*s).to_owned()).collect()).unwrap()
    }

    #[test]
    fn router_starts_with_no_shards_up_and_answers_pings() {
        // Point at ports nothing listens on: the router must still bind,
        // answer pings locally, and report zero shards up.
        let config = RouterConfig::new("127.0.0.1:0", map_of(&["127.0.0.1:1", "127.0.0.1:2"]));
        let router = Router::start(config).unwrap();
        let mut client = crate::client::Client::connect(router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.ping(b"hello", 0).unwrap(), b"hello");
        assert_eq!(router.shards_up(), 0);
        let stats = router.stats();
        assert_eq!(stats.requests_local, 1);
        router.shutdown();
    }

    #[test]
    fn keyed_request_to_a_dead_shard_is_typed_shard_down() {
        let config = RouterConfig::new("127.0.0.1:0", map_of(&["127.0.0.1:1"]));
        let router = Router::start(config).unwrap();
        let mut client = crate::client::Client::connect(router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match client.refute("ba-nodes", None, None, 1, None) {
            Err(crate::client::ClientError::ShardDown { shard: 0, .. }) => {}
            other => panic!("expected ShardDown, got {other:?}"),
        }
        assert_eq!(router.stats().shard_down_answers, 1);
        router.shutdown();
    }
}
