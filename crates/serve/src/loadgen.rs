//! Load generation: `N` client connections firing a deterministic mix of
//! refute/verify/audit requests over one or more theorem families at a
//! server or a router, with retry-on-overload.
//!
//! This is both a CLI feature (`flm-client load`) and the machinery behind
//! the `BENCH_serve.json` throughput rows. The request stream is a pure
//! function of the mix, the family list and the connection index, so two
//! runs against the same target issue byte-identical request streams —
//! warm-cache behavior is reproducible. A target that answers Stats with a
//! cluster view (an `flm-router`) also reports what the run changed on
//! each shard.

use std::fmt;
use std::time::{Duration, Instant};

use flm_sim::RunPolicy;

use crate::client::{Client, ClientError, StatsView};
use crate::query::{self, Theorem};
use crate::rpc::{ClusterStatsReport, Verdict};

/// Relative weights of the request kinds in the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Weight of refute requests.
    pub refute: u32,
    /// Weight of verify requests.
    pub verify: u32,
    /// Weight of audit requests.
    pub audit: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            refute: 1,
            verify: 1,
            audit: 1,
        }
    }
}

impl Mix {
    /// Parses a `refute:verify:audit` weight triple, e.g. `2:1:1`.
    ///
    /// # Errors
    ///
    /// Returns a message when the string is not three `:`-separated
    /// non-negative integers with a positive sum.
    pub fn parse(s: &str) -> Result<Mix, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("--mix wants REFUTE:VERIFY:AUDIT, got {s:?}"));
        }
        let parse = |p: &str| -> Result<u32, String> {
            p.parse().map_err(|_| format!("--mix: bad weight {p:?}"))
        };
        let mix = Mix {
            refute: parse(parts[0])?,
            verify: parse(parts[1])?,
            audit: parse(parts[2])?,
        };
        if mix.total() == 0 {
            return Err("--mix: at least one weight must be positive".into());
        }
        Ok(mix)
    }

    /// The weight sum, in `u64` so three `u32` weights cannot overflow it.
    fn total(&self) -> u64 {
        u64::from(self.refute) + u64::from(self.verify) + u64::from(self.audit)
    }

    /// The deterministic request schedule at `slot`: weights interleaved
    /// round-robin (`2:1:1` yields `R R V A R R V A …`), computed from
    /// `slot` modulo the weight sum so no weight-sized pattern is built.
    fn kind_at(&self, slot: usize) -> Kind {
        let r = slot as u64 % self.total().max(1);
        if r < u64::from(self.refute) {
            Kind::Refute
        } else if r < u64::from(self.refute) + u64::from(self.verify) {
            Kind::Verify
        } else {
            Kind::Audit
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Refute,
    Verify,
    Audit,
}

/// What one load run observed, aggregated over every connection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests attempted (including retried ones once each).
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Overloaded answers observed (each is followed by a reconnect and a
    /// retry; an overload is shed load, not an error).
    pub overloaded: u64,
    /// Typed answers that end a request unserved: error responses,
    /// `WrongShard` redirects and `ShardDown` notices.
    pub errors: u64,
    /// Transport failures (connection reset, timeout) — real *dropped*
    /// connections, which a healthy load-shedding server never produces.
    pub transport_errors: u64,
    /// Requests abandoned after exhausting retries.
    pub abandoned: u64,
    /// Response payload bytes received.
    pub bytes_received: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// For a router target, the cluster view's change over the run, less
    /// the after-run Stats probe; `None` for a plain server.
    pub cluster: Option<ClusterStatsReport>,
}

impl LoadReport {
    /// Successful requests per wall-clock second.
    fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    fn absorb(&mut self, other: &LoadReport) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.transport_errors += other.transport_errors;
        self.abandoned += other.abandoned;
        self.bytes_received += other.bytes_received;
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} connections, {} requests in {:.3}s ({:.0} req/s)",
            self.connections,
            self.requests,
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
        )?;
        write!(
            f,
            "ok {}, overloaded {}, errors {}, transport errors {}, abandoned {}, {} KiB received",
            self.ok,
            self.overloaded,
            self.errors,
            self.transport_errors,
            self.abandoned,
            self.bytes_received / 1024,
        )?;
        if let Some(cluster) = &self.cluster {
            write!(f, "\n{}", cluster.to_string().trim_end())?;
        }
        Ok(())
    }
}

/// Retries per logical request before counting it abandoned.
const MAX_ATTEMPTS: u32 = 5;

/// Drives `connections` concurrent clients, each issuing `requests_per_conn`
/// requests against `addr`. Slot `i` of connection `c` takes its kind from
/// `mix` at `i + c` and its family from `theorems[(i + c) % len]`, at the
/// family's canonical defaults; verify/audit requests carry a locally
/// pre-built certificate for the same query. Overloaded answers reconnect
/// and retry with linear backoff; typed error, `WrongShard` and `ShardDown`
/// answers count in `errors` and end the request.
///
/// One Stats request before the run tells a router from a plain server;
/// for a router a second one after the run fills [`LoadReport::cluster`].
///
/// # Errors
///
/// Returns a message when `theorems` is empty or the local certificate
/// pre-build fails (the target is never contacted in either case).
pub fn run(
    addr: &str,
    connections: usize,
    requests_per_conn: usize,
    mix: Mix,
    theorems: &[Theorem],
) -> Result<LoadReport, String> {
    if theorems.is_empty() {
        return Err("load wants at least one theorem family".into());
    }
    // Verify/audit payloads are built locally, once per family: the same
    // bytes the server would serve for the query (byte-determinism is the
    // whole point), so the load stream needs no warm-up request.
    let certs = theorems
        .iter()
        .map(|&t| {
            if mix.verify == 0 && mix.audit == 0 {
                return Ok(Vec::new());
            }
            query::refute_to_bytes(t, None, None, 1, RunPolicy::default())
                .map_err(|e| format!("pre-building the {} verify/audit payload: {e}", t.name()))
        })
        .collect::<Result<Vec<Vec<u8>>, String>>()?;
    let before = cluster_stats(addr);
    let start = Instant::now();
    let worker = |conn: usize| -> LoadReport {
        let mut report = LoadReport::default();
        let mut client = None;
        for i in 0..requests_per_conn {
            let slot = i.wrapping_add(conn); // staggered: connections never run in lock-step
            let family = slot % theorems.len();
            let (kind, theorem, cert) = (mix.kind_at(slot), theorems[family], &certs[family]);
            report.requests += 1;
            'request: {
                for attempt in 0..u64::from(MAX_ATTEMPTS) {
                    let outcome = match client.as_mut() {
                        Some(c) => Ok(c),
                        None => Client::connect(addr).map(|c| client.insert(c)),
                    }
                    .and_then(|c| send(c, kind, theorem, cert));
                    match outcome {
                        Ok(bytes) => {
                            report.ok += 1;
                            report.bytes_received += bytes as u64;
                            break 'request;
                        }
                        Err(
                            ClientError::ErrorResponse { .. }
                            | ClientError::WrongShard { .. }
                            | ClientError::ShardDown { .. },
                        ) => {
                            report.errors += 1;
                            break 'request;
                        }
                        Err(ClientError::Overloaded { .. }) => {
                            // Shed: the server answered and closed. Reconnect
                            // with a linear backoff and retry the same request.
                            report.overloaded += 1;
                            client = None;
                            std::thread::sleep(Duration::from_millis(attempt * 2 + 1));
                        }
                        Err(_) => {
                            report.transport_errors += 1;
                            client = None;
                            std::thread::sleep(Duration::from_millis(attempt + 1));
                        }
                    }
                }
                report.abandoned += 1;
            }
        }
        report
    };
    let mut total = LoadReport {
        connections,
        ..LoadReport::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || worker(c)))
            .collect();
        for handle in handles {
            total.absorb(&handle.join().unwrap_or_default());
        }
    });
    total.elapsed = start.elapsed();
    if let Some(before) = before {
        total.cluster = cluster_stats(addr).map(|after| {
            let mut delta = after.since(&before);
            // Take the after-run probe out: its connection, its Stats
            // request, and the fan-out routed to every shard that was up.
            let router = &mut delta.router;
            router.connections_accepted = router.connections_accepted.saturating_sub(1);
            router.requests_local = router.requests_local.saturating_sub(1);
            for shard in &mut delta.shards {
                shard.routed = shard.routed.saturating_sub(u64::from(shard.up));
            }
            delta
        });
    }
    Ok(total)
}

/// Sends one request of `kind` and returns the response payload size.
fn send(c: &mut Client, kind: Kind, theorem: Theorem, cert: &[u8]) -> Result<usize, ClientError> {
    match kind {
        Kind::Refute => c
            .refute(theorem.name(), None, None, 1, None)
            .map(|bytes| bytes.len()),
        Kind::Verify => c.verify(cert).map(|(verdict, detail)| {
            if verdict == Verdict::Verified {
                detail.len()
            } else {
                0
            }
        }),
        Kind::Audit => c
            .audit(cert)
            .map(|(_, report, diagnostics)| report.len() + diagnostics.len()),
    }
}

/// The target's cluster view, or `None` when it is a plain server (or does
/// not answer Stats at all; the run itself then counts the failures).
fn cluster_stats(addr: &str) -> Option<ClusterStatsReport> {
    match Client::connect(addr).and_then(|mut c| c.stats_view()) {
        Ok(StatsView::Cluster(report)) => Some(report),
        _ => None,
    }
}

/// What one simultaneous-ping wave observed (see [`ping_wave`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PingWaveReport {
    /// Sockets the wave tried to open.
    pub connections: usize,
    /// Pings answered with a correctly echoed pong.
    pub ok: u64,
    /// Typed `Overloaded` answers (shed load, not dropped sockets).
    pub overloaded: u64,
    /// Connect failures, write failures, read failures, or wrong answers —
    /// anything a healthy server must not produce.
    pub transport_errors: u64,
    /// Wall-clock duration of the whole wave.
    pub elapsed: Duration,
}

impl fmt::Display for PingWaveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} simultaneous connections in {:.3}s: ok {}, overloaded {}, transport errors {}",
            self.connections,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.overloaded,
            self.transport_errors,
        )
    }
}

/// Opens `connections` sockets *simultaneously*, writes one zero-hold ping
/// on every socket, then collects every pong. All sockets are held open
/// until the last response arrives, so a server passing this with `ok ==
/// connections` demonstrably served that many concurrent connections
/// without dropping one. The single-threaded write-all-then-read-all shape
/// is sound because ping frames and pongs are tiny: the kernel's socket
/// buffers absorb the whole wave on both sides.
pub fn ping_wave(addr: &str, connections: usize) -> PingWaveReport {
    use crate::frame::{read_frame, write_frame, DEFAULT_MAX_BODY_BYTES};
    use crate::rpc::{Request, Response};

    let start = Instant::now();
    let mut report = PingWaveReport {
        connections,
        ..PingWaveReport::default()
    };
    // Phase 1: connect everything. A slot that never connects (even after
    // linear-backoff retries against a transient accept-backlog overflow)
    // is a counted transport error, not a panic.
    let mut socks: Vec<Option<std::net::TcpStream>> = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut sock = None;
        for attempt in 0..MAX_ATTEMPTS {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                    sock = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(u64::from(attempt) + 1)),
            }
        }
        if sock.is_none() {
            report.transport_errors += 1;
        }
        socks.push(sock);
    }
    // Phase 2: one ping per socket, all written before any response is read.
    for (i, sock) in socks.iter_mut().enumerate() {
        let Some(s) = sock.as_mut() else { continue };
        let request = Request::Ping {
            payload: (i as u32).to_le_bytes().to_vec(),
            hold_ms: 0,
        };
        if write_frame(s, &request.to_frame()).is_err() {
            report.transport_errors += 1;
            *sock = None;
        }
    }
    // Phase 3: collect every pong; the sockets stay open until all arrive.
    for (i, sock) in socks.iter_mut().enumerate() {
        let Some(s) = sock.as_mut() else { continue };
        let response = read_frame(s, DEFAULT_MAX_BODY_BYTES)
            .ok()
            .and_then(|frame| Response::from_frame(&frame).ok());
        match response {
            Some(Response::Pong { payload }) if payload == (i as u32).to_le_bytes() => {
                report.ok += 1;
            }
            Some(Response::Overloaded { .. }) => report.overloaded += 1,
            _ => report.transport_errors += 1,
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        assert_eq!(
            Mix::parse("2:1:1").unwrap(),
            Mix {
                refute: 2,
                verify: 1,
                audit: 1
            }
        );
        assert!(Mix::parse("1:1").is_err());
        assert!(Mix::parse("0:0:0").is_err());
        assert!(Mix::parse("a:1:1").is_err());
    }

    /// Weights whose `u32` sum overflows parse: the sum is taken in `u64`.
    #[test]
    fn mix_weights_near_u32_max_parse_without_overflow() {
        let mix = Mix::parse("4294967295:1:0").unwrap();
        assert_eq!(mix.refute, u32::MAX);
        assert_eq!(mix.total(), 1 << 32);
        assert_eq!(mix.kind_at(0), Kind::Refute);
        assert!(Mix::parse("4294967296:0:0").is_err());
    }

    fn schedule(mix: Mix, len: usize) -> Vec<Kind> {
        (0..len).map(|slot| mix.kind_at(slot)).collect()
    }

    #[test]
    fn schedule_is_deterministic_and_weighted() {
        let mix = Mix {
            refute: 2,
            verify: 1,
            audit: 1,
        };
        let s = schedule(mix, 8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.iter().filter(|k| **k == Kind::Refute).count(), 4);
        assert_eq!(s.iter().filter(|k| **k == Kind::Verify).count(), 2);
        assert_eq!(s.iter().filter(|k| **k == Kind::Audit).count(), 2);
        assert_eq!(s, schedule(mix, 8));
        assert_eq!(
            &s[..4],
            [Kind::Refute, Kind::Refute, Kind::Verify, Kind::Audit]
        );
    }

    /// A 4-billion weight is arithmetic on the slot, not a 4-billion-entry
    /// pattern: the schedule comes back at once, all refutes.
    #[test]
    fn huge_weight_schedules_without_a_weight_sized_pattern() {
        let mix = Mix::parse("4000000000:0:0").unwrap();
        assert_eq!(schedule(mix, 8), vec![Kind::Refute; 8]);
        let mix = Mix::parse("4000000000:1:0").unwrap();
        assert_eq!(mix.kind_at(3_999_999_999), Kind::Refute);
        assert_eq!(mix.kind_at(4_000_000_000), Kind::Verify);
        assert_eq!(mix.kind_at(4_000_000_001), Kind::Refute);
    }

    /// Regression for the reconnect path: a server that is never reachable
    /// must yield a report full of counted transport errors and abandoned
    /// requests — the `.expect("just inserted")` this pins against panicked
    /// the generator mid-campaign instead.
    #[test]
    fn unreachable_server_is_counted_not_a_panic() {
        // Port 1 on loopback: nothing listens there, so every connect is
        // refused immediately.
        let report = run("127.0.0.1:1", 2, 2, Mix::default(), &[Theorem::BaNodes]).unwrap();
        assert_eq!(report.ok, 0);
        assert_eq!(report.abandoned, 4, "{report}");
        assert_eq!(
            report.transport_errors,
            u64::from(MAX_ATTEMPTS) * 4,
            "{report}"
        );
        assert_eq!(report.cluster, None);
        assert!(run("127.0.0.1:1", 1, 1, Mix::default(), &[]).is_err());
    }

    #[test]
    fn report_renders_throughput() {
        let report = LoadReport {
            connections: 2,
            requests: 10,
            ok: 10,
            elapsed: Duration::from_secs(2),
            ..LoadReport::default()
        };
        assert!((report.throughput_rps() - 5.0).abs() < 1e-9);
        assert!(report.to_string().contains("2 connections"));
        assert!(!report.to_string().contains("shards up"));
    }
}
