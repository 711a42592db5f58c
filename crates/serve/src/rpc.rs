//! The FLMC-RPC message vocabulary: typed requests and responses encoded
//! into [`crate::frame`] bodies with the same [`flm_sim::wire`] codec the
//! certificate format uses.
//!
//! A request names a theorem family, a protocol (through the
//! `flm-protocols` registry grammar), a graph (as `Graph::to_bytes`), and a
//! fault budget; the matching response carries a portable `FLMC`
//! certificate, so anything a server returns can be piped straight into
//! `flm-audit`. Malformed bodies decode to a structured
//! [`RpcDecodeError`] — the server answers those with a typed
//! [`Response::Error`] frame, never a dropped socket. Every message, and
//! both stats tables, is declared once with [`flm_sim::wire_schema!`]: its
//! fields in wire order, each with the context its decode errors name, and
//! its kind byte from the [`kind`] table.

use std::fmt;

use flm_graph::Graph;
use flm_sim::wire::{FieldError, Reader, Tagged, Writer};
use flm_sim::{wire_schema, RunPolicy};

use crate::frame::Frame;

/// Frame kind bytes: the one tag table of [`Request`] and [`Response`],
/// whose variants say what each kind carries. Requests occupy
/// `0x01..=0x07`, successful responses mirror them at `0x81..=0x87` (plus
/// `0x88` for a router's aggregated cluster stats), and the failure
/// responses live at `0xE0` (error), `0xE1` (overloaded — the load-shedding
/// answer), `0xE2` (wrong shard, with an owner hint), and `0xE3` (shard
/// down behind a router). Only the kinds another module names are public.
pub mod kind {
    pub(crate) const REQ_PING: u8 = 0x01;
    pub(crate) const REQ_REFUTE: u8 = 0x02;
    pub(crate) const REQ_VERIFY: u8 = 0x03;
    pub(crate) const REQ_AUDIT: u8 = 0x04;
    pub(crate) const REQ_STATS: u8 = 0x05;
    pub(crate) const REQ_FETCH_CERT: u8 = 0x06;
    pub(crate) const REQ_PUT_CERT: u8 = 0x07;
    /// [`Response::Pong`](super::Response::Pong).
    pub const RESP_PONG: u8 = 0x81;
    pub(crate) const RESP_CERTIFICATE: u8 = 0x82;
    pub(crate) const RESP_VERIFY: u8 = 0x83;
    pub(crate) const RESP_AUDIT: u8 = 0x84;
    pub(crate) const RESP_STATS: u8 = 0x85;
    pub(crate) const RESP_FETCH_CERT: u8 = 0x86;
    pub(crate) const RESP_PUT_CERT: u8 = 0x87;
    pub(crate) const RESP_CLUSTER_STATS: u8 = 0x88;
    /// [`Response::Error`](super::Response::Error); the router spots a
    /// shard's error answers by it without decoding the others.
    pub const RESP_ERROR: u8 = 0xE0;
    pub(crate) const RESP_OVERLOADED: u8 = 0xE1;
    pub(crate) const RESP_WRONG_SHARD: u8 = 0xE2;
    pub(crate) const RESP_SHARD_DOWN: u8 = 0xE3;
}

/// Structured decode failure for RPC bodies; public as the error of
/// [`Request::from_frame`] and [`Response::from_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcDecodeError {
    /// The frame kind byte names no known message.
    UnknownKind(u8),
    /// The body ran out of bytes or had an invalid tag in the named field.
    Corrupt {
        /// Which field was being decoded.
        context: &'static str,
    },
    /// The bytes decoded but describe an impossible value.
    Invalid {
        /// Which field was being decoded.
        context: &'static str,
        /// Why the value is impossible.
        reason: String,
    },
    /// Well-formed message followed by extra bytes.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
}

impl fmt::Display for RpcDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcDecodeError::UnknownKind(k) => write!(f, "unknown message kind 0x{k:02X}"),
            RpcDecodeError::Corrupt { context } => {
                write!(f, "corrupt message: truncated or bad tag in {context}")
            }
            RpcDecodeError::Invalid { context, reason } => {
                write!(f, "invalid message: {context}: {reason}")
            }
            RpcDecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after message body")
            }
        }
    }
}

impl std::error::Error for RpcDecodeError {}

impl From<FieldError> for RpcDecodeError {
    fn from(e: FieldError) -> Self {
        match e {
            FieldError::Corrupt { context } => RpcDecodeError::Corrupt { context },
            FieldError::Invalid { context, reason } => RpcDecodeError::Invalid { context, reason },
        }
    }
}

/// Gives each message type its frame codec: the kind byte from its tag
/// table, and the body that kind's schema declares.
macro_rules! frame_codec {
    ($($ty:ident: $what:literal;)*) => {$(
        impl $ty {
            #[doc = concat!("Encodes the ", $what, " into its frame.")]
            pub fn to_frame(&self) -> Frame {
                let mut w = Writer::new();
                self.put_body(&mut w);
                Frame::new(self.tag(), w.finish())
            }

            #[doc = concat!("Decodes a ", $what, " from a frame.")]
            ///
            /// # Errors
            ///
            /// Returns a structured [`RpcDecodeError`] on unknown kinds,
            /// truncated or invalid bodies (including graphs rejected by
            /// [`Graph::from_bytes`]), and trailing bytes.
            pub fn from_frame(frame: &Frame) -> Result<$ty, RpcDecodeError> {
                let mut r = Reader::new(&frame.body);
                let msg = $ty::get_body(frame.kind, &mut r, $what)?
                    .ok_or(RpcDecodeError::UnknownKind(frame.kind))?;
                if !r.is_empty() {
                    return Err(RpcDecodeError::TrailingBytes {
                        count: r.remaining(),
                    });
                }
                Ok(msg)
            }
        }
    )*};
}

frame_codec! {
    Request: "request";
    Response: "response";
}

/// A refutation query: everything `regen --refute` takes, over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RefuteParams {
    /// Theorem family name (`ba-nodes`, …, `clock-sync`); the grammar of
    /// [`crate::query::Theorem::parse`].
    pub theorem: String,
    /// Protocol name for the registry; `None` uses the family's canonical
    /// default.
    pub protocol: Option<String>,
    /// Base graph; `None` uses the family's canonical default.
    pub graph: Option<Graph>,
    /// Fault budget.
    pub f: u32,
    /// Requested run policy; the server clamps it to its configured
    /// ceiling. `None` means "server default".
    pub policy: Option<RunPolicy>,
}

/// One FLMC-RPC request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Echo `payload` after holding a worker for `hold_ms` milliseconds
    /// (clamped by the server's configured cap). The hold is the load
    /// generator's knob for simulating expensive work and the saturation
    /// tests' knob for provoking load-shedding.
    Ping {
        /// Bytes echoed back in the pong.
        payload: Vec<u8>,
        /// Requested worker-hold duration in milliseconds.
        hold_ms: u32,
    },
    /// Run a refuter and return the resulting certificate.
    Refute(RefuteParams),
    /// Re-verify the violation recorded in the given certificate bytes.
    Verify {
        /// A portable `FLMC` certificate file image.
        cert: Vec<u8>,
    },
    /// Full `flm-audit` path over the given certificate bytes.
    Audit {
        /// A portable `FLMC` certificate file image.
        cert: Vec<u8>,
    },
    /// Fetch server counters, cache statistics, and per-phase timings.
    Stats,
    /// Pull the certificate stored under the given canonical query key
    /// bytes out of this server's `CertStore`. Never ownership-checked:
    /// after a topology change the *new* owner asks the *old* owner, who is
    /// by definition no longer the owner.
    FetchCert {
        /// Full canonical query key bytes (`RunKey::bytes`), not just the
        /// fingerprint — fingerprints index, bytes decide.
        key: Vec<u8>,
    },
    /// Ship a certificate into this server's `CertStore` under the given
    /// key. The receiver verifies the bytes decode and re-encode
    /// canonically before owning them (the same soundness rule as a store
    /// load), and rejects keys it does not own when sharded.
    PutCert {
        /// Full canonical query key bytes.
        key: Vec<u8>,
        /// Portable `FLMC` certificate bytes.
        cert: Vec<u8>,
    },
}

wire_schema! {
    struct RefuteParams {
        theorem: "refute.theorem",
        protocol: "refute.protocol",
        graph: "refute.graph",
        f: "refute.f",
        policy: "refute.policy",
    }
}

wire_schema! {
    enum Request {
        Ping { payload: "ping.payload", hold_ms: "ping.hold_ms" } = kind::REQ_PING,
        Refute(params: "refute") = kind::REQ_REFUTE,
        Verify { cert: "verify.cert" } = kind::REQ_VERIFY,
        Audit { cert: "audit.cert" } = kind::REQ_AUDIT,
        Stats = kind::REQ_STATS,
        FetchCert { key: "fetch_cert.key" } = kind::REQ_FETCH_CERT,
        PutCert { key: "put_cert.key", cert: "put_cert.cert" } = kind::REQ_PUT_CERT,
    }
}

/// Verification verdict, mirroring `flm-audit`'s exit codes, which are
/// also its wire tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Certificate decoded and the violation reproduced (exit 0).
    Verified,
    /// Certificate decoded but the violation did not reproduce (exit 1).
    NotReproduced,
    /// Bytes malformed or protocol unresolvable (exit 2).
    Malformed,
}

wire_schema! {
    enum Verdict {
        Verified = 0,
        NotReproduced = 1,
        Malformed = 2,
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => write!(f, "VERIFIED"),
            Verdict::NotReproduced => write!(f, "NOT REPRODUCED"),
            Verdict::Malformed => write!(f, "MALFORMED"),
        }
    }
}

/// Typed failure codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or its body failed to decode.
    MalformedFrame,
    /// The request decoded but names something the server cannot serve
    /// (unknown theorem, unresolvable protocol, bad graph).
    BadRequest,
    /// The refuter itself declined (adequate graph, model violation, …).
    RefuteFailed,
    /// The connection exhausted its per-connection request budget.
    ConnectionBudget,
    /// Unexpected server-side failure.
    Internal,
}

wire_schema! {
    enum ErrorCode {
        MalformedFrame = 1,
        BadRequest = 2,
        RefuteFailed = 3,
        ConnectionBudget = 4,
        Internal = 5,
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::RefuteFailed => "refute-failed",
            ErrorCode::ConnectionBudget => "connection-budget",
            ErrorCode::Internal => "internal",
        };
        write!(f, "{name}")
    }
}

/// Declares a stats report exactly once: its struct, and its fields' wire
/// order through one `wire_schema!` use, are generated from the same list,
/// so adding a counter is a single-site change that cannot drift between
/// the encoder and the decoder. On the wire the counters travel as a `u32`
/// entry count followed by that many `u64` values, then the optional
/// trailing text field as a string. A peer built with a different table
/// answers with a structured [`RpcDecodeError::Invalid`] instead of
/// silently misaligned reads.
macro_rules! stats_counter_table {
    (
        $(#[$meta:meta])*
        pub struct $report:ident in $context:literal {
            $( $(#[$doc:meta])* $name:ident, )+
        }
        $( $(#[$text_doc:meta])* $text:ident: String, )?
    ) => {
        $(#[$meta])*
        pub struct $report {
            $( $(#[$doc])* pub $name: u64, )+
            $( $(#[$text_doc])* pub $text: String, )?
        }

        impl $report {
            /// How many `u64` counters this build's table carries; the
            /// length tag every encoded report leads with.
            const COUNTER_COUNT: u32 = [$(stringify!($name)),+].len() as u32;

            /// Every counter's change since `earlier` (saturating), gauges
            /// included; a text field is `self`'s.
            fn since(&self, earlier: &$report) -> $report {
                $report {
                    $( $name: self.$name.saturating_sub(earlier.$name), )+
                    $( $text: self.$text.clone(), )?
                }
            }
        }

        wire_schema! {
            struct $report [Self::COUNTER_COUNT => concat!($context, ".counter_count")] {
                $( $name: concat!($context, ".", stringify!($name)), )+
                $( $text: concat!($context, ".", stringify!($text)), )?
            }
        }
    };
}

stats_counter_table! {
    /// Server counters and cache statistics, the body of
    /// [`Response::Stats`]: one length-tagged counter table on the wire
    /// (see `stats_counter_table!`), then `profile` as a plain string.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct StatsReport in "stats" {
        /// Connections the acceptor admitted to the pool.
        connections_accepted,
        /// Connections answered with [`Response::Overloaded`] instead of being
        /// queued.
        connections_shed,
        /// Ping requests served.
        requests_ping,
        /// Refute requests served (successfully or not).
        requests_refute,
        /// Verify requests served.
        requests_verify,
        /// Audit requests served.
        requests_audit,
        /// Stats requests served.
        requests_stats,
        /// Typed error responses sent.
        responses_error,
        /// Frames (or bodies) rejected as malformed.
        malformed_frames,
        /// Process-global run-cache hits (see `flm_sim::runcache::stats`).
        cache_hits,
        /// Process-global run-cache misses.
        cache_misses,
        /// Behaviors currently stored in the run cache.
        cache_entries,
        /// Approximate behavior bytes served from the cache instead of re-run.
        cache_bytes_saved,
        /// Requests answered with [`Response::Overloaded`] while the worker
        /// pool and its queue were saturated (the connection stays open).
        requests_shed,
        /// Certificate-store hits served from its in-memory layer.
        store_mem_hits,
        /// Certificate-store hits served from disk (verified on load).
        store_disk_hits,
        /// Certificate-store lookups that fell through to a simulation.
        store_misses,
        /// Fresh certificates persisted to the store.
        store_stores,
        /// Damaged store entries quarantined instead of served.
        store_quarantined,
        /// Entries evicted from the store's bounded in-memory tier (the tier
        /// whose capacity `--store-mem-cap` sets).
        store_mem_evictions,
        /// FetchCert requests served.
        requests_fetch,
        /// PutCert requests served.
        requests_put,
        /// Requests answered with a typed `WrongShard` (the key's canonical
        /// owner is a different shard).
        wrong_shard,
        /// Certificates pulled from a peer shard's store on a local miss
        /// (verified on receive before being owned).
        peer_fetches,
        /// Refute requests for the asynchronous (`flp-async`) family, a subset
        /// of `requests_refute`.
        async_refutes,
        /// Process-global schedules explored by the asynchronous bivalence
        /// search (see `flm_core::refute::async_search_stats`).
        async_schedules_explored,
        /// Process-global bivalence look-ahead forks taken by the adversarial
        /// scheduler while choosing which delivery keeps the run undecided.
        async_bivalent_forks,
        /// This server's shard id; meaningful only when `shard_count > 0`.
        shard_id,
        /// Shards in the topology this server is part of; `0` means unsharded.
        shard_count,
    }
    /// `flm_core::profile::report()` output when `FLM_PROFILE` is
    /// enabled in the server process; empty otherwise.
    profile: String,
}

impl StatsReport {
    /// Total requests served across every kind.
    pub fn requests_served(&self) -> u64 {
        self.requests_ping
            + self.requests_refute
            + self.requests_verify
            + self.requests_audit
            + self.requests_stats
            + self.requests_fetch
            + self.requests_put
    }

    /// Run-cache hit rate in `[0, 1]`; 0 when nothing was looked up.
    fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Warm answers across every cache layer: run cache plus both store
    /// tiers. The per-shard cluster table reports this as the hit column.
    fn warm_hits(&self) -> u64 {
        self.cache_hits + self.store_mem_hits + self.store_disk_hits
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "connections: {} accepted, {} shed",
            self.connections_accepted, self.connections_shed
        )?;
        writeln!(
            f,
            "requests: {} served (ping {}, refute {}, verify {}, audit {}, stats {})",
            self.requests_served(),
            self.requests_ping,
            self.requests_refute,
            self.requests_verify,
            self.requests_audit,
            self.requests_stats,
        )?;
        writeln!(
            f,
            "rejections: {} typed errors, {} malformed frames, {} requests shed",
            self.responses_error, self.malformed_frames, self.requests_shed
        )?;
        writeln!(
            f,
            "run cache: {} hits / {} misses ({:.1}% hit rate), {} entries, ~{} KiB reused",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.cache_entries,
            self.cache_bytes_saved / 1024,
        )?;
        write!(
            f,
            "cert store: {} mem hits / {} disk hits / {} misses, {} stored, {} quarantined, {} mem evictions",
            self.store_mem_hits,
            self.store_disk_hits,
            self.store_misses,
            self.store_stores,
            self.store_quarantined,
            self.store_mem_evictions,
        )?;
        if self.async_refutes > 0 || self.async_schedules_explored > 0 {
            write!(
                f,
                "\nasync: {} refutes, {} schedules explored, {} bivalent forks",
                self.async_refutes, self.async_schedules_explored, self.async_bivalent_forks,
            )?;
        }
        if self.shard_count > 0 {
            write!(
                f,
                "\nshard: {} of {} ({} fetch, {} put, {} wrong-shard, {} peer fetches)",
                self.shard_id,
                self.shard_count,
                self.requests_fetch,
                self.requests_put,
                self.wrong_shard,
                self.peer_fetches,
            )?;
        }
        if !self.profile.is_empty() {
            write!(f, "\n{}", self.profile.trim_end())?;
        }
        Ok(())
    }
}

stats_counter_table! {
    /// Router-local counters carried in a [`ClusterStatsReport`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RouterStatsReport in "router" {
        /// Front connections the router admitted.
        connections_accepted,
        /// Front connections answered `Overloaded` and closed at the cap.
        connections_shed,
        /// Requests forwarded to a backend shard.
        requests_routed,
        /// Requests answered on the router itself (pings, cluster stats).
        requests_local,
        /// Requests shed with `Overloaded` because the owning backend's
        /// pipeline was full.
        requests_shed,
        /// Typed error responses the router itself produced.
        responses_error,
        /// Frames (or bodies) the router rejected as malformed.
        malformed_frames,
        /// Requests answered with a typed `ShardDown`.
        shard_down_answers,
        /// Successful backend reconnects after a shard came back.
        backend_reconnects,
    }
}

/// One shard's row in a [`ClusterStatsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// Shard id (its index in the `ShardMap`).
    pub shard: u32,
    /// The shard's backend address as the router dials it.
    pub addr: String,
    /// Whether the router's backend connection was up when the view was
    /// assembled.
    pub up: bool,
    /// Requests the router has forwarded to this shard since start.
    pub routed: u64,
    /// The shard's own counters; `None` when the shard was unreachable.
    pub report: Option<StatsReport>,
}

/// The aggregated cluster view a router answers `Stats` with: its own
/// counters plus one row per shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStatsReport {
    /// The router's front-plane counters.
    pub router: RouterStatsReport,
    /// Per-shard rows in shard-id order.
    pub shards: Vec<ShardStatus>,
}

wire_schema! {
    struct ShardStatus {
        shard: "cluster.shard",
        addr: "cluster.addr",
        up: "cluster.up",
        routed: "cluster.routed",
        report: "cluster.report",
    }
}

wire_schema! {
    struct ClusterStatsReport {
        router: "router",
        shards: "cluster.shard_count",
    }
}

impl ClusterStatsReport {
    /// Shards whose backend connection was up.
    pub fn shards_up(&self) -> usize {
        self.shards.iter().filter(|s| s.up).count()
    }

    /// What changed between `earlier` and `self`, two views of one router:
    /// router counters and each shard row's `routed` and report, rows
    /// paired in shard order. `up` is `self`'s; a row whose shard did not
    /// report both times has no report.
    pub fn since(&self, earlier: &ClusterStatsReport) -> ClusterStatsReport {
        let shards = self.shards.iter().zip(&earlier.shards);
        let shards = shards.map(|(now, then)| ShardStatus {
            routed: now.routed.saturating_sub(then.routed),
            report: now
                .report
                .as_ref()
                .zip(then.report.as_ref())
                .map(|(n, t)| n.since(t)),
            ..now.clone()
        });
        ClusterStatsReport {
            router: self.router.since(&earlier.router),
            shards: shards.collect(),
        }
    }
}

impl fmt::Display for ClusterStatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.router;
        writeln!(
            f,
            "router: {} accepted / {} shed connections, {} routed, {} local, {} shed, \
             {} shard-down, {} reconnects",
            r.connections_accepted,
            r.connections_shed,
            r.requests_routed,
            r.requests_local,
            r.requests_shed,
            r.shard_down_answers,
            r.backend_reconnects,
        )?;
        writeln!(
            f,
            "cluster: {}/{} shards up",
            self.shards_up(),
            self.shards.len()
        )?;
        writeln!(
            f,
            "{:>5}  {:<21}  {:<4}  {:>8}  {:>8}  {:>9}  {:>8}  {:>7}",
            "shard", "addr", "up", "routed", "refutes", "warm hits", "stored", "evicted"
        )?;
        for s in &self.shards {
            let (refutes, warm, stored, evicted) = match &s.report {
                Some(rep) => (
                    rep.requests_refute.to_string(),
                    rep.warm_hits().to_string(),
                    rep.store_stores.to_string(),
                    rep.store_mem_evictions.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            writeln!(
                f,
                "{:>5}  {:<21}  {:<4}  {:>8}  {:>8}  {:>9}  {:>8}  {:>7}",
                s.shard,
                s.addr,
                if s.up { "yes" } else { "no" },
                s.routed,
                refutes,
                warm,
                stored,
                evicted,
            )?;
        }
        Ok(())
    }
}

/// One FLMC-RPC response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The echoed payload.
        payload: Vec<u8>,
    },
    /// A successful refutation: portable `FLMC` certificate bytes, ready
    /// for `flm-audit`.
    Certificate {
        /// The certificate file image.
        bytes: Vec<u8>,
    },
    /// Outcome of a [`Request::Verify`].
    Verify {
        /// The verdict.
        verdict: Verdict,
        /// Human-readable detail (failure reason, or the protocol name on
        /// success).
        detail: String,
    },
    /// Outcome of a [`Request::Audit`]: what `flm-audit` would have done.
    Audit {
        /// The `flm-audit` exit code (0 verified, 1 not reproduced, 2
        /// malformed).
        exit_code: u8,
        /// What the binary would print to stdout.
        report: String,
        /// What the binary would print to stderr.
        diagnostics: String,
    },
    /// Server statistics.
    Stats(StatsReport),
    /// Aggregated cluster statistics (a router answering for its shards).
    ClusterStats(ClusterStatsReport),
    /// Outcome of a [`Request::FetchCert`].
    FetchCert {
        /// The stored certificate bytes, or `None` when this server's store
        /// has no (valid) entry under that key.
        cert: Option<Vec<u8>>,
    },
    /// Acknowledgement of a [`Request::PutCert`]: the certificate verified
    /// and was persisted.
    PutCert,
    /// The request's canonical key is owned by a different shard; retry at
    /// the hinted owner.
    WrongShard {
        /// The owning shard's id.
        owner: u32,
        /// The owning shard's address (from the responding shard's
        /// `ShardMap`).
        addr: String,
    },
    /// The shard owning this key range is unreachable through the router;
    /// other key ranges keep serving.
    ShardDown {
        /// The unreachable shard's id.
        shard: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// Typed failure.
    Error {
        /// Failure classification.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Load-shedding answer: the pool and queue are full. The connection is
    /// closed after this frame, but it is *answered*, never silently
    /// dropped.
    Overloaded {
        /// Connections waiting in the accept queue when this was sent.
        queued: u32,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// A typed error answer.
    pub fn error(code: ErrorCode, detail: impl fmt::Display) -> Response {
        Response::Error {
            code,
            detail: detail.to_string(),
        }
    }
}

wire_schema! {
    enum Response {
        Pong { payload: "pong.payload" } = kind::RESP_PONG,
        Certificate { bytes: "certificate.bytes" } = kind::RESP_CERTIFICATE,
        Verify { verdict: "verify.verdict", detail: "verify.detail" } = kind::RESP_VERIFY,
        Audit {
            exit_code: "audit.exit_code",
            report: "audit.report",
            diagnostics: "audit.diagnostics",
        } = kind::RESP_AUDIT,
        Stats(report: "stats") = kind::RESP_STATS,
        ClusterStats(report: "cluster") = kind::RESP_CLUSTER_STATS,
        FetchCert { cert: "fetch_cert.cert" } = kind::RESP_FETCH_CERT,
        PutCert = kind::RESP_PUT_CERT,
        WrongShard { owner: "wrong_shard.owner", addr: "wrong_shard.addr" } = kind::RESP_WRONG_SHARD,
        ShardDown { shard: "shard_down.shard", detail: "shard_down.detail" } = kind::RESP_SHARD_DOWN,
        Error { code: "error.code", detail: "error.detail" } = kind::RESP_ERROR,
        Overloaded { queued: "overloaded.queued", detail: "overloaded.detail" } = kind::RESP_OVERLOADED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;

    fn round_trip_request(req: Request) {
        let frame = req.to_frame();
        assert_eq!(Request::from_frame(&frame).unwrap(), req);
        // Canonical: re-encoding the decoded value yields the same frame.
        assert_eq!(Request::from_frame(&frame).unwrap().to_frame(), frame);
    }

    fn round_trip_response(resp: Response) {
        let frame = resp.to_frame();
        assert_eq!(Response::from_frame(&frame).unwrap(), resp);
        assert_eq!(Response::from_frame(&frame).unwrap().to_frame(), frame);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping {
            payload: b"hello".to_vec(),
            hold_ms: 25,
        });
        round_trip_request(Request::Refute(RefuteParams {
            theorem: "ba-nodes".into(),
            protocol: Some("EIG(f=1)".into()),
            graph: Some(builders::triangle()),
            f: 1,
            policy: Some(RunPolicy::default()),
        }));
        round_trip_request(Request::Refute(RefuteParams {
            theorem: "clock-sync".into(),
            protocol: None,
            graph: None,
            f: 1,
            policy: None,
        }));
        round_trip_request(Request::Verify {
            cert: vec![1, 2, 3],
        });
        round_trip_request(Request::Audit { cert: vec![] });
        round_trip_request(Request::Stats);
        round_trip_request(Request::FetchCert {
            key: b"serve-query\0payload".to_vec(),
        });
        round_trip_request(Request::PutCert {
            key: b"serve-query\0payload".to_vec(),
            cert: vec![7; 32],
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong {
            payload: b"hello".to_vec(),
        });
        round_trip_response(Response::Certificate { bytes: vec![9; 64] });
        round_trip_response(Response::Verify {
            verdict: Verdict::NotReproduced,
            detail: "decision mismatch".into(),
        });
        round_trip_response(Response::Audit {
            exit_code: 2,
            report: String::new(),
            diagnostics: "bad magic".into(),
        });
        round_trip_response(Response::Stats(StatsReport {
            connections_accepted: 3,
            requests_refute: 2,
            cache_hits: 40,
            cache_misses: 2,
            requests_shed: 4,
            store_mem_hits: 9,
            store_disk_hits: 6,
            store_misses: 3,
            store_stores: 3,
            store_quarantined: 1,
            profile: "phase table".into(),
            ..StatsReport::default()
        }));
        round_trip_response(Response::Error {
            code: ErrorCode::BadRequest,
            detail: "unknown theorem".into(),
        });
        round_trip_response(Response::Overloaded {
            queued: 16,
            detail: "pool saturated".into(),
        });
        round_trip_response(Response::FetchCert { cert: None });
        round_trip_response(Response::FetchCert {
            cert: Some(vec![3; 48]),
        });
        round_trip_response(Response::PutCert);
        round_trip_response(Response::WrongShard {
            owner: 2,
            addr: "127.0.0.1:7417".into(),
        });
        round_trip_response(Response::ShardDown {
            shard: 1,
            detail: "backend unreachable".into(),
        });
        round_trip_response(Response::ClusterStats(ClusterStatsReport {
            router: RouterStatsReport {
                connections_accepted: 12,
                requests_routed: 90,
                requests_local: 3,
                shard_down_answers: 1,
                backend_reconnects: 2,
                ..RouterStatsReport::default()
            },
            shards: vec![
                ShardStatus {
                    shard: 0,
                    addr: "127.0.0.1:7416".into(),
                    up: true,
                    routed: 60,
                    report: Some(StatsReport {
                        requests_refute: 60,
                        store_mem_evictions: 4,
                        shard_id: 0,
                        shard_count: 2,
                        ..StatsReport::default()
                    }),
                },
                ShardStatus {
                    shard: 1,
                    addr: "127.0.0.1:7417".into(),
                    up: false,
                    routed: 30,
                    report: None,
                },
            ],
        }));
    }

    #[test]
    fn new_stats_fields_survive_the_wire_and_render() {
        let report = StatsReport {
            store_mem_evictions: 11,
            requests_fetch: 5,
            requests_put: 4,
            wrong_shard: 2,
            peer_fetches: 3,
            shard_id: 1,
            shard_count: 3,
            ..StatsReport::default()
        };
        let frame = Response::Stats(report.clone()).to_frame();
        let Response::Stats(back) = Response::from_frame(&frame).unwrap() else {
            panic!("stats came back as a different kind");
        };
        assert_eq!(back, report);
        assert_eq!(report.requests_served(), 9);
        let rendered = report.to_string();
        assert!(rendered.contains("shard: 1 of 3"), "{rendered}");
        assert!(rendered.contains("11 mem evictions"), "{rendered}");
    }

    #[test]
    fn cluster_stats_render_one_row_per_shard() {
        let view = ClusterStatsReport {
            router: RouterStatsReport::default(),
            shards: vec![
                ShardStatus {
                    shard: 0,
                    addr: "a:1".into(),
                    up: true,
                    routed: 5,
                    report: Some(StatsReport::default()),
                },
                ShardStatus {
                    shard: 1,
                    addr: "b:2".into(),
                    up: false,
                    routed: 0,
                    report: None,
                },
            ],
        };
        assert_eq!(view.shards_up(), 1);
        let rendered = view.to_string();
        assert!(rendered.contains("1/2 shards up"), "{rendered}");
        // One header line plus one line per shard, dashes for the down one.
        assert_eq!(rendered.lines().count(), 5, "{rendered}");
        assert!(rendered.lines().last().unwrap().contains('-'), "{rendered}");
    }

    #[test]
    fn stats_counter_table_is_length_tagged() {
        // The first wire field of a stats body is the table length; a peer
        // built with a different counter list fails structurally instead of
        // reading misaligned u64s.
        let frame = Response::Stats(StatsReport::default()).to_frame();
        let mut r = Reader::new(&frame.body);
        assert_eq!(r.u32().unwrap(), StatsReport::COUNTER_COUNT);

        let mut w = Writer::new();
        w.u32(StatsReport::COUNTER_COUNT - 1);
        for _ in 0..StatsReport::COUNTER_COUNT - 1 {
            w.u64(0);
        }
        w.str("");
        let forged = Frame::new(kind::RESP_STATS, w.finish());
        match Response::from_frame(&forged) {
            Err(RpcDecodeError::Invalid { context, .. }) => {
                assert_eq!(context, "stats.counter_count");
            }
            other => panic!("mis-sized counter table accepted: {other:?}"),
        }

        // The router's table leads a cluster view the same way.
        let view = Response::ClusterStats(ClusterStatsReport::default()).to_frame();
        let mut r = Reader::new(&view.body);
        assert_eq!(r.u32().unwrap(), RouterStatsReport::COUNTER_COUNT);
        let mut w = Writer::new();
        w.u32(RouterStatsReport::COUNTER_COUNT + 1);
        for _ in 0..=RouterStatsReport::COUNTER_COUNT {
            w.u64(0);
        }
        w.u32(0);
        let forged = Frame::new(kind::RESP_CLUSTER_STATS, w.finish());
        match Response::from_frame(&forged) {
            Err(RpcDecodeError::Invalid { context, .. }) => {
                assert_eq!(context, "router.counter_count");
            }
            other => panic!("mis-sized router table accepted: {other:?}"),
        }
    }

    #[test]
    fn async_counters_survive_the_wire_and_render() {
        let report = StatsReport {
            async_refutes: 2,
            async_schedules_explored: 17,
            async_bivalent_forks: 41,
            ..StatsReport::default()
        };
        let frame = Response::Stats(report.clone()).to_frame();
        let Response::Stats(back) = Response::from_frame(&frame).unwrap() else {
            panic!("stats came back as a different kind");
        };
        assert_eq!(back, report);
        let rendered = report.to_string();
        assert!(
            rendered.contains("async: 2 refutes, 17 schedules explored, 41 bivalent forks"),
            "{rendered}"
        );
        // The async line only appears once the family has been exercised.
        assert!(!StatsReport::default().to_string().contains("async:"));
    }

    #[test]
    fn unknown_kind_is_structured() {
        let frame = Frame::new(0x7F, vec![]);
        assert_eq!(
            Request::from_frame(&frame),
            Err(RpcDecodeError::UnknownKind(0x7F))
        );
        assert_eq!(
            Response::from_frame(&frame),
            Err(RpcDecodeError::UnknownKind(0x7F))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = Request::Stats.to_frame();
        frame.body.extend_from_slice(b"junk");
        assert_eq!(
            Request::from_frame(&frame),
            Err(RpcDecodeError::TrailingBytes { count: 4 })
        );
    }

    #[test]
    fn hostile_graph_bytes_rejected_structurally() {
        // A refute request whose embedded graph claims 2^31 nodes must be
        // rejected by Graph::from_bytes's caps, not by an allocation.
        let mut w = Writer::new();
        w.str("ba-nodes").bool(false).bool(true);
        let mut g = Writer::new();
        g.u32(1 << 31);
        w.bytes(&g.finish()).u32(1).bool(false);
        let frame = Frame::new(kind::REQ_REFUTE, w.finish());
        match Request::from_frame(&frame) {
            Err(RpcDecodeError::Invalid { context, .. }) => {
                assert_eq!(context, "refute.graph");
            }
            other => panic!("hostile graph accepted: {other:?}"),
        }
    }

    #[test]
    fn stats_report_totals_and_hit_rate() {
        let s = StatsReport {
            requests_ping: 1,
            requests_refute: 2,
            requests_verify: 3,
            requests_audit: 4,
            requests_stats: 5,
            cache_hits: 3,
            cache_misses: 1,
            ..StatsReport::default()
        };
        assert_eq!(s.requests_served(), 15);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(StatsReport::default().cache_hit_rate(), 0.0);
    }
}
