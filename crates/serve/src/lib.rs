//! flm-serve: refutation-as-a-service over framed FLMC-RPC.
//!
//! A small, std-only network subsystem that serves the repository's
//! impossibility refutations over TCP. Requests name a theorem family, a
//! protocol (via [`flm_protocols::resolve`]), and a graph; responses carry
//! portable `FLMC` certificate bytes that pipe straight into `flm-audit`.
//!
//! The layering, bottom to top:
//!
//! * [`sys`] — a thin readiness shim over Linux `epoll`, built on
//!   [`std::os::fd`] with no external crates; the only module allowed to
//!   contain `unsafe` (the crate is `deny(unsafe_code)` elsewhere).
//! * [`frame`] — the `FLMR` length-prefixed frame: magic, version, kind
//!   byte, `u32` body length. Bounded reads; hostile prefixes cannot force
//!   allocation, and bodies past the `u32` prefix are a typed encode error,
//!   never a truncated length.
//! * [`rpc`] — request/response bodies encoded with [`flm_sim::wire`], the
//!   same primitives the certificate codec uses.
//! * [`query`] — the theorem-family grammar, the canonical query key, and
//!   the single refutation code path shared with `regen --refute`.
//! * [`audit`] — the `flm-audit` verdict logic as a library, so the Audit
//!   RPC and the binary cannot drift.
//! * [`store`] — the content-addressed on-disk certificate store: one
//!   `FLMC` file per canonical query key, written atomically, verified on
//!   load, quarantined on damage. Warm hits survive restarts.
//! * `conn` — the connection core: one per-connection state machine
//!   (incremental frame decode, in-order pipelined slots, the pipeline cap,
//!   discard-then-FIN after a framing violation, the request budget, idle
//!   tracking, and read/write interest) that touches no socket, poller, or
//!   clock. Both reactors below are thin epoll drivers over it.
//! * [`server`] — the event-driven serve plane: one reactor thread
//!   multiplexing pipelined connections over [`sys`] and `conn`, a
//!   worker pool for CPU-bound refutations, and typed load shedding — a
//!   saturated server answers [`rpc::Response::Overloaded`] instead of
//!   dropping the socket.
//! * [`shard`] — the cluster topology: a [`shard::ShardMap`] with a
//!   canonical wire encoding, rendezvous ownership over canonical query
//!   keys, and the store-rebalance walk that ships misplaced certificates
//!   to their owners.
//! * [`router`] — the sharded front: a second driver over the same
//!   connection core and client-facing half as the server, which routes each keyed request to its owning shard over persistent
//!   pipelined backend connections, fans Stats out into a cluster view,
//!   and degrades a dead shard to typed [`rpc::Response::ShardDown`]
//!   answers for that key range only.
//! * [`client`] / [`loadgen`] — the blocking client and the deterministic
//!   load generator behind `flm-client` and `BENCH_serve.json`: one driver
//!   for servers and routers, which tells them apart by their Stats answer
//!   and, for a router, reports each shard's change over the run.
//! * [`flags`] — the one `--flag value` parser of `flm-serve`, `flm-router`
//!   and `flm-client`, with the server's and the router's flag-to-config
//!   mapping and usage texts.
//!
//! Every worker shares the process-global run cache, so a certificate one
//! connection paid to compute is a warm hit for every later connection
//! asking the same canonical query — and, with a store directory
//! configured, for every later *process* asking it. Sharding extends the
//! same economics across machines: rendezvous hashing gives each canonical
//! query exactly one owner, so the cluster simulates each universe once.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub(crate) mod conn;
pub mod flags;
pub mod frame;
pub mod loadgen;
pub mod query;
pub mod router;
pub mod rpc;
pub mod server;
pub mod shard;
pub mod store;
#[allow(unsafe_code)]
pub mod sys;
