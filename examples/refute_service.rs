//! Refutation as a service, end to end, inside one process.
//!
//! 1. Start an embedded `flm-serve` server on an ephemeral loopback port.
//! 2. Request a refutation over FLMC-RPC and check the wire bytes are
//!    *identical* to what the library produces locally for the same query —
//!    the service adds transport, never meaning.
//! 3. Round-trip the certificate through the server's Verify and Audit
//!    RPCs, then through the local audit path.
//! 4. Fire a small mixed load burst with the load generator and read the
//!    server's counters back over the Stats RPC.
//!
//! Run with: `cargo run --example refute_service`

use flm_serve::audit;
use flm_serve::client::Client;
use flm_serve::loadgen::{self, Mix};
use flm_serve::query::{self, Theorem};
use flm_serve::rpc::Verdict;
use flm_serve::server::{ServeConfig, Server};
use flm_sim::RunPolicy;

fn main() {
    // ── Start the service ──────────────────────────────────────────────
    // `addr: 127.0.0.1:0` asks the OS for an ephemeral port; the real
    // address comes back from `local_addr`. The same config runs the
    // standalone `flm-serve` binary.
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    println!("flm-serve listening on {addr}\n");

    let mut client = Client::connect(&addr).expect("connect");
    let pong = client.ping(b"hello", 0).expect("ping");
    assert_eq!(pong, b"hello");
    println!("ping → pong ✓");

    // ── Refute over the wire, compare against the library ──────────────
    let wire = client
        .refute(Theorem::BaNodes.name(), None, None, 1, None)
        .expect("refute RPC");
    let local = query::refute_to_bytes(Theorem::BaNodes, None, None, 1, RunPolicy::default())
        .expect("library refutation");
    assert_eq!(wire, local, "served bytes must equal library bytes");
    println!(
        "refute {} → {} certificate bytes, identical to the library path ✓",
        Theorem::BaNodes.name(),
        wire.len()
    );

    // ── Verify and audit, server-side and locally ──────────────────────
    let (verdict, detail) = client.verify(&wire).expect("verify RPC");
    assert_eq!(verdict, Verdict::Verified);
    println!("server verify → {verdict:?}: {detail}");

    let (exit_code, _report, _diag) = client.audit(&wire).expect("audit RPC");
    assert_eq!(exit_code, audit::EXIT_VERIFIED);
    let local_audit = audit::audit_bytes(&wire, false);
    assert_eq!(local_audit.exit_code, audit::EXIT_VERIFIED);
    println!(
        "server audit exit {exit_code}, local audit exit {} ✓",
        local_audit.exit_code
    );

    // Damaged bytes draw the malformed exit code, not a panic or a hang.
    let (exit_code, _report, diag) = client.audit(&wire[..40]).expect("audit RPC on damage");
    assert_eq!(exit_code, audit::EXIT_MALFORMED);
    println!(
        "truncated bytes → audit exit {exit_code} ({})\n",
        diag.lines().next().unwrap_or("")
    );

    // ── A mixed load burst through the load generator ──────────────────
    // 4 connections × 8 requests, refute:verify:audit = 2:1:1. Every
    // refute after the first is a warm run-cache hit — the workers share
    // the process-global cache.
    let report = loadgen::run(
        &addr,
        4,
        8,
        Mix::parse("2:1:1").expect("mix"),
        &[Theorem::BaNodes],
    )
    .expect("load burst");
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.abandoned, 0);
    println!("load burst: {report}");

    let stats = client.stats().expect("stats RPC");
    println!("\nserver counters:\n{stats}");

    server.shutdown();
    println!("server drained and shut down ✓");
}
