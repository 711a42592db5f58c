//! `flm-client` — command-line client and load generator for `flm-serve`.
//!
//! ```text
//! flm-client refute THEOREM [--addr HOST:PORT] [--protocol NAME]
//!                           [--graph NAME] [--f N] [--out FILE]
//! flm-client verify CERT    [--addr HOST:PORT]
//! flm-client audit CERT     [--addr HOST:PORT]
//! flm-client stats          [--addr HOST:PORT]
//! flm-client ping           [--addr HOST:PORT] [--hold-ms N]
//! flm-client load           [--addr HOST:PORT] [--connections N]
//!                           [--requests M] [--mix R:V:A] [--theorem NAME|all]
//! flm-client rebalance      --store-dir DIR --peers ADDR,... --shard-id N
//!                           [--remove true]
//! ```
//!
//! `refute` prints the certificate bytes to stdout (or `--out FILE`) so the
//! result pipes straight into `flm-audit`. `audit` mirrors the `flm-audit`
//! exit-code contract: 0 verified, 1 not reproduced, 2 malformed. `load` is
//! the generator behind `BENCH_serve.json`; `--theorem all` spreads it over
//! all eight theorem families, and against an `flm-router` it also prints
//! each shard's change over the run. `stats` renders whatever answers: a
//! single server's counters flat, a router's cluster view as a per-shard
//! table. `rebalance` walks a shard's store directory and ships every
//! certificate it no longer owns under the given topology to the owning
//! shard.

use std::io::Write as _;
use std::process::ExitCode;

use flm_serve::client::{Client, StatsView};
use flm_serve::flags::Flags;
use flm_serve::loadgen::{self, Mix};
use flm_serve::query::{parse_graph, Theorem};
use flm_serve::rpc::Verdict;
use flm_serve::shard::{self, ShardMap};

const DEFAULT_ADDR: &str = "127.0.0.1:7415";

fn usage() -> &'static str {
    "usage: flm-client refute THEOREM [--addr A] [--protocol P] [--graph G] [--f N] [--out FILE]\n\
     \x20      flm-client verify CERT [--addr A]\n\
     \x20      flm-client audit CERT [--addr A]\n\
     \x20      flm-client stats [--addr A]\n\
     \x20      flm-client ping [--addr A] [--hold-ms N]\n\
     \x20      flm-client load [--addr A] [--connections N] [--requests M] [--mix R:V:A] [--theorem T|all]\n\
     \x20      flm-client rebalance --store-dir DIR --peers ADDR,... --shard-id N [--remove true]"
}

/// The `--addr` operand, or the default router address.
fn addr(flags: &Flags) -> &str {
    flags.get("addr").unwrap_or(DEFAULT_ADDR)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(rest, &[]) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("flm-client: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "refute" => cmd_refute(&flags),
        "verify" => cmd_verify(&flags),
        "audit" => cmd_audit(&flags),
        "stats" => cmd_stats(&flags),
        "ping" => cmd_ping(&flags),
        "load" => cmd_load(&flags),
        "rebalance" => cmd_rebalance(&flags),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("flm-client: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn connect(flags: &Flags) -> Result<Client, String> {
    Client::connect(addr(flags)).map_err(|e| format!("connecting to {}: {e}", addr(flags)))
}

fn cmd_refute(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["addr", "protocol", "graph", "f", "out"])?;
    let [theorem] = flags.positional.as_slice() else {
        return Err("refute wants exactly one THEOREM operand".into());
    };
    // Validate the family and graph locally for a friendly error before any
    // bytes hit the wire; the server re-validates anyway.
    Theorem::parse(theorem).map_err(|e| e.to_string())?;
    let graph = match flags.get("graph") {
        Some(name) => Some(parse_graph(name).map_err(|e| e.to_string())?),
        None => None,
    };
    let f: u32 = flags.parsed("f", 1)?;
    let mut client = connect(flags)?;
    let bytes = client
        .refute(theorem, flags.get("protocol"), graph.as_ref(), f, None)
        .map_err(|e| e.to_string())?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", bytes.len());
        }
        None => {
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn read_cert(flags: &Flags) -> Result<Vec<u8>, String> {
    let [path] = flags.positional.as_slice() else {
        return Err("exactly one certificate file expected".into());
    };
    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_verify(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["addr"])?;
    let cert = read_cert(flags)?;
    let mut client = connect(flags)?;
    let (verdict, detail) = client.verify(&cert).map_err(|e| e.to_string())?;
    match verdict {
        Verdict::Verified => {
            println!("VERIFIED: violation reproduced against {detail}");
            Ok(ExitCode::SUCCESS)
        }
        Verdict::NotReproduced => {
            eprintln!("NOT REPRODUCED: {detail}");
            Ok(ExitCode::from(1))
        }
        Verdict::Malformed => {
            eprintln!("malformed certificate: {detail}");
            Ok(ExitCode::from(2))
        }
    }
}

fn cmd_audit(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["addr"])?;
    let cert = read_cert(flags)?;
    let mut client = connect(flags)?;
    let (exit_code, report, diagnostics) = client.audit(&cert).map_err(|e| e.to_string())?;
    print!("{report}");
    eprint!("{diagnostics}");
    Ok(ExitCode::from(exit_code))
}

fn cmd_stats(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["addr"])?;
    let mut client = connect(flags)?;
    match client.stats_view().map_err(|e| e.to_string())? {
        StatsView::Single(report) => println!("{report}"),
        StatsView::Cluster(report) => println!("{report}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_ping(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["addr", "hold-ms"])?;
    let hold_ms: u32 = flags.parsed("hold-ms", 0)?;
    let mut client = connect(flags)?;
    let echoed = client.ping(b"flm", hold_ms).map_err(|e| e.to_string())?;
    if echoed != b"flm" {
        return Err("ping payload came back mangled".into());
    }
    println!("pong from {}", addr(flags));
    Ok(ExitCode::SUCCESS)
}

fn cmd_load(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["addr", "connections", "requests", "mix", "theorem"])?;
    if !flags.positional.is_empty() {
        return Err("load takes flags only".into());
    }
    let connections: usize = flags.parsed("connections", 4)?;
    let requests: usize = flags.parsed("requests", 16)?;
    let mix = match flags.get("mix") {
        Some(raw) => Mix::parse(raw)?,
        None => Mix::default(),
    };
    let theorems = match flags.get("theorem").unwrap_or("ba-nodes") {
        "all" => Theorem::ALL.to_vec(),
        name => vec![Theorem::parse(name).map_err(|e| e.to_string())?],
    };
    let report = loadgen::run(addr(flags), connections, requests, mix, &theorems)?;
    println!("{report}");
    // Abandoned requests or transport errors mean the server dropped load —
    // the one thing a load-shedding server must never do.
    if report.abandoned > 0 || report.transport_errors > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_rebalance(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["store-dir", "peers", "shard-id", "remove"])?;
    if !flags.positional.is_empty() {
        return Err("rebalance takes flags only".into());
    }
    let dir = flags
        .get("store-dir")
        .ok_or_else(|| "rebalance wants --store-dir".to_string())?;
    let peers = flags
        .get("peers")
        .ok_or_else(|| "rebalance wants --peers".to_string())?;
    let shard_id: u32 = flags
        .optional("shard-id")?
        .ok_or_else(|| "rebalance wants --shard-id".to_string())?;
    let remove: bool = flags.parsed("remove", false)?;
    let map = ShardMap::parse_peers(peers)?;
    let report = shard::rebalance(std::path::Path::new(dir), &map, shard_id, remove)?;
    println!("{report}");
    // Unshipped misplaced certs leave the cluster cold for those keys; the
    // exit code makes a cron-driven rebalance loud about it.
    if report.failed > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
