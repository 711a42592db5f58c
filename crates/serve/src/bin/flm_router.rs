//! `flm-router` — the sharded serve plane's front door.
//!
//! ```text
//! flm-router --shards 127.0.0.1:7416,127.0.0.1:7417,127.0.0.1:7418
//! ```
//!
//! Routes each keyed FLMC-RPC request to the shard that owns its canonical
//! query key (rendezvous hashing), answers pings locally, aggregates Stats
//! into a cluster view, and degrades dead shards to typed `ShardDown`
//! answers for their key range only. A bad flag prints the usage text and
//! exits 2.

use std::process::ExitCode;

use flm_serve::flags::{router_config, Flags, ROUTER_USAGE};
use flm_serve::router::Router;
use flm_serve::server::write_port_file;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Flags::parse(&args, &[]).and_then(|flags| Ok((router_config(&flags)?, flags)));
    let (config, flags) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flm-router: {e}");
            eprintln!("{ROUTER_USAGE}");
            return ExitCode::from(2);
        }
    };
    let shard_count = config.shards.count();
    let router = match Router::start(config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("flm-router: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(path) = flags.get("port-file") {
        if let Err(e) = write_port_file(std::path::Path::new(path), router.local_addr()) {
            eprintln!("flm-router: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    eprintln!(
        "flm-router: fronting {shard_count} shards on {}",
        router.local_addr()
    );
    router.wait();
    ExitCode::SUCCESS
}
