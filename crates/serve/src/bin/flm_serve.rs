//! `flm-serve` — refutation-as-a-service over framed FLMC-RPC.
//!
//! Binds a TCP listener and answers refute / verify / audit / stats
//! requests with an event-driven reactor multiplexing every connection and
//! a bounded worker pool for the CPU-bound work. A saturated server answers
//! a typed `Overloaded` frame instead of dropping the socket. The flags are
//! those `flm_serve::flags::SERVE_USAGE` lists.
//!
//! `--addr 127.0.0.1:0` (the default) binds an ephemeral port;
//! `--port-file` writes the actual bound address to a file (atomically:
//! temp file + rename, so a polling reader never sees a partial port),
//! which is how `scripts/check.sh --serve-smoke` finds the server it just
//! started. `--store-dir` enables the persistent certificate store:
//! refutations are served memory → disk → simulate, and warm hits survive
//! restarts. `--shard-id`/`--peers` place the process in a sharded
//! cluster: it owns the rendezvous slice of the key space for its id,
//! answers off-owner requests with a typed `WrongShard`, and pulls
//! certificates it newly owns from peers before cold-simulating. A bad
//! flag prints the usage text and exits 1.

use std::process::ExitCode;

use flm_serve::flags::{serve_config, Flags, SERVE_USAGE};
use flm_serve::server::{write_port_file, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Flags::parse(&args, &[]).and_then(|flags| Ok((serve_config(&flags)?, flags)));
    let (config, flags) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("flm-serve: {msg}");
            eprintln!("{SERVE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("flm-serve: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if let Some(path) = flags.get("port-file") {
        if let Err(e) = write_port_file(std::path::Path::new(path), addr) {
            eprintln!("flm-serve: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("listening on {addr}");
    server.wait();
    ExitCode::SUCCESS
}
