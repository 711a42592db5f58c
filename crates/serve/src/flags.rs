//! The one command-line flag parser of every binary in the workspace:
//! positional operands, `--switch` booleans and `--flag value` pairs, each
//! value read with one [`Flags::parsed`] (or [`Flags::optional`]) call.
//!
//! [`serve_config`] and [`router_config`] map the server's and the router's
//! flags to their configurations next to their usage texts, and accept
//! exactly the flags those texts list, so both are unit-tested without
//! starting a process. `flm-audit` and `regen` check each of their modes
//! against that mode's usage line the same way.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use crate::router::RouterConfig;
use crate::server::{ServeConfig, ShardRole};
use crate::shard::ShardMap;

/// Command-line arguments split into positional operands, switches and
/// `--flag value` pairs.
#[derive(Debug)]
pub struct Flags {
    /// The operands that are neither a flag nor a flag's value, in order.
    pub positional: Vec<String>,
    /// Each flag given, with its value; a switch has none.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Splits `args`: a flag named in `switches` stands alone, every other
    /// `--flag` takes the next argument as its value, and anything else is
    /// a positional operand.
    ///
    /// # Errors
    ///
    /// A flag with no value after it, or a flag given twice.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let value = if switches.contains(&flag) {
                None
            } else {
                Some(it.next().ok_or_else(|| format!("--{flag} wants a value"))?)
            };
            if given.iter().any(|(f, _)| f == flag) {
                return Err(format!("--{flag} given twice"));
            }
            given.push((flag.to_owned(), value.cloned()));
        }
        Ok(Flags { positional, given })
    }

    /// The raw value of `--flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(f, v)| f == name && v.is_none())
    }

    /// The value of `--flag` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`, here and in [`Flags::parsed`].
    pub fn optional<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("--{flag}: bad value {raw:?}"))
            })
            .transpose()
    }

    /// The value of `--flag` parsed as `T`, or `default` when absent.
    pub fn parsed<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.optional(flag)?.unwrap_or(default))
    }

    /// Fails on the first flag not in `known`.
    ///
    /// # Errors
    ///
    /// `unknown flag --name`.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .given
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }

    /// Fails on a flag that `usage` does not list, or on any operand left
    /// in [`Flags::positional`].
    ///
    /// # Errors
    ///
    /// `unknown flag --name`, or the first unexpected operand.
    pub fn reject_unlisted(&self, usage: &str) -> Result<(), String> {
        self.reject_unknown(&listed_flags(usage))?;
        match self.positional.first() {
            Some(operand) => Err(format!("unexpected operand {operand:?}")),
            None => Ok(()),
        }
    }
}

/// Every `--name` a usage text mentions, as `name`.
fn listed_flags(usage: &str) -> Vec<&str> {
    usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|word| word.strip_prefix("--"))
        .collect()
}

/// `flm-serve`'s usage text: the flags [`serve_config`] accepts.
pub const SERVE_USAGE: &str = "\
usage: flm-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
                 [--read-timeout-ms N] [--max-hold-ms N] [--max-requests N]
                 [--store-dir DIR] [--store-mem-cap N] [--port-file FILE]
                 [--shard-id N --peers ADDR,ADDR,...]";

/// The server configuration `flm-serve`'s flags ask for. `--port-file` is
/// accepted here and read by the binary.
///
/// # Errors
///
/// A flag [`SERVE_USAGE`] does not list, an operand, a value that does not
/// parse, `--workers 0`, or `--shard-id` and `--peers` apart or disagreeing.
pub fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    flags.reject_unlisted(SERVE_USAGE)?;
    let default = ServeConfig::default();
    let workers = flags.parsed("workers", default.workers)?;
    if workers == 0 {
        return Err("--workers wants a positive integer".into());
    }
    let read_timeout = match flags.optional("read-timeout-ms")? {
        Some(ms) => Duration::from_millis(ms),
        None => default.read_timeout,
    };
    let shard = match (flags.optional("shard-id")?, flags.get("peers")) {
        (None, None) => None,
        (Some(id), Some(peers)) => {
            let map = ShardMap::parse_peers(peers)?;
            if id >= map.count() {
                return Err(format!(
                    "--shard-id {id} is outside the {}-shard --peers list",
                    map.count()
                ));
            }
            Some(ShardRole { id, map })
        }
        _ => return Err("--shard-id and --peers go together".into()),
    };
    Ok(ServeConfig {
        addr: flags.parsed("addr", default.addr)?,
        workers,
        queue_depth: flags.parsed("queue-depth", default.queue_depth)?,
        read_timeout,
        max_requests_per_conn: flags.parsed("max-requests", default.max_requests_per_conn)?,
        max_hold_ms: flags.parsed("max-hold-ms", default.max_hold_ms)?,
        store_dir: flags.optional::<PathBuf>("store-dir")?,
        shard,
        store_mem_cap: flags.optional("store-mem-cap")?,
    })
}

/// `flm-router`'s usage text: the flags [`router_config`] accepts.
pub const ROUTER_USAGE: &str = "\
usage: flm-router --shards ADDR,ADDR,... [options]
options:
  --addr HOST:PORT          front bind address (default 127.0.0.1:7415)
  --shards ADDR,ADDR,...    shard addresses in shard-id order (required)
  --reconnect-ms N          down-shard reconnect interval (default 1000)
  --port-file PATH          write the bound front address here (atomically)";

/// The router configuration `flm-router`'s flags ask for. `--port-file` is
/// accepted here and read by the binary.
///
/// # Errors
///
/// A flag [`ROUTER_USAGE`] does not list, an operand, a value that does not
/// parse, or no `--shards`.
pub fn router_config(flags: &Flags) -> Result<RouterConfig, String> {
    flags.reject_unlisted(ROUTER_USAGE)?;
    let shards = flags.get("shards").ok_or("--shards is required")?;
    let addr = flags.parsed("addr", "127.0.0.1:7415".to_owned())?;
    let mut config = RouterConfig::new(addr, ShardMap::parse_peers(shards)?);
    if let Some(ms) = flags.optional::<u64>("reconnect-ms")? {
        config.reconnect_interval = Duration::from_millis(ms.max(1));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        Flags::parse(&args, &["quiet"])
    }

    fn serve(args: &[&str]) -> Result<ServeConfig, String> {
        serve_config(&flags(args)?)
    }

    fn router(args: &[&str]) -> Result<RouterConfig, String> {
        router_config(&flags(args)?)
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        for removed in ["--max-connections", "--max-pipelined", "--shard-count"] {
            let err = serve(&[removed, "4"]).unwrap_err();
            assert_eq!(err, format!("unknown flag {removed}"));
        }
        let err = router(&["--shards", "a:1", "--backend-pending", "8"]).unwrap_err();
        assert_eq!(err, "unknown flag --backend-pending");
        let client = flags(&["--addr", "a:1", "--hold-ms", "5"]).unwrap();
        assert!(client.reject_unknown(&["addr", "hold-ms"]).is_ok());
        assert!(client.reject_unknown(&["addr"]).is_err());
    }

    #[test]
    fn a_flag_without_a_value_or_given_twice_is_rejected() {
        assert_eq!(
            flags(&["--addr", "a:1", "--workers"]).unwrap_err(),
            "--workers wants a value"
        );
        assert_eq!(
            flags(&["--workers", "2", "--workers", "3"]).unwrap_err(),
            "--workers given twice"
        );
    }

    #[test]
    fn a_switch_stands_alone() {
        let f = flags(&["--quiet", "cert", "--addr", "a:1"]).unwrap();
        assert!(f.switch("quiet") && !f.switch("addr") && !f.switch("absent"));
        assert_eq!((f.get("quiet"), f.get("addr")), (None, Some("a:1")));
        assert_eq!(f.positional, ["cert"]);
        assert_eq!(
            f.reject_unknown(&["addr"]).unwrap_err(),
            "unknown flag --quiet"
        );
        assert_eq!(
            flags(&["--quiet", "--quiet"]).unwrap_err(),
            "--quiet given twice"
        );
    }

    #[test]
    fn a_non_numeric_value_is_rejected() {
        assert_eq!(
            serve(&["--workers", "four"]).unwrap_err(),
            "--workers: bad value \"four\""
        );
        assert!(serve(&["--max-hold-ms", "-1"]).is_err());
        assert!(router(&["--shards", "a:1", "--reconnect-ms", "1s"]).is_err());
        let f = flags(&["--f", "x"]).unwrap();
        assert!(f.parsed("f", 1u32).is_err());
        assert_eq!(f.parsed("absent", 7u32), Ok(7));
    }

    #[test]
    fn zero_workers_is_rejected() {
        assert_eq!(
            serve(&["--workers", "0"]).unwrap_err(),
            "--workers wants a positive integer"
        );
        assert_eq!(serve(&["--workers", "1"]).unwrap().workers, 1);
    }

    #[test]
    fn shard_id_and_peers_go_together() {
        let apart = "--shard-id and --peers go together";
        assert_eq!(serve(&["--shard-id", "0"]).unwrap_err(), apart);
        assert_eq!(serve(&["--peers", "a:1,b:2"]).unwrap_err(), apart);
        let outside = serve(&["--shard-id", "2", "--peers", "a:1,b:2"]).unwrap_err();
        assert!(outside.contains("outside the 2-shard"), "{outside}");
        let role = serve(&["--shard-id", "1", "--peers", "a:1,b:2"])
            .unwrap()
            .shard
            .unwrap();
        assert_eq!((role.id, role.map.count()), (1, 2));
    }

    #[test]
    fn operands_mix_with_flags_and_the_servers_take_none() {
        let f = flags(&["refute", "--addr", "a:1", "ba-nodes", "--f", "2"]).unwrap();
        assert_eq!(f.positional, ["refute", "ba-nodes"]);
        assert_eq!(f.get("addr"), Some("a:1"));
        assert_eq!(f.parsed("f", 1u32), Ok(2));
        let err = serve(&["--workers", "2", "extra"]).unwrap_err();
        assert!(err.contains("\"extra\""), "{err}");
        assert!(router(&["--shards", "a:1", "extra"]).is_err());
    }

    #[test]
    fn every_serve_flag_lands_in_its_field() {
        let config = serve(&[
            "--addr",
            "127.0.0.1:7500",
            "--workers",
            "3",
            "--queue-depth",
            "5",
            "--read-timeout-ms",
            "250",
            "--max-hold-ms",
            "9",
            "--max-requests",
            "11",
            "--store-dir",
            "/tmp/flm-store",
            "--store-mem-cap",
            "13",
            "--port-file",
            "/tmp/flm-port",
        ])
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:7500");
        assert_eq!((config.workers, config.queue_depth), (3, 5));
        assert_eq!(config.read_timeout, Duration::from_millis(250));
        assert_eq!((config.max_hold_ms, config.max_requests_per_conn), (9, 11));
        assert_eq!(config.store_dir, Some(PathBuf::from("/tmp/flm-store")));
        assert_eq!(config.store_mem_cap, Some(13));
        assert!(config.shard.is_none());

        let default = ServeConfig::default();
        let bare = serve(&[]).unwrap();
        assert_eq!((bare.addr, bare.workers), (default.addr, default.workers));
        assert_eq!(bare.read_timeout, default.read_timeout);
        assert!(bare.store_dir.is_none() && bare.store_mem_cap.is_none());
    }

    #[test]
    fn router_flags_land_in_the_config() {
        assert_eq!(router(&[]).unwrap_err(), "--shards is required");
        let config = router(&["--shards", "a:1,b:2", "--reconnect-ms", "100"]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7415");
        assert_eq!(config.shards.count(), 2);
        assert_eq!(config.reconnect_interval, Duration::from_millis(100));
        let floored = router(&["--shards", "a:1", "--reconnect-ms", "0"]).unwrap();
        assert_eq!(floored.reconnect_interval, Duration::from_millis(1));
    }

    #[test]
    fn each_usage_text_lists_the_accepted_flags() {
        let mut serve = listed_flags(SERVE_USAGE);
        serve.sort_unstable();
        assert_eq!(
            serve,
            [
                "addr",
                "max-hold-ms",
                "max-requests",
                "peers",
                "port-file",
                "queue-depth",
                "read-timeout-ms",
                "shard-id",
                "store-dir",
                "store-mem-cap",
                "workers"
            ]
        );
        let mut router = listed_flags(ROUTER_USAGE);
        router.sort_unstable();
        router.dedup();
        assert_eq!(router, ["addr", "port-file", "reconnect-ms", "shards"]);
    }
}
