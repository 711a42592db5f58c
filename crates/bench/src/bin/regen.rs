//! Regenerates the tables recorded in EXPERIMENTS.md, and — with `--bench` —
//! the machine-readable perf snapshots `BENCH_substrate.json`,
//! `BENCH_refuters.json`, `BENCH_runcache.json`, `BENCH_serve.json`, and
//! `BENCH_campaign.json`.
//! With `--refute`, runs one refuter and writes the resulting certificate to
//! disk in the portable `FLMC` format, where `flm-audit` can re-verify it
//! independently.
//! With `--campaign`, runs a seed-deterministic chaos campaign over the
//! protocol zoo × graph families × fault plans, shrinks every violation,
//! and writes the certificates plus `campaign_report.json` to a directory
//! (`flm-audit --batch DIR` checks the lot).
//!
//! Run with:
//!
//! ```text
//! cargo run -p flm-bench --bin regen                    # markdown tables
//! cargo run -p flm-bench --bin regen -- --bench substrate [--samples N] [--out FILE]
//! cargo run -p flm-bench --bin regen -- --bench refuters  [--samples N] [--out FILE]
//! cargo run -p flm-bench --bin regen -- --refute THEOREM --emit-cert FILE \
//!     [--protocol NAME] [--f N] [--graph GRAPH] \
//!     [--max-ticks N] [--max-payload-bytes N]
//! cargo run -p flm-bench --bin regen -- --campaign --out-dir DIR \
//!     [--seed N] [--scale smoke|full] \
//!     [--scheduler sync,async-fair,async-adversarial]
//! ```
//!
//! Each mode accepts exactly the flags its usage line lists; anything else
//! prints the usage and exits 2, and so does `--help`.
//!
//! `THEOREM` is one of `ba-nodes`, `ba-connectivity`, `weak-agreement`,
//! `firing-squad`, `simple-approx`, `eps-delta-gamma`, `clock-sync`,
//! `flp-async`;
//! `GRAPH` is `triangle`, `cycleN`, `completeN`, or `pathN`. The protocol
//! name is resolved through the `flm-protocols` registry, so anything the
//! registry accepts can be refuted; defaults are canonical per theorem.
//! The `--max-*` flags tighten the run policy recorded in the certificate.
//!
//! The theorem/graph grammar and the refutation code path live in
//! `flm_serve::query` — the same module the `flm-serve` RPC handler runs —
//! so a certificate written here is byte-identical to one served over the
//! wire for the same query.

use flm_bench::{campaign, experiments, suites};
use flm_core::codec::AnyCertificate;
use flm_serve::flags::Flags;
use flm_serve::query::{self, Theorem};
use flm_sim::campaign::SchedulerKind;
use flm_sim::RunPolicy;

// One usage line per mode; each mode accepts exactly the flags its line
// lists.
const TABLES: &str = "regen";
const BENCH: &str = "regen --bench substrate|refuters|runcache|serve|campaign [--samples N] \
                     [--out FILE]";
const REFUTE: &str = "regen --refute THEOREM --emit-cert FILE [--protocol NAME] [--f N] \
                      [--graph GRAPH] [--max-ticks N] [--max-payload-bytes N]";
const CAMPAIGN: &str = "regen --campaign --out-dir DIR [--seed N] [--scale smoke|full] \
                        [--scheduler sync,async-fair,async-adversarial]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse(&args).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("regen: {msg}");
        }
        eprintln!("usage: {TABLES}\n       {BENCH}\n       {REFUTE}\n       {CAMPAIGN}");
        std::process::exit(2);
    });
    let result = match mode {
        Mode::Tables => {
            print_tables();
            Ok(())
        }
        Mode::Bench(bench) => {
            run_bench(&bench);
            Ok(())
        }
        Mode::Refute(refute) => run_refute(&refute),
        Mode::Campaign(campaign) => run_campaign_cli(&campaign),
    };
    if let Err(msg) = result {
        eprintln!("regen: {msg}");
        std::process::exit(1);
    }
}

#[derive(Debug)]
enum Mode {
    Tables,
    Bench(BenchArgs),
    Refute(RefuteArgs),
    Campaign(CampaignArgs),
}

#[derive(Debug)]
struct CampaignArgs {
    out_dir: String,
    seed: u64,
    scale: String,
    schedulers: Vec<SchedulerKind>,
}

#[derive(Debug)]
struct BenchArgs {
    suite: String,
    samples: usize,
    out: Option<String>,
}

#[derive(Debug)]
struct RefuteArgs {
    theorem: String,
    emit_cert: String,
    protocol: Option<String>,
    f: usize,
    graph: Option<String>,
    max_ticks: Option<u32>,
    max_payload_bytes: Option<usize>,
}

/// The mode `--campaign`, `--refute` or `--bench` selects (the tables when
/// none is given), after checking the flags against that mode's line.
fn parse(args: &[String]) -> Result<Mode, String> {
    let flags = Flags::parse(args, &["campaign", "help"])?;
    if flags.switch("help") {
        // No message: the usage alone is the answer.
        return Err(String::new());
    }
    let owned = |flag: &str| flags.get(flag).map(str::to_owned);
    if flags.switch("campaign") {
        flags.reject_unlisted(CAMPAIGN)?;
        let mut schedulers = Vec::new();
        for name in flags.get("scheduler").unwrap_or("sync").split(',') {
            let kind = SchedulerKind::parse(name)?;
            if !schedulers.contains(&kind) {
                schedulers.push(kind);
            }
        }
        let scale = owned("scale").unwrap_or_else(|| "full".into());
        if scale != "smoke" && scale != "full" {
            return Err(format!("unknown scale {scale:?} (want smoke or full)"));
        }
        return Ok(Mode::Campaign(CampaignArgs {
            out_dir: owned("out-dir").ok_or("--campaign needs --out-dir DIR")?,
            seed: flags.get("seed").map_or(Ok(0xF1A), parse_seed)?,
            scale,
            schedulers,
        }));
    }
    if let Some(theorem) = owned("refute") {
        flags.reject_unlisted(REFUTE)?;
        return Ok(Mode::Refute(RefuteArgs {
            theorem,
            emit_cert: owned("emit-cert").ok_or("--refute needs --emit-cert FILE")?,
            protocol: owned("protocol"),
            f: positive(&flags, "f", 1)?,
            graph: owned("graph"),
            max_ticks: flags.optional("max-ticks")?,
            max_payload_bytes: flags.optional("max-payload-bytes")?,
        }));
    }
    if let Some(suite) = owned("bench") {
        flags.reject_unlisted(BENCH)?;
        if !["substrate", "refuters", "runcache", "serve", "campaign"].contains(&suite.as_str()) {
            return Err(format!(
                "unknown suite {suite:?} (want substrate, refuters, runcache, serve, or campaign)"
            ));
        }
        return Ok(Mode::Bench(BenchArgs {
            suite,
            samples: positive(&flags, "samples", 15)?,
            out: owned("out"),
        }));
    }
    flags.reject_unlisted(TABLES)?;
    Ok(Mode::Tables)
}

/// A decimal seed, or the `0x`-prefixed hex the campaign report prints, so
/// a seed can be pasted back verbatim.
fn parse_seed(raw: &str) -> Result<u64, String> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    }
    .map_err(|e| format!("--seed {raw:?}: {e}"))
}

/// The value of `--flag` as a positive integer, or `default` when absent.
fn positive(flags: &Flags, flag: &str, default: usize) -> Result<usize, String> {
    match flags.parsed(flag, default)? {
        0 => Err(format!("--{flag} must be positive")),
        n => Ok(n),
    }
}

fn run_refute(args: &RefuteArgs) -> Result<(), String> {
    let mut policy = RunPolicy::default();
    if let Some(t) = args.max_ticks {
        policy.max_ticks = t;
    }
    if let Some(b) = args.max_payload_bytes {
        policy.max_payload_bytes = b;
    }
    let theorem = Theorem::parse(&args.theorem).map_err(|e| e.to_string())?;
    let graph = match &args.graph {
        Some(name) => Some(query::parse_graph(name).map_err(|e| e.to_string())?),
        None => None,
    };
    let bytes = query::refute_to_bytes(
        theorem,
        args.protocol.as_deref(),
        graph.as_ref(),
        args.f,
        policy,
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(&args.emit_cert, &bytes)
        .map_err(|e| format!("writing {}: {e}", args.emit_cert))?;
    match flm_core::codec::decode_any(&bytes).map_err(|e| e.to_string())? {
        AnyCertificate::Discrete(cert) => eprintln!(
            "wrote {} ({}, {} chain links)",
            args.emit_cert,
            cert.protocol,
            cert.chain.len()
        ),
        AnyCertificate::Clock(cert) => eprintln!("wrote {} ({})", args.emit_cert, cert.protocol),
        AnyCertificate::Async(cert) => eprintln!(
            "wrote {} ({}, {} scheduled deliveries, strategy {})",
            args.emit_cert,
            cert.protocol,
            cert.schedule.len(),
            cert.strategy
        ),
    }
    print_profile();
    Ok(())
}

/// With `FLM_PROFILE=1`, prints the per-phase timing and run-cache summary
/// accumulated over the refutation (and its verification) to stderr.
fn print_profile() {
    if flm_core::profile::enabled() {
        eprint!("{}", flm_core::profile::report());
    }
}

fn run_campaign_cli(args: &CampaignArgs) -> Result<(), String> {
    let config = match args.scale.as_str() {
        "smoke" => campaign::smoke_config(args.seed),
        _ => campaign::full_config(args.seed),
    };
    let config = campaign::with_schedulers(config, args.schedulers.clone());
    let outcome = campaign::run_campaign(&config);
    let report_path = campaign::write_campaign(&outcome, std::path::Path::new(&args.out_dir))
        .map_err(|e| format!("writing {}: {e}", args.out_dir))?;
    eprintln!(
        "campaign seed {:#x} ({} scale): {} runs, {} violations (mean shrink ratio {:.2}x in \
         nodes), {} incidents",
        outcome.report.seed,
        args.scale,
        outcome.report.runs,
        outcome.report.violations.len(),
        outcome.report.mean_shrink_ratio(),
        outcome.report.incidents.len(),
    );
    eprintln!(
        "wrote {} certificates and {}",
        outcome.certs.len(),
        report_path.display()
    );
    print_profile();
    Ok(())
}

fn run_bench(args: &BenchArgs) {
    let suite = match args.suite.as_str() {
        "substrate" => suites::substrate_suite(args.samples),
        "runcache" => suites::runcache_suite(args.samples),
        "serve" => suites::serve_suite(args.samples),
        "campaign" => suites::campaign_suite(args.samples),
        _ => suites::refuter_suite(args.samples),
    };
    let json = suites::to_json(&args.suite, &suite);
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            for (label, ratio) in &suite.speedups {
                eprintln!("{label}: {ratio:.2}x");
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn print_tables() {
    println!("# FLM experiment tables (regenerated)\n");

    println!("## E9 — adequacy frontier\n");
    println!("| graph | n | κ | f | adequate | outcome |");
    println!("|---|---|---|---|---|---|");
    for r in experiments::frontier_rows(false) {
        let outcome = match r.outcome {
            experiments::FrontierOutcome::Refuted { bound } => {
                format!("refuted ({bound} bound), certificate verified")
            }
            experiments::FrontierOutcome::ProtocolWins => "protocol succeeds".into(),
        };
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            r.graph, r.n, r.kappa, r.f, r.adequate, outcome
        );
    }

    println!("\n## E11 — protocol costs (honest mixed-input runs)\n");
    println!("| protocol | graph | f | ticks | bytes on wire |");
    println!("|---|---|---|---|---|");
    for r in experiments::protocol_cost_rows() {
        println!(
            "| {} | {} | {} | {} | {} |",
            r.protocol, r.graph, r.f, r.rounds, r.bytes
        );
    }

    println!("\n## E6/E11 — DLPSW convergence on K4, one random Byzantine node\n");
    println!("| rounds | measured spread | guaranteed bound Δ/2^R |");
    println!("|---|---|---|");
    for r in experiments::approx_convergence_rows(6, 3) {
        println!("| {} | {:.6} | {:.6} |", r.rounds, r.spread, r.bound);
    }

    println!("\n## E3/E6/E7 — refutation apparatus sizes\n");
    println!("| construction | parameter | cover nodes | chain length |");
    println!("|---|---|---|---|");
    let mut rows = vec![experiments::weak_ring_row()];
    rows.extend(experiments::general_ring_rows());
    rows.extend(experiments::eps_ring_rows());
    rows.extend(experiments::clock_ring_rows());
    for r in rows {
        println!(
            "| {} | {} | {} | {} |",
            r.construction, r.parameter, r.cover_nodes, r.chain
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Mode, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse(&args)
    }

    #[test]
    fn each_mode_accepts_its_own_flags() {
        assert!(matches!(parse_args(&[]), Ok(Mode::Tables)));
        let Ok(Mode::Bench(bench)) =
            parse_args(&["--bench", "serve", "--samples", "3", "--out", "b.json"])
        else {
            panic!("not a bench run");
        };
        assert_eq!((bench.suite.as_str(), bench.samples), ("serve", 3));
        assert_eq!(bench.out.as_deref(), Some("b.json"));
        let Ok(Mode::Refute(refute)) = parse_args(&[
            "--refute",
            "ba-nodes",
            "--emit-cert",
            "c.flmc",
            "--protocol",
            "EIG(f=2)",
            "--f",
            "2",
            "--graph",
            "complete6",
            "--max-ticks",
            "64",
            "--max-payload-bytes",
            "512",
        ]) else {
            panic!("not a refute run");
        };
        assert_eq!((refute.theorem.as_str(), refute.f), ("ba-nodes", 2));
        assert_eq!(refute.emit_cert, "c.flmc");
        assert_eq!(refute.protocol.as_deref(), Some("EIG(f=2)"));
        assert_eq!(refute.graph.as_deref(), Some("complete6"));
        assert_eq!(
            (refute.max_ticks, refute.max_payload_bytes),
            (Some(64), Some(512))
        );
        let Ok(Mode::Campaign(campaign)) = parse_args(&[
            "--campaign",
            "--out-dir",
            "d",
            "--seed",
            "7",
            "--scale",
            "smoke",
            "--scheduler",
            "async-fair",
        ]) else {
            panic!("not a campaign run");
        };
        assert_eq!((campaign.out_dir.as_str(), campaign.seed), ("d", 7));
        assert_eq!(campaign.scale, "smoke");
        assert_eq!(campaign.schedulers, [SchedulerKind::AsyncFair]);
    }

    #[test]
    fn a_flag_of_another_mode_is_rejected() {
        let err = |args: &[&str]| parse_args(args).unwrap_err();
        assert_eq!(
            err(&["--campaign", "--out-dir", "d", "--samples", "3"]),
            "unknown flag --samples"
        );
        assert_eq!(
            err(&["--refute", "ba-nodes", "--emit-cert", "c", "--seed", "1"]),
            "unknown flag --seed"
        );
        assert_eq!(
            err(&["--bench", "serve", "--emit-cert", "c"]),
            "unknown flag --emit-cert"
        );
        assert_eq!(
            err(&["--refute", "ba-nodes", "--bench", "serve"]),
            "unknown flag --bench"
        );
        assert_eq!(err(&["--out", "t.md"]), "unknown flag --out");
        assert_eq!(err(&["tables"]), "unexpected operand \"tables\"");
    }

    #[test]
    fn help_asks_for_the_usage_alone() {
        assert_eq!(parse_args(&["--help"]).unwrap_err(), "");
        assert_eq!(parse_args(&["--bench", "serve", "--help"]).unwrap_err(), "");
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        let seed = |raw: &str| match parse_args(&["--campaign", "--out-dir", "d", "--seed", raw]) {
            Ok(Mode::Campaign(c)) => c.seed,
            other => panic!("{other:?}"),
        };
        assert_eq!(seed("0xF1A"), 0xF1A);
        assert_eq!(seed("0Xf1a"), 0xF1A);
        assert_eq!(seed("3866"), 3866);
        assert!(parse_args(&["--campaign", "--out-dir", "d", "--seed", "0xZZ"]).is_err());
        let Ok(Mode::Campaign(default)) = parse_args(&["--campaign", "--out-dir", "d"]) else {
            panic!("not a campaign run");
        };
        assert_eq!(default.seed, 0xF1A);
        assert_eq!(default.scale, "full");
        assert_eq!(default.schedulers, [SchedulerKind::Sync]);
    }

    #[test]
    fn schedulers_are_a_list_without_duplicates() {
        let Ok(Mode::Campaign(c)) = parse_args(&[
            "--campaign",
            "--out-dir",
            "d",
            "--scheduler",
            "sync,async-fair,sync",
        ]) else {
            panic!("not a campaign run");
        };
        assert_eq!(
            c.schedulers,
            [SchedulerKind::Sync, SchedulerKind::AsyncFair]
        );
        let twice = ["--scheduler", "sync", "--scheduler", "async-fair"];
        let err = parse_args(&[&["--campaign", "--out-dir", "d"][..], &twice].concat());
        assert_eq!(err.unwrap_err(), "--scheduler given twice");
        assert!(parse_args(&["--campaign", "--out-dir", "d", "--scheduler", "eager"]).is_err());
    }

    #[test]
    fn zero_samples_and_zero_f_are_rejected() {
        assert_eq!(
            parse_args(&["--bench", "serve", "--samples", "0"]).unwrap_err(),
            "--samples must be positive"
        );
        assert_eq!(
            parse_args(&["--refute", "ba-nodes", "--emit-cert", "c", "--f", "0"]).unwrap_err(),
            "--f must be positive"
        );
        assert!(parse_args(&["--bench", "nope"]).is_err());
        assert!(parse_args(&["--campaign", "--out-dir", "d", "--scale", "huge"]).is_err());
        assert_eq!(
            parse_args(&["--refute", "ba-nodes"]).unwrap_err(),
            "--refute needs --emit-cert FILE"
        );
        assert_eq!(
            parse_args(&["--campaign"]).unwrap_err(),
            "--campaign needs --out-dir DIR"
        );
    }
}
