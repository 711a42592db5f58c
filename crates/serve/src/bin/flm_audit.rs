//! `flm-audit` — standalone certificate checker.
//!
//! Loads an `FLMC` certificate file (written by `regen --emit-cert` or
//! `flm-client refute --out`), resolves the recorded protocol through the
//! `flm-protocols` registry, and re-verifies the certificate from the bytes
//! alone. The exit code is the result:
//!
//! | exit | meaning |
//! |---|---|
//! | 0 | certificate decoded and the violation reproduced |
//! | 1 | certificate decoded but verification failed (not reproduced) |
//! | 2 | file unreadable, malformed bytes, or unresolvable protocol |
//!
//! ```text
//! flm-audit CERT.flmc [--timeline] [--quiet]
//! flm-audit --batch DIR [--quiet]
//! ```
//!
//! `--timeline` re-executes the violating behavior and prints its full
//! message timeline; `--quiet` suppresses everything but errors.
//!
//! `--batch DIR` audits every `*.flmc` file in `DIR` (sorted by name — the
//! layout `regen --campaign` writes), prints a per-file verdict table, and
//! exits with the worst per-file code, so exit 0 certifies the whole
//! directory.
//!
//! The verdict logic lives in [`flm_serve::audit`] — the same code path the
//! `flm-serve` Audit RPC runs, so a certificate accepted here is accepted
//! over the wire and vice versa.

use std::process::ExitCode;

use flm_serve::audit::{
    audit_bytes, audit_dir, batch_exit_code, render_batch_table, EXIT_MALFORMED,
};
use flm_serve::flags::Flags;

/// The single-certificate usage line: the flags that mode accepts.
const SINGLE: &str = "flm-audit CERT [--timeline] [--quiet]";
/// The batch usage line: the flags that mode accepts.
const BATCH: &str = "flm-audit --batch DIR [--quiet]";

struct Args {
    path: String,
    batch: bool,
    timeline: bool,
    quiet: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = Flags::parse(args, &["timeline", "quiet"])?;
    let (path, batch) = match flags.get("batch") {
        Some(dir) => {
            flags.reject_unlisted(BATCH)?;
            (dir.to_owned(), true)
        }
        None => {
            let cert = (!flags.positional.is_empty()).then(|| flags.positional.remove(0));
            flags.reject_unlisted(SINGLE)?;
            (cert.ok_or("no certificate file given")?, false)
        }
    };
    Ok(Args {
        path,
        batch,
        timeline: flags.switch("timeline"),
        quiet: flags.switch("quiet"),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("flm-audit: {msg}");
            eprintln!("usage: {SINGLE}\n       {BATCH}");
            return ExitCode::from(EXIT_MALFORMED);
        }
    };
    if args.batch {
        let entries = match audit_dir(std::path::Path::new(&args.path)) {
            Ok(entries) => entries,
            Err(msg) => {
                eprintln!("flm-audit: {msg}");
                return ExitCode::from(EXIT_MALFORMED);
            }
        };
        if !args.quiet {
            print!("{}", render_batch_table(&entries));
        }
        for entry in &entries {
            for line in entry.report.diagnostics.lines() {
                eprintln!("flm-audit: {}: {line}", entry.file);
            }
        }
        return ExitCode::from(batch_exit_code(&entries));
    }
    let bytes = match std::fs::read(&args.path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("flm-audit: reading {}: {e}", args.path);
            return ExitCode::from(EXIT_MALFORMED);
        }
    };
    let outcome = audit_bytes(&bytes, args.timeline);
    if !args.quiet {
        print!("{}", outcome.report);
    }
    for line in outcome.diagnostics.lines() {
        eprintln!("flm-audit: {line}");
    }
    ExitCode::from(outcome.exit_code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse(&args)
    }

    #[test]
    fn each_mode_parses_its_own_flags() {
        let single = parse_args(&["c.flmc"]).unwrap();
        assert_eq!(single.path, "c.flmc");
        assert!(!single.batch && !single.timeline && !single.quiet);
        let loud = parse_args(&["c.flmc", "--timeline", "--quiet"]).unwrap();
        assert!(!loud.batch && loud.timeline && loud.quiet);
        let batch = parse_args(&["--batch", "dir", "--quiet"]).unwrap();
        assert_eq!(batch.path, "dir");
        assert!(batch.batch && !batch.timeline && batch.quiet);
    }

    #[test]
    fn a_bad_command_line_is_rejected() {
        let err = |args: &[&str]| parse_args(args).err().unwrap();
        assert_eq!(
            err(&["--batch", "dir", "--timeline"]),
            "unknown flag --timeline"
        );
        assert_eq!(err(&["a.flmc", "b.flmc"]), "unexpected operand \"b.flmc\"");
        assert_eq!(
            err(&["--batch", "dir", "a.flmc"]),
            "unexpected operand \"a.flmc\""
        );
        assert_eq!(err(&[]), "no certificate file given");
        assert_eq!(err(&["--quiet"]), "no certificate file given");
        assert_eq!(err(&["--verbose", "c.flmc"]), "unknown flag --verbose");
        assert_eq!(err(&["c.flmc", "--verbose", "x"]), "unknown flag --verbose");
    }
}
