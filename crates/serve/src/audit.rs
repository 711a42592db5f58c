//! The audit path as a library: decode, canonicality check, registry
//! resolve, re-verify — exactly what the `flm-audit` binary does, factored
//! out so the `flm-serve` Audit RPC and the binary share one code path and
//! one exit-code contract.
//!
//! | exit | meaning |
//! |---|---|
//! | 0 | certificate decoded and the violation reproduced |
//! | 1 | certificate decoded but verification failed (not reproduced) |
//! | 2 | malformed bytes, non-canonical encoding, or unresolvable protocol |

use std::fmt::Write as _;

use flm_core::certificate::VerifyError;
use flm_core::codec::AnyCertificate;
use flm_protocols::registry::RegistryError;
use flm_protocols::{resolve, resolve_clock};

use crate::rpc::Verdict;

/// `flm-audit` exit code: violation reproduced.
pub const EXIT_VERIFIED: u8 = 0;
/// `flm-audit` exit code: well-formed but not reproduced.
pub const EXIT_NOT_REPRODUCED: u8 = 1;
/// `flm-audit` exit code: malformed input.
pub const EXIT_MALFORMED: u8 = 2;

/// Outcome of one audit: the exit code plus what the binary would print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// 0 verified / 1 not reproduced / 2 malformed.
    pub exit_code: u8,
    /// What `flm-audit` prints to stdout (the certificate rendering and the
    /// verdict line; empty on failure).
    pub report: String,
    /// What `flm-audit` prints to stderr (failure explanations, timeline
    /// replay problems; empty on clean success).
    pub diagnostics: String,
}

/// Audits a certificate file image: decode, canonicality check, resolve the
/// recorded protocol, re-verify, and (optionally, discrete certificates
/// only) replay the violating behavior's timeline into the report.
///
/// Never panics on hostile bytes — every failure is a structured exit code
/// with a diagnostic, the same contract `tests/hostile_certificates.rs`
/// pins for the underlying decoder.
pub fn audit_bytes(bytes: &[u8], timeline: bool) -> AuditReport {
    let mut report = String::new();
    let mut diagnostics = String::new();
    let exit_code = audit_into(bytes, timeline, &mut report, &mut diagnostics);
    AuditReport {
        exit_code,
        report,
        diagnostics,
    }
}

fn audit_into(bytes: &[u8], timeline: bool, report: &mut String, diagnostics: &mut String) -> u8 {
    let cert = match flm_core::codec::decode_any(bytes) {
        Ok(cert) => cert,
        Err(e) => {
            let _ = writeln!(diagnostics, "{e}");
            return EXIT_MALFORMED;
        }
    };
    // Canonicality check before anything runs: accepted bytes must re-encode
    // to themselves, or the file's hash is not a fingerprint of its content.
    if cert.to_bytes() != bytes {
        let _ = writeln!(
            diagnostics,
            "decoded certificate does not re-encode to the input bytes"
        );
        return EXIT_MALFORMED;
    }
    match resolve_and_verify(&cert) {
        Ok(Ok(())) => {}
        Ok(Err(VerifyError::NotReproduced { reason })) => {
            let _ = writeln!(diagnostics, "NOT REPRODUCED: {reason}");
            return EXIT_NOT_REPRODUCED;
        }
        Ok(Err(VerifyError::Malformed { reason })) => {
            let _ = writeln!(diagnostics, "malformed certificate: {reason}");
            return EXIT_MALFORMED;
        }
        Err(e) => {
            let _ = writeln!(diagnostics, "{e}");
            return EXIT_MALFORMED;
        }
    }
    let _ = match &cert {
        AnyCertificate::Discrete(c) => writeln!(report, "{c}"),
        AnyCertificate::Clock(c) => writeln!(report, "{c}"),
        AnyCertificate::Async(c) => writeln!(report, "{c}"),
    };
    let _ = writeln!(
        report,
        "VERIFIED: violation reproduced against {}",
        cert.protocol()
    );
    match &cert {
        AnyCertificate::Discrete(cert) if timeline => {
            // The protocol resolved above, so it resolves again here.
            if let Ok(protocol) = resolve(&cert.protocol) {
                match cert.replay_violating_behavior(&*protocol) {
                    Ok(behavior) => {
                        let _ = write!(report, "{}", behavior.render_timeline());
                    }
                    Err(e) => {
                        let _ = writeln!(diagnostics, "timeline replay failed: {e}");
                    }
                }
            }
        }
        _ if timeline => {
            let _ = writeln!(
                diagnostics,
                "--timeline applies to discrete certificates only"
            );
        }
        _ => {}
    }
    EXIT_VERIFIED
}

/// Resolves the certificate's recorded protocol (clock certificates
/// through the clock registry) and re-verifies it. An asynchronous
/// certificate's verification replays its recorded schedule delivery by
/// delivery. The outer error is a protocol name the registry cannot
/// resolve.
fn resolve_and_verify(cert: &AnyCertificate) -> Result<Result<(), VerifyError>, RegistryError> {
    Ok(match cert {
        AnyCertificate::Discrete(c) => c.verify(&*resolve(&c.protocol)?),
        AnyCertificate::Clock(c) => c.verify(&*resolve_clock(&c.protocol)?),
        AnyCertificate::Async(c) => c.verify(&*resolve(&c.protocol)?),
    })
}

/// One row of a batch audit: the file name (no directory) and its
/// individual [`audit_bytes`] outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// File name within the audited directory.
    pub file: String,
    /// The per-file audit outcome (timeline rendering is never requested
    /// in batch mode).
    pub report: AuditReport,
}

/// Audits every `*.flmc` file in `dir` in sorted file-name order — the
/// directory layout `regen --campaign` writes. Returns an error string if
/// the directory cannot be read or contains no certificate files; an
/// unreadable individual file becomes a malformed entry, not an error, so
/// one bad file cannot hide the verdicts of the rest.
pub fn audit_dir(dir: &std::path::Path) -> Result<Vec<BatchEntry>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.ends_with(".flmc"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no .flmc files in {}", dir.display()));
    }
    Ok(names
        .into_iter()
        .map(|file| {
            let report = match std::fs::read(dir.join(&file)) {
                Ok(bytes) => audit_bytes(&bytes, false),
                Err(e) => AuditReport {
                    exit_code: EXIT_MALFORMED,
                    report: String::new(),
                    diagnostics: format!("reading {file}: {e}\n"),
                },
            };
            BatchEntry { file, report }
        })
        .collect())
}

/// The exit code for a whole batch: the worst per-file code, so `0` means
/// every certificate in the directory reproduced its violation.
pub fn batch_exit_code(entries: &[BatchEntry]) -> u8 {
    entries
        .iter()
        .map(|e| e.report.exit_code)
        .max()
        .unwrap_or(EXIT_MALFORMED)
}

/// Renders the per-file verdict table `flm-audit --batch` prints: one row
/// per certificate plus a summary line.
pub fn render_batch_table(entries: &[BatchEntry]) -> String {
    let width = entries
        .iter()
        .map(|e| e.file.len())
        .max()
        .unwrap_or(4)
        .max("file".len());
    let mut out = String::new();
    let _ = writeln!(out, "{:<width$}  verdict", "file");
    let mut counts = [0usize; 3];
    for entry in entries {
        let verdict = match entry.report.exit_code {
            EXIT_VERIFIED => "VERIFIED",
            EXIT_NOT_REPRODUCED => "NOT REPRODUCED",
            _ => "MALFORMED",
        };
        counts[usize::from(entry.report.exit_code.min(2))] += 1;
        let _ = writeln!(out, "{:<width$}  {verdict}", entry.file);
    }
    let _ = writeln!(
        out,
        "{} audited: {} verified, {} not reproduced, {} malformed",
        entries.len(),
        counts[0],
        counts[1],
        counts[2]
    );
    out
}

/// The lighter verification path behind the Verify RPC: decode, resolve,
/// re-verify — no canonicality requirement, no rendering. Returns the
/// verdict plus a detail string (the protocol name on success, the failure
/// reason otherwise).
pub fn verify_bytes(bytes: &[u8]) -> (Verdict, String) {
    let cert = match flm_core::codec::decode_any(bytes) {
        Ok(cert) => cert,
        Err(e) => return (Verdict::Malformed, e.to_string()),
    };
    match resolve_and_verify(&cert) {
        Err(e) => (Verdict::Malformed, e.to_string()),
        Ok(Ok(())) => (Verdict::Verified, cert.protocol().to_string()),
        Ok(Err(VerifyError::NotReproduced { reason })) => (Verdict::NotReproduced, reason),
        Ok(Err(VerifyError::Malformed { reason })) => (Verdict::Malformed, reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{refute_to_bytes, Theorem};
    use flm_sim::RunPolicy;

    fn sample_bytes() -> Vec<u8> {
        refute_to_bytes(Theorem::BaNodes, None, None, 1, RunPolicy::default()).unwrap()
    }

    #[test]
    fn fresh_certificate_audits_clean() {
        let report = audit_bytes(&sample_bytes(), false);
        assert_eq!(report.exit_code, EXIT_VERIFIED, "{}", report.diagnostics);
        assert!(report.report.contains("VERIFIED"));
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn timeline_lands_in_report() {
        let report = audit_bytes(&sample_bytes(), true);
        assert_eq!(report.exit_code, EXIT_VERIFIED);
        assert!(
            report.report.contains("tick"),
            "no timeline: {}",
            report.report
        );
    }

    #[test]
    fn garbage_is_malformed() {
        let report = audit_bytes(b"not a certificate", false);
        assert_eq!(report.exit_code, EXIT_MALFORMED);
        assert!(report.report.is_empty());
        assert!(!report.diagnostics.is_empty());
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(b"junk");
        assert_eq!(audit_bytes(&bytes, false).exit_code, EXIT_MALFORMED);
    }

    #[test]
    fn verify_bytes_matches_audit_verdicts() {
        let bytes = sample_bytes();
        let (verdict, detail) = verify_bytes(&bytes);
        assert_eq!(verdict, Verdict::Verified);
        assert!(detail.contains("EIG"), "detail {detail:?}");
        let (verdict, _) = verify_bytes(b"garbage");
        assert_eq!(verdict, Verdict::Malformed);
    }

    #[test]
    fn batch_audit_tables_every_file_and_takes_the_worst_exit() {
        let dir = std::env::temp_dir().join(format!("flm-audit-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b-good.flmc"), sample_bytes()).unwrap();
        std::fs::write(dir.join("a-bad.flmc"), b"garbage").unwrap();
        std::fs::write(dir.join("ignored.txt"), b"not a cert").unwrap();

        let entries = audit_dir(&dir).unwrap();
        assert_eq!(
            entries.iter().map(|e| e.file.as_str()).collect::<Vec<_>>(),
            ["a-bad.flmc", "b-good.flmc"],
            "sorted, .flmc only"
        );
        assert_eq!(batch_exit_code(&entries), EXIT_MALFORMED);
        let table = render_batch_table(&entries);
        assert!(table.contains("a-bad.flmc"));
        assert!(table.contains("MALFORMED"));
        assert!(table.contains("b-good.flmc"));
        assert!(table.contains("VERIFIED"));
        assert!(table.contains("2 audited: 1 verified, 0 not reproduced, 1 malformed"));

        std::fs::remove_file(dir.join("a-bad.flmc")).unwrap();
        let entries = audit_dir(&dir).unwrap();
        assert_eq!(batch_exit_code(&entries), EXIT_VERIFIED);

        std::fs::remove_dir_all(&dir).unwrap();
        assert!(audit_dir(&dir).is_err(), "unreadable dir is an error");
    }

    #[test]
    fn empty_directory_is_an_error_not_a_silent_pass() {
        let dir = std::env::temp_dir().join(format!("flm-audit-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = audit_dir(&dir).unwrap_err();
        assert!(err.contains("no .flmc files"), "{err}");
        assert_eq!(batch_exit_code(&[]), EXIT_MALFORMED);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn async_certificates_audit_clean_too() {
        let bytes =
            refute_to_bytes(Theorem::FlpAsync, None, None, 1, RunPolicy::default()).unwrap();
        let report = audit_bytes(&bytes, false);
        assert_eq!(report.exit_code, EXIT_VERIFIED, "{}", report.diagnostics);
        assert!(report.report.contains("FLP"), "{}", report.report);
        let (verdict, detail) = verify_bytes(&bytes);
        assert_eq!(verdict, Verdict::Verified);
        assert!(detail.contains("WaitForAll"), "detail {detail:?}");
    }

    #[test]
    fn clock_certificates_audit_clean_too() {
        let bytes =
            refute_to_bytes(Theorem::ClockSync, None, None, 1, RunPolicy::default()).unwrap();
        let report = audit_bytes(&bytes, false);
        assert_eq!(report.exit_code, EXIT_VERIFIED, "{}", report.diagnostics);
    }
}
