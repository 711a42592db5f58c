//! Hostile-certificate corpus: the audit path must turn every corrupted,
//! truncated, or tampered certificate into a structured error — never a
//! panic, never an unbounded allocation, and never a silent pass for
//! evidence that was forged.
//!
//! Two layers are exercised. Byte-level mutants (truncation at every cut
//! point, a flipped byte at every offset) stress the decoder; struct-level
//! mutants (tampered decisions, out-of-range nodes, forged misbehavior)
//! re-encode cleanly and stress `Certificate::verify`'s replay.

use flm_core::certificate::VerifyError;
use flm_core::codec::CertDecodeError;
use flm_core::{refute, Certificate};
use flm_graph::{builders, NodeId};
use flm_protocols::Eig;
use flm_sim::{Decision, DeviceMisbehavior, Input, MisbehaviorKind, Tick};

fn sample() -> (Certificate, Eig) {
    let protocol = Eig::new(1);
    let cert = refute::ba_nodes(&protocol, &builders::triangle(), 1).unwrap();
    (cert, protocol)
}

/// Truncating the file at *every* prefix length yields a structured decode
/// error, not a panic.
#[test]
fn truncation_at_every_offset_is_structured() {
    let (cert, _) = sample();
    let bytes = cert.to_bytes();
    for cut in 0..bytes.len() {
        let err = Certificate::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes decoded successfully"));
        // Every failure is one of the structured variants; reaching here at
        // all means no panic escaped.
        let _ = err.to_string();
    }
    assert!(Certificate::from_bytes(&bytes).is_ok());
}

/// Flipping any single byte either fails to decode (structurally) or
/// decodes to a certificate that re-encodes canonically and verifies
/// without panicking. Corrupted evidence may still verify when the flipped
/// byte only touches prose (the covering description, the evidence string);
/// what matters is that no offset can crash the auditor.
#[test]
fn corruption_at_every_offset_never_panics() {
    let (cert, protocol) = sample();
    let bytes = cert.to_bytes();
    for offset in 0..bytes.len() {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 0xFF;
        match Certificate::from_bytes(&mutant) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(decoded) => {
                // Canonicality must survive mutation: accepted bytes
                // re-encode to themselves.
                assert_eq!(
                    decoded.to_bytes(),
                    mutant,
                    "offset {offset}: accepted bytes do not re-encode identically"
                );
                // Verification must complete without panicking, whatever
                // the verdict.
                let _ = decoded.verify(&protocol);
            }
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (cert, _) = sample();
    let mut bytes = cert.to_bytes();
    bytes.extend_from_slice(b"extra");
    assert!(matches!(
        Certificate::from_bytes(&bytes),
        Err(CertDecodeError::TrailingBytes { count: 5 })
    ));
}

#[test]
fn out_of_range_violation_link_is_rejected_at_decode() {
    let (mut cert, _) = sample();
    cert.violation.link = cert.chain.len() + 7;
    assert!(matches!(
        Certificate::from_bytes(&cert.to_bytes()),
        Err(CertDecodeError::Invalid {
            context: "violation.link",
            ..
        })
    ));
}

#[test]
fn tampered_decisions_do_not_reproduce() {
    let (cert, protocol) = sample();
    let link = cert.violation.link;

    // Flip a recorded boolean decision.
    let mut tampered = cert.clone();
    for (_, d) in &mut tampered.chain[link].decisions {
        if let Some(Decision::Bool(b)) = d {
            *b = !*b;
            break;
        }
    }
    let round_tripped = Certificate::from_bytes(&tampered.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::NotReproduced { .. })
    ));

    // Duplicate one node's decision entry: caught structurally.
    let mut duplicated = cert.clone();
    let first = duplicated.chain[link].decisions[0];
    duplicated.chain[link].decisions.push(first);
    let round_tripped = Certificate::from_bytes(&duplicated.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::Malformed { .. })
    ));

    // Drop a node's decision entry: the coverage check catches it.
    let mut dropped = cert.clone();
    dropped.chain[link].decisions.pop();
    let round_tripped = Certificate::from_bytes(&dropped.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::Malformed { .. })
    ));
}

#[test]
fn out_of_range_nodes_are_rejected_at_decode() {
    let (cert, _) = sample();
    let link = cert.violation.link;

    let mut bad_masq = cert.clone();
    if let Some((v, _)) = bad_masq.chain[link].masquerade.first_mut() {
        *v = NodeId(99);
    }
    assert!(matches!(
        Certificate::from_bytes(&bad_masq.to_bytes()),
        Err(CertDecodeError::Invalid { .. })
    ));

    let mut bad_correct = cert.clone();
    bad_correct.chain[link].correct.push(NodeId(40));
    assert!(matches!(
        Certificate::from_bytes(&bad_correct.to_bytes()),
        Err(CertDecodeError::Invalid { .. })
    ));

    let mut bad_decision = cert;
    bad_decision.chain[link].decisions.push((NodeId(77), None));
    assert!(matches!(
        Certificate::from_bytes(&bad_decision.to_bytes()),
        Err(CertDecodeError::Invalid { .. })
    ));
}

/// Returns `bytes` with the byte just before the one occurrence of
/// `marker`, minus `back` more, replaced by `tag`.
fn retagged(bytes: &[u8], marker: &[u8], back: usize, tag: u8) -> Vec<u8> {
    let at = bytes
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("marker present");
    assert_eq!(
        bytes.windows(marker.len()).filter(|w| *w == marker).count(),
        1,
        "marker is unique"
    );
    let mut out = bytes.to_vec();
    out[at - 1 - back] = tag;
    out
}

/// An unknown input or misbehavior-kind tag is a typed error at the chain
/// link field that holds the value.
#[test]
fn unknown_leaf_tags_are_typed_at_their_field() {
    let (mut cert, _) = sample();
    let marker = 0x0123_4567_89AB_CDEFu64;
    cert.chain[0].inputs[0] = Input::Real(f64::from_bits(marker));
    let bytes = retagged(&cert.to_bytes(), &marker.to_be_bytes(), 0, 7);
    let err = Certificate::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        err,
        CertDecodeError::Invalid {
            context: "link.inputs",
            reason: "unknown tag 7".into()
        }
    );

    let (mut cert, _) = sample();
    cert.chain[0].misbehavior.push(DeviceMisbehavior {
        node: NodeId(0),
        tick: Tick(0),
        kind: MisbehaviorKind::Panic("unknown-kind-marker".into()),
    });
    // The kind tag sits before the message's 4-byte length prefix.
    let bytes = retagged(&cert.to_bytes(), b"unknown-kind-marker", 4, 9);
    let err = Certificate::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        err,
        CertDecodeError::Invalid {
            context: "link.misbehavior",
            reason: "unknown tag 9".into()
        }
    );
}

/// A node assigned both as correct and masquerading is caught by the
/// replay's assignment audit (it round-trips through the codec, which only
/// checks ranges).
#[test]
fn doubly_assigned_node_is_malformed_at_verify() {
    let (mut cert, protocol) = sample();
    let link = cert.violation.link;
    let faulty = cert.chain[link].masquerade[0].0;
    cert.chain[link].correct.push(faulty);
    let round_tripped = Certificate::from_bytes(&cert.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::Malformed { .. })
    ));
}

#[test]
fn wrong_input_arity_is_malformed_at_verify() {
    let (mut cert, protocol) = sample();
    let link = cert.violation.link;
    cert.chain[link].inputs.push(Input::Bool(true));
    let round_tripped = Certificate::from_bytes(&cert.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::Malformed { .. })
    ));
}

/// Rewriting the adversary's recorded traffic must never crash the replay,
/// and the traffic must be load-bearing: not every byte is decision-bearing
/// (a mangled message the receiver drops, or a single altered leaf absorbed
/// by majority voting, leaves the outcome intact — and such a mutant is just
/// a different valid adversary), but *some* flipped payload bit has to
/// change what the correct nodes decide.
#[test]
fn tampered_masquerade_traffic_does_not_reproduce() {
    let (cert, protocol) = sample();
    let link = cert.violation.link;
    let mut any_rejected = false;
    let trace_count = cert.chain[link].masquerade[0].1.len();
    for trace_idx in 0..trace_count {
        let tick_count = cert.chain[link].masquerade[0].1[trace_idx].len();
        for tick in 0..tick_count {
            let Some(payload) = cert.chain[link].masquerade[0].1[trace_idx][tick].clone() else {
                continue;
            };
            for byte in 0..payload.as_bytes().len() {
                let mut tampered = cert.clone();
                let mut bytes = payload.as_bytes().to_vec();
                bytes[byte] ^= 0x01;
                tampered.chain[link].masquerade[0].1[trace_idx][tick] = Some(bytes.into());
                let round_tripped = Certificate::from_bytes(&tampered.to_bytes()).unwrap();
                // Must return a verdict — structured error or pass — never
                // panic, whichever byte of the adversary's script changed.
                if round_tripped.verify(&protocol).is_err() {
                    any_rejected = true;
                }
            }
        }
    }
    assert!(
        any_rejected,
        "no payload bit of the recorded masquerade affects the replay; \
         the adversary's traffic is not load-bearing evidence"
    );
}

#[test]
fn forged_misbehavior_does_not_reproduce() {
    let (mut cert, protocol) = sample();
    let link = cert.violation.link;
    cert.chain[link]
        .misbehavior
        .push(flm_sim::DeviceMisbehavior {
            node: NodeId(0),
            tick: flm_sim::Tick(0),
            kind: flm_sim::MisbehaviorKind::Panic("forged".into()),
        });
    let round_tripped = Certificate::from_bytes(&cert.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::NotReproduced { .. })
    ));
}

#[test]
fn failed_scenario_match_is_malformed() {
    let (mut cert, protocol) = sample();
    let link = cert.violation.link;
    cert.chain[link].scenario_matched = false;
    let round_tripped = Certificate::from_bytes(&cert.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&protocol),
        Err(VerifyError::Malformed { .. })
    ));
}

/// A violation is evidence only within the fault budget: the triangle
/// certificate (one masquerading node, `f = 1`) re-encoded with `f = 0`
/// has more faulty nodes than its budget, and neither `verify` nor the
/// auditor accepts it.
#[test]
fn a_violation_past_the_fault_budget_is_malformed() {
    let (mut cert, protocol) = sample();
    cert.f = 0;
    let bytes = cert.to_bytes();
    let round_tripped = Certificate::from_bytes(&bytes).unwrap();
    let verdict = round_tripped.verify(&protocol);
    assert!(
        matches!(verdict, Err(VerifyError::Malformed { .. })),
        "{verdict:?}"
    );
    let audit = flm_serve::audit::audit_bytes(&bytes, false);
    assert_eq!(
        audit.exit_code,
        flm_serve::audit::EXIT_MALFORMED,
        "{}",
        audit.diagnostics
    );
}

/// A certificate naming a different protocol than the one that produced it
/// fails verification instead of panicking — even when the named protocol's
/// device constructor asserts graph invariants.
#[test]
fn protocol_mismatch_is_an_error_not_a_panic() {
    let (cert, _) = sample();
    // Same family, different budget: decisions diverge.
    let wrong = flm_protocols::resolve("EIG(f=2)").unwrap();
    assert!(cert.verify(&*wrong).is_err());
    // A protocol whose constructor panics off the complete graph: the
    // triangle IS complete, so swap in a cert over cycle(4) where DLPSW's
    // completeness assert fires — contained into a structured error.
    let naive = flm_core::refute::ba_connectivity(
        &flm_protocols::registry::NaiveMajority,
        &builders::cycle(4),
        1,
    )
    .unwrap();
    let asserting = flm_protocols::resolve("DLPSW(f=1, R=4)").unwrap();
    assert!(matches!(
        naive.verify(&*asserting),
        Err(VerifyError::Malformed { .. }) | Err(VerifyError::NotReproduced { .. })
    ));
}

/// Produces a genuine asynchronous starvation certificate to mutate: the
/// `WaitForAll` prey on the complete 4-graph, refuted by the scheduling
/// adversary.
fn async_sample() -> (
    flm_core::refute::AsyncCertificate,
    Box<dyn flm_sim::Protocol>,
) {
    let protocol = flm_protocols::resolve("WaitForAll").unwrap();
    let cert = refute::flp_async(&*protocol, &builders::complete(4)).unwrap();
    (cert, protocol)
}

/// Kind-2 (asynchronous) certificates: truncating at every prefix length is
/// a structured decode error, never a panic.
#[test]
fn async_truncation_at_every_offset_is_structured() {
    let (cert, _) = async_sample();
    let bytes = cert.to_bytes();
    for cut in 0..bytes.len() {
        let err = flm_core::refute::AsyncCertificate::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes decoded successfully"));
        let _ = err.to_string();
    }
    assert!(flm_core::refute::AsyncCertificate::from_bytes(&bytes).is_ok());
}

/// Kind-2: flipping any single byte either fails structurally or decodes to
/// bytes that re-encode canonically and verify without panicking.
#[test]
fn async_corruption_at_every_offset_never_panics() {
    let (cert, protocol) = async_sample();
    let bytes = cert.to_bytes();
    for offset in 0..bytes.len() {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 0xFF;
        match flm_core::refute::AsyncCertificate::from_bytes(&mutant) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(decoded) => {
                assert_eq!(
                    decoded.to_bytes(),
                    mutant,
                    "offset {offset}: accepted bytes do not re-encode identically"
                );
                let _ = decoded.verify(&*protocol);
            }
        }
    }
}

#[test]
fn async_trailing_garbage_is_rejected() {
    let (cert, _) = async_sample();
    let mut bytes = cert.to_bytes();
    bytes.extend_from_slice(b"extra");
    assert!(matches!(
        flm_core::refute::AsyncCertificate::from_bytes(&bytes),
        Err(CertDecodeError::TrailingBytes { count: 5 })
    ));
}

/// Forged schedules are caught in layers: an out-of-range edge index and a
/// schedule longer than its own fairness budget die at decode; an entry
/// that replays an already-delivered message decodes (the indices are in
/// range) but the replay finds the channel empty and reports Malformed.
#[test]
fn async_forged_schedules_are_structured() {
    let (cert, protocol) = async_sample();
    let edges = cert.base.directed_edges().len() as u32;

    // Out-of-range directed-edge index.
    let mut out_of_range = cert.clone();
    out_of_range.schedule[0] = edges;
    assert!(matches!(
        flm_core::refute::AsyncCertificate::from_bytes(&out_of_range.to_bytes()),
        Err(CertDecodeError::Invalid {
            context: "schedule",
            ..
        })
    ));

    // Schedule/horizon mismatch: more deliveries than the recorded budget.
    let mut over_budget = cert.clone();
    over_budget.policy.max_ticks = (over_budget.schedule.len() as u32).saturating_sub(1);
    assert!(matches!(
        flm_core::refute::AsyncCertificate::from_bytes(&over_budget.to_bytes()),
        Err(CertDecodeError::Invalid {
            context: "schedule",
            ..
        })
    ));

    // Replayed-after-delivered: WaitForAll broadcasts exactly once, so each
    // directed edge carries one message ever; delivering some edge a second
    // time asks an empty channel to perform.
    assert!(cert.schedule.len() >= 2, "need a schedule worth forging");
    let mut replayed = cert.clone();
    let last = replayed.schedule.len() - 1;
    replayed.schedule[last] = replayed.schedule[0];
    let round_tripped =
        flm_core::refute::AsyncCertificate::from_bytes(&replayed.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&*protocol),
        Err(VerifyError::Malformed { .. }) | Err(VerifyError::NotReproduced { .. })
    ));

    // The untouched original still passes end to end.
    cert.verify(&*protocol).unwrap();
}

/// Clock certificates get the same treatment: byte corruption is structural.
#[test]
fn clock_certificate_corruption_never_panics() {
    use flm_core::problems::ClockSyncClaim;
    use flm_protocols::clock_sync::TrivialClockSync;
    use flm_sim::clock::TimeFn;

    let proto = TrivialClockSync {
        l: TimeFn::identity(),
    };
    let claim = ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(2.0),
        l: TimeFn::identity(),
        u: TimeFn::affine(2.0, 8.0),
        alpha: 2.0,
        t_prime: 1.0,
    };
    let cert = refute::clock_sync(&proto, &builders::triangle(), 1, &claim).unwrap();
    let bytes = cert.to_bytes();
    for cut in 0..bytes.len() {
        assert!(flm_core::refute::ClockCertificate::from_bytes(&bytes[..cut]).is_err());
    }
    for offset in 0..bytes.len() {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 0xFF;
        if let Ok(decoded) = flm_core::refute::ClockCertificate::from_bytes(&mutant) {
            assert_eq!(decoded.to_bytes(), mutant);
            let _ = decoded.verify(&proto);
        }
    }
    // Tampered logical readings must not reproduce.
    let mut tampered = cert;
    tampered.logical[0] += 1.0;
    let round_tripped =
        flm_core::refute::ClockCertificate::from_bytes(&tampered.to_bytes()).unwrap();
    assert!(matches!(
        round_tripped.verify(&proto),
        Err(VerifyError::NotReproduced { .. })
    ));
}
