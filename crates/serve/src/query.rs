//! Theorem-family queries: the shared vocabulary between `regen --refute`,
//! the `flm-serve` RPC handler, and the load generator.
//!
//! A refutation query is "a theorem family, a protocol name, a graph, and a
//! fault budget". This module owns the family grammar (the same strings
//! `regen --refute` accepts), the canonical per-family defaults, and
//! [`refute_to_bytes`] — run the family's refuter, self-verify the fresh
//! certificate, and return its portable `FLMC` bytes. Keeping this in one
//! place guarantees a certificate served over the wire is built by exactly
//! the code path the local binaries use, which is what makes the loopback
//! byte-identity tests meaningful.

use std::fmt;

use flm_core::problems::ClockSyncClaim;
use flm_core::refute;
use flm_graph::{builders, Graph};
use flm_protocols::{resolve, resolve_clock};
use flm_sim::clock::TimeFn;
use flm_sim::wire::Field;
use flm_sim::RunPolicy;

/// The eight refutable theorem families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Theorem {
    /// Theorem 1: Byzantine agreement needs `n ≥ 3f + 1` nodes.
    BaNodes,
    /// Theorem 1: Byzantine agreement needs connectivity `κ ≥ 2f + 1`.
    BaConnectivity,
    /// Theorem 2: weak agreement bounds.
    WeakAgreement,
    /// Theorem 4: the Byzantine firing squad.
    FiringSquad,
    /// Theorem 5: simple approximate agreement.
    SimpleApprox,
    /// Theorem 6 (full (ε, δ, γ) form).
    EpsDeltaGamma,
    /// Theorem 8: clock synchronization.
    ClockSync,
    /// The FLP-style asynchronous family: termination under adversarial
    /// message scheduling.
    FlpAsync,
}

impl Theorem {
    /// Every family, in the canonical order the test suites sweep.
    pub const ALL: [Theorem; 8] = [
        Theorem::BaNodes,
        Theorem::BaConnectivity,
        Theorem::WeakAgreement,
        Theorem::FiringSquad,
        Theorem::SimpleApprox,
        Theorem::EpsDeltaGamma,
        Theorem::ClockSync,
        Theorem::FlpAsync,
    ];

    /// The family's command-line / wire name.
    pub fn name(self) -> &'static str {
        match self {
            Theorem::BaNodes => "ba-nodes",
            Theorem::BaConnectivity => "ba-connectivity",
            Theorem::WeakAgreement => "weak-agreement",
            Theorem::FiringSquad => "firing-squad",
            Theorem::SimpleApprox => "simple-approx",
            Theorem::EpsDeltaGamma => "eps-delta-gamma",
            Theorem::ClockSync => "clock-sync",
            Theorem::FlpAsync => "flp-async",
        }
    }

    /// Parses a family name (the inverse of [`Theorem::name`]). The
    /// asynchronous family also answers to its underscore spelling
    /// `flp_async` — the form the FLP literature (and muscle memory)
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownTheorem`] for anything else.
    pub fn parse(name: &str) -> Result<Theorem, QueryError> {
        if name == "flp_async" {
            return Ok(Theorem::FlpAsync);
        }
        Theorem::ALL
            .into_iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| QueryError::UnknownTheorem { name: name.into() })
    }

    /// The canonical protocol name refuted when a query names none, for
    /// fault budget `f`.
    pub fn default_protocol(self, f: usize) -> String {
        match self {
            Theorem::BaNodes => format!("EIG(f={f})"),
            Theorem::BaConnectivity => "NaiveMajority".into(),
            Theorem::WeakAgreement => format!("WeakViaBA(EIG(f={f}))"),
            Theorem::FiringSquad => format!("FiringSquadViaBA(f={f})"),
            Theorem::SimpleApprox | Theorem::EpsDeltaGamma => format!("DLPSW(f={f}, R=4)"),
            Theorem::ClockSync => "TrivialClockSync".into(),
            Theorem::FlpAsync => "WaitForAll".into(),
        }
    }

    /// The canonical graph refuted on when a query names none.
    pub fn default_graph(self) -> Graph {
        match self {
            Theorem::BaConnectivity => builders::cycle(4),
            Theorem::FlpAsync => builders::complete(4),
            _ => builders::triangle(),
        }
    }
}

impl fmt::Display for Theorem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Failure from a refutation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The theorem family name matches none of the eight.
    UnknownTheorem {
        /// The unparseable name.
        name: String,
    },
    /// The protocol name did not resolve through the registry, or the
    /// graph name was invalid.
    BadRequest {
        /// Explanation.
        reason: String,
    },
    /// The refuter itself declined (adequate graph, model violation, …).
    Refute {
        /// The refuter's explanation.
        reason: String,
    },
    /// The freshly built certificate failed its own verification — a bug,
    /// reported rather than served.
    SelfCheck {
        /// The verifier's explanation.
        reason: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTheorem { name } => write!(
                f,
                "unknown theorem {name:?} (want ba-nodes, ba-connectivity, weak-agreement, \
                 firing-squad, simple-approx, eps-delta-gamma, clock-sync, or flp-async)"
            ),
            QueryError::BadRequest { reason } => write!(f, "{reason}"),
            QueryError::Refute { reason } => write!(f, "{reason}"),
            QueryError::SelfCheck { reason } => {
                write!(f, "fresh certificate failed verification: {reason}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The canonical clock-sync claim every in-tree entry point refutes against
/// (hardware clocks between identity and rate 2, envelope `[t, 2t + 8]`,
/// claimed improvement `α = 2` from `t' = 1`).
fn canonical_clock_claim() -> ClockSyncClaim {
    ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(2.0),
        l: TimeFn::identity(),
        u: TimeFn::affine(2.0, 8.0),
        alpha: 2.0,
        t_prime: 1.0,
    }
}

/// Parses a graph name (`triangle`, `cycleN`, `completeN`, `pathN` with
/// `2 ≤ N ≤ 64`) — the grammar `regen --refute --graph` and
/// `flm-client refute --graph` share.
///
/// # Errors
///
/// Returns [`QueryError::BadRequest`] for unknown names or out-of-range
/// sizes.
pub fn parse_graph(name: &str) -> Result<Graph, QueryError> {
    if name == "triangle" {
        return Ok(builders::triangle());
    }
    for (prefix, build) in [
        ("cycle", builders::cycle as fn(usize) -> Graph),
        ("complete", builders::complete),
        ("path", builders::path),
    ] {
        if let Some(n) = name.strip_prefix(prefix) {
            let n: usize = n.parse().map_err(|_| QueryError::BadRequest {
                reason: format!("--graph: bad size in {name:?}"),
            })?;
            if !(2..=64).contains(&n) {
                return Err(QueryError::BadRequest {
                    reason: format!("--graph: size {n} out of range (2..=64)"),
                });
            }
            return Ok(build(n));
        }
    }
    Err(QueryError::BadRequest {
        reason: format!(
            "--graph: unknown graph {name:?} (want triangle, cycleN, completeN, or pathN)"
        ),
    })
}

/// The canonical cache key for a refutation query: the full resolved
/// ingredients of [`refute_to_bytes`], with per-family defaults already
/// applied so "no protocol named" and "the default protocol named
/// explicitly" share one entry. This is the key the certificate store
/// indexes by — determinism of the refuters (the same axiom the runcache
/// leans on) is what makes a stored certificate byte-identical to a fresh
/// run of the same key.
pub fn canonical_query_key(
    theorem: Theorem,
    protocol: Option<&str>,
    graph: Option<&Graph>,
    f: usize,
    policy: &RunPolicy,
) -> flm_sim::runcache::RunKey {
    let own_graph;
    let g = match graph {
        Some(g) => g,
        None => {
            own_graph = theorem.default_graph();
            &own_graph
        }
    };
    let default_name;
    let name = match protocol {
        Some(name) => name,
        None => {
            default_name = theorem.default_protocol(f);
            &default_name
        }
    };
    let mut w = flm_sim::wire::Writer::new();
    w.str(theorem.name());
    w.str(name);
    g.put(&mut w);
    (f as u32).put(&mut w);
    policy.put(&mut w);
    flm_sim::runcache::RunKey::new("serve-query", w.finish())
}

/// Clamps a requested policy to [`RunPolicy::default`], fieldwise: queries
/// may tighten their simulation budget but never raise it. A served
/// certificate is stored, and its request routed, under the clamped
/// policy's [`canonical_query_key`].
pub fn clamp_policy(requested: Option<RunPolicy>) -> RunPolicy {
    let ceiling = RunPolicy::default();
    match requested {
        None => ceiling,
        Some(p) => RunPolicy {
            max_payload_bytes: p.max_payload_bytes.min(ceiling.max_payload_bytes),
            max_ticks: p.max_ticks.min(ceiling.max_ticks),
        },
    }
}

/// Runs the family's refuter for `(protocol, graph, f)` under `policy`,
/// self-verifies the fresh certificate, and returns its portable `FLMC`
/// bytes. `protocol`/`graph` default per family when `None`.
///
/// This is *the* refutation path: `regen --refute`, the `flm-serve` RPC
/// handler, and the load generator all funnel through here, so a
/// certificate is the same bytes whichever entry point asked for it.
///
/// # Errors
///
/// [`QueryError::BadRequest`] when the protocol does not resolve,
/// [`QueryError::Refute`] when the refuter declines, and
/// [`QueryError::SelfCheck`] if the fresh certificate fails verification.
pub fn refute_to_bytes(
    theorem: Theorem,
    protocol: Option<&str>,
    graph: Option<&Graph>,
    f: usize,
    policy: RunPolicy,
) -> Result<Vec<u8>, QueryError> {
    let bad = |e: flm_protocols::RegistryError| QueryError::BadRequest {
        reason: e.to_string(),
    };
    let declined = |e: flm_core::RefuteError| QueryError::Refute {
        reason: e.to_string(),
    };
    let own_graph;
    let g = match graph {
        Some(g) => g,
        None => {
            own_graph = theorem.default_graph();
            &own_graph
        }
    };
    let default_name;
    let name = match protocol {
        Some(name) => name,
        None => {
            default_name = theorem.default_protocol(f);
            &default_name
        }
    };

    if theorem == Theorem::FlpAsync {
        // The asynchronous family has no fault budget: the adversary is the
        // scheduler, not a set of Byzantine nodes. `f` still participates in
        // the query key so cached entries stay distinct per request shape.
        let protocol = resolve(name).map_err(bad)?;
        let cert =
            flm_core::with_policy(policy, || refute::flp_async(&*protocol, g)).map_err(declined)?;
        cert.verify(&*protocol).map_err(|e| QueryError::SelfCheck {
            reason: e.to_string(),
        })?;
        return Ok(cert.to_bytes());
    }

    if theorem == Theorem::ClockSync {
        let protocol = resolve_clock(name).map_err(bad)?;
        let claim = canonical_clock_claim();
        let cert = flm_core::with_policy(policy, || refute::clock_sync(&*protocol, g, f, &claim))
            .map_err(declined)?;
        cert.verify(&*protocol).map_err(|e| QueryError::SelfCheck {
            reason: e.to_string(),
        })?;
        return Ok(cert.to_bytes());
    }

    let protocol = resolve(name).map_err(bad)?;
    let cert = flm_core::with_policy(policy, || match theorem {
        Theorem::BaNodes => refute::ba_nodes(&*protocol, g, f),
        Theorem::BaConnectivity => refute::ba_connectivity(&*protocol, g, f),
        Theorem::WeakAgreement => refute::weak_agreement(&*protocol, g, f),
        Theorem::FiringSquad => refute::firing_squad(&*protocol, g, f),
        Theorem::SimpleApprox => refute::simple_approx(&*protocol, g, f),
        Theorem::EpsDeltaGamma => refute::eps_delta_gamma(&*protocol, g, f, 0.25, 1.0, 1.0),
        Theorem::ClockSync | Theorem::FlpAsync => unreachable!("handled above"),
    })
    .map_err(declined)?;
    cert.verify(&*protocol).map_err(|e| QueryError::SelfCheck {
        reason: e.to_string(),
    })?;
    Ok(cert.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_clamp_is_fieldwise_min() {
        let ceiling = RunPolicy::default();
        assert_eq!(clamp_policy(None), ceiling);
        let clamped = clamp_policy(Some(RunPolicy {
            max_payload_bytes: ceiling.max_payload_bytes * 4,
            max_ticks: 10,
        }));
        assert_eq!(clamped.max_payload_bytes, ceiling.max_payload_bytes);
        assert_eq!(clamped.max_ticks, 10);
    }

    #[test]
    fn theorem_names_round_trip() {
        for t in Theorem::ALL {
            assert_eq!(Theorem::parse(t.name()).unwrap(), t);
        }
        assert!(matches!(
            Theorem::parse("ba_nodes"),
            Err(QueryError::UnknownTheorem { .. })
        ));
        // The async family alone accepts its underscore spelling.
        assert_eq!(Theorem::parse("flp_async").unwrap(), Theorem::FlpAsync);
    }

    #[test]
    fn flp_async_defaults_refute_and_self_verify() {
        let bytes =
            refute_to_bytes(Theorem::FlpAsync, None, None, 1, RunPolicy::default()).unwrap();
        let cert = flm_core::codec::decode_any(&bytes).unwrap();
        assert_eq!(cert.to_bytes(), bytes);
        assert!(matches!(cert, flm_core::codec::AnyCertificate::Async(_)));
        // Deterministic: a second run is byte-identical.
        let again =
            refute_to_bytes(Theorem::FlpAsync, None, None, 1, RunPolicy::default()).unwrap();
        assert_eq!(again, bytes);
    }

    #[test]
    fn graph_grammar_parses_and_rejects() {
        assert_eq!(parse_graph("triangle").unwrap().node_count(), 3);
        assert_eq!(parse_graph("cycle6").unwrap().node_count(), 6);
        assert_eq!(parse_graph("complete4").unwrap().node_count(), 4);
        assert_eq!(parse_graph("path5").unwrap().node_count(), 5);
        for bad in ["cycle1", "cycle65", "torus4", "complete", "cycle-3"] {
            assert!(
                matches!(parse_graph(bad), Err(QueryError::BadRequest { .. })),
                "{bad} parsed"
            );
        }
    }

    #[test]
    fn defaults_refute_and_self_verify() {
        // One cheap family end to end; the full sweep lives in the
        // loopback integration test.
        let bytes = refute_to_bytes(Theorem::BaNodes, None, None, 1, RunPolicy::default()).unwrap();
        let cert = flm_core::codec::decode_any(&bytes).unwrap();
        assert_eq!(cert.to_bytes(), bytes);
    }

    #[test]
    fn canonical_key_resolves_defaults_to_shared_entries() {
        let policy = RunPolicy::default();
        let implicit = canonical_query_key(Theorem::BaNodes, None, None, 2, &policy);
        let explicit = canonical_query_key(
            Theorem::BaNodes,
            Some("EIG(f=2)"),
            Some(&builders::triangle()),
            2,
            &policy,
        );
        assert_eq!(implicit.fingerprint(), explicit.fingerprint());

        // Any varied ingredient separates the entries.
        let other_f = canonical_query_key(Theorem::BaNodes, None, None, 3, &policy);
        let other_graph = canonical_query_key(
            Theorem::BaNodes,
            None,
            Some(&builders::cycle(7)),
            2,
            &policy,
        );
        let other_theorem = canonical_query_key(Theorem::FiringSquad, None, None, 2, &policy);
        for (label, key) in [
            ("f", &other_f),
            ("graph", &other_graph),
            ("theorem", &other_theorem),
        ] {
            assert_ne!(implicit.fingerprint(), key.fingerprint(), "{label} aliased");
        }
    }

    #[test]
    fn unresolvable_protocol_is_bad_request() {
        assert!(matches!(
            refute_to_bytes(
                Theorem::BaNodes,
                Some("NoSuchProtocol(f=1)"),
                None,
                1,
                RunPolicy::default()
            ),
            Err(QueryError::BadRequest { .. })
        ));
    }
}
