//! Counterexample certificates: what a refuter hands back.
//!
//! A certificate records the full contradiction chain of one impossibility
//! argument, specialized to the protocol that was refuted: the covering
//! system that was run, the correct behaviors of the base graph assembled
//! from its scenarios (each justified by a checked scenario match — the
//! Locality and Fault axioms in action), and the concrete correctness
//! condition that failed, with the numbers to show it.
//!
//! Certificates are *checkable*: [`Certificate::verify`] re-executes the
//! violating behavior from scratch — reinstalling the protocol's devices and
//! the recorded masquerade — and confirms the violation reproduces.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use flm_graph::{Graph, NodeId};
use flm_sim::behavior::EdgeBehavior;
use flm_sim::replay::ReplayDevice;
use flm_sim::system::SystemError;
use flm_sim::{
    contain_panics, Decision, DeviceMisbehavior, Input, Protocol, RunPolicy, System, SystemBehavior,
};

/// Which theorem of the paper a certificate instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Theorem {
    /// Theorem 1, `3f+1` node bound for Byzantine agreement.
    BaNodes,
    /// Theorem 1, `2f+1` connectivity bound for Byzantine agreement.
    BaConnectivity,
    /// Theorem 2, weak agreement.
    WeakAgreement,
    /// Theorem 4, Byzantine firing squad.
    FiringSquad,
    /// Theorem 5, simple approximate agreement.
    SimpleApprox,
    /// Theorem 6, (ε,δ,γ)-agreement.
    EpsDeltaGamma,
    /// Theorem 8 (and corollaries 12–15), clock synchronization.
    ClockSync,
}

impl fmt::Display for Theorem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Theorem::BaNodes => "Theorem 1 (Byzantine agreement, 3f+1 nodes)",
            Theorem::BaConnectivity => "Theorem 1 (Byzantine agreement, 2f+1 connectivity)",
            Theorem::WeakAgreement => "Theorem 2 (weak agreement)",
            Theorem::FiringSquad => "Theorem 4 (Byzantine firing squad)",
            Theorem::SimpleApprox => "Theorem 5 (simple approximate agreement)",
            Theorem::EpsDeltaGamma => "Theorem 6 ((ε,δ,γ)-agreement)",
            Theorem::ClockSync => "Theorem 8 (clock synchronization)",
        };
        f.write_str(s)
    }
}

/// A correctness condition of one of the paper's problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// A correct node failed to choose within the required time (the weak
    /// agreement *Choice* condition; implicit termination elsewhere).
    Termination,
    /// The problem's agreement condition.
    Agreement,
    /// The problem's validity condition.
    Validity,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Termination => f.write_str("termination/choice"),
            Condition::Agreement => f.write_str("agreement"),
            Condition::Validity => f.write_str("validity"),
        }
    }
}

/// A violated condition with human-readable evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which condition failed.
    pub condition: Condition,
    /// Index into the certificate's chain of the behavior it failed in.
    pub link: usize,
    /// What concretely went wrong (decisions, bounds, nodes involved).
    pub evidence: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated in chain behavior E{}: {}",
            self.condition,
            self.link + 1,
            self.evidence
        )
    }
}

/// One correct behavior of the base graph in the contradiction chain,
/// together with the masquerade that produced it and what happened in it.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// Nodes of the base graph that are correct in this behavior.
    pub correct: Vec<NodeId>,
    /// Faulty nodes and the recorded outedge traces their masquerading
    /// replay devices play (port order = sorted base neighbors).
    pub masquerade: Vec<(NodeId, Vec<EdgeBehavior>)>,
    /// The input assigned to every node.
    pub inputs: Vec<Input>,
    /// Whether the scenario of the correct nodes matched the covering-run
    /// scenario it was transplanted from (the Locality-axiom check).
    pub scenario_matched: bool,
    /// Decisions of all nodes in this behavior.
    pub decisions: Vec<(NodeId, Option<Decision>)>,
    /// Ticks this behavior was run for.
    pub horizon: u32,
    /// Incidents the contained run recorded (panics, port-discipline
    /// breaches, oversized payloads) — the degradation evidence.
    pub misbehavior: Vec<DeviceMisbehavior>,
    /// Nodes of `correct` the degradation policy reclassified as faulty;
    /// correctness conditions were checked over `correct` minus these.
    pub degraded: Vec<NodeId>,
}

/// Why [`run_link`] could not run a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The link does not fit its base graph: wrong input count, a node
    /// out of range, or a node assigned twice.
    Shape(String),
    /// Building the protocol's device for `node` panicked.
    Device {
        /// The node whose device constructor panicked.
        node: NodeId,
        /// The panic message.
        message: String,
    },
    /// The contained run itself failed.
    Run(SystemError),
}

/// Runs one chain link: a behavior of `base` in which the `correct` nodes
/// run `protocol`'s devices and every masquerading node replays its
/// recorded outedge traces (the Fault axiom), each node with input
/// `inputs[v]`.
///
/// This is the one place a link is built and run: the transplants and
/// validity pins that record links, [`Certificate::verify`] that replays
/// them, and the chaos campaign's probe. All of them derive the same run
/// cache key from the link alone, so a link run once in a process is
/// never run again.
///
/// The audit path relies on this being panic-free: node ids and the input
/// count are checked before any indexed access or `System::assign`, device
/// construction runs under panic containment (constructors may assert
/// graph-shape invariants a corrupted base graph violates), and the run is
/// contained under `policy`, which caps the horizon and sets the payload
/// budget.
///
/// # Errors
///
/// [`LinkError::Shape`] for a link that does not fit `base`,
/// [`LinkError::Device`] when a device constructor panics, and
/// [`LinkError::Run`] when the run fails. A cache hit never errors.
pub fn run_link(
    protocol: &dyn Protocol,
    base: &Graph,
    correct: &[NodeId],
    masquerade: &[(NodeId, Vec<EdgeBehavior>)],
    inputs: &[Input],
    horizon: u32,
    policy: &RunPolicy,
) -> Result<Arc<SystemBehavior>, LinkError> {
    let n = base.node_count();
    if inputs.len() != n {
        return Err(LinkError::Shape(format!(
            "chain link carries {} inputs for a {n}-node base graph",
            inputs.len()
        )));
    }
    let mut assigned = vec![false; n];
    for &v in correct.iter().chain(masquerade.iter().map(|(v, _)| v)) {
        if v.index() >= n {
            return Err(LinkError::Shape(format!(
                "{v} is not a node of the {n}-node base graph"
            )));
        }
        if assigned[v.index()] {
            return Err(LinkError::Shape(format!("{v} is assigned more than once")));
        }
        assigned[v.index()] = true;
    }
    let name = protocol.name();
    let key = crate::runkey::link_key(&name, base, correct, masquerade, inputs, horizon, policy);
    flm_sim::runcache::memoize_discrete(&key, || {
        let mut sys = System::new(base.clone());
        for &v in correct {
            let device = contain_panics(|| protocol.device(base, v))
                .map_err(|message| LinkError::Device { node: v, message })?;
            sys.assign(v, device, inputs[v.index()]);
        }
        for (v, traces) in masquerade {
            let replay = ReplayDevice::masquerade(traces.clone());
            sys.assign(*v, Box::new(replay), inputs[v.index()]);
        }
        sys.run_contained(horizon, policy).map_err(LinkError::Run)
    })
}

/// A machine-checkable counterexample to a protocol's claimed correctness
/// on an inadequate graph.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The theorem instantiated.
    pub theorem: Theorem,
    /// Name of the refuted protocol.
    pub protocol: String,
    /// The base (inadequate) graph.
    pub base: flm_graph::Graph,
    /// The fault budget.
    pub f: usize,
    /// Human-readable description of the covering construction used.
    pub covering: String,
    /// The chain of correct behaviors of the base graph.
    pub chain: Vec<ChainLink>,
    /// The run policy every behavior in the chain was executed under.
    /// Verification replays with the same budgets — a certificate built
    /// under a non-default policy (tighter tick caps, smaller payload
    /// limits) carries misbehavior and quarantine evidence that only
    /// reproduces under that policy.
    pub policy: RunPolicy,
    /// The condition that failed, and where.
    pub violation: Violation,
}

/// Errors from [`Certificate::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The certificate's violation did not reproduce on re-execution.
    NotReproduced {
        /// Explanation of the divergence.
        reason: String,
    },
    /// The certificate is structurally malformed.
    Malformed {
        /// Explanation of the defect.
        reason: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotReproduced { reason } => {
                write!(f, "violation did not reproduce: {reason}")
            }
            VerifyError::Malformed { reason } => write!(f, "malformed certificate: {reason}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl Certificate {
    /// Independently re-executes the *violating* chain behavior — correct
    /// nodes run `protocol`'s devices afresh, faulty nodes replay the
    /// recorded masquerade — and checks that the recorded decisions
    /// reproduce exactly.
    ///
    /// This is deliberately minimal trusted machinery: it uses only the
    /// simulator and the recorded edge traces, not the refuter that built
    /// the certificate.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when re-execution diverges from the record,
    /// and [`VerifyError::Malformed`] when the violating link has more than
    /// `f` faulty nodes (masquerading plus degraded).
    pub fn verify(&self, protocol: &dyn Protocol) -> Result<(), VerifyError> {
        crate::profile::span("verify", || self.verify_inner(protocol))
    }

    fn verify_inner(&self, protocol: &dyn Protocol) -> Result<(), VerifyError> {
        let link = self.violating_link()?;
        // A violation is evidence only within the fault model: at most `f`
        // faulty nodes, masquerading or degraded.
        let faulty = link.masquerade.len() + link.degraded.len();
        if faulty > self.f {
            return Err(VerifyError::Malformed {
                reason: format!(
                    "violating link has {} masquerading + {} degraded nodes > f = {}",
                    link.masquerade.len(),
                    link.degraded.len(),
                    self.f
                ),
            });
        }
        let replayed = self.rebuild(protocol, link)?;
        if replayed.misbehavior() != link.misbehavior.as_slice() {
            return Err(VerifyError::NotReproduced {
                reason: format!(
                    "re-execution recorded misbehavior {:?}, certificate records {:?}",
                    replayed.misbehavior(),
                    link.misbehavior
                ),
            });
        }
        let recorded: BTreeMap<NodeId, Option<Decision>> = link.decisions.iter().cloned().collect();
        if recorded.len() != link.decisions.len() {
            return Err(VerifyError::Malformed {
                reason: format!(
                    "chain link records {} decisions over {} distinct nodes",
                    link.decisions.len(),
                    recorded.len()
                ),
            });
        }
        // Exact coverage, both directions: every replayed node must have a
        // recorded decision that matches, and every recorded decision must
        // be for a node that was actually replayed. The replay covers the
        // whole base graph, so the converse reduces to a cardinality check —
        // without it, decisions invented for nonexistent nodes would verify
        // silently.
        let replayed_decisions = replayed.decisions();
        if recorded.len() != replayed_decisions.len() {
            return Err(VerifyError::Malformed {
                reason: format!(
                    "chain link records decisions for {} nodes, base graph has {}",
                    recorded.len(),
                    replayed_decisions.len()
                ),
            });
        }
        for (v, d) in replayed_decisions {
            let want = recorded.get(&v).ok_or_else(|| VerifyError::Malformed {
                reason: format!("no recorded decision for {v}"),
            })?;
            let matches = match (&d, want) {
                (Some(Decision::Real(a)), Some(Decision::Real(b))) => a.to_bits() == b.to_bits(),
                (a, b) => a == b,
            };
            if !matches {
                return Err(VerifyError::NotReproduced {
                    reason: format!("{v} decided {d:?}, certificate records {want:?}"),
                });
            }
        }
        if !link.scenario_matched {
            return Err(VerifyError::Malformed {
                reason: "violating link's scenario match failed at construction".into(),
            });
        }
        Ok(())
    }

    /// Re-executes the violating chain behavior and returns the full
    /// recorded behavior — the raw material for timeline inspection
    /// ([`flm_sim::SystemBehavior::render_timeline`]).
    ///
    /// # Errors
    ///
    /// [`VerifyError::Malformed`] when the certificate's violation index or
    /// masquerade is unusable.
    pub fn replay_violating_behavior(
        &self,
        protocol: &dyn Protocol,
    ) -> Result<Arc<SystemBehavior>, VerifyError> {
        self.rebuild(protocol, self.violating_link()?)
    }

    fn violating_link(&self) -> Result<&ChainLink, VerifyError> {
        self.chain
            .get(self.violation.link)
            .ok_or_else(|| VerifyError::Malformed {
                reason: format!("violation points at chain link {}", self.violation.link),
            })
    }

    /// Re-executes one chain link through [`run_link`], under the
    /// certificate's recorded policy.
    ///
    /// Keyed off the *actual* protocol's name (not the recorded string), so
    /// the cache never aliases two protocols under one recorded name — and
    /// a refute-then-verify sequence in one process replays from the cache
    /// instead of re-running the system.
    fn rebuild(
        &self,
        protocol: &dyn Protocol,
        link: &ChainLink,
    ) -> Result<Arc<SystemBehavior>, VerifyError> {
        run_link(
            protocol,
            &self.base,
            &link.correct,
            &link.masquerade,
            &link.inputs,
            link.horizon,
            &self.policy,
        )
        .map_err(|e| VerifyError::Malformed {
            reason: match e {
                LinkError::Shape(reason) => reason,
                LinkError::Device { node, message } => {
                    format!("device construction for {node} panicked: {message}")
                }
                LinkError::Run(e) => format!("re-execution failed: {e}"),
            },
        })
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "COUNTEREXAMPLE — {}", self.theorem)?;
        writeln!(
            f,
            "  protocol: {}   graph: {} nodes, f = {}",
            self.protocol,
            self.base.node_count(),
            self.f
        )?;
        writeln!(f, "  covering: {}", self.covering)?;
        if self.policy != RunPolicy::default() {
            writeln!(
                f,
                "  policy: max {} ticks, {} B payloads",
                self.policy.max_ticks, self.policy.max_payload_bytes
            )?;
        }
        for (i, link) in self.chain.iter().enumerate() {
            writeln!(
                f,
                "  E{}: correct {:?}, faulty {:?}, scenario match: {}",
                i + 1,
                link.correct,
                link.masquerade.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
                if link.scenario_matched {
                    "ok"
                } else {
                    "FAILED"
                }
            )?;
            for m in &link.misbehavior {
                writeln!(f, "      misbehavior: {m}")?;
            }
            if !link.degraded.is_empty() {
                writeln!(f, "      degraded to faulty: {:?}", link.degraded)?;
            }
            let ds: Vec<String> = link
                .decisions
                .iter()
                .map(|(v, d)| match d {
                    Some(Decision::Bool(b)) => format!("{v}={}", u8::from(*b)),
                    Some(Decision::Real(r)) => format!("{v}={r:.4}"),
                    Some(Decision::Fire) => format!("{v}=FIRE"),
                    None => format!("{v}=⊥"),
                })
                .collect();
            writeln!(f, "      decisions: {}", ds.join(" "))?;
        }
        write!(f, "  {}", self.violation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(Theorem::BaNodes.to_string().contains("3f+1"));
        assert!(Condition::Agreement.to_string().contains("agreement"));
        let v = Violation {
            condition: Condition::Validity,
            link: 0,
            evidence: "chose 1 with all inputs 0".into(),
        };
        assert!(v.to_string().contains("E1"));
    }
}
