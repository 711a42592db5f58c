//! Theorems 2 and 4: weak agreement and the Byzantine firing squad are
//! impossible in inadequate graphs, given a positive lower bound on
//! information propagation (the Bounded-Delay Locality axiom; the simulator
//! enforces δ = 1 tick per hop structurally).
//!
//! Both theorems have one proof, which [`refute_ring`] implements once:
//!
//! 1. **Pins.** The all-correct runs with input 0 and with input 1 must
//!    meet validity; they fix `t′`, the last tick a pinned node decides
//!    (fires). A pin that already fails is the certificate.
//! 2. **Plan.** A [`Plan`] unrolls `G` into a ring of copies, input 1 on
//!    the first half and 0 on the rest, so long that by Lemma 3 the deep
//!    copies replay the all-1 and all-0 runs past `t′` and decide apart.
//! 3. **Run** the ring once.
//! 4. **Walk.** By the Fault axiom each scenario of the plan's walk is the
//!    correct part of a behavior of `G`, and consecutive scenarios overlap,
//!    so agreement would chain around the whole ring: some scenario is not
//!    uniform.
//! 5. **Transplant** that scenario into `G`; the first condition it
//!    violates is the counterexample.
//!
//! The three plans are the triangle as a `4k`-node ring with `f = 1`
//! (larger systems reduce to it by the footnote-3 collapse,
//! [`crate::reduction`]), the node-bound crossed cover for `n ≤ 3f`, and
//! the cut crossed cover for `κ ≤ 2f`. Each public refuter pairs one
//! [`Problem`] with one plan.

use std::collections::BTreeSet;

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};
use flm_sim::behavior::NodeBehavior;
use flm_sim::{Decision, Input, Protocol, RunPolicy, SystemBehavior, Tick};

use crate::certificate::{run_link, Certificate, ChainLink, Condition, Theorem, Violation};
use crate::refute::ba::{copy_of, cut_classes, CutClasses};
use crate::refute::{link_error, partition_with_crossing_link, run_cover, transplant, RefuteError};

/// Requires the triangle with `f = 1`.
fn require_triangle(g: &Graph, f: usize) -> Result<(), RefuteError> {
    if g.node_count() != 3 || g.links().len() != 3 || f != 1 {
        return Err(RefuteError::BadGraph {
            reason: "the ring refuters address the triangle with f = 1; collapse larger \
                     systems with flm_core::reduction first"
                .into(),
        });
    }
    Ok(())
}

/// Runs the all-correct behavior with every input `input` (a link with no
/// masquerade) and returns the chain link, the behavior, and the effective
/// correct set: misbehaving devices are degraded to Byzantine-faulty when
/// the budget `f` allows, so the validity pins quantify only over the
/// nodes that actually upheld their contract. The pins run both inputs up
/// front and consume them in input order, so errors and early-exit
/// certificates surface in that order.
fn all_correct_run(
    protocol: &dyn Protocol,
    g: &Graph,
    input: Input,
    horizon: u32,
    f: usize,
    policy: &RunPolicy,
) -> AllCorrectRun {
    let correct: Vec<NodeId> = g.nodes().collect();
    let inputs = vec![input; g.node_count()];
    let behavior = run_link(protocol, g, &correct, &[], &inputs, horizon, policy)
        .map_err(link_error(protocol, "all-correct run"))?;
    let degraded = behavior.misbehaving_nodes();
    if degraded.len() > f || degraded.len() == g.node_count() {
        return Err(RefuteError::Misbehavior {
            reason: format!(
                "{} of {} devices misbehaved in the all-correct run (budget f = {f})",
                degraded.len(),
                g.node_count()
            ),
            incidents: behavior.misbehavior().to_vec(),
        });
    }
    let effective: BTreeSet<NodeId> = g.nodes().filter(|v| !degraded.contains(v)).collect();
    let link = ChainLink {
        correct,
        masquerade: Vec::new(),
        inputs,
        scenario_matched: true,
        decisions: behavior.decisions(),
        horizon,
        misbehavior: behavior.misbehavior().to_vec(),
        degraded: degraded.into_iter().collect(),
    };
    Ok((link, behavior, effective))
}

type AllCorrectRun = Result<
    (
        ChainLink,
        std::sync::Arc<flm_sim::SystemBehavior>,
        BTreeSet<NodeId>,
    ),
    RefuteError,
>;

/// The problem a ring refuter addresses.
struct Problem {
    theorem: Theorem,
    /// The validity pins.
    pins: fn(&dyn Protocol, &Graph, usize, u32, &RunPolicy, Wording) -> Pins,
    /// A node's observation in the scenario walk; a scenario is uniform
    /// when every node's is present and equal.
    observe: fn(&NodeBehavior) -> Option<Option<u32>>,
    /// The problem's conditions (`all_correct` is `false` here).
    check: fn(&SystemBehavior, &BTreeSet<NodeId>, bool, usize) -> Result<(), Violation>,
}

/// Theorem 2: every node of a scenario must decide the same Boolean.
const WEAK: Problem = Problem {
    theorem: Theorem::WeakAgreement,
    pins: weak_pins,
    observe: |nb| match nb.decision() {
        Some(Decision::Bool(b)) => Some(Some(u32::from(b))),
        _ => None,
    },
    check: crate::problems::weak_agreement,
};

/// Theorem 4: every node of a scenario must fire at the same tick, or
/// none at all.
const FIRING_SQUAD: Problem = Problem {
    theorem: Theorem::FiringSquad,
    pins: firing_squad_pins,
    observe: |nb| Some(nb.fire_tick().map(|t| t.0)),
    check: crate::problems::firing_squad,
};

/// How a plan words its early-exit certificates. The triangle refuters and
/// the direct refuters phrase the same facts differently; the strings are
/// certificate bytes, which the serve store keeps on disk, so each plan
/// keeps its own.
#[derive(Clone, Copy)]
enum Wording {
    Triangle,
    Direct,
}

impl Wording {
    fn no_covering(self) -> &'static str {
        match self {
            Wording::Triangle => {
                "no covering needed: an all-correct run already violates the conditions"
            }
            Wording::Direct => "no covering needed: an all-correct run already violates",
        }
    }
}

/// The validity pins' chain links, and `t′` or the violation that already
/// refutes the protocol.
type Pins = Result<(Vec<ChainLink>, Result<u32, Violation>), RefuteError>;

/// The weak-agreement validity pins: in the all-0 and all-1 runs every
/// pinned node must decide its input.
fn weak_pins(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
    horizon: u32,
    policy: &RunPolicy,
    wording: Wording,
) -> Pins {
    let mut chain = Vec::new();
    let mut t_prime = 0u32;
    let pair =
        [false, true].map(|b| all_correct_run(protocol, g, Input::Bool(b), horizon, f, policy));
    for (bit, run) in [false, true].into_iter().zip(pair) {
        let (link, behavior, pins) = run?;
        for v in pins {
            let decision = behavior.node(v).decision();
            if decision == Some(Decision::Bool(bit)) {
                t_prime = t_prime.max(behavior.node(v).decision_tick().map_or(0, |t| t.0));
                continue;
            }
            let input = u8::from(bit);
            let evidence = match (wording, decision) {
                (Wording::Direct, other) => {
                    format!("all nodes correct with input {input}: {v} decided {other:?}")
                }
                (Wording::Triangle, Some(Decision::Bool(d))) => format!(
                    "all nodes correct with input {input} but {v} chose {}",
                    u8::from(d)
                ),
                (Wording::Triangle, other) => format!(
                    "{v} chose {other:?} by the protocol's own horizon {horizon} — the Choice \
                     condition fails"
                ),
            };
            let condition = if matches!(decision, Some(Decision::Bool(_))) {
                Condition::Validity
            } else {
                Condition::Termination
            };
            let violation = Violation {
                condition,
                link: chain.len(),
                evidence,
            };
            chain.push(link);
            return Ok((chain, Err(violation)));
        }
        chain.push(link);
    }
    Ok((chain, Ok(t_prime)))
}

/// The firing-squad validity pins: the all-stimulus run must fire every
/// pinned node at one common tick, which it returns; the no-stimulus run
/// must stay silent.
fn firing_squad_pins(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
    horizon: u32,
    policy: &RunPolicy,
    wording: Wording,
) -> Pins {
    let [stim_run, quiet_run] =
        [true, false].map(|b| all_correct_run(protocol, g, Input::Bool(b), horizon, f, policy));
    let (stim_link, stim_behavior, stim_pins) = stim_run?;
    let fire_ticks: Vec<Option<Tick>> = stim_pins
        .iter()
        .map(|&v| stim_behavior.node(v).fire_tick())
        .collect();
    let mut chain = Vec::new();
    let stim_violation = if fire_ticks.iter().any(Option::is_none) {
        let stimulus = match wording {
            Wording::Triangle => "stimulus occurred at every node",
            Wording::Direct => "stimulus at every node",
        };
        Some(Violation {
            condition: Condition::Validity,
            link: chain.len(),
            evidence: format!("{stimulus} yet fire ticks are {fire_ticks:?} by horizon {horizon}"),
        })
    } else if fire_ticks.windows(2).any(|w| w[0] != w[1]) {
        Some(Violation {
            condition: Condition::Agreement,
            link: chain.len(),
            evidence: format!("correct nodes fired at different times: {fire_ticks:?}"),
        })
    } else {
        None
    };
    chain.push(stim_link);
    if let Some(violation) = stim_violation {
        return Ok((chain, Err(violation)));
    }
    let t_fire = fire_ticks[0]
        .expect("pins are non-empty and every None fire tick returned early above")
        .0;
    let (quiet_link, quiet_behavior, quiet_pins) = quiet_run?;
    let early_fire = quiet_pins
        .iter()
        .copied()
        .find(|&v| quiet_behavior.node(v).fire_tick().is_some());
    let violation = early_fire.map(|v| Violation {
        condition: Condition::Validity,
        link: chain.len(),
        evidence: format!("no stimulus occurred yet {v} fired"),
    });
    chain.push(quiet_link);
    Ok((chain, violation.map_or(Ok(t_fire), Err)))
}

/// How a ring refuter unrolls `G` into a ring of copies.
enum Plan {
    /// The triangle with `f = 1` as a `4k`-node ring (`k` a multiple of 3
    /// beyond `t′`); the walk visits adjacent pairs `{i, i+1}`.
    Triangle,
    /// `n ≤ 3f`: the classes `[a, b, c]`, with the `a`–`c` links crossed.
    NodeBound([BTreeSet<NodeId>; 3]),
    /// `κ ≤ 2f`: the §3.2 cut classes, with the `a`–`b` links crossed.
    Cut(CutClasses),
}

/// A plan laid out for one `t′`.
struct Ring {
    cov: Covering,
    /// Ticks to run the ring for: the deep copies must get to decide.
    horizon: u32,
    /// The walk's cover-node sets, in scan order.
    scenarios: Vec<BTreeSet<NodeId>>,
    /// The certificate's covering description.
    covering: String,
}

impl Plan {
    fn lay_out(
        &self,
        g: &Graph,
        problem: &Problem,
        t_prime: u32,
        horizon: u32,
    ) -> Result<Ring, RefuteError> {
        let n = g.node_count();
        // m ring-connected copies; the deep copies sit ≥ m/4 copy
        // boundaries from the input flip, which must exceed t′.
        let m = (4 * (t_prime as usize + 1)).max(4);
        let lift = |classes: &[(&BTreeSet<NodeId>, usize)]| -> BTreeSet<NodeId> {
            classes
                .iter()
                .flat_map(|&(class, copy)| copy_of(class, copy, n))
                .collect()
        };
        // Weak agreement's direct certificates name the classes in full.
        let weak = problem.theorem == Theorem::WeakAgreement;
        let copies_horizon = horizon.max(m as u32 / 4 + 1);
        match self {
            Plan::Triangle => {
                let k = next_k(t_prime);
                let ring_n = 4 * k;
                Ok(Ring {
                    cov: crate::profile::span("build-covering", || {
                        Covering::cyclic_cover(3, ring_n / 3)
                    })?,
                    horizon: horizon.max(k as u32 + 1),
                    scenarios: (0..ring_n)
                        .map(|i| [NodeId(i as u32), NodeId(((i + 1) % ring_n) as u32)].into())
                        .collect(),
                    covering: format!("{ring_n}-node ring cover of the triangle (k = {k})"),
                })
            }
            Plan::NodeBound([a, b, c]) => Ok(Ring {
                cov: Covering::cyclic_crossed_cover(g, a, c, m)?,
                horizon: copies_horizon,
                // The crossing sends aᵢ's c-links to cᵢ₊₁, so cᵢ is adjacent
                // to aᵢ₋₁: only that pairing leaves every border edge at a
                // *faulty* class, as the Fault axiom requires.
                scenarios: (0..m)
                    .flat_map(|i| {
                        let j = (i + m - 1) % m;
                        [
                            lift(&[(a, i), (b, i)]),
                            lift(&[(b, i), (c, i)]),
                            lift(&[(c, i), (a, j)]),
                        ]
                    })
                    .collect(),
                covering: if weak {
                    format!(
                        "cyclic crossed cover: {m} copies of the {n}-node graph ({} cover \
                         nodes), a–c links crossed",
                        m * n
                    )
                } else {
                    format!(
                        "cyclic crossed cover: {m} copies of the {n}-node graph, a-c links \
                         crossed"
                    )
                },
            }),
            Plan::Cut(CutClasses { a, b, c, d, kappa }) => Ok(Ring {
                cov: Covering::cyclic_crossed_cover(g, a, b, m)?,
                horizon: copies_horizon,
                // (cᵢ dᵢ aᵢ) then (aᵢ bᵢ₊₁ cᵢ₊₁), overlapping in aᵢ then cᵢ₊₁.
                scenarios: (0..m)
                    .flat_map(|i| {
                        let j = (i + 1) % m;
                        [
                            lift(&[(c, i), (d, i), (a, i)]),
                            lift(&[(a, i), (b, j), (c, j)]),
                        ]
                    })
                    .collect(),
                covering: if weak {
                    format!(
                        "cyclic crossed cover over the vertex cut: {m} copies of the {n}-node \
                         graph (κ={kappa}), a–b links crossed; a={a:?} b={b:?} c={c:?} d={d:?}"
                    )
                } else {
                    format!(
                        "cyclic crossed cover over the vertex cut: {m} copies of the {n}-node \
                         graph (κ={kappa}), a-b links crossed"
                    )
                },
            }),
        }
    }
}

/// Smallest multiple of 3 strictly greater than `t`.
fn next_k(t: u32) -> usize {
    let mut k = (t as usize) + 1;
    while !k.is_multiple_of(3) {
        k += 1;
    }
    k
}

/// The ring engine: pins, plan, one cover run, the scenario walk, and one
/// transplant checked against the problem's conditions.
fn refute_ring(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
    problem: &Problem,
    plan: &Plan,
) -> Result<Certificate, RefuteError> {
    let horizon = protocol.horizon(g);
    // Captured once at entry; see `chain_certificate` in refute::ba.
    let policy = crate::refute::current_policy();
    let certificate = |chain: Vec<ChainLink>, covering: String, violation: Violation| Certificate {
        theorem: problem.theorem,
        protocol: protocol.name(),
        base: g.clone(),
        f,
        covering,
        chain,
        policy,
        violation,
    };
    let wording = match plan {
        Plan::Triangle => Wording::Triangle,
        Plan::NodeBound(_) | Plan::Cut(_) => Wording::Direct,
    };
    let (mut chain, pinned) = (problem.pins)(protocol, g, f, horizon, &policy, wording)?;
    let t_prime = match pinned {
        Ok(t) => t,
        Err(violation) => {
            return Ok(certificate(chain, wording.no_covering().into(), violation));
        }
    };

    let ring = plan.lay_out(g, problem, t_prime, horizon)?;
    // Input 1 (stimulus) on the first half of the ring, 0 on the rest.
    let half = ring.cov.cover().node_count() / 2;
    let inputs = move |s: NodeId| Input::Bool(s.index() < half);
    let cover_behavior = run_cover(protocol, &ring.cov, &inputs, ring.horizon, &policy)?;
    // The walk: the first scenario whose observations are not all present
    // and equal. An empty scenario set is vacuously uniform.
    let non_uniform = |set: &BTreeSet<NodeId>| {
        let mut values = set
            .iter()
            .map(|&s| (problem.observe)(cover_behavior.node(s)));
        values
            .next()
            .is_some_and(|first| first.is_none() || values.any(|v| v.is_none() || v != first))
    };
    let Some(u_set) = ring.scenarios.into_iter().find(non_uniform) else {
        // Every scenario agreed on one value around the whole ring — yet
        // the deep copies replay the two all-correct runs, which differ.
        // Only an axiom break allows this.
        return Err(RefuteError::Unrefuted {
            reason: format!(
                "every scenario of the {} was uniform, contradicting Lemma 3",
                ring.covering
            ),
        });
    };
    let (link, behavior, correct) = transplant(
        protocol,
        &ring.cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring.horizon,
        f,
        &policy,
    )?;
    let violation = (problem.check)(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: format!(
                "the transplanted scenario {u_set:?} met the {} conditions despite \
                 non-uniform observations",
                problem.theorem
            ),
        })?;
    chain.push(link);
    Ok(certificate(chain, ring.covering, violation))
}

/// Theorem 2: refutes any weak-agreement protocol on the triangle with one
/// fault.
///
/// # Errors
///
/// [`RefuteError::BadGraph`] unless `g` is the triangle and `f = 1`;
/// [`RefuteError::ModelViolation`] for devices that break the model.
pub fn weak_agreement(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    require_triangle(g, f)?;
    refute_ring(protocol, g, f, &WEAK, &Plan::Triangle)
}

/// Theorem 2, general case, proven *directly* (no collapse): for any graph
/// with `n ≤ 3f`, unroll it into `m` ring-connected copies with the `a`–`c`
/// class links crossed ([`Covering::cyclic_crossed_cover`]). Inputs are
/// uniform per copy — 1 on the first half of the ring of copies, 0 on the
/// second — so information from the opposite input region needs at least
/// one tick per copy boundary, and the deep copies replay the all-0 / all-1
/// behaviors of `G` long enough to decide. Scenarios are consecutive
/// class-copy pairs (each two classes ≥ `n − f` correct nodes, third class
/// faulty); agreement chains around the whole ring and must break.
///
/// This is the ablation partner of [`super::weak_agreement_general`]
/// (footnote-3 collapse); both defeat the same protocols.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `n ≥ 3f + 1`; the usual model
/// errors otherwise.
pub fn weak_agreement_direct_general(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    let plan = Plan::NodeBound(partition_with_crossing_link(g, f)?);
    refute_ring(protocol, g, f, &WEAK, &plan)
}

/// Theorem 2, connectivity half — one of the paper's *new* results ("the
/// 2f+1 connectivity requirement was previously unknown"), proven directly:
/// for a connected graph with `κ(G) ≤ 2f`, take the §3.2 cut classes
/// `a | b, d | c` and unroll `m` copies with the `a`–`b` links crossed.
/// Inputs are uniform per copy; scenarios alternate `(cᵢ dᵢ aᵢ)` with `b`
/// faulty and `(aᵢ b₍ᵢ₊₁₎ c₍ᵢ₊₁₎)` with `d` faulty, overlapping around the
/// ring of copies, so agreement chains globally while bounded delay pins
/// the deep copies to the all-0 / all-1 runs.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `κ(G) ≥ 2f + 1`; the usual model
/// errors otherwise.
pub fn weak_agreement_direct_connectivity(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    let plan = Plan::Cut(cut_classes(g, f)?);
    refute_ring(protocol, g, f, &WEAK, &plan)
}

/// Theorem 4: refutes any Byzantine-firing-squad protocol on the triangle
/// with one fault.
///
/// # Errors
///
/// [`RefuteError::BadGraph`] unless `g` is the triangle and `f = 1`;
/// [`RefuteError::ModelViolation`] for devices that break the model.
pub fn firing_squad(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    require_triangle(g, f)?;
    refute_ring(protocol, g, f, &FIRING_SQUAD, &Plan::Triangle)
}

/// Theorem 4, general node bound, proven directly: `m` ring-connected
/// copies of an `n ≤ 3f` graph with `a`–`c` class links crossed, stimulus
/// on the first half of the copies. The ablation partner of the collapse
/// route [`super::firing_squad_general`].
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `n ≥ 3f + 1`.
pub fn firing_squad_direct_general(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    let plan = Plan::NodeBound(partition_with_crossing_link(g, f)?);
    refute_ring(protocol, g, f, &FIRING_SQUAD, &plan)
}

/// Theorem 4, connectivity half (also new in the paper): the cut-class
/// crossed cyclic cover with stimulus on half the copies.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `κ(G) ≥ 2f + 1`.
pub fn firing_squad_direct_connectivity(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    let plan = Plan::Cut(cut_classes(g, f)?);
    refute_ring(protocol, g, f, &FIRING_SQUAD, &plan)
}

/// The plan the dispatching refuters pick: the triangle ring for the core
/// case, the node-bound crossed cover for `n ≤ 3f`, and the cut crossed
/// cover when only the connectivity bound applies.
fn any_plan(g: &Graph, f: usize) -> Result<Plan, RefuteError> {
    if g.node_count() == 3 && g.links().len() == 3 && f == 1 {
        return Ok(Plan::Triangle);
    }
    match partition_with_crossing_link(g, f) {
        Err(RefuteError::GraphIsAdequate { .. }) => Ok(Plan::Cut(cut_classes(g, f)?)),
        classes => Ok(Plan::NodeBound(classes?)),
    }
}

/// Dispatching refuter for weak agreement: the triangle ring for the core
/// case, the direct general crossed cover for `n ≤ 3f`, and the cut-based
/// crossed cover when only the connectivity bound applies.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when neither bound applies.
pub fn weak_any(protocol: &dyn Protocol, g: &Graph, f: usize) -> Result<Certificate, RefuteError> {
    refute_ring(protocol, g, f, &WEAK, &any_plan(g, f)?)
}

/// Dispatching refuter for the Byzantine firing squad, mirroring
/// [`weak_any`].
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when neither bound applies.
pub fn firing_squad_any(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    refute_ring(protocol, g, f, &FIRING_SQUAD, &any_plan(g, f)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_sim::device::{snapshot, Device, NodeCtx, Payload};

    /// Weak-agreement candidate: exchange inputs for a round; if everyone
    /// agrees, pick that value, else default 0. Correct when all three are
    /// honest — exactly the kind of device the theorem kills.
    struct DefaultOnConflict {
        input: bool,
        seen: Vec<bool>,
        decided: Option<bool>,
    }
    impl Device for DefaultOnConflict {
        fn name(&self) -> &'static str {
            "DefaultOnConflict"
        }
        fn init(&mut self, ctx: &NodeCtx) {
            self.input = ctx.input.as_bool().unwrap_or(false);
        }
        fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            match t.0 {
                0 => inbox
                    .iter()
                    .map(|_| Some(vec![u8::from(self.input)].into()))
                    .collect(),
                1 => {
                    self.seen = inbox
                        .iter()
                        .map(|m| m.as_ref().and_then(|m| m.first()).copied() == Some(1))
                        .collect();
                    let all_same = self.seen.iter().all(|&b| b == self.input);
                    self.decided = Some(if all_same { self.input } else { false });
                    inbox.iter().map(|_| None).collect()
                }
                _ => inbox.iter().map(|_| None).collect(),
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let state = [u8::from(self.input)];
            match self.decided {
                Some(b) => snapshot::decided_bool(b, &state),
                None => snapshot::undecided(&state),
            }
        }
    }

    /// Firing-squad candidate: flood the stimulus; fire 2 ticks after first
    /// hearing it (or having it).
    struct FloodAndFire {
        stimulated: bool,
        heard_at: Option<u32>,
        fired: bool,
    }
    impl Device for FloodAndFire {
        fn name(&self) -> &'static str {
            "FloodAndFire"
        }
        fn init(&mut self, ctx: &NodeCtx) {
            self.stimulated = ctx.input.as_bool().unwrap_or(false);
        }
        fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            if self.stimulated && self.heard_at.is_none() {
                self.heard_at = Some(t.0);
            }
            if inbox.iter().flatten().any(|m| m.first() == Some(&1)) && self.heard_at.is_none() {
                self.heard_at = Some(t.0);
            }
            if let Some(h) = self.heard_at {
                if t.0 >= h + 2 {
                    self.fired = true;
                }
                return inbox.iter().map(|_| Some(vec![1].into())).collect();
            }
            inbox.iter().map(|_| None).collect()
        }
        fn snapshot(&self) -> Vec<u8> {
            if self.fired {
                snapshot::fire(&[])
            } else {
                snapshot::undecided(&[u8::from(self.heard_at.is_some())])
            }
        }
    }

    struct WeakP;
    impl Protocol for WeakP {
        fn name(&self) -> String {
            "DefaultOnConflict".into()
        }
        fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
            Box::new(DefaultOnConflict {
                input: false,
                seen: vec![],
                decided: None,
            })
        }
        fn horizon(&self, _g: &Graph) -> u32 {
            3
        }
    }

    struct FsP;
    impl Protocol for FsP {
        fn name(&self) -> String {
            "FloodAndFire".into()
        }
        fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
            Box::new(FloodAndFire {
                stimulated: false,
                heard_at: None,
                fired: false,
            })
        }
        fn horizon(&self, _g: &Graph) -> u32 {
            8
        }
    }

    #[test]
    fn weak_agreement_is_refuted_on_the_triangle() {
        let cert = weak_agreement(&WeakP, &builders::triangle(), 1).unwrap();
        assert_eq!(cert.theorem, Theorem::WeakAgreement);
        assert!(cert.chain.iter().all(|l| l.scenario_matched));
        cert.verify(&WeakP).unwrap();
    }

    #[test]
    fn firing_squad_is_refuted_on_the_triangle() {
        let cert = firing_squad(&FsP, &builders::triangle(), 1).unwrap();
        assert_eq!(cert.theorem, Theorem::FiringSquad);
        cert.verify(&FsP).unwrap();
    }

    #[test]
    fn direct_general_weak_refuter_on_k5_f2() {
        use flm_protocols::WeakViaBa;
        struct AsIs(WeakViaBa);
        impl Protocol for AsIs {
            fn name(&self) -> String {
                self.0.name()
            }
            fn device(&self, g: &Graph, v: NodeId) -> Box<dyn Device> {
                self.0.device(g, v)
            }
            fn horizon(&self, g: &Graph) -> u32 {
                self.0.horizon(g)
            }
        }
        let proto = AsIs(WeakViaBa::new(2));
        let cert =
            weak_agreement_direct_general(&proto, &flm_graph::builders::complete(5), 2).unwrap();
        assert!(cert.chain.iter().all(|l| l.scenario_matched));
        cert.verify(&proto).unwrap();
        assert!(cert.covering.contains("copies"));
    }

    #[test]
    fn direct_general_weak_refuter_on_triangle_matches_ring_version() {
        let direct = weak_agreement_direct_general(&WeakP, &builders::triangle(), 1).unwrap();
        direct.verify(&WeakP).unwrap();
        let ring = weak_agreement(&WeakP, &builders::triangle(), 1).unwrap();
        assert_eq!(direct.theorem, ring.theorem);
    }

    #[test]
    fn weak_connectivity_refuter_on_cycles() {
        // One of the paper's new results: 2f+1 connectivity is necessary
        // for weak agreement. NaiveMajority-style candidates on thin graphs.
        struct Naive;
        impl Protocol for Naive {
            fn name(&self) -> String {
                "NaiveMajority".into()
            }
            fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
                Box::new(flm_sim::devices::NaiveMajorityDevice::new())
            }
            fn horizon(&self, _g: &Graph) -> u32 {
                3
            }
        }
        for g in [flm_graph::builders::cycle(4), flm_graph::builders::cycle(6)] {
            let cert = weak_agreement_direct_connectivity(&Naive, &g, 1).unwrap();
            assert!(cert.chain.iter().all(|l| l.scenario_matched));
            cert.verify(&Naive).unwrap();
        }
    }

    #[test]
    fn weak_connectivity_refuter_declines_adequate() {
        let cert = weak_agreement_direct_connectivity(&WeakP, &builders::complete(4), 1);
        assert!(matches!(cert, Err(RefuteError::GraphIsAdequate { .. })));
    }

    #[test]
    fn ring_refuters_reject_other_graphs() {
        assert!(matches!(
            weak_agreement(&WeakP, &builders::complete(4), 1),
            Err(RefuteError::BadGraph { .. })
        ));
        assert!(matches!(
            firing_squad(&FsP, &builders::cycle(4), 1),
            Err(RefuteError::BadGraph { .. })
        ));
    }

    #[test]
    fn fs_direct_general_on_k5_f2() {
        use flm_protocols::FiringSquadViaBa;
        struct AsIs(FiringSquadViaBa);
        impl Protocol for AsIs {
            fn name(&self) -> String {
                self.0.name()
            }
            fn device(&self, g: &Graph, v: NodeId) -> Box<dyn Device> {
                self.0.device(g, v)
            }
            fn horizon(&self, g: &Graph) -> u32 {
                self.0.horizon(g)
            }
        }
        let proto = AsIs(FiringSquadViaBa::new(2));
        let cert =
            firing_squad_direct_general(&proto, &flm_graph::builders::complete(5), 2).unwrap();
        assert!(cert.chain.iter().all(|l| l.scenario_matched));
        cert.verify(&proto).unwrap();
    }

    #[test]
    fn fs_direct_connectivity_on_cycle4() {
        let cert =
            firing_squad_direct_connectivity(&FsP, &flm_graph::builders::cycle(4), 1).unwrap();
        assert!(cert.chain.iter().all(|l| l.scenario_matched));
        cert.verify(&FsP).unwrap();
        assert!(matches!(
            firing_squad_direct_connectivity(&FsP, &builders::complete(4), 1),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }

    #[test]
    fn next_k_is_multiple_of_three_beyond_t() {
        assert_eq!(next_k(0), 3);
        assert_eq!(next_k(2), 3);
        assert_eq!(next_k(3), 6);
        assert_eq!(next_k(7), 9);
    }
}
