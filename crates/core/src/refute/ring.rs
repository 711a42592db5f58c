//! Theorems 2 and 4: weak agreement and the Byzantine firing squad are
//! impossible in inadequate graphs — given a positive lower bound on
//! information propagation (the Bounded-Delay Locality axiom; the simulator
//! enforces δ = 1 tick per hop structurally).
//!
//! Both proofs unroll the triangle into a ring of `4k` nodes, half with
//! input (or stimulus) 1 and half with 0. Every adjacent pair of ring nodes
//! is, by the Fault axiom, a pair of correct nodes in some behavior of the
//! triangle, so agreement must hold around the entire ring. But Lemma 3 —
//! news travels at most one hop per tick — forces nodes deep inside the
//! 0-region to behave exactly like the all-0 triangle run (and the deep
//! 1-region like the all-1 run) long enough to decide. The decisions cannot
//! be simultaneously all-equal and different at the two deep points, so
//! some adjacent pair disagrees — and that pair is the counterexample.
//!
//! These refuters operate on the triangle with `f = 1`; larger inadequate
//! systems reduce to it by the footnote-3 collapse ([`crate::reduction`]).

use std::collections::BTreeSet;

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};
use flm_sim::{Decision, Input, Protocol, RunPolicy, System, Tick};

use crate::certificate::{Certificate, ChainLink, Condition, Theorem, Violation};
use crate::refute::{run_cost_hint_ns, run_cover, transplant, RefuteError};

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

/// Runs the all-correct behavior with every input `b` (contained) and
/// returns the chain link, the behavior, and the effective correct set:
/// misbehaving devices are degraded to Byzantine-faulty when the budget
/// `f` allows, so the validity pins quantify only over the nodes that
/// actually upheld their contract.
fn all_correct_run(
    protocol: &dyn Protocol,
    g: &Graph,
    input: Input,
    horizon: u32,
    f: usize,
    policy: &RunPolicy,
) -> AllCorrectRun {
    let key = crate::runkey::all_correct_key(&protocol.name(), g, input, horizon, policy);
    let behavior = flm_sim::runcache::memoize_discrete(&key, || {
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(v, protocol.device(g, v), input);
        }
        sys.run_contained(horizon, policy)
            .map_err(|e| RefuteError::ModelViolation {
                reason: format!("all-correct run failed: {e}"),
            })
    })?;
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
        correct: g.nodes().collect(),
        masquerade: Vec::new(),
        inputs: vec![input; g.node_count()],
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

/// Runs both validity-pin executions concurrently and hands the results
/// back in input order. Call sites consume `[0]` before `[1]`, so errors
/// and early-exit certificates surface exactly as in the sequential code.
/// The adaptive mapper inlines the pair when the pool is idle-sized or the
/// runs are too small to amortize a dispatch.
fn all_correct_pair(
    protocol: &dyn Protocol,
    g: &Graph,
    inputs: [Input; 2],
    horizon: u32,
    f: usize,
    policy: &RunPolicy,
) -> [AllCorrectRun; 2] {
    let cost_hint = run_cost_hint_ns(g.node_count(), horizon);
    let mut results = flm_par::par_map_adaptive(inputs.to_vec(), cost_hint, |input| {
        all_correct_run(protocol, g, input, horizon, f, policy)
    });
    let second = results.pop().expect("two runs");
    let first = results.pop().expect("two runs");
    [first, second]
}

/// The ring cover of the triangle with `4k` nodes (`k` a multiple of 3).
fn ring_cover(k: usize) -> Result<Covering, RefuteError> {
    debug_assert_eq!(k % 3, 0);
    crate::profile::span("build-covering", || {
        Ok(Covering::cyclic_cover(3, 4 * k / 3)?)
    })
}

/// Smallest multiple of 3 strictly greater than `t`.
fn next_k(t: u32) -> usize {
    let mut k = (t as usize) + 1;
    while !k.is_multiple_of(3) {
        k += 1;
    }
    k
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
    let horizon = protocol.horizon(g);
    // Captured once at entry; see `chain_certificate` in refute::ba.
    let policy = crate::refute::current_policy();

    // The two validity pins: all-correct all-0 and all-1 runs of G.
    let mut chain = Vec::new();
    let mut t_prime = 0u32;
    let pair = all_correct_pair(
        protocol,
        g,
        [Input::Bool(false), Input::Bool(true)],
        horizon,
        f,
        &policy,
    );
    for (b, run) in [false, true].into_iter().zip(pair) {
        let (link, behavior, pins) = run?;
        for v in pins {
            match behavior.node(v).decision() {
                Some(Decision::Bool(d)) if d == b => {
                    t_prime =
                        t_prime.max(behavior.node(v).decision_tick().map(|t| t.0).unwrap_or(0));
                }
                Some(Decision::Bool(d)) => {
                    let violation = Violation {
                        condition: Condition::Validity,
                        link: chain.len(),
                        evidence: format!(
                            "all nodes correct with input {} but {v} chose {}",
                            u8::from(b),
                            u8::from(d)
                        ),
                    };
                    chain.push(link);
                    return Ok(weak_cert(protocol, g, chain, policy, violation, 0));
                }
                other => {
                    let violation = Violation {
                        condition: Condition::Termination,
                        link: chain.len(),
                        evidence: format!(
                            "{v} chose {other:?} by the protocol's own horizon {horizon} — \
                             the Choice condition fails"
                        ),
                    };
                    chain.push(link);
                    return Ok(weak_cert(protocol, g, chain, policy, violation, 0));
                }
            }
        }
        chain.push(link);
    }

    // The ring: 4k nodes, 1-inputs on the first 2k, 0-inputs on the rest.
    let k = next_k(t_prime);
    let cov = ring_cover(k)?;
    let ring_n = cov.cover().node_count();
    debug_assert_eq!(ring_n, 4 * k);
    let ring_horizon = horizon.max(k as u32 + 1);
    let inputs = move |s: NodeId| Input::Bool(s.index() < ring_n / 2);
    let cover_behavior = run_cover(protocol, &cov, &inputs, ring_horizon, &policy)?;

    // Find an adjacent pair with differing (or missing) decisions. Lemma 3
    // guarantees one: the deep-1 pair decides 1 and the deep-0 pair 0.
    let decision_of = |i: usize| cover_behavior.node(NodeId(i as u32)).decision();
    let mut bad_pair = None;
    for i in 0..ring_n {
        let j = (i + 1) % ring_n;
        let (di, dj) = (decision_of(i), decision_of(j));
        let broken = !matches!(
            (&di, &dj),
            (Some(Decision::Bool(a)), Some(Decision::Bool(b))) if a == b
        );
        if broken {
            bad_pair = Some((i, j));
            break;
        }
    }
    let Some((i, j)) = bad_pair else {
        // Everyone agreed on one value w around the whole ring — yet the
        // deep-(1−w) nodes' prefixes coincide with the opposite all-correct
        // run, which decided differently. Only an axiom break allows this.
        return Err(RefuteError::Unrefuted {
            reason: "every adjacent ring pair agreed, contradicting Lemma 3".into(),
        });
    };

    let u_set: BTreeSet<NodeId> = [NodeId(i as u32), NodeId(j as u32)].into();
    let (link, behavior, correct) = transplant(
        protocol,
        &cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring_horizon,
        f,
        &policy,
    )?;
    let violation = crate::problems::weak_agreement(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: "transplanted pair satisfied weak agreement despite differing decisions".into(),
        })?;
    chain.push(link);
    Ok(weak_cert(protocol, g, chain, policy, violation, k))
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
    let horizon = protocol.horizon(g);
    let policy = crate::refute::current_policy();
    let classes = crate::refute::partition_with_crossing_link(g, f)?;
    let [a, b, c] = classes;

    // Validity pins and decision time t′ from the all-correct runs.
    let mut chain = Vec::new();
    let mut t_prime = 0u32;
    let pair = all_correct_pair(
        protocol,
        g,
        [Input::Bool(false), Input::Bool(true)],
        horizon,
        f,
        &policy,
    );
    for (bit, run) in [false, true].into_iter().zip(pair) {
        let (link, behavior, pins) = run?;
        for v in pins {
            match behavior.node(v).decision() {
                Some(Decision::Bool(d)) if d == bit => {
                    t_prime =
                        t_prime.max(behavior.node(v).decision_tick().map(|t| t.0).unwrap_or(0));
                }
                other => {
                    let violation = Violation {
                        condition: if matches!(other, Some(Decision::Bool(_))) {
                            Condition::Validity
                        } else {
                            Condition::Termination
                        },
                        link: chain.len(),
                        evidence: format!(
                            "all nodes correct with input {}: {v} decided {other:?}",
                            u8::from(bit)
                        ),
                    };
                    chain.push(link);
                    return Ok(Certificate {
                        theorem: Theorem::WeakAgreement,
                        protocol: protocol.name(),
                        base: g.clone(),
                        f,
                        covering: "no covering needed: an all-correct run already violates".into(),
                        chain,
                        policy,
                        violation,
                    });
                }
            }
        }
        chain.push(link);
    }

    // m ring-connected copies; deep copies sit ≥ m/4 boundaries from the
    // input flip, which must exceed t′.
    let m = (4 * (t_prime as usize + 1)).max(4);
    let cov = Covering::cyclic_crossed_cover(g, &a, &c, m)?;
    let n = g.node_count();
    let ring_horizon = horizon.max(m as u32 / 4 + 1);
    let inputs = move |s: NodeId| Input::Bool(s.index() / n < m / 2);
    let cover_behavior = run_cover(protocol, &cov, &inputs, ring_horizon, &policy)?;

    // Scenario walk: (a_i b_i), (b_i c_i), (c_i a_{i+1}) around the ring of
    // copies. Find the first whose correct decisions are not uniform.
    let lift = |class: &BTreeSet<NodeId>, copy: usize| {
        class
            .iter()
            .map(move |v| NodeId((copy * n) as u32 + v.0))
            .collect::<Vec<_>>()
    };
    let mut bad: Option<BTreeSet<NodeId>> = None;
    'outer: for i in 0..m {
        // The crossing sends a_i's c-links to c_{i+1}, so c_i is adjacent to
        // a_{i-1}: only that pairing leaves every border edge at a *faulty*
        // class, as the Fault axiom requires.
        let j = (i + m - 1) % m;
        let pairs: [Vec<NodeId>; 3] = [
            lift(&a, i).into_iter().chain(lift(&b, i)).collect(),
            lift(&b, i).into_iter().chain(lift(&c, i)).collect(),
            lift(&c, i).into_iter().chain(lift(&a, j)).collect(),
        ];
        for set in pairs {
            let mut decisions = set.iter().map(|&s| cover_behavior.node(s).decision());
            // An empty scenario set is vacuously uniform.
            let Some(first) = decisions.next() else {
                continue;
            };
            let uniform = matches!(first, Some(Decision::Bool(_))) && decisions.all(|d| d == first);
            if !uniform {
                bad = Some(set.into_iter().collect());
                break 'outer;
            }
        }
    }
    let Some(u_set) = bad else {
        return Err(RefuteError::Unrefuted {
            reason: "every class-copy scenario decided uniformly, contradicting the \
                     deep-copy argument"
                .into(),
        });
    };
    let (link, behavior, correct) = transplant(
        protocol,
        &cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring_horizon,
        f,
        &policy,
    )?;
    let violation = crate::problems::weak_agreement(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: "transplanted scenario satisfied weak agreement despite non-uniform \
                     decisions"
                .into(),
        })?;
    chain.push(link);
    Ok(Certificate {
        theorem: Theorem::WeakAgreement,
        protocol: protocol.name(),
        base: g.clone(),
        f,
        covering: format!(
            "cyclic crossed cover: {m} copies of the {n}-node graph ({} cover nodes), \
             a–c links crossed",
            m * n
        ),
        chain,
        policy,
        violation,
    })
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
    let horizon = protocol.horizon(g);
    let policy = crate::refute::current_policy();
    let classes = crate::refute::ba::cut_classes(g, f)?;
    let (a, b, c, d) = (classes.a, classes.b, classes.c, classes.d);

    // Validity pins and decision time t′ from the all-correct runs.
    let mut chain = Vec::new();
    let mut t_prime = 0u32;
    let pair = all_correct_pair(
        protocol,
        g,
        [Input::Bool(false), Input::Bool(true)],
        horizon,
        f,
        &policy,
    );
    for (bit, run) in [false, true].into_iter().zip(pair) {
        let (link, behavior, pins) = run?;
        for v in pins {
            match behavior.node(v).decision() {
                Some(Decision::Bool(dec)) if dec == bit => {
                    t_prime =
                        t_prime.max(behavior.node(v).decision_tick().map(|t| t.0).unwrap_or(0));
                }
                other => {
                    let violation = Violation {
                        condition: if matches!(other, Some(Decision::Bool(_))) {
                            Condition::Validity
                        } else {
                            Condition::Termination
                        },
                        link: chain.len(),
                        evidence: format!(
                            "all nodes correct with input {}: {v} decided {other:?}",
                            u8::from(bit)
                        ),
                    };
                    chain.push(link);
                    return Ok(Certificate {
                        theorem: Theorem::WeakAgreement,
                        protocol: protocol.name(),
                        base: g.clone(),
                        f,
                        covering: "no covering needed: an all-correct run already violates".into(),
                        chain,
                        policy,
                        violation,
                    });
                }
            }
        }
        chain.push(link);
    }

    let m = (4 * (t_prime as usize + 1)).max(4);
    let cov = Covering::cyclic_crossed_cover(g, &a, &b, m)?;
    let n = g.node_count();
    let ring_horizon = horizon.max(m as u32 / 4 + 1);
    let inputs = move |s: NodeId| Input::Bool(s.index() / n < m / 2);
    let cover_behavior = run_cover(protocol, &cov, &inputs, ring_horizon, &policy)?;

    let lift = |class: &BTreeSet<NodeId>, copy: usize| {
        class
            .iter()
            .map(move |v| NodeId((copy * n) as u32 + v.0))
            .collect::<Vec<_>>()
    };
    // Scenario walk around the ring of copies: (c_i d_i a_i) then
    // (a_i b_{i+1} c_{i+1}), overlapping in a_i then c_{i+1}.
    let mut bad: Option<BTreeSet<NodeId>> = None;
    'outer: for i in 0..m {
        let j = (i + 1) % m;
        let sets: [Vec<NodeId>; 2] = [
            lift(&c, i)
                .into_iter()
                .chain(lift(&d, i))
                .chain(lift(&a, i))
                .collect(),
            lift(&a, i)
                .into_iter()
                .chain(lift(&b, j))
                .chain(lift(&c, j))
                .collect(),
        ];
        for set in sets {
            let mut decisions = set.iter().map(|&s| cover_behavior.node(s).decision());
            // An empty scenario set is vacuously uniform.
            let Some(first) = decisions.next() else {
                continue;
            };
            let uniform =
                matches!(first, Some(Decision::Bool(_))) && decisions.all(|dec| dec == first);
            if !uniform {
                bad = Some(set.into_iter().collect());
                break 'outer;
            }
        }
    }
    let Some(u_set) = bad else {
        return Err(RefuteError::Unrefuted {
            reason: "every cut-class scenario decided uniformly, contradicting the \
                     deep-copy argument"
                .into(),
        });
    };
    let (link, behavior, correct) = transplant(
        protocol,
        &cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring_horizon,
        f,
        &policy,
    )?;
    let violation = crate::problems::weak_agreement(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: "transplanted scenario satisfied weak agreement despite non-uniform \
                     decisions"
                .into(),
        })?;
    chain.push(link);
    Ok(Certificate {
        theorem: Theorem::WeakAgreement,
        protocol: protocol.name(),
        base: g.clone(),
        f,
        covering: format!(
            "cyclic crossed cover over the vertex cut: {m} copies of the {n}-node graph \
             (κ={}), a–b links crossed; a={a:?} b={b:?} c={c:?} d={d:?}",
            classes.kappa
        ),
        chain,
        policy,
        violation,
    })
}

/// Scans scenario node-sets of a cover run for the first whose nodes'
/// observables (canonical bytes from `obs`) are not all "ok and equal".
fn first_non_uniform_scenario(
    cover_behavior: &flm_sim::SystemBehavior,
    scenarios: impl IntoIterator<Item = BTreeSet<NodeId>>,
    obs: &dyn Fn(&flm_sim::behavior::NodeBehavior) -> (bool, Vec<u8>),
) -> Option<BTreeSet<NodeId>> {
    for set in scenarios {
        let mut values = set.iter().map(|&s| obs(cover_behavior.node(s)));
        // An empty scenario set is vacuously uniform.
        let Some(first) = values.next() else {
            continue;
        };
        let uniform = first.0 && values.all(|v| v.0 && v.1 == first.1);
        if !uniform {
            return Some(set);
        }
    }
    None
}

/// Fire-tick observable for the firing-squad walks: always "ok" (never
/// firing is a legitimate outcome), compared by the canonical tick bytes.
fn fire_obs(nb: &flm_sim::behavior::NodeBehavior) -> (bool, Vec<u8>) {
    let bytes = match nb.fire_tick() {
        Some(t) => {
            let mut v = vec![1u8];
            v.extend_from_slice(&t.0.to_be_bytes());
            v
        }
        None => vec![0u8],
    };
    (true, bytes)
}

/// The firing-squad validity pins: the all-stimulus run must fire everyone
/// simultaneously (returning the common tick), the no-stimulus run must
/// stay silent. On violation the certificate is returned early.
fn firing_squad_pins(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
    horizon: u32,
    policy: &RunPolicy,
    chain: &mut Vec<ChainLink>,
) -> Result<Result<u32, Certificate>, RefuteError> {
    let [stim_run, quiet_run] = all_correct_pair(
        protocol,
        g,
        [Input::Bool(true), Input::Bool(false)],
        horizon,
        f,
        policy,
    );
    let (stim_link, stim_behavior, stim_pins) = stim_run?;
    let fire_ticks: Vec<Option<Tick>> = stim_pins
        .iter()
        .map(|&v| stim_behavior.node(v).fire_tick())
        .collect();
    let early = |chain: &mut Vec<ChainLink>, link: ChainLink, violation: Violation| {
        chain.push(link);
        Certificate {
            theorem: Theorem::FiringSquad,
            protocol: protocol.name(),
            base: g.clone(),
            f,
            covering: "no covering needed: an all-correct run already violates".into(),
            chain: std::mem::take(chain),
            policy: *policy,
            violation,
        }
    };
    if fire_ticks.iter().any(Option::is_none) {
        let violation = Violation {
            condition: Condition::Validity,
            link: chain.len(),
            evidence: format!(
                "stimulus at every node yet fire ticks are {fire_ticks:?} by horizon {horizon}"
            ),
        };
        return Ok(Err(early(chain, stim_link, violation)));
    }
    if fire_ticks.windows(2).any(|w| w[0] != w[1]) {
        let violation = Violation {
            condition: Condition::Agreement,
            link: chain.len(),
            evidence: format!("correct nodes fired at different times: {fire_ticks:?}"),
        };
        return Ok(Err(early(chain, stim_link, violation)));
    }
    let t_fire = fire_ticks[0]
        .expect("pins are non-empty and every None fire tick returned early above")
        .0;
    chain.push(stim_link);
    let (quiet_link, quiet_behavior, quiet_pins) = quiet_run?;
    if let Some(v) = quiet_pins
        .iter()
        .copied()
        .find(|&v| quiet_behavior.node(v).fire_tick().is_some())
    {
        let violation = Violation {
            condition: Condition::Validity,
            link: chain.len(),
            evidence: format!("no stimulus occurred yet {v} fired"),
        };
        return Ok(Err(early(chain, quiet_link, violation)));
    }
    chain.push(quiet_link);
    Ok(Ok(t_fire))
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
    let [a, b, c] = crate::refute::partition_with_crossing_link(g, f)?;
    let horizon = protocol.horizon(g);
    let policy = crate::refute::current_policy();
    let mut chain = Vec::new();
    let t_fire = match firing_squad_pins(protocol, g, f, horizon, &policy, &mut chain)? {
        Ok(t) => t,
        Err(cert) => return Ok(cert),
    };
    let m = (4 * (t_fire as usize + 1)).max(4);
    let cov = Covering::cyclic_crossed_cover(g, &a, &c, m)?;
    let n = g.node_count();
    let ring_horizon = horizon.max(m as u32 / 4 + 1);
    let inputs = move |s: NodeId| Input::Bool(s.index() / n < m / 2);
    let cover_behavior = run_cover(protocol, &cov, &inputs, ring_horizon, &policy)?;
    let lift = |class: &BTreeSet<NodeId>, copy: usize| {
        class
            .iter()
            .map(move |v| NodeId((copy * n) as u32 + v.0))
            .collect::<Vec<_>>()
    };
    let scenarios = (0..m).flat_map(|i| {
        // c_i is adjacent to a_{i-1} under the crossing (see the weak
        // refuter): that pairing keeps all border edges at the faulty class.
        let j = (i + m - 1) % m;
        [
            lift(&a, i)
                .into_iter()
                .chain(lift(&b, i))
                .collect::<BTreeSet<_>>(),
            lift(&b, i).into_iter().chain(lift(&c, i)).collect(),
            lift(&c, i).into_iter().chain(lift(&a, j)).collect(),
        ]
    });
    let Some(u_set) = first_non_uniform_scenario(&cover_behavior, scenarios, &fire_obs) else {
        return Err(RefuteError::Unrefuted {
            reason: "every class-copy scenario fired uniformly, contradicting the \
                     deep-copy argument"
                .into(),
        });
    };
    let (link, behavior, correct) = transplant(
        protocol,
        &cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring_horizon,
        f,
        &policy,
    )?;
    let violation = crate::problems::firing_squad(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: "transplanted scenario satisfied the firing-squad conditions".into(),
        })?;
    chain.push(link);
    Ok(Certificate {
        theorem: Theorem::FiringSquad,
        protocol: protocol.name(),
        base: g.clone(),
        f,
        covering: format!(
            "cyclic crossed cover: {m} copies of the {n}-node graph, a-c links crossed"
        ),
        chain,
        policy,
        violation,
    })
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
    let classes = crate::refute::ba::cut_classes(g, f)?;
    let (a, b, c, d) = (classes.a, classes.b, classes.c, classes.d);
    let horizon = protocol.horizon(g);
    let policy = crate::refute::current_policy();
    let mut chain = Vec::new();
    let t_fire = match firing_squad_pins(protocol, g, f, horizon, &policy, &mut chain)? {
        Ok(t) => t,
        Err(cert) => return Ok(cert),
    };
    let m = (4 * (t_fire as usize + 1)).max(4);
    let cov = Covering::cyclic_crossed_cover(g, &a, &b, m)?;
    let n = g.node_count();
    let ring_horizon = horizon.max(m as u32 / 4 + 1);
    let inputs = move |s: NodeId| Input::Bool(s.index() / n < m / 2);
    let cover_behavior = run_cover(protocol, &cov, &inputs, ring_horizon, &policy)?;
    let lift = |class: &BTreeSet<NodeId>, copy: usize| {
        class
            .iter()
            .map(move |v| NodeId((copy * n) as u32 + v.0))
            .collect::<Vec<_>>()
    };
    let scenarios = (0..m).flat_map(|i| {
        let j = (i + 1) % m;
        [
            lift(&c, i)
                .into_iter()
                .chain(lift(&d, i))
                .chain(lift(&a, i))
                .collect::<BTreeSet<_>>(),
            lift(&a, i)
                .into_iter()
                .chain(lift(&b, j))
                .chain(lift(&c, j))
                .collect(),
        ]
    });
    let Some(u_set) = first_non_uniform_scenario(&cover_behavior, scenarios, &fire_obs) else {
        return Err(RefuteError::Unrefuted {
            reason: "every cut-class scenario fired uniformly, contradicting the \
                     deep-copy argument"
                .into(),
        });
    };
    let (link, behavior, correct) = transplant(
        protocol,
        &cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring_horizon,
        f,
        &policy,
    )?;
    let violation = crate::problems::firing_squad(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: "transplanted scenario satisfied the firing-squad conditions".into(),
        })?;
    chain.push(link);
    Ok(Certificate {
        theorem: Theorem::FiringSquad,
        protocol: protocol.name(),
        base: g.clone(),
        f,
        covering: format!(
            "cyclic crossed cover over the vertex cut: {m} copies of the {n}-node graph \
             (κ={}), a-b links crossed",
            classes.kappa
        ),
        chain,
        policy,
        violation,
    })
}

/// Dispatching refuter for weak agreement: the triangle ring for the core
/// case, the direct general crossed cover for `n ≤ 3f`, and the cut-based
/// crossed cover when only the connectivity bound applies.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when neither bound applies.
pub fn weak_any(protocol: &dyn Protocol, g: &Graph, f: usize) -> Result<Certificate, RefuteError> {
    if g.node_count() == 3 && g.links().len() == 3 && f == 1 {
        return weak_agreement(protocol, g, f);
    }
    match weak_agreement_direct_general(protocol, g, f) {
        Err(RefuteError::GraphIsAdequate { .. }) => {
            weak_agreement_direct_connectivity(protocol, g, f)
        }
        other => other,
    }
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
    if g.node_count() == 3 && g.links().len() == 3 && f == 1 {
        return firing_squad(protocol, g, f);
    }
    match firing_squad_direct_general(protocol, g, f) {
        Err(RefuteError::GraphIsAdequate { .. }) => {
            firing_squad_direct_connectivity(protocol, g, f)
        }
        other => other,
    }
}

fn weak_cert(
    protocol: &dyn Protocol,
    g: &Graph,
    chain: Vec<ChainLink>,
    policy: RunPolicy,
    violation: Violation,
    k: usize,
) -> Certificate {
    Certificate {
        theorem: Theorem::WeakAgreement,
        protocol: protocol.name(),
        base: g.clone(),
        f: 1,
        covering: if k == 0 {
            "no covering needed: an all-correct run already violates the conditions".into()
        } else {
            format!("{}-node ring cover of the triangle (k = {k})", 4 * k)
        },
        chain,
        policy,
        violation,
    }
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
    let horizon = protocol.horizon(g);
    let policy = crate::refute::current_policy();

    let mut chain = Vec::new();
    // Validity pins: with stimulus everywhere all must fire, simultaneously
    // and by the horizon; with no stimulus nobody may fire.
    let [stim_run, quiet_run] = all_correct_pair(
        protocol,
        g,
        [Input::Bool(true), Input::Bool(false)],
        horizon,
        f,
        &policy,
    );
    let (stim_link, stim_behavior, stim_pins) = stim_run?;
    let fire_ticks: Vec<Option<Tick>> = stim_pins
        .iter()
        .map(|&v| stim_behavior.node(v).fire_tick())
        .collect();
    if fire_ticks.iter().any(Option::is_none) {
        let violation = Violation {
            condition: Condition::Validity,
            link: 0,
            evidence: format!(
                "stimulus occurred at every node yet fire ticks are {fire_ticks:?} by horizon \
                 {horizon}"
            ),
        };
        chain.push(stim_link);
        return Ok(fs_cert(protocol, g, chain, policy, violation, 0));
    }
    if fire_ticks.windows(2).any(|w| w[0] != w[1]) {
        let violation = Violation {
            condition: Condition::Agreement,
            link: 0,
            evidence: format!("correct nodes fired at different times: {fire_ticks:?}"),
        };
        chain.push(stim_link);
        return Ok(fs_cert(protocol, g, chain, policy, violation, 0));
    }
    let t_fire = fire_ticks[0]
        .expect("pins are non-empty and every None fire tick returned early above")
        .0;
    chain.push(stim_link);

    let (quiet_link, quiet_behavior, quiet_pins) = quiet_run?;
    if let Some(v) = quiet_pins
        .iter()
        .copied()
        .find(|&v| quiet_behavior.node(v).fire_tick().is_some())
    {
        let violation = Violation {
            condition: Condition::Validity,
            link: 1,
            evidence: format!("no stimulus occurred yet {v} fired"),
        };
        chain.push(quiet_link);
        return Ok(fs_cert(protocol, g, chain, policy, violation, 0));
    }
    chain.push(quiet_link);

    // The ring: stimulus on the first half.
    let k = next_k(t_fire);
    let cov = ring_cover(k)?;
    let ring_n = cov.cover().node_count();
    let ring_horizon = horizon.max(k as u32 + 1);
    let inputs = move |s: NodeId| Input::Bool(s.index() < ring_n / 2);
    let cover_behavior = run_cover(protocol, &cov, &inputs, ring_horizon, &policy)?;

    // Find an adjacent pair with different fire ticks. The deep-stimulated
    // pair fires at t_fire; the deep-quiet pair cannot fire by tick k.
    let tick_of = |i: usize| cover_behavior.node(NodeId(i as u32)).fire_tick();
    let mut bad_pair = None;
    for i in 0..ring_n {
        let j = (i + 1) % ring_n;
        if tick_of(i) != tick_of(j) {
            bad_pair = Some((i, j));
            break;
        }
    }
    let Some((i, j)) = bad_pair else {
        return Err(RefuteError::Unrefuted {
            reason: "all ring pairs fired simultaneously, contradicting Lemma 3".into(),
        });
    };
    let u_set: BTreeSet<NodeId> = [NodeId(i as u32), NodeId(j as u32)].into();
    let (link, behavior, correct) = transplant(
        protocol,
        &cov,
        &cover_behavior,
        &u_set,
        Input::None,
        ring_horizon,
        f,
        &policy,
    )?;
    let violation = crate::problems::firing_squad(&behavior, &correct, false, chain.len())
        .err()
        .ok_or_else(|| RefuteError::Unrefuted {
            reason: "transplanted pair satisfied the firing-squad conditions despite \
                     differing fire ticks"
                .into(),
        })?;
    chain.push(link);
    Ok(fs_cert(protocol, g, chain, policy, violation, k))
}

fn fs_cert(
    protocol: &dyn Protocol,
    g: &Graph,
    chain: Vec<ChainLink>,
    policy: RunPolicy,
    violation: Violation,
    k: usize,
) -> Certificate {
    Certificate {
        theorem: Theorem::FiringSquad,
        protocol: protocol.name(),
        base: g.clone(),
        f: 1,
        covering: if k == 0 {
            "no covering needed: an all-correct run already violates the conditions".into()
        } else {
            format!("{}-node ring cover of the triangle (k = {k})", 4 * k)
        },
        chain,
        policy,
        violation,
    }
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
