//! The refuters: one executable impossibility proof per theorem.
//!
//! Every refuter follows the paper's recipe:
//!
//! 1. **Cover.** Build a covering graph `S` of the inadequate graph `G`
//!    (hexagon-style crossed double cover, or a long ring) and install the
//!    protocol's own devices at each cover node, wired along the covering's
//!    edge lifts so that every device sees exactly the neighborhood it was
//!    written for.
//! 2. **Run once.** `S` is just another system; run it.
//! 3. **Transplant.** For each scenario in the chain, construct a behavior
//!    of `G` in which the scenario's nodes are correct (same devices, same
//!    inputs) and the remaining nodes are faulty, masquerading via
//!    [`flm_sim::replay::ReplayDevice`]s that play back the cover run's border edge traces —
//!    the Fault axiom. Re-run `G`, extract the same scenario, and check it
//!    matches the cover's byte for byte — the Locality axiom, *checked*,
//!    not assumed.
//! 4. **Contradict.** Each transplanted behavior is a correct behavior of
//!    `G`, so the problem's conditions apply. The chain is arranged so they
//!    cannot all hold; report the first that fails, with evidence, as a
//!    [`crate::Certificate`].

mod approx;
mod ba;
mod clocks;
mod flp;
mod general;
mod ring;

pub use approx::{eps_delta_gamma, simple_approx, simple_approx_connectivity};
pub use ba::{ba_connectivity, ba_nodes, byzantine};
pub use clocks::{clock_sync, corollary_13, corollary_14, corollary_15, ClockCertificate};
pub use flp::{
    async_search_stats, default_strategies, flp_async, flp_async_under, AsyncCertificate,
};
pub use general::{eps_delta_gamma_general, firing_squad_general, weak_agreement_general};
pub use ring::{
    firing_squad, firing_squad_any, firing_squad_direct_connectivity, firing_squad_direct_general,
    weak_agreement, weak_agreement_direct_connectivity, weak_agreement_direct_general, weak_any,
};

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use flm_graph::covering::Covering;
use flm_graph::{Graph, GraphError, NodeId};
use flm_sim::behavior::EdgeBehavior;
use flm_sim::{DeviceMisbehavior, Input, Protocol, RunPolicy, System, SystemBehavior};

use crate::certificate::{run_link, ChainLink, LinkError};

/// Why a refuter declined or failed to produce a counterexample.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RefuteError {
    /// The graph is adequate for `f` faults — the theorem does not apply
    /// (and `flm-protocols` can actually solve the problem there).
    GraphIsAdequate {
        /// Explanation with the relevant bound.
        reason: String,
    },
    /// The graph violates a standing model assumption (fewer than three
    /// nodes, or disconnected).
    BadGraph {
        /// Explanation.
        reason: String,
    },
    /// The protocol's devices broke a model axiom (e.g. nondeterminism made
    /// a transplanted scenario diverge from the cover run).
    ModelViolation {
        /// Explanation with the first divergence found.
        reason: String,
    },
    /// No condition was violated — impossible if the axioms hold; reported
    /// rather than asserted so callers can diagnose.
    Unrefuted {
        /// Explanation.
        reason: String,
    },
    /// Devices misbehaved (panicked, broke the port discipline, or emitted
    /// oversized payloads) beyond what the fault budget `f` can absorb: the
    /// degradation policy could not reclassify every misbehaving node as
    /// faulty, so no sound counterexample exists in this run. The incidents
    /// carry the evidence.
    Misbehavior {
        /// The incidents the contained run recorded.
        incidents: Vec<DeviceMisbehavior>,
        /// The budget arithmetic that failed.
        reason: String,
    },
    /// A graph construction failed.
    Graph(GraphError),
}

impl fmt::Display for RefuteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefuteError::GraphIsAdequate { reason } => {
                write!(f, "graph is adequate: {reason}")
            }
            RefuteError::BadGraph { reason } => write!(f, "unsupported graph: {reason}"),
            RefuteError::ModelViolation { reason } => {
                write!(f, "protocol violates the model axioms: {reason}")
            }
            RefuteError::Unrefuted { reason } => {
                write!(f, "no violation found (axiom breakage?): {reason}")
            }
            RefuteError::Misbehavior { incidents, reason } => {
                write!(f, "device misbehavior exceeds the fault budget: {reason}")?;
                for m in incidents {
                    write!(f, "; {m}")?;
                }
                Ok(())
            }
            RefuteError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl std::error::Error for RefuteError {}

impl From<GraphError> for RefuteError {
    fn from(e: GraphError) -> Self {
        RefuteError::Graph(e)
    }
}

thread_local! {
    static ACTIVE_POLICY: std::cell::Cell<Option<RunPolicy>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every refuter invoked on *this thread* executing (and
/// certifying) under `policy` instead of [`RunPolicy::default`].
///
/// Each refuter reads the policy exactly once at entry ([`current_policy`])
/// and passes it explicitly into its cover runs, transplants, and the
/// certificate it emits, so one refutation never mixes two policies. The
/// scope is per thread: a refuter started on another thread (a test's
/// worker pool, a server worker) runs under that thread's scope.
pub fn with_policy<R>(policy: RunPolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<RunPolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE_POLICY.with(|c| c.set(self.0));
        }
    }
    let previous = ACTIVE_POLICY.with(|c| c.replace(Some(policy)));
    let _restore = Restore(previous);
    f()
}

/// The run policy refuters started on this thread will execute under: the
/// innermost [`with_policy`] scope, or [`RunPolicy::default`] outside one.
pub fn current_policy() -> RunPolicy {
    ACTIVE_POLICY.with(std::cell::Cell::get).unwrap_or_default()
}

/// A device constructor for `v` that panicked — EIG, DLPSW and Dolev–Strong
/// assert a complete graph — as [`RefuteError::BadGraph`], instead of an
/// unwind through the refuter.
fn bad_device(protocol: &dyn Protocol, v: NodeId, msg: String) -> RefuteError {
    RefuteError::BadGraph {
        reason: format!(
            "{} cannot run on this graph: device construction for {v} panicked: {msg}",
            protocol.name()
        ),
    }
}

/// Words a [`run_link`] error as the refuters do: a device constructor
/// panic is [`RefuteError::BadGraph`], and a failed run is a
/// [`RefuteError::ModelViolation`] headed `what`.
pub(crate) fn link_error<'a>(
    protocol: &'a dyn Protocol,
    what: &'a str,
) -> impl Fn(LinkError) -> RefuteError + 'a {
    move |e| match e {
        LinkError::Device { node, message } => bad_device(protocol, node, message),
        LinkError::Shape(reason) => RefuteError::ModelViolation { reason },
        LinkError::Run(e) => RefuteError::ModelViolation {
            reason: format!("{what} failed: {e}"),
        },
    }
}

/// Installs `protocol`'s devices in the covering graph (wired along edge
/// lifts) with per-cover-node `inputs`, and runs for `horizon` ticks.
///
/// Memoized: refuters that share a covering run — chain links transplanting
/// different scenarios out of the same `S`, or a refute-then-verify
/// sequence — execute it once and share the behavior through the run cache.
pub(crate) fn run_cover(
    protocol: &dyn Protocol,
    cov: &Covering,
    inputs: &dyn Fn(NodeId) -> Input,
    horizon: u32,
    policy: &RunPolicy,
) -> Result<Arc<SystemBehavior>, RefuteError> {
    crate::profile::span("run-cover", || {
        let key = crate::runkey::cover_key(&protocol.name(), cov, inputs, horizon, policy);
        // Contained: a hostile device must not abort the refuter. A cover
        // node that misbehaves is quarantined; determinism means its
        // base-graph twin misbehaves identically in the transplants, where
        // the degradation policy charges it against the fault budget.
        flm_sim::runcache::memoize_discrete(&key, || {
            let mut sys = System::new(cov.cover().clone());
            for s in cov.cover().nodes() {
                let v = cov.project(s);
                let device = flm_sim::contain_panics(|| protocol.device(cov.base(), v))
                    .map_err(|msg| bad_device(protocol, v, msg))?;
                sys.assign_lifted(cov, s, device, inputs(s)).map_err(|e| {
                    RefuteError::ModelViolation {
                        reason: format!("installing device at cover node {s}: {e}"),
                    }
                })?;
            }
            sys.run_contained(horizon, policy)
                .map_err(|e| RefuteError::ModelViolation {
                    reason: format!("cover run failed: {e}"),
                })
        })
    })
}

/// Transplants the scenario of cover-node set `u_set` into a behavior of
/// the base graph (the heart of every proof).
///
/// The base nodes `φ(u_set)` are correct: they run `protocol`'s devices with
/// the inputs their cover representatives had. Every other base node is
/// faulty: on each port toward a correct node `t`, it replays the cover
/// edge trace that fed `t`'s representative — the Fault axiom's
/// `F_A(E₁,…,E_d)` with the `E_i` harvested from the cover run.
///
/// Returns the assembled [`ChainLink`] (with the Locality-axiom scenario
/// match recorded), the base behavior, and the *effective* correct node set
/// after degradation.
///
/// The base system is run contained: a scenario device that panics, breaks
/// the port discipline, or floods a port is quarantined and recorded rather
/// than aborting the refutation. Each misbehaving node is then *degraded* —
/// reclassified as Byzantine-faulty — provided the link's total fault count
/// (masquerading nodes plus degraded nodes) stays within `f`. Degraded
/// nodes are removed from the set the correctness conditions quantify over;
/// the incident evidence rides along in the [`ChainLink`].
///
/// # Errors
///
/// [`RefuteError::ModelViolation`] when the projection of `u_set` is not
/// injective or the transplanted scenario fails to match the cover's;
/// [`RefuteError::Misbehavior`] when degradation would exceed `f`.
// The argument list is the transplant construction's full parameter set;
// bundling unrelated items into an ad-hoc struct would obscure it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transplant(
    protocol: &dyn Protocol,
    cov: &Covering,
    cover_behavior: &SystemBehavior,
    u_set: &BTreeSet<NodeId>,
    faulty_input: Input,
    horizon: u32,
    f: usize,
    policy: &RunPolicy,
) -> Result<(ChainLink, Arc<SystemBehavior>, BTreeSet<NodeId>), RefuteError> {
    crate::profile::span("transplant", || {
        let base = cov.base();
        // φ restricted to u_set must be injective (one representative per base
        // node) for the scenario to live in the base graph.
        let mut rep: std::collections::BTreeMap<NodeId, NodeId> = std::collections::BTreeMap::new();
        for &u in u_set {
            if rep.insert(cov.project(u), u).is_some() {
                return Err(RefuteError::ModelViolation {
                    reason: format!(
                        "two cover nodes in the scenario project to {}",
                        cov.project(u)
                    ),
                });
            }
        }
        let correct: BTreeSet<NodeId> = rep.keys().copied().collect();

        // Harvest the link's assembly first — inputs and masquerade traces pin
        // the base run completely, so they double as its cache key.
        let mut inputs = vec![faulty_input; base.node_count()];
        for (&t, &u) in &rep {
            inputs[t.index()] = cover_behavior.node(u).input;
        }
        let mut masquerade: Vec<(NodeId, Vec<EdgeBehavior>)> = Vec::new();
        for alpha in base.nodes() {
            if correct.contains(&alpha) {
                continue;
            }
            // Port order = sorted base neighbors, matching System::assign.
            let traces: Vec<EdgeBehavior> = base
                .neighbors(alpha)
                .map(|t| {
                    let source_edge = match rep.get(&t) {
                        // The cover edge feeding t's representative from an
                        // alpha-projecting neighbor.
                        Some(&u_t) => (cov.lift_neighbor(u_t, alpha), u_t),
                        // t is faulty too; the trace is irrelevant to the
                        // scenario — use alpha's first fiber element's edge for
                        // determinism.
                        None => {
                            let a0 = cov.fiber(alpha)[0];
                            (a0, cov.lift_neighbor(a0, t))
                        }
                    };
                    cover_behavior.edge(source_edge.0, source_edge.1).clone()
                })
                .collect();
            masquerade.push((alpha, traces));
        }

        // The same key `Certificate::rebuild` derives from the finished link, so
        // verification of a freshly minted certificate replays from the cache.
        let correct_sorted: Vec<NodeId> = correct.iter().copied().collect();
        let behavior = run_link(
            protocol,
            base,
            &correct_sorted,
            &masquerade,
            &inputs,
            horizon,
            policy,
        )
        .map_err(link_error(protocol, "base run"))?;

        // The Locality axiom, checked: the transplanted scenario must equal the
        // cover scenario byte for byte (under φ). Quarantined devices pass this
        // too — determinism makes them misbehave at the same tick in both runs,
        // leaving identical silence and marker snapshots.
        let cover_scenario = cover_behavior.scenario(u_set);
        let base_scenario = behavior.scenario(&correct);
        let map: std::collections::BTreeMap<NodeId, NodeId> =
            u_set.iter().map(|&u| (u, cov.project(u))).collect();
        let matched = cover_scenario.matches(&base_scenario, &map);
        if let Err(reason) = &matched {
            return Err(RefuteError::ModelViolation {
                reason: format!(
                    "transplanted scenario diverged (device nondeterminism?): {reason}"
                ),
            });
        }

        // Degradation: misbehaving scenario nodes become Byzantine-faulty if the
        // budget allows, otherwise the refutation cannot proceed soundly.
        let incidents = behavior.misbehavior().to_vec();
        let degraded: BTreeSet<NodeId> = behavior
            .misbehaving_nodes()
            .intersection(&correct)
            .copied()
            .collect();
        let masquerading = base.node_count() - correct.len();
        if masquerading + degraded.len() > f {
            return Err(RefuteError::Misbehavior {
                reason: format!(
                    "{} masquerading + {} degraded nodes > f = {f}",
                    masquerading,
                    degraded.len()
                ),
                incidents,
            });
        }
        let effective: BTreeSet<NodeId> = correct.difference(&degraded).copied().collect();

        let link = ChainLink {
            correct: correct_sorted,
            masquerade,
            inputs,
            scenario_matched: matched.is_ok(),
            decisions: behavior.decisions(),
            horizon,
            misbehavior: incidents,
            degraded: degraded.iter().copied().collect(),
        };
        Ok((link, behavior, effective))
    })
}

/// Splits `0..n` into classes `a`, `b`, `c` of size at most `f` with an
/// `a`–`c` link guaranteed (the first link of the graph goes between `a`
/// and `c`), for the node-bound construction on arbitrary graphs.
pub(crate) fn partition_with_crossing_link(
    g: &Graph,
    f: usize,
) -> Result<[BTreeSet<NodeId>; 3], RefuteError> {
    let n = g.node_count();
    if n < 3 {
        return Err(RefuteError::BadGraph {
            reason: format!("need at least 3 nodes, got {n}"),
        });
    }
    if f == 0 || n > 3 * f {
        return Err(RefuteError::GraphIsAdequate {
            reason: format!("{n} nodes ≥ 3f+1 = {}", 3 * f + 1),
        });
    }
    let (u, v) = *g.links().first().ok_or_else(|| RefuteError::BadGraph {
        reason: "graph has no links".into(),
    })?;
    // Target sizes, each in [1, f] (possible because 3 ≤ n ≤ 3f).
    let sa = n.div_ceil(3);
    let sc = (n - sa).div_ceil(2);
    let sb = n - sa - sc;
    debug_assert!((1..=f).contains(&sa) && (1..=f).contains(&sb) && (1..=f).contains(&sc));
    let mut a: BTreeSet<NodeId> = [u].into();
    let mut c: BTreeSet<NodeId> = [v].into();
    let mut b: BTreeSet<NodeId> = BTreeSet::new();
    for w in g.nodes() {
        if w == u || w == v {
            continue;
        }
        if a.len() < sa {
            a.insert(w);
        } else if c.len() < sc {
            c.insert(w);
        } else {
            b.insert(w);
        }
    }
    debug_assert_eq!(b.len(), sb);
    Ok([a, b, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;

    #[test]
    fn partition_respects_sizes_and_link() {
        for (n, f) in [(3, 1), (5, 2), (6, 2), (9, 3)] {
            let g = builders::complete(n);
            let [a, b, c] = partition_with_crossing_link(&g, f).unwrap();
            assert!(a.len() <= f && !a.is_empty());
            assert!(b.len() <= f && !b.is_empty());
            assert!(c.len() <= f && !c.is_empty());
            assert_eq!(a.len() + b.len() + c.len(), n);
            // The first link crosses a–c.
            let (u, v) = g.links()[0];
            assert!(a.contains(&u) && c.contains(&v));
        }
    }

    #[test]
    fn a_device_constructor_panic_is_a_typed_bad_graph() {
        // EIG asserts a complete graph. C5 with f = 2 passes the node bound,
        // so the chain refuter meets the panic in its cover run; the ring
        // refuter meets it in its all-correct runs.
        let eig = flm_protocols::Eig::new(2);
        let weak = flm_protocols::WeakViaBa::new(1);
        for result in [
            ba_nodes(&eig, &builders::cycle(5), 2),
            weak_agreement_direct_connectivity(&weak, &builders::cycle(4), 1),
        ] {
            match result {
                Err(RefuteError::BadGraph { reason }) => {
                    assert!(reason.contains("requires the complete graph"), "{reason}");
                }
                other => panic!("expected BadGraph, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_rejects_adequate_graphs() {
        let g = builders::complete(7);
        assert!(matches!(
            partition_with_crossing_link(&g, 2),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }
}
