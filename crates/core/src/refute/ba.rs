//! Theorem 1: Byzantine agreement is impossible in inadequate graphs.
//!
//! Two refuters, one per half of the bound:
//!
//! * [`ba_nodes`] — the `3f+1` node bound (§3.1). The triangle's hexagon
//!   cover, generalized: partition the nodes into classes `a`, `b`, `c` of
//!   size at most `f`, take two copies, and cross the `a`–`c` links. Inputs
//!   0 on copy 0, 1 on copy 1. The chain `E₁, E₂, E₃` walks around the
//!   cover: validity pins `E₁` to 0 and `E₃` to 1, while `E₂`'s agreement
//!   bridges them — a contradiction.
//! * [`ba_connectivity`] — the `2f+1` connectivity bound (§3.2). Split a
//!   minimum vertex cut into halves `b`, `d` of size at most `f`; classes
//!   `a`, `c` are the separated sides. Two copies with the `a`–`b` links
//!   crossed give the 8-ring generalization, and the same walk applies
//!   with `d`, `b`, `d` faulty in turn.
//!
//! Both run one engine, [`chain_certificate`]: one cover run, then a chain
//! up to its first violation, each transplant checked against the
//! problem's conditions. Theorem 5's simple-approximate-agreement
//! refuters run the same engine with real inputs, and Theorem 6's
//! (ε,δ,γ) refuter runs it around a `(k+2)`-node ring.

use std::collections::BTreeSet;

use flm_graph::covering::Covering;
use flm_graph::{connectivity, Graph, NodeId};
use flm_sim::{Input, Protocol, SystemBehavior};

use crate::certificate::{Certificate, Theorem, Violation};
use crate::problems;
use crate::refute::{partition_with_crossing_link, run_cover, transplant, RefuteError};

/// Offsets a class into copy 0 or copy 1 of a crossed double cover.
pub(super) fn copy_of(
    class: &BTreeSet<NodeId>,
    copy: usize,
    n: usize,
) -> impl Iterator<Item = NodeId> + '_ {
    let off = (copy * n) as u32;
    class.iter().map(move |v| NodeId(v.0 + off))
}

/// The hexagon walk over the node-bound crossed double cover: `(b₀ c₀)`
/// with `a` faulty, `(c₀ a₁)` with `b` faulty, `(a₁ b₁)` with `c` faulty.
pub(super) fn hexagon_walk(classes: &[BTreeSet<NodeId>; 3], n: usize) -> [BTreeSet<NodeId>; 3] {
    let [a, b, c] = classes;
    [
        copy_of(b, 0, n).chain(copy_of(c, 0, n)).collect(),
        copy_of(c, 0, n).chain(copy_of(a, 1, n)).collect(),
        copy_of(a, 1, n).chain(copy_of(b, 1, n)).collect(),
    ]
}

/// A problem's conditions on one chain link: its behavior, its correct
/// nodes and its index in, the violation (if any) out.
type LinkCheck<'a> =
    dyn Fn(&SystemBehavior, &BTreeSet<NodeId>, usize) -> Result<(), Violation> + 'a;

/// Runs a chain up to its first violation, shared by the Theorem 1, 5 and
/// 6 refuters.
///
/// `scenarios` lists, per chain behavior, the cover-node set whose scenario
/// is transplanted and the input assigned to that link's masquerading
/// nodes. The first violation `check` reports becomes the certificate, and
/// its link is the chain's last: no scenario after it is transplanted.
// The chain's full parameter set, as for `transplant`.
#[allow(clippy::too_many_arguments)]
pub(super) fn chain_certificate(
    protocol: &dyn Protocol,
    cov: &Covering,
    theorem: Theorem,
    covering_desc: String,
    f: usize,
    inputs: &dyn Fn(NodeId) -> Input,
    scenarios: Vec<(BTreeSet<NodeId>, Input)>,
    check: &LinkCheck<'_>,
) -> Result<Certificate, RefuteError> {
    let horizon = protocol.horizon(cov.base());
    // Read once at entry: every run of the chain and the certificate
    // itself carry this one policy.
    let policy = super::current_policy();
    let cover_behavior = run_cover(protocol, cov, inputs, horizon, &policy)?;

    // The chain links are independent re-executions against the same cover
    // behavior. They run in input order and the chain ends at the first
    // violated link, so the certificate is fixed by the order of `scenarios`.
    let mut chain = Vec::new();
    for (i, (u_set, faulty_input)) in scenarios.into_iter().enumerate() {
        let (link, behavior, correct) = transplant(
            protocol,
            cov,
            &cover_behavior,
            &u_set,
            faulty_input,
            horizon,
            f,
            &policy,
        )?;
        chain.push(link);
        if let Err(violation) = check(&behavior, &correct, i) {
            return Ok(Certificate {
                theorem,
                protocol: protocol.name(),
                base: cov.base().clone(),
                f,
                covering: covering_desc,
                chain,
                policy,
                violation,
            });
        }
    }
    Err(RefuteError::Unrefuted {
        reason: format!(
            "all {} chain behaviors met the {theorem} conditions, which the covering \
             argument proves impossible",
            chain.len()
        ),
    })
}

/// Theorem 1, node bound: refutes any Byzantine-agreement protocol on a
/// graph with `n ≤ 3f` nodes.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `n ≥ 3f + 1`;
/// [`RefuteError::ModelViolation`] when the protocol's devices are
/// nondeterministic or otherwise break the model.
pub fn ba_nodes(protocol: &dyn Protocol, g: &Graph, f: usize) -> Result<Certificate, RefuteError> {
    let n = g.node_count();
    let classes = partition_with_crossing_link(g, f)?;
    let [a, b, c] = &classes;
    let cov = crate::profile::span("build-covering", || {
        Covering::double_cover_crossing(g, a, c)
    })?;
    let inputs = move |s: NodeId| Input::Bool(s.index() >= n);
    chain_certificate(
        protocol,
        &cov,
        Theorem::BaNodes,
        format!(
            "double cover of {n}-node graph crossing a–c links; classes a={a:?} b={b:?} c={c:?}"
        ),
        f,
        &inputs,
        hexagon_walk(&classes, n).map(|u| (u, Input::None)).into(),
        &problems::byzantine_agreement,
    )
}

/// The four §3.2 classes of a cut-based construction: the separated side
/// `a`, the cut halves `b` and `d` (each of size ≤ `f`, with `b` touching
/// `a`), and the remainder `c`. Shared by every connectivity-bound refuter.
pub(crate) struct CutClasses {
    pub a: BTreeSet<NodeId>,
    pub b: BTreeSet<NodeId>,
    pub c: BTreeSet<NodeId>,
    pub d: BTreeSet<NodeId>,
    pub kappa: usize,
}

/// Computes [`CutClasses`] for a connected graph with `κ(G) ≤ 2f`.
pub(crate) fn cut_classes(g: &Graph, f: usize) -> Result<CutClasses, RefuteError> {
    let n = g.node_count();
    if n < 3 {
        return Err(RefuteError::BadGraph {
            reason: format!("need at least 3 nodes, got {n}"),
        });
    }
    if !g.is_connected() {
        return Err(RefuteError::BadGraph {
            reason: "graph is disconnected".into(),
        });
    }
    // One Menger scan gives both κ and the cut (a complete graph has no
    // cut, and κ = n − 1).
    let min_cut = connectivity::min_vertex_cut(g);
    let kappa = min_cut.as_ref().map_or(n - 1, |(cut, _, _)| cut.len());
    if f == 0 || kappa > 2 * f {
        return Err(RefuteError::GraphIsAdequate {
            reason: format!("connectivity {kappa} ≥ 2f+1 = {}", 2 * f + 1),
        });
    }
    let Some((cut, s, _t)) = min_cut else {
        return Err(RefuteError::BadGraph {
            reason: "complete graph has no vertex cut; use the node-bound refuter".into(),
        });
    };
    // Classes: a = the separated component of s, c = the rest, and the cut
    // split into b and d of size ≤ f, with b guaranteed to touch a.
    let (rest, order) = g.remove_nodes(&cut);
    let comps = rest.components();
    // `order` lists exactly the nodes kept by `remove_nodes`; `s` is kept
    // because `min_vertex_cut` never puts its witness endpoints in the cut.
    let pos_of = |x: NodeId| {
        order
            .iter()
            .position(|&v| v == x)
            .expect("node kept by remove_nodes")
    };
    let comp_a = comps
        .iter()
        .find(|comp| comp.contains(&NodeId(pos_of(s) as u32)))
        .ok_or_else(|| RefuteError::BadGraph {
            reason: format!("cut witness {s} not found in any component of the cut graph"),
        })?;
    let a: BTreeSet<NodeId> = comp_a.iter().map(|&i| order[i.index()]).collect();
    let c: BTreeSet<NodeId> = g
        .nodes()
        .filter(|v| !cut.contains(v) && !a.contains(v))
        .collect();
    debug_assert!(!c.is_empty());
    // Put a neighbor of `a` into `b` first so the crossing has a link.
    let a_neighbors: BTreeSet<NodeId> = a
        .iter()
        .flat_map(|&v| g.neighbors(v))
        .filter(|w| cut.contains(w))
        .collect();
    let mut ordered_cut: Vec<NodeId> = a_neighbors.iter().copied().collect();
    ordered_cut.extend(cut.iter().filter(|v| !a_neighbors.contains(v)));
    let half = cut.len().div_ceil(2).min(f.max(1));
    let b: BTreeSet<NodeId> = ordered_cut.iter().take(half).copied().collect();
    let d: BTreeSet<NodeId> = ordered_cut.iter().skip(half).copied().collect();
    debug_assert!(b.len() <= f && d.len() <= f);
    Ok(CutClasses { a, b, c, d, kappa })
}

/// The §3.2 walk as a chain up to its first violation, over a connected
/// graph with `κ(G) ≤ 2f`, shared by the Byzantine and
/// approximate-agreement connectivity refuters: the crossed double cover
/// over a split vertex cut, Boolean inputs mapped through `value`, and
/// `faulty_inputs` per link.
pub(super) fn connectivity_chain(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
    theorem: Theorem,
    value: fn(bool) -> Input,
    faulty_inputs: [Input; 3],
    check: fn(&SystemBehavior, &BTreeSet<NodeId>, usize) -> Result<(), Violation>,
) -> Result<Certificate, RefuteError> {
    let n = g.node_count();
    let CutClasses { a, b, c, d, kappa } = cut_classes(g, f)?;

    let cov = crate::profile::span("build-covering", || {
        Covering::double_cover_crossing(g, &a, &b)
    })?;
    // Inputs: a₀=0, b₀=1, c₀=1, d₀=0 and the complement on copy 1.
    let (a2, b2, c2, d2) = (a.clone(), b.clone(), c.clone(), d.clone());
    let inputs = move |s: NodeId| {
        let (base, copy1) = (NodeId(s.0 % n as u32), s.index() >= n);
        let zero_on_copy0 = a2.contains(&base) || d2.contains(&base);
        debug_assert!(
            zero_on_copy0 || b2.contains(&base) || c2.contains(&base),
            "classes partition the nodes"
        );
        value(zero_on_copy0 == copy1) // a,d: 0 on copy 0; b,c: 0 on copy 1
    };
    // The 8-ring walk: (a₀ b₁ c₁) with d faulty, (c₁ d₁ a₁) with b faulty,
    // (a₁ b₀ c₀) with d faulty.
    let walk = [
        [(&a, 0), (&b, 1), (&c, 1)],
        [(&c, 1), (&d, 1), (&a, 1)],
        [(&a, 1), (&b, 0), (&c, 0)],
    ]
    .map(|u| {
        u.iter()
            .flat_map(|&(class, copy)| copy_of(class, copy, n))
            .collect()
    });
    chain_certificate(
        protocol,
        &cov,
        theorem,
        format!(
            "double cover of {n}-node graph (κ={kappa}) crossing a–b links; \
             a={a:?} b={b:?} c={c:?} d={d:?}"
        ),
        f,
        &inputs,
        walk.into_iter().zip(faulty_inputs).collect(),
        &check,
    )
}

/// Theorem 1, connectivity bound: refutes any Byzantine-agreement protocol
/// on a connected graph with vertex connectivity at most `2f`.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `κ(G) ≥ 2f + 1`;
/// [`RefuteError::BadGraph`] for complete or disconnected graphs (use
/// [`ba_nodes`] for small complete graphs).
pub fn ba_connectivity(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    connectivity_chain(
        protocol,
        g,
        f,
        Theorem::BaConnectivity,
        Input::Bool,
        [Input::None; 3],
        problems::byzantine_agreement,
    )
}

/// Dispatching refuter for Byzantine agreement: applies the node bound when
/// `n ≤ 3f`, otherwise the connectivity bound when `κ ≤ 2f`.
///
/// ```
/// use flm_core::refute;
/// use flm_graph::{builders, Graph, NodeId};
/// use flm_sim::{devices::NaiveMajorityDevice, Device, Protocol};
///
/// struct Naive;
/// impl Protocol for Naive {
///     fn name(&self) -> String { "Naive".into() }
///     fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
///         Box::new(NaiveMajorityDevice::new())
///     }
///     fn horizon(&self, _g: &Graph) -> u32 { 3 }
/// }
///
/// // C5 is inadequate by connectivity (κ = 2 < 3); the dispatcher picks
/// // the right bound and the certificate re-executes.
/// let cert = refute::byzantine(&Naive, &builders::cycle(5), 1)?;
/// assert!(cert.verify(&Naive).is_ok());
/// # Ok::<(), flm_core::RefuteError>(())
/// ```
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when neither bound applies — exactly
/// when `flm-protocols` can solve the problem on `g`.
pub fn byzantine(protocol: &dyn Protocol, g: &Graph, f: usize) -> Result<Certificate, RefuteError> {
    match ba_nodes(protocol, g, f) {
        Err(RefuteError::GraphIsAdequate { .. }) => ba_connectivity(protocol, g, f),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_sim::devices::{ConstantDevice, NaiveMajorityDevice, TableDevice};
    use flm_sim::Device;

    struct Zoo(u32);
    impl Protocol for Zoo {
        fn name(&self) -> String {
            format!("zoo#{}", self.0)
        }
        fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
            match self.0 {
                0 => Box::new(ConstantDevice::new()),
                1 => Box::new(NaiveMajorityDevice::new()),
                // Same seed at every node: covering-fiber copies must agree.
                s => Box::new(TableDevice::new(u64::from(s) * 31, 3)),
            }
        }
        fn horizon(&self, _g: &Graph) -> u32 {
            6
        }
    }

    #[test]
    fn every_zoo_protocol_is_refuted_on_the_triangle() {
        let g = builders::triangle();
        for i in 0..8 {
            let proto = Zoo(i);
            let cert = ba_nodes(&proto, &g, 1).unwrap_or_else(|e| panic!("zoo#{i}: {e}"));
            assert_eq!(cert.chain.len(), cert.violation.link + 1, "zoo#{i}");
            assert!(cert.chain.iter().all(|l| l.scenario_matched));
            cert.verify(&proto)
                .unwrap_or_else(|e| panic!("zoo#{i} verify: {e}"));
        }
    }

    #[test]
    fn node_bound_refutes_on_k6_with_f2() {
        let proto = Zoo(1);
        let cert = ba_nodes(&proto, &builders::complete(6), 2).unwrap();
        assert_eq!(cert.f, 2);
        cert.verify(&proto).unwrap();
    }

    #[test]
    fn node_bound_declines_adequate_graphs() {
        assert!(matches!(
            ba_nodes(&Zoo(1), &builders::complete(4), 1),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }

    #[test]
    fn connectivity_bound_refutes_on_cycle4() {
        let proto = Zoo(1);
        let cert = ba_connectivity(&proto, &builders::cycle(4), 1).unwrap();
        assert!(cert.chain.iter().all(|l| l.scenario_matched));
        cert.verify(&proto).unwrap();
    }

    #[test]
    fn connectivity_bound_refutes_zoo_on_larger_thin_graphs() {
        // A 6-cycle has κ = 2 ≤ 2f for f = 1 even though n = 6 ≥ 4.
        let g = builders::cycle(6);
        for i in 0..6 {
            let proto = Zoo(i);
            let cert = ba_connectivity(&proto, &g, 1).unwrap_or_else(|e| panic!("zoo#{i}: {e}"));
            cert.verify(&proto).unwrap();
        }
    }

    #[test]
    fn connectivity_bound_declines_adequate_graphs() {
        assert!(matches!(
            ba_connectivity(&Zoo(1), &builders::complete(4), 1),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }

    #[test]
    fn dispatcher_picks_the_right_bound() {
        let tri = byzantine(&Zoo(1), &builders::triangle(), 1).unwrap();
        assert_eq!(tri.theorem, Theorem::BaNodes);
        let cyc = byzantine(&Zoo(1), &builders::cycle(6), 1).unwrap();
        assert_eq!(cyc.theorem, Theorem::BaConnectivity);
        assert!(matches!(
            byzantine(&Zoo(1), &builders::complete(4), 1),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }
}
