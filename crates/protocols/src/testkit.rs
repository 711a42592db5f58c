//! Test harness shared by the protocol suites (and reused by the workspace
//! integration tests): run a protocol with a chosen fault pattern and check
//! the classic agreement/validity conditions.
//!
//! This is the *achievability* side's counterpart of `flm-core`'s problem
//! specs: deliberately simple, exhaustive over small fault subsets, and
//! driven by the adversary zoo in [`flm_sim::adversary`].

use std::collections::BTreeSet;

use flm_graph::{Graph, NodeId};
use flm_sim::adversary::{strategy, STRATEGY_COUNT};
use flm_sim::device::Device;
use flm_sim::{Decision, Input, Protocol, System, SystemBehavior};

/// Runs `protocol` on `graph` with every node honest and the given inputs.
pub fn run_honest(
    protocol: &dyn Protocol,
    graph: &Graph,
    inputs: &dyn Fn(NodeId) -> Input,
) -> SystemBehavior {
    run_with_faults(protocol, graph, inputs, Vec::new())
}

/// Runs `protocol` with the devices in `faulty` replacing the protocol's
/// devices at their nodes. The horizon is `protocol.horizon(graph)`.
pub fn run_with_faults(
    protocol: &dyn Protocol,
    graph: &Graph,
    inputs: &dyn Fn(NodeId) -> Input,
    faulty: Vec<(NodeId, Box<dyn Device>)>,
) -> SystemBehavior {
    let mut sys = System::new(graph.clone());
    let faulty_ids: BTreeSet<NodeId> = faulty.iter().map(|(v, _)| *v).collect();
    for v in graph.nodes() {
        if !faulty_ids.contains(&v) {
            sys.assign(v, protocol.device(graph, v), inputs(v));
        }
    }
    for (v, d) in faulty {
        sys.assign(v, d, Input::None);
    }
    sys.try_run(protocol.horizon(graph))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// All node subsets of size exactly `k`, for exhaustive fault placement.
fn subsets_of_size(graph: &Graph, k: usize) -> Vec<Vec<NodeId>> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut out = Vec::new();
    let mut pick = Vec::new();
    fn rec(
        nodes: &[NodeId],
        start: usize,
        k: usize,
        pick: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if pick.len() == k {
            out.push(pick.clone());
            return;
        }
        for i in start..nodes.len() {
            pick.push(nodes[i]);
            rec(nodes, i + 1, k, pick, out);
            pick.pop();
        }
    }
    rec(&nodes, 0, k, &mut pick, &mut out);
    out
}

/// The standard Boolean input patterns used across the suites.
pub fn bool_patterns(n: usize) -> Vec<Vec<bool>> {
    let mut pats = vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 2 == 0).collect(),
        (0..n).map(|i| i == 0).collect(),
    ];
    pats.dedup();
    pats
}

/// Result of one Byzantine-agreement condition check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaViolation {
    /// Some correct node never decided.
    NoDecision(NodeId),
    /// Two correct nodes decided differently.
    Disagreement(NodeId, NodeId),
    /// All correct nodes shared an input yet decided otherwise.
    InvalidDecision(NodeId),
}

/// Checks the Byzantine-agreement conditions over the correct nodes of a
/// behavior: everyone decided, everyone agrees, and if all correct inputs
/// coincide the common decision equals them.
pub fn check_byzantine_agreement(
    behavior: &SystemBehavior,
    correct: &BTreeSet<NodeId>,
) -> Result<(), BaViolation> {
    let mut first: Option<(NodeId, bool)> = None;
    for &v in correct {
        let d = match behavior.node(v).decision() {
            Some(Decision::Bool(b)) => b,
            _ => return Err(BaViolation::NoDecision(v)),
        };
        match first {
            None => first = Some((v, d)),
            Some((w, e)) if e != d => return Err(BaViolation::Disagreement(w, v)),
            _ => {}
        }
    }
    let inputs: BTreeSet<Option<bool>> = correct
        .iter()
        .map(|&v| behavior.node(v).input.as_bool())
        .collect();
    if inputs.len() == 1 {
        if let Some(common) = inputs.into_iter().next().flatten() {
            if let Some((v, d)) = first {
                if d != common {
                    return Err(BaViolation::InvalidDecision(v));
                }
            }
        }
    }
    Ok(())
}

/// Exhaustively checks Byzantine agreement for `protocol` on `graph` with
/// exactly `f` faulty nodes: every fault placement × every zoo strategy ×
/// `seeds` random seeds × every standard input pattern.
///
/// # Panics
///
/// Panics with a description of the first violated condition.
pub fn assert_byzantine_agreement(protocol: &dyn Protocol, graph: &Graph, f: usize, seeds: u64) {
    let n = graph.node_count();
    for faulty_set in subsets_of_size(graph, f) {
        let correct: BTreeSet<NodeId> = graph.nodes().filter(|v| !faulty_set.contains(v)).collect();
        for strat in 0..STRATEGY_COUNT {
            for seed in 0..seeds.max(1) {
                for pattern in bool_patterns(n) {
                    let inputs = |v: NodeId| Input::Bool(pattern[v.index()]);
                    let faulty: Vec<(NodeId, Box<dyn Device>)> = faulty_set
                        .iter()
                        .map(|&v| {
                            let honest = || protocol.device(graph, v);
                            (v, strategy(strat, seed ^ u64::from(v.0) << 8, &honest))
                        })
                        .collect();
                    let b = run_with_faults(protocol, graph, &inputs, faulty);
                    if let Err(viol) = check_byzantine_agreement(&b, &correct) {
                        panic!(
                            "{} violated {:?} with faulty={:?} strategy={} seed={} pattern={:?}",
                            protocol.name(),
                            viol,
                            faulty_set,
                            strat,
                            seed,
                            pattern
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_sim::devices::ConstantDevice;

    struct ConstantProto;
    impl Protocol for ConstantProto {
        fn name(&self) -> String {
            "Constant".into()
        }
        fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
            Box::new(ConstantDevice::new())
        }
        fn horizon(&self, _g: &Graph) -> u32 {
            1
        }
    }

    #[test]
    fn subsets_enumerate_combinations() {
        let g = builders::complete(4);
        assert_eq!(subsets_of_size(&g, 0).len(), 1);
        assert_eq!(subsets_of_size(&g, 1).len(), 4);
        assert_eq!(subsets_of_size(&g, 2).len(), 6);
    }

    #[test]
    fn constant_protocol_fails_agreement_on_mixed_inputs() {
        let g = builders::complete(3);
        let b = run_honest(&ConstantProto, &g, &|v| Input::Bool(v.0 == 0));
        let all: BTreeSet<NodeId> = g.nodes().collect();
        assert!(matches!(
            check_byzantine_agreement(&b, &all),
            Err(BaViolation::Disagreement(_, _))
        ));
    }

    #[test]
    fn constant_protocol_passes_on_common_inputs() {
        let g = builders::complete(3);
        let b = run_honest(&ConstantProto, &g, &|_| Input::Bool(true));
        let all: BTreeSet<NodeId> = g.nodes().collect();
        assert_eq!(check_byzantine_agreement(&b, &all), Ok(()));
    }

    #[test]
    fn bool_patterns_cover_extremes() {
        let pats = bool_patterns(4);
        assert!(pats.contains(&vec![false; 4]));
        assert!(pats.contains(&vec![true; 4]));
    }
}
