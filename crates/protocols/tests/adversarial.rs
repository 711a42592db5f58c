//! Cross-protocol adversarial integration sweeps: heavier-weight matrices
//! than the per-module unit tests, covering f = 2 settings and the relay
//! overlay on denser sparse graphs.

use flm_graph::{builders, connectivity, Graph, NodeId};
use flm_protocols::{testkit, Dlpsw, DolevStrong, Eig, PhaseKing, Relayed, WeakViaBa};
use flm_sim::adversary::{strategy, STRATEGY_COUNT};
use flm_sim::{Decision, Input, Protocol};
use std::collections::BTreeSet;

/// K7 minus a perfect-ish matching (3 edges): 5-connected but not complete —
/// the minimal interesting home for a relayed f = 2 protocol.
fn k7_minus_matching() -> Graph {
    let mut links = Vec::new();
    let removed = [(0u32, 1u32), (2, 3), (4, 5)];
    for u in 0..7u32 {
        for v in (u + 1)..7 {
            if !removed.contains(&(u, v)) {
                links.push((u, v));
            }
        }
    }
    builders::from_links(7, &links).expect("valid links")
}

#[test]
fn relayed_eig_f2_on_5_connected_graph() {
    let g = k7_minus_matching();
    assert_eq!(connectivity::vertex_connectivity(&g), 5);
    let proto = Relayed::new(Eig::new(2), 2);
    // Honest sanity, then a light adversarial slice (full exhaustion of
    // C(7,2)×strategies×patterns is covered at f=1 elsewhere).
    let b = testkit::run_honest(&proto, &g, &|v: NodeId| Input::Bool(v.0 < 3));
    let first = b.node(NodeId(0)).decision();
    assert!(matches!(first, Some(Decision::Bool(_))));
    for v in g.nodes() {
        assert_eq!(b.node(v).decision(), first);
    }
    for (faulty_pair, strat) in [([0u32, 3u32], 2usize), ([1, 4], 3), ([5, 6], 0)] {
        let correct: BTreeSet<NodeId> = g.nodes().filter(|v| !faulty_pair.contains(&v.0)).collect();
        let faulty = faulty_pair
            .iter()
            .map(|&v| {
                let honest = || proto.device(&g, NodeId(v));
                (NodeId(v), strategy(strat, u64::from(v), &honest))
            })
            .collect();
        let b = testkit::run_with_faults(&proto, &g, &|v: NodeId| Input::Bool(v.0 < 3), faulty);
        testkit::check_byzantine_agreement(&b, &correct)
            .unwrap_or_else(|e| panic!("faulty {faulty_pair:?} strat {strat}: {e:?}"));
    }
}

#[test]
fn protocol_matrix_on_minimal_graphs() {
    // Every (protocol, minimal adequate graph) pair against the full zoo.
    testkit::assert_byzantine_agreement(&Eig::new(1), &builders::complete(4), 1, 3);
    testkit::assert_byzantine_agreement(&PhaseKing::new(1), &builders::complete(5), 1, 3);
    testkit::assert_byzantine_agreement(&DolevStrong::new(1, 99), &builders::triangle(), 1, 3);
}

#[test]
fn dlpsw_converges_under_two_faults_on_k7() {
    let g = builders::complete(7);
    let rounds = 5;
    let proto = Dlpsw::new(2, rounds);
    let inputs = |v: NodeId| Input::Real(f64::from(v.0)); // correct spread ≤ 6
    for strat in 0..STRATEGY_COUNT {
        for (f1, f2) in [(0u32, 6u32), (2, 3)] {
            let correct: BTreeSet<NodeId> = g.nodes().filter(|v| v.0 != f1 && v.0 != f2).collect();
            let faulty = [f1, f2]
                .iter()
                .map(|&v| {
                    let honest = || proto.device(&g, NodeId(v));
                    (NodeId(v), strategy(strat, u64::from(v) * 7 + 1, &honest))
                })
                .collect();
            let b = testkit::run_with_faults(&proto, &g, &inputs, faulty);
            let ds: Vec<f64> = correct
                .iter()
                .map(|&v| match b.node(v).decision() {
                    Some(Decision::Real(r)) => r,
                    other => panic!("{v} decided {other:?}"),
                })
                .collect();
            let spread = ds.iter().cloned().fold(f64::MIN, f64::max)
                - ds.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                spread <= 6.0 / 2f64.powi(rounds as i32) + 1e-9,
                "strat {strat} faulty ({f1},{f2}): spread {spread}"
            );
        }
    }
}

#[test]
fn eig_decision_is_simultaneous_across_correct_nodes() {
    // All correct nodes decide at the same tick (f+1) — needed by the
    // firing-squad reduction's simultaneity.
    let g = builders::complete(4);
    let proto = Eig::new(1);
    for pattern in testkit::bool_patterns(4) {
        let b = testkit::run_honest(&proto, &g, &|v: NodeId| Input::Bool(pattern[v.index()]));
        for v in g.nodes() {
            assert_eq!(b.node(v).decision_tick(), Some(flm_sim::Tick(2)));
        }
    }
}

/// One faulty node per run: either a zoo strategy or the protocol's own
/// honest device wrapped by a [`flm_sim::FaultPlan`] injector (drop,
/// corrupt, equivocate, delay, or all four composed — optionally stacked on
/// a zoo adversary). On adequate graphs the surviving correct nodes must
/// still reach agreement and validity under every combination.
#[test]
fn fault_injector_matrix_preserves_agreement_on_adequate_graphs() {
    use flm_sim::FaultPlan;

    let cases: Vec<(Box<dyn Protocol>, Graph)> = vec![
        (Box::new(Eig::new(1)), builders::complete(4)),
        (Box::new(WeakViaBa::new(1)), builders::complete(4)),
        (Box::new(PhaseKing::new(1)), builders::complete(5)),
        (Box::new(DolevStrong::new(1, 99)), builders::triangle()),
        (
            Box::new(Relayed::new(Eig::new(1), 1)),
            builders::complete(4),
        ),
    ];
    let victim = NodeId(0);
    for (proto, g) in &cases {
        let horizon = proto.horizon(g);
        let correct: BTreeSet<NodeId> = g.nodes().filter(|&v| v != victim).collect();
        let inputs = |v: NodeId| Input::Bool(v.0.is_multiple_of(2));
        let peers: Vec<NodeId> = g.neighbors(victim).collect();

        // Every single-action plan, every all-actions composite, and the
        // composite stacked on each zoo adversary.
        let mut plans: Vec<(String, FaultPlan)> = Vec::new();
        let mut drops = FaultPlan::new(11);
        let mut corrupts = FaultPlan::new(12);
        let mut delays = FaultPlan::new(13);
        for &w in &peers {
            drops = drops.drop_edge(victim, w, 0, horizon);
            corrupts = corrupts.corrupt_edge(victim, w, 0, horizon);
            delays = delays.delay_edge(victim, w, 0, horizon, 2);
        }
        plans.push(("drop".into(), drops));
        plans.push(("corrupt".into(), corrupts));
        plans.push(("delay".into(), delays));
        plans.push((
            "equivocate".into(),
            FaultPlan::new(14).equivocate(victim, 0, horizon),
        ));
        let mut all = FaultPlan::new(15).equivocate(victim, 0, 1);
        for (i, &w) in peers.iter().enumerate() {
            all = match i % 3 {
                0 => all.drop_edge(victim, w, 1, 2),
                1 => all.corrupt_edge(victim, w, 2, horizon),
                _ => all.delay_edge(victim, w, 2, horizon, 1),
            };
        }
        plans.push(("composite".into(), all));

        // Fan the plan × strategy matrix across the worker pool: each combo
        // builds its own devices and system, so runs share nothing but the
        // protocol factory. A failing combo panics with the same message as
        // the sequential loop, and flm-par re-raises the lowest-indexed one.
        let mut combos: Vec<(String, FaultPlan, usize)> = Vec::new();
        for (label, plan) in &plans {
            assert_eq!(
                plan.faulty_nodes().into_iter().collect::<Vec<_>>(),
                vec![victim]
            );
            for strat in 0..=STRATEGY_COUNT {
                combos.push((label.clone(), plan.clone(), strat));
            }
        }
        flm_par::par_map(combos, |(label, plan, strat)| {
            // strat == STRATEGY_COUNT wraps the honest device; the rest
            // stack the injector on a zoo adversary.
            let inner = if strat == STRATEGY_COUNT {
                proto.device(g, victim)
            } else {
                let honest = || proto.device(g, victim);
                strategy(strat, 5 + strat as u64, &honest)
            };
            let faulty = vec![(victim, plan.wrap(victim, inner))];
            let b = testkit::run_with_faults(proto.as_ref(), g, &inputs, faulty);
            testkit::check_byzantine_agreement(&b, &correct)
                .unwrap_or_else(|e| panic!("{} plan {label} strat {strat}: {e:?}", proto.name()));
        });
    }
}
