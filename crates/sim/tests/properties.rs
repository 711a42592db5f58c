//! Property-based tests for the simulator: the structural guarantees every
//! refutation rests on, quantified over randomized devices and graphs.

use std::collections::BTreeSet;

use flm_graph::covering::Covering;
use flm_graph::{builders, Graph, NodeId};
use flm_sim::behavior::EdgeBehavior;
use flm_sim::devices::TableDevice;
use flm_sim::replay::ReplayDevice;
use flm_sim::{Input, System};

fn build_table_system(g: &flm_graph::Graph, seed: u64, inputs_mask: u32) -> System {
    let mut sys = System::new(g.clone());
    for v in g.nodes() {
        sys.assign(
            v,
            Box::new(TableDevice::new(seed ^ u64::from(v.0), 4)),
            Input::Bool((inputs_mask >> (v.0 % 31)) & 1 == 1),
        );
    }
    sys
}

/// "A system has exactly one behavior": running twice gives identical
/// node and edge traces.
#[test]
fn runs_are_deterministic() {
    flm_prop::cases(48, 0x51A1, |rng| {
        let n = rng.usize(3..8);
        let extra = rng.usize(0..5);
        let gseed = rng.range_u64(0..200);
        let seed = rng.u64();
        let mask = rng.u32();
        let g = builders::random_connected(n, extra, gseed);
        let a = build_table_system(&g, seed, mask).run(6);
        let b = build_table_system(&g, seed, mask).run(6);
        for v in g.nodes() {
            assert_eq!(a.node(v), b.node(v));
        }
        assert_eq!(a.edges(), b.edges());
    });
}

/// Installing devices along a covering's lifts makes each fiber node's
/// behavior depend only on its base node — in the cyclic cover with
/// *uniform inputs*, all nodes of a fiber behave identically.
#[test]
fn fibers_behave_identically_under_uniform_inputs() {
    flm_prop::cases(48, 0x51A2, |rng| {
        let m = rng.usize(2..6);
        let seed = rng.u64();
        let input = rng.bool();
        let cov = Covering::cyclic_cover(3, m).unwrap();
        let mut sys = System::new(cov.cover().clone());
        for s in cov.cover().nodes() {
            // Device depends only on the *base* node identity.
            let dev = TableDevice::new(seed ^ u64::from(cov.project(s).0), 4);
            sys.assign_lifted(&cov, s, Box::new(dev), Input::Bool(input))
                .unwrap();
        }
        let b = sys.run(6);
        for base in cov.base().nodes() {
            let fiber = cov.fiber(base);
            let first = b.node(fiber[0]);
            for &s in &fiber[1..] {
                assert_eq!(first, b.node(s), "fiber of {base} diverged");
            }
        }
    });
}

/// The Fault axiom: a replay device reproduces arbitrary traces exactly,
/// in any system.
#[test]
fn replay_reproduces_arbitrary_traces() {
    flm_prop::cases(48, 0x51A3, |rng| {
        let n = rng.usize(3..7);
        let gseed = rng.range_u64(0..100);
        let seed = rng.u64();
        let g = builders::random_connected(n, 3, gseed);
        let node = NodeId((seed % n as u64) as u32);
        let horizon = 5u32;
        let traces: Vec<EdgeBehavior> = (0..g.degree(node))
            .map(|p| {
                (0..horizon as usize)
                    .map(|t| {
                        let h = flm_sim::auth::mix64(seed ^ ((p as u64) << 8) ^ t as u64);
                        (!h.is_multiple_of(4)).then(|| vec![h as u8].into())
                    })
                    .collect()
            })
            .collect();
        let mut sys = System::new(g.clone());
        sys.assign(
            node,
            Box::new(ReplayDevice::masquerade(traces.clone())),
            Input::None,
        );
        for v in g.nodes() {
            if v != node {
                sys.assign(
                    v,
                    Box::new(TableDevice::new(seed ^ u64::from(v.0), 3)),
                    Input::Bool(v.0 % 2 == 0),
                );
            }
        }
        let b = sys.run(horizon);
        for (p, w) in g.neighbors(node).enumerate() {
            assert_eq!(b.edge(node, w), &traces[p]);
        }
    });
}

/// Scenario extraction is self-consistent: the scenario of the full node
/// set contains every edge as internal and nothing as border, and
/// matching a scenario against itself under the identity succeeds.
#[test]
fn scenario_extraction_is_consistent() {
    flm_prop::cases(48, 0x51A4, |rng| {
        let n = rng.usize(3..7);
        let gseed = rng.range_u64(0..100);
        let seed = rng.u64();
        let mask = rng.u32();
        let g = builders::random_connected(n, 2, gseed);
        let b = build_table_system(&g, seed, mask).run(5);
        let all: BTreeSet<NodeId> = g.nodes().collect();
        let full = b.scenario(&all);
        assert!(full.border.is_empty());
        assert_eq!(full.internal.len(), 2 * g.link_count());
        let identity: std::collections::BTreeMap<NodeId, NodeId> =
            all.iter().map(|&v| (v, v)).collect();
        assert!(full.matches(&full, &identity).is_ok());

        // A proper subset has a non-empty border on a connected graph.
        let u: BTreeSet<NodeId> = [NodeId(0)].into();
        let part = b.scenario(&u);
        assert_eq!(part.border.len(), g.degree(NodeId(0)));
    });
}

/// Decisions are a function of the behavior: two nodes with identical
/// snapshot traces decide identically (read via NodeBehavior, never via
/// live devices).
#[test]
fn decisions_are_behavior_functions() {
    flm_prop::cases(48, 0x51A5, |rng| {
        let n_half = rng.usize(2..5);
        let input = rng.bool();
        // Symmetric ring with identical (node-id-agnostic) devices and
        // inputs: all nodes have identical behaviors, hence identical
        // decisions.
        let g = builders::cycle(2 * n_half);
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(
                v,
                Box::new(flm_sim::devices::NaiveMajorityDevice::new()),
                Input::Bool(input),
            );
        }
        let b = sys.run(5);
        let first = b.node(NodeId(0));
        for v in g.nodes() {
            assert_eq!(&first.snaps, &b.node(v).snaps);
            assert_eq!(first.decision(), b.node(v).decision());
        }
    });
}

/// The run kernel against `System::run_reference`, the map-per-delivery
/// loop kept as its differential oracle: identical edge traces, node
/// behaviors and horizon on graphs past 64 directed edges, on lifted
/// crossed covers (whose port wiring is not the identity), and at horizons
/// 0, 1 and beyond.
#[test]
fn kernel_matches_reference_loop() {
    flm_prop::cases(24, 0x51A6, |rng| {
        let seed = rng.u64();
        let mask = rng.u32();
        let k = rng.usize(4..7);
        let base = builders::complete(k);
        let x: BTreeSet<NodeId> = [NodeId(0)].into();
        let y: BTreeSet<NodeId> = (1..=rng.usize(1..k - 1) as u32).map(NodeId).collect();
        let cover = match rng.usize(0..4) {
            0 => None,
            1 => Some(Covering::double_cover_crossing(&base, &x, &y).unwrap()),
            _ => Some(Covering::cyclic_crossed_cover(&base, &x, &y, rng.usize(2..5)).unwrap()),
        };
        let g: Graph = match (&cover, rng.usize(0..2)) {
            (Some(cov), _) => cov.cover().clone(),
            (None, 0) => builders::complete(9),
            (None, _) => builders::random_regular(rng.usize(17..25) & !1, 5, seed % 64).unwrap(),
        };
        let build = || {
            let mut sys = System::new(g.clone());
            for v in g.nodes() {
                let input = Input::Bool((mask >> (v.0 % 31)) & 1 == 1);
                match &cover {
                    Some(cov) => {
                        let dev = TableDevice::new(seed ^ u64::from(cov.project(v).0), 3);
                        sys.assign_lifted(cov, v, Box::new(dev), input).unwrap();
                    }
                    None => sys.assign(
                        v,
                        Box::new(TableDevice::new(seed ^ u64::from(v.0), 3)),
                        input,
                    ),
                }
            }
            sys
        };
        for horizon in [0, 1, rng.usize(2..9) as u32] {
            let kernel = build().try_run(horizon).unwrap();
            let reference = build().run_reference(horizon).unwrap();
            assert_eq!(kernel.horizon(), reference.horizon());
            assert_eq!(kernel.edges(), reference.edges(), "horizon {horizon}");
            for v in g.nodes() {
                assert_eq!(
                    kernel.node(v),
                    reference.node(v),
                    "{v} at horizon {horizon}"
                );
            }
            assert!(kernel.misbehavior().is_empty());
        }
    });
}

/// The covers and graphs [`kernel_matches_reference_loop`] draws reach the
/// shapes it claims: more than 64 directed edges, and non-identity wiring.
#[test]
fn kernel_oracle_shapes_are_reached() {
    assert!(builders::complete(9).directed_edges().len() > 64);
    assert!(
        builders::random_regular(18, 5, 0)
            .unwrap()
            .directed_edges()
            .len()
            > 64
    );
    let base = builders::complete(6);
    let x: BTreeSet<NodeId> = [NodeId(0)].into();
    let y: BTreeSet<NodeId> = [NodeId(1), NodeId(2)].into();
    let cov = Covering::cyclic_crossed_cover(&base, &x, &y, 4).unwrap();
    assert!(cov.cover().directed_edges().len() > 64);
    let rewired = cov.cover().nodes().any(|s| {
        let lifted: Vec<NodeId> = base
            .neighbors(cov.project(s))
            .map(|t| cov.lift_neighbor(s, t))
            .collect();
        !lifted.iter().copied().eq(cov.cover().neighbors(s))
    });
    assert!(
        rewired,
        "a crossed cover must wire some port off the identity"
    );
}
