//! The experiment runners behind every table in EXPERIMENTS.md.

use flm_core::problems::ClockSyncClaim;
use flm_core::refute;
use flm_graph::{adequacy, builders, connectivity, Graph, NodeId};
use flm_protocols::clock_sync::TrivialClockSync;
use flm_protocols::{testkit, Dlpsw, DolevStrong, Eig, PhaseKing, Relayed, WeakViaBa};
use flm_sim::adversary::RandomAdversary;
use flm_sim::clock::TimeFn;
use flm_sim::{Decision, Device, Input, Protocol, SystemBehavior};

use crate::protocols_under_test::{EigUnderTest, NaiveUnderTest};

/// Outcome of one frontier cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontierOutcome {
    /// The graph is inadequate and the refuter produced a verified
    /// counterexample (the named theorem side).
    Refuted {
        /// `"nodes"` or `"connectivity"` — which bound fired.
        bound: &'static str,
    },
    /// The graph is adequate and the protocol passed the sweep.
    ProtocolWins,
}

/// One row of the adequacy-frontier table (experiment E9).
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// Graph description.
    pub graph: String,
    /// Node count.
    pub n: usize,
    /// Vertex connectivity.
    pub kappa: usize,
    /// Fault budget.
    pub f: usize,
    /// Whether the graph is adequate for `f`.
    pub adequate: bool,
    /// What happened.
    pub outcome: FrontierOutcome,
}

/// Runs the E9 frontier sweep. With `exhaustive`, the adequate side runs
/// the full zoo-adversary sweep; otherwise a light honest + random-fault
/// check (for benches).
///
/// # Panics
///
/// Panics if any cell lands on the wrong side of the dichotomy — that *is*
/// the experiment's assertion.
pub fn frontier_rows(exhaustive: bool) -> Vec<FrontierRow> {
    let mut cases: Vec<(String, Graph, usize)> = Vec::new();
    for f in 1..=2usize {
        for n in 3..=(3 * f + 2) {
            cases.push((format!("K{n}"), builders::complete(n), f));
        }
    }
    for n in [4usize, 6] {
        cases.push((format!("C{n}"), builders::cycle(n), 1));
    }
    cases.push(("W6".into(), builders::wheel(6), 1));
    cases.push(("K3,3".into(), builders::complete_bipartite(3, 3), 1));
    cases.push(("Q3".into(), builders::hypercube(3), 1));

    let mut rows = Vec::new();
    for (name, g, f) in cases {
        let n = g.node_count();
        let kappa = connectivity::vertex_connectivity(&g);
        let adequate = adequacy::is_adequate(&g, f);
        let complete = g.is_complete();
        let outcome = if adequate {
            // The protocol must genuinely solve BA here.
            let proto: Box<dyn Protocol> = if complete {
                Box::new(EigUnderTest { f })
            } else {
                Box::new(Relayed::new(Eig::new(f), f))
            };
            if exhaustive {
                testkit::assert_byzantine_agreement(proto.as_ref(), &g, f, 2);
            } else {
                let b = testkit::run_honest(proto.as_ref(), &g, &|v: NodeId| {
                    Input::Bool(v.0.is_multiple_of(2))
                });
                let first = b.node(NodeId(0)).decision();
                assert!(
                    g.nodes().all(|v| b.node(v).decision() == first) && first.is_some(),
                    "{name}: protocol failed honest run on an adequate graph"
                );
            }
            FrontierOutcome::ProtocolWins
        } else {
            // Refute: the best available candidate that runs on this graph.
            let proto: Box<dyn Protocol> = if complete {
                Box::new(EigUnderTest { f })
            } else {
                Box::new(NaiveUnderTest)
            };
            let cert = refute::byzantine(proto.as_ref(), &g, f)
                .unwrap_or_else(|e| panic!("{name} (f={f}) should be refutable: {e}"));
            cert.verify(proto.as_ref())
                .unwrap_or_else(|e| panic!("{name} certificate: {e}"));
            let bound = match cert.theorem {
                flm_core::certificate::Theorem::BaNodes => "nodes",
                _ => "connectivity",
            };
            FrontierOutcome::Refuted { bound }
        };
        rows.push(FrontierRow {
            graph: name,
            n,
            kappa,
            f,
            adequate,
            outcome,
        });
    }
    rows
}

/// Total payload bytes sent over all edges of a behavior.
fn total_message_bytes(b: &SystemBehavior) -> usize {
    b.edges()
        .values()
        .flat_map(|trace| trace.iter().flatten())
        .map(|m| m.len())
        .sum()
}

/// One row of the protocol-cost table (experiment E11).
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Protocol name.
    pub protocol: String,
    /// Graph description.
    pub graph: String,
    /// Fault budget.
    pub f: usize,
    /// Ticks to decision (the protocol's horizon).
    pub rounds: u32,
    /// Total bytes on the wire in an honest mixed-input run.
    pub bytes: usize,
}

/// Runs the E11 protocol-cost comparison.
pub fn protocol_cost_rows() -> Vec<CostRow> {
    let mut rows = Vec::new();
    let mut push = |proto: &dyn Protocol, graph_name: &str, g: &Graph, f: usize| {
        let b = testkit::run_honest(proto, g, &|v: NodeId| Input::Bool(v.0.is_multiple_of(2)));
        rows.push(CostRow {
            protocol: proto.name(),
            graph: graph_name.into(),
            f,
            rounds: proto.horizon(g),
            bytes: total_message_bytes(&b),
        });
    };
    push(&Eig::new(1), "K4", &builders::complete(4), 1);
    push(&Eig::new(2), "K7", &builders::complete(7), 2);
    push(&PhaseKing::new(1), "K5", &builders::complete(5), 1);
    push(&PhaseKing::new(2), "K9", &builders::complete(9), 2);
    push(&DolevStrong::new(1, 7), "K3", &builders::triangle(), 1);
    push(&DolevStrong::new(2, 7), "K5", &builders::complete(5), 2);
    push(&Dlpsw::new(1, 5), "K4", &builders::complete(4), 1);
    push(&WeakViaBa::new(1), "K4", &builders::complete(4), 1);
    // Relay overhead: same logical protocol, sparse graph.
    let mut links = Vec::new();
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            if (u, v) != (0, 4) {
                links.push((u, v));
            }
        }
    }
    let sparse = builders::from_links(5, &links).expect("valid links");
    push(&Relayed::new(Eig::new(1), 1), "K5−e", &sparse, 1);
    push(&Eig::new(1), "K5", &builders::complete(5), 1);
    rows
}

/// One row of the DLPSW convergence table (supports E6/E11): spread of the
/// correct nodes' values after each round, under a random Byzantine node.
#[derive(Debug, Clone)]
pub struct ConvergenceRow {
    /// Rounds run.
    pub rounds: u32,
    /// Final spread of correct decisions.
    pub spread: f64,
    /// The guaranteed bound `Δ/2^rounds`.
    pub bound: f64,
}

/// Runs DLPSW on K4 with one random adversary for 1..=`max_rounds` rounds.
pub fn approx_convergence_rows(max_rounds: u32, seed: u64) -> Vec<ConvergenceRow> {
    let g = builders::complete(4);
    (1..=max_rounds)
        .map(|rounds| {
            let proto = Dlpsw::new(1, rounds);
            let adv: Box<dyn Device> = Box::new(RandomAdversary::new(seed));
            let b = testkit::run_with_faults(
                &proto,
                &g,
                &|v: NodeId| Input::Real(f64::from(v.0)),
                vec![(NodeId(3), adv)],
            );
            let ds: Vec<f64> = (0..3)
                .filter_map(|i| match b.node(NodeId(i)).decision() {
                    Some(Decision::Real(r)) => Some(r),
                    _ => None,
                })
                .collect();
            let spread = ds.iter().cloned().fold(f64::MIN, f64::max)
                - ds.iter().cloned().fold(f64::MAX, f64::min);
            ConvergenceRow {
                rounds,
                spread,
                bound: 2.0 / f64::from(1u32 << rounds),
            }
        })
        .collect()
}

/// One row of the covering-size table: how large the refutation apparatus
/// is as a function of problem parameters.
#[derive(Debug, Clone)]
pub struct ConstructionRow {
    /// Which construction.
    pub construction: String,
    /// Driving parameter, rendered.
    pub parameter: String,
    /// Cover node count.
    pub cover_nodes: usize,
    /// Chain length (behaviors constructed).
    pub chain: usize,
}

/// Measures the (ε,δ,γ) ring size as γ/(δ−ε) grows (experiment E6).
pub fn eps_ring_rows() -> Vec<ConstructionRow> {
    let proto = crate::protocols_under_test::TableUnderTest { seed: 5 };
    [
        (0.5, 1.0, 0.5),
        (0.5, 1.0, 2.0),
        (0.25, 1.0, 4.0),
        (0.1, 0.2, 4.0),
    ]
    .into_iter()
    .map(|(eps, delta, gamma)| {
        let cert = refute::eps_delta_gamma(&proto, &builders::triangle(), 1, eps, delta, gamma)
            .expect("ε < δ is refutable");
        let ring = cert
            .covering
            .split('(')
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(0);
        ConstructionRow {
            construction: "(ε,δ,γ) ring".into(),
            parameter: format!("ε={eps} δ={delta} γ={gamma}"),
            cover_nodes: ring,
            chain: cert.chain.len(),
        }
    })
    .collect()
}

/// Measures the clock-sync ring size as α shrinks (experiments E7/E8).
pub fn clock_ring_rows() -> Vec<ConstructionRow> {
    let proto = TrivialClockSync {
        l: TimeFn::identity(),
    };
    [4.0, 2.0, 1.0, 0.5]
        .into_iter()
        .map(|alpha| {
            let claim = ClockSyncClaim {
                p: TimeFn::identity(),
                q: TimeFn::linear(2.0),
                l: TimeFn::identity(),
                u: TimeFn::affine(2.0, 6.0),
                alpha,
                t_prime: 1.0,
            };
            let cert = refute::clock_sync(&proto, &builders::triangle(), 1, &claim)
                .expect("α > 0 is refutable");
            ConstructionRow {
                construction: "clock ring".into(),
                parameter: format!("α={alpha}"),
                cover_nodes: cert.k + 2,
                chain: cert.scenario + 1,
            }
        })
        .collect()
}

/// Refutes a weak-agreement protocol and reports the ring size chosen from
/// its decision time (experiment E3).
pub fn weak_ring_row() -> ConstructionRow {
    let proto = WeakAsIs(WeakViaBa::new(1));
    let cert = refute::weak_agreement(&proto, &builders::triangle(), 1).expect("refutable");
    let ring = cert
        .covering
        .split('-')
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(0);
    ConstructionRow {
        construction: "weak-agreement ring".into(),
        parameter: format!("t′ from {}", proto.name()),
        cover_nodes: ring,
        chain: cert.chain.len(),
    }
}

/// Ring sizes for the general-case weak/firing-squad refuters (both
/// bounds): the number of graph copies in the crossed cyclic cover.
pub fn general_ring_rows() -> Vec<ConstructionRow> {
    use flm_protocols::FiringSquadViaBa;
    let mut rows = Vec::new();
    // Weak agreement, node bound on K5 (f = 2).
    let weak5 = WeakAsIs(WeakViaBa::new(2));
    let cert = refute::weak_any(&weak5, &builders::complete(5), 2).expect("refutable");
    rows.push(ConstructionRow {
        construction: "weak general crossed cover (K5, f=2)".into(),
        parameter: format!("t′ from {}", weak5.name()),
        cover_nodes: cert
            .covering
            .split("copies")
            .next()
            .and_then(|s| s.split(": ").nth(1))
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map(|m| m * 5)
            .unwrap_or(0),
        chain: cert.chain.len(),
    });
    // Weak agreement, connectivity bound on C6 (f = 1).
    let naive = crate::protocols_under_test::NaiveUnderTest;
    let cert = refute::weak_any(&naive, &builders::cycle(6), 1).expect("refutable");
    rows.push(ConstructionRow {
        construction: "weak connectivity crossed cover (C6, f=1)".into(),
        parameter: "t′ from NaiveMajority".into(),
        cover_nodes: cert
            .covering
            .split("copies")
            .next()
            .and_then(|s| s.split(": ").nth(1))
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map(|m| m * 6)
            .unwrap_or(0),
        chain: cert.chain.len(),
    });
    // Firing squad, node bound on K5 (f = 2).
    struct FsAsIs(FiringSquadViaBa);
    impl Protocol for FsAsIs {
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
    let fs = FsAsIs(FiringSquadViaBa::new(2));
    let cert = refute::firing_squad_any(&fs, &builders::complete(5), 2).expect("refutable");
    rows.push(ConstructionRow {
        construction: "firing-squad general crossed cover (K5, f=2)".into(),
        parameter: format!("t_fire from {}", fs.name()),
        cover_nodes: cert
            .covering
            .split("copies")
            .next()
            .and_then(|s| s.split(": ").nth(1))
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map(|m| m * 5)
            .unwrap_or(0),
        chain: cert.chain.len(),
    });
    rows
}

/// Adapter making `WeakViaBa` a `dyn`-usable protocol here.
struct WeakAsIs(WeakViaBa);

impl Protocol for WeakAsIs {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_rows_cover_both_sides() {
        let rows = frontier_rows(false);
        assert!(rows.iter().any(|r| r.adequate));
        assert!(rows.iter().any(|r| !r.adequate));
        for r in &rows {
            match (&r.outcome, r.adequate) {
                (FrontierOutcome::ProtocolWins, true) => {}
                (FrontierOutcome::Refuted { .. }, false) => {}
                other => panic!("mismatched row {r:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn protocol_costs_are_positive_and_eig_explodes_with_f() {
        let rows = protocol_cost_rows();
        let eig1 = rows.iter().find(|r| r.protocol == "EIG(f=1)").unwrap();
        let eig2 = rows.iter().find(|r| r.protocol == "EIG(f=2)").unwrap();
        assert!(eig2.bytes > 4 * eig1.bytes, "EIG message growth is steep");
        for r in &rows {
            assert!(r.bytes > 0, "{r:?}");
        }
    }

    #[test]
    fn convergence_halves_each_round() {
        let rows = approx_convergence_rows(5, 3);
        for r in &rows {
            assert!(r.spread <= r.bound + 1e-12, "{r:?}");
        }
    }

    #[test]
    fn ring_sizes_grow_with_tightness() {
        let rows = clock_ring_rows();
        assert!(rows
            .windows(2)
            .all(|w| w[0].cover_nodes <= w[1].cover_nodes));
        let eps_rows = eps_ring_rows();
        assert!(!eps_rows.is_empty());
        let weak = weak_ring_row();
        assert!(weak.cover_nodes >= 12);
    }
}
