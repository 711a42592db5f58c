//! Property-based tests of the refuters: the theorems quantify over *all*
//! devices, so we approximate "for all" with families of deterministic
//! pseudo-random protocols ([`TableDevice`]) and check that every one is
//! refuted, with a certificate that survives independent re-execution.

use flm_core::refute::{self, RefuteError};
use flm_graph::{builders, Graph, NodeId};
use flm_prop::Rng;
use flm_sim::devices::TableDevice;
use flm_sim::{Device, Protocol};

/// A pseudo-random deterministic protocol: seed selects the device family,
/// `per_node` whether nodes run distinct tables.
#[derive(Debug, Clone)]
struct RandomProtocol {
    seed: u64,
    per_node: bool,
    decide_tick: u32,
}

impl Protocol for RandomProtocol {
    fn name(&self) -> String {
        format!("Random(seed={}, per_node={})", self.seed, self.per_node)
    }
    fn device(&self, _g: &Graph, v: NodeId) -> Box<dyn Device> {
        let seed = if self.per_node {
            self.seed ^ (u64::from(v.0) << 32)
        } else {
            self.seed
        };
        Box::new(TableDevice::new(seed, self.decide_tick))
    }
    fn horizon(&self, _g: &Graph) -> u32 {
        self.decide_tick + 2
    }
}

fn arb_protocol(rng: &mut Rng) -> RandomProtocol {
    RandomProtocol {
        seed: rng.u64(),
        per_node: rng.bool(),
        decide_tick: rng.range_u64(1..5) as u32,
    }
}

#[test]
fn every_random_protocol_falls_on_the_triangle() {
    flm_prop::cases_par(48, 0x2EF1, |rng| {
        let proto = arb_protocol(rng);
        let cert = refute::ba_nodes(&proto, &builders::triangle(), 1)
            .expect("inadequate graphs always yield a certificate");
        assert!(cert.chain.iter().all(|l| l.scenario_matched));
        assert!(cert.verify(&proto).is_ok());
    });
}

#[test]
fn every_random_protocol_falls_on_k5_with_f2() {
    flm_prop::cases_par(48, 0x2EF2, |rng| {
        let proto = arb_protocol(rng);
        let cert =
            refute::ba_nodes(&proto, &builders::complete(5), 2).expect("5 ≤ 3·2 is inadequate");
        assert!(cert.verify(&proto).is_ok());
    });
}

#[test]
fn every_random_protocol_falls_on_thin_graphs() {
    flm_prop::cases_par(48, 0x2EF3, |rng| {
        let proto = arb_protocol(rng);
        let n = rng.usize(4..8);
        let g = builders::cycle(n);
        let cert = refute::ba_connectivity(&proto, &g, 1).expect("cycles have κ = 2 ≤ 2f");
        assert!(cert.verify(&proto).is_ok());
    });
}

#[test]
fn simple_approx_falls_for_random_protocols() {
    flm_prop::cases_par(48, 0x2EF4, |rng| {
        // TableDevice decides Booleans; treat as degenerate reals? No — the
        // simple-approx conditions demand real decisions, so the refuter
        // reports a termination violation at worst. Either way: refuted.
        let proto = arb_protocol(rng);
        let cert = refute::simple_approx(&proto, &builders::triangle(), 1).expect("refuted");
        assert!(cert.verify(&proto).is_ok());
    });
}

/// Every chain stops at its first violation: the violating link is the
/// certificate's last, and the certificate still verifies.
#[test]
fn chains_end_at_their_violating_link() {
    flm_prop::cases_par(48, 0x2EF9, |rng| {
        let proto = arb_protocol(rng);
        let n = rng.usize(4..8);
        let certs = [
            refute::ba_nodes(&proto, &builders::triangle(), 1),
            refute::ba_nodes(&proto, &builders::complete(5), 2),
            refute::ba_connectivity(&proto, &builders::cycle(n), 1),
            refute::simple_approx(&proto, &builders::triangle(), 1),
        ];
        for cert in certs {
            let cert = cert.expect("inadequate graphs always yield a certificate");
            assert_eq!(
                cert.chain.len(),
                cert.violation.link + 1,
                "{}",
                cert.theorem
            );
            assert!(cert.verify(&proto).is_ok(), "{}", cert.theorem);
        }
    });
}

#[test]
fn refuters_never_fire_on_adequate_graphs() {
    flm_prop::cases_par(48, 0x2EF5, |rng| {
        let proto = arb_protocol(rng);
        let f = rng.usize(1..3);
        let g = builders::complete(3 * f + 1);
        let declined = matches!(
            refute::ba_nodes(&proto, &g, f),
            Err(RefuteError::GraphIsAdequate { .. })
        );
        assert!(declined);
    });
}

#[test]
fn certificates_are_deterministic() {
    flm_prop::cases_par(48, 0x2EF6, |rng| {
        let proto = arb_protocol(rng);
        let a = refute::ba_nodes(&proto, &builders::triangle(), 1).unwrap();
        let b = refute::ba_nodes(&proto, &builders::triangle(), 1).unwrap();
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.chain.len(), b.chain.len());
        for (la, lb) in a.chain.iter().zip(&b.chain) {
            assert_eq!(&la.decisions, &lb.decisions);
        }
    });
}

/// A protocol whose devices differ between instantiations — breaking the
/// determinism the model demands. The refuter must detect it instead of
/// producing a bogus certificate.
struct FlipFlop {
    counter: std::sync::atomic::AtomicU64,
}

impl Protocol for FlipFlop {
    fn name(&self) -> String {
        "FlipFlop".into()
    }
    fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
        let c = self
            .counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Box::new(TableDevice::new(c, 2))
    }
    fn horizon(&self, _g: &Graph) -> u32 {
        4
    }
}

#[test]
fn nondeterministic_protocols_are_detected() {
    let proto = FlipFlop {
        counter: std::sync::atomic::AtomicU64::new(0),
    };
    match refute::ba_nodes(&proto, &builders::triangle(), 1) {
        Err(RefuteError::ModelViolation { reason }) => {
            assert!(reason.contains("diverged"), "{reason}");
        }
        other => panic!("expected a model violation, got {other:?}"),
    }
}

#[test]
fn weak_refuters_fall_for_random_protocols() {
    flm_prop::cases_par(24, 0x2EF7, |rng| {
        // Triangle core, direct general, and direct connectivity.
        let proto = arb_protocol(rng);
        let cert = refute::weak_agreement(&proto, &builders::triangle(), 1).unwrap();
        assert!(cert.verify(&proto).is_ok());
        let cert = refute::weak_any(&proto, &builders::complete(5), 2).unwrap();
        assert!(cert.verify(&proto).is_ok());
        let cert = refute::weak_any(&proto, &builders::cycle(5), 1).unwrap();
        assert!(cert.verify(&proto).is_ok());
    });
}

#[test]
fn firing_squad_refuters_fall_for_random_protocols() {
    flm_prop::cases_par(24, 0x2EF8, |rng| {
        // TableDevice never fires, so the stimulus validity pin catches it
        // immediately — still a certificate, still verifiable.
        let proto = arb_protocol(rng);
        let cert = refute::firing_squad_any(&proto, &builders::triangle(), 1).unwrap();
        assert!(cert.verify(&proto).is_ok());
        let cert = refute::firing_squad_any(&proto, &builders::cycle(4), 1).unwrap();
        assert!(cert.verify(&proto).is_ok());
    });
}
