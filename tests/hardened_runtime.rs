//! Acceptance tests for the hardened execution substrate: a hostile device
//! — one that panics inside `step`, breaks the port discipline, or floods a
//! port — must never abort a refuter. When the fault budget `f` permits, the
//! degradation policy reclassifies the node as Byzantine-faulty and the
//! refuter still emits a machine-checkable certificate carrying the
//! [`flm_sim::DeviceMisbehavior`] evidence; when it cannot, the refuter
//! returns the structured [`RefuteError::Misbehavior`] diagnostic instead.

use flm_core::refute::{self, RefuteError};
use flm_graph::{builders, Graph, NodeId};
use flm_protocols::Eig;
use flm_sim::device::{snapshot, NodeCtx, Payload};
use flm_sim::devices::NaiveMajorityDevice;
use flm_sim::{Device, Input, MisbehaviorKind, Protocol, RunPolicy, System, Tick};

/// Honest until tick `at`, then hostile in one of three ways.
struct HostileDevice {
    at: u32,
    mode: u8,
    input: bool,
}

impl Device for HostileDevice {
    fn name(&self) -> &'static str {
        "Hostile"
    }
    fn init(&mut self, ctx: &NodeCtx) {
        self.input = ctx.input.as_bool().unwrap_or(false);
    }
    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        if t.0 >= self.at {
            match self.mode {
                0 => panic!("hostile device detonated at tick {}", t.0),
                1 => return vec![None; inbox.len() + 1],
                _ => return vec![Some(vec![0xAB; 100_000].into()); inbox.len()],
            }
        }
        inbox
            .iter()
            .map(|_| Some(vec![u8::from(self.input)].into()))
            .collect()
    }
    fn snapshot(&self) -> Vec<u8> {
        snapshot::undecided(b"hostile")
    }
}

/// Naive majority everywhere except one hostile node.
struct OneBadApple {
    victim: NodeId,
    mode: u8,
}

impl Protocol for OneBadApple {
    fn name(&self) -> String {
        format!("OneBadApple(victim={}, mode={})", self.victim, self.mode)
    }
    fn device(&self, _g: &Graph, v: NodeId) -> Box<dyn Device> {
        if v == self.victim {
            Box::new(HostileDevice {
                at: 1,
                mode: self.mode,
                input: false,
            })
        } else {
            Box::new(NaiveMajorityDevice::new())
        }
    }
    fn horizon(&self, _g: &Graph) -> u32 {
        4
    }
}

#[test]
fn hostile_device_never_aborts_run_contained() {
    for mode in 0..3 {
        let mut sys = System::new(builders::triangle());
        for v in sys.graph().nodes() {
            sys.assign(
                v,
                OneBadApple {
                    victim: NodeId(0),
                    mode,
                }
                .device(sys.graph(), v),
                Input::Bool(true),
            );
        }
        let b = sys
            .run_contained(4, &RunPolicy::default())
            .expect("contained runs absorb hostile devices");
        assert_eq!(
            b.misbehaving_nodes().into_iter().collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
        let m = &b.misbehavior()[0];
        assert_eq!(m.tick, Tick(1));
        match mode {
            0 => {
                assert!(matches!(&m.kind, MisbehaviorKind::Panic(msg) if msg.contains("detonated")))
            }
            1 => assert!(matches!(
                m.kind,
                MisbehaviorKind::PortMismatch {
                    expected: 2,
                    got: 3
                }
            )),
            _ => assert!(matches!(
                m.kind,
                MisbehaviorKind::OversizedPayload { len: 100_000, .. }
            )),
        }
    }
}

#[test]
fn degradation_yields_a_certificate_when_the_budget_permits() {
    // C4 with f = 2 is inadequate by connectivity (κ = 2 ≤ 2f); each chain
    // link masquerades one cut-half (1 node), leaving budget to degrade the
    // hostile node when it lands in the correct set.
    for mode in 0..3 {
        let proto = OneBadApple {
            victim: NodeId(0),
            mode,
        };
        let cert = refute::ba_connectivity(&proto, &builders::cycle(4), 2)
            .unwrap_or_else(|e| panic!("mode {mode}: expected a certificate, got {e}"));
        // The evidence rides in the chain: the victim was degraded to faulty
        // in at least one link, with the incident recorded.
        let degraded_links: Vec<_> = cert
            .chain
            .iter()
            .filter(|l| l.degraded.contains(&NodeId(0)))
            .collect();
        assert!(
            !degraded_links.is_empty(),
            "mode {mode}: no link degraded the hostile node"
        );
        for link in &degraded_links {
            assert!(link
                .misbehavior
                .iter()
                .any(|m| m.node == NodeId(0) && m.tick == Tick(1)));
        }
        // The certificate survives independent re-execution, misbehavior
        // evidence included.
        cert.verify(&proto)
            .unwrap_or_else(|e| panic!("mode {mode}: verify failed: {e}"));
        // And the rendered certificate shows the degradation.
        let shown = cert.to_string();
        assert!(shown.contains("degraded to faulty"), "{shown}");
    }
}

#[test]
fn degradation_over_budget_is_a_structured_diagnostic() {
    // On the triangle with f = 1 every chain link already masquerades one
    // class, so degrading the hostile node would need f = 2: the refuter
    // must return the Misbehavior diagnostic — never panic.
    for mode in 0..3 {
        let proto = OneBadApple {
            victim: NodeId(0),
            mode,
        };
        match refute::ba_nodes(&proto, &builders::triangle(), 1) {
            Err(RefuteError::Misbehavior { incidents, reason }) => {
                assert!(incidents.iter().any(|m| m.node == NodeId(0)));
                assert!(reason.contains("f = 1"), "{reason}");
            }
            Ok(cert) => panic!("mode {mode}: unexpectedly refuted: {cert}"),
            Err(e) => panic!("mode {mode}: expected Misbehavior, got {e}"),
        }
    }
}

#[test]
fn weak_and_firing_squad_refuters_survive_hostile_devices() {
    // The ring refuters route hostile devices into either a certificate or
    // the Misbehavior diagnostic; the point is they never panic or abort.
    for mode in 0..3 {
        let proto = OneBadApple {
            victim: NodeId(0),
            mode,
        };
        for result in [
            refute::weak_agreement(&proto, &builders::triangle(), 1),
            refute::firing_squad(&proto, &builders::triangle(), 1),
        ] {
            match result {
                Ok(cert) => cert
                    .verify(&proto)
                    .unwrap_or_else(|e| panic!("mode {mode}: verify failed: {e}")),
                Err(
                    RefuteError::Misbehavior { .. }
                    | RefuteError::Unrefuted { .. }
                    | RefuteError::ModelViolation { .. },
                ) => {}
                Err(e) => panic!("mode {mode}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn honest_protocols_never_record_misbehavior() {
    struct Honest;
    impl Protocol for Honest {
        fn name(&self) -> String {
            "Honest".into()
        }
        fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
            Box::new(NaiveMajorityDevice::new())
        }
        fn horizon(&self, _g: &Graph) -> u32 {
            3
        }
    }
    let cert = refute::ba_nodes(&Honest, &builders::triangle(), 1).unwrap();
    assert!(cert.chain.iter().all(|l| l.misbehavior.is_empty()));
    assert!(cert.chain.iter().all(|l| l.degraded.is_empty()));
    cert.verify(&Honest).unwrap();
}

/// `EIG(f=6)` on K18, a query any RPC client can send: its information
/// tree outgrows the payload limit at tick 4, and the refuter answers with
/// the same typed diagnostic, byte for byte, that it always has.
#[test]
fn an_oversized_eig_tree_is_a_structured_diagnostic() {
    let err = refute::ba_nodes(&Eig::new(6), &builders::complete(18), 6).unwrap_err();
    assert!(matches!(err, RefuteError::Misbehavior { .. }), "{err}");
    let flooders: Vec<String> = [1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]
        .iter()
        .map(|v| format!("n{v} at tick 4: sent 1028164 B on port 0 (limit 65536 B)"))
        .collect();
    assert_eq!(
        err.to_string(),
        format!(
            "device misbehavior exceeds the fault budget: \
             6 masquerading + 12 degraded nodes > f = 6; {}",
            flooders.join("; ")
        )
    );
}
