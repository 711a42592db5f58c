//! Weak agreement **without** a minimum transmission delay (§4, footnote 4).
//!
//! Theorem 2 needs the Bounded-Delay Locality axiom; the paper is explicit
//! that the result is *sensitive* to it: "if there is no lower bound on
//! transmission delay, and if devices can control the delay and have
//! synchronized clocks, then we can construct an algorithm for reaching
//! weak consensus … with any number of faults."
//!
//! This module is that construction, runnable:
//!
//! * At time 0, every node broadcasts its value, **choosing** the delay so
//!   it arrives at time ½.
//! * A node that detects disagreement or a failure at time `1 − t` (a
//!   conflicting value at ½, a missing message shortly after, or an alert
//!   relayed by someone else) broadcasts a "failure detected, choose
//!   default" alert timed to arrive at `1 − t/2` — always before 1.
//! * At time 1 everyone decides: the default 0 if any alert was seen, else
//!   the (necessarily unanimous) common value.
//!
//! It uses [`ClockAction::SendWithDelay`], the simulator's deliberate
//! escape hatch from the Bounded-Delay axiom — which is exactly why the
//! Theorem 2 refuter cannot be applied to it, and why the theorem needs
//! the axiom.

use flm_graph::{Graph, NodeId};
use flm_sim::clock::{ClockAction, ClockDevice, ClockEvent};
use flm_sim::ClockProtocol;

const TIMER_CHECK: u32 = 1;
const TIMER_DECIDE: u32 = 2;
/// Wire tags.
const TAG_VALUE: u8 = 0;
const TAG_ALERT: u8 = 2;

/// The footnote-4 device. Clocks must be synchronized (identity) — the
/// construction assumes devices agree on real time.
#[derive(Debug, Clone)]
pub struct FastWeakDevice {
    input: bool,
    seen: Vec<Option<bool>>,
    alerted: bool,
    decided: Option<bool>,
}

impl FastWeakDevice {
    /// Creates the device with the node's Boolean input.
    pub fn new(input: bool) -> Self {
        FastWeakDevice {
            input,
            seen: Vec::new(),
            alerted: false,
            decided: None,
        }
    }

    /// Raise the alarm (once): broadcast an alert timed to land halfway
    /// between now and the decision instant.
    fn alert(&mut self, hw: f64) -> Vec<ClockAction> {
        if self.alerted || hw >= 1.0 {
            self.alerted = true;
            return Vec::new();
        }
        self.alerted = true;
        let delay = (1.0 - hw) / 2.0;
        (0..self.seen.len())
            .map(|port| ClockAction::SendWithDelay {
                port,
                payload: vec![TAG_ALERT].into(),
                hw_delay: delay,
            })
            .collect()
    }

    /// True when the values seen so far (own input included) conflict.
    fn conflict(&self) -> bool {
        self.seen.iter().flatten().any(|&v| v != self.input)
    }
}

impl ClockDevice for FastWeakDevice {
    fn name(&self) -> &'static str {
        "FastWeak"
    }

    fn init(&mut self, ports: usize) {
        self.seen = vec![None; ports];
    }

    fn on_event(&mut self, hw: f64, event: ClockEvent) -> Vec<ClockAction> {
        match event {
            ClockEvent::Start => {
                let mut actions: Vec<ClockAction> = (0..self.seen.len())
                    .map(|port| ClockAction::SendWithDelay {
                        port,
                        payload: vec![TAG_VALUE, u8::from(self.input)].into(),
                        hw_delay: 0.5,
                    })
                    .collect();
                actions.push(ClockAction::SetTimer {
                    id: TIMER_CHECK,
                    hw_delay: 0.6,
                });
                actions.push(ClockAction::SetTimer {
                    id: TIMER_DECIDE,
                    hw_delay: 1.0,
                });
                actions
            }
            ClockEvent::Message { port, payload } => match payload.first() {
                Some(&TAG_VALUE) if self.decided.is_none() => {
                    self.seen[port] = payload.get(1).map(|&b| b != 0);
                    if self.conflict() {
                        return self.alert(hw);
                    }
                    Vec::new()
                }
                Some(&TAG_ALERT) if self.decided.is_none() => self.alert(hw),
                _ => Vec::new(),
            },
            ClockEvent::Timer { id } => match id {
                TIMER_CHECK if self.decided.is_none() => {
                    if self.seen.iter().any(Option::is_none) || self.conflict() {
                        self.alert(hw)
                    } else {
                        Vec::new()
                    }
                }
                TIMER_DECIDE => {
                    if self.decided.is_none() {
                        self.decided = Some(if self.alerted { false } else { self.input });
                    }
                    Vec::new()
                }
                _ => Vec::new(),
            },
        }
    }

    fn logical(&self, hw: f64) -> f64 {
        hw // synchronized clocks; logical time is real time
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut s = match self.decided {
            Some(b) => vec![1, u8::from(b)],
            None => vec![0, 0],
        };
        s.push(u8::from(self.alerted));
        for v in &self.seen {
            s.push(match v {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        s
    }
}

/// Protocol wrapper: every node runs [`FastWeakDevice`] with an input map.
pub struct FastWeakAgreement {
    inputs: Vec<bool>,
}

impl FastWeakAgreement {
    /// Creates the protocol with per-node inputs.
    pub fn new(inputs: Vec<bool>) -> Self {
        FastWeakAgreement { inputs }
    }
}

impl ClockProtocol for FastWeakAgreement {
    fn name(&self) -> String {
        "FastWeakAgreement".into()
    }
    fn device(&self, _g: &Graph, v: NodeId) -> Box<dyn ClockDevice> {
        Box::new(FastWeakDevice::new(self.inputs[v.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_sim::clock::{ClockBehavior, ClockSystem, TimeFn};

    /// A Byzantine clock-device strategy for the tests.
    #[derive(Clone, Copy)]
    enum Attack {
        Silent,
        /// Different values to different ports at time ½.
        Equivocate,
        /// A lone alert to port 0 arriving near the deadline.
        LateAlert,
        /// Consistent wrong value.
        Liar,
    }

    struct Adversary {
        attack: Attack,
        ports: usize,
    }

    impl ClockDevice for Adversary {
        fn name(&self) -> &'static str {
            "ClockAdversary"
        }
        fn init(&mut self, ports: usize) {
            self.ports = ports;
        }
        fn on_event(&mut self, _hw: f64, event: ClockEvent) -> Vec<ClockAction> {
            match (&self.attack, event) {
                (Attack::Silent, _) => Vec::new(),
                (Attack::Equivocate, ClockEvent::Start) => (0..self.ports)
                    .map(|port| ClockAction::SendWithDelay {
                        port,
                        payload: vec![TAG_VALUE, (port % 2) as u8].into(),
                        hw_delay: 0.5,
                    })
                    .collect(),
                (Attack::LateAlert, ClockEvent::Start) => vec![
                    ClockAction::SendWithDelay {
                        port: 0,
                        payload: vec![TAG_VALUE, 1].into(),
                        hw_delay: 0.5,
                    },
                    ClockAction::SendWithDelay {
                        port: 1,
                        payload: vec![TAG_VALUE, 1].into(),
                        hw_delay: 0.5,
                    },
                    ClockAction::SendWithDelay {
                        port: 0,
                        payload: vec![TAG_ALERT].into(),
                        hw_delay: 0.97,
                    },
                ],
                (Attack::Liar, ClockEvent::Start) => (0..self.ports)
                    .map(|port| ClockAction::SendWithDelay {
                        port,
                        payload: vec![TAG_VALUE, 1].into(),
                        hw_delay: 0.5,
                    })
                    .collect(),
                _ => Vec::new(),
            }
        }
        fn logical(&self, hw: f64) -> f64 {
            hw
        }
        fn snapshot(&self) -> Vec<u8> {
            b"adversary".to_vec()
        }
    }

    /// Decodes the decision from a snapshot produced by the device.
    fn decision_of(snap: &[u8]) -> Option<bool> {
        match snap.first()? {
            1 => Some(*snap.get(1)? != 0),
            _ => None,
        }
    }

    fn decision(b: &ClockBehavior, v: NodeId) -> Option<bool> {
        b.node_logs[v.index()]
            .iter()
            .rev()
            .find_map(|rec| decision_of(&rec.snap))
    }

    fn run_with(attack: Option<Attack>, inputs: [bool; 3]) -> ClockBehavior {
        let g = builders::triangle();
        let mut sys = ClockSystem::new(g.clone());
        for v in g.nodes() {
            if v == NodeId(2) {
                if let Some(attack) = attack {
                    sys.assign(
                        v,
                        Box::new(Adversary { attack, ports: 0 }),
                        TimeFn::identity(),
                    );
                    continue;
                }
            }
            sys.assign(
                v,
                Box::new(FastWeakDevice::new(inputs[v.index()])),
                TimeFn::identity(),
            );
        }
        sys.run(1.5, &[])
    }

    #[test]
    fn all_correct_unanimous_decides_the_input() {
        for input in [false, true] {
            let b = run_with(None, [input; 3]);
            for v in builders::triangle().nodes() {
                assert_eq!(decision(&b, v), Some(input), "{v} input {input}");
            }
        }
    }

    #[test]
    fn all_correct_mixed_inputs_agree_on_default() {
        let b = run_with(None, [true, false, true]);
        for v in builders::triangle().nodes() {
            assert_eq!(decision(&b, v), Some(false));
        }
    }

    #[test]
    fn any_number_of_faults_on_k4() {
        // The paper's claim is stark: the construction "works with any
        // number of faults". Two Byzantine nodes out of four: the two
        // correct nodes must still agree.
        let g = builders::complete(4);
        for (s1, s2) in [
            (Attack::Equivocate, Attack::Silent),
            (Attack::Liar, Attack::LateAlert),
            (Attack::Silent, Attack::Silent),
        ] {
            for inputs in [[true, true, false, false], [false, false, true, true]] {
                let mut sys = ClockSystem::new(g.clone());
                sys.assign(
                    NodeId(0),
                    Box::new(FastWeakDevice::new(inputs[0])),
                    TimeFn::identity(),
                );
                sys.assign(
                    NodeId(1),
                    Box::new(FastWeakDevice::new(inputs[1])),
                    TimeFn::identity(),
                );
                sys.assign(
                    NodeId(2),
                    Box::new(Adversary {
                        attack: s1,
                        ports: 0,
                    }),
                    TimeFn::identity(),
                );
                sys.assign(
                    NodeId(3),
                    Box::new(Adversary {
                        attack: s2,
                        ports: 0,
                    }),
                    TimeFn::identity(),
                );
                let b = sys.run(1.5, &[]);
                let d0 = decision(&b, NodeId(0));
                let d1 = decision(&b, NodeId(1));
                assert!(d0.is_some() && d0 == d1, "{inputs:?}: {d0:?} vs {d1:?}");
            }
        }
    }

    #[test]
    fn weak_agreement_holds_under_every_attack() {
        // n = 3, f = 1 — impossible with bounded delay (Theorem 2), solved
        // here because the devices control transmission delay.
        for attack in [
            Attack::Silent,
            Attack::Equivocate,
            Attack::LateAlert,
            Attack::Liar,
        ] {
            for inputs in [
                [false, false, false],
                [true, true, true],
                [true, false, false],
            ] {
                let label = match attack {
                    Attack::Silent => "silent",
                    Attack::Equivocate => "equivocate",
                    Attack::LateAlert => "late-alert",
                    Attack::Liar => "liar",
                };
                let b = run_with(Some(attack), inputs);
                let d0 = decision(&b, NodeId(0));
                let d1 = decision(&b, NodeId(1));
                assert!(
                    d0.is_some() && d0 == d1,
                    "{label} {inputs:?}: {d0:?} vs {d1:?}"
                );
            }
        }
    }
}
