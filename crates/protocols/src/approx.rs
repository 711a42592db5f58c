//! DLPSW approximate agreement: iterated trimmed-range midpoint.
//!
//! The synchronous approximate-agreement algorithm of Dolev, Lynch, Pinter,
//! Stark & Weihl \[DLPSW\] for `n ≥ 3f + 1` on the complete graph: each
//! round every node broadcasts its value, discards the `f` lowest and `f`
//! highest values received, and moves to the midpoint of what remains. The
//! diameter of the correct values at least halves every round, and validity
//! (staying within the correct input range) is preserved, so `R` rounds
//! achieve ε-agreement for any `ε ≥ Δ/2^R`.
//!
//! This is the matching upper bound for Theorems 5 and 6: it solves simple
//! approximate agreement (and (ε,δ,γ)-agreement for suitable `R`) exactly
//! when the graph is adequate.

use flm_graph::{Graph, NodeId};
use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
use flm_sim::wire::{Reader, Writer};
use flm_sim::{Protocol, Tick};

/// The DLPSW protocol: `rounds` rounds tolerating `f` faults.
#[derive(Debug, Clone, Copy)]
pub struct Dlpsw {
    f: usize,
    rounds: u32,
}

impl Dlpsw {
    /// Creates the protocol with fault budget `f`, running `rounds` rounds.
    pub fn new(f: usize, rounds: u32) -> Self {
        Dlpsw { f, rounds }
    }
}

impl Protocol for Dlpsw {
    fn name(&self) -> String {
        format!("DLPSW(f={}, R={})", self.f, self.rounds)
    }

    /// # Panics
    ///
    /// Panics if `g` is not complete.
    fn device(&self, g: &Graph, _v: NodeId) -> Box<dyn Device> {
        assert!(g.is_complete(), "DLPSW requires the complete graph");
        Box::new(DlpswDevice::new(self.f, self.rounds))
    }

    fn horizon(&self, _g: &Graph) -> u32 {
        self.rounds + 2
    }
}

/// The per-node DLPSW state machine.
#[derive(Debug, Clone)]
pub struct DlpswDevice {
    f: usize,
    rounds: u32,
    value: f64,
    decided: Option<f64>,
}

impl DlpswDevice {
    /// Creates the device for fault budget `f` and `rounds` rounds.
    pub fn new(f: usize, rounds: u32) -> Self {
        DlpswDevice {
            f,
            rounds,
            value: 0.0,
            decided: None,
        }
    }

    /// The DLPSW update rule: trim `f` from each end of the sorted values
    /// and move to the midpoint of the remaining range.
    fn reduce(&self, mut values: Vec<f64>) -> f64 {
        values.sort_by(f64::total_cmp);
        let trimmed = &values[self.f..values.len() - self.f];
        (trimmed.first().expect("n > 2f values remain")
            + trimmed.last().expect("n > 2f values remain"))
            / 2.0
    }
}

impl Device for DlpswDevice {
    fn name(&self) -> &'static str {
        "DLPSW"
    }

    fn init(&mut self, ctx: &NodeCtx) {
        self.value = ctx.input.as_real().unwrap_or(0.0);
    }

    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        let tick = t.0;
        // Receive round `tick` values, update.
        if tick >= 1 && tick <= self.rounds {
            let mut values = vec![self.value];
            for m in inbox {
                let v = m
                    .as_deref()
                    .and_then(|m| Reader::new(m).f64().ok())
                    .filter(|v| v.is_finite())
                    // A silent or garbled sender counts as echoing us: the
                    // multiset must have exactly n entries for trimming.
                    .unwrap_or(self.value);
                values.push(v);
            }
            self.value = self.reduce(values);
        }
        if tick == self.rounds && self.decided.is_none() {
            self.decided = Some(self.value);
        }
        // Send round `tick + 1` values.
        if tick < self.rounds {
            let mut w = Writer::new();
            w.f64(self.value);
            // One encode; each port's Some(...) is an Arc refcount bump.
            let payload: Payload = w.finish().into();
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        inbox.iter().map(|_| None).collect()
    }

    fn snapshot(&self) -> Vec<u8> {
        let state = self.value.to_bits().to_be_bytes();
        match self.decided {
            Some(v) => snapshot::decided_real(v, &state),
            None => snapshot::undecided(&state),
        }
    }

    fn fork(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use flm_graph::builders;
    use flm_sim::adversary::{strategy, STRATEGY_COUNT};
    use flm_sim::{Decision, Input};
    use std::collections::BTreeSet;

    fn real_decisions(b: &flm_sim::SystemBehavior, correct: &BTreeSet<NodeId>) -> Vec<f64> {
        correct
            .iter()
            .map(|&v| match b.node(v).decision() {
                Some(Decision::Real(r)) => r,
                other => panic!("{v} decided {other:?}, expected a real"),
            })
            .collect()
    }

    #[test]
    fn honest_run_converges_to_common_range() {
        let g = builders::complete(4);
        let b = testkit::run_honest(&Dlpsw::new(1, 6), &g, &|v| Input::Real(v.0 as f64));
        let all: BTreeSet<NodeId> = g.nodes().collect();
        let ds = real_decisions(&b, &all);
        let spread = ds.iter().cloned().fold(f64::MIN, f64::max)
            - ds.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 3.0 / 32.0 + 1e-12, "spread {spread}");
        for d in ds {
            assert!((0.0..=3.0).contains(&d));
        }
    }

    #[test]
    fn each_round_halves_the_spread_under_attack() {
        // n = 4, f = 1: one Byzantine node, every zoo strategy. After R
        // rounds the correct spread must be ≤ Δ/2^R and inside [min, max]
        // of correct inputs.
        let g = builders::complete(4);
        let rounds = 4;
        let proto = Dlpsw::new(1, rounds);
        for faulty in g.nodes() {
            let correct: BTreeSet<NodeId> = g.nodes().filter(|&v| v != faulty).collect();
            let inputs = |v: NodeId| Input::Real(f64::from(v.0)); // Δ ≤ 3
            for strat in 0..STRATEGY_COUNT {
                for seed in 0..6 {
                    let adv = strategy(strat, seed, &|| proto.device(&g, faulty));
                    let b = testkit::run_with_faults(&proto, &g, &inputs, vec![(faulty, adv)]);
                    let ds = real_decisions(&b, &correct);
                    let lo = ds.iter().cloned().fold(f64::MAX, f64::min);
                    let hi = ds.iter().cloned().fold(f64::MIN, f64::max);
                    assert!(
                        hi - lo <= 3.0 / 2f64.powi(rounds as i32) + 1e-12,
                        "spread {} (strategy {strat}, seed {seed}, faulty {faulty})",
                        hi - lo
                    );
                    // Validity: inside the correct input range.
                    let (imin, imax) = correct.iter().fold((f64::MAX, f64::MIN), |(a, b), &v| {
                        let x = f64::from(v.0);
                        (a.min(x), b.max(x))
                    });
                    assert!(lo >= imin - 1e-12 && hi <= imax + 1e-12);
                }
            }
        }
    }

    #[test]
    fn reduce_trims_byzantine_extremes() {
        let d = DlpswDevice::new(1, 1);
        // Byzantine value 1e9 is trimmed away.
        assert_eq!(d.reduce(vec![0.0, 1.0, 2.0, 1e9]), 1.5);
        assert_eq!(d.reduce(vec![-1e9, 0.0, 1.0, 2.0]), 0.5);
    }
}
