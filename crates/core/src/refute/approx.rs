//! Theorems 5 and 6: approximate agreement is impossible in inadequate
//! graphs.
//!
//! * [`simple_approx`] (§6.1) reuses the Byzantine-agreement hexagon walk
//!   with real inputs 0 and 1: validity pins the first behavior's outputs to
//!   0 and the last's to 1, while the middle behavior's agreement condition
//!   demands the outputs get strictly closer than the inputs — impossible.
//! * [`eps_delta_gamma`] (§6.2) unrolls the triangle into a `(k+2)`-node
//!   ring with inputs `0, δ, 2δ, …`: Lemma 7's induction shows each
//!   two-node scenario lets the outputs creep up by at most ε per step,
//!   while validity at the far end demands a value near `kδ` — pick `k`
//!   with `δ > 2γ/(k−1) + ε` and the chain must break somewhere.

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};
use flm_sim::{Input, Protocol};

use crate::certificate::{Certificate, Theorem};
use crate::problems;
use crate::refute::ba::{chain_certificate, connectivity_chain, hexagon_walk};
use crate::refute::{partition_with_crossing_link, RefuteError};

/// Faulty inputs that keep each chain link's input range tight: all-0 in
/// `E₁`, mid-range in `E₂`, all-1 in `E₃`.
const FAULTY_INPUTS: [Input; 3] = [Input::Real(0.0), Input::Real(0.5), Input::Real(1.0)];

/// Theorem 5: refutes any simple-approximate-agreement protocol on a graph
/// with `n ≤ 3f` nodes.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `n ≥ 3f + 1`;
/// [`RefuteError::ModelViolation`] for nondeterministic devices.
pub fn simple_approx(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    let n = g.node_count();
    let classes = partition_with_crossing_link(g, f)?;
    let [a, b, c] = &classes;
    let cov = Covering::double_cover_crossing(g, a, c)?;
    let inputs = move |s: NodeId| Input::Real(if s.index() >= n { 1.0 } else { 0.0 });
    chain_certificate(
        protocol,
        &cov,
        Theorem::SimpleApprox,
        format!("double cover crossing a–c links; a={a:?} b={b:?} c={c:?}"),
        f,
        &inputs,
        hexagon_walk(&classes, n)
            .into_iter()
            .zip(FAULTY_INPUTS)
            .collect(),
        &problems::simple_approx,
    )
}

/// Theorem 5, connectivity half: refutes any simple-approximate-agreement
/// protocol on a connected graph with `κ(G) ≤ 2f`, using the same crossed
/// double cover over a split vertex cut as [`crate::refute::ba_connectivity`]
/// ("the connectivity bounds follow as for Byzantine agreement", §6.1).
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `κ(G) ≥ 2f + 1`;
/// [`RefuteError::BadGraph`] for complete or disconnected graphs.
pub fn simple_approx_connectivity(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
) -> Result<Certificate, RefuteError> {
    // Real inputs replacing the Boolean pattern: the "0 side" gets 0.0 and
    // the "1 side" 1.0, per the same copy/class rule as Theorem 1.
    connectivity_chain(
        protocol,
        g,
        f,
        Theorem::SimpleApprox,
        |b| Input::Real(if b { 1.0 } else { 0.0 }),
        FAULTY_INPUTS,
        problems::simple_approx,
    )
}

/// Theorem 6: refutes any (ε,δ,γ)-agreement protocol with `ε < δ` on the
/// triangle with one fault (the paper's `n = 3`, `f = 1` core; the general
/// `n ≤ 3f` case follows by the footnote-3 collapse in [`crate::reduction`]).
///
/// The ring has `k+2` nodes with inputs `0, δ, 2δ, …, (k+1)δ`, where `k` is
/// the smallest multiple-of-3-compatible integer with `δ > 2γ/(k−1) + ε`.
///
/// # Errors
///
/// [`RefuteError::BadGraph`] unless `g` is the 3-node complete graph and
/// `f = 1`; [`RefuteError::GraphIsAdequate`] when `ε ≥ δ` (the problem is
/// trivially solvable by outputting the input).
pub fn eps_delta_gamma(
    protocol: &dyn Protocol,
    g: &Graph,
    f: usize,
    eps: f64,
    delta: f64,
    gamma: f64,
) -> Result<Certificate, RefuteError> {
    if g.node_count() != 3 || g.links().len() != 3 || f != 1 {
        return Err(RefuteError::BadGraph {
            reason: "the direct (ε,δ,γ) refuter is for the triangle with f = 1; \
                     collapse larger systems with flm_core::reduction first"
                .into(),
        });
    }
    if !(eps > 0.0 && delta > 0.0 && gamma > 0.0) {
        return Err(RefuteError::BadGraph {
            reason: format!("ε, δ, γ must be positive (got {eps}, {delta}, {gamma})"),
        });
    }
    if eps >= delta {
        return Err(RefuteError::GraphIsAdequate {
            reason: format!("ε = {eps} ≥ δ = {delta}: choosing the input solves the problem"),
        });
    }
    // Smallest k with δ > 2γ/(k−1) + ε and (k+2) % 3 == 0.
    let mut k = (2.0 * gamma / (delta - eps) + 1.0).ceil() as usize + 1;
    while !(k + 2).is_multiple_of(3) {
        k += 1;
    }
    let m = k.div_ceil(3);
    let cov = Covering::cyclic_cover(3, m)?;
    let inputs = move |s: NodeId| Input::Real(s.index() as f64 * delta);
    // Scenario S_i = ring nodes {i, i+1}, for 0 ≤ i ≤ k. Faulty third node
    // of the triangle gets an input inside the correct range so validity
    // ranges are driven by the correct inputs, as in the paper.
    let scenarios = (0..=k as u32)
        .map(|i| {
            let u_set = [NodeId(i), NodeId(i + 1)].into();
            (u_set, Input::Real(f64::from(i) * delta))
        })
        .collect();
    chain_certificate(
        protocol,
        &cov,
        Theorem::EpsDeltaGamma,
        format!(
            "cyclic {m}-fold cover of the triangle ({} -node ring)",
            k + 2
        ),
        f,
        &inputs,
        scenarios,
        &|behavior, correct, i| problems::eps_delta_gamma(behavior, correct, eps, gamma, i),
    )
    .map_err(|e| match e {
        RefuteError::Unrefuted { .. } => RefuteError::Unrefuted {
            reason: format!(
                "all {} two-node scenarios met (ε,δ,γ)-agreement, contradicting Lemma 7's \
                 arithmetic (kδ − γ ≤ δ + γ + (k−1)ε fails for k = {k})",
                k + 1
            ),
        },
        e => e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
    use flm_sim::Tick;

    /// Decides its real input immediately (trivially valid, never
    /// contracting) — the simplest approximate-agreement candidate.
    struct EchoReal {
        value: f64,
    }
    impl Device for EchoReal {
        fn name(&self) -> &'static str {
            "EchoReal"
        }
        fn init(&mut self, ctx: &NodeCtx) {
            self.value = ctx.input.as_real().unwrap_or(0.0);
        }
        fn step(&mut self, _t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            inbox.iter().map(|_| None).collect()
        }
        fn snapshot(&self) -> Vec<u8> {
            snapshot::decided_real(self.value, &[])
        }
    }

    /// One round of "average with whatever the neighbors sent".
    struct AverageOnce {
        value: f64,
        decided: Option<f64>,
    }
    impl Device for AverageOnce {
        fn name(&self) -> &'static str {
            "AverageOnce"
        }
        fn init(&mut self, ctx: &NodeCtx) {
            self.value = ctx.input.as_real().unwrap_or(0.0);
        }
        fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            match t.0 {
                0 => inbox
                    .iter()
                    .map(|_| Some(self.value.to_bits().to_be_bytes().to_vec().into()))
                    .collect(),
                1 => {
                    let mut sum = self.value;
                    let mut count = 1.0;
                    for m in inbox.iter().flatten() {
                        if let Ok(bits) = <[u8; 8]>::try_from(m.as_bytes()) {
                            sum += f64::from_bits(u64::from_be_bytes(bits));
                            count += 1.0;
                        }
                    }
                    self.decided = Some(sum / count);
                    inbox.iter().map(|_| None).collect()
                }
                _ => inbox.iter().map(|_| None).collect(),
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            match self.decided {
                Some(v) => snapshot::decided_real(v, &[]),
                None => snapshot::undecided(&self.value.to_bits().to_be_bytes()),
            }
        }
    }

    struct P(u32);
    impl Protocol for P {
        fn name(&self) -> String {
            format!("approx#{}", self.0)
        }
        fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
            match self.0 {
                0 => Box::new(EchoReal { value: 0.0 }),
                _ => Box::new(AverageOnce {
                    value: 0.0,
                    decided: None,
                }),
            }
        }
        fn horizon(&self, _g: &Graph) -> u32 {
            4
        }
    }

    #[test]
    fn simple_approx_refutes_echo_and_average() {
        let g = builders::triangle();
        for i in 0..2 {
            let proto = P(i);
            let cert = simple_approx(&proto, &g, 1).unwrap_or_else(|e| panic!("#{i}: {e}"));
            assert!(cert.chain.iter().all(|l| l.scenario_matched));
            cert.verify(&proto).unwrap();
        }
    }

    #[test]
    fn simple_approx_connectivity_refutes_on_thin_graphs() {
        for g in [builders::cycle(4), builders::cycle(6), builders::path(4)] {
            for i in 0..2 {
                let proto = P(i);
                let cert = simple_approx_connectivity(&proto, &g, 1)
                    .unwrap_or_else(|e| panic!("#{i}: {e}"));
                assert_eq!(cert.theorem, Theorem::SimpleApprox);
                assert!(cert.chain.iter().all(|l| l.scenario_matched));
                cert.verify(&proto).unwrap();
            }
        }
    }

    #[test]
    fn simple_approx_connectivity_declines_adequate() {
        assert!(matches!(
            simple_approx_connectivity(&P(0), &builders::wheel(6), 1),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }

    #[test]
    fn simple_approx_declines_adequate() {
        assert!(matches!(
            simple_approx(&P(0), &builders::complete(4), 1),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }

    #[test]
    fn eps_delta_gamma_refutes_on_the_ring() {
        let g = builders::triangle();
        for i in 0..2 {
            let proto = P(i);
            let cert = eps_delta_gamma(&proto, &g, 1, 0.25, 1.0, 1.0)
                .unwrap_or_else(|e| panic!("#{i}: {e}"));
            cert.verify(&proto).unwrap();
        }
    }

    #[test]
    fn eps_delta_gamma_trivial_when_eps_ge_delta() {
        assert!(matches!(
            eps_delta_gamma(&P(0), &builders::triangle(), 1, 1.0, 1.0, 1.0),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }
}
