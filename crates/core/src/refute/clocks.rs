//! Theorem 8 and Corollaries 12–15: nontrivial clock synchronization is
//! impossible in inadequate graphs — under the Scaling axiom.
//!
//! The best synchronization achievable in an inadequate graph needs no
//! communication at all: run every logical clock at the lower envelope,
//! `C(E(t)) = l(D(t))`, for agreement `l(q(t)) − l(p(t))`. A *nontrivial*
//! claim improves this by a constant α > 0 from some time `t′` on; the
//! refuter defeats every such claim.
//!
//! Construction (§7): unroll the triangle into a ring of `k+2` nodes where
//! node `j`'s hardware clock is `q ∘ h^{−j}` with `h = p⁻¹ ∘ q`. Each
//! adjacent pair `(i, i+1)`, after scaling time by `hⁱ`, is a pair of
//! correct nodes with legal clocks `q` and `p` (Lemma 9) — so the claim's
//! agreement and validity conditions apply to the *measured* logical values
//! of the single ring run. Lemma 11's induction shows the values must climb
//! by at least α per step, overshooting the upper envelope for
//! `k > (u(q(t′)) − l(p(t′)))/α` — so some scenario's condition fails, and
//! that failure is the counterexample.

use std::fmt;

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};
use flm_sim::clock::{ClockBehavior, ClockReplayDevice, ClockSystem, TimeFn};
use flm_sim::{ClockProtocol, Payload};

use crate::certificate::{Condition, VerifyError};
use crate::problems::ClockSyncClaim;
use crate::refute::RefuteError;

/// A counterexample to a nontrivial clock-synchronization claim.
#[derive(Debug, Clone)]
pub struct ClockCertificate {
    /// Name of the refuted protocol.
    pub protocol: String,
    /// The refuted claim.
    pub claim: ClockSyncClaim,
    /// The ring length parameter (`k+2` nodes).
    pub k: usize,
    /// The evaluation time `t″ = h^k(t′)`.
    pub t_eval: f64,
    /// Measured logical clock values of the ring nodes at `t″`.
    pub logical: Vec<f64>,
    /// Index `i` of the violated scaled scenario `S_i ∘ hⁱ`.
    pub scenario: usize,
    /// Which condition failed there.
    pub condition: Condition,
    /// The violated inequality with its measured numbers.
    pub evidence: String,
}

impl fmt::Display for ClockCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "COUNTEREXAMPLE — Theorem 8 (clock synchronization), protocol {}",
            self.protocol
        )?;
        writeln!(
            f,
            "  ring of {} nodes, clocks q∘h^-j; evaluated at t″ = {:.6}",
            self.k + 2,
            self.t_eval
        )?;
        writeln!(
            f,
            "  scaled scenario S_{} ∘ h^{} is a correct triangle behavior, yet:",
            self.scenario, self.scenario
        )?;
        write!(f, "  {} violated: {}", self.condition, self.evidence)
    }
}

/// Builds the ring system (triangle devices, clocks `q∘h^{−j}`) and runs it
/// to `t_eval`, probing logical clocks there.
///
/// Memoized: the refuter and [`ClockCertificate::verify`] invoke the ring
/// with identical parameters, so an in-process refute-then-verify sequence
/// runs the continuous simulation once.
fn run_ring(
    protocol: &dyn ClockProtocol,
    g: &Graph,
    claim: &ClockSyncClaim,
    k: usize,
    t_eval: f64,
) -> Result<std::sync::Arc<ClockBehavior>, RefuteError> {
    crate::profile::span("clock-ring", || {
        let key = crate::runkey::clock_ring_key(&protocol.name(), g, claim, k, t_eval);
        flm_sim::runcache::memoize_clock(&key, || {
            let m = k.div_ceil(3);
            let cov = Covering::cyclic_cover(3, m)?;
            let mut sys = ClockSystem::new(cov.cover().clone());
            let h_inv = claim.h().inverse();
            for j in 0..(k + 2) {
                let clock = claim.q.compose(&h_inv.iterate(j));
                let s = NodeId(j as u32);
                sys.assign_lifted(&cov, s, protocol.device(g, cov.project(s)), clock);
            }
            Ok(sys.run(t_eval * (1.0 + 1e-9) + 1e-9, &[t_eval]))
        })
    })
}

/// Theorem 8: refutes any nontrivial clock-synchronization claim on the
/// triangle with one fault.
///
/// # Errors
///
/// [`RefuteError::BadGraph`] unless `g` is the triangle, `f = 1`, and the
/// claim is well-formed (`α > 0`, `p ≤ q`, `l ≤ u` at sampled times);
/// [`RefuteError::Unrefuted`] if no condition fails (impossible under the
/// Scaling axiom).
pub fn clock_sync(
    protocol: &dyn ClockProtocol,
    g: &Graph,
    f: usize,
    claim: &ClockSyncClaim,
) -> Result<ClockCertificate, RefuteError> {
    if g.node_count() != 3 || g.links().len() != 3 || f != 1 {
        return Err(RefuteError::BadGraph {
            reason: "the clock refuter addresses the triangle with f = 1".into(),
        });
    }
    if claim.alpha <= 0.0 {
        return Err(RefuteError::BadGraph {
            reason: format!("a nontrivial claim needs α > 0, got {}", claim.alpha),
        });
    }
    for t in [claim.t_prime, 2.0 * claim.t_prime + 1.0] {
        if claim.p.eval(t) > claim.q.eval(t) + 1e-12 {
            return Err(RefuteError::BadGraph {
                reason: format!("p(t) must not exceed q(t); fails at t = {t}"),
            });
        }
        if claim.l.eval(t) > claim.u.eval(t) + 1e-12 {
            return Err(RefuteError::BadGraph {
                reason: format!("l(t) must not exceed u(t); fails at t = {t}"),
            });
        }
    }

    // Smallest k ≥ 2 with (k+2) % 3 == 0 and l(p(t′)) + kα > u(q(t′)).
    let t_prime = claim.t_prime;
    let floor = claim.l.eval(claim.p.eval(t_prime));
    let ceiling = claim.u.eval(claim.q.eval(t_prime));
    let mut k = 4usize; // first k ≥ 2 with (k+2) divisible by 3 is 4
    while floor + (k as f64) * claim.alpha <= ceiling {
        k += 3;
        if k > 3_000 {
            return Err(RefuteError::BadGraph {
                reason: format!(
                    "k exceeds 3000 before l(p(t′)) + kα > u(q(t′)) \
                     (α = {} too small against envelope gap {})",
                    claim.alpha,
                    ceiling - floor
                ),
            });
        }
    }

    let h = claim.h();
    let t_eval = h.iterate(k).eval(t_prime);
    let behavior = run_ring(protocol, g, claim, k, t_eval)?;
    let logical: Vec<f64> = (0..(k + 2))
        .map(|j| behavior.logical_at(0, NodeId(j as u32)))
        .collect();

    // Evaluate the chain: scenario S_i ∘ hⁱ at scaled time τᵢ = h^{−i}(t″).
    let h_inv = h.inverse();
    for i in 0..=k {
        let tau = h_inv.iterate(i).eval(t_eval);
        let lo = claim.l.eval(claim.p.eval(tau));
        let hi = claim.u.eval(claim.q.eval(tau));
        for (who, j) in [("node i", i), ("node i+1", i + 1)] {
            let c = logical[j];
            if c < lo - 1e-9 || c > hi + 1e-9 {
                return Ok(ClockCertificate {
                    protocol: protocol.name(),
                    claim: claim.clone(),
                    k,
                    t_eval,
                    logical,
                    scenario: i,
                    condition: Condition::Validity,
                    evidence: format!(
                        "{who} (ring node {j}) has C = {c:.6} outside the envelope \
                         [l(p(τ)), u(q(τ))] = [{lo:.6}, {hi:.6}] at scaled time τ = {tau:.6}"
                    ),
                });
            }
        }
        let bound = claim.agreement_bound(tau);
        let skew = (logical[i + 1] - logical[i]).abs();
        if skew >= bound - 1e-9 {
            return Ok(ClockCertificate {
                protocol: protocol.name(),
                claim: claim.clone(),
                k,
                t_eval,
                logical,
                scenario: i,
                condition: Condition::Agreement,
                evidence: format!(
                    "|C_{} − C_{}| = {skew:.6} is not below the claimed bound \
                     l(q(τ)) − l(p(τ)) − α = {bound:.6} at scaled time τ = {tau:.6}",
                    i + 1,
                    i
                ),
            });
        }
    }
    Err(RefuteError::Unrefuted {
        reason: format!(
            "all {} scaled scenarios satisfied the claim, contradicting Lemma 11 \
             (l(p(t′)) + kα = {} > u(q(t′)) = {})",
            k + 1,
            floor + (k as f64) * claim.alpha,
            ceiling
        ),
    })
}

impl ClockCertificate {
    /// Independently verifies the certificate:
    ///
    /// 1. re-runs the ring deterministically and re-checks the violated
    ///    inequality;
    /// 2. re-enacts the violated scaled scenario as an honest triangle run —
    ///    two correct devices with legal clocks `q` and `p`, plus a faulty
    ///    node replaying the ring's border messages at `hⁱ`-scaled times —
    ///    and confirms the logical clock readings reproduce (Lemma 9 and
    ///    the Scaling axiom, checked).
    ///
    /// # Errors
    ///
    /// [`VerifyError::NotReproduced`] when either re-execution diverges.
    pub fn verify(&self, protocol: &dyn ClockProtocol) -> Result<(), VerifyError> {
        let g = flm_graph::builders::triangle();
        let behavior = run_ring(protocol, &g, &self.claim, self.k, self.t_eval).map_err(|e| {
            VerifyError::Malformed {
                reason: format!("ring re-run failed: {e}"),
            }
        })?;
        for (j, &c) in self.logical.iter().enumerate() {
            let again = behavior.logical_at(0, NodeId(j as u32));
            if (again - c).abs() > 1e-9 * c.abs().max(1.0) {
                return Err(VerifyError::NotReproduced {
                    reason: format!("ring node {j}: logical {again} vs recorded {c}"),
                });
            }
        }

        // Re-enact scenario S_i ∘ hⁱ on the triangle.
        let i = self.scenario;
        let h = self.claim.h();
        let h_inv = h.inverse();
        let scale = h_inv.iterate(i); // maps ring time to scenario time
        let tau = scale.eval(self.t_eval);
        let ring_len = self.k + 2;
        let (bi, bj) = (NodeId((i % 3) as u32), NodeId(((i + 1) % 3) as u32));
        // The triangle's third node: `bi` and `bj` are distinct in 0..3.
        let bf = NodeId(3 - bi.0 - bj.0);

        // Border messages: ring edges (i−1 → i) and (i+2 → i+1), times
        // scaled by h^{−i}.
        let prev = NodeId(((i + ring_len - 1) % ring_len) as u32);
        let next = NodeId(((i + 2) % ring_len) as u32);
        let into_i: Vec<(f64, Payload)> = behavior
            .edge_sends(prev, NodeId(i as u32))
            .iter()
            .filter(|r| scale.eval(r.arrived) <= tau + 1e-9)
            .map(|r| (scale.eval(r.arrived), r.payload.clone()))
            .collect();
        let into_j: Vec<(f64, Payload)> = behavior
            .edge_sends(next, NodeId((i + 1) as u32))
            .iter()
            .filter(|r| scale.eval(r.arrived) <= tau + 1e-9)
            .map(|r| (scale.eval(r.arrived), r.payload.clone()))
            .collect();

        // The faulty node's hardware clock: fast enough to hit the earliest
        // arrival (clocks of faulty nodes are unconstrained).
        let earliest = into_i
            .iter()
            .chain(&into_j)
            .map(|(t, _)| *t)
            .fold(f64::MAX, f64::min);
        let rate = if earliest == f64::MAX {
            1.0
        } else {
            (2.0 / earliest).max(1.0)
        };
        let f_clock = TimeFn::linear(rate);
        // Port order at bf = sorted neighbors; build arrival lists per port.
        let mut arrivals: Vec<Vec<(f64, Payload)>> = vec![Vec::new(); 2];
        let neighbors: Vec<NodeId> = g.neighbors(bf).collect();
        for (port, &t) in neighbors.iter().enumerate() {
            if t == bi {
                arrivals[port] = into_i.clone();
            } else if t == bj {
                arrivals[port] = into_j.clone();
            }
        }

        let mut sys = ClockSystem::new(g.clone());
        sys.assign(bi, protocol.device(&g, bi), self.claim.q.clone());
        sys.assign(bj, protocol.device(&g, bj), self.claim.p.clone());
        sys.assign(
            bf,
            Box::new(ClockReplayDevice::for_arrivals(&f_clock, &arrivals)),
            f_clock.clone(),
        );
        let tri = sys.run(tau * (1.0 + 1e-9) + 1e-9, &[tau]);
        for (node, ring_idx) in [(bi, i), (bj, i + 1)] {
            let got = tri.logical_at(0, node);
            let want = self.logical[ring_idx];
            if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
                return Err(VerifyError::NotReproduced {
                    reason: format!(
                        "scaled scenario: triangle {node} reads {got} but ring node \
                         {ring_idx} read {want}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Corollary 13: with `p(t) = t`, `q(t) = rt`, `l(t) = at + b`, no devices
/// synchronize a constant closer than `art − at`. Refutes the claim of
/// improving by `alpha` (any positive constant).
///
/// # Errors
///
/// See [`clock_sync`].
pub fn corollary_13(
    protocol: &dyn ClockProtocol,
    r: f64,
    a: f64,
    b: f64,
    u: TimeFn,
    alpha: f64,
    t_prime: f64,
) -> Result<ClockCertificate, RefuteError> {
    let claim = ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(r),
        l: TimeFn::affine(a, b),
        u,
        alpha,
        t_prime,
    };
    clock_sync(protocol, &flm_graph::builders::triangle(), 1, &claim)
}

/// Corollary 14: with `p(t) = t`, `q(t) = t + c`, `l(t) = at + b`, no
/// devices synchronize a constant closer than `ac`.
///
/// # Errors
///
/// See [`clock_sync`].
pub fn corollary_14(
    protocol: &dyn ClockProtocol,
    c: f64,
    a: f64,
    b: f64,
    u: TimeFn,
    alpha: f64,
    t_prime: f64,
) -> Result<ClockCertificate, RefuteError> {
    let claim = ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::affine(1.0, c),
        l: TimeFn::affine(a, b),
        u,
        alpha,
        t_prime,
    };
    clock_sync(protocol, &flm_graph::builders::triangle(), 1, &claim)
}

/// Corollary 15: with `p(t) = t`, `q(t) = rt`, `l(t) = log₂(1 + t)`, no
/// devices synchronize a constant closer than `log₂(r)` (asymptotically).
///
/// # Errors
///
/// See [`clock_sync`].
pub fn corollary_15(
    protocol: &dyn ClockProtocol,
    r: f64,
    u: TimeFn,
    alpha: f64,
    t_prime: f64,
) -> Result<ClockCertificate, RefuteError> {
    let claim = ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(r),
        l: TimeFn::Log2,
        u,
        alpha,
        t_prime,
    };
    clock_sync(protocol, &flm_graph::builders::triangle(), 1, &claim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_protocols::clock_sync::{AveragingClockSync, TrivialClockSync};

    fn claim(alpha: f64) -> ClockSyncClaim {
        ClockSyncClaim {
            p: TimeFn::identity(),
            q: TimeFn::linear(2.0),
            l: TimeFn::identity(),
            u: TimeFn::affine(2.0, 8.0),
            alpha,
            t_prime: 1.0,
        }
    }

    #[test]
    fn trivial_sync_cannot_claim_any_alpha() {
        let proto = TrivialClockSync {
            l: TimeFn::identity(),
        };
        let cert = clock_sync(&proto, &builders::triangle(), 1, &claim(2.0)).unwrap();
        assert!(cert.k >= 4);
        cert.verify(&proto).unwrap();
    }

    #[test]
    fn averaging_sync_cannot_claim_any_alpha() {
        let proto = AveragingClockSync {
            l: TimeFn::identity(),
            period: 2.0,
        };
        let cert = clock_sync(&proto, &builders::triangle(), 1, &claim(2.5)).unwrap();
        cert.verify(&proto).unwrap();
    }

    #[test]
    fn refuter_validates_claims() {
        let proto = TrivialClockSync {
            l: TimeFn::identity(),
        };
        assert!(matches!(
            clock_sync(&proto, &builders::triangle(), 1, &claim(0.0)),
            Err(RefuteError::BadGraph { .. })
        ));
        assert!(matches!(
            clock_sync(&proto, &builders::complete(4), 1, &claim(1.0)),
            Err(RefuteError::BadGraph { .. })
        ));
    }

    #[test]
    fn corollaries_refute_the_trivial_device() {
        let proto = TrivialClockSync {
            l: TimeFn::affine(1.0, 0.0),
        };
        let c13 = corollary_13(&proto, 2.0, 1.0, 0.0, TimeFn::affine(2.0, 8.0), 2.0, 1.0);
        assert!(c13.is_ok(), "{c13:?}");
        let proto_l = TrivialClockSync {
            l: TimeFn::affine(0.5, 0.0),
        };
        let c14 = corollary_14(&proto_l, 3.0, 0.5, 0.0, TimeFn::affine(1.0, 6.0), 1.0, 1.0);
        assert!(c14.is_ok(), "{c14:?}");
        let proto_log = TrivialClockSync { l: TimeFn::Log2 };
        let c15 = corollary_15(&proto_log, 2.0, TimeFn::affine(1.0, 4.0), 0.9, 1.0);
        assert!(c15.is_ok(), "{c15:?}");
    }
}
