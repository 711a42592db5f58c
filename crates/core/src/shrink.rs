//! Greedy delta-debugging for campaign violations.
//!
//! A sprawling counterexample schedule is weak evidence; a minimal one is a
//! proof artifact. This module shrinks a violating scenario along three
//! axes — graph nodes, fault-plan rules, run horizon — by repeatedly
//! probing strictly smaller candidate scenarios and keeping the first that
//! *still refutes*. The probe re-runs the candidate through the full
//! certificate-verification path, so every accepted step is as trustworthy
//! as the original finding; the shrinker never trades soundness for size.
//!
//! The loop is deterministic: candidates are probed in the order the
//! generator yields them, the first success is taken (greedy descent), and
//! the attempt budget bounds total work. Same inputs, same minimum.

use flm_sim::campaign::ScenarioDims;

use crate::certificate::Certificate;

/// True when `a` is no larger than `b` in every dimension and strictly
/// smaller in at least one — the shrinker's acceptance partial order.
fn strictly_smaller(a: &ScenarioDims, b: &ScenarioDims) -> bool {
    a.nodes <= b.nodes
        && a.rules <= b.rules
        && a.horizon <= b.horizon
        && (a.nodes < b.nodes || a.rules < b.rules || a.horizon < b.horizon)
}

/// The result of a shrink run: the smallest scenario that still refutes,
/// its certificate, and how hard the search worked. Generic over the
/// certificate type so the asynchronous campaign axis shrinks
/// [`crate::refute::AsyncCertificate`]s (schedule length included) through
/// the same greedy loop; `C` defaults to the discrete [`Certificate`].
#[derive(Debug, Clone)]
pub struct ShrinkOutcome<S, C = Certificate> {
    /// The minimized scenario.
    pub scenario: S,
    /// The verified certificate of the minimized scenario.
    pub certificate: C,
    /// Final scenario size.
    pub dims: ScenarioDims,
    /// Probes attempted (including rejected candidates).
    pub attempts: usize,
    /// Shrink steps accepted.
    pub accepted: usize,
}

/// Greedy descent: repeatedly ask `candidates` for strictly smaller
/// variants of the current scenario, probe them in order, and move to the
/// first one `probe` accepts; stop when a full pass yields no improvement
/// or `max_attempts` probes have run.
///
/// `probe`'s contract: return `Some(certificate)` only when the candidate
/// still refutes — verified end to end, and for the same condition as the
/// original, so a shorter horizon cannot trade the violation for a vacuous
/// termination failure. Candidates not strictly smaller than the
/// current best (no larger in any dimension, smaller in one) are skipped
/// without spending an attempt, so generators may over-produce.
pub fn greedy<S: Clone, C>(
    scenario: S,
    certificate: C,
    dims: ScenarioDims,
    candidates: impl Fn(&S) -> Vec<(S, ScenarioDims)>,
    probe: impl Fn(&S) -> Option<C>,
    max_attempts: usize,
) -> ShrinkOutcome<S, C> {
    let mut out = ShrinkOutcome {
        scenario,
        certificate,
        dims,
        attempts: 0,
        accepted: 0,
    };
    'descent: loop {
        for (cand, cand_dims) in candidates(&out.scenario) {
            if out.attempts >= max_attempts {
                break 'descent;
            }
            if !strictly_smaller(&cand_dims, &out.dims) {
                continue;
            }
            out.attempts += 1;
            if let Some(cert) = probe(&cand) {
                out.scenario = cand;
                out.certificate = cert;
                out.dims = cand_dims;
                out.accepted += 1;
                continue 'descent;
            }
        }
        break;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{Condition, Theorem, Violation};
    use flm_graph::builders;
    use flm_sim::RunPolicy;

    fn dummy_cert() -> Certificate {
        Certificate {
            theorem: Theorem::BaNodes,
            protocol: "Dummy".into(),
            base: builders::triangle(),
            f: 1,
            covering: "test".into(),
            chain: Vec::new(),
            policy: RunPolicy::default(),
            violation: Violation {
                condition: Condition::Agreement,
                link: 0,
                evidence: String::new(),
            },
        }
    }

    #[test]
    fn partial_order_requires_componentwise_and_strict() {
        let d = |nodes, rules, horizon| ScenarioDims {
            nodes,
            rules,
            horizon,
        };
        assert!(strictly_smaller(&d(3, 2, 8), &d(4, 2, 8)));
        assert!(strictly_smaller(&d(4, 1, 8), &d(4, 2, 8)));
        assert!(!strictly_smaller(&d(4, 2, 8), &d(4, 2, 8)), "not strict");
        assert!(
            !strictly_smaller(&d(3, 3, 8), &d(4, 2, 8)),
            "trade-offs are not shrinks"
        );
    }

    #[test]
    fn greedy_descends_to_the_probe_floor() {
        // Scenario = a number; candidates halve or decrement it; the probe
        // accepts anything >= 3. Greedy must land exactly on 3.
        let dims = |n: usize| ScenarioDims {
            nodes: n,
            rules: 0,
            horizon: 1,
        };
        let outcome = greedy(
            40usize,
            dummy_cert(),
            dims(40),
            |&n| vec![(n / 2, dims(n / 2)), (n.saturating_sub(1), dims(n - 1))],
            |&n| if n >= 3 { Some(dummy_cert()) } else { None },
            1000,
        );
        assert_eq!(outcome.scenario, 3);
        assert_eq!(outcome.dims.nodes, 3);
        assert!(outcome.accepted >= 4, "40→20→10→5→4→3");
        assert!(outcome.attempts >= outcome.accepted);
    }

    #[test]
    fn greedy_respects_the_attempt_budget() {
        let dims = |n: usize| ScenarioDims {
            nodes: n,
            rules: 0,
            horizon: 1,
        };
        let outcome = greedy(
            1000usize,
            dummy_cert(),
            dims(1000),
            |&n| vec![(n - 1, dims(n - 1))],
            |&n| if n > 0 { Some(dummy_cert()) } else { None },
            5,
        );
        assert_eq!(outcome.attempts, 5);
        assert_eq!(outcome.scenario, 995);
    }
}
