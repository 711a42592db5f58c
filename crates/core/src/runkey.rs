//! Canonical cache keys for the run-reuse engine.
//!
//! A deterministic run is a pure function of its assembly: the graph, which
//! device sits at each node (named via the protocol registry contract — see
//! `flm_sim::runcache`), the wiring, the inputs, the horizon, and the run
//! policy. Each builder below serializes exactly that assembly through
//! [`flm_sim::wire::Writer`] — the same canonical encoding the FLMC
//! certificate format uses — so two call sites that would execute the same
//! run produce byte-identical keys and share one execution.
//!
//! The "link" key has one builder, [`crate::certificate::run_link`], which
//! every caller that records or re-executes a chain link goes through: a
//! refute-then-verify sequence in one process runs each link once.

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};
use flm_sim::behavior::{encode_edge_behavior, EdgeBehavior};
use flm_sim::runcache::RunKey;
use flm_sim::wire::Writer;
use flm_sim::{Input, RunPolicy};

use crate::problems::ClockSyncClaim;

/// Key for [`crate::refute::run_cover`]: the covering system's full assembly.
pub(crate) fn cover_key(
    protocol_name: &str,
    cov: &Covering,
    inputs: &dyn Fn(NodeId) -> Input,
    horizon: u32,
    policy: &RunPolicy,
) -> RunKey {
    let mut w = Writer::new();
    w.str(protocol_name);
    w.bytes(&cov.base().to_bytes());
    w.bytes(&cov.cover().to_bytes());
    for s in cov.cover().nodes() {
        let g = cov.project(s);
        w.u32(g.0);
        // The lifted wiring: which cover node backs each port (sorted base
        // neighbors — the port order System::assign_lifted uses).
        for t in cov.base().neighbors(g) {
            w.u32(cov.lift_neighbor(s, t).0);
        }
        inputs(s).encode(&mut w);
    }
    w.u32(horizon);
    policy.encode(&mut w);
    RunKey::new("cover", w.finish())
}

/// Key for [`crate::certificate::run_link`]: correct nodes (protocol
/// devices, their inputs) plus masquerading replayers.
pub(crate) fn link_key(
    protocol_name: &str,
    base: &Graph,
    correct: &[NodeId],
    masquerade: &[(NodeId, Vec<EdgeBehavior>)],
    inputs: &[Input],
    horizon: u32,
    policy: &RunPolicy,
) -> RunKey {
    let mut w = Writer::new();
    w.str(protocol_name);
    w.bytes(&base.to_bytes());
    w.u32(correct.len() as u32);
    for v in correct {
        w.u32(v.0);
    }
    w.u32(masquerade.len() as u32);
    for (v, traces) in masquerade {
        w.u32(v.0);
        w.u32(traces.len() as u32);
        for trace in traces {
            encode_edge_behavior(trace, &mut w);
        }
    }
    w.u32(inputs.len() as u32);
    for &input in inputs {
        input.encode(&mut w);
    }
    w.u32(horizon);
    policy.encode(&mut w);
    RunKey::new("link", w.finish())
}

/// Key for one of the FLP refuter's strategy probes ([`crate::refute::flp_async`]):
/// the assembly plus the strategy that will pick the schedule. Lives in the
/// dedicated `"async"` domain so an asynchronous run can never alias a
/// synchronous one, and carries a mode tag distinguishing it from
/// [`async_replay_key`] entries for the same assembly.
pub(crate) fn async_probe_key(
    protocol_name: &str,
    g: &Graph,
    inputs: &[Input],
    strategy: &flm_sim::async_sched::Strategy,
    policy: &RunPolicy,
) -> RunKey {
    let mut w = Writer::new();
    w.u8(0); // mode: recorded probe
    w.str(protocol_name);
    w.bytes(&g.to_bytes());
    w.u32(inputs.len() as u32);
    for &input in inputs {
        input.encode(&mut w);
    }
    strategy.encode(&mut w);
    policy.encode(&mut w);
    RunKey::new("async", w.finish())
}

/// Key for an [`crate::refute::AsyncCertificate`] schedule replay: the
/// assembly plus the explicit delivery sequence. Same `"async"` domain as
/// [`async_probe_key`], different mode tag.
pub(crate) fn async_replay_key(
    protocol_name: &str,
    g: &Graph,
    inputs: &[Input],
    schedule: &[u32],
    policy: &RunPolicy,
) -> RunKey {
    let mut w = Writer::new();
    w.u8(1); // mode: schedule replay
    w.str(protocol_name);
    w.bytes(&g.to_bytes());
    w.u32(inputs.len() as u32);
    for &input in inputs {
        input.encode(&mut w);
    }
    w.u32(schedule.len() as u32);
    for &e in schedule {
        w.u32(e);
    }
    policy.encode(&mut w);
    RunKey::new("async", w.finish())
}

/// Key for the clock refuters' shifted-ring runs: the claim's rate envelope
/// determines every hardware clock, so (graph, claim, k, t_eval) pins the
/// whole continuous execution.
pub(crate) fn clock_ring_key(
    protocol_name: &str,
    g: &Graph,
    claim: &ClockSyncClaim,
    k: usize,
    t_eval: f64,
) -> RunKey {
    let mut w = Writer::new();
    w.str(protocol_name);
    w.bytes(&g.to_bytes());
    claim.p.encode(&mut w);
    claim.q.encode(&mut w);
    claim.l.encode(&mut w);
    claim.u.encode(&mut w);
    w.f64(claim.alpha);
    w.f64(claim.t_prime);
    w.u32(k as u32);
    w.f64(t_eval);
    RunKey::new("clockring", w.finish())
}
