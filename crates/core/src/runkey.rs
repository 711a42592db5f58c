//! Canonical cache keys for the run-reuse engine.
//!
//! A deterministic run is a pure function of its assembly: the graph, which
//! device sits at each node (named via the protocol registry contract — see
//! `flm_sim::runcache`), the wiring, the inputs, the horizon, and the run
//! policy. Each builder below writes exactly that assembly through the
//! [`flm_sim::wire::Field`] impls that encode the same values inside FLMC
//! certificates, so two call sites that would execute the same run produce
//! byte-identical keys and share one execution.
//!
//! The "link" key has one builder, [`crate::certificate::run_link`], which
//! every caller that records or re-executes a chain link goes through: a
//! refute-then-verify sequence in one process runs each link once.

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};
use flm_sim::async_sched::Strategy;
use flm_sim::behavior::EdgeBehavior;
use flm_sim::runcache::RunKey;
use flm_sim::wire::{put_list, Field, Writer};
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
    cov.base().put(&mut w);
    cov.cover().put(&mut w);
    for s in cov.cover().nodes() {
        let g = cov.project(s);
        g.put(&mut w);
        // The lifted wiring: which cover node backs each port (sorted base
        // neighbors — the port order System::assign_lifted uses).
        for t in cov.base().neighbors(g) {
            cov.lift_neighbor(s, t).put(&mut w);
        }
        inputs(s).put(&mut w);
    }
    horizon.put(&mut w);
    policy.put(&mut w);
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
    base.put(&mut w);
    put_list(correct, &mut w);
    put_list(masquerade, &mut w);
    put_list(inputs, &mut w);
    horizon.put(&mut w);
    policy.put(&mut w);
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
    strategy: &Strategy,
    policy: &RunPolicy,
) -> RunKey {
    let mut w = Writer::new();
    w.u8(0); // mode: recorded probe
    w.str(protocol_name);
    g.put(&mut w);
    put_list(inputs, &mut w);
    strategy.put(&mut w);
    policy.put(&mut w);
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
    g.put(&mut w);
    put_list(inputs, &mut w);
    put_list(schedule, &mut w);
    policy.put(&mut w);
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
    g.put(&mut w);
    claim.put(&mut w);
    k.put(&mut w);
    t_eval.put(&mut w);
    RunKey::new("clockring", w.finish())
}
