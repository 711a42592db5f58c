//! The run kernel behind [`crate::System`].
//!
//! [`run`] is the single tick loop every discrete-system execution goes
//! through (strict and contained). It writes the behavior it returns as it
//! goes: each send is pushed onto its directed edge's trace, and each
//! snapshot onto its node's list. Every directed edge is exactly one
//! node's out-port, so every trace grows by one entry per tick, and the
//! inbox of tick `t` is refilled from entry `t − 1` of the in-edges'
//! traces. Ports are resolved once, before the first tick, into flat
//! in/out edge-index tables with a per-node prefix-sum offset table, and
//! all inboxes share one flat buffer.
//!
//! `System::run_reference`, the map-per-delivery loop, remains the
//! differential oracle for this kernel.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use flm_graph::{Graph, NodeId};

use crate::behavior::{DeviceMisbehavior, MisbehaviorKind, NodeBehavior, SystemBehavior};
use crate::device::{snapshot, Payload};
use crate::system::{RunPolicy, Slot, SystemError};
use crate::Tick;

/// The tick loop.
///
/// Byte-identical to [`crate::System::run_reference`] on every observable
/// it shares: trace order, snapshot bytes, and the strict error paths. A
/// contained run adds misbehavior records (tick-major, node-ascending) and
/// quarantine.
pub(crate) fn run(
    graph: &Arc<Graph>,
    slots: &mut [Option<Slot>],
    horizon: u32,
    policy: Option<&RunPolicy>,
) -> Result<SystemBehavior, SystemError> {
    let n = graph.node_count();
    for v in graph.nodes() {
        if slots[v.index()].is_none() {
            return Err(SystemError::Unassigned { node: v });
        }
    }
    if policy.is_some() {
        crate::system::install_quiet_panic_hook();
    }
    // Port resolution: every port of every node is resolved to its receive
    // and send edge index (lex position in `directed_edges`) once, into
    // flat arrays indexed by `port_off[v] + p`. Resolution can only fail
    // for a wiring that is not a bijection onto the node's neighbors,
    // which `assign`/`assign_wired` already reject — the error path keeps
    // that invariant structural for slots assembled some other way. The
    // bijection is what makes every directed edge exactly one out-port.
    let edge_list = graph.directed_edges();
    let e_count = edge_list.len();
    let mut port_off: Vec<u32> = Vec::with_capacity(n + 1);
    port_off.push(0);
    let mut in_edges: Vec<u32> = Vec::with_capacity(e_count);
    let mut out_edges: Vec<u32> = Vec::with_capacity(e_count);
    for v in graph.nodes() {
        let slot = slots[v.index()]
            .as_ref()
            .expect("run is only reached after every node is assigned");
        for &w in slot.wiring() {
            let bad_wire = |_| SystemError::BadWiring {
                node: v,
                reason: format!("port wired to {w}, which is not a neighbor of {v}"),
            };
            in_edges.push(edge_list.binary_search(&(w, v)).map_err(bad_wire)? as u32);
            out_edges.push(edge_list.binary_search(&(v, w)).map_err(bad_wire)? as u32);
        }
        port_off.push(in_edges.len() as u32);
    }
    let mut inbox: Vec<Option<Payload>> = vec![None; in_edges.len()];
    let mut quarantined = vec![false; n];

    // The behavior, written as the run goes: one trace per directed edge
    // (in `directed_edges` order) and one snapshot list per node.
    let mut traces: Vec<Vec<Option<Payload>>> = (0..e_count)
        .map(|_| Vec::with_capacity(horizon as usize))
        .collect();
    let mut snaps: Vec<Vec<Vec<u8>>> = (0..n)
        .map(|_| Vec::with_capacity(horizon as usize))
        .collect();
    let mut misbehavior: Vec<DeviceMisbehavior> = Vec::new();

    for t in 0..horizon {
        let tick = Tick(t);
        // Refill the flat inbox from last tick's entry of each in-edge's
        // trace; every trace holds exactly `t` entries here.
        if t > 0 {
            for (cell, &e) in inbox.iter_mut().zip(in_edges.iter()) {
                *cell = traces[e as usize][t as usize - 1].clone();
            }
        }
        // Step devices and record sends + snapshots.
        for v in graph.nodes() {
            let slot = slots[v.index()]
                .as_mut()
                .expect("run is only reached after every node is assigned");
            let off = port_off[v.index()] as usize;
            let ports = port_off[v.index() + 1] as usize - off;
            let node_inbox = &inbox[off..off + ports];
            let mut incident: Option<MisbehaviorKind> = None;
            let out: Vec<Option<Payload>> = if quarantined[v.index()] {
                vec![None; ports]
            } else {
                let stepped = match policy {
                    None => Ok(slot.device.step(tick, node_inbox)),
                    Some(_) => {
                        let device = &mut slot.device;
                        crate::system::CONTAINING.with(|c| c.set(true));
                        let result =
                            panic::catch_unwind(AssertUnwindSafe(|| device.step(tick, node_inbox)));
                        crate::system::CONTAINING.with(|c| c.set(false));
                        result.map_err(|p| MisbehaviorKind::Panic(crate::system::panic_message(p)))
                    }
                };
                match stepped {
                    Ok(out) if out.len() != ports => {
                        let kind = MisbehaviorKind::PortMismatch {
                            expected: ports,
                            got: out.len(),
                        };
                        if policy.is_none() {
                            return Err(SystemError::PortMismatch {
                                node: v,
                                expected: ports,
                                got: out.len(),
                            });
                        }
                        incident = Some(kind);
                        vec![None; ports]
                    }
                    Ok(out) => {
                        let oversized = policy.and_then(|p| {
                            out.iter().enumerate().find_map(|(port, m)| {
                                m.as_ref()
                                    .filter(|m| m.len() > p.max_payload_bytes)
                                    .map(|m| MisbehaviorKind::OversizedPayload {
                                        port,
                                        len: m.len(),
                                        limit: p.max_payload_bytes,
                                    })
                            })
                        });
                        match oversized {
                            Some(kind) => {
                                incident = Some(kind);
                                vec![None; ports]
                            }
                            None => out,
                        }
                    }
                    Err(kind) => {
                        incident = Some(kind);
                        vec![None; ports]
                    }
                }
            };
            if let Some(kind) = incident {
                misbehavior.push(DeviceMisbehavior {
                    node: v,
                    tick,
                    kind,
                });
                quarantined[v.index()] = true;
            }
            // Each port's send is this tick's entry of its out-edge's trace.
            for (p, payload) in out.into_iter().enumerate() {
                traces[out_edges[off + p] as usize].push(payload);
            }
            // A quarantined device is never touched again — its state may
            // be poisoned mid-panic, so the marker stands in for it.
            snaps[v.index()].push(if quarantined[v.index()] {
                snapshot::undecided(b"quarantined")
            } else {
                slot.device.snapshot()
            });
        }
    }

    let nodes = graph
        .nodes()
        .zip(snaps)
        .map(|(v, snaps)| {
            let slot = slots[v.index()]
                .as_ref()
                .expect("run is only reached after every node is assigned");
            NodeBehavior {
                device_name: slot.device.name().to_string(),
                input: slot.ctx.input,
                snaps,
            }
        })
        .collect();
    // `zip` pairs each directed edge with its trace because both follow
    // the `directed_edges` order.
    let edges: std::collections::BTreeMap<(NodeId, NodeId), Vec<Option<Payload>>> =
        edge_list.into_iter().zip(traces).collect();
    Ok(SystemBehavior::new(
        Arc::clone(graph),
        nodes,
        edges,
        horizon,
        misbehavior,
    ))
}
