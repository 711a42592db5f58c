//! The footnote-3 collapse for clock synchronization: Theorem 8's general
//! `n ≤ 3f` case.
//!
//! The paper calls the general case "a simple extension": partition the
//! nodes into classes `a`, `b`, `c` of size at most `f` and run the ring
//! argument with classes in place of nodes. In the §7 construction **all
//! nodes of a class share the same hardware clock** (`q·h^{−j}` depends
//! only on the ring position `j`), which is precisely what makes a clock
//! collapse well-defined: a `CollapsedClockDevice` owns one hardware
//! clock and simulates its whole class against it — fanning events out to
//! the members, carrying intra-class messages via timers (one hardware unit
//! of delay, exactly the simulator's link semantics), and bundling
//! cross-class messages.
//!
//! [`clock_sync_general`] then reduces the `n ≤ 3f` claim to the triangle
//! and lets [`crate::refute::clock_sync`] finish the job.

use std::collections::BTreeSet;

use flm_graph::covering::quotient;
use flm_graph::{Graph, NodeId};
use flm_sim::clock::{ClockAction, ClockDevice, ClockEvent};
use flm_sim::device::Payload;
use flm_sim::wire::{Field, Reader, Writer};
use flm_sim::ClockProtocol;

use crate::problems::ClockSyncClaim;
use crate::refute::{clock_sync, ClockCertificate, RefuteError};

/// A clock protocol on the quotient graph whose devices simulate whole
/// classes of an inner clock protocol's devices.
pub struct CollapsedClock<P> {
    inner: P,
    base: Graph,
    classes: Vec<BTreeSet<NodeId>>,
    quotient_graph: Graph,
}

impl<P: ClockProtocol> CollapsedClock<P> {
    /// Collapses `inner` (written for `base`) along `classes`.
    ///
    /// # Errors
    ///
    /// Returns the quotient construction's error when `classes` is not a
    /// partition of `base`'s nodes.
    pub fn new(
        inner: P,
        base: &Graph,
        classes: Vec<BTreeSet<NodeId>>,
    ) -> Result<Self, flm_graph::GraphError> {
        let (quotient_graph, _) = quotient(base, &classes)?;
        Ok(CollapsedClock {
            inner,
            base: base.clone(),
            classes,
            quotient_graph,
        })
    }

    /// The quotient graph the collapsed protocol is written for.
    pub fn quotient_graph(&self) -> &Graph {
        &self.quotient_graph
    }
}

impl<P: ClockProtocol> ClockProtocol for CollapsedClock<P> {
    fn name(&self) -> String {
        format!(
            "CollapsedClock({}, {} classes)",
            self.inner.name(),
            self.classes.len()
        )
    }

    fn device(&self, g: &Graph, v: NodeId) -> Box<dyn ClockDevice> {
        assert_eq!(
            g, &self.quotient_graph,
            "collapsed clock devices are written for the quotient graph"
        );
        let members: Vec<NodeId> = self.classes[v.index()].iter().copied().collect();
        let devices: Vec<Box<dyn ClockDevice>> = members
            .iter()
            .map(|&m| self.inner.device(&self.base, m))
            .collect();
        Box::new(CollapsedClockDevice::new(
            self.base.clone(),
            self.classes.clone(),
            v,
            members,
            devices,
        ))
    }
}

/// Reserved timer-id space: ids at or above this belong to the collapse
/// machinery (intra-class deliveries and forwarded member timers).
const TIMER_BASE: u32 = 1 << 16;

/// What a collapse-machinery timer stands for.
enum PendingTimer {
    /// Deliver `payload` to member `mi` on its base port `port`.
    Internal {
        mi: usize,
        port: usize,
        payload: Payload,
    },
    /// Fire member `mi`'s own timer `id`.
    Member { mi: usize, id: u32 },
}

/// A cross-class message on an outer link: the base-graph sender and
/// receiver, then the member's payload.
struct Cross {
    src: NodeId,
    dst: NodeId,
    body: Payload,
}

flm_sim::wire_schema! {
    struct Cross { src, dst, body }
}

/// One collapsed clock node: a whole class simulated against one clock.
struct CollapsedClockDevice {
    base: Graph,
    class_of: Vec<usize>,
    me: usize,
    members: Vec<NodeId>,
    devices: Vec<Box<dyn ClockDevice>>,
    /// Collapse-machinery timers by id offset from [`TIMER_BASE`].
    pending: Vec<Option<PendingTimer>>,
    /// Outer port → neighbor class.
    port_class: Vec<usize>,
}

impl CollapsedClockDevice {
    fn new(
        base: Graph,
        classes: Vec<BTreeSet<NodeId>>,
        me: NodeId,
        members: Vec<NodeId>,
        devices: Vec<Box<dyn ClockDevice>>,
    ) -> Self {
        let mut class_of = vec![0usize; base.node_count()];
        for (i, class) in classes.iter().enumerate() {
            for &v in class {
                class_of[v.index()] = i;
            }
        }
        CollapsedClockDevice {
            base,
            class_of,
            me: me.index(),
            members,
            devices,
            pending: Vec::new(),
            port_class: Vec::new(),
        }
    }

    /// Routes one member's actions: intra-class sends become delayed
    /// internal timers, member timers are remapped, cross-class sends are
    /// wrapped and forwarded on the right outer port.
    fn route(&mut self, mi: usize, actions: Vec<ClockAction>) -> Vec<ClockAction> {
        let member = self.members[mi];
        let ports: Vec<NodeId> = self.base.neighbors(member).collect();
        let mut out = Vec::new();
        for action in actions {
            match action {
                ClockAction::Send { port, payload } => {
                    out.extend(self.route_send(mi, ports[port], payload, 1.0));
                }
                ClockAction::SendWithDelay {
                    port,
                    payload,
                    hw_delay,
                } => {
                    out.extend(self.route_send(mi, ports[port], payload, hw_delay));
                }
                ClockAction::SetTimer { id, hw_delay } => {
                    let slot = self.stash(PendingTimer::Member { mi, id });
                    out.push(ClockAction::SetTimer { id: slot, hw_delay });
                }
            }
        }
        out
    }

    fn route_send(
        &mut self,
        mi: usize,
        dst: NodeId,
        payload: Payload,
        hw_delay: f64,
    ) -> Vec<ClockAction> {
        let dst_class = self.class_of[dst.index()];
        if dst_class == self.me {
            // Intra-class: deliver after the link delay via a timer. The
            // destination member's port index for the sender:
            let sender = self.members[mi];
            let dst_mi = self
                .members
                .iter()
                .position(|&m| m == dst)
                .expect("dst_class == me, so dst appears in this class's member list");
            let port =
                self.base.neighbors(dst).position(|w| w == sender).expect(
                    "sender addressed dst over a base edge, so dst lists sender as a neighbor",
                );
            let slot = self.stash(PendingTimer::Internal {
                mi: dst_mi,
                port,
                payload,
            });
            vec![ClockAction::SetTimer { id: slot, hw_delay }]
        } else {
            // Cross-class: wrap with base endpoints and forward. Delay is
            // carried by the outer link (one hw unit) — member-chosen
            // delays shorter than a unit are rounded up to it, which only
            // *strengthens* the bounded-delay side of the argument.
            let outer_port = self
                .port_class
                .iter()
                .position(|&c| c == dst_class)
                .expect("cross-class base edges project to quotient edges by construction");
            let mut w = Writer::new();
            Cross {
                src: self.members[mi],
                dst,
                body: payload,
            }
            .put(&mut w);
            vec![ClockAction::Send {
                port: outer_port,
                payload: w.finish().into(),
            }]
        }
    }

    fn stash(&mut self, t: PendingTimer) -> u32 {
        if let Some(free) = self.pending.iter().position(Option::is_none) {
            self.pending[free] = Some(t);
            TIMER_BASE + free as u32
        } else {
            self.pending.push(Some(t));
            TIMER_BASE + (self.pending.len() - 1) as u32
        }
    }
}

impl ClockDevice for CollapsedClockDevice {
    fn name(&self) -> &'static str {
        "CollapsedClock"
    }

    fn init(&mut self, ports: usize) {
        // Outer ports are the quotient node's sorted neighbor classes;
        // reconstruct them from the class ids adjacent to ours.
        let mut neighbor_classes: BTreeSet<usize> = BTreeSet::new();
        for &member in &self.members {
            for w in self.base.neighbors(member) {
                let c = self.class_of[w.index()];
                if c != self.me {
                    neighbor_classes.insert(c);
                }
            }
        }
        self.port_class = neighbor_classes.into_iter().collect();
        assert_eq!(
            self.port_class.len(),
            ports,
            "outer port count must match the quotient degree"
        );
        for (mi, device) in self.devices.iter_mut().enumerate() {
            device.init(self.base.degree(self.members[mi]));
        }
    }

    fn on_event(&mut self, hw: f64, event: ClockEvent) -> Vec<ClockAction> {
        match event {
            ClockEvent::Start => {
                let mut out = Vec::new();
                for mi in 0..self.devices.len() {
                    let actions = self.devices[mi].on_event(hw, ClockEvent::Start);
                    out.extend(self.route(mi, actions));
                }
                out
            }
            ClockEvent::Message { port: _, payload } => {
                let Ok(Cross { src, dst, body }) =
                    Cross::get(&mut Reader::new(&payload), "cross-class message")
                else {
                    return Vec::new(); // Byzantine garbage from outside
                };
                if src.index() >= self.base.node_count()
                    || dst.index() >= self.base.node_count()
                    || self.class_of[dst.index()] != self.me
                    || !self.base.has_link(src, dst)
                {
                    return Vec::new();
                }
                let Some(mi) = self.members.iter().position(|&m| m == dst) else {
                    return Vec::new();
                };
                let Some(member_port) = self.base.neighbors(dst).position(|w| w == src) else {
                    return Vec::new();
                };
                let actions = self.devices[mi].on_event(
                    hw,
                    ClockEvent::Message {
                        port: member_port,
                        payload: body,
                    },
                );
                self.route(mi, actions)
            }
            ClockEvent::Timer { id } if id >= TIMER_BASE => {
                let slot = (id - TIMER_BASE) as usize;
                let Some(pending) = self.pending.get_mut(slot).and_then(Option::take) else {
                    return Vec::new();
                };
                match pending {
                    PendingTimer::Internal { mi, port, payload } => {
                        let actions =
                            self.devices[mi].on_event(hw, ClockEvent::Message { port, payload });
                        self.route(mi, actions)
                    }
                    PendingTimer::Member { mi, id } => {
                        let actions = self.devices[mi].on_event(hw, ClockEvent::Timer { id });
                        self.route(mi, actions)
                    }
                }
            }
            ClockEvent::Timer { .. } => Vec::new(),
        }
    }

    fn logical(&self, hw: f64) -> f64 {
        // The class's logical clock: its first member's. The agreement and
        // validity conditions quantify over all correct nodes; for the
        // reduction it suffices that each class exposes *a* member's clock
        // (if members within a class diverge, the inner protocol already
        // violates agreement on the base graph).
        self.devices
            .first()
            .map(|d| d.logical(hw))
            .unwrap_or_default()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for d in &self.devices {
            let s = d.snapshot();
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(&s);
        }
        out
    }
}

/// Theorem 8 for general `n ≤ 3f`: collapse the classes (which share
/// hardware clocks in the §7 construction) and refute on the triangle.
///
/// # Errors
///
/// [`RefuteError::GraphIsAdequate`] when `n ≥ 3f + 1`;
/// [`RefuteError::BadGraph`] when the partition does not quotient to the
/// triangle; otherwise see [`clock_sync`].
pub fn clock_sync_general<P: ClockProtocol>(
    protocol: P,
    g: &Graph,
    f: usize,
    claim: &ClockSyncClaim,
) -> Result<(ClockCertificate, CollapsedClock<P>), RefuteError> {
    let classes =
        flm_graph::covering::node_bound_partition(g.node_count(), f).map_err(|e| match e {
            flm_graph::GraphError::BadParameter { reason } => {
                RefuteError::GraphIsAdequate { reason }
            }
            other => RefuteError::Graph(other),
        })?;
    let collapsed = CollapsedClock::new(protocol, g, classes.to_vec())?;
    if collapsed.quotient_graph() != &flm_graph::builders::triangle() {
        return Err(RefuteError::BadGraph {
            reason: "the node-bound partition does not quotient to the triangle".into(),
        });
    }
    let tri = flm_graph::builders::triangle();
    let cert = clock_sync(&collapsed, &tri, 1, claim)?;
    Ok((cert, collapsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;
    use flm_protocols::clock_sync::{AveragingClockSync, TrivialClockSync};
    use flm_sim::clock::TimeFn;

    fn claim() -> ClockSyncClaim {
        ClockSyncClaim {
            p: TimeFn::identity(),
            q: TimeFn::linear(2.0),
            l: TimeFn::identity(),
            u: TimeFn::affine(2.0, 8.0),
            alpha: 2.0,
            t_prime: 1.0,
        }
    }

    #[test]
    fn collapsed_trivial_sync_falls_on_k6_f2() {
        let proto = TrivialClockSync {
            l: TimeFn::identity(),
        };
        let (cert, collapsed) =
            clock_sync_general(proto, &builders::complete(6), 2, &claim()).unwrap();
        assert!(cert.k >= 4);
        cert.verify(&collapsed).unwrap();
    }

    #[test]
    fn collapsed_averaging_sync_falls_on_k5_f2() {
        let proto = AveragingClockSync {
            l: TimeFn::identity(),
            period: 2.0,
        };
        let (cert, collapsed) =
            clock_sync_general(proto, &builders::complete(5), 2, &claim()).unwrap();
        cert.verify(&collapsed).unwrap();
    }

    #[test]
    fn clock_collapse_declines_adequate_graphs() {
        let proto = TrivialClockSync {
            l: TimeFn::identity(),
        };
        assert!(matches!(
            clock_sync_general(proto, &builders::complete(7), 2, &claim()),
            Err(RefuteError::GraphIsAdequate { .. })
        ));
    }
}
