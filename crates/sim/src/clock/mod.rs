//! Continuous-time simulation for clock synchronization (§7).
//!
//! Nodes here have *hardware clocks*: increasing invertible functions of
//! real time ([`TimeFn`]). The paper's key modeling assumption is that
//! devices have **no way to observe real time other than their hardware
//! clock** — every time-dependent aspect of the system is a function of
//! clock states. This module enforces that structurally:
//!
//! * a [`ClockDevice`] is only ever told its current *hardware* clock
//!   reading, never real time;
//! * timers are set in hardware-clock units;
//! * transmission delay is one unit of the **sender's hardware clock** — a
//!   function of clock states, as required.
//!
//! Under these rules the **Scaling axiom** holds by construction: replacing
//! every clock `D` by `D ∘ h` replays the identical device-event sequence at
//! real times mapped through `h⁻¹` (`flm-core::axioms` verifies this on
//! concrete runs).

mod timefn;

pub use timefn::TimeFn;

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};

use crate::device::Payload;

/// An occurrence a clock device reacts to.
#[derive(Debug, Clone, PartialEq)]
pub enum ClockEvent {
    /// The system started (delivered to every node at real time 0).
    Start,
    /// A message arrived on `port`.
    Message {
        /// The receiving port.
        port: usize,
        /// The payload.
        payload: Payload,
    },
    /// A timer set earlier by this device expired.
    Timer {
        /// The id the device chose when setting the timer.
        id: u32,
    },
}

impl ClockEvent {
    /// Canonical encoding for behavior logs. Write-only and hand-written
    /// (DESIGN §6c): the port travels as a `u32`, where a `usize` schema
    /// field would write a `u64`.
    fn encode(&self) -> Vec<u8> {
        use crate::wire::Writer;
        let mut w = Writer::new();
        match self {
            ClockEvent::Start => {
                w.u8(0);
            }
            ClockEvent::Message { port, payload } => {
                let port =
                    u32::try_from(*port).expect("a port indexes a neighbor of a u32 node id");
                w.u8(1).u32(port).bytes(payload);
            }
            ClockEvent::Timer { id } => {
                w.u8(2).u32(*id);
            }
        }
        w.finish()
    }
}

/// An action a clock device takes in response to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ClockAction {
    /// Send `payload` on `port` now. It arrives one unit of the sender's
    /// hardware clock later.
    Send {
        /// The sending port.
        port: usize,
        /// The payload.
        payload: Payload,
    },
    /// Send `payload` on `port` with a **sender-chosen** delay of
    /// `hw_delay` units of the sender's hardware clock (any positive
    /// value, arbitrarily small).
    ///
    /// This action deliberately *breaks the Bounded-Delay Locality axiom*:
    /// with it, information can outrun any fixed per-hop bound. It exists
    /// to reproduce the paper's §4 sensitivity remark — weak agreement and
    /// the firing squad become solvable when transmission delay has no
    /// positive lower bound (see `flm-protocols`' fast weak agreement) —
    /// and must not be used by devices subject to Theorems 2 and 4.
    SendWithDelay {
        /// The sending port.
        port: usize,
        /// The payload.
        payload: Payload,
        /// Hardware-clock delay; must be positive (may be tiny).
        hw_delay: f64,
    },
    /// Wake up `hw_delay` units of the local hardware clock from now.
    SetTimer {
        /// Identifier echoed back in [`ClockEvent::Timer`].
        id: u32,
        /// Hardware-clock delay; must be positive.
        hw_delay: f64,
    },
}

/// A deterministic event-driven device that can observe time only through
/// its hardware clock.
pub trait ClockDevice {
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Called once before the run with the number of ports.
    fn init(&mut self, ports: usize);

    /// Reacts to `event` at hardware-clock reading `hw`.
    fn on_event(&mut self, hw: f64, event: ClockEvent) -> Vec<ClockAction>;

    /// The logical clock value as a function of the current state and the
    /// hardware-clock reading — the paper's `C_i(E_i(t))`.
    fn logical(&self, hw: f64) -> f64;

    /// Canonical snapshot of the device state (for behavior comparison).
    fn snapshot(&self) -> Vec<u8>;
}

/// One recorded transmission on a directed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct SendRecord {
    /// Real time the message left the sender.
    pub sent: f64,
    /// Real time it arrived at the receiver.
    pub arrived: f64,
    /// The payload.
    pub payload: Payload,
}

/// One entry in a node's event log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Real time of the event.
    pub time: f64,
    /// Canonical encoding of the event.
    pub kind: Vec<u8>,
    /// Device snapshot after handling it.
    pub snap: Vec<u8>,
}

/// The recorded behavior of a clock-system run.
#[derive(Debug, Clone)]
pub struct ClockBehavior {
    graph: Graph,
    /// The probe times that were sampled, in increasing order.
    pub probes: Vec<f64>,
    /// `logical[i][v]` = node `v`'s logical clock at probe `i`.
    pub logical: Vec<Vec<f64>>,
    /// Message records per directed edge.
    pub sends: BTreeMap<(NodeId, NodeId), Vec<SendRecord>>,
    /// Per-node event logs.
    pub node_logs: Vec<Vec<EventRecord>>,
}

impl ClockBehavior {
    /// The graph the system ran on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Logical clock of `v` at probe index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `v` is out of range.
    pub fn logical_at(&self, i: usize, v: NodeId) -> f64 {
        self.logical[i][v.index()]
    }

    /// The send records of the directed edge `(u, v)` (empty if no messages
    /// were sent on it).
    pub fn edge_sends(&self, u: NodeId, v: NodeId) -> &[SendRecord] {
        self.sends.get(&(u, v)).map_or(&[], Vec::as_slice)
    }

    /// Approximate heap footprint in bytes (probes, logical-clock tables,
    /// send records, and event logs); see
    /// [`crate::behavior::SystemBehavior::approx_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        let mut total = (self.probes.len() as u64) * 8;
        total += self
            .logical
            .iter()
            .map(|row| row.len() as u64 * 8)
            .sum::<u64>();
        for records in self.sends.values() {
            total += records
                .iter()
                .map(|r| 16 + r.payload.len() as u64 + 8)
                .sum::<u64>();
        }
        for log in &self.node_logs {
            total += log
                .iter()
                .map(|e| 8 + (e.kind.len() + e.snap.len()) as u64)
                .sum::<u64>();
        }
        total
    }
}

struct ClockSlot {
    device: Box<dyn ClockDevice>,
    clock: TimeFn,
    wiring: Vec<NodeId>,
}

/// A graph with a clock device and a hardware clock at every node.
pub struct ClockSystem {
    graph: Graph,
    slots: Vec<Option<ClockSlot>>,
}

/// Queue entry ordered by (time, sequence).
struct QueuedEvent {
    time: f64,
    seq: u64,
    node: NodeId,
    event: ClockEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ClockSystem {
    /// Creates a clock system over `graph` with nothing assigned yet.
    pub fn new(graph: Graph) -> Self {
        let n = graph.node_count();
        ClockSystem {
            graph,
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Assigns `device` with hardware clock `clock` to node `v`, ports wired
    /// to `v`'s sorted neighbors.
    pub fn assign(&mut self, v: NodeId, mut device: Box<dyn ClockDevice>, clock: TimeFn) {
        let wiring: Vec<NodeId> = self.graph.neighbors(v).collect();
        device.init(wiring.len());
        self.slots[v.index()] = Some(ClockSlot {
            device,
            clock,
            wiring,
        });
    }

    /// Assigns a device to cover node `s`, wiring ports along the covering's
    /// edge lifts (port order = sorted base neighbors of φ(s)).
    ///
    /// # Panics
    ///
    /// Panics if this system's graph is not the covering's cover graph.
    pub fn assign_lifted(
        &mut self,
        cov: &Covering,
        s: NodeId,
        mut device: Box<dyn ClockDevice>,
        clock: TimeFn,
    ) {
        assert_eq!(
            &self.graph,
            cov.cover(),
            "system graph must be the covering's cover graph"
        );
        let base = cov.project(s);
        let wiring: Vec<NodeId> = cov
            .base()
            .neighbors(base)
            .map(|t| cov.lift_neighbor(s, t))
            .collect();
        device.init(wiring.len());
        self.slots[s.index()] = Some(ClockSlot {
            device,
            clock,
            wiring,
        });
    }

    /// Runs until real time `horizon`, sampling every node's logical clock
    /// at each time in `probes` (which must be sorted increasing and lie
    /// within `[0, horizon]`).
    ///
    /// # Panics
    ///
    /// Panics if any node is unassigned, probes are unsorted, or a device
    /// sets a non-positive timer.
    pub fn run(mut self, horizon: f64, probes: &[f64]) -> ClockBehavior {
        let n = self.graph.node_count();
        for v in self.graph.nodes() {
            assert!(self.slots[v.index()].is_some(), "no device assigned to {v}");
        }
        assert!(
            probes.windows(2).all(|w| w[0] <= w[1]),
            "probes must be sorted"
        );

        let mut queue = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        for v in self.graph.nodes() {
            queue.push(QueuedEvent {
                time: 0.0,
                seq,
                node: v,
                event: ClockEvent::Start,
            });
            seq += 1;
        }

        let mut sends: BTreeMap<(NodeId, NodeId), Vec<SendRecord>> = BTreeMap::new();
        let mut node_logs: Vec<Vec<EventRecord>> = vec![Vec::new(); n];
        let mut logical: Vec<Vec<f64>> = Vec::with_capacity(probes.len());
        let mut probe_idx = 0;

        let sample_all = |slots: &[Option<ClockSlot>], t: f64, out: &mut Vec<Vec<f64>>| {
            let row = slots
                .iter()
                .map(|s| {
                    let s = s
                        .as_ref()
                        .expect("clock runs start only after every node is assigned");
                    s.device.logical(s.clock.eval(t))
                })
                .collect();
            out.push(row);
        };

        while let Some(ev) = queue.pop() {
            if ev.time > horizon {
                break;
            }
            // Sample probes that fall strictly before this event.
            while probe_idx < probes.len() && probes[probe_idx] < ev.time {
                sample_all(&self.slots, probes[probe_idx], &mut logical);
                probe_idx += 1;
            }
            let v = ev.node;
            // Compute everything needing the slot immutably first.
            let (hw, actions) = {
                let slot = self.slots[v.index()]
                    .as_mut()
                    .expect("clock runs start only after every node is assigned");
                let hw = slot.clock.eval(ev.time);
                let actions = slot.device.on_event(hw, ev.event.clone());
                (hw, actions)
            };
            let slot = self.slots[v.index()]
                .as_ref()
                .expect("clock runs start only after every node is assigned");
            node_logs[v.index()].push(EventRecord {
                time: ev.time,
                kind: ev.event.encode(),
                snap: slot.device.snapshot(),
            });
            for action in actions {
                // Normalize the two send forms to (port, payload, delay).
                let send = match action {
                    ClockAction::Send { port, payload } => Some((port, payload, 1.0)),
                    ClockAction::SendWithDelay {
                        port,
                        payload,
                        hw_delay,
                    } => {
                        assert!(
                            hw_delay > 0.0,
                            "send delay must be positive, got {hw_delay}"
                        );
                        Some((port, payload, hw_delay))
                    }
                    ClockAction::SetTimer { id, hw_delay } => {
                        assert!(
                            hw_delay > 0.0,
                            "timer delay must be positive, got {hw_delay}"
                        );
                        let target = slot.clock.eval_inverse(hw + hw_delay);
                        queue.push(QueuedEvent {
                            time: target,
                            seq,
                            node: v,
                            event: ClockEvent::Timer { id },
                        });
                        seq += 1;
                        None
                    }
                };
                if let Some((port, payload, delay)) = send {
                    let w = slot.wiring[port];
                    let arrival = slot.clock.eval_inverse(hw + delay);
                    debug_assert!(arrival > ev.time, "clocks must increase");
                    sends.entry((v, w)).or_default().push(SendRecord {
                        sent: ev.time,
                        arrived: arrival,
                        payload: payload.clone(),
                    });
                    // The receiver's port index for this physical edge.
                    let recv_slot = self.slots[w.index()]
                        .as_ref()
                        .expect("clock runs start only after every node is assigned");
                    let rport =
                        recv_slot.wiring.iter().position(|&x| x == v).expect(
                            "graph edges are symmetric, so the receiver wires the sender back",
                        );
                    queue.push(QueuedEvent {
                        time: arrival,
                        seq,
                        node: w,
                        event: ClockEvent::Message {
                            port: rport,
                            payload,
                        },
                    });
                    seq += 1;
                }
            }
        }
        // Remaining probes (after the last event).
        while probe_idx < probes.len() && probes[probe_idx] <= horizon {
            sample_all(&self.slots, probes[probe_idx], &mut logical);
            probe_idx += 1;
        }

        ClockBehavior {
            graph: self.graph,
            probes: probes[..probe_idx].to_vec(),
            logical,
            sends,
            node_logs,
        }
    }
}

impl fmt::Debug for ClockSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClockSystem(n={}, assigned={})",
            self.graph.node_count(),
            self.slots.iter().filter(|s| s.is_some()).count()
        )
    }
}

/// The Fault axiom in clock land: a faulty device that reproduces prescribed
/// *arrival times* (in real time) on each outedge.
///
/// Given its own hardware clock and the desired arrival schedule, the
/// constructor works out when (in hardware time) to hand each message to the
/// link so that it lands exactly on schedule under the one-hardware-unit
/// transmission delay.
pub struct ClockReplayDevice {
    /// Per timer id: (port, payload) to send when it fires.
    planned: Vec<(usize, Payload)>,
    /// Per timer id: hardware time at which to send.
    hw_times: Vec<f64>,
}

impl ClockReplayDevice {
    /// Plans a replay for a node whose hardware clock is `own_clock`:
    /// `arrivals[p]` lists `(real_arrival_time, payload)` for port `p`.
    ///
    /// # Panics
    ///
    /// Panics if any arrival is scheduled earlier than one hardware unit
    /// after the start (physically unreachable).
    pub fn for_arrivals(own_clock: &TimeFn, arrivals: &[Vec<(f64, Payload)>]) -> Self {
        let start_hw = own_clock.eval(0.0);
        let mut planned = Vec::new();
        let mut hw_times = Vec::new();
        for (port, list) in arrivals.iter().enumerate() {
            for (arrive, payload) in list {
                let hw_send = own_clock.eval(*arrive) - 1.0;
                assert!(
                    hw_send > start_hw,
                    "arrival at {arrive} is unreachable for this clock"
                );
                planned.push((port, payload.clone()));
                hw_times.push(hw_send);
            }
        }
        ClockReplayDevice { planned, hw_times }
    }
}

impl ClockDevice for ClockReplayDevice {
    fn name(&self) -> &'static str {
        "F"
    }

    fn init(&mut self, _ports: usize) {}

    fn on_event(&mut self, hw: f64, event: ClockEvent) -> Vec<ClockAction> {
        match event {
            ClockEvent::Start => self
                .hw_times
                .iter()
                .enumerate()
                .map(|(i, &t)| ClockAction::SetTimer {
                    id: i as u32,
                    hw_delay: t - hw,
                })
                .collect(),
            ClockEvent::Timer { id } => {
                let (port, payload) = self.planned[id as usize].clone();
                vec![ClockAction::Send { port, payload }]
            }
            ClockEvent::Message { .. } => Vec::new(),
        }
    }

    fn logical(&self, _hw: f64) -> f64 {
        0.0 // a faulty node's logical clock is unconstrained
    }

    fn snapshot(&self) -> Vec<u8> {
        b"replay".to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_graph::builders;

    /// Logical clock = hardware clock; pings every 2 hw units.
    struct Ping {
        pings: u32,
        heard: u32,
    }

    impl ClockDevice for Ping {
        fn name(&self) -> &'static str {
            "Ping"
        }
        fn init(&mut self, _ports: usize) {}
        fn on_event(&mut self, _hw: f64, event: ClockEvent) -> Vec<ClockAction> {
            match event {
                ClockEvent::Start | ClockEvent::Timer { .. } => {
                    self.pings += 1;
                    vec![
                        ClockAction::Send {
                            port: 0,
                            payload: vec![self.pings as u8].into(),
                        },
                        ClockAction::SetTimer {
                            id: 0,
                            hw_delay: 2.0,
                        },
                    ]
                }
                ClockEvent::Message { .. } => {
                    self.heard += 1;
                    Vec::new()
                }
            }
        }
        fn logical(&self, hw: f64) -> f64 {
            hw
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![self.pings as u8, self.heard as u8]
        }
    }

    fn ping() -> Box<dyn ClockDevice> {
        Box::new(Ping { pings: 0, heard: 0 })
    }

    #[test]
    fn messages_take_one_sender_hw_unit() {
        let g = builders::path(2);
        let mut sys = ClockSystem::new(g);
        // Node 0 runs at double speed: its hw unit is 0.5 real time.
        sys.assign(NodeId(0), ping(), TimeFn::linear(2.0));
        sys.assign(NodeId(1), ping(), TimeFn::identity());
        let b = sys.run(10.0, &[]);
        let fast = b.edge_sends(NodeId(0), NodeId(1));
        assert!(!fast.is_empty());
        for s in fast {
            assert!((s.arrived - s.sent - 0.5).abs() < 1e-12);
        }
        let slow = b.edge_sends(NodeId(1), NodeId(0));
        for s in slow {
            assert!((s.arrived - s.sent - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn probes_sample_logical_clocks() {
        let g = builders::path(2);
        let mut sys = ClockSystem::new(g);
        sys.assign(NodeId(0), ping(), TimeFn::linear(2.0));
        sys.assign(NodeId(1), ping(), TimeFn::identity());
        let b = sys.run(5.0, &[1.0, 4.0]);
        assert_eq!(b.probes, vec![1.0, 4.0]);
        assert_eq!(b.logical_at(0, NodeId(0)), 2.0); // hw = 2t
        assert_eq!(b.logical_at(0, NodeId(1)), 1.0);
        assert_eq!(b.logical_at(1, NodeId(0)), 8.0);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sys = ClockSystem::new(builders::path(2));
            sys.assign(NodeId(0), ping(), TimeFn::linear(1.5));
            sys.assign(NodeId(1), ping(), TimeFn::identity());
            sys.run(8.0, &[2.0, 6.0])
        };
        let (a, b) = (run(), run());
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.logical, b.logical);
        assert_eq!(a.node_logs, b.node_logs);
    }

    #[test]
    fn scaling_axiom_on_a_concrete_run() {
        // Behavior of the scaled system = scaled behavior: run with clocks
        // (D₀, D₁) and with (D₀∘h, D₁∘h); event real times map through h⁻¹.
        let h = TimeFn::linear(2.0);
        let run = |scale: bool| {
            let mk = |c: TimeFn| if scale { c.compose(&h) } else { c };
            let mut sys = ClockSystem::new(builders::path(2));
            sys.assign(NodeId(0), ping(), mk(TimeFn::linear(3.0)));
            sys.assign(NodeId(1), ping(), mk(TimeFn::identity()));
            // Horizon in real time shrinks by h⁻¹ when clocks speed up.
            let horizon = if scale { 6.0 } else { 12.0 };
            sys.run(horizon, &[])
        };
        let plain = run(false);
        let scaled = run(true);
        for (edge, recs) in &plain.sends {
            let srecs = &scaled.sends[edge];
            assert_eq!(recs.len(), srecs.len());
            for (r, s) in recs.iter().zip(srecs) {
                assert!((h.eval(s.sent) - r.sent).abs() < 1e-9);
                assert!((h.eval(s.arrived) - r.arrived).abs() < 1e-9);
                assert_eq!(r.payload, s.payload);
            }
        }
    }

    #[test]
    fn replay_hits_prescribed_arrivals() {
        let g = builders::path(2);
        let clock = TimeFn::linear(2.0);
        let replay = ClockReplayDevice::for_arrivals(
            &clock,
            &[vec![(1.0, vec![7].into()), (3.5, vec![8].into())]],
        );
        let mut sys = ClockSystem::new(g);
        sys.assign(NodeId(0), Box::new(replay), clock);
        sys.assign(NodeId(1), ping(), TimeFn::identity());
        let b = sys.run(5.0, &[]);
        let recs = b.edge_sends(NodeId(0), NodeId(1));
        assert_eq!(recs.len(), 2);
        assert!((recs[0].arrived - 1.0).abs() < 1e-9);
        assert_eq!(recs[0].payload, vec![7].into());
        assert!((recs[1].arrived - 3.5).abs() < 1e-9);
    }
}
