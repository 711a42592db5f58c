//! Behaviors and scenarios: the observables of the FLM model.
//!
//! A *system behavior* (§2) is a tuple containing a behavior for every node
//! and edge. Here a node behavior is its per-tick snapshot trace (plus its
//! device name and input, which the paper carries in the system assignment),
//! and an edge behavior is the per-tick payload trace on one directed edge.
//!
//! A *scenario* is the restriction of a system behavior to a subgraph: the
//! node behaviors inside, the internal edge behaviors, and the inedge-border
//! behaviors. The Locality axiom says scenarios with identical devices,
//! inputs, and inedge borders are identical — and the refuters exploit
//! exactly that, matching scenarios extracted from a covering-graph run
//! against scenarios of correct base-graph runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use flm_graph::{Graph, NodeId};

use crate::device::{snapshot, Decision, Input, Payload};
use crate::Tick;

/// The trace of one directed edge: the payload sent at each tick (`None` is
/// observable silence). On the wire it is the `Vec<Option<Payload>>`
/// [`crate::wire::Field`]: a tick count, then `0` or `1` plus the
/// length-prefixed bytes per tick.
pub type EdgeBehavior = Vec<Option<Payload>>;

/// How a device violated its contract during a contained run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MisbehaviorKind {
    /// The device panicked inside `step`; the payload is the panic message.
    Panic(String),
    /// The device returned the wrong number of outputs from `step`.
    PortMismatch {
        /// Number of ports the device was wired to.
        expected: usize,
        /// Number of outputs it actually returned.
        got: usize,
    },
    /// The device emitted a payload larger than the run policy allows.
    OversizedPayload {
        /// Index of the offending port.
        port: usize,
        /// Size of the payload in bytes.
        len: usize,
        /// The policy's per-payload limit.
        limit: usize,
    },
}

impl fmt::Display for MisbehaviorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MisbehaviorKind::Panic(msg) => write!(f, "panicked: {msg}"),
            MisbehaviorKind::PortMismatch { expected, got } => {
                write!(f, "returned {got} outputs for {expected} ports")
            }
            MisbehaviorKind::OversizedPayload { port, len, limit } => {
                write!(f, "sent {len} B on port {port} (limit {limit} B)")
            }
        }
    }
}

/// One recorded incident from a contained run: a node stepped outside its
/// contract at a tick. The run loop quarantines the node (silent, frozen
/// snapshot) from the incident on, so misbehavior never propagates — it is
/// *evidence*, available to degradation policies that reclassify the node
/// as Byzantine-faulty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceMisbehavior {
    /// The misbehaving node.
    pub node: NodeId,
    /// The tick of the first incident.
    pub tick: Tick,
    /// What the device did.
    pub kind: MisbehaviorKind,
}

impl fmt::Display for DeviceMisbehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at tick {}: {}", self.node, self.tick.0, self.kind)
    }
}

// An incident travels as its node, tick, and kind (a tag byte, then the
// kind's fields; `usize` fields as `u64`), all in the container's context.
crate::wire_schema! {
    struct DeviceMisbehavior { node, tick, kind }
}

crate::wire_schema! {
    enum MisbehaviorKind {
        Panic(message) = 0,
        PortMismatch { expected, got } = 1,
        OversizedPayload { port, len, limit } = 2,
    }
}

/// The behavior of a single node: its device, input, and snapshot trace.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBehavior {
    /// The name of the device the node ran.
    pub device_name: String,
    /// The input assigned to the node.
    pub input: Input,
    /// Snapshot after each tick, indexed by tick.
    pub snaps: Vec<Vec<u8>>,
}

impl NodeBehavior {
    /// The node's decision: the one in the earliest decided snapshot.
    ///
    /// This is the paper's `CHOOSE` — a pure function of the behavior.
    pub fn decision(&self) -> Option<Decision> {
        self.snaps.iter().find_map(|s| snapshot::decision_in(s))
    }

    /// The tick of the earliest decided snapshot.
    pub fn decision_tick(&self) -> Option<Tick> {
        self.snaps
            .iter()
            .position(|s| snapshot::decision_in(s).is_some())
            .map(|i| Tick(i as u32))
    }

    /// The tick at which the node first entered the FIRE state, if ever.
    pub fn fire_tick(&self) -> Option<Tick> {
        self.snaps
            .iter()
            .position(|s| s.first() == Some(&snapshot::FIRE))
            .map(|i| Tick(i as u32))
    }
}

/// The complete behavior of one system run.
///
/// The graph is held behind an `Arc`, so cloning a behavior (or the system
/// handing its graph to the behavior at the end of a run) never copies the
/// adjacency structure.
#[derive(Debug, Clone)]
pub struct SystemBehavior {
    graph: Arc<Graph>,
    nodes: Vec<NodeBehavior>,
    edges: BTreeMap<(NodeId, NodeId), EdgeBehavior>,
    horizon: u32,
    misbehavior: Vec<DeviceMisbehavior>,
}

impl SystemBehavior {
    pub(crate) fn new(
        graph: Arc<Graph>,
        nodes: Vec<NodeBehavior>,
        edges: BTreeMap<(NodeId, NodeId), EdgeBehavior>,
        horizon: u32,
        misbehavior: Vec<DeviceMisbehavior>,
    ) -> Self {
        SystemBehavior {
            graph,
            nodes,
            edges,
            horizon,
            misbehavior,
        }
    }

    /// The communication graph the system ran on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of ticks the system ran for.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The behavior of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the graph.
    pub fn node(&self, v: NodeId) -> &NodeBehavior {
        &self.nodes[v.index()]
    }

    /// The behavior of the directed edge `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `(u, v)` is not an edge of the graph.
    pub fn edge(&self, u: NodeId, v: NodeId) -> &EdgeBehavior {
        self.edges
            .get(&(u, v))
            .unwrap_or_else(|| panic!("({u}, {v}) is not an edge of the graph"))
    }

    /// All directed edge behaviors.
    pub fn edges(&self) -> &BTreeMap<(NodeId, NodeId), EdgeBehavior> {
        &self.edges
    }

    /// Extracts the scenario of the subgraph induced by `set`, borrowing
    /// its behaviors from this one.
    pub fn scenario(&self, set: &BTreeSet<NodeId>) -> Scenario<'_> {
        let edges = |list: Vec<(NodeId, NodeId)>| {
            list.into_iter()
                .map(|edge| (edge, &self.edges[&edge]))
                .collect()
        };
        Scenario {
            nodes: set.iter().map(|&v| (v, &self.nodes[v.index()])).collect(),
            internal: edges(self.graph.internal_edges(set)),
            border: edges(self.graph.inedge_border(set)),
        }
    }

    /// Renders a human-readable tick-by-tick timeline of the run: per tick,
    /// the non-silent edge payloads (hex, truncated) and every node's
    /// decision status. Intended for certificate inspection and debugging.
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in 0..self.horizon as usize {
            let _ = writeln!(out, "tick {t}");
            for ((u, v), trace) in &self.edges {
                if let Some(Some(m)) = trace.get(t) {
                    let hex: String = m.iter().take(8).map(|b| format!("{b:02x}")).collect();
                    let ellipsis = if m.len() > 8 { "…" } else { "" };
                    let _ = writeln!(out, "  {u} → {v}: {hex}{ellipsis} ({} B)", m.len());
                }
            }
            for v in self.graph.nodes() {
                let nb = &self.nodes[v.index()];
                if nb.decision_tick() == Some(Tick(t as u32)) {
                    let _ = writeln!(out, "  {v} decides {:?}", nb.decision());
                }
            }
        }
        out
    }

    /// Incidents recorded by a contained run ([`crate::System::run_contained`]);
    /// empty for strict runs. At most one per node — the run loop quarantines
    /// a node at its first incident.
    pub fn misbehavior(&self) -> &[DeviceMisbehavior] {
        &self.misbehavior
    }

    /// The nodes that misbehaved during the run.
    pub fn misbehaving_nodes(&self) -> BTreeSet<NodeId> {
        self.misbehavior.iter().map(|m| m.node).collect()
    }

    /// Approximate heap footprint of this behavior in bytes (snapshots,
    /// device names, and edge payloads). The run cache uses it for its
    /// byte-savings counter and its size bound — an estimate, not an exact
    /// allocator account.
    pub fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for nb in &self.nodes {
            total += nb.device_name.len() as u64;
            total += nb.snaps.iter().map(|s| s.len() as u64 + 8).sum::<u64>();
        }
        for trace in self.edges.values() {
            for payload in trace {
                total += payload.as_ref().map_or(1, |m| m.len() as u64 + 8);
            }
        }
        total
    }

    /// Decisions of all nodes, by node id.
    pub fn decisions(&self) -> Vec<(NodeId, Option<Decision>)> {
        self.graph
            .nodes()
            .map(|v| (v, self.nodes[v.index()].decision()))
            .collect()
    }
}

/// The restriction of a system behavior to a subgraph (FLM §2), borrowed
/// from the behavior it was extracted from.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario<'a> {
    /// Behaviors of the nodes inside the subgraph.
    pub nodes: BTreeMap<NodeId, &'a NodeBehavior>,
    /// Behaviors of edges with both endpoints inside.
    pub internal: BTreeMap<(NodeId, NodeId), &'a EdgeBehavior>,
    /// Behaviors of the inedge border: edges from outside into the subgraph.
    pub border: BTreeMap<(NodeId, NodeId), &'a EdgeBehavior>,
}

impl Scenario<'_> {
    /// Checks that this scenario is identical to `other` under the node
    /// renaming `map` (self node → other node). Border edges are matched by
    /// their *target* node and source renaming where given; border sources
    /// absent from `map` are matched positionally among the sorted border
    /// edges into the same target.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch, intended
    /// for counterexample certificates and axiom-check diagnostics.
    pub fn matches(
        &self,
        other: &Scenario<'_>,
        map: &BTreeMap<NodeId, NodeId>,
    ) -> Result<(), String> {
        if self.nodes.len() != other.nodes.len() {
            return Err(format!(
                "scenario has {} nodes, other has {}",
                self.nodes.len(),
                other.nodes.len()
            ));
        }
        for (&v, nb) in &self.nodes {
            let w = *map
                .get(&v)
                .ok_or_else(|| format!("node {v} missing from renaming"))?;
            let ob = other
                .nodes
                .get(&w)
                .ok_or_else(|| format!("node {w} missing from other scenario"))?;
            if nb.device_name != ob.device_name {
                return Err(format!(
                    "{v}→{w}: device {} vs {}",
                    nb.device_name, ob.device_name
                ));
            }
            if nb.input != ob.input {
                return Err(format!("{v}→{w}: input {} vs {}", nb.input, ob.input));
            }
            if nb.snaps != ob.snaps {
                let t = nb
                    .snaps
                    .iter()
                    .zip(&ob.snaps)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| nb.snaps.len().min(ob.snaps.len()));
                return Err(format!("{v}→{w}: snapshots diverge at tick {t}"));
            }
        }
        // Internal edges: renamed endpoint-for-endpoint.
        for (&(u, v), eb) in &self.internal {
            let (u2, v2) = (map[&u], map[&v]);
            let ob = other
                .internal
                .get(&(u2, v2))
                .ok_or_else(|| format!("internal edge ({u2}, {v2}) missing"))?;
            if eb != ob {
                return Err(format!("internal edge ({u}, {v})→({u2}, {v2}) differs"));
            }
        }
        if self.internal.len() != other.internal.len() {
            return Err("internal edge sets differ in size".into());
        }
        // Border edges: group by renamed target, compare sorted traces.
        fn group<'e>(
            edges: &BTreeMap<(NodeId, NodeId), &'e EdgeBehavior>,
            target: impl Fn(NodeId) -> NodeId,
        ) -> BTreeMap<NodeId, Vec<&'e EdgeBehavior>> {
            let mut g: BTreeMap<NodeId, Vec<&EdgeBehavior>> = BTreeMap::new();
            for (&(_, dst), &eb) in edges {
                g.entry(target(dst)).or_default().push(eb);
            }
            for v in g.values_mut() {
                v.sort();
            }
            g
        }
        let mine = group(&self.border, |dst| map[&dst]);
        let theirs = group(&other.border, |dst| dst);
        if mine != theirs {
            return Err("inedge border behaviors differ".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(name: &str, input: Input, snaps: Vec<Vec<u8>>) -> NodeBehavior {
        NodeBehavior {
            device_name: name.into(),
            input,
            snaps,
        }
    }

    #[test]
    fn decision_reads_earliest_decided_snapshot() {
        let b = nb(
            "D",
            Input::Bool(true),
            vec![
                snapshot::undecided(b""),
                snapshot::decided_bool(false, b""),
                snapshot::decided_bool(true, b""),
            ],
        );
        assert_eq!(b.decision(), Some(Decision::Bool(false)));
        assert_eq!(b.decision_tick(), Some(Tick(1)));
    }

    #[test]
    fn fire_tick_finds_first_fire() {
        let b = nb(
            "F",
            Input::None,
            vec![
                snapshot::undecided(b""),
                snapshot::fire(b""),
                snapshot::fire(b""),
            ],
        );
        assert_eq!(b.fire_tick(), Some(Tick(1)));
        assert_eq!(b.decision(), Some(Decision::Fire));
    }

    #[test]
    fn scenario_matching_detects_divergence() {
        let behavior =
            |snap_last: u8| nb("D", Input::Bool(false), vec![vec![0], vec![0, snap_last]]);
        let mk = |b| Scenario {
            nodes: [(NodeId(0), b)].into(),
            internal: BTreeMap::new(),
            border: BTreeMap::new(),
        };
        let (one, two) = (behavior(1), behavior(2));
        let map: BTreeMap<NodeId, NodeId> = [(NodeId(0), NodeId(0))].into();
        assert!(mk(&one).matches(&mk(&one), &map).is_ok());
        let err = mk(&one).matches(&mk(&two), &map).unwrap_err();
        assert!(err.contains("diverge at tick 1"), "{err}");
    }

    #[test]
    fn scenario_matching_renames_nodes() {
        let b = nb("D", Input::None, vec![vec![0]]);
        let scn = |id: u32| Scenario {
            nodes: [(NodeId(id), &b)].into(),
            internal: BTreeMap::new(),
            border: BTreeMap::new(),
        };
        let map: BTreeMap<NodeId, NodeId> = [(NodeId(3), NodeId(7))].into();
        assert!(scn(3).matches(&scn(7), &map).is_ok());
    }
}
