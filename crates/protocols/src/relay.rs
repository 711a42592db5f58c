//! Dolev's relay overlay: running complete-graph protocols on sparse
//! adequate graphs \[D\].
//!
//! Theorem 1's second half says `2f+1` connectivity is *necessary*. This
//! module supplies the matching *sufficiency* construction: in a
//! `2f+1`-connected graph, every ordered pair of nodes is joined by `2f+1`
//! internally vertex-disjoint paths (Menger), and at most `f` of them pass
//! through faulty nodes. Sending each logical message as `2f+1` copies, one
//! per path, and taking the value that arrives on at least `f+1` paths gives
//! every pair a reliable virtual link — so any protocol written for the
//! complete graph (EIG, DLPSW, …) runs unchanged on the sparse graph.
//!
//! [`Relayed`] wraps an inner [`Protocol`]: logical round `k` of the inner
//! protocol executes at physical tick `k·L`, where `L` is the longest relay
//! path in hops; in between, nodes forward copies hop by hop. The routing
//! table is built once per graph and shared by every device.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use flm_graph::{connectivity, Graph, NodeId};
use flm_sim::device::{Device, NodeCtx, Payload};
use flm_sim::wire::{Reader, Writer};
use flm_sim::{Protocol, Tick};

/// A complete-graph protocol lifted to a `2f+1`-connected graph.
#[derive(Debug, Clone)]
pub struct Relayed<P> {
    inner: P,
    f: usize,
    /// The routing table of the first graph asked for; a query on another
    /// graph builds its own table.
    table: OnceLock<Arc<RouteTable>>,
}

impl<P: Protocol> Relayed<P> {
    /// Wraps `inner` (written for `K_n`) for execution on `2f+1`-connected
    /// graphs with fault budget `f`.
    pub fn new(inner: P, f: usize) -> Self {
        Relayed {
            inner,
            f,
            table: OnceLock::new(),
        }
    }

    /// The routing table for `g`, built on first use and shared by every
    /// device and every [`Protocol::horizon`] call on the same graph.
    ///
    /// # Panics
    ///
    /// Panics if some pair has fewer than `2f+1` disjoint paths (the graph
    /// is not `2f+1`-connected).
    fn table(&self, g: &Graph) -> Arc<RouteTable> {
        if let Some(table) = self.table.get().filter(|t| t.graph == *g) {
            return Arc::clone(table);
        }
        let table = Arc::new(RouteTable::build(g, self.f));
        // Only the first graph is kept: a set that loses a race is dropped.
        let _ = self.table.set(Arc::clone(&table));
        table
    }
}

type Routes = BTreeMap<(NodeId, NodeId), Vec<Vec<NodeId>>>;

/// The routing table for one graph: `2f+1` vertex-disjoint paths per
/// ordered pair, shortest first, plus the longest path length in hops.
#[derive(Debug)]
struct RouteTable {
    graph: Graph,
    routes: Routes,
    /// Ticks per logical round (the longest relay path in hops).
    hops: u32,
}

impl RouteTable {
    fn build(g: &Graph, f: usize) -> Self {
        let needed = 2 * f + 1;
        let mut routes = BTreeMap::new();
        let mut max_hops = 1u32;
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let mut paths = connectivity::vertex_disjoint_paths(g, u, v);
                assert!(
                    paths.len() >= needed,
                    "only {} disjoint paths between {u} and {v}; need {needed}",
                    paths.len()
                );
                // Deterministic preference: shortest paths first.
                paths.sort_by_key(Vec::len);
                paths.truncate(needed);
                for p in &paths {
                    max_hops = max_hops.max((p.len() - 1) as u32);
                }
                routes.insert((u, v), paths);
            }
        }
        RouteTable {
            graph: g.clone(),
            routes,
            hops: max_hops,
        }
    }
}

impl<P: Protocol> Protocol for Relayed<P> {
    fn name(&self) -> String {
        format!("Relayed({}, f={})", self.inner.name(), self.f)
    }

    fn device(&self, g: &Graph, v: NodeId) -> Box<dyn Device> {
        let table = self.table(g);
        let kn = flm_graph::builders::complete(g.node_count());
        let inner = self.inner.device(&kn, v);
        Box::new(RelayDevice::new(inner, table, self.f, v))
    }

    fn horizon(&self, g: &Graph) -> u32 {
        let hops = self.table(g).hops;
        let kn = flm_graph::builders::complete(g.node_count());
        self.inner.horizon(&kn) * hops + 1
    }
}

/// One relayed copy of a logical message.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Packet {
    round: u32,
    src: u32,
    dst: u32,
    path_idx: u32,
    /// Index of the hop *currently being traversed*: the packet is on the
    /// wire from `path[hop]` to `path[hop + 1]`.
    hop: u32,
    /// The logical payload; `None` is explicit silence (it must be carried
    /// so receivers can majority-vote on "said nothing" too).
    body: Option<Payload>,
}

impl Packet {
    fn encode_bundle(packets: &[Packet]) -> Payload {
        let mut w = Writer::new();
        w.u32(packets.len() as u32);
        for p in packets {
            w.u32(p.round)
                .u32(p.src)
                .u32(p.dst)
                .u32(p.path_idx)
                .u32(p.hop);
            match &p.body {
                Some(b) => {
                    w.u8(1).bytes(b);
                }
                None => {
                    w.u8(0);
                }
            }
        }
        w.finish().into()
    }

    fn decode_bundle(payload: &[u8]) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut r = Reader::new(payload);
        let Ok(count) = r.u32() else { return out };
        for _ in 0..count.min(1 << 16) {
            let (Ok(round), Ok(src), Ok(dst), Ok(path_idx), Ok(hop)) =
                (r.u32(), r.u32(), r.u32(), r.u32(), r.u32())
            else {
                return out;
            };
            let body = match r.u8() {
                Ok(1) => match r.bytes() {
                    Ok(b) => Some(Payload::from(b)),
                    Err(_) => return out,
                },
                Ok(0) => None,
                _ => return out,
            };
            out.push(Packet {
                round,
                src,
                dst,
                path_idx,
                hop,
                body,
            });
        }
        out
    }
}

/// The per-node relay state machine wrapping an inner complete-graph device.
pub struct RelayDevice {
    inner: Box<dyn Device>,
    /// The shared routing table of the device's graph.
    table: Arc<RouteTable>,
    f: usize,
    me: NodeId,
    /// Physical neighbors in port order.
    phys_ports: Vec<NodeId>,
    /// Logical peers (all other nodes) in inner port order.
    peers: Vec<NodeId>,
    /// Copies received: (round, src, path_idx) → body.
    copies: BTreeMap<(u32, u32, u32), Option<Payload>>,
    inner_tick: u32,
}

impl RelayDevice {
    fn new(inner: Box<dyn Device>, table: Arc<RouteTable>, f: usize, me: NodeId) -> Self {
        RelayDevice {
            inner,
            table,
            f,
            me,
            phys_ports: Vec::new(),
            peers: Vec::new(),
            copies: BTreeMap::new(),
            inner_tick: 0,
        }
    }

    /// Validates an incoming packet against the shared routing table and
    /// returns the node it should be forwarded to (`None` when this node is
    /// the destination or the packet is bogus and must be dropped).
    fn route_next(&self, p: &Packet, arrived_from: NodeId) -> RouteDecision {
        let (src, dst) = (NodeId(p.src), NodeId(p.dst));
        let Some(paths) = self.table.routes.get(&(src, dst)) else {
            return RouteDecision::Drop;
        };
        let Some(path) = paths.get(p.path_idx as usize) else {
            return RouteDecision::Drop;
        };
        let hop = p.hop as usize;
        // The packet claims to have traversed path[hop] → path[hop+1] = me.
        if hop + 1 >= path.len() || path[hop + 1] != self.me || path[hop] != arrived_from {
            return RouteDecision::Drop;
        }
        if hop + 2 == path.len() {
            debug_assert_eq!(path[hop + 1], dst);
            RouteDecision::Deliver
        } else {
            RouteDecision::Forward(path[hop + 2])
        }
    }

    /// The majority body among the copies recorded for `(round, src)`:
    /// the value carried by at least `f+1` disjoint paths.
    fn majority(&self, round: u32, src: u32) -> Option<Payload> {
        let mut counts: BTreeMap<&Option<Payload>, usize> = BTreeMap::new();
        for ((r, s, _), body) in &self.copies {
            if *r == round && *s == src {
                *counts.entry(body).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .find(|&(_, c)| c > self.f)
            .and_then(|(body, _)| body.clone())
    }
}

enum RouteDecision {
    Deliver,
    Forward(NodeId),
    Drop,
}

impl Device for RelayDevice {
    fn name(&self) -> &'static str {
        "Relay"
    }

    fn init(&mut self, ctx: &NodeCtx) {
        self.me = ctx.node;
        self.phys_ports = ctx.ports.clone();
        self.peers = self.table.graph.nodes().filter(|&v| v != self.me).collect();
        let inner_ctx = NodeCtx {
            node: self.me,
            ports: self.peers.clone(),
            input: ctx.input,
        };
        self.inner.init(&inner_ctx);
    }

    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        // Phase 1: absorb arriving packets — deliver or queue forwards.
        let mut out_packets: Vec<Vec<Packet>> = vec![Vec::new(); self.phys_ports.len()];
        for (port, m) in inbox.iter().enumerate() {
            let Some(m) = m else { continue };
            for mut p in Packet::decode_bundle(m) {
                match self.route_next(&p, self.phys_ports[port]) {
                    RouteDecision::Deliver => {
                        self.copies
                            .entry((p.round, p.src, p.path_idx))
                            .or_insert(p.body);
                    }
                    RouteDecision::Forward(next) => {
                        p.hop += 1;
                        let out_port = self
                            .phys_ports
                            .iter()
                            .position(|&w| w == next)
                            .expect("routing table uses graph edges");
                        out_packets[out_port].push(p);
                    }
                    RouteDecision::Drop => {}
                }
            }
        }
        // Phase 2: on a round boundary, run the inner device.
        if t.0.is_multiple_of(self.table.hops) {
            let k = self.inner_tick;
            let inner_inbox: Vec<Option<Payload>> = self
                .peers
                .iter()
                .map(|&u| {
                    if k == 0 {
                        None
                    } else {
                        self.majority(k - 1, u.0)
                    }
                })
                .collect();
            let outs = self.inner.step(Tick(k), &inner_inbox);
            self.inner_tick += 1;
            // Wrap each logical output (silence included) into path copies.
            for (peer_port, body) in outs.into_iter().enumerate() {
                let dst = self.peers[peer_port];
                let paths = &self.table.routes[&(self.me, dst)];
                for (path_idx, path) in paths.iter().enumerate() {
                    let first_hop = path[1];
                    let out_port = self
                        .phys_ports
                        .iter()
                        .position(|&w| w == first_hop)
                        .expect("paths start with a physical edge");
                    out_packets[out_port].push(Packet {
                        round: k,
                        src: self.me.0,
                        dst: dst.0,
                        path_idx: path_idx as u32,
                        hop: 0,
                        body: body.clone(),
                    });
                }
            }
        }
        out_packets
            .into_iter()
            .map(|ps| {
                if ps.is_empty() {
                    None
                } else {
                    Some(Packet::encode_bundle(&ps))
                }
            })
            .collect()
    }

    fn snapshot(&self) -> Vec<u8> {
        // The inner snapshot leads so the decision tag stays in byte 0;
        // relay bookkeeping follows as a digest.
        let mut snap = self.inner.snapshot();
        let mut h = flm_sim::auth::mix64(0x6E1A);
        for ((r, s, p), body) in &self.copies {
            h = flm_sim::auth::mix64(
                h ^ u64::from(*r) ^ (u64::from(*s) << 20) ^ (u64::from(*p) << 40),
            );
            if let Some(b) = body {
                for &x in b {
                    h = flm_sim::auth::mix64(h ^ u64::from(x));
                }
            }
        }
        snap.extend_from_slice(&h.to_be_bytes());
        snap
    }

    fn fork(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(RelayDevice {
            inner: self.inner.fork()?,
            table: Arc::clone(&self.table),
            f: self.f,
            me: self.me,
            phys_ports: self.phys_ports.clone(),
            peers: self.peers.clone(),
            copies: self.copies.clone(),
            inner_tick: self.inner_tick,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::Eig;
    use crate::testkit;
    use flm_graph::builders;
    use flm_sim::{Decision, Input};

    /// K5 minus one edge: still 3-connected, but not complete — EIG alone
    /// cannot run on it, the relayed version can.
    fn k5_minus_edge() -> Graph {
        let mut links = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                if (u, v) != (0, 4) {
                    links.push((u, v));
                }
            }
        }
        builders::from_links(5, &links).unwrap()
    }

    /// Is `g` usable by [`Relayed`] with fault budget `f`?
    fn supports_relay(g: &Graph, f: usize) -> bool {
        connectivity::vertex_connectivity(g) > 2 * f
    }

    #[test]
    fn wheel_and_k5_minus_edge_support_one_fault() {
        assert!(supports_relay(&k5_minus_edge(), 1));
        assert!(!supports_relay(&builders::cycle(5), 1));
    }

    #[test]
    fn relayed_eig_agrees_on_sparse_graph_all_honest() {
        let g = k5_minus_edge();
        let proto = Relayed::new(Eig::new(1), 1);
        for input in [false, true] {
            let b = testkit::run_honest(&proto, &g, &|_| Input::Bool(input));
            for v in g.nodes() {
                assert_eq!(b.node(v).decision(), Some(Decision::Bool(input)), "{v}");
            }
        }
    }

    #[test]
    fn relayed_eig_mixed_inputs_agree() {
        let g = k5_minus_edge();
        let proto = Relayed::new(Eig::new(1), 1);
        let b = testkit::run_honest(&proto, &g, &|v| Input::Bool(v.0 % 2 == 0));
        let first = b.node(NodeId(0)).decision();
        assert!(first.is_some());
        for v in g.nodes() {
            assert_eq!(b.node(v).decision(), first);
        }
    }

    #[test]
    fn relayed_eig_tolerates_zoo_on_sparse_graph() {
        testkit::assert_byzantine_agreement(&Relayed::new(Eig::new(1), 1), &k5_minus_edge(), 1, 4);
    }

    #[test]
    fn packet_bundles_round_trip() {
        let ps = vec![
            Packet {
                round: 3,
                src: 0,
                dst: 4,
                path_idx: 2,
                hop: 1,
                body: Some(vec![1, 2, 3].into()),
            },
            Packet {
                round: 3,
                src: 1,
                dst: 2,
                path_idx: 0,
                hop: 0,
                body: None,
            },
        ];
        assert_eq!(Packet::decode_bundle(&Packet::encode_bundle(&ps)), ps);
        assert!(Packet::decode_bundle(&[1, 2, 3]).is_empty());
    }
}
