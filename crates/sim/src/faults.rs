//! Deterministic fault injection on chosen edges at chosen ticks.
//!
//! A [`FaultPlan`] is a seed plus a list of [`FaultRule`]s, each naming a
//! sending node, an optional target neighbor (none = every outedge), a tick
//! window, and a [`FaultAction`]: drop the payload, corrupt its bytes,
//! equivocate (duplicate one payload across ports with per-port variation),
//! or delay it. Everything is a pure function of the seed, so a plan
//! reproduces the same run bit-for-bit — faults here are *scheduled
//! experiments*, not randomness at run time.
//!
//! Plans compose with the adversary zoo ([`crate::adversary`]): a plan wraps
//! *any* device via [`FaultPlan::wrap`], including an adversary, because
//! injection happens on the outputs of `step`, after the wrapped device has
//! produced them. In FLM terms a wrapped node is simply another faulty
//! device — the Fault axiom already licenses every behavior it can exhibit —
//! so injection never steps outside the model; it just makes specific bad
//! behaviors easy to schedule and reproduce.
//!
//! # Composition precedence
//!
//! Several rules (possibly from [`FaultPlan::merge`]d plans) may target the
//! same edge at the same tick. The outcome is rule-order-independent, fixed
//! by the per-tick action order **equivocate → corrupt → drop → delay**:
//!
//! * *Equivocate + corrupt*: the corruption keystream is applied to the
//!   equivocated copy.
//! * *Anything + drop*: drop wins — the edge is silent that tick, and a
//!   dropped payload is **not** captured for later delayed delivery.
//! * *Several delays*: the **minimum** delay wins (the payload is held the
//!   shortest matched time), regardless of the order rules were added.
//! * While any delay rule matches an edge, due held payloads stay queued;
//!   they flush through the idle-port rule once no delay rule matches.

use std::collections::{BTreeSet, VecDeque};

use flm_graph::{Graph, NodeId};

use crate::auth::mix64;
use crate::device::{Device, NodeCtx, Payload};
use crate::Tick;

/// What a [`FaultRule`] does to a matched outbound payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Replace the payload with silence.
    Drop,
    /// XOR the payload bytes with a seed-derived stream (silence stays
    /// silent — there is nothing on the wire to corrupt).
    Corrupt,
    /// Send every matched port a copy of the node's first non-silent output
    /// this tick, tagged with a per-port salt byte — neighbors receive
    /// *conflicting* claims from the same sender.
    Equivocate,
    /// Hold the payload back and release it this many ticks later on the
    /// same port (FIFO; a held payload waits longer if the port is busy).
    Delay(u32),
}

/// One scheduled fault: an edge selector, a tick window, and an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The sending node the rule applies to.
    pub from: NodeId,
    /// The receiving neighbor, or `None` for every outedge of `from`.
    pub to: Option<NodeId>,
    /// First tick (inclusive) the rule is active.
    pub from_tick: u32,
    /// First tick the rule is no longer active (exclusive).
    pub until_tick: u32,
    /// What to do with matched payloads.
    pub action: FaultAction,
}

crate::wire_schema! {
    enum FaultAction {
        Drop = 0,
        Corrupt = 1,
        Equivocate = 2,
        Delay(ticks) = 3,
    }
}

crate::wire_schema! {
    struct FaultRule { from, to, from_tick, until_tick, action }
}

impl FaultRule {
    fn applies(&self, t: Tick, to: NodeId) -> bool {
        t.0 >= self.from_tick && t.0 < self.until_tick && self.to.is_none_or(|w| w == to)
    }
}

/// A seed-deterministic schedule of faults over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

// A plan travels as its seed, then its rules: everything its injectors
// derive their behavior from, so equal bytes mean equal faulted runs.
crate::wire_schema! {
    struct FaultPlan { seed, rules }
}

impl FaultPlan {
    /// An empty plan; the seed drives corruption and equivocation bytes.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Drops everything `from` sends to `to` during `[from_tick, until_tick)`.
    pub fn drop_edge(self, from: NodeId, to: NodeId, from_tick: u32, until_tick: u32) -> Self {
        self.with_rule(FaultRule {
            from,
            to: Some(to),
            from_tick,
            until_tick,
            action: FaultAction::Drop,
        })
    }

    /// Corrupts everything `from` sends to `to` during the window.
    pub fn corrupt_edge(self, from: NodeId, to: NodeId, from_tick: u32, until_tick: u32) -> Self {
        self.with_rule(FaultRule {
            from,
            to: Some(to),
            from_tick,
            until_tick,
            action: FaultAction::Corrupt,
        })
    }

    /// Makes `from` equivocate on all its outedges during the window.
    pub fn equivocate(self, from: NodeId, from_tick: u32, until_tick: u32) -> Self {
        self.with_rule(FaultRule {
            from,
            to: None,
            from_tick,
            until_tick,
            action: FaultAction::Equivocate,
        })
    }

    /// Delays everything `from` sends to `to` by `by` ticks during the window.
    pub fn delay_edge(
        self,
        from: NodeId,
        to: NodeId,
        from_tick: u32,
        until_tick: u32,
        by: u32,
    ) -> Self {
        self.with_rule(FaultRule {
            from,
            to: Some(to),
            from_tick,
            until_tick,
            action: FaultAction::Delay(by),
        })
    }

    /// A seed-deterministic random plan: `count` rules over the directed
    /// edges of `g`, with windows inside `[0, horizon)`. The same arguments
    /// always produce the same plan.
    pub fn random(seed: u64, g: &Graph, horizon: u32, count: usize) -> Self {
        Self::random_from_edges(seed, g.directed_edges(), horizon, count)
    }

    /// Like [`FaultPlan::random`], but only edges whose *sender* is in
    /// `senders` are eligible — so [`FaultPlan::faulty_nodes`] is a subset
    /// of `senders` and the plan respects a fault budget chosen up front.
    /// The campaign sweeps use this to keep every probed scenario inside
    /// its declared `f`.
    pub fn random_among(
        seed: u64,
        g: &Graph,
        senders: &BTreeSet<NodeId>,
        horizon: u32,
        count: usize,
    ) -> Self {
        let edges = g
            .directed_edges()
            .into_iter()
            .filter(|(from, _)| senders.contains(from))
            .collect();
        Self::random_from_edges(seed, edges, horizon, count)
    }

    fn random_from_edges(
        seed: u64,
        edges: Vec<(NodeId, NodeId)>,
        horizon: u32,
        count: usize,
    ) -> Self {
        let mut plan = FaultPlan::new(seed);
        if edges.is_empty() || horizon == 0 {
            return plan;
        }
        for i in 0..count {
            let h = |k: u64| mix64(seed ^ 0xFA17 ^ ((i as u64) << 16) ^ k);
            let (from, to) = edges[(h(1) % edges.len() as u64) as usize];
            let start = (h(2) % u64::from(horizon)) as u32;
            let len = 1 + (h(3) % u64::from(horizon)) as u32;
            let action = match h(4) % 4 {
                0 => FaultAction::Drop,
                1 => FaultAction::Corrupt,
                2 => FaultAction::Equivocate,
                _ => FaultAction::Delay(1 + (h(5) % 3) as u32),
            };
            let to = if action == FaultAction::Equivocate {
                None
            } else {
                Some(to)
            };
            plan = plan.with_rule(FaultRule {
                from,
                to,
                from_tick: start,
                until_tick: start.saturating_add(len),
                action,
            });
        }
        plan
    }

    /// The rules of the plan.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The seed driving corruption and equivocation bytes.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Composes two plans: the result carries `self`'s seed and the
    /// concatenated rule lists. Because per-tick action precedence is fixed
    /// and several delays resolve to the minimum (see the module docs),
    /// `a.merge(&b)` and `b.merge(&a)` inject identically whenever the two
    /// plans share a seed.
    pub fn merge(mut self, other: &FaultPlan) -> Self {
        self.rules.extend(other.rules.iter().cloned());
        self
    }

    /// The plan without rule `index` — the shrinker's "delete one fault"
    /// move. Out-of-range indices return the plan unchanged.
    pub fn without_rule(mut self, index: usize) -> Self {
        if index < self.rules.len() {
            self.rules.remove(index);
        }
        self
    }

    /// The plan restricted to edges that exist in `g`: rules naming an edge
    /// absent from `g` (or an out-of-range node) are dropped. Used when a
    /// shrink candidate rebuilds a smaller graph and the surviving rules
    /// must still make sense on it.
    pub fn restricted_to(mut self, g: &Graph) -> Self {
        let n = g.node_count();
        self.rules.retain(|r| {
            if r.from.index() >= n {
                return false;
            }
            match r.to {
                Some(w) => w.index() < n && g.has_link(r.from, w),
                None => g.degree(r.from) > 0,
            }
        });
        self
    }

    /// The nodes the plan injects faults at — the set a test must budget as
    /// faulty when checking agreement conditions.
    pub fn faulty_nodes(&self) -> BTreeSet<NodeId> {
        self.rules.iter().map(|r| r.from).collect()
    }

    /// The injector for node `v`, if any rule names it as sender.
    fn injector(&self, v: NodeId) -> Option<FaultInjector> {
        let rules: Vec<FaultRule> = self.rules.iter().filter(|r| r.from == v).cloned().collect();
        if rules.is_empty() {
            None
        } else {
            Some(FaultInjector {
                seed: self.seed,
                rules,
                ports: Vec::new(),
                delayed: Vec::new(),
            })
        }
    }

    /// Wraps `device` with this plan's injector for node `v`; devices at
    /// nodes the plan does not touch are returned unchanged.
    pub fn wrap(&self, v: NodeId, device: Box<dyn Device>) -> Box<dyn Device> {
        match self.injector(v) {
            Some(injector) => Box::new(FaultedDevice {
                inner: device,
                injector,
            }),
            None => device,
        }
    }
}

/// Applies one node's [`FaultRule`]s to its outbound payloads, tick by tick.
///
/// Actions are applied in a fixed order each tick — equivocate, corrupt,
/// drop, delay-capture, then delivery of due delayed payloads — so a plan
/// with several rules on one edge has a well-defined, documented outcome.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    rules: Vec<FaultRule>,
    ports: Vec<NodeId>,
    delayed: Vec<VecDeque<(u32, Payload)>>,
}

impl FaultInjector {
    /// Binds the injector to the sender's port list (its sorted neighbors).
    pub fn bind(&mut self, ports: &[NodeId]) {
        self.ports = ports.to_vec();
        self.delayed = vec![VecDeque::new(); ports.len()];
    }

    fn active<'a>(&'a self, t: Tick, action_is: impl Fn(&FaultAction) -> bool + 'a) -> Vec<usize> {
        let mut hit = Vec::new();
        for (p, &to) in self.ports.iter().enumerate() {
            if self
                .rules
                .iter()
                .any(|r| action_is(&r.action) && r.applies(t, to))
            {
                hit.push(p);
            }
        }
        hit
    }

    /// Transforms the payloads a device produced at tick `t`.
    fn transform(&mut self, t: Tick, mut out: Vec<Option<Payload>>) -> Vec<Option<Payload>> {
        debug_assert_eq!(out.len(), self.ports.len(), "injector not bound");
        // Equivocate: every matched port gets the first non-silent output,
        // tagged with a per-port salt so recipients see conflicting bytes.
        let equivocating = self.active(t, |a| *a == FaultAction::Equivocate);
        if !equivocating.is_empty() {
            let base: Payload = out.iter().flatten().next().cloned().unwrap_or_default();
            for p in equivocating {
                // Payloads are immutable (shared bytes): copy out, salt,
                // rewrap.
                let mut m = base.to_vec();
                m.push(mix64(self.seed ^ u64::from(self.ports[p].0) ^ u64::from(t.0)) as u8);
                out[p] = Some(m.into());
            }
        }
        // Corrupt: XOR with a keystream keyed on (seed, edge, tick).
        for p in self.active(t, |a| *a == FaultAction::Corrupt) {
            if let Some(m) = &mut out[p] {
                let key = self.seed ^ (u64::from(self.ports[p].0) << 32) ^ u64::from(t.0);
                let mut bytes = m.to_vec();
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b ^= mix64(key ^ (i as u64)) as u8;
                }
                *m = bytes.into();
            }
        }
        // Drop: silence.
        for p in self.active(t, |a| *a == FaultAction::Drop) {
            out[p] = None;
        }
        // Delay: capture matched payloads into the port's queue. When
        // several delay rules match the same edge this tick, the minimum
        // wins — a set, not a list, of rules decides, so merged plans
        // compose rule-order-independently.
        for (p, &to) in self.ports.iter().enumerate() {
            let delay = self
                .rules
                .iter()
                .filter_map(|r| match r.action {
                    FaultAction::Delay(d) if r.applies(t, to) => Some(d),
                    _ => None,
                })
                .min();
            match delay {
                Some(d) => {
                    if let Some(m) = out[p].take() {
                        self.delayed[p].push_back((t.0.saturating_add(d), m));
                    }
                }
                // Port idle: deliver the earliest due delayed payload.
                None if out[p].is_none()
                    && self.delayed[p].front().is_some_and(|&(due, _)| due <= t.0) =>
                {
                    let (_, m) = self.delayed[p]
                        .pop_front()
                        .expect("front element checked due just above");
                    out[p] = Some(m);
                }
                None => {}
            }
        }
        out
    }
}

/// A device with a [`FaultInjector`] bolted onto its outputs.
struct FaultedDevice {
    inner: Box<dyn Device>,
    injector: FaultInjector,
}

impl Device for FaultedDevice {
    fn name(&self) -> &'static str {
        "Faulted"
    }

    fn init(&mut self, ctx: &NodeCtx) {
        self.inner.init(ctx);
        self.injector.bind(&ctx.ports);
    }

    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        let out = self.inner.step(t, inbox);
        self.injector.transform(t, out)
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn fork(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(FaultedDevice {
            inner: self.inner.fork()?,
            injector: self.injector.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Input;
    use crate::devices::NaiveMajorityDevice;
    use crate::system::System;
    use flm_graph::builders;

    fn broadcaster() -> Box<dyn Device> {
        Box::new(NaiveMajorityDevice::new())
    }

    fn run_plan(plan: &FaultPlan, horizon: u32) -> crate::SystemBehavior {
        let g = builders::triangle();
        let mut sys = System::new(g);
        for v in sys.graph().nodes() {
            sys.assign(v, plan.wrap(v, broadcaster()), Input::Bool(v.0 == 0));
        }
        sys.run(horizon)
    }

    #[test]
    fn drop_silences_the_edge_in_the_window() {
        let plan = FaultPlan::new(7).drop_edge(NodeId(0), NodeId(1), 0, 2);
        let b = run_plan(&plan, 3);
        assert_eq!(b.edge(NodeId(0), NodeId(1))[0], None);
        assert_eq!(b.edge(NodeId(0), NodeId(1))[1], None);
        // Outside the window and on other edges, traffic flows.
        assert!(b.edge(NodeId(0), NodeId(2))[0].is_some());
    }

    #[test]
    fn corrupt_changes_bytes_but_not_silence() {
        let clean = run_plan(&FaultPlan::new(7), 2);
        let plan = FaultPlan::new(7).corrupt_edge(NodeId(0), NodeId(1), 0, 2);
        let b = run_plan(&plan, 2);
        let before = clean.edge(NodeId(0), NodeId(1));
        let after = b.edge(NodeId(0), NodeId(1));
        assert_eq!(before[0].is_some(), after[0].is_some());
        assert_ne!(before[0], after[0]);
    }

    #[test]
    fn equivocate_sends_conflicting_copies() {
        let plan = FaultPlan::new(7).equivocate(NodeId(0), 0, 1);
        let b = run_plan(&plan, 1);
        let to1 = b.edge(NodeId(0), NodeId(1))[0].clone().unwrap();
        let to2 = b.edge(NodeId(0), NodeId(2))[0].clone().unwrap();
        assert_ne!(to1, to2, "equivocation must differ across ports");
        // Both derive from the same base payload.
        assert_eq!(to1[..to1.len() - 1], to2[..to2.len() - 1]);
    }

    #[test]
    fn delay_shifts_payloads_later() {
        let plan = FaultPlan::new(7).delay_edge(NodeId(0), NodeId(1), 0, 1, 2);
        let b = run_plan(&plan, 4);
        let clean = run_plan(&FaultPlan::new(7), 4);
        assert_eq!(b.edge(NodeId(0), NodeId(1))[0], None);
        // The tick-0 payload reappears once the port is idle and the delay
        // has elapsed.
        let held = clean.edge(NodeId(0), NodeId(1))[0].clone();
        assert!(b.edge(NodeId(0), NodeId(1)).contains(&held));
    }

    #[test]
    fn plans_are_deterministic() {
        let plan = FaultPlan::random(99, &builders::triangle(), 4, 6);
        assert_eq!(plan, FaultPlan::random(99, &builders::triangle(), 4, 6));
        let (a, b) = (run_plan(&plan, 4), run_plan(&plan, 4));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn wrap_composes_with_the_adversary_zoo() {
        use crate::adversary::RandomAdversary;
        let plan = FaultPlan::new(3).drop_edge(NodeId(0), NodeId(1), 0, 8);
        let mut sys = System::new(builders::triangle());
        sys.assign(
            NodeId(0),
            plan.wrap(NodeId(0), Box::new(RandomAdversary::new(5))),
            Input::None,
        );
        sys.assign(NodeId(1), broadcaster(), Input::Bool(true));
        sys.assign(NodeId(2), broadcaster(), Input::Bool(false));
        let b = sys.run(8);
        // The plan mutes the adversary toward node 1 but not node 2.
        assert!(b.edge(NodeId(0), NodeId(1)).iter().all(|m| m.is_none()));
        assert!(b.edge(NodeId(0), NodeId(2)).iter().any(|m| m.is_some()));
    }

    #[test]
    fn faulty_nodes_lists_senders() {
        let plan = FaultPlan::new(0)
            .drop_edge(NodeId(2), NodeId(0), 0, 1)
            .equivocate(NodeId(1), 0, 3);
        let nodes: Vec<NodeId> = plan.faulty_nodes().into_iter().collect();
        assert_eq!(nodes, vec![NodeId(1), NodeId(2)]);
    }
}
