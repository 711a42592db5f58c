//! Differential oracle for the EIG device: a copy of the original device,
//! whose information tree is a `BTreeMap` from labels to values, runs in
//! lockstep with `EigDevice` (dense per-level arrays). Every tick both must
//! send the same payloads and report the same snapshot — under every zoo
//! adversary, under seeded `FaultInjector` plans, and on seeded malformed
//! inboxes (duplicate ids, ids ≥ n, wrong levels, truncation, edge ids
//! around 64 and `n`, bad value bytes, runs cut mid-id, labels repeated with
//! contradicting values), on `K_n` with `n` both within and past 64.

use std::collections::BTreeMap;

use flm_graph::{builders, Graph, NodeId};
use flm_prop::Rng;
use flm_protocols::eig::EigDevice;
use flm_protocols::testkit;
use flm_sim::adversary::{strategy, STRATEGY_COUNT};
use flm_sim::auth::mix64;
use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
use flm_sim::wire::{Reader, Writer};
use flm_sim::{FaultPlan, Input, Protocol, System, Tick};

/// A label in the EIG tree: a sequence of distinct node ids.
type Label = Vec<u32>;

/// The original EIG device, kept verbatim as the oracle, except that its
/// snapshot sums one digest term per label.
#[derive(Debug, Clone)]
struct BTreeEig {
    n: usize,
    f: usize,
    me: u32,
    input: bool,
    /// The information-gathering tree: label → reported value.
    vals: BTreeMap<Label, bool>,
    decided: Option<bool>,
    /// Port → neighbor node id, fixed at init.
    port_ids: Vec<u32>,
}

impl BTreeEig {
    fn new(n: usize, f: usize, me: NodeId) -> Self {
        BTreeEig {
            n,
            f,
            me: me.0,
            input: false,
            vals: BTreeMap::new(),
            decided: None,
            port_ids: Vec::new(),
        }
    }

    fn encode_level(&self, level: usize) -> Payload {
        let pairs: Vec<(&Label, &bool)> = self
            .vals
            .iter()
            .filter(|(sigma, _)| sigma.len() == level && !sigma.contains(&self.me))
            .collect();
        let mut w = Writer::new();
        w.u32(pairs.len() as u32);
        for (sigma, v) in pairs {
            w.u8(sigma.len() as u8);
            for &id in sigma {
                w.u32(id);
            }
            w.bool(*v);
        }
        w.finish().into()
    }

    fn absorb(&mut self, round: usize, from: u32, payload: &[u8]) {
        let mut r = Reader::new(payload);
        let Ok(count) = r.u32() else { return };
        for _ in 0..count {
            let Ok(len) = r.u8() else { return };
            let mut sigma = Vec::with_capacity(len as usize);
            for _ in 0..len {
                match r.u32() {
                    Ok(id) => sigma.push(id),
                    Err(_) => return,
                }
            }
            let Ok(v) = r.bool() else { return };
            let distinct = {
                let mut s = sigma.clone();
                s.sort_unstable();
                s.dedup();
                s.len() == sigma.len()
            };
            if sigma.len() == round - 1
                && distinct
                && !sigma.contains(&from)
                && sigma.iter().all(|&id| (id as usize) < self.n)
            {
                let mut label = sigma;
                label.push(from);
                self.vals.entry(label).or_insert(v);
            }
        }
    }

    fn resolve(&self, sigma: &Label) -> bool {
        if sigma.len() == self.f + 1 {
            return self.vals.get(sigma).copied().unwrap_or(false);
        }
        let mut ones = 0usize;
        let mut total = 0usize;
        for j in 0..self.n as u32 {
            if sigma.contains(&j) {
                continue;
            }
            let mut child = sigma.clone();
            child.push(j);
            total += 1;
            if self.resolve(&child) {
                ones += 1;
            }
        }
        2 * ones > total
    }
}

impl Device for BTreeEig {
    fn name(&self) -> &'static str {
        "EIG"
    }

    fn init(&mut self, ctx: &NodeCtx) {
        self.me = ctx.node.0;
        self.input = ctx.input.as_bool().unwrap_or(false);
        self.port_ids = ctx.ports.iter().map(|v| v.0).collect();
    }

    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        let tick = t.index();
        if tick >= 1 && tick <= self.f + 1 {
            let round = tick;
            for (p, m) in inbox.iter().enumerate() {
                if let Some(m) = m {
                    self.absorb(round, self.port_ids[p], m);
                }
            }
        }
        if tick == self.f + 1 && self.decided.is_none() {
            self.decided = Some(self.resolve(&Vec::new()));
        }
        if tick == 0 {
            self.vals.insert(vec![self.me], self.input);
            let mut w = Writer::new();
            w.u32(1).u8(0).bool(self.input);
            let payload: Payload = w.finish().into();
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        if tick <= self.f {
            let level = tick;
            let own: Vec<(Label, bool)> = self
                .vals
                .iter()
                .filter(|(s, _)| s.len() == level && !s.contains(&self.me))
                .map(|(s, v)| (s.clone(), *v))
                .collect();
            for (mut s, v) in own {
                s.push(self.me);
                self.vals.entry(s).or_insert(v);
            }
            let payload = self.encode_level(level);
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        inbox.iter().map(|_| None).collect()
    }

    fn snapshot(&self) -> Vec<u8> {
        // How many labels of the same length come first in lexicographic
        // order: position `i`'s smaller ids not used before it, times the
        // ways to fill the positions after it.
        let rank = |sigma: &Label| -> u64 {
            (0..sigma.len())
                .map(|i| {
                    let smaller = (0..sigma[i]).filter(|id| !sigma[..i].contains(id));
                    let fills: u64 = (i + 1..sigma.len()).map(|j| (self.n - j) as u64).product();
                    smaller.count() as u64 * fills
                })
                .sum()
        };
        let mut h = 0u64;
        for (sigma, v) in &self.vals {
            let word = ((sigma.len() as u64) << 56) ^ (rank(sigma) << 1) ^ u64::from(*v);
            h = h.wrapping_add(mix64(word));
        }
        match self.decided {
            Some(b) => snapshot::decided_bool(b, &h.to_be_bytes()),
            None => snapshot::undecided(&h.to_be_bytes()),
        }
    }

    fn fork(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
}

/// The oracle and the device under test, stepped together; any divergence
/// in a payload or a snapshot fails the test at that tick.
#[derive(Debug, Clone)]
struct Lockstep {
    oracle: BTreeEig,
    device: EigDevice,
    node: u32,
}

impl Lockstep {
    fn new(n: usize, f: usize, v: NodeId) -> Self {
        Lockstep {
            oracle: BTreeEig::new(n, f, v),
            device: EigDevice::new(n, f, v),
            node: v.0,
        }
    }
}

impl Device for Lockstep {
    fn name(&self) -> &'static str {
        "EIG"
    }

    fn init(&mut self, ctx: &NodeCtx) {
        self.oracle.init(ctx);
        self.device.init(ctx);
    }

    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        let want = self.oracle.step(t, inbox);
        let got = self.device.step(t, inbox);
        assert_eq!(got, want, "n{} payloads diverge at tick {}", self.node, t.0);
        self.snapshot();
        got
    }

    fn snapshot(&self) -> Vec<u8> {
        let got = self.device.snapshot();
        assert_eq!(
            got,
            self.oracle.snapshot(),
            "n{} snapshots diverge",
            self.node
        );
        got
    }

    fn fork(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
}

/// EIG with every device replaced by a [`Lockstep`] pair.
struct LockstepEig {
    f: usize,
}

impl Protocol for LockstepEig {
    fn name(&self) -> String {
        format!("EIG(f={})", self.f)
    }

    fn device(&self, g: &Graph, v: NodeId) -> Box<dyn Device> {
        Box::new(Lockstep::new(g.node_count(), self.f, v))
    }

    fn horizon(&self, _g: &Graph) -> u32 {
        self.f as u32 + 2
    }
}

#[test]
fn lockstep_under_every_zoo_adversary_k4_f1() {
    testkit::assert_byzantine_agreement(&LockstepEig { f: 1 }, &builders::complete(4), 1, 4);
}

#[test]
fn lockstep_under_every_zoo_adversary_k7_f2() {
    testkit::assert_byzantine_agreement(&LockstepEig { f: 2 }, &builders::complete(7), 2, 1);
}

/// K9 with `f = 3`, below EIG's `3f + 1` nodes, so only the lockstep is
/// checked: every zoo strategy on a few fault placements (the exhaustive
/// sweep over all 84 placements is too slow for a test).
#[test]
fn lockstep_under_every_zoo_adversary_k9_f3() {
    let g = builders::complete(9);
    let proto = LockstepEig { f: 3 };
    for faulty_set in [[0u32, 1, 2], [2, 5, 8], [6, 7, 8]] {
        for strat in 0..STRATEGY_COUNT {
            for pattern in testkit::bool_patterns(9) {
                let faulty = faulty_set
                    .iter()
                    .map(|&v| {
                        let honest = || proto.device(&g, NodeId(v));
                        (NodeId(v), strategy(strat, u64::from(v), &honest))
                    })
                    .collect();
                testkit::run_with_faults(&proto, &g, &|v| Input::Bool(pattern[v.index()]), faulty);
            }
        }
    }
}

#[test]
fn lockstep_under_fault_injection() {
    for (n, f, seeds) in [(4usize, 1usize, 24u64), (7, 2, 8), (9, 3, 3), (66, 1, 2)] {
        let g = builders::complete(n);
        let proto = LockstepEig { f };
        let horizon = proto.horizon(&g);
        for seed in 0..seeds {
            let plan = FaultPlan::random(seed, &g, horizon, 2 + (seed % 4) as usize);
            let mut sys = System::new(g.clone());
            for v in g.nodes() {
                let input = Input::Bool((u64::from(v.0) + seed) % 3 == 0);
                sys.assign(v, plan.wrap(v, proto.device(&g, v)), input);
            }
            sys.try_run(horizon)
                .unwrap_or_else(|e| panic!("K{n} seed {seed}: {e}"));
        }
    }
}

/// One seeded hostile payload for round `round` from `from`: mostly
/// well-formed entries of the right level, mutated with repeated ids, ids
/// at or above `n`, the sender's own id, wrong lengths, invalid bool bytes
/// and truncation.
fn hostile_payload(rng: &mut Rng, n: usize, round: usize, from: u32) -> Payload {
    let count = rng.usize(0..12);
    let mut w = Writer::new();
    w.u32(if rng.usize(0..8) == 0 {
        count as u32 + 3
    } else {
        count as u32
    });
    for _ in 0..count {
        let mut sigma: Vec<u32> = Vec::new();
        let want = match rng.usize(0..10) {
            0 => rng.usize(0..round + 2),
            _ => round - 1,
        };
        while sigma.len() < want {
            let id = rng.usize(0..n) as u32;
            if !sigma.contains(&id) && id != from {
                sigma.push(id);
            }
            if sigma.len() + 1 >= n {
                break;
            }
        }
        match rng.usize(0..10) {
            0 if !sigma.is_empty() => {
                let dup = sigma[0];
                sigma.push(dup);
            }
            1 => sigma.push((n + rng.usize(0..3)) as u32),
            2 => sigma.push(from),
            _ => {}
        }
        w.u8(sigma.len() as u8);
        for &id in &sigma {
            w.u32(id);
        }
        if rng.usize(0..20) == 0 {
            w.u8(7);
        } else {
            w.bool(rng.bool());
        }
    }
    let mut bytes = w.finish();
    if rng.usize(0..6) == 0 {
        let keep = rng.usize(0..bytes.len() + 1);
        bytes.truncate(keep);
    }
    bytes.into()
}

/// Steps a [`Lockstep`] pair through one run on `K_n` whose inboxes are
/// silent, an echo of what the node sent, or a payload from `payload`
/// (given the round and the sender), all drawn from `rng`.
fn lockstep_on_inboxes(
    rng: &mut Rng,
    n: usize,
    f: usize,
    payload: fn(&mut Rng, usize, usize, u32) -> Payload,
) {
    let me = NodeId(rng.usize(0..n) as u32);
    let ports: Vec<NodeId> = (0..n as u32).map(NodeId).filter(|&v| v != me).collect();
    let mut pair = Lockstep::new(n, f, me);
    pair.init(&NodeCtx {
        node: me,
        ports: ports.clone(),
        input: Input::Bool(rng.bool()),
    });
    let mut inbox: Vec<Option<Payload>> = vec![None; ports.len()];
    for t in 0..=(f as u32 + 2) {
        let out = pair.step(Tick(t), &inbox);
        let round = t as usize + 1;
        inbox = ports
            .iter()
            .map(|&from| match rng.usize(0..4) {
                0 => None,
                // An honest-looking echo of what `me` sent.
                1 => out.first().cloned().flatten(),
                _ => Some(payload(rng, n, round, from.0)),
            })
            .collect();
    }
}

#[test]
fn lockstep_on_malformed_inboxes() {
    // K66 is past the 64 ids a one-word id set holds.
    for (n, f, cases) in [
        (4usize, 1usize, 300u32),
        (7, 2, 60),
        (9, 3, 12),
        (66, 1, 40),
    ] {
        flm_prop::cases(cases, 0xE16 + n as u64, |rng| {
            lockstep_on_inboxes(rng, n, f, hostile_payload);
        });
    }
}

/// One seeded payload for round `round` from `from` whose entries are all
/// of the right level and well formed except one, the last one read. That
/// entry carries an edge id (63, 64, `n − 1`, `n` or `u32::MAX`) in a
/// random slot; or a value byte of 2 with more entries after it; or it is
/// cut off inside its id run.
fn edge_payload(rng: &mut Rng, n: usize, round: usize, from: u32) -> Payload {
    let count = rng.usize(1..8);
    let bad = rng.usize(0..count);
    let fault = rng.usize(0..3);
    let mut w = Writer::new();
    w.u32(count as u32);
    let mut cut = None;
    for i in 0..count {
        let mut sigma: Vec<u32> = Vec::new();
        while sigma.len() < (round - 1).min(n - 1) {
            let id = rng.usize(0..n) as u32;
            if !sigma.contains(&id) && id != from {
                sigma.push(id);
            }
        }
        if i == bad && fault == 0 {
            let edge = [63, 64, n as u32 - 1, n as u32, u32::MAX][rng.usize(0..5)];
            match sigma.len() {
                // No slot: the entry is one id too long.
                0 => sigma.push(edge),
                len => sigma[rng.usize(0..len)] = edge,
            }
        }
        w.u8(sigma.len() as u8);
        for &id in &sigma {
            w.u32(id);
        }
        if i == bad && fault == 2 {
            // Keep the length byte and drop 1..=all bytes of the id run.
            let run = 4 * sigma.len();
            cut = Some(run - rng.usize(0..run.max(1)));
            break;
        }
        let value = u8::from(rng.bool());
        w.u8(if i == bad && fault == 1 { 2 } else { value });
    }
    let mut bytes = w.finish();
    if let Some(missing) = cut {
        bytes.truncate(bytes.len() - missing);
    }
    bytes.into()
}

#[test]
fn lockstep_on_edge_ids_bad_values_and_cut_runs() {
    // K64 fills a one-word id set; K66 overflows it.
    for (n, f, cases) in [(4usize, 1usize, 200u32), (9, 3, 12), (64, 2, 4), (66, 2, 4)] {
        flm_prop::cases(cases, 0xED6E + n as u64, |rng| {
            lockstep_on_inboxes(rng, n, f, edge_payload);
        });
    }
}

/// One seeded payload for round `round` from `from` that reports a few
/// well-formed labels of the right level several times each, with values
/// drawn afresh for every report, so later reports contradict earlier ones.
fn repeated_payload(rng: &mut Rng, n: usize, round: usize, from: u32) -> Payload {
    let labels: Vec<Vec<u32>> = (0..rng.usize(1..4))
        .map(|_| {
            let mut sigma = Vec::new();
            while sigma.len() < (round - 1).min(n - 1) {
                let id = rng.usize(0..n) as u32;
                if !sigma.contains(&id) && id != from {
                    sigma.push(id);
                }
            }
            sigma
        })
        .collect();
    let count = rng.usize(1..10);
    let mut w = Writer::new();
    w.u32(count as u32);
    for _ in 0..count {
        let sigma = &labels[rng.usize(0..labels.len())];
        w.u8(sigma.len() as u8);
        for &id in sigma {
            w.u32(id);
        }
        w.bool(rng.bool());
    }
    w.finish().into()
}

#[test]
fn lockstep_on_repeated_labels() {
    for (n, f, cases) in [(4usize, 1usize, 200u32), (7, 2, 40), (9, 3, 8), (66, 1, 20)] {
        flm_prop::cases(cases, 0x2E9 + n as u64, |rng| {
            lockstep_on_inboxes(rng, n, f, repeated_payload);
        });
    }
}
