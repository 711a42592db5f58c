//! Exponential Information Gathering (EIG) Byzantine agreement \[PSL\].
//!
//! The classic `f+1`-round protocol achieving Byzantine agreement on the
//! complete graph with `n ≥ 3f + 1` nodes — the matching upper bound for
//! Theorem 1's `3f+1` lower bound. Each node grows a tree of "who said that
//! who said …" values and resolves it bottom-up by recursive majority.
//!
//! Combined with [`crate::relay::Relayed`] it runs on every adequate graph,
//! completing the tightness picture.

use flm_graph::{Graph, NodeId};
use flm_sim::auth::mix64;
use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
use flm_sim::wire::{Reader, Writer};
use flm_sim::{Protocol, Tick};

/// A tree cell with no reported value. A stored value `v` is `1 + v`.
const ABSENT: u8 = 0;
/// A tree cell holding `true`.
const TRUE: u8 = 2;

/// The EIG protocol for `f` faults. See the [module docs](self).
///
/// ```
/// use flm_graph::builders;
/// use flm_protocols::{testkit, Eig};
/// use flm_sim::{Decision, Input};
///
/// // n = 4 = 3f + 1: agreement holds even under one Byzantine fault
/// // (see `testkit::assert_byzantine_agreement` for the full sweep).
/// let behavior = testkit::run_honest(&Eig::new(1), &builders::complete(4), &|v| {
///     Input::Bool(v.0 == 0)
/// });
/// let first = behavior.node(flm_graph::NodeId(0)).decision();
/// assert!(matches!(first, Some(Decision::Bool(_))));
/// # for v in behavior.graph().nodes() { assert_eq!(behavior.node(v).decision(), first); }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Eig {
    f: usize,
}

impl Eig {
    /// Creates the protocol for fault budget `f`.
    pub fn new(f: usize) -> Self {
        Eig { f }
    }

    /// The fault budget.
    pub fn fault_budget(&self) -> usize {
        self.f
    }
}

impl Protocol for Eig {
    fn name(&self) -> String {
        format!("EIG(f={})", self.f)
    }

    /// # Panics
    ///
    /// Panics if `g` is not complete — EIG is written for `K_n`; use
    /// [`crate::relay::Relayed`] for sparser adequate graphs.
    fn device(&self, g: &Graph, v: NodeId) -> Box<dyn Device> {
        let n = g.node_count();
        assert!(g.is_complete(), "EIG requires the complete graph");
        Box::new(EigDevice::new(n, self.f, v))
    }

    fn horizon(&self, _g: &Graph) -> u32 {
        self.f as u32 + 2
    }
}

/// The per-node EIG state machine.
#[derive(Debug, Clone)]
pub struct EigDevice {
    n: usize,
    f: usize,
    me: u32,
    input: bool,
    /// The information-gathering tree, one dense level per label length.
    /// A label is a sequence of distinct ids below `n`; `levels[d][r]` is
    /// the cell of the length-`d` label of lexicographic rank `r`
    /// ([`EigDevice::rank`]). A level is allocated on its first store.
    levels: Vec<Vec<u8>>,
    decided: Option<bool>,
    /// Port → neighbor node id, fixed at init.
    port_ids: Vec<u32>,
}

/// The number of labels of length `d` over `n` ids, `n·(n−1)···(n−d+1)`,
/// if it fits a `usize`.
fn level_len(n: usize, d: usize) -> Option<usize> {
    (0..d).try_fold(1usize, |len, i| len.checked_mul(n.checked_sub(i)?))
}

impl EigDevice {
    /// Creates the device for node `me` of `K_n` with fault budget `f`.
    pub fn new(n: usize, f: usize, me: NodeId) -> Self {
        EigDevice {
            n,
            f,
            me: me.0,
            input: false,
            levels: Vec::new(),
            decided: None,
            port_ids: Vec::new(),
        }
    }

    /// The rank of `label` among the labels of its length, in lexicographic
    /// order: mixed radix, where digit `i` (radix `n − i`) counts the ids
    /// below `label[i]` that the label has not used before position `i`.
    /// `None` if an id repeats or is not below `n`.
    fn rank(&self, label: &[u32]) -> Option<usize> {
        let mut rank = 0usize;
        for (i, &id) in label.iter().enumerate() {
            let earlier = &label[..i];
            if id as usize >= self.n || earlier.contains(&id) {
                return None;
            }
            let digit = id as usize - earlier.iter().filter(|&&e| e < id).count();
            rank = rank.checked_mul(self.n - i)?.checked_add(digit)?;
        }
        Some(rank)
    }

    /// Whether any label of length `d` has been stored.
    fn allocated(&self, d: usize) -> bool {
        self.levels.get(d).is_some_and(|level| !level.is_empty())
    }

    /// The cell of the length-`d` label of rank `rank`.
    fn cell(&self, d: usize, rank: usize) -> u8 {
        self.levels
            .get(d)
            .and_then(|level| level.get(rank))
            .copied()
            .unwrap_or(ABSENT)
    }

    /// The cell of `label`, allocating its level on first use. `None` for a
    /// label with no cell (see [`EigDevice::rank`]) or a level too large to
    /// allocate.
    fn slot_mut(&mut self, label: &[u32]) -> Option<&mut u8> {
        let rank = self.rank(label)?;
        let d = label.len();
        if self.levels.len() <= d {
            self.levels.resize_with(d + 1, Vec::new);
        }
        let level = &mut self.levels[d];
        if level.is_empty() {
            let len = level_len(self.n, d)?;
            level.try_reserve_exact(len).ok()?;
            level.resize(len, ABSENT);
        }
        level.get_mut(rank)
    }

    /// Stores `val(label) = v` unless `label` already has a value: the first
    /// report wins.
    fn store(&mut self, label: &[u32], v: bool) {
        if let Some(cell) = self.slot_mut(label) {
            if *cell == ABSENT {
                *cell = 1 + u8::from(v);
            }
        }
    }

    /// Visits every label of length `1..=depth`, with its cell, in the
    /// tree's order: lexicographic, each label before its extensions. With
    /// `skip_me`, labels containing `me` (and so their extensions) are
    /// skipped. Callers keep `depth` at or below an allocated level, so
    /// every rank on the way fits a `usize`.
    fn walk(&self, depth: usize, skip_me: bool, visit: &mut impl FnMut(&[u32], u8)) {
        let mut label = Vec::with_capacity(depth);
        let mut used = vec![false; self.n];
        if depth > 0 {
            self.walk_from(0, depth, skip_me, &mut label, &mut used, visit);
        }
    }

    /// [`EigDevice::walk`] below `label`, whose rank is `rank`.
    fn walk_from(
        &self,
        rank: usize,
        depth: usize,
        skip_me: bool,
        label: &mut Vec<u32>,
        used: &mut [bool],
        visit: &mut impl FnMut(&[u32], u8),
    ) {
        let d = label.len() + 1;
        let radix = self.n - label.len();
        let mut digit = 0;
        for id in 0..self.n {
            if used[id] {
                continue;
            }
            let child = rank * radix + digit;
            digit += 1;
            if skip_me && id == self.me as usize {
                continue;
            }
            label.push(id as u32);
            visit(label, self.cell(d, child));
            if d < depth {
                used[id] = true;
                self.walk_from(child, depth, skip_me, label, used, visit);
                used[id] = false;
            }
            label.pop();
        }
    }

    /// Visits the stored level-`level` labels **not containing `me`**, with
    /// their values, in the tree's order.
    fn for_each_report(&self, level: usize, mut visit: impl FnMut(&[u32], bool)) {
        if self.allocated(level) {
            self.walk(level, true, &mut |sigma, cell| {
                if sigma.len() == level && cell != ABSENT {
                    visit(sigma, cell == TRUE);
                }
            });
        }
    }

    /// Encodes all level-`level` labels **not containing `me`** for
    /// broadcast.
    fn encode_level(&self, level: usize) -> Payload {
        let mut w = Writer::new();
        // The entry count, patched in below.
        w.u32(0);
        let mut count = 0u32;
        self.for_each_report(level, |sigma, v| {
            count += 1;
            w.u8(level as u8);
            for &id in sigma {
                w.u32(id);
            }
            w.bool(v);
        });
        let mut bytes = w.finish();
        bytes[..4].copy_from_slice(&count.to_be_bytes());
        bytes.into()
    }

    /// Applies the receive rule for round `round` to a payload from node
    /// `from`: store `val(σ·from) = v` for each valid pair `(σ, v)` with
    /// `|σ| = round − 1` and `from ∉ σ`. Malformed or out-of-spec entries
    /// are ignored (Byzantine senders may emit anything): a `σ·from` with a
    /// repeated id or an id not below `n` has no cell.
    fn absorb(&mut self, round: usize, from: u32, payload: &[u8]) {
        let mut r = Reader::new(payload);
        let Ok(count) = r.u32() else { return };
        let mut label = Vec::new();
        for _ in 0..count {
            let Ok(len) = r.u8() else { return };
            label.clear();
            for _ in 0..len {
                match r.u32() {
                    Ok(id) => label.push(id),
                    Err(_) => return,
                }
            }
            let Ok(v) = r.bool() else { return };
            if label.len() == round - 1 {
                label.push(from);
                self.store(&label, v);
            }
        }
    }

    /// The decision: the root's bottom-up resolution. Only leaves are
    /// read, so with no leaf stored every label resolves to `false`.
    fn decide(&self) -> bool {
        self.allocated(self.f + 1) && self.resolve(0, 0)
    }

    /// Bottom-up resolution of the length-`depth` label of rank `rank`:
    /// leaves read the stored value (default `false`), internal labels take
    /// the strict majority of their `n − depth` children, whose ranks are
    /// `rank·(n − depth) + 0, 1, …`.
    fn resolve(&self, depth: usize, rank: usize) -> bool {
        if depth == self.f + 1 {
            return self.cell(depth, rank) == TRUE;
        }
        let total = self.n - depth;
        let ones = (0..total)
            .filter(|&digit| self.resolve(depth + 1, rank * total + digit))
            .count();
        2 * ones > total
    }
}

impl Device for EigDevice {
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
        // Receive phase: tick r processes round-r messages (sent at r−1).
        if tick >= 1 && tick <= self.f + 1 {
            let round = tick;
            for (p, m) in inbox.iter().enumerate() {
                if let Some(m) = m {
                    self.absorb(round, self.port_ids[p], m);
                }
            }
        }
        if tick == self.f + 1 && self.decided.is_none() {
            self.decided = Some(self.decide());
        }
        // Send phase: tick r sends round r+1 (labels of level r).
        if tick == 0 {
            self.store(&[self.me], self.input);
            // Round 1: broadcast the input as the empty-label report.
            let mut w = Writer::new();
            w.u32(1).u8(0).bool(self.input);
            let payload: Payload = w.finish().into();
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        if tick <= self.f {
            let level = tick;
            // Self-delivery first: extend own level-`level` labels by `me`.
            let mut own = Vec::new();
            let mut vals = Vec::new();
            self.for_each_report(level, |sigma, v| {
                own.extend_from_slice(sigma);
                own.push(self.me);
                vals.push(v);
            });
            for (label, &v) in own.chunks(level + 1).zip(&vals) {
                self.store(label, v);
            }
            let payload = self.encode_level(level);
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        inbox.iter().map(|_| None).collect()
    }

    fn snapshot(&self) -> Vec<u8> {
        // Canonical digest of the tree (full serialization would be large).
        let mut h = mix64(0xE16);
        let depth = self.levels.iter().rposition(|level| !level.is_empty());
        self.walk(depth.unwrap_or(0), false, &mut |sigma, cell| {
            if cell != ABSENT {
                for &id in sigma {
                    h = mix64(h ^ u64::from(id));
                }
                h = mix64(h ^ 0xFF ^ u64::from(cell == TRUE));
            }
        });
        match self.decided {
            Some(b) => snapshot::decided_bool(b, &h.to_be_bytes()),
            None => snapshot::undecided(&h.to_be_bytes()),
        }
    }

    fn fork(&self) -> Option<Box<dyn Device>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use flm_graph::builders;
    use flm_sim::{Decision, Input};

    #[test]
    fn all_honest_k4_agrees_on_common_input() {
        for input in [false, true] {
            let b = testkit::run_honest(&Eig::new(1), &builders::complete(4), &|_| {
                Input::Bool(input)
            });
            for v in b.graph().nodes() {
                assert_eq!(b.node(v).decision(), Some(Decision::Bool(input)));
            }
        }
    }

    #[test]
    fn mixed_inputs_still_agree() {
        let b = testkit::run_honest(&Eig::new(1), &builders::complete(4), &|v| {
            Input::Bool(v.0 % 2 == 0)
        });
        let decisions: Vec<_> = b.graph().nodes().map(|v| b.node(v).decision()).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        assert!(decisions[0].is_some());
    }

    #[test]
    fn tolerates_every_zoo_adversary_k4_f1() {
        testkit::assert_byzantine_agreement(&Eig::new(1), &builders::complete(4), 1, 20);
    }

    #[test]
    fn tolerates_every_zoo_adversary_k7_f2() {
        testkit::assert_byzantine_agreement(&Eig::new(2), &builders::complete(7), 2, 8);
    }

    impl EigDevice {
        /// The stored value of `label`, if any.
        fn value(&self, label: &[u32]) -> Option<bool> {
            let rank = self.rank(label)?;
            match self.cell(label.len(), rank) {
                ABSENT => None,
                cell => Some(cell == TRUE),
            }
        }

        /// Whether no label has a stored value.
        fn is_empty(&self) -> bool {
            self.levels.iter().flatten().all(|&cell| cell == ABSENT)
        }
    }

    #[test]
    fn resolve_majority_logic() {
        let mut d = EigDevice::new(4, 1, NodeId(0));
        // Leaves for σ = [1]: children [1,0], [1,2], [1,3].
        d.store(&[1, 0], true);
        d.store(&[1, 2], true);
        d.store(&[1, 3], false);
        let sigma = d.rank(&[1]).unwrap();
        assert!(d.resolve(1, sigma));
        d.store(&[1, 2], false);
        // Re-resolve: the first report wins, so `store` won't overwrite;
        // set directly.
        *d.slot_mut(&[1, 2]).unwrap() = 1;
        assert!(!d.resolve(1, sigma));
    }

    #[test]
    fn absorb_rejects_malformed_and_out_of_spec() {
        let mut d = EigDevice::new(4, 1, NodeId(0));
        // Wrong level for round 1 (|σ| must be 0).
        let mut w = Writer::new();
        w.u32(1).u8(1).u32(2).bool(true);
        d.absorb(1, 3, &w.finish());
        assert!(d.is_empty());
        // Truncated garbage.
        d.absorb(1, 3, &[9, 9]);
        assert!(d.is_empty());
        // Valid round-1 report from node 3.
        let mut w = Writer::new();
        w.u32(1).u8(0).bool(true);
        d.absorb(1, 3, &w.finish());
        assert_eq!(d.value(&[3]), Some(true));
    }

    #[test]
    fn a_huge_tree_is_grown_lazily() {
        // 64·63···24 leaves: no usize holds the tree's size, let alone RAM.
        let (n, f) = (64, 40);
        assert_eq!(level_len(n, f + 1), None);
        let inbox = vec![None; n - 1];
        for v in 0..n as u32 {
            let mut d = EigDevice::new(n, f, NodeId(v));
            d.init(&NodeCtx {
                node: NodeId(v),
                ports: (0..n as u32).filter(|&w| w != v).map(NodeId).collect(),
                input: Input::Bool(v % 2 == 0),
            });
            let out = d.step(Tick(0), &inbox);
            assert_eq!(out.len(), n - 1);
            assert!(out.iter().all(Option::is_some));
            assert_eq!(snapshot::decision_in(&d.snapshot()), None);
            // Only level 1 exists, holding the node's own input.
            let cells: usize = d.levels.iter().map(Vec::capacity).sum();
            assert_eq!(cells, n);
            assert_eq!(d.value(&[v]), Some(v % 2 == 0));
        }
    }
}
