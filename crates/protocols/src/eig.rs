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
use flm_sim::wire::Writer;
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
    /// ([`EigDevice::rank`]). A level is allocated on its first stored
    /// report.
    levels: Vec<Vec<u8>>,
    /// `extended[d]`: the node has delivered its level-`(d − 1)` reports to
    /// itself, so each length-`d` label `σ·me` holds `val(σ)`. Those cells
    /// are derived on read, never stored: only self-delivery writes a label
    /// ending in `me`, and it copies a level that is frozen by then.
    extended: Vec<bool>,
    /// The snapshot digest: the wrapping sum of [`term`], keyed by length
    /// and rank, over every label with a value, stored or derived. A term
    /// is added when its label gets its value, which happens once, so the
    /// sum is the same in whatever order the cells fill.
    digest: u64,
    decided: Option<bool>,
    /// Port → neighbor node id, fixed at init.
    port_ids: Vec<u32>,
}

/// The number of labels of length `d` over `n` ids, `n·(n−1)···(n−d+1)`,
/// if it fits a `usize`.
fn level_len(n: usize, d: usize) -> Option<usize> {
    (0..d).try_fold(1usize, |len, i| len.checked_mul(n.checked_sub(i)?))
}

/// The ids of a label's wire form, big-endian `u32`s.
fn wire_ids(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|id| u32::from_be_bytes(id.try_into().expect("chunks of four bytes")))
}

/// [`EigDevice::rank`] of the label `ids·last` for `n ≤ 64`, with the used
/// ids kept as one bitmask; `ids` holds big-endian `u32`s. The caller
/// guarantees that the labels of this length fit a `usize` ([`level_len`]).
fn rank_within_64(n: usize, ids: &[u8], last: u32) -> Option<usize> {
    let mut used = 0u64;
    let mut rank = 0usize;
    for (i, id) in wire_ids(ids).chain([last]).enumerate() {
        if id as usize >= n {
            return None;
        }
        let bit = 1u64 << id;
        if used & bit != 0 {
            return None;
        }
        let digit = id as usize - (used & (bit - 1)).count_ones() as usize;
        rank = rank * (n - i) + digit;
        used |= bit;
    }
    Some(rank)
}

/// Stores `v` in `cell` unless the cell already has a value (the first
/// report wins), and returns whether it did.
fn put(cell: &mut u8, v: bool) -> bool {
    let fresh = *cell == ABSENT;
    if fresh {
        *cell = 1 + u8::from(v);
    }
    fresh
}

/// The digest term of the length-`d` label of rank `rank` and value `v`:
/// one [`mix64`] of a word that differs for every label a run can hold.
fn term(d: usize, rank: usize, v: bool) -> u64 {
    mix64(((d as u64) << 56) ^ ((rank as u64) << 1) ^ u64::from(v))
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
            extended: Vec::new(),
            digest: 0,
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

    /// The stored cells of level `d`; empty if the level is not allocated.
    fn level(&self, d: usize) -> &[u8] {
        self.levels.get(d).map_or(&[], Vec::as_slice)
    }

    /// Whether level `d` holds its self-delivered `σ·me` cells.
    fn extended(&self, d: usize) -> bool {
        self.extended.get(d).copied().unwrap_or(false)
    }

    /// Whether any label of length `d` has a value, stored or derived.
    fn present(&self, d: usize) -> bool {
        !self.level(d).is_empty() || self.extended(d)
    }

    /// The cells of level `d`, allocating the level on first use. `None` for
    /// a level too large to allocate.
    fn level_mut(&mut self, d: usize) -> Option<&mut [u8]> {
        if self.levels.len() <= d {
            self.levels.resize_with(d + 1, Vec::new);
        }
        let level = &mut self.levels[d];
        if level.is_empty() {
            let len = level_len(self.n, d)?;
            level.try_reserve_exact(len).ok()?;
            level.resize(len, ABSENT);
        }
        Some(level)
    }

    /// Applies the receive rule for round `round` to a payload from node
    /// `from`: store `val(σ·from) = v` for each valid pair `(σ, v)` with
    /// `|σ| = round − 1` and `from ∉ σ`, unless `σ·from` already has a
    /// value (the first report wins). Malformed or out-of-spec entries
    /// are ignored (Byzantine senders may emit anything): a `σ·from` with a
    /// repeated id or an id not below `n` has no cell. Reading stops at a
    /// truncated entry or a value byte other than 0 or 1.
    fn absorb(&mut self, round: usize, from: u32, payload: &[u8]) {
        // No label of this length fits a `usize`, so none has a cell.
        if level_len(self.n, round).is_none() {
            return;
        }
        let n = self.n;
        let Some((count, mut rest)) = payload.split_first_chunk::<4>() else {
            return;
        };
        let mut label = Vec::new();
        for _ in 0..u32::from_be_bytes(*count) {
            let Some((&len, tail)) = rest.split_first() else {
                return;
            };
            let len = usize::from(len);
            let Some((ids, [v, tail @ ..])) = tail.split_at_checked(4 * len) else {
                return;
            };
            let v = match v {
                0 | 1 => *v == 1,
                _ => return,
            };
            rest = tail;
            if len != round - 1 {
                continue;
            }
            let r = if n <= 64 {
                rank_within_64(n, ids, from)
            } else {
                label.clear();
                label.extend(wire_ids(ids).chain([from]));
                self.rank(&label)
            };
            let Some(r) = r else { continue };
            let Some(cells) = self.level_mut(round) else {
                return;
            };
            if put(&mut cells[r], v) {
                self.digest = self.digest.wrapping_add(term(round, r, v));
            }
        }
    }

    /// The round-`level + 1` broadcast: every stored level-`level` report
    /// `σ` not containing `me`, in the tree's order, as `(|σ|, σ, val(σ))`
    /// after an entry count. Sending them is also the self-delivery: if
    /// there is any, level `level + 1` becomes extended
    /// ([`EigDevice::extended`]) and each `σ·me` adds its term to the
    /// digest.
    fn send_level(&mut self, level: usize) -> Payload {
        let cells = self.level(level);
        let mut out = vec![0; 4];
        // Only labels `σ·me` that have a cell are extended.
        let extends = (self.me as usize) < self.n && level_len(self.n, level + 1).is_some();
        let (mut count, mut derived) = (0, 0);
        if !cells.is_empty() {
            let stored = cells.iter().filter(|&&cell| cell != ABSENT).count();
            out.reserve(stored * (2 + 4 * level));
            let mut prefix = Vec::with_capacity(4 * level);
            let mut used = vec![false; self.n];
            let me_digit = extends.then_some(self.me as usize);
            (count, derived) =
                self.encode_from(level, 0, me_digit, &mut prefix, &mut used, &mut out);
        }
        out[..4].copy_from_slice(&count.to_be_bytes());
        if count > 0 && extends {
            if self.extended.len() <= level + 1 {
                self.extended.resize(level + 2, false);
            }
            self.extended[level + 1] = true;
            self.digest = self.digest.wrapping_add(derived);
        }
        out.into()
    }

    /// [`EigDevice::send_level`]'s walk below the label with ids `prefix`
    /// (big-endian) and rank `rank`: appends the entries of its length-`level`
    /// extensions `σ` that avoid `me`, and returns their count and the sum of
    /// their `σ·me` terms. `me_digit` is the digit of the child that appends
    /// `me`, as in [`EigDevice::resolve`]; with `None` no term is summed.
    fn encode_from(
        &self,
        level: usize,
        rank: usize,
        me_digit: Option<usize>,
        prefix: &mut Vec<u8>,
        used: &mut [bool],
        out: &mut Vec<u8>,
    ) -> (u32, u64) {
        let d = prefix.len() / 4 + 1;
        let radix = self.n - (d - 1);
        let cells = self.level(level);
        let (mut count, mut derived) = (0, 0u64);
        let (mut digit, me) = (0, self.me as usize);
        for id in 0..self.n {
            if used[id] {
                continue;
            }
            let child = rank * radix + digit;
            digit += 1;
            if id == me {
                continue;
            }
            // A child below `me` adds an id below `me`.
            let below = me_digit.map(|m| m - usize::from(id < me));
            let id_bytes = (id as u32).to_be_bytes();
            if d < level {
                used[id] = true;
                prefix.extend_from_slice(&id_bytes);
                let (c, sum) = self.encode_from(level, child, below, prefix, used, out);
                prefix.truncate(prefix.len() - 4);
                used[id] = false;
                count += c;
                derived = derived.wrapping_add(sum);
            } else if cells[child] != ABSENT {
                out.push(level as u8);
                out.extend_from_slice(prefix);
                out.extend_from_slice(&id_bytes);
                out.push(cells[child] - 1);
                count += 1;
                if let Some(m) = below {
                    let sigma_me = child * (self.n - level) + m;
                    derived = derived.wrapping_add(term(level + 1, sigma_me, cells[child] == TRUE));
                }
            }
        }
        (count, derived)
    }

    /// The decision: the root's bottom-up resolution. Only leaves are
    /// read, so with no leaf stored every label resolves to `false`.
    fn decide(&self) -> bool {
        let me = (self.me as usize) < self.n;
        self.present(self.f + 1) && self.resolve(0, 0, ABSENT, me.then_some(self.me as usize))
    }

    /// Bottom-up resolution of the length-`depth` label of rank `rank` and
    /// cell `cell`: leaves read their value (default `false`), internal
    /// labels take the strict majority of their `n − depth` children, whose
    /// ranks are `rank·(n − depth) + 0, 1, …`. `me_digit` is the digit of
    /// the child that appends `me`, if the label does not contain `me`.
    fn resolve(&self, depth: usize, rank: usize, cell: u8, me_digit: Option<usize>) -> bool {
        if depth == self.f + 1 {
            return cell == TRUE;
        }
        let total = self.n - depth;
        let cells = self.level(depth + 1);
        let derived = self.extended(depth + 1);
        let ones = (0..total)
            .filter(|&digit| {
                let child = rank * total + digit;
                let stored = cells.get(child).copied().unwrap_or(ABSENT);
                // A child below `me`'s digit adds an id below `me`.
                let (child_cell, below) = match me_digit {
                    Some(m) if digit == m => (if derived { cell } else { stored }, None),
                    Some(m) if digit < m => (stored, Some(m - 1)),
                    other => (stored, other),
                };
                self.resolve(depth + 1, child, child_cell, below)
            })
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
            // Round 1: broadcast the input as the empty-label report, and
            // deliver it to itself: the own input is the cell of `[me]`.
            let mut w = Writer::new();
            w.u32(1).u8(0).bool(self.input);
            let payload: Payload = w.finish().into();
            self.absorb(1, self.me, &payload);
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        if tick <= self.f {
            let payload = self.send_level(tick);
            return inbox.iter().map(|_| Some(payload.clone())).collect();
        }
        inbox.iter().map(|_| None).collect()
    }

    /// The decision tag and the tree's running digest (the `digest` field):
    /// the tree itself would be too large to serialize every tick.
    fn snapshot(&self) -> Vec<u8> {
        let h = self.digest.to_be_bytes();
        match self.decided {
            Some(b) => snapshot::decided_bool(b, &h),
            None => snapshot::undecided(&h),
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
        /// The value of `label`, stored or derived, if any.
        fn value(&self, label: &[u32]) -> Option<bool> {
            let d = label.len();
            let r = self.rank(label)?;
            if let Some((&last, sigma)) = label.split_last() {
                if last == self.me && self.extended(d) {
                    return self.value(sigma);
                }
            }
            let cell = self.level(d).get(r).copied()?;
            (cell != ABSENT).then_some(cell == TRUE)
        }

        /// Stores `val(label) = v` unless `label` already has a value.
        fn store(&mut self, label: &[u32], v: bool) {
            let r = self.rank(label).expect("a label with a cell");
            let cells = self.level_mut(label.len()).expect("a small level");
            put(&mut cells[r], v);
        }

        /// Whether no label has a stored value.
        fn is_empty(&self) -> bool {
            self.levels.iter().flatten().all(|&cell| cell == ABSENT)
        }
    }

    /// Node `v` of `K_n` with fault budget `f`, input `input` and ports to
    /// the nodes `ports`.
    fn device(n: usize, f: usize, v: u32, ports: &[u32], input: bool) -> EigDevice {
        let mut d = EigDevice::new(n, f, NodeId(v));
        let ports = ports.iter().copied().map(NodeId).collect();
        d.init(&NodeCtx {
            node: NodeId(v),
            ports,
            input: Input::Bool(input),
        });
        d
    }

    /// Every node of `K_n` but `v`, by id.
    fn others(n: usize, v: u32) -> Vec<u32> {
        (0..n as u32).filter(|&w| w != v).collect()
    }

    #[test]
    fn resolve_majority_logic() {
        let mut d = EigDevice::new(4, 1, NodeId(0));
        // Leaves for σ = [1]: children [1,0], [1,2], [1,3]; `me = 0` is
        // digit 0.
        d.store(&[1, 0], true);
        d.store(&[1, 2], true);
        d.store(&[1, 3], false);
        let sigma = d.rank(&[1]).unwrap();
        assert!(d.resolve(1, sigma, ABSENT, Some(0)));
        d.store(&[1, 2], false);
        // Re-resolve: the first report wins, so `store` won't overwrite;
        // set directly.
        let leaf = d.rank(&[1, 2]).unwrap();
        d.levels[2][leaf] = 1;
        assert!(!d.resolve(1, sigma, ABSENT, Some(0)));
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
    fn the_bitmask_rank_matches_the_generic_rank() {
        for n in [1usize, 2, 5, 63, 64] {
            let d = EigDevice::new(n, 1, NodeId(0));
            flm_prop::cases(200, n as u64, |rng| {
                let len = rng.usize(1..n.min(6) + 1);
                let label: Vec<u32> = (0..len)
                    .map(|_| match rng.usize(0..8) {
                        0 => [63, 64, u32::MAX][rng.usize(0..3)],
                        _ => rng.usize(0..n) as u32,
                    })
                    .collect();
                let (last, sigma) = label.split_last().unwrap();
                let ids: Vec<u8> = sigma.iter().flat_map(|id| id.to_be_bytes()).collect();
                assert_eq!(rank_within_64(n, &ids, *last), d.rank(&label), "{label:?}");
            });
        }
    }

    /// The labels of length `len` over `n` ids, in lexicographic order.
    fn labels(n: u32, len: usize) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new()];
        for _ in 0..len {
            let mut next = Vec::new();
            for sigma in &out {
                for id in (0..n).filter(|id| !sigma.contains(id)) {
                    next.push([sigma.as_slice(), &[id]].concat());
                }
            }
            out = next;
        }
        out
    }

    #[test]
    fn the_walk_derives_the_rank_of_sigma_me() {
        // A seeded fill of one level; self-delivery must add exactly the
        // terms of the `σ·me` ranks computed from their ids.
        let mut rng = flm_prop::Rng::new(0x5161);
        for (n, top) in [(4usize, 3usize), (5, 4), (6, 5), (7, 6), (66, 2)] {
            for level in 1..=top {
                let all = labels(n as u32, level);
                for me in 0..n as u32 {
                    let mut d = EigDevice::new(n, top, NodeId(me));
                    for cell in d.level_mut(level).unwrap() {
                        *cell = [ABSENT, 1, TRUE][rng.usize(0..3)];
                    }
                    let mut want = 0u64;
                    for (r, sigma) in all.iter().enumerate() {
                        assert_eq!(d.rank(sigma), Some(r), "{sigma:?}");
                        let cell = d.level(level)[r];
                        if cell != ABSENT && !sigma.contains(&me) {
                            let sigma_me = d.rank(&[sigma.as_slice(), &[me]].concat()).unwrap();
                            want = want.wrapping_add(term(level + 1, sigma_me, cell == TRUE));
                        }
                    }
                    d.send_level(level);
                    assert_eq!(d.digest, want, "K{n}, me = {me}, level {level}");
                }
            }
        }
    }

    #[test]
    fn self_delivery_is_derived_not_stored() {
        let mut d = device(5, 2, 1, &[0, 2, 3, 4], true);
        d.step(Tick(0), &[None, None, None, None]);
        // Round 1: node 0 reports `false`, node 3 `true`.
        let report = |v: bool| {
            let mut w = Writer::new();
            w.u32(1).u8(0).bool(v);
            Some(Payload::from(w.finish()))
        };
        d.step(Tick(1), &[report(false), None, report(true), None]);
        assert!(d.level(2).is_empty() && d.extended(2));
        assert_eq!(d.value(&[0, 1]), Some(false));
        assert_eq!(d.value(&[3, 1]), Some(true));
        assert_eq!(d.value(&[2, 1]), None);
        // The own input is stored at level 1, never re-extended.
        assert_eq!(d.value(&[1]), Some(true));
        assert_eq!(d.value(&[1, 0]), None);
    }

    /// `sent[t][u]`: the `(σ, v)` entries node `u` sends at tick `t`.
    type Sent = [Vec<Vec<(Vec<u32>, bool)>>];

    /// Node 0 of K5 (`f = 2`) with ports to `order`, stepped through
    /// `sent`: its snapshot after each tick.
    fn snapshots(order: &[u32], sent: &Sent) -> Vec<Vec<u8>> {
        let mut d = device(5, 2, 0, order, true);
        let payload = |entries: &[(Vec<u32>, bool)]| {
            let mut out = (entries.len() as u32).to_be_bytes().to_vec();
            for (sigma, v) in entries {
                out.push(sigma.len() as u8);
                out.extend(sigma.iter().flat_map(|id| id.to_be_bytes()));
                out.push(u8::from(*v));
            }
            Some(Payload::from(out))
        };
        let mut snapshots = Vec::new();
        for (t, row) in (0..).zip(sent) {
            let inbox: Vec<_> = order.iter().map(|&u| payload(&row[u as usize])).collect();
            d.step(Tick(t), &inbox);
            snapshots.push(d.snapshot());
        }
        snapshots
    }

    #[test]
    fn the_snapshot_is_a_function_of_the_cells() {
        flm_prop::cases(40, 0x5AB, |rng| {
            // At tick t node u reports labels of length t − 1 that avoid u.
            let mut sent = vec![vec![Vec::new(); 5]; 4];
            for (t, by_node) in sent.iter_mut().enumerate() {
                for (u, entries) in (0..).zip(by_node) {
                    for _ in 0..rng.usize(1..5) {
                        let mut ids: Vec<u32> = (0..5).filter(|&id| id != u).collect();
                        let sigma = (1..t).map(|_| ids.swap_remove(rng.usize(0..ids.len())));
                        entries.push((sigma.collect(), rng.bool()));
                    }
                }
            }
            let ports = [1, 2, 3, 4];
            let base = snapshots(&ports, &sent);
            assert_eq!(snapshots(&[3, 1, 4, 2], &sent), base, "port order matters");
            let (t, u) = (rng.usize(1..4), rng.usize(1..5));
            // Repeats with the opposite value: the first report wins.
            let mut repeated = sent.clone();
            repeated[t][u].extend(sent[t][u].iter().map(|(sigma, v)| (sigma.clone(), !v)));
            assert_eq!(snapshots(&ports, &repeated), base, "a repeat counts");
            // One cell apart, from tick t on.
            sent[t][u][0].1 ^= true;
            let other = snapshots(&ports, &sent);
            assert_eq!(other[..t], base[..t]);
            assert!(other[t..].iter().zip(&base[t..]).all(|(a, b)| a != b));
        });
    }

    #[test]
    fn an_oversized_level_allocates_no_deeper_level() {
        // On K20 the level-3 broadcast, 19·18·17 entries of 14 B, is over
        // the kernel's default payload limit, which stops the run at tick 3.
        let (n, f) = (20usize, 5usize);
        let mut devices: Vec<EigDevice> = (0..n as u32)
            .map(|v| device(n, f, v, &others(n, v), v % 3 == 0))
            .collect();
        // Each device broadcasts one payload per tick.
        let mut sent: Vec<Payload> = Vec::new();
        for t in 0..=3 {
            sent = (0..n)
                .map(|v| {
                    let inbox: Vec<Option<Payload>> = (0..n)
                        .filter(|&u| u != v)
                        .map(|u| sent.get(u).cloned())
                        .collect();
                    devices[v].step(Tick(t), &inbox)[0].clone().unwrap()
                })
                .collect();
        }
        let limit = flm_sim::RunPolicy::default().max_payload_bytes;
        let stored: usize = (1..=3).map(|l| level_len(n, l).unwrap()).sum();
        for (d, payload) in devices.iter().zip(&sent) {
            assert_eq!(payload.len(), 4 + 19 * 18 * 17 * 14);
            assert!(payload.len() > limit);
            let cells: usize = d.levels.iter().map(Vec::capacity).sum();
            assert_eq!(cells, stored, "only levels 1 to 3 are allocated");
            // Level 4 still exists for the snapshot, as derived cells.
            assert!(d.present(4) && d.level(4).is_empty());
        }
    }

    #[test]
    fn a_huge_tree_is_grown_lazily() {
        // 64·63···24 leaves: no usize holds the tree's size, let alone RAM.
        let (n, f) = (64, 40);
        assert_eq!(level_len(n, f + 1), None);
        let inbox = vec![None; n - 1];
        for v in 0..n as u32 {
            let mut d = device(n, f, v, &others(n, v), v % 2 == 0);
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
