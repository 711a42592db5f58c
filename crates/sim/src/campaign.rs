//! Chaos-campaign vocabulary: sweep grammar, run specs, and the campaign
//! report.
//!
//! A *campaign* is a seed-deterministic sweep over protocols × graph
//! families × fault-plan sizes. This module owns the protocol-agnostic
//! pieces — [`GraphFamily`] (the seeded topologies swept), [`ProblemKind`]
//! (which agreement condition a protocol is probed against),
//! [`CampaignConfig`] and its cross-product of [`RunSpec`]s, and the
//! [`CampaignReport`] JSON — while the driver that actually resolves
//! protocols, runs systems, and shrinks violations lives in `crates/bench`
//! (it needs the registry and the refutation stack, which sit above this
//! crate).
//!
//! Everything here is a pure function of the campaign seed: the same
//! [`CampaignConfig`] always yields the same specs, the same plans, and —
//! because the simulator itself is deterministic — byte-identical
//! certificates and reports.

use std::collections::BTreeSet;

use flm_graph::{builders, Graph, GraphError, NodeId};

use crate::auth::mix64;
use crate::faults::FaultPlan;
use crate::system::RunPolicy;

/// A seeded topology family the campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// The cycle `C_n` (`n ≥ 3`).
    Ring {
        /// Node count.
        n: usize,
    },
    /// The complete graph `K_n` (`n ≥ 2`).
    Complete {
        /// Node count.
        n: usize,
    },
    /// A seeded random `d`-regular graph ([`builders::random_regular`]).
    RandomRegular {
        /// Node count.
        n: usize,
        /// Uniform degree.
        d: usize,
    },
    /// A seeded 3-regular expander candidate ([`builders::expander`]).
    Expander {
        /// Node count (even, `≥ 4`).
        n: usize,
    },
    /// The `weight`-fold covering ring of `C_base`
    /// ([`builders::ring_cover`]).
    RingCover {
        /// Base cycle size (`≥ 3`).
        base: usize,
        /// Covering weight (`≥ 1`).
        weight: usize,
    },
}

impl GraphFamily {
    /// The family's report / certificate-file name, e.g. `ring6`,
    /// `regular10x3`, `cover3w4`.
    pub fn name(&self) -> String {
        match *self {
            GraphFamily::Ring { n } => format!("ring{n}"),
            GraphFamily::Complete { n } => format!("complete{n}"),
            GraphFamily::RandomRegular { n, d } => format!("regular{n}x{d}"),
            GraphFamily::Expander { n } => format!("expander{n}"),
            GraphFamily::RingCover { base, weight } => format!("cover{base}w{weight}"),
        }
    }

    /// The number of nodes the built graph will have — the shrinker's
    /// primary size metric, available without building.
    pub fn node_count(&self) -> usize {
        match *self {
            GraphFamily::Ring { n }
            | GraphFamily::Complete { n }
            | GraphFamily::RandomRegular { n, .. }
            | GraphFamily::Expander { n } => n,
            GraphFamily::RingCover { base, weight } => base * weight,
        }
    }

    /// Builds the graph under `seed` (seeded families only consult it;
    /// fixed families ignore it).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadParameter`] for degenerate parameters —
    /// the campaign records these as incidents rather than panicking.
    pub fn build(&self, seed: u64) -> Result<Graph, GraphError> {
        let bad = |reason: String| GraphError::BadParameter { reason };
        match *self {
            GraphFamily::Ring { n } => {
                if n < 3 {
                    return Err(bad(format!("a ring needs at least 3 nodes, got {n}")));
                }
                Ok(builders::cycle(n))
            }
            GraphFamily::Complete { n } => {
                if n < 2 {
                    return Err(bad(format!(
                        "a complete graph needs at least 2 nodes, got {n}"
                    )));
                }
                Ok(builders::complete(n))
            }
            GraphFamily::RandomRegular { n, d } => builders::random_regular(n, d, seed),
            GraphFamily::Expander { n } => builders::expander(n, seed),
            GraphFamily::RingCover { base, weight } => builders::ring_cover(base, weight),
        }
    }

    /// Strictly smaller variants of the same family — each with fewer
    /// nodes and parameters that still validate. The shrinker probes these
    /// in order, so the ordering (halving before decrement) is part of the
    /// determinism contract.
    pub fn shrink_candidates(&self) -> Vec<GraphFamily> {
        let mut out = Vec::new();
        let mut push = |fam: GraphFamily| {
            if fam.node_count() < self.node_count() && !out.contains(&fam) {
                out.push(fam);
            }
        };
        match *self {
            GraphFamily::Ring { n } => {
                if n / 2 >= 3 {
                    push(GraphFamily::Ring { n: n / 2 });
                }
                if n > 3 {
                    push(GraphFamily::Ring { n: n - 1 });
                }
            }
            GraphFamily::Complete { n } => {
                if n / 2 >= 2 {
                    push(GraphFamily::Complete { n: n / 2 });
                }
                if n > 2 {
                    push(GraphFamily::Complete { n: n - 1 });
                }
            }
            GraphFamily::RandomRegular { n, d } => {
                for m in [n / 2, n - 1] {
                    if d < m && (m * d) % 2 == 0 {
                        push(GraphFamily::RandomRegular { n: m, d });
                    }
                }
            }
            GraphFamily::Expander { n } => {
                let half = (n / 2) & !1;
                if half >= 4 {
                    push(GraphFamily::Expander { n: half });
                }
                if n - 2 >= 4 {
                    push(GraphFamily::Expander { n: n - 2 });
                }
            }
            GraphFamily::RingCover { base, weight } => {
                if weight / 2 >= 1 {
                    push(GraphFamily::RingCover {
                        base,
                        weight: weight / 2,
                    });
                }
                if weight > 1 {
                    push(GraphFamily::RingCover {
                        base,
                        weight: weight - 1,
                    });
                }
                if base > 3 {
                    push(GraphFamily::RingCover {
                        base: base - 1,
                        weight,
                    });
                }
            }
        }
        out
    }
}

/// The scheduling model a campaign cell runs under — the campaign's third
/// sweep axis next to topology and fault plans.
///
/// `Sync` is the classic lock-step round model every pre-existing campaign
/// ran; the async kinds drive the same protocol through the per-message
/// scheduler of [`crate::async_sched`], either with the fair round-robin
/// chooser or with the starvation adversaries. Async cells probe the
/// scheduling model itself, so they only pair with the fault-free plan
/// (`rule_count == 0`) and with problems whose devices speak boolean
/// agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Lock-step synchronous rounds ([`crate::system::System`]).
    Sync,
    /// Per-message asynchronous delivery under the fair round-robin
    /// chooser.
    AsyncFair,
    /// Per-message asynchronous delivery under the starvation adversaries
    /// (one per victim node, bivalence look-ahead enabled).
    AsyncAdversarial,
}

impl SchedulerKind {
    /// Every kind, in the canonical sweep order.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Sync,
        SchedulerKind::AsyncFair,
        SchedulerKind::AsyncAdversarial,
    ];

    /// The kind's report / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Sync => "sync",
            SchedulerKind::AsyncFair => "async-fair",
            SchedulerKind::AsyncAdversarial => "async-adversarial",
        }
    }

    /// Parses a CLI spelling of the kind.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted spellings.
    pub fn parse(name: &str) -> Result<SchedulerKind, String> {
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                format!("unknown scheduler {name:?} (want sync, async-fair, or async-adversarial)")
            })
    }
}

/// The agreement condition a campaign probe checks a protocol against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProblemKind {
    /// Byzantine agreement (validity + agreement + termination).
    ByzantineAgreement,
    /// Weak agreement (agreement only binding when all nodes are correct).
    WeakAgreement,
    /// The Byzantine firing squad (synchronized firing).
    FiringSquad,
    /// Approximate agreement, simple form (range validity + ε-agreement).
    ApproxAgreement,
}

// The tag byte a campaign's run key records the kind by.
crate::wire_schema! {
    enum ProblemKind {
        ByzantineAgreement = 0,
        WeakAgreement = 1,
        FiringSquad = 2,
        ApproxAgreement = 3,
    }
}

impl ProblemKind {
    /// Every kind, in the canonical sweep order.
    pub const ALL: [ProblemKind; 4] = [
        ProblemKind::ByzantineAgreement,
        ProblemKind::WeakAgreement,
        ProblemKind::FiringSquad,
        ProblemKind::ApproxAgreement,
    ];

    /// The kind's report name.
    pub fn name(self) -> &'static str {
        match self {
            ProblemKind::ByzantineAgreement => "byzantine-agreement",
            ProblemKind::WeakAgreement => "weak-agreement",
            ProblemKind::FiringSquad => "firing-squad",
            ProblemKind::ApproxAgreement => "approx-agreement",
        }
    }

    /// Whether the asynchronous scheduler axis probes this kind: the async
    /// refuter assigns boolean inputs and checks agreement/termination, so
    /// only the boolean-agreement problems are probeable.
    fn async_probeable(self) -> bool {
        matches!(
            self,
            ProblemKind::ByzantineAgreement | ProblemKind::WeakAgreement
        )
    }
}

/// A campaign: the seed, the sweep dimensions, and the run policy every
/// probe is contained under.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every derived seed (graph builds, fault plans) is a
    /// pure function of it.
    pub seed: u64,
    /// Protocols to probe, each tagged with the condition to check.
    pub protocols: Vec<(ProblemKind, String)>,
    /// Topology families to sweep.
    pub graphs: Vec<GraphFamily>,
    /// Fault-plan sizes (rule counts) to sweep; `0` probes the fault-free
    /// run.
    pub rule_counts: Vec<usize>,
    /// Scheduling models to sweep. `[Sync]` reproduces the classic
    /// synchronous campaign exactly (same specs, same seeds, same
    /// certificates); adding async kinds appends async cells without
    /// perturbing the synchronous ones.
    pub schedulers: Vec<SchedulerKind>,
    /// Fault budget: plans draw their senders from at most `f` nodes, and
    /// a probe whose faulty + degraded set exceeds `f` is an incident, not
    /// a violation.
    pub f: usize,
    /// Containment policy for every run.
    pub policy: RunPolicy,
}

impl CampaignConfig {
    /// The full cross-product of run specs, in the canonical order
    /// (protocols outermost, then graphs, then rule counts, then
    /// schedulers). Indices and derived seeds are stable: the same config
    /// yields the same specs, and a `[Sync]`-only scheduler axis yields
    /// exactly the specs the pre-axis campaign produced. Async cells skip
    /// fault plans (the async model has no injectors) and non-boolean
    /// problems, so they never multiply the sweep blindly.
    pub fn specs(&self) -> Vec<RunSpec> {
        let mut out = Vec::new();
        for (problem, protocol) in &self.protocols {
            for graph in &self.graphs {
                for &rule_count in &self.rule_counts {
                    for &scheduler in &self.schedulers {
                        if scheduler != SchedulerKind::Sync
                            && (rule_count != 0 || !problem.async_probeable())
                        {
                            continue;
                        }
                        let index = out.len();
                        out.push(RunSpec {
                            index,
                            problem: *problem,
                            protocol: protocol.clone(),
                            graph: *graph,
                            graph_seed: mix64(self.seed ^ 0x6EAF ^ ((index as u64) << 8)),
                            plan_seed: mix64(self.seed ^ 0xFA17 ^ ((index as u64) << 8)),
                            rule_count,
                            scheduler,
                            f: self.f,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One cell of the sweep: a protocol, a topology, and fault-plan
/// parameters. Carries plan *parameters*, not a built plan — the plan
/// depends on the built graph and the protocol's horizon, both of which
/// the driver derives.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Position in the sweep (also the certificate file index).
    pub index: usize,
    /// Condition checked.
    pub problem: ProblemKind,
    /// Registry name of the protocol probed.
    pub protocol: String,
    /// Topology probed on.
    pub graph: GraphFamily,
    /// Seed for the graph build.
    pub graph_seed: u64,
    /// Seed for the fault plan.
    pub plan_seed: u64,
    /// Number of fault rules to inject.
    pub rule_count: usize,
    /// Scheduling model the cell runs under.
    pub scheduler: SchedulerKind,
    /// Fault budget.
    pub f: usize,
}

impl RunSpec {
    /// The seed-deterministic sender set for fault injection on `g`: at
    /// most `min(f, n − 1)` distinct nodes (always leaving at least one
    /// node correct).
    fn senders(&self, g: &Graph) -> BTreeSet<NodeId> {
        let n = g.node_count();
        let want = self.f.min(n.saturating_sub(1));
        let mut senders = BTreeSet::new();
        let mut k = 0u64;
        while senders.len() < want && k < 64 * (n as u64 + 1) {
            senders.insert(NodeId((mix64(self.plan_seed ^ k) % n as u64) as u32));
            k += 1;
        }
        senders
    }

    /// The spec's fault plan on `g` for a run of `horizon` ticks: a
    /// seed-deterministic [`FaultPlan::random_among`] over the spec's
    /// sender set. `rule_count == 0` yields the empty (fault-free) plan.
    pub fn plan(&self, g: &Graph, horizon: u32) -> FaultPlan {
        if self.rule_count == 0 {
            return FaultPlan::new(self.plan_seed);
        }
        FaultPlan::random_among(
            self.plan_seed,
            g,
            &self.senders(g),
            horizon,
            self.rule_count,
        )
    }
}

/// A probe that could not complete: a structured record instead of a
/// crash. Build failures, contained panics, budget blowouts, and
/// self-check failures all land here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Index of the [`RunSpec`] that hit it.
    pub spec: usize,
    /// Which stage failed (`build`, `run`, `replay`, `budget`,
    /// `self-check`).
    pub stage: String,
    /// Human-readable detail.
    pub detail: String,
}

/// The dimensions the shrinker minimizes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioDims {
    /// Nodes in the graph.
    pub nodes: usize,
    /// Fault-plan rules.
    pub rules: usize,
    /// Run horizon in ticks.
    pub horizon: u32,
}

/// One violation found and shrunk, as recorded in the campaign report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Index of the originating [`RunSpec`].
    pub spec: usize,
    /// Problem kind name.
    pub problem: String,
    /// Protocol probed.
    pub protocol: String,
    /// Graph family name (of the *original* scenario).
    pub graph: String,
    /// Scheduling model the violation was found under ([`SchedulerKind::name`]).
    pub scheduler: String,
    /// The violated condition, rendered.
    pub condition: String,
    /// Scenario size as found.
    pub original: ScenarioDims,
    /// Scenario size after shrinking.
    pub shrunk: ScenarioDims,
    /// Shrink probes attempted.
    pub shrink_attempts: usize,
    /// Shrink steps accepted.
    pub shrink_accepted: usize,
    /// Certificate file name (relative to the campaign directory).
    pub cert_file: String,
}

/// The campaign report: seed, sweep dimensions, totals, violations,
/// incidents. Serialized with [`CampaignReport::to_json`] next to the
/// certificate files.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Master seed.
    pub seed: u64,
    /// Protocols swept.
    pub protocols: usize,
    /// Graph families swept.
    pub graphs: usize,
    /// Rule counts swept.
    pub rule_counts: usize,
    /// Scheduling models swept.
    pub schedulers: usize,
    /// Runs attempted (the full cross-product).
    pub runs: usize,
    /// Violations found, shrunk, and emitted as certificates.
    pub violations: Vec<ViolationRecord>,
    /// Probes that could not complete.
    pub incidents: Vec<Incident>,
}

impl CampaignReport {
    /// Mean shrink ratio over violations, in nodes: `original.nodes /
    /// shrunk.nodes` averaged (`1.0` when the campaign found nothing). A
    /// deterministic quality metric — same seed, same ratio.
    pub fn mean_shrink_ratio(&self) -> f64 {
        if self.violations.is_empty() {
            return 1.0;
        }
        let sum: f64 = self
            .violations
            .iter()
            .map(|v| v.original.nodes as f64 / v.shrunk.nodes.max(1) as f64)
            .sum();
        sum / self.violations.len() as f64
    }

    /// Deterministic JSON rendering: no timestamps, no host data, fixed
    /// key order — the same campaign always serializes to the same bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"sweep\": {{\"protocols\": {}, \"graphs\": {}, \"rule_counts\": {}, \
             \"schedulers\": {}}},\n",
            self.protocols, self.graphs, self.rule_counts, self.schedulers
        ));
        s.push_str(&format!("  \"runs\": {},\n", self.runs));
        s.push_str(&format!(
            "  \"mean_shrink_ratio_nodes\": {:.4},\n",
            self.mean_shrink_ratio()
        ));
        s.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let dims = |d: &ScenarioDims| {
                format!(
                    "{{\"nodes\": {}, \"rules\": {}, \"horizon\": {}}}",
                    d.nodes, d.rules, d.horizon
                )
            };
            s.push_str(&format!(
                "    {{\"spec\": {}, \"problem\": {}, \"protocol\": {}, \"graph\": {}, \
                 \"scheduler\": {}, \"condition\": {}, \"original\": {}, \"shrunk\": {}, \
                 \"shrink_attempts\": {}, \"shrink_accepted\": {}, \"cert\": {}}}{}\n",
                v.spec,
                json_string(&v.problem),
                json_string(&v.protocol),
                json_string(&v.graph),
                json_string(&v.scheduler),
                json_string(&v.condition),
                dims(&v.original),
                dims(&v.shrunk),
                v.shrink_attempts,
                v.shrink_accepted,
                json_string(&v.cert_file),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"incidents\": [\n");
        for (i, inc) in self.incidents.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"spec\": {}, \"stage\": {}, \"detail\": {}}}{}\n",
                inc.spec,
                json_string(&inc.stage),
                json_string(&inc.detail),
                if i + 1 < self.incidents.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Renders `s` as a JSON string literal (quotes, backslashes, and control
/// characters escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            protocols: vec![
                (ProblemKind::ByzantineAgreement, "NaiveMajority".into()),
                (ProblemKind::WeakAgreement, "WeakViaBA(EIG(f=1))".into()),
            ],
            graphs: vec![
                GraphFamily::Ring { n: 6 },
                GraphFamily::Complete { n: 4 },
                GraphFamily::RandomRegular { n: 8, d: 3 },
            ],
            rule_counts: vec![0, 2],
            schedulers: vec![SchedulerKind::Sync],
            f: 1,
            policy: RunPolicy::default(),
        }
    }

    #[test]
    fn specs_cover_the_cross_product_deterministically() {
        let config = smoke_config();
        let specs = config.specs();
        assert_eq!(specs.len(), 2 * 3 * 2);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.scheduler, SchedulerKind::Sync);
        }
        let again = config.specs();
        assert_eq!(specs.len(), again.len());
        for (a, b) in specs.iter().zip(&again) {
            assert_eq!(a.graph_seed, b.graph_seed);
            assert_eq!(a.plan_seed, b.plan_seed);
        }
    }

    #[test]
    fn async_scheduler_cells_skip_fault_plans_and_foreign_problems() {
        let mut config = smoke_config();
        let sync_only = config.specs().len();
        config.schedulers = vec![
            SchedulerKind::Sync,
            SchedulerKind::AsyncFair,
            SchedulerKind::AsyncAdversarial,
        ];
        let specs = config.specs();
        // Async cells: both protocols are boolean-agreement kinds, paired
        // only with rule_count == 0, across 3 graphs and 2 async kinds.
        assert_eq!(specs.len(), sync_only + 2 * 3 * 2);
        for s in &specs {
            if s.scheduler != SchedulerKind::Sync {
                assert_eq!(s.rule_count, 0, "async cells are fault-free");
                assert!(s.problem.async_probeable());
            }
        }
        // The sync prefix of the sweep is NOT index-stable when async kinds
        // interleave, but every sync cell's (protocol, graph, rules) cross
        // product must still be complete.
        let sync_cells = specs
            .iter()
            .filter(|s| s.scheduler == SchedulerKind::Sync)
            .count();
        assert_eq!(sync_cells, sync_only);
    }

    #[test]
    fn scheduler_kinds_parse_their_own_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(SchedulerKind::parse("asynchronous").is_err());
    }

    #[test]
    fn spec_plans_respect_the_fault_budget() {
        let config = smoke_config();
        for spec in config.specs() {
            let g = spec.graph.build(spec.graph_seed).unwrap();
            let plan = spec.plan(&g, 8);
            assert!(
                plan.faulty_nodes().len() <= spec.f,
                "spec {} exceeds f={}",
                spec.index,
                spec.f
            );
            if spec.rule_count == 0 {
                assert!(plan.rules().is_empty());
            }
        }
    }

    #[test]
    fn graph_families_build_and_shrink_within_family() {
        for fam in [
            GraphFamily::Ring { n: 8 },
            GraphFamily::Complete { n: 5 },
            GraphFamily::RandomRegular { n: 10, d: 3 },
            GraphFamily::Expander { n: 12 },
            GraphFamily::RingCover { base: 3, weight: 4 },
        ] {
            let g = fam.build(7).unwrap();
            assert_eq!(g.node_count(), fam.node_count(), "{}", fam.name());
            for smaller in fam.shrink_candidates() {
                assert!(smaller.node_count() < fam.node_count());
                // Every candidate must itself build.
                assert!(
                    smaller.build(7).is_ok(),
                    "{} -> {} fails to build",
                    fam.name(),
                    smaller.name()
                );
            }
        }
        // Degenerate family parameters are structured errors.
        assert!(GraphFamily::Ring { n: 2 }.build(0).is_err());
        assert!(GraphFamily::RandomRegular { n: 5, d: 3 }.build(0).is_err());
    }

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let report = CampaignReport {
            seed: 9,
            protocols: 2,
            graphs: 3,
            rule_counts: 2,
            schedulers: 1,
            runs: 12,
            violations: vec![ViolationRecord {
                spec: 4,
                problem: "byzantine-agreement".into(),
                protocol: "Table(7)".into(),
                graph: "ring6".into(),
                scheduler: "sync".into(),
                condition: "agreement \"broken\"".into(),
                original: ScenarioDims {
                    nodes: 6,
                    rules: 2,
                    horizon: 8,
                },
                shrunk: ScenarioDims {
                    nodes: 3,
                    rules: 0,
                    horizon: 4,
                },
                shrink_attempts: 10,
                shrink_accepted: 3,
                cert_file: "c004-ba.flmc".into(),
            }],
            incidents: vec![Incident {
                spec: 7,
                stage: "run".into(),
                detail: "panic: index out of bounds".into(),
            }],
        };
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\\\"broken\\\""));
        assert!(a.contains("\"mean_shrink_ratio_nodes\": 2.0000"));
        assert!(a.contains("\"runs\": 12"));
    }
}
