//! Byte pins for the asynchronous scheduling adversary: the exact bytes of
//! the FLP refuter's certificates, of [`AsyncSystem::run`]'s outcome under
//! every strategy, and of a smoke-scale campaign over all three scheduler
//! axes.
//!
//! A schedule is the whole witness of an asynchronous certificate, so the
//! scheduler's choices must never drift: a change to how the chooser finds
//! pending channels has to pick the same edge at every step. The graphs
//! are sized around the chooser's 64-edge words: `cycle(5)` has 10
//! directed edges (one partial word), `cycle(32)` exactly 64, `complete(32)`
//! 992 (a partial last word), and `ring_cover(3, 400)` 2,400 under a
//! budget small enough that the run ends with `budget_exhausted`.
//!
//! Each case is pinned by its length and its SHA-256 digest (computed
//! dependency-free in `common`); a mismatch lists every moved case with its new
//! pin.

mod common;

use flm_bench::campaign::{run_campaign, smoke_config, with_schedulers};
use flm_core::refute;
use flm_graph::{builders, Graph, NodeId};
use flm_sim::async_sched::{AsyncRun, AsyncSystem, Strategy};
use flm_sim::campaign::SchedulerKind;
use flm_sim::wire::{Field, Writer};
use flm_sim::{Input, RunPolicy};

use common::sha256;

/// `(case, byte length, SHA-256 of the pinned bytes)`.
const PINNED: &[(&str, usize, &str)] = &[
    (
        "campaign/smoke(0xF1A)/all-axes/certificates",
        14135,
        "d805e5ceea9a6cff1160ea0eb31ea38184f1fb149cdaa35247d6fc7b78a95986",
    ),
    (
        "campaign/smoke(0xF1A)/all-axes/report",
        21010,
        "38ed6dcff131257dd8a83831a95853dd80ad23172ef4bcb2bcad9c20d5cc2153",
    ),
    (
        "flp_async/K32/WaitForAll",
        8398,
        "94e8975b2c281c146dbdf8df5228361cdbe104ec47829486407d673ea3045f3d",
    ),
    (
        "flp_async/K4/WaitForAll",
        305,
        "1ccb08799547a014ebce11c4a43c1c4bc6d60e0ae11c915e04d594aed21f1295",
    ),
    (
        "run/K32/fair",
        4217,
        "f27c0a0d0431ea1099134b26fd48c816d35d06e86a6e0bd3dcfd595e8c75c1de",
    ),
    (
        "run/K32/random(seed=0x5eed0001)",
        4217,
        "eb7b389860295c2c6fcd7fe835c2590420bd41a69a7428b65faa007527e93d4b",
    ),
    (
        "run/K32/random(seed=0x5eed0002)",
        4217,
        "536c90161ed720e705dc814e9410259de46bf7b53c8e045a02ef57e2ed0feebb",
    ),
    (
        "run/K32/starve(node=0, seed=0x0)",
        4339,
        "1c096f610c244cf7d5ec766eb27736e4140725d461dba13481add47503ffccb9",
    ),
    (
        "run/K32/starve(node=0, seed=0x1)",
        4339,
        "bef5a65c7f8a687fd43c63291310ec3cf8cb3fb367ff34241980d2ba9f68a213",
    ),
    (
        "run/K32/starve(node=16, seed=0x0)",
        4339,
        "5fc988d8e2db5847f84e062a5d947d4f8d7cc86be72e5c80699d9982dec68aa4",
    ),
    (
        "run/K32/starve(node=16, seed=0x1)",
        4339,
        "0105b4bffbc41f199b5bdac5428160383f64789f30bf955d354f4fedc04c81c2",
    ),
    (
        "run/cycle32/fair",
        505,
        "0017d73104273acb0605d28f1801ac1a3ff138f08fbb49dfbe0a8cd715ffef8c",
    ),
    (
        "run/cycle32/random(seed=0x5eed0001)",
        505,
        "e051a54e95b31f3bfa5941e28bd5c2893842dd9fb52422d5b7c3296b30a7ddc3",
    ),
    (
        "run/cycle32/random(seed=0x5eed0002)",
        505,
        "8990f5cd807fa33aa9f349f4aabdba19afae165a273c1e30490fac0c141859a4",
    ),
    (
        "run/cycle32/starve(node=0, seed=0x0)",
        511,
        "acfbe792d006c2851ed77b7f66e514c8137c848e7d5e47bb5fd29e0e0e13eb4f",
    ),
    (
        "run/cycle32/starve(node=0, seed=0x1)",
        511,
        "ce327d1c05e7750fa33f53501ec3dd7506bb58fb6a7f2b3efc29d0f8184ac772",
    ),
    (
        "run/cycle32/starve(node=16, seed=0x0)",
        511,
        "9af0cd4253e87603c13ff2e751152e02d2ca7fda057de34b6fe710a7fb2cc9f1",
    ),
    (
        "run/cycle32/starve(node=16, seed=0x1)",
        511,
        "2ca33c25a7f1a4cd28bd4b4985f7c450256f79ed40d27952b763bf4c2c15e66b",
    ),
    (
        "run/cycle5/fair",
        100,
        "821e2491b188f1adb27ce0683fd589f47f5ecd88ee18a111b8a5c9e2007dcce9",
    ),
    (
        "run/cycle5/random(seed=0x5eed0001)",
        100,
        "4d6df2e9ce36d5b950aa263c6390071f2f69063726e64f6e92dc8379d1df9222",
    ),
    (
        "run/cycle5/random(seed=0x5eed0002)",
        100,
        "35ef8be346a1ca74d9a8ee8e7e58bbac133510c06bdcde05eeffd8354fe27cc1",
    ),
    (
        "run/cycle5/starve(node=0, seed=0x0)",
        106,
        "7aae35ed4bc0f5bcdcc466d374a2e1bad6dca47f339a84d0d8e531e500f637eb",
    ),
    (
        "run/cycle5/starve(node=0, seed=0x1)",
        106,
        "7a3ce62bebea7a6ffd88b97d4d0d3e92b42da03f25b213efa1cfa1dbb09661fd",
    ),
    (
        "run/cycle5/starve(node=2, seed=0x0)",
        106,
        "da7890113508273d9276ad73a095090774a8b5eee631a9750f0c05302b1f6d5b",
    ),
    (
        "run/cycle5/starve(node=2, seed=0x1)",
        106,
        "bce5ec89aff277f67b513269de4a7a8c9e6e2434efd0176158ab1d29173ba4ee",
    ),
    (
        "run/ring_cover(3,400)/budget600/fair",
        23421,
        "e5fb62b81659c70e066e80657991bfdeb1740e46d4805a337288f7e1dae1f291",
    ),
    (
        "run/ring_cover(3,400)/budget600/random(seed=0x5eed0001)",
        22965,
        "3e18c29f98993d41976256ebe030f0adab52dd3f29b6078a2f890d00218916dc",
    ),
    (
        "run/ring_cover(3,400)/budget600/random(seed=0x5eed0002)",
        22953,
        "9f6e67fff3d37696fd685ac5d1487515e3511d33a1c7e1d663683e3477b282bf",
    ),
    (
        "run/ring_cover(3,400)/budget600/starve(node=0, seed=0x0)",
        22825,
        "cd0fc467f0635fc6c7f3335aebc691304bc150933182f65c531753436dfc986c",
    ),
    (
        "run/ring_cover(3,400)/budget600/starve(node=0, seed=0x1)",
        22825,
        "46304eb5c6d650e29af2f7e38265a0babee826d770db4659e011a190804f2bce",
    ),
    (
        "run/ring_cover(3,400)/budget600/starve(node=600, seed=0x0)",
        22825,
        "94e10b7ed5a4fdb338c8d13cc2ae5ac78ed213be237ae185dc6b40ef5857439d",
    ),
    (
        "run/ring_cover(3,400)/budget600/starve(node=600, seed=0x1)",
        22825,
        "6d94a352972fe3d59c98a1a075975232da542e4b78db4ad8083c8f5bf80d3887",
    ),
];

/// Checks every `(case, bytes)` against its pin, reporting all misses at
/// once so a deliberate re-pin is one copy-paste.
fn check_pins(cases: &[(String, Vec<u8>)]) {
    let mut moved = Vec::new();
    for (case, bytes) in cases {
        let got = (bytes.len(), sha256(bytes));
        match PINNED.iter().find(|(name, _, _)| name == case) {
            Some(&(_, len, digest)) if (len, digest) == (got.0, got.1.as_str()) => {}
            Some(_) => moved.push(format!("moved: (\"{case}\", {}, \"{}\"),", got.0, got.1)),
            None => moved.push(format!("no pin: (\"{case}\", {}, \"{}\"),", got.0, got.1)),
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// The canonical bytes of everything a run reports: schedule, pending
/// channels, decision latches, step counts, the budget flag, the look-ahead
/// counter and the quarantined nodes.
fn run_bytes(run: &AsyncRun) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(run.schedule.len() as u32);
    for &e in &run.schedule {
        w.u32(e);
    }
    w.u32(run.pending.len() as u32);
    for &(e, k) in &run.pending {
        w.u32(e).u32(k);
    }
    w.u32(run.decisions.len() as u32);
    for d in &run.decisions {
        match d {
            Some(d) => {
                w.u8(1);
                d.put(&mut w);
            }
            None => {
                w.u8(0);
            }
        }
    }
    for &s in &run.steps {
        w.u32(s);
    }
    w.bool(run.budget_exhausted).u64(run.lookahead_forks);
    w.u32(run.misbehavior.len() as u32);
    for m in &run.misbehavior {
        w.u32(m.node.0).u32(m.tick.0);
    }
    w.finish()
}

/// The FLP prey on `g` with the refuter's mixed inputs.
fn prey_system(g: &Graph) -> AsyncSystem {
    let prey = flm_protocols::resolve("WaitForAll").expect("the prey is registered");
    let mut sys = AsyncSystem::new(g.clone());
    for v in g.nodes() {
        sys.assign(v, prey.device(g, v), Input::Bool(v.0 % 2 == 0));
    }
    sys
}

/// Fair, both random probe seeds, and both adversary seeds against two
/// victims: the node at index 0 and one halfway round.
fn strategies(g: &Graph) -> Vec<Strategy> {
    let mut out = vec![
        Strategy::Fair,
        Strategy::Random { seed: 0x5eed_0001 },
        Strategy::Random { seed: 0x5eed_0002 },
    ];
    for victim in [NodeId(0), NodeId(g.node_count() as u32 / 2)] {
        for seed in [0, 1] {
            out.push(Strategy::Adversarial { seed, victim });
        }
    }
    out
}

fn run_cases(name: &str, g: &Graph, policy: &RunPolicy) -> Vec<(String, Vec<u8>)> {
    strategies(g)
        .into_iter()
        .map(|s| {
            let run = prey_system(g).run(&s, policy).expect("every node assigned");
            (format!("run/{name}/{}", s.describe()), run_bytes(&run))
        })
        .collect()
}

#[test]
fn the_digest_is_sha256() {
    assert_eq!(
        sha256(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        sha256(&[0x61; 1000]),
        "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
    );
}

#[test]
fn flp_async_certificates() {
    let prey = flm_protocols::resolve("WaitForAll").expect("the prey is registered");
    let cases: Vec<(String, Vec<u8>)> = [("K4", 4), ("K32", 32)]
        .into_iter()
        .map(|(name, n)| {
            let cert = refute::flp_async(&*prey, &builders::complete(n))
                .unwrap_or_else(|e| panic!("flp_async/{name}: {e}"));
            (format!("flp_async/{name}/WaitForAll"), cert.to_bytes())
        })
        .collect();
    check_pins(&cases);
}

#[test]
fn runs_across_word_boundaries() {
    let policy = RunPolicy::default();
    let mut cases = run_cases("cycle5", &builders::cycle(5), &policy);
    cases.extend(run_cases("cycle32", &builders::cycle(32), &policy));
    cases.extend(run_cases("K32", &builders::complete(32), &policy));
    check_pins(&cases);
}

#[test]
fn budget_exhausted_on_a_large_ring() {
    let g = builders::ring_cover(3, 400).expect("a valid covering ring");
    let policy = RunPolicy {
        max_ticks: 600,
        ..RunPolicy::default()
    };
    let cases = run_cases("ring_cover(3,400)/budget600", &g, &policy);
    let exhausted = strategies(&g)
        .into_iter()
        .all(|s| prey_system(&g).run(&s, &policy).unwrap().budget_exhausted);
    assert!(exhausted, "600 deliveries cannot drain 2,400 channels");
    check_pins(&cases);
}

#[test]
fn campaign_over_every_scheduler_axis() {
    let config = with_schedulers(
        smoke_config(0xF1A),
        vec![
            SchedulerKind::Sync,
            SchedulerKind::AsyncFair,
            SchedulerKind::AsyncAdversarial,
        ],
    );
    let outcome = run_campaign(&config);
    for axis in ["sync", "async-fair", "async-adversarial"] {
        assert!(
            outcome
                .report
                .violations
                .iter()
                .any(|v| v.scheduler == axis),
            "the {axis} axis certified nothing"
        );
    }
    let mut certs = Writer::new();
    certs.u32(outcome.certs.len() as u32);
    for (name, bytes) in &outcome.certs {
        certs.str(name).bytes(bytes);
    }
    check_pins(&[
        (
            "campaign/smoke(0xF1A)/all-axes/report".into(),
            outcome.report.to_json().into_bytes(),
        ),
        (
            "campaign/smoke(0xF1A)/all-axes/certificates".into(),
            certs.finish(),
        ),
    ]);
}
