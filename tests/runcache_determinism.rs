//! The soundness contract of the run cache: memoization is a *performance*
//! layer and may not be observable in the output. Every theorem family must
//! produce byte-identical FLMC certificate encodings whether its runs are
//! served cold, warm from the cache, with the cache bypassed, or bypassed
//! under the inline-sequential scheduler; and the simulator's dense kernel
//! must produce byte-identical behaviors to the reference delivery loop.

use flm_core::refute;
use flm_graph::{builders, Graph, NodeId};
use flm_protocols::{resolve, resolve_clock};
use flm_sim::clock::TimeFn;
use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
use flm_sim::devices::TableDevice;
use flm_sim::replay::ReplayDevice;
use flm_sim::runcache::RunKey;
use flm_sim::{runcache, EdgeBehavior, FaultPlan, Input, RunPolicy, System, SystemBehavior, Tick};
use std::sync::Arc;

/// The run cache is process-global and several tests below clear it;
/// serialize them so one test's `clear()` cannot race another's assertions.
static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Encodes one refutation run to FLMC bytes under each execution mode and
/// demands they match byte for byte.
fn assert_modes_agree(label: &str, run: impl Fn() -> Vec<u8>) {
    runcache::clear();
    let cold = run();
    let warm = run();
    let bypassed = runcache::bypass(&run);
    let sequential = flm_par::sequential(|| runcache::bypass(&run));
    for (mode, bytes) in [
        ("warm cache", &warm),
        ("cache bypassed", &bypassed),
        ("sequential + bypassed", &sequential),
    ] {
        assert_eq!(
            &cold, bytes,
            "{label}: {mode} certificate differs from the cold-cache one"
        );
    }
}

#[test]
fn discrete_theorem_families_encode_identically_across_modes() {
    let _guard = cache_lock();
    let tri = builders::triangle();
    let cyc4 = builders::cycle(4);

    let eig = resolve("EIG(f=1)").unwrap();
    assert_modes_agree("ba_nodes", || {
        refute::ba_nodes(&*eig, &tri, 1).unwrap().to_bytes()
    });

    let maj = resolve("NaiveMajority").unwrap();
    assert_modes_agree("ba_connectivity", || {
        refute::ba_connectivity(&*maj, &cyc4, 1).unwrap().to_bytes()
    });

    let weak = resolve("WeakViaBA(EIG(f=1))").unwrap();
    assert_modes_agree("weak_agreement", || {
        refute::weak_agreement(&*weak, &tri, 1).unwrap().to_bytes()
    });

    let squad = resolve("FiringSquadViaBA(f=1)").unwrap();
    assert_modes_agree("firing_squad", || {
        refute::firing_squad(&*squad, &tri, 1).unwrap().to_bytes()
    });

    let dlpsw = resolve("DLPSW(f=1, R=4)").unwrap();
    assert_modes_agree("simple_approx", || {
        refute::simple_approx(&*dlpsw, &tri, 1).unwrap().to_bytes()
    });
    assert_modes_agree("eps_delta_gamma", || {
        refute::eps_delta_gamma(&*dlpsw, &tri, 1, 0.25, 1.0, 1.0)
            .unwrap()
            .to_bytes()
    });
}

#[test]
fn clock_sync_encodes_identically_across_modes() {
    let _guard = cache_lock();
    let protocol = resolve_clock("TrivialClockSync").unwrap();
    let claim = flm_core::problems::ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(2.0),
        l: TimeFn::identity(),
        u: TimeFn::affine(2.0, 8.0),
        alpha: 2.0,
        t_prime: 1.0,
    };
    let tri = builders::triangle();
    assert_modes_agree("clock_sync", || {
        refute::clock_sync(&*protocol, &tri, 1, &claim)
            .unwrap()
            .to_bytes()
    });
}

#[test]
fn fresh_certificates_verify_in_every_mode() {
    let _guard = cache_lock();
    // Verification replays through the same cache; a warm hit must verify
    // exactly like a cold re-execution.
    let eig = resolve("EIG(f=1)").unwrap();
    let tri = builders::triangle();
    runcache::clear();
    let cert = refute::ba_nodes(&*eig, &tri, 1).unwrap();
    cert.verify(&*eig).expect("warm verify");
    runcache::clear();
    cert.verify(&*eig).expect("cold verify");
    runcache::bypass(|| cert.verify(&*eig)).expect("bypassed verify");
}

#[test]
fn dense_runs_match_reference_runs() {
    let g = builders::complete(8);
    let build = |seed: u64| {
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(
                v,
                Box::new(TableDevice::new(seed ^ u64::from(v.0), 40)),
                Input::Bool(v.0.is_multiple_of(2)),
            );
        }
        sys
    };
    for seed in 0..12u64 {
        let fresh = build(seed).try_run(15).unwrap();
        let reference = build(seed).run_reference(15).unwrap();
        assert_eq!(
            format!("{fresh:?}"),
            format!("{reference:?}"),
            "seed {seed}: dense run diverged from the reference loop"
        );
    }
}

#[test]
fn cache_stats_observe_the_expected_hits() {
    let _guard = cache_lock();
    let eig = resolve("EIG(f=1)").unwrap();
    let tri = builders::triangle();
    runcache::clear();
    runcache::reset_stats();
    let cert = refute::ba_nodes(&*eig, &tri, 1).unwrap();
    let after_refute = runcache::stats();
    assert!(
        after_refute.misses >= 4,
        "cold refutation must miss for the cover and each chain link, got {after_refute:?}"
    );
    cert.verify(&*eig).unwrap();
    let after_verify = runcache::stats();
    assert!(
        after_verify.hits > after_refute.hits,
        "in-process verify must replay the violating link from the cache, got {after_verify:?}"
    );

    // A ring refuter's validity pin is a link too: EIG never fires, so the
    // firing-squad refuter stops at its all-stimulus pin, and verify
    // replays that pin under the same key.
    runcache::clear();
    runcache::reset_stats();
    let cert = refute::firing_squad(&*eig, &tri, 1).unwrap();
    assert!(cert.covering.starts_with("no covering needed"), "{cert}");
    let after_refute = runcache::stats();
    cert.verify(&*eig).unwrap();
    let after_verify = runcache::stats();
    assert_eq!(
        (after_verify.hits, after_verify.misses),
        (after_refute.hits + 1, after_refute.misses),
        "verify must replay the validity pin from the cache"
    );
}

/// Deterministic synthetic masquerade traces for `scripted` in `g`: one
/// trace per port, payload varying with (seed, port, tick), with silences
/// sprinkled in.
fn synthetic_traces(g: &Graph, scripted: NodeId, seed: u64, ticks: u32) -> Vec<EdgeBehavior> {
    g.neighbors(scripted)
        .enumerate()
        .map(|(p, _)| {
            (0..ticks)
                .map(|t| {
                    if (t as u64 + p as u64 + seed).is_multiple_of(4) {
                        None
                    } else {
                        Some(Payload::from(vec![
                            seed as u8,
                            p as u8,
                            t as u8,
                            (seed >> 8) as u8,
                        ]))
                    }
                })
                .collect()
        })
        .collect()
}

/// A link-shaped test system: every node runs a seeded `TableDevice`
/// except `scripted`, which replays `traces`.
fn link_system(g: &Graph, seed: u64, scripted: NodeId, traces: &[EdgeBehavior]) -> System {
    let mut sys = System::new(g.clone());
    for v in g.nodes() {
        if v == scripted {
            sys.assign(
                v,
                Box::new(ReplayDevice::masquerade(traces.to_vec())),
                Input::Bool(false),
            );
        } else {
            sys.assign(
                v,
                Box::new(TableDevice::new(seed ^ u64::from(v.0), 64)),
                Input::Bool(v.0.is_multiple_of(2)),
            );
        }
    }
    sys
}

#[test]
fn strict_kernel_matches_reference_loop_with_scripted_nodes() {
    // No caches involved: the SoA kernel against the map-per-delivery
    // reference loop, with a replay device in the mix.
    let g = builders::complete(4);
    let scripted = NodeId(1);
    let traces = synthetic_traces(&g, scripted, 3, 10);
    let dense = link_system(&g, 3, scripted, &traces).try_run(10).unwrap();
    let reference = link_system(&g, 3, scripted, &traces)
        .run_reference(10)
        .unwrap();
    assert_eq!(
        format!("{dense:?}"),
        format!("{reference:?}"),
        "kernel-vs-reference: behaviors diverged"
    );
}

/// Memoizes a contained run of `build()` under `key` twice (a miss, then a
/// hit that must return the stored behavior), demands the behavior equal a
/// fresh run with the cache bypassed, and returns it.
fn assert_cached_matches_fresh(
    label: &str,
    key: &RunKey,
    build: impl Fn() -> System,
    horizon: u32,
) -> Arc<SystemBehavior> {
    let policy = RunPolicy::default();
    let run =
        || runcache::memoize_discrete(key, || build().run_contained(horizon, &policy)).unwrap();
    let first = run();
    let cached = run();
    assert!(
        Arc::ptr_eq(&first, &cached),
        "{label}: second run missed the cache"
    );
    let fresh = runcache::bypass(|| build().run_contained(horizon, &policy).unwrap());
    assert_eq!(
        format!("{cached:?}"),
        format!("{fresh:?}"),
        "{label}: cached behavior differs from a fresh run"
    );
    cached
}

#[test]
fn cached_faulted_runs_match_fresh_runs() {
    let _guard = cache_lock();
    runcache::clear();
    let g = builders::cycle(5);
    let plan = FaultPlan::new(0xFA)
        .drop_edge(NodeId(1), NodeId(2), 2, 6)
        .corrupt_edge(NodeId(3), NodeId(4), 0, 8)
        .equivocate(NodeId(0), 4, 9);
    let build = || {
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            let device: Box<dyn Device> = Box::new(TableDevice::new(77 ^ u64::from(v.0), 64));
            sys.assign(v, plan.wrap(v, device), Input::Bool(v.0 == 0));
        }
        sys
    };
    for horizon in [13u32, 20] {
        let key = RunKey::new("faulted-cycle5", horizon.to_le_bytes().to_vec());
        assert_cached_matches_fresh("faulted", &key, build, horizon);
    }
}

/// Panics at a fixed tick, so its node is quarantined mid-run.
struct PanicAt {
    tick: u32,
}

impl Device for PanicAt {
    fn name(&self) -> &'static str {
        "PanicAt"
    }
    fn init(&mut self, _ctx: &NodeCtx) {}
    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        assert!(t.0 != self.tick, "scheduled detonation");
        inbox.iter().map(|_| Some(Payload::from(vec![7]))).collect()
    }
    fn snapshot(&self) -> Vec<u8> {
        snapshot::undecided(b"ticking")
    }
}

#[test]
fn cached_quarantined_runs_match_fresh_runs() {
    let _guard = cache_lock();
    runcache::clear();
    let g = builders::triangle();
    let build = || {
        let mut sys = System::new(g.clone());
        sys.assign(NodeId(0), Box::new(PanicAt { tick: 3 }), Input::Bool(true));
        for v in [NodeId(1), NodeId(2)] {
            sys.assign(
                v,
                Box::new(TableDevice::new(u64::from(v.0), 64)),
                Input::Bool(false),
            );
        }
        sys
    };
    let key = RunKey::new("quarantine-triangle", 9u32.to_le_bytes().to_vec());
    let cached = assert_cached_matches_fresh("quarantine", &key, build, 9);
    assert_eq!(cached.misbehavior().len(), 1);
}
