//! Machine-readable perf suites: the numbers behind `BENCH_substrate.json`,
//! `BENCH_refuters.json`, `BENCH_runcache.json`, `BENCH_serve.json`,
//! and `BENCH_campaign.json`.
//!
//! Each suite measures a small, stable set of hot paths and reports
//! min/median/mean ns/op via [`crate::harness::measure`]. The substrate suite pits the dense
//! edge-indexed message plane against [`System::run_reference`] — the
//! original map-per-delivery loop kept in-tree as a differential baseline.
//! The refuter suite pits a warm run cache against the cold baseline, the
//! runcache suite isolates memoization on one refutation, and the serve
//! suite round-trips FLMC-RPC requests against an in-process `flm-serve`
//! server — so regressions in any direction show up
//! as a speedup ratio drifting in the JSON snapshots
//! (`scripts/check.sh --bench-gate` fails on a >25% drop against the
//! committed numbers).

use crate::harness::{measure, Config, Stats};
use crate::protocols_under_test::{EigUnderTest, TableUnderTest};
use flm_core::refute;
use flm_graph::{builders, NodeId};
use flm_sim::devices::TableDevice;
use flm_sim::replay::ReplayDevice;
use flm_sim::{EdgeBehavior, Input, Payload, System};

/// One measured bench: a stable name plus its timing statistics.
pub struct BenchRow {
    /// `group/variant` identifier, stable across runs.
    pub name: String,
    /// Per-iteration statistics in nanoseconds.
    pub stats: Stats,
}

/// A suite's rows plus the headline speedup ratios derived from them.
pub struct Suite {
    /// Every measured bench.
    pub rows: Vec<BenchRow>,
    /// `(label, ratio)` pairs; ratio > 1 means the optimized path wins.
    pub speedups: Vec<(String, f64)>,
}

fn cfg(samples: usize) -> Config {
    Config {
        samples,
        warmup_iters: 3,
    }
}

/// [`measure`] for `variants` bodies at once: each round times one
/// iteration of every variant in turn, so a shift in host speed mid-suite
/// lands on all of them alike and the ratios between them hold steady.
fn measure_alternating<R>(
    config: Config,
    variants: usize,
    mut f: impl FnMut(usize) -> R,
) -> Vec<Stats> {
    for k in 0..variants {
        for _ in 0..config.warmup_iters {
            std::hint::black_box(f(k));
        }
    }
    let once = Config {
        samples: 1,
        warmup_iters: 0,
    };
    let mut ns = vec![Vec::with_capacity(config.samples); variants];
    for _ in 0..config.samples {
        for (k, ns) in ns.iter_mut().enumerate() {
            ns.push(measure(once, || f(k)).min_ns);
        }
    }
    ns.into_iter()
        .map(|mut ns| {
            ns.sort_unstable();
            Stats {
                min_ns: ns[0],
                median_ns: ns[ns.len() / 2],
                mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
            }
        })
        .collect()
}

// Headline ratios compare minimum times, not medians: the minimum is the
// classic noise-floor estimator, and on a single-core bench host it is the
// only statistic stable enough for `check.sh --bench-gate` to compare
// across runs without flaking on scheduler jitter.
fn ratio(baseline: Stats, optimized: Stats) -> f64 {
    baseline.min_ns as f64 / optimized.min_ns.max(1) as f64
}

/// The message-plane suite: dense edge-indexed run vs the reference
/// map-per-delivery loop, plus payload clone fan-out.
pub fn substrate_suite(samples: usize) -> Suite {
    let config = cfg(samples);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    for (name, g) in [
        ("k8", builders::complete(8)),
        ("ring48", builders::cycle(48)),
    ] {
        let run_once = |reference: bool| {
            let mut sys = System::new(g.clone());
            for v in g.nodes() {
                sys.assign(
                    v,
                    Box::new(TableDevice::new(u64::from(v.0), 50)),
                    Input::Bool(v.0.is_multiple_of(2)),
                );
            }
            if reference {
                sys.run_reference(20).unwrap()
            } else {
                sys.try_run(20).unwrap()
            }
        };
        let dense = measure(config, || run_once(false));
        let reference = measure(config, || run_once(true));
        speedups.push((
            format!("table_run_{name}_t20: dense plane vs reference loop"),
            ratio(reference, dense),
        ));
        rows.push(BenchRow {
            name: format!("table_run_{name}_t20/dense"),
            stats: dense,
        });
        rows.push(BenchRow {
            name: format!("table_run_{name}_t20/reference"),
            stats: reference,
        });
    }

    // Broadcast fan-out: one 1 KiB message cloned to 64 ports. The Arc
    // payload bumps a refcount; the byte-vector baseline deep-copies.
    let bytes = vec![0xA5u8; 1024];
    let payload: Payload = bytes.clone().into();
    let arc = measure(config, || {
        (0..64).map(|_| Some(payload.clone())).collect::<Vec<_>>()
    });
    let vec = measure(config, || {
        (0..64).map(|_| Some(bytes.clone())).collect::<Vec<_>>()
    });
    speedups.push((
        "broadcast_fanout_1k_x64: arc payload vs byte copy".into(),
        ratio(vec, arc),
    ));
    rows.push(BenchRow {
        name: "broadcast_fanout_1k_x64/arc".into(),
        stats: arc,
    });
    rows.push(BenchRow {
        name: "broadcast_fanout_1k_x64/vec".into(),
        stats: vec,
    });

    // A chain-link-shaped system: one replay node masquerading among table
    // devices, the workload of every transplant in a chain argument (the
    // all-table rows above have no replay node).
    let g = builders::complete(6);
    let scripted = NodeId(0);
    let horizon: u32 = 64;
    let traces: Vec<EdgeBehavior> = g
        .neighbors(scripted)
        .enumerate()
        .map(|(p, _)| {
            (0..horizon)
                .map(|t| {
                    if (t as usize + p).is_multiple_of(4) {
                        None
                    } else {
                        Some(Payload::from(vec![p as u8, t as u8, 0x5A]))
                    }
                })
                .collect()
        })
        .collect();
    let build_link = || {
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            if v == scripted {
                sys.assign(
                    v,
                    Box::new(ReplayDevice::masquerade(traces.clone())),
                    Input::Bool(false),
                );
            } else {
                sys.assign(
                    v,
                    Box::new(TableDevice::new(0xBE ^ u64::from(v.0), 64)),
                    Input::Bool(v.0.is_multiple_of(2)),
                );
            }
        }
        sys
    };
    let dense = measure(config, || build_link().try_run(horizon).unwrap());
    let reference = measure(config, || build_link().run_reference(horizon).unwrap());
    speedups.push((
        "link_table_run_k6_t64: dense kernel vs reference loop".into(),
        ratio(reference, dense),
    ));
    rows.push(BenchRow {
        name: "link_table_run_k6_t64/dense".into(),
        stats: dense,
    });
    rows.push(BenchRow {
        name: "link_table_run_k6_t64/reference".into(),
        stats: reference,
    });

    Suite { rows, speedups }
}

/// The refuter suite: a refutation served from a warm run cache (the
/// steady state of a refute-then-verify pipeline) against the cold
/// baseline, the cache bypassed so every run re-simulates. Both legs run
/// on the calling thread. The labels and row names still say `adaptive`,
/// `parallel` and `sequential`, from when the warm leg fanned out across
/// a worker pool; they stay because `BENCH_refuters.json` and the bench
/// gate key on them.
pub fn refuter_suite(samples: usize) -> Suite {
    let config = cfg(samples);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    let k6 = builders::complete(6);
    let eig = EigUnderTest { f: 2 };
    let par = measure(config, || refute::ba_nodes(&eig, &k6, 2).unwrap());
    let seq = measure(config, || {
        flm_sim::runcache::bypass(|| refute::ba_nodes(&eig, &k6, 2).unwrap())
    });
    speedups.push((
        "ba_nodes_k6_f2_eig: engine (adaptive, warm cache) vs cold sequential".into(),
        ratio(seq, par),
    ));
    rows.push(BenchRow {
        name: "ba_nodes_k6_f2_eig/parallel".into(),
        stats: par,
    });
    rows.push(BenchRow {
        name: "ba_nodes_k6_f2_eig/sequential".into(),
        stats: seq,
    });

    let tri = builders::triangle();
    let table = TableUnderTest { seed: 11 };
    let par = measure(config, || refute::weak_agreement(&table, &tri, 1).unwrap());
    let seq = measure(config, || {
        flm_sim::runcache::bypass(|| refute::weak_agreement(&table, &tri, 1).unwrap())
    });
    speedups.push((
        "weak_agreement_table: engine (adaptive, warm cache) vs cold sequential".into(),
        ratio(seq, par),
    ));
    rows.push(BenchRow {
        name: "weak_agreement_table/parallel".into(),
        stats: par,
    });
    rows.push(BenchRow {
        name: "weak_agreement_table/sequential".into(),
        stats: seq,
    });

    // The asynchronous family: the scheduling-adversary search (fair probe,
    // then per-victim starvation with bivalence look-ahead) over the
    // WaitForAll prey. Warm serves the probe runs from the async run-cache
    // domain; cold bypasses the cache and re-runs every schedule.
    let k4 = builders::complete(4);
    let prey = flm_protocols::resolve("WaitForAll").unwrap();
    let warm = measure(config, || refute::flp_async(&*prey, &k4).unwrap());
    let cold = measure(config, || {
        flm_sim::runcache::bypass(|| refute::flp_async(&*prey, &k4).unwrap())
    });
    speedups.push((
        "flp_async_k4_waitforall: engine (warm async cache) vs cold sequential".into(),
        ratio(cold, warm),
    ));
    rows.push(BenchRow {
        name: "flp_async_k4_waitforall/warm".into(),
        stats: warm,
    });
    rows.push(BenchRow {
        name: "flp_async_k4_waitforall/cold".into(),
        stats: cold,
    });

    // Certificate audit path: encode to the portable FLMC bytes, decode
    // them back, and re-verify — the three legs `flm-audit` runs per file.
    let eig1 = EigUnderTest { f: 1 };
    let cert = refute::ba_nodes(&eig1, &tri, 1).unwrap();
    let bytes = cert.to_bytes();
    let encode = measure(config, || cert.to_bytes());
    let decode = measure(config, || {
        flm_core::Certificate::from_bytes(&bytes).unwrap()
    });
    let verify = measure(config, || cert.verify(&eig1).unwrap());
    // Encode/decode/verify are recorded as latency rows only. An earlier
    // revision published "verify vs decode" as a speedup ratio, but the two
    // legs are different operations, not an optimized/baseline pair — the
    // ratio (≈0.6) read as a regression when nothing had regressed.
    rows.push(BenchRow {
        name: "certificate_ba_triangle/encode".into(),
        stats: encode,
    });
    rows.push(BenchRow {
        name: "certificate_ba_triangle/decode".into(),
        stats: decode,
    });
    rows.push(BenchRow {
        name: "certificate_ba_triangle/verify".into(),
        stats: verify,
    });

    Suite { rows, speedups }
}

/// The run-reuse suite: memoization, a refutation served warm from the
/// run cache against the same refutation with the cache cleared.
pub fn runcache_suite(samples: usize) -> Suite {
    let config = cfg(samples);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    // Memoization: the same ba_nodes refutation, warm (covering run and all
    // chain transplants served from the cache) vs cold (cache cleared before
    // every iteration, so each run re-simulates).
    let k6 = builders::complete(6);
    let eig = EigUnderTest { f: 2 };
    let warm = measure(config, || refute::ba_nodes(&eig, &k6, 2).unwrap());
    let cold = measure(config, || {
        flm_sim::runcache::clear();
        refute::ba_nodes(&eig, &k6, 2).unwrap()
    });
    speedups.push((
        "ba_nodes_k6_f2_eig_refute: warm run cache vs cold".into(),
        ratio(cold, warm),
    ));
    rows.push(BenchRow {
        name: "ba_nodes_k6_f2_eig_refute/warm".into(),
        stats: warm,
    });
    rows.push(BenchRow {
        name: "ba_nodes_k6_f2_eig_refute/cold".into(),
        stats: cold,
    });

    Suite { rows, speedups }
}

/// The service suite: FLMC-RPC round trips against an in-process
/// `flm-serve` server on a loopback socket — raw frame/socket overhead
/// (ping), refutation requests warm vs cold (the cross-connection
/// cache-sharing payoff), disk-warm requests off the persistent
/// certificate store (the cross-restart payoff), mixed-load throughput via
/// the load generator, and a 1000-connection simultaneous ping wave (the
/// gated headline is connections answered, not a timing: a dropped socket
/// fails the in-row assertion and a shed wave drags the ratio under the
/// gate's floor).
pub fn serve_suite(samples: usize) -> Suite {
    use flm_serve::client::Client;
    use flm_serve::loadgen::{self, Mix};
    use flm_serve::query::Theorem;
    use flm_serve::router::{Router, RouterConfig};
    use flm_serve::rpc::RefuteParams;
    use flm_serve::server::{ServeConfig, Server, ShardRole};
    use flm_serve::shard::{self, ShardMap};

    let config = cfg(samples);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    let server = Server::start(ServeConfig::default()).expect("bind loopback bench server");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect to bench server");

    // Ping: the floor — one frame each way, no work behind it.
    let ping = measure(config, || client.ping(b"bench", 0).unwrap());
    rows.push(BenchRow {
        name: "serve_ping/round_trip".into(),
        stats: ping,
    });

    // The runcache suite's k6/f2 workload, now over RPC. Warm requests are
    // answered from the process-global run cache the server's workers
    // share; cold clears that cache before every request, so each one pays
    // the full refutation. The gap is the service's warm-hit payoff.
    let k6 = builders::complete(6);
    let refute_rpc = |client: &mut Client| {
        client
            .refute("ba-nodes", Some("EIG(f=2)"), Some(&k6), 2, None)
            .unwrap()
    };
    let warm = measure(config, || refute_rpc(&mut client));
    let cold = measure(config, || {
        flm_sim::runcache::clear();
        refute_rpc(&mut client)
    });
    speedups.push((
        "refute_rpc_ba_nodes_k6_f2: warm run cache vs cold, over RPC".into(),
        ratio(cold, warm),
    ));
    rows.push(BenchRow {
        name: "refute_rpc_ba_nodes_k6_f2/warm".into(),
        stats: warm,
    });
    rows.push(BenchRow {
        name: "refute_rpc_ba_nodes_k6_f2/cold".into(),
        stats: cold,
    });

    // Disk warm: the same workload answered from the persistent
    // certificate store with every in-memory layer — run cache and the
    // store's own memory tier — dropped before each request, so
    // the request pays key hashing + one file read + decode-verify instead
    // of a full simulation. Gated against the cold leg above: if the store
    // path regresses toward re-simulating, the ratio collapses.
    let store_root = std::env::temp_dir().join(format!(
        "flm-bench-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&store_root);
    let stored_server = Server::start(ServeConfig {
        store_dir: Some(store_root.clone()),
        ..ServeConfig::default()
    })
    .expect("bind store-backed bench server");
    let mut stored_client =
        Client::connect(stored_server.local_addr()).expect("connect to store-backed server");
    refute_rpc(&mut stored_client); // populate the disk entry

    // The disk-warm denominator is a ~40µs file read: min-of-N converges
    // slowly enough that the gate's 9-sample runs sat 25–30% above the
    // 25-sample committed floor. A sample floor keeps the estimator
    // comparable across sample counts (each iteration is cheap).
    let disk_cfg = cfg(samples.max(25));
    let disk_warm = measure(disk_cfg, || {
        flm_sim::runcache::clear();
        stored_server.drop_store_memory();
        refute_rpc(&mut stored_client)
    });
    assert_eq!(
        stored_server.stats().store_misses,
        1,
        "disk-warm leg re-simulated instead of reading the store"
    );
    speedups.push((
        "refute_rpc_ba_nodes_k6_f2: disk-warm certificate store vs cold simulate, over RPC".into(),
        ratio(cold, disk_warm),
    ));
    rows.push(BenchRow {
        name: "refute_rpc_ba_nodes_k6_f2/disk_warm".into(),
        stats: disk_warm,
    });
    stored_server.shutdown();
    let _ = std::fs::remove_dir_all(&store_root);

    // Mixed load: 4 connections × 8 requests, equal refute/verify/audit
    // mix — the flm-client load generator end to end. The row's unit is
    // ns per whole batch (32 requests), not per request.
    let load = measure(config, || {
        let report = loadgen::run(&addr.to_string(), 4, 8, Mix::default(), &[Theorem::BaNodes])
            .expect("load generation");
        assert_eq!(
            report.transport_errors + report.abandoned,
            0,
            "load run dropped requests: {report}"
        );
        report
    });
    rows.push(BenchRow {
        name: "serve_load_mixed_c4_r8/batch".into(),
        stats: load,
    });

    // Connection-scale wave: 1000 sockets opened simultaneously, one ping
    // each, all held open until the last pong. The event loop must answer
    // every one — a dropped socket is a transport error and fails the
    // assertion outright. Typed `Overloaded` shedding is permitted by the
    // service contract, so the gated number is connections *answered*
    // (ok + overloaded): a constant 1000.0 for a healthy server, and any
    // wave that starts dropping below the gate's 0.75× floor fails it.
    let mut answered = 0u64;
    let wave = measure(config, || {
        let report = loadgen::ping_wave(&addr.to_string(), 1000);
        assert_eq!(report.transport_errors, 0, "wave dropped sockets: {report}");
        answered = report.ok + report.overloaded;
        report
    });
    rows.push(BenchRow {
        name: "serve_wave_c1000/wave".into(),
        stats: wave,
    });
    speedups.push((
        "serve_wave_c1000: simultaneous connections answered (ok + typed shed)".into(),
        answered as f64,
    ));

    // Sharded plane: two shards behind an flm-router, all in-process.
    // Ports are reserved up front (bind :0, note the address, drop,
    // rebind) so the topology is known before any shard starts. The k6/f2
    // workload again, three ways:
    //   - routed_warm vs direct_warm: the same warm refute through one
    //     router hop vs straight to the owning shard. The gated ratio is
    //     direct/routed, so 0.5 means the hop doubles the round trip —
    //     the acceptance line for the routing tax.
    //   - routed_cold vs routed_warm: the shard-local warm hit against a
    //     misrouted/cold request that pays the full simulation — the
    //     locality payoff that justifies owning key ranges at all.
    //   - a second 1000-socket ping wave, this time against the router
    //     front (the router answers pings locally, so this is the router
    //     reactor's own connection-scale headline).
    let holders: Vec<std::net::TcpListener> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve shard port"))
        .collect();
    let shard_addrs: Vec<String> = holders
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    drop(holders);
    let map = ShardMap::new(shard_addrs.clone()).expect("two-shard map");
    let shards: Vec<Server> = shard_addrs
        .iter()
        .enumerate()
        .map(|(id, addr)| {
            Server::start(ServeConfig {
                addr: addr.clone(),
                shard: Some(ShardRole {
                    id: id as u32,
                    map: map.clone(),
                }),
                ..ServeConfig::default()
            })
            .expect("bind bench shard")
        })
        .collect();
    let router =
        Router::start(RouterConfig::new("127.0.0.1:0", map.clone())).expect("bind bench router");
    let router_addr = router.local_addr();

    let owner = map.owner_of(
        &shard::routing_key(&RefuteParams {
            theorem: "ba-nodes".into(),
            protocol: Some("EIG(f=2)".into()),
            graph: Some(k6.clone()),
            f: 2,
            policy: None,
        })
        .expect("bench routing key"),
    );
    let mut routed = Client::connect(router_addr).expect("connect to bench router");
    let mut direct = Client::connect(map.addr(owner)).expect("connect to owning shard");
    assert_eq!(
        refute_rpc(&mut routed),
        refute_rpc(&mut direct),
        "routed and direct answers disagree byte-for-byte"
    );

    let routed_warm = measure(config, || refute_rpc(&mut routed));
    let direct_warm = measure(config, || refute_rpc(&mut direct));
    speedups.push((
        "refute_rpc_router_k6_f2: direct-to-owner warm vs one router hop (0.5 = hop costs 2x)"
            .into(),
        ratio(direct_warm, routed_warm),
    ));
    rows.push(BenchRow {
        name: "refute_rpc_router_k6_f2/routed_warm".into(),
        stats: routed_warm,
    });
    rows.push(BenchRow {
        name: "refute_rpc_router_k6_f2/direct_warm".into(),
        stats: direct_warm,
    });

    let routed_cold = measure(config, || {
        flm_sim::runcache::clear();
        refute_rpc(&mut routed)
    });
    speedups.push((
        "refute_rpc_router_k6_f2: shard-local warm hit vs cold simulate through the router".into(),
        ratio(routed_cold, routed_warm),
    ));
    rows.push(BenchRow {
        name: "refute_rpc_router_k6_f2/routed_cold".into(),
        stats: routed_cold,
    });

    let mut routed_answered = 0u64;
    let router_wave = measure(config, || {
        let report = loadgen::ping_wave(&router_addr.to_string(), 1000);
        assert_eq!(
            report.transport_errors, 0,
            "router wave dropped sockets: {report}"
        );
        routed_answered = report.ok + report.overloaded;
        report
    });
    rows.push(BenchRow {
        name: "serve_wave_router_c1000/wave".into(),
        stats: router_wave,
    });
    speedups.push((
        "serve_wave_router_c1000: simultaneous connections answered through the router".into(),
        routed_answered as f64,
    ));

    drop(routed);
    drop(direct);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }

    server.shutdown();
    Suite { rows, speedups }
}

/// The campaign suite: the asynchronous scheduler's per-delivery cost, and
/// the shrink quality of a trimmed fixed-seed chaos sweep.
///
/// Every `async-fair` campaign cell is a fair run of the scheduler, so the
/// suite times fair `WaitForAll` runs on the campaign's smallest and
/// largest covering rings: 100 runs on `cover3w4` (24 deliveries each)
/// against one on `cover3w400` (2,400), so both rows time 2,400 deliveries
/// and the small ring's sample is not lost in timer noise. Its gated ratio,
/// `async_delivery_flatness`, divides the small ring's nanoseconds per
/// delivery by the large ring's: a delivery whose cost grows with the edge
/// count drives it far below 1. The second headline is not a timing at
/// all: the trimmed sweep's mean shrink ratio in nodes, which is
/// seed-deterministic, so the bench gate catches regressions in shrink
/// *quality* on any host.
pub fn campaign_suite(samples: usize) -> Suite {
    use crate::campaign::{run_campaign, smoke_config};
    use flm_sim::async_sched::{AsyncSystem, Strategy};
    use flm_sim::RunPolicy;

    let config = cfg(samples);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();

    let prey = flm_protocols::resolve("WaitForAll").unwrap();
    let rings = [(4, 100, "100_runs"), (400, 1, "run")].map(|(weight, runs, variant)| {
        let g = builders::ring_cover(3, weight).unwrap();
        (g, runs, format!("async_fair_cover3w{weight}/{variant}"))
    });
    let fair_runs = |k: usize| {
        let (g, runs, _) = &rings[k];
        (0..*runs)
            .map(|_| {
                let mut sys = AsyncSystem::new(g.clone());
                for v in g.nodes() {
                    sys.assign(v, prey.device(g, v), Input::Bool(v.0 % 2 == 0));
                }
                sys.run(&Strategy::Fair, &RunPolicy::default()).unwrap()
            })
            .map(|run| run.schedule.len())
            .sum::<usize>()
    };
    let deliveries: Vec<usize> = (0..rings.len()).map(fair_runs).collect();
    let stats = measure_alternating(config, rings.len(), fair_runs);
    let ns_per_delivery: Vec<f64> = stats
        .iter()
        .zip(&deliveries)
        .map(|(s, &d)| s.min_ns as f64 / d as f64)
        .collect();
    for ((_, _, name), stats) in rings.into_iter().zip(stats) {
        rows.push(BenchRow { name, stats });
    }
    speedups.push((
        "async_delivery_flatness: ns per fair delivery, cover3w4 vs cover3w400".into(),
        ns_per_delivery[0] / ns_per_delivery[1],
    ));

    // Trim the smoke sweep to its fastest representative slice so the
    // suite stays cheap enough for debug-mode test runs.
    let mut sweep = smoke_config(0xF1A);
    sweep.protocols.retain(|(_, name)| {
        [
            "Table(7)",
            "NaiveMajority",
            "WeakViaBA(EIG(f=1))",
            "DLPSW(f=1, R=4)",
        ]
        .contains(&name.as_str())
    });
    sweep.graphs.truncate(2);

    // Deterministic shrink quality: same seed, same ratio, every host.
    let outcome = run_campaign(&sweep);
    speedups.push((
        "campaign_shrink_quality: mean nodes before vs after shrinking (deterministic)".into(),
        outcome.report.mean_shrink_ratio(),
    ));

    Suite { rows, speedups }
}

/// Renders a suite as a small, stable JSON document (median ns/op).
pub fn to_json(suite_name: &str, suite: &Suite) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"suite\": \"{suite_name}\",\n"));
    s.push_str("  \"unit\": \"ns/op\",\n");
    s.push_str("  \"benches\": [\n");
    for (i, row) in suite.rows.iter().enumerate() {
        let comma = if i + 1 == suite.rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"mean_ns\": {}}}{comma}\n",
            row.name, row.stats.median_ns, row.stats.min_ns, row.stats.mean_ns
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedups\": [\n");
    for (i, (label, ratio)) in suite.speedups.iter().enumerate() {
        let comma = if i + 1 == suite.speedups.len() {
            ""
        } else {
            ","
        };
        s.push_str(&format!(
            "    {{\"label\": \"{label}\", \"ratio\": {ratio:.2}}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_names_are_stable() {
        let suite = Suite {
            rows: vec![BenchRow {
                name: "a/b".into(),
                stats: Stats {
                    min_ns: 1,
                    median_ns: 2,
                    mean_ns: 3,
                },
            }],
            speedups: vec![("a vs b".into(), 2.5)],
        };
        let json = to_json("substrate", &suite);
        assert!(json.contains("\"suite\": \"substrate\""));
        assert!(json.contains("\"median_ns\": 2"));
        assert!(json.contains("\"ratio\": 2.50"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn campaign_suite_rows_and_deterministic_shrink_quality() {
        let suite = campaign_suite(2);
        for name in ["async_fair_cover3w4/100_runs", "async_fair_cover3w400/run"] {
            assert!(suite.rows.iter().any(|r| r.name == name), "missing {name}");
        }
        assert_eq!(suite.speedups.len(), 2);
        let (label, flatness) = &suite.speedups[0];
        assert!(label.contains("async_delivery_flatness"));
        assert!(
            *flatness > 0.0,
            "flatness must be a finite ratio: {flatness}"
        );
        // The shrink-quality headline is deterministic, not a timing: the
        // gate can hold it to a tight band across hosts.
        let (label, ratio) = &suite.speedups[1];
        assert!(label.contains("campaign_shrink_quality"));
        assert!(
            *ratio > 1.0,
            "trimmed sweep should shrink something: {ratio}"
        );
    }

    #[test]
    fn runcache_suite_has_the_three_engine_layers() {
        let suite = runcache_suite(2);
        for name in [
            "ba_nodes_k6_f2_eig_refute/warm",
            "ba_nodes_k6_f2_eig_refute/cold",
        ] {
            assert!(suite.rows.iter().any(|r| r.name == name), "missing {name}");
        }
        assert_eq!(suite.speedups.len(), 1);
        assert!(suite.speedups.iter().all(|(_, r)| *r > 0.0));
    }

    #[test]
    fn serve_suite_measures_rpc_warm_against_cold() {
        let suite = serve_suite(2);
        for name in [
            "serve_ping/round_trip",
            "refute_rpc_ba_nodes_k6_f2/warm",
            "refute_rpc_ba_nodes_k6_f2/cold",
            "refute_rpc_ba_nodes_k6_f2/disk_warm",
            "serve_load_mixed_c4_r8/batch",
            "serve_wave_c1000/wave",
            "refute_rpc_router_k6_f2/routed_warm",
            "refute_rpc_router_k6_f2/direct_warm",
            "refute_rpc_router_k6_f2/routed_cold",
            "serve_wave_router_c1000/wave",
        ] {
            assert!(suite.rows.iter().any(|r| r.name == name), "missing {name}");
        }
        assert_eq!(suite.speedups.len(), 6);
        assert!(suite.speedups.iter().all(|(_, r)| *r > 0.0));
        for prefix in ["serve_wave_c1000", "serve_wave_router_c1000"] {
            let wave = suite
                .speedups
                .iter()
                .find(|(label, _)| label.starts_with(prefix))
                .expect("wave headline");
            assert_eq!(wave.1, 1000.0, "a healthy plane answers every socket");
        }
    }

    #[test]
    fn substrate_suite_measures_dense_against_reference() {
        let suite = substrate_suite(3);
        assert!(suite.rows.iter().any(|r| r.name.ends_with("/dense")));
        assert!(suite.rows.iter().any(|r| r.name.ends_with("/reference")));
        assert_eq!(suite.speedups.len(), 4);
        assert!(suite.speedups.iter().all(|(_, r)| *r > 0.0));
    }
}
