//! End-to-end sharded-cluster tests: in-process shard servers (three, or
//! two for the load run) plus a router, driven over real loopback TCP.
//!
//! The load-bearing assertions, in order of importance:
//!
//! 1. **Byte identity through the router** — a certificate fetched through
//!    the router is exactly the bytes the library path produces for the
//!    same query, for all eight theorem families. Sharding is a transport
//!    arrangement; it must be invisible in the bytes.
//! 2. **Deterministic routing** — the same key lands on the same shard
//!    across router restarts, because ownership is a pure function of
//!    `(shard count, key bytes)`, not of sockets or state.
//! 3. **Typed degradation** — off-owner requests answer `WrongShard` with
//!    the owner's address; a dead shard answers `ShardDown` for exactly
//!    its key range while the other ranges keep serving.
//! 4. **Rebalance ships sound certificates** — a store full of misplaced
//!    entries ends up on the owners, and every shipped certificate still
//!    audits at exit 0.
//! 5. **Load through the router is accounted** — `loadgen::run` reads each
//!    shard's change over the run from the router's cluster view, and a
//!    dead shard's range counts as typed errors, not dropped load.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use flm_serve::audit::{audit_bytes, EXIT_VERIFIED};
use flm_serve::client::{Client, ClientError};
use flm_serve::frame::{read_frame, write_frame, DEFAULT_MAX_BODY_BYTES};
use flm_serve::loadgen::{self, Mix};
use flm_serve::query::{canonical_query_key, refute_to_bytes, Theorem};
use flm_serve::router::{Router, RouterConfig};
use flm_serve::rpc::{RefuteParams, Request, Response};
use flm_serve::server::{ServeConfig, Server, ShardRole};
use flm_serve::shard::{self, ShardMap};
use flm_serve::store;
use flm_sim::RunPolicy;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flm-shard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserves `n` loopback ports: bind ephemeral, note, drop. The tiny race
/// (something else grabbing the port before the shard rebinds) is accepted
/// for tests; the shard map needs concrete addresses before any shard is
/// up.
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// An `n`-shard cluster plus router, each shard with its own store
/// directory.
struct Cluster {
    map: ShardMap,
    dirs: Vec<PathBuf>,
    shards: Vec<Option<Server>>,
    router: Router,
}

impl Cluster {
    fn start(tag: &str, n: u32) -> Cluster {
        let ports = reserve_ports(n as usize);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let map = ShardMap::new(addrs).unwrap();
        let dirs: Vec<PathBuf> = (0..n).map(|i| temp_dir(&format!("{tag}-s{i}"))).collect();
        let shards = (0..n)
            .map(|id| Some(start_shard(&map, id, &dirs[id as usize])))
            .collect();
        let router = Router::start(RouterConfig::new("127.0.0.1:0", map.clone())).unwrap();
        Cluster {
            map,
            dirs,
            shards,
            router,
        }
    }

    fn client(&self) -> Client {
        let mut client = Client::connect(self.router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        client
    }

    fn shutdown(mut self) {
        for shard in self.shards.iter_mut().filter_map(Option::take) {
            shard.shutdown();
        }
        self.router.shutdown();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn start_shard(map: &ShardMap, id: u32, dir: &std::path::Path) -> Server {
    Server::start(ServeConfig {
        addr: map.addr(id).to_owned(),
        workers: 2,
        store_dir: Some(dir.to_path_buf()),
        shard: Some(ShardRole {
            id,
            map: map.clone(),
        }),
        ..ServeConfig::default()
    })
    .unwrap()
}

/// The canonical default-policy store key for a family at f=1 — what the
/// shards index their stores by for the queries these tests issue.
fn default_key(theorem: Theorem) -> Vec<u8> {
    canonical_query_key(theorem, None, None, 1, &RunPolicy::default())
        .bytes()
        .to_vec()
}

#[test]
fn certificates_through_the_router_are_byte_identical_for_all_families() {
    let cluster = Cluster::start("bytes", 3);
    let mut client = cluster.client();
    let mut owners_seen = std::collections::HashSet::new();
    for theorem in Theorem::ALL {
        let expected = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();
        let via_router = client
            .refute(theorem.name(), None, None, 1, None)
            .unwrap_or_else(|e| panic!("{} through router: {e}", theorem.name()));
        assert_eq!(
            via_router,
            expected,
            "{} certificate differs through the router",
            theorem.name()
        );
        // And again from a *different* front connection: same bytes, and a
        // warm answer regardless of which connection asked.
        let mut second = cluster.client();
        assert_eq!(
            second.refute(theorem.name(), None, None, 1, None).unwrap(),
            expected
        );
        owners_seen.insert(cluster.map.owner_of_bytes(&default_key(theorem)));
    }
    // Sanity: the 7 families actually spread over more than one shard, or
    // this test exercises no routing at all.
    assert!(
        owners_seen.len() > 1,
        "all families landed on one shard: {owners_seen:?}"
    );
    cluster.shutdown();
}

#[test]
fn routing_is_deterministic_across_router_restarts() {
    let cluster = Cluster::start("determinism", 3);
    // Warm one family through the first router and note who owns it.
    let theorem = Theorem::BaNodes;
    let key = default_key(theorem);
    let owner = cluster.map.owner_of_bytes(&key);
    let mut client = cluster.client();
    let bytes = client.refute(theorem.name(), None, None, 1, None).unwrap();
    let before = cluster.shards[owner as usize]
        .as_ref()
        .unwrap()
        .stats()
        .requests_refute;
    assert_eq!(before, 1, "the owner should have served the refutation");

    // A *second* router over the same map (fresh ephemeral front port —
    // addresses differ, topology bytes agree) must route the same key to
    // the same shard.
    let router2 = Router::start(RouterConfig::new("127.0.0.1:0", cluster.map.clone())).unwrap();
    let mut client2 = Client::connect(router2.local_addr()).unwrap();
    client2
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(
        client2.refute(theorem.name(), None, None, 1, None).unwrap(),
        bytes
    );
    let after = cluster.shards[owner as usize]
        .as_ref()
        .unwrap()
        .stats()
        .requests_refute;
    assert_eq!(after, 2, "the same shard must own the key under router 2");
    router2.shutdown();
    cluster.shutdown();
}

#[test]
fn off_owner_requests_answer_typed_wrong_shard_with_the_owner_hint() {
    let cluster = Cluster::start("wrongshard", 3);
    let theorem = Theorem::BaNodes;
    let key = default_key(theorem);
    let owner = cluster.map.owner_of_bytes(&key);
    let not_owner = (0..3u32).find(|&s| s != owner).unwrap();
    // Direct to a non-owner, bypassing the router.
    let mut direct = Client::connect(cluster.map.addr(not_owner)).unwrap();
    direct
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match direct.refute(theorem.name(), None, None, 1, None) {
        Err(ClientError::WrongShard {
            owner: hinted,
            addr,
        }) => {
            assert_eq!(hinted, owner);
            assert_eq!(addr, cluster.map.addr(owner));
        }
        other => panic!("expected WrongShard, got {other:?}"),
    }
    // The rejection is counted and the shard never consulted its store or
    // simulated (the run cache is process-global in this test binary, so
    // the per-server store counters are the isolation-safe signal).
    let stats = cluster.shards[not_owner as usize].as_ref().unwrap().stats();
    assert_eq!(stats.wrong_shard, 1);
    assert_eq!(stats.store_misses + stats.store_stores, 0);
    cluster.shutdown();
}

#[test]
fn killing_one_shard_degrades_only_its_key_range() {
    let mut cluster = Cluster::start("degrade", 3);
    let mut client = cluster.client();
    // Warm every family so the survivors can answer from their stores.
    for theorem in Theorem::ALL {
        client.refute(theorem.name(), None, None, 1, None).unwrap();
    }
    // Kill one shard that owns at least one family.
    let victim = cluster.map.owner_of_bytes(&default_key(Theorem::BaNodes));
    cluster.shards[victim as usize].take().unwrap().shutdown();
    // Give the router one read against the dead backend to notice.
    std::thread::sleep(Duration::from_millis(100));

    let mut degraded = 0u32;
    let mut served = 0u32;
    let mut client = cluster.client();
    for theorem in Theorem::ALL {
        let owner = cluster.map.owner_of_bytes(&default_key(theorem));
        match client.refute(theorem.name(), None, None, 1, None) {
            Ok(bytes) => {
                assert_ne!(
                    owner,
                    victim,
                    "{} is owned by the dead shard yet served",
                    theorem.name()
                );
                let expected =
                    refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();
                assert_eq!(bytes, expected);
                served += 1;
            }
            Err(ClientError::ShardDown { shard, .. }) => {
                assert_eq!(
                    shard,
                    victim,
                    "{} answered ShardDown for the wrong shard",
                    theorem.name()
                );
                assert_eq!(owner, victim);
                degraded += 1;
            }
            Err(other) => panic!("{}: neither served nor typed-down: {other}", theorem.name()),
        }
    }
    assert!(
        degraded >= 1,
        "the victim owned no family — pick a bigger victim"
    );
    assert!(served >= 1, "every range went down, not just the victim's");

    // Restart the victim on the same address: its range heals (the router
    // reconnects on its sweep; allow a few).
    cluster.shards[victim as usize] = Some(start_shard(
        &cluster.map,
        victim,
        &cluster.dirs[victim as usize],
    ));
    let deadline = Instant::now() + Duration::from_secs(15);
    let healed = loop {
        let mut probe = cluster.client();
        match probe.refute(Theorem::BaNodes.name(), None, None, 1, None) {
            Ok(bytes) => break Some(bytes),
            Err(ClientError::ShardDown { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("healing probe failed hard: {e}"),
        }
    };
    let expected = refute_to_bytes(Theorem::BaNodes, None, None, 1, RunPolicy::default()).unwrap();
    assert_eq!(
        healed.unwrap(),
        expected,
        "healed answer must be byte-identical"
    );
    cluster.shutdown();
}

#[test]
fn rebalance_ships_misplaced_certificates_that_still_audit_clean() {
    // A "previous topology" store: every family's certificate piled into
    // one directory, as if a single unsharded server had been serving.
    let legacy_dir = temp_dir("rebalance-legacy");
    let legacy = store::CertStore::open(&legacy_dir).unwrap();
    let mut expected: Vec<(Theorem, Vec<u8>, Vec<u8>)> = Vec::new();
    for theorem in Theorem::ALL {
        let bytes = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();
        let key = canonical_query_key(theorem, None, None, 1, &RunPolicy::default());
        legacy.store(&key, &bytes);
        expected.push((theorem, key.bytes().to_vec(), bytes));
    }

    let cluster = Cluster::start("rebalance", 3);
    // Ship from the legacy directory as if it were shard 0's store.
    let report = shard::rebalance(&legacy_dir, &cluster.map, 0, true).unwrap();
    let families = Theorem::ALL.len() as u64;
    assert_eq!(report.examined, families, "{report}");
    let misplaced: u64 = expected
        .iter()
        .filter(|(_, key, _)| cluster.map.owner_of_bytes(key) != 0)
        .count() as u64;
    assert_eq!(report.shipped, misplaced, "{report}");
    assert_eq!(report.failed, 0, "{report}");
    assert_eq!(report.owned, families - misplaced, "{report}");
    assert_eq!(report.removed, misplaced, "{report}");

    // Every shipped certificate now sits in its owner's store, fetchable
    // and byte-identical — and still audits at exit 0.
    for (theorem, key, bytes) in &expected {
        let owner = cluster.map.owner_of_bytes(key);
        if owner == 0 {
            continue;
        }
        let mut direct = Client::connect(cluster.map.addr(owner)).unwrap();
        direct
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let fetched = direct
            .fetch_cert(key)
            .unwrap()
            .unwrap_or_else(|| panic!("{} missing from shard {owner}", theorem.name()));
        assert_eq!(&fetched, bytes, "{} shipped bytes differ", theorem.name());
        let audit = audit_bytes(&fetched, false);
        assert_eq!(
            audit.exit_code,
            EXIT_VERIFIED,
            "{} shipped cert failed audit: {}",
            theorem.name(),
            audit.diagnostics
        );
    }
    // Shipping to the wrong owner is refused, typed: pick a key owned by
    // some shard and ship it to a different one.
    let (_, key, bytes) = &expected[0];
    let owner = cluster.map.owner_of_bytes(key);
    let wrong = (0..3u32).find(|&s| s != owner).unwrap();
    let mut direct = Client::connect(cluster.map.addr(wrong)).unwrap();
    direct
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match direct.put_cert(key, bytes) {
        Err(ClientError::WrongShard { owner: hinted, .. }) => assert_eq!(hinted, owner),
        other => panic!("expected WrongShard on misdirected put, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&legacy_dir);
    cluster.shutdown();
}

#[test]
fn peer_fetch_recovers_a_reassigned_key_without_resimulating() {
    // Simulate a topology change: warm a certificate into shard A's store
    // under a 3-shard map, then restart the *owning* shard with an empty
    // store while a peer still holds the bytes. The owner must serve the
    // certificate via FetchCert from the peer, not a fresh simulation —
    // observable through peer_fetches and byte identity.
    let cluster = Cluster::start("peerfetch", 3);
    let theorem = Theorem::BaNodes;
    let key = default_key(theorem);
    let owner = cluster.map.owner_of_bytes(&key);
    let peer = (0..3u32).find(|&s| s != owner).unwrap();
    let expected = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();

    // Plant the certificate in the *peer's* store directly (as if it owned
    // the key under an older topology).
    let peer_store = store::CertStore::open(&cluster.dirs[peer as usize]).unwrap();
    let run_key = canonical_query_key(theorem, None, None, 1, &RunPolicy::default());
    peer_store.store(&run_key, &expected);

    let mut client = cluster.client();
    let bytes = client.refute(theorem.name(), None, None, 1, None).unwrap();
    assert_eq!(bytes, expected);
    let stats = cluster.shards[owner as usize].as_ref().unwrap().stats();
    assert_eq!(
        stats.peer_fetches, 1,
        "the owner should have pulled from the peer: {stats}"
    );
    assert_eq!(stats.store_stores, 1, "the fetched cert must be adopted");
    cluster.shutdown();
}

/// A peer answers `FetchCert` on its reactor, since it is a store lookup
/// and never a simulation: a cold owner gets its answer even while every
/// worker of the peer is busy. When `FetchCert` waited in the worker
/// queue, the owner's worker stalled until the 2 s peer read timeout, and
/// two shards that missed at once blocked on each other. The shard that
/// owns the key plays shard 0 here; the other, whose one worker a 3 s ping
/// holds, plays shard 1.
#[test]
fn peer_fetch_is_answered_while_every_peer_worker_is_busy() {
    let ports = reserve_ports(2);
    let map = ShardMap::new(ports.iter().map(|p| format!("127.0.0.1:{p}")).collect()).unwrap();
    let theorem = Theorem::BaNodes;
    let owner = map.owner_of_bytes(&default_key(theorem));
    let peer = 1 - owner;
    let dirs = [temp_dir("busypeer-s0"), temp_dir("busypeer-s1")];
    let start = |id: u32, max_hold_ms: u32| {
        Server::start(ServeConfig {
            addr: map.addr(id).to_owned(),
            workers: 1,
            max_hold_ms,
            store_dir: Some(dirs[id as usize].clone()),
            shard: Some(ShardRole {
                id,
                map: map.clone(),
            }),
            ..ServeConfig::default()
        })
        .unwrap()
    };
    let owner_server = start(owner, ServeConfig::default().max_hold_ms);
    let peer_server = start(peer, 10_000);
    // Warm the process-global run cache, so the timed refute below costs
    // the store miss and the peer fetch, not a simulation.
    let expected = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();

    let peer_addr = peer_server.local_addr();
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(peer_addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        client.ping(b"hold", 3_000).unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while peer_server.busy_workers() == 0 {
        assert!(
            Instant::now() < deadline,
            "the peer's worker never became busy"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let fetches_before = peer_server.stats().requests_fetch;

    let mut client = Client::connect(owner_server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let began = Instant::now();
    let bytes = client.refute(theorem.name(), None, None, 1, None).unwrap();
    let took = began.elapsed();
    assert_eq!(bytes, expected);
    assert!(
        took < Duration::from_secs(1),
        "a cold refute behind a busy peer took {took:?}"
    );
    assert!(
        peer_server.stats().requests_fetch > fetches_before,
        "the owner never asked its peer"
    );
    assert_eq!(holder.join().unwrap(), b"hold");
    owner_server.shutdown();
    peer_server.shutdown();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The router carries all of a shard's traffic on one backend connection,
/// so the shard's per-connection request budget must not take the key
/// range down: the router renews the connection and re-sends what was
/// pending, and every routed refute still gets its certificate.
#[test]
fn shard_request_budget_renews_the_backend_instead_of_failing_the_shard() {
    let port = reserve_ports(1)[0];
    let map = ShardMap::new(vec![format!("127.0.0.1:{port}")]).unwrap();
    let shard = Server::start(ServeConfig {
        addr: map.addr(0).to_owned(),
        workers: 2,
        max_requests_per_conn: 3,
        shard: Some(ShardRole {
            id: 0,
            map: map.clone(),
        }),
        ..ServeConfig::default()
    })
    .unwrap();
    let router = Router::start(RouterConfig::new("127.0.0.1:0", map)).unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let families = [Theorem::BaNodes, Theorem::WeakAgreement];
    let expected: Vec<Vec<u8>> = families
        .iter()
        .map(|&t| refute_to_bytes(t, None, None, 1, RunPolicy::default()).unwrap())
        .collect();
    for i in 0..20 {
        let (theorem, bytes) = (families[i % 2], &expected[i % 2]);
        let wire = client.refute(theorem.name(), None, None, 1, None).unwrap();
        assert_eq!(&wire, bytes, "refute {i} through the router");
    }
    // Pipelined: the budget error lands with requests still pending behind
    // it, and every one of them is re-sent in order on the fresh connection.
    let mut raw = std::net::TcpStream::connect(router.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    for i in 0..20 {
        let request = Request::Refute(RefuteParams {
            theorem: families[i % 2].name().to_owned(),
            protocol: None,
            graph: None,
            f: 1,
            policy: None,
        });
        write_frame(&mut raw, &request.to_frame()).unwrap();
    }
    for i in 0..20 {
        let frame = read_frame(&mut raw, DEFAULT_MAX_BODY_BYTES).unwrap();
        match Response::from_frame(&frame).unwrap() {
            Response::Certificate { bytes } => assert_eq!(bytes, expected[i % 2], "answer {i}"),
            other => panic!("pipelined refute {i}: expected a certificate, got {other:?}"),
        }
    }
    let stats = router.stats();
    assert_eq!(stats.shard_down_answers, 0);
    assert!(stats.backend_reconnects >= 14, "{stats:?}");
    router.shutdown();
    shard.shutdown();
}

/// Each shard's share of a run that sends every family `per_family`
/// times: the families it owns times `per_family`.
fn expected_per_shard(map: &ShardMap, per_family: u64) -> Vec<u64> {
    let mut counts = vec![0; map.count() as usize];
    for theorem in Theorem::ALL {
        counts[map.owner_of_bytes(&default_key(theorem)) as usize] += per_family;
    }
    counts
}

/// One load driver for servers and routers: refute-only over all eight
/// families, 2 connections × 8 slots, so each connection sends each family
/// once. Through a router the cluster view accounts for every request on
/// its owner; against a plain shard there is no cluster view and
/// off-owner keys are typed `WrongShard` errors; with one shard down its
/// range's requests are typed `ShardDown` errors.
#[test]
fn load_through_the_router_reports_each_shards_change() {
    let mut cluster = Cluster::start("load", 2);
    let router = cluster.router.local_addr().to_string();
    let refute_only = Mix::parse("1:0:0").unwrap();
    let expected = expected_per_shard(&cluster.map, 2);

    let report = loadgen::run(&router, 2, 8, refute_only, &Theorem::ALL).unwrap();
    assert_eq!((report.requests, report.ok), (16, 16), "{report}");
    assert_eq!(report.transport_errors + report.abandoned, 0, "{report}");
    let delta = report
        .cluster
        .as_ref()
        .expect("a router answers a cluster view");
    assert!(report.to_string().contains("2/2 shards up"), "{report}");
    let run_only = (
        delta.router.connections_accepted,
        delta.router.requests_routed,
    );
    assert_eq!(
        run_only,
        (2, 16),
        "the Stats probes are taken out: {report}"
    );
    for (row, &want) in delta.shards.iter().zip(&expected) {
        let shard_report = row.report.as_ref().expect("both shards are up");
        assert_eq!(shard_report.requests_refute, want, "{report}");
        assert_eq!(
            row.routed, want,
            "routed reads the run's requests: {report}"
        );
    }

    // A plain shard answers single-server stats: no cluster view, and the
    // keys it does not own come back as typed `WrongShard` errors.
    let report = loadgen::run(cluster.map.addr(0), 2, 8, refute_only, &Theorem::ALL).unwrap();
    assert_eq!(report.cluster, None);
    assert_eq!((report.ok, report.errors), (expected[0], 16 - expected[0]));
    assert_eq!(report.transport_errors + report.abandoned, 0, "{report}");

    // Kill a shard that owns a family: its range answers `ShardDown`, the
    // other keeps serving.
    let victim = cluster.map.owner_of_bytes(&default_key(Theorem::BaNodes)) as usize;
    cluster.shards[victim].take().unwrap().shutdown();
    std::thread::sleep(Duration::from_millis(100));
    let report = loadgen::run(&router, 2, 8, refute_only, &Theorem::ALL).unwrap();
    let down = expected[victim];
    assert_eq!((report.ok, report.errors), (16 - down, down), "{report}");
    assert_eq!(report.transport_errors + report.abandoned, 0, "{report}");
    let delta = report.cluster.as_ref().expect("the router still answers");
    assert!(!delta.shards[victim].up && delta.shards[victim].report.is_none());
    assert_eq!(delta.router.shard_down_answers, down, "{report}");
    cluster.shutdown();
}
