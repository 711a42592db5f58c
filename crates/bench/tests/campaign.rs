//! Campaign acceptance tests: a fixed-seed campaign over the protocol zoo
//! (4 problem families) × 4 graph families must find violations, shrink
//! them strictly, emit certificates that pass the audit path with exit 0,
//! and reproduce byte-identically from the same seed.

use std::sync::atomic::{AtomicUsize, Ordering};

use flm_bench::campaign::{
    probe, run_campaign, smoke_config, with_schedulers, write_campaign, Scenario,
};
use flm_graph::{Graph, NodeId};
use flm_serve::audit::{audit_bytes, EXIT_VERIFIED};
use flm_sim::campaign::SchedulerKind;
use flm_sim::{Device, Protocol};

#[test]
fn fixed_seed_campaign_finds_shrinks_audits_and_reproduces() {
    let config = smoke_config(0xF1A);
    // The sweep is wide enough for the acceptance bar: ≥ 3 protocol
    // families × ≥ 3 graph families.
    let problem_kinds: std::collections::BTreeSet<_> =
        config.protocols.iter().map(|(k, _)| *k).collect();
    assert!(problem_kinds.len() >= 3, "need ≥ 3 protocol families");
    assert!(config.graphs.len() >= 3, "need ≥ 3 graph families");

    let outcome = run_campaign(&config);
    assert_eq!(
        outcome.report.runs,
        config.protocols.len() * config.graphs.len() * config.rule_counts.len()
    );

    // Finds at least one violation (random-table and naive protocols are
    // guaranteed prey), and every probe ended structurally: violation,
    // clean, or incident — the campaign itself never crashed to get here.
    assert!(
        !outcome.report.violations.is_empty(),
        "campaign found no violations"
    );
    assert_eq!(outcome.certs.len(), outcome.report.violations.len());

    // Shrinking: never grows, and at least one violation got strictly
    // smaller in nodes or fault-plan entries.
    for v in &outcome.report.violations {
        assert!(v.shrunk.nodes <= v.original.nodes, "{v:?} grew in nodes");
        assert!(v.shrunk.rules <= v.original.rules, "{v:?} grew in rules");
        assert!(
            v.shrunk.horizon <= v.original.horizon,
            "{v:?} grew in horizon"
        );
    }
    assert!(
        outcome
            .report
            .violations
            .iter()
            .any(|v| v.shrunk.nodes < v.original.nodes || v.shrunk.rules < v.original.rules),
        "no violation shrank in nodes or rules: {:#?}",
        outcome.report.violations
    );
    assert!(outcome.report.mean_shrink_ratio() > 1.0);

    // Every emitted certificate passes the audit path with exit 0 — the
    // same verdict logic `flm-audit` runs on the file.
    for (name, bytes) in &outcome.certs {
        let audit = audit_bytes(bytes, false);
        assert_eq!(
            audit.exit_code, EXIT_VERIFIED,
            "{name} failed audit: {}",
            audit.diagnostics
        );
    }

    // Same seed ⇒ byte-identical certificates and report.
    let again = run_campaign(&config);
    assert_eq!(
        outcome.report.to_json(),
        again.report.to_json(),
        "report not reproducible"
    );
    assert_eq!(outcome.certs, again.certs, "certificates not reproducible");

    // A different seed changes derived plans/graphs — the sweep actually
    // depends on its seed.
    let other = run_campaign(&smoke_config(0xBEE));
    assert_ne!(outcome.report.to_json(), other.report.to_json());
}

#[test]
fn campaign_incidents_are_structured_not_crashes() {
    // A degenerate graph family in the sweep must surface as a `build`
    // incident while the rest of the campaign proceeds normally.
    let mut config = smoke_config(3);
    config
        .graphs
        .push(flm_sim::campaign::GraphFamily::RandomRegular { n: 5, d: 3 });
    let outcome = run_campaign(&config);
    assert!(
        outcome.report.incidents.iter().any(|i| i.stage == "build"),
        "degenerate builder parameters should be build incidents: {:?}",
        outcome.report.incidents
    );
    assert!(!outcome.report.violations.is_empty());
}

/// The run cache is a performance layer only: a campaign whose every probe
/// and shrink step re-simulates writes the same report and certificate
/// files, byte for byte, as one served from the cache.
#[test]
fn uncached_campaign_writes_the_same_files_as_a_cached_one() {
    let config = smoke_config(0xF1A);
    let root = std::env::temp_dir().join(format!("flm-campaign-bypass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cached_dir = root.join("cached");
    let bypassed_dir = root.join("bypassed");
    write_campaign(&run_campaign(&config), &cached_dir).unwrap();
    // `bypass` is per thread, so the sweep runs inline to keep every probe
    // inside the bypass scope.
    let bypassed = flm_par::sequential(|| flm_sim::runcache::bypass(|| run_campaign(&config)));
    write_campaign(&bypassed, &bypassed_dir).unwrap();

    let files = |dir: &std::path::Path| {
        let mut files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                (entry.file_name(), std::fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let cached = files(&cached_dir);
    assert!(cached.len() > 1, "the campaign wrote no certificates");
    assert!(
        cached == files(&bypassed_dir),
        "uncached campaign files differ from the cached run's"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The campaign runs one pool pass in which sync and async probe-and-shrink
/// jobs finish in any order; on every scheduler axis it still returns the
/// same report and certificates, byte for byte, as the inline run.
#[test]
fn pooled_campaign_matches_sequential_on_every_scheduler_axis() {
    let config = with_schedulers(
        smoke_config(0xF1A),
        vec![
            SchedulerKind::Sync,
            SchedulerKind::AsyncFair,
            SchedulerKind::AsyncAdversarial,
        ],
    );
    let pooled = run_campaign(&config);
    let sequential = flm_par::sequential(|| run_campaign(&config));
    for axis in ["sync", "async-fair", "async-adversarial"] {
        assert!(
            pooled.report.violations.iter().any(|v| v.scheduler == axis),
            "the {axis} axis found no violation"
        );
    }
    assert_eq!(pooled.report.to_json(), sequential.report.to_json());
    assert!(
        pooled.certs == sequential.certs,
        "pooled certificates differ from the sequential run's"
    );
}

/// A registry protocol under its own name that counts the devices it
/// builds, so a test can tell a replayed run from a re-simulated one.
struct Counted {
    inner: Box<dyn Protocol>,
    devices: AtomicUsize,
}

impl Protocol for Counted {
    fn name(&self) -> String {
        format!("Counted({})", self.inner.name())
    }
    fn device(&self, g: &Graph, v: NodeId) -> Box<dyn Device> {
        self.devices.fetch_add(1, Ordering::Relaxed);
        self.inner.device(g, v)
    }
    fn horizon(&self, g: &Graph) -> u32 {
        self.inner.horizon(g)
    }
}

/// The probe and `Certificate::verify` build a link through one function
/// under one run-cache key, so verifying a probe's certificate replays the
/// probe's run from the cache and builds no device.
#[test]
fn verifying_a_probe_certificate_is_a_run_cache_hit() {
    let config = smoke_config(0xF1A);
    for spec in config.specs() {
        if spec.scheduler != SchedulerKind::Sync {
            continue;
        }
        let Ok(g) = spec.graph.build(spec.graph_seed) else {
            continue;
        };
        let protocol = Counted {
            inner: flm_protocols::resolve(&spec.protocol).unwrap(),
            devices: AtomicUsize::new(0),
        };
        let horizon = protocol
            .horizon(&g)
            .clamp(1, config.policy.max_ticks.max(1));
        let scenario = Scenario {
            family: spec.graph,
            graph_seed: spec.graph_seed,
            plan: spec.plan(&g, horizon),
            horizon,
        };
        let Ok(Some(cert)) = probe(spec.problem, &protocol, &scenario, spec.f, &config.policy)
        else {
            continue;
        };
        let built = protocol.devices.load(Ordering::Relaxed);
        cert.verify(&protocol).unwrap();
        assert_eq!(
            protocol.devices.load(Ordering::Relaxed),
            built,
            "verifying {}'s certificate re-simulated the probe's link",
            spec.protocol
        );
        return;
    }
    panic!("the smoke sweep found no violation to verify");
}
