//! Byte pins for the FLMC-RPC vocabulary: the exact encoded frame (header,
//! kind byte and body) of every `Request` and `Response` variant, with each
//! optional field both set and unset, every verdict and every error code.
//!
//! Servers, routers and clients of different builds talk to each other, and
//! a shard answers a router with the same bytes a client reads, so a change
//! to how a message is encoded must not move a single byte. Each case is
//! pinned by its length and its SHA-256 digest (computed dependency-free in
//! `common`); a mismatch lists every moved case with its new pin. Every case
//! also round-trips: decoding the frame and encoding it again yields the
//! same bytes.
//!
//! Two more byte strings leave the process and are pinned the same way: the
//! canonical query key, which names a certificate's store file and picks the
//! shard that owns it, and the shard map's encoding, which two processes
//! compare to agree on the cluster topology.

mod common;

use flm_graph::builders;
use flm_serve::frame::{Frame, DEFAULT_MAX_BODY_BYTES};
use flm_serve::query::{self, Theorem};
use flm_serve::rpc::{
    ClusterStatsReport, ErrorCode, RefuteParams, Request, Response, RouterStatsReport, ShardStatus,
    StatsReport, Verdict,
};
use flm_serve::shard::ShardMap;
use flm_sim::RunPolicy;

use common::sha256;

/// `(case, byte length, SHA-256 of the encoded frame)`.
const PINNED: &[(&str, usize, &str)] = &[
    (
        "request/audit",
        24,
        "f293577b97bac0a383099629749dff8439a6b3d4781bc867f1a9417519f39cb1",
    ),
    (
        "request/fetch_cert",
        31,
        "bc62a403b80a9c200bcfd44a3ea48e74d7909a793398cee7aef029c7ae448838",
    ),
    (
        "request/ping",
        30,
        "2f2520bf65f9daddc412231026edaa92f4be3db60b7efe5c5fbd5c116f437a4f",
    ),
    (
        "request/put_cert",
        73,
        "ace2009b01935cd45ba1d0b334ceaa91166a2b9597b178231e9edb23f5b8ab22",
    ),
    (
        "request/refute/all-none",
        31,
        "b42a2a2f4fe1245dae553aacad0fbfa93d38834d6ebe38d9056c4dade7da652b",
    ),
    (
        "request/refute/all-set",
        113,
        "e1801344364ac2788d54f4b79548f7458691193032f8a5eb633fb4f031e68c23",
    ),
    (
        "request/stats",
        10,
        "954a75003db36ea7eb3af8b5122962ddb5494d16a2b9dfc8d37bddd15c90148b",
    ),
    (
        "request/verify",
        25,
        "6878a71ec4327b2b49004d8ee118eb18f62289b95918da15597fb47f99d56912",
    ),
    (
        "response/audit",
        80,
        "b602cc9e815895f626eb2e073cd60ab0568827e196a44528ee45d68b7b372e03",
    ),
    (
        "response/certificate",
        78,
        "4869faecd7bd25f5dece1d10f27dbec21fc0fab750389e2a30f291dee5936a5c",
    ),
    (
        "response/cluster_stats",
        394,
        "8a2eb21c41bb6f717d86eb50998aeb6c902c227f08a4da6a6b9a51930c0307c1",
    ),
    (
        "response/error/bad-request",
        33,
        "db93fe284da292f4331d3298816cfe6d520fb9b6ab2bd978e8468fbd5286206e",
    ),
    (
        "response/error/connection-budget",
        39,
        "81f59ce4b9fa3ab2743ad068c94f8caffdf51a4addd56f3c2eb23963e0b247db",
    ),
    (
        "response/error/internal",
        30,
        "d894a1637b32437c2c43355f2815b964631d5def46a291916372899a2abecda4",
    ),
    (
        "response/error/malformed-frame",
        37,
        "544c5b98371fc019046b2edd740562a02da833a18a032406265f71f3b04fc14a",
    ),
    (
        "response/error/refute-failed",
        35,
        "a0b6019654b4176963d9bcc1b0df804987b0afaffe8eec23b3e462cda43c09bb",
    ),
    (
        "response/fetch_cert/none",
        11,
        "f504e096bfe80975c47d9d0f4c57b6fd5755cc5e656f5f72574403226b3ced5b",
    ),
    (
        "response/fetch_cert/some",
        63,
        "ad17db8f5090687a9aedb6246b7b7170c0541102359ac633db616a23820d3965",
    ),
    (
        "response/overloaded",
        32,
        "7d19a96387224e9c548e8e3054c15ca95e175657381969fd0d7994053744bc7c",
    ),
    (
        "response/pong",
        26,
        "c56b7069dddf507fb94c1c1064c5d69476f0b21be70bcad825545bd6c594a784",
    ),
    (
        "response/put_cert",
        10,
        "8bcfde02b9de54afd15e57a9f9d03645ff38de47e3df98f55ff703fe65dfec29",
    ),
    (
        "response/shard_down",
        37,
        "8f184aeff67d84b30ba73404d783f2239812a40db601cd5badf12e815b549ad3",
    ),
    (
        "response/stats",
        289,
        "e15bb004437165382f50fa0a7dc39a47e683294d5e3dcab40cca8824e4eadc62",
    ),
    (
        "response/verify/malformed",
        31,
        "957c4dfcf1abcd9334c3a9469a280232914655a39401ee815a86fac2720febcb",
    ),
    (
        "response/verify/not-reproduced",
        36,
        "61a3d85dc02d1ec4cc9191ca9a164253aebaf9caec7646df23879300cb68388c",
    ),
    (
        "response/verify/verified",
        30,
        "51021fe3ff56382cb825501ed3dc9f8f23a64d76adf92588b9ec2565d6ae651d",
    ),
    (
        "response/wrong_shard",
        32,
        "a1e10bd0501287e326869b8677aaa84e4cde7f72bb89c2c0bc441563d1211284",
    ),
    (
        "query_key/ba-connectivity",
        108,
        "55c0c8c8066024c1b6307f47118f59124e4ffb77519df1b155502a106886595a",
    ),
    (
        "query_key/ba-nodes",
        88,
        "824b02ceecd30840c294499f2b54f628df7bad05ffec2f18fcb2ca7a89ad299f",
    ),
    (
        "query_key/clock-sync",
        98,
        "b3f983cdce3e6d67881438e66325c696d524d723719c8479502c41efcfe1866a",
    ),
    (
        "query_key/eps-delta-gamma",
        102,
        "d8370e216caef5f1edbd5cde31cd8a4c4ba8bd42b2de871047a8ffec034a6405",
    ),
    (
        "query_key/explicit-clamped",
        112,
        "59e81e48067fe8be091456370ac22cb73fe4027acda93719b542dec54e23c0df",
    ),
    (
        "query_key/firing-squad",
        105,
        "4adb26e7f83b065f059fcdb5c9f34eaead25c608f225f2cc384e93471c00e688",
    ),
    (
        "query_key/flp-async",
        115,
        "29fbb240923799e435dcd463ac9a318e2a312177e3ab655c5f171230455bf3d5",
    ),
    (
        "query_key/simple-approx",
        100,
        "043d2bdbc6b4c6dce8e1c336ad6e194aeafcf8721d285e52c6da968e71a387b0",
    ),
    (
        "query_key/weak-agreement",
        105,
        "511047d1a9026a3589d92be47540f2e0fee335ac46e4a34b4286b5af985426e3",
    ),
    (
        "shard_map/3",
        57,
        "5a9d623d5794046ddb0ea2cf7b7951686ea847ec61a681cfd676b3a1ce3256b9",
    ),
];

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "request/ping",
            Request::Ping {
                payload: b"ping-payload".to_vec(),
                hold_ms: 25,
            },
        ),
        (
            "request/refute/all-set",
            Request::Refute(RefuteParams {
                theorem: "ba-nodes".into(),
                protocol: Some("EIG(f=1)".into()),
                graph: Some(builders::complete(4)),
                f: 1,
                policy: Some(RunPolicy {
                    max_payload_bytes: 4096,
                    max_ticks: 128,
                }),
            }),
        ),
        (
            "request/refute/all-none",
            Request::Refute(RefuteParams {
                theorem: "clock-sync".into(),
                protocol: None,
                graph: None,
                f: 2,
                policy: None,
            }),
        ),
        (
            "request/verify",
            Request::Verify {
                cert: b"FLMC-verify".to_vec(),
            },
        ),
        (
            "request/audit",
            Request::Audit {
                cert: b"FLMC-audit".to_vec(),
            },
        ),
        ("request/stats", Request::Stats),
        (
            "request/fetch_cert",
            Request::FetchCert {
                key: b"serve-query\0fetch".to_vec(),
            },
        ),
        (
            "request/put_cert",
            Request::PutCert {
                key: b"serve-query\0put".to_vec(),
                cert: vec![7; 40],
            },
        ),
    ]
}

/// A stats table with every counter distinct, so a reordered field moves
/// the digest.
fn stats_report(base: u64, profile: &str) -> StatsReport {
    StatsReport {
        connections_accepted: base + 1,
        connections_shed: base + 2,
        requests_ping: base + 3,
        requests_refute: base + 4,
        requests_verify: base + 5,
        requests_audit: base + 6,
        requests_stats: base + 7,
        responses_error: base + 8,
        malformed_frames: base + 9,
        cache_hits: base + 10,
        cache_misses: base + 11,
        cache_entries: base + 12,
        cache_bytes_saved: base + 13,
        requests_shed: base + 14,
        store_mem_hits: base + 15,
        store_disk_hits: base + 16,
        store_misses: base + 17,
        store_stores: base + 18,
        store_quarantined: base + 19,
        store_mem_evictions: base + 20,
        requests_fetch: base + 21,
        requests_put: base + 22,
        wrong_shard: base + 23,
        peer_fetches: base + 24,
        async_refutes: base + 25,
        async_schedules_explored: base + 26,
        async_bivalent_forks: base + 27,
        shard_id: base + 28,
        shard_count: base + 29,
        profile: profile.into(),
    }
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut cases = vec![
        (
            "response/pong",
            Response::Pong {
                payload: b"ping-payload".to_vec(),
            },
        ),
        (
            "response/certificate",
            Response::Certificate {
                bytes: vec![0xC5; 64],
            },
        ),
    ];
    for (name, verdict) in [
        ("response/verify/verified", Verdict::Verified),
        ("response/verify/not-reproduced", Verdict::NotReproduced),
        ("response/verify/malformed", Verdict::Malformed),
    ] {
        cases.push((
            name,
            Response::Verify {
                verdict,
                detail: format!("{verdict} detail"),
            },
        ));
    }
    cases.extend([
        (
            "response/audit",
            Response::Audit {
                exit_code: 1,
                report: "NOT REPRODUCED: decision mismatch".into(),
                diagnostics: "link E0 replayed differently".into(),
            },
        ),
        (
            "response/stats",
            Response::Stats(stats_report(
                100,
                "phase        total_ms\nkernel       1.5\n",
            )),
        ),
        (
            "response/cluster_stats",
            Response::ClusterStats(ClusterStatsReport {
                router: RouterStatsReport {
                    connections_accepted: 1,
                    connections_shed: 2,
                    requests_routed: 3,
                    requests_local: 4,
                    requests_shed: 5,
                    responses_error: 6,
                    malformed_frames: 7,
                    shard_down_answers: 8,
                    backend_reconnects: 9,
                },
                shards: vec![
                    ShardStatus {
                        shard: 0,
                        addr: "127.0.0.1:7416".into(),
                        up: true,
                        routed: 60,
                        report: Some(stats_report(200, "")),
                    },
                    ShardStatus {
                        shard: 1,
                        addr: "127.0.0.1:7417".into(),
                        up: false,
                        routed: 30,
                        report: None,
                    },
                ],
            }),
        ),
        (
            "response/fetch_cert/some",
            Response::FetchCert {
                cert: Some(vec![3; 48]),
            },
        ),
        (
            "response/fetch_cert/none",
            Response::FetchCert { cert: None },
        ),
        ("response/put_cert", Response::PutCert),
        (
            "response/wrong_shard",
            Response::WrongShard {
                owner: 2,
                addr: "127.0.0.1:7418".into(),
            },
        ),
        (
            "response/shard_down",
            Response::ShardDown {
                shard: 1,
                detail: "backend unreachable".into(),
            },
        ),
    ]);
    for (name, code) in [
        ("response/error/malformed-frame", ErrorCode::MalformedFrame),
        ("response/error/bad-request", ErrorCode::BadRequest),
        ("response/error/refute-failed", ErrorCode::RefuteFailed),
        (
            "response/error/connection-budget",
            ErrorCode::ConnectionBudget,
        ),
        ("response/error/internal", ErrorCode::Internal),
    ] {
        cases.push((name, Response::error(code, format!("{code} detail"))));
    }
    cases.push((
        "response/overloaded",
        Response::Overloaded {
            queued: 16,
            detail: "pool saturated".into(),
        },
    ));
    cases
}

/// Checks every `(case, bytes)` against its pin, reporting all misses at
/// once so a deliberate re-pin is one copy-paste.
fn check_pins(cases: &[(&str, Vec<u8>)]) {
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

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    frame.encode().expect("pinned frames are small")
}

fn decode(bytes: &[u8]) -> Frame {
    let (frame, used) = Frame::decode(bytes, DEFAULT_MAX_BODY_BYTES).expect("frame decodes");
    assert_eq!(used, bytes.len());
    frame
}

#[test]
fn every_request_variant_is_pinned() {
    let cases: Vec<_> = requests()
        .into_iter()
        .map(|(case, req)| {
            let bytes = frame_bytes(&req.to_frame());
            let back = Request::from_frame(&decode(&bytes)).expect("request decodes");
            assert_eq!(back, req, "{case}");
            assert_eq!(frame_bytes(&back.to_frame()), bytes, "{case}");
            (case, bytes)
        })
        .collect();
    check_pins(&cases);
}

#[test]
fn every_response_variant_is_pinned() {
    let cases: Vec<_> = responses()
        .into_iter()
        .map(|(case, resp)| {
            let bytes = frame_bytes(&resp.to_frame());
            let back = Response::from_frame(&decode(&bytes)).expect("response decodes");
            assert_eq!(back, resp, "{case}");
            assert_eq!(frame_bytes(&back.to_frame()), bytes, "{case}");
            (case, bytes)
        })
        .collect();
    check_pins(&cases);
}

/// The canonical query key of every family's default query at `f = 1`,
/// and of one fully spelled-out query whose policy is clamped to the
/// ceiling: the stored certificates of a running cluster are filed, and
/// their owners chosen, by these bytes.
#[test]
fn canonical_query_keys_are_pinned() {
    let mut cases: Vec<(String, Vec<u8>)> = Theorem::ALL
        .iter()
        .map(|&theorem| {
            let key = query::canonical_query_key(theorem, None, None, 1, &RunPolicy::default());
            (
                format!("query_key/{}", theorem.name()),
                key.bytes().to_vec(),
            )
        })
        .collect();
    let policy = query::clamp_policy(Some(RunPolicy {
        max_payload_bytes: 1 << 20,
        max_ticks: 1 << 20,
    }));
    let key = query::canonical_query_key(
        Theorem::BaNodes,
        Some("EIG(f=1)"),
        Some(&builders::complete(4)),
        1,
        &policy,
    );
    cases.push(("query_key/explicit-clamped".into(), key.bytes().to_vec()));
    let named: Vec<(&str, Vec<u8>)> = cases.iter().map(|(c, b)| (c.as_str(), b.clone())).collect();
    check_pins(&named);
}

/// The shard map of a 3-shard cluster.
#[test]
fn shard_map_encoding_is_pinned() {
    let map = ShardMap::new(
        ["127.0.0.1:7001", "127.0.0.1:7002", "10.0.0.3:7003"]
            .map(String::from)
            .to_vec(),
    )
    .expect("valid map");
    check_pins(&[("shard_map/3", map.encode())]);
}
