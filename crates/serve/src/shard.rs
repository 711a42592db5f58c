//! Shard topology: who owns which canonical query key.
//!
//! A cluster is N `flm-serve` processes plus a router, all agreeing on one
//! [`ShardMap`] — an ordered list of shard addresses whose index *is* the
//! shard id. Ownership is rendezvous (highest-random-weight) hashing: for a
//! key fingerprint `fp`, every shard id gets a mixed weight and the highest
//! weight owns the key. Rendezvous gives the two properties the cluster
//! leans on:
//!
//! * **Determinism.** The owner is a pure function of `(shard count, key
//!   bytes)` — no state, no coordination, stable across restarts. The
//!   router and every shard compute it independently and must agree, which
//!   is why the map has a canonical wire encoding ([`ShardMap::encode`]):
//!   byte-identical maps, byte-identical ownership.
//! * **Minimal movement.** Adding or removing one shard reassigns only the
//!   keys whose argmax changed — on average `1/N` of the space — which is
//!   what makes [`rebalance`] shipping proportional to the topology change
//!   rather than to the store size.
//!
//! Refutation requests are routed by [`routing_key`]: the canonical query
//! key of the request with its policy clamped to the default ceiling, the
//! very key the owning shard stores its certificate under. Store entries
//! are owned by their stored key bytes directly
//! ([`ShardMap::owner_of_bytes`]), so a request and its stored certificate
//! always have one owner.

use std::fmt;
use std::path::Path;

use flm_sim::runcache::{fingerprint, RunKey};
use flm_sim::wire::{invalid, Field, Writer};
use flm_sim::wire_schema;

use crate::query::{self, QueryError, Theorem};
use crate::rpc::RefuteParams;
use crate::store;

/// Sanity cap on shard count; [`ShardMap::new`] and the wire decode refuse
/// more.
pub const MAX_SHARDS: usize = 1 << 16;

/// An ordered shard topology: index = shard id, value = address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    addrs: Vec<String>,
}

impl ShardMap {
    /// Builds a map from addresses in shard-id order.
    ///
    /// # Errors
    ///
    /// Rejects an empty list, more than [`MAX_SHARDS`] entries, and blank
    /// addresses.
    pub fn new(addrs: Vec<String>) -> Result<ShardMap, String> {
        let map = ShardMap { addrs };
        map.validate()?;
        Ok(map)
    }

    fn validate(&self) -> Result<(), String> {
        let addrs = &self.addrs;
        if addrs.is_empty() {
            return Err("a shard map needs at least one shard".into());
        }
        if addrs.len() > MAX_SHARDS {
            return Err(format!(
                "{} shards is past the {MAX_SHARDS} cap",
                addrs.len()
            ));
        }
        if let Some(blank) = addrs.iter().position(|a| a.trim().is_empty()) {
            return Err(format!("shard {blank} has a blank address"));
        }
        Ok(())
    }

    /// Parses a comma-separated peer list (`--peers a:1,b:2,c:3`) into a
    /// map; entry order is shard-id order.
    ///
    /// # Errors
    ///
    /// Same constraints as [`ShardMap::new`].
    pub fn parse_peers(list: &str) -> Result<ShardMap, String> {
        ShardMap::new(list.split(',').map(|s| s.trim().to_owned()).collect())
    }

    /// Number of shards.
    pub fn count(&self) -> u32 {
        self.addrs.len() as u32
    }

    /// The address of one shard.
    pub fn addr(&self, shard: u32) -> &str {
        &self.addrs[shard as usize]
    }

    /// All addresses, in shard-id order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The shard owning a canonical key.
    pub fn owner_of(&self, key: &RunKey) -> u32 {
        owner_for_count(self.count(), key.fingerprint())
    }

    /// The shard owning raw canonical key bytes (a store sidecar, a
    /// FetchCert/PutCert body).
    pub fn owner_of_bytes(&self, key: &[u8]) -> u32 {
        owner_for_count(self.count(), fingerprint(key))
    }

    /// Canonical wire encoding, the bytes of the map's wire schema. Two
    /// processes hold the same topology exactly when these bytes are
    /// identical; `tests/rpc_bytes.rs` pins them.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.finish()
    }
}

// A map travels as its address list: a `u32` count, then each address as a
// length-prefixed string. A decoded map must pass the checks `new` makes.
wire_schema! {
    struct ShardMap { addrs: "shard map" }
    check(|m: &ShardMap| m.validate().map_err(|e| invalid("shard map", e)))
}

impl fmt::Display for ShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} shards [", self.count())?;
        for (i, addr) in self.addrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}={addr}")?;
        }
        write!(f, "]")
    }
}

/// Rendezvous ownership over shard *ids*: the owner of fingerprint `fp`
/// among `count` shards is the id with the highest mixed weight. Ids (not
/// addresses) carry the hash so ownership survives address changes — a
/// shard restarted on a new port still owns its keys.
pub fn owner_for_count(count: u32, fp: u64) -> u32 {
    assert!(count > 0, "ownership over zero shards");
    (0..count)
        .max_by_key(|&shard| rendezvous_weight(shard, fp))
        .unwrap_or(0)
}

/// The HRW weight of one `(shard, fingerprint)` pair: the fingerprint
/// perturbed by a per-shard odd constant, then finalized with the
/// splitmix64 mixer so single-bit fingerprint differences flip roughly half
/// the weight bits.
fn rendezvous_weight(shard: u32, fp: u64) -> u64 {
    let salt = (u64::from(shard) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut x = fp ^ salt;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The key a refutation request is *routed* by: the canonical query key of
/// the request with its policy clamped by [`query::clamp_policy`], which is
/// the key the owning shard stores the certificate under. Router and shard
/// both derive it from what is on the wire, which is the agreement that
/// makes `WrongShard` a misconfiguration signal rather than a steady-state
/// cost.
///
/// # Errors
///
/// [`QueryError::UnknownTheorem`] when the family name does not parse.
pub fn routing_key(params: &RefuteParams) -> Result<RunKey, QueryError> {
    let theorem = Theorem::parse(&params.theorem)?;
    Ok(query::canonical_query_key(
        theorem,
        params.protocol.as_deref(),
        params.graph.as_ref(),
        params.f as usize,
        &query::clamp_policy(params.policy),
    ))
}

/// What one [`rebalance`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Committed entries found in the store directory.
    pub examined: u64,
    /// Entries already owned by `local_shard` (left in place).
    pub owned: u64,
    /// Misplaced entries successfully shipped to their owner.
    pub shipped: u64,
    /// Misplaced entries whose ship failed (owner unreachable, rejected).
    pub failed: u64,
    /// Shipped entries removed locally (`remove = true` only).
    pub removed: u64,
}

impl fmt::Display for RebalanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries examined: {} owned, {} shipped, {} failed, {} removed",
            self.examined, self.owned, self.shipped, self.failed, self.removed
        )
    }
}

/// Walks the store directory at `dir` and ships every entry whose owner
/// under `map` is not `local_shard` to its owner via `PutCert` (the
/// receiver verifies before owning — the ship-verify-then-own rule). One
/// connection per destination shard is opened lazily and reused. With
/// `remove`, each successfully shipped entry is deleted locally (sidecar
/// first, so a racing lookup sees a clean miss).
///
/// Failures are counted, not fatal: a down owner leaves its entries in
/// place for the next pass.
///
/// # Errors
///
/// Only the directory walk itself ([`store::walk_entries`]) and a
/// `local_shard` outside the map are errors.
pub fn rebalance(
    dir: &Path,
    map: &ShardMap,
    local_shard: u32,
    remove: bool,
) -> Result<RebalanceReport, String> {
    if local_shard >= map.count() {
        return Err(format!(
            "--shard-id {local_shard} is outside the {}-shard map",
            map.count()
        ));
    }
    let entries =
        store::walk_entries(dir).map_err(|e| format!("walking {}: {e}", dir.display()))?;
    let mut report = RebalanceReport::default();
    let mut clients: Vec<Option<crate::client::Client>> = Vec::new();
    clients.resize_with(map.count() as usize, || None);
    for entry in entries {
        report.examined += 1;
        let owner = map.owner_of_bytes(&entry.key);
        if owner == local_shard {
            report.owned += 1;
            continue;
        }
        let slot = &mut clients[owner as usize];
        if slot.is_none() {
            *slot = crate::client::Client::connect(map.addr(owner)).ok();
        }
        let shipped = match slot.as_mut() {
            Some(client) => client.put_cert(&entry.key, &entry.cert).is_ok(),
            None => false,
        };
        if shipped {
            report.shipped += 1;
            if remove && store::remove_entry(dir, entry.fingerprint).is_ok() {
                report.removed += 1;
            }
        } else {
            // Drop the connection so the next entry for this owner retries
            // from a clean connect instead of a wedged stream.
            *slot = None;
            report.failed += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flm_sim::wire::Reader;
    use flm_sim::RunPolicy;

    fn map3() -> ShardMap {
        ShardMap::parse_peers("127.0.0.1:7416, 127.0.0.1:7417, 127.0.0.1:7418").unwrap()
    }

    #[test]
    fn ownership_is_deterministic_and_address_independent() {
        let map = map3();
        let other_addrs =
            ShardMap::parse_peers("10.0.0.1:9000,10.0.0.2:9000,10.0.0.3:9000").unwrap();
        for tag in 0..200u64 {
            let fp = fingerprint(&tag.to_le_bytes());
            let owner = owner_for_count(3, fp);
            assert_eq!(owner_for_count(3, fp), owner, "unstable for {tag}");
            // Same count, different addresses: same owner — a restart on a
            // new port must not reshuffle the key space.
            assert_eq!(other_addrs.owner_of_bytes(&tag.to_le_bytes()), owner);
            assert_eq!(map.owner_of_bytes(&tag.to_le_bytes()), owner);
        }
    }

    #[test]
    fn ownership_spreads_across_shards() {
        let mut per_shard = [0usize; 3];
        for tag in 0..3000u64 {
            let fp = fingerprint(&tag.to_le_bytes());
            per_shard[owner_for_count(3, fp) as usize] += 1;
        }
        for (shard, &n) in per_shard.iter().enumerate() {
            // Perfectly balanced would be 1000; allow generous slack while
            // still catching a degenerate hash.
            assert!((600..=1400).contains(&n), "shard {shard} owns {n}/3000");
        }
    }

    #[test]
    fn growing_the_map_moves_roughly_one_share_of_keys() {
        let total = 3000u64;
        let moved = (0..total)
            .filter(|tag| {
                let fp = fingerprint(&tag.to_le_bytes());
                owner_for_count(3, fp) != owner_for_count(4, fp)
            })
            .count();
        // Rendezvous moves ~1/4 of keys when a fourth shard joins; a mod-N
        // scheme would move ~3/4. Allow wide slack around 750.
        assert!(
            (450..=1100).contains(&moved),
            "{moved}/{total} keys moved on 3→4 growth"
        );
    }

    #[test]
    fn map_round_trips_byte_for_byte() {
        let map = map3();
        let bytes = map.encode();
        let decode = |bytes: &[u8]| ShardMap::get(&mut Reader::new(bytes), "map");
        let back = decode(&bytes).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.encode(), bytes);
        // A count the bytes cannot hold, more shards than the cap, and a
        // blank address are rejected.
        let mut w = Writer::new();
        w.u32((MAX_SHARDS + 1) as u32);
        assert!(decode(&w.finish()).is_err());
        let mut w = Writer::new();
        w.u32((MAX_SHARDS + 1) as u32);
        for _ in 0..=MAX_SHARDS {
            w.str("a");
        }
        assert!(decode(&w.finish()).is_err());
        let mut w = Writer::new();
        w.u32(1).str(" ");
        assert!(decode(&w.finish()).is_err());
    }

    #[test]
    fn parse_peers_validates() {
        assert!(ShardMap::parse_peers("").is_err());
        assert!(ShardMap::parse_peers("a:1,,c:3").is_err());
        assert_eq!(ShardMap::parse_peers("a:1").unwrap().count(), 1);
    }

    #[test]
    fn routing_key_matches_the_spelled_out_query() {
        // "no protocol/graph named" and the fully spelled-out equivalent
        // must route identically — canonical_query_key resolves defaults
        // before hashing, and routing_key inherits that.
        let theorem = Theorem::BaNodes;
        let shorthand = RefuteParams {
            theorem: theorem.name().into(),
            protocol: None,
            graph: None,
            f: 2,
            policy: None,
        };
        let spelled = RefuteParams {
            protocol: Some(theorem.default_protocol(2)),
            graph: Some(theorem.default_graph()),
            policy: Some(RunPolicy::default()),
            ..shorthand.clone()
        };
        let a = routing_key(&shorthand).unwrap();
        let b = routing_key(&spelled).unwrap();
        assert_eq!(a.bytes(), b.bytes());
        // And it is the same key the store indexes by at default policy.
        let store_key = query::canonical_query_key(theorem, None, None, 2, &RunPolicy::default());
        assert_eq!(a.bytes(), store_key.bytes());
        // A policy above the ceiling is clamped before hashing, so it routes
        // to the shard that stores its certificate.
        let raised = routing_key(&RefuteParams {
            policy: Some(RunPolicy {
                max_ticks: u32::MAX,
                ..RunPolicy::default()
            }),
            ..shorthand.clone()
        })
        .unwrap();
        assert_eq!(raised.bytes(), store_key.bytes());
        assert!(routing_key(&RefuteParams {
            theorem: "no-such-family".into(),
            ..shorthand
        })
        .is_err());
    }
}
