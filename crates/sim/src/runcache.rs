//! Whole-run memoization for deterministic systems.
//!
//! The model's determinism axiom — a system has exactly one behavior — is
//! what makes the refuters sound, and it is also a perf lever: a run's
//! behavior is a pure function of the graph, the devices installed (named
//! through the protocol registry), the wiring, the inputs, the run policy,
//! and the horizon. This module caches behaviors keyed by a canonical byte
//! encoding of exactly those ingredients, so re-executions that are
//! byte-identical to a run already performed (chain links sharing one
//! covering run, `flm-audit --timeline` replaying the link it just
//! verified, the clock refuter's verify pass re-running its own ring) cost
//! a lookup instead of a simulation.
//!
//! # Soundness
//!
//! A cache hit returns the behavior of *some* earlier run whose full
//! canonical key — every input of the run function — was byte-identical
//! (fingerprints are only an index; the stored key bytes are compared on
//! every probe, so fingerprint collisions cannot alias two different
//! runs). Under the determinism axiom that earlier behavior *is* this
//! run's behavior.
//! The one representation choice is that devices enter the key by their
//! protocol's registry name rather than by code identity; that is the
//! registry's standing contract (one name, one device family), the same
//! contract `flm-audit` already relies on to rebuild devices from a
//! certificate's protocol string.
//!
//! Every run-level check downstream of a memoized run (scenario matching,
//! degradation accounting, decision comparison) still executes on every
//! call — the cache replaces the simulation, never the checking.
//!
//! # Controls
//!
//! * [`bypass`] disables the cache for the current thread while a closure
//!   runs — the differential tests and the cold legs of the bench suites
//!   use it.
//! * The store is bounded ([`MAX_ENTRIES`] entries and [`MAX_VALUE_BYTES`])
//!   with least-recently-used eviction, so long sweeps cannot grow memory without bound while
//!   hot behaviors (a covering run shared by every link of a chain) stay
//!   resident.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::async_sched::AsyncRun;
use crate::auth::mix64;
use crate::behavior::SystemBehavior;
use crate::clock::ClockBehavior;

/// Maximum number of cached behaviors before LRU eviction.
pub const MAX_ENTRIES: usize = 512;

/// Maximum total approximate value bytes held before LRU eviction.
pub const MAX_VALUE_BYTES: u64 = 64 << 20;

/// A canonical cache key: the full encoded run ingredients plus their
/// [`fingerprint`] (an index, not a proof of equality — probes compare
/// the full bytes).
#[derive(Debug, Clone)]
pub struct RunKey {
    bytes: Vec<u8>,
    fp: u64,
}

impl RunKey {
    /// Builds a key from a domain tag (which run function this is, e.g.
    /// `"cover"` or `"link"`) and the canonical encoding of every input of
    /// that run function.
    pub fn new(domain: &str, payload: Vec<u8>) -> RunKey {
        let mut bytes = Vec::with_capacity(domain.len() + 1 + payload.len());
        bytes.extend_from_slice(domain.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&payload);
        let fp = fingerprint(&bytes);
        RunKey { bytes, fp }
    }

    /// Reconstitutes a key from its full canonical bytes (the exact slice
    /// [`RunKey::bytes`] returned, e.g. read back from a durable sidecar or
    /// received over the wire). The fingerprint is recomputed, so a key
    /// round-trips byte-for-byte: `RunKey::from_bytes(k.bytes().to_vec())`
    /// is `k`.
    pub fn from_bytes(bytes: Vec<u8>) -> RunKey {
        let fp = fingerprint(&bytes);
        RunKey { bytes, fp }
    }

    /// The [`fingerprint`] of the key bytes.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The full canonical key bytes (domain tag, NUL, payload). Durable
    /// caches persist these next to each entry so a probe can compare the
    /// whole key, exactly as the in-memory buckets do — fingerprints index,
    /// bytes decide.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A 64-bit word-wise hash: each 8-byte little-endian word (the tail
/// zero-padded) is xored in and multiply–rotated, the length seeds the
/// state, and [`mix64`] finishes it. Unseeded, so every process agrees on
/// it: the store names its files by it and the router and the shard map
/// place keys by it. An index, not a proof of equality: full keys are
/// compared on every probe.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for word in &mut words {
        h = absorb(h, word);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = absorb(h, &word);
    }
    mix64(h)
}

/// One [`fingerprint`] step: xor in an 8-byte little-endian word, then
/// multiply by the golden-ratio constant and rotate.
fn absorb(h: u64, word: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
    (h ^ word).wrapping_mul(K).rotate_left(29)
}

#[derive(Clone)]
enum CachedValue {
    Discrete(Arc<SystemBehavior>),
    Clock(Arc<ClockBehavior>),
    Async(Arc<AsyncRun>),
}

struct Entry {
    seq: u64,
    key: Vec<u8>,
    value: CachedValue,
    approx_bytes: u64,
}

#[derive(Default)]
struct Store {
    buckets: HashMap<u64, Vec<Entry>>,
    /// Recency queue of `(fingerprint, seq)` pairs. A hit re-stamps the
    /// entry's `seq` and pushes a fresh pair, so pairs whose `seq` no longer
    /// matches any entry are stale and skipped during eviction — that skip
    /// is exactly what turns the FIFO queue into an LRU.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    entry_count: usize,
    total_bytes: u64,
}

impl Store {
    fn lookup_touch(&mut self, key: &RunKey) -> Option<(CachedValue, u64)> {
        let bucket = self.buckets.get_mut(&key.fp)?;
        let entry = bucket.iter_mut().find(|e| e.key == key.bytes)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.seq = seq;
        let found = (entry.value.clone(), entry.approx_bytes);
        self.order.push_back((key.fp, seq));
        // Hits grow `order` with stale pairs; compact occasionally so it
        // stays proportional to the live entry count.
        if self.order.len() > self.entry_count * 2 + 64 {
            let live: std::collections::HashSet<(u64, u64)> = self
                .buckets
                .iter()
                .flat_map(|(&fp, b)| b.iter().map(move |e| (fp, e.seq)))
                .collect();
            self.order.retain(|pair| live.contains(pair));
        }
        Some(found)
    }

    fn insert(&mut self, key: &RunKey, value: CachedValue, approx_bytes: u64) {
        let bucket = self.buckets.entry(key.fp).or_default();
        if bucket.iter().any(|e| e.key == key.bytes) {
            return; // another thread raced us to the same run
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        bucket.push(Entry {
            seq,
            key: key.bytes.clone(),
            value,
            approx_bytes,
        });
        self.order.push_back((key.fp, seq));
        self.entry_count += 1;
        self.total_bytes += approx_bytes;
        while self.entry_count > MAX_ENTRIES || self.total_bytes > MAX_VALUE_BYTES {
            let Some((fp, old_seq)) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.buckets.get_mut(&fp) {
                if let Some(i) = bucket.iter().position(|e| e.seq == old_seq) {
                    let evicted = bucket.swap_remove(i);
                    self.total_bytes -= evicted.approx_bytes;
                    self.entry_count -= 1;
                    cache().evictions.fetch_add(1, Ordering::Relaxed);
                }
                if bucket.is_empty() {
                    self.buckets.remove(&fp);
                }
            }
        }
    }
}

/// The cache's shared state: the store and its counters.
#[derive(Default)]
struct Cache {
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_saved: AtomicU64,
}

/// The process-wide cache. This crate's unit tests run on parallel threads
/// and each clears, fills and counts the cache, so in test builds every
/// thread gets a cache of its own and the tests cannot race each other.
fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    thread_local! {
        static TEST_CACHE: &'static Cache = Box::leak(Box::default());
    }
    if cfg!(test) {
        return TEST_CACHE.with(|c| *c);
    }
    CACHE.get_or_init(Cache::default)
}

fn store() -> std::sync::MutexGuard<'static, Store> {
    cache().store.lock().expect("run cache poisoned")
}

thread_local! {
    static BYPASS: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the cache bypassed on *this thread* (nested scopes
/// included): lookups miss, results are not stored, and no counters move.
/// The reference mode for differential tests and cold-path benches.
pub fn bypass<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            BYPASS.with(|c| c.set(self.0));
        }
    }
    let previous = BYPASS.with(|c| c.replace(true));
    let _restore = Restore(previous);
    f()
}

/// True when the current thread is inside a [`bypass`] scope.
fn is_bypassed() -> bool {
    BYPASS.with(Cell::get)
}

/// The one memoization path behind [`memoize_discrete`], [`memoize_clock`]
/// and [`memoize_async`]: `wrap` and `unwrap` move a result in and out of
/// its [`CachedValue`] variant, and `approx_bytes` sizes it for the byte
/// bound. An entry of another variant under the same key misses.
fn memoize<T, E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<T, E>,
    wrap: fn(Arc<T>) -> CachedValue,
    unwrap: fn(CachedValue) -> Option<Arc<T>>,
    approx_bytes: fn(&T) -> u64,
) -> Result<Arc<T>, E> {
    if is_bypassed() {
        return run().map(Arc::new);
    }
    {
        let mut store = store();
        if let Some((hit, approx)) = store.lookup_touch(key) {
            if let Some(hit) = unwrap(hit) {
                cache().hits.fetch_add(1, Ordering::Relaxed);
                cache().bytes_saved.fetch_add(approx, Ordering::Relaxed);
                return Ok(hit);
            }
        }
    }
    cache().misses.fetch_add(1, Ordering::Relaxed);
    let value = Arc::new(run()?);
    let approx = approx_bytes(&value);
    store().insert(key, wrap(Arc::clone(&value)), approx);
    Ok(value)
}

/// Returns the cached behavior for `key`, or executes `run`, stores its
/// success, and returns it. The error path is never cached.
///
/// # Errors
///
/// Whatever `run` returns; a cache hit never errors.
pub fn memoize_discrete<E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<SystemBehavior, E>,
) -> Result<Arc<SystemBehavior>, E> {
    let unwrap = |value| match value {
        CachedValue::Discrete(b) => Some(b),
        _ => None,
    };
    memoize(
        key,
        run,
        CachedValue::Discrete,
        unwrap,
        SystemBehavior::approx_bytes,
    )
}

/// [`memoize_discrete`] for clock-system runs.
///
/// # Errors
///
/// Whatever `run` returns; a cache hit never errors.
pub fn memoize_clock<E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<ClockBehavior, E>,
) -> Result<Arc<ClockBehavior>, E> {
    let unwrap = |value| match value {
        CachedValue::Clock(b) => Some(b),
        _ => None,
    };
    memoize(
        key,
        run,
        CachedValue::Clock,
        unwrap,
        ClockBehavior::approx_bytes,
    )
}

/// [`memoize_discrete`] for asynchronous runs. Callers key these under the
/// dedicated `"async"` domain (see [`RunKey::new`]), so an asynchronous
/// run can never alias a synchronous one even for an identical assembly:
/// the domain tag is part of the compared key bytes, and the cached value
/// type differs besides.
///
/// # Errors
///
/// Whatever `run` returns; a cache hit never errors.
pub fn memoize_async<E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<AsyncRun, E>,
) -> Result<Arc<AsyncRun>, E> {
    let unwrap = |value| match value {
        CachedValue::Async(r) => Some(r),
        _ => None,
    };
    memoize(key, run, CachedValue::Async, unwrap, AsyncRun::approx_bytes)
}

/// Drops every cached behavior (counters are kept; see [`reset_stats`]).
pub fn clear() {
    *store() = Store::default();
}

/// Zeroes the hit/miss/eviction/bytes-saved counters.
pub fn reset_stats() {
    let c = cache();
    for counter in [&c.hits, &c.misses, &c.evictions, &c.bytes_saved] {
        counter.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored behavior.
    pub hits: u64,
    /// Lookups that fell through to a real run.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Approximate behavior bytes served from the cache instead of being
    /// rebuilt by a run.
    pub bytes_saved: u64,
    /// Behaviors currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the current counters and entry count.
pub fn stats() -> CacheStats {
    let entries = store().entry_count;
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        evictions: c.evictions.load(Ordering::Relaxed),
        bytes_saved: c.bytes_saved.load(Ordering::Relaxed),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Input;
    use crate::{RunPolicy, System};
    use flm_graph::builders;

    fn run_triangle(seed: u64) -> Result<SystemBehavior, crate::system::SystemError> {
        let g = builders::triangle();
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(
                v,
                Box::new(crate::devices::TableDevice::new(seed ^ u64::from(v.0), 6)),
                Input::Bool(v.0 == 0),
            );
        }
        sys.run_contained(5, &RunPolicy::default())
    }

    fn key(tag: u64) -> RunKey {
        let mut w = crate::wire::Writer::new();
        w.u64(tag);
        RunKey::new("test", w.finish())
    }

    #[test]
    fn run_key_round_trips_through_its_bytes() {
        let original = key(42);
        let back = RunKey::from_bytes(original.bytes().to_vec());
        assert_eq!(back.bytes(), original.bytes());
        assert_eq!(back.fingerprint(), original.fingerprint());
    }

    #[test]
    fn fingerprint_known_vectors() {
        // The empty input is `mix64(0)`, splitmix64's first output.
        assert_eq!(fingerprint(b""), 0xe220_a839_7b1d_cdaf);
        assert_eq!(fingerprint(b"a"), 0xde7f_79a3_84ca_1303);
        assert_eq!(fingerprint(b"abcdefgh"), 0xc5fc_4da1_d181_518b);
        assert_eq!(fingerprint(b"abcdefghi"), 0x2128_d81c_e1ee_3708);
        // Every length 0..=16 of one prefix hashes apart: whole words,
        // zero-padded tails and the length fold all reach the state.
        let prefix = b"0123456789abcdef";
        let mut seen: Vec<u64> = (0..=16).map(|n| fingerprint(&prefix[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 17);
        // A zero tail byte is not padding: the length tells them apart.
        assert_ne!(fingerprint(b"a"), fingerprint(b"a\0"));
    }

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        clear();
        let k = key(0xA11CE);
        let first = memoize_discrete(&k, || run_triangle(1)).unwrap();
        let again = memoize_discrete::<&str>(&k, || panic!("must not re-run")).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let s = stats();
        assert!(s.hits >= 1 && s.bytes_saved > 0);
    }

    #[test]
    fn different_keys_do_not_alias() {
        clear();
        let a = memoize_discrete(&key(1), || run_triangle(1)).unwrap();
        let b = memoize_discrete(&key(2), || run_triangle(2)).unwrap();
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn colliding_fingerprints_fall_back_to_full_key_compare() {
        clear();
        // Two keys forced into the same bucket: identical fingerprint field
        // can only arise from distinct bytes via a real hash collision, which
        // we simulate by inserting both and checking the probe compares
        // bytes, not fingerprints (same domain, different payload ⇒ distinct
        // bytes; equal-fp is the worst case the byte compare must survive).
        let k1 = key(7);
        let k2 = key(8);
        let a = memoize_discrete(&k1, || run_triangle(7)).unwrap();
        let b = memoize_discrete(&k2, || run_triangle(8)).unwrap();
        assert_ne!(a.edges(), b.edges());
        let a2 = memoize_discrete::<&str>(&k1, || panic!("hit expected")).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        drop(b);
    }

    #[test]
    fn bypass_scope_never_touches_the_store() {
        clear();
        reset_stats();
        let k = key(0xB1);
        let _ = bypass(|| memoize_discrete(&k, || run_triangle(3))).unwrap();
        assert!(!is_bypassed());
        assert_eq!(stats().entries, 0);
        // A later cached call must re-run (no entry was stored).
        let _ = memoize_discrete(&k, || run_triangle(3)).unwrap();
        assert_eq!(stats().entries, 1);
    }

    #[test]
    fn error_paths_are_not_cached() {
        clear();
        let k = key(0xE0);
        let r: Result<_, &str> = memoize_discrete(&k, || Err("boom"));
        assert!(r.is_err());
        assert_eq!(stats().entries, 0);
    }

    #[test]
    fn lru_eviction_bounds_the_store() {
        clear();
        for i in 0..(MAX_ENTRIES as u64 + 40) {
            let _ = memoize_discrete(&key(0x1_0000 + i), || run_triangle(1)).unwrap();
        }
        let s = stats();
        assert!(s.entries <= MAX_ENTRIES);
        assert!(s.evictions >= 40);
        clear();
    }

    #[test]
    fn recently_hit_entries_survive_eviction_pressure() {
        // Direct `Store` test (no global state): fill to the cap, touch the
        // oldest entry, then push past the cap — the refreshed recency must
        // protect it while strictly older untouched entries go first.
        let mut store = Store::default();
        let value = CachedValue::Discrete(Arc::new(run_triangle(1).unwrap()));
        let hot = key(0x2_0000);
        store.insert(&hot, value.clone(), 1);
        for i in 1..MAX_ENTRIES as u64 {
            store.insert(&key(0x2_0000 + i), value.clone(), 1);
        }
        assert!(store.lookup_touch(&hot).is_some());
        for i in 0..32 {
            store.insert(&key(0x3_0000 + i), value.clone(), 1);
        }
        assert!(store.lookup_touch(&hot).is_some(), "hot entry was evicted");
        assert!(store.entry_count <= MAX_ENTRIES);
    }

    #[test]
    fn cached_behavior_is_byte_identical_to_a_fresh_run() {
        clear();
        let k = key(0xD1FF);
        let cached = memoize_discrete(&k, || run_triangle(9)).unwrap();
        let fresh = run_triangle(9).unwrap();
        assert_eq!(cached.edges(), fresh.edges());
        for v in fresh.graph().nodes() {
            assert_eq!(cached.node(v), fresh.node(v));
        }
    }
}
