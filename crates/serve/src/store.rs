//! A content-addressed on-disk certificate store: warm hits that survive
//! restarts.
//!
//! The in-memory runcache dies with the process; this store is the durable
//! layer in front of it: the server looks a refutation up here first, and
//! only a miss reaches the runcache and the simulator. Each entry is one
//! portable `FLMC` file named by the `flm_sim::runcache::fingerprint` of
//! its canonical query key ([`crate::query::canonical_query_key`]), with
//! the full key bytes in a sidecar so probes compare whole keys —
//! fingerprints index, bytes decide, the same collision discipline as
//! `flm_sim::runcache`. The `.flmc` file is the certificate bytes and
//! nothing else, so any stored entry can be fed straight to `flm-audit`.
//!
//! File names persist, so they are only as stable as the fingerprint
//! function. A directory written before it last changed (when it became
//! word-wise) is unreachable: every lookup misses and re-simulates, the
//! fresh entry lands under its new name, and [`walk_entries`] skips the
//! old sidecars because their names no longer match their keys. Nothing
//! migrates them; delete such a directory or let it be rewritten.
//!
//! # Crash atomicity
//!
//! Writes go to a temp file in the store directory and land via
//! [`fs::rename`] (atomic on POSIX). The certificate is renamed into place
//! *before* the key sidecar: the sidecar is the commit point, so a crash
//! between the two leaves an orphaned `.flmc` (invisible to lookups —
//! overwritten by the next store of that key) and never a keyed entry
//! without its certificate.
//!
//! # Verify-on-load soundness
//!
//! Disk bytes are untrusted. Every hit is decoded through
//! `flm_core::codec::decode_any` and re-encoded — the identical path
//! `flm-audit` runs on files it is handed — and served only if the bytes
//! round-trip canonically. Anything else (truncation, bit flips, stray
//! files) is a *miss*: the damaged pair is moved into `quarantine/` for
//! post-mortem and the caller falls through to a fresh simulation, which
//! then overwrites the entry. Corruption can cost time, never correctness,
//! and never a panic.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use flm_sim::runcache::RunKey;

/// Default capacity of the in-memory tier in front of the disk layer
/// (tiny: certificates are a few KiB, and a miss on both tiers still falls
/// through to the process-global runcache before it simulates).
pub const MEMORY_ENTRIES: usize = 256;

/// Counter snapshot for one store (all monotone since open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Hits served from the in-memory layer.
    pub mem_hits: u64,
    /// Hits served from disk (decoded and verified on load).
    pub disk_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Fresh certificates persisted.
    pub stores: u64,
    /// Damaged entries moved to `quarantine/` instead of being served.
    pub quarantined: u64,
    /// Entries pushed out of the bounded in-memory tier (disk copies are
    /// untouched; an evicted entry just pays one verified disk read on its
    /// next hit).
    pub evictions: u64,
}

/// Why the store could not be opened.
#[derive(Debug)]
pub enum StoreError {
    /// The directory could not be created or probed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "certificate store at {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

struct MemoryLayer {
    /// fingerprint → (key bytes, certificate bytes); bounded FIFO.
    entries: HashMap<u64, (Vec<u8>, Vec<u8>)>,
    order: std::collections::VecDeque<u64>,
}

/// A content-addressed certificate store rooted at one directory.
///
/// Thread-safe: lookups and stores may race freely across server workers —
/// the rename protocol makes concurrent stores of the same key last-writer-
/// wins with both writers leaving a valid entry.
pub struct CertStore {
    dir: PathBuf,
    mem_capacity: usize,
    memory: Mutex<MemoryLayer>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
    evictions: AtomicU64,
    temp_seq: AtomicU64,
}

impl fmt::Debug for CertStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CertStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

fn cert_path(dir: &Path, fp: u64) -> PathBuf {
    dir.join(format!("q{fp:016x}.flmc"))
}

fn key_path(dir: &Path, fp: u64) -> PathBuf {
    dir.join(format!("q{fp:016x}.key"))
}

impl CertStore {
    /// Opens (creating if needed) a store rooted at `dir`, with the
    /// default memory-tier capacity ([`MEMORY_ENTRIES`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CertStore, StoreError> {
        Self::open_with_capacity(dir, MEMORY_ENTRIES)
    }

    /// Opens a store with an explicit memory-tier capacity (`--store-mem-cap`).
    /// A capacity of zero is clamped to one: a tier that cannot hold even
    /// the entry just stored would turn every hit into a disk read.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open_with_capacity(
        dir: impl Into<PathBuf>,
        mem_capacity: usize,
    ) -> Result<CertStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(CertStore {
            dir,
            mem_capacity: mem_capacity.max(1),
            memory: Mutex::new(MemoryLayer {
                entries: HashMap::new(),
                order: std::collections::VecDeque::new(),
            }),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
        })
    }

    /// Looks `key` up: memory first, then disk (verified on load). Returns
    /// the certificate bytes, or `None` on a miss — including any form of
    /// on-disk damage, which is quarantined rather than served.
    pub fn lookup(&self, key: &RunKey) -> Option<Vec<u8>> {
        let fp = key.fingerprint();
        {
            let memory = self.memory.lock().unwrap_or_else(|p| p.into_inner());
            if let Some((stored_key, cert)) = memory.entries.get(&fp) {
                if stored_key == key.bytes() {
                    self.mem_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(cert.clone());
                }
            }
        }
        match self.lookup_disk(fp, key.bytes()) {
            Some(cert) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.remember(fp, key.bytes().to_vec(), cert.clone());
                Some(cert)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists a fresh certificate under `key`, atomically, and seeds the
    /// memory layer. Persistence failures are swallowed after counting a
    /// miss-shaped outcome is pointless — the caller already has the bytes;
    /// a store that cannot write simply stays cold.
    pub fn store(&self, key: &RunKey, cert: &[u8]) {
        let fp = key.fingerprint();
        if self.write_entry(fp, key.bytes(), cert).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
        self.remember(fp, key.bytes().to_vec(), cert.to_vec());
    }

    /// Drops the in-memory layer (counters keep running). The disk-warm
    /// bench legs use this to force every hit through the decode-and-verify
    /// disk path.
    pub fn clear_memory(&self) {
        let mut memory = self.memory.lock().unwrap_or_else(|p| p.into_inner());
        memory.entries.clear();
        memory.order.clear();
    }

    /// Reads the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn remember(&self, fp: u64, key: Vec<u8>, cert: Vec<u8>) {
        let mut memory = self.memory.lock().unwrap_or_else(|p| p.into_inner());
        if memory.entries.insert(fp, (key, cert)).is_none() {
            memory.order.push_back(fp);
            while memory.order.len() > self.mem_capacity {
                if let Some(old) = memory.order.pop_front() {
                    memory.entries.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn lookup_disk(&self, fp: u64, key: &[u8]) -> Option<Vec<u8>> {
        // The sidecar is the commit point: no key file, no entry.
        let stored_key = fs::read(key_path(&self.dir, fp)).ok()?;
        if stored_key != key {
            // A real fingerprint collision (or a foreign file): not our entry.
            return None;
        }
        let bytes = match fs::read(cert_path(&self.dir, fp)) {
            Ok(bytes) => bytes,
            Err(_) => {
                // Keyed entry without its certificate — the rename protocol
                // never produces this, so the directory was damaged.
                self.quarantine(fp);
                return None;
            }
        };
        // Verify on load through the same decode path flm-audit uses; a
        // served hit must round-trip canonically.
        if verified_cert_bytes(&bytes) {
            Some(bytes)
        } else {
            self.quarantine(fp);
            None
        }
    }

    /// Moves a damaged entry (both files) into `quarantine/`, preserving
    /// the bytes for post-mortem while guaranteeing the next lookup misses
    /// cleanly and the next store rebuilds the entry.
    fn quarantine(&self, fp: u64) {
        let qdir = self.dir.join("quarantine");
        let _ = fs::create_dir_all(&qdir);
        for path in [cert_path(&self.dir, fp), key_path(&self.dir, fp)] {
            if let Some(name) = path.file_name() {
                let _ = fs::rename(&path, qdir.join(name));
            }
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    fn write_entry(&self, fp: u64, key: &[u8], cert: &[u8]) -> io::Result<()> {
        // Certificate first, sidecar last: the sidecar commits the entry.
        self.write_atomic(&cert_path(&self.dir, fp), cert)?;
        self.write_atomic(&key_path(&self.dir, fp), key)
    }

    fn write_atomic(&self, dest: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.temp_seq.fetch_add(1, Ordering::Relaxed);
        // Unique per (process, store, write): concurrent writers of the
        // same key each land a complete file; rename picks a winner.
        let tmp = self.dir.join(format!(".tmp-{}-{seq}", std::process::id()));
        let mut file = fs::File::create(&tmp)?;
        let written = file.write_all(bytes).and_then(|()| file.sync_all());
        drop(file);
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        match fs::rename(&tmp, dest) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// The soundness gate for certificate bytes arriving from outside the
/// process — a disk load, a shipped `PutCert`, a peer fetch: they must
/// decode through the audit path (`flm_core::codec::decode_any`) and
/// re-encode to the identical bytes. One rule, every entry point.
pub fn verified_cert_bytes(bytes: &[u8]) -> bool {
    matches!(flm_core::codec::decode_any(bytes), Ok(cert) if cert.to_bytes() == bytes)
}

/// One committed entry found by [`walk_entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredEntry {
    /// The fingerprint the entry's files are named by.
    pub fingerprint: u64,
    /// The full canonical query key bytes from the sidecar.
    pub key: Vec<u8>,
    /// The certificate bytes (*not* re-verified here — shipping verifies on
    /// the receiving side, the same trust boundary as a store load).
    pub cert: Vec<u8>,
}

/// Walks a store directory and returns every *committed* entry: a `.key`
/// sidecar naming a fingerprint that matches its filename, next to a
/// readable `.flmc`. Orphans, temp files, and the `quarantine/` directory
/// are skipped. This is the `flm-client rebalance` enumeration primitive —
/// it deliberately needs no open [`CertStore`], so an operator can walk a
/// stopped shard's directory.
///
/// # Errors
///
/// Propagates the directory read failure; unreadable individual entries
/// are skipped, not fatal.
pub fn walk_entries(dir: &Path) -> io::Result<Vec<StoredEntry>> {
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // The sidecar is the commit point, so enumerate by sidecars.
        let Some(hex) = name.strip_prefix('q').and_then(|n| n.strip_suffix(".key")) else {
            continue;
        };
        let Ok(fingerprint) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        let Ok(key) = fs::read(entry.path()) else {
            continue;
        };
        if flm_sim::runcache::fingerprint(&key) != fingerprint {
            // Foreign or damaged sidecar; not an entry of this store.
            continue;
        }
        let Ok(cert) = fs::read(cert_path(dir, fingerprint)) else {
            continue;
        };
        entries.push(StoredEntry {
            fingerprint,
            key,
            cert,
        });
    }
    entries.sort_by_key(|e| e.fingerprint);
    Ok(entries)
}

/// Removes one committed entry (sidecar first, so a racing lookup sees a
/// clean miss, then the certificate). Used by `rebalance --remove` after a
/// successful ship.
pub fn remove_entry(dir: &Path, fingerprint: u64) -> io::Result<()> {
    fs::remove_file(key_path(dir, fingerprint))?;
    fs::remove_file(cert_path(dir, fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flm-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_cert() -> Vec<u8> {
        crate::query::refute_to_bytes(
            crate::query::Theorem::BaNodes,
            None,
            None,
            1,
            flm_sim::RunPolicy::default(),
        )
        .unwrap()
    }

    fn sample_key(tag: u64) -> RunKey {
        let mut w = flm_sim::wire::Writer::new();
        w.u64(tag);
        RunKey::new("store-test", w.finish())
    }

    #[test]
    fn store_then_lookup_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let cert = sample_cert();
        let key = sample_key(1);

        let store = CertStore::open(&dir).unwrap();
        assert_eq!(store.lookup(&key), None);
        store.store(&key, &cert);
        assert_eq!(store.lookup(&key).as_deref(), Some(&cert[..]));
        let stats = store.stats();
        assert_eq!((stats.misses, stats.stores, stats.mem_hits), (1, 1, 1));

        // Force the disk path, then a whole new store over the same dir
        // (the restart case).
        store.clear_memory();
        assert_eq!(store.lookup(&key).as_deref(), Some(&cert[..]));
        assert_eq!(store.stats().disk_hits, 1);
        drop(store);
        let reopened = CertStore::open(&dir).unwrap();
        assert_eq!(reopened.lookup(&key).as_deref(), Some(&cert[..]));
        assert_eq!(reopened.stats().disk_hits, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_collisions_fall_back_to_key_bytes() {
        let dir = temp_dir("collide");
        let cert = sample_cert();
        let key = sample_key(2);
        let store = CertStore::open(&dir).unwrap();
        store.store(&key, &cert);

        // A foreign key under the same fingerprint: simulate a collision by
        // rewriting the sidecar with different key bytes.
        fs::write(key_path(&dir, key.fingerprint()), b"other key").unwrap();
        store.clear_memory();
        assert_eq!(store.lookup(&key), None, "served a colliding entry");
        // Not corruption — just not our entry — so nothing is quarantined.
        assert_eq!(store.stats().quarantined, 0);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_certificates_are_quarantined_misses() {
        for (label, damage) in [
            (
                "truncated",
                Box::new(|bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2))
                    as Box<dyn Fn(&mut Vec<u8>)>,
            ),
            // Flip a structural byte (the magic): the decode path can only
            // see damage that breaks decoding or canonicality — a flip
            // inside, say, a protocol-name string decodes fine and is the
            // downstream verifier's to reject.
            (
                "bit-flipped",
                Box::new(|bytes: &mut Vec<u8>| bytes[0] ^= 0x40),
            ),
            ("emptied", Box::new(|bytes: &mut Vec<u8>| bytes.clear())),
        ] {
            let dir = temp_dir(&format!("damage-{label}"));
            let cert = sample_cert();
            let key = sample_key(3);
            let store = CertStore::open(&dir).unwrap();
            store.store(&key, &cert);

            let path = cert_path(&dir, key.fingerprint());
            let mut bytes = fs::read(&path).unwrap();
            damage(&mut bytes);
            fs::write(&path, &bytes).unwrap();

            store.clear_memory();
            assert_eq!(store.lookup(&key), None, "{label}: served damaged bytes");
            let stats = store.stats();
            assert_eq!(stats.quarantined, 1, "{label}");
            assert!(!path.exists(), "{label}: damaged file left in place");
            let quarantined: Vec<_> = fs::read_dir(dir.join("quarantine"))
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(quarantined.len(), 2, "{label}: {quarantined:?}");

            // A fresh store rebuilds the entry cleanly.
            store.store(&key, &cert);
            store.clear_memory();
            assert_eq!(store.lookup(&key).as_deref(), Some(&cert[..]), "{label}");

            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn orphaned_certificate_without_sidecar_is_a_plain_miss() {
        // The crash window: cert renamed into place, sidecar not yet — the
        // entry must be invisible, not quarantined (the next store of the
        // key completes it).
        let dir = temp_dir("orphan");
        let cert = sample_cert();
        let key = sample_key(4);
        let store = CertStore::open(&dir).unwrap();
        store.store(&key, &cert);
        fs::remove_file(key_path(&dir, key.fingerprint())).unwrap();
        store.clear_memory();
        assert_eq!(store.lookup(&key), None);
        assert_eq!(store.stats().quarantined, 0);
        store.store(&key, &cert);
        store.clear_memory();
        assert_eq!(store.lookup(&key).as_deref(), Some(&cert[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_tier_capacity_bounds_entries_and_counts_evictions() {
        let dir = temp_dir("cap");
        let cert = sample_cert();
        let store = CertStore::open_with_capacity(&dir, 2).unwrap();
        for tag in 0..5 {
            store.store(&sample_key(100 + tag), &cert);
        }
        // Capacity 2, five inserts: three FIFO evictions.
        assert_eq!(store.stats().evictions, 3);
        // The two newest entries answer from memory, the evicted ones from
        // disk (still correct, just slower).
        assert_eq!(store.lookup(&sample_key(104)).as_deref(), Some(&cert[..]));
        assert_eq!(store.stats().mem_hits, 1);
        assert_eq!(store.lookup(&sample_key(100)).as_deref(), Some(&cert[..]));
        assert_eq!(store.stats().disk_hits, 1);
        // Zero is clamped: the tier always holds at least the last entry.
        let clamped = CertStore::open_with_capacity(&dir, 0).unwrap();
        clamped.store(&sample_key(200), &cert);
        assert_eq!(clamped.lookup(&sample_key(200)).as_deref(), Some(&cert[..]));
        assert_eq!(clamped.stats().mem_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn walk_entries_lists_committed_entries_only() {
        let dir = temp_dir("walk");
        let cert = sample_cert();
        let store = CertStore::open(&dir).unwrap();
        let keys: Vec<RunKey> = (0..3).map(|t| sample_key(200 + t)).collect();
        for key in &keys {
            store.store(key, &cert);
        }
        // An orphaned certificate (no sidecar), a stray temp file, and a
        // quarantine dir must all be invisible to the walk.
        let orphan = sample_key(299);
        store.store(&orphan, &cert);
        fs::remove_file(key_path(&dir, orphan.fingerprint())).unwrap();
        fs::write(dir.join(".tmp-999-0"), b"partial").unwrap();
        fs::create_dir_all(dir.join("quarantine")).unwrap();
        fs::write(dir.join("quarantine").join("q00.key"), b"junk").unwrap();

        let walked = walk_entries(&dir).unwrap();
        assert_eq!(walked.len(), 3);
        for key in &keys {
            let found = walked
                .iter()
                .find(|e| e.fingerprint == key.fingerprint())
                .unwrap();
            assert_eq!(found.key, key.bytes());
            assert_eq!(found.cert, cert);
        }
        // remove_entry deletes exactly one committed pair.
        remove_entry(&dir, keys[0].fingerprint()).unwrap();
        assert_eq!(walk_entries(&dir).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_entry_is_a_portable_flmc_artifact() {
        // The .flmc file must be exactly the certificate bytes — auditable
        // directly, no container format.
        let dir = temp_dir("portable");
        let cert = sample_cert();
        let key = sample_key(5);
        let store = CertStore::open(&dir).unwrap();
        store.store(&key, &cert);
        let on_disk = fs::read(cert_path(&dir, key.fingerprint())).unwrap();
        assert_eq!(on_disk, cert);
        let decoded = flm_core::codec::decode_any(&on_disk).unwrap();
        assert_eq!(decoded.to_bytes(), on_disk);
        let _ = fs::remove_dir_all(&dir);
    }
}
