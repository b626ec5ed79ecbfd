//! Persistent result cache: deterministic runs keyed by their config
//! fingerprint, stored on disk so a `regen --exp <subset>` rerun is
//! nearly free *across invocations* (the in-memory caches only ever
//! lived for one).
//!
//! Two entry kinds share one directory:
//! * `.run` — a full [`RunReport`] (the steady/failure experiments);
//! * `.mst` — one bisection result (the expensive part of every figure:
//!   an MST cell is 7–16 probe runs).
//!
//! The key is the *complete* run identity — workload + skew + every
//! engine-config field via its `Debug` rendering, exactly the in-memory
//! cache keys — hashed to the file name and stored verbatim inside the
//! file, so a hash collision reads as a miss, never as a wrong result.
//! Files carry a format version; any mismatch or decode failure is a
//! miss and the entry is recomputed and rewritten. Writes go through a
//! temp file + atomic rename, so concurrent `regen` processes sharing a
//! cache directory never observe torn entries.
//!
//! Cache entries assume the simulated *timeline semantics* behind a
//! config fingerprint are stable. A code change that alters run results
//! must bump [`CACHE_FORMAT`] (the equivalence suites pin semantics, so
//! this is rare and deliberate).

use checkmate_dataflow::{fnv1a, Dec, Enc};
use checkmate_engine::report::RunReport;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump to invalidate every existing cache entry (format *or* simulated
/// timeline-semantics change).
/// 2: `RunReport` gained the tiered-storage stats block.
/// 3: `RunReport` gained storm counters (recoveries, unavailability,
///    deferral) and `StoreStats` the retry/backoff/deferral fields.
/// 4: live protocol data plane reworked (staged shared-log appends,
///    work-stealing source dispatch) and `LiveReport` gained the
///    staged/steal health counters — live-derived cells must recompute.
/// 5: `RunReport` dropped the tiered-storage stats block.
pub const CACHE_FORMAT: u32 = 5;

/// A directory of fingerprint-keyed entries with hit/miss counters.
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DiskCache {
    /// Open (creating the directory if needed). Returns `None` when the
    /// directory cannot be created — callers degrade to uncached.
    pub fn open(dir: impl Into<PathBuf>) -> Option<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).ok()?;
        Some(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entries served from disk so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a real computation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn path_for(&self, key: &str, ext: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{ext}", fnv1a(key.as_bytes())))
    }

    /// Decode one entry: version + verbatim key + payload.
    fn load_payload(&self, key: &str, ext: &str) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.path_for(key, ext)).ok();
        let hit = bytes.as_ref().and_then(|bytes| {
            let mut dec = Dec::new(bytes);
            if dec.u32().ok()? != CACHE_FORMAT {
                return None;
            }
            if dec.str().ok()? != key {
                return None; // fingerprint collision — treat as absent
            }
            Some(dec.bytes().ok()?.to_vec())
        });
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn store_payload(&self, key: &str, ext: &str, payload: &[u8]) {
        let mut enc = Enc::with_capacity(12 + key.len() + payload.len());
        enc.u32(CACHE_FORMAT);
        enc.str(key);
        enc.bytes(payload);
        let path = self.path_for(key, ext);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        // Caching is best-effort: an unwritable directory degrades to a
        // slower run, never to a failure.
        if std::fs::write(&tmp, enc.finish()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    pub fn load_report(&self, key: &str) -> Option<RunReport> {
        RunReport::from_cache_bytes(&self.load_payload(key, "run")?)
    }

    pub fn store_report(&self, key: &str, report: &RunReport) {
        self.store_payload(key, "run", &report.to_cache_bytes());
    }

    pub fn load_f64(&self, key: &str) -> Option<f64> {
        let payload = self.load_payload(key, "mst")?;
        let mut dec = Dec::new(&payload);
        let v = f64::from_bits(dec.u64().ok()?);
        dec.finish().ok()?;
        Some(v)
    }

    pub fn store_f64(&self, key: &str, v: f64) {
        let mut enc = Enc::with_capacity(8);
        enc.u64(v.to_bits());
        self.store_payload(key, "mst", &enc.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("checkmate-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn f64_round_trip_and_counters() {
        let cache = DiskCache::open(tmp_dir("f64")).expect("temp dir");
        assert_eq!(cache.load_f64("cell-a"), None);
        cache.store_f64("cell-a", 1234.5);
        assert_eq!(cache.load_f64("cell-a"), Some(1234.5));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn key_is_verified_not_just_hashed() {
        let cache = DiskCache::open(tmp_dir("keys")).expect("temp dir");
        cache.store_f64("key-one", 1.0);
        // Forge a colliding file name for a different key: rewrite the
        // stored file under key-two's name with key-one's content.
        let one = cache.path_for("key-one", "mst");
        let two = cache.path_for("key-two", "mst");
        std::fs::copy(one, two).expect("copy entry");
        assert_eq!(cache.load_f64("key-two"), None, "mismatched key must miss");
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let cache = DiskCache::open(tmp_dir("ver")).expect("temp dir");
        cache.store_f64("k", 2.0);
        let path = cache.path_for("k", "mst");
        let mut bytes = std::fs::read(&path).expect("entry");
        bytes[0] ^= 0xFF; // corrupt the version word
        std::fs::write(&path, bytes).expect("rewrite");
        assert_eq!(cache.load_f64("k"), None);
    }
}
