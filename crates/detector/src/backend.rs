//! Storage backends behind [`crate::PersistentCache`].
//!
//! The cache's *semantics* — entry encoding, checksums, schema/config
//! staleness, corrupt-entry healing — live in [`crate::cache`] and are
//! backend-independent. A [`CacheBackend`] only moves opaque bytes:
//! load/store an entry by its 128-bit source fingerprint, plus
//! load/store the delta manifest text. One layout ships:
//! [`DirBackend`], one `<key in hex>.pnc` file per entry plus
//! `manifest.pnm`, written via unique temp names (pid + a process-wide
//! monotonic nonce) and `rename`, so any number of processes can share
//! one directory without ever clobbering each other's in-flight temp
//! files or serving a half-written entry. The trait stays so tests and
//! benchmarks can wrap the store (fault injection, byte counting,
//! tracing) between the cache layer and the disk.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide monotonic counter for temp-file names. A pid alone is
/// not unique enough: two cache handles in one process (or a recycled
/// pid on a shared cache dir) can race the same key, and a fixed name
/// would let one writer rename the other's half-written temp into
/// place.
static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A temp-name component unique within this process for its lifetime.
pub(crate) fn temp_nonce() -> u64 {
    TEMP_NONCE.fetch_add(1, Ordering::Relaxed)
}

/// Byte storage for one cache directory. Implementations are shared
/// across scan worker threads, so every method takes `&self` and must
/// be internally synchronized.
pub trait CacheBackend: Send + Sync + fmt::Debug {
    /// A short name for diagnostics: "dir" for [`DirBackend`]; a
    /// wrapper reports the backend it wraps.
    fn name(&self) -> &'static str;
    /// Raw bytes of the entry stored under `key`, if any. Backends do
    /// not validate entry contents — the caller's decode layer
    /// classifies stale and corrupt bytes.
    fn load(&self, key: u128) -> Option<Vec<u8>>;
    /// Durably stores `bytes` under `key`, replacing any prior entry.
    /// Concurrent readers must see the old entry or the new one in
    /// full, never a mix.
    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()>;
    /// The delta manifest text, if one has been stored.
    fn load_manifest(&self) -> Option<String>;
    /// Durably stores the delta manifest text.
    fn store_manifest(&self, text: &str) -> io::Result<()>;
}

/// The manifest file name inside a cache directory.
pub(crate) const MANIFEST_FILE: &str = "manifest.pnm";

/// One file per entry: `<dir>/<key in hex>.pnc` plus
/// `<dir>/manifest.pnm`, each written atomically via a uniquely named
/// temp file and `rename`.
#[derive(Debug)]
pub struct DirBackend {
    dir: PathBuf,
}

impl DirBackend {
    /// Opens (creating if needed) the directory and probes it for
    /// writability, so an unusable cache fails fast instead of
    /// degrading every later store.
    pub fn open(dir: &Path) -> io::Result<DirBackend> {
        fs::create_dir_all(dir)?;
        let probe = dir.join(format!(".probe-{}-{}.tmp", std::process::id(), temp_nonce()));
        fs::File::create(&probe).and_then(|mut f| f.write_all(b"pnx"))?;
        fs::remove_file(&probe)?;
        Ok(DirBackend { dir: dir.to_path_buf() })
    }

    fn entry_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.pnc"))
    }

    fn write_atomic(&self, stem: &str, target: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(".{stem}.{}-{}.tmp", std::process::id(), temp_nonce()));
        let wrote = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes))
            .and_then(|()| fs::rename(&tmp, target));
        if wrote.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        wrote
    }
}

impl CacheBackend for DirBackend {
    fn name(&self) -> &'static str {
        "dir"
    }

    fn load(&self, key: u128) -> Option<Vec<u8>> {
        fs::read(self.entry_path(key)).ok()
    }

    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        self.write_atomic(&format!("{key:032x}"), &self.entry_path(key), bytes)
    }

    fn load_manifest(&self) -> Option<String> {
        fs::read_to_string(self.dir.join(MANIFEST_FILE)).ok()
    }

    fn store_manifest(&self, text: &str) -> io::Result<()> {
        self.write_atomic("manifest", &self.dir.join(MANIFEST_FILE), text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnx-backend-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_backend_round_trips_and_names_temps_uniquely() {
        let dir = tmp_dir("dir-roundtrip");
        let be = DirBackend::open(&dir).unwrap();
        assert_eq!(be.load(42), None);
        be.store(42, b"entry bytes").unwrap();
        assert_eq!(be.load(42).as_deref(), Some(b"entry bytes".as_slice()));
        be.store_manifest("pnx-delta-manifest/1\n").unwrap();
        assert_eq!(be.load_manifest().as_deref(), Some("pnx-delta-manifest/1\n"));
        // No temp litter after successful writes.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temps must be renamed away: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_nonce_is_monotonic() {
        let a = temp_nonce();
        let b = temp_nonce();
        assert!(b > a);
    }
}
