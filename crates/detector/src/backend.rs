//! Storage backends behind [`crate::PersistentCache`].
//!
//! The cache's *semantics* — entry encoding, checksums, schema/config
//! staleness, corrupt-entry healing — live in [`crate::cache`] and are
//! backend-independent. A [`CacheBackend`] only moves opaque bytes:
//! load/store an entry by its 128-bit source fingerprint, plus
//! load/store the delta manifest text. Two layouts ship:
//!
//! * [`DirBackend`] — one `<key in hex>.pnc` file per entry plus
//!   `manifest.pnm`, written via unique temp names (pid + a
//!   process-wide monotonic nonce) and `rename`, so any number of
//!   processes can share one directory without ever clobbering each
//!   other's in-flight temp files or serving a half-written entry.
//! * [`IndexedBackend`] — a single append-only file (`cache.pnxi`)
//!   with an in-memory index built by scanning it on open. Every
//!   record carries its own checksum, so a torn tail from a crash is
//!   detected and truncated on the next open; when dead (superseded)
//!   bytes outweigh live ones the file is compacted through a temp +
//!   `rename`, so a kill mid-compaction leaves the original file
//!   authoritative. One writer per file: replicas in a fleet each own
//!   their shard's store (use `dir` when processes must share).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::fnv64;

/// Process-wide monotonic counter for temp-file names. A pid alone is
/// not unique enough: two engines in one daemon (or a recycled pid on
/// a shared cache dir) can race the same key, and a fixed name would
/// let one writer rename the other's half-written temp into place.
static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A temp-name component unique within this process for its lifetime.
pub(crate) fn temp_nonce() -> u64 {
    TEMP_NONCE.fetch_add(1, Ordering::Relaxed)
}

/// Which on-disk layout a cache directory uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One `.pnc` file per entry (multi-process safe; the default).
    Dir,
    /// One append-only indexed file, `cache.pnxi` (single writer,
    /// fewer inodes, one sequential read to warm).
    Indexed,
}

impl BackendKind {
    /// Parses a `--cache-backend` value.
    pub fn parse(text: &str) -> Result<BackendKind, String> {
        match text {
            "dir" => Ok(BackendKind::Dir),
            "indexed" => Ok(BackendKind::Indexed),
            other => Err(format!("unknown cache backend {other:?} (expected dir or indexed)")),
        }
    }

    /// The flag spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dir => "dir",
            BackendKind::Indexed => "indexed",
        }
    }
}

/// Byte storage for one cache directory. Implementations are shared
/// across scan worker threads, so every method takes `&self` and must
/// be internally synchronized.
pub trait CacheBackend: Send + Sync + fmt::Debug {
    /// The flag spelling of this backend ("dir", "indexed").
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

/// A handle on one open store, so several caches can share it: a
/// daemon opens its backend once for all its engines, because two
/// separately opened handles on one `indexed` file would each append
/// from their own idea of its end.
impl CacheBackend for Arc<dyn CacheBackend> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn load(&self, key: u128) -> Option<Vec<u8>> {
        (**self).load(key)
    }

    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        (**self).store(key, bytes)
    }

    fn load_manifest(&self) -> Option<String> {
        (**self).load_manifest()
    }

    fn store_manifest(&self, text: &str) -> io::Result<()> {
        (**self).store_manifest(text)
    }
}

// ---------------------------------------------------------------------
// Directory-of-files backend
// ---------------------------------------------------------------------

/// The manifest file name inside a `dir`-backend cache directory.
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

// ---------------------------------------------------------------------
// Single-file indexed backend
// ---------------------------------------------------------------------

/// The store file name inside an `indexed`-backend cache directory.
pub(crate) const INDEX_FILE: &str = "cache.pnxi";
const INDEX_MAGIC: &[u8; 8] = b"PNXINDEX";
const INDEX_VERSION: u32 = 1;
/// File header: magic + container format version.
const HEADER_LEN: u64 = 12;
const RECORD_MAGIC: &[u8; 4] = b"PNXR";
const REC_ENTRY: u8 = 1;
const REC_MANIFEST: u8 = 2;
/// Record framing around the payload: magic(4) + kind(1) + key(16) +
/// len(4) before it, fnv64 checksum(8) after it.
const RECORD_OVERHEAD: u64 = 4 + 1 + 16 + 4 + 8;
/// Don't bother compacting until at least this many dead bytes exist.
const COMPACT_MIN_DEAD: u64 = 4096;

/// Location of one live record's payload inside the store file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    payload_at: u64,
    payload_len: u32,
}

impl Slot {
    fn record_bytes(self) -> u64 {
        RECORD_OVERHEAD + u64::from(self.payload_len)
    }
}

#[derive(Debug)]
struct IndexedInner {
    file: fs::File,
    /// Latest live entry record per fingerprint.
    index: HashMap<u128, Slot>,
    /// Latest live manifest record.
    manifest: Option<Slot>,
    /// Append position (== validated file length).
    end: u64,
    live_bytes: u64,
    dead_bytes: u64,
}

/// A single append-only store file with an in-memory fingerprint
/// index. Superseded records become dead bytes and are dropped by
/// compaction on a later open.
#[derive(Debug)]
pub struct IndexedBackend {
    path: PathBuf,
    inner: Mutex<IndexedInner>,
}

/// What a full scan of the store file found.
struct Scan {
    index: HashMap<u128, Slot>,
    manifest: Option<Slot>,
    /// Length of the validated prefix; anything after it is a torn
    /// tail from an interrupted append.
    valid_len: u64,
    live_bytes: u64,
    dead_bytes: u64,
}

/// Scans `bytes` as a store file. `Err` means the file is not ours
/// (foreign magic or an unknown container version) — the caller fails
/// fast rather than destroying data. Torn or checksum-failing records
/// end the scan: everything before them is kept, the tail is dropped.
fn scan_records(bytes: &[u8]) -> io::Result<Scan> {
    let mut scan =
        Scan { index: HashMap::new(), manifest: None, valid_len: 0, live_bytes: 0, dead_bytes: 0 };
    if bytes.is_empty() {
        return Ok(scan);
    }
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != INDEX_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a pnx indexed cache file (foreign or truncated header)",
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != INDEX_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported indexed cache version {version}"),
        ));
    }
    let mut pos = HEADER_LEN;
    scan.valid_len = pos;
    let total = bytes.len() as u64;
    while pos < total {
        // Record header: magic + kind + key + payload len.
        let head_end = pos + 4 + 1 + 16 + 4;
        if head_end > total {
            break; // torn mid-header
        }
        let head = &bytes[pos as usize..head_end as usize];
        if &head[..4] != RECORD_MAGIC {
            break; // scribbled-over tail
        }
        let kind = head[4];
        let key = u128::from_le_bytes(head[5..21].try_into().expect("16 bytes"));
        let payload_len = u32::from_le_bytes(head[21..25].try_into().expect("4 bytes"));
        let payload_at = head_end;
        let check_end =
            match payload_at.checked_add(u64::from(payload_len)).and_then(|e| e.checked_add(8)) {
                Some(e) if e <= total => e,
                _ => break, // torn mid-payload
            };
        let payload = &bytes[payload_at as usize..(payload_at + u64::from(payload_len)) as usize];
        let stored = u64::from_le_bytes(
            bytes[(check_end - 8) as usize..check_end as usize].try_into().expect("8 bytes"),
        );
        if fnv64(payload) != stored {
            break; // torn or bit-rotted: drop from here on
        }
        let slot = Slot { payload_at, payload_len };
        match kind {
            REC_ENTRY => {
                if let Some(old) = scan.index.insert(key, slot) {
                    scan.dead_bytes += old.record_bytes();
                    scan.live_bytes -= old.record_bytes();
                }
                scan.live_bytes += slot.record_bytes();
            }
            REC_MANIFEST => {
                if let Some(old) = scan.manifest.replace(slot) {
                    scan.dead_bytes += old.record_bytes();
                    scan.live_bytes -= old.record_bytes();
                }
                scan.live_bytes += slot.record_bytes();
            }
            _ => {
                // A record kind from the future: keep it as dead bytes
                // so this binary never misreads it, but don't truncate
                // — the checksum proved it intact.
                scan.dead_bytes += slot.record_bytes();
            }
        }
        pos = check_end;
        scan.valid_len = pos;
    }
    Ok(scan)
}

/// Frames one record: header + payload + checksum.
fn encode_record(kind: u8, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + RECORD_OVERHEAD as usize);
    out.extend_from_slice(RECORD_MAGIC);
    out.push(kind);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

impl IndexedBackend {
    /// Opens (creating if needed) `<dir>/cache.pnxi`, scans it to
    /// build the index, truncates any torn tail, discards any stale
    /// compaction temp from a killed process, and compacts when dead
    /// bytes outweigh live ones.
    pub fn open(dir: &Path) -> io::Result<IndexedBackend> {
        fs::create_dir_all(dir)?;
        let path = dir.join(INDEX_FILE);
        // A temp left by a compaction that died before its rename: the
        // main file is still authoritative (rename is atomic), so the
        // temp is garbage regardless of its contents.
        let _ = fs::remove_file(compact_tmp_path(&path));

        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut scan = scan_records(&bytes)?;

        if !bytes.is_empty()
            && scan.dead_bytes > scan.live_bytes
            && scan.dead_bytes >= COMPACT_MIN_DEAD
        {
            // Compaction is an optimization, never a requirement: if the
            // rewritten image cannot be written or swapped in (disk
            // full, permissions), keep serving the uncompacted file —
            // the old bytes are still fully authoritative — and retry
            // on some future open.
            let compacted = compact_bytes(&bytes, &scan);
            let tmp = compact_tmp_path(&path);
            let swapped = fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(&compacted))
                .and_then(|()| fs::rename(&tmp, &path));
            match swapped {
                Ok(()) => {
                    bytes = compacted;
                    scan = scan_records(&bytes)?;
                }
                Err(_) => {
                    let _ = fs::remove_file(&tmp);
                }
            }
        }

        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let end = if bytes.is_empty() {
            file.write_all(INDEX_MAGIC)?;
            file.write_all(&INDEX_VERSION.to_le_bytes())?;
            HEADER_LEN
        } else {
            if scan.valid_len < bytes.len() as u64 {
                file.set_len(scan.valid_len)?; // drop the torn tail
            }
            scan.valid_len
        };
        Ok(IndexedBackend {
            path,
            inner: Mutex::new(IndexedInner {
                file,
                index: scan.index,
                manifest: scan.manifest,
                end,
                live_bytes: scan.live_bytes,
                dead_bytes: scan.dead_bytes,
            }),
        })
    }

    /// The store file path (for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, IndexedInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn read_slot(inner: &mut IndexedInner, slot: Slot) -> Option<Vec<u8>> {
        let mut buf = vec![0u8; slot.payload_len as usize];
        inner.file.seek(SeekFrom::Start(slot.payload_at)).ok()?;
        inner.file.read_exact(&mut buf).ok()?;
        Some(buf)
    }

    fn append(&self, kind: u8, key: u128, payload: &[u8]) -> io::Result<()> {
        let record = encode_record(kind, key, payload);
        let mut inner = self.lock();
        let at = inner.end;
        let wrote =
            inner.file.seek(SeekFrom::Start(at)).and_then(|_| inner.file.write_all(&record));
        if let Err(e) = wrote {
            // Drop any partial append so the in-memory picture and the
            // file stay consistent; a crash before this set_len is
            // what the torn-tail truncation on open handles.
            let _ = inner.file.set_len(at);
            return Err(e);
        }
        let slot =
            Slot { payload_at: at + (RECORD_OVERHEAD - 8), payload_len: payload.len() as u32 };
        let replaced = match kind {
            REC_MANIFEST => inner.manifest.replace(slot),
            _ => inner.index.insert(key, slot),
        };
        if let Some(old) = replaced {
            inner.dead_bytes += old.record_bytes();
            inner.live_bytes -= old.record_bytes();
        }
        inner.live_bytes += slot.record_bytes();
        inner.end = at + record.len() as u64;
        Ok(())
    }
}

fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".compact.tmp");
    path.with_file_name(name)
}

/// Rewrites only the live records (key order, manifest last) into a
/// fresh store image.
fn compact_bytes(bytes: &[u8], scan: &Scan) -> Vec<u8> {
    let mut out = Vec::with_capacity((HEADER_LEN + scan.live_bytes) as usize);
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
    let mut keys: Vec<u128> = scan.index.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let slot = scan.index[&key];
        let payload = &bytes
            [slot.payload_at as usize..(slot.payload_at + u64::from(slot.payload_len)) as usize];
        out.extend_from_slice(&encode_record(REC_ENTRY, key, payload));
    }
    if let Some(slot) = scan.manifest {
        let payload = &bytes
            [slot.payload_at as usize..(slot.payload_at + u64::from(slot.payload_len)) as usize];
        out.extend_from_slice(&encode_record(REC_MANIFEST, 0, payload));
    }
    out
}

impl CacheBackend for IndexedBackend {
    fn name(&self) -> &'static str {
        "indexed"
    }

    fn load(&self, key: u128) -> Option<Vec<u8>> {
        let mut inner = self.lock();
        let slot = *inner.index.get(&key)?;
        Self::read_slot(&mut inner, slot)
    }

    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        self.append(REC_ENTRY, key, bytes)
    }

    fn load_manifest(&self) -> Option<String> {
        let mut inner = self.lock();
        let slot = inner.manifest?;
        String::from_utf8(Self::read_slot(&mut inner, slot)?).ok()
    }

    fn store_manifest(&self, text: &str) -> io::Result<()> {
        self.append(REC_MANIFEST, 0, text.as_bytes())
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
    fn backend_kind_parses_both_spellings_and_rejects_junk() {
        assert_eq!(BackendKind::parse("dir"), Ok(BackendKind::Dir));
        assert_eq!(BackendKind::parse("indexed"), Ok(BackendKind::Indexed));
        assert!(BackendKind::parse("sqlite").is_err());
        assert!(BackendKind::parse("").is_err());
        assert_eq!(BackendKind::Dir.name(), "dir");
        assert_eq!(BackendKind::Indexed.name(), "indexed");
    }

    #[test]
    fn indexed_store_round_trips_entries_and_manifest() {
        let dir = tmp_dir("indexed-roundtrip");
        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(be.load(1), None);
        assert_eq!(be.load_manifest(), None);
        be.store(1, b"alpha").unwrap();
        be.store(2, b"beta").unwrap();
        be.store(1, b"alpha-v2").unwrap(); // latest wins
        be.store_manifest("pnx-delta-manifest/1\n").unwrap();
        assert_eq!(be.load(1).as_deref(), Some(b"alpha-v2".as_slice()));
        assert_eq!(be.load(2).as_deref(), Some(b"beta".as_slice()));
        assert_eq!(be.load_manifest().as_deref(), Some("pnx-delta-manifest/1\n"));

        // Reopen: the index rebuilds from the file.
        drop(be);
        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(be.load(1).as_deref(), Some(b"alpha-v2".as_slice()));
        assert_eq!(be.load(2).as_deref(), Some(b"beta".as_slice()));
        assert_eq!(be.load_manifest().as_deref(), Some("pnx-delta-manifest/1\n"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_truncates_a_torn_tail_on_open() {
        let dir = tmp_dir("indexed-torn");
        let be = IndexedBackend::open(&dir).unwrap();
        be.store(7, b"good entry").unwrap();
        let path = be.path().to_path_buf();
        drop(be);

        // A crash mid-append: half a record at the end of the file.
        let clean = fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&encode_record(REC_ENTRY, 8, b"half-written")[..14]);
        fs::write(&path, &torn).unwrap();

        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(be.load(7).as_deref(), Some(b"good entry".as_slice()));
        assert_eq!(be.load(8), None, "the torn record must not resolve");
        assert_eq!(fs::read(&path).unwrap(), clean, "the tail is physically dropped");

        // New appends land where the torn tail was and survive reopen.
        be.store(8, b"rewritten").unwrap();
        drop(be);
        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(be.load(8).as_deref(), Some(b"rewritten".as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_checksum_failure_ends_the_scan() {
        let dir = tmp_dir("indexed-checksum");
        let be = IndexedBackend::open(&dir).unwrap();
        be.store(1, b"keep me").unwrap();
        let keep_len = fs::metadata(be.path()).unwrap().len();
        be.store(2, b"rot me").unwrap();
        let path = be.path().to_path_buf();
        drop(be);

        // Flip a payload byte of the second record: its checksum fails
        // and the scan stops before it.
        let mut bytes = fs::read(&path).unwrap();
        let flip = keep_len as usize + RECORD_OVERHEAD as usize - 8; // inside record 2's payload
        bytes[flip] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(be.load(1).as_deref(), Some(b"keep me".as_slice()));
        assert_eq!(be.load(2), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_compacts_when_dead_outweighs_live() {
        let dir = tmp_dir("indexed-compact");
        let be = IndexedBackend::open(&dir).unwrap();
        let blob = vec![0xabu8; 2048];
        for _ in 0..8 {
            be.store(1, &blob).unwrap(); // 7 superseded copies = dead bytes
        }
        be.store(2, b"small").unwrap();
        be.store_manifest("pnx-delta-manifest/1\n").unwrap();
        let path = be.path().to_path_buf();
        let fat = fs::metadata(&path).unwrap().len();
        drop(be);

        let be = IndexedBackend::open(&dir).unwrap();
        let slim = fs::metadata(&path).unwrap().len();
        assert!(slim < fat, "compaction must shrink the file ({slim} !< {fat})");
        assert_eq!(be.load(1).as_deref(), Some(blob.as_slice()));
        assert_eq!(be.load(2).as_deref(), Some(b"small".as_slice()));
        assert_eq!(be.load_manifest().as_deref(), Some("pnx-delta-manifest/1\n"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_recovers_from_a_killed_compaction() {
        let dir = tmp_dir("indexed-killed-compaction");
        let be = IndexedBackend::open(&dir).unwrap();
        be.store(1, b"authoritative").unwrap();
        let path = be.path().to_path_buf();
        drop(be);

        // A compaction that died before its rename leaves a temp file;
        // the main file is still the truth and the temp is discarded.
        let tmp = compact_tmp_path(&path);
        fs::write(&tmp, b"half a compacted store").unwrap();
        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(be.load(1).as_deref(), Some(b"authoritative".as_slice()));
        assert!(!tmp.exists(), "the stale compaction temp is removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_survives_a_failed_compaction_attempt() {
        let dir = tmp_dir("indexed-failed-compaction");
        let be = IndexedBackend::open(&dir).unwrap();
        let blob = vec![0xcdu8; 2048];
        for _ in 0..8 {
            be.store(1, &blob).unwrap(); // enough dead bytes to trigger compaction
        }
        be.store(2, b"small").unwrap();
        be.store_manifest("pnx-delta-manifest/1\n").unwrap();
        let path = be.path().to_path_buf();
        let fat = fs::metadata(&path).unwrap().len();
        drop(be);

        // Make the compaction temp impossible to create (a directory
        // squats on its path — the same failure shape as a full disk):
        // the open must fall back to the uncompacted file, not error
        // out and not lose entries.
        let tmp = compact_tmp_path(&path);
        fs::create_dir_all(&tmp).unwrap();
        let be = IndexedBackend::open(&dir).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), fat, "old file left intact");
        assert_eq!(be.load(1).as_deref(), Some(blob.as_slice()));
        assert_eq!(be.load(2).as_deref(), Some(b"small".as_slice()));
        assert_eq!(be.load_manifest().as_deref(), Some("pnx-delta-manifest/1\n"));
        // The store still accepts writes after the failed attempt.
        be.store(3, b"post-failure").unwrap();
        drop(be);

        // Once the obstruction clears, the next open compacts normally.
        fs::remove_dir_all(&tmp).unwrap();
        let be = IndexedBackend::open(&dir).unwrap();
        assert!(fs::metadata(&path).unwrap().len() < fat, "compaction resumes when possible");
        assert_eq!(be.load(1).as_deref(), Some(blob.as_slice()));
        assert_eq!(be.load(3).as_deref(), Some(b"post-failure".as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_store_refuses_a_foreign_file() {
        let dir = tmp_dir("indexed-foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(INDEX_FILE), b"NOTINDEXdata").unwrap();
        assert!(IndexedBackend::open(&dir).is_err(), "foreign magic must not be destroyed");
        let _ = fs::remove_dir_all(&dir);
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
