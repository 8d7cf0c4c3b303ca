//! The persistent (on-disk) analysis cache behind `pncheck --cache-dir`.
//!
//! A [`PersistentCache`] is a content-addressed store: the key is a
//! 128-bit FNV-1a fingerprint of the **raw source bytes**
//! ([`source_fingerprint`]), so a warm hit skips the parser *and* the
//! analyzer. Each entry is one binary file `<dir>/<key in hex>.pnc`
//! holding the file's [`Report`] (exact round-trip, spans included) and
//! the per-function [`FunctionSummaryRecord`]s of its analysis.
//!
//! The format is defensive where a cross-run cache has to be:
//!
//! * an 8-byte magic plus a schema version — entries written by an
//!   incompatible binary are treated as misses, not errors;
//! * a tag over the schema version and the rule inventory — a cache
//!   populated by a detector with a different rule set never serves
//!   stale verdicts. Entries hold the unfiltered analysis, so
//!   `--min-severity`/`--disable` share every entry;
//! * a checksum over the payload plus strict bounds-checked decoding —
//!   torn writes and bit rot surface as [`CacheLookup::Corrupt`], which
//!   callers degrade to a re-analysis (plus a warning), never a crash or
//!   a wrong report;
//! * writes are atomic by construction (unique temp file + `rename`),
//!   so a concurrent reader sees either the old entry or the new one,
//!   never a half-written file.
//!
//! Byte *storage* sits behind a [`CacheBackend`], which moves opaque
//! entry and manifest bytes, while everything semantic — encoding,
//! checksum, schema/config staleness, the hit/miss/corrupt verdict —
//! stays here, so a wrapped backend (see [`crate::backend`]) inherits
//! the same invariants. The cache counts nothing: [`PersistentCache::get`]
//! reports what it found and [`PersistentCache::put`] whether it stored,
//! and the [`BatchEngine`](crate::BatchEngine) counts both.

use std::io;
use std::path::{Path, PathBuf};

use crate::analysis::AnalyzerConfig;
use crate::backend::{CacheBackend, DirBackend};
use crate::findings::{Finding, FindingKind, Report, Severity};
use crate::ir::{Site, Span};
use crate::summary::FunctionSummaryRecord;

const MAGIC: &[u8; 8] = b"PNXCACHE";
/// Bumped whenever the payload layout or the meaning of any field
/// changes; old entries then read as misses and get rewritten. Version
/// 2 added the per-function content fingerprint and the callee
/// dependency list to every summary record. Version 3 switched the
/// analyzer's value facts from the boolean-era upper-bound tracker to
/// the interval lattice (different findings for the same text) and
/// added the worst-case overflow width to every serialized finding —
/// v2 entries must decode as misses, never as servable results.
/// Version 4 widened function fingerprints to 128 bits (position- and
/// preamble-sensitive, program name excluded) and added the file-level
/// finding pool with per-record `finding_ids` (the substrate of
/// function-granular re-analysis, and what the cross-file summary store
/// is rebuilt from). Builds of version 4 before the store was rebuilt
/// that way also wrote a summary-store blob under the reserved key
/// `ffff…ff`; it is never read, and a leftover one can be deleted.
/// Version 5 stores the unfiltered report: the reporting threshold and
/// disabled kinds left the entry tag and apply when a report is
/// rendered, so a v4 entry (possibly filtered) must read as a miss.
/// Version 6 checks a `memset` length against its destination (a
/// `classic-overflow` the same text did not report before), so a v5
/// entry must read as a miss and never serve the old report.
pub const SCHEMA_VERSION: u32 = 6;

/// 128-bit FNV-1a over raw bytes: the source key and the entry
/// checksum.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u128::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The cache key of a source file: a 128-bit FNV-1a fingerprint of the
/// raw text. Any edit — even whitespace — changes the key, which is the
/// point: a hit must mean "this exact text was analyzed before".
pub fn source_fingerprint(source: &str) -> u128 {
    fnv128(source.as_bytes())
}

/// Everything one cache entry stores about one analyzed file.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnalysis {
    /// The full report, spans included.
    pub report: Report,
    /// Per-function summary digests from the analysis.
    pub summaries: Vec<FunctionSummaryRecord>,
    /// The file-level finding pool: the union of every function's
    /// entry-summary findings, deduplicated by full content.
    /// `summaries[i].finding_ids` index into it — the substrate a
    /// partial re-analysis hydrates unchanged functions' findings from.
    pub finding_pool: Vec<Finding>,
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A valid entry for this key, schema, and analyzer config.
    Hit(CachedAnalysis),
    /// No entry (or one written by a different schema/config — stale,
    /// not broken).
    Miss,
    /// An entry exists but failed the checksum or decoding: the caller
    /// should warn and re-analyze.
    Corrupt,
}

/// A store of content-addressed analysis results shared across
/// `pncheck` runs. Thread-safe: backends synchronize their own byte
/// storage.
#[derive(Debug)]
pub struct PersistentCache {
    dir: PathBuf,
    backend: Box<dyn CacheBackend>,
    config_tag: u64,
}

/// Tag folding everything that decides what an entry holds: the schema
/// version and the rule inventory itself (so adding a finding kind
/// invalidates old entries). Which findings a caller sees is not part
/// of it: entries hold the unfiltered analysis.
fn config_tag() -> u64 {
    let canon = format!("v{}|rules:{}", SCHEMA_VERSION, FindingKind::ALL.len());
    (fnv128(canon.as_bytes()) & u128::from(u64::MAX)) as u64
}

impl PersistentCache {
    /// Opens (creating if needed) the cache directory. `config` has no
    /// fields (see [`AnalyzerConfig`]) and does not affect the cache.
    ///
    /// The store is probed for writability up front: a cache that
    /// could never store an entry (read-only directory, permission
    /// mismatch) fails here with the underlying error instead of
    /// silently degrading every later `put`, so callers can fail fast
    /// with a clear message.
    pub fn open(dir: &Path, config: &AnalyzerConfig) -> io::Result<Self> {
        Ok(Self::with_backend(dir, config, Box::new(DirBackend::open(dir)?)))
    }

    /// Binds an already-open [`CacheBackend`]. This is how the daemon
    /// injects a wrapped backend (the DST harness's fault injector)
    /// between the cache layer and the disk; `open` remains the
    /// fail-fast constructor for plain directories.
    pub fn with_backend(
        dir: &Path,
        _config: &AnalyzerConfig,
        backend: Box<dyn CacheBackend>,
    ) -> Self {
        PersistentCache { dir: dir.to_path_buf(), backend, config_tag: config_tag() }
    }

    /// Probes the cache for `key`: a valid entry, none, or a broken one.
    pub fn get(&self, key: u128) -> CacheLookup {
        match self.backend.load(key) {
            Some(bytes) => decode_entry(&bytes, key, self.config_tag),
            None => CacheLookup::Miss,
        }
    }

    /// Stores an entry for `key` and returns whether it landed.
    /// Best-effort: a full disk or a read-only directory downgrades the
    /// cache, it does not fail the scan. The engine counts every `false`
    /// as a write error, so a dying cache does not look like a working
    /// one.
    pub fn put(&self, key: u128, entry: &CachedAnalysis) -> bool {
        let payload = encode_payload(key, entry);
        let mut bytes = Vec::with_capacity(payload.len() + 36);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.config_tag.to_le_bytes());
        bytes.extend_from_slice(&fnv128(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        self.backend.store(key, &bytes).is_ok()
    }

    /// The delta manifest text stored alongside the entries, if any.
    pub fn load_manifest(&self) -> Option<String> {
        self.backend.load_manifest()
    }

    /// Atomically stores the delta manifest text alongside the entries
    /// and returns whether it landed. Best-effort like `put`: a failure
    /// degrades the next cold start to a full rescan.
    pub fn store_manifest(&self, text: &str) -> bool {
        self.backend.store_manifest(text).is_ok()
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Classifies one entry's bytes: an entry written under another schema
/// or config tag is stale (a miss); a checksum or structure failure is
/// corrupt.
fn decode_entry(bytes: &[u8], key: u128, config_tag: u64) -> CacheLookup {
    if bytes.len() < 36 || &bytes[..8] != MAGIC {
        return CacheLookup::Corrupt;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let tag = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if version != SCHEMA_VERSION || tag != config_tag {
        return CacheLookup::Miss;
    }
    let check = u128::from_le_bytes(bytes[20..36].try_into().expect("16 bytes"));
    let payload = &bytes[36..];
    if fnv128(payload) != check {
        return CacheLookup::Corrupt;
    }
    decode_payload(payload, key).map_or(CacheLookup::Corrupt, CacheLookup::Hit)
}

fn put_finding(out: &mut Vec<u8>, f: &Finding) {
    let kind = FindingKind::ALL.iter().position(|&k| k == f.kind).expect("kind in ALL");
    out.push(kind as u8);
    out.push(match f.severity {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    });
    put_str(out, &f.site.function);
    put_u32(out, f.site.line);
    match f.site.span {
        Some(span) => {
            out.push(1);
            put_u32(out, span.line);
            put_u32(out, span.col);
            put_u32(out, span.byte_offset);
            put_u32(out, span.len);
        }
        None => out.push(0),
    }
    put_str(out, &f.message);
    match f.width {
        Some(w) => {
            out.push(1);
            put_u64(out, w);
        }
        None => out.push(0),
    }
}

fn read_finding(cur: &mut Cursor<'_>) -> Option<Finding> {
    let kind = *FindingKind::ALL.get(cur.u8()? as usize)?;
    let severity = match cur.u8()? {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Error,
        _ => return None,
    };
    let function = cur.str()?;
    let line = cur.u32()?;
    let span = match cur.u8()? {
        0 => None,
        1 => Some(Span::new(cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?)),
        _ => return None,
    };
    let mut site = Site::new(&function, line);
    site.span = span;
    let message = cur.str()?;
    let width = match cur.u8()? {
        0 => None,
        1 => Some(cur.u64()?),
        _ => return None,
    };
    Some(Finding { kind, severity, site, message, width })
}

/// Reads a length-prefixed finding list with the defensive size bound
/// (each finding takes ≥ 15 bytes encoded).
fn read_findings(cur: &mut Cursor<'_>, payload_len: usize) -> Option<Vec<Finding>> {
    let n = cur.u32()? as usize;
    if n > payload_len / 15 + 1 {
        return None;
    }
    let mut findings = Vec::with_capacity(n);
    for _ in 0..n {
        findings.push(read_finding(cur)?);
    }
    Some(findings)
}

fn encode_payload(key: u128, entry: &CachedAnalysis) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&key.to_le_bytes());
    put_str(&mut out, &entry.report.program);
    put_u32(&mut out, entry.report.findings.len() as u32);
    for f in &entry.report.findings {
        put_finding(&mut out, f);
    }
    put_u32(&mut out, entry.finding_pool.len() as u32);
    for f in &entry.finding_pool {
        put_finding(&mut out, f);
    }
    put_u32(&mut out, entry.summaries.len() as u32);
    for s in &entry.summaries {
        put_str(&mut out, &s.function);
        put_u32(&mut out, s.findings);
        put_u32(&mut out, s.finding_ids.len() as u32);
        for &id in &s.finding_ids {
            put_u32(&mut out, id);
        }
        put_u32(&mut out, s.region_effects);
        out.push(u8::from(s.clobbers));
        put_u128(&mut out, s.fingerprint);
        put_u32(&mut out, s.deps.len() as u32);
        for dep in &s.deps {
            put_str(&mut out, &dep.callee);
            put_u128(&mut out, dep.fingerprint);
        }
    }
    out
}

fn decode_payload(payload: &[u8], key: u128) -> Option<CachedAnalysis> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    if cur.u128()? != key {
        return None; // renamed/mismatched entry file
    }
    let program = cur.str()?;
    let findings = read_findings(&mut cur, payload.len())?;
    let finding_pool = read_findings(&mut cur, payload.len())?;
    let n_summaries = cur.u32()? as usize;
    if n_summaries > payload.len() / 13 + 1 {
        return None;
    }
    let mut summaries = Vec::with_capacity(n_summaries);
    for _ in 0..n_summaries {
        let function = cur.str()?;
        let findings = cur.u32()?;
        let n_ids = cur.u32()? as usize;
        if n_ids > payload.len() / 4 + 1 {
            return None;
        }
        let mut finding_ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            let id = cur.u32()?;
            if id as usize >= finding_pool.len() {
                return None; // dangling pool reference
            }
            finding_ids.push(id);
        }
        let region_effects = cur.u32()?;
        let clobbers = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let fingerprint = cur.u128()?;
        let n_deps = cur.u32()? as usize;
        // Defensive bound: each dep takes ≥ 20 bytes encoded.
        if n_deps > payload.len() / 20 + 1 {
            return None;
        }
        let mut deps = Vec::with_capacity(n_deps);
        for _ in 0..n_deps {
            deps.push(crate::summary::SummaryDep { callee: cur.str()?, fingerprint: cur.u128()? });
        }
        summaries.push(FunctionSummaryRecord {
            function,
            fingerprint,
            findings,
            finding_ids,
            region_effects,
            clobbers,
            deps,
        });
    }
    if cur.pos != payload.len() {
        return None; // trailing garbage
    }
    Some(CachedAnalysis { report: Report { program, findings }, summaries, finding_pool })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnx-cache-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry() -> CachedAnalysis {
        let mut site = Site::new("main", 7);
        site.span = Some(Span::new(7, 5, 104, 31));
        let finding = Finding {
            kind: FindingKind::OversizedPlacement,
            severity: Severity::Error,
            site,
            message: "overflows by 16 bytes".into(),
            width: Some(16),
        };
        CachedAnalysis {
            report: Report { program: "demo".into(), findings: vec![finding.clone()] },
            summaries: vec![
                FunctionSummaryRecord {
                    function: "main".into(),
                    fingerprint: 0xdead_beef_cafe_f00d_0123_4567_89ab_cdef,
                    findings: 1,
                    finding_ids: vec![0],
                    region_effects: 2,
                    clobbers: true,
                    deps: vec![
                        crate::summary::SummaryDep {
                            callee: "helper".into(),
                            fingerprint: 0x1234_5678_9abc_def0_f0de_bc9a_8765_4321,
                        },
                        crate::summary::SummaryDep { callee: "init".into(), fingerprint: 42 },
                    ],
                },
                FunctionSummaryRecord {
                    function: "helper".into(),
                    fingerprint: 0x1234_5678_9abc_def0_f0de_bc9a_8765_4321,
                    findings: 0,
                    finding_ids: Vec::new(),
                    region_effects: 0,
                    clobbers: false,
                    deps: Vec::new(),
                },
            ],
            finding_pool: vec![finding],
        }
    }

    #[test]
    fn round_trips_reports_and_summaries_exactly() {
        let dir = tmp_dir("roundtrip");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("program demo; fn main() {}");
        assert_eq!(cache.get(key), CacheLookup::Miss);
        let entry = sample_entry();
        assert!(cache.put(key, &entry), "the put reports that it stored");
        assert_eq!(cache.get(key), CacheLookup::Hit(entry));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_handle_serves_the_one_entry() {
        let dir = tmp_dir("config");
        let key = source_fingerprint("x");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        cache.put(key, &sample_entry());
        // A report filter is not an analyzer setting: a second handle
        // over the same directory serves the one unfiltered entry.
        let again = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        assert_eq!(again.get(key), CacheLookup::Hit(sample_entry()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let dir = tmp_dir("corrupt");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("y");
        cache.put(key, &sample_entry());
        let path = cache.dir().join(format!("{key:032x}.pnc"));

        // Flip a payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);

        // Truncate mid-header.
        fs::write(&path, &bytes[..10]).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);

        // Empty file.
        fs::write(&path, b"").unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_or_version_reads_as_stale_or_broken() {
        let dir = tmp_dir("version");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("z");
        cache.put(key, &sample_entry());
        let path = cache.dir().join(format!("{key:032x}.pnc"));
        let good = fs::read(&path).unwrap();

        // Future schema version: stale (miss), not corrupt.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        fs::write(&path, &future).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Miss);

        // A foreign config tag: stale too.
        let mut foreign_tag = good.clone();
        foreign_tag[12..20].copy_from_slice(&(config_tag() ^ 1).to_le_bytes());
        fs::write(&path, &foreign_tag).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Miss, "a stale entry is not a corrupt one");

        // Foreign magic: broken.
        let mut foreign = good;
        foreign[..8].copy_from_slice(b"NOTCACHE");
        fs::write(&path, &foreign).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_under_the_wrong_key_is_rejected() {
        // A renamed cache file must not serve another file's report.
        let dir = tmp_dir("rename");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key_a = source_fingerprint("a");
        let key_b = source_fingerprint("b");
        cache.put(key_a, &sample_entry());
        fs::rename(
            cache.dir().join(format!("{key_a:032x}.pnc")),
            cache.dir().join(format!("{key_b:032x}.pnc")),
        )
        .unwrap();
        assert_eq!(cache.get(key_b), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_fails_fast_on_an_uncreatable_dir() {
        // A regular file where the directory should be: open must
        // surface the error immediately instead of degrading every
        // later put. (A read-only directory behaves the same, but that
        // cannot be asserted portably when tests run as root.)
        let base = tmp_dir("uncreatable");
        fs::create_dir_all(&base).unwrap();
        let file = base.join("not-a-dir");
        fs::write(&file, b"occupied").unwrap();
        assert!(PersistentCache::open(&file, &AnalyzerConfig::default()).is_err());
        assert!(
            PersistentCache::open(&file.join("below"), &AnalyzerConfig::default()).is_err(),
            "a path under a file is uncreatable too"
        );
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn failed_writes_are_reported_not_silent() {
        // Remove the directory after open: every put now fails at
        // File::create (ENOENT) — the classic "cache dir deleted
        // mid-run" degradation. (chmod-based read-only cannot be
        // asserted portably when tests run as root.)
        let dir = tmp_dir("write-errors");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let key = source_fingerprint("w");
        assert!(!cache.put(key, &sample_entry()), "the put reports that it did not store");
        assert_eq!(cache.get(key), CacheLookup::Miss, "a failed put leaves no entry");
    }

    #[test]
    fn manifest_round_trips() {
        let dir = tmp_dir("manifest");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        assert_eq!(cache.load_manifest(), None);
        assert!(
            cache.store_manifest("pnx-delta-manifest/1\n3 4 00000000000000000000000000000005 a\n")
        );
        assert_eq!(
            cache.load_manifest().as_deref(),
            Some("pnx-delta-manifest/1\n3 4 00000000000000000000000000000005 a\n")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_writers_sharing_a_dir_never_serve_a_corrupt_entry() {
        // Two cache handles (two replicas, or a daemon plus a one-shot
        // pncheck) hammer the same keys in one directory. With the old
        // fixed `.{key}.{pid}.tmp` temp names, two same-process engines
        // racing one key could rename each other's half-written temp
        // into place; unique pid+nonce temp names make every rename
        // publish exactly the bytes its writer wrote, so a reader sees
        // a complete entry or none — never a torn one.
        let dir = tmp_dir("two-writers");
        let keys: Vec<u128> =
            (0..4u32).map(|i| source_fingerprint(&format!("contended {i}"))).collect();
        let entry = sample_entry();
        std::thread::scope(|scope| {
            for _writer in 0..2 {
                scope.spawn(|| {
                    let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
                    for round in 0..200 {
                        let key = keys[round % keys.len()];
                        assert!(cache.put(key, &entry), "a write failed");
                        match cache.get(key) {
                            CacheLookup::Hit(got) => assert_eq!(got, entry),
                            CacheLookup::Miss => {} // racing rename not yet visible
                            CacheLookup::Corrupt => {
                                panic!("a torn entry was served from the shared dir")
                            }
                        }
                    }
                });
            }
        });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dangling_finding_ids_decode_as_corrupt() {
        let dir = tmp_dir("dangling-ids");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("dangling");
        let mut entry = sample_entry();
        entry.summaries[0].finding_ids = vec![7]; // pool has 1 entry
        cache.put(key, &entry);
        assert_eq!(cache.get(key), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_fingerprint_is_wide_and_sensitive() {
        let fp = source_fingerprint("program p; fn main() {}");
        assert_ne!(fp >> 64, 0);
        assert_ne!(fp & u128::from(u64::MAX), 0);
        assert_ne!(fp, source_fingerprint("program p; fn main() {} "));
    }
}
