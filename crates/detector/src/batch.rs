//! Parallel, cache-aware batch analysis.
//!
//! [`BatchEngine`] scans many [`Program`]s concurrently on a pool of
//! scoped worker threads (`std::thread::scope` over a shared atomic
//! work-queue cursor — no extra runtime dependencies) and returns one
//! [`Report`] per input, **in input order**, regardless of how many
//! workers ran or how the queue interleaved.
//!
//! Results are memoized in one in-memory map, keyed by what the input
//! was. A program handed to [`BatchEngine::scan`] is keyed by
//! [`fingerprint`], a stable FNV-1a hash of its canonical pretty-printed
//! form (which round-trips through the parser, so equal programs — even
//! ones built independently — hash equally, and any semantic difference
//! changes the key). A source text handed to
//! [`BatchEngine::scan_sources_with_stats`] is keyed by
//! [`source_fingerprint`], a hash of its **raw bytes**: a warm re-scan
//! of unchanged text skips the parser as well as the analyzer, which is
//! what keeps a resident `pncheckd` serving repeat requests without
//! re-parsing anything. The two kinds of key never answer each other: a
//! parsed program carries source spans and a built one does not, and
//! two texts that differ only in layout share a pretty form but not
//! their spans. With [`BatchEngine::with_persistent_cache`], an
//! *on-disk* tier under the source key extends the memo across process
//! restarts. Corrupt or stale disk entries degrade to a normal analysis
//! (and get rewritten), never to an error.
//!
//! ```
//! use pnew_detector::{Analyzer, BatchEngine, Expr, ProgramBuilder, Ty};
//!
//! let mut p = ProgramBuilder::new("demo");
//! p.class("Student", 16, None, false);
//! p.class("GradStudent", 32, Some("Student"), false);
//! let mut f = p.function("main");
//! let stud = f.local("stud", Ty::Class("Student".into()));
//! let st = f.local("st", Ty::Ptr);
//! f.placement_new(st, Expr::addr_of(stud), "GradStudent");
//! f.finish();
//! let programs = vec![p.build()];
//!
//! let engine = BatchEngine::new(Analyzer::new()).with_jobs(4);
//! let (reports, stats) = engine.scan_with_stats(&programs);
//! assert_eq!(reports.len(), 1);
//! assert!(reports[0].detected());
//! assert_eq!(stats.cache_misses, 1);
//!
//! // Unchanged inputs are served from the cache on the next scan.
//! let (_, stats) = engine.scan_with_stats(&programs);
//! assert_eq!(stats.cache_hits, 1);
//! ```

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::analysis::Analyzer;
use crate::cache::{fnv128, source_fingerprint, CacheLookup, CachedAnalysis, PersistentCache};
use crate::clock::{Clock, SystemClock};
use crate::delta::{invalidation_cone, parse_manifest, render_manifest, ManifestRow};
use crate::findings::{Finding, Report};
use crate::ir::Program;
use crate::parse::{parse_program_recovering, ParseError};
use crate::pretty::pretty;
use crate::summary::{FunctionSummaryRecord, SummaryStore};
use crate::trace::TraceCollector;

/// Stable content fingerprint of a program.
///
/// 128-bit FNV-1a over the canonical pretty-printed text. The pretty
/// form sorts classes, includes the program name, and round-trips
/// through the parser (`parse(pretty(p)) == p`), so it is injective up
/// to program equality, and structurally equal programs always agree
/// even when their internal `HashMap` iteration orders differ. The key
/// was widened from 64 bits: a corpus-scale cache keyed on a bare
/// 64-bit hash has a real birthday-collision risk, and a collision
/// silently serves the wrong report.
pub fn fingerprint(program: &Program) -> u128 {
    fnv128(pretty(program).as_bytes())
}

/// Counters describing one [`BatchEngine::scan_with_stats`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Programs scanned.
    pub programs: usize,
    /// Total findings across all reports.
    pub findings: usize,
    /// Reports served from the memo.
    pub cache_hits: u64,
    /// Reports that required a fresh analysis.
    pub cache_misses: u64,
    /// Wall-clock time of the scan.
    pub elapsed: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Source texts that actually went through the parser during this
    /// scan. A fully warm scan — every input served from the memo or
    /// the disk tier — runs zero parses. Always 0 for program-based
    /// scans, which never parse.
    pub parses: u64,
    /// Files served whole from the on-disk cache (no parse, no
    /// analysis). Always 0 without a persistent cache.
    pub persistent_hits: u64,
    /// Files the on-disk cache could not answer (includes corrupt
    /// entries). Always 0 without a persistent cache.
    pub persistent_misses: u64,
    /// On-disk entries that failed validation and were re-analyzed.
    pub persistent_corrupt: u64,
    /// On-disk entries that could not be written (full disk, directory
    /// removed mid-run). Always 0 without a persistent cache.
    pub persistent_write_errors: u64,
}

impl BatchStats {
    /// Scan throughput in programs per second (0 for an empty scan).
    pub fn programs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.programs as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of programs served from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Lifetime cache counters for a [`BatchEngine`].
///
/// Snapshots are *consistent*: all fields are copied under one lock,
/// so `hits + misses == lookups` holds in every snapshot — a stats
/// reader racing live requests can never observe a torn pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Inputs answered from the in-memory memo since construction.
    pub hits: u64,
    /// Inputs that ran the analyzer since construction.
    pub misses: u64,
    /// Memo lookups that ended in a hit or an analysis — always exactly
    /// `hits + misses` within one snapshot. A source served from the
    /// disk tier is neither.
    pub lookups: u64,
    /// Analyses currently held in the memo.
    pub entries: usize,
    /// Source texts parsed since construction.
    pub parses: u64,
}

/// The engine's live hit/miss/parse counters, mutated and snapshotted
/// under one mutex so readers never see a half-updated set (the
/// `pncheckd-stats/1` torn-pair bug: `hits + misses != lookups`).
/// The hot path already takes the memo mutex, so the extra
/// uncontended lock is noise next to a parse or an analysis.
#[derive(Debug, Clone, Copy, Default)]
struct EngineCounters {
    hits: u64,
    misses: u64,
    lookups: u64,
    parses: u64,
}

/// A memo key: the fingerprint plus the kind of input it was taken
/// from, so a program-scan entry never answers a source probe, nor the
/// reverse. A built program carries no spans and a parsed one does, so
/// serving one for the other would return the wrong report even when
/// the source text is exactly the program's pretty form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    /// [`fingerprint`] of a program handed to [`BatchEngine::scan`].
    Program(u128),
    /// [`source_fingerprint`] of a source text.
    Source(u128),
}

/// What scanning one source text produced.
///
/// Returned by [`BatchEngine::scan_sources_with_stats`], one per input,
/// in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceOutcome {
    /// The analysis report; `None` when the source failed to parse.
    pub report: Option<Report>,
    /// Per-function summary digests (empty for parse failures).
    pub summaries: Vec<FunctionSummaryRecord>,
    /// The file-level finding pool the summaries' `finding_ids` index
    /// into — the raw material a later function-granular partial
    /// re-analysis hydrates unchanged functions from.
    pub finding_pool: Vec<Finding>,
    /// Parse errors, when the source did not parse.
    pub errors: Vec<ParseError>,
    /// The report came straight from the on-disk cache: neither the
    /// parser nor the analyzer ran for this file.
    pub from_disk_cache: bool,
    /// The report came from the in-memory memo: neither the parser nor
    /// the analyzer ran for this file.
    pub from_source_cache: bool,
    /// An on-disk entry existed but was corrupt; the file was
    /// re-analyzed from source and the entry rewritten.
    pub cache_corrupt: bool,
}

impl SourceOutcome {
    /// A fresh analysis's outcome; callers mark the tier that served it.
    fn analyzed(entry: CachedAnalysis) -> SourceOutcome {
        SourceOutcome {
            report: Some(entry.report),
            summaries: entry.summaries,
            finding_pool: entry.finding_pool,
            errors: Vec::new(),
            from_disk_cache: false,
            from_source_cache: false,
            cache_corrupt: false,
        }
    }

    /// The outcome of a source that did not parse.
    fn unparsed(errors: Vec<ParseError>) -> SourceOutcome {
        SourceOutcome {
            report: None,
            summaries: Vec::new(),
            finding_pool: Vec::new(),
            errors,
            from_disk_cache: false,
            from_source_cache: false,
            cache_corrupt: false,
        }
    }
}

/// What the engine remembers about one scanned path between delta
/// rescans: enough to decide "unchanged?" from a bare `stat` and to
/// serve the cached result without touching the file.
#[derive(Debug, Clone)]
struct TrackedFile {
    len: u64,
    mtime_ns: u128,
    key: u128,
    /// `None` for manifest-seeded entries whose result still lives only
    /// on disk — fetched lazily (by `key`) the first time the file is
    /// served unchanged.
    analysis: Option<Arc<CachedAnalysis>>,
    /// Parse errors, when the tracked text did not parse.
    errors: Vec<ParseError>,
}

/// What scanning one tracked path produced. Returned by
/// [`BatchEngine::scan_paths_tracked`] and
/// [`BatchEngine::rescan_delta`], one per input path, in input order.
///
/// The analysis is behind an [`Arc`]: a delta rescan serves thousands
/// of unchanged files per millisecond precisely because "serving" is a
/// reference-count bump, not a report clone.
#[derive(Debug, Clone)]
pub struct TrackedOutcome {
    /// The path exactly as given.
    pub path: String,
    /// The analysis result; `None` when the file was unreadable or did
    /// not parse.
    pub analysis: Option<Arc<CachedAnalysis>>,
    /// Parse errors, when the source did not parse.
    pub errors: Vec<ParseError>,
    /// The I/O error message, when the file could not be read.
    pub read_error: Option<String>,
    /// The file went through the parser/analyzer (or a cache tier below
    /// the tracked index) this scan — false when served straight from
    /// the tracked index as unchanged.
    pub reanalyzed: bool,
    /// An on-disk entry existed but was corrupt; the file was
    /// re-analyzed from source and the entry rewritten.
    pub cache_corrupt: bool,
    /// Functions of this file that went through interval analysis this
    /// scan: the invalidation cone for a function-granular partial
    /// re-analysis, every function for a whole-file analysis, zero for
    /// any cache-tier hit.
    pub functions_reanalyzed: usize,
    /// Functions whose summaries (and findings) were hydrated from the
    /// prior `.pnc` record instead of being re-walked. Non-zero only on
    /// the function-granular partial path.
    pub functions_reused: usize,
}

/// Invalidation accounting for one [`BatchEngine::rescan_delta`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Paths tracked after the rescan.
    pub tracked_files: usize,
    /// Previously tracked paths that were re-analyzed (content or stat
    /// drift, a caller hint, or an unusable cache entry).
    pub changed_files: usize,
    /// Paths not tracked before this rescan.
    pub added_files: usize,
    /// Previously tracked paths absent from this rescan's path list.
    pub removed_files: usize,
    /// Paths served from the tracked index (or the disk tier) with zero
    /// parses and zero analysis.
    pub unchanged_files: usize,
    /// Functions whose own content changed, summed over re-analyzed
    /// files.
    pub changed_functions: usize,
    /// Functions invalidated (changed plus transitive callers), summed
    /// over re-analyzed files. For a file with no prior in-memory
    /// summaries (first sight, or manifest-seeded), every function
    /// counts as changed.
    pub cone_functions: usize,
    /// Functions known across the whole tracked index after the rescan
    /// — the corpus-wide denominator for `cone_functions`. Files whose
    /// analysis has not been hydrated from disk yet contribute zero.
    pub tracked_functions: usize,
    /// Functions actually re-walked this rescan, summed over
    /// re-analyzed files. This equals the invalidation cone of the
    /// edit; on the first sight of a file every function counts.
    pub functions_reanalyzed: usize,
    /// Functions hydrated from prior `.pnc` records instead of being
    /// re-walked, summed over re-analyzed files.
    pub functions_reused: usize,
    /// Tracked entries classified "unchanged" from the bare `stat`
    /// (length + mtime matched the index exactly) and served without
    /// touching the source — from the in-memory analysis when resident,
    /// or hydrated off the disk tier by manifest key — so the source is
    /// never re-read and its fingerprint never recomputed. Always 0 in
    /// hinted mode, which skips the stat sweep wholesale.
    pub stat_fastpath_hits: usize,
}

/// A parallel batch scanner with a content-fingerprint memo.
///
/// See the [module docs](self) for the concurrency and caching model.
#[derive(Debug)]
pub struct BatchEngine {
    analyzer: Analyzer,
    jobs: usize,
    memo: Mutex<HashMap<MemoKey, CachedAnalysis>>,
    counters: Mutex<EngineCounters>,
    trace: Option<Arc<TraceCollector>>,
    persistent: Option<PersistentCache>,
    tracked: Mutex<HashMap<String, TrackedFile>>,
    /// The manifest text this engine last stored successfully, so a
    /// delta that changed no row skips the rewrite.
    saved_manifest: Mutex<Option<String>>,
    /// Cross-file summary exchange: entry-context summaries keyed by
    /// closure fingerprint, shared by every file analyzed through this
    /// engine. Never persisted: a delta rebuilds it from the `.pnc`
    /// entries it hydrates off disk.
    summary_store: Arc<SummaryStore>,
    /// Serializes whole delta operations (seed + rescan + manifest
    /// persistence) against each other and against tracked full scans,
    /// so no request ever snapshots a half-updated tracked index.
    delta_gate: Mutex<()>,
    /// Lifetime sums of the per-rescan `functions_reanalyzed` /
    /// `functions_reused` counters, for daemon stats.
    fn_reanalyzed_total: AtomicU64,
    fn_reused_total: AtomicU64,
    /// Time source for scan/rescan elapsed measurements. The real
    /// [`SystemClock`] by default; the DST harness (the `pnew-dst`
    /// crate) threads a virtual clock through so stat sweeps never
    /// read real time.
    clock: Arc<dyn Clock>,
}

impl Default for BatchEngine {
    fn default() -> Self {
        BatchEngine::new(Analyzer::new())
    }
}

impl BatchEngine {
    /// An engine around `analyzer`, with one worker per available CPU.
    pub fn new(analyzer: Analyzer) -> Self {
        let jobs = thread::available_parallelism().map_or(1, |n| n.get());
        BatchEngine {
            analyzer,
            jobs,
            memo: Mutex::new(HashMap::new()),
            counters: Mutex::new(EngineCounters::default()),
            trace: None,
            persistent: None,
            tracked: Mutex::new(HashMap::new()),
            saved_manifest: Mutex::new(None),
            summary_store: Arc::new(SummaryStore::new()),
            delta_gate: Mutex::new(()),
            fn_reanalyzed_total: AtomicU64::new(0),
            fn_reused_total: AtomicU64::new(0),
            clock: Arc::new(SystemClock::default()),
        }
    }

    /// Replaces the engine's time source (scan timing). The DST harness
    /// installs its shared virtual clock here.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Feeds counter and timing events (`batch.*`, `analysis.*`,
    /// `findings.*`) into `trace` during every scan. All workers share
    /// the one collector.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<TraceCollector>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Adds the on-disk tier: [`scan_sources_with_stats`]
    /// (Self::scan_sources_with_stats) will probe (and populate) `cache`
    /// before parsing anything.
    #[must_use]
    pub fn with_persistent_cache(mut self, cache: PersistentCache) -> Self {
        self.persistent = Some(cache);
        self
    }

    /// The cross-file summary store shared by this engine's scans.
    pub fn summary_store(&self) -> &SummaryStore {
        &self.summary_store
    }

    /// Lifetime `(functions_reanalyzed, functions_reused)` sums across
    /// every delta rescan this engine has served.
    pub fn function_delta_totals(&self) -> (u64, u64) {
        (
            self.fn_reanalyzed_total.load(Ordering::Relaxed),
            self.fn_reused_total.load(Ordering::Relaxed),
        )
    }

    /// The on-disk cache tier, if one is attached.
    pub fn persistent_cache(&self) -> Option<&PersistentCache> {
        self.persistent.as_ref()
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The analyzer driving each scan.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Scans every program, returning reports in input order.
    ///
    /// The order and content of the reports are independent of the
    /// worker count: workers pull indices from a shared cursor but write
    /// into the slot of the program they took, and each program's
    /// analysis is deterministic.
    pub fn scan(&self, programs: &[Program]) -> Vec<Report> {
        self.scan_with_stats(programs).0
    }

    /// [`scan`](Self::scan), plus throughput and cache counters for the
    /// run.
    pub fn scan_with_stats(&self, programs: &[Program]) -> (Vec<Report>, BatchStats) {
        let (reports, stats) =
            self.run_queue(programs, self.jobs, |program| self.analyze_cached(program).report);
        let findings = reports.iter().map(|r| r.findings.len()).sum();
        (reports, BatchStats { findings, ..stats })
    }

    /// Scans raw source texts through every cache tier, returning one
    /// [`SourceOutcome`] per input, in input order.
    ///
    /// Per file: probe the memo by source fingerprint (hit → done, no
    /// parse); probe the on-disk cache (hit → done, no parse); parse;
    /// analyze; write the entry back to the memo and to disk. Parse
    /// failures are reported in the outcome and never cached.
    pub fn scan_sources_with_stats<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
    ) -> (Vec<SourceOutcome>, BatchStats) {
        self.scan_sources_with_stats_jobs(sources, self.jobs)
    }

    /// [`scan_sources_with_stats`](Self::scan_sources_with_stats) with
    /// an explicit worker count for this scan only — the daemon uses
    /// this to honor a per-request `jobs` without rebuilding the engine
    /// (and losing its warm caches).
    pub fn scan_sources_with_stats_jobs<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
        jobs: usize,
    ) -> (Vec<SourceOutcome>, BatchStats) {
        let (outcomes, stats) =
            self.run_queue(sources, jobs, |source| self.analyze_source(source.as_ref()));
        // `programs` counts inputs that produced a report — parse
        // failures are files, not programs — matching the program-based
        // scan, whose batch only ever contains parsed programs.
        let programs = outcomes.iter().filter(|o| o.report.is_some()).count();
        let findings =
            outcomes.iter().filter_map(|o| o.report.as_ref()).map(|r| r.findings.len()).sum();
        (outcomes, BatchStats { programs, findings, ..stats })
    }

    /// Scans files **by path**, registering each in the tracked index
    /// that [`rescan_delta`](Self::rescan_delta) consults. One
    /// [`TrackedOutcome`] per path, in input order; unreadable files
    /// get a `read_error` outcome instead of failing the scan.
    ///
    /// This is the cold half of the incremental pair: it pays the full
    /// read+parse+analyze cost (modulo the ordinary cache tiers) and
    /// records each file's length, mtime, and source key so a later
    /// delta rescan can classify "unchanged" from a bare `stat`.
    pub fn scan_paths_tracked(&self, paths: &[String]) -> (Vec<TrackedOutcome>, BatchStats) {
        // The gate keeps a concurrent delta request from snapshotting
        // the tracked index while this scan is half-way through
        // updating it.
        let _gate = self.delta_gate.lock().expect("delta gate poisoned");
        let (outcomes, stats) = self.run_queue(paths, self.jobs, |path| self.read_and_track(path));
        let programs = outcomes.iter().filter(|o| o.analysis.is_some()).count();
        let findings = outcomes
            .iter()
            .filter_map(|o| o.analysis.as_ref())
            .map(|a| a.report.findings.len())
            .sum();
        (outcomes, BatchStats { programs, findings, ..stats })
    }

    /// Re-scans `paths` incrementally against the tracked index: files
    /// whose `stat` (length + mtime) matches their tracked state are
    /// served from the index — zero reads, zero parses, zero analysis —
    /// and only drifted, hinted, added, or cache-degraded files go back
    /// through the full pipeline. Outcomes come back in input order and
    /// are **byte-identical** to a cold full scan of the same tree: a
    /// changed file is always re-analyzed whole (function-grain reuse
    /// would shift spans), so the per-function invalidation cone from
    /// [`invalidation_cone`](crate::delta::invalidation_cone) feeds the
    /// returned [`DeltaStats`], not the verdicts.
    ///
    /// `changed_hint` selects the change-detection mode. `None` — the
    /// poll mode, a client sending `delta` without a hint — stats every
    /// tracked file and re-analyzes whatever drifted. `Some(list)` — the editor-integration mode —
    /// trusts the client completely: hinted paths are re-analyzed,
    /// every other tracked path is served from the index without even a
    /// `stat`, which is what makes a single-file edit in a 10k-file
    /// tree a sub-millisecond rescan. The contract is that the client
    /// owns change detection: a file it changed but did not name comes
    /// back stale until the next unhinted rescan. Tracked paths absent
    /// from `paths` are dropped from the index in both modes. `paths`
    /// is expected to be duplicate-free (what
    /// [`expand_inputs`](crate::cliopts::expand_inputs) produces);
    /// duplicates cost extra re-analysis and can delay the removal
    /// sweep by one rescan.
    pub fn rescan_delta(
        &self,
        paths: &[String],
        changed_hint: Option<&[String]>,
    ) -> (Vec<TrackedOutcome>, BatchStats, DeltaStats) {
        self.rescan_delta_jobs(paths, changed_hint, self.jobs)
    }

    /// [`rescan_delta`](Self::rescan_delta) with an explicit worker
    /// count for the re-analysis queue — the daemon's `delta` op uses
    /// this to honor a per-request `jobs` without rebuilding the engine.
    pub fn rescan_delta_jobs(
        &self,
        paths: &[String],
        changed_hint: Option<&[String]>,
        jobs: usize,
    ) -> (Vec<TrackedOutcome>, BatchStats, DeltaStats) {
        use std::collections::HashSet;

        let start_ns = self.clock.now_ns();
        let before = self.counters_snapshot();
        let persistent_before = self.persistent_snapshot();

        let hint: Option<HashSet<&str>> =
            changed_hint.map(|c| c.iter().map(String::as_str).collect());
        let mut delta = DeltaStats::default();
        let mut slots: Vec<Option<TrackedOutcome>> = (0..paths.len()).map(|_| None).collect();
        // (input index, path, prior analysis — the "old" side of both
        // the invalidation cone and the function-granular partial
        // re-analysis).
        let mut changed: Vec<(usize, &String, Option<Arc<CachedAnalysis>>)> = Vec::new();
        // Manifest-seeded unchanged entries whose analysis still lives
        // only on disk: hydrated in parallel *after* the lock drops —
        // a disk read per file has no business inside the stat sweep.
        let mut hydrate: Vec<(usize, &String, u128)> = Vec::new();

        {
            let mut tracked = self.tracked.lock().expect("tracked index poisoned");
            for (i, path) in paths.iter().enumerate() {
                let Some(entry) = tracked.get_mut(path.as_str()) else {
                    delta.added_files += 1;
                    changed.push((i, path, None));
                    continue;
                };
                // With a hint the client owns change detection and the
                // stat sweep is skipped wholesale; without one, stat
                // drift errs toward re-analysis (an unreadable stat
                // re-runs the file so the read error surfaces properly).
                let dirty = match &hint {
                    Some(h) => h.contains(path.as_str()),
                    None => match fs::metadata(path) {
                        Ok(m) => m.len() != entry.len || Self::mtime_ns(&m) != entry.mtime_ns,
                        Err(_) => true,
                    },
                };
                if dirty {
                    // The prior analysis feeds the invalidation cone
                    // and the partial re-analysis. A manifest-seeded
                    // entry has none in memory, but the old verdict is
                    // still on disk under the old key — pulling it
                    // keeps cones precise across restarts. The read is
                    // uncounted: it serves no file, and a broken old
                    // entry names text that no longer exists, so there
                    // is nothing to warn about or rewrite.
                    let old = match &entry.analysis {
                        Some(a) => Some(Arc::clone(a)),
                        None if entry.errors.is_empty() => {
                            match self.persistent.as_ref().map(|pc| pc.peek(entry.key)) {
                                Some(CacheLookup::Hit(hit)) => Some(Arc::new(hit)),
                                _ => None,
                            }
                        }
                        None => None,
                    };
                    delta.changed_files += 1;
                    changed.push((i, path, old));
                    continue;
                }
                if entry.analysis.is_none() && entry.errors.is_empty() {
                    // Manifest-seeded: the result lives on disk. Defer
                    // the pull to the parallel hydration pass below.
                    hydrate.push((i, path, entry.key));
                    continue;
                }
                delta.unchanged_files += 1;
                if hint.is_none() {
                    // Served with exactly one stat: no read, no hash,
                    // no fingerprint recompute.
                    delta.stat_fastpath_hits += 1;
                }
                slots[i] = Some(TrackedOutcome {
                    path: path.clone(),
                    analysis: entry.analysis.clone(),
                    errors: entry.errors.clone(),
                    read_error: None,
                    reanalyzed: false,
                    cache_corrupt: false,
                    functions_reanalyzed: 0,
                    functions_reused: 0,
                });
            }
            // Every requested path that was already tracked has been
            // classified above; if that accounts for the whole index,
            // nothing was removed and the retain sweep (a hash of every
            // path) is skipped — the common editor-loop case.
            let seen_tracked = delta.changed_files + delta.unchanged_files + hydrate.len();
            if tracked.len() != seen_tracked {
                let requested: HashSet<&str> = paths.iter().map(String::as_str).collect();
                let before = tracked.len();
                tracked.retain(|p, _| requested.contains(p.as_str()));
                delta.removed_files = before - tracked.len();
            }
        }

        if !hydrate.is_empty() {
            // Pull manifest-seeded results off disk in parallel, with
            // the tracked lock released; a missing or corrupt entry
            // degrades to a re-analysis (and heals the cache). Each
            // entry's summaries go into the summary store, which is how
            // a new process rebuilds it.
            let (hydrated, _) = self.run_queue(&hydrate, jobs, |&(_, _, key)| {
                match self.persistent.as_ref().map(|pc| pc.get(key)) {
                    Some(CacheLookup::Hit(hit)) => {
                        self.summary_store.publish(&hit);
                        Some(Arc::new(hit))
                    }
                    _ => None,
                }
            });
            let mut tracked = self.tracked.lock().expect("tracked index poisoned");
            for (&(i, path, _), analysis) in hydrate.iter().zip(hydrated) {
                let Some(analysis) = analysis else {
                    delta.changed_files += 1;
                    changed.push((i, path, None));
                    continue;
                };
                delta.unchanged_files += 1;
                if hint.is_none() {
                    // The stat matched the manifest, so the source was
                    // never re-read or re-fingerprinted — the verdict
                    // came off the disk tier by manifest key alone.
                    delta.stat_fastpath_hits += 1;
                }
                if let Some(entry) = tracked.get_mut(path.as_str()) {
                    entry.analysis = Some(Arc::clone(&analysis));
                }
                slots[i] = Some(TrackedOutcome {
                    path: path.clone(),
                    analysis: Some(analysis),
                    errors: Vec::new(),
                    read_error: None,
                    reanalyzed: false,
                    cache_corrupt: false,
                    functions_reanalyzed: 0,
                    functions_reused: 0,
                });
            }
        }

        let (rescanned, _) = self.run_queue(&changed, jobs, |item| {
            self.read_and_track_partial(item.1, item.2.as_deref())
        });
        for ((i, _, old), outcome) in changed.iter().zip(rescanned) {
            let empty: &[FunctionSummaryRecord] = &[];
            let old_sums = old.as_ref().map_or(empty, |a| a.summaries.as_slice());
            let new = outcome.analysis.as_ref().map_or(empty, |a| a.summaries.as_slice());
            let (_, cone) = invalidation_cone(old_sums, new);
            delta.changed_functions += cone.changed_functions;
            delta.cone_functions += cone.cone_functions;
            delta.functions_reanalyzed += outcome.functions_reanalyzed;
            delta.functions_reused += outcome.functions_reused;
            slots[*i] = Some(outcome);
        }
        self.fn_reanalyzed_total.fetch_add(delta.functions_reanalyzed as u64, Ordering::Relaxed);
        self.fn_reused_total.fetch_add(delta.functions_reused as u64, Ordering::Relaxed);
        {
            let tracked = self.tracked.lock().expect("tracked index poisoned");
            delta.tracked_files = tracked.len();
            delta.tracked_functions = tracked
                .values()
                .filter_map(|t| t.analysis.as_ref())
                .map(|a| a.summaries.len())
                .sum();
        }

        let outcomes: Vec<TrackedOutcome> =
            slots.into_iter().map(|s| s.expect("every path is classified")).collect();
        let programs = outcomes.iter().filter(|o| o.analysis.is_some()).count();
        let findings = outcomes
            .iter()
            .filter_map(|o| o.analysis.as_ref())
            .map(|a| a.report.findings.len())
            .sum();
        let persistent_after = self.persistent_snapshot();
        let after = self.counters_snapshot();
        let stats = BatchStats {
            programs,
            findings,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            elapsed: Duration::from_nanos(self.clock.now_ns().saturating_sub(start_ns)),
            jobs: jobs.max(1).min(changed.len().max(1)),
            parses: after.parses - before.parses,
            persistent_hits: persistent_after.0 - persistent_before.0,
            persistent_misses: persistent_after.1 - persistent_before.1,
            persistent_corrupt: persistent_after.2 - persistent_before.2,
            persistent_write_errors: persistent_after.3 - persistent_before.3,
        };
        if let Some(t) = &self.trace {
            t.count("batch.delta-changed", (delta.changed_files + delta.added_files) as u64);
            t.count("batch.delta-unchanged", delta.unchanged_files as u64);
            t.count("batch.delta-cone-functions", delta.cone_functions as u64);
            t.count("batch.delta-fn-reanalyzed", delta.functions_reanalyzed as u64);
            t.count("batch.delta-fn-reused", delta.functions_reused as u64);
            t.record_pass("batch.rescan-delta", stats.elapsed);
        }
        (outcomes, stats, delta)
    }

    /// One whole delta operation under the engine's delta gate: seed
    /// the tracked index from the persistent cache's manifest if this
    /// is the engine's first delta, rescan, then persist the manifest
    /// for the next process. The rescan's hydration of manifest-seeded
    /// files from disk is what refills the summary store after a
    /// restart.
    ///
    /// Callers that interleave delta requests with tracked full scans
    /// on one shared engine (the daemon) must come through here: the
    /// gate is what keeps one request from snapshotting the manifest
    /// while another is half-way through updating the tracked index.
    pub fn delta_scan(
        &self,
        paths: &[String],
        changed_hint: Option<&[String]>,
        jobs: usize,
    ) -> (Vec<TrackedOutcome>, BatchStats, DeltaStats) {
        let _gate = self.delta_gate.lock().expect("delta gate poisoned");
        if self.tracked.lock().expect("tracked index poisoned").is_empty() {
            self.seed_tracked_from_manifest();
        }
        let result = self.rescan_delta_jobs(paths, changed_hint, jobs);
        self.save_tracked_manifest();
        result
    }

    /// Loads nothing: the summary store is rebuilt from the `.pnc`
    /// entries a delta hydrates ([`SummaryStore::publish`]), not read
    /// from disk. Returns the entries resident. Kept, like
    /// [`save_summary_store`](Self::save_summary_store), because
    /// perfbench's layered replay times a load and a save step around
    /// every delta.
    pub fn load_summary_store(&self) -> usize {
        self.summary_store.len()
    }

    /// Writes nothing and returns `false`: every `.pnc` entry already
    /// holds its functions' summaries, so the store has no file of its
    /// own.
    pub fn save_summary_store(&self) -> bool {
        false
    }

    /// Primes the tracked index from the manifest of the attached
    /// persistent cache (its `manifest.pnm`), so the very
    /// first [`rescan_delta`](Self::rescan_delta) of a new process can
    /// serve unchanged files from disk instead of re-parsing the
    /// world. Already-tracked paths are left alone. Returns the number
    /// of rows seeded (0 without a persistent cache or manifest).
    pub fn seed_tracked_from_manifest(&self) -> usize {
        let Some(pc) = &self.persistent else {
            return 0;
        };
        let rows = pc.load_manifest().map(|text| parse_manifest(&text)).unwrap_or_default();
        let mut tracked = self.tracked.lock().expect("tracked index poisoned");
        let mut seeded = 0;
        for row in rows {
            let ManifestRow { path, len, mtime_ns, key } = row;
            tracked.entry(path).or_insert_with(|| {
                seeded += 1;
                TrackedFile { len, mtime_ns, key, analysis: None, errors: Vec::new() }
            });
        }
        seeded
    }

    /// Writes the tracked index to the attached persistent cache's
    /// manifest for the next process to seed from, unless it renders
    /// to the text this engine last stored: a delta that changed no row
    /// (a poll with no edit) writes nothing. Best-effort, like
    /// every cache write: returns whether the stored manifest is
    /// current. A failed write forgets the last text, so the next call
    /// writes again.
    pub fn save_tracked_manifest(&self) -> bool {
        let Some(pc) = &self.persistent else {
            return false;
        };
        let mut rows: Vec<ManifestRow> = {
            let tracked = self.tracked.lock().expect("tracked index poisoned");
            tracked
                .iter()
                .map(|(path, f)| ManifestRow {
                    path: path.clone(),
                    len: f.len,
                    mtime_ns: f.mtime_ns,
                    key: f.key,
                })
                .collect()
        };
        let text = render_manifest(&mut rows);
        let mut saved = self.saved_manifest.lock().expect("saved manifest poisoned");
        if saved.as_deref() == Some(text.as_str()) {
            return true;
        }
        let wrote = pc.store_manifest(&text);
        *saved = wrote.then_some(text);
        wrote
    }

    /// Paths currently in the tracked index.
    pub fn tracked_files(&self) -> usize {
        self.tracked.lock().expect("tracked index poisoned").len()
    }

    /// Reads, analyzes, and (re-)registers one path in the tracked
    /// index. Stat runs *before* the read: if the file changes between
    /// the two, the recorded mtime is older than the analyzed content,
    /// so the next rescan errs toward re-analysis, never staleness.
    fn read_and_track(&self, path: &str) -> TrackedOutcome {
        self.read_and_track_partial(path, None)
    }

    /// [`read_and_track`](Self::read_and_track), with the file's prior
    /// analysis available for a function-granular partial re-analysis:
    /// when the new text parses and only some functions changed, just
    /// the invalidation cone is re-walked and everything else hydrates
    /// from `old`.
    fn read_and_track_partial(&self, path: &str, old: Option<&CachedAnalysis>) -> TrackedOutcome {
        let meta = fs::metadata(path);
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                self.tracked.lock().expect("tracked index poisoned").remove(path);
                return TrackedOutcome {
                    path: path.to_owned(),
                    analysis: None,
                    errors: Vec::new(),
                    read_error: Some(e.to_string()),
                    reanalyzed: false,
                    cache_corrupt: false,
                    functions_reanalyzed: 0,
                    functions_reused: 0,
                };
            }
        };
        let (len, mtime_ns) =
            meta.map_or((text.len() as u64, 0), |m| (m.len(), Self::mtime_ns(&m)));
        let key = source_fingerprint(&text);
        let (outcome, functions_reanalyzed, functions_reused) =
            self.analyze_source_partial(&text, old);
        let SourceOutcome {
            report,
            summaries,
            finding_pool,
            errors,
            from_disk_cache,
            from_source_cache,
            cache_corrupt,
        } = outcome;
        let analysis =
            report.map(|report| Arc::new(CachedAnalysis { report, summaries, finding_pool }));
        self.tracked.lock().expect("tracked index poisoned").insert(
            path.to_owned(),
            TrackedFile { len, mtime_ns, key, analysis: analysis.clone(), errors: errors.clone() },
        );
        TrackedOutcome {
            path: path.to_owned(),
            analysis,
            errors,
            read_error: None,
            reanalyzed: !(from_disk_cache || from_source_cache),
            cache_corrupt,
            functions_reanalyzed,
            functions_reused,
        }
    }

    /// Modification time as nanoseconds since the Unix epoch (0 when
    /// the platform reports none — length alone then decides drift).
    fn mtime_ns(meta: &fs::Metadata) -> u128 {
        meta.modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos())
    }

    /// Drains `items` through the worker pool, preserving input order,
    /// and accounts the memo and the disk tier over the run. `findings`
    /// in the returned stats is left at 0 for the caller to fill.
    fn run_queue<I: Sync, R: Send>(
        &self,
        items: &[I],
        jobs: usize,
        work: impl Fn(&I) -> R + Sync,
    ) -> (Vec<R>, BatchStats) {
        let start_ns = self.clock.now_ns();
        let before = self.counters_snapshot();
        let persistent_before = self.persistent_snapshot();

        let workers = jobs.max(1).min(items.len().max(1));
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let result = work(item);
                    results.lock().expect("batch results poisoned")[i] = Some(result);
                });
            }
        });
        let results: Vec<R> = results
            .into_inner()
            .expect("batch results poisoned")
            .into_iter()
            .map(|slot| slot.expect("every queue slot is filled before the scope ends"))
            .collect();

        let persistent_after = self.persistent_snapshot();
        let after = self.counters_snapshot();
        let stats = BatchStats {
            programs: items.len(),
            findings: 0,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            elapsed: Duration::from_nanos(self.clock.now_ns().saturating_sub(start_ns)),
            jobs: workers,
            parses: after.parses - before.parses,
            persistent_hits: persistent_after.0 - persistent_before.0,
            persistent_misses: persistent_after.1 - persistent_before.1,
            persistent_corrupt: persistent_after.2 - persistent_before.2,
            persistent_write_errors: persistent_after.3 - persistent_before.3,
        };
        if let Some(t) = &self.trace {
            t.count("batch.programs", items.len() as u64);
            t.record_pass("batch.scan", stats.elapsed);
        }
        (results, stats)
    }

    fn persistent_snapshot(&self) -> (u64, u64, u64, u64) {
        self.persistent.as_ref().map_or((0, 0, 0, 0), |pc| {
            let s = pc.stats();
            (s.hits, s.misses, s.corrupt, s.write_errors)
        })
    }

    /// A consistent copy of the live counters.
    fn counters_snapshot(&self) -> EngineCounters {
        *self.counters.lock().expect("engine counters poisoned")
    }

    /// Applies one counter update atomically with respect to snapshots.
    fn bump(&self, update: impl FnOnce(&mut EngineCounters)) {
        update(&mut self.counters.lock().expect("engine counters poisoned"));
    }

    /// Runs the analyzer on a parsed program, bypassing the memo and
    /// the disk tier but sharing the engine's summary store.
    fn analyze_uncached(&self, program: &Program) -> CachedAnalysis {
        self.analyzer.analyze_full(program, self.trace.as_deref(), Some(&self.summary_store))
    }

    /// Probes the memo. A hit counts one lookup and one hit; a miss
    /// counts nothing until the caller commits to an analysis
    /// ([`count_miss`](Self::count_miss)), so an input served from the
    /// disk tier is neither.
    fn memo_get(&self, key: MemoKey) -> Option<CachedAnalysis> {
        let hit = self.memo.lock().expect("memo poisoned").get(&key).cloned()?;
        self.bump(|c| {
            c.lookups += 1;
            c.hits += 1;
        });
        if let Some(t) = &self.trace {
            t.count("batch.cache-hit", 1);
        }
        Some(hit)
    }

    /// Counts one memo lookup that ends in a fresh analysis.
    fn count_miss(&self) {
        self.bump(|c| {
            c.lookups += 1;
            c.misses += 1;
        });
        if let Some(t) = &self.trace {
            t.count("batch.cache-miss", 1);
        }
    }

    fn memo_put(&self, key: MemoKey, entry: &CachedAnalysis) {
        self.memo.lock().expect("memo poisoned").insert(key, entry.clone());
    }

    /// Analyzes one parsed program through the memo. The lock is
    /// dropped during analysis: concurrent misses on the same key may
    /// both analyze (identical, deterministic results), but workers
    /// never serialize behind a slow analysis.
    fn analyze_cached(&self, program: &Program) -> CachedAnalysis {
        let key = MemoKey::Program(fingerprint(program));
        if let Some(hit) = self.memo_get(key) {
            return hit;
        }
        self.count_miss();
        let entry = self.analyze_uncached(program);
        self.memo_put(key, &entry);
        entry
    }

    /// Analyzes one source text through every cache tier: the memo
    /// first (fastest, and the one a resident daemon stays warm on),
    /// then the on-disk tier, then parse and analysis.
    fn analyze_source(&self, source: &str) -> SourceOutcome {
        self.analyze_source_partial(source, None).0
    }

    /// [`analyze_source`](Self::analyze_source), attempting a
    /// function-granular partial re-analysis against `old` when every
    /// cache tier misses. Returns the outcome plus the
    /// `(functions_reanalyzed, functions_reused)` pair for delta
    /// accounting — `(0, all)` for any tier hit (a touched file whose
    /// content a warm tier already knows reuses every function without
    /// a walk), `(all, 0)` for a whole-file analysis — so the pair
    /// always sums to the file's function count.
    fn analyze_source_partial(
        &self,
        source: &str,
        old: Option<&CachedAnalysis>,
    ) -> (SourceOutcome, usize, usize) {
        let key = source_fingerprint(source);
        if let Some(hit) = self.memo_get(MemoKey::Source(key)) {
            let reused = hit.summaries.len();
            let outcome = SourceOutcome { from_source_cache: true, ..SourceOutcome::analyzed(hit) };
            return (outcome, 0, reused);
        }
        let mut cache_corrupt = false;
        if let Some(pc) = &self.persistent {
            match pc.get(key) {
                CacheLookup::Hit(entry) => {
                    if let Some(t) = &self.trace {
                        t.count("batch.persistent-hit", 1);
                    }
                    self.memo_put(MemoKey::Source(key), &entry);
                    let reused = entry.summaries.len();
                    let outcome =
                        SourceOutcome { from_disk_cache: true, ..SourceOutcome::analyzed(entry) };
                    return (outcome, 0, reused);
                }
                CacheLookup::Corrupt => {
                    cache_corrupt = true;
                    if let Some(t) = &self.trace {
                        t.count("batch.persistent-corrupt", 1);
                    }
                }
                CacheLookup::Miss => {
                    if let Some(t) = &self.trace {
                        t.count("batch.persistent-miss", 1);
                    }
                }
            }
        }
        self.bump(|c| c.parses += 1);
        let program = match parse_program_recovering(source) {
            Ok(program) => program,
            Err(errors) => {
                return (SourceOutcome { cache_corrupt, ..SourceOutcome::unparsed(errors) }, 0, 0)
            }
        };
        // Every tier missed: try the cone-only partial path before
        // paying for a whole-file analysis. The result is byte-identical
        // either way (asserted in debug builds), so it feeds the same
        // caches.
        self.count_miss();
        let partial =
            old.and_then(|o| self.analyzer.analyze_partial(&program, o, Some(&self.summary_store)));
        let (entry, reanalyzed, reused) = match partial {
            Some(p) => {
                if let Some(t) = &self.trace {
                    t.count("batch.partial-analysis", 1);
                }
                (p.analysis, p.functions_reanalyzed as usize, p.functions_reused as usize)
            }
            None => {
                let entry = self.analyze_uncached(&program);
                let reanalyzed = entry.summaries.len();
                (entry, reanalyzed, 0)
            }
        };
        self.memo_put(MemoKey::Source(key), &entry);
        if let Some(pc) = &self.persistent {
            pc.put(key, &entry);
        }
        (SourceOutcome { cache_corrupt, ..SourceOutcome::analyzed(entry) }, reanalyzed, reused)
    }

    /// Lifetime hit/miss/parse counters and the current memo size.
    /// The counters come from one consistent snapshot, so
    /// `hits + misses == lookups` holds even while requests race this
    /// read.
    pub fn cache_stats(&self) -> CacheStats {
        let counters = self.counters_snapshot();
        CacheStats {
            hits: counters.hits,
            misses: counters.misses,
            lookups: counters.lookups,
            entries: self.memo.lock().expect("memo poisoned").len(),
            parses: counters.parses,
        }
    }

    /// Drops every analysis in the memo (counters are kept; the on-disk
    /// tier is untouched).
    pub fn clear_cache(&self) {
        self.memo.lock().expect("memo poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalyzerConfig;
    use crate::builder::ProgramBuilder;
    use crate::ir::{Expr, Span, Ty};

    fn vulnerable(name: &str) -> Program {
        let mut p = ProgramBuilder::new(name);
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        p.build()
    }

    fn safe(name: &str) -> Program {
        let mut p = ProgramBuilder::new(name);
        p.class("Student", 16, None, false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "Student");
        f.finish();
        p.build()
    }

    fn mixed(n: usize) -> Vec<Program> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    vulnerable(&format!("vuln-{i}"))
                } else {
                    safe(&format!("safe-{i}"))
                }
            })
            .collect()
    }

    #[test]
    fn reports_come_back_in_input_order() {
        let programs = mixed(37);
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(8);
        let reports = engine.scan(&programs);
        assert_eq!(reports.len(), programs.len());
        for (program, report) in programs.iter().zip(&reports) {
            assert_eq!(program.name, report.program);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let programs = mixed(24);
        let serial = BatchEngine::new(Analyzer::new()).with_jobs(1).scan(&programs);
        let parallel = BatchEngine::new(Analyzer::new()).with_jobs(8).scan(&programs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn second_scan_is_all_hits() {
        let programs = mixed(10);
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(4);
        let (_, first) = engine.scan_with_stats(&programs);
        assert_eq!(first.cache_misses, 10);
        assert_eq!(first.cache_hits, 0);
        let (reports, second) = engine.scan_with_stats(&programs);
        assert_eq!(second.cache_hits, 10);
        assert_eq!(second.cache_misses, 0);
        assert!((second.cache_hit_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(reports, engine.scan(&programs));
    }

    #[test]
    fn equal_programs_share_a_cache_entry() {
        // Two structurally equal programs built independently (their
        // internal HashMaps have different iteration orders) must hash
        // to the same fingerprint.
        let a = vulnerable("same");
        let b = vulnerable("same");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let engine = BatchEngine::default().with_jobs(1);
        let (_, stats) = engine.scan_with_stats(&[a, b]);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn fingerprint_separates_name_content_and_findings() {
        assert_ne!(fingerprint(&vulnerable("a")), fingerprint(&vulnerable("b")));
        assert_ne!(fingerprint(&vulnerable("a")), fingerprint(&safe("a")));
    }

    #[test]
    fn fingerprint_uses_the_full_128_bit_key_space() {
        // Collision-hazard regression: the cache key must be the widened
        // 128-bit hash, not a 64-bit value zero-extended into one.
        let fp = fingerprint(&vulnerable("wide"));
        assert_ne!(fp >> 64, 0, "high half of the key is unused");
        assert_ne!(fp & u128::from(u64::MAX), 0, "low half of the key is unused");
        assert_eq!(fp, fingerprint(&vulnerable("wide")), "fingerprint must be stable");
    }

    #[test]
    fn clear_cache_forces_reanalysis() {
        let programs = mixed(4);
        let engine = BatchEngine::default().with_jobs(2);
        engine.scan(&programs);
        engine.clear_cache();
        let (_, stats) = engine.scan_with_stats(&programs);
        assert_eq!(stats.cache_misses, 4);
        let lifetime = engine.cache_stats();
        assert_eq!(lifetime.misses, 8);
        assert_eq!(lifetime.entries, 4);
    }

    #[test]
    fn trace_collects_scan_counters() {
        let trace = Arc::new(TraceCollector::new());
        // One worker: the duplicate is deterministically a cache hit.
        let engine = BatchEngine::default().with_jobs(1).with_trace(Arc::clone(&trace));
        let programs = vec![vulnerable("same"), vulnerable("same"), safe("other")];
        engine.scan(&programs);
        let snap = trace.snapshot();
        assert_eq!(snap.counters["batch.programs"], 3);
        assert_eq!(snap.counters["batch.cache-hit"], 1);
        assert_eq!(snap.counters["batch.cache-miss"], 2);
        assert_eq!(snap.counters["findings.oversized-placement"], 1);
        assert!(snap.passes.iter().any(|p| p.name == "batch.scan"));
        assert!(snap.passes.iter().any(|p| p.name == "analysis.walk"));
    }

    fn tmp_cache_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnx-batch-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_with_disk_cache(dir: &std::path::Path) -> BatchEngine {
        let cache = PersistentCache::open(dir, &AnalyzerConfig::default()).unwrap();
        BatchEngine::new(Analyzer::new()).with_jobs(4).with_persistent_cache(cache)
    }

    const VULN_SRC: &str = "program vuln;\n\
        class Student size 16;\n\
        class GradStudent size 32 : Student;\n\
        fn main() {\n    local stud: Student;\n    local st: ptr;\n\
        \x20   st = new (&stud) GradStudent();\n}\n";
    const SAFE_SRC: &str = "program safe;\n\
        class Student size 16;\n\
        fn main() {\n    local stud: Student;\n    local st: ptr;\n\
        \x20   st = new (&stud) Student();\n}\n";

    #[test]
    fn warm_disk_cache_skips_parse_and_analysis_across_engines() {
        let dir = tmp_cache_dir("warm");
        let sources = [VULN_SRC, SAFE_SRC];

        let cold = engine_with_disk_cache(&dir);
        let (first, stats) = cold.scan_sources_with_stats(&sources);
        assert_eq!(stats.persistent_hits, 0);
        assert_eq!(stats.persistent_misses, 2);
        assert!(first.iter().all(|o| !o.from_disk_cache));
        assert!(first[0].report.as_ref().unwrap().detected());
        assert!(!first[1].report.as_ref().unwrap().detected());

        // A fresh engine (fresh process, in effect): everything comes
        // from disk, byte-identical, without parsing anything.
        let warm = engine_with_disk_cache(&dir);
        let (second, stats) = warm.scan_sources_with_stats(&sources);
        assert_eq!(stats.persistent_hits, 2);
        assert_eq!(stats.persistent_misses, 0);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0), "memory tier untouched");
        assert!(second.iter().all(|o| o.from_disk_cache));
        assert_eq!(
            first.iter().map(|o| &o.report).collect::<Vec<_>>(),
            second.iter().map(|o| &o.report).collect::<Vec<_>>(),
        );
        assert_eq!(first[0].summaries, second[0].summaries);
        assert!(!second[0].summaries.is_empty(), "summary records survive the round-trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_failures_are_reported_and_never_cached() {
        let dir = tmp_cache_dir("parse-fail");
        let engine = engine_with_disk_cache(&dir);
        let sources = ["program broken;\nfn main( {}\n".to_string()];
        let (outcomes, _) = engine.scan_sources_with_stats(&sources);
        assert!(outcomes[0].report.is_none());
        assert!(!outcomes[0].errors.is_empty());
        // Second scan: still a disk miss — the failure was not stored.
        let (outcomes, stats) = engine.scan_sources_with_stats(&sources);
        assert!(!outcomes[0].from_disk_cache);
        assert_eq!(stats.persistent_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_reanalysis_and_heal() {
        // Fresh engines per scan: the in-memory memo would otherwise
        // (correctly) answer before the disk probe, and this
        // test is about the cross-process path where memory is cold.
        let dir = tmp_cache_dir("corrupt");
        let sources = [VULN_SRC];
        engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);

        // Smash the entry on disk.
        let key = source_fingerprint(VULN_SRC);
        let path = dir.join(format!("{key:032x}.pnc"));
        std::fs::write(&path, b"PNXCACHEgarbage").unwrap();

        let (outcomes, stats) = engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);
        assert!(outcomes[0].cache_corrupt);
        assert!(!outcomes[0].from_disk_cache);
        assert_eq!(stats.persistent_corrupt, 1);
        assert_eq!(stats.parses, 1, "corrupt entry forces a re-parse");
        assert!(outcomes[0].report.as_ref().unwrap().detected(), "re-analyzed from source");

        // The rewrite healed the entry: next (cold-memory) scan is a
        // clean disk hit.
        let (outcomes, stats) = engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);
        assert!(outcomes[0].from_disk_cache);
        assert_eq!(stats.persistent_corrupt, 0);
        assert_eq!(stats.persistent_hits, 1);
        assert_eq!(stats.parses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_shields_a_corrupted_disk_entry_within_a_process() {
        // Same engine, same text: the memo answers without ever
        // touching the (now corrupt) disk entry — the in-memory copy is
        // current, so serving it is both correct and faster.
        let dir = tmp_cache_dir("shield");
        let engine = engine_with_disk_cache(&dir);
        engine.scan_sources_with_stats(&[VULN_SRC]);
        let key = source_fingerprint(VULN_SRC);
        std::fs::write(dir.join(format!("{key:032x}.pnc")), b"PNXCACHEgarbage").unwrap();
        let (outcomes, stats) = engine.scan_sources_with_stats(&[VULN_SRC]);
        assert!(outcomes[0].from_source_cache);
        assert_eq!(stats.persistent_corrupt, 0);
        assert_eq!(stats.parses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_scan_without_disk_cache_still_works() {
        let engine = BatchEngine::default().with_jobs(2);
        let (outcomes, stats) = engine.scan_sources_with_stats(&[VULN_SRC, VULN_SRC, SAFE_SRC]);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(stats.persistent_hits + stats.persistent_misses, 0);
        // The memo still dedups equal inputs.
        assert_eq!(stats.cache_hits + stats.cache_misses, 3);
        assert_eq!(outcomes[0].report, outcomes[1].report);
    }

    #[test]
    fn warm_source_rescan_runs_zero_parses() {
        // The daemon acceptance path: a second scan of the same texts
        // through a live engine is pure source-fingerprint hits — no
        // parser, no analyzer, no disk.
        let engine = BatchEngine::default().with_jobs(2);
        let sources = [VULN_SRC, SAFE_SRC];
        let (cold, stats) = engine.scan_sources_with_stats(&sources);
        assert_eq!(stats.parses, 2);
        let (warm, stats) = engine.scan_sources_with_stats(&sources);
        assert_eq!(stats.parses, 0, "warm rescan must not parse");
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 0);
        assert!(warm.iter().all(|o| o.from_source_cache));
        assert_eq!(
            cold.iter().map(|o| &o.report).collect::<Vec<_>>(),
            warm.iter().map(|o| &o.report).collect::<Vec<_>>(),
        );
        let lifetime = engine.cache_stats();
        assert_eq!(lifetime.parses, 2);
        assert_eq!(lifetime.entries, 2, "one memo entry per text, no second copy");
    }

    #[test]
    fn program_and_source_scans_never_share_a_memo_entry() {
        // A built program carries no spans; the same program parsed from
        // its pretty form does. Scanning one must not serve the other.
        let program = vulnerable("shared-key");
        let text = crate::pretty::pretty(&program);
        let engine = BatchEngine::default().with_jobs(1);
        engine.scan(std::slice::from_ref(&program));

        let (outcomes, stats) = engine.scan_sources_with_stats(&[text.as_str()]);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1), "the source probe misses");
        assert!(!outcomes[0].from_source_cache);
        let (fresh, _) = BatchEngine::default().scan_sources_with_stats(&[text.as_str()]);
        assert_eq!(outcomes, fresh, "the source outcome is the fresh engine's");
        assert_eq!(spans(&outcomes[0]), spans(&fresh[0]));
        assert!(spans(&outcomes[0]).iter().all(Option::is_some), "parsed sites carry spans");

        // Nor the reverse: the program scan still hits its own entry.
        let (_, stats) = engine.scan_with_stats(std::slice::from_ref(&program));
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 0));
        assert_eq!(engine.cache_stats().entries, 2);
    }

    #[test]
    fn texts_differing_only_in_layout_keep_their_own_spans() {
        // Equal programs, different spans: each text is its own entry.
        let shifted = format!("\n\n\n{VULN_SRC}");
        let engine = BatchEngine::default().with_jobs(1);
        let (outcomes, stats) = engine.scan_sources_with_stats(&[VULN_SRC, shifted.as_str()]);
        assert_eq!(stats.cache_misses, 2);
        let (fresh, _) = BatchEngine::default().scan_sources_with_stats(&[shifted.as_str()]);
        assert_eq!(outcomes[1], fresh[0]);
        assert_eq!(spans(&outcomes[1]), spans(&fresh[0]));
        assert_ne!(spans(&outcomes[0]), spans(&outcomes[1]), "the spans moved three lines");
    }

    /// Every finding's source span. `Site` equality ignores spans, so a
    /// comparison that must see them compares these too.
    fn spans(outcome: &SourceOutcome) -> Vec<Option<Span>> {
        outcome.report.iter().flat_map(|r| &r.findings).map(|f| f.site.span).collect()
    }

    #[test]
    fn per_scan_jobs_override_matches_engine_default() {
        // Three distinct keys: no two workers can race one memo entry,
        // so every outcome, provenance flags included, is deterministic.
        let again = VULN_SRC.replace("program vuln", "program vuln_again");
        let engine = BatchEngine::default().with_jobs(1);
        let sources = [VULN_SRC, SAFE_SRC, again.as_str()];
        let (default_run, _) = engine.scan_sources_with_stats(&sources);
        engine.clear_cache();
        let (override_run, stats) = engine.scan_sources_with_stats_jobs(&sources, 8);
        assert_eq!(stats.jobs, 3, "worker count clamps to the input count");
        assert_eq!(default_run, override_run);
    }

    /// A corpus on disk: file i is vulnerable when i is odd.
    fn write_corpus(dir: &std::path::Path, n: usize) -> Vec<String> {
        std::fs::create_dir_all(dir).unwrap();
        (0..n)
            .map(|i| {
                let path = dir.join(format!("file-{i:03}.pnx"));
                let src = if i % 2 == 1 { VULN_SRC } else { SAFE_SRC };
                std::fs::write(&path, src.replace("program ", &format!("program f{i}_"))).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect()
    }

    fn reports_of(outcomes: &[TrackedOutcome]) -> Vec<Option<Report>> {
        outcomes.iter().map(|o| o.analysis.as_ref().map(|a| a.report.clone())).collect()
    }

    #[test]
    fn rescan_delta_reanalyzes_only_the_edited_file() {
        let dir = tmp_cache_dir("delta-one-edit");
        let paths = write_corpus(&dir.join("src"), 12);
        let engine = BatchEngine::default().with_jobs(2);
        let (cold, stats) = engine.scan_paths_tracked(&paths);
        assert_eq!(stats.parses, 12);

        // No edits: everything served from the tracked index.
        let (same, stats, delta) = engine.rescan_delta(&paths, None);
        assert_eq!(stats.parses, 0, "no-op rescan must not parse");
        assert_eq!(delta.unchanged_files, 12);
        assert_eq!(delta.changed_files + delta.added_files, 0);
        assert_eq!(reports_of(&cold), reports_of(&same));
        assert!(same.iter().all(|o| !o.reanalyzed));

        // Edit one file (flip it to vulnerable) and rescan.
        std::fs::write(&paths[0], VULN_SRC).unwrap();
        let (warm, stats, delta) = engine.rescan_delta(&paths, None);
        assert_eq!(stats.parses, 1, "only the edited file parses");
        assert_eq!(delta.changed_files, 1);
        assert_eq!(delta.unchanged_files, 11);
        assert!(warm[0].reanalyzed);
        assert!(warm[0].analysis.as_ref().unwrap().report.detected());
        assert!(delta.cone_functions >= 1);

        // The delta result equals a from-scratch scan of the same tree.
        let fresh = BatchEngine::default().with_jobs(2);
        let (full, _) = fresh.scan_paths_tracked(&paths);
        assert_eq!(reports_of(&warm), reports_of(&full));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rescan_delta_tracks_added_removed_and_hinted_files() {
        let dir = tmp_cache_dir("delta-add-remove");
        let mut paths = write_corpus(&dir.join("src"), 4);
        let engine = BatchEngine::default().with_jobs(2);
        engine.scan_paths_tracked(&paths);

        // Drop one path from the list, add a new file, hint another.
        let removed = paths.remove(3);
        let added = dir.join("src").join("file-new.pnx");
        std::fs::write(&added, VULN_SRC).unwrap();
        paths.push(added.to_string_lossy().into_owned());
        let hint = vec![paths[1].clone()];
        let (outcomes, _, delta) = engine.rescan_delta(&paths, Some(&hint));
        assert_eq!(delta.added_files, 1);
        assert_eq!(delta.removed_files, 1);
        assert_eq!(delta.changed_files, 1, "the hinted file re-analyzes");
        assert_eq!(delta.unchanged_files, 2);
        assert_eq!(delta.tracked_files, 4);
        // The hinted file is re-read, but its unchanged content hits
        // the in-memory memo — no parse, same bytes out.
        assert!(!outcomes[1].reanalyzed, "hinted-but-identical content serves from cache");
        assert!(outcomes[3].analysis.as_ref().unwrap().report.detected(), "added file scanned");
        assert!(!std::path::Path::new(&removed).to_string_lossy().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the hint contract: a hinted rescan trusts the client and
    /// skips the stat sweep, so an edit the client did not name stays
    /// stale until the next unhinted rescan catches it.
    #[test]
    fn rescan_delta_hint_is_trusted_and_unhinted_rescan_heals() {
        let dir = tmp_cache_dir("delta-hint-trust");
        let paths = write_corpus(&dir.join("src"), 3);
        let engine = BatchEngine::default().with_jobs(1);
        let (cold, _) = engine.scan_paths_tracked(&paths);
        assert!(!cold[0].analysis.as_ref().unwrap().report.detected(), "file 0 starts safe");

        // Edit file 0 but hint only file 1: the edit is invisible.
        std::fs::write(&paths[0], VULN_SRC).unwrap();
        let hint = vec![paths[1].clone()];
        let (outcomes, _, delta) = engine.rescan_delta(&paths, Some(&hint));
        assert_eq!(delta.changed_files, 1, "only the hinted file re-ran");
        assert!(
            !outcomes[0].analysis.as_ref().unwrap().report.detected(),
            "unhinted edit serves the prior verdict — the client owns change detection"
        );

        // The unhinted (stat-sweep) rescan finds the drift and heals.
        let (outcomes, _, delta) = engine.rescan_delta(&paths, None);
        assert_eq!(delta.changed_files, 1);
        assert!(outcomes[0].analysis.as_ref().unwrap().report.detected(), "drift re-analyzed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rescan_delta_surfaces_read_errors_like_a_full_scan() {
        let dir = tmp_cache_dir("delta-unreadable");
        let paths = write_corpus(&dir.join("src"), 2);
        let engine = BatchEngine::default().with_jobs(1);
        engine.scan_paths_tracked(&paths);
        std::fs::remove_file(&paths[0]).unwrap();
        let (outcomes, _, delta) = engine.rescan_delta(&paths, None);
        assert!(outcomes[0].read_error.is_some());
        assert!(outcomes[0].analysis.is_none());
        assert_eq!(delta.changed_files, 1, "a vanished file classifies as changed");
        assert_eq!(delta.tracked_files, 1, "the unreadable file is untracked again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_carries_the_tracked_index_across_engines() {
        let dir = tmp_cache_dir("delta-manifest");
        let paths = write_corpus(&dir.join("src"), 6);
        let cache_dir = dir.join("cache");

        let first = engine_with_disk_cache(&cache_dir);
        let (cold, stats) = first.scan_paths_tracked(&paths);
        assert_eq!(stats.parses, 6);
        assert!(first.save_tracked_manifest());

        // A fresh engine (fresh process, in effect) seeds from the
        // manifest: the unchanged world comes from disk with zero
        // parses, lazily hydrated through the persistent tier.
        let second = engine_with_disk_cache(&cache_dir);
        assert_eq!(second.seed_tracked_from_manifest(), 6);
        std::fs::write(&paths[2], VULN_SRC).unwrap();
        let (warm, stats, delta) = second.rescan_delta(&paths, None);
        assert_eq!(delta.unchanged_files, 5);
        assert_eq!(delta.changed_files, 1);
        assert_eq!(stats.parses, 1, "only the edit parses in the new process");
        assert_eq!(
            stats.persistent_hits, 5,
            "unchanged files hydrate from disk; the edit's old entry is read uncounted"
        );
        for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
            if i != 2 {
                assert_eq!(
                    reports_of(std::slice::from_ref(a)),
                    reports_of(std::slice::from_ref(b))
                );
            }
        }
        assert!(warm[2].analysis.as_ref().unwrap().report.detected());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_seeded_entry_with_a_lost_cache_entry_reanalyzes() {
        let dir = tmp_cache_dir("delta-lost-entry");
        let paths = write_corpus(&dir.join("src"), 2);
        let cache_dir = dir.join("cache");
        let first = engine_with_disk_cache(&cache_dir);
        first.scan_paths_tracked(&paths);
        assert!(first.save_tracked_manifest());

        // Wipe the .pnc entries but keep the manifest: the promise is
        // broken, and the rescan must fall back to re-analysis.
        for entry in std::fs::read_dir(&cache_dir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "pnc") {
                std::fs::remove_file(p).unwrap();
            }
        }
        let second = engine_with_disk_cache(&cache_dir);
        second.seed_tracked_from_manifest();
        let (outcomes, stats, delta) = second.rescan_delta(&paths, None);
        assert_eq!(delta.changed_files, 2);
        assert_eq!(stats.parses, 2);
        assert!(outcomes.iter().all(|o| o.analysis.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_snapshots_are_never_torn_under_concurrent_requests() {
        // The pncheckd-stats/1 regression: counters sampled while
        // requests mutate them must always satisfy
        // hits + misses == lookups. With the old independent atomics a
        // reader could see the hit increment but not yet the lookup's.
        let engine = Arc::new(BatchEngine::default().with_jobs(1));
        let sources: Vec<String> =
            (0..16).map(|i| SAFE_SRC.replace("program ", &format!("program t{i}_"))).collect();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        thread::scope(|scope| {
            for _ in 0..2 {
                let engine = Arc::clone(&engine);
                let sources = sources.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        engine.scan_sources_with_stats_jobs(&sources, 2);
                    }
                });
            }
            // Sample only once a scan has counted a lookup, so the 500
            // samples provably overlap live scans.
            while engine.cache_stats().lookups == 0 {
                thread::yield_now();
            }
            let mut sampled = 0u64;
            while sampled < 500 {
                let snap = engine.cache_stats();
                assert_eq!(snap.hits + snap.misses, snap.lookups, "torn stats snapshot: {snap:?}");
                sampled += 1;
            }
            stop.store(true, Ordering::Relaxed);
        });
        let final_snap = engine.cache_stats();
        assert_eq!(final_snap.hits + final_snap.misses, final_snap.lookups);
        assert!(final_snap.lookups > 0);
    }

    /// A directory backend that counts manifest writes and fails the
    /// first one.
    #[derive(Debug)]
    struct CountingBackend {
        inner: crate::backend::DirBackend,
        manifest_writes: Arc<AtomicU64>,
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl crate::backend::CacheBackend for CountingBackend {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn load(&self, key: u128) -> Option<Vec<u8>> {
            self.inner.load(key)
        }

        fn store(&self, key: u128, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.store(key, bytes)
        }

        fn load_manifest(&self) -> Option<String> {
            self.inner.load_manifest()
        }

        fn store_manifest(&self, text: &str) -> std::io::Result<()> {
            self.manifest_writes.fetch_add(1, Ordering::Relaxed);
            if self.fail_next.swap(false, Ordering::Relaxed) {
                return Err(std::io::Error::other("injected failure"));
            }
            self.inner.store_manifest(text)
        }
    }

    #[test]
    fn an_unchanged_manifest_is_not_rewritten() {
        let dir = tmp_cache_dir("manifest-writes");
        let paths = write_corpus(&dir.join("src"), 4);
        let cache_dir = dir.join("cache");
        let writes = Arc::new(AtomicU64::new(0));
        let backend = CountingBackend {
            inner: crate::backend::DirBackend::open(&cache_dir).unwrap(),
            manifest_writes: Arc::clone(&writes),
            fail_next: std::sync::atomic::AtomicBool::new(true),
        };
        let config = AnalyzerConfig::default();
        let cache = PersistentCache::with_backend(&cache_dir, &config, Box::new(backend));
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(1).with_persistent_cache(cache);
        let count = || writes.load(Ordering::Relaxed);

        engine.delta_scan(&paths, None, 1);
        assert_eq!((count(), engine.persistent_cache().unwrap().stats().write_errors), (1, 1));
        engine.delta_scan(&paths, None, 1);
        assert_eq!(count(), 2, "the failed first write is redone by a no-op delta");
        engine.delta_scan(&paths, None, 1);
        assert_eq!(count(), 2, "two deltas over an unchanged tree write the manifest once");

        std::fs::write(&paths[0], VULN_SRC).unwrap();
        engine.delta_scan(&paths, None, 1);
        assert_eq!(count(), 3, "an edit changes a row");
        engine.delta_scan(&paths, None, 1);
        assert_eq!(count(), 3);

        // What is on disk is the current index: a new engine seeds
        // every path from it and serves the tree unchanged.
        let fresh = engine_with_disk_cache(&cache_dir);
        assert_eq!(fresh.seed_tracked_from_manifest(), 4);
        let (_, stats, delta) = fresh.rescan_delta(&paths, None);
        assert_eq!((stats.parses, delta.unchanged_files), (0, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = BatchEngine::default();
        let (reports, stats) = engine.scan_with_stats(&[]);
        assert!(reports.is_empty());
        assert_eq!(stats.programs, 0);
        assert_eq!(stats.programs_per_sec(), 0.0);
        assert_eq!(stats.cache_hit_rate(), 0.0);
    }
}
