//! `pncheck` — the placement-new vulnerability checker as a CLI.
//!
//! ```text
//! usage: pncheck [OPTIONS] PATH...
//!        pncheck [OPTIONS] -              (read one program from stdin)
//!
//!   PATH may be a .pnx file or a directory, which is scanned
//!   recursively for *.pnx files (in sorted path order). Inputs are
//!   canonicalized and deduplicated, so a file named both directly and
//!   via an enclosing directory is scanned once. Any other argument
//!   that starts with `-` is an option, and an unknown one is a usage
//!   error: write a path that starts with `-` as `./-name`.
//!
//!   --fix                   print the automatically remediated program
//!                           (text format only)
//!   --format FORMAT         output format: text (default), json
//!                           (the pncheck-report/1 envelope), or sarif
//!                           (SARIF 2.1.0)
//!   --min-severity LEVEL    report only findings at LEVEL or above
//!                           (info|warning|error; default info)
//!   --disable KIND          switch one finding kind off (repeatable);
//!                           both filter finished reports, so cache
//!                           entries serve any filter
//!   --jobs N                scan with N worker threads
//!                           (default: available parallelism)
//!   --cache-dir DIR         persist analysis results in DIR across
//!                           runs, keyed on file content: a warm rescan
//!                           of unchanged files skips parsing and
//!                           analysis entirely. Corrupt or stale entries
//!                           are re-analyzed (with a warning), never
//!                           trusted.
//!   --delta                 incremental rescan against --cache-dir:
//!                           classify each input by stat against the
//!                           cache's delta manifest, re-analyze only
//!                           changed files, and serve the rest from
//!                           cache with zero reads and zero parses.
//!                           Output is byte-identical to a full scan of
//!                           the same tree. The manifest self-primes:
//!                           the first --delta run records the tree and
//!                           later runs go incremental. Requires
//!                           --cache-dir; incompatible with --fix and
//!                           stdin input.
//!   --stats                 print scan throughput and cache counters
//!                           (both the in-memory and the on-disk tier)
//!                           to stderr, then the analyzer's trace: pass
//!                           timings and the counters the daemon's
//!                           stats op prints under the same names
//!                           (analyses, summaries computed and applied,
//!                           findings_by_kind before the filter); with
//!                           --format json, also embed both in the
//!                           envelope
//! ```
//!
//! Exit status: 0 when no warning-level findings, 1 when any program has
//! them, 2 on usage errors or when any file failed to read or parse.
//! A bad file does not abort the run: the parser recovers and reports
//! *all* leading syntax errors with line and column, the remaining files
//! are still scanned, and the exit code is 2.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::ExitCode;

use pnew_detector::cliopts::{self, CommonOpts};
use pnew_detector::emit::{self, FileRecord, OutputFormat};
use pnew_detector::trace::TraceReport;
use pnew_detector::{
    parse_program_recovering, Analyzer, AnalyzerConfig, BatchEngine, BatchStats, Fixer,
    PersistentCache, ReportFilter,
};

const USAGE: &str = "usage: pncheck [--fix] [--format text|json|sarif] [--min-severity LEVEL] [--disable KIND]... [--jobs N] [--cache-dir DIR] [--delta] [--stats] PATH... | -\n(write a path that starts with '-' as ./-name)";

/// One input after reading: raw text, not yet parsed. The scan hands
/// sources to the batch engine unparsed, so a warm `--cache-dir` hit
/// never runs the parser at all.
struct SourceFile {
    path: String,
    source: String,
}

fn main() -> ExitCode {
    let mut fix = false;
    let mut stats = false;
    let mut delta = false;
    let mut opts = CommonOpts::default();
    let mut cache_dir: Option<PathBuf> = None;
    let mut inputs = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(result) = opts.accept(&arg, &mut args) {
            if let Err(e) = result {
                eprintln!("pncheck: {e}");
                return ExitCode::from(2);
            }
            continue;
        }
        match arg.as_str() {
            "--fix" => fix = true,
            "--stats" => stats = true,
            "--delta" => delta = true,
            "--cache-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("pncheck: --cache-dir needs a directory");
                    return ExitCode::from(2);
                };
                cache_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') && other != "-" => {
                eprintln!("pncheck: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => inputs.push(arg),
        }
    }
    let CommonOpts { jobs, format, filter } = opts;
    if inputs.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if fix && format != OutputFormat::Text {
        eprintln!("pncheck: --fix is only supported with --format text");
        return ExitCode::from(2);
    }
    if delta {
        if cache_dir.is_none() {
            eprintln!("pncheck: --delta requires --cache-dir");
            return ExitCode::from(2);
        }
        if fix {
            eprintln!("pncheck: --delta is incompatible with --fix");
            return ExitCode::from(2);
        }
        if inputs.iter().any(|i| i == "-") {
            eprintln!("pncheck: --delta scans paths, not stdin");
            return ExitCode::from(2);
        }
    }

    // An unusable --cache-dir is a configuration error, not a
    // degradation: failing fast (before any file is read) keeps CI
    // pipelines from silently running uncached forever. With --format
    // json the failure still produces a parseable envelope on stdout.
    let persistent = match &cache_dir {
        Some(dir) => match PersistentCache::open(dir, &AnalyzerConfig::default()) {
            Ok(pc) => Some(pc),
            Err(e) => {
                let message = format!("cannot open cache dir {}: {e}", dir.display());
                eprintln!("pncheck: error: {message}");
                if format == OutputFormat::Json {
                    print!("{}", emit::render_error_json("cache-dir-unusable", &message));
                }
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let mut had_errors = false;
    let (paths, expand_errors) = cliopts::expand_inputs(&inputs);
    for e in expand_errors {
        eprintln!("pncheck: {e}");
        had_errors = true;
    }

    let mut engine = BatchEngine::new(Analyzer::new());
    if let Some(n) = jobs {
        engine = engine.with_jobs(n);
    }
    if let Some(pc) = persistent {
        engine = engine.with_persistent_cache(pc);
    }
    if delta {
        let tail = Tail { format, stats, disk: true, fix: None };
        return run_delta(&paths, &engine, &filter, &tail, had_errors);
    }

    // Read every input. Bad files are reported with their path; the rest
    // still get scanned. `unreadable` counts inputs that never became a
    // SourceFile at all, so the stats line can report every errored file
    // exactly once.
    let mut unreadable = 0usize;
    let mut files: Vec<SourceFile> = Vec::with_capacity(paths.len());
    for path in paths {
        let source = if path == "-" {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("pncheck: cannot read stdin");
                had_errors = true;
                unreadable += 1;
                continue;
            }
            s
        } else {
            match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pncheck: {path}: {e}");
                    had_errors = true;
                    unreadable += 1;
                    continue;
                }
            }
        };
        files.push(SourceFile { path, source });
    }

    // The engine scans raw sources, so warm disk-cache hits skip parsing
    // entirely.
    let sources: Vec<&str> = files.iter().map(|f| f.source.as_str()).collect();
    let (outcomes, scan_stats) = engine.scan_sources_with_stats(&sources);
    let mut records: Vec<FileRecord> = files
        .iter()
        .zip(outcomes)
        .map(|(f, o)| {
            for e in &o.errors {
                eprintln!("pncheck: {}: {e}", f.path);
                had_errors = true;
            }
            if o.cache_corrupt {
                eprintln!("pncheck: warning: corrupt cache entry for {}; re-analyzed", f.path);
            }
            FileRecord { path: f.path.clone(), report: o.report, errors: o.errors }
        })
        .collect();
    let findings = emit::filter_records(&mut records, &filter);
    let scan = (BatchStats { findings, ..scan_stats }, engine.trace_report());
    let tail =
        Tail { format, stats, disk: cache_dir.is_some(), fix: fix.then_some(files.as_slice()) };
    tail.finish(&records, &scan, unreadable, had_errors, None)
}

/// How `main`'s full scan and `--delta` report a finished scan: the
/// rendered records on stdout, the `--stats` lines on stderr, and the
/// exit status.
struct Tail<'a> {
    format: OutputFormat,
    stats: bool,
    /// The stats line reports the disk tier (`--cache-dir`; always
    /// under `--delta`).
    disk: bool,
    /// `--fix`: each record's source, remediated and printed after its
    /// report (text format only).
    fix: Option<&'a [SourceFile]>,
}

impl Tail<'_> {
    /// Renders `records` and returns the exit status. `scan` is the
    /// scan's stats and the engine's trace; `unreadable` counts the
    /// inputs that never became a record; `delta_line` is the `--delta`
    /// accounting printed after the stats line.
    fn finish(
        &self,
        records: &[FileRecord],
        (s, trace): &(BatchStats, TraceReport),
        unreadable: usize,
        had_errors: bool,
        delta_line: Option<String>,
    ) -> ExitCode {
        // A dying cache must not look like a working one: warn once per
        // scan when any entry failed to persist.
        if s.persistent_write_errors > 0 {
            eprintln!(
                "pncheck: warning: {} cache write error(s); those results were not persisted",
                s.persistent_write_errors
            );
        }

        // Errored files = unreadable inputs + files that read but failed
        // to parse. Neither kind ever produces a report, so the count is
        // exact regardless of --jobs.
        let errored_files = unreadable + records.iter().filter(|r| r.report.is_none()).count();

        if let Some(sources) = self.fix {
            // --fix is text-only: each report, then its remediated
            // program. The report may have come from the disk cache, so
            // the IR is re-derived here; --fix is a rare, interactive
            // path where one extra parse is cheap.
            for (record, file) in records.iter().zip(sources) {
                if record.report.is_none() {
                    continue;
                }
                print!("{}", emit::render(self.format, std::slice::from_ref(record), None, None));
                let program =
                    parse_program_recovering(&file.source).expect("a file with a report parses");
                let (fixed, fixes) = Fixer::new().fix(&program);
                for f in &fixes {
                    eprintln!("fix: {f}");
                }
                print!("{}", pnew_detector::pretty_program(&fixed));
            }
        } else {
            // Stats and trace carry wall-clock timings, so they embed
            // only on request — the default envelope is deterministic.
            let (stats, trace) = if self.stats { (Some(s), Some(trace)) } else { (None, None) };
            print!("{}", emit::render(self.format, records, stats, trace));
        }

        if self.stats {
            // The disk tier reports separately from the in-memory
            // fingerprint cache: "cache" is per-process memoization,
            // "disk" is the cross-run --cache-dir store.
            let disk = if self.disk {
                format!(
                    ", disk {}/{} hit/miss ({} corrupt, {} write errors)",
                    s.persistent_hits,
                    s.persistent_misses,
                    s.persistent_corrupt,
                    s.persistent_write_errors
                )
            } else {
                String::new()
            };
            eprintln!(
                "stats: {} programs, {} findings, {} errored files, {:.0} programs/sec, {} jobs, cache {}/{} hit/miss ({:.1}% hit rate){disk}, {:.3}s elapsed",
                s.programs,
                s.findings,
                errored_files,
                s.programs_per_sec(),
                s.jobs,
                s.cache_hits,
                s.cache_misses,
                s.cache_hit_rate() * 100.0,
                s.elapsed.as_secs_f64(),
            );
            if let Some(line) = delta_line {
                eprintln!("{line}");
            }
            for line in trace.lines() {
                eprintln!("{line}");
            }
        }

        ExitCode::from(emit::exit_status(records, had_errors))
    }
}

/// The `--delta` mode: incremental rescan against the cache directory's
/// delta manifest. Only changed files are read and re-analyzed; output
/// and exit status are byte-identical to a full scan of the same tree.
fn run_delta(
    paths: &[String],
    engine: &BatchEngine,
    filter: &ReportFilter,
    tail: &Tail<'_>,
    mut had_errors: bool,
) -> ExitCode {
    let seeded = engine.seed_tracked_from_manifest();
    let (outcomes, scan_stats, delta) = engine.rescan_delta(paths, None);
    if !engine.save_tracked_manifest() {
        eprintln!("pncheck: warning: could not write the delta manifest; next run rescans cold");
    }

    // Replicate the full-scan error reporting exactly: unreadable files
    // are named on stderr and never become a record; parse errors are
    // printed per file (served-from-cache failures included).
    let mut unreadable = 0usize;
    let mut records: Vec<FileRecord> = Vec::with_capacity(outcomes.len());
    for o in &outcomes {
        if let Some(e) = &o.read_error {
            eprintln!("pncheck: {}: {e}", o.path);
            had_errors = true;
            unreadable += 1;
            continue;
        }
        for e in &o.errors {
            eprintln!("pncheck: {}: {e}", o.path);
            had_errors = true;
        }
        if o.cache_corrupt {
            eprintln!("pncheck: warning: corrupt cache entry for {}; re-analyzed", o.path);
        }
        records.push(FileRecord {
            path: o.path.clone(),
            report: o.analysis.as_ref().map(|a| a.report.clone()),
            errors: o.errors.clone(),
        });
    }
    let findings = emit::filter_records(&mut records, filter);
    let scan_stats = BatchStats { findings, ..scan_stats };
    let delta_line = tail.stats.then(|| format!(
        "delta: {} tracked, {} unchanged, {} changed, {} added, {} removed, {} seeded, cone {}/{} functions ({} changed), {} functions reanalyzed, {} functions reused, {} stat fastpath",
        delta.tracked_files,
        delta.unchanged_files,
        delta.changed_files,
        delta.added_files,
        delta.removed_files,
        seeded,
        delta.cone_functions,
        delta.tracked_functions,
        delta.changed_functions,
        delta.functions_reanalyzed,
        delta.functions_reused,
        delta.stat_fastpath_hits,
    ));
    let scan = (scan_stats, engine.trace_report());
    tail.finish(&records, &scan, unreadable, had_errors, delta_line)
}
