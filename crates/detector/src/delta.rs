//! Dependency-aware invalidation for incremental re-analysis.
//!
//! The summary engine records, for every memoized function, the callees
//! it consumed and their content fingerprints
//! ([`FunctionSummaryRecord::deps`]). Given the summary records of a
//! file *before* and *after* an edit, [`invalidation_cone`] computes the
//! set of functions whose cached results can no longer be trusted: the
//! edited functions themselves plus every transitive caller reachable
//! over the reverse dependency edges. Everything outside the cone is
//! provably untouched by the edit and keeps serving from cache.
//!
//! Because `.pnx` call resolution is per-program (a call site only binds
//! to a function in the same file), the *file-level* cone of an edit is
//! exactly the edited file — which is what makes
//! [`BatchEngine::rescan_delta`](crate::BatchEngine::rescan_delta)
//! sound while re-analyzing only changed files. The function-level cone
//! computed here sizes the invalidation for `--stats`/trace, and is the
//! object the soundness property tests check: a function whose verdict
//! changed between two analyses must always lie inside the cone.
//!
//! This module also owns the text format of the **delta manifest**
//! (`manifest.pnm`, stored atomically by the cache's
//! [`CacheBackend`](crate::CacheBackend)), the small file in a
//! `--cache-dir` that lets `pncheck --delta` carry the tracked-file
//! index across processes: one row per file with its length, mtime,
//! and source-fingerprint key. The manifest is an
//! accelerator, not a source of truth — a missing or stale manifest
//! degrades to stat+read+cache-probe per file, never to a wrong report.
//! The DST harness (the `pnew-dst` crate) leans on exactly that
//! contract: its kill faults drop manifest writes mid-schedule and its
//! restarts must still serve envelopes byte-identical to a fresh scan,
//! with `functions_reanalyzed + functions_reused` accounting for every
//! function of every re-analyzed file.

use crate::summary::FunctionSummaryRecord;

/// Size accounting for one [`invalidation_cone`] computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConeStats {
    /// Functions whose own content changed (edited, added, or removed).
    pub changed_functions: usize,
    /// Total functions invalidated: the changed set plus its transitive
    /// reverse-dependency closure. Always ≥ `changed_functions`.
    pub cone_functions: usize,
    /// Functions tracked across both versions (union of old and new).
    pub tracked_functions: usize,
}

/// Computes the invalidation cone between two summary-record sets of
/// the same file.
///
/// A function is *changed* when its content fingerprint differs between
/// `old` and `new`, or it exists on only one side. The cone is the
/// changed set closed under "is called by", using the dependency edges
/// recorded in `old` (an unchanged caller has identical edges on both
/// sides; a changed caller is in the cone regardless). Returns the cone
/// member names, sorted and deduplicated, plus size counters.
pub fn invalidation_cone(
    old: &[FunctionSummaryRecord],
    new: &[FunctionSummaryRecord],
) -> (Vec<String>, ConeStats) {
    use std::collections::{BTreeSet, HashMap};

    let old_fps: HashMap<&str, u128> =
        old.iter().map(|r| (r.function.as_str(), r.fingerprint)).collect();
    let new_fps: HashMap<&str, u128> =
        new.iter().map(|r| (r.function.as_str(), r.fingerprint)).collect();

    let mut tracked: BTreeSet<&str> = old_fps.keys().copied().collect();
    tracked.extend(new_fps.keys().copied());

    let mut changed: BTreeSet<&str> = BTreeSet::new();
    for &name in &tracked {
        if old_fps.get(name) != new_fps.get(name) {
            changed.insert(name);
        }
    }

    // Reverse edges from the old records: callee -> callers.
    let mut callers: HashMap<&str, Vec<&str>> = HashMap::new();
    for record in old {
        for dep in &record.deps {
            callers.entry(dep.callee.as_str()).or_default().push(record.function.as_str());
        }
    }

    let mut cone: BTreeSet<&str> = changed.clone();
    let mut frontier: Vec<&str> = cone.iter().copied().collect();
    while let Some(name) = frontier.pop() {
        if let Some(callers_of) = callers.get(name) {
            for &caller in callers_of {
                if cone.insert(caller) {
                    frontier.push(caller);
                }
            }
        }
    }

    let stats = ConeStats {
        changed_functions: changed.len(),
        cone_functions: cone.len(),
        tracked_functions: tracked.len(),
    };
    (cone.into_iter().map(str::to_owned).collect(), stats)
}

/// One tracked file in a delta manifest: enough to decide "unchanged?"
/// from a bare `stat` and to find the file's cache entry without
/// re-reading or re-hashing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRow {
    /// The file path exactly as the engine scanned it.
    pub path: String,
    /// File length in bytes at scan time.
    pub len: u64,
    /// Modification time in nanoseconds since the Unix epoch (0 when
    /// the platform could not report one).
    pub mtime_ns: u128,
    /// The 128-bit source fingerprint — the persistent-cache key.
    pub key: u128,
}

const MANIFEST_HEADER: &str = "pnx-delta-manifest/1";

/// Parses manifest text into rows.
///
/// Forgiving by design: a foreign header or malformed rows yield an
/// empty (or shorter) row set — the caller then treats the affected
/// files as untracked and falls back to a normal scan.
pub fn parse_manifest(text: &str) -> Vec<ManifestRow> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Vec::new();
    }
    let mut rows = Vec::new();
    for line in lines {
        if let Some(row) = parse_row(line) {
            rows.push(row);
        }
    }
    rows
}

/// `<len> <mtime_ns> <key:032x> <path>` — path last, so paths with
/// spaces survive.
fn parse_row(line: &str) -> Option<ManifestRow> {
    let mut parts = line.splitn(4, ' ');
    let len = parts.next()?.parse().ok()?;
    let mtime_ns = parts.next()?.parse().ok()?;
    let key = u128::from_str_radix(parts.next()?, 16).ok()?;
    let path = parts.next()?;
    if path.is_empty() {
        return None;
    }
    Some(ManifestRow { path: path.to_owned(), len, mtime_ns, key })
}

/// Renders rows (sorted by path for determinism) as manifest text, the
/// inverse of [`parse_manifest`].
pub fn render_manifest(rows: &mut [ManifestRow]) -> String {
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    let mut text = String::from(MANIFEST_HEADER);
    text.push('\n');
    for row in rows.iter() {
        // Paths with newlines cannot round-trip a line-oriented format;
        // skip them (the file just becomes untracked next run).
        if row.path.contains('\n') {
            continue;
        }
        text.push_str(&format!("{} {} {:032x} {}\n", row.len, row.mtime_ns, row.key, row.path));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryDep;

    fn record(function: &str, fingerprint: u128, deps: &[(&str, u128)]) -> FunctionSummaryRecord {
        FunctionSummaryRecord {
            function: function.into(),
            fingerprint,
            findings: 0,
            finding_ids: Vec::new(),
            region_effects: 0,
            clobbers: false,
            deps: deps
                .iter()
                .map(|&(callee, fp)| SummaryDep { callee: callee.into(), fingerprint: fp })
                .collect(),
        }
    }

    #[test]
    fn unchanged_records_produce_an_empty_cone() {
        let recs = vec![record("a", 1, &[("b", 2)]), record("b", 2, &[])];
        let (cone, stats) = invalidation_cone(&recs, &recs);
        assert!(cone.is_empty());
        assert_eq!(
            stats,
            ConeStats { changed_functions: 0, cone_functions: 0, tracked_functions: 2 }
        );
    }

    #[test]
    fn editing_a_leaf_invalidates_its_transitive_callers() {
        // main -> helper -> leaf; sibling is independent.
        let old = vec![
            record("main", 10, &[("helper", 20)]),
            record("helper", 20, &[("leaf", 30)]),
            record("leaf", 30, &[]),
            record("sibling", 40, &[]),
        ];
        let mut new = old.clone();
        new[2].fingerprint = 31; // leaf edited
        let (cone, stats) = invalidation_cone(&old, &new);
        assert_eq!(cone, vec!["helper", "leaf", "main"]);
        assert_eq!(stats.changed_functions, 1);
        assert_eq!(stats.cone_functions, 3);
        assert_eq!(stats.tracked_functions, 4);
    }

    #[test]
    fn added_and_removed_functions_are_in_the_cone() {
        let old = vec![record("keep", 1, &[("gone", 2)]), record("gone", 2, &[])];
        let new = vec![record("keep", 1, &[("gone", 2)]), record("fresh", 3, &[])];
        let (cone, stats) = invalidation_cone(&old, &new);
        // `gone` was removed, `fresh` was added; `keep` called `gone`,
        // so it rides the reverse edge into the cone.
        assert_eq!(cone, vec!["fresh", "gone", "keep"]);
        assert_eq!(stats.changed_functions, 2);
        assert_eq!(stats.tracked_functions, 3);
    }

    #[test]
    fn a_call_cycle_terminates_and_invalidates_the_whole_loop() {
        let old = vec![record("a", 1, &[("b", 2)]), record("b", 2, &[("a", 1)])];
        let mut new = old.clone();
        new[0].fingerprint = 9;
        let (cone, _) = invalidation_cone(&old, &new);
        assert_eq!(cone, vec!["a", "b"]);
    }

    #[test]
    fn manifest_round_trips_including_paths_with_spaces() {
        let mut rows = vec![
            ManifestRow {
                path: "b dir/with space.pnx".into(),
                len: 7,
                mtime_ns: 123_456_789_000,
                key: 0xdead_beef,
            },
            ManifestRow { path: "a.pnx".into(), len: 0, mtime_ns: 0, key: u128::MAX },
        ];
        let read = parse_manifest(&render_manifest(&mut rows));
        assert_eq!(read.len(), 2);
        assert_eq!(read[0].path, "a.pnx", "rows come back sorted by path");
        assert_eq!(read[1].path, "b dir/with space.pnx");
        assert_eq!(read[1].key, 0xdead_beef);
        assert_eq!(read[1].mtime_ns, 123_456_789_000);
        assert_eq!(read, rows, "render sorted the rows it was given");
    }

    #[test]
    fn missing_or_foreign_manifests_read_as_empty() {
        assert!(parse_manifest("").is_empty(), "an empty (or missing) manifest has no rows");
        assert!(
            parse_manifest("some-other-format/9\n1 2 3 x\n").is_empty(),
            "foreign header rejects the whole file"
        );
        let rows =
            parse_manifest("pnx-delta-manifest/1\nnot a row\n5 6 zz bad-key.pnx\n7 8 0f ok.pnx\n");
        assert_eq!(rows.len(), 1, "malformed rows are skipped, good rows kept");
        assert_eq!(rows[0].path, "ok.pnx");
        assert_eq!(rows[0].key, 0xf);
    }
}
