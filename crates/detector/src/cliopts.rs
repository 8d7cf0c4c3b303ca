//! Shared option parsing and input collection for the detector's front
//! ends: `pncheck`, the `pncheckd` daemon, and `xcheck`.
//!
//! All three accept the same scan options (`--jobs`, `--min-severity`,
//! `--disable`, output format) and the same PATH semantics (a `.pnx`
//! file, or a directory scanned recursively in sorted order, each file
//! once by canonical path; [`expand_inputs`] resolves a directory from
//! its listing, not file by file). Centralizing the value parsing here
//! means a request to the daemon is validated by *exactly* the rules
//! the CLI enforces — the two cannot drift, and the protocol tests
//! assert the error messages byte-for-byte against the CLI's.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::emit::OutputFormat;
use crate::findings::{FindingKind, ReportFilter, Severity};

/// Parses a worker count: a positive integer.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("--jobs needs a positive integer".to_owned()),
    }
}

/// Parses a reporting threshold (`info|warning|error`).
pub fn parse_min_severity(value: &str) -> Result<Severity, String> {
    value.parse::<Severity>()
}

/// Parses one finding kind to disable.
pub fn parse_disable(value: &str) -> Result<FindingKind, String> {
    FindingKind::from_name(value).ok_or_else(|| format!("unknown finding kind {value:?}"))
}

/// Parses an output format (`text|json|sarif`).
pub fn parse_format(value: &str) -> Result<OutputFormat, String> {
    value.parse::<OutputFormat>()
}

/// The options every detector front end shares, with their defaults.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// `--jobs N`; `None` means the engine's default (available
    /// parallelism).
    pub jobs: Option<usize>,
    /// Output format selection.
    pub format: OutputFormat,
    /// Which findings to report (`--min-severity`, `--disable`),
    /// applied to each finished report before it is counted or
    /// rendered; the analysis and its caches never see it.
    pub filter: ReportFilter,
}

impl CommonOpts {
    /// Tries to consume `arg` (pulling any value from `rest`) as one of
    /// the shared flags.
    ///
    /// Returns `None` when the flag is not a shared one (the caller
    /// handles it), `Some(Ok(()))` when it was applied, and
    /// `Some(Err(message))` when it was recognized but its value was
    /// missing or invalid — the caller prints the message (prefixed
    /// with its own name) and exits 2.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Option<Result<(), String>> {
        match arg {
            "--jobs" => Some(match rest.next() {
                Some(v) => parse_jobs(&v).map(|n| self.jobs = Some(n)),
                None => Err("--jobs needs a positive integer".to_owned()),
            }),
            "--min-severity" => Some(match rest.next() {
                Some(v) => parse_min_severity(&v).map(|s| self.filter.min_severity = s),
                None => Err("--min-severity needs a value".to_owned()),
            }),
            "--disable" => Some(match rest.next() {
                Some(v) => parse_disable(&v).map(|k| self.filter.disabled.push(k)),
                None => Err("--disable needs a finding kind".to_owned()),
            }),
            "--format" => Some(match rest.next() {
                Some(v) => parse_format(&v).map(|f| self.format = f),
                None => Err("--format needs a value (text|json|sarif)".to_owned()),
            }),
            _ => None,
        }
    }
}

/// Expands directories to their sorted `*.pnx` contents and
/// deduplicates by canonical path, so a file named both directly and
/// via an enclosing directory scans once. `-` (stdin) passes through
/// untouched. Returns the paths and one `"{input}: {error}"` line per
/// directory that could not be read.
///
/// Each input is canonicalized once. Inside a directory the listing
/// gives each entry's type, and a file's canonical path is its
/// directory's joined with its name, so only symlinks are resolved one
/// by one: a tree costs a `readdir` per directory, not a `stat` and a
/// `realpath` per file.
pub fn expand_inputs(inputs: &[String]) -> (Vec<String>, Vec<String>) {
    let mut walk = Walk::default();
    let mut errors = Vec::new();
    for input in inputs {
        let path = Path::new(input);
        if input != "-" && path.is_dir() {
            if let Err(e) = walk.dir(path, fs::canonicalize(path).ok()) {
                errors.push(format!("{input}: {e}"));
            }
        } else {
            let key = if input == "-" { PathBuf::from("-") } else { canonical_or_raw(path) };
            walk.push(input.clone(), key);
        }
    }
    (walk.paths, errors)
}

/// The canonical path, or the path itself when it cannot be resolved
/// (missing file, dangling symlink).
fn canonical_or_raw(path: &Path) -> PathBuf {
    fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf())
}

/// The paths collected so far, with the canonical keys already seen.
#[derive(Default)]
struct Walk {
    paths: Vec<String>,
    seen: HashSet<PathBuf>,
}

impl Walk {
    fn push(&mut self, path: String, key: PathBuf) {
        if self.seen.insert(key) {
            self.paths.push(path);
        }
    }

    /// Appends the `*.pnx` files under `dir` in name order, recursing
    /// into subdirectories. `canonical` is `dir` resolved, or `None`
    /// when it could not be, and then every file is resolved itself.
    /// Stops at the first unreadable directory.
    fn dir(&mut self, dir: &Path, canonical: Option<PathBuf>) -> io::Result<()> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            entries.push((entry.file_name(), entry.file_type().ok()));
        }
        // Every entry shares `dir`, so name order is path order.
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (name, kind) in entries {
            let path = dir.join(&name);
            // What the listing says, keyed under the directory's
            // canonical path. A symlink, or an entry the listing could
            // not type, is followed through its own path instead.
            let listed = match (kind, &canonical) {
                (Some(k), Some(c)) if !k.is_symlink() => Some((k.is_dir(), c.join(&name))),
                _ => None,
            };
            if listed.as_ref().map_or_else(|| path.is_dir(), |&(is_dir, _)| is_dir) {
                let sub = listed.map(|(_, key)| key).or_else(|| fs::canonicalize(&path).ok());
                self.dir(&path, sub)?;
            } else if path.extension().is_some_and(|e| e == "pnx") {
                let key = listed.map_or_else(|| canonical_or_raw(&path), |(_, key)| key);
                self.push(path.to_string_lossy().into_owned(), key);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parsers_accept_valid_and_reject_invalid() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("many").is_err());
        assert_eq!(parse_min_severity("warning"), Ok(Severity::Warning));
        assert!(parse_min_severity("loud").unwrap_err().contains("unknown severity"));
        assert_eq!(parse_disable("oversized-placement"), Ok(FindingKind::OversizedPlacement));
        assert!(parse_disable("bogus").unwrap_err().contains("unknown finding kind"));
        assert_eq!(parse_format("sarif"), Ok(OutputFormat::Sarif));
        assert!(parse_format("yaml").unwrap_err().contains("unknown format"));
    }

    #[test]
    fn accept_consumes_shared_flags_and_ignores_others() {
        let mut opts = CommonOpts::default();
        let mut rest = vec!["2".to_owned(), "error".to_owned()].into_iter();
        assert_eq!(opts.accept("--jobs", &mut rest), Some(Ok(())));
        assert_eq!(opts.accept("--min-severity", &mut rest), Some(Ok(())));
        assert_eq!(opts.accept("--baseline", &mut rest), None);
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.filter.min_severity, Severity::Error);
    }

    #[test]
    fn accept_reports_missing_and_bad_values() {
        let mut opts = CommonOpts::default();
        let mut empty = Vec::new().into_iter();
        let err = opts.accept("--jobs", &mut empty).unwrap().unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let mut bad = vec!["nope".to_owned()].into_iter();
        let err = opts.accept("--format", &mut bad).unwrap().unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
    }

    #[test]
    fn expand_inputs_dedups_and_passes_stdin_through() {
        let dir = std::env::temp_dir().join(format!("pnx-cliopts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a.pnx"), "program a;\n").unwrap();
        std::fs::write(dir.join("sub/b.pnx"), "program b;\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let direct = dir.join("a.pnx").to_string_lossy().into_owned();
        let inputs =
            vec![dir.to_string_lossy().into_owned(), direct.clone(), "-".to_owned(), direct];
        let (paths, errors) = expand_inputs(&inputs);
        assert!(errors.is_empty(), "{errors:?}");
        // a.pnx once (dir + direct + repeat), b.pnx once, stdin once.
        assert_eq!(paths.len(), 3, "{paths:?}");
        assert!(paths.contains(&"-".to_owned()));
        assert!(paths.iter().filter(|p| p.ends_with("a.pnx")).count() == 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The expansion the walk replaced: list every directory, then
    /// canonicalize every path and deduplicate. The reference the walk
    /// must match path for path and error for error.
    fn reference_expand(inputs: &[String]) -> (Vec<String>, Vec<String>) {
        fn collect_pnx(dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
            let mut entries: Vec<fs::DirEntry> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
            entries.sort_by_key(fs::DirEntry::path);
            for entry in entries {
                let path = entry.path();
                if path.is_dir() {
                    collect_pnx(&path, out)?;
                } else if path.extension().is_some_and(|e| e == "pnx") {
                    out.push(path.to_string_lossy().into_owned());
                }
            }
            Ok(())
        }
        let mut errors = Vec::new();
        let mut paths = Vec::new();
        for input in inputs {
            if input != "-" && Path::new(input).is_dir() {
                if let Err(e) = collect_pnx(Path::new(input), &mut paths) {
                    errors.push(format!("{input}: {e}"));
                }
            } else {
                paths.push(input.clone());
            }
        }
        let mut seen: HashSet<PathBuf> = HashSet::new();
        paths.retain(|path| {
            let key = if path == "-" {
                PathBuf::from("-")
            } else {
                fs::canonicalize(path).unwrap_or_else(|_| PathBuf::from(path))
            };
            seen.insert(key)
        });
        (paths, errors)
    }

    #[test]
    fn walk_matches_the_canonicalize_everything_expansion() {
        use std::os::unix::fs::symlink;

        let base = std::env::temp_dir().join(format!("pnx-cliopts-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let (tree, outside) = (base.join("tree"), base.join("outside"));
        fs::create_dir_all(tree.join("sub/deeper")).unwrap();
        fs::create_dir_all(&outside).unwrap();
        for file in ["a.pnx", "b.pnx", "sub/c.pnx", "sub/deeper/d.pnx"] {
            fs::write(tree.join(file), format!("program {};\n", &file[..1])).unwrap();
        }
        fs::write(tree.join("notes.txt"), "not a program").unwrap();
        fs::write(outside.join("e.pnx"), "program e;\n").unwrap();
        // A second name for a file the walk lists first: dropped.
        symlink(tree.join("sub/c.pnx"), tree.join("z_alias.pnx")).unwrap();
        // A directory outside the tree, walked under the link's name.
        symlink(&outside, tree.join("ext")).unwrap();
        // A dangling `.pnx` link: listed under its own path.
        symlink(base.join("missing.pnx"), tree.join("broken.pnx")).unwrap();

        let s = |p: &Path| p.to_string_lossy().into_owned();
        let a = s(&tree.join("a.pnx"));
        let missing = s(&base.join("absent.pnx"));
        let cases: Vec<Vec<String>> = vec![
            vec![s(&tree)],
            vec![a.clone(), s(&tree), a.clone()],
            vec![s(&tree.join("sub/deeper/d.pnx")), s(&tree), "-".into(), missing.clone()],
            vec!["-".into(), missing.clone(), s(&tree.join("ext")), s(&tree), "-".into(), missing],
            vec![s(&tree.join("z_alias.pnx")), s(&tree.join("loop/sub")), s(&tree)],
        ];
        let check = || {
            for inputs in &cases {
                assert_eq!(expand_inputs(inputs), reference_expand(inputs), "inputs {inputs:?}");
            }
        };
        check();
        let (paths, errors) = expand_inputs(&cases[0]);
        assert!(errors.is_empty(), "{errors:?}");
        let names: Vec<&str> = paths.iter().map(|p| &p[s(&tree).len() + 1..]).collect();
        let want = ["a.pnx", "b.pnx", "broken.pnx", "ext/e.pnx", "sub/c.pnx", "sub/deeper/d.pnx"];
        assert_eq!(names, want);

        // A loop back to the root is walked until the kernel refuses to
        // resolve the path, by both expansions alike.
        symlink(&tree, tree.join("loop")).unwrap();
        check();
        let _ = fs::remove_dir_all(&base);
    }
}
