//! End-to-end tests of the `pncheck` command-line tool.

use std::io::Write as _;
use std::process::{Command, Stdio};

const PNCHECK: &str = env!("CARGO_BIN_EXE_pncheck");

const VULNERABLE: &str = "\
program cli-demo;
class Student size 16;
class GradStudent size 32 : Student;
fn main() {
    local stud: Student;
    local st: ptr;
    st = new (&stud) GradStudent();
}
";

const CLEAN: &str = "\
program cli-clean;
class Student size 16;
fn main() {
    local stud: Student;
    local st: ptr;
    st = new (&stud) Student();
}
";

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(PNCHECK)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pncheck spawns");
    // The child may exit before reading stdin (flag errors): a broken
    // pipe here is fine.
    let _ = child.stdin.as_mut().expect("stdin piped").write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("pncheck runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn flags_the_vulnerable_program_with_exit_one() {
    let (stdout, _, code) = run_with_stdin(&["-"], VULNERABLE);
    assert_eq!(code, 1);
    assert!(stdout.contains("oversized-placement"), "{stdout}");
    assert!(stdout.contains("overflows by 16 bytes"), "{stdout}");
    assert!(stdout.contains("hint: check sizeof()"), "{stdout}");
}

#[test]
fn passes_the_clean_program_with_exit_zero() {
    let (stdout, _, code) = run_with_stdin(&["-"], CLEAN);
    assert_eq!(code, 0);
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn baseline_mode_is_blind_to_placement_new() {
    let (stdout, _, code) = run_with_stdin(&["--baseline", "-"], VULNERABLE);
    assert_eq!(code, 0);
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn fix_mode_prints_a_clean_program() {
    let (stdout, stderr, code) = run_with_stdin(&["--fix", "-"], VULNERABLE);
    assert_eq!(code, 1); // findings were present before the fix
    assert!(stderr.contains("fallback"), "{stderr}");
    // The fixed program replaces the placement with heap new…
    assert!(stdout.contains("st = new GradStudent();"), "{stdout}");
    // …and feeding it back through pncheck is clean.
    let fixed_src = stdout
        .split_once("program cli-demo;")
        .map(|(_, rest)| format!("program cli-demo;{rest}"))
        .expect("fixed program printed");
    let (stdout2, _, code2) = run_with_stdin(&["-"], &fixed_src);
    assert_eq!(code2, 0, "{stdout2}");
}

#[test]
fn parse_errors_exit_two() {
    let (_, stderr, code) = run_with_stdin(&["-"], "this is not a program");
    assert_eq!(code, 2);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn all_leading_parse_errors_are_reported_with_positions() {
    let broken = "program multi;\nfn f() {\n    x = 1;\n    local n: int;\n    n = ;\n}\n";
    let (_, stderr, code) = run_with_stdin(&["-"], broken);
    assert_eq!(code, 2);
    // Both errors surface in one run, each with line and column.
    assert!(stderr.contains("line 3, col 5"), "{stderr}");
    assert!(stderr.contains("unknown variable `x`"), "{stderr}");
    assert!(stderr.contains("line 5, col 9"), "{stderr}");
}

#[test]
fn format_json_emits_the_envelope() {
    let (stdout, _, code) = run_with_stdin(&["--format", "json", "-"], VULNERABLE);
    assert_eq!(code, 1);
    assert!(stdout.contains("\"schema\": \"pncheck-report/1\""), "{stdout}");
    assert!(stdout.contains("\"rule\": \"pnx/oversized-placement\""), "{stdout}");
    assert!(stdout.contains("\"line\": 7"), "{stdout}");
    assert!(stdout.contains("\"stats\": null"), "{stdout}");
}

#[test]
fn format_json_with_stats_embeds_stats_and_trace() {
    let (stdout, stderr, code) =
        run_with_stdin(&["--format", "json", "--stats", "--jobs", "1", "-"], VULNERABLE);
    assert_eq!(code, 1);
    assert!(stdout.contains("\"cache_misses\": 1"), "{stdout}");
    assert!(stdout.contains("\"analyses\": 1"), "{stdout}");
    assert!(stderr.contains("stats: 1 programs"), "{stderr}");
    assert!(stderr.contains("trace: counter analyses = 1"), "{stderr}");
}

#[test]
fn format_sarif_emits_a_2_1_0_log() {
    let (stdout, _, code) = run_with_stdin(&["--format", "sarif", "-"], VULNERABLE);
    assert_eq!(code, 1);
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"pnx/oversized-placement\""), "{stdout}");
    assert!(stdout.contains("\"startColumn\": 5"), "{stdout}");
}

#[test]
fn bad_format_and_fix_with_json_exit_two() {
    let (_, stderr, code) = run_with_stdin(&["--format", "yaml", "-"], CLEAN);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown format"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["--fix", "--format", "json", "-"], CLEAN);
    assert_eq!(code, 2);
    assert!(stderr.contains("--fix is only supported"), "{stderr}");
}

#[test]
fn missing_file_exits_two() {
    let out = Command::new(PNCHECK)
        .arg("/nonexistent/definitely-missing.pnx")
        .output()
        .expect("pncheck runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn no_args_prints_usage() {
    let out = Command::new(PNCHECK).output().expect("pncheck runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn min_severity_filters_findings() {
    // The vulnerable program has only an Error finding: min-severity error
    // keeps it; disabling the kind drops it.
    let (stdout, _, code) = run_with_stdin(&["--min-severity", "error", "-"], VULNERABLE);
    assert_eq!(code, 1);
    assert!(stdout.contains("oversized-placement"), "{stdout}");

    let (stdout, _, code) = run_with_stdin(&["--disable", "oversized-placement", "-"], VULNERABLE);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn bad_flag_values_exit_two() {
    let (_, stderr, code) = run_with_stdin(&["--min-severity", "loud", "-"], CLEAN);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown severity"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["--disable", "bogus-kind", "-"], CLEAN);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown finding kind"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["--jobs", "zero?", "-"], CLEAN);
    assert_eq!(code, 2);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn unknown_options_are_usage_errors_not_paths() {
    let dir = TempDir::new("unknown-option");
    dir.write("a.pnx", VULNERABLE);
    let (stdout, stderr, code) = run_on_dir(&["--no-summaries"], &dir);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown argument \"--no-summaries\""), "{stderr}");
    assert!(stderr.contains("./-name"), "the usage says how to name such a path: {stderr}");
    assert!(stdout.is_empty(), "nothing is scanned: {stdout}");
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pncheck-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create parent dirs");
        }
        std::fs::write(path, contents).expect("write corpus file");
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_on_dir(args: &[&str], dir: &TempDir) -> (String, String, i32) {
    let out = Command::new(PNCHECK).args(args).arg(dir.path()).output().expect("pncheck runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn directory_input_recurses_in_sorted_order() {
    let dir = TempDir::new("dirscan");
    dir.write("b.pnx", &VULNERABLE.replace("cli-demo", "prog-beta"));
    dir.write("a.pnx", &CLEAN.replace("cli-clean", "prog-alpha"));
    dir.write("sub/nested.pnx", &VULNERABLE.replace("cli-demo", "prog-nested"));
    dir.write("notes.txt", "not a pnx file; must be ignored");

    let (stdout, _, code) = run_on_dir(&[], &dir);
    assert_eq!(code, 1, "{stdout}");
    let alpha = stdout.find("prog-alpha").expect("alpha scanned");
    let beta = stdout.find("prog-beta").expect("beta scanned");
    let nested = stdout.find("prog-nested").expect("nested dir scanned");
    assert!(alpha < beta && beta < nested, "unsorted output: {stdout}");
    assert!(!stdout.contains("notes"), "non-pnx file scanned: {stdout}");
}

#[test]
fn duplicate_inputs_scan_once() {
    let dir = TempDir::new("dedup");
    dir.write("dup.pnx", VULNERABLE);
    // The same file named directly, via its directory, and via a
    // non-canonical path must scan exactly once.
    let direct = dir.path().join("dup.pnx");
    let dotted = dir.path().join(".").join("dup.pnx");
    let out = Command::new(PNCHECK)
        .arg(&direct)
        .arg(dir.path())
        .arg(&dotted)
        .output()
        .expect("pncheck runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("cli-demo").count(), 1, "file scanned more than once: {stdout}");
}

#[test]
fn jobs_flag_does_not_change_output() {
    let dir = TempDir::new("jobs");
    for i in 0..12 {
        let src = if i % 2 == 0 { VULNERABLE } else { CLEAN };
        dir.write(&format!("p{i:02}.pnx"), &src.replace("cli-", &format!("p{i:02}-")));
    }
    let (serial, _, code1) = run_on_dir(&["--jobs", "1"], &dir);
    let (parallel, _, code8) = run_on_dir(&["--jobs", "8"], &dir);
    assert_eq!(code1, 1);
    assert_eq!(code8, 1);
    assert_eq!(serial, parallel);
}

#[test]
fn stats_flag_reports_throughput_and_cache() {
    let dir = TempDir::new("stats");
    dir.write("one.pnx", VULNERABLE);
    dir.write("two.pnx", &VULNERABLE.replace("cli-demo", "cli-demo-2"));
    let (_, stderr, code) = run_on_dir(&["--stats", "--jobs", "2"], &dir);
    assert_eq!(code, 1);
    assert!(stderr.contains("programs/sec"), "{stderr}");
    assert!(stderr.contains("hit rate"), "{stderr}");
    assert!(stderr.contains("2 jobs"), "{stderr}");
}

#[test]
fn parse_error_reports_path_and_keeps_scanning() {
    let dir = TempDir::new("parse-cont");
    dir.write("aa-broken.pnx", "this is not a program");
    dir.write("bb-good.pnx", VULNERABLE);
    let (stdout, stderr, code) = run_on_dir(&[], &dir);
    // The error names the offending file, the good file is still
    // scanned and reported, and the exit code signals the error.
    assert_eq!(code, 2, "{stdout}{stderr}");
    assert!(stderr.contains("aa-broken.pnx"), "{stderr}");
    assert!(stderr.contains("parse error"), "{stderr}");
    assert!(stdout.contains("cli-demo"), "{stdout}");
    assert!(stdout.contains("oversized-placement"), "{stdout}");
}

#[test]
fn mixed_batch_keeps_exit_two_and_counts_errored_files_once() {
    // Satellite: a batch with both parse errors and findings must exit 2
    // (errors outrank findings), and --stats must count each errored
    // file exactly once even when the scan is parallel.
    let dir = TempDir::new("mixed-stats");
    dir.write("aa-broken.pnx", "this is not a program");
    dir.write("bb-broken.pnx", "neither is this");
    dir.write("cc-vuln.pnx", VULNERABLE);
    dir.write("dd-vuln.pnx", &VULNERABLE.replace("cli-demo", "cli-demo-2"));
    for jobs in ["1", "4"] {
        let (stdout, stderr, code) = run_on_dir(&["--stats", "--jobs", jobs], &dir);
        assert_eq!(code, 2, "jobs={jobs}: findings must not mask errors\n{stdout}{stderr}");
        assert!(stdout.contains("oversized-placement"), "jobs={jobs}: {stdout}");
        assert!(
            stderr.contains("2 errored files"),
            "jobs={jobs}: errored files miscounted: {stderr}"
        );
        assert!(stderr.contains("2 programs"), "jobs={jobs}: {stderr}");
    }
}

#[test]
fn oracle_mode_prints_the_matrix_and_confirms_the_vulnerable_program() {
    let dir = TempDir::new("oracle-text");
    dir.write("vuln.pnx", VULNERABLE);
    dir.write("clean.pnx", CLEAN);
    let (stdout, _, code) = run_on_dir(&["--oracle"], &dir);
    // One confirmed true positive, zero false negatives → exit 0.
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("true-positive"), "{stdout}");
    assert!(stdout.contains("oversized-placement"), "{stdout}");
    assert!(stdout.contains("agreement: sound"), "{stdout}");
    assert!(stdout.contains("programs: 2"), "{stdout}");
}

#[test]
fn oracle_mode_keeps_exit_two_on_parse_errors() {
    let dir = TempDir::new("oracle-err");
    dir.write("broken.pnx", "nope");
    dir.write("vuln.pnx", VULNERABLE);
    let (stdout, stderr, code) = run_on_dir(&["--oracle", "--stats"], &dir);
    assert_eq!(code, 2, "{stdout}{stderr}");
    assert!(stderr.contains("1 errored files"), "{stderr}");
    assert!(stdout.contains("agreement: sound"), "{stdout}");
}

#[test]
fn oracle_mode_rejects_incompatible_flags() {
    let (_, stderr, code) = run_with_stdin(&["--oracle", "--baseline", "-"], VULNERABLE);
    assert_eq!(code, 2);
    assert!(stderr.contains("incompatible"), "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["--oracle", "--fix", "-"], VULNERABLE);
    assert_eq!(code, 2, "{stderr}");
    let (_, stderr, code) = run_with_stdin(&["--oracle", "--format", "sarif", "-"], VULNERABLE);
    assert_eq!(code, 2);
    assert!(stderr.contains("text or json"), "{stderr}");
}

#[test]
fn oracle_json_envelope_comes_out_of_the_cli() {
    let (stdout, _, code) = run_with_stdin(&["--oracle", "--format", "json", "-"], VULNERABLE);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"schema\": \"pncheck-oracle/1\""), "{stdout}");
    assert!(stdout.contains("\"false_negatives\": 0"), "{stdout}");
    assert!(stdout.contains("\"verdict\": \"true-positive\""), "{stdout}");
}

#[test]
fn unusable_cache_dir_fails_fast_with_exit_two() {
    // A regular file where the cache directory should be: creation
    // fails for any uid, so the test holds even when run as root.
    let dir = TempDir::new("badcache");
    dir.write("blocker", "a file, not a directory");
    dir.write("vuln.pnx", VULNERABLE);
    let blocker = dir.path().join("blocker");
    let input = dir.path().join("vuln.pnx");

    let out = Command::new(PNCHECK)
        .args(["--cache-dir", blocker.to_str().unwrap(), input.to_str().unwrap()])
        .output()
        .expect("pncheck runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}{stderr}");
    assert!(stderr.contains("pncheck: error: cannot open cache dir"), "{stderr}");
    // Fail-fast: the input is never analyzed, so no findings print.
    assert!(!stdout.contains("oversized-placement"), "{stdout}");

    // With --format json the failure is still a parseable envelope with
    // a structured error code.
    let out = Command::new(PNCHECK)
        .args([
            "--format",
            "json",
            "--cache-dir",
            blocker.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .expect("pncheck runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("\"schema\": \"pncheck-report/1\""), "{stdout}");
    assert!(stdout.contains("\"code\": \"cache-dir-unusable\""), "{stdout}");
    assert!(stdout.contains("\"files\": []"), "{stdout}");
}

#[test]
fn delta_flag_validations_exit_two() {
    let dir = TempDir::new("delta-flags");
    dir.write("ok.pnx", CLEAN);
    let cache = dir.path().join("cache");
    let cache = cache.to_str().unwrap();
    let input = dir.path().join("ok.pnx");
    let input = input.to_str().unwrap();

    for args in [
        vec!["--delta", input],
        vec!["--delta", "--cache-dir", cache, "--oracle", input],
        vec!["--delta", "--cache-dir", cache, "--baseline", input],
        vec!["--delta", "--cache-dir", cache, "--fix", input],
        vec!["--delta", "--cache-dir", cache, "-"],
    ] {
        let (_, stderr, code) = run_with_stdin(&args, "");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("--delta"), "{args:?}: {stderr}");
    }
}

#[test]
fn delta_scan_is_byte_identical_to_a_full_scan_across_edits() {
    let dir = TempDir::new("delta-e2e");
    dir.write("src/a.pnx", CLEAN);
    dir.write("src/b.pnx", &CLEAN.replace("program cli-clean", "program other"));
    dir.write("src/c.pnx", &CLEAN.replace("program cli-clean", "program third"));
    let cache = dir.path().join("cache");
    let cache = cache.to_str().unwrap();
    let src = dir.path().join("src");
    let src = src.to_str().unwrap();
    let fresh = |fmt: &str| {
        let out = Command::new(PNCHECK).args(["--format", fmt, src]).output().expect("runs");
        (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code().unwrap_or(-1))
    };
    // Three distinct sources, so the delta has three texts to tell apart.
    let (json, _) = fresh("json");
    for program in ["cli-clean", "other", "third"] {
        let field = format!("\"program\": \"{program}\"");
        assert_eq!(json.matches(&field).count(), 1, "{field} once: {json}");
    }
    let delta = |fmt: &str| {
        let out = Command::new(PNCHECK)
            .args(["--delta", "--cache-dir", cache, "--format", fmt, "--stats", src])
            .output()
            .expect("runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.code().unwrap_or(-1),
        )
    };

    // Cold delta run: everything is new, output matches a full scan
    // (sarif has no embedded stats, so it compares byte-for-byte even
    // with --stats on).
    let (reference, ref_code) = fresh("sarif");
    let (got, stderr, code) = delta("sarif");
    assert_eq!(code, ref_code, "{stderr}");
    assert_eq!(got, reference, "cold delta equals full scan");
    assert!(stderr.contains("delta: 3 tracked"), "{stderr}");
    assert!(dir.path().join("cache").join("manifest.pnm").exists(), "manifest persists");

    // Second process, no edits: the manifest seeds the index and every
    // file is served unchanged — still the same bytes.
    let (got, stderr, code) = delta("sarif");
    assert_eq!((got.as_str(), code), (reference.as_str(), ref_code));
    assert!(stderr.contains("3 unchanged, 0 changed"), "{stderr}");
    assert!(stderr.contains("3 seeded"), "{stderr}");

    // Edit one file to become vulnerable: the next delta run re-analyzes
    // just that file and matches a fresh full scan, exit code included.
    dir.write("src/b.pnx", &VULNERABLE.replace("program cli-demo", "program other"));
    let (reference, ref_code) = fresh("sarif");
    let (got, stderr, code) = delta("sarif");
    assert_eq!(code, ref_code, "{stderr}");
    assert_eq!(got, reference, "delta after edit equals full scan");
    assert_eq!(ref_code, 1, "the edit introduced a finding");
    assert!(stderr.contains("2 unchanged, 1 changed"), "{stderr}");

    // Text format round for coverage: identical reports as a full scan.
    let (reference, _) = fresh("text");
    let (got, _, _) = delta("text");
    assert_eq!(got, reference, "text envelopes match");
}

#[test]
fn delta_run_surfaces_unreadable_files_like_a_full_scan() {
    let dir = TempDir::new("delta-unreadable");
    dir.write("a.pnx", CLEAN);
    dir.write("b.pnx", &CLEAN.replace("program cli-clean", "program other"));
    let cache = dir.path().join("cache");
    let a = dir.path().join("a.pnx");
    let b = dir.path().join("b.pnx");
    let args: Vec<String> = vec![
        "--delta".into(),
        "--cache-dir".into(),
        cache.to_str().unwrap().into(),
        a.to_str().unwrap().into(),
        b.to_str().unwrap().into(),
    ];
    let run = || {
        let out = Command::new(PNCHECK).args(&args).output().expect("runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.code().unwrap_or(-1),
        )
    };
    let (_, _, code) = run();
    assert_eq!(code, 0);
    std::fs::remove_file(&b).unwrap();
    let (stdout, stderr, code) = run();
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("b.pnx"), "{stderr}");
    assert!(!stdout.contains("b.pnx"), "no record for the unreadable file: {stdout}");
}

#[test]
fn delta_edit_over_a_corrupt_old_entry_neither_warns_nor_counts_it() {
    // The delta reads an edited file's previous entry only to size the
    // invalidation cone. That entry's key names text that no longer
    // exists, so a broken one is nothing to warn about or rewrite, and
    // the read serves no file, so it is not a disk lookup either.
    let dir = TempDir::new("delta-corrupt-old");
    let old_text = CLEAN.replace("cli-clean", "cli-other");
    dir.write("a.pnx", CLEAN);
    dir.write("b.pnx", &old_text);
    let cache = dir.path().join("cache");
    let delta = ["--delta", "--cache-dir", cache.to_str().unwrap(), "--format", "sarif", "--stats"];
    run_on_dir(&delta, &dir);

    let old_key = pnew_detector::source_fingerprint(&old_text);
    std::fs::write(cache.join(format!("{old_key:032x}.pnc")), b"PNXCACHEgarbage").unwrap();
    dir.write("b.pnx", &VULNERABLE.replace("cli-demo", "cli-other"));
    let (reference, _, ref_code) = run_on_dir(&["--format", "sarif"], &dir);
    let (got, stderr, code) = run_on_dir(&delta, &dir);
    assert_eq!((got.as_str(), code), (reference.as_str(), ref_code), "{stderr}");
    assert_eq!(ref_code, 1, "the edit introduced a finding");
    assert!(!stderr.contains("corrupt cache entry"), "{stderr}");
    assert!(stderr.contains(", disk 1/1 hit/miss (0 corrupt,"), "{stderr}");
    assert!(stderr.contains("1 unchanged, 1 changed"), "{stderr}");
}
