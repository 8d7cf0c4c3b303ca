//! Golden-file tests for `pncheck --format json` and `--format sarif`.
//!
//! Each case runs the real binary from inside `tests/golden/` (so the
//! paths embedded in the output are bare file names) and compares stdout
//! byte-for-byte against a checked-in golden. The goldens use
//! `{{VERSION}}` where the crate version appears, so a version bump does
//! not invalidate them.
//!
//! To regenerate after an intentional output change:
//! `PNCHECK_BLESS=1 cargo test -p pnew-detector --test golden`. The
//! fixture dir's `oracle.json.golden` is `xcheck`'s, checked by the root
//! package's `tests/xcheck_cli.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;

const PNCHECK: &str = env!("CARGO_BIN_EXE_pncheck");

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs pncheck on `input` (a bare file name inside the fixture dir) and
/// checks stdout against `<case>.<format>.golden`.
fn check(case: &str, format: &str, input: &str, expect_code: i32) {
    let out = Command::new(PNCHECK)
        .args(["--format", format, input])
        .current_dir(fixtures())
        .output()
        .expect("pncheck runs");
    assert_eq!(out.status.code(), Some(expect_code), "exit code for {case}.{format}");
    let actual = String::from_utf8(out.stdout).expect("output is UTF-8");

    let golden_path = fixtures().join(format!("{case}.{format}.golden"));
    if std::env::var_os("PNCHECK_BLESS").is_some() {
        let blessed = actual.replace(env!("CARGO_PKG_VERSION"), "{{VERSION}}");
        std::fs::write(&golden_path, blessed).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()))
        .replace("{{VERSION}}", env!("CARGO_PKG_VERSION"));
    assert_eq!(actual, expected, "{case}.{format} drifted from its golden");
}

#[test]
fn json_findings_case_matches_golden() {
    check("findings", "json", "vuln.pnx", 1);
}

#[test]
fn json_empty_report_case_matches_golden() {
    check("empty", "json", "clean.pnx", 0);
}

#[test]
fn json_parse_error_case_matches_golden() {
    check("errors", "json", "broken.pnx", 2);
}

#[test]
fn sarif_findings_case_matches_golden() {
    check("findings", "sarif", "vuln.pnx", 1);
}

#[test]
fn sarif_empty_report_case_matches_golden() {
    check("empty", "sarif", "clean.pnx", 0);
}

#[test]
fn sarif_parse_error_case_matches_golden() {
    check("errors", "sarif", "broken.pnx", 2);
}

#[test]
fn goldens_carry_spans_and_sarif_structure() {
    // Belt-and-braces over the byte comparison: the properties the issue
    // demands hold in the goldens themselves.
    let json = std::fs::read_to_string(fixtures().join("findings.json.golden")).unwrap();
    assert!(json.contains("\"line\": 7"), "finding span line missing");
    assert!(json.contains("\"col\": 5"), "finding span column missing");
    assert!(json.contains("\"rule\": \"pnx/oversized-placement\""));

    let sarif = std::fs::read_to_string(fixtures().join("findings.sarif.golden")).unwrap();
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"runs\""));
    assert!(sarif.contains("\"startLine\": 7"));
    assert!(sarif.contains("\"startColumn\": 5"));

    let errors = std::fs::read_to_string(fixtures().join("errors.json.golden")).unwrap();
    assert!(errors.contains("\"program\": null"));
    assert!(errors.contains("\"parse_errors\": 2"), "both recovered errors reported");
}
