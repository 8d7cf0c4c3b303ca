//! End-to-end tests of `xcheck`, the analyzer/executor differential, over
//! the files it is given (`--count 0` switches the seeded corpus off).

use std::path::{Path, PathBuf};
use std::process::Command;

const XCHECK: &str = env!("CARGO_BIN_EXE_xcheck");

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

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xcheck-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).expect("write corpus file");
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `xcheck --count 0 ARGS... PATH` and returns stdout, stderr and
/// the exit code.
fn xcheck(args: &[&str], path: &Path) -> (String, String, i32) {
    let out = Command::new(XCHECK)
        .args(["--count", "0"])
        .args(args)
        .arg(path)
        .output()
        .expect("xcheck runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn oracle_mode_prints_the_matrix_and_confirms_the_vulnerable_program() {
    let dir = TempDir::new("oracle-text");
    dir.write("vuln.pnx", VULNERABLE);
    dir.write("clean.pnx", CLEAN);
    let (stdout, _, code) = xcheck(&[], &dir.0);
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
    let (stdout, stderr, code) = xcheck(&[], &dir.0);
    assert_eq!(code, 2, "{stdout}{stderr}");
    assert!(stderr.contains("broken.pnx"), "{stderr}");
    assert!(stdout.contains("agreement: sound"), "{stdout}");
}

#[test]
fn oracle_json_envelope_comes_out_of_the_cli() {
    let dir = TempDir::new("oracle-json");
    let vuln = dir.write("vuln.pnx", VULNERABLE);
    let (stdout, _, code) = xcheck(&["--json"], &vuln);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"schema\": \"pncheck-oracle/1\""), "{stdout}");
    assert!(stdout.contains("\"false_negatives\": 0"), "{stdout}");
    assert!(stdout.contains("\"verdict\": \"true-positive\""), "{stdout}");
}

/// The differential on the detector's vulnerable golden fixture: one
/// machine-confirmed true positive, zero false negatives, so exit 0. Run
/// from inside the fixture dir, so the envelope's path is a bare name.
/// `PNCHECK_BLESS=1` rewrites the golden, as for the detector's goldens.
#[test]
fn json_oracle_case_matches_golden() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/detector/tests/golden");
    let out = Command::new(XCHECK)
        .args(["--count", "0", "--json", "vuln.pnx"])
        .current_dir(&fixtures)
        .output()
        .expect("xcheck runs");
    assert_eq!(out.status.code(), Some(0), "exit code for oracle.json");
    let actual = String::from_utf8(out.stdout).expect("output is UTF-8");
    let golden_path = fixtures.join("oracle.json.golden");
    if std::env::var_os("PNCHECK_BLESS").is_some() {
        let blessed = actual.replace(env!("CARGO_PKG_VERSION"), "{{VERSION}}");
        std::fs::write(&golden_path, blessed).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .expect("read oracle.json.golden")
        .replace("{{VERSION}}", env!("CARGO_PKG_VERSION"));
    assert_eq!(actual, expected, "oracle.json drifted from its golden");
}
