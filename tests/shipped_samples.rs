//! The `.pnx` samples shipped in `examples/pnx/` stay parseable, stay in
//! sync with the corpus, and produce the documented verdicts.

use std::path::Path;

use placement_new_attacks::corpus::{benign, listings};
use placement_new_attacks::detector::{parse_program, pretty_program, Analyzer, Severity};
use pnew_eval::BaselineChecker;

fn sample(name: &str) -> String {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/pnx").join(format!("{name}.pnx"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing shipped sample {}: {e}", path.display()))
}

#[test]
fn shipped_samples_parse_and_verdict_as_documented() {
    let analyzer = Analyzer::new();
    let cases = [
        ("listing-04-construction", true),
        ("listing-19-two-step-stack", true),
        ("listing-21-info-leak-array", true),
        ("listing-23-memory-leak", true),
        ("listing-08b-interprocedural", true),
        ("loop-carried-taint", true),
        ("benign-guarded-count", false),
    ];
    for (name, vulnerable) in cases {
        let program = parse_program(&sample(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = analyzer.analyze(&program);
        assert_eq!(
            report.detected_at(Severity::Warning),
            vulnerable,
            "{name}: unexpected verdict: {report}"
        );
    }
}

#[test]
fn shipped_samples_match_the_corpus() {
    // Drift guard: the checked-in files are exactly what corpus-export
    // would regenerate.
    let all: Vec<_> =
        listings::vulnerable_corpus().into_iter().chain(benign::benign_corpus()).collect();
    for entry in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/pnx"))
        .expect("samples dir exists")
    {
        let path = entry.expect("dir entry").path();
        let name = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 name");
        let shipped = std::fs::read_to_string(&path).expect("readable sample");
        let canonical = all
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the corpus"));
        assert_eq!(
            shipped,
            pretty_program(canonical),
            "{name}: shipped sample drifted from the corpus; re-run corpus-export"
        );
    }
}

#[test]
fn baseline_is_blind_to_the_shipped_vulnerable_samples() {
    let baseline = BaselineChecker::new();
    for name in ["listing-04-construction", "listing-19-two-step-stack", "listing-23-memory-leak"] {
        let program = parse_program(&sample(name)).unwrap();
        assert!(!baseline.analyze(&program).detected(), "{name}");
    }
}
