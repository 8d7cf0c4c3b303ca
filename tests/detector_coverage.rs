//! Experiment E21: detector coverage versus the traditional baseline.
//!
//! The paper's §1 claim — "none of the existing tools can detect buffer
//! overflow vulnerabilities due to placement new" — becomes a measurable
//! pair of rates over the corpus: our analyzer must flag every listing
//! with zero warning-level false positives on the benign set, while the
//! traditional baseline flags none of the listings.

use std::collections::BTreeMap;

use placement_new_attacks::corpus::{benign, listings};
use placement_new_attacks::detector::{Analyzer, FindingKind, Fixer, Severity};
use pnew_eval::BaselineChecker;

#[test]
fn analyzer_detects_all_listings_baseline_detects_none() {
    let analyzer = Analyzer::new();
    let baseline = BaselineChecker::new();
    let corpus = listings::vulnerable_corpus();
    assert!(corpus.len() >= 24);

    let ours = corpus.iter().filter(|p| analyzer.analyze(p).detected()).count();
    let theirs = corpus.iter().filter(|p| baseline.analyze(p).detected()).count();
    assert_eq!(ours, corpus.len(), "the analyzer must flag every listing");
    assert_eq!(theirs, 0, "the baseline must be blind to placement new");
}

#[test]
fn no_warning_level_false_positives_on_benign_programs() {
    let analyzer = Analyzer::new();
    for prog in benign::benign_corpus() {
        let report = analyzer.analyze(&prog);
        assert!(
            !report.detected_at(Severity::Warning),
            "{}: false positive(s): {report}",
            prog.name
        );
    }
}

#[test]
fn finding_kinds_match_the_paper_taxonomy() {
    let analyzer = Analyzer::new();
    let expected: &[(&str, FindingKind)] = &[
        ("listing-04-construction", FindingKind::OversizedPlacement),
        ("listing-05-remote-count", FindingKind::TaintedPlacementSize),
        ("listing-07-copy-ctor", FindingKind::TaintedPlacementSize),
        ("listing-11-bss", FindingKind::OversizedPlacement),
        ("listing-12-heap", FindingKind::OversizedPlacement),
        ("listing-13-stack", FindingKind::OversizedPlacement),
        ("listing-vptr-subterfuge", FindingKind::VptrClobber),
        ("listing-19-two-step-stack", FindingKind::TaintedCopyThroughPool),
        ("listing-20-two-step-bss", FindingKind::TaintedCopyThroughPool),
        ("listing-21-info-leak-array", FindingKind::UnsanitizedArenaReuse),
        ("listing-22-info-leak-object", FindingKind::UnsanitizedArenaReuse),
        ("listing-23-memory-leak", FindingKind::PlacementLeak),
        ("listing-scalar-arena", FindingKind::OversizedPlacement),
        ("listing-unknown-bounds", FindingKind::UnknownBoundsPlacement),
    ];
    let corpus: BTreeMap<String, _> =
        listings::vulnerable_corpus().into_iter().map(|p| (p.name.clone(), p)).collect();
    for (name, kind) in expected {
        let prog = corpus.get(*name).unwrap_or_else(|| panic!("missing {name}"));
        let report = analyzer.analyze(prog);
        assert!(
            !report.of_kind(*kind).is_empty(),
            "{name}: expected a {kind} finding, got: {report}"
        );
    }
}

#[test]
fn oversized_findings_quote_the_layout_numbers() {
    let analyzer = Analyzer::new();
    let corpus = listings::vulnerable_corpus();
    let l4 = corpus.iter().find(|p| p.name == "listing-04-construction").unwrap();
    let report = analyzer.analyze(l4);
    let finding = &report.of_kind(FindingKind::OversizedPlacement)[0];
    // 32 - 16 = 16, straight from the layout engine.
    assert!(finding.message.contains("32 bytes"), "{}", finding.message);
    assert!(finding.message.contains("16-byte arena"), "{}", finding.message);
    assert!(finding.message.contains("overflows by 16 bytes"), "{}", finding.message);
}

#[test]
fn detection_rates_summary() {
    // The headline E21 numbers, asserted as a tuple so the experiment
    // report can cite this test directly.
    let analyzer = Analyzer::new();
    let baseline = BaselineChecker::new();
    let vulnerable = listings::vulnerable_corpus();
    let benign = benign::benign_corpus();

    let analyzer_detection = vulnerable.iter().filter(|p| analyzer.analyze(p).detected()).count()
        as f64
        / vulnerable.len() as f64;
    let baseline_detection = vulnerable.iter().filter(|p| baseline.analyze(p).detected()).count()
        as f64
        / vulnerable.len() as f64;
    let analyzer_fp =
        benign.iter().filter(|p| analyzer.analyze(p).detected_at(Severity::Warning)).count() as f64
            / benign.len() as f64;

    assert_eq!((analyzer_detection, baseline_detection, analyzer_fp), (1.0, 0.0, 0.0));
}

#[test]
fn fixer_remediates_every_listing() {
    // §7: the tool also "automatically address[es] these vulnerabilities".
    // Every vulnerable listing must re-analyze clean (no warning-or-better
    // findings) after the automatic fix.
    let analyzer = Analyzer::new();
    let fixer = Fixer::new();
    for prog in listings::vulnerable_corpus() {
        let (fixed, fixes) = fixer.fix(&prog);
        if prog.name == "listing-unknown-bounds" {
            // Nothing above Info to fix; §5.1 says no tool can size a bare
            // address.
            assert!(fixes.is_empty(), "{}", prog.name);
            continue;
        }
        assert!(!fixes.is_empty(), "{}: expected at least one fix", prog.name);
        let after = analyzer.analyze(&fixed);
        assert!(
            !after.detected_at(Severity::Warning),
            "{}: residual findings after fixing: {after}",
            prog.name
        );
    }
}

#[test]
fn fixer_leaves_benign_programs_untouched() {
    let fixer = Fixer::new();
    for prog in benign::benign_corpus() {
        let (fixed, fixes) = fixer.fix(&prog);
        assert!(fixes.is_empty(), "{}: spurious fixes: {fixes:?}", prog.name);
        assert_eq!(fixed, prog, "{}: program changed", prog.name);
    }
}

#[test]
fn fixer_is_idempotent_over_the_corpus() {
    let fixer = Fixer::new();
    for prog in listings::vulnerable_corpus() {
        let (once, _) = fixer.fix(&prog);
        let (twice, again) = fixer.fix(&once);
        assert!(again.is_empty(), "{}: second pass found more to fix", prog.name);
        assert_eq!(once, twice, "{}", prog.name);
    }
}
