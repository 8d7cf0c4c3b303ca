//! Summary-based interprocedural analysis: equivalence with the inline
//! re-walk engine, the hard depth guard, and cross-run persistent-cache
//! behavior at corpus scale.

use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::{
    Analyzer, AnalyzerConfig, BatchEngine, Expr, FindingKind, Matrix, Oracle, PersistentCache,
    Program, ProgramBuilder, Severity, Ty,
};

fn summary_analyzer() -> Analyzer {
    Analyzer::with_config(AnalyzerConfig::default())
}

fn inline_analyzer() -> Analyzer {
    Analyzer::with_config(AnalyzerConfig { use_summaries: false })
}

/// A straight call chain `f0 -> f1 -> … -> f{len-1}`, deeper than the
/// analyzer's interprocedural depth limit.
fn chain_program(len: usize) -> Program {
    let mut p = ProgramBuilder::new(&format!("chain-{len}"));
    let pool = p.global("pool", Ty::CharArray(Some(64)));
    for i in 0..len {
        let mut f = p.function(&format!("f{i}"));
        let n = f.param("n", Ty::Int, false);
        if i + 1 < len {
            f.call(&format!("f{}", i + 1), vec![Expr::Var(n)]);
        } else {
            let buf = f.local("buf", Ty::Ptr);
            f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(n));
        }
        f.finish();
    }
    p.build()
}

/// Two functions calling each other forever.
fn mutually_recursive_pair() -> Program {
    let mut p = ProgramBuilder::new("mutual");
    let mut f = p.function("ping");
    let n = f.param("n", Ty::Int, false);
    f.call("pong", vec![Expr::Var(n)]);
    f.finish();
    let mut f = p.function("pong");
    let n = f.param("n", Ty::Int, false);
    f.call("ping", vec![Expr::Var(n)]);
    f.finish();
    p.build()
}

#[test]
fn summary_findings_match_inline_on_the_full_generated_corpus() {
    // The tentpole's correctness bar: over the complete 1k workload
    // corpus, the summary engine must be byte-identical to the inline
    // re-walk it replaced — same findings, same order, same rendering.
    let programs = workload::corpus(7, 1000);
    let summary = summary_analyzer();
    let inline = inline_analyzer();
    for program in &programs {
        let s = summary.analyze(program);
        let i = inline.analyze(program);
        assert_eq!(s, i, "{}: summary and inline reports diverge", program.name);
        assert_eq!(s.to_string(), i.to_string(), "{}: rendering diverges", program.name);
    }
}

#[test]
fn summary_findings_match_inline_on_deep_and_fan_in_shapes() {
    // The interprocedural stress shapes: a deep diamond lattice (one —
    // its inline walk is exponential, ~500k function walks) and
    // fan-in-heavy chains, clean and vulnerable variants.
    for program in
        workload::deep_call_corpus(11, 1).iter().chain(&workload::fan_in_call_corpus(11, 4))
    {
        let s = summary_analyzer().analyze(program);
        let i = inline_analyzer().analyze(program);
        assert_eq!(s, i, "{}: summary and inline reports diverge", program.name);
    }
}

#[test]
fn depth_limit_yields_a_deterministic_diagnostic_on_a_64_deep_chain() {
    // Regression: exceeding the interprocedural depth limit used to
    // truncate the walk silently. It must now surface as an explicit
    // `analysis-depth-exceeded` Info finding, identically in both
    // engines and across repeated runs.
    let program = chain_program(64);
    let summary = summary_analyzer().analyze(&program);
    let inline = inline_analyzer().analyze(&program);
    assert_eq!(summary, inline);
    assert_eq!(summary, summary_analyzer().analyze(&program), "diagnostic is not deterministic");

    let diagnostics: Vec<_> =
        summary.findings.iter().filter(|f| f.kind == FindingKind::AnalysisDepthExceeded).collect();
    assert!(!diagnostics.is_empty(), "deep chain produced no depth diagnostic: {summary}");
    for d in &diagnostics {
        assert_eq!(d.severity, Severity::Info, "the guard must inform, not warn");
        assert!(d.message.contains("depth limit"), "unhelpful message: {}", d.message);
    }
    // The guard is a coverage note, not a verdict: the chain itself is
    // clean up to the horizon, so nothing may reach Warning.
    assert!(!summary.detected_at(Severity::Warning), "{summary}");
}

#[test]
fn mutual_recursion_terminates_with_diagnostics_in_both_engines() {
    let program = mutually_recursive_pair();
    let summary = summary_analyzer().analyze(&program);
    let inline = inline_analyzer().analyze(&program);
    assert_eq!(summary, inline);
    assert!(
        summary.findings.iter().any(|f| f.kind == FindingKind::AnalysisDepthExceeded),
        "recursion must be reported, not silently abandoned: {summary}"
    );
    assert!(!summary.detected_at(Severity::Warning));
}

#[test]
fn depth_limit_is_generous_enough_for_the_stress_corpora() {
    // The bench corpora (depth 16) sit below the limit: no diagnostic,
    // and the seeded verdicts still come through the whole chain.
    for program in
        workload::deep_call_corpus(23, 2).iter().chain(&workload::fan_in_call_corpus(23, 2))
    {
        let report = summary_analyzer().analyze(program);
        assert!(
            !report.findings.iter().any(|f| f.kind == FindingKind::AnalysisDepthExceeded),
            "{}: depth 16 must be fully analyzed: {report}",
            program.name
        );
    }
}

#[test]
fn oracle_stays_sound_and_complete_under_summaries() {
    // The differential oracle runs the default (summary-based) analyzer
    // against concrete execution: still zero false positives and zero
    // false negatives on the executable corpus.
    let oracle = Oracle::new();
    let mut matrix = Matrix::new();
    for program in &workload::executable_corpus(29, 120) {
        matrix.absorb(&oracle.differential(program));
    }
    let (tp, fp, fn_) = matrix.totals();
    assert!(tp > 0, "corpus produced no true positives");
    assert_eq!(fp, 0, "false positives under summaries");
    assert_eq!(fn_, 0, "false negatives under summaries");
}

#[test]
fn warm_persistent_cache_reproduces_the_corpus_scan_exactly() {
    // Cross-run guarantee at scale: a second engine over the same cache
    // directory serves every report from disk, byte-identical.
    let dir =
        std::env::temp_dir().join(format!("pnx-summary-test-{}-warm-corpus", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sources: Vec<String> = workload::corpus(13, 200)
        .iter()
        .map(placement_new_attacks::detector::pretty_program)
        .collect();

    let analyzer = Analyzer::new();
    let cold_cache = PersistentCache::open(&dir, analyzer.config()).unwrap();
    let cold = BatchEngine::new(analyzer).with_jobs(4).with_persistent_cache(cold_cache);
    let (first, cold_stats) = cold.scan_sources_with_stats(&sources);
    assert_eq!(cold_stats.persistent_hits, 0);

    let analyzer = Analyzer::new();
    let warm_cache = PersistentCache::open(&dir, analyzer.config()).unwrap();
    let warm = BatchEngine::new(analyzer).with_jobs(4).with_persistent_cache(warm_cache);
    let (second, warm_stats) = warm.scan_sources_with_stats(&sources);

    assert_eq!(warm_stats.persistent_hits as usize, sources.len(), "warm run must be 100% hits");
    assert_eq!(warm_stats.persistent_misses, 0);
    assert_eq!(warm_stats.cache_misses, 0, "nothing may reach the analyzer on a warm run");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.report, b.report);
        assert_eq!(a.summaries, b.summaries);
        assert!(b.from_disk_cache);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
