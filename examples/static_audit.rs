//! The §7 static-analysis tool against the corpus — and the §1 coverage
//! claim against a traditional baseline.
//!
//! Runs the placement-new [`Analyzer`] and the classic-overflow
//! [`BaselineChecker`] over every vulnerable listing and every benign
//! program, printing a per-program verdict table plus the aggregate
//! detection/false-positive rates (experiment E21).
//!
//! Run with: `cargo run --example static_audit`

use placement_new_attacks::corpus::{benign, listings};
use placement_new_attacks::detector::{Analyzer, Severity};
use pnew_eval::BaselineChecker;

fn main() {
    let analyzer = Analyzer::new();
    let baseline = BaselineChecker::new();

    println!("=== vulnerable corpus (the paper's listings) ===");
    println!("{:<34} {:>9} {:>9}  strongest finding", "program", "analyzer", "baseline");
    println!("{}", "-".repeat(84));
    let vulnerable = listings::vulnerable_corpus();
    let mut ours = 0usize;
    let mut theirs = 0usize;
    for prog in &vulnerable {
        let a = analyzer.analyze(prog);
        let b = baseline.analyze(prog);
        ours += usize::from(a.detected());
        theirs += usize::from(b.detected());
        let strongest = a
            .findings
            .iter()
            .max_by_key(|f| f.severity)
            .map_or("-".to_owned(), |f| format!("{} [{}]", f.severity, f.kind));
        println!(
            "{:<34} {:>9} {:>9}  {}",
            prog.name,
            if a.detected() { "FLAGGED" } else { "miss" },
            if b.detected() { "FLAGGED" } else { "miss" },
            strongest
        );
    }

    println!("\n=== benign corpus (§5.1-correct programs) ===");
    let benign = benign::benign_corpus();
    let mut fp = 0usize;
    for prog in &benign {
        let a = analyzer.analyze(prog);
        if a.detected_at(Severity::Warning) {
            fp += 1;
            println!("{:<34} FALSE POSITIVE: {a}", prog.name);
        }
    }
    if fp == 0 {
        println!("all {} benign programs pass without warnings", benign.len());
    }

    println!("\n=== E21 summary ===");
    println!(
        "placement-new analyzer: {ours}/{} listings detected, {fp}/{} benign false positives",
        vulnerable.len(),
        benign.len()
    );
    println!(
        "traditional baseline:   {theirs}/{} listings detected — the paper's coverage gap",
        vulnerable.len()
    );
    assert_eq!(ours, vulnerable.len());
    assert_eq!(theirs, 0);
    assert_eq!(fp, 0);
}
