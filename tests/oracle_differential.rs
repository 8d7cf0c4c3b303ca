//! Differential-oracle guarantees over the seeded executable corpus:
//! the §5.1 soundness property (no machine-observed vulnerability at a
//! site the analyzer cleared) and sensitivity (every generated
//! vulnerable program has at least one machine-confirmed true
//! positive), plus determinism of the whole pipeline.

use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::{parse_program, Analyzer};
use pnew_eval::{Matrix, Oracle, Verdict};

fn scripts(seed: u64) -> Vec<Vec<i64>> {
    Oracle::default_inputs().into_iter().chain(workload::attack_inputs(seed, 4)).collect()
}

#[test]
fn no_false_negative_anywhere_in_the_seeded_corpus() {
    // Soundness on the generated shapes: whatever the machine observes,
    // the analyzer flagged. One false negative is one analyzer bug.
    let oracle = Oracle::new();
    let scripts = scripts(1);
    for (i, program) in workload::executable_corpus(1, 300).iter().enumerate() {
        let report = oracle.differential_with(program, &scripts);
        assert!(
            report.agrees(),
            "corpus[{i}] ({}): false negatives: {:?}",
            program.name,
            report.verdicts
        );
    }
}

#[test]
fn every_vulnerable_program_has_a_confirmed_true_positive() {
    let oracle = Oracle::new();
    let scripts = scripts(2);
    for seed in 0..60 {
        let program = workload::random_vulnerable_program(seed);
        let report = oracle.differential_with(&program, &scripts);
        assert!(
            report.true_positives() >= 1,
            "seed {seed} ({}): no machine-confirmed site: {:?}",
            program.name,
            report.verdicts
        );
        assert!(report.agrees(), "seed {seed}: {:?}", report.verdicts);
    }
}

#[test]
fn safe_programs_produce_no_events_under_hostile_scripts() {
    let oracle = Oracle::new();
    let scripts = scripts(3);
    for seed in 0..60 {
        let program = workload::random_safe_program(seed);
        let report = oracle.differential_with(&program, &scripts);
        assert!(
            report.events.iter().all(|e| !e.kind.is_vulnerability()),
            "seed {seed} ({}): safe program misbehaved: {:?}",
            program.name,
            report.events
        );
        assert!(report.verdicts.iter().all(|v| v.verdict == Verdict::FalsePositive));
    }
}

#[test]
fn guarded_programs_never_trip_the_machine() {
    // Tainted count behind a bounds check: the analyzer may warn (a
    // tolerated false positive) but the machine must stay quiet — and
    // that disagreement may never be classified as a false negative.
    let oracle = Oracle::new();
    let scripts = scripts(4);
    for seed in 0..60 {
        let program = workload::random_guarded_program(seed);
        let report = oracle.differential_with(&program, &scripts);
        assert!(
            report.events.iter().all(|e| !e.kind.is_vulnerability()),
            "seed {seed}: guard failed concretely: {:?}",
            report.events
        );
        assert!(report.agrees(), "seed {seed}: {:?}", report.verdicts);
    }
}

#[test]
fn the_matrix_over_a_seeded_corpus_is_deterministic() {
    let oracle = Oracle::new();
    let scripts = scripts(5);
    let run = || {
        let mut matrix = Matrix::new();
        for program in workload::executable_corpus(5, 80) {
            matrix.absorb(&oracle.differential_with(&program, &scripts));
        }
        matrix
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(a.false_negatives(), 0);
    let (tp, _, _) = a.totals();
    assert!(tp > 0, "corpus produced no confirmed sites:\n{a}");
}

#[test]
fn loop_carried_taint_example_is_flagged_and_confirmed() {
    // The satellite-2 regression: taint reaches the placement only on
    // the second loop iteration. Before the bounded-fixpoint fix the
    // analyzer cleared the site while the machine overflowed — a false
    // negative this exact test exists to keep fixed.
    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/pnx/loop-carried-taint.pnx"
    ))
    .expect("shipped example");
    let program = parse_program(&source).expect("example parses");
    assert!(
        Analyzer::new().analyze(&program).detected(),
        "analyzer regressed on loop-carried taint"
    );
    let report = Oracle::new().differential(&program);
    assert_eq!(report.false_negatives(), 0, "{:?}", report.verdicts);
    assert!(report.true_positives() >= 1, "{:?}", report.verdicts);
}
