//! `xcheck` — the analyzer/executor differential over files and seeded
//! corpora.
//!
//! ```text
//! usage: xcheck [--seed N] [--count N] [--guarded] [--max-fp N] [--json] [PATH...]
//!
//!   PATH may be a .pnx file or a directory (scanned recursively for
//!   *.pnx). When no PATH is given, or in addition to the given paths,
//!   xcheck runs the differential over the seeded executable corpus:
//!
//!   --seed N     corpus seed (default 1)
//!   --count N    corpus size (default 200; 0 disables the corpus pass)
//!   --guarded    use the guarded corpus (workload::guarded_corpus) and
//!                each case's own probe scripts — the analyzer-precision
//!                measurement, where every Warning on a runtime-safe
//!                guard shape is a false positive
//!   --max-fp N   exit 1 when the matrix counts more than N false
//!                positives (default: unlimited — FPs are reported but
//!                only false negatives fail the run)
//!   --json       emit the pncheck-oracle/1 JSON envelope instead of
//!                the text matrix
//! ```
//!
//! Every program is analyzed statically and executed concretely under
//! the seeded attacker scripts from `workload::attack_inputs` (plus the
//! per-case probes in `--guarded` mode); the per-site verdicts aggregate
//! into one TP/FP/FN matrix. In text mode each given file prints one
//! line per judged site (`PATH: VERDICT [KIND] FUNCTION#STATEMENT`, with
//! the machine events that confirmed it), the seeded corpus prints only
//! its false negatives, and the matrix comes last. Exit status: 0 when
//! analyzer and machine agree (zero false negatives, and at most
//! `--max-fp` false positives), 1 on any false negative or an exceeded
//! FP budget, 2 on usage or read/parse errors.

use std::process::ExitCode;

use pnew_corpus::workload;
use pnew_detector::cliopts;
use pnew_detector::parse_program_recovering;
use pnew_eval::oracle::{render_oracle_json, Matrix, Oracle, OracleRecord};

const USAGE: &str =
    "usage: xcheck [--seed N] [--count N] [--guarded] [--max-fp N] [--json] [PATH...]";

fn main() -> ExitCode {
    let mut seed = 1u64;
    let mut count = 200usize;
    let mut json = false;
    let mut guarded = false;
    let mut max_fp: Option<u64> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("xcheck: --seed needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--count" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => {
                    eprintln!("xcheck: --count needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--max-fp" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_fp = Some(v),
                None => {
                    eprintln!("xcheck: --max-fp needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--guarded" => guarded = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("xcheck: unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => inputs.push(arg),
        }
    }

    let mut had_errors = false;
    let (paths, expand_errors) = cliopts::expand_inputs(&inputs);
    for e in expand_errors {
        eprintln!("xcheck: {e}");
        had_errors = true;
    }

    let oracle = Oracle::new();
    let scripts: Vec<Vec<i64>> =
        Oracle::default_inputs().into_iter().chain(workload::attack_inputs(seed, 4)).collect();
    let mut matrix = Matrix::new();
    let mut records: Vec<OracleRecord> = Vec::new();

    for path in &paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xcheck: {path}: {e}");
                had_errors = true;
                continue;
            }
        };
        let program = match parse_program_recovering(&source) {
            Ok(p) => p,
            Err(errors) => {
                for e in &errors {
                    eprintln!("xcheck: {path}: {e}");
                }
                had_errors = true;
                continue;
            }
        };
        let report = oracle.differential_with(&program, &scripts);
        matrix.absorb(&report);
        records.push(OracleRecord { path: path.clone(), report });
    }
    let file_records = records.len();

    if count > 0 {
        if guarded {
            for (i, case) in workload::guarded_corpus(seed, count).iter().enumerate() {
                // Each case ships its own probe scripts: loose guards sit
                // below attack_inputs' hostile range, and clamp loops must
                // stay within the executor's iteration budget, so the
                // generic scripts would be both blind and unsound here.
                let report = oracle.differential_with(&case.program, &case.probes);
                matrix.absorb(&report);
                records.push(OracleRecord { path: format!("guarded:seed={seed}:{i}"), report });
            }
        } else {
            for (i, program) in workload::executable_corpus(seed, count).iter().enumerate() {
                let report = oracle.differential_with(program, &scripts);
                matrix.absorb(&report);
                records.push(OracleRecord { path: format!("corpus:seed={seed}:{i}"), report });
            }
        }
    }

    if json {
        print!("{}", render_oracle_json(&records, &matrix));
    } else {
        let (files, corpus) = records.split_at(file_records);
        for record in files {
            for v in &record.report.verdicts {
                let events = if v.events.is_empty() {
                    String::new()
                } else {
                    format!(" (events: {})", v.events.join(", "))
                };
                let (function, line) = (&v.site.function, v.site.line);
                println!(
                    "{}: {} [{}] {function}#{line}{events}",
                    record.path,
                    v.verdict,
                    v.kind.name()
                );
            }
        }
        for record in corpus.iter().filter(|r| !r.report.agrees()) {
            for v in &record.report.verdicts {
                println!(
                    "xcheck: FALSE NEGATIVE {}: {}#{} expected {} (events: {})",
                    record.path,
                    v.site.function,
                    v.site.line,
                    v.kind.name(),
                    v.events.join(", "),
                );
            }
        }
        println!("{matrix}");
    }

    let (_, fp, _) = matrix.totals();
    let fp_over_budget = max_fp.is_some_and(|budget| {
        if fp > budget {
            eprintln!("xcheck: {fp} false positives exceed the --max-fp {budget} budget");
        }
        fp > budget
    });
    if had_errors {
        ExitCode::from(2)
    } else if matrix.false_negatives() > 0 || fp_over_budget {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
