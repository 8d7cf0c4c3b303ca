//! `dst` — the deterministic-simulation soak driver.
//!
//! Runs seeded schedules of mixed `pncheckd` traffic through the
//! in-process DST harness (`detector::sim`), which drives the daemon's
//! production connection core, and reports any invariant violation
//! together with the seed that reproduces it:
//!
//! ```text
//! dst --seeds 1000              # soak seeds 0..1000
//! dst --seeds 200 --seed-base 7000
//! dst --replay-seed 4242        # re-run exactly one schedule
//! dst --seeds 60 --mutate --expect-catch
//! ```
//!
//! `--mutate` plants a checksum-passing stale-cache bug in the write
//! path; `--expect-catch` inverts the exit status so CI can assert the
//! harness still catches it (exit 0 iff at least one seed failed).
//! Every schedule runs on a virtual clock — a full soak performs no
//! real sleeps.

use std::process::ExitCode;

use pnew_detector::sim::{run_schedule, SimOptions, SimReport};

const USAGE: &str = "usage: dst [--seeds N] [--seed-base B] [--replay-seed S] \
                     [--phases N] [--mutate] [--kill] [--no-faults] [--expect-catch] [--quiet]";

struct Args {
    seeds: u64,
    seed_base: u64,
    replay_seed: Option<u64>,
    phases: usize,
    mutate: bool,
    kill: bool,
    faults: bool,
    expect_catch: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 1000,
        seed_base: 0,
        replay_seed: None,
        phases: 0,
        mutate: false,
        kill: false,
        faults: true,
        expect_catch: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--seeds" => args.seeds = num("--seeds")?,
            "--seed-base" => args.seed_base = num("--seed-base")?,
            "--replay-seed" => args.replay_seed = Some(num("--replay-seed")?),
            "--phases" => args.phases = num("--phases")? as usize,
            "--mutate" => args.mutate = true,
            "--kill" => args.kill = true,
            "--no-faults" => args.faults = false,
            "--expect-catch" => args.expect_catch = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn options_for(args: &Args, tag: &str) -> SimOptions {
    SimOptions {
        phases: if args.mutate && args.phases == 0 { 2 } else { args.phases },
        faults: args.faults,
        kill: args.kill,
        mutate: args.mutate,
        tag: tag.to_owned(),
        ..SimOptions::default()
    }
}

fn print_failure(report: &SimReport) {
    eprintln!("dst: seed {} FAILED: {}", report.seed, report.violations.join("; "));
    eprintln!("dst: replay with: dst --replay-seed {}", report.seed);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dst: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(seed) = args.replay_seed {
        // A replay re-runs exactly one schedule under the same options
        // — and the same scratch tag — the soak used, so the schedule
        // is byte-for-byte the one that failed (CLI flags must match
        // the failing run).
        let report = run_schedule(seed, &options_for(&args, "soak"));
        println!(
            "dst: seed {seed} phases={} requests={} replies={} checks={} \
             faults={} corrupt={} reaped={} busy={} held={} drains={} digest={:032x}",
            report.phases,
            report.requests_sent,
            report.replies_delivered,
            report.payload_checks + report.identity_checks + report.warm_floor_checks,
            report.faults_injected,
            report.corrupt_detected,
            report.reaped,
            report.busy,
            report.output_deferrals,
            report.drains,
            report.payload_digest,
        );
        if report.ok() {
            println!("dst: seed {seed} ok");
            return ExitCode::SUCCESS;
        }
        print_failure(&report);
        return ExitCode::FAILURE;
    }

    let opts = options_for(&args, "soak");
    let mut failed = 0u64;
    let mut checks = 0usize;
    let mut faults = 0u64;
    let mut corrupt = 0u64;
    let (mut reaped, mut busy, mut held, mut drains) = (0usize, 0usize, 0usize, 0usize);
    for seed in args.seed_base..args.seed_base + args.seeds {
        let report = run_schedule(seed, &opts);
        checks += report.payload_checks + report.identity_checks + report.warm_floor_checks;
        faults += report.faults_injected;
        corrupt += report.corrupt_detected;
        reaped += report.reaped;
        busy += report.busy;
        held += report.output_deferrals;
        drains += report.drains;
        if !report.ok() {
            failed += 1;
            print_failure(&report);
        } else if !args.quiet && (seed + 1 - args.seed_base).is_multiple_of(100) {
            eprintln!("dst: {} seeds done", seed + 1 - args.seed_base);
        }
    }
    println!(
        "dst: {} schedules, {failed} failed, {checks} invariant checks, \
         {faults} faults injected, {corrupt} corrupt entries detected and healed",
        args.seeds
    );
    println!(
        "dst: connections: {reaped} idle reaps, {busy} busy at the hard cap, \
         {held} reaps/closes held for unwritten output, {drains} shutdown drains"
    );
    if args.expect_catch {
        // Mutation-check mode: the run PASSES only if the harness
        // caught the planted bug on at least one seed.
        if failed > 0 {
            println!("dst: planted bug was caught (expected)");
            return ExitCode::SUCCESS;
        }
        eprintln!("dst: planted bug was NOT caught by any seed");
        return ExitCode::FAILURE;
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
