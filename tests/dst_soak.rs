//! Deterministic-simulation soak of the `pncheckd` service stack.
//!
//! Each test drives `pnew_dst::run_schedule`: seeded schedules of
//! mixed analyze/delta/stats/shutdown traffic against an in-process
//! server on a virtual clock, through the daemon's own connection
//! core, with fault injection in the persistent tier. Any failure
//! names its seed; `dst --replay-seed N` (with the matching flags)
//! re-runs exactly that schedule.

use pnew_dst::{run_schedule, SimOptions, SimReport};

/// The acceptance soak: a thousand seeded schedules, six invariants
/// each, and the aggregate must prove the harness actually exercised
/// the interesting machinery (faults landed, corruption was detected
/// and healed, idle reaping both fired and was correctly deferred,
/// floods met the hard cap, unwritten output held back reaps and
/// closes, paused peers reached the output bound, and shutdowns
/// drained).
#[test]
fn soak_one_thousand_seeds_holds_all_invariants() {
    let opts = SimOptions { tag: "soak-test".to_owned(), ..SimOptions::default() };
    let mut failed: Vec<SimReport> = Vec::new();
    let mut faults = 0u64;
    let mut corrupt = 0u64;
    let mut reaped = 0usize;
    let mut deferrals = 0usize;
    let (mut busy, mut held, mut drains, mut bound) = (0usize, 0usize, 0usize, 0usize);
    let mut payload_checks = 0usize;
    let mut identity_checks = 0usize;
    for seed in 0..1000 {
        let report = run_schedule(seed, &opts);
        faults += report.faults_injected;
        corrupt += report.corrupt_detected;
        reaped += report.reaped;
        deferrals += report.reap_deferrals;
        busy += report.busy;
        held += report.output_deferrals;
        drains += report.drains;
        bound += report.output_bound_checks;
        payload_checks += report.payload_checks;
        identity_checks += report.identity_checks;
        if !report.ok() {
            failed.push(report);
        }
    }
    assert!(
        failed.is_empty(),
        "failing seeds (replay with `dst --replay-seed N`): {:?}",
        failed.iter().map(|r| (r.seed, r.violations.clone())).collect::<Vec<_>>()
    );
    assert!(faults > 0, "the soak must inject storage faults");
    assert!(corrupt > 0, "the soak must detect (and heal) corrupt entries");
    assert!(reaped > 0, "the soak must reap idle connections on the virtual clock");
    assert!(deferrals > 0, "the soak must defer reaping stale-but-busy connections");
    assert!(busy > 0, "the soak must turn connections away with busy at the hard cap");
    assert!(held > 0, "the soak must hold reaps or closes for unwritten output");
    assert!(drains > 0, "the soak must drain after shutdown");
    assert!(bound > 0, "the soak must hold a connection at the output bound");
    assert!(payload_checks > 100, "the soak must compare warm payloads against one-shot scans");
    assert!(identity_checks > 100, "the soak must check accounting identities");
}

/// Replay fidelity: the same seed and options produce the same report,
/// byte for byte (`payload_digest` covers every delivered reply).
#[test]
fn a_schedule_replays_byte_for_byte() {
    let opts = SimOptions { tag: "replay-test".to_owned(), ..SimOptions::default() };
    for seed in [3, 17, 99] {
        let first = run_schedule(seed, &opts);
        let again = run_schedule(seed, &opts);
        assert!(first.ok(), "seed {seed} violations: {:?}", first.violations);
        assert_eq!(first, again, "seed {seed} did not replay identically");
    }
}

/// The mutation check: plant a checksum-passing stale-swap bug in the
/// write path and require the soak to catch it — if every seed passes
/// with the bug planted, the invariants have gone soft. A catching
/// seed must also replay to the identical failing report.
#[test]
fn planted_stale_swap_bug_is_caught_and_replays() {
    let opts = SimOptions {
        mutate: true,
        phases: 2,
        tag: "mutate-test".to_owned(),
        ..SimOptions::default()
    };
    let mut caught = None;
    for seed in 1..=60 {
        let report = run_schedule(seed, &opts);
        if !report.ok() {
            caught = Some(report);
            break;
        }
    }
    let report = caught.expect("no seed in 1..=60 caught the planted stale-swap bug");
    assert!(
        report.violations.iter().any(|v| v.contains("diverged") || v.contains("servable hit")),
        "the catch must come from the envelope or no-corruption invariant: {:?}",
        report.violations
    );
    let again = run_schedule(report.seed, &opts);
    assert_eq!(report, again, "the catching seed must replay to the identical failure");
}

/// Kill-restart durability matrix: kill the daemon's persistence at a
/// seeded write in phase 1 (writes silently vanish), restart in phase 2
/// over the same cache directory, and require every warm envelope to
/// equal a fresh scan — whatever subset of the cache survived the
/// crash.
#[test]
fn kill_restart_matrix_serves_correct_envelopes() {
    let opts = SimOptions {
        kill: true,
        faults: false,
        phases: 2,
        tag: "kill".to_owned(),
        ..SimOptions::default()
    };
    for seed in 0..40 {
        let report = run_schedule(seed, &opts);
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        assert_eq!(report.phases, 2);
    }
}

/// The warm floor of invariant 5 across clean restarts: with no storage
/// faults, every text a phase presented is served from a warm tier in
/// the next phase, whatever filter asks for it — one cache entry per
/// source, never one per filter — so a phase misses on disk only for
/// texts the previous phase never saw.
#[test]
fn clean_restarts_serve_every_presented_text_warm() {
    let mut failed: Vec<SimReport> = Vec::new();
    let mut floor_checks = 0usize;
    for seed in 0..200 {
        let opts = SimOptions {
            faults: false,
            phases: 2 + (seed % 2) as usize,
            tag: "warm-floor".to_owned(),
            ..SimOptions::default()
        };
        let report = run_schedule(seed, &opts);
        floor_checks += report.warm_floor_checks;
        if !report.ok() {
            failed.push(report);
        }
    }
    assert!(
        failed.is_empty(),
        "failing seeds: {:?}",
        failed.iter().map(|r| (r.seed, r.violations.clone())).collect::<Vec<_>>()
    );
    assert!(floor_checks > 100, "only {floor_checks} phases were held to the warm floor");
}
