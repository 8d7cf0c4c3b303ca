//! `perfbench` — the end-to-end `pncheckd` benchmark.
//!
//! ```text
//! perfbench --workload warm-query|edit-delta|ci-scan --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the release `pncheckd` from this checkout, generates the
//! workload's inputs from the seed under `perfbench/work/`, spawns the
//! daemon on `127.0.0.1:0`, primes it, and drives it over TCP in a
//! closed loop for `S` seconds, checking every reply. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced in-process
//! replay of the same request stream (see `trace.rs`). Everything else
//! the run prints starts with `#`. See `perfbench/README.md`.

mod check;
mod daemon;
mod envinfo;
mod fixture;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use daemon::Daemon;
use fixture::Fixture;
use pnew_detector::server::{parse_json, JsonNode};
use stats::Latency;
use wire::as_u64;
use workload::{Step, Stream, Workload};

const USAGE: &str =
    "usage: perfbench --workload warm-query|edit-delta|ci-scan --seed N --seconds S --trace 0|1";

/// One timed reply in this many is kept and compared byte for byte with
/// a one-shot in-process scan after the window.
const SAMPLE_EVERY: u64 = 50;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or("--seconds needs a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> io::Result<String> {
    let bin = daemon::build()?;
    let root = daemon::repo_root();
    let work = root.join("perfbench").join("work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    let work = WorkDir(work);

    let env = envinfo::EnvRecord::collect(&work.0, &root);
    println!(
        "# env: nproc={} data_fs={} kernel={} commit={} workload={} seed={} seconds={} trace={}",
        env.nproc,
        env.data_fs,
        env.kernel,
        env.commit,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if !env.ram_backed() {
        println!(
            "# warning: the data directory is on {}, not a RAM-backed filesystem; \
             cache-directory I/O adds disk noise",
            env.data_fs
        );
    }

    let fixture_start = Instant::now();
    let mut fixture = Fixture::build(args.workload, args.seed, &work.0)?;
    println!(
        "# fixture: {} files in {:.2}s",
        fixture.paths.len(),
        fixture_start.elapsed().as_secs_f64()
    );

    if args.trace {
        return trace::run(&mut fixture, &bin, &work.0, Duration::from_secs(args.seconds));
    }
    timed_run(&mut fixture, &bin, Duration::from_secs(args.seconds))
}

/// Times from spawning a fresh daemon until the first timed request can
/// go out (priming included); repeated, and the last daemon kept.
fn setup(fixture: &Fixture, bin: &Path, reps: usize) -> io::Result<(Daemon, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        if fixture.priming_line().is_some() {
            // Each priming starts cold, as a fresh team daemon would.
            let _ = std::fs::remove_dir_all(&fixture.cache_dir);
        }
        sync();
        let start = Instant::now();
        let daemon = Daemon::spawn(bin, &fixture.cache_dir)?;
        let mut conn = daemon.connect()?;
        // Without a priming step the first timed request can go out as
        // soon as the connection is up.
        let primed = match fixture.priming_line() {
            Some(line) => Some(conn.request(&line)?.0),
            None => None,
        };
        times.push(start.elapsed().as_secs_f64());
        drop(conn);
        if let Some(reply) = primed {
            if !reply.ok() {
                return Err(io::Error::other(format!("priming failed: {:?}", reply.header)));
            }
            fixture.check_priming(&reply.payload).map_err(io::Error::other)?;
        }
        if rep + 1 == reps {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
    unreachable!("reps is at least 1")
}

/// Setups before the first job of a run; the start of every later job
/// adds one more. The median of many damps spawn, tick and
/// cache-directory write jitter.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::WarmQuery => 5,
        Workload::EditDelta | Workload::CiScan => 9,
    }
}

/// Flushes dirty pages so writeback from set-up does not land inside
/// the timed window.
pub fn sync() {
    let _ = Command::new("sync").stdout(Stdio::null()).stderr(Stdio::null()).status();
}

/// What one client connection saw in the timed window.
#[derive(Default)]
struct ConnLog {
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    samples: Vec<(Vec<String>, String)>,
    end: Option<Instant>,
}

fn drive_connection(
    fixture: &Fixture,
    daemon: &Daemon,
    conn_index: usize,
    start_gate: &Barrier,
    deadline: &std::sync::OnceLock<Instant>,
    seconds: Duration,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut stream = Stream::new(
        fixture.workload,
        fixture.seed,
        conn_index,
        fixture.job,
        fixture.paths.len(),
        fixture.knobs.clone(),
    );
    let conn = daemon.connect();
    start_gate.wait();
    let deadline = *deadline.get_or_init(|| Instant::now() + seconds);
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            log.attempted = 1;
            log.failed = 1;
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut id = conn_index as u64 * 1_000_000_000;
    loop {
        if !fixture.workload.whole_jobs() && Instant::now() >= deadline {
            break;
        }
        let Some(step) = stream.next() else { break };
        id += 1;
        log.attempted += 1;
        let outcome = fixture
            .request(&step, id)
            .and_then(|(line, paths)| conn.request(&line).map(|(reply, ns)| (reply, ns, paths)));
        let (reply, ns, paths) = match outcome {
            Ok(r) => r,
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("request {id}: {e}"));
                break;
            }
        };
        log.latencies_ns.push(ns);
        let verdict = if reply.ok() {
            fixture.check_reply(&reply, &paths)
        } else {
            Err(format!("ok:false header {:?}", reply.header))
        };
        if let Err(e) = verdict {
            log.failed += 1;
            log.errors.push(format!("request {id}: {e}"));
        } else if matches!(step, Step::Analyze(_)) && log.attempted % SAMPLE_EVERY == 1 {
            log.samples.push((paths, reply.payload));
        }
    }
    log.end = Some(Instant::now());
    log
}

/// Runs one job's closed loop against `daemon`: a `warm-query` window
/// of `seconds`, or a whole CI job or editor session. Returns each
/// connection's log and the time the job took.
fn drive(fixture: &Fixture, daemon: &Daemon, seconds: Duration) -> (Vec<ConnLog>, Duration) {
    let conns = fixture.workload.connections();
    let gate = Barrier::new(conns + 1);
    let deadline = std::sync::OnceLock::new();
    thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (gate, deadline) = (&gate, &deadline);
                s.spawn(move || drive_connection(fixture, daemon, c, gate, deadline, seconds))
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let logs: Vec<ConnLog> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(start);
        (logs, end.saturating_duration_since(start))
    })
}

/// Daemon counters that repeat exactly from run to run.
const STAT_COUNTERS: [&str; 9] = [
    "parses",
    "fingerprint_hits",
    "fingerprint_misses",
    "persistent_hits",
    "persistent_stores",
    "functions_reanalyzed",
    "functions_reused",
    "summary_store_hits",
    "summary_store_entries",
];

/// The `analysis` object of a `stats` reply, as counter values.
fn stat_counters(daemon: &Daemon) -> io::Result<Vec<u64>> {
    let (reply, _) = daemon.connect()?.request(&wire::op_line(0, "stats"))?;
    Ok(analysis_counters(&reply.payload, &STAT_COUNTERS))
}

/// Named counters of the `analysis` object of a `stats` payload.
pub fn analysis_counters(stats: &str, names: &[&str]) -> Vec<u64> {
    let payload = match parse_json(stats) {
        Ok(JsonNode::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    let analysis: &[(String, JsonNode)] = match wire::field(&payload, "analysis") {
        Some(JsonNode::Obj(fields)) => fields,
        _ => &[],
    };
    names.iter().map(|n| wire::field(analysis, n).map_or(0, as_u64)).collect()
}

fn timed_run(fixture: &mut Fixture, bin: &Path, seconds: Duration) -> io::Result<String> {
    let (mut daemon, mut setup_times) = setup(fixture, bin, setup_reps(fixture.workload))?;
    let mut logs: Vec<ConnLog> = Vec::new();
    let mut counts = vec![0u64; STAT_COUNTERS.len()];
    let mut peak_rss_mb: f64 = 0.0;
    let mut window = Duration::ZERO;
    let mut jobs = 0;
    let mut sampled = 0;
    let mut errors: Vec<String> = Vec::new();
    let mut failed = 0;
    loop {
        let before = stat_counters(&daemon)?;
        sync();
        let (job_logs, elapsed) = drive(fixture, &daemon, seconds.saturating_sub(window));
        window += elapsed;
        jobs += 1;
        let ns: Vec<u64> = job_logs.iter().flat_map(|l| l.latencies_ns.iter().copied()).collect();
        if let (true, Some(l)) = (fixture.workload.whole_jobs(), Latency::from_ns(&ns)) {
            println!(
                "# job {jobs}: {} requests in {:.3}s, p50 {:.4}ms p90 {:.4}ms",
                l.samples,
                elapsed.as_secs_f64(),
                l.p50,
                l.p90
            );
        }
        let after = stat_counters(&daemon)?;
        let moved: Vec<u64> =
            after.iter().zip(&before).map(|(a, b)| a.saturating_sub(*b)).collect();
        for (c, m) in counts.iter_mut().zip(&moved) {
            *c += m;
        }
        let requests = ns.len() as u64;
        for (name, per_request) in fixture.exact_counts() {
            let i = STAT_COUNTERS.iter().position(|n| *n == name).expect("a reported counter");
            if moved[i] != per_request * requests {
                failed += 1;
                errors.push(format!(
                    "job {jobs}: {name} moved by {} over {requests} requests, not {}",
                    moved[i],
                    per_request * requests
                ));
            }
        }
        peak_rss_mb = peak_rss_mb.max(daemon.peak_rss_mb().unwrap_or(0.0));
        daemon.shutdown()?;

        // Sampled byte-identity against a one-shot scan of the same
        // files at the same revision, outside the window.
        for (paths, payload) in job_logs.iter().flat_map(|l| &l.samples) {
            sampled += 1;
            match check::one_shot(paths) {
                Ok(expected) if &expected == payload => {}
                Ok(_) => {
                    failed += 1;
                    errors
                        .push(format!("sampled reply for {paths:?} differs from a one-shot scan"));
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("one-shot scan failed: {e}"));
                }
            }
        }
        let job_failed = job_logs.iter().any(|l| l.failed > 0);
        logs.extend(job_logs);
        if window >= seconds || !fixture.workload.whole_jobs() || job_failed {
            break;
        }
        // The next job, on a fresh daemon outside the window: a CI job on
        // the next revision with the cache the last job left, or an
        // editor session primed cold on the project's starting texts.
        fixture.next_job()?;
        let (next, times) = setup(fixture, bin, 1)?;
        setup_times.extend(times);
        daemon = next;
    }

    let latencies: Vec<u64> = logs.iter().flat_map(|l| l.latencies_ns.iter().copied()).collect();
    let completed = latencies.len() as u64;
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    failed += logs.iter().map(|l| l.failed).sum::<u64>();
    errors.extend(logs.iter().flat_map(|l| l.errors.iter().cloned()));
    for e in errors.iter().take(5) {
        println!("# failure: {e}");
    }

    let lat = Latency::from_ns(&latencies)
        .ok_or_else(|| io::Error::other("no request completed in the timed window"))?;
    let setup_s = stats::median(&setup_times).expect("at least one setup");
    let rps = completed as f64 / window.as_secs_f64();
    println!(
        "# setup: {} reps, median {:.4}s, all {:?}",
        setup_times.len(),
        setup_s,
        setup_times.iter().map(|t| format!("{t:.4}")).collect::<Vec<_>>()
    );
    println!(
        "# window: {:.3}s over {jobs} daemon(s), {} connections, {} requests, p50 {:.4}ms \
         p90 {:.4}ms p99 {:.4}ms max {:.4}ms, {:.1} req/s, peak rss {:.1} MiB",
        window.as_secs_f64(),
        fixture.workload.connections(),
        lat.samples,
        lat.p50,
        lat.p90,
        lat.p99,
        lat.max,
        rps,
        peak_rss_mb
    );
    let mut sorted: Vec<f64> = latencies.iter().map(|&n| n as f64 / 1e6).collect();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", stats::quantile_sorted(&sorted, d as f64 / 10.0)))
        .collect();
    println!("# latency deciles (ms): {}", deciles.join(" "));
    let mut line = String::from("# counts per request:");
    for (name, c) in STAT_COUNTERS.iter().zip(&counts) {
        let _ = write!(line, " {name}={}", *c as f64 / completed.max(1) as f64);
    }
    println!("{line}");
    println!(
        "# correctness: every reply checked, {sampled} sampled replies compared byte for byte"
    );

    let metrics = [
        ("setup_s", setup_s, "s"),
        ("p50_ms", lat.p50, "ms"),
        ("p90_ms", lat.p90, "ms"),
        ("rps", rps, "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// The final stdout line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}
