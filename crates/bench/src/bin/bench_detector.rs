//! Machine-readable detector benchmark: measures the throughput claims
//! of the summary/cache work and writes them as JSON.
//!
//! ```text
//! usage: bench_detector [--smoke] [--out PATH]
//!
//!   --smoke    small corpora and fewer repetitions (CI-sized)
//!   --out PATH where to write the JSON (default: BENCH_detector.json)
//! ```
//!
//! Every timed figure is an object of the `min`, `median` and `max`
//! over `runs_per_measurement` samples ([`pnew_bench::time`]; the
//! inline re-walk takes fewer), so a reader sees the spread the box
//! gave the run. A rate's `min` comes from the slowest sample. The
//! `*_speedup` ratios are single numbers, computed from the medians.
//!
//! * `serial` / `parallel` — batch engine programs/sec over the
//!   generated workload corpus, cold in-memory cache every run;
//! * `warm_memory` — same corpus, served from the in-memory
//!   fingerprint cache;
//! * `disk` — cold source scan (parse + analyze + store into an empty
//!   cache dir) vs warm `--cache-dir`-style rescan where every file
//!   comes off disk;
//! * `interval` — analyzer throughput over the guarded corpus, the
//!   value-range-analysis stress shape (guards, clamp loops, derived
//!   lengths);
//! * `interprocedural` — summary-based vs inline analysis over the
//!   deep call-graph corpus (depth 16, fan-in 8);
//! * `delta` — incremental rescan after one edited file in a large
//!   on-disk corpus (`delta_edit_ms`, `delta_speedup` vs the cold
//!   tracked scan), plus the hub-edit worst case over the fan-in
//!   corpus, where one edit invalidates a wide summary cone;
//! * `function_delta` — function-granular rescan: a single-function
//!   knob edit in a wide 300-function file (`fn_delta_edit_ms`), and a
//!   shared-helper edit across every file of the hub corpus, where each
//!   file re-analyzes only its cone (`fn_hub_edit_ms`). Each is timed
//!   as write + hinted or stat-swept `rescan_delta`. Their baselines
//!   (`fn_delta_baseline_ms`, `fn_hub_baseline_ms`) are a plain
//!   whole-file analysis of the changed texts — `parse_program_recovering`
//!   then `Analyzer::analyze_full` with no summary store, per changed
//!   file, no file I/O — and the `*_speedup` fields divide baseline by
//!   edit time.
//!
//! The daemon's request path is measured end to end, over TCP, by
//! `perfbench/`'s `warm-query` workload, not here.

use std::fmt::Display;
use std::path::Path;

use pnew_bench::{time, Spread};
use pnew_corpus::workload;
use pnew_detector::{
    parse_program_recovering, pretty_program, Analyzer, AnalyzerConfig, BatchEngine,
    PersistentCache,
};

/// The JSON object `bench_detector` writes, one field per line in
/// insertion order.
#[derive(Default)]
struct Figures(Vec<(&'static str, String)>);

impl Figures {
    fn raw(&mut self, key: &'static str, value: impl Display) {
        self.0.push((key, value.to_string()));
    }

    /// `t` in seconds × `scale` (1e3 for milliseconds).
    fn secs(&mut self, key: &'static str, t: Spread, scale: f64, decimals: usize) {
        let [min, median, max] = [t.min, t.median, t.max].map(|secs| secs * scale);
        let value = format!(
            "{{ \"min\": {min:.decimals$}, \"median\": {median:.decimals$}, \"max\": {max:.decimals$} }}"
        );
        self.raw(key, value);
    }

    /// `n` items per second of `t`; the slowest sample gives the min.
    fn rate(&mut self, key: &'static str, t: Spread, n: usize) {
        let per_sec = |secs: f64| n as f64 / secs.max(1e-12);
        let rates =
            Spread { min: per_sec(t.max), median: per_sec(t.median), max: per_sec(t.min), ..t };
        self.secs(key, rates, 1.0, 1);
    }

    fn render(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(key, value)| format!("  \"{key}\": {value}")).collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// How many times faster `fast` is than `slow`, by their medians.
fn ratio(slow: Spread, fast: Spread) -> f64 {
    slow.median / fast.median.max(1e-12)
}

/// Measures one incremental-edit scenario: writes `sources` under
/// `dir`, times cold tracked scans on fresh engines, then alternates
/// one file between its original text and `edited` and times the
/// `rescan_delta` that re-analyzes exactly that file — once with the
/// edit named in the hint (the editor-integration fast path: no stat
/// sweep) and once unhinted (the polling stat sweep over every
/// tracked file). Returns `(cold, hinted, sweep, cone_functions)`.
fn delta_scenario(
    dir: &Path,
    sources: &[String],
    edited: &str,
    runs: usize,
) -> (Spread, Spread, Spread, usize) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("delta corpus dir");
    let paths: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let path = dir.join(format!("f{i:05}.pnx"));
            std::fs::write(&path, src).expect("corpus file writes");
            path.to_string_lossy().into_owned()
        })
        .collect();

    let cold = time(
        runs,
        1,
        || BatchEngine::new(Analyzer::new()),
        |engine| {
            let (outcomes, _) = engine.scan_paths_tracked(&paths);
            assert_eq!(outcomes.len(), sources.len());
        },
    );
    let engine = BatchEngine::new(Analyzer::new());
    engine.scan_paths_tracked(&paths);

    // Alternate the first file between two texts so every timed rescan
    // sees exactly one changed file (a no-op rescan would flatter the
    // numbers). The ~microsecond file write rides inside the timed
    // region; it is what a real editor-save-to-report cycle pays.
    let target = paths[0].clone();
    let texts = [edited, sources[0].as_str()];
    let mut flip = 0usize;
    let mut cone = 0usize;
    let hint = vec![target.clone()];
    let hinted = time(
        runs.max(2),
        1,
        || (),
        |()| {
            std::fs::write(&target, texts[flip % 2]).expect("edit writes");
            flip += 1;
            let (_, _, delta) = engine.rescan_delta(&paths, Some(&hint));
            assert_eq!(delta.changed_files, 1, "exactly the edited file re-analyzes");
            assert_eq!(delta.unchanged_files, sources.len() - 1);
            cone = cone.max(delta.cone_functions);
        },
    );
    let sweep = time(
        runs.max(2),
        1,
        || (),
        |()| {
            std::fs::write(&target, texts[flip % 2]).expect("edit writes");
            flip += 1;
            let (_, _, delta) = engine.rescan_delta(&paths, None);
            assert_eq!(delta.changed_files, 1, "the stat sweep finds the edit");
        },
    );
    let _ = std::fs::remove_dir_all(dir);
    (cold, hinted, sweep, cone)
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_detector.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("bench_detector: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("bench_detector: unknown argument {other:?}");
                eprintln!("usage: bench_detector [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let (corpus_size, deep_programs, runs) = if smoke { (150, 1, 3) } else { (1000, 4, 5) };
    let programs = workload::corpus(42, corpus_size);
    let sources: Vec<String> = programs.iter().map(pretty_program).collect();

    // Batch throughput: serial, parallel, warm in-memory cache.
    let serial = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let serial_t = time(runs, 1, || serial.clear_cache(), |()| serial.scan(&programs));
    // Measure parallel throughput at the machine's detected
    // parallelism, and record it so runs on different hosts compare.
    let available_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parallel = BatchEngine::new(Analyzer::new()).with_jobs(available_cores);
    let parallel_jobs = parallel.jobs();
    let parallel_t = time(runs, 1, || parallel.clear_cache(), |()| parallel.scan(&programs));
    let warm_mem = BatchEngine::new(Analyzer::new());
    warm_mem.scan(&programs);
    let warm_mem_t = time(runs, 1, || (), |()| warm_mem.scan(&programs));

    // Disk tier: a cold scan into an empty cache dir vs a warm rescan.
    // The warm engine drops its in-memory tier before every run, so the
    // rescan exercises only the persistent cache — the `pncheck
    // --cache-dir` warm-restart path.
    let dir = std::env::temp_dir().join(format!("pnx-bench-detector-{}", std::process::id()));
    let open_disk = || {
        let cache =
            PersistentCache::open(&dir, &AnalyzerConfig::default()).expect("cache dir opens");
        BatchEngine::new(Analyzer::new()).with_persistent_cache(cache)
    };
    let cold_disk_t = time(
        runs,
        1,
        || {
            let _ = std::fs::remove_dir_all(&dir);
            open_disk()
        },
        |disk| {
            let (_, stats) = disk.scan_sources_with_stats(&sources);
            assert_eq!(stats.persistent_hits, 0, "cold run must not hit");
        },
    );
    // The last cold run left every entry on disk.
    let disk = open_disk();
    let warm_disk_t = time(
        runs,
        1,
        || disk.clear_cache(),
        |()| {
            let (_, stats) = disk.scan_sources_with_stats(&sources);
            assert_eq!(stats.persistent_hits as usize, sources.len(), "warm run must be all hits");
        },
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Value-range analysis: analyzer throughput over the guarded
    // corpus, whose shapes (two-sided guards, clamp loops, derived
    // lengths) exercise the interval lattice — refinement, joins,
    // widening — harder than the mixed workload corpus does.
    let guarded: Vec<_> =
        workload::guarded_corpus(42, corpus_size).into_iter().map(|c| c.program).collect();
    let interval_engine = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let interval_t =
        time(runs, 1, || interval_engine.clear_cache(), |()| interval_engine.scan(&guarded));

    // Interprocedural: summary vs inline over the deep call graphs.
    let deep = workload::deep_call_corpus(42, deep_programs);
    let analyzer = Analyzer::new();
    let summary_t = time(
        runs,
        1,
        || (),
        |()| deep.iter().map(|p| analyzer.analyze(p).findings.len()).sum::<usize>(),
    );
    // Inline re-walks exponentially many paths; one timed run is plenty.
    let inline_runs = if smoke { 1 } else { 3 };
    let inline_t = time(
        inline_runs,
        1,
        || (),
        |()| deep.iter().map(|p| analyzer.analyze_inline(p).findings.len()).sum::<usize>(),
    );

    // Delta: one edited file in a large on-disk corpus. The cold
    // tracked scan is the from-scratch cost the incremental path
    // amortizes away; the hinted rescan re-analyzes only the edit. The
    // corpus mixes a fan-in program in every tenth slot so its analysis
    // cost has the interprocedural weight of real code, not just the
    // small leaf programs of `workload::corpus`.
    let delta_files = if smoke { 300 } else { 10_000 };
    let small = workload::corpus(7, delta_files);
    let heavy = workload::fan_in_call_corpus(7, delta_files / 10);
    let delta_sources: Vec<String> =
        (0..delta_files)
            .map(|i| {
                if i % 10 == 5 {
                    pretty_program(&heavy[i / 10])
                } else {
                    pretty_program(&small[i])
                }
            })
            .collect();
    let edited = pretty_program(&workload::random_vulnerable_program(0xed17));
    let delta_dir = std::env::temp_dir().join(format!("pnx-bench-delta-{}", std::process::id()));
    let (delta_cold_t, delta_edit_t, delta_sweep_t, _) =
        delta_scenario(&delta_dir, &delta_sources, &edited, runs);

    // Hub edit: the fan-in corpus's worst case — the edited program's
    // chain functions feed CALL_WIDTH callers per level, so the one
    // edit invalidates the widest summary cone the workload generates.
    let hub_files = if smoke { 30 } else { 200 };
    let hub_sources: Vec<String> =
        workload::fan_in_call_corpus(7, hub_files).iter().map(pretty_program).collect();
    let hub_edited = pretty_program(&workload::fan_in_call_corpus(8, 1).remove(0));
    let hub_dir = std::env::temp_dir().join(format!("pnx-bench-hub-{}", std::process::id()));
    let (_, hub_edit_t, _, hub_cone) = delta_scenario(&hub_dir, &hub_sources, &hub_edited, runs);

    // Function-granular delta: a two-digit knob edit in the middle
    // function of one wide 300-function file. The warm rescan
    // re-analyzes the one-function cone and hydrates every other
    // summary from the old record; the baseline is a whole-file parse
    // and analysis of the same edited text. Knobs advance every round
    // so the memo can never serve the edit, and all texts are
    // pre-rendered so the timed region pays exactly write + rescan.
    let wide_fns = workload::WIDE_FUNCTIONS;
    let fn_runs = runs.max(2);
    let mut knobs = (0..).map(|k| 10 + (k % 90) as i64);
    let wide_texts: Vec<String> = (&mut knobs)
        .take(2 * fn_runs + 2)
        .map(|k| pretty_program(&workload::wide_function_program(7, wide_fns, k)))
        .collect();
    let wide_dir = std::env::temp_dir().join(format!("pnx-bench-fndelta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wide_dir);
    std::fs::create_dir_all(&wide_dir).expect("wide corpus dir");
    let wide_path = wide_dir.join("wide.pnx");
    std::fs::write(&wide_path, &wide_texts[0]).expect("wide file writes");
    let wide_paths = vec![wide_path.to_string_lossy().into_owned()];
    let mut flip = 0usize;

    let granular = BatchEngine::new(Analyzer::new());
    granular.scan_paths_tracked(&wide_paths);
    let mut fn_cone = 0usize;
    let mut fn_reused = 0usize;
    let fn_edit_t = time(
        fn_runs,
        1,
        || (),
        |()| {
            flip += 1;
            std::fs::write(&wide_path, &wide_texts[flip]).expect("edit writes");
            let (_, _, delta) = granular.rescan_delta(&wide_paths, Some(wide_paths.as_slice()));
            assert_eq!(delta.changed_files, 1, "exactly the wide file re-analyzes");
            assert_eq!(delta.functions_reanalyzed, 1, "the cone is the one edited function");
            fn_cone = delta.functions_reanalyzed;
            fn_reused = delta.functions_reused;
        },
    );
    assert_eq!(fn_reused, wide_fns - 1, "every untouched function's summary is reused");

    // The baseline: a plain whole-file analysis of one changed text.
    let whole_file = |text: &str| {
        let program = parse_program_recovering(text).expect("generated text parses");
        Analyzer::new().analyze_full(&program, None, None).summaries.len()
    };
    let fn_baseline_t = time(
        fn_runs,
        1,
        || (),
        |()| {
            flip += 1;
            assert_eq!(
                whole_file(&wide_texts[flip]),
                wide_fns,
                "the baseline walks every function"
            );
        },
    );
    let _ = std::fs::remove_dir_all(&wide_dir);

    // Hub-helper edit: the shared `helper_0` changes in every file of
    // the hub corpus at once. Function granularity re-analyzes only
    // each file's cone (the helper plus its callers) and reuses the
    // rest; the baseline parses and analyzes every changed file whole.
    let fnhub_files = if smoke { 30 } else { 200 };
    let fnhub_rounds: Vec<Vec<String>> = (&mut knobs)
        .take(2 * fn_runs + 2)
        .map(|k| workload::hub_corpus(7, fnhub_files, k).iter().map(pretty_program).collect())
        .collect();
    let fnhub_dir = std::env::temp_dir().join(format!("pnx-bench-fnhub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fnhub_dir);
    std::fs::create_dir_all(&fnhub_dir).expect("hub corpus dir");
    let fnhub_paths: Vec<String> = (0..fnhub_files)
        .map(|i| fnhub_dir.join(format!("h{i:04}.pnx")).to_string_lossy().into_owned())
        .collect();
    let write_round = |round: &[String]| {
        for (path, text) in fnhub_paths.iter().zip(round) {
            std::fs::write(path, text).expect("hub file writes");
        }
    };
    write_round(&fnhub_rounds[0]);
    let mut round = 0usize;

    let fnhub_granular = BatchEngine::new(Analyzer::new());
    fnhub_granular.scan_paths_tracked(&fnhub_paths);
    let per_file = workload::HUB_HELPERS + workload::HUB_WORKERS;
    let cone_per_file = 1 + workload::HUB_WORKERS / 2;
    let mut fnhub_reanalyzed = 0usize;
    let mut fnhub_reused = 0usize;
    let fnhub_edit_t = time(
        fn_runs,
        1,
        || (),
        |()| {
            round += 1;
            write_round(&fnhub_rounds[round]);
            let (_, _, delta) = fnhub_granular.rescan_delta(&fnhub_paths, None);
            assert_eq!(delta.changed_files, fnhub_files, "the hub edit touches every file");
            assert_eq!(
                delta.functions_reanalyzed,
                cone_per_file * fnhub_files,
                "only the per-file cone re-analyzes"
            );
            fnhub_reanalyzed = delta.functions_reanalyzed;
            fnhub_reused = delta.functions_reused;
        },
    );
    assert_eq!(fnhub_reused, (per_file - cone_per_file) * fnhub_files);

    let fnhub_baseline_t = time(
        fn_runs,
        1,
        || (),
        |()| {
            round += 1;
            for text in &fnhub_rounds[round] {
                assert_eq!(whole_file(text), per_file, "the baseline walks every function");
            }
        },
    );
    let _ = std::fs::remove_dir_all(&fnhub_dir);

    let mut f = Figures::default();
    f.raw("schema", "\"pnx-bench-detector/4\"");
    f.raw("mode", if smoke { "\"smoke\"" } else { "\"full\"" });
    f.raw("corpus_programs", corpus_size);
    f.raw("runs_per_measurement", runs);
    f.raw("available_cores", available_cores);
    f.rate("serial_programs_per_sec", serial_t, corpus_size);
    f.raw("parallel_jobs", parallel_jobs);
    f.rate("parallel_programs_per_sec", parallel_t, corpus_size);
    f.rate("warm_memory_cache_programs_per_sec", warm_mem_t, corpus_size);
    f.secs("cold_disk_scan_s", cold_disk_t, 1.0, 4);
    f.secs("warm_disk_scan_s", warm_disk_t, 1.0, 4);
    f.raw("warm_disk_speedup", format!("{:.1}", ratio(cold_disk_t, warm_disk_t)));
    f.raw("guarded_corpus_programs", corpus_size);
    f.rate("interval_programs_per_sec", interval_t, corpus_size);
    f.raw(
        "deep_corpus",
        format!(
            "{{ \"programs\": {deep_programs}, \"depth\": {}, \"fan_in\": {} }}",
            workload::CALL_DEPTH,
            workload::CALL_WIDTH
        ),
    );
    f.secs("summary_scan_s", summary_t, 1.0, 4);
    f.secs("inline_scan_s", inline_t, 1.0, 4);
    f.raw("summary_speedup", format!("{:.1}", ratio(inline_t, summary_t)));
    f.raw("delta_corpus_files", delta_files);
    f.secs("delta_cold_scan_s", delta_cold_t, 1.0, 4);
    f.secs("delta_edit_ms", delta_edit_t, 1e3, 3);
    f.secs("delta_stat_sweep_ms", delta_sweep_t, 1e3, 3);
    f.raw("delta_speedup", format!("{:.1}", ratio(delta_cold_t, delta_edit_t)));
    f.raw("hub_corpus_files", hub_files);
    f.secs("hub_edit_ms", hub_edit_t, 1e3, 3);
    f.raw("hub_cone_functions", hub_cone);
    f.raw("fn_delta_functions", wide_fns);
    f.secs("fn_delta_edit_ms", fn_edit_t, 1e3, 3);
    f.secs("fn_delta_baseline_ms", fn_baseline_t, 1e3, 3);
    f.raw("fn_delta_speedup", format!("{:.1}", ratio(fn_baseline_t, fn_edit_t)));
    f.raw("fn_delta_cone_functions", fn_cone);
    f.raw("fn_hub_files", fnhub_files);
    f.secs("fn_hub_edit_ms", fnhub_edit_t, 1e3, 3);
    f.secs("fn_hub_baseline_ms", fnhub_baseline_t, 1e3, 3);
    f.raw("fn_hub_speedup", format!("{:.1}", ratio(fnhub_baseline_t, fnhub_edit_t)));
    f.raw("fn_hub_functions_reanalyzed", fnhub_reanalyzed);
    f.raw("fn_hub_functions_reused", fnhub_reused);
    let json = f.render();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_detector: cannot write {out}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!(
        "bench_detector: summary {:.1}x over inline on deep call graphs, warm disk rescan {:.1}x over cold, delta edit {:.2}ms ({:.0}x over cold scan of {} files), fn-granular edit {:.2}ms ({:.1}x over whole-file delta in a {}-function file)",
        ratio(inline_t, summary_t),
        ratio(cold_disk_t, warm_disk_t),
        delta_edit_t.median * 1e3,
        ratio(delta_cold_t, delta_edit_t),
        delta_files,
        fn_edit_t.median * 1e3,
        ratio(fn_baseline_t, fn_edit_t),
        wide_fns,
    );
}
