//! B4 — detector throughput: the placement-new analyzer vs the
//! traditional baseline over the full corpus, and scaling with program
//! size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pnew_corpus::{benign, listings, workload};
use pnew_detector::emit::{render_json, render_sarif, FileRecord};
use pnew_detector::oracle::{Matrix, Oracle};
use pnew_detector::{
    parse_program, parse_program_recovering, pretty_program, Analyzer, AnalyzerConfig,
    BaselineChecker, BatchEngine, Executor, Fixer, PersistentCache, Program,
};

fn whole_corpus() -> Vec<Program> {
    let mut corpus = listings::vulnerable_corpus();
    corpus.extend(benign::benign_corpus());
    corpus
}

fn bench_corpus_scan(c: &mut Criterion) {
    let corpus = whole_corpus();
    let stmts: usize = corpus.iter().map(Program::stmt_count).sum();
    let mut group = c.benchmark_group("detector_corpus_scan");
    group.throughput(Throughput::Elements(stmts as u64));

    let analyzer = Analyzer::new();
    group.bench_function("analyzer", |b| {
        b.iter(|| corpus.iter().filter(|p| analyzer.analyze(p).detected()).count());
    });
    let baseline = BaselineChecker::new();
    group.bench_function("baseline", |b| {
        b.iter(|| corpus.iter().filter(|p| baseline.analyze(p).detected()).count());
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // Analyzer cost as generated programs grow (batches of generated
    // safe programs as a proxy for codebase size).
    let mut group = c.benchmark_group("detector_scaling");
    for batch in [10usize, 50, 200] {
        let programs: Vec<Program> = (0..batch as u64).map(workload::random_safe_program).collect();
        let stmts: usize = programs.iter().map(Program::stmt_count).sum();
        group.throughput(Throughput::Elements(stmts as u64));
        let analyzer = Analyzer::new();
        group.bench_with_input(BenchmarkId::new("analyzer", batch), &programs, |b, programs| {
            b.iter(|| programs.iter().map(|p| analyzer.analyze(p).findings.len()).sum::<usize>());
        });
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    // Serial vs parallel vs cached throughput of the batch engine over a
    // generated 500-program corpus. `serial`/`parallel` clear the report
    // cache every iteration so each pass re-analyzes everything; `cached`
    // pre-warms the cache and measures pure fingerprint-and-lookup.
    let programs = workload::corpus(42, 500);
    let mut group = c.benchmark_group("detector_batch_scan");
    group.throughput(Throughput::Elements(programs.len() as u64));
    group.sample_size(10);

    let serial = BatchEngine::new(Analyzer::new()).with_jobs(1);
    group.bench_function("serial", |b| {
        b.iter(|| {
            serial.clear_cache();
            serial.scan(&programs).len()
        });
    });
    let parallel = BatchEngine::new(Analyzer::new()); // jobs = available cores
    group.bench_function(format!("parallel-{}jobs", parallel.jobs()), |b| {
        b.iter(|| {
            parallel.clear_cache();
            parallel.scan(&programs).len()
        });
    });
    let cached = BatchEngine::new(Analyzer::new());
    cached.scan(&programs);
    group.bench_function("cached", |b| {
        b.iter(|| cached.scan(&programs).len());
    });
    group.finish();
}

fn bench_interprocedural(c: &mut Criterion) {
    // Summary-based vs inline interprocedural analysis over the deep
    // call-graph corpus (depth 16, fan-in 8): the inline engine re-walks
    // every call path (~500k function walks per program), the summary
    // engine computes each function once per abstract context.
    let programs = workload::deep_call_corpus(42, 2);
    let mut group = c.benchmark_group("detector_interprocedural");
    group.throughput(Throughput::Elements(programs.len() as u64));
    group.sample_size(10);

    let summary = Analyzer::new();
    group.bench_function("summary", |b| {
        b.iter(|| programs.iter().map(|p| summary.analyze(p).findings.len()).sum::<usize>());
    });
    let inline = Analyzer::with_config(AnalyzerConfig { use_summaries: false });
    group.bench_function("inline", |b| {
        b.iter(|| programs.iter().map(|p| inline.analyze(p).findings.len()).sum::<usize>());
    });
    group.finish();
}

fn bench_persistent_cache(c: &mut Criterion) {
    // Warm on-disk rescan vs cold source scan of the generated corpus.
    // The warm engine clears its in-memory tier every iteration, so the
    // number isolates the disk tier: fingerprint, read, decode.
    let sources: Vec<String> = workload::corpus(42, 500).iter().map(pretty_program).collect();
    let dir = std::env::temp_dir().join(format!("pnx-bench-disk-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut group = c.benchmark_group("detector_persistent_cache");
    group.throughput(Throughput::Elements(sources.len() as u64));
    group.sample_size(10);

    let cold = BatchEngine::new(Analyzer::new());
    group.bench_function("cold", |b| {
        b.iter(|| {
            cold.clear_cache();
            cold.scan_sources_with_stats(&sources).0.len()
        });
    });

    let analyzer = Analyzer::new();
    let cache = PersistentCache::open(&dir, analyzer.config()).expect("cache dir opens");
    let warm = BatchEngine::new(analyzer).with_persistent_cache(cache);
    warm.scan_sources_with_stats(&sources); // populate the disk tier
    group.bench_function("warm-disk", |b| {
        b.iter(|| {
            warm.clear_cache();
            warm.scan_sources_with_stats(&sources).0.len()
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_xcheck(c: &mut Criterion) {
    // Differential-oracle throughput: analyze + execute + join over a
    // generated executable corpus, the cost CI's oracle gate pays per
    // program. Much heavier than a bare scan (every function runs on a
    // fresh machine under several attacker scripts), hence the smaller
    // corpus and sample count.
    let programs = workload::executable_corpus(42, 60);
    let scripts: Vec<Vec<i64>> =
        Oracle::default_inputs().into_iter().chain(workload::attack_inputs(42, 4)).collect();
    let oracle = Oracle::new();
    let mut group = c.benchmark_group("xcheck_corpus");
    group.throughput(Throughput::Elements(programs.len() as u64));
    group.sample_size(10);
    group.bench_function("differential", |b| {
        b.iter(|| {
            let mut matrix = Matrix::new();
            for program in &programs {
                matrix.absorb(&oracle.differential_with(program, &scripts));
            }
            assert_eq!(matrix.false_negatives(), 0);
            matrix.totals().0
        });
    });
    let executor = Executor::new();
    group.bench_function("execute_only", |b| {
        b.iter(|| {
            programs
                .iter()
                .flat_map(|p| scripts.iter().map(|s| executor.run(p, s).events.len()))
                .sum::<usize>()
        });
    });
    group.finish();
}

fn bench_fixer(c: &mut Criterion) {
    let corpus = listings::vulnerable_corpus();
    let fixer = Fixer::new();
    c.bench_function("fixer_full_corpus", |b| {
        b.iter(|| corpus.iter().map(|p| fixer.fix(p).1.len()).sum::<usize>());
    });
}

fn bench_dsl(c: &mut Criterion) {
    let corpus = whole_corpus();
    let texts: Vec<String> = corpus.iter().map(pretty_program).collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let mut group = c.benchmark_group("dsl");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("pretty_full_corpus", |b| {
        b.iter(|| corpus.iter().map(|p| pretty_program(p).len()).sum::<usize>());
    });
    group.bench_function("parse_full_corpus", |b| {
        b.iter(|| {
            texts.iter().map(|t| parse_program(t).expect("corpus parses").vars.len()).sum::<usize>()
        });
    });
    group.bench_function("parse_recovering_full_corpus", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|t| parse_program_recovering(t).expect("corpus parses").vars.len())
                .sum::<usize>()
        });
    });
    group.finish();
}

fn bench_emit(c: &mut Criterion) {
    // Serialization cost of the structured outputs over the full corpus.
    let corpus = whole_corpus();
    let analyzer = Analyzer::new();
    let records: Vec<FileRecord> = corpus
        .iter()
        .map(|p| FileRecord {
            path: format!("{}.pnx", p.name),
            report: Some(analyzer.analyze(p)),
            errors: Vec::new(),
        })
        .collect();
    let mut group = c.benchmark_group("emit");
    group.bench_function("json_full_corpus", |b| {
        b.iter(|| render_json(&records, None, None).len());
    });
    group.bench_function("sarif_full_corpus", |b| {
        b.iter(|| render_sarif(&records).len());
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_corpus_scan, bench_scaling, bench_batch, bench_interprocedural, bench_persistent_cache, bench_xcheck, bench_fixer, bench_dsl, bench_emit
}
criterion_main!(benches);
