//! The traced run (`--trace 1`): per-layer numbers for one workload.
//!
//! The same seeded request stream as the timed run is replayed request
//! by request through three stacks that each start from the same state:
//!
//! 1. the release daemon over TCP (client-side latency),
//! 2. an untraced in-process [`Server`] (`Server::handle_line`), whose
//!    `stats` op and `delta` headers also give the exact counts, and
//! 3. the same work re-composed from each layer's public functions —
//!    framing, fair queue, request parse, input expansion, batch scan
//!    or delta rescan, summary-store and manifest persistence, emit —
//!    each call wrapped in a span.
//!
//! Parse, analysis, fingerprinting and the cache tiers are only reached
//! inside the batch scan, so they are called again afterwards on exactly
//! the inputs that reached them (a disk hit re-runs `PersistentCache::
//! get`; a miss re-runs the miss probe, the parse, the analysis and the
//! `put`), recorded as children of the scan span, and subtracted from
//! its self time. A scan that ran on `W` workers gets its children's
//! times divided by `W`. The cache backend is wrapped, so `load`/`store`
//! under those calls and under the summary-store and manifest writes get
//! spans of their own.
//!
//! Spans stay in memory until the end. Each layer's self time is its
//! spans' duration minus their children's; the reported value is the
//! mean per request, so the layers add up to the traced request time
//! (`trace.layer_sum_ms`), which is compared with the untraced
//! `server.handle_ms` (`trace.layer_sum_ratio`). The difference between
//! the two is the tracing overhead (`trace.overhead_ms`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pnew_detector::cache::{source_fingerprint, CachedAnalysis};
use pnew_detector::cliopts::expand_inputs;
use pnew_detector::emit::{render_json, FileRecord};
use pnew_detector::eventloop::{FairQueue, LineFramer};
use pnew_detector::server::{parse_json, BackendWrap, JsonNode, Server, ServerConfig};
use pnew_detector::{
    parse_program_recovering, Analyzer, AnalyzerConfig, BatchEngine, CacheBackend, DirBackend,
    PersistentCache,
};

use crate::daemon::{Conn, Daemon};
use crate::fixture::Fixture;
use crate::wire::{self, Reply};
use crate::workload::{self, Step, Stream, Workload};
use crate::{analysis_counters, result_line, stats};

/// The first this many traced requests give the exact counts, so they
/// repeat from run to run whatever the machine's speed.
fn count_window(workload: Workload) -> usize {
    match workload {
        Workload::WarmQuery => 200,
        Workload::EditDelta => 40,
        Workload::CiScan => CI_COUNT_WINDOW,
    }
}

/// `ci-scan`'s count window must end inside its first CI job, where
/// the counters' baseline is taken.
const CI_COUNT_WINDOW: usize = 200;
const _: () = assert!(CI_COUNT_WINDOW <= workload::CI_FILES / workload::CI_BATCH);

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    /// Share of the span's duration on the request's critical path:
    /// 1, or 1/W for work re-run serially from a W-worker scan.
    weight: f64,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
    request: AtomicU64,
    on: AtomicBool,
}

static RECORDER: std::sync::OnceLock<Recorder> = std::sync::OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next: AtomicU64::new(1),
        request: AtomicU64::new(0),
        on: AtomicBool::new(false),
    })
}

thread_local! {
    /// Open spans on this thread: `(id, weight)`. Worker threads start
    /// empty, so work the engine fans out is never recorded twice.
    static OPEN: RefCell<Vec<(u32, f64)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` inside a span named `name`, child of the innermost open
/// span on this thread. Returns the result and the span id (0 when
/// recording is off).
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u32) {
    let rec = recorder();
    if !rec.on.load(Ordering::Relaxed) {
        return (f(), 0);
    }
    let (parent, weight) = OPEN.with(|o| o.borrow().last().copied().unwrap_or((0, 1.0)));
    open_span(rec, name, parent, weight, f)
}

/// Runs `f` in a span under an explicit parent with its own weight —
/// the re-run of a layer that was only reached inside `parent`.
fn rerun<T>(parent: u32, weight: f64, name: &'static str, f: impl FnOnce() -> T) -> T {
    let rec = recorder();
    if !rec.on.load(Ordering::Relaxed) {
        return f();
    }
    open_span(rec, name, parent, weight, f).0
}

fn open_span<T>(
    rec: &Recorder,
    name: &'static str,
    parent: u32,
    weight: f64,
    f: impl FnOnce() -> T,
) -> (T, u32) {
    let id = rec.next.fetch_add(1, Ordering::Relaxed) as u32;
    OPEN.with(|o| o.borrow_mut().push((id, weight)));
    let start_ns = rec.epoch.elapsed().as_nanos() as u64;
    let out = f();
    let end_ns = rec.epoch.elapsed().as_nanos() as u64;
    OPEN.with(|o| o.borrow_mut().pop());
    let request = rec.request.load(Ordering::Relaxed);
    rec.spans.lock().expect("span log").push(Span {
        id,
        parent,
        name,
        request,
        start_ns,
        end_ns,
        weight,
    });
    (out, id)
}

/// Every recorded span's weighted self time, summed per `(request,
/// name)`.
fn self_times(spans: &[Span]) -> HashMap<(u64, &'static str), f64> {
    let mut children: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += (s.end_ns - s.start_ns) as f64 * s.weight;
        }
    }
    let mut out: HashMap<(u64, &'static str), f64> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns) as f64 * s.weight;
        let kids = children.get(&s.id).copied().unwrap_or(0.0);
        *out.entry((s.request, s.name)).or_default() += own - kids;
    }
    out
}

// ---------------------------------------------------------------------
// Cache backends with spans and byte counts.
// ---------------------------------------------------------------------

/// A [`DirBackend`] whose `load`/`store` calls get spans when they run
/// under an open span on the calling thread.
#[derive(Debug)]
struct TracedBackend(DirBackend);

impl CacheBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn load(&self, key: u128) -> Option<Vec<u8>> {
        traced_io("backend.load", || self.0.load(key))
    }
    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        traced_io("backend.store", || self.0.store(key, bytes))
    }
    fn load_manifest(&self) -> Option<String> {
        traced_io("backend.load", || self.0.load_manifest())
    }
    fn store_manifest(&self, text: &str) -> io::Result<()> {
        traced_io("backend.store", || self.0.store_manifest(text))
    }
}

fn traced_io<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if OPEN.with(|o| o.borrow().is_empty()) {
        f()
    } else {
        span(name, f).0
    }
}

/// Counts the bytes an engine hands its backend.
#[derive(Debug)]
struct CountingBackend {
    inner: Box<dyn CacheBackend>,
    written: Arc<AtomicU64>,
}

impl CacheBackend for CountingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn load(&self, key: u128) -> Option<Vec<u8>> {
        self.inner.load(key)
    }
    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        self.written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.store(key, bytes)
    }
    fn load_manifest(&self) -> Option<String> {
        self.inner.load_manifest()
    }
    fn store_manifest(&self, text: &str) -> io::Result<()> {
        self.written.fetch_add(text.len() as u64, Ordering::Relaxed);
        self.inner.store_manifest(text)
    }
}

// ---------------------------------------------------------------------
// The three stacks.
// ---------------------------------------------------------------------

/// The untraced in-process server, with a byte counter on its backend.
fn reference_server(dir: &Path) -> io::Result<(Server, Arc<AtomicU64>)> {
    let written = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&written);
    let config = ServerConfig {
        cache_dir: Some(dir.to_owned()),
        backend_wrap: Some(BackendWrap(Arc::new(move |inner| {
            Box::new(CountingBackend { inner, written: Arc::clone(&counter) })
        }))),
        ..ServerConfig::default()
    };
    Ok((Server::new(config)?, written))
}

/// The layer-by-layer stack: an engine configured as the daemon's
/// default engine, over a traced backend.
struct Layered {
    engine: BatchEngine,
    analyzer: Analyzer,
    /// A cache over an always-empty directory: re-runs a miss probe.
    miss_probe: PersistentCache,
    framer: LineFramer,
    queue: FairQueue<String>,
    /// Each tracked file's last analysis, the "old" side of a partial
    /// re-analysis.
    last: HashMap<String, Arc<CachedAnalysis>>,
}

impl Layered {
    fn open(dir: &Path, probe_dir: &Path) -> io::Result<Layered> {
        let config = AnalyzerConfig::default();
        let backend = Box::new(TracedBackend(DirBackend::open(dir)?));
        let engine = BatchEngine::new(Analyzer::with_config(config.clone()))
            .with_persistent_cache(PersistentCache::with_backend(dir, &config, backend));
        let probe = Box::new(TracedBackend(DirBackend::open(probe_dir)?));
        Ok(Layered {
            engine,
            analyzer: Analyzer::with_config(config.clone()),
            miss_probe: PersistentCache::with_backend(probe_dir, &config, probe),
            framer: LineFramer::default(),
            queue: FairQueue::new(16),
            last: HashMap::new(),
        })
    }

    /// Serves one request line layer by layer; returns the payload.
    fn handle(&mut self, line: &str) -> Result<String, String> {
        let mut wire_bytes = line.as_bytes().to_vec();
        wire_bytes.push(b'\n');
        let mut reruns: Vec<Rerun> = Vec::new();
        let mut scan_span = 0;
        let mut workers = 1;
        let mut reread = false;
        let (payload, _) = span("server.handle", || -> Result<String, String> {
            let (frames, _) = span("eventloop.frame", || self.framer.feed(&wire_bytes, 4 << 20));
            if frames.len() != 1 {
                return Err("framing split the request".into());
            }
            span("eventloop.queue", || {
                let _ = self.queue.push(1, line.to_owned());
                let job = self.queue.pop();
                self.queue.complete(1);
                job
            });
            let (request, _) = span("server.request_parse", || parse_json(line));
            let request = Request::from(request.map_err(|e| format!("request parse: {e}"))?);
            let ((paths, errors), _) = span("cliopts.expand", || expand_inputs(&request.paths));
            if !errors.is_empty() {
                return Err(errors.join("; "));
            }
            let jobs = self.engine.jobs();
            let records: Vec<FileRecord> = if request.delta {
                span("summary.load", || self.engine.load_summary_store());
                let ((outcomes, _, _), scan) = span("delta.scan", || {
                    self.engine.rescan_delta_jobs(&paths, request.changed.as_deref(), jobs)
                });
                span("delta.manifest", || self.engine.save_tracked_manifest());
                span("summary.save", || self.engine.save_summary_store());
                // The edited files' texts are read after the request's
                // span closes: the real path read them inside the scan.
                for o in outcomes.iter().filter(|o| o.reanalyzed) {
                    let old = self.last.get(&o.path).cloned();
                    reruns.push(Rerun { text: o.path.clone(), reached: Reached::Analysis(old) });
                }
                reread = true;
                for o in &outcomes {
                    if let Some(a) = &o.analysis {
                        self.last.insert(o.path.clone(), Arc::clone(a));
                    }
                }
                (scan_span, workers) = (scan, jobs.min(reruns.len()).max(1));
                outcomes
                    .into_iter()
                    .map(|o| FileRecord {
                        path: o.path,
                        report: o.analysis.map(|a| a.report.clone()),
                        errors: o.errors,
                    })
                    .collect()
            } else {
                let sources = paths
                    .iter()
                    .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
                    .collect::<Result<Vec<String>, String>>()?;
                let ((outcomes, _), scan) =
                    span("batch.scan", || self.engine.scan_sources_with_stats_jobs(&sources, jobs));
                for (text, o) in sources.iter().zip(&outcomes) {
                    let reached = if o.from_source_cache {
                        Reached::SourceTier
                    } else if o.from_disk_cache {
                        Reached::DiskTier
                    } else {
                        Reached::Analysis(None)
                    };
                    reruns.push(Rerun { text: text.clone(), reached });
                }
                (scan_span, workers) = (scan, jobs.min(sources.len()).max(1));
                paths
                    .into_iter()
                    .zip(outcomes)
                    .map(|(path, o)| FileRecord { path, report: o.report, errors: o.errors })
                    .collect()
            };
            let (payload, _) = span("emit.render", || render_json(&records, None, None));
            Ok(payload)
        });

        let payload = payload?;
        if reread {
            for r in &mut reruns {
                r.text = std::fs::read_to_string(&r.text).map_err(|e| e.to_string())?;
            }
        }

        // The layers reached only inside the scan, re-run on exactly the
        // inputs that reached them, outside the request's span.
        let w = 1.0 / workers as f64;
        let pc = self.engine.persistent_cache().expect("layered engine has a disk tier");
        for r in reruns {
            let key = rerun(scan_span, w, "batch.fingerprint", || source_fingerprint(&r.text));
            let old = match r.reached {
                Reached::SourceTier => continue,
                Reached::DiskTier => {
                    rerun(scan_span, w, "cache.get", || pc.get(key));
                    continue;
                }
                Reached::Analysis(old) => old,
            };
            rerun(scan_span, w, "cache.get", || self.miss_probe.get(key));
            let Ok(program) = rerun(scan_span, w, "parse", || parse_program_recovering(&r.text))
            else {
                continue;
            };
            let entry = rerun(scan_span, w, "analysis", || {
                old.as_deref()
                    .and_then(|old| self.analyzer.analyze_partial(&program, old, None))
                    .map(|p| p.analysis)
                    .unwrap_or_else(|| self.analyzer.analyze_full(&program, None, None))
            });
            rerun(scan_span, w, "cache.put", || pc.put(key, &entry));
        }
        Ok(payload)
    }
}

/// How far down the tiers one input went inside the scan.
enum Reached {
    /// Served from the in-memory source tier: fingerprint only.
    SourceTier,
    /// Served from the disk tier: fingerprint and `get`.
    DiskTier,
    /// Missed every tier: fingerprint, miss probe, parse, analysis (a
    /// partial one against the previous analysis when there is one),
    /// and `put`.
    Analysis(Option<Arc<CachedAnalysis>>),
}

/// One input re-run through the layers the scan reached for it.
struct Rerun {
    /// The input's text (for a delta rescan, its path until the request
    /// has been served).
    text: String,
    reached: Reached,
}

/// The fields of an `analyze`/`delta` request the layered stack needs.
struct Request {
    delta: bool,
    paths: Vec<String>,
    changed: Option<Vec<String>>,
}

impl From<JsonNode> for Request {
    fn from(node: JsonNode) -> Request {
        let fields = match node {
            JsonNode::Obj(fields) => fields,
            _ => Vec::new(),
        };
        let strings = |name: &str| {
            wire::field(&fields, name).map(|v| match v {
                JsonNode::Arr(items) => items
                    .iter()
                    .filter_map(|i| match i {
                        JsonNode::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            })
        };
        Request {
            delta: wire::field(&fields, "op") == Some(&JsonNode::Str("delta".into())),
            paths: strings("paths").unwrap_or_default(),
            changed: strings("changed"),
        }
    }
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

/// Exact counts from the reference server's `stats` op.
const COUNTERS: [&str; 9] = [
    "fingerprint_hits",
    "fingerprint_misses",
    "parses",
    "functions_reanalyzed",
    "functions_reused",
    "summary_store_entries",
    "summary_store_hits",
    "persistent_hits",
    "persistent_stores",
];

fn server_counters(server: &Server) -> Vec<u64> {
    analysis_counters(&server.handle_line(&wire::op_line(0, "stats")).payload, &COUNTERS)
}

/// Per-layer time metrics: span name, metric name, unit scale.
const LAYERS: [(&str, &str, f64); 18] = [
    ("eventloop.frame", "eventloop.frame_us", 1e3),
    ("eventloop.queue", "eventloop.queue_us", 1e3),
    ("server.handle", "server.self_ms", 1e6),
    ("server.request_parse", "server.request_parse_us", 1e3),
    ("cliopts.expand", "cliopts.expand_ms", 1e6),
    ("batch.scan", "batch.scan_ms", 1e6),
    ("batch.fingerprint", "batch.fingerprint_us", 1e3),
    ("parse", "parse.ms", 1e6),
    ("analysis", "analysis.ms", 1e6),
    ("summary.load", "summary.load_ms", 1e6),
    ("summary.save", "summary.save_ms", 1e6),
    ("delta.scan", "delta.scan_ms", 1e6),
    ("delta.manifest", "delta.manifest_ms", 1e6),
    ("cache.get", "cache.get_us", 1e3),
    ("cache.put", "cache.put_us", 1e3),
    ("backend.load", "backend.load_us", 1e3),
    ("backend.store", "backend.store_us", 1e3),
    ("emit.render", "emit.ms", 1e6),
];

fn unit_of(metric: &str) -> &'static str {
    if metric.ends_with("_us") {
        "us"
    } else {
        "ms"
    }
}

/// Copies the disk-tier entries a fresh CI daemon would find for
/// `paths` (in the daemon's cache, before it sees the request) into the
/// in-process stacks' caches, so all three start from the same state.
fn copy_cache_entries(from: &DirBackend, to: &[&DirBackend], paths: &[String]) -> io::Result<()> {
    for path in paths {
        let key = source_fingerprint(&std::fs::read_to_string(path)?);
        if let Some(bytes) = from.load(key) {
            for dir in to {
                dir.store(key, &bytes)?;
            }
        }
    }
    Ok(())
}

/// A counter of an in-process reply header's `delta` object.
fn header_delta(reply: &pnew_detector::server::Reply, name: &str) -> u64 {
    let Ok(JsonNode::Obj(header)) = parse_json(&reply.header) else { return 0 };
    Reply { header, payload: String::new() }.delta_counter(name)
}

pub fn run(
    fixture: &mut Fixture,
    bin: &Path,
    work: &Path,
    seconds: Duration,
) -> io::Result<String> {
    let dir = |name: &str| -> io::Result<PathBuf> {
        let d = work.join(name);
        std::fs::create_dir_all(&d)?;
        Ok(d)
    };
    let (a_dir, b_dir, probe_dir) =
        (dir("trace-server")?, dir("trace-layers")?, dir("trace-probe")?);
    let (mut server, mut written) = reference_server(&a_dir)?;
    let mut layered = Layered::open(&b_dir, &probe_dir)?;
    let mut daemon = Daemon::spawn(bin, &fixture.cache_dir)?;
    let mut conn: Conn = daemon.connect()?;
    let mut failures: Vec<String> = Vec::new();

    if let Some(line) = fixture.priming_line() {
        let (reply, _) = conn.request(&line)?;
        if !reply.ok() {
            return Err(io::Error::other(format!("priming failed: {:?}", reply.header)));
        }
        fixture.check_priming(&reply.payload).map_err(io::Error::other)?;
        if server.handle_line(&line).payload != reply.payload
            || layered.handle(&line).map_err(io::Error::other)? != reply.payload
        {
            return Err(io::Error::other("in-process priming differs from the daemon's"));
        }
    }
    let copy = (fixture.workload == Workload::CiScan)
        .then(|| -> io::Result<_> {
            Ok((
                DirBackend::open(&fixture.cache_dir)?,
                DirBackend::open(&a_dir)?,
                DirBackend::open(&b_dir)?,
            ))
        })
        .transpose()?;

    let window = count_window(fixture.workload);
    let before = server_counters(&server);
    let written_before = written.load(Ordering::Relaxed);
    let mut counts: Option<Vec<(&str, f64)>> = None;
    let (mut cone, mut payload_bytes) = (0u64, 0u64);
    let (mut tcp_ns, mut server_ns): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let rec = recorder();
    rec.on.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + seconds;
    let mut id = 0u64;
    loop {
        let mut stream = Stream::new(
            fixture.workload,
            fixture.seed,
            0,
            fixture.job,
            fixture.paths.len(),
            fixture.knobs.clone(),
        );
        while tcp_ns.len() < window || Instant::now() < deadline {
            let Some(step) = stream.next() else { break };
            id += 1;
            let (line, paths) = fixture.request(&step, id)?;
            if let (Some((from, a, b)), Step::Analyze(_)) = (&copy, &step) {
                copy_cache_entries(from, &[a, b], &paths)?;
            }
            rec.request.store(id, Ordering::Relaxed);
            let (reply, ns) = conn.request(&line)?;
            let start = Instant::now();
            let reference = server.handle_line(&line);
            server_ns.push(start.elapsed().as_nanos() as f64);
            tcp_ns.push(ns as f64);
            let layered_payload = layered.handle(&line);
            if !reply.ok() {
                failures.push(format!("request {id}: ok:false {:?}", reply.header));
            } else if let Err(e) = fixture.check_reply(&reply, &paths) {
                failures.push(format!("request {id}: {e}"));
            } else if reference.payload != reply.payload {
                failures.push(format!("request {id}: in-process server differs from the daemon"));
            } else if layered_payload.as_deref() != Ok(reply.payload.as_str()) {
                failures.push(format!("request {id}: layered replay differs from the daemon"));
            }
            if tcp_ns.len() <= window {
                cone += header_delta(&reference, "cone_functions");
                payload_bytes += reference.payload.len() as u64;
            }
            if tcp_ns.len() == window {
                counts = Some(window_counts(
                    &server,
                    &before,
                    cone,
                    payload_bytes,
                    &written,
                    written_before,
                ));
            }
        }
        if fixture.workload != Workload::CiScan || Instant::now() >= deadline {
            break;
        }
        // The next CI job, as in the timed run: the next revision, and
        // fresh processes and engines on the caches the job left.
        daemon.shutdown()?;
        fixture.next_revision()?;
        daemon = Daemon::spawn(bin, &fixture.cache_dir)?;
        conn = daemon.connect()?;
        (server, written) = reference_server(&a_dir)?;
        layered = Layered::open(&b_dir, &probe_dir)?;
    }
    rec.on.store(false, Ordering::Relaxed);
    daemon.shutdown()?;

    let requests = tcp_ns.len();
    let counts = counts.ok_or_else(|| {
        io::Error::other(format!("only {requests} requests traced, {window} needed for the counts"))
    })?;
    let spans = std::mem::take(&mut *rec.spans.lock().expect("span log"));
    let selfs = self_times(&spans);
    let per_request = |name: &str| -> f64 {
        selfs.iter().filter(|((_, n), _)| *n == name).map(|(_, v)| v).sum::<f64>() / requests as f64
    };
    // `parse.files`: inputs the layered replay re-parsed in the count
    // window — an independent check on the server's `parses` counter.
    let parsed =
        spans.iter().filter(|s| s.name == "parse" && s.request as usize <= window).count() as f64;

    let mean_tcp = stats::mean(&tcp_ns).unwrap_or(0.0) / 1e6;
    let mean_server = stats::mean(&server_ns).unwrap_or(0.0) / 1e6;
    let mut metrics: Vec<(String, f64, &str)> = vec![
        ("eventloop.transport_ms".into(), mean_tcp - mean_server, "ms"),
        ("server.handle_ms".into(), mean_server, "ms"),
    ];
    let mut layer_sum = 0.0;
    for (span_name, metric, scale) in LAYERS {
        let ns = per_request(span_name);
        layer_sum += ns;
        metrics.push((metric.into(), ns / scale, unit_of(metric)));
    }
    let layer_sum_ms = layer_sum / 1e6;
    metrics.push(("trace.layer_sum_ms".into(), layer_sum_ms, "ms"));
    metrics.push(("trace.layer_sum_ratio".into(), layer_sum_ms / mean_server, "ratio"));
    metrics.push(("trace.overhead_ms".into(), layer_sum_ms - mean_server, "ms"));
    for (name, value) in counts {
        metrics.push((name.into(), value, "count"));
    }
    metrics.push(("parse.files".into(), parsed, "count"));

    println!(
        "# trace: {requests} requests, {} spans; tcp {:.4}ms, server.handle {:.4}ms, \
         layers sum {:.4}ms ({:.1}% of server.handle)",
        spans.len(),
        mean_tcp,
        mean_server,
        layer_sum_ms,
        100.0 * layer_sum_ms / mean_server
    );
    for f in failures.iter().take(5) {
        println!("# failure: {f}");
    }
    let borrowed: Vec<(&str, f64, &str)> =
        metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u)).collect();
    let failed = failures.len() as u64;
    Ok(result_line(failed == 0, requests as u64, failed, &borrowed))
}

fn window_counts(
    server: &Server,
    before: &[u64],
    cone: u64,
    payload_bytes: u64,
    written: &AtomicU64,
    written_before: u64,
) -> Vec<(&'static str, f64)> {
    let now = server_counters(server);
    let delta = |i: usize| now[i].saturating_sub(before[i]) as f64;
    vec![
        ("batch.tier_hits", delta(0)),
        ("batch.tier_misses", delta(1)),
        ("batch.parses", delta(2)),
        ("analysis.functions_reanalyzed", delta(3)),
        ("analysis.functions_reused", delta(4)),
        ("summary.store_entries", now[5] as f64),
        ("summary.store_hits", delta(6)),
        ("cache.disk_hits", delta(7)),
        ("cache.stores", delta(8)),
        ("delta.cone_functions", cone as f64),
        ("emit.payload_bytes", payload_bytes as f64),
        (
            "backend.bytes_written",
            written.load(Ordering::Relaxed).saturating_sub(written_before) as f64,
        ),
    ]
}
