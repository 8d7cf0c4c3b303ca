//! `pncheckd` — the detector as a persistent analysis service.
//!
//! Every one-shot `pncheck` run pays process startup, cache open, and
//! engine construction before it analyzes a single file. A [`Server`]
//! pays them once: it holds one [`BatchEngine`] — its in-memory memo,
//! summary store, tracked index and (optionally) a [`PersistentCache`]
//! — across requests, so a warm `analyze` of unchanged text runs zero
//! parses and zero analyses. The engine caches every source once,
//! unfiltered; a request's `min_severity` and `disable` apply only when
//! its records are rendered, so requests with different filters share
//! all warm state. Requests fan out onto the engine's worker pool with
//! a per-request `jobs` override.
//!
//! # The `pncheckd/1` protocol
//!
//! Newline-delimited JSON over stdin/stdout or a TCP connection. A
//! **request** is one line, a JSON object:
//!
//! ```text
//! {"op":"analyze","id":1,"paths":["examples/pnx"],"jobs":2}
//! {"op":"analyze","id":2,"source":"program p;\nfn main() {}\n","format":"json"}
//! {"op":"delta","id":3,"paths":["examples/pnx"],"changed":["examples/pnx/l4.pnx"]}
//! {"op":"stats","id":4}
//! {"op":"ping","id":5}
//! {"op":"shutdown","id":6}
//! ```
//!
//! A **response** is one header line — a compact JSON object that never
//! contains a raw newline — followed by exactly `bytes` bytes of
//! payload:
//!
//! ```text
//! {"schema":"pncheckd/1","id":1,"ok":true,"op":"analyze","exit":1,"bytes":1234}
//! ...1234 payload bytes...
//! ```
//!
//! The `analyze` payload **reuses the `pncheck` envelopes byte for
//! byte**: `format: "json"` (the default) is exactly `pncheck --format
//! json` over the same inputs, `"sarif"` is `--format sarif`, `"text"`
//! is the CLI's text report. `exit` mirrors the CLI's exit status (0
//! clean, 1 findings, 2 read/parse errors). The `delta` op rescans
//! paths incrementally through the engine's tracked index — unchanged
//! files (by stat, plus an optional client `changed` hint) are served
//! with zero reads and zero parses, the payload stays byte-identical
//! to a full `analyze` of the same paths, and the header carries the
//! invalidation-cone counters. Malformed, oversized, or
//! invalid requests get `"ok":false` with a structured `error` object —
//! never a dropped connection, and never interference with other
//! clients. Field values are validated by [`crate::cliopts`], the same
//! rules the CLI enforces.
//!
//! Robustness is the point of a daemon: request lines are bounded
//! ([`ServerConfig::max_request_bytes`], code `too-large`), idle
//! connections are reaped ([`ServerConfig::idle_timeout`], code
//! `idle-timeout`), and `shutdown` stops the accept loop, closes
//! lingering connections, and lets in-flight requests finish — cache
//! entries are written synchronously during each scan, so nothing is
//! lost.
//!
//! Both transports — [`Server::serve_listener`] (TCP) and
//! [`Server::serve_connection`] (stdio) — are thin drivers around the
//! one sans-IO connection [`Core`] in [`crate::eventloop`], which owns
//! every connection decision: framing, fair queuing, protocol errors,
//! output buffering, idle reaping, closing and draining.
//!
//! # Load
//!
//! Over TCP, each connection has a thread blocked on its socket,
//! requests queue fairly per client, and a worker pool drains the
//! queue. Load beyond [`ServerConfig::max_connections`] therefore
//! degrades to *queuing*, not rejection — `busy` is only returned at
//! the hard connection cap (8 × `max_connections`), and a client that
//! pipelines past its per-connection quota ([`ServerConfig::client_quota`])
//! gets a `quota-exceeded` error for the excess request while the
//! connection survives. A connection's next bytes are read only once
//! everything it sent before is answered and written, so the quota
//! applies to the requests one read (at most 8 KiB) delivers; the DST
//! simulator reads whenever the core wants input, a superset of these
//! interleavings.

use std::collections::HashMap;
use std::fmt;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufRead, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use crate::analysis::{Analyzer, AnalyzerConfig};
use crate::backend::{CacheBackend, DirBackend};
use crate::batch::{BatchEngine, BatchStats};
use crate::cache::PersistentCache;
use crate::cliopts;
use crate::clock::{Clock, SystemClock};
use crate::emit::{self, FileRecord, OutputFormat};
use crate::eventloop::Core;
use crate::findings::ReportFilter;
use crate::json::{int, obj, s};

// Protocol clients (the DST harness, perfbench) read replies with the
// crate's one JSON type and import it from here.
pub use crate::json::{parse_json, JsonNode};

/// The protocol name and version announced in every response header.
pub const PROTOCOL: &str = "pncheckd/1";

/// The stats payload schema.
pub const STATS_SCHEMA: &str = "pncheckd-stats/5";

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// The analyze-request options after validation.
#[derive(Debug, Clone)]
struct AnalyzeRequest {
    /// Filesystem paths (dirs expand) — exclusive with `source`.
    paths: Vec<String>,
    /// Inline source text, analyzed under the path `-`.
    source: Option<String>,
    jobs: Option<usize>,
    /// The daemon's default filter with the request's `min_severity`
    /// and `disable` applied.
    filter: ReportFilter,
    format: OutputFormat,
    stats: bool,
    /// `op: "delta"`: incremental rescan against the engine's tracked
    /// index instead of a full scan. Requires `paths`.
    delta: bool,
    /// Client-named changed paths for a delta rescan (a hint — every
    /// path is still stat-checked, so a stale hint cannot go stale).
    changed: Option<Vec<String>>,
}

enum Request {
    Analyze(Box<AnalyzeRequest>),
    Ping,
    Stats,
    Shutdown,
}

/// A protocol-level failure: a stable machine-readable code plus a
/// human-oriented message.
struct RequestError {
    code: &'static str,
    message: String,
}

impl RequestError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        RequestError { code, message: message.into() }
    }
}

fn parse_request(
    node: JsonNode,
    base: &ReportFilter,
) -> Result<(JsonNode, Request), (JsonNode, RequestError)> {
    let JsonNode::Obj(fields) = node else {
        return Err((
            JsonNode::Null,
            RequestError::new("bad-request", "request must be a JSON object"),
        ));
    };
    // The id is recovered first so even a rejected request echoes it,
    // verbatim: null, a string or a non-negative integer.
    let id = match fields.iter().find(|(k, _)| k == "id").map(|(_, v)| v) {
        None => JsonNode::Null,
        Some(id @ (JsonNode::Null | JsonNode::Str(_))) => id.clone(),
        Some(id @ JsonNode::Int(n)) if *n >= 0 => id.clone(),
        Some(_) => {
            return Err((
                JsonNode::Null,
                RequestError::new(
                    "bad-request",
                    "\"id\" must be a string or a non-negative integer",
                ),
            ));
        }
    };
    let fail = |code, message: String| (id.clone(), RequestError::new(code, message));

    let Some(JsonNode::Str(op)) = fields.iter().find(|(k, _)| k == "op").map(|(_, v)| v) else {
        return Err(fail("bad-request", "request needs a string \"op\" field".to_owned()));
    };
    let allowed: &[&str] = match op.as_str() {
        "analyze" => {
            &["op", "id", "paths", "source", "jobs", "min_severity", "disable", "format", "stats"]
        }
        "delta" => {
            &["op", "id", "paths", "changed", "jobs", "min_severity", "disable", "format", "stats"]
        }
        "ping" | "stats" | "shutdown" => &["op", "id"],
        other => {
            return Err(fail(
                "unknown-op",
                format!("unknown op {other:?} (analyze|delta|stats|ping|shutdown)"),
            ));
        }
    };
    for (key, _) in &fields {
        if !allowed.contains(&key.as_str()) {
            return Err(fail("bad-request", format!("unknown field {key:?} for op {op:?}")));
        }
    }
    let op = op.clone();
    match op.as_str() {
        "ping" => return Ok((id, Request::Ping)),
        "stats" => return Ok((id, Request::Stats)),
        "shutdown" => return Ok((id, Request::Shutdown)),
        _ => {}
    }

    // analyze: shared options are validated by the same `cliopts` rules
    // the CLI uses, so the daemon cannot drift from `pncheck`.
    let mut req = AnalyzeRequest {
        paths: Vec::new(),
        source: None,
        jobs: None,
        filter: base.clone(),
        format: OutputFormat::Json,
        stats: false,
        delta: op == "delta",
        changed: None,
    };
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("op", _) | ("id", _) => {}
            ("paths", JsonNode::Arr(items)) => {
                for item in items {
                    match item {
                        JsonNode::Str(path) => req.paths.push(path),
                        _ => {
                            return Err(fail(
                                "bad-request",
                                "\"paths\" must be an array of strings".to_owned(),
                            ));
                        }
                    }
                }
            }
            ("source", JsonNode::Str(text)) => req.source = Some(text),
            ("changed", JsonNode::Arr(items)) => {
                let mut changed = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        JsonNode::Str(path) => changed.push(path),
                        _ => {
                            return Err(fail(
                                "bad-request",
                                "\"changed\" must be an array of strings".to_owned(),
                            ));
                        }
                    }
                }
                req.changed = Some(changed);
            }
            ("jobs", JsonNode::Int(n)) => match cliopts::parse_jobs(&n.to_string()) {
                Ok(n) => req.jobs = Some(n),
                Err(e) => return Err(fail("bad-value", e)),
            },
            ("min_severity", JsonNode::Str(level)) => match cliopts::parse_min_severity(&level) {
                Ok(s) => req.filter.min_severity = s,
                Err(e) => return Err(fail("bad-value", e)),
            },
            ("disable", JsonNode::Arr(items)) => {
                for item in items {
                    match item {
                        JsonNode::Str(kind) => match cliopts::parse_disable(&kind) {
                            Ok(k) => req.filter.disabled.push(k),
                            Err(e) => return Err(fail("bad-value", e)),
                        },
                        _ => {
                            return Err(fail(
                                "bad-request",
                                "\"disable\" must be an array of strings".to_owned(),
                            ));
                        }
                    }
                }
            }
            ("format", JsonNode::Str(value)) => match cliopts::parse_format(&value) {
                Ok(f) => req.format = f,
                Err(e) => return Err(fail("bad-value", e)),
            },
            ("stats", JsonNode::Bool(b)) => req.stats = b,
            (key, _) => {
                return Err(fail("bad-request", format!("field {key:?} has the wrong type")));
            }
        }
    }
    if req.delta {
        if req.paths.is_empty() {
            return Err(fail("bad-request", "delta needs a non-empty \"paths\"".to_owned()));
        }
    } else if req.paths.is_empty() == req.source.is_none() {
        return Err(fail(
            "bad-request",
            "analyze needs exactly one of \"paths\" or \"source\"".to_owned(),
        ));
    }
    Ok((id, Request::Analyze(Box::new(req))))
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The filter requests inherit (`pncheckd --min-severity`,
    /// `--disable`): a request's `min_severity` replaces its threshold
    /// and its `disable` adds kinds, for that request only.
    pub filter: ReportFilter,
    /// Default worker count per scan; `None` = available parallelism.
    pub jobs: Option<usize>,
    /// Directory for the persistent cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Longest accepted request line, in bytes. Longer lines are
    /// discarded and answered with a `too-large` error.
    pub max_request_bytes: usize,
    /// The fair-queuing design point: connections beyond this queue
    /// instead of being rejected, and `busy` only appears at the hard
    /// cap of 8 × this value.
    pub max_connections: usize,
    /// Most requests one connection may have queued + in flight;
    /// the excess request is answered with `quota-exceeded` and the
    /// connection survives.
    pub client_quota: usize,
    /// How long a TCP connection may sit idle — nothing queued, nothing
    /// in flight — before the server closes it (`idle-timeout`).
    /// `None` = never.
    pub idle_timeout: Option<Duration>,
    /// The time source for idle reaping, uptime and pass timing. The
    /// real [`SystemClock`] by default; the DST harness (the `pnew-dst`
    /// crate) installs a virtual clock so whole schedules run on
    /// virtual time.
    pub clock: Arc<dyn Clock>,
    /// Test seam: wraps the persistent backend once, as it is opened.
    /// `None` (always, outside the DST harness) uses the backend as
    /// opened; the harness injects its fault-injecting backend here.
    pub backend_wrap: Option<BackendWrap>,
}

/// A hook that wraps a freshly opened persistent [`CacheBackend`]
/// before the cache layer sees it. Not reachable from the CLI — this
/// exists so the DST harness can interpose fault injection between
/// [`PersistentCache`] and the real store.
#[derive(Clone)]
pub struct BackendWrap(
    /// The wrapping function; receives the opened backend, returns the
    /// backend the engine should actually use.
    pub Arc<BackendWrapFn>,
);

/// The function type carried by [`BackendWrap`].
pub type BackendWrapFn = dyn Fn(Box<dyn CacheBackend>) -> Box<dyn CacheBackend> + Send + Sync;

impl fmt::Debug for BackendWrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BackendWrap(..)")
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            filter: ReportFilter::default(),
            jobs: None,
            cache_dir: None,
            max_request_bytes: 4 * 1024 * 1024,
            max_connections: 32,
            client_quota: 16,
            idle_timeout: Some(Duration::from_secs(300)),
            clock: Arc::new(SystemClock::default()),
            backend_wrap: None,
        }
    }
}

/// One response, framed and ready to write: a single header line plus
/// exactly the payload bytes the header advertises.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Compact single-line JSON header (no trailing newline).
    pub header: String,
    /// Payload, exactly `bytes` bytes as advertised in the header.
    pub payload: String,
    /// The request asked the server to shut down.
    pub shutdown: bool,
}

impl Reply {
    fn error(id: &JsonNode, err: &RequestError) -> Reply {
        let header = obj(vec![
            ("schema", s(PROTOCOL)),
            ("id", id.clone()),
            ("ok", JsonNode::Bool(false)),
            ("error", obj(vec![("code", s(err.code)), ("message", s(err.message.clone()))])),
            ("bytes", int(0)),
        ]);
        Reply { header: header.compact(), payload: String::new(), shutdown: false }
    }
}

/// The events a [`Server`] counts, each once. `stats` prints them as
/// `requests.*` (an `Error` is any request answered with an error,
/// refusals other than `busy` and `idle-timeout` included),
/// `connections.{accepted, rejected, idle_reaped}`, and
/// `analysis.{files, findings}` (findings after each request's filter).
#[derive(Debug, Clone, Copy)]
enum Event {
    Request,
    Analyze,
    Delta,
    Ping,
    Stats,
    Shutdown,
    Error,
    QuotaExceeded,
    Connection,
    Rejected,
    IdleReaped,
    File,
    Finding,
}

/// One slot per [`Event`]; `Finding` is the last.
const EVENTS: usize = Event::Finding as usize + 1;

/// The resident analysis service. See the [module docs](self) for the
/// protocol. Thread-safe: one `Server` handles any number of
/// connections concurrently, and all of them share the warm engine.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    /// The one analysis engine. It caches unfiltered analyses, so it
    /// serves every request whatever filter the request asks for.
    engine: BatchEngine,
    events: [AtomicU64; EVENTS],
    started_ns: u64,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
}

impl Server {
    /// Builds the server and its engine, opening the persistent store,
    /// so an unusable `cache_dir` fails here — fast, with the
    /// underlying error — instead of degrading silently per request.
    pub fn new(config: ServerConfig) -> io::Result<Self> {
        let started_ns = config.clock.now_ns();
        let mut engine = BatchEngine::new(Analyzer::new()).with_clock(Arc::clone(&config.clock));
        if let Some(jobs) = config.jobs {
            engine = engine.with_jobs(jobs);
        }
        if let Some(dir) = &config.cache_dir {
            let opened: Box<dyn CacheBackend> = Box::new(DirBackend::open(dir)?);
            let backend = match &config.backend_wrap {
                Some(wrap) => (wrap.0)(opened),
                None => opened,
            };
            engine = engine.with_persistent_cache(PersistentCache::with_backend(
                dir,
                &AnalyzerConfig::default(),
                backend,
            ));
        }
        Ok(Server {
            config,
            engine,
            events: Default::default(),
            started_ns,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
        })
    }

    fn count(&self, event: Event, n: u64) {
        self.events[event as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn counted(&self, event: Event) -> JsonNode {
        int(self.events[event as usize].load(Ordering::Relaxed))
    }

    /// `true` once a `shutdown` request has been served.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line and returns the framed reply. This is
    /// the whole protocol with the transport peeled off — the tests
    /// drive it directly, and every transport goes through it.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.count(Event::Request, 1);
        let parsed = match parse_json(line) {
            Ok(node) => parse_request(node, &self.config.filter),
            Err(e) => Err((
                JsonNode::Null,
                RequestError::new("bad-request", format!("invalid JSON: {e}")),
            )),
        };
        match parsed {
            Err((id, err)) => {
                self.count(Event::Error, 1);
                Reply::error(&id, &err)
            }
            Ok((id, Request::Ping)) => {
                self.count(Event::Ping, 1);
                let header = obj(vec![
                    ("schema", s(PROTOCOL)),
                    ("id", id.clone()),
                    ("ok", JsonNode::Bool(true)),
                    ("op", s("ping")),
                    ("event", s("pong")),
                    ("bytes", int(0)),
                ]);
                Reply { header: header.compact(), payload: String::new(), shutdown: false }
            }
            Ok((id, Request::Stats)) => {
                self.count(Event::Stats, 1);
                let payload = self.render_stats();
                let header = obj(vec![
                    ("schema", s(PROTOCOL)),
                    ("id", id.clone()),
                    ("ok", JsonNode::Bool(true)),
                    ("op", s("stats")),
                    ("bytes", int(payload.len() as u64)),
                ]);
                Reply { header: header.compact(), payload, shutdown: false }
            }
            Ok((id, Request::Shutdown)) => {
                self.count(Event::Shutdown, 1);
                self.shutdown.store(true, Ordering::SeqCst);
                let header = obj(vec![
                    ("schema", s(PROTOCOL)),
                    ("id", id.clone()),
                    ("ok", JsonNode::Bool(true)),
                    ("op", s("shutdown")),
                    ("event", s("shutting-down")),
                    ("bytes", int(0)),
                ]);
                Reply { header: header.compact(), payload: String::new(), shutdown: true }
            }
            Ok((id, Request::Analyze(req))) => {
                self.count(if req.delta { Event::Delta } else { Event::Analyze }, 1);
                self.analyze(&id, &req)
            }
        }
    }

    /// Serves one `analyze` request: expand inputs exactly like the
    /// CLI, scan through the shared engine, filter, and render the same
    /// envelope `pncheck` would print.
    fn analyze(&self, id: &JsonNode, req: &AnalyzeRequest) -> Reply {
        if req.delta {
            return self.analyze_delta(id, req);
        }

        let mut file_errors: Vec<String> = Vec::new();
        let mut files: Vec<(String, String)> = Vec::new();
        if let Some(source) = &req.source {
            // Inline text is analyzed under the path `-`, matching
            // `pncheck -` fed the same bytes on stdin.
            files.push(("-".to_owned(), source.clone()));
        } else {
            let (paths, expand_errors) = cliopts::expand_inputs(&req.paths);
            file_errors.extend(expand_errors);
            for path in paths {
                match std::fs::read_to_string(&path) {
                    Ok(source) => files.push((path, source)),
                    Err(e) => file_errors.push(format!("{path}: {e}")),
                }
            }
        }

        let sources: Vec<&str> = files.iter().map(|(_, s)| s.as_str()).collect();
        let jobs = req.jobs.unwrap_or_else(|| self.engine.jobs());
        let (outcomes, scan_stats) = self.engine.scan_sources_with_stats_jobs(&sources, jobs);
        let records = files
            .into_iter()
            .zip(outcomes)
            .map(|((path, _), o)| FileRecord { path, report: o.report, errors: o.errors })
            .collect();
        self.reply(id, req, records, scan_stats, file_errors, None)
    }

    /// Serves one `delta` request: an incremental rescan through the
    /// engine's tracked index. The payload is the same envelope a full
    /// `analyze` of the same paths would return, byte for byte; the
    /// header carries the invalidation counters.
    ///
    /// The first delta against a cold engine seeds the tracked index
    /// from the cache directory's manifest, so a fresh daemon picks up
    /// where a `pncheck --delta` run (or a previous daemon) left off.
    fn analyze_delta(&self, id: &JsonNode, req: &AnalyzeRequest) -> Reply {
        let (paths, mut file_errors) = cliopts::expand_inputs(&req.paths);
        let jobs = req.jobs.unwrap_or_else(|| self.engine.jobs());
        // `delta_scan` runs the whole operation — manifest seeding,
        // rescan, manifest persistence — under the engine's delta
        // gate, so a concurrent request can never snapshot a
        // half-updated tracked index.
        let (outcomes, scan_stats, delta) =
            self.engine.delta_scan(&paths, req.changed.as_deref(), jobs);

        let mut records: Vec<FileRecord> = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            if let Some(e) = &o.read_error {
                // Same shape the full-scan path produces for an
                // unreadable file: named in `file_errors`, no record.
                file_errors.push(format!("{}: {e}", o.path));
                continue;
            }
            records.push(FileRecord {
                path: o.path.clone(),
                report: o.analysis.as_ref().map(|a| a.report.clone()),
                errors: o.errors.clone(),
            });
        }

        let counters = obj(vec![
            ("tracked", int(delta.tracked_files as u64)),
            ("unchanged", int(delta.unchanged_files as u64)),
            ("changed", int(delta.changed_files as u64)),
            ("added", int(delta.added_files as u64)),
            ("removed", int(delta.removed_files as u64)),
            ("cone_functions", int(delta.cone_functions as u64)),
            ("changed_functions", int(delta.changed_functions as u64)),
            ("tracked_functions", int(delta.tracked_functions as u64)),
            ("functions_reanalyzed", int(delta.functions_reanalyzed as u64)),
            ("functions_reused", int(delta.functions_reused as u64)),
            ("stat_fastpath_hits", int(delta.stat_fastpath_hits as u64)),
        ]);
        self.reply(id, req, records, scan_stats, file_errors, Some(counters))
    }

    /// The one tail of `analyze` and `delta`: applies the request's
    /// filter to every record, counts the filtered records (the
    /// `findings` an embedded stats object shows), and renders the
    /// envelope and its header. `delta` is the invalidation accounting
    /// a `delta` header carries.
    fn reply(
        &self,
        id: &JsonNode,
        req: &AnalyzeRequest,
        mut records: Vec<FileRecord>,
        scan_stats: BatchStats,
        file_errors: Vec<String>,
        delta: Option<JsonNode>,
    ) -> Reply {
        let findings = emit::filter_records(&mut records, &req.filter);
        self.count(Event::File, records.len() as u64);
        self.count(Event::Finding, findings as u64);
        let stats = BatchStats { findings, ..scan_stats };
        let payload = emit::render(req.format, &records, req.stats.then_some(&stats), None);
        let had_errors = !file_errors.is_empty() || records.iter().any(|r| !r.errors.is_empty());
        let mut header_fields = vec![
            ("schema", s(PROTOCOL)),
            ("id", id.clone()),
            ("ok", JsonNode::Bool(true)),
            ("op", s(if req.delta { "delta" } else { "analyze" })),
            ("exit", int(emit::exit_status(&records, had_errors).into())),
        ];
        header_fields.extend(delta.map(|counters| ("delta", counters)));
        if !file_errors.is_empty() {
            header_fields.push((
                "file_errors",
                JsonNode::Arr(file_errors.iter().map(|e| s(e.clone())).collect()),
            ));
        }
        header_fields.push(("bytes", int(payload.len() as u64)));
        Reply { header: obj(header_fields).compact(), payload, shutdown: false }
    }

    /// The `pncheckd-stats/5` payload: the server's request and
    /// connection counts, and the engine's lifetime totals and analyzer
    /// counters. The engine adds a scan to its totals when the scan
    /// ends, so a `stats` request served during a scan sees the totals
    /// as of the last finished one. No wall-clock figure enters it.
    fn render_stats(&self) -> String {
        let engine = &self.engine;
        // One consistent snapshot, so `hits + misses == lookups`
        // survives concurrent requests: a stats reader can never see a
        // torn pair.
        let t = engine.totals();
        let store = engine.summary_store();
        let mut analysis = vec![
            ("files", self.counted(Event::File)),
            ("findings", self.counted(Event::Finding)),
            ("parses", int(t.scans.parses)),
            ("fingerprint_hits", int(t.scans.cache_hits)),
            ("fingerprint_misses", int(t.scans.cache_misses)),
            ("fingerprint_lookups", int(t.lookups)),
            ("memo_entries", int(t.entries as u64)),
            ("persistent_hits", int(t.scans.persistent_hits)),
            ("persistent_misses", int(t.scans.persistent_misses)),
            ("persistent_corrupt", int(t.scans.persistent_corrupt)),
            ("persistent_stores", int(t.scans.persistent_stores)),
            ("persistent_write_errors", int(t.scans.persistent_write_errors)),
            ("tracked_files", int(engine.tracked_files() as u64)),
            ("delta_changed_files", int(t.delta_changed_files)),
            ("delta_unchanged_files", int(t.delta_unchanged_files)),
            ("cone_functions", int(t.cone_functions)),
            ("functions_reanalyzed", int(t.functions_reanalyzed)),
            ("functions_reused", int(t.functions_reused)),
            ("summary_store_entries", int(store.len() as u64)),
            ("summary_store_misses", int(store.misses())),
        ];
        analysis.extend(emit::trace_counters(&engine.trace_report()));
        let payload = obj(vec![
            ("schema", s(STATS_SCHEMA)),
            ("tool", obj(vec![("name", s("pncheckd")), ("version", s(env!("CARGO_PKG_VERSION")))])),
            ("uptime_us", int(self.config.clock.now_ns().saturating_sub(self.started_ns) / 1_000)),
            (
                "requests",
                obj(vec![
                    ("total", self.counted(Event::Request)),
                    ("analyze", self.counted(Event::Analyze)),
                    ("delta", self.counted(Event::Delta)),
                    ("ping", self.counted(Event::Ping)),
                    ("stats", self.counted(Event::Stats)),
                    ("shutdown", self.counted(Event::Shutdown)),
                    ("errors", self.counted(Event::Error)),
                    ("quota_exceeded", self.counted(Event::QuotaExceeded)),
                ]),
            ),
            (
                "connections",
                obj(vec![
                    ("active", int(self.active_connections.load(Ordering::Relaxed) as u64)),
                    ("accepted", self.counted(Event::Connection)),
                    ("rejected", self.counted(Event::Rejected)),
                    ("idle_reaped", self.counted(Event::IdleReaped)),
                    ("max", int(self.config.max_connections as u64)),
                    ("hard_cap", int(hard_connection_cap(&self.config) as u64)),
                    ("client_quota", int(self.config.client_quota as u64)),
                ]),
            ),
            ("analysis", obj(analysis)),
        ]);
        payload.compact() + "\n"
    }

    /// Serves one byte-stream session — stdin/stdout — through the
    /// connection [`Core`] until EOF (after every request is answered)
    /// or a `shutdown` request. Input is fed one line at a time and each
    /// request is answered before the next line is read, so a piped
    /// client never meets its quota, however much it pipelines.
    pub fn serve_connection<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let clock = &self.config.clock;
        let mut core = Core::new(self);
        let id = core.open(clock.now_ns());
        loop {
            while let Some((conn, line)) = core.pop() {
                let reply = self.handle_line(&line);
                core.reply(conn, &reply, clock.now_ns());
            }
            let owed = core.output(id);
            if !owed.is_empty() {
                writer.write_all(owed)?;
                writer.flush()?;
                let n = owed.len();
                core.wrote(id, n);
            }
            core.sweep(clock.now_ns());
            if core.is_idle() {
                return Ok(());
            }
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                core.eof(id);
                continue;
            }
            let n = buf.iter().position(|&b| b == b'\n').map_or(buf.len(), |i| i + 1);
            core.read(id, &buf[..n], clock.now_ns());
            reader.consume(n);
        }
    }

    /// Accepts and serves TCP connections until a `shutdown` request
    /// arrives on any of them and the drain completes.
    ///
    /// Every socket blocks: the calling thread accepts, and each
    /// admitted connection's own thread writes what the [`Core`] owes it
    /// and reads only when the core [awaits its input](Core::awaits_input),
    /// that is, once everything the connection sent is answered and
    /// written (the DST simulator reads whenever the core wants input, a
    /// superset of these orders). The read timeout is the idle timeout.
    /// Workers pop requests through the core and hand the replies back
    /// without touching a socket. Every connection decision is the core's.
    pub fn serve_listener(&self, listener: TcpListener) -> io::Result<()> {
        let mut wake_addr = listener.local_addr()?;
        match &mut wake_addr {
            SocketAddr::V4(a) if a.ip().is_unspecified() => a.set_ip(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(a) if a.ip().is_unspecified() => a.set_ip(Ipv6Addr::LOCALHOST),
            _ => {}
        }
        let tcp = Tcp {
            server: self,
            hub: Mutex::new(Hub { core: Core::new(self), links: HashMap::new() }),
            job_ready: Condvar::new(),
            wake_addr,
        };
        thread::scope(|scope| {
            let workers = thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 4);
            for _ in 0..workers {
                scope.spawn(|| tcp.work());
            }
            for stream in listener.incoming() {
                if self.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream else {
                    // Running out of descriptors persists until a
                    // connection closes: back off rather than spin.
                    thread::sleep(Duration::from_millis(5));
                    continue;
                };
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(self.config.idle_timeout);
                let mut hub = tcp.lock();
                let id = hub.core.accept(self.config.clock.now_ns());
                let refusal = hub.core.output(id).to_vec();
                if refusal.is_empty() {
                    let link = Arc::new(Link { stream, wake: Condvar::new() });
                    hub.links.insert(id, Arc::clone(&link));
                    let tcp = &tcp;
                    let spawned = thread::Builder::new()
                        .stack_size(CONN_STACK)
                        .spawn_scoped(scope, move || tcp.serve(id, &link));
                    if spawned.is_err() {
                        hub.core.fail(id);
                    }
                } else {
                    // `busy`: a fresh socket's send buffer takes the one
                    // frame whole, so this write cannot block.
                    match (&stream).write_all(&refusal) {
                        Ok(()) => hub.core.wrote(id, refusal.len()),
                        Err(_) => hub.core.fail(id),
                    }
                }
                tcp.settle(&mut hub);
            }
        });
        Ok(())
    }

    /// The server's limits, for the connection core.
    pub(crate) fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Counts a protocol error the connection core answers without
    /// running a request, and renders its frame.
    pub(crate) fn refusal(&self, code: &'static str, message: String) -> Reply {
        match code {
            "busy" => self.count(Event::Rejected, 1),
            "idle-timeout" => self.count(Event::IdleReaped, 1),
            _ => {
                self.count(Event::Error, 1);
                if code == "quota-exceeded" {
                    self.count(Event::QuotaExceeded, 1);
                }
            }
        }
        Reply::error(&JsonNode::Null, &RequestError::new(code, message))
    }

    /// Counts a listener connection the core admitted (`true`) or
    /// closed (`false`).
    pub(crate) fn track_connection(&self, opened: bool) {
        if opened {
            self.active_connections.fetch_add(1, Ordering::SeqCst);
            self.count(Event::Connection, 1);
        } else {
            self.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The most owed output copied out of the core per socket write.
const FLUSH_CHUNK: usize = 256 * 1024;

/// The stack of a connection thread; requests run on the workers.
const CONN_STACK: usize = 64 * 1024;

/// The TCP driver's shared state. See [`Server::serve_listener`].
struct Tcp<'a> {
    server: &'a Server,
    hub: Mutex<Hub<'a>>,
    /// Workers wait here for a queued request.
    job_ready: Condvar,
    /// The listener's own address, loopback if it listens on every
    /// address: a served `shutdown` connects here to wake `accept`.
    wake_addr: SocketAddr,
}

/// What the TCP driver's lock guards: the core, and a link to every
/// admitted connection the core has not closed.
struct Hub<'a> {
    core: Core<'a>,
    links: HashMap<u64, Arc<Link>>,
}

/// An admitted connection's socket, and the condvar its thread waits
/// on for a reply or the close.
struct Link {
    stream: TcpStream,
    wake: Condvar,
}

impl<'a> Tcp<'a> {
    fn lock(&self) -> MutexGuard<'_, Hub<'a>> {
        self.hub.lock().expect("a thread panicked holding the core lock")
    }

    /// The thread of admitted connection `id`, until the core closes it.
    fn serve(&self, id: u64, link: &Link) {
        let mut buf = [0u8; 8192];
        let mut stream = &link.stream;
        let mut hub = self.lock();
        while hub.links.contains_key(&id) {
            let owed = hub.core.output(id);
            if !owed.is_empty() {
                let chunk = owed[..owed.len().min(FLUSH_CHUNK)].to_vec();
                drop(hub);
                let wrote = stream.write(&chunk);
                hub = self.lock();
                match wrote {
                    Ok(n) if n > 0 => hub.core.wrote(id, n),
                    Err(e) if e.kind() == Interrupted => {}
                    _ => hub.core.fail(id),
                }
            } else if hub.core.awaits_input(id) {
                drop(hub);
                let got = stream.read(&mut buf);
                let now_ns = self.server.config.clock.now_ns();
                hub = self.lock();
                let queued = match got {
                    _ if !hub.core.awaits_input(id) => false, // a shutdown or reap came first
                    Ok(0) => hub.core.eof(id),
                    Ok(n) => hub.core.read(id, &buf[..n], now_ns),
                    // A timed-out read hands over nothing: the sweep below
                    // reaps the idle connection.
                    Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => false,
                    Err(_) => {
                        hub.core.fail(id);
                        false
                    }
                };
                if queued {
                    self.job_ready.notify_all();
                }
            } else {
                hub = link.wake.wait(hub).expect("a thread panicked holding the core lock");
                continue;
            }
            self.settle(&mut hub);
        }
    }

    /// A worker: runs each request it pops outside the lock and hands
    /// its reply back, until a shutdown leaves nothing queued.
    fn work(&self) {
        let mut hub = self.lock();
        loop {
            let Some((id, line)) = hub.core.pop() else {
                if self.server.is_shutdown() {
                    return;
                }
                hub = self.job_ready.wait(hub).expect("a thread panicked holding the core lock");
                continue;
            };
            drop(hub);
            let reply = self.server.handle_line(&line);
            if reply.shutdown {
                // `accept` returns, sees the shutdown and stops.
                let _ = TcpStream::connect(self.wake_addr);
            }
            hub = self.lock();
            hub.core.reply(id, &reply, self.server.config.clock.now_ns());
            if let Some(link) = hub.links.get(&id) {
                link.wake.notify_one();
            }
            self.settle(&mut hub);
        }
    }

    /// Runs after every event: applies the core's sweep, and shuts the
    /// socket of each connection it closed (ending a blocked read or
    /// write) and wakes its thread. After a shutdown, wakes the workers.
    fn settle(&self, hub: &mut Hub<'_>) {
        for id in hub.core.sweep(self.server.config.clock.now_ns()).closed {
            if let Some(link) = hub.links.remove(&id) {
                let _ = link.stream.shutdown(Shutdown::Both);
                link.wake.notify_one();
            }
        }
        if self.server.is_shutdown() {
            self.job_ready.notify_all();
        }
    }
}

/// The `busy` threshold: fair queuing absorbs pressure up to eight
/// times the configured connection count before the daemon turns a
/// connection away outright.
pub(crate) fn hard_connection_cap(config: &ServerConfig) -> usize {
    config.max_connections.saturating_mul(8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerConfig::default()).expect("server builds")
    }

    fn header_fields(reply: &Reply) -> Vec<(String, JsonNode)> {
        match parse_json(&reply.header).expect("header parses") {
            JsonNode::Obj(fields) => fields,
            other => panic!("header is not an object: {other:?}"),
        }
    }

    fn field<'a>(fields: &'a [(String, JsonNode)], name: &str) -> &'a JsonNode {
        &fields.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no {name}")).1
    }

    #[test]
    fn ping_pongs_and_echoes_the_id() {
        let s = server();
        let reply = s.handle_line("{\"op\":\"ping\",\"id\":\"abc\"}");
        let fields = header_fields(&reply);
        assert_eq!(field(&fields, "id"), &JsonNode::Str("abc".into()));
        assert_eq!(field(&fields, "event"), &JsonNode::Str("pong".into()));
        assert_eq!(field(&fields, "bytes"), &JsonNode::Int(0));
        assert!(reply.payload.is_empty());
        let reply = s.handle_line("{\"op\":\"ping\",\"id\":7}");
        assert_eq!(field(&header_fields(&reply), "id"), &JsonNode::Int(7));
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let s = server();
        for (line, code) in [
            ("not json at all", "bad-request"),
            ("[1,2,3]", "bad-request"),
            ("{\"id\":1}", "bad-request"),
            ("{\"op\":\"frobnicate\"}", "unknown-op"),
            ("{\"op\":\"ping\",\"extra\":1}", "bad-request"),
            ("{\"op\":\"analyze\"}", "bad-request"),
            ("{\"op\":\"analyze\",\"paths\":[\"a\"],\"source\":\"b\"}", "bad-request"),
            ("{\"op\":\"analyze\",\"paths\":[1]}", "bad-request"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"jobs\":0}", "bad-value"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"min_severity\":\"loud\"}", "bad-value"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"disable\":[\"nope\"]}", "bad-value"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"format\":\"yaml\"}", "bad-value"),
            ("{\"op\":\"ping\",\"id\":-3}", "bad-request"),
            ("{\"op\":\"ping\",\"id\":\"\\u+041\"}", "bad-request"),
            ("{\"op\":\"ping\",\"id\":01}", "bad-request"),
            ("{\"op\":\"ping\",\"id\":1.}", "bad-request"),
        ] {
            let reply = s.handle_line(line);
            let fields = header_fields(&reply);
            assert_eq!(field(&fields, "ok"), &JsonNode::Bool(false), "{line}");
            let JsonNode::Obj(err) = field(&fields, "error") else { panic!("no error: {line}") };
            assert_eq!(field(err, "code"), &JsonNode::Str(code.into()), "{line}");
        }
    }

    #[test]
    fn analyze_inline_source_matches_the_cli_envelope_shape() {
        let s = server();
        let vulnerable = "program demo;\nclass Student size 16;\nclass GradStudent size 32 : Student;\nfn main() {\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) GradStudent();\n}\n";
        let request = JsonNode::Obj(vec![
            ("op".into(), JsonNode::Str("analyze".into())),
            ("id".into(), JsonNode::Int(1)),
            ("source".into(), JsonNode::Str(vulnerable.into())),
        ]);
        let reply = s.handle_line(&request.compact());
        let fields = header_fields(&reply);
        assert_eq!(field(&fields, "ok"), &JsonNode::Bool(true));
        assert_eq!(field(&fields, "exit"), &JsonNode::Int(1));
        assert_eq!(
            field(&fields, "bytes"),
            &JsonNode::Int(reply.payload.len() as i128),
            "advertised bytes match the payload"
        );
        assert!(reply.payload.contains("\"schema\": \"pncheck-report/1\""), "{}", reply.payload);
        assert!(reply.payload.contains("\"path\": \"-\""), "{}", reply.payload);
        assert!(reply.payload.contains("pnx/oversized-placement"), "{}", reply.payload);
    }

    #[test]
    fn second_analyze_of_the_same_source_runs_zero_parses() {
        let s = server();
        let src = "program p;\nclass C size 8;\nfn main() {\n    local c: C;\n}\n";
        let line = format!("{{\"op\":\"analyze\",\"source\":{}}}", emit::json_string(src));
        s.handle_line(&line);
        let stats = s.handle_line("{\"op\":\"stats\"}");
        let before = stats.payload.clone();
        s.handle_line(&line);
        let stats = s.handle_line("{\"op\":\"stats\"}");
        let parses = |payload: &str| {
            let JsonNode::Obj(fields) = parse_json(payload.trim()).unwrap() else { panic!() };
            let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
            match (field(&analysis, "parses"), field(&analysis, "fingerprint_hits")) {
                (JsonNode::Int(p), JsonNode::Int(h)) => (*p, *h),
                other => panic!("{other:?}"),
            }
        };
        let (parses_before, hits_before) = parses(&before);
        let (parses_after, hits_after) = parses(&stats.payload);
        assert_eq!(parses_after, parses_before, "warm re-analyze must not parse");
        assert_eq!(hits_after, hits_before + 1, "warm re-analyze is a fingerprint hit");
    }

    #[test]
    fn delta_requests_are_validated() {
        let s = server();
        for (line, code) in [
            ("{\"op\":\"delta\"}", "bad-request"),
            ("{\"op\":\"delta\",\"source\":\"x\"}", "bad-request"),
            ("{\"op\":\"delta\",\"paths\":[\"a\"],\"changed\":[1]}", "bad-request"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"changed\":[\"a\"]}", "bad-request"),
        ] {
            let reply = s.handle_line(line);
            let fields = header_fields(&reply);
            assert_eq!(field(&fields, "ok"), &JsonNode::Bool(false), "{line}");
            let JsonNode::Obj(err) = field(&fields, "error") else { panic!("no error: {line}") };
            assert_eq!(field(err, "code"), &JsonNode::Str(code.into()), "{line}");
        }
    }

    #[test]
    fn delta_payload_is_byte_identical_to_analyze_and_counts_the_cone() {
        let dir = std::env::temp_dir().join(format!("pnx-server-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vuln = "program demo;\nclass Student size 16;\nclass GradStudent size 32 : Student;\nfn main() {\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) GradStudent();\n}\n";
        let safe = "program demo;\nclass Student size 16;\nfn main() {\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) Student();\n}\n";
        std::fs::write(dir.join("a.pnx"), safe).unwrap();
        std::fs::write(dir.join("b.pnx"), safe.replace("program demo", "program other")).unwrap();
        let s = server();
        let path_list = format!("[\"{}\"]", dir.display());

        let full = s.handle_line(&format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}"));
        let first = s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        assert_eq!(first.payload, full.payload, "cold delta equals a full scan");

        // Edit one file; the delta payload must equal a fresh analyze.
        std::fs::write(dir.join("a.pnx"), vuln).unwrap();
        let warm = s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        let reference = s.handle_line(&format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}"));
        assert_eq!(warm.payload, reference.payload, "delta after edit equals a full scan");

        let fields = header_fields(&warm);
        assert_eq!(field(&fields, "op"), &JsonNode::Str("delta".into()));
        assert_eq!(field(&fields, "exit"), &JsonNode::Int(1), "the edit introduced a finding");
        let JsonNode::Obj(delta) = field(&fields, "delta") else { panic!("no delta counters") };
        assert_eq!(field(delta, "tracked"), &JsonNode::Int(2));
        assert_eq!(field(delta, "changed"), &JsonNode::Int(1));
        assert_eq!(field(delta, "unchanged"), &JsonNode::Int(1));

        // The stats envelope aggregates the delta counters.
        let stats = s.handle_line("{\"op\":\"stats\"}");
        let JsonNode::Obj(fields) = parse_json(stats.payload.trim()).unwrap() else { panic!() };
        let JsonNode::Obj(requests) = field(&fields, "requests").clone() else { panic!() };
        assert_eq!(field(&requests, "delta"), &JsonNode::Int(2));
        let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
        assert_eq!(field(&analysis, "tracked_files"), &JsonNode::Int(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_names_unreadable_files_in_file_errors() {
        let dir = std::env::temp_dir().join(format!("pnx-server-delta-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("x.pnx");
        std::fs::write(&file, "program x;\nfn main() {}\n").unwrap();
        let s = server();
        // Name the file directly, so expansion still yields the path
        // after deletion and the read error surfaces per-file.
        let path_list = format!("[\"{}\"]", file.display());
        s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        std::fs::remove_file(&file).unwrap();
        let reply = s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        let fields = header_fields(&reply);
        assert_eq!(field(&fields, "exit"), &JsonNode::Int(2), "{}", reply.header);
        let JsonNode::Arr(errs) = field(&fields, "file_errors") else {
            panic!("no file_errors: {}", reply.header)
        };
        assert_eq!(errs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flips_the_flag_and_reports_it() {
        let s = server();
        let reply = s.handle_line("{\"op\":\"shutdown\",\"id\":9}");
        assert!(reply.shutdown);
        assert!(s.is_shutdown());
        assert!(reply.header.contains("\"event\":\"shutting-down\""), "{}", reply.header);
    }

    #[test]
    fn serve_connection_frames_replies_and_survives_garbage() {
        let s = server();
        let input = b"{\"op\":\"ping\",\"id\":1}\n\x00\xff\xfe garbage \xf3\n\n{\"op\":\"ping\",\"id\":2}\n";
        let mut out = Vec::new();
        s.serve_connection(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"id\":1"), "{text}");
        assert!(lines[1].contains("\"ok\":false"), "{text}");
        assert!(lines[1].contains("not valid UTF-8"), "{text}");
        assert!(lines[2].contains("\"id\":2"), "{text}");
    }

    #[test]
    fn oversized_lines_are_rejected_but_the_connection_survives() {
        let s =
            Server::new(ServerConfig { max_request_bytes: 64, ..ServerConfig::default() }).unwrap();
        let huge = "x".repeat(1000);
        let input =
            format!("{{\"op\":\"ping\",\"junk\":\"{huge}\"}}\n{{\"op\":\"ping\",\"id\":2}}\n");
        let mut out = Vec::new();
        s.serve_connection(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("too-large"), "{text}");
        assert!(lines[1].contains("\"id\":2"), "{text}");
    }

    #[test]
    fn serve_connection_answers_an_unterminated_final_line() {
        let s = server();
        let mut out = Vec::new();
        s.serve_connection(&b"{\"op\":\"ping\",\"id\":1}"[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"id\":1") && text.contains("pong"), "{text}");
    }
}
