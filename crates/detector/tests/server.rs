//! End-to-end and adversarial tests of `pncheckd` and the `pncheckd/1`
//! protocol.
//!
//! Three layers:
//!
//! * **differential** — daemon `analyze` responses must be byte-identical
//!   to one-shot `pncheck --format json/sarif` over the same inputs;
//! * **adversarial** — malformed, oversized, binary, and concurrent
//!   traffic must always produce structured errors, never a panic, a
//!   dropped connection, or cross-client interference;
//! * **lifecycle** — warm-cache behavior across requests, idle-timeout
//!   reaping (never while a request is queued or in flight), fair
//!   queuing beyond `--max-connections` with `busy` only at the hard
//!   cap, per-client quotas, and clean shutdown.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pnew_detector::server::{parse_json, JsonNode, Server, ServerConfig};

const PNCHECKD: &str = env!("CARGO_BIN_EXE_pncheckd");
const PNCHECK: &str = env!("CARGO_BIN_EXE_pncheck");
const EXAMPLES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/pnx");

const VULNERABLE: &str = "\
program served-demo;
class Student size 16;
class GradStudent size 32 : Student;
fn main() {
    local stud: Student;
    local st: ptr;
    st = new (&stud) GradStudent();
}
";

// ---------------------------------------------------------------------
// Protocol plumbing.
// ---------------------------------------------------------------------

/// Reads one framed reply: the header line, then exactly the payload
/// bytes the header advertises.
fn read_reply(reader: &mut impl BufRead) -> (Vec<(String, JsonNode)>, String) {
    let mut header_line = String::new();
    reader.read_line(&mut header_line).expect("header line");
    assert!(header_line.ends_with('\n'), "unterminated header {header_line:?}");
    let JsonNode::Obj(fields) = parse_json(header_line.trim_end()).expect("header parses") else {
        panic!("header is not an object: {header_line}");
    };
    let JsonNode::Int(bytes) = field(&fields, "bytes") else {
        panic!("header has no bytes: {header_line}");
    };
    let mut payload = vec![0u8; usize::try_from(*bytes).expect("payload fits")];
    reader.read_exact(&mut payload).expect("payload bytes");
    (fields, String::from_utf8(payload).expect("payload is UTF-8"))
}

fn field<'a>(fields: &'a [(String, JsonNode)], name: &str) -> &'a JsonNode {
    &fields.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no field {name}")).1
}

fn int_field(fields: &[(String, JsonNode)], name: &str) -> i64 {
    match field(fields, name) {
        JsonNode::Int(n) => i64::try_from(*n).expect("counter fits i64"),
        other => panic!("field {name} is not an int: {other:?}"),
    }
}

/// JSON string literal with full escaping — the client side of the
/// protocol, written independently of the server's serializer.
fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn analyze_paths_request(id: u64, path: &str) -> String {
    format!("{{\"op\":\"analyze\",\"id\":{id},\"paths\":[{}]}}\n", json_str(path))
}

// ---------------------------------------------------------------------
// Daemon harness.
// ---------------------------------------------------------------------

/// A `pncheckd --listen` child, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(PNCHECKD)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("pncheckd spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("startup line");
        let addr = line
            .trim()
            .strip_prefix("pncheckd: listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .to_owned();
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Daemon { child, addr }
    }

    fn connect(&self) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        (BufReader::new(stream.try_clone().expect("clone stream")), stream)
    }

    /// Waits for the child to exit on its own (after a shutdown
    /// request), asserting a clean status within the deadline.
    fn wait_clean(mut self, deadline: Duration) {
        let start = Instant::now();
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status:?}");
                    // Disarm the kill-on-drop.
                    std::mem::forget(self);
                    return;
                }
                None if start.elapsed() > deadline => {
                    panic!("daemon did not exit within {deadline:?}");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn pncheck_output(args: &[&str]) -> (String, i32) {
    let out = Command::new(PNCHECK).args(args).output().expect("pncheck runs");
    (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code().unwrap_or(-1))
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pncheckd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Differential: the daemon serves exactly the CLI's envelopes.
// ---------------------------------------------------------------------

#[test]
fn stdio_analyze_is_byte_identical_to_one_shot_pncheck() {
    let (cli_json, cli_code) = pncheck_output(&["--format", "json", EXAMPLES]);
    let (cli_sarif, _) = pncheck_output(&["--format", "sarif", EXAMPLES]);

    let mut child = Command::new(PNCHECKD)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("pncheckd spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(analyze_paths_request(1, EXAMPLES).as_bytes()).unwrap();
    let sarif_request = format!(
        "{{\"op\":\"analyze\",\"id\":2,\"paths\":[{}],\"format\":\"sarif\"}}\n",
        json_str(EXAMPLES)
    );
    stdin.write_all(sarif_request.as_bytes()).unwrap();
    drop(stdin); // EOF ends the session cleanly

    let out = child.wait_with_output().expect("pncheckd runs");
    assert!(out.status.success(), "{:?}", out.status);
    let mut reader = BufReader::new(&out.stdout[..]);

    let (header, payload) = read_reply(&mut reader);
    assert_eq!(int_field(&header, "id"), 1);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(true));
    assert_eq!(int_field(&header, "exit"), i64::from(cli_code));
    assert_eq!(payload, cli_json, "daemon JSON envelope differs from pncheck");

    let (header, payload) = read_reply(&mut reader);
    assert_eq!(int_field(&header, "id"), 2);
    assert_eq!(payload, cli_sarif, "daemon SARIF envelope differs from pncheck");
}

/// Stdio serves one request at a time, so a client piping far past its
/// quota still gets every reply, in order, and never `quota-exceeded`.
#[test]
fn stdio_pipelining_never_meets_the_client_quota() {
    let mut child = Command::new(PNCHECKD)
        .args(["--client-quota", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("pncheckd spawns");
    let pings: String = (1..=40).map(|id| format!("{{\"op\":\"ping\",\"id\":{id}}}\n")).collect();
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(pings.as_bytes()).unwrap();
    drop(stdin);

    let out = child.wait_with_output().expect("pncheckd runs");
    assert!(out.status.success(), "{:?}", out.status);
    let mut reader = BufReader::new(&out.stdout[..]);
    for id in 1..=40 {
        let (header, _) = read_reply(&mut reader);
        assert_eq!(int_field(&header, "id"), id, "replies arrive in request order");
        assert_eq!(field(&header, "event"), &JsonNode::Str("pong".into()));
    }
    assert!(reader.fill_buf().unwrap().is_empty(), "exactly one reply per request");
}

#[test]
fn inline_source_matches_pncheck_reading_stdin() {
    let mut cli = Command::new(PNCHECK)
        .args(["--format", "json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("pncheck spawns");
    cli.stdin.take().expect("stdin").write_all(VULNERABLE.as_bytes()).unwrap();
    let cli_out = cli.wait_with_output().expect("pncheck runs");
    let cli_json = String::from_utf8_lossy(&cli_out.stdout).into_owned();

    let server = Server::new(ServerConfig::default()).expect("server builds");
    let request = format!("{{\"op\":\"analyze\",\"id\":7,\"source\":{}}}", json_str(VULNERABLE));
    let reply = server.handle_line(&request);
    assert_eq!(reply.payload, cli_json, "inline source envelope differs from pncheck -");
    assert!(reply.header.contains("\"exit\":1"), "{}", reply.header);
}

// ---------------------------------------------------------------------
// Counting: a request's stats are its own, and one vocabulary.
// ---------------------------------------------------------------------

/// A named object inside a parsed JSON object.
fn object<'a>(fields: &'a [(String, JsonNode)], name: &str) -> &'a [(String, JsonNode)] {
    match field(fields, name) {
        JsonNode::Obj(inner) => inner,
        other => panic!("field {name} is not an object: {other:?}"),
    }
}

fn parse_object(text: &str) -> Vec<(String, JsonNode)> {
    match parse_json(text.trim()).expect("payload parses") {
        JsonNode::Obj(fields) => fields,
        other => panic!("payload is not an object: {other:?}"),
    }
}

/// Two clients send warm one-file `"stats":true` requests to one
/// server at once. Each reply's embedded stats count that request's
/// own memo hit and nothing of the other client's.
#[test]
fn per_request_stats_never_count_another_clients_work() {
    let server = Server::new(ServerConfig { jobs: Some(1), ..ServerConfig::default() })
        .expect("server builds");
    let lines: Vec<String> = [VULNERABLE.to_owned(), VULNERABLE.replace("served-demo", "other")]
        .iter()
        .map(|text| format!("{{\"op\":\"analyze\",\"source\":{},\"stats\":true}}", json_str(text)))
        .collect();
    for line in &lines {
        server.handle_line(line);
    }
    std::thread::scope(|scope| {
        for line in &lines {
            let server = &server;
            scope.spawn(move || {
                for i in 0..5_000 {
                    let payload = server.handle_line(line).payload;
                    let stats = parse_object(&payload);
                    let stats = object(&stats, "stats");
                    assert_eq!(int_field(stats, "cache_hits"), 1, "request {i}: {stats:?}");
                    assert_eq!(int_field(stats, "cache_misses"), 0, "request {i}: {stats:?}");
                }
            });
        }
    });
}

/// `pncheck --stats` and the daemon's `stats` op count in one
/// vocabulary: every trace counter `pncheck` embeds is a key of the
/// daemon's `analysis` object, with the same value for the same work.
#[test]
fn pncheck_trace_counters_are_daemon_analysis_counters() {
    let (cli_json, _) = pncheck_output(&["--stats", "--format", "json", "--jobs", "1", EXAMPLES]);
    let envelope = parse_object(&cli_json);
    let counters = object(object(&envelope, "trace"), "counters");

    let server = Server::new(ServerConfig { jobs: Some(1), ..ServerConfig::default() })
        .expect("server builds");
    server.handle_line(&analyze_paths_request(1, EXAMPLES));
    let stats = parse_object(&server.handle_line("{\"op\":\"stats\"}").payload);
    let analysis = object(&stats, "analysis");
    assert!(counters.len() > 5, "{counters:?}");
    for (name, value) in counters {
        assert_eq!(field(analysis, name), value, "counter {name}");
    }
    assert_ne!(field(counters, "analyses"), &JsonNode::Int(0));
}

// ---------------------------------------------------------------------
// Lifecycle: warm caches, timeouts, backpressure, shutdown.
// ---------------------------------------------------------------------

/// The acceptance criterion for the daemon: a second `analyze` of the
/// same corpus is served entirely from warm caches — zero parses, every
/// file a fingerprint hit — and stays byte-identical to the CLI.
#[test]
fn warm_rescan_runs_zero_parses_and_all_fingerprint_hits() {
    let cache = TempDir::new("warm");
    let daemon = Daemon::start(&["--cache-dir", cache.0.to_str().unwrap()]);
    let (mut reader, mut writer) = daemon.connect();

    writer.write_all(analyze_paths_request(1, EXAMPLES).as_bytes()).unwrap();
    let (_, cold_payload) = read_reply(&mut reader);
    writer.write_all(b"{\"op\":\"stats\",\"id\":2}\n").unwrap();
    let (_, cold_stats) = read_reply(&mut reader);

    writer.write_all(analyze_paths_request(3, EXAMPLES).as_bytes()).unwrap();
    let (_, warm_payload) = read_reply(&mut reader);
    writer.write_all(b"{\"op\":\"stats\",\"id\":4}\n").unwrap();
    let (_, warm_stats) = read_reply(&mut reader);

    assert_eq!(cold_payload, warm_payload, "warm rescan changed the envelope");
    let (cli_json, _) = pncheck_output(&["--format", "json", EXAMPLES]);
    assert_eq!(warm_payload, cli_json, "daemon envelope differs from pncheck");

    let analysis = |payload: &str| -> (i64, i64, i64) {
        let JsonNode::Obj(fields) = parse_json(payload.trim()).expect("stats parse") else {
            panic!("stats payload not an object");
        };
        let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else {
            panic!("no analysis block");
        };
        (
            int_field(&analysis, "parses"),
            int_field(&analysis, "fingerprint_hits"),
            int_field(&analysis, "files"),
        )
    };
    let (cold_parses, cold_hits, cold_files) = analysis(&cold_stats);
    let (warm_parses, warm_hits, warm_files) = analysis(&warm_stats);
    let rescanned = warm_files - cold_files;
    assert!(cold_files > 0 && rescanned == cold_files, "{cold_stats} vs {warm_stats}");
    assert_eq!(warm_parses, cold_parses, "warm rescan must run zero parses");
    assert_eq!(warm_hits, cold_hits + rescanned, "every rescanned file must be a cache hit");

    writer.write_all(b"{\"op\":\"shutdown\",\"id\":5}\n").unwrap();
    let (header, _) = read_reply(&mut reader);
    assert_eq!(field(&header, "event"), &JsonNode::Str("shutting-down".into()));
    daemon.wait_clean(Duration::from_secs(10));
}

/// A freshly started daemon pointed at a cache a previous run filled
/// serves its first scan from disk — still zero parses.
#[test]
fn persistent_cache_survives_a_daemon_restart() {
    let cache = TempDir::new("restart");
    let cache_path = cache.0.to_str().unwrap().to_owned();
    {
        let daemon = Daemon::start(&["--cache-dir", &cache_path]);
        let (mut reader, mut writer) = daemon.connect();
        writer.write_all(analyze_paths_request(1, EXAMPLES).as_bytes()).unwrap();
        read_reply(&mut reader);
        writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        read_reply(&mut reader);
        daemon.wait_clean(Duration::from_secs(10));
    }
    let daemon = Daemon::start(&["--cache-dir", &cache_path]);
    let (mut reader, mut writer) = daemon.connect();
    writer.write_all(analyze_paths_request(1, EXAMPLES).as_bytes()).unwrap();
    let (_, payload) = read_reply(&mut reader);
    writer.write_all(b"{\"op\":\"stats\",\"id\":2}\n").unwrap();
    let (_, stats) = read_reply(&mut reader);
    let (cli_json, _) = pncheck_output(&["--format", "json", EXAMPLES]);
    assert_eq!(payload, cli_json);
    let JsonNode::Obj(fields) = parse_json(stats.trim()).unwrap() else { panic!() };
    let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
    assert_eq!(int_field(&analysis, "parses"), 0, "disk-warm scan must not parse: {stats}");
    assert!(int_field(&analysis, "persistent_hits") > 0, "{stats}");
}

/// A filter applies to finished reports, so requests under different
/// filters share one cache entry per source: a session that analyzes
/// the same three files under the default filter, an error-only
/// threshold and a disabled kind parses each file once, and a restart
/// serves all three from disk, filtered exactly as before.
#[test]
fn mixed_filters_share_one_entry_per_source_across_a_restart() {
    let sources = TempDir::new("filters-src");
    let cache = TempDir::new("filters-cache");
    let files: Vec<String> = (1..=3)
        .map(|i| {
            let path = sources.0.join(format!("f{i}.pnx"));
            std::fs::write(&path, VULNERABLE.replace("served-demo", &format!("file-{i}"))).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    let filters = ["", ",\"min_severity\":\"error\"", ",\"disable\":[\"oversized-placement\"]"];
    let run = || {
        let server = Server::new(ServerConfig {
            cache_dir: Some(cache.0.clone()),
            ..ServerConfig::default()
        })
        .expect("server builds");
        let mut payloads = Vec::new();
        for filter in filters {
            for file in &files {
                let line = format!("{{\"op\":\"analyze\",\"paths\":[{}]{filter}}}", json_str(file));
                let reply = server.handle_line(&line);
                assert!(reply.header.contains("\"ok\":true"), "{}", reply.header);
                payloads.push(reply.payload);
            }
        }
        let stats = server.handle_line("{\"op\":\"stats\"}").payload;
        let JsonNode::Obj(fields) = parse_json(stats.trim()).unwrap() else { panic!() };
        let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
        let counts = (int_field(&analysis, "persistent_hits"), int_field(&analysis, "parses"));
        (counts, payloads)
    };
    let (cold, cold_payloads) = run();
    assert_eq!(cold, (0, 3), "a cold session parses each file once, whatever its filter");
    assert_ne!(cold_payloads[0], cold_payloads[6], "disabling the only kind changes the payload");
    let (warm, warm_payloads) = run();
    assert_eq!(warm, (3, 0), "a restart serves every file from disk under every filter");
    assert_eq!(warm_payloads, cold_payloads, "disk-served reports filter like fresh ones");
}

#[test]
fn malformed_and_oversized_requests_leave_the_connection_usable() {
    let daemon = Daemon::start(&["--max-request-bytes", "4096"]);
    let (mut reader, mut writer) = daemon.connect();

    writer.write_all(b"this is not json\n").unwrap();
    let (header, _) = read_reply(&mut reader);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(false));

    writer.write_all(b"\xde\xad\xbe\xef\xff\n").unwrap();
    let (header, _) = read_reply(&mut reader);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(false));

    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(100_000));
    writer.write_all(huge.as_bytes()).unwrap();
    let (header, _) = read_reply(&mut reader);
    let JsonNode::Obj(err) = field(&header, "error") else { panic!("no error object") };
    assert_eq!(field(err, "code"), &JsonNode::Str("too-large".into()));

    // The same connection still serves real work afterwards.
    writer.write_all(b"{\"op\":\"ping\",\"id\":99}\n").unwrap();
    let (header, _) = read_reply(&mut reader);
    assert_eq!(int_field(&header, "id"), 99);
    assert_eq!(field(&header, "event"), &JsonNode::Str("pong".into()));
}

#[test]
fn idle_connections_are_reaped_with_a_timeout_error() {
    let daemon = Daemon::start(&["--idle-timeout-secs", "1"]);
    let (mut reader, mut writer) = daemon.connect();
    writer.write_all(b"{\"op\":\"ping\",\"id\":1}\n").unwrap();
    read_reply(&mut reader);
    // Say nothing; the server must close the connection, not hang.
    let (header, _) = read_reply(&mut reader);
    let JsonNode::Obj(err) = field(&header, "error") else { panic!("no error object") };
    assert_eq!(field(err, "code"), &JsonNode::Str("idle-timeout".into()));
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("EOF after timeout");
    assert!(rest.is_empty(), "expected EOF, got {rest:?}");
}

/// `--max-connections` pressure degrades to fair queuing: with a limit
/// of 1, seven *more* clients are still accepted and served, and
/// `busy` only appears at the hard cap (8 × the limit).
#[test]
fn connections_beyond_the_limit_queue_and_busy_only_at_the_hard_cap() {
    let daemon = Daemon::start(&["--max-connections", "1"]);
    let mut clients = Vec::new();
    for id in 1..=8 {
        let (mut reader, mut writer) = daemon.connect();
        writer.write_all(format!("{{\"op\":\"ping\",\"id\":{id}}}\n").as_bytes()).unwrap();
        let (header, _) = read_reply(&mut reader);
        assert_eq!(int_field(&header, "id"), id, "connection {id} must be served, not rejected");
        assert_eq!(field(&header, "event"), &JsonNode::Str("pong".into()));
        clients.push((reader, writer));
    }

    // The ninth connection crosses 8 × max_connections: busy, closed.
    let (mut reader9, _writer9) = daemon.connect();
    let (header, _) = read_reply(&mut reader9);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(false));
    let JsonNode::Obj(err) = field(&header, "error") else { panic!("no error object") };
    assert_eq!(field(err, "code"), &JsonNode::Str("busy".into()));

    // Every queued client is unaffected by the rejection.
    for (id, (reader, writer)) in clients.iter_mut().enumerate() {
        writer.write_all(format!("{{\"op\":\"ping\",\"id\":{}}}\n", 100 + id).as_bytes()).unwrap();
        let (header, _) = read_reply(reader);
        assert_eq!(int_field(&header, "id"), 100 + id as i64);
    }
}

/// Pipelining past `--client-quota` rejects the *excess request* with
/// `quota-exceeded` — the connection survives and keeps serving.
#[test]
fn pipelining_past_the_client_quota_is_rejected_but_the_connection_survives() {
    let daemon = Daemon::start(&["--client-quota", "1"]);
    let (mut reader, mut writer) = daemon.connect();

    // One write delivers both lines in one burst: the analyze fills the
    // quota, so the ping behind it must bounce while the analyze is
    // queued or in flight.
    let burst = format!("{}{}", analyze_paths_request(1, EXAMPLES), "{\"op\":\"ping\",\"id\":2}\n");
    writer.write_all(burst.as_bytes()).unwrap();

    // The quota rejection is written immediately (before the analyze
    // completes), so it arrives first.
    let (header, _) = read_reply(&mut reader);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(false));
    let JsonNode::Obj(err) = field(&header, "error") else { panic!("no error object") };
    assert_eq!(field(err, "code"), &JsonNode::Str("quota-exceeded".into()));

    let (header, payload) = read_reply(&mut reader);
    assert_eq!(int_field(&header, "id"), 1);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(true));
    assert!(!payload.is_empty(), "analyze still delivered its full envelope");

    // The connection is still usable once the backlog drained.
    writer.write_all(b"{\"op\":\"ping\",\"id\":3}\n").unwrap();
    let (header, _) = read_reply(&mut reader);
    assert_eq!(int_field(&header, "id"), 3);
    assert_eq!(field(&header, "event"), &JsonNode::Str("pong".into()));
}

/// Regression test for the reap-vs-in-flight race: requests landing at
/// (or replies straddling) the idle boundary must never produce a torn
/// frame — every reply is complete, and the only thing allowed after
/// the final full frame is the `idle-timeout` error and EOF.
#[test]
fn idle_reaping_never_tears_a_frame_at_the_timeout_boundary() {
    let daemon = Daemon::start(&["--idle-timeout-secs", "1"]);
    let (mut reader, mut writer) = daemon.connect();

    // Requests spaced just under the timeout: each one must reset the
    // idle clock, so the connection survives several boundary grazes.
    for id in 1..=3 {
        std::thread::sleep(Duration::from_millis(900));
        writer.write_all(format!("{{\"op\":\"ping\",\"id\":{id}}}\n").as_bytes()).unwrap();
        let (header, _) = read_reply(&mut reader);
        assert_eq!(int_field(&header, "id"), id, "boundary-grazing request was served");
    }

    // Fire a real analysis and only start reading *after* the idle
    // deadline has passed on the server: the reply must arrive whole
    // (an in-flight or just-completed request is not "idle"), then the
    // reaper closes with a complete error frame and EOF.
    writer.write_all(analyze_paths_request(9, EXAMPLES).as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(1500));
    let (header, payload) = read_reply(&mut reader);
    assert_eq!(int_field(&header, "id"), 9);
    assert_eq!(field(&header, "ok"), &JsonNode::Bool(true));
    assert!(!payload.is_empty(), "the straddling reply arrived untorn");

    let (header, _) = read_reply(&mut reader);
    let JsonNode::Obj(err) = field(&header, "error") else { panic!("no error object") };
    assert_eq!(field(err, "code"), &JsonNode::Str("idle-timeout".into()));
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("EOF after timeout");
    assert!(rest.is_empty(), "expected EOF, got {rest:?}");
}

#[test]
fn startup_fails_fast_on_an_unusable_cache_dir() {
    let blocker = std::env::temp_dir().join(format!("pncheckd-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "a file, not a directory").unwrap();
    let out = Command::new(PNCHECKD)
        .args(["--cache-dir", blocker.to_str().unwrap()])
        .stdin(Stdio::null())
        .output()
        .expect("pncheckd runs");
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot open cache dir"), "{stderr}");
}

// ---------------------------------------------------------------------
// Concurrency soak: many clients, interleaved requests, one daemon.
// ---------------------------------------------------------------------

/// N clients × M interleaved requests against one daemon, after one
/// priming request per source: every response must carry its request's
/// id, identical sources must get identical envelopes regardless of
/// thread, the whole soak must finish well within a bound, and every
/// soak request must be a memo hit.
#[test]
fn concurrent_clients_get_deterministic_per_request_results() {
    const THREADS: usize = 8;
    const REQUESTS: usize = 25; // a multiple of the source pool size
    let sources: Vec<String> = (0..5)
        .map(|i| {
            format!(
                "program soak{i};\nclass C size {};\nfn main() {{\n    local c: C;\n    local p: ptr;\n    p = new (&c) C();\n}}\n",
                8 * (i + 1)
            )
        })
        .collect();

    let daemon = Daemon::start(&[]);
    // Prime the memo one source at a time, so no two workers can both
    // miss on one new source and the hit count below is exact.
    let mut per_source: Vec<Vec<String>> = {
        let (mut reader, mut writer) = daemon.connect();
        sources
            .iter()
            .map(|source| {
                let line = format!("{{\"op\":\"analyze\",\"source\":{}}}\n", json_str(source));
                writer.write_all(line.as_bytes()).unwrap();
                vec![read_reply(&mut reader).1]
            })
            .collect()
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let sources = &sources;
                let daemon = &daemon;
                scope.spawn(move || {
                    let (mut reader, mut writer) = daemon.connect();
                    let mut seen: Vec<(usize, String)> = Vec::new();
                    for r in 0..REQUESTS {
                        let which = (t + r) % sources.len();
                        let id = format!("t{t}-r{r}");
                        let line = format!(
                            "{{\"op\":\"analyze\",\"id\":{},\"source\":{}}}\n",
                            json_str(&id),
                            json_str(&sources[which])
                        );
                        writer.write_all(line.as_bytes()).unwrap();
                        let (header, payload) = read_reply(&mut reader);
                        assert_eq!(
                            field(&header, "id"),
                            &JsonNode::Str(id.clone()),
                            "response id mismatch"
                        );
                        assert_eq!(field(&header, "ok"), &JsonNode::Bool(true));
                        seen.push((which, payload));
                    }
                    seen
                })
            })
            .collect();
        for handle in handles {
            for (which, payload) in handle.join().expect("soak thread") {
                per_source[which].push(payload);
            }
        }
    });
    assert!(start.elapsed() < Duration::from_secs(60), "soak took {:?}", start.elapsed());
    for (which, payloads) in per_source.iter().enumerate() {
        assert_eq!(payloads.len(), 1 + THREADS * REQUESTS / sources.len());
        assert!(
            payloads.windows(2).all(|w| w[0] == w[1]),
            "source {which} got divergent envelopes across threads"
        );
    }

    // The memo absorbed every soak request.
    let (mut reader, mut writer) = daemon.connect();
    writer.write_all(b"{\"op\":\"stats\",\"id\":\"post-soak\"}\n").unwrap();
    let (_, stats) = read_reply(&mut reader);
    let JsonNode::Obj(fields) = parse_json(stats.trim()).unwrap() else { panic!() };
    let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
    let hits = int_field(&analysis, "fingerprint_hits");
    assert_eq!(hits, (THREADS * REQUESTS) as i64, "every soak request is a memo hit: {stats}");
}

// ---------------------------------------------------------------------
// Property tests: framing round-trips and never-panic.
// ---------------------------------------------------------------------

proptest! {
    /// Any id and any printable source round-trip through the framing:
    /// the header is one line of valid JSON echoing the id, and the
    /// advertised byte count matches the payload exactly.
    #[test]
    fn framing_round_trips_arbitrary_ids_and_sources(
        id in "[a-zA-Z0-9_./-]{0,24}",
        body in "\\PC{0,200}",
        lines in proptest::collection::vec("\\PC{0,40}", 0..6),
    ) {
        let source = format!("{body}\n{}", lines.join("\n"));
        let server = Server::new(ServerConfig::default()).expect("server builds");
        let line = format!(
            "{{\"op\":\"analyze\",\"id\":{},\"source\":{}}}",
            json_str(&id),
            json_str(&source)
        );
        let reply = server.handle_line(&line);
        prop_assert!(!reply.header.contains('\n'), "header must be one line");
        let JsonNode::Obj(fields) = parse_json(&reply.header).expect("header parses") else {
            panic!("header not an object");
        };
        prop_assert_eq!(field(&fields, "ok"), &JsonNode::Bool(true));
        prop_assert_eq!(field(&fields, "id"), &JsonNode::Str(id));
        prop_assert_eq!(int_field(&fields, "bytes"), reply.payload.len() as i64);
        // The payload is itself valid JSON (the pncheck envelope).
        prop_assert!(parse_json(reply.payload.trim()).is_ok());
    }

    /// Arbitrary byte soup — truncated, binary, newline-riddled — fed
    /// straight into a live server never panics and never kills the
    /// session: every emitted reply is a well-formed header line.
    #[test]
    fn byte_soup_never_panics_and_always_yields_structured_replies(
        chunks in proptest::collection::vec(
            proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            1..8,
        ),
        limit in 32usize..512,
    ) {
        let mut input = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            input.extend_from_slice(chunk);
            if i % 2 == 0 {
                input.push(b'\n');
            }
        }
        let server = Server::new(ServerConfig {
            max_request_bytes: limit,
            ..ServerConfig::default()
        })
        .expect("server builds");
        let mut out = Vec::new();
        server.serve_connection(&input[..], &mut out).expect("session survives");
        let text = String::from_utf8(out).expect("replies are UTF-8");
        let mut rest = text.as_str();
        while !rest.is_empty() {
            let (header_line, tail) = rest.split_once('\n').expect("framed header line");
            let JsonNode::Obj(fields) = parse_json(header_line).expect("header parses") else {
                panic!("header not an object: {header_line}");
            };
            prop_assert_eq!(
                field(&fields, "schema"),
                &JsonNode::Str("pncheckd/1".into())
            );
            let advertised = int_field(&fields, "bytes") as usize;
            prop_assert!(tail.len() >= advertised, "truncated payload");
            rest = &tail[advertised..];
        }
    }

    /// The JSON parser itself never panics on printable garbage.
    #[test]
    fn json_parser_never_panics(text in "\\PC{0,300}") {
        let _ = parse_json(&text);
    }
}
