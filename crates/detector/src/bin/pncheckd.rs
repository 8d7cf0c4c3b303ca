//! `pncheckd` — the placement-new checker as a persistent service.
//!
//! ```text
//! usage: pncheckd [OPTIONS]
//!
//!   Serves the pncheckd/1 protocol (newline-delimited JSON requests,
//!   framed responses) on stdin/stdout, or on a TCP socket with
//!   --listen. The daemon keeps one warm analysis engine, so repeated
//!   analyses of unchanged sources are served from memory without
//!   parsing or re-analysis, whatever min_severity or disable a
//!   request asks for: filters apply to the finished reports.
//!
//!   --listen ADDR:PORT       serve TCP instead of stdio (port 0 picks
//!                            a free port; the bound address is printed
//!                            to stderr as "pncheckd: listening on …")
//!   --jobs N                 default worker threads per scan
//!                            (requests may override per-request)
//!   --min-severity LEVEL     default reporting threshold (a request's
//!                            min_severity replaces it)
//!   --disable KIND           disable one finding kind (repeatable; a
//!                            request's disable adds to these)
//!   --cache-dir DIR          persistent cache shared across restarts;
//!                            an unusable DIR fails startup (exit 2)
//!   --max-request-bytes N    request line limit (default 4194304)
//!   --max-connections N      fair-queuing design point (default 32);
//!                            connections beyond it queue, and "busy"
//!                            only appears at the hard cap (8x this)
//!   --client-quota N         most requests one connection may have
//!                            queued + in flight before the excess is
//!                            answered "quota-exceeded" (default 16)
//!   --idle-timeout-secs N    close TCP connections with nothing
//!                            queued or in flight after N idle seconds
//!                            (0 = never; default 300)
//!   --watch ROOT             poll ROOT (repeatable) with the delta op
//!                            instead of serving a socket: each cycle
//!                            re-stats the tracked files, re-analyzes
//!                            only the invalidation cone, and prints
//!                            the fresh envelope to stdout whenever
//!                            anything changed (the first cycle always
//!                            prints). Cycle counters go to stderr.
//!   --watch-interval-ms N    delay between watch cycles (default 500)
//!   --watch-cycles N         stop after N cycles (default 0 = forever)
//! ```
//!
//! See `docs/pnx-syntax.md` for the full protocol reference. Exit
//! status: 0 after a clean shutdown (EOF, a `shutdown` request, or the
//! last `--watch-cycles` cycle), 2 on usage errors or an unusable
//! `--cache-dir`.

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pnew_detector::cliopts::CommonOpts;
use pnew_detector::emit::json_string;
use pnew_detector::server::{parse_json, JsonNode, Server, ServerConfig};

const USAGE: &str = "usage: pncheckd [--listen ADDR:PORT] [--jobs N] [--min-severity LEVEL] [--disable KIND]... [--cache-dir DIR] [--max-request-bytes N] [--max-connections N] [--client-quota N] [--idle-timeout-secs N] [--watch ROOT]... [--watch-interval-ms N] [--watch-cycles N]";

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut watch_roots: Vec<String> = Vec::new();
    let mut watch_interval_ms: u64 = 500;
    let mut watch_cycles: u64 = 0;
    let mut opts = CommonOpts::default();
    let mut cache_dir: Option<PathBuf> = None;
    let mut server_config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(result) = opts.accept(&arg, &mut args) {
            if let Err(e) = result {
                eprintln!("pncheckd: {e}");
                return ExitCode::from(2);
            }
            continue;
        }
        macro_rules! numeric_value {
            ($flag:literal) => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("pncheckd: {} needs a non-negative integer", $flag);
                        return ExitCode::from(2);
                    }
                }
            };
        }
        match arg.as_str() {
            "--listen" => {
                let Some(addr) = args.next() else {
                    eprintln!("pncheckd: --listen needs ADDR:PORT");
                    return ExitCode::from(2);
                };
                listen = Some(addr);
            }
            "--cache-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("pncheckd: --cache-dir needs a directory");
                    return ExitCode::from(2);
                };
                cache_dir = Some(PathBuf::from(dir));
            }
            "--max-request-bytes" => {
                let n: usize = numeric_value!("--max-request-bytes");
                if n == 0 {
                    eprintln!("pncheckd: --max-request-bytes needs a positive integer");
                    return ExitCode::from(2);
                }
                server_config.max_request_bytes = n;
            }
            "--max-connections" => {
                let n: usize = numeric_value!("--max-connections");
                if n == 0 {
                    eprintln!("pncheckd: --max-connections needs a positive integer");
                    return ExitCode::from(2);
                }
                server_config.max_connections = n;
            }
            "--client-quota" => {
                let n: usize = numeric_value!("--client-quota");
                if n == 0 {
                    eprintln!("pncheckd: --client-quota needs a positive integer");
                    return ExitCode::from(2);
                }
                server_config.client_quota = n;
            }
            "--idle-timeout-secs" => {
                let n: u64 = numeric_value!("--idle-timeout-secs");
                server_config.idle_timeout = (n > 0).then(|| Duration::from_secs(n));
            }
            "--watch" => {
                let Some(root) = args.next() else {
                    eprintln!("pncheckd: --watch needs a file or directory");
                    return ExitCode::from(2);
                };
                watch_roots.push(root);
            }
            "--watch-interval-ms" => {
                watch_interval_ms = numeric_value!("--watch-interval-ms");
            }
            "--watch-cycles" => {
                watch_cycles = numeric_value!("--watch-cycles");
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pncheckd: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // The daemon's text/json/sarif default belongs to each request, not
    // the process; reject the flag rather than ignore it silently.
    if opts.format != pnew_detector::emit::OutputFormat::default() {
        eprintln!("pncheckd: --format is per-request; pass \"format\" in the analyze request");
        return ExitCode::from(2);
    }
    if !watch_roots.is_empty() && listen.is_some() {
        eprintln!("pncheckd: --watch and --listen are exclusive");
        return ExitCode::from(2);
    }
    server_config.filter = opts.filter;
    server_config.jobs = opts.jobs;
    server_config.cache_dir = cache_dir;

    // Like pncheck, an unusable --cache-dir fails startup loudly
    // instead of degrading to an uncached daemon.
    let server = match Server::new(server_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pncheckd: error: cannot open cache dir: {e}");
            return ExitCode::from(2);
        }
    };

    if !watch_roots.is_empty() {
        return watch(&server, &watch_roots, watch_interval_ms, watch_cycles);
    }

    let served = match listen {
        None => {
            let stdin = io::stdin().lock();
            let stdout = io::stdout().lock();
            server.serve_connection(stdin, stdout)
        }
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(local) => eprintln!("pncheckd: listening on {local}"),
                    Err(_) => eprintln!("pncheckd: listening on {addr}"),
                }
                server.serve_listener(listener)
            }
            Err(e) => {
                eprintln!("pncheckd: cannot listen on {addr}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pncheckd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Polls the registered roots through the `delta` op. Each cycle is the
/// same request a remote client would send; the loop just feeds it to
/// the in-process server and relays the reply. The envelope lands on
/// stdout whenever anything changed (and on the first cycle, so a
/// consumer always has a baseline); the per-cycle counters go to
/// stderr.
fn watch(server: &Server, roots: &[String], interval_ms: u64, cycles: u64) -> ExitCode {
    let paths: Vec<String> = roots.iter().map(|r| json_string(r)).collect();
    let request = format!("{{\"op\":\"delta\",\"paths\":[{}]}}", paths.join(","));
    let mut cycle: u64 = 0;
    loop {
        cycle += 1;
        let reply = server.handle_line(&request);
        let header = match parse_json(&reply.header) {
            Ok(JsonNode::Obj(fields)) => fields,
            _ => {
                eprintln!("pncheckd: watch: malformed reply header: {}", reply.header);
                return ExitCode::from(2);
            }
        };
        let get = |name: &str| header.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if get("ok") != Some(&JsonNode::Bool(true)) {
            let detail = match get("error") {
                Some(JsonNode::Obj(err)) => err
                    .iter()
                    .find(|(k, _)| k == "message")
                    .map(|(_, v)| match v {
                        JsonNode::Str(text) => text.clone(),
                        other => format!("{other:?}"),
                    })
                    .unwrap_or_default(),
                _ => String::new(),
            };
            eprintln!("pncheckd: watch: request failed: {detail}");
            return ExitCode::from(2);
        }
        let counter = |name: &str| match get("delta") {
            Some(JsonNode::Obj(delta)) => delta
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| match v {
                    JsonNode::Int(n) if *n >= 0 => Some(*n as u64),
                    _ => None,
                })
                .unwrap_or(0),
            _ => 0,
        };
        if let Some(JsonNode::Arr(errs)) = get("file_errors") {
            for err in errs {
                match err {
                    JsonNode::Str(text) => eprintln!("pncheckd: watch: {text}"),
                    other => eprintln!("pncheckd: watch: {other:?}"),
                }
            }
        }
        let (tracked, changed, added, removed) =
            (counter("tracked"), counter("changed"), counter("added"), counter("removed"));
        let dirty = changed + added + removed > 0;
        eprintln!(
            "pncheckd: watch cycle {cycle}: {tracked} tracked, {changed} changed, \
             {added} added, {removed} removed, cone {}/{} functions, \
             {} reanalyzed, {} reused",
            counter("cone_functions"),
            counter("tracked_functions"),
            counter("functions_reanalyzed"),
            counter("functions_reused"),
        );
        if cycle == 1 || dirty {
            print!("{}", reply.payload);
            if !reply.payload.ends_with('\n') {
                println!();
            }
            let _ = io::Write::flush(&mut io::stdout());
        }
        if cycles > 0 && cycle >= cycles {
            return ExitCode::SUCCESS;
        }
        // Pacing goes through the server's clock, not a raw sleep, so a
        // simulated watch loop runs on virtual time.
        server.clock().sleep(Duration::from_millis(interval_ms));
    }
}
