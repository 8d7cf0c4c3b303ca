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
//! ```
//!
//! See `docs/pnx-syntax.md` for the full protocol reference. A client
//! that wants to poll a tree sends the `delta` op itself. Exit status:
//! 0 after a clean shutdown (EOF or a `shutdown` request), 2 on usage
//! errors or an unusable `--cache-dir`.

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pnew_detector::cliopts::CommonOpts;
use pnew_detector::server::{Server, ServerConfig};

const USAGE: &str = "usage: pncheckd [--listen ADDR:PORT] [--jobs N] [--min-severity LEVEL] [--disable KIND]... [--cache-dir DIR] [--max-request-bytes N] [--max-connections N] [--client-quota N] [--idle-timeout-secs N]";

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
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
