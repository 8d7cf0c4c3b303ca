//! The persistent tier across a daemon restart.
//!
//! A seeded workload is pushed through a resident server with a cache
//! directory — cold and warm `analyze` envelopes in json and sarif,
//! cold and warm `delta` envelopes — and the stats snapshot must keep
//! its accounting identity. A restart over the populated cache must
//! then serve the whole tree from disk: zero parses, every file a
//! persistent hit, and the same envelope as the first scan.

use std::path::{Path, PathBuf};

use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::pretty_program;
use placement_new_attacks::detector::server::{parse_json, JsonNode, Server, ServerConfig};

/// JSON string literal, written independently of the server's
/// serializer (the client side of the protocol).
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

struct TempTree {
    root: PathBuf,
    path_list: String,
    files: usize,
}

impl TempTree {
    /// Writes the seeded corpus to disk once.
    fn new(tag: &str, seed: u64, count: usize) -> TempTree {
        let root = std::env::temp_dir().join(format!("pnx-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let programs = workload::corpus(seed, count);
        let paths: Vec<String> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let path = root.join(format!("p{i:03}.pnx"));
                std::fs::write(&path, pretty_program(p)).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let quoted: Vec<String> = paths.iter().map(|p| json_str(p)).collect();
        TempTree { root, path_list: format!("[{}]", quoted.join(",")), files: paths.len() }
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn server_with(cache: &Path) -> Server {
    let config = ServerConfig { cache_dir: Some(cache.to_path_buf()), ..ServerConfig::default() };
    Server::new(config).expect("server builds over the cache dir")
}

/// One observation: a request's payload plus its header `exit`.
fn observe(server: &Server, request: &str) -> (String, Option<i64>) {
    let reply = server.handle_line(request);
    let JsonNode::Obj(fields) = parse_json(&reply.header).expect("header parses") else {
        panic!("header not an object: {}", reply.header);
    };
    let exit = fields.iter().find(|(k, _)| k == "exit").and_then(|(_, v)| match v {
        JsonNode::Int(n) => i64::try_from(*n).ok(),
        _ => None,
    });
    (reply.payload, exit)
}

/// The `analysis` counter block of a `stats` reply, parsed.
fn analysis_counters(server: &Server) -> Vec<(String, JsonNode)> {
    let (stats, _) = observe(server, "{\"op\":\"stats\"}");
    let JsonNode::Obj(fields) = parse_json(stats.trim()).expect("stats parses") else {
        panic!("stats payload not an object");
    };
    let JsonNode::Obj(analysis) =
        fields.into_iter().find(|(k, _)| k == "analysis").expect("analysis block").1
    else {
        panic!("analysis is not an object");
    };
    analysis
}

fn int_counter(analysis: &[(String, JsonNode)], name: &str) -> i64 {
    match analysis.iter().find(|(k, _)| k == name) {
        Some((_, JsonNode::Int(n))) => i64::try_from(*n).expect("counter fits i64"),
        other => panic!("counter {name}: {other:?}"),
    }
}

/// The fixed request script the first server runs.
fn script(path_list: &str) -> Vec<(String, String)> {
    [
        ("analyze cold json", format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}")),
        ("analyze warm json", format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}")),
        (
            "analyze warm sarif",
            format!("{{\"op\":\"analyze\",\"paths\":{path_list},\"format\":\"sarif\"}}"),
        ),
        ("delta cold", format!("{{\"op\":\"delta\",\"paths\":{path_list}}}")),
        ("delta warm", format!("{{\"op\":\"delta\",\"paths\":{path_list}}}")),
    ]
    .into_iter()
    .map(|(label, request)| (label.to_owned(), request))
    .collect()
}

#[test]
fn a_restarted_daemon_serves_the_whole_tree_from_disk() {
    let tree = TempTree::new("restart", 11, 60);
    let cache = std::env::temp_dir().join(format!("pnx-fleet-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).unwrap();

    let server = server_with(&cache);
    let observations: Vec<(String, String, Option<i64>)> = script(&tree.path_list)
        .into_iter()
        .map(|(label, request)| {
            let (payload, exit) = observe(&server, &request);
            (label, payload, exit)
        })
        .collect();
    let (cold, cold_exit) = (&observations[0].1, observations[0].2);
    assert_eq!(&observations[1].1, cold, "the warm analyze changed the envelope");
    assert_eq!(&observations[3].1, cold, "the cold delta differs from a full analyze");
    assert_eq!(&observations[4].1, cold, "the warm delta differs from a full analyze");
    assert!(observations.iter().all(|(_, _, exit)| *exit == cold_exit), "{observations:?}");
    let counters = analysis_counters(&server);
    assert_eq!(
        int_counter(&counters, "fingerprint_hits") + int_counter(&counters, "fingerprint_misses"),
        int_counter(&counters, "fingerprint_lookups"),
        "snapshot must never be torn"
    );

    // A restart over the populated cache serves the whole tree from
    // disk: zero parses, every file a persistent hit.
    let restarted = server_with(&cache);
    let (warm_payload, _) =
        observe(&restarted, &format!("{{\"op\":\"analyze\",\"paths\":{}}}", tree.path_list));
    let restart_counters = analysis_counters(&restarted);
    assert_eq!(int_counter(&restart_counters, "parses"), 0, "disk-warm restart must not parse");
    assert_eq!(
        int_counter(&restart_counters, "persistent_hits"),
        tree.files as i64,
        "every file must come from the persistent tier"
    );
    assert_eq!(&warm_payload, cold, "restart changed the envelope");
    let _ = std::fs::remove_dir_all(&cache);
}
