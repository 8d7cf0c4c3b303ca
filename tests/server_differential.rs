//! Differential test: the `pncheckd` protocol layer against the
//! one-shot analysis path, over a 200-program generated corpus.
//!
//! Every program from `workload::corpus` is pretty-printed to `.pnx`
//! source and pushed through both paths:
//!
//! * **reference** — exactly what `pncheck --format json -` does: scan
//!   the source through a fresh [`BatchEngine`] and render the
//!   `pncheck-report/1` envelope;
//! * **daemon** — an inline-`source` `analyze` request against a
//!   resident [`Server`].
//!
//! The payloads must be byte-identical for all 200 programs — cold and
//! warm — and the header's `exit` must mirror the CLI's exit-code rule.
//! Further tests hold `delta` rescans, concurrent clients and every
//! report filter to the same standard.

use placement_new_attacks::corpus::{benign, listings, workload};
use placement_new_attacks::detector::emit::{render_json, render_sarif, FileRecord};
use placement_new_attacks::detector::server::{parse_json, JsonNode, Server, ServerConfig};
use placement_new_attacks::detector::{pretty_program, Analyzer, BatchEngine, Finding, Severity};

/// The reference envelope: the exact pipeline `pncheck --format json -`
/// runs for one stdin program.
fn one_shot_envelope(source: &str) -> (String, u64) {
    let engine = BatchEngine::new(Analyzer::new());
    let (outcomes, _) = engine.scan_sources_with_stats(&[source]);
    let outcome = outcomes.into_iter().next().expect("one outcome");
    let record =
        FileRecord { path: "-".to_owned(), report: outcome.report, errors: outcome.errors };
    let exit = if !record.errors.is_empty() {
        2
    } else if record.report.as_ref().is_some_and(|r| r.detected_at(Severity::Warning)) {
        1
    } else {
        0
    };
    (render_json(std::slice::from_ref(&record), None, None), exit)
}

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

#[test]
fn daemon_envelopes_match_one_shot_analysis_over_200_corpus_programs() {
    let programs = workload::corpus(1, 200);
    assert_eq!(programs.len(), 200);
    let server = Server::new(ServerConfig::default()).expect("server builds");

    let mut mismatches = Vec::new();
    for (round, label) in [(0, "cold"), (1, "warm")] {
        for (i, program) in programs.iter().enumerate() {
            let source = pretty_program(program);
            let (reference, exit) = one_shot_envelope(&source);
            let request = format!(
                "{{\"op\":\"analyze\",\"id\":{},\"source\":{}}}",
                round * 1000 + i,
                json_str(&source)
            );
            let reply = server.handle_line(&request);
            if reply.payload != reference {
                mismatches.push(format!("{label} #{i}: envelope differs"));
                continue;
            }
            let JsonNode::Obj(fields) = parse_json(&reply.header).expect("header parses") else {
                panic!("header not an object: {}", reply.header);
            };
            let got_exit = fields.iter().find(|(k, _)| k == "exit").map(|(_, v)| v.clone());
            if got_exit != Some(JsonNode::Int(exit as i128)) {
                mismatches.push(format!("{label} #{i}: exit {got_exit:?} != {exit}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

/// The reference envelope for a tree on disk: the pipeline a fresh
/// `pncheck --format json DIR` runs, path labels included.
fn full_scan_envelope(paths: &[String]) -> (String, u64) {
    let engine = BatchEngine::new(Analyzer::new());
    let sources: Vec<String> =
        paths.iter().map(|p| std::fs::read_to_string(p).expect("corpus file reads")).collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let (outcomes, _) = engine.scan_sources_with_stats(&refs);
    let records: Vec<FileRecord> = paths
        .iter()
        .zip(outcomes)
        .map(|(path, o)| FileRecord { path: path.clone(), report: o.report, errors: o.errors })
        .collect();
    let had_errors = records.iter().any(|r| !r.errors.is_empty());
    let any =
        records.iter().filter_map(|r| r.report.as_ref()).any(|r| r.detected_at(Severity::Warning));
    let exit = if had_errors {
        2
    } else if any {
        1
    } else {
        0
    };
    (render_json(&records, None, None), exit)
}

/// Incremental daemon rescans must be indistinguishable from full
/// scans: after every round of edits, the `delta` op's payload is
/// byte-identical to what a fresh engine renders for the same tree —
/// whether the round names the changed paths or lets the daemon stat
/// for drift.
#[test]
fn daemon_delta_envelopes_match_full_scans_across_edit_rounds() {
    let dir = std::env::temp_dir().join(format!("pnx-delta-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let programs = workload::corpus(3, 60);
    let paths: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let path = dir.join(format!("p{i:03}.pnx"));
            std::fs::write(&path, pretty_program(p)).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let path_args: Vec<String> = paths.iter().map(|p| json_str(p)).collect();
    let path_list = format!("[{}]", path_args.join(","));

    let server = Server::new(ServerConfig::default()).expect("server builds");
    let check = |label: &str, changed: Option<&[usize]>| {
        let request = match changed {
            None => format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"),
            Some(idx) => {
                let hint: Vec<String> = idx.iter().map(|&i| json_str(&paths[i])).collect();
                format!(
                    "{{\"op\":\"delta\",\"paths\":{path_list},\"changed\":[{}]}}",
                    hint.join(",")
                )
            }
        };
        let reply = server.handle_line(&request);
        let (reference, exit) = full_scan_envelope(&paths);
        assert_eq!(reply.payload, reference, "{label}: delta payload differs from a full scan");
        let JsonNode::Obj(fields) = parse_json(&reply.header).expect("header parses") else {
            panic!("{label}: header not an object: {}", reply.header);
        };
        let got = fields.iter().find(|(k, _)| k == "exit").map(|(_, v)| v.clone());
        assert_eq!(got, Some(JsonNode::Int(exit as i128)), "{label}: exit differs");
    };

    check("cold", None);
    check("no-op rescan", None);

    // Swap a safe program for a vulnerable one and back, catching each
    // round both ways: by stat drift and by client-named hint.
    let evil = pretty_program(&workload::random_vulnerable_program(99));
    let original = std::fs::read_to_string(&paths[7]).unwrap();
    std::fs::write(&paths[7], &evil).unwrap();
    check("edit by drift", None);
    std::fs::write(&paths[7], &original).unwrap();
    check("revert by hint", Some(&[7]));

    // A multi-file round: three edits at once, hinted.
    for i in [2usize, 30, 59] {
        std::fs::write(&paths[i], &evil).unwrap();
    }
    check("three edits by hint", Some(&[2, 30, 59]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two clients on one daemon: one streams `delta` rescans while the
/// other interleaves inline `analyze` requests with its own deltas.
/// The engine's delta gate must keep every rescan's view of the
/// tracked index whole — before the gate, a rescan could overlap a
/// concurrent tracked scan and analyze files against a half-updated
/// index. With a static tree, every delta payload must stay
/// byte-identical to a fresh full scan no matter how the two request
/// streams interleave, and the per-function delta accounting must
/// cover the whole tree on every round.
#[test]
fn concurrent_delta_and_analyze_clients_never_see_a_torn_tracked_index() {
    let dir = std::env::temp_dir().join(format!("pnx-delta-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let programs = workload::corpus(13, 24);
    let paths: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let path = dir.join(format!("p{i:03}.pnx"));
            std::fs::write(&path, pretty_program(p)).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let path_args: Vec<String> = paths.iter().map(|p| json_str(p)).collect();
    let path_list = format!("[{}]", path_args.join(","));
    let delta_request = format!("{{\"op\":\"delta\",\"paths\":{path_list}}}");
    let analyze_request =
        format!("{{\"op\":\"analyze\",\"source\":{}}}", json_str(&pretty_program(&programs[0])));
    let (reference, _) = full_scan_envelope(&paths);

    let server = Server::new(ServerConfig::default()).expect("server builds");
    let rounds = 25;
    std::thread::scope(|scope| {
        let deltas = scope.spawn(|| {
            for round in 0..rounds {
                let reply = server.handle_line(&delta_request);
                assert_eq!(
                    reply.payload, reference,
                    "client A round {round}: delta payload differs from a full scan"
                );
                assert!(reply.header.contains("\"ok\":true"), "{}", reply.header);
            }
        });
        let mixed = scope.spawn(|| {
            for round in 0..rounds {
                let reply = server.handle_line(&analyze_request);
                assert!(reply.header.contains("\"ok\":true"), "{}", reply.header);
                let reply = server.handle_line(&delta_request);
                assert_eq!(
                    reply.payload, reference,
                    "client B round {round}: delta payload differs from a full scan"
                );
            }
        });
        deltas.join().expect("delta client");
        mixed.join().expect("mixed client");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A filter as `pncheck` flags spell it, with the predicate the CLI's
/// analyzer used to apply inside the analysis, written out here
/// independently of the daemon's filter code.
struct Flags {
    min_severity: Option<&'static str>,
    disable: &'static [&'static str],
}

impl Flags {
    fn request_fields(&self) -> String {
        let mut out = String::new();
        if let Some(level) = self.min_severity {
            out.push_str(&format!(",\"min_severity\":\"{level}\""));
        }
        if !self.disable.is_empty() {
            let kinds: Vec<String> = self.disable.iter().map(|k| format!("\"{k}\"")).collect();
            out.push_str(&format!(",\"disable\":[{}]", kinds.join(",")));
        }
        out
    }

    fn shows(&self, finding: &Finding) -> bool {
        let min = match self.min_severity {
            None | Some("info") => Severity::Info,
            Some("warning") => Severity::Warning,
            Some(_) => Severity::Error,
        };
        finding.severity >= min && !self.disable.contains(&finding.kind.name())
    }
}

/// What a fresh, cache-less `pncheck --format FORMAT` with `flags`
/// prints for `paths`, and its exit status.
fn pncheck_envelope(paths: &[String], flags: &Flags, format: &str) -> (String, u64) {
    let engine = BatchEngine::new(Analyzer::new());
    let sources: Vec<String> =
        paths.iter().map(|p| std::fs::read_to_string(p).expect("corpus file reads")).collect();
    let (outcomes, _) = engine.scan_sources_with_stats(&sources);
    let records: Vec<FileRecord> = paths
        .iter()
        .zip(outcomes)
        .map(|(path, o)| {
            let report = o.report.map(|mut r| {
                r.findings.retain(|f| flags.shows(f));
                r
            });
            FileRecord { path: path.clone(), report, errors: o.errors }
        })
        .collect();
    let payload = match format {
        "json" => render_json(&records, None, None),
        "sarif" => render_sarif(&records),
        _ => records
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(|report| {
                let hints: String = report
                    .findings
                    .iter()
                    .map(|f| format!("    hint: {}\n", f.kind.suggestion()))
                    .collect();
                format!("{report}{hints}")
            })
            .collect(),
    };
    let any =
        records.iter().filter_map(|r| r.report.as_ref()).any(|r| r.detected_at(Severity::Warning));
    (payload, u64::from(any))
}

fn analysis_counter(server: &Server, name: &str) -> i64 {
    let stats = server.handle_line("{\"op\":\"stats\"}").payload;
    let Ok(JsonNode::Obj(fields)) = parse_json(stats.trim()) else { panic!("{stats}") };
    let Some((_, JsonNode::Obj(analysis))) = fields.iter().find(|(k, _)| k == "analysis") else {
        panic!("{stats}")
    };
    match analysis.iter().find(|(k, _)| k == name) {
        Some((_, JsonNode::Int(n))) => i64::try_from(*n).expect("counter fits i64"),
        other => panic!("{name}: {other:?}"),
    }
}

/// One warm daemon with a cache dir serves `analyze` and `delta`
/// requests under every filter and format, interleaved, and each reply
/// equals a fresh cache-less `pncheck` run with the same flags — while
/// the daemon parses each distinct text exactly once: filters never
/// split its caches.
#[test]
fn daemon_filters_match_pncheck_flags_and_share_one_analysis_per_text() {
    let root = std::env::temp_dir().join(format!("pnx-filter-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (dir, cache) = (root.join("src"), root.join("cache"));
    std::fs::create_dir_all(&dir).unwrap();
    let programs = listings::vulnerable_corpus().into_iter().chain(benign::benign_corpus());
    let paths: Vec<String> = programs
        .enumerate()
        .map(|(i, p)| {
            let path = dir.join(format!("p{i:03}.pnx"));
            std::fs::write(&path, pretty_program(&p)).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let target = json_str(&dir.to_string_lossy());
    let server = Server::new(ServerConfig { cache_dir: Some(cache), ..ServerConfig::default() })
        .expect("server builds");

    const BOTH: &[&str] = &["oversized-placement", "tainted-placement-size"];
    let filters = [
        Flags { min_severity: None, disable: &[] },
        Flags { min_severity: Some("warning"), disable: &[] },
        Flags { min_severity: Some("error"), disable: &[] },
        Flags { min_severity: None, disable: &BOTH[..1] },
        Flags { min_severity: None, disable: &BOTH[1..] },
        Flags { min_severity: None, disable: BOTH },
    ];
    let mut distinct_payloads = std::collections::HashSet::new();
    let mut round = 0;
    for half in 0..2 {
        if half == 1 {
            // An edit between the halves: deltas re-analyze one file,
            // and one new text joins the count.
            let evil = pretty_program(&workload::random_vulnerable_program(77));
            std::fs::write(&paths[4], evil).unwrap();
        }
        for flags in &filters {
            for format in ["json", "sarif", "text"] {
                let (reference, exit) = pncheck_envelope(&paths, flags, format);
                distinct_payloads.insert((half, reference.clone()));
                let ops = if round % 2 == 0 { ["analyze", "delta"] } else { ["delta", "analyze"] };
                round += 1;
                for op in ops {
                    let line = format!(
                        "{{\"op\":\"{op}\",\"paths\":[{target}],\"format\":\"{format}\"{}}}",
                        flags.request_fields()
                    );
                    let reply = server.handle_line(&line);
                    assert_eq!(reply.payload, reference, "{line}: payload differs from pncheck");
                    let JsonNode::Obj(header) = parse_json(&reply.header).expect("header parses")
                    else {
                        panic!("{line}: {}", reply.header)
                    };
                    let got = header.iter().find(|(k, _)| k == "exit").map(|(_, v)| v.clone());
                    assert_eq!(got, Some(JsonNode::Int(exit as i128)), "{line}: exit differs");
                }
            }
        }
    }
    assert_eq!(
        distinct_payloads.len(),
        2 * filters.len() * 3,
        "every filter must change what is reported, in every format"
    );
    assert_eq!(
        analysis_counter(&server, "parses"),
        paths.len() as i64 + 1,
        "one parse per distinct text, whatever the filter"
    );

    // An embedded stats object counts the filtered findings.
    let line = format!(
        "{{\"op\":\"analyze\",\"paths\":[{target}],\"stats\":true,\"min_severity\":\"error\"}}"
    );
    let reply = server.handle_line(&line);
    let Ok(JsonNode::Obj(envelope)) = parse_json(&reply.payload) else { panic!("{line}") };
    let count = |section: &str| match envelope.iter().find(|(k, _)| k == section) {
        Some((_, JsonNode::Obj(fields))) => fields.iter().find(|(k, _)| k == "findings").cloned(),
        _ => None,
    };
    assert!(count("summary").is_some(), "{}", reply.payload);
    assert_eq!(count("stats"), count("summary"), "{}", reply.payload);
    let _ = std::fs::remove_dir_all(&root);
}
