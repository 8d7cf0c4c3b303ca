//! Machine-readable report serialization: the `pncheck` JSON envelope
//! and SARIF 2.1.0.
//!
//! Both are built as [`JsonNode`] trees and rendered by
//! [`JsonNode::pretty`]. Field order is fixed by construction order, so
//! byte-identical output for identical input is a guarantee — the
//! golden-file tests depend on it.
//!
//! The JSON envelope (`schema: "pncheck-report/1"`) carries one entry
//! per scanned file — program name, findings with rule IDs and precise
//! [`Span`]s, parse errors — plus optional batch stats and a
//! [`TraceReport`]. SARIF output targets CI annotation: one run, the
//! eight detector rules (plus `pnx/parse-error`) with the paper's
//! §-taxonomy text as rule help, and one result per finding with a
//! `physicalLocation` region carrying line, column, and byte extent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;

use crate::batch::BatchStats;
use crate::findings::{FindingKind, Report, ReportFilter, Severity};
use crate::ir::Span;
use crate::json::{int, obj, s, JsonNode};
use crate::parse::ParseError;
use crate::trace::{Counter, Pass, TraceReport};

// Request writers (the DST harness) quote with the envelopes' escaping
// and import it from here.
pub use crate::json::json_string;

/// The output format selected by `pncheck --format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-oriented text (the default).
    #[default]
    Text,
    /// The `pncheck-report/1` JSON envelope.
    Json,
    /// SARIF 2.1.0 for CI annotation.
    Sarif,
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "sarif" => Ok(OutputFormat::Sarif),
            other => Err(format!("unknown format {other:?} (text|json|sarif)")),
        }
    }
}

/// One scanned input file, as the serializers see it: a report when the
/// file parsed, the collected parse errors when it did not.
#[derive(Debug, Clone)]
pub struct FileRecord {
    /// The path as given on the command line (or `-` for stdin).
    pub path: String,
    /// The analysis report, when the file parsed.
    pub report: Option<Report>,
    /// Parse errors, when it did not (possibly several — the parser
    /// recovers and reports them all).
    pub errors: Vec<ParseError>,
}

/// Applies `filter` to every record's report before anything counts or
/// renders it, and returns the findings left: the `findings` figure
/// `--stats` reports.
pub fn filter_records(records: &mut [FileRecord], filter: &ReportFilter) -> usize {
    let mut findings = 0;
    for report in records.iter_mut().filter_map(|r| r.report.as_mut()) {
        filter.apply(report);
        findings += report.findings.len();
    }
    findings
}

// ---------------------------------------------------------------------
// The pncheck JSON envelope.
// ---------------------------------------------------------------------

/// The version reported in both serializations.
fn tool_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

fn span_value(span: Option<Span>) -> JsonNode {
    match span {
        Some(sp) => obj(vec![
            ("line", int(sp.line.into())),
            ("col", int(sp.col.into())),
            ("byte_offset", int(sp.byte_offset.into())),
            ("len", int(sp.len.into())),
        ]),
        None => JsonNode::Null,
    }
}

/// The counters of a [`TraceReport`] under their one names: `pncheck`'s
/// `trace.counters`, and the same keys in the daemon's `analysis` stats.
pub(crate) fn trace_counters(trace: &TraceReport) -> Vec<(&'static str, JsonNode)> {
    let mut fields: Vec<(&str, JsonNode)> =
        Counter::ALL.iter().map(|&c| (c.name(), int(trace.counter(c)))).collect();
    fields.push(("summary_store_hits", int(trace.summary_store_hits)));
    let by_kind = FindingKind::ALL.iter().map(|&k| (k.name(), int(trace.findings_of(k)))).collect();
    fields.push(("findings_by_kind", obj(by_kind)));
    fields
}

fn trace_value(trace: &TraceReport) -> JsonNode {
    let passes: Vec<JsonNode> = Pass::ALL
        .iter()
        .map(|&pass| {
            let p = trace.pass(pass);
            obj(vec![
                ("name", s(pass.name())),
                ("calls", int(p.calls)),
                ("total_us", int(p.total.as_micros().min(u128::from(u64::MAX)) as u64)),
            ])
        })
        .collect();
    obj(vec![("counters", obj(trace_counters(trace))), ("passes", JsonNode::Arr(passes))])
}

fn stats_value(stats: &BatchStats) -> JsonNode {
    obj(vec![
        ("programs", int(stats.programs as u64)),
        ("findings", int(stats.findings as u64)),
        ("jobs", int(stats.jobs as u64)),
        ("cache_hits", int(stats.cache_hits)),
        ("cache_misses", int(stats.cache_misses)),
        ("parses", int(stats.parses)),
        ("persistent_cache_hits", int(stats.persistent_hits)),
        ("persistent_cache_misses", int(stats.persistent_misses)),
        ("persistent_cache_corrupt", int(stats.persistent_corrupt)),
        ("persistent_cache_write_errors", int(stats.persistent_write_errors)),
        ("elapsed_us", int(stats.elapsed.as_micros().min(u128::from(u64::MAX)) as u64)),
        ("programs_per_sec", JsonNode::Float(stats.programs_per_sec())),
    ])
}

fn file_value(record: &FileRecord) -> JsonNode {
    let findings: Vec<JsonNode> = record
        .report
        .iter()
        .flat_map(|r| &r.findings)
        .map(|f| {
            obj(vec![
                ("rule", s(f.kind.rule_id())),
                ("kind", s(f.kind.name())),
                ("severity", s(f.severity.to_string())),
                // Concrete worst-case overflow width in bytes; null when
                // the worst case is unbounded or not an overflow at all.
                ("width", f.width.map_or(JsonNode::Null, int)),
                ("function", s(&f.site.function)),
                ("statement", int(f.site.line.into())),
                ("span", span_value(f.site.span)),
                ("message", s(&f.message)),
                ("suggestion", s(f.kind.suggestion())),
            ])
        })
        .collect();
    let errors: Vec<JsonNode> = record
        .errors
        .iter()
        .map(|e| obj(vec![("message", s(&e.message)), ("span", span_value(Some(e.span)))]))
        .collect();
    obj(vec![
        ("path", s(&record.path)),
        ("program", record.report.as_ref().map_or(JsonNode::Null, |r| s(&r.program))),
        ("findings", JsonNode::Arr(findings)),
        ("errors", JsonNode::Arr(errors)),
    ])
}

/// Renders `records` in `format`: what `pncheck` prints and what a
/// `pncheckd` `analyze` or `delta` reply carries, so the two can never
/// drift apart. Text is each parsed file's report followed by one fix
/// hint per finding; `stats` and `trace` embed in the JSON envelope and
/// are ignored by the other formats.
pub fn render(
    format: OutputFormat,
    records: &[FileRecord],
    stats: Option<&BatchStats>,
    trace: Option<&TraceReport>,
) -> String {
    match format {
        OutputFormat::Text => {
            let mut out = String::new();
            for report in records.iter().filter_map(|r| r.report.as_ref()) {
                let _ = write!(out, "{report}");
                for finding in &report.findings {
                    let _ = writeln!(out, "    hint: {}", finding.kind.suggestion());
                }
            }
            out
        }
        OutputFormat::Json => render_json(records, stats, trace),
        OutputFormat::Sarif => render_sarif(records),
    }
}

/// The exit rule `pncheck` and `pncheckd` share: 2 when any input
/// could not be read or parsed, 1 when a report holds a warning-level
/// finding, 0 otherwise.
pub fn exit_status(records: &[FileRecord], had_errors: bool) -> u8 {
    if had_errors {
        2
    } else if records
        .iter()
        .filter_map(|r| r.report.as_ref())
        .any(|r| r.detected_at(Severity::Warning))
    {
        1
    } else {
        0
    }
}

/// Renders the `pncheck-report/1` JSON envelope.
///
/// Deterministic for identical input: field order is fixed, trace
/// counters included. `stats` and `trace` are optional (`--stats`); they
/// carry timings and are therefore *not* deterministic — golden tests
/// should pass `None`.
pub fn render_json(
    files: &[FileRecord],
    stats: Option<&BatchStats>,
    trace: Option<&TraceReport>,
) -> String {
    let findings: usize =
        files.iter().filter_map(|f| f.report.as_ref()).map(|r| r.findings.len()).sum();
    let parse_errors: usize = files.iter().map(|f| f.errors.len()).sum();
    let envelope = obj(vec![
        ("schema", s("pncheck-report/1")),
        ("tool", obj(vec![("name", s("pncheck")), ("version", s(tool_version()))])),
        (
            "summary",
            obj(vec![
                ("files", int(files.len() as u64)),
                ("findings", int(findings as u64)),
                ("parse_errors", int(parse_errors as u64)),
            ]),
        ),
        ("files", JsonNode::Arr(files.iter().map(file_value).collect())),
        ("stats", stats.map_or(JsonNode::Null, stats_value)),
        ("trace", trace.map_or(JsonNode::Null, trace_value)),
    ]);
    envelope.pretty()
}

/// Renders a `pncheck-report/1` envelope describing a run that could
/// not start: no files, plus a structured `error` object with a stable
/// machine-readable code. Used when a usage-level failure (an unusable
/// `--cache-dir`, for instance) must still produce valid JSON on
/// stdout for pipelines that parse it.
pub fn render_error_json(code: &str, message: &str) -> String {
    let envelope = obj(vec![
        ("schema", s("pncheck-report/1")),
        ("tool", obj(vec![("name", s("pncheck")), ("version", s(tool_version()))])),
        ("summary", obj(vec![("files", int(0)), ("findings", int(0)), ("parse_errors", int(0))])),
        ("files", JsonNode::Arr(Vec::new())),
        ("error", obj(vec![("code", s(code)), ("message", s(message))])),
    ]);
    envelope.pretty()
}

// ---------------------------------------------------------------------
// SARIF 2.1.0.
// ---------------------------------------------------------------------

/// The synthetic rule ID under which parse errors are reported.
const PARSE_ERROR_RULE: &str = "pnx/parse-error";

fn sarif_level(severity: Severity) -> &'static str {
    match severity {
        Severity::Info => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn sarif_rules() -> (Vec<JsonNode>, BTreeMap<&'static str, usize>) {
    let mut rules = Vec::new();
    let mut index = BTreeMap::new();
    for kind in FindingKind::ALL {
        index.insert(kind.rule_id(), rules.len());
        rules.push(obj(vec![
            ("id", s(kind.rule_id())),
            ("shortDescription", obj(vec![("text", s(kind.name()))])),
            ("fullDescription", obj(vec![("text", s(kind.help()))])),
            ("help", obj(vec![("text", s(kind.suggestion()))])),
        ]));
    }
    index.insert(PARSE_ERROR_RULE, rules.len());
    rules.push(obj(vec![
        ("id", s(PARSE_ERROR_RULE)),
        ("shortDescription", obj(vec![("text", s("parse-error"))])),
        (
            "fullDescription",
            obj(vec![("text", s("The file is not valid .pnx source and was not analyzed."))]),
        ),
        ("help", obj(vec![("text", s("fix the syntax error; see docs/pnx-syntax.md"))])),
    ]));
    (rules, index)
}

fn sarif_region(span: Option<Span>, fallback_line: u32) -> JsonNode {
    match span {
        Some(sp) => obj(vec![
            ("startLine", int(sp.line.into())),
            ("startColumn", int(sp.col.into())),
            ("byteOffset", int(sp.byte_offset.into())),
            ("byteLength", int(sp.len.into())),
        ]),
        None => obj(vec![("startLine", int(fallback_line.max(1).into())), ("startColumn", int(1))]),
    }
}

fn sarif_location(uri: &str, region: JsonNode, function: Option<&str>) -> JsonNode {
    let mut fields = vec![(
        "physicalLocation",
        obj(vec![("artifactLocation", obj(vec![("uri", s(uri))])), ("region", region)]),
    )];
    if let Some(name) = function {
        fields.push((
            "logicalLocations",
            JsonNode::Arr(vec![obj(vec![("name", s(name)), ("kind", s("function"))])]),
        ));
    }
    obj(fields)
}

/// Renders a SARIF 2.1.0 log: one run, one result per finding, and one
/// `pnx/parse-error` result per parse error. Deterministic for identical
/// input.
pub fn render_sarif(files: &[FileRecord]) -> String {
    let (rules, rule_index) = sarif_rules();
    let mut results = Vec::new();
    for record in files {
        for finding in record.report.iter().flat_map(|r| &r.findings) {
            let rule_id = finding.kind.rule_id();
            let message = format!("{} (hint: {})", finding.message, finding.kind.suggestion());
            let mut fields = vec![
                ("ruleId", s(rule_id)),
                ("ruleIndex", int(rule_index[rule_id] as u64)),
                ("level", s(sarif_level(finding.severity))),
                ("message", obj(vec![("text", s(message))])),
                (
                    "locations",
                    JsonNode::Arr(vec![sarif_location(
                        &record.path,
                        sarif_region(finding.site.span, finding.site.line),
                        Some(&finding.site.function),
                    )]),
                ),
            ];
            if let Some(width) = finding.width {
                fields.push(("properties", obj(vec![("overflowWidthBytes", int(width))])));
            }
            results.push(obj(fields));
        }
        for error in &record.errors {
            results.push(obj(vec![
                ("ruleId", s(PARSE_ERROR_RULE)),
                ("ruleIndex", int(rule_index[PARSE_ERROR_RULE] as u64)),
                ("level", s("error")),
                ("message", obj(vec![("text", s(&error.message))])),
                (
                    "locations",
                    JsonNode::Arr(vec![sarif_location(
                        &record.path,
                        sarif_region(Some(error.span), error.span.line),
                        None,
                    )]),
                ),
            ]));
        }
    }
    let log = obj(vec![
        ("$schema", s("https://json.schemastore.org/sarif-2.1.0.json")),
        ("version", s("2.1.0")),
        (
            "runs",
            JsonNode::Arr(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("pncheck")),
                            ("version", s(tool_version())),
                            ("informationUri", s("https://example.invalid/placement-new-attacks")),
                            ("rules", JsonNode::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", JsonNode::Arr(results)),
            ])]),
        ),
    ]);
    log.pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_program, parse_program_recovering};
    use crate::Analyzer;

    const VULNERABLE: &str = "program demo;\n\
                              class Student size 16;\n\
                              class GradStudent size 32 : Student;\n\
                              fn main() {\n\
                              \x20   local stud: Student;\n\
                              \x20   local st: ptr;\n\
                              \x20   st = new (&stud) GradStudent();\n\
                              }\n";

    fn scanned(path: &str, src: &str) -> FileRecord {
        match parse_program_recovering(src) {
            Ok(p) => FileRecord {
                path: path.to_owned(),
                report: Some(Analyzer::new().analyze(&p)),
                errors: Vec::new(),
            },
            Err(errors) => FileRecord { path: path.to_owned(), report: None, errors },
        }
    }

    #[test]
    fn format_parses_from_flag_values() {
        assert_eq!("text".parse::<OutputFormat>(), Ok(OutputFormat::Text));
        assert_eq!("json".parse::<OutputFormat>(), Ok(OutputFormat::Json));
        assert_eq!("sarif".parse::<OutputFormat>(), Ok(OutputFormat::Sarif));
        assert!("yaml".parse::<OutputFormat>().is_err());
    }

    #[test]
    fn error_envelope_is_schema_valid_and_carries_the_code() {
        let json = render_error_json("cache-dir-unusable", "cannot open /nope: denied");
        assert!(json.contains("\"schema\": \"pncheck-report/1\""), "{json}");
        assert!(json.contains("\"code\": \"cache-dir-unusable\""), "{json}");
        assert!(json.contains("\"message\": \"cannot open /nope: denied\""), "{json}");
        assert!(json.contains("\"files\": []"), "{json}");
    }

    #[test]
    fn json_envelope_carries_spans_and_rules() {
        let json = render_json(&[scanned("demo.pnx", VULNERABLE)], None, None);
        assert!(json.contains("\"schema\": \"pncheck-report/1\""), "{json}");
        assert!(json.contains("\"rule\": \"pnx/oversized-placement\""), "{json}");
        assert!(json.contains("\"line\": 7"), "{json}");
        assert!(json.contains("\"col\": 5"), "{json}");
        assert!(json.contains("\"function\": \"main\""), "{json}");
    }

    #[test]
    fn overflow_width_reaches_both_serializations() {
        // The 32-byte GradStudent in a 16-byte arena overflows by exactly
        // 16 bytes; the measurement must survive into the JSON envelope
        // and the SARIF properties bag.
        let record = scanned("demo.pnx", VULNERABLE);
        let json = render_json(std::slice::from_ref(&record), None, None);
        assert!(json.contains("\"width\": 16"), "{json}");
        let sarif = render_sarif(&[record]);
        assert!(sarif.contains("\"overflowWidthBytes\": 16"), "{sarif}");
    }

    #[test]
    fn json_output_is_deterministic() {
        let records = [scanned("demo.pnx", VULNERABLE)];
        assert_eq!(render_json(&records, None, None), render_json(&records, None, None));
    }

    #[test]
    fn parse_errors_become_envelope_errors_and_sarif_results() {
        let record = scanned("broken.pnx", "program t;\nfn f() {\n    n = ;\n}\n");
        assert!(record.report.is_none());
        let json = render_json(std::slice::from_ref(&record), None, None);
        assert!(json.contains("\"program\": null"), "{json}");
        assert!(json.contains("unknown variable"), "{json}");
        let sarif = render_sarif(&[record]);
        assert!(sarif.contains("pnx/parse-error"), "{sarif}");
        assert!(sarif.contains("\"level\": \"error\""), "{sarif}");
    }

    #[test]
    fn sarif_results_point_at_precise_regions() {
        let sarif = render_sarif(&[scanned("demo.pnx", VULNERABLE)]);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(sarif.contains("\"startLine\": 7"), "{sarif}");
        assert!(sarif.contains("\"startColumn\": 5"), "{sarif}");
        assert!(sarif.contains("\"uri\": \"demo.pnx\""), "{sarif}");
        // Every detector rule is declared once, findings or not.
        for kind in FindingKind::ALL {
            assert!(sarif.contains(kind.rule_id()), "{}", kind.rule_id());
        }
    }

    #[test]
    fn builder_sites_without_spans_fall_back_to_the_ordinal() {
        use crate::{Expr, ProgramBuilder, Ty};
        let mut p = ProgramBuilder::new("built");
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let record = FileRecord {
            path: "built.pnx".into(),
            report: Some(Analyzer::new().analyze(&p.build())),
            errors: Vec::new(),
        };
        let json = render_json(std::slice::from_ref(&record), None, None);
        assert!(json.contains("\"span\": null"), "{json}");
        let sarif = render_sarif(&[record]);
        assert!(sarif.contains("\"startLine\": 1"), "{sarif}");
        assert!(sarif.contains("\"startColumn\": 1"), "{sarif}");
    }

    #[test]
    fn stats_and_trace_embed_when_given() {
        use crate::{Analyzer, BatchEngine};
        let program = parse_program(VULNERABLE).unwrap();
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(1);
        let (reports, stats) = engine.scan_with_stats(std::slice::from_ref(&program));
        let record = FileRecord {
            path: "demo.pnx".into(),
            report: Some(reports[0].clone()),
            errors: Vec::new(),
        };
        let json = render_json(&[record], Some(&stats), Some(&engine.trace_report()));
        assert!(json.contains("\"stats\": {"), "{json}");
        assert!(json.contains("\"cache_misses\": 1"), "{json}");
        assert!(json.contains("\"counters\": {"), "{json}");
        assert!(json.contains("\"analyses\": 1"), "{json}");
        assert!(json.contains("\"oversized-placement\": 1"), "{json}");
    }
}
