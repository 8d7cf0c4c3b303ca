//! Differential oracle: static findings vs. concrete execution.
//!
//! The paper argues its attacks empirically — §4 *runs* every listing
//! and reports what actually overflowed — while §5.1 concedes that
//! static analysis "may not always succeed" in sizing a buffer. The
//! [`Oracle`] holds both halves of that story against each other: it
//! runs the [`Analyzer`](pnew_detector::Analyzer) and the [`Executor`] over the
//! same [`Program`] IR and joins their outputs per [`Site`]:
//!
//! * **true positive** — the analyzer flagged the site (at any
//!   severity) and the machine observed a vulnerability event there;
//! * **false negative** — the machine observed a vulnerability event at
//!   a site the analyzer cleared entirely. Every one of these is an
//!   analyzer bug with a concrete reproduction attached;
//! * **false positive** — the analyzer claimed Warning or stronger at a
//!   site where no scripted input produced an event. These are the
//!   price of soundness, not bugs: the executor probes a handful of
//!   input vectors, so "never observed" is weaker than "safe".
//!
//! Info-severity findings that nothing confirms are advisory and count
//! toward no cell; out-of-memory events are resource conditions the
//! analyzer does not claim to flag and are likewise excluded. The
//! per-kind [`Matrix`] aggregates verdicts across a corpus — the
//! agreement table EXPERIMENTS.md reports.

use std::collections::BTreeMap;
use std::fmt;

use crate::exec::{ExecEvent, ExecEventKind, ExecOutcome, Executor};
use pnew_detector::ir::{Program, Site, Stmt};
use pnew_detector::json::{int, obj, s, JsonNode};
use pnew_detector::{Analyzer, Finding, FindingKind, Severity};

/// How one site's static and dynamic stories compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Flagged by the analyzer and confirmed by execution.
    TruePositive,
    /// Flagged (Warning+) but never observed under the scripted inputs.
    FalsePositive,
    /// Observed by execution at a site the analyzer cleared.
    FalseNegative,
}

impl Verdict {
    /// Stable short name (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Verdict::TruePositive => "true-positive",
            Verdict::FalsePositive => "false-positive",
            Verdict::FalseNegative => "false-negative",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The judgement for one placement/copy site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteVerdict {
    /// The site being judged.
    pub site: Site,
    /// The classification.
    pub verdict: Verdict,
    /// The finding kind involved: the analyzer's kind for TP/FP, the
    /// kind the event implies the analyzer *should* have reported for
    /// FN.
    pub kind: FindingKind,
    /// The strongest analyzer severity at the site (`None` for FN —
    /// that is what makes it one).
    pub severity: Option<Severity>,
    /// Labels of the machine events observed at the site.
    pub events: Vec<&'static str>,
}

/// The full differential result for one program.
#[derive(Debug, Clone, Default)]
pub struct DifferentialReport {
    /// Program name.
    pub program: String,
    /// Per-site verdicts, in `(function, site)` order.
    pub verdicts: Vec<SiteVerdict>,
    /// Every machine event observed (including out-of-memory, which is
    /// excluded from classification).
    pub events: Vec<ExecEvent>,
    /// Statements the executor could not model.
    pub skipped: Vec<(Site, &'static str)>,
    /// The analyzer's findings, verbatim.
    pub findings: Vec<Finding>,
    /// Whether any loop hit the executor's iteration cap.
    pub loop_capped: bool,
}

impl DifferentialReport {
    /// Number of sites with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.verdicts.iter().filter(|v| v.verdict == verdict).count()
    }

    /// Confirmed sites.
    pub fn true_positives(&self) -> usize {
        self.count(Verdict::TruePositive)
    }

    /// Unconfirmed Warning+ claims.
    pub fn false_positives(&self) -> usize {
        self.count(Verdict::FalsePositive)
    }

    /// Observed-but-cleared sites — analyzer bugs.
    pub fn false_negatives(&self) -> usize {
        self.count(Verdict::FalseNegative)
    }

    /// Soundness on this program: no event escaped the analyzer.
    pub fn agrees(&self) -> bool {
        self.false_negatives() == 0
    }
}

/// Per-[`FindingKind`] TP/FP/FN counts, aggregated over many programs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matrix {
    cells: BTreeMap<FindingKind, [u64; 3]>,
    programs: u64,
}

impl Matrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Matrix::default()
    }

    /// Folds one program's verdicts in.
    pub fn absorb(&mut self, report: &DifferentialReport) {
        self.programs += 1;
        for v in &report.verdicts {
            let cell = self.cells.entry(v.kind).or_insert([0; 3]);
            match v.verdict {
                Verdict::TruePositive => cell[0] += 1,
                Verdict::FalsePositive => cell[1] += 1,
                Verdict::FalseNegative => cell[2] += 1,
            }
        }
    }

    /// Programs folded in so far.
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// `(tp, fp, fn)` totals across all kinds.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.cells.values().fold((0, 0, 0), |(tp, fp, fnn), c| (tp + c[0], fp + c[1], fnn + c[2]))
    }

    /// Total false negatives — what CI gates on.
    pub fn false_negatives(&self) -> u64 {
        self.totals().2
    }

    /// `(tp, fp, fn)` for one kind.
    pub fn row(&self, kind: FindingKind) -> (u64, u64, u64) {
        let c = self.cells.get(&kind).copied().unwrap_or([0; 3]);
        (c[0], c[1], c[2])
    }

    /// Kinds with at least one nonzero cell, in declaration order.
    pub fn kinds(&self) -> Vec<FindingKind> {
        self.cells.keys().copied().collect()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<28} {:>6} {:>6} {:>6}", "kind", "TP", "FP", "FN")?;
        for (kind, c) in &self.cells {
            writeln!(f, "{:<28} {:>6} {:>6} {:>6}", kind.name(), c[0], c[1], c[2])?;
        }
        let (tp, fp, fnn) = self.totals();
        writeln!(f, "{:<28} {:>6} {:>6} {:>6}", "total", tp, fp, fnn)?;
        write!(
            f,
            "programs: {}, agreement: {}",
            self.programs,
            if fnn == 0 { "sound" } else { "FALSE NEGATIVES" }
        )
    }
}

/// The differential harness: one analyzer, one executor, a shared input
/// script.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    analyzer: Analyzer,
    executor: Executor,
}

impl Oracle {
    /// An oracle with default analyzer and executor settings.
    pub fn new() -> Self {
        Oracle { analyzer: Analyzer::new(), executor: Executor::new() }
    }

    /// The default attacker input scripts: one benign vector (small
    /// counts that fit every corpus arena), one hostile vector (counts
    /// that overflow any arena up to a few hundred bytes), and one
    /// empty vector (reads return 0). Events are unioned across
    /// scripts, so a site is "observed" if *any* script triggers it.
    pub fn default_inputs() -> Vec<Vec<i64>> {
        vec![vec![3; 8], vec![600; 8], Vec::new()]
    }

    /// Runs the differential with [`Oracle::default_inputs`].
    pub fn differential(&self, program: &Program) -> DifferentialReport {
        self.differential_with(program, &Self::default_inputs())
    }

    /// Runs the differential with explicit input scripts.
    pub fn differential_with(&self, program: &Program, inputs: &[Vec<i64>]) -> DifferentialReport {
        let report = self.analyzer.analyze(program);

        let mut union = ExecOutcome { program: program.name.clone(), ..ExecOutcome::default() };
        let scripts: &[Vec<i64>] = if inputs.is_empty() { &[Vec::new()] } else { inputs };
        for script in scripts {
            let out = self.executor.run(program, script);
            union.executed += out.executed;
            union.loop_capped |= out.loop_capped;
            for ev in out.events {
                if !union
                    .events
                    .iter()
                    .any(|e| same_site(&e.site, &ev.site) && e.kind.label() == ev.kind.label())
                {
                    union.events.push(ev);
                }
            }
            for (site, why) in out.skipped {
                if !union.skipped.iter().any(|(s, w)| same_site(s, &site) && *w == why) {
                    union.skipped.push((site, why));
                }
            }
        }

        let mut verdicts: Vec<SiteVerdict> = Vec::new();

        // Event sites first: each is a TP (analyzer said something
        // there) or an FN (analyzer cleared it).
        let mut event_sites: Vec<Site> = Vec::new();
        for ev in union.events.iter().filter(|e| e.kind.is_vulnerability()) {
            if !event_sites.iter().any(|s| same_site(s, &ev.site)) {
                event_sites.push(ev.site.clone());
            }
        }
        for site in &event_sites {
            let labels: Vec<&'static str> = union
                .events
                .iter()
                .filter(|e| e.kind.is_vulnerability() && same_site(&e.site, site))
                .map(|e| e.kind.label())
                .collect();
            let best = report
                .findings
                .iter()
                .filter(|f| same_site(&f.site, site))
                .max_by_key(|f| f.severity);
            match best {
                Some(finding) => verdicts.push(SiteVerdict {
                    site: site.clone(),
                    verdict: Verdict::TruePositive,
                    kind: finding.kind,
                    severity: Some(finding.severity),
                    events: labels,
                }),
                None => verdicts.push(SiteVerdict {
                    site: site.clone(),
                    verdict: Verdict::FalseNegative,
                    kind: expected_kind(program, site, &union.events),
                    severity: None,
                    events: labels,
                }),
            }
        }

        // Unconfirmed Warning+ claims are false positives; one verdict
        // per site, strongest finding wins.
        for finding in &report.findings {
            if finding.severity < Severity::Warning {
                continue;
            }
            if event_sites.iter().any(|s| same_site(s, &finding.site)) {
                continue;
            }
            if let Some(existing) = verdicts.iter_mut().find(|v| same_site(&v.site, &finding.site))
            {
                if existing.severity < Some(finding.severity) {
                    existing.kind = finding.kind;
                    existing.severity = Some(finding.severity);
                }
                continue;
            }
            verdicts.push(SiteVerdict {
                site: finding.site.clone(),
                verdict: Verdict::FalsePositive,
                kind: finding.kind,
                severity: Some(finding.severity),
                events: Vec::new(),
            });
        }

        verdicts.sort_by(|a, b| {
            (a.site.function.as_str(), a.site.line).cmp(&(b.site.function.as_str(), b.site.line))
        });

        DifferentialReport {
            program: program.name.clone(),
            verdicts,
            events: union.events,
            skipped: union.skipped,
            findings: report.findings,
            loop_capped: union.loop_capped,
        }
    }
}

fn same_site(a: &Site, b: &Site) -> bool {
    a.line == b.line && a.function == b.function
}

/// The kind a false negative *should* have carried, inferred from the
/// event and the statement at the site.
fn expected_kind(program: &Program, site: &Site, events: &[ExecEvent]) -> FindingKind {
    let strongest = events
        .iter()
        .filter(|e| e.kind.is_vulnerability() && same_site(&e.site, site))
        .map(|e| e.kind)
        .next();
    match strongest {
        Some(ExecEventKind::SecretLeak { .. }) => FindingKind::UnsanitizedArenaReuse,
        Some(ExecEventKind::StrandedBytes { .. }) => FindingKind::PlacementLeak,
        Some(ExecEventKind::OverflowWrite { .. }) | Some(ExecEventKind::CanarySmash) => {
            match stmt_at(program, site) {
                Some(Stmt::Strncpy { .. }) | Some(Stmt::Memset { .. }) => {
                    FindingKind::ClassicOverflow
                }
                _ => FindingKind::OversizedPlacement,
            }
        }
        _ => FindingKind::OversizedPlacement,
    }
}

/// Finds the statement at `site`, searching nested bodies.
fn stmt_at<'p>(program: &'p Program, site: &Site) -> Option<&'p Stmt> {
    fn find<'p>(body: &'p [Stmt], site: &Site) -> Option<&'p Stmt> {
        for stmt in body {
            if same_site(stmt.site(), site) {
                return Some(stmt);
            }
            match stmt {
                Stmt::If { then_body, else_body, .. } => {
                    if let Some(s) = find(then_body, site).or_else(|| find(else_body, site)) {
                        return Some(s);
                    }
                }
                Stmt::While { body, .. } => {
                    if let Some(s) = find(body, site) {
                        return Some(s);
                    }
                }
                _ => {}
            }
        }
        None
    }
    program.functions.iter().filter(|f| f.name == site.function).find_map(|f| find(&f.body, site))
}

// ---------------------------------------------------------------------
// The pncheck-oracle/1 envelope.
// ---------------------------------------------------------------------

/// One input to the oracle serializer: where the program came from and
/// what the differential concluded about it.
#[derive(Debug, Clone)]
pub struct OracleRecord {
    /// The path as given on the command line (or a corpus tag like
    /// `corpus:seed=1:7`).
    pub path: String,
    /// The differential result.
    pub report: DifferentialReport,
}

fn verdict_value(v: &SiteVerdict) -> JsonNode {
    obj(vec![
        ("verdict", s(v.verdict.label())),
        ("kind", s(v.kind.name())),
        ("severity", v.severity.map_or(JsonNode::Null, |sev| s(sev.to_string()))),
        ("function", s(&v.site.function)),
        ("statement", int(v.site.line.into())),
        ("events", JsonNode::Arr(v.events.iter().map(|e| s(*e)).collect())),
    ])
}

/// Renders the `pncheck-oracle/1` JSON envelope: per-file site verdicts
/// plus the aggregated per-kind TP/FP/FN matrix. Deterministic for
/// identical input, like the detector's `pncheck-report/1` envelope.
pub fn render_oracle_json(records: &[OracleRecord], matrix: &Matrix) -> String {
    let files: Vec<JsonNode> = records
        .iter()
        .map(|r| {
            obj(vec![
                ("path", s(&r.path)),
                ("program", s(&r.report.program)),
                ("verdicts", JsonNode::Arr(r.report.verdicts.iter().map(verdict_value).collect())),
                ("events", int(r.report.events.len() as u64)),
                ("skipped", int(r.report.skipped.len() as u64)),
                ("agreement", s(if r.report.agrees() { "sound" } else { "false-negatives" })),
            ])
        })
        .collect();
    let matrix_rows: Vec<JsonNode> = matrix
        .kinds()
        .into_iter()
        .map(|kind| {
            let (tp, fp, fnn) = matrix.row(kind);
            obj(vec![("kind", s(kind.name())), ("tp", int(tp)), ("fp", int(fp)), ("fn", int(fnn))])
        })
        .collect();
    let (tp, fp, fnn) = matrix.totals();
    let envelope = obj(vec![
        ("schema", s("pncheck-oracle/1")),
        ("tool", obj(vec![("name", s("pncheck")), ("version", s(env!("CARGO_PKG_VERSION")))])),
        (
            "summary",
            obj(vec![
                ("files", int(records.len() as u64)),
                ("true_positives", int(tp)),
                ("false_positives", int(fp)),
                ("false_negatives", int(fnn)),
                ("agreement", s(if fnn == 0 { "sound" } else { "false-negatives" })),
            ]),
        ),
        ("matrix", JsonNode::Arr(matrix_rows)),
        ("files", JsonNode::Arr(files)),
    ]);
    envelope.pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnew_detector::ir::{CmpOp, Expr, Ty};
    use pnew_detector::ProgramBuilder;

    fn students(p: &mut ProgramBuilder) {
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
    }

    #[test]
    fn oversized_placement_is_a_confirmed_true_positive() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let diff = Oracle::new().differential(&p.build());
        assert_eq!(diff.true_positives(), 1, "{:?}", diff.verdicts);
        assert_eq!(diff.false_negatives(), 0);
        assert!(diff.agrees());
        assert_eq!(diff.verdicts[0].kind, FindingKind::OversizedPlacement);
    }

    #[test]
    fn clean_program_has_no_verdicts() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "Student");
        f.finish();
        let diff = Oracle::new().differential(&p.build());
        assert!(diff.verdicts.is_empty(), "{:?}", diff.verdicts);
        assert!(diff.agrees());
    }

    #[test]
    fn guarded_count_no_longer_shows_up_as_false_positive() {
        // This exact program used to be the oracle's canonical false
        // positive: the guard keeps every script inside the arena, yet
        // the boolean-taint analyzer warned anyway. Under the interval
        // lattice the guard bounds n ≤ 8 (8·9 = 72 fits), so the two
        // sides now simply agree — no verdicts in either column.
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut f = p.function("f");
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let diff = Oracle::new().differential(&p.build());
        assert_eq!(diff.false_negatives(), 0, "{:?}", diff.verdicts);
        assert_eq!(diff.false_positives(), 0, "{:?}", diff.verdicts);
        assert!(diff.agrees(), "{:?}", diff.verdicts);
    }

    #[test]
    fn unguarded_tainted_count_is_confirmed() {
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("pool", Ty::CharArray(Some(64)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(n));
        f.finish();
        let diff = Oracle::new().differential(&p.build());
        assert_eq!(diff.true_positives(), 1, "{:?}", diff.verdicts);
        assert!(diff.agrees());
    }

    #[test]
    fn an_overflowing_memset_is_a_confirmed_classic_overflow() {
        // memset is the §5.1 sanitization step; its length is checked
        // against the destination the way strncpy's is.
        let program = pnew_detector::parse_program(
            "program t;\nfn main() { local n: int; local buf: char[16]; memset(buf, 64); }\n",
        )
        .expect("parses");
        let diff = Oracle::new().differential(&program);
        let kinds: Vec<FindingKind> = diff.findings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FindingKind::ClassicOverflow], "{:?}", diff.findings);
        assert_eq!(diff.findings[0].severity, Severity::Error);
        assert_eq!(diff.true_positives(), 1, "{:?}", diff.verdicts);
        assert!(diff.agrees(), "{:?}", diff.verdicts);
    }

    #[test]
    fn matrix_accumulates_and_formats() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let program = p.build();
        let oracle = Oracle::new();
        let mut matrix = Matrix::new();
        matrix.absorb(&oracle.differential(&program));
        matrix.absorb(&oracle.differential(&program));
        assert_eq!(matrix.programs(), 2);
        let (tp, _, fnn) = matrix.totals();
        assert_eq!(tp, 2);
        assert_eq!(fnn, 0);
        assert_eq!(matrix.row(FindingKind::OversizedPlacement).0, 2);
        let text = matrix.to_string();
        assert!(text.contains("oversized-placement"), "{text}");
        assert!(text.contains("agreement: sound"), "{text}");
    }

    #[test]
    fn info_only_unobserved_findings_are_not_counted() {
        // An unknown-bounds placement over a param pointer: the analyzer
        // says Info, the machine (untainted param = null-ish) observes
        // nothing. Neither TP nor FP.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("f");
        let arena = f.param("arena", Ty::Ptr, false);
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::Var(arena), "Student");
        f.finish();
        let diff = Oracle::new().differential(&p.build());
        assert_eq!(
            diff.verdicts.iter().filter(|v| v.verdict == Verdict::FalsePositive).count(),
            0,
            "{:?}",
            diff.verdicts
        );
        assert!(diff.agrees());
    }

    const VULNERABLE: &str = "program demo;\n\
                              class Student size 16;\n\
                              class GradStudent size 32 : Student;\n\
                              fn main() {\n\
                              \x20   local stud: Student;\n\
                              \x20   local st: ptr;\n\
                              \x20   st = new (&stud) GradStudent();\n\
                              }\n";

    #[test]
    fn oracle_envelope_carries_verdicts_and_matrix() {
        let program = pnew_detector::parse_program(VULNERABLE).unwrap();
        let report = Oracle::new().differential(&program);
        let mut matrix = Matrix::new();
        matrix.absorb(&report);
        let json = render_oracle_json(&[OracleRecord { path: "demo.pnx".into(), report }], &matrix);
        assert!(json.contains("\"schema\": \"pncheck-oracle/1\""), "{json}");
        assert!(json.contains("\"verdict\": \"true-positive\""), "{json}");
        assert!(json.contains("\"kind\": \"oversized-placement\""), "{json}");
        assert!(json.contains("\"false_negatives\": 0"), "{json}");
        assert!(json.contains("\"agreement\": \"sound\""), "{json}");
    }
}
