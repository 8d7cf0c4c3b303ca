//! Findings and reports.

use std::collections::BTreeMap;
use std::fmt;

use crate::ir::Site;

/// The vulnerability classes the detector reports, mirroring the paper's
/// §3/§4 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// A placement whose placed size provably exceeds the arena
    /// (object overflow via construction, §3.1).
    OversizedPlacement,
    /// A placement whose arena size cannot be inferred (bare scalar /
    /// lost alias) — the §5.1 hard case, reported as a warning.
    UnknownBoundsPlacement,
    /// A placement whose size/count is influenced by untrusted input
    /// (remote/serialized objects, §3.2; the first step of §4).
    TaintedPlacementSize,
    /// A copy through a pool-placed buffer with a tainted length — the
    /// two-step array overflow (§4.1/§4.2).
    TaintedCopyThroughPool,
    /// Arena reuse without sanitization after it held secret bytes
    /// (information leakage, §4.3).
    UnsanitizedArenaReuse,
    /// Placement over a heap block later released through a smaller type
    /// or merely nulled (memory leak, §4.5).
    PlacementLeak,
    /// An oversized placement that can reach a vtable pointer
    /// (vptr subterfuge exposure, §3.8.2).
    VptrClobber,
    /// Classic out-of-bounds copy into a lexically declared array — the
    /// only thing the *baseline* (traditional) checker can see.
    ClassicOverflow,
    /// The interprocedural walk hit its hard depth limit (deep call
    /// chain or recursion): everything past the reported call site is
    /// unanalyzed, and the analyzer says so instead of silently
    /// truncating.
    AnalysisDepthExceeded,
}

impl FindingKind {
    /// Parses a kind from its stable short name.
    pub fn from_name(name: &str) -> Option<FindingKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// All kinds.
    pub const ALL: [FindingKind; 9] = [
        FindingKind::OversizedPlacement,
        FindingKind::UnknownBoundsPlacement,
        FindingKind::TaintedPlacementSize,
        FindingKind::TaintedCopyThroughPool,
        FindingKind::UnsanitizedArenaReuse,
        FindingKind::PlacementLeak,
        FindingKind::VptrClobber,
        FindingKind::ClassicOverflow,
        FindingKind::AnalysisDepthExceeded,
    ];

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::OversizedPlacement => "oversized-placement",
            FindingKind::UnknownBoundsPlacement => "unknown-bounds-placement",
            FindingKind::TaintedPlacementSize => "tainted-placement-size",
            FindingKind::TaintedCopyThroughPool => "tainted-copy-through-pool",
            FindingKind::UnsanitizedArenaReuse => "unsanitized-arena-reuse",
            FindingKind::PlacementLeak => "placement-leak",
            FindingKind::VptrClobber => "vptr-clobber",
            FindingKind::ClassicOverflow => "classic-overflow",
            FindingKind::AnalysisDepthExceeded => "analysis-depth-exceeded",
        }
    }

    /// Stable rule identifier for machine-readable output (the JSON
    /// envelope and SARIF `ruleId`), derived from [`name`](Self::name)
    /// under the `pnx/` prefix.
    pub fn rule_id(self) -> &'static str {
        match self {
            FindingKind::OversizedPlacement => "pnx/oversized-placement",
            FindingKind::UnknownBoundsPlacement => "pnx/unknown-bounds-placement",
            FindingKind::TaintedPlacementSize => "pnx/tainted-placement-size",
            FindingKind::TaintedCopyThroughPool => "pnx/tainted-copy-through-pool",
            FindingKind::UnsanitizedArenaReuse => "pnx/unsanitized-arena-reuse",
            FindingKind::PlacementLeak => "pnx/placement-leak",
            FindingKind::VptrClobber => "pnx/vptr-clobber",
            FindingKind::ClassicOverflow => "pnx/classic-overflow",
            FindingKind::AnalysisDepthExceeded => "pnx/analysis-depth-exceeded",
        }
    }

    /// The paper's taxonomy description of this vulnerability class,
    /// used as SARIF rule help text.
    pub fn help(self) -> &'static str {
        match self {
            FindingKind::OversizedPlacement => {
                "A placement new whose placed object provably exceeds the arena it is \
                 constructed into — the object overflow via construction of §3.1. The \
                 bytes past the arena overwrite whatever the process image puts there."
            }
            FindingKind::UnknownBoundsPlacement => {
                "A placement new whose arena size cannot be inferred statically (a bare \
                 scalar address or a lost alias) — the §5.1 hard case. The placement may \
                 be safe, but nothing in the program proves it."
            }
            FindingKind::TaintedPlacementSize => {
                "A placement whose size or element count is influenced by untrusted \
                 input, e.g. a remote or deserialized object (§3.2) — the first step of \
                 the two-step attacks of §4."
            }
            FindingKind::TaintedCopyThroughPool => {
                "A copy through a pool-placed buffer with an attacker-influenced length \
                 — the two-step array overflow of §4.1/§4.2, where the placement itself \
                 is in bounds but rewrites the bound a later copy trusts."
            }
            FindingKind::UnsanitizedArenaReuse => {
                "An arena reused for a new tenant without sanitization after it held \
                 secret bytes — the information-leakage channel of §4.3."
            }
            FindingKind::PlacementLeak => {
                "A placement over a heap block that is later released through a smaller \
                 type or merely nulled, stranding the tail of the block — the memory \
                 leak of §4.5."
            }
            FindingKind::VptrClobber => {
                "An oversized placement that can reach a vtable pointer of a live \
                 polymorphic object — the vptr subterfuge exposure of §3.8.2; the next \
                 virtual call dispatches through attacker-chosen memory."
            }
            FindingKind::ClassicOverflow => {
                "A classic out-of-bounds copy into a lexically declared array — the \
                 only class traditional overflow checkers (the baseline) can see."
            }
            FindingKind::AnalysisDepthExceeded => {
                "The interprocedural analysis reached its hard call-depth limit at \
                 this call site (unbounded recursion or a very deep call chain). \
                 Everything behind the call is unanalyzed; the verdict for the \
                 unreached code is unknown, not clean."
            }
        }
    }

    /// The §5-prescribed remediation for this finding class (what the
    /// [`Fixer`](crate::Fixer) applies automatically).
    pub fn suggestion(self) -> &'static str {
        match self {
            FindingKind::OversizedPlacement => {
                "check sizeof() against the arena and fall back to non-placement new (§5.1)"
            }
            FindingKind::UnknownBoundsPlacement => {
                "the arena size is not statically knowable; review the call site manually (§5.1)"
            }
            FindingKind::TaintedPlacementSize => {
                "bound the attacker-influenced count against the pool capacity before placing (§5.1)"
            }
            FindingKind::TaintedCopyThroughPool => {
                "re-validate the copy length after any placement that could rewrite it (§4)"
            }
            FindingKind::UnsanitizedArenaReuse => {
                "memset() the arena before handing it to the next tenant (§5.1)"
            }
            FindingKind::PlacementLeak => {
                "define and use a placement delete that releases the whole block (§5.1)"
            }
            FindingKind::VptrClobber => {
                "eliminate the oversized placement; vtable pointers are the first word of every polymorphic object (§3.8.2)"
            }
            FindingKind::ClassicOverflow => "bound the copy length by the destination size",
            FindingKind::AnalysisDepthExceeded => {
                "break the recursion or deep call chain, or review the unreached callees manually"
            }
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How certain the analyzer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Severity {
    /// Informational warning (e.g. bounds unknown).
    #[default]
    Info,
    /// Likely vulnerable (tainted sizes).
    Warning,
    /// Proven overflow/leak under the declared layout.
    Error,
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity {other:?} (info|warning|error)")),
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One reported vulnerability.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The vulnerability class.
    pub kind: FindingKind,
    /// Certainty.
    pub severity: Severity,
    /// Where.
    pub site: Site,
    /// Human-readable explanation with the inferred numbers.
    pub message: String,
    /// Concrete worst-case overflow width in bytes, when the
    /// value-range analysis can bound it: the largest
    /// `total − capacity` any execution can reach at this site.
    /// `None` when the worst case is unbounded or the finding is not
    /// an overflow measurement.
    pub width: Option<u64>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Parsed programs carry precise spans: report function:line:col
        // in the source. Builder programs fall back to the statement
        // ordinal.
        match self.site.span {
            Some(span) => write!(f, "{}:{span}", self.site.function)?,
            None => write!(f, "{}", self.site)?,
        }
        write!(f, ": {} [{}]: {}", self.severity, self.kind, self.message)
    }
}

/// The analysis result for one program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Program name.
    pub program: String,
    /// All findings, in site order of discovery.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Starts an empty report.
    pub fn new(program: &str) -> Self {
        Report { program: program.to_owned(), findings: Vec::new() }
    }

    /// `true` if anything at all was found.
    pub fn detected(&self) -> bool {
        !self.findings.is_empty()
    }

    /// `true` if any finding has at least `min` severity.
    pub fn detected_at(&self, min: Severity) -> bool {
        self.findings.iter().any(|f| f.severity >= min)
    }

    /// Findings of one kind.
    pub fn of_kind(&self, kind: FindingKind) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }

    /// Per-kind counts.
    pub fn counts(&self) -> BTreeMap<FindingKind, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.kind).or_insert(0) += 1;
        }
        map
    }
}

/// Which findings a caller wants to see (`--min-severity`,
/// `--disable`), applied to a finished [`Report`] when it is rendered.
/// The analyzer never filters, so every cache tier holds the unfiltered
/// analysis and serves it to any filter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReportFilter {
    /// Findings below this severity are not reported.
    pub min_severity: Severity,
    /// Finding kinds that are switched off entirely.
    pub disabled: Vec<FindingKind>,
}

impl ReportFilter {
    /// Drops the findings this filter hides, keeping the rest in order.
    pub fn apply(&self, report: &mut Report) {
        report
            .findings
            .retain(|f| f.severity >= self.min_severity && !self.disabled.contains(&f.kind));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {} finding(s)", self.program, self.findings.len())?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: FindingKind, severity: Severity) -> Finding {
        Finding { kind, severity, site: Site::new("f", 1), message: "m".into(), width: None }
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn report_queries() {
        let mut r = Report::new("p");
        assert!(!r.detected());
        r.findings.push(finding(FindingKind::OversizedPlacement, Severity::Error));
        r.findings.push(finding(FindingKind::OversizedPlacement, Severity::Error));
        r.findings.push(finding(FindingKind::UnknownBoundsPlacement, Severity::Info));
        assert!(r.detected());
        assert!(r.detected_at(Severity::Error));
        assert_eq!(r.of_kind(FindingKind::OversizedPlacement).len(), 2);
        assert_eq!(r.counts()[&FindingKind::UnknownBoundsPlacement], 1);

        let only_info = Report {
            program: "p".into(),
            findings: vec![finding(FindingKind::UnknownBoundsPlacement, Severity::Info)],
        };
        assert!(!only_info.detected_at(Severity::Warning));
    }

    #[test]
    fn names_and_placement_specificity() {
        for k in FindingKind::ALL {
            assert!(!k.name().is_empty());
            assert_eq!(FindingKind::from_name(k.name()), Some(k));
            assert_eq!(k.rule_id(), format!("pnx/{}", k.name()));
            assert!(!k.help().is_empty());
        }
        assert_eq!(FindingKind::from_name("bogus"), None);
        for k in FindingKind::ALL {
            assert!(!k.suggestion().is_empty());
        }
        assert_eq!("warning".parse::<Severity>(), Ok(Severity::Warning));
        assert!("loud".parse::<Severity>().is_err());
    }

    #[test]
    fn display_forms() {
        let f = finding(FindingKind::PlacementLeak, Severity::Warning);
        assert_eq!(f.to_string(), "f:1: warning [placement-leak]: m");
        let r = Report { program: "p".into(), findings: vec![f] };
        assert!(r.to_string().contains("1 finding"));
    }

    #[test]
    fn spanned_findings_display_the_source_position() {
        let mut f = finding(FindingKind::PlacementLeak, Severity::Warning);
        f.site.span = Some(crate::ir::Span::new(7, 5, 104, 31));
        assert_eq!(f.to_string(), "f:7:5: warning [placement-leak]: m");
    }
}
