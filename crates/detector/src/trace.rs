//! The analyzer's counter and pass-timing registry.
//!
//! One [`Trace`] lives in every [`BatchEngine`](crate::BatchEngine) and
//! is always on. The analyzer adds to it as it runs: analyses,
//! functions, summaries computed and applied, recursive functions,
//! partial analyses and findings per kind (before any filter). The
//! analyzer and the engine time four passes into it. Every count is a
//! closed [`Counter`] (or a [`FindingKind`]) indexing a fixed array of
//! atomics, so an event is one relaxed add: no lock, no allocation, no
//! name lookup.
//!
//! A [`TraceReport`] is a snapshot. `pncheck --stats` prints it and
//! embeds it in the JSON envelope; the daemon's `stats` op prints its
//! counters, under the same names, in its `analysis` object. Pass
//! timings are wall-clock, so only `pncheck --stats` shows them.
//!
//! ```
//! use pnew_detector::trace::{Counter, Trace};
//! use pnew_detector::{parse_program, Analyzer, FindingKind};
//!
//! let program = parse_program(
//!     "program demo;\nclass Student size 16;\nclass GradStudent size 32 : Student;\n\
//!      fn main() { local stud: Student; local st: ptr; st = new (&stud) GradStudent(); }",
//! )
//! .unwrap();
//! let trace = Trace::default();
//! let analysis = Analyzer::new().analyze_full(&program, Some(&trace), None);
//! assert!(analysis.report.detected());
//! let snap = trace.snapshot();
//! assert_eq!(snap.counter(Counter::Analyses), 1);
//! assert_eq!(snap.findings_of(FindingKind::OversizedPlacement), 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::findings::FindingKind;

/// One analyzer count. The names are the keys `pncheck --stats` and the
/// daemon's `stats` op print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Whole or partial analyses of a parsed program.
    Analyses,
    /// Functions in the programs analyzed.
    FunctionsAnalyzed,
    /// Call summaries computed by a walk.
    SummariesComputed,
    /// Call summaries applied from the per-analysis memo.
    SummariesApplied,
    /// Functions on a recursive cycle, summed over analyses.
    RecursiveFunctions,
    /// Analyses that re-walked only an edit's invalidation cone.
    PartialAnalyses,
}

impl Counter {
    /// Every counter, in print order.
    pub const ALL: [Counter; 6] = [
        Counter::Analyses,
        Counter::FunctionsAnalyzed,
        Counter::SummariesComputed,
        Counter::SummariesApplied,
        Counter::RecursiveFunctions,
        Counter::PartialAnalyses,
    ];

    /// The counter's one name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Analyses => "analyses",
            Counter::FunctionsAnalyzed => "functions_analyzed",
            Counter::SummariesComputed => "summaries_computed",
            Counter::SummariesApplied => "summaries_applied",
            Counter::RecursiveFunctions => "recursive_functions",
            Counter::PartialAnalyses => "partial_analyses",
        }
    }
}

/// One timed pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Building an analysis's per-program index.
    AnalysisIndex,
    /// Walking (or replaying) every function of an analysis.
    AnalysisWalk,
    /// One engine scan of programs, sources or tracked paths.
    BatchScan,
    /// One incremental delta rescan.
    BatchRescanDelta,
}

impl Pass {
    /// Every pass, in print order.
    pub const ALL: [Pass; 4] =
        [Pass::AnalysisIndex, Pass::AnalysisWalk, Pass::BatchScan, Pass::BatchRescanDelta];

    /// The pass's one name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::AnalysisIndex => "analysis.index",
            Pass::AnalysisWalk => "analysis.walk",
            Pass::BatchScan => "batch.scan",
            Pass::BatchRescanDelta => "batch.rescan-delta",
        }
    }
}

fn kind_index(kind: FindingKind) -> usize {
    FindingKind::ALL.iter().position(|&k| k == kind).expect("every kind is in ALL")
}

/// The registry: fixed arrays of atomics, shared by every worker.
#[derive(Debug, Default)]
pub struct Trace {
    counters: [AtomicU64; Counter::ALL.len()],
    findings: [AtomicU64; FindingKind::ALL.len()],
    pass_calls: [AtomicU64; Pass::ALL.len()],
    pass_ns: [AtomicU64; Pass::ALL.len()],
}

impl Trace {
    /// Adds `n` to `counter`.
    pub fn count(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one finding of `kind`.
    pub fn finding(&self, kind: FindingKind) {
        self.findings[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one run of `pass` that took `elapsed`.
    pub fn time(&self, pass: Pass, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.pass_calls[pass as usize].fetch_add(1, Ordering::Relaxed);
        self.pass_ns[pass as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> TraceReport {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TraceReport {
            counters: self.counters.each_ref().map(load),
            findings: self.findings.each_ref().map(load),
            summary_store_hits: 0,
            passes: std::array::from_fn(|i| PassTiming {
                calls: load(&self.pass_calls[i]),
                total: Duration::from_nanos(load(&self.pass_ns[i])),
            }),
        }
    }
}

/// One pass's aggregate timing in a [`TraceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassTiming {
    /// Times the pass ran.
    pub calls: u64,
    /// Total wall-clock time across all runs.
    pub total: Duration,
}

/// A snapshot of a [`Trace`], plus the engine's summary-store hits
/// (the store counts those itself).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Indexed by [`Counter`].
    pub counters: [u64; Counter::ALL.len()],
    /// Findings per kind, indexed like [`FindingKind::ALL`].
    pub findings: [u64; FindingKind::ALL.len()],
    /// Functions whose entry summary the summary store served.
    pub summary_store_hits: u64,
    /// Indexed by [`Pass`].
    pub passes: [PassTiming; Pass::ALL.len()],
}

impl TraceReport {
    /// The value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Findings of `kind` counted.
    pub fn findings_of(&self, kind: FindingKind) -> u64 {
        self.findings[kind_index(kind)]
    }

    /// The timing of `pass`.
    pub fn pass(&self, pass: Pass) -> PassTiming {
        self.passes[pass as usize]
    }

    /// Human-oriented lines for `--stats` output, one per entry.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for pass in Pass::ALL {
            let p = self.pass(pass);
            out.push(format!(
                "trace: pass {} = {:.3}ms over {} call(s)",
                pass.name(),
                p.total.as_secs_f64() * 1e3,
                p.calls
            ));
        }
        for counter in Counter::ALL {
            out.push(format!("trace: counter {} = {}", counter.name(), self.counter(counter)));
        }
        out.push(format!("trace: counter summary_store_hits = {}", self.summary_store_hits));
        for kind in FindingKind::ALL {
            out.push(format!(
                "trace: counter findings_by_kind.{} = {}",
                kind.name(),
                self.findings_of(kind)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_under_their_own_names() {
        let t = Trace::default();
        t.count(Counter::Analyses, 2);
        t.count(Counter::Analyses, 3);
        t.count(Counter::PartialAnalyses, 1);
        t.finding(FindingKind::ClassicOverflow);
        let snap = t.snapshot();
        assert_eq!(snap.counter(Counter::Analyses), 5);
        assert_eq!(snap.counter(Counter::PartialAnalyses), 1);
        assert_eq!(snap.counter(Counter::FunctionsAnalyzed), 0);
        assert_eq!(snap.findings_of(FindingKind::ClassicOverflow), 1);
        let lines = snap.lines();
        assert!(lines.contains(&"trace: counter analyses = 5".to_owned()), "{lines:?}");
        assert!(
            lines.contains(&"trace: counter findings_by_kind.classic-overflow = 1".to_owned()),
            "{lines:?}"
        );
    }

    #[test]
    fn passes_aggregate_calls_and_time() {
        let t = Trace::default();
        t.time(Pass::AnalysisWalk, Duration::from_millis(2));
        t.time(Pass::AnalysisWalk, Duration::from_millis(3));
        let snap = t.snapshot();
        assert_eq!(snap.pass(Pass::AnalysisWalk).calls, 2);
        assert_eq!(snap.pass(Pass::AnalysisWalk).total, Duration::from_millis(5));
        assert_eq!(snap.pass(Pass::BatchScan), PassTiming::default());
    }

    #[test]
    fn every_name_is_distinct() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Pass::ALL.iter().map(|p| p.name()));
        names.push("summary_store_hits");
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL is in discriminant order");
        }
        for (i, p) in Pass::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL is in discriminant order");
        }
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let t = Trace::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        t.count(Counter::FunctionsAnalyzed, 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counter(Counter::FunctionsAnalyzed), 400);
    }
}
