//! Function summaries for the interprocedural analysis.
//!
//! The analyzer's interprocedural strategy is *summary-based*: instead of
//! re-walking a callee's body inline at every call site (O(call paths) —
//! exponential on deep, fan-in-heavy call graphs), each `(function,
//! depth, abstract context)` triple is walked **once** and the result is
//! memoized as a [`CallSummary`]: the findings the body emits under that
//! context, the global/heap region effects it leaves behind, and whether
//! it clobbers memory (a proven overflow). Call sites *apply* the
//! summary — replay the findings through the report-level deduplication
//! and merge the region effects into the caller — which is byte-for-byte
//! equivalent to the inline walk but collapses the path explosion to
//! O(functions × distinct contexts).
//!
//! The abstract context ([`SummaryKey`]) captures exactly the inputs the
//! callee walk reads from its caller:
//!
//! * per-parameter facts — taint, the propagated value interval
//!   (constants are its degenerate layer), points-to target;
//! * the lifecycle state of every region visible to the callee
//!   (globals and heap blocks), including residue provenance;
//! * whether memory is already clobbered (and by which site — the site
//!   appears in message text, so it is part of the context identity);
//! * the call depth, because the hard depth guard emits its diagnostic
//!   at a depth-dependent frontier.
//!
//! A bottom-up pass over the call graph's SCC condensation (iterative
//! Tarjan, [`CallGraph`]) seeds the memo table callees-first; recursive
//! cycles cannot be summarized bottom-up and fall back to the bounded
//! widening of the depth guard (the walk descends through the cycle
//! until `MAX_CALL_DEPTH`, then emits a deterministic
//! `analysis-depth-exceeded` diagnostic instead of silently truncating).

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::analysis::{RegionId, RegionState, State};
use crate::cache::CachedAnalysis;
use crate::findings::Finding;
use crate::ir::{Program, Site, Stmt, Symbol, VarId};

/// Orders/hashes a region identity without needing `Ord` on the IR type.
pub(crate) fn region_sort_key(id: RegionId) -> (u8, u32) {
    match id {
        RegionId::Var(v) => (0, v.index()),
        RegionId::Heap(line) => (1, line),
    }
}

/// Identity token for a borrowed [`Site`]. Summaries are memoized within
/// one `analyze` call, where every site is a stable borrow from the
/// program, so the address is a precise identity (two sites with equal
/// (function, line) but different provenance stay distinct — at worst a
/// memo miss, never a wrong replay).
fn site_token(site: &Site) -> usize {
    std::ptr::from_ref(site) as usize
}

/// The caller-provided facts about one callee parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ParamFacts {
    tainted: bool,
    /// The caller-visible value interval `(lo, hi)` bound to the
    /// parameter — summaries key on the full interval, so a guarded
    /// argument and an unguarded one never share a summary.
    interval: (i64, i64),
    points_to: Option<(u8, u32)>,
}

/// Hashable snapshot of a region's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RegionFacts {
    alloc_size: Option<u64>,
    alloc_class: Option<Symbol>,
    last_tenant_size: Option<u64>,
    has_secret: bool,
    residue_at: Option<usize>,
    freed: bool,
    tainted_pool: bool,
}

impl RegionFacts {
    fn of(rs: &RegionState<'_>) -> Self {
        RegionFacts {
            alloc_size: rs.alloc_size,
            alloc_class: rs.alloc_class,
            last_tenant_size: rs.last_tenant_size,
            has_secret: rs.has_secret,
            residue_at: rs.residue_at.map(site_token),
            freed: rs.freed,
            tainted_pool: rs.tainted_pool,
        }
    }
}

/// The abstract calling context a summary is keyed on. See the
/// [module docs](self) for what each component captures and why.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SummaryKey {
    fi: usize,
    depth: u32,
    clobbered: Option<usize>,
    params: Vec<ParamFacts>,
    regions: Vec<((u8, u32), RegionFacts)>,
}

impl SummaryKey {
    /// Builds the context key for walking function `fi`'s body at
    /// `depth`, from the callee-entry state the caller prepared.
    pub(crate) fn of(fi: usize, depth: u32, params: &[VarId], state: &State<'_>) -> Self {
        let params = params
            .iter()
            .map(|&p| {
                let i = p.index() as usize;
                ParamFacts {
                    tainted: state.tainted[i],
                    interval: (state.vals[i].lo, state.vals[i].hi),
                    points_to: state.points_to[i].map(region_sort_key),
                }
            })
            .collect();
        let mut regions: Vec<((u8, u32), RegionFacts)> = state
            .regions
            .iter()
            .map(|(&id, rs)| (region_sort_key(id), RegionFacts::of(rs)))
            .collect();
        regions.sort_unstable_by_key(|&(k, _)| k);
        SummaryKey { fi, depth, clobbered: state.clobbered_at.map(site_token), params, regions }
    }
}

/// The transfer summary of one `(function, depth, context)`: everything
/// applying the call needs, without re-walking the body.
#[derive(Debug, Clone)]
pub(crate) struct CallSummary<'p> {
    /// Findings the body emits under this context, in emission order
    /// (deduplicated within the summary; replay dedups globally).
    pub(crate) findings: Vec<Finding>,
    /// Exit state of the caller-visible (global/heap) regions, sorted by
    /// region identity for determinism.
    pub(crate) exit_regions: Vec<(RegionId, RegionState<'p>)>,
    /// Site of the first proven overflow inside the call, if any — the
    /// clobber propagates to the caller.
    pub(crate) exit_clobber: Option<&'p Site>,
}

/// The per-analysis memo table of computed summaries, with the counters
/// `--stats` surfaces.
#[derive(Debug, Default)]
pub(crate) struct Memo<'p> {
    table: HashMap<SummaryKey, Rc<CallSummary<'p>>>,
    /// Summaries computed by walking a body.
    pub(crate) computed: u64,
    /// Call sites (and entry replays) served from the table.
    pub(crate) applied: u64,
}

impl<'p> Memo<'p> {
    pub(crate) fn get(&self, key: &SummaryKey) -> Option<Rc<CallSummary<'p>>> {
        self.table.get(key).cloned()
    }

    pub(crate) fn insert(&mut self, key: SummaryKey, summary: Rc<CallSummary<'p>>) {
        self.table.insert(key, summary);
    }
}

/// One callee summary a function's analysis consumed: the serializable
/// identity of the dependency edge. `fingerprint` is the callee's
/// content fingerprint at analysis time, so a later run can tell from
/// two record sets alone whether the edge's target changed — the
/// reverse-dependency walk behind
/// [`invalidation_cone`](crate::delta::invalidation_cone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryDep {
    /// The callee's function name (unique within a program).
    pub callee: String,
    /// The callee's content fingerprint when the summary was computed.
    pub fingerprint: u128,
}

/// A compact digest of one function's entry summary, serialized into the
/// persistent cache next to the findings so a warm rerun can report
/// summary-level statistics — and compute invalidation cones — without
/// re-analyzing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSummaryRecord {
    /// Function name.
    pub function: String,
    /// Content fingerprint: a 128-bit FNV-1a over the program's semantic
    /// preamble (classes and globals, whose sizes and types every body
    /// reads — the `program name;` line is excluded so identical code in
    /// differently named programs shares a fingerprint), this function's
    /// canonical pretty-printed text, and the byte positions of its
    /// statements (rendered findings carry byte-precise spans, so a
    /// function that merely *moved* must not reuse stale spans).
    /// Unchanged text at an unchanged position ⇒ unchanged fingerprint.
    pub fingerprint: u128,
    /// Findings the function emits when analyzed as an entry point.
    pub findings: u32,
    /// Indices into the file-level finding pool
    /// ([`CachedAnalysis::finding_pool`](crate::cache::CachedAnalysis)),
    /// one per entry-summary finding in emission order — how a partial
    /// re-analysis hydrates an unchanged function's findings without
    /// re-walking its body.
    pub finding_ids: Vec<u32>,
    /// Caller-visible (global/heap) regions the function's summary
    /// carries effects for.
    pub region_effects: u32,
    /// Whether the function can clobber memory (a proven overflow).
    pub clobbers: bool,
    /// The resolved direct callees whose summaries this function's
    /// analysis may consume, with their fingerprints at analysis time.
    pub deps: Vec<SummaryDep>,
}

/// The program's direct-call graph and its SCC condensation.
#[derive(Debug)]
pub(crate) struct CallGraph {
    /// Resolved, deduplicated callee indices per function — the edges
    /// the Tarjan pass walks and the dependency lists in
    /// [`FunctionSummaryRecord::deps`] serialize.
    pub(crate) callees: Vec<Vec<usize>>,
    /// Function indices in bottom-up (callees-first) order of the SCC
    /// condensation: by the time `bottom_up[i]` is visited, every
    /// function it calls outside its own SCC has been visited.
    pub(crate) bottom_up: Vec<usize>,
    /// Whether the function participates in a cycle (a non-trivial SCC,
    /// or a direct self-call). Cycles are the widening fallback case.
    pub(crate) in_cycle: Vec<bool>,
}

impl CallGraph {
    /// Builds the program's call graph: each function's resolved
    /// callees, then [`from_callees`](Self::from_callees).
    pub(crate) fn build(program: &Program, fn_by_name: &HashMap<&str, usize>) -> Self {
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); program.functions.len()];
        for (i, f) in program.functions.iter().enumerate() {
            collect_callees(&f.body, fn_by_name, &mut callees[i]);
        }
        Self::from_callees(callees)
    }

    /// Condenses per-function callee lists with an iterative Tarjan SCC
    /// pass (no recursion: a 10k-deep call chain must not overflow the
    /// stack of the analyzer itself).
    pub(crate) fn from_callees(callees: Vec<Vec<usize>>) -> Self {
        let n = callees.len();
        let mut index_of = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut scc_stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut bottom_up = Vec::with_capacity(n);
        let mut in_cycle: Vec<bool> = (0..n).map(|v| callees[v].contains(&v)).collect();

        // (vertex, next-callee cursor) frames of the simulated DFS.
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index_of[root] != usize::MAX {
                continue;
            }
            index_of[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            scc_stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0));
            while let Some(&(v, cursor)) = frames.last() {
                if let Some(&w) = callees[v].get(cursor) {
                    frames.last_mut().expect("frame exists").1 += 1;
                    if index_of[w] == usize::MAX {
                        index_of[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        scc_stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index_of[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index_of[v] {
                        let first = bottom_up.len();
                        loop {
                            let w = scc_stack.pop().expect("SCC stack underflow");
                            on_stack[w] = false;
                            bottom_up.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if bottom_up.len() - first > 1 {
                            for &w in &bottom_up[first..] {
                                in_cycle[w] = true;
                            }
                        }
                    }
                }
            }
        }
        CallGraph { callees, bottom_up, in_cycle }
    }

    /// Number of functions that are part of a recursive cycle.
    pub(crate) fn recursive_functions(&self) -> usize {
        self.in_cycle.iter().filter(|&&c| c).count()
    }

    /// Per-function *closure* fingerprints: an FNV-1a fold of the
    /// function's own content fingerprint with the closure fingerprints
    /// of its resolved callees, in call order. Two functions with equal
    /// closure fingerprints have byte-identical text (at identical byte
    /// positions, under an identical semantic preamble) all the way down
    /// their call trees, so their entry summaries — and the findings
    /// those summaries emit — are interchangeable across files. That is
    /// the key of the cross-file [`SummaryStore`].
    ///
    /// Functions in a recursive cycle (and their transitive callers) get
    /// `None`: their analysis is the depth-guarded widening walk, whose
    /// result is not captured by a finite callee-closure digest.
    pub(crate) fn closure_fingerprints(&self, own: &[u128]) -> Vec<Option<u128>> {
        let mut closure: Vec<Option<u128>> = vec![None; own.len()];
        // bottom_up is callees-first for acyclic nodes, so every callee's
        // closure fingerprint is final before its callers fold it in.
        for &fi in &self.bottom_up {
            if self.in_cycle[fi] {
                continue;
            }
            let mut bytes = Vec::with_capacity(16 * (1 + self.callees[fi].len()));
            bytes.extend_from_slice(&own[fi].to_le_bytes());
            let mut complete = true;
            for &j in &self.callees[fi] {
                match closure[j] {
                    Some(fp) => bytes.extend_from_slice(&fp.to_le_bytes()),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                closure[fi] = Some(crate::cache::fnv128(&bytes));
            }
        }
        closure
    }
}

/// The entry-context summary of one function as the cross-file
/// [`SummaryStore`] holds it: an owned snapshot of everything the
/// top-level replay of a stored function needs. Entry summaries (call
/// depth 0) are fully determined by the closure fingerprint — the entry
/// state is built from the preamble and the parameter list alone — which
/// is what makes them portable across files, unlike the deeper
/// [`CallSummary`] layers whose context keys embed borrow identities.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSummary {
    /// Findings the function emits as an entry point, in emission order.
    pub findings: Vec<Finding>,
    /// Caller-visible region-effect count (mirrors
    /// [`FunctionSummaryRecord::region_effects`]).
    pub region_effects: u32,
    /// Whether the function can clobber memory.
    pub clobbers: bool,
}

/// Cross-file summary-exchange layer: entry summaries keyed by 128-bit
/// closure fingerprint, shared by every file analyzed through one
/// [`BatchEngine`](crate::batch::BatchEngine). A helper function
/// duplicated across hundreds of files is summarized once; every other
/// file replays the stored findings instead of re-walking the body.
///
/// The store is never written to disk: every `.pnc` record set already
/// holds its functions' entry summaries, so a new process rebuilds the
/// store from the entries it loads ([`publish`](Self::publish)).
#[derive(Debug, Default)]
pub struct SummaryStore {
    entries: Mutex<HashMap<u128, Arc<StoredSummary>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SummaryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the entry summary for a closure fingerprint, counting
    /// the hit/miss.
    pub fn get(&self, key: u128) -> Option<Arc<StoredSummary>> {
        let found = self.entries.lock().expect("summary store poisoned").get(&key).cloned();
        match found {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a freshly computed entry summary. First writer wins so
    /// concurrent files racing on the same helper stay deterministic
    /// (equal keys carry equal payloads by construction).
    pub fn insert(&self, key: u128, summary: StoredSummary) {
        let mut entries = self.entries.lock().expect("summary store poisoned");
        entries.entry(key).or_insert_with(|| Arc::new(summary));
    }

    /// Publishes the entry summaries of one analyzed file's records,
    /// each under the closure fingerprint the analyzer keyed it by: a
    /// record's `deps` are its function's resolved callees in call
    /// order, so their indices rebuild the analyzer's call graph and
    /// `CallGraph::closure_fingerprints` its keys. Functions in or
    /// above a recursive cycle have no key and are skipped, as in the
    /// analyzer. A record set that does not name its functions
    /// unambiguously (a duplicate name, a dep naming no record, a
    /// finding id past the pool) publishes nothing.
    pub fn publish(&self, entry: &CachedAnalysis) {
        let records = &entry.summaries;
        let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(records.len());
        for (i, rec) in records.iter().enumerate() {
            let ids_ok = rec.finding_ids.iter().all(|&id| (id as usize) < entry.finding_pool.len());
            if !ids_ok || by_name.insert(rec.function.as_str(), i).is_some() {
                return;
            }
        }
        let callees: Option<Vec<Vec<usize>>> = records
            .iter()
            .map(|rec| rec.deps.iter().map(|d| by_name.get(d.callee.as_str()).copied()).collect())
            .collect();
        let Some(callees) = callees else {
            return;
        };
        let own: Vec<u128> = records.iter().map(|rec| rec.fingerprint).collect();
        let keys = CallGraph::from_callees(callees).closure_fingerprints(&own);
        for (rec, key) in records.iter().zip(keys) {
            let Some(key) = key else {
                continue;
            };
            let findings =
                rec.finding_ids.iter().map(|&id| entry.finding_pool[id as usize].clone()).collect();
            let summary = StoredSummary {
                findings,
                region_effects: rec.region_effects,
                clobbers: rec.clobbers,
            };
            self.insert(key, summary);
        }
    }

    /// Number of stored entry summaries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("summary store poisoned").len()
    }

    /// Whether the store holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// A deterministic snapshot of the store, sorted by key.
    pub fn snapshot(&self) -> Vec<(u128, StoredSummary)> {
        let entries = self.entries.lock().expect("summary store poisoned");
        let mut items: Vec<(u128, StoredSummary)> =
            entries.iter().map(|(&k, v)| (k, (**v).clone())).collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        items
    }
}

/// Collects the resolved direct callees of a body, deduplicated, in
/// first-call order.
fn collect_callees(body: &[Stmt], fn_by_name: &HashMap<&str, usize>, out: &mut Vec<usize>) {
    for stmt in body {
        match stmt {
            Stmt::Call { func, .. } => {
                if let Some(&j) = fn_by_name.get(func.as_str()) {
                    if !out.contains(&j) {
                        out.push(j);
                    }
                }
            }
            Stmt::If { then_body, else_body, .. } => {
                collect_callees(then_body, fn_by_name, out);
                collect_callees(else_body, fn_by_name, out);
            }
            Stmt::While { body, .. } => collect_callees(body, fn_by_name, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::{Expr, Ty};

    /// `names[i]` calls `calls[i]`; every function gets a trivial body
    /// statement so builders stay happy.
    fn chain_program(edges: &[(&str, &[&str])]) -> Program {
        let mut p = ProgramBuilder::new("cg");
        for (name, callees) in edges {
            let mut f = p.function(name);
            let x = f.local("x", Ty::Int);
            f.assign(x, Expr::Const(1));
            for callee in *callees {
                f.call(callee, vec![]);
            }
            f.finish();
        }
        p.build()
    }

    fn by_name(p: &Program) -> HashMap<&str, usize> {
        p.functions.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect()
    }

    #[test]
    fn bottom_up_order_visits_callees_first() {
        let p = chain_program(&[("a", &["b", "c"]), ("b", &["c"]), ("c", &[])]);
        let g = CallGraph::build(&p, &by_name(&p));
        let pos = |f: usize| g.bottom_up.iter().position(|&x| x == f).unwrap();
        assert!(pos(2) < pos(1), "c before b");
        assert!(pos(1) < pos(0), "b before a");
        assert_eq!(g.recursive_functions(), 0);
        assert_eq!(g.callees[0], vec![1, 2]);
    }

    #[test]
    fn cycles_are_detected_and_condensed() {
        // a → b → c → b (cycle {b, c}), d → d (self-loop).
        let p = chain_program(&[("a", &["b"]), ("b", &["c"]), ("c", &["b"]), ("d", &["d"])]);
        let g = CallGraph::build(&p, &by_name(&p));
        assert!(!g.in_cycle[0]);
        assert!(g.in_cycle[1] && g.in_cycle[2], "mutual recursion flagged");
        assert!(g.in_cycle[3], "self-loop flagged");
        assert_eq!(g.recursive_functions(), 3);
        // The {b, c} SCC sits before a in the bottom-up order.
        let pos = |f: usize| g.bottom_up.iter().position(|&x| x == f).unwrap();
        assert!(pos(1) < pos(0) && pos(2) < pos(0));
        assert_eq!(g.bottom_up.len(), 4);
    }

    #[test]
    fn unresolved_callees_are_ignored() {
        let p = chain_program(&[("a", &["printf", "a"])]);
        let g = CallGraph::build(&p, &by_name(&p));
        assert_eq!(g.callees[0], vec![0], "only the resolved self-call survives");
        assert!(g.in_cycle[0]);
    }

    #[test]
    fn closure_fingerprints_fold_callees_and_skip_cycles() {
        // a → b → c, d → d (self-loop), e → d (caller of a cycle).
        let p = chain_program(&[
            ("a", &["b"]),
            ("b", &["c"]),
            ("c", &[]),
            ("d", &["d"]),
            ("e", &["d"]),
        ]);
        let g = CallGraph::build(&p, &by_name(&p));
        let own: Vec<u128> = (0..5).map(|i| 1000 + i as u128).collect();
        let closure = g.closure_fingerprints(&own);
        assert!(closure[0].is_some() && closure[1].is_some() && closure[2].is_some());
        assert_ne!(closure[0], closure[1], "callers fold callee closures");
        assert!(closure[3].is_none(), "cycle member has no closure fingerprint");
        assert!(closure[4].is_none(), "caller of a cycle has no closure fingerprint");

        // A change to the leaf's own fingerprint ripples up to every
        // transitive caller's closure fingerprint.
        let mut own2 = own.clone();
        own2[2] = 9999;
        let closure2 = g.closure_fingerprints(&own2);
        assert_ne!(closure[0], closure2[0]);
        assert_ne!(closure[1], closure2[1]);
    }

    #[test]
    fn summary_store_first_writer_wins() {
        use crate::findings::{Finding, FindingKind, Severity};

        let store = SummaryStore::new();
        assert!(store.is_empty());
        assert!(store.get(7).is_none());
        assert_eq!(store.misses(), 1);

        let f = Finding {
            kind: FindingKind::ClassicOverflow,
            severity: Severity::Error,
            site: Site::new("f", 1),
            message: "boom".into(),
            width: None,
        };
        store.insert(7, StoredSummary { findings: vec![f], region_effects: 2, clobbers: true });
        store.insert(7, StoredSummary { findings: vec![], region_effects: 0, clobbers: false });
        let got = store.get(7).expect("stored");
        assert_eq!(got.findings.len(), 1, "first writer wins");
        assert_eq!(store.hits(), 1);
        store.insert(9, StoredSummary { findings: vec![], region_effects: 0, clobbers: false });
        assert_eq!(store.snapshot().iter().map(|&(k, _)| k).collect::<Vec<_>>(), vec![7, 9]);
    }

    #[test]
    fn publish_keys_records_as_the_analyzer_does_and_rejects_ambiguous_ones() {
        // a → b → c, d → d (self-loop), e → d (caller of a cycle).
        let p = chain_program(&[
            ("a", &["b", "c"]),
            ("b", &["c"]),
            ("c", &[]),
            ("d", &["d"]),
            ("e", &["d"]),
        ]);
        let analyzed = SummaryStore::new();
        let entry = crate::analysis::Analyzer::new().analyze_full(&p, None, Some(&analyzed));
        assert_eq!(analyzed.len(), 3, "d and e sit on or above a cycle: no key");
        let published = SummaryStore::new();
        published.publish(&entry);
        assert_eq!(published.snapshot(), analyzed.snapshot());

        let publishes_nothing = |edit: &dyn Fn(&mut CachedAnalysis)| {
            let mut bad = entry.clone();
            edit(&mut bad);
            let store = SummaryStore::new();
            store.publish(&bad);
            store.is_empty()
        };
        assert!(publishes_nothing(&|e| e.summaries[1].function = "a".into()), "duplicate name");
        assert!(publishes_nothing(&|e| e.summaries[0].deps[0].callee = "zz".into()), "unknown dep");
        assert!(
            publishes_nothing(&|e| e.summaries[2].finding_ids.push(e.finding_pool.len() as u32)),
            "dangling finding id"
        );
    }
}
