//! Seeded inputs: the corpora each workload serves, the label every
//! generated file carries, and the per-connection request streams.
//!
//! Everything here is a pure function of the seed, so two runs with the
//! same seed write byte-identical corpora and send byte-identical
//! request streams.

use pnew_corpus::workload;
use pnew_detector::{pretty_program, Program};

/// Files in the shared team corpus of `warm-query`.
pub const WARM_FILES: usize = 2_000;
/// Files in the editor project of `edit-delta`.
pub const EDIT_FILES: usize = 300;
/// Files in the CI corpus of `ci-scan` (whole requests). One CI job
/// scans all of them; the window runs one revision's job after another.
pub const CI_FILES: usize = 1_920;
/// Files per `warm-query` request.
pub const WARM_BATCH: usize = 4;
/// Files per `ci-scan` request.
pub const CI_BATCH: usize = 8;
/// One file in this many changes from one `ci-scan` revision to the next.
pub const CI_CHANGE_EVERY: usize = 4;
/// Edits per `edit-delta` editor session. Each edit grows the summary
/// store, so a session has a fixed length and the window runs whole
/// sessions from the same primed state: request `k` of every session
/// meets a store of the same size, whatever the machine's speed.
pub const EDIT_SESSION: usize = 200;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmQuery,
    EditDelta,
    CiScan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WarmQuery, Workload::EditDelta, Workload::CiScan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmQuery => "warm-query",
            Workload::EditDelta => "edit-delta",
            Workload::CiScan => "ci-scan",
        }
    }

    pub fn parse(text: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }

    /// Client connections driving the closed loop.
    pub fn connections(self) -> usize {
        match self {
            Workload::WarmQuery => 2,
            Workload::EditDelta | Workload::CiScan => 1,
        }
    }

    /// Whether a run is a chain of whole jobs (CI jobs, editor
    /// sessions), each on a fresh daemon, rather than one window on one
    /// daemon. A job's stream ends by itself, and a started job always
    /// finishes, so every job does the same work.
    pub fn whole_jobs(self) -> bool {
        self != Workload::WarmQuery
    }

    fn tag(self) -> u64 {
        match self {
            Workload::WarmQuery => 0x5741_524d,
            Workload::EditDelta => 0x4544_4954,
            Workload::CiScan => 0x4349_5343,
        }
    }
}

/// splitmix64: tiny, seed-pure, and independent of any library's
/// stream definition.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A four-digit edit knob, `KNOB_MIN..=KNOB_MAX`.
    pub fn knob(&mut self) -> u16 {
        KNOB_MIN + self.below(usize::from(KNOB_MAX - KNOB_MIN) + 1) as u16
    }
}

/// Whether the generator built `program` to be flagged at Warning or
/// above. `workload::corpus` names its shapes `gen-vuln-*` and
/// `gen-safe-*`; `fan_in_call_corpus` makes odd seeds vulnerable.
pub fn label(program: &Program) -> bool {
    let name = program.name.as_str();
    if let Some(seed) = name.strip_prefix("gen-fanin-") {
        return seed.parse::<u64>().map(|s| s % 2 == 1).expect("fan-in programs carry their seed");
    }
    assert!(
        name.starts_with("gen-vuln-") || name.starts_with("gen-safe-"),
        "unlabelled program {name}"
    );
    name.starts_with("gen-vuln-")
}

/// Smallest and largest edit knob: four digits, so every knob has the
/// same byte length.
pub const KNOB_MIN: u16 = 1000;
pub const KNOB_MAX: u16 = 9999;

/// The edit slot appended to every `edit-delta` and `ci-scan` file: a
/// function with no placement, so rewriting its knob changes the file's
/// bytes (and its function fingerprint) without moving any other byte
/// or changing the file's verdict.
pub fn slot(knob: u16) -> String {
    debug_assert!((KNOB_MIN..=KNOB_MAX).contains(&knob));
    format!("\nfn edit_slot() {{\n    local k: int;\n    k = {knob};\n}}\n")
}

/// A generated corpus: one text and one label per file, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    pub texts: Vec<String>,
    pub labels: Vec<bool>,
}

/// `n` files: `workload::corpus` with a `fan_in_call_corpus` program in
/// every tenth slot, pretty-printed.
pub fn base_corpus(seed: u64, n: usize) -> Corpus {
    let plain = workload::corpus(seed, n);
    let fan_in = workload::fan_in_call_corpus(seed, n.div_ceil(10));
    let mut texts = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for (i, p) in plain.iter().enumerate() {
        let program = if i % 10 == 0 { &fan_in[i / 10] } else { p };
        texts.push(pretty_program(program));
        labels.push(label(program));
    }
    Corpus { texts, labels }
}

/// File name of slot `i`.
pub fn file_name(i: usize) -> String {
    format!("f{i:05}.pnx")
}

/// The `edit-delta` project: base texts (without slot) plus each file's
/// starting knob.
pub fn edit_project(seed: u64) -> (Corpus, Vec<u16>) {
    let corpus = base_corpus(seed ^ Workload::EditDelta.tag(), EDIT_FILES);
    let mut rng = Rng::new(seed ^ 0x6b6e_6f62);
    let knobs = (0..EDIT_FILES).map(|_| rng.knob()).collect();
    (corpus, knobs)
}

/// The `ci-scan` corpus: base texts (without slot), labels, and each
/// file's knob in revision 0, the revision the cache starts from.
pub fn ci_corpus(seed: u64) -> (Corpus, Vec<u16>) {
    let corpus = base_corpus(seed ^ Workload::CiScan.tag(), CI_FILES);
    let mut rng = Rng::new(seed ^ 0x7265_7673);
    let knobs = (0..CI_FILES).map(|_| rng.knob()).collect();
    (corpus, knobs)
}

/// Moves `knobs` from revision `rev - 1` to revision `rev`: exactly one
/// file of every aligned block of [`CI_CHANGE_EVERY`], picked uniformly,
/// gets a new knob. Fan-in programs (every tenth file) change as often
/// as plain ones. Every 8-file request therefore meets 2 changed and 6
/// unchanged files. Returns the changed files.
pub fn ci_next_revision(knobs: &mut [u16], seed: u64, rev: u64) -> Vec<usize> {
    assert_eq!(knobs.len() % CI_CHANGE_EVERY, 0, "the corpus is whole blocks");
    let mut rng = Rng::new(seed ^ Workload::CiScan.tag() ^ (rev << 32));
    let mut changed = Vec::with_capacity(knobs.len() / CI_CHANGE_EVERY);
    for block in (0..knobs.len()).step_by(CI_CHANGE_EVERY) {
        let i = block + rng.below(CI_CHANGE_EVERY);
        knobs[i] = next_knob(&mut rng, knobs[i]);
        changed.push(i);
    }
    changed
}

/// The knob after `current`: a seeded step of 1 to 16 forward,
/// wrapping. A file's text therefore never returns to an earlier one
/// within hundreds of edits, so every edit misses every cache tier.
fn next_knob(rng: &mut Rng, current: u16) -> u16 {
    let span = usize::from(KNOB_MAX - KNOB_MIN) + 1;
    let offset = usize::from(current - KNOB_MIN) + 1 + rng.below(16);
    KNOB_MIN + (offset % span) as u16
}

/// One step of a connection's request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `analyze` these files (indices into the corpus).
    Analyze(Vec<usize>),
    /// Rewrite `file` with slot knob `knob`, then `delta` the project
    /// with `changed:[file]`.
    Edit { file: usize, knob: u16 },
}

/// The seeded request stream of one client connection.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    rng: Rng,
    files: usize,
    knobs: Vec<u16>,
    cursor: usize,
}

impl Stream {
    /// Connection `conn`'s stream in job `job` over a corpus of `files`
    /// files. `knobs` are the project's current slot knobs (`edit-delta`
    /// only); each editor session picks its own edits.
    pub fn new(
        workload: Workload,
        seed: u64,
        conn: usize,
        job: u64,
        files: usize,
        knobs: Vec<u16>,
    ) -> Self {
        let rng = Rng::new(seed ^ workload.tag() ^ ((conn as u64 + 1) << 48) ^ (job << 32));
        Stream { workload, rng, files, knobs, cursor: 0 }
    }

    /// The next step, or `None` once a `ci-scan` corpus is exhausted or
    /// an `edit-delta` session has made its [`EDIT_SESSION`] edits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Step> {
        match self.workload {
            Workload::WarmQuery => {
                let mut picked: Vec<usize> = Vec::with_capacity(WARM_BATCH);
                while picked.len() < WARM_BATCH.min(self.files) {
                    let i = self.rng.below(self.files);
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                Some(Step::Analyze(picked))
            }
            Workload::EditDelta => {
                if self.cursor >= EDIT_SESSION {
                    return None;
                }
                self.cursor += 1;
                let file = self.rng.below(self.files);
                let knob = next_knob(&mut self.rng, self.knobs[file]);
                self.knobs[file] = knob;
                Some(Step::Edit { file, knob })
            }
            Workload::CiScan => {
                if self.cursor >= self.files {
                    return None;
                }
                let end = (self.cursor + CI_BATCH).min(self.files);
                let batch = (self.cursor..end).collect();
                self.cursor = end;
                Some(Step::Analyze(batch))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    fn lines(workload: Workload, seed: u64, conn: usize, job: u64, n: usize) -> Vec<String> {
        let files: Vec<String> = (0..100).map(|i| format!("/data/{}", file_name(i))).collect();
        let mut stream =
            Stream::new(workload, seed, conn, job, files.len(), vec![5000; files.len()]);
        (0..n as u64)
            .map_while(|id| {
                stream.next().map(|step| match step {
                    Step::Analyze(ix) => {
                        let paths: Vec<String> = ix.iter().map(|&i| files[i].clone()).collect();
                        wire::analyze_line(id, &paths)
                    }
                    Step::Edit { file, knob } => {
                        format!(
                            "{knob} {}",
                            wire::delta_line(id, &files[..1], Some(&files[file..=file]))
                        )
                    }
                })
            })
            .collect()
    }

    #[test]
    fn one_seed_gives_byte_identical_request_streams() {
        for w in Workload::ALL {
            assert_eq!(lines(w, 7, 0, 3, 200), lines(w, 7, 0, 3, 200), "{}", w.name());
            if w != Workload::CiScan {
                assert_ne!(lines(w, 7, 0, 0, 50), lines(w, 8, 0, 0, 50), "{}", w.name());
                assert_ne!(lines(w, 7, 0, 0, 50), lines(w, 7, 1, 0, 50), "{}", w.name());
            }
            if w == Workload::EditDelta {
                assert_ne!(lines(w, 7, 0, 0, 50), lines(w, 7, 0, 1, 50), "each session");
            }
        }
    }

    #[test]
    fn one_seed_gives_byte_identical_corpora() {
        assert_eq!(base_corpus(3, 40), base_corpus(3, 40));
        assert_ne!(base_corpus(3, 40).texts, base_corpus(4, 40).texts);
        assert_eq!(edit_project(3), edit_project(3));
        assert_eq!(ci_corpus(3), ci_corpus(3));
        let (mut a, mut b) = (vec![5000u16; 160], vec![5000u16; 160]);
        assert_eq!(ci_next_revision(&mut a, 3, 1), ci_next_revision(&mut b, 3, 1));
        assert_eq!(a, b);
        assert_ne!(ci_next_revision(&mut a, 3, 2), ci_next_revision(&mut b, 4, 2));
    }

    #[test]
    fn corpus_files_are_distinct() {
        let c = base_corpus(9, 2000);
        let distinct: std::collections::HashSet<&String> = c.texts.iter().collect();
        assert_eq!(distinct.len(), c.texts.len());
    }

    #[test]
    fn corpora_mix_labels_and_fan_in_slots() {
        let c = base_corpus(11, 100);
        assert_eq!(c.texts.len(), 100);
        assert!(c.labels.iter().any(|&l| l) && c.labels.iter().any(|&l| !l));
        assert!(c.texts[0].contains("program gen-fanin-"));
        assert!(c.texts[10].contains("program gen-fanin-"));
        assert!(!c.texts[1].contains("program gen-fanin-"));
    }

    #[test]
    fn ci_revisions_change_one_file_per_block() {
        let mut knobs = vec![KNOB_MAX; 480];
        for rev in 1..4 {
            let prev = knobs.clone();
            let changed = ci_next_revision(&mut knobs, 5, rev);
            assert_eq!(changed.len(), 480 / CI_CHANGE_EVERY);
            for block in (0..480).step_by(CI_CHANGE_EVERY) {
                let diff =
                    (block..block + CI_CHANGE_EVERY).filter(|&i| prev[i] != knobs[i]).count();
                assert_eq!(diff, 1, "revision {rev}, block {block}");
            }
            assert!(knobs.iter().all(|k| (KNOB_MIN..=KNOB_MAX).contains(k)));
        }
    }

    #[test]
    fn streams_respect_their_shapes() {
        let mut warm = Stream::new(Workload::WarmQuery, 1, 0, 0, 30, Vec::new());
        for _ in 0..100 {
            let Some(Step::Analyze(ix)) = warm.next() else { panic!() };
            assert_eq!(ix.len(), WARM_BATCH);
            assert!(ix.iter().all(|&i| i < 30));
            let mut dedup = ix.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), WARM_BATCH);
        }
        let mut edit = Stream::new(Workload::EditDelta, 1, 0, 0, 5, vec![KNOB_MAX - 40; 5]);
        let mut seen: Vec<std::collections::HashSet<u16>> = vec![Default::default(); 5];
        for _ in 0..EDIT_SESSION {
            let Some(Step::Edit { file, knob }) = edit.next() else { panic!() };
            assert!((KNOB_MIN..=KNOB_MAX).contains(&knob));
            assert!(seen[file].insert(knob), "an edit never restores an earlier text");
        }
        assert_eq!(edit.next(), None, "a session has a fixed length");
        let mut ci = Stream::new(Workload::CiScan, 1, 0, 0, 20, Vec::new());
        assert_eq!(ci.next(), Some(Step::Analyze((0..8).collect())));
        assert_eq!(ci.next(), Some(Step::Analyze((8..16).collect())));
        assert_eq!(ci.next(), Some(Step::Analyze((16..20).collect())));
        assert_eq!(ci.next(), None);
    }

    #[test]
    fn slotted_files_parse_and_keep_their_verdict() {
        use pnew_detector::{parse_program, Analyzer, Severity};
        let c = base_corpus(21, 30);
        for (text, &label) in c.texts.iter().zip(&c.labels) {
            for knob in [KNOB_MIN, 5757, KNOB_MAX] {
                let program = parse_program(&format!("{text}{}", slot(knob))).expect("parses");
                let report = Analyzer::new().analyze(&program);
                assert_eq!(report.detected_at(Severity::Warning), label, "{}", program.name);
            }
        }
    }
}
