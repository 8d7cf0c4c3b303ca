//! Deterministic simulation testing (DST) of the `pncheckd` service
//! stack.
//!
//! The analysis core is deterministic and differential-tested end to
//! end, but the service layer — event loop, fair queue, cache tiers,
//! delta tracking — normally runs under real threads, real
//! clocks, and a well-behaved filesystem. This module soaks that
//! layer through thousands of *seeded schedules* instead: every
//! schedule is a pure function of one `u64` seed, so any failure is a
//! one-seed repro. The harness is a development crate: no product
//! binary links it.
//!
//! A schedule ([`run_schedule`]) builds a scratch corpus of generated
//! `.pnx` sources, then runs one or more server "phases" — each phase
//! a fresh in-process [`Server`] over the same cache directory, i.e. a
//! restart — on one shared virtual [`SimClock`]. Inside a phase the
//! simulator is the third driver of the production connection
//! [`Core`], beside TCP and stdio: it accepts its simulated peers
//! through the real hard cap, feeds seeded byte chunks (1-byte reads,
//! mid-line stalls, mid-request drops), runs a seeded number of queued
//! requests per tick through [`Server::handle_line`], takes seeded
//! partial writes of the owed output (each peer's from a stream of its
//! own, so a reply's length moves no other draw), and lets the core
//! reap, close and drain — all on virtual time, with no real sleeps
//! anywhere. One peer per phase stops taking its output for a seeded
//! stretch of ticks while it keeps sending, so the core's
//! per-connection output bound is reached.
//!
//! The persistent tier runs behind [`FaultyBackend`], which applies a
//! seeded [`FaultPlan`] of short (torn) writes, bit flips, disk-full
//! errors, and kill points after which every write silently vanishes
//! (a crash, observed by the next phase's restart).
//!
//! Six invariants are asserted on every schedule:
//!
//! 1. **Envelope identity** — every successfully delivered `analyze` /
//!    `delta` payload is byte-identical (and `exit`-identical) to a
//!    one-shot scan of the same inputs by a fresh cache-less server:
//!    exactly what `pncheck` would print.
//! 2. **No corruption served** — a sabotaged cache entry is never
//!    served as a hit: it decodes as corrupt (or missing), the source
//!    is re-analyzed, and the degradation is visible in stats.
//! 3. **Accounting identities** — `fingerprint_lookups ==
//!    fingerprint_hits + fingerprint_misses` in every stats payload,
//!    and per delta reply `functions_reanalyzed + functions_reused`
//!    equals the function count of the re-analyzed files (every
//!    generated file has exactly [`FUNCTIONS_PER_FILE`] functions).
//! 4. **Connection integrity** — on every connection its peer did not
//!    drop, every framed non-blank request gets exactly one whole reply
//!    frame (header plus exactly `bytes` payload bytes) before the core
//!    closes it, and nothing follows an `idle-timeout` or `busy` frame.
//! 5. **Warm memory never forgets** — faults are never injected into
//!    the in-memory memo, so in every phase the `parses` counter stays
//!    at or below the number of distinct source texts the phase's
//!    executed `analyze` and `delta` requests presented, whatever
//!    filter each asked for. After a clean phase (no kill point, no
//!    fault injected yet) every text it presented is served warm, so
//!    the next phase's `persistent_misses` stay at or below the number
//!    of texts it presented that the clean phase did not (a memo hit
//!    never probes disk). A tier that drops or overwrites entries still
//!    returns identical envelopes, so only these counts can see it.
//! 6. **Bounded output** — a connection that owes `max_request_bytes`
//!    or more of unwritten output is never among the connections the
//!    core reads when the driver feeds bytes, so a client that stops
//!    reading cannot grow the daemon's buffers.
//!
//! A failing schedule names its seed in every violation, and
//! re-running [`run_schedule`] with the same seed and options replays
//! it exactly — same requests, same faults, same virtual timings, same
//! reply bytes ([`SimReport::payload_digest`] is the byte-level
//! witness). The `dst` binary drives soaks and single-seed replays
//! from the command line; `docs/pnx-syntax.md` has the operator guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pnew_detector::cache::{fnv128, source_fingerprint, CacheLookup, PersistentCache};
use pnew_detector::cliopts::expand_inputs;
use pnew_detector::clock::Clock;
use pnew_detector::emit::json_string;
use pnew_detector::eventloop::Core;
use pnew_detector::server::{parse_json, BackendWrap, JsonNode, Reply, Server, ServerConfig};
use pnew_detector::{AnalyzerConfig, CacheBackend, DirBackend};

/// Functions in every generated workload file (`main` plus two
/// helpers) — the constant behind the delta accounting identity.
pub const FUNCTIONS_PER_FILE: u64 = 3;

// ---------------------------------------------------------------------
// Seeded randomness.
// ---------------------------------------------------------------------

/// A tiny deterministic RNG (splitmix64). Everything the harness
/// varies — traffic, chunk sizes, faults, clock jumps — draws from one
/// of these, so a schedule is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// An RNG at `seed`.
    pub fn new(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// `true` once in `one_in` draws on average (never for `0`).
    pub fn chance(&mut self, one_in: u64) -> bool {
        one_in != 0 && self.below(one_in) == 0
    }
}

// ---------------------------------------------------------------------
// Virtual time.
// ---------------------------------------------------------------------

/// A virtual clock for deterministic simulation: time only moves when
/// [`SimClock::advance`] is called, so a schedule that "waits" five
/// virtual minutes for an idle reap completes in microseconds of wall
/// time, identically on every run.
///
/// Starts at zero. Shared freely across the simulated server, its
/// engines, and the harness loop so that every component observes the
/// same virtual instant.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// Moves virtual time forward by `d` (saturating at `u64::MAX`).
    pub fn advance(&self, d: Duration) {
        let step = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let _ = self
            .now_ns
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |now| Some(now.saturating_add(step)));
    }
}

impl Clock for SimClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// A seeded plan of storage faults for one [`FaultyBackend`]. All
/// rates are `one_in` odds per store; `0` disables that fault.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Odds of a short (torn) write: the entry is truncated at a
    /// seeded byte before it reaches the store.
    pub short_write_one_in: u64,
    /// Odds of a single-bit flip somewhere in the stored bytes.
    pub bitflip_one_in: u64,
    /// Odds a store fails outright with a simulated disk-full error.
    pub disk_full_one_in: u64,
    /// After this many landed stores the "process dies": every later
    /// write (entries and manifests) silently vanishes while the
    /// in-memory state keeps going — exactly what a kill between write
    /// and sync looks like to the next restart.
    pub kill_after_stores: Option<u64>,
    /// Odds of the deliberately planted bug used by the mutation
    /// check: a *checksum-passing* stale entry (the previous entry's
    /// payload re-keyed and re-checksummed under the new key). The
    /// decode layer cannot catch this — only the envelope-identity
    /// invariant can, which is the point.
    pub stale_swap_one_in: u64,
}

/// Shared observability for a schedule's fault injection: counters,
/// plus the exact sabotaged bytes per key so the harness can verify at
/// the decode level that unhealed sabotage is never served as a hit.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Total write calls observed (entry stores and manifests).
    pub stores: AtomicU64,
    /// Torn writes injected.
    pub short_writes: AtomicU64,
    /// Bit flips injected.
    pub bitflips: AtomicU64,
    /// Disk-full errors injected.
    pub disk_fulls: AtomicU64,
    /// Writes silently dropped after the kill point.
    pub dropped_after_kill: AtomicU64,
    /// Checksum-passing stale swaps injected (mutation mode).
    pub stale_swaps: AtomicU64,
    /// Key → the exact bytes last written for it, when that write was
    /// sabotage (torn or bit-flipped). An honest later write heals the
    /// key and removes it.
    pub sabotaged: Mutex<HashMap<u128, Vec<u8>>>,
}

impl FaultStats {
    /// Total faults injected (excluding kill-dropped writes).
    pub fn faults_injected(&self) -> u64 {
        self.short_writes.load(Ordering::SeqCst)
            + self.bitflips.load(Ordering::SeqCst)
            + self.disk_fulls.load(Ordering::SeqCst)
            + self.stale_swaps.load(Ordering::SeqCst)
    }
}

/// A fault-injecting [`CacheBackend`] wrapper: reads pass through,
/// writes are filtered through a seeded [`FaultPlan`]. Installed via
/// [`ServerConfig::backend_wrap`] so the whole real stack — engine,
/// cache layer, decode path — runs above it unmodified.
pub struct FaultyBackend {
    inner: Box<dyn CacheBackend>,
    plan: FaultPlan,
    rng: Mutex<SimRng>,
    /// The previous honestly stored entry — fodder for stale swaps.
    last_entry: Mutex<Option<Vec<u8>>>,
    stats: Arc<FaultStats>,
}

impl fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl FaultyBackend {
    /// Wraps `inner` with `plan`, drawing fault decisions from `seed`
    /// and reporting into `stats`.
    pub fn new(
        inner: Box<dyn CacheBackend>,
        plan: FaultPlan,
        seed: u64,
        stats: Arc<FaultStats>,
    ) -> FaultyBackend {
        FaultyBackend {
            inner,
            plan,
            rng: Mutex::new(SimRng::new(seed)),
            last_entry: Mutex::new(None),
            stats,
        }
    }

    fn lock_rng(&self) -> std::sync::MutexGuard<'_, SimRng> {
        self.rng.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn killed(&self) -> bool {
        match self.plan.kill_after_stores {
            Some(kill) => self.stats.stores.load(Ordering::SeqCst) > kill,
            None => false,
        }
    }

    fn record_sabotage(&self, key: u128, bytes: Vec<u8>) {
        self.stats.sabotaged.lock().unwrap_or_else(|e| e.into_inner()).insert(key, bytes);
    }
}

impl CacheBackend for FaultyBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn load(&self, key: u128) -> Option<Vec<u8>> {
        self.inner.load(key)
    }

    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        self.stats.stores.fetch_add(1, Ordering::SeqCst);
        if self.killed() {
            // The process died: the write reports success to the dying
            // process but never reaches disk.
            self.stats.dropped_after_kill.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        let (swap, disk_full, short_at, flip_at) = {
            let mut rng = self.lock_rng();
            let swap = rng.chance(self.plan.stale_swap_one_in);
            let disk_full = rng.chance(self.plan.disk_full_one_in);
            let short_at = (bytes.len() > 1 && rng.chance(self.plan.short_write_one_in))
                .then(|| 1 + rng.below(bytes.len() as u64 - 1) as usize);
            let flip_at = (!bytes.is_empty() && rng.chance(self.plan.bitflip_one_in))
                .then(|| (rng.below(bytes.len() as u64) as usize, 1u8 << rng.below(8)));
            (swap, disk_full, short_at, flip_at)
        };
        if swap {
            let last = self.last_entry.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(mut doctored) = last.filter(|old| old.len() >= 52 && old[..] != *bytes) {
                // Re-key and re-checksum the previous entry: the store
                // now holds a structurally valid, checksum-passing
                // entry whose *contents* belong to another source.
                doctored[36..52].copy_from_slice(&key.to_le_bytes());
                let sum = fnv128(&doctored[36..]);
                doctored[20..36].copy_from_slice(&sum.to_le_bytes());
                if self.inner.store(key, &doctored).is_ok() {
                    self.stats.stale_swaps.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(());
            }
        }
        if disk_full {
            self.stats.disk_fulls.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("simulated disk full"));
        }
        if let Some(cut) = short_at {
            let torn = &bytes[..cut];
            if self.inner.store(key, torn).is_ok() {
                self.stats.short_writes.fetch_add(1, Ordering::SeqCst);
                self.record_sabotage(key, torn.to_vec());
            }
            return Ok(());
        }
        if let Some((at, mask)) = flip_at {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            if self.inner.store(key, &flipped).is_ok() {
                self.stats.bitflips.fetch_add(1, Ordering::SeqCst);
                self.record_sabotage(key, flipped);
            }
            return Ok(());
        }
        *self.last_entry.lock().unwrap_or_else(|e| e.into_inner()) = Some(bytes.to_vec());
        // An honest write heals any earlier sabotage of this key.
        self.stats.sabotaged.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.inner.store(key, bytes)
    }

    fn load_manifest(&self) -> Option<String> {
        self.inner.load_manifest()
    }

    fn store_manifest(&self, text: &str) -> io::Result<()> {
        self.stats.stores.fetch_add(1, Ordering::SeqCst);
        if self.killed() {
            self.stats.dropped_after_kill.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        if self.lock_rng().chance(self.plan.disk_full_one_in) {
            self.stats.disk_fulls.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("simulated disk full"));
        }
        self.inner.store_manifest(text)
    }
}

// ---------------------------------------------------------------------
// The workload generator.
// ---------------------------------------------------------------------

/// Renders one generated `.pnx` workload source. Every file has
/// exactly [`FUNCTIONS_PER_FILE`] functions; the vulnerable variant
/// places an oversized `GradStudent` into a `Student`-sized local —
/// the paper's motivating shape — and the safe variant places a
/// fitting `Student`. `version` and `pad` guarantee distinct content
/// (and lengths) across edits, so stat-based drift detection fires
/// deterministically.
fn render_source(uid: u64, version: u64, vulnerable: bool, big: u64, pad: u64) -> String {
    let place = if vulnerable { "GradStudent" } else { "Student" };
    let mut text = format!(
        "program sim-{uid}-v{version};\n\
         \n\
         class Student size 16;\n\
         class GradStudent size {big} : Student;\n\
         \n\
         fn check_input(count: int) {{\n    local n: int;\n    read n;\n}}\n\
         \n\
         fn place_record(count: int) {{\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) {place}();\n}}\n\
         \n\
         fn main() {{\n    local n: int;\n    read n;\n    call check_input(n);\n    call place_record(n);\n}}\n"
    );
    for _ in 0..pad {
        text.push('\n');
    }
    text
}

/// One generated file's current state on disk.
struct CorpusFile {
    path: PathBuf,
    uid: u64,
    version: u64,
    len: usize,
}

/// The scratch corpus: generated files plus the seeded edit machinery.
struct Corpus {
    dir: PathBuf,
    files: Vec<CorpusFile>,
    next_uid: u64,
}

impl Corpus {
    fn generate(dir: &Path, rng: &mut SimRng, count: usize) -> io::Result<Corpus> {
        fs::create_dir_all(dir)?;
        let mut corpus = Corpus { dir: dir.to_path_buf(), files: Vec::new(), next_uid: 0 };
        for _ in 0..count.max(1) {
            corpus.add_file(rng)?;
        }
        Ok(corpus)
    }

    fn write_file(&mut self, index: usize, rng: &mut SimRng) -> io::Result<()> {
        let file = &mut self.files[index];
        let vulnerable = rng.below(2) == 0;
        let big = 32 + 16 * rng.below(3);
        let mut pad = rng.below(4);
        let mut text = render_source(file.uid, file.version, vulnerable, big, pad);
        // Edits must change the byte length, so change detection never
        // depends on filesystem timestamp granularity.
        while text.len() == file.len {
            pad += 1;
            text = render_source(file.uid, file.version, vulnerable, big, pad);
        }
        debug_assert!(pnew_detector::parse_program(&text).is_ok(), "generator must parse");
        file.len = text.len();
        fs::write(&file.path, text)
    }

    fn add_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        let uid = self.next_uid;
        self.next_uid += 1;
        let path = self.dir.join(format!("gen-{uid:03}.pnx"));
        self.files.push(CorpusFile { path, uid, version: 0, len: 0 });
        self.write_file(self.files.len() - 1, rng)
    }

    fn edit_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        let index = rng.below(self.files.len() as u64) as usize;
        self.files[index].version += 1;
        self.write_file(index, rng)
    }

    fn remove_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        if self.files.len() <= 2 {
            return Ok(());
        }
        let index = rng.below(self.files.len() as u64) as usize;
        let file = self.files.remove(index);
        fs::remove_file(file.path)
    }
}

// ---------------------------------------------------------------------
// Schedule options and report.
// ---------------------------------------------------------------------

/// Tunables for one simulated schedule. `Default` is the soak shape: a
/// small corpus, mixed traffic, faults on, seeded restarts.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Generated source files in the scratch corpus.
    pub files: usize,
    /// Requests per server phase.
    pub requests: usize,
    /// Simulated client connections per phase.
    pub clients: usize,
    /// Server phases (restarts over the same cache dir); `0` lets the
    /// seed pick 1–2.
    pub phases: usize,
    /// Inject torn writes / bit flips / disk-full faults.
    pub faults: bool,
    /// Force a kill point (silently dropped writes) in the first
    /// phase — the kill-restart durability matrix switch.
    pub kill: bool,
    /// Plant the checksum-passing stale-swap bug. This is the mutation
    /// check: the envelope invariant MUST catch it on some seed.
    pub mutate: bool,
    /// Isolates concurrent harnesses: the scratch directory is derived
    /// from `(tag, seed)` only, so equal-seed runs with the same tag
    /// replay byte-for-byte while differently-tagged suites can run in
    /// parallel.
    pub tag: String,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            files: 3,
            requests: 8,
            clients: 2,
            phases: 0,
            faults: true,
            kill: false,
            mutate: false,
            tag: "default".to_owned(),
        }
    }
}

/// What one schedule did and whether the invariants held. Equal
/// `(seed, options)` produce equal reports, including the byte-level
/// `payload_digest`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// The schedule's seed.
    pub seed: u64,
    /// Server phases run (each one a restart over the same cache).
    pub phases: usize,
    /// Request lines sent across all connections and phases.
    pub requests_sent: usize,
    /// Whole reply frames received by peers that did not drop (error
    /// frames included).
    pub replies_delivered: usize,
    /// Analyze/delta payloads compared byte-for-byte against a fresh
    /// one-shot server.
    pub payload_checks: usize,
    /// Accounting identities checked (delta function accounting and
    /// stats lookup identities).
    pub identity_checks: usize,
    /// Phases whose disk tier was held to the warm floor of invariant 5
    /// (each followed a clean phase).
    pub warm_floor_checks: usize,
    /// Connections that owed at least `max_request_bytes` while the
    /// driver fed bytes, each held to invariant 6 for as long as it did.
    pub output_bound_checks: usize,
    /// Faults the backend injected (torn, flipped, disk-full, swaps).
    pub faults_injected: u64,
    /// Corrupt persistent entries the stack detected (and healed).
    pub corrupt_detected: u64,
    /// Connections reaped as idle on the virtual clock (`idle-timeout`
    /// frames received).
    pub reaped: usize,
    /// Sweeps that spared a stale connection with a request queued or
    /// in flight.
    pub reap_deferrals: usize,
    /// Sweeps that held back a reap or close because owed output was
    /// still unwritten.
    pub output_deferrals: usize,
    /// Connections turned away at the hard cap (`busy` frames received).
    pub busy: usize,
    /// Phases that ended in a completed `shutdown` drain.
    pub drains: usize,
    /// FNV-128 over every byte peers received, in the order they took
    /// it — the byte-for-byte replay witness.
    pub payload_digest: u128,
    /// Invariant violations; empty means the schedule passed.
    pub violations: Vec<String>,
}

impl SimReport {
    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------
// Traffic generation.
// ---------------------------------------------------------------------

/// How a connection's byte stream ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EndKind {
    /// Clean FIN after the last byte: pending requests still complete.
    CleanEof,
    /// The peer vanished mid-request: the unterminated tail must be
    /// discarded without a reply, like a dead socket.
    Drop,
    /// Never closes: sits idle after its traffic until reaped.
    Linger,
}

/// What the harness knows about one request it plans to send.
#[derive(Debug, Clone)]
struct CheckSpec {
    /// The equivalent one-shot `analyze` line for a fresh server.
    reference_line: String,
    /// The request is a `delta` (check the function accounting too).
    delta: bool,
    /// The inline source, or the path (file or directory) it scans.
    input: Input,
}

/// What one request hands the engine.
#[derive(Debug, Clone)]
enum Input {
    Source(String),
    Path(String),
}

impl CheckSpec {
    /// Records the texts this request presents, reading each file as it
    /// is now — just before the request runs, since corpus churn lands
    /// between ticks (invariant 5). The request's filter plays no part:
    /// every filter is served from the same cache entries.
    fn present(&self, presented: &mut HashSet<u128>) {
        match &self.input {
            Input::Source(text) => {
                presented.insert(source_fingerprint(text));
            }
            Input::Path(path) => {
                for file in expand_inputs(std::slice::from_ref(path)).0 {
                    if let Ok(text) = fs::read_to_string(&file) {
                        presented.insert(source_fingerprint(&text));
                    }
                }
            }
        }
    }
}

/// One simulated peer: its byte script and everything it received.
struct Peer {
    script: Vec<u8>,
    /// Bytes of `script` fed to the core so far.
    sent: usize,
    end: EndKind,
    /// The EOF event was delivered.
    eof_sent: bool,
    /// The peer vanished: exempt from the connection invariant.
    dropped: bool,
    received: Vec<u8>,
    /// How much of its owed output the peer takes each tick: a stream
    /// of its own, so a reply's length moves no other draw.
    writes: SimRng,
    /// Set for the pausing peer: it draws its chunks from this instead
    /// of the schedule's stream.
    pause: Option<Pause>,
    /// The connection has owed the output bound (invariant 6).
    at_bound: bool,
}

impl Peer {
    fn new(script: Vec<u8>, end: EndKind, writes: SimRng) -> Peer {
        Peer {
            script,
            sent: 0,
            end,
            eof_sent: false,
            dropped: false,
            received: Vec::new(),
            writes,
            pause: None,
            at_bound: false,
        }
    }
}

/// The pausing peer's own draws: it takes no output during ticks
/// `from..until` while it keeps sending, then resumes.
struct Pause {
    rng: SimRng,
    from: usize,
    until: usize,
}

/// Requests the pausing peer sends at least: enough replies (about 0.8
/// to 1.4 KB each) to owe more than [`MAX_REQUEST_BYTES`].
const PAUSED_REQUESTS: u64 = 10;

/// How many of `owed` bytes a peer takes this tick: none, a strict
/// prefix or all. Only the third empties the output, so whether a tick
/// drains a connection does not depend on how much it owes.
fn take(rng: &mut SimRng, owed: usize) -> usize {
    match rng.below(4) {
        0 => 0,
        1 => rng.below(owed as u64) as usize,
        _ => owed,
    }
}

/// One phase's traffic: per-connection `(byte script, end kind)` pairs
/// plus the map from request line to its verification spec.
type Traffic = (Vec<(Vec<u8>, EndKind)>, HashMap<String, CheckSpec>);

/// Draws one request line with id `id` — a weighted mix of analyze,
/// delta, stats, ping and hostile lines — and records the spec of every
/// line whose reply is checked against a one-shot scan.
fn request_line(
    rng: &mut SimRng,
    corpus: &Corpus,
    id: u64,
    checks: &mut HashMap<String, CheckSpec>,
) -> String {
    let dir = corpus.dir.to_string_lossy().into_owned();
    // Optional per-request filter and format, mirrored verbatim in
    // the reference line so the comparison is filter-for-filter.
    let mut extras = String::new();
    if rng.chance(5) {
        extras.push_str(",\"min_severity\":\"error\"");
    }
    match rng.below(6) {
        0 => extras.push_str(",\"format\":\"sarif\""),
        1 => extras.push_str(",\"format\":\"text\""),
        _ => {}
    }

    match rng.below(10) {
        // Weighted mix: delta-heavy, stats/ping/hostile sprinkled.
        0 | 1 => {
            let path = if rng.below(2) == 0 {
                dir
            } else {
                let pick = rng.below(corpus.files.len() as u64) as usize;
                corpus.files[pick].path.to_string_lossy().into_owned()
            };
            let target = json_string(&path);
            let line = format!("{{\"op\":\"analyze\",\"id\":{id},\"paths\":[{target}]{extras}}}");
            let reference = format!("{{\"op\":\"analyze\",\"paths\":[{target}]{extras}}}");
            let input = Input::Path(path);
            let spec = CheckSpec { reference_line: reference, delta: false, input };
            checks.insert(line.clone(), spec);
            line
        }
        2 => {
            let source = render_source(900 + rng.below(8), 0, rng.below(2) == 0, 48, 0);
            let quoted = json_string(&source);
            let line = format!("{{\"op\":\"analyze\",\"id\":{id},\"source\":{quoted}{extras}}}");
            let reference = format!("{{\"op\":\"analyze\",\"source\":{quoted}{extras}}}");
            let input = Input::Source(source);
            let spec = CheckSpec { reference_line: reference, delta: false, input };
            checks.insert(line.clone(), spec);
            line
        }
        3..=6 => {
            let target = json_string(&dir);
            let line = format!("{{\"op\":\"delta\",\"id\":{id},\"paths\":[{target}]{extras}}}");
            let reference = format!("{{\"op\":\"analyze\",\"paths\":[{target}]{extras}}}");
            let input = Input::Path(dir);
            let spec = CheckSpec { reference_line: reference, delta: true, input };
            checks.insert(line.clone(), spec);
            line
        }
        7 => format!("{{\"op\":\"stats\",\"id\":{id}}}"),
        8 => format!("{{\"op\":\"ping\",\"id\":{id}}}"),
        _ => match rng.below(3) {
            // Hostile lines: oversized, junk, blank. All must get
            // clean protocol errors (or be skipped) without ever
            // desynchronizing the framer.
            0 => "x".repeat(5000),
            1 => "this is not json".to_owned(),
            _ => String::new(),
        },
    }
}

/// Builds one phase's traffic: per-connection byte scripts plus the
/// map from request line to its verification spec.
fn build_traffic(
    rng: &mut SimRng,
    corpus: &Corpus,
    opts: &SimOptions,
    next_request_id: &mut u64,
    last_phase: bool,
) -> Traffic {
    let clients = opts.clients.max(1);
    let mut scripts: Vec<Vec<u8>> = vec![Vec::new(); clients];
    let mut checks = HashMap::new();

    for _ in 0..opts.requests {
        let conn = rng.below(clients as u64) as usize;
        *next_request_id += 1;
        let line = request_line(rng, corpus, *next_request_id, &mut checks);
        scripts[conn].extend_from_slice(line.as_bytes());
        scripts[conn].push(b'\n');
    }

    if last_phase && rng.chance(3) {
        // A shutdown request drains the phase early: queued work still
        // completes, unsent bytes are never delivered.
        let conn = rng.below(clients as u64) as usize;
        *next_request_id += 1;
        let id = *next_request_id;
        let line = format!("{{\"op\":\"shutdown\",\"id\":{id}}}");
        scripts[conn].extend_from_slice(line.as_bytes());
        scripts[conn].push(b'\n');
    }
    if rng.chance(4) {
        // A connection flood past the hard cap (8 with the simulated
        // `max_connections` of 1): the latecomers must get `busy`.
        scripts.resize(clients + 7 + rng.below(3) as usize, Vec::new());
    }

    let scripts = scripts
        .into_iter()
        .map(|mut script| {
            let end = match rng.below(6) {
                0 if script.len() > 2 => {
                    // Drop mid-request: truncate inside the final line.
                    let cut =
                        script.len() - 1 - rng.below((script.len() as u64 / 2).max(1)) as usize;
                    script.truncate(cut.max(1));
                    EndKind::Drop
                }
                1 | 2 => EndKind::Linger,
                _ => EndKind::CleanEof,
            };
            (script, end)
        })
        .collect();
    (scripts, checks)
}

// ---------------------------------------------------------------------
// Reply verification.
// ---------------------------------------------------------------------

fn field<'a>(fields: &'a [(String, JsonNode)], name: &str) -> Option<&'a JsonNode> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn int_field(fields: &[(String, JsonNode)], name: &str) -> Option<i64> {
    match field(fields, name) {
        Some(JsonNode::Int(n)) => i64::try_from(*n).ok(),
        _ => None,
    }
}

/// Where two payloads first diverge, for violation messages.
fn first_difference(a: &str, b: &str) -> String {
    let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    let lo = at.saturating_sub(24);
    format!(
        "first difference at byte {at}: warm {:?} vs one-shot {:?}",
        a.get(lo..(at + 24).min(a.len())).unwrap_or(""),
        b.get(lo..(at + 24).min(b.len())).unwrap_or(""),
    )
}

/// Context shared by every verification inside one schedule.
struct Verifier<'a> {
    seed: u64,
    clock: Arc<SimClock>,
    report: &'a mut SimReport,
}

impl Verifier<'_> {
    fn violation(&mut self, what: String) {
        self.report.violations.push(format!("seed {}: {what}", self.seed));
    }

    /// Invariant 1: the delivered payload equals a one-shot scan by a
    /// fresh, cache-less server — what `pncheck` would print.
    fn check_payload(&mut self, reply: &Reply, spec: &CheckSpec, op: &str) {
        self.report.payload_checks += 1;
        let reference = Server::new(ServerConfig {
            jobs: Some(1),
            clock: Arc::clone(&self.clock) as Arc<dyn Clock>,
            ..ServerConfig::default()
        })
        .expect("cache-less reference server builds");
        let fresh = reference.handle_line(&spec.reference_line);
        if fresh.payload != reply.payload {
            self.violation(format!(
                "{op} payload diverged from one-shot scan ({} vs {} bytes): {}",
                reply.payload.len(),
                fresh.payload.len(),
                first_difference(&reply.payload, &fresh.payload),
            ));
            return;
        }
        let (Ok(JsonNode::Obj(warm)), Ok(JsonNode::Obj(cold))) =
            (parse_json(&reply.header), parse_json(&fresh.header))
        else {
            self.violation(format!("{op} header does not parse: {}", reply.header));
            return;
        };
        if int_field(&warm, "exit") != int_field(&cold, "exit") {
            self.violation(format!(
                "{op} exit diverged: warm {:?} vs one-shot {:?}",
                int_field(&warm, "exit"),
                int_field(&cold, "exit"),
            ));
        }
    }

    /// Invariant 3a: per delta reply, the re-analyzed files' functions
    /// are fully accounted as reanalyzed + reused.
    fn check_delta_accounting(&mut self, header: &[(String, JsonNode)]) {
        let Some(JsonNode::Obj(delta)) = field(header, "delta") else {
            self.violation("delta reply without a delta object".to_owned());
            return;
        };
        self.report.identity_checks += 1;
        let count = |name: &str| int_field(delta, name).unwrap_or(-1);
        let rescanned = count("changed") + count("added");
        let accounted = count("functions_reanalyzed") + count("functions_reused");
        if accounted != rescanned * FUNCTIONS_PER_FILE as i64 {
            self.violation(format!(
                "delta function accounting broken: {} reanalyzed + {} reused != {} files x {}",
                count("functions_reanalyzed"),
                count("functions_reused"),
                rescanned,
                FUNCTIONS_PER_FILE,
            ));
        }
    }

    /// Invariant 3b: the stats payload's cache accounting adds up; with
    /// `max_parses`, invariant 5 too: the server parsed no more texts
    /// than that, and, with `max_disk_misses` (the warm floor), missed
    /// on disk no more often. Returns the cumulative corrupt-entry
    /// count it reports.
    fn check_stats_payload(
        &mut self,
        payload: &str,
        max_parses: Option<usize>,
        max_disk_misses: Option<usize>,
    ) -> u64 {
        let Ok(JsonNode::Obj(stats)) = parse_json(payload.trim()) else {
            self.violation(format!("stats payload does not parse: {payload}"));
            return 0;
        };
        let Some(JsonNode::Obj(analysis)) = field(&stats, "analysis") else {
            self.violation("stats payload without an analysis object".to_owned());
            return 0;
        };
        self.report.identity_checks += 1;
        let count = |name: &str| int_field(analysis, name).unwrap_or(-1);
        let (hits, misses, lookups) =
            (count("fingerprint_hits"), count("fingerprint_misses"), count("fingerprint_lookups"));
        if hits + misses != lookups {
            self.violation(format!(
                "stats identity broken: {hits} hits + {misses} misses != {lookups} lookups"
            ));
        }
        if let Some(bound) = max_parses {
            self.report.identity_checks += 1;
            if count("parses") > bound as i64 {
                self.violation(format!(
                    "warm memory forgot: {} parses for {bound} distinct texts",
                    count("parses")
                ));
            }
        }
        if let Some(floor) = max_disk_misses {
            self.report.warm_floor_checks += 1;
            if count("persistent_misses") > floor as i64 {
                self.violation(format!(
                    "warm disk forgot across a clean restart: {} persistent misses for {floor} \
                     texts the previous phase did not present",
                    count("persistent_misses")
                ));
            }
        }
        count("persistent_corrupt").max(0) as u64
    }
}

/// Routes one executed reply through the right invariant checks.
fn verify_reply(
    reply: &Reply,
    spec: Option<&CheckSpec>,
    clock: &Arc<SimClock>,
    report: &mut SimReport,
) {
    let Ok(JsonNode::Obj(header)) = parse_json(&reply.header) else {
        report
            .violations
            .push(format!("seed {}: unparseable reply header: {}", report.seed, reply.header));
        return;
    };
    let ok = matches!(field(&header, "ok"), Some(JsonNode::Bool(true)));
    let op = match field(&header, "op") {
        Some(JsonNode::Str(op)) => op.clone(),
        _ => String::new(),
    };
    let mut verifier = Verifier { seed: report.seed, clock: Arc::clone(clock), report };
    if ok {
        if let Some(spec) = spec {
            verifier.check_payload(reply, spec, &op);
            if spec.delta {
                verifier.check_delta_accounting(&header);
            }
        }
        if op == "stats" {
            verifier.check_stats_payload(&reply.payload, None, None);
        }
    }
}

// ---------------------------------------------------------------------
// The schedule runner.
// ---------------------------------------------------------------------

const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
const MAX_REQUEST_BYTES: usize = 4096;
const TICK_LIMIT: usize = 100_000;

/// Runs one seeded schedule end to end and reports what happened.
/// Deterministic: equal `(seed, opts)` produce equal [`SimReport`]s,
/// byte for byte. Panics only on scratch-directory I/O failures (the
/// harness's own plumbing, never the stack under test).
pub fn run_schedule(seed: u64, opts: &SimOptions) -> SimReport {
    let mut rng = SimRng::new(seed ^ 0x5dee_ce66_d158_1f86);
    // The pausing peers draw from a stream of their own, so the other
    // peers keep the draws they had without them. Partial writes draw
    // from streams of their own too, one per connection, so a reply
    // whose length changes shifts no traffic, fault or clock draw.
    let mut pause_rng = SimRng::new(seed ^ 0x2545_f491_4f6c_dd1d);
    let mut write_rng = SimRng::new(seed ^ 0x1b87_3593_cc9e_2d51);
    let root = std::env::temp_dir().join(format!("pnx-dst-{}-{seed:016x}", opts.tag));
    let _ = fs::remove_dir_all(&root);
    let src_dir = root.join("src");
    let cache_dir = root.join("cache");
    let mut corpus =
        Corpus::generate(&src_dir, &mut rng, opts.files).expect("scratch corpus writes");

    let phases = match opts.phases {
        0 => 1 + rng.below(2) as usize,
        n => n,
    }
    .max(if opts.kill { 2 } else { 1 });

    let clock = Arc::new(SimClock::default());
    let stats = Arc::new(FaultStats::default());
    let mut report = SimReport { seed, phases, ..SimReport::default() };

    let mut next_request_id = 0u64;
    let mut digest_buf: Vec<u8> = Vec::new();
    // The previous phase's texts, when it had no kill point and no fault
    // was injected in it or before it: an earlier fault can leave a
    // broken entry that a manifest row names, which a delta probes as
    // an edited file's old analysis.
    let mut warm_floor: Option<HashSet<u128>> = None;
    for phase in 0..phases {
        let kill_here =
            (opts.kill && phase == 0) || (!opts.kill && phase + 1 < phases && rng.chance(3));
        let plan = FaultPlan {
            short_write_one_in: if opts.faults { 4 } else { 0 },
            bitflip_one_in: if opts.faults { 5 } else { 0 },
            disk_full_one_in: if opts.faults { 6 } else { 0 },
            kill_after_stores: kill_here.then(|| 1 + rng.below(8)),
            stale_swap_one_in: if opts.mutate { 2 } else { 0 },
        };
        let killed = plan.kill_after_stores.is_some();
        let presented = run_phase(PhaseContext {
            rng: &mut rng,
            corpus: &mut corpus,
            opts,
            clock: &clock,
            cache_dir: &cache_dir,
            plan,
            stats: &stats,
            warm_floor: warm_floor.as_ref(),
            next_request_id: &mut next_request_id,
            pause_seed: pause_rng.next_u64(),
            write_seed: write_rng.next_u64(),
            last_phase: phase + 1 == phases,
            digest_buf: &mut digest_buf,
            report: &mut report,
        });
        warm_floor = (!killed && stats.faults_injected() == 0).then_some(presented);
        if !report.violations.is_empty() {
            break;
        }
        if phase + 1 < phases && rng.chance(2) {
            // Touch the corpus between restarts so warm state has to
            // prove itself against genuinely drifted inputs.
            let _ = corpus.edit_file(&mut rng);
        }
    }

    // Invariant 2 at the decode level: any key whose last landed write
    // was sabotage (and which still holds exactly those bytes) must
    // read back as corrupt or missing — never as a servable hit.
    verify_unhealed_sabotage(&cache_dir, &stats, &mut report);

    report.faults_injected = stats.faults_injected();
    report.payload_digest = fnv128(&digest_buf);
    let _ = fs::remove_dir_all(&root);
    report
}

/// The phase's pausing peer: [`PAUSED_REQUESTS`] or a few more request
/// lines sent up to 63 bytes a tick, and a pause of 60 to 180 ticks
/// starting in the first eight, all drawn from `rng`. It never drops,
/// so invariant 4 holds for it.
fn pausing_peer(
    mut rng: SimRng,
    writes: SimRng,
    corpus: &Corpus,
    next_request_id: &mut u64,
    checks: &mut HashMap<String, CheckSpec>,
) -> Peer {
    let mut script = Vec::new();
    for _ in 0..PAUSED_REQUESTS + rng.below(4) {
        *next_request_id += 1;
        script
            .extend_from_slice(request_line(&mut rng, corpus, *next_request_id, checks).as_bytes());
        script.push(b'\n');
    }
    let end = if rng.chance(2) { EndKind::Linger } else { EndKind::CleanEof };
    let from = rng.below(8) as usize;
    let until = from + 60 + rng.below(121) as usize;
    Peer { pause: Some(Pause { rng, from, until }), ..Peer::new(script, end, writes) }
}

/// Everything one phase needs, bundled to keep the call site sane.
struct PhaseContext<'a> {
    rng: &'a mut SimRng,
    corpus: &'a mut Corpus,
    opts: &'a SimOptions,
    clock: &'a Arc<SimClock>,
    cache_dir: &'a Path,
    plan: FaultPlan,
    stats: &'a Arc<FaultStats>,
    /// The previous phase's presented texts, when the warm floor
    /// applies to this phase.
    warm_floor: Option<&'a HashSet<u128>>,
    next_request_id: &'a mut u64,
    /// Seeds the phase's pausing peer.
    pause_seed: u64,
    /// Seeds the phase's per-connection write streams.
    write_seed: u64,
    last_phase: bool,
    digest_buf: &'a mut Vec<u8>,
    report: &'a mut SimReport,
}

/// Runs one phase and returns the texts its requests presented.
fn run_phase(ctx: PhaseContext<'_>) -> HashSet<u128> {
    let PhaseContext {
        rng,
        corpus,
        opts,
        clock,
        cache_dir,
        plan,
        stats,
        warm_floor,
        next_request_id,
        pause_seed,
        write_seed,
        last_phase,
        digest_buf,
        report,
    } = ctx;

    let wrap = {
        let stats = Arc::clone(stats);
        let seed = rng.next_u64();
        BackendWrap(Arc::new(move |inner: Box<dyn CacheBackend>| {
            Box::new(FaultyBackend::new(inner, plan.clone(), seed, Arc::clone(&stats)))
                as Box<dyn CacheBackend>
        }))
    };
    let server = Server::new(ServerConfig {
        jobs: Some(1),
        cache_dir: Some(cache_dir.to_path_buf()),
        max_request_bytes: MAX_REQUEST_BYTES,
        max_connections: 1,
        client_quota: 4,
        idle_timeout: Some(IDLE_TIMEOUT),
        clock: Arc::clone(clock) as Arc<dyn Clock>,
        backend_wrap: Some(wrap),
        ..ServerConfig::default()
    })
    .expect("simulated server builds");

    let (scripts, mut checks) = build_traffic(rng, corpus, opts, next_request_id, last_phase);
    let mut write_seeds = SimRng::new(write_seed);
    let mut writes = || SimRng::new(write_seeds.next_u64());
    let pausing =
        pausing_peer(SimRng::new(pause_seed), writes(), corpus, next_request_id, &mut checks);
    report.requests_sent += scripts
        .iter()
        .map(|(s, _)| s)
        .chain([&pausing.script])
        .map(|s| s.iter().filter(|&&b| b == b'\n').count())
        .sum::<usize>();

    // Invariant 5's bounds: every text the executed analyze and delta
    // requests presented.
    let mut presented: HashSet<u128> = HashSet::new();
    let mut core = Core::new(&server);
    let mut peers: BTreeMap<u64, Peer> = BTreeMap::new();
    for (script, end) in scripts {
        peers.insert(core.accept(clock.now_ns()), Peer::new(script, end, writes()));
    }
    peers.insert(core.accept(clock.now_ns()), pausing);

    let mut tick = 0;
    while !core.is_idle() {
        if tick == TICK_LIMIT {
            report.violations.push(format!(
                "seed {}: schedule did not terminate in {TICK_LIMIT} ticks",
                report.seed
            ));
            return presented;
        }
        tick += 1;
        let now = clock.now_ns();

        // 1. Seeded partial reads: each connection the core still reads
        // gets 0, 1, or up-to-18 bytes this tick, so every header /
        // boundary split eventually happens. Corpus churn lands here
        // too — between reads, never mid-request.
        if !server.is_shutdown() && rng.chance(8) {
            let _ = match rng.below(6) {
                0 => corpus.add_file(rng),
                1 => corpus.remove_file(rng),
                _ => corpus.edit_file(rng),
            };
        }
        let readable = core.readable();
        // Invariant 6: a connection owing the output bound is not read.
        for id in core.unwritten() {
            let owed = core.output(id).len();
            if owed < MAX_REQUEST_BYTES {
                continue;
            }
            if readable.contains(&id) {
                report.violations.push(format!(
                    "seed {}: connection {id} owes {owed} bytes (bound {MAX_REQUEST_BYTES}) \
                     but is still read",
                    report.seed
                ));
                return presented;
            }
            let peer = peers.get_mut(&id).expect("every connection has a peer");
            report.output_bound_checks += usize::from(!peer.at_bound);
            peer.at_bound = true;
        }
        for id in readable {
            let peer = peers.get_mut(&id).expect("every connection has a peer");
            let rest = &peer.script[peer.sent..];
            if rest.is_empty() {
                match peer.end {
                    EndKind::CleanEof => {
                        peer.eof_sent = true;
                        core.eof(id);
                    }
                    EndKind::Drop => {
                        peer.dropped = true;
                        core.fail(id);
                    }
                    EndKind::Linger => {}
                }
                continue;
            }
            let n = match &mut peer.pause {
                Some(pause) => pause.rng.below(64) as usize,
                None => match rng.below(6) {
                    0 => 0,
                    1 => 1,
                    _ => 1 + rng.below(18) as usize,
                },
            }
            .min(rest.len());
            if n > 0 {
                core.read(id, &rest[..n], now);
                peer.sent += n;
            }
        }

        // 2. A seeded number of "workers" run queued requests; each
        // reply is verified at execution time against a fresh one-shot
        // server. A draw of zero stalls the pool for a tick, so
        // backlogs survive tick boundaries — including clock jumps,
        // which is what exercises the reap deferral.
        for _ in 0..rng.below(3) {
            let Some((id, line)) = core.pop() else { break };
            if let Some(spec) = checks.get(&line) {
                spec.present(&mut presented);
            }
            let reply = server.handle_line(&line);
            verify_reply(&reply, checks.get(&line), clock, report);
            core.reply(id, &reply, clock.now_ns());
        }

        // 3. Seeded partial writes: a peer takes none, some, or all of
        // what it is owed, drawn from its own write stream, so reaps,
        // closes and the drain meet output that is still unwritten. The
        // pausing peer takes nothing during its pause.
        for id in core.unwritten() {
            let owed = core.output(id);
            let peer = peers.get_mut(&id).expect("every connection has a peer");
            let n = match &peer.pause {
                Some(pause) if (pause.from..pause.until).contains(&tick) => 0,
                _ => take(&mut peer.writes, owed.len()),
            };
            if !peer.dropped {
                peer.received.extend_from_slice(&owed[..n]);
                digest_buf.extend_from_slice(&owed[..n]);
                core.wrote(id, n);
            }
        }

        let sweep = core.sweep(clock.now_ns());
        report.reap_deferrals += sweep.spared;
        report.output_deferrals += sweep.held;

        // Advance virtual time: mostly short event-loop ticks, with
        // occasional long stalls that cross the idle timeout.
        clock.advance(if rng.chance(10) {
            Duration::from_secs(31 + rng.below(240))
        } else {
            Duration::from_millis(5)
        });
    }
    report.drains += usize::from(server.is_shutdown());

    // Invariant 4, once every connection is closed.
    for peer in peers.values().filter(|peer| !peer.dropped) {
        let sent = &peer.script[..peer.sent];
        match check_connection(sent, peer.eof_sent, &peer.received, MAX_REQUEST_BYTES) {
            Ok(got) => {
                report.replies_delivered += got.frames;
                report.busy += got.busy;
                report.reaped += got.reaped;
            }
            Err(what) => report.violations.push(format!("seed {}: {what}", report.seed)),
        }
    }

    // Phase-final stats probe (a monitoring client) keeps the
    // accounting identity under test even when the seeded traffic drew
    // no stats request, checks invariant 5, and accounts detected
    // corruption.
    let reply = server.handle_line("{\"op\":\"stats\"}");
    let new_texts = warm_floor.map(|earlier| presented.difference(earlier).count());
    let mut verifier = Verifier { seed: report.seed, clock: Arc::clone(clock), report };
    let corrupt = verifier.check_stats_payload(&reply.payload, Some(presented.len()), new_texts);
    report.corrupt_detected += corrupt;
    presented
}

/// What one peer received, frame by frame.
#[derive(Debug, Default, PartialEq)]
struct Received {
    /// Whole frames.
    frames: usize,
    /// `busy` frames.
    busy: usize,
    /// `idle-timeout` frames.
    reaped: usize,
}

/// Invariant 4 for one connection its peer did not drop: `received`
/// is whole reply frames — each a header line plus exactly `bytes`
/// payload bytes — one per framed non-blank request in `sent` (the
/// final unterminated line too, once `eof` was delivered), and nothing
/// follows an `idle-timeout` or `busy` frame.
fn check_connection(
    sent: &[u8],
    eof: bool,
    received: &[u8],
    max: usize,
) -> Result<Received, String> {
    let mut lines: Vec<&[u8]> = sent.split(|&b| b == b'\n').collect();
    let tail = lines.pop().unwrap_or_default();
    if eof && !tail.is_empty() {
        lines.push(tail);
    }
    let requests = lines
        .iter()
        .filter(|line| {
            line.len() > max || std::str::from_utf8(line).map_or(true, |t| !t.trim().is_empty())
        })
        .count();

    let mut got = Received::default();
    let mut last_word: Option<String> = None;
    let mut rest = received;
    while !rest.is_empty() {
        if let Some(code) = &last_word {
            return Err(format!("a reply frame follows the {code} frame"));
        }
        let Some(newline) = rest.iter().position(|&b| b == b'\n') else {
            return Err(format!("torn frame: {} header bytes without a newline", rest.len()));
        };
        let header = std::str::from_utf8(&rest[..newline]).ok().and_then(|h| parse_json(h).ok());
        let Some(JsonNode::Obj(fields)) = header else {
            return Err("unparseable reply header on the wire".to_owned());
        };
        let payload = int_field(&fields, "bytes").and_then(|n| usize::try_from(n).ok());
        let Some(end) = payload.map(|n| newline + 1 + n).filter(|&end| end <= rest.len()) else {
            return Err(format!(
                "torn frame: {} payload bytes of {payload:?}",
                rest.len() - newline - 1
            ));
        };
        rest = &rest[end..];
        got.frames += 1;
        let code = match field(&fields, "error") {
            Some(JsonNode::Obj(error)) => field(error, "code").cloned(),
            _ => None,
        };
        match code {
            Some(JsonNode::Str(code)) if code == "busy" || code == "idle-timeout" => {
                got.busy += usize::from(code == "busy");
                got.reaped += usize::from(code == "idle-timeout");
                last_word = Some(code);
            }
            _ => {}
        }
    }
    let replies = got.frames - got.busy - got.reaped;
    if replies != requests {
        return Err(format!("{requests} requests framed but {replies} replies received"));
    }
    Ok(got)
}

/// Invariant 2 at the decode level: reopen the store cold and probe
/// every key whose last landed write was sabotage. A key still holding
/// exactly the sabotaged bytes must never decode as a hit.
fn verify_unhealed_sabotage(cache_dir: &Path, stats: &FaultStats, report: &mut SimReport) {
    let sabotaged = stats.sabotaged.lock().unwrap_or_else(|e| e.into_inner());
    if sabotaged.is_empty() || !cache_dir.exists() {
        return;
    }
    let Ok(raw) = DirBackend::open(cache_dir) else { return };
    let mut survivors: Vec<u128> = sabotaged
        .iter()
        .filter(|&(&key, bytes)| raw.load(key).as_deref() == Some(bytes.as_slice()))
        .map(|(&key, _)| key)
        .collect();
    survivors.sort_unstable();
    if survivors.is_empty() {
        return;
    }
    let cache = PersistentCache::with_backend(cache_dir, &AnalyzerConfig::default(), Box::new(raw));
    for key in survivors {
        match cache.get(key) {
            CacheLookup::Hit(_) => report.violations.push(format!(
                "seed {}: sabotaged entry {key:032x} decoded as a servable hit",
                report.seed
            )),
            CacheLookup::Corrupt => report.corrupt_detected += 1,
            CacheLookup::Miss => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_rng_is_deterministic() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        for _ in 0..100 {
            assert!(a.below(7) < 7);
        }
        assert!(!SimRng::new(1).chance(0), "zero odds never fire");
    }

    #[test]
    fn sim_clock_only_moves_when_advanced() {
        let clock = SimClock::default();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(Duration::from_secs(300));
        assert_eq!(clock.now_ns(), 300_000_000_000);
        clock.advance(Duration::from_millis(7));
        assert_eq!(clock.now_ns(), 300_007_000_000);
    }

    #[test]
    fn sim_clock_saturates_instead_of_wrapping() {
        let clock = SimClock::default();
        clock.advance(Duration::from_nanos(u64::MAX));
        clock.advance(Duration::from_secs(1));
        assert_eq!(clock.now_ns(), u64::MAX);
    }

    #[test]
    fn faulty_backend_disk_full_leaves_prior_entries_intact() {
        let dir = std::env::temp_dir().join("pnx-sim-diskfull");
        let _ = fs::remove_dir_all(&dir);
        let open = || -> Box<dyn CacheBackend> { Box::new(DirBackend::open(&dir).unwrap()) };
        let honest =
            FaultyBackend::new(open(), FaultPlan::default(), 7, Arc::new(FaultStats::default()));
        honest.store(1, b"survivor").unwrap();
        drop(honest);

        let plan = FaultPlan { disk_full_one_in: 1, ..FaultPlan::default() };
        let stats = Arc::new(FaultStats::default());
        let broken = FaultyBackend::new(open(), plan, 7, Arc::clone(&stats));
        assert!(broken.store(2, b"doomed").is_err(), "every store fails disk-full");
        assert!(broken.store_manifest("m").is_err());
        assert_eq!(broken.load(1).as_deref(), Some(b"survivor".as_slice()));
        assert_eq!(broken.load(2), None);
        assert_eq!(stats.faults_injected(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_backend_kill_silently_drops_later_writes() {
        let dir = std::env::temp_dir().join("pnx-sim-kill");
        let _ = fs::remove_dir_all(&dir);
        let inner: Box<dyn CacheBackend> = Box::new(DirBackend::open(&dir).unwrap());
        let plan = FaultPlan { kill_after_stores: Some(1), ..FaultPlan::default() };
        let be = FaultyBackend::new(inner, plan, 3, Arc::new(FaultStats::default()));
        be.store(1, b"landed").unwrap();
        be.store(2, b"vanished").unwrap(); // reports success, never lands
        be.store_manifest("vanished too").unwrap();
        assert_eq!(be.load(1).as_deref(), Some(b"landed".as_slice()));
        assert_eq!(be.load(2), None, "post-kill writes must vanish");
        assert_eq!(be.load_manifest(), None, "post-kill manifests must vanish");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_sources_parse_with_exactly_three_functions() {
        for uid in 0..4 {
            for vulnerable in [false, true] {
                let text = render_source(uid, uid, vulnerable, 48, uid % 3);
                let program = pnew_detector::parse_program(&text).expect("generator parses");
                assert_eq!(program.functions.len(), FUNCTIONS_PER_FILE as usize);
            }
        }
    }

    #[test]
    fn connection_checker_flags_torn_missing_and_late_frames() {
        let frame = |header: &str, payload: &str| format!("{header}\n{payload}").into_bytes();
        let pong = frame(r#"{"ok":true,"event":"pong","bytes":0}"#, "");
        let stats = frame(r#"{"ok":true,"op":"stats","bytes":5}"#, "{}\n\n\n");
        let idle = frame(r#"{"ok":false,"error":{"code":"idle-timeout"},"bytes":0}"#, "");
        let two = b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n";
        let whole = [pong.clone(), stats.clone(), idle.clone()].concat();
        let got = check_connection(two, false, &whole, 64).expect("a whole exchange passes");
        assert_eq!(got, Received { frames: 3, busy: 0, reaped: 1 });

        let torn = &whole[..pong.len() + stats.len() - 2];
        assert!(check_connection(two, false, torn, 64).unwrap_err().contains("torn"));
        let missing = [pong.clone(), idle.clone()].concat();
        assert!(check_connection(two, false, &missing, 64).unwrap_err().contains("2 requests"));
        let late = [pong, idle, stats].concat();
        assert!(check_connection(two, false, &late, 64).unwrap_err().contains("follows"));
        // An unterminated tail is a request only once EOF framed it.
        assert!(check_connection(b"{\"op\"", true, b"", 64).is_err());
        assert!(check_connection(b"{\"op\"", false, b"", 64).is_ok());
    }

    #[test]
    fn a_default_schedule_passes_and_replays_identically() {
        let opts = SimOptions { tag: "unit-replay".to_owned(), ..SimOptions::default() };
        let first = run_schedule(11, &opts);
        assert!(first.ok(), "violations: {:?}", first.violations);
        assert!(first.replies_delivered > 0);
        assert!(first.payload_checks > 0, "a schedule must check real payloads");
        let again = run_schedule(11, &opts);
        assert_eq!(first, again, "same seed + options => same schedule, byte for byte");
    }
}
