//! B1–B6: what each defence of the paper's §5, and the §7 detector,
//! costs per operation, timed with [`time`](crate::time).
//!
//! Absolute numbers depend on the host; the shapes are the result. Each
//! table fixes its own sample and iteration counts, and each row prints
//! the median per-iteration time, the [min – max] range over the
//! samples, and the sample count. Routines that need a fresh machine
//! build it in the timer's setup, outside the timed region.

use std::fmt::Write as _;

use pnew_core::protect::{ManagedArena, PlacementPool};
use pnew_core::student::StudentWorld;
use pnew_core::{Arena, AttackConfig, Defense, PlacementMode};
use pnew_corpus::{benign, listings, scenarios, workload};
use pnew_detector::emit::{render_json, render_sarif, FileRecord};
use pnew_detector::{
    parse_program, parse_program_recovering, pretty_program, Analyzer, Fixer, Program,
};
use pnew_eval::{BaselineChecker, Executor, Matrix, Oracle};
use pnew_memory::SegmentKind;
use pnew_object::CxxType;
use pnew_runtime::{StackProtection, VarDecl};

use crate::{time, Spread, Table};

/// One B table's rows, rendered as they are timed.
struct Rows {
    body: String,
}

impl Rows {
    fn new() -> Rows {
        Rows {
            body: format!("  {:<44} {:>10}  {:<25} {}\n", "routine", "median", "[min – max]", "n"),
        }
    }

    fn row(&mut self, name: &str, spread: Spread) {
        let range = format!("[{} – {}]", fmt_secs(spread.min), fmt_secs(spread.max));
        let _ = writeln!(
            self.body,
            "  {name:<44} {:>10}  {range:<25} {}",
            fmt_secs(spread.median),
            spread.samples
        );
    }

    fn table(self, id: &str, title: &str) -> Table {
        Table { id: id.into(), title: title.into(), body: self.body }
    }
}

/// Seconds in the unit that keeps three significant digits readable.
fn fmt_secs(secs: f64) -> String {
    let ns = secs * 1e9;
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// B1 — placement-expression overhead: unchecked (the paper's
/// vulnerable primitive) vs §5.1 checked vs §5.2 intercepted call
/// sites, for objects and arrays, plus the checked failure path that
/// falls back to heap `new`.
pub fn placement_table() -> Table {
    const SAMPLES: usize = 30;
    const ITERS: usize = 300;
    let world = StudentWorld::plain();
    let mut rows = Rows::new();
    for mode in [PlacementMode::Unchecked, PlacementMode::Checked, PlacementMode::Intercepted] {
        let spread = time(
            SAMPLES,
            ITERS,
            || {
                let mut m = world.machine(&AttackConfig::paper());
                let pool = m
                    .define_global("pool", VarDecl::Buffer { size: 64, align: 8 }, SegmentKind::Bss)
                    .unwrap();
                (m, pool)
            },
            |(m, pool)| {
                let arena = Arena::new(*pool, 64);
                mode.place_object(m, arena, world.grad).unwrap()
            },
        );
        rows.row(&format!("placement_object/{mode}"), spread);
    }
    for mode in [PlacementMode::Unchecked, PlacementMode::Checked, PlacementMode::Intercepted] {
        let spread = time(
            SAMPLES,
            ITERS,
            || {
                let mut m = world.machine(&AttackConfig::paper());
                let pool =
                    m.define_global("pool", VarDecl::char_buf(4096), SegmentKind::Bss).unwrap();
                (m, pool)
            },
            |(m, pool)| {
                let arena = Arena::new(*pool, 4096);
                mode.place_array(m, arena, CxxType::Char, 4096).unwrap()
            },
        );
        rows.row(&format!("placement_array/{mode}"), spread);
    }
    let spread = time(
        SAMPLES,
        ITERS,
        || {
            let mut m = world.machine(&AttackConfig::paper());
            let stud =
                m.define_global("stud", VarDecl::Class(world.student), SegmentKind::Bss).unwrap();
            (m, stud)
        },
        |(m, stud)| {
            let arena = Arena::new(*stud, 16);
            pnew_core::protect::place_or_heap(m, arena, world.grad).unwrap()
        },
    );
    rows.row("placement_checked_fallback_to_heap", spread);
    rows.table(
        "B1",
        "placement-expression overhead: unchecked vs checked vs intercepted (§5.1, §5.2)",
    )
}

/// B2 — runtime-protection overhead: a frame push/ret cycle under each
/// stack-protection configuration, with and without the §5.2 shadow
/// stack, and a 64-deep call chain. The canary adds a constant per-call
/// cost; the shadow stack adds another.
pub fn protection_table() -> Table {
    const SAMPLES: usize = 30;
    const CYCLE_ITERS: usize = 500;
    const CHAIN_ITERS: usize = 50;
    let world = StudentWorld::plain();
    let mut rows = Rows::new();
    for (label, protection, shadow) in [
        ("none", StackProtection::None, false),
        ("frame-pointer", StackProtection::FramePointer, false),
        ("stackguard", StackProtection::StackGuard, false),
        ("stackguard+shadow", StackProtection::StackGuard, true),
    ] {
        let spread = time(
            SAMPLES,
            CYCLE_ITERS,
            || {
                let mut cfg = AttackConfig::with_protection(protection);
                cfg.shadow_stack = shadow;
                world.machine(&cfg)
            },
            |m| {
                m.push_frame("addStudent", &[("stud", VarDecl::Class(world.student))]).unwrap();
                m.ret().unwrap()
            },
        );
        rows.row(&format!("frame_cycle/{label}"), spread);
    }
    for (label, protection) in
        [("none", StackProtection::None), ("stackguard", StackProtection::StackGuard)]
    {
        let spread = time(
            SAMPLES,
            CHAIN_ITERS,
            || world.machine(&AttackConfig::with_protection(protection)),
            |m| {
                for i in 0..64 {
                    m.push_frame(
                        if i % 2 == 0 { "even" } else { "odd" },
                        &[("n", VarDecl::Ty(CxxType::Int))],
                    )
                    .unwrap();
                }
                for _ in 0..64 {
                    m.ret().unwrap();
                }
            },
        );
        rows.row(&format!("deep_call_chain_64/{label}"), spread);
    }
    rows.table("B2", "runtime-protection overhead: canary and shadow stack per call (§5.2)")
}

/// B3 — sanitization overhead: arena reuse with and without the §5.1
/// `memset` between tenants, across arena sizes. §5.1 worries that
/// "efficiency sake" tempts programmers to skip sanitization; this is
/// the full-arena memset the defence actually pays.
pub fn sanitize_table() -> Table {
    const SAMPLES: usize = 30;
    const ITERS: usize = 300;
    let world = StudentWorld::plain();
    let mut rows = Rows::new();
    for size in [64u32, 256, 1024, 4096, 16384] {
        for sanitize in [false, true] {
            let spread = time(
                SAMPLES,
                ITERS,
                || {
                    let mut m = world.machine(&AttackConfig::paper());
                    let pool = m
                        .define_global("pool", VarDecl::Buffer { size, align: 8 }, SegmentKind::Bss)
                        .unwrap();
                    let mut arena = ManagedArena::new(pool, size, sanitize);
                    // First tenant so every measured placement is a
                    // *reuse*.
                    arena
                        .place_array(&mut m, PlacementMode::Unchecked, CxxType::Char, size)
                        .unwrap();
                    (m, arena)
                },
                |(m, arena)| {
                    arena.place_array(m, PlacementMode::Unchecked, CxxType::Char, size).unwrap()
                },
            );
            let label = if sanitize { "sanitized" } else { "raw" };
            rows.row(&format!("arena_reuse/{label}/{size}"), spread);
        }
    }
    rows.table("B3", "sanitization overhead: arena reuse, raw vs memset (§5.1)")
}

/// B4 — the detector's costs that no other harness measures: the
/// analyzer vs the traditional baseline over the listings and the
/// benign corpus, the §7 fixer, the `.pnx` printer and parsers, the
/// JSON and SARIF emitters, and the differential oracle. Batch, cache,
/// delta and summary-vs-inline throughput are `bench_detector`'s
/// figures (E28).
pub fn detector_table() -> Table {
    const SAMPLES: usize = 20;
    const XCHECK_SAMPLES: usize = 10;
    let mut corpus = listings::vulnerable_corpus();
    corpus.extend(benign::benign_corpus());
    let mut rows = Rows::new();

    let analyzer = Analyzer::new();
    let baseline = BaselineChecker::new();
    let vulnerable = listings::vulnerable_corpus();
    let fixer = Fixer::new();
    let texts: Vec<String> = corpus.iter().map(pretty_program).collect();
    let records: Vec<FileRecord> = corpus
        .iter()
        .map(|p| FileRecord {
            path: format!("{}.pnx", p.name),
            report: Some(analyzer.analyze(p)),
            errors: Vec::new(),
        })
        .collect();
    let mut timed = |name: &str, samples: usize, iters: usize, routine: &dyn Fn() -> usize| {
        rows.row(name, time(samples, iters, || (), |()| routine()));
    };
    timed("detector_corpus_scan/analyzer", SAMPLES, 50, &|| {
        corpus.iter().filter(|p| analyzer.analyze(p).detected()).count()
    });
    timed("detector_corpus_scan/baseline", SAMPLES, 2000, &|| {
        corpus.iter().filter(|p| baseline.analyze(p).detected()).count()
    });
    timed("fixer_full_corpus", SAMPLES, 50, &|| {
        vulnerable.iter().map(|p| fixer.fix(p).1.len()).sum()
    });
    timed("dsl/pretty_full_corpus", SAMPLES, 100, &|| {
        corpus.iter().map(|p| pretty_program(p).len()).sum()
    });
    timed("dsl/parse_full_corpus", SAMPLES, 50, &|| {
        texts.iter().map(|t| parse_program(t).expect("corpus parses").vars.len()).sum()
    });
    timed("dsl/parse_recovering_full_corpus", SAMPLES, 50, &|| {
        texts.iter().map(|t| parse_program_recovering(t).expect("corpus parses").vars.len()).sum()
    });
    timed("emit/json_full_corpus", SAMPLES, 50, &|| render_json(&records, None, None).len());
    timed("emit/sarif_full_corpus", SAMPLES, 50, &|| render_sarif(&records).len());

    // Analyze + execute + join over a generated executable corpus: the
    // cost CI's oracle gate pays per program. Every function runs on a
    // fresh machine under several attacker scripts, hence the smaller
    // corpus and sample count.
    let programs: Vec<Program> = workload::executable_corpus(42, 60);
    let scripts: Vec<Vec<i64>> =
        Oracle::default_inputs().into_iter().chain(workload::attack_inputs(42, 4)).collect();
    let oracle = Oracle::new();
    timed("xcheck_corpus/differential", XCHECK_SAMPLES, 1, &|| {
        let mut matrix = Matrix::new();
        for program in &programs {
            matrix.absorb(&oracle.differential_with(program, &scripts));
        }
        assert_eq!(matrix.false_negatives(), 0);
        matrix.totals().0 as usize
    });
    let executor = Executor::new();
    timed("xcheck_corpus/execute_only", XCHECK_SAMPLES, 1, &|| {
        programs.iter().flat_map(|p| scripts.iter().map(|s| executor.run(p, s).events.len())).sum()
    });
    rows.table("B4", "detector costs: analyzer vs baseline, fixer, .pnx, emitters, oracle (§7)")
}

/// B5 — attack-scenario cost: each experiment end to end under the
/// paper configuration, the two that run to exhaustion (E18, E19), and
/// Listing 11 undefended vs defended — the macro view of the
/// protection overheads.
pub fn attacks_table() -> Table {
    const SAMPLES: usize = 20;
    const EXHAUSTION_SAMPLES: usize = 10;
    let cfg = AttackConfig::paper();
    let mut rows = Rows::new();
    let (exhaustion, quick): (Vec<_>, Vec<_>) =
        scenarios().into_iter().partition(|sc| matches!(sc.experiment, "E18" | "E19"));
    for sc in quick {
        let spread = time(SAMPLES, 20, || (), |()| (sc.run)(&cfg).unwrap());
        rows.row(&format!("attack_scenarios/{}", sc.experiment), spread);
    }
    for sc in exhaustion {
        let spread = time(EXHAUSTION_SAMPLES, 1, || (), |()| (sc.run)(&cfg).unwrap());
        rows.row(&format!("attack_exhaustion/{}", sc.experiment), spread);
    }
    for (label, cfg) in [
        ("vulnerable", AttackConfig::paper()),
        ("correct-coding", AttackConfig::with_defense(Defense::correct_coding())),
        ("intercept", AttackConfig::with_defense(Defense::intercept())),
    ] {
        let spread =
            time(SAMPLES, 20, || (), |()| pnew_core::attacks::bss_overflow::run(&cfg).unwrap());
        rows.row(&format!("defense_macro_cost/listing-11/{label}"), spread);
    }
    rows.table("B5", "attack-scenario cost, undefended and defended (§3–§5)")
}

/// B6 — allocator behaviour under the §4.5 leak pressure: the
/// size-mismatched release discipline vs proper placement delete, and
/// allocation churn over a student-record workload. The fragmentation
/// the leak induces shows as the gap between the two disciplines.
pub fn allocator_table() -> Table {
    const SAMPLES: usize = 20;
    let world = StudentWorld::plain();
    let mut rows = Rows::new();
    for (label, placement_delete) in [("leaky", false), ("placement-delete", true)] {
        for rounds in [64u32, 512] {
            let iters = if rounds == 64 { 100 } else { 20 };
            let spread = time(
                SAMPLES,
                iters,
                || world.machine(&AttackConfig::paper()),
                |m| {
                    let pool = PlacementPool::new(placement_delete);
                    for _ in 0..rounds {
                        let st = pool.allocate_and_replace(m, world.grad, world.student).unwrap();
                        pool.release(m, st).unwrap();
                    }
                    m.heap_stats().leaked_bytes
                },
            );
            rows.row(&format!("release_discipline/{label}/{rounds}"), spread);
        }
    }
    let population = workload::student_population(7, 256);
    let spread = time(
        SAMPLES,
        20,
        || world.machine(&AttackConfig::paper()),
        |m| {
            let mut live = Vec::new();
            for s in &population {
                let class = if s.grad { world.grad } else { world.student };
                live.push(pnew_core::heap_new(m, class).unwrap());
                if live.len() > 32 {
                    let victim = live.swap_remove(live.len() / 2);
                    m.heap_free(victim.addr()).unwrap();
                }
            }
            for obj in live {
                m.heap_free(obj.addr()).unwrap();
            }
            m.heap_stats().total_allocs
        },
    );
    rows.row("alloc_churn_256_students", spread);
    rows.table("B6", "allocator cost under the leak: release discipline and churn (§4.5)")
}
