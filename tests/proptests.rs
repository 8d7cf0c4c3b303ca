//! Property-based tests over the core substrates.
//!
//! * address space: scalar round-trips, adjacency, permission totality;
//! * layout engine: alignment/containment invariants over random classes;
//! * heap allocator: no-overlap, stats conservation, leak accounting;
//! * checked placement: soundness (never writes outside the arena);
//! * detector: quiet on generated-safe programs, loud on generated-vulnerable ones.

use proptest::prelude::*;

use placement_new_attacks::core::protect::{checked_placement_new_array, Arena};
use placement_new_attacks::core::student::StudentWorld;
use placement_new_attacks::core::AttackConfig;
use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::{parse_program, pretty_program, Analyzer, Severity};
use placement_new_attacks::memory::{AddressSpace, SegmentKind, VirtAddr};
use placement_new_attacks::object::{ClassRegistry, CxxType, LayoutPolicy};
use placement_new_attacks::runtime::{HeapAllocator, VarDecl};

proptest! {
    #[test]
    fn u32_round_trips_anywhere_in_writable_segments(
        offset in 0u32..0xff00,
        value: u32,
    ) {
        let mut space = AddressSpace::ilp32();
        for kind in [SegmentKind::Data, SegmentKind::Bss, SegmentKind::Heap] {
            let base = space.segment(kind).base();
            space.write_u32(base + offset, value).unwrap();
            prop_assert_eq!(space.read_u32(base + offset).unwrap(), value);
        }
    }

    #[test]
    fn byte_writes_never_bleed_outside_their_range(
        offset in 8u32..0x8000,
        len in 1u32..64,
        fill: u8,
    ) {
        let mut space = AddressSpace::ilp32();
        let base = space.segment(SegmentKind::Heap).base();
        let target = base + offset;
        // Sentinels on both sides.
        space.write_u8(target - 1, 0xEE).unwrap();
        space.write_u8(target + len, 0xEE).unwrap();
        space.fill(target, fill, len).unwrap();
        prop_assert_eq!(space.read_u8(target - 1).unwrap(), 0xEE);
        prop_assert_eq!(space.read_u8(target + len).unwrap(), 0xEE);
        prop_assert_eq!(space.read_vec(target, len).unwrap(), vec![fill; len as usize]);
    }

    #[test]
    fn random_class_layouts_are_well_formed(
        field_kinds in proptest::collection::vec(0u8..5, 1..10),
        with_virtual in proptest::bool::ANY,
    ) {
        let mut reg = ClassRegistry::new();
        let mut builder = reg.class("Fuzz");
        for (i, k) in field_kinds.iter().enumerate() {
            let ty = match k {
                0 => CxxType::Char,
                1 => CxxType::Short,
                2 => CxxType::Int,
                3 => CxxType::Double,
                _ => CxxType::array(CxxType::Int, 3),
            };
            builder = builder.field(&format!("f{i}"), ty);
        }
        if with_virtual {
            builder = builder.virtual_method("m");
        }
        let id = builder.register();
        for policy in [LayoutPolicy::paper(), LayoutPolicy::i386_abi(), LayoutPolicy::lp64()] {
            let layout = reg.layout(id, &policy).unwrap();
            // Size is a positive multiple of the alignment.
            prop_assert!(layout.size() >= 1);
            prop_assert_eq!(layout.size() % layout.align(), 0);
            // Every slot is naturally aligned and inside the object.
            for slot in layout.slots() {
                prop_assert_eq!(slot.offset() % slot.align(), 0);
                prop_assert!(slot.offset() + slot.size() <= layout.size());
            }
            // Slots never overlap.
            let mut spans: Vec<(u32, u32)> = layout
                .slots()
                .iter()
                .map(|s| (s.offset(), s.offset() + s.size()))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlapping slots: {:?}", w);
            }
            // Polymorphic objects put the vptr at offset zero (§3.8.2).
            if with_virtual {
                prop_assert_eq!(layout.primary_vptr_offset(), Some(0));
            }
        }
    }

    #[test]
    fn heap_allocations_never_overlap(sizes in proptest::collection::vec(1u32..256, 1..40)) {
        let mut space = AddressSpace::ilp32();
        let mut heap = HeapAllocator::for_space(&space);
        let mut blocks: Vec<(VirtAddr, u32)> = Vec::new();
        for size in sizes {
            let addr = heap.alloc(&mut space, size).unwrap();
            for &(other, other_size) in &blocks {
                let disjoint = addr + size <= other || other + other_size <= addr;
                prop_assert!(disjoint, "{addr}+{size} overlaps {other}+{other_size}");
            }
            blocks.push((addr, size));
        }
        // Free everything: stats return to zero and memory coalesces.
        let total = heap.largest_free();
        for &(addr, _) in &blocks {
            heap.free(&mut space, addr).unwrap();
        }
        prop_assert_eq!(heap.stats().live_blocks, 0);
        prop_assert_eq!(heap.stats().live_bytes, 0);
        prop_assert!(heap.largest_free() >= total);
    }

    #[test]
    fn heap_against_an_interval_model(
        ops in proptest::collection::vec((0u8..3, 1u32..128), 1..120),
    ) {
        // Differential test: replay a random alloc/free/free_sized script
        // against a trivial interval model and compare live-set geometry
        // and statistics at every step.
        let mut space = AddressSpace::ilp32();
        let mut heap = HeapAllocator::for_space(&space);
        let mut model: Vec<(VirtAddr, u32)> = Vec::new(); // live (addr, payload)
        let mut model_leaked = 0u64;

        for (op, arg) in ops {
            match op {
                0 => {
                    // alloc(arg)
                    if let Ok(addr) = heap.alloc(&mut space, arg) {
                        for &(other, other_len) in &model {
                            let disjoint = addr + arg <= other || other + other_len <= addr;
                            prop_assert!(disjoint, "overlap at {addr}");
                        }
                        model.push((addr, arg));
                    }
                }
                1 => {
                    // free(oldest)
                    if !model.is_empty() {
                        let (addr, _) = model.remove((arg as usize) % model.len());
                        heap.free(&mut space, addr).unwrap();
                    }
                }
                _ => {
                    // free_sized(newest, half)
                    if let Some((addr, len)) = model.pop() {
                        let released = (len / 2).max(1);
                        heap.free_sized(&mut space, addr, released).unwrap();
                        // Reserved lengths round to the 8-byte grain (+8 header).
                        let reserved = |p: u32| 8 + p.max(1).div_ceil(8) * 8;
                        model_leaked += u64::from(reserved(len) - reserved(released).min(reserved(len)));
                    }
                }
            }
            prop_assert_eq!(heap.stats().live_blocks, model.len() as u64);
            prop_assert_eq!(
                heap.stats().live_bytes,
                model.iter().map(|&(_, l)| u64::from(8 + l.max(1).div_ceil(8) * 8 - 8)).sum::<u64>()
            );
            prop_assert_eq!(heap.stats().leaked_bytes, model_leaked);
        }
        // Drain and confirm full recovery minus the leaks.
        for (addr, _) in model {
            heap.free(&mut space, addr).unwrap();
        }
        prop_assert_eq!(heap.stats().live_bytes, 0);
        prop_assert_eq!(
            u64::from(heap.region_size() - heap.total_free()),
            model_leaked
        );
    }

    #[test]
    fn sized_frees_account_exactly(rounds in 1u32..50) {
        let mut space = AddressSpace::ilp32();
        let mut heap = HeapAllocator::for_space(&space);
        for i in 1..=rounds {
            let p = heap.alloc(&mut space, 32).unwrap();
            heap.free_sized(&mut space, p, 16).unwrap();
            prop_assert_eq!(heap.stats().leaked_bytes, u64::from(16 * i));
        }
    }

    #[test]
    fn checked_array_placement_is_sound(
        pool_size in 16u32..256,
        len in 0u32..512,
    ) {
        let world = StudentWorld::plain();
        let mut m = world.machine(&AttackConfig::paper());
        let pool = m
            .define_global("pool", VarDecl::Buffer { size: pool_size, align: 8 }, SegmentKind::Bss)
            .unwrap();
        let guard = m
            .define_global("guard", VarDecl::Ty(CxxType::Int), SegmentKind::Bss)
            .unwrap();
        m.space_mut().write_i32(guard, 0x5AFE).unwrap();

        let arena = Arena::new(pool, pool_size);
        let result = checked_placement_new_array(&mut m, arena, CxxType::Char, len);
        if len <= pool_size {
            prop_assert!(result.is_ok());
            // Writing the *checked* length never escapes the arena.
            let arr = result.unwrap();
            m.memset(arr.addr(), 0xAA, len).unwrap();
        } else {
            prop_assert!(result.is_err());
        }
        prop_assert_eq!(m.space().read_i32(guard).unwrap(), 0x5AFE);
    }

    #[test]
    fn detector_is_quiet_on_generated_safe_programs(seed in 0u64..500) {
        let report = Analyzer::new().analyze(&workload::random_safe_program(seed));
        prop_assert!(
            !report.detected_at(Severity::Warning),
            "seed {seed}: {report}"
        );
    }

    #[test]
    fn detector_flags_generated_vulnerable_programs(seed in 0u64..500) {
        let report = Analyzer::new().analyze(&workload::random_vulnerable_program(seed));
        prop_assert!(report.detected_at(Severity::Warning), "seed {seed}");
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(junk in "\\PC{0,200}") {
        // Errors are fine; panics are not — in strict and recovering mode.
        let _ = parse_program(&junk);
        let _ = parse_program(&format!("program t;\n{junk}"));
        let framed = format!("program t;\nfn f() {{\n{junk}\n}}\n");
        if let Err(errors) = placement_new_attacks::detector::parse_program_recovering(&framed) {
            prop_assert!(!errors.is_empty());
            prop_assert!(errors.len() <= placement_new_attacks::detector::MAX_ERRORS + 1);
            // Recovered errors come out sorted by source position.
            for pair in errors.windows(2) {
                prop_assert!(pair[0].span.byte_offset <= pair[1].span.byte_offset);
            }
        }
    }

    #[test]
    fn generated_programs_round_trip_through_the_dsl(seed in 0u64..2000) {
        let prog = workload::random_safe_program(seed);
        let back = parse_program(&pretty_program(&prog)).expect("reparses");
        prop_assert_eq!(back, prog);
    }

    #[test]
    fn wire_decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        use placement_new_attacks::object::wire::WireObject;
        let _ = WireObject::decode(&bytes); // errors are fine; panics are not
    }

    #[test]
    fn wire_objects_round_trip(
        name in "[A-Za-z][A-Za-z0-9_]{0,20}",
        count: u32,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use placement_new_attacks::object::wire::WireObject;
        let obj = WireObject::new(&name, payload).with_count(count);
        let back = WireObject::decode(&obj.encode()).unwrap();
        prop_assert_eq!(back, obj);
    }

    #[test]
    fn frame_locals_are_disjoint_and_aligned(
        sizes in proptest::collection::vec((1u32..64, 0u8..4), 1..8),
    ) {
        let world = StudentWorld::plain();
        let mut m = world.machine(&AttackConfig::paper());
        let decls: Vec<(String, VarDecl)> = sizes
            .iter()
            .enumerate()
            .map(|(i, (size, align_pow))| {
                (format!("l{i}"), VarDecl::Buffer { size: *size, align: 1 << align_pow })
            })
            .collect();
        let decl_refs: Vec<(&str, VarDecl)> =
            decls.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        m.push_frame("f", &decl_refs).unwrap();
        let frame = m.frame().unwrap();
        let mut spans: Vec<(u64, u64)> = frame
            .locals()
            .iter()
            .map(|l| (u64::from(l.addr().value()), u64::from(l.addr().value()) + u64::from(l.size())))
            .collect();
        for (l, (_, align_pow)) in frame.locals().iter().zip(sizes.iter()) {
            prop_assert!(l.addr().is_aligned(1 << align_pow));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping locals");
        }
        // All locals live strictly below the frame metadata.
        let top = frame.canary_slot().unwrap_or(frame.ret_slot());
        for l in frame.locals() {
            prop_assert!(l.end() <= top);
        }
    }

    /// The daemon's line framer never loses frame alignment, no matter
    /// how the byte stream is split across reads: any seeded chunking
    /// (1-byte reads and boundary splits included) of any line mix
    /// (empty, ordinary, oversized) yields exactly the frames of the
    /// whole stream fed at once — oversized lines collapse to a single
    /// `TooLong`, and an unterminated tail surfaces only at `finish`.
    #[test]
    fn line_framer_survives_any_read_chunking(
        raw_lines in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..8,
        ),
        max in 8usize..96,
        chunk_seed: u64,
        terminated: bool,
    ) {
        use placement_new_attacks::detector::eventloop::{Frame, LineFramer};
        use pnew_dst::SimRng;

        // Newlines are the frame delimiter; strip them from the line
        // bodies so `raw_lines` is the ground truth.
        let lines: Vec<Vec<u8>> = raw_lines
            .iter()
            .map(|l| l.iter().map(|&b| if b == b'\n' { b'x' } else { b }).collect())
            .collect();
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line);
            stream.push(b'\n');
        }
        if !terminated && stream.pop().is_some() {
            // Drop the final newline: the last line becomes an
            // unterminated tail only `finish` may surface.
        }

        let mut expected: Vec<Frame> = lines
            .iter()
            .map(|l| {
                if l.len() > max { Frame::TooLong } else { Frame::Line(l.clone()) }
            })
            .collect();
        if !terminated && lines.last().is_some_and(|l| l.is_empty()) {
            // An empty unterminated tail produces no frame at all.
            expected.pop();
        }

        let mut rng = SimRng::new(chunk_seed);
        let mut framer = LineFramer::default();
        let mut got = Vec::new();
        let mut pos = 0usize;
        while pos < stream.len() {
            // Seeded chunk sizes, biased toward the pathological ones.
            let n = match rng.below(4) {
                0 => 1,
                1 => 1 + rng.below(3) as usize,
                _ => 1 + rng.below(40) as usize,
            }
            .min(stream.len() - pos);
            got.extend(framer.feed(&stream[pos..pos + n], max));
            pos += n;
        }
        got.extend(framer.finish());
        prop_assert_eq!(got, expected);
    }
}
