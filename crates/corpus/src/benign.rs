//! Correct programs for false-positive measurement.
//!
//! Each program uses placement new (or classic copies) the way §5.1
//! prescribes: sizes checked, arenas big enough, reuse sanitized, blocks
//! released in full. The detector experiment (E21) requires the analyzer
//! to stay quiet (no warning-or-better finding) on all of them.

use pnew_detector::{CmpOp, Expr, Program, ProgramBuilder, Ty};

use crate::listings::student_sizes;

fn students(p: &mut ProgramBuilder) {
    let s = student_sizes(false);
    p.class("Student", s.student, None, false);
    p.class("GradStudent", s.grad, Some("Student"), false);
}

/// Same-size placement: `new (&stud) Student()`.
pub fn benign_same_size() -> Program {
    let mut p = ProgramBuilder::new("benign-same-size");
    students(&mut p);
    let mut f = p.function("main");
    let stud = f.local("stud", Ty::Class("Student".into()));
    let st = f.local("st", Ty::Ptr);
    f.placement_new(st, Expr::addr_of(stud), "Student");
    f.finish();
    p.build()
}

/// Subclass placed into a pool sized for it.
pub fn benign_sized_pool() -> Program {
    let mut p = ProgramBuilder::new("benign-sized-pool");
    students(&mut p);
    let pool = p.global("pool", Ty::CharArray(Some(64)));
    let mut f = p.function("main");
    let gs = f.local("gs", Ty::Ptr);
    f.placement_new(gs, Expr::addr_of(pool), "GradStudent");
    f.finish();
    p.build()
}

/// Listing 2's bounded copy: `n <= SIZE` enforced by construction.
pub fn benign_listing_02() -> Program {
    let mut p = ProgramBuilder::new("benign-listing-02");
    let pool = p.global("uname_buf", Ty::CharArray(Some(64)));
    let mut f = p.function("checkUname");
    let uname = f.param("uname", Ty::Ptr, true);
    let n = f.local("n", Ty::Int);
    let buf = f.local("buf", Ty::Ptr);
    f.assign(n, Expr::Const(64));
    f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(n));
    f.strncpy(buf, Expr::Var(uname), Expr::Var(n));
    f.finish();
    p.build()
}

/// Constant array placement within bounds.
pub fn benign_const_array() -> Program {
    let mut p = ProgramBuilder::new("benign-const-array");
    let pool = p.global("pool", Ty::CharArray(Some(128)));
    let mut f = p.function("main");
    let buf = f.local("buf", Ty::Ptr);
    f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Const(128));
    f.finish();
    p.build()
}

/// Sanitized arena reuse: memset between the secret and the next tenant.
pub fn benign_sanitized_reuse() -> Program {
    let mut p = ProgramBuilder::new("benign-sanitized-reuse");
    let pool = p.global("mem_pool", Ty::CharArray(Some(192)));
    let mut f = p.function("main");
    let userdata = f.local("userdata", Ty::Ptr);
    f.read_secret(pool);
    f.memset(pool, Expr::Const(192));
    f.placement_new_array(userdata, Expr::addr_of(pool), 1, Expr::Const(192));
    f.output(userdata);
    f.finish();
    p.build()
}

/// Proper placement delete: the block is released through its allocated
/// type.
pub fn benign_placement_delete() -> Program {
    let mut p = ProgramBuilder::new("benign-placement-delete");
    students(&mut p);
    let mut f = p.function("main");
    let stud = f.local("stud", Ty::Ptr);
    let st = f.local("st", Ty::Ptr);
    f.heap_new(stud, "GradStudent");
    f.placement_new(st, Expr::Var(stud), "Student");
    f.delete(st, Some("GradStudent"));
    f.null_assign(stud);
    f.finish();
    p.build()
}

/// A copy that fits its lexical buffer.
pub fn benign_bounded_copy() -> Program {
    let mut p = ProgramBuilder::new("benign-bounded-copy");
    let mut f = p.function("main");
    let input = f.param("input", Ty::Ptr, true);
    let buf = f.local("buf", Ty::CharArray(Some(64)));
    f.strncpy(buf, Expr::Var(input), Expr::Const(64));
    f.finish();
    p.build()
}

/// Tainted input clamped to a constant before use.
pub fn benign_clamped_input() -> Program {
    let mut p = ProgramBuilder::new("benign-clamped-input");
    let pool = p.global("pool", Ty::CharArray(Some(72)));
    let mut f = p.function("main");
    let n = f.local("n", Ty::Int);
    let buf = f.local("buf", Ty::Ptr);
    f.read_input(n);
    f.assign(n, Expr::Const(8)); // clamp: overwrite with a safe constant
    f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
    f.finish();
    p.build()
}

/// Heap array allocation with a tainted length (the allocator sizes the
/// buffer itself; no placement involved).
pub fn benign_heap_array() -> Program {
    let mut p = ProgramBuilder::new("benign-heap-array");
    let mut f = p.function("main");
    let n = f.local("n", Ty::Int);
    let buf = f.local("buf", Ty::Ptr);
    f.read_input(n);
    f.heap_new_array(buf, Expr::Var(n));
    f.finish();
    p.build()
}

/// Correct virtual dispatch on a properly placed object.
pub fn benign_virtual_dispatch() -> Program {
    let mut p = ProgramBuilder::new("benign-virtual-dispatch");
    let s = student_sizes(true);
    p.class("Student", s.student, None, true);
    p.class("GradStudent", s.grad, Some("Student"), true);
    let pool = p.global("pool", Ty::CharArray(Some(64)));
    let mut f = p.function("main");
    let gs = f.local("gs", Ty::Ptr);
    f.placement_new(gs, Expr::addr_of(pool), "GradStudent");
    f.virtual_call(gs, "getInfo");
    f.finish();
    p.build()
}

/// Equal-size arena reuse without secrets.
pub fn benign_equal_reuse() -> Program {
    let mut p = ProgramBuilder::new("benign-equal-reuse");
    students(&mut p);
    let mut f = p.function("main");
    let a = f.local("a", Ty::Ptr);
    let b = f.local("b", Ty::Ptr);
    f.heap_new(a, "Student");
    f.placement_new(b, Expr::Var(a), "Student");
    f.output(b);
    f.finish();
    p.build()
}

/// A guarded function pointer that is never overflowed.
pub fn benign_guarded_fnptr() -> Program {
    let mut p = ProgramBuilder::new("benign-guarded-fnptr");
    let mut f = p.function("main");
    let fnptr = f.local("handler", Ty::Ptr);
    let flag = f.local("flag", Ty::Int);
    f.null_assign(fnptr);
    f.read_input(flag);
    f.if_start(Expr::Var(flag), CmpOp::Gt, Expr::Const(0));
    f.call_ptr(fnptr);
    f.end_if();
    f.finish();
    p.build()
}

/// Placement into a heap block exactly sized with `sizeof`.
pub fn benign_sizeof_block() -> Program {
    let mut p = ProgramBuilder::new("benign-sizeof-block");
    students(&mut p);
    let mut f = p.function("main");
    let block = f.local("block", Ty::Ptr);
    let gs = f.local("gs", Ty::Ptr);
    f.heap_new_array(block, Expr::SizeOf("GradStudent".into()));
    f.placement_new(gs, Expr::Var(block), "GradStudent");
    f.delete(gs, Some("GradStudent"));
    f.finish();
    p.build()
}

/// Construction from a trusted (local, non-tainted) source object.
pub fn benign_trusted_copy() -> Program {
    let mut p = ProgramBuilder::new("benign-trusted-copy");
    students(&mut p);
    let stud = p.global("stud", Ty::Class("Student".into()));
    let mut f = p.function("main");
    let local_src = f.local("template_student", Ty::Ptr);
    let st = f.local("st", Ty::Ptr);
    f.heap_new(local_src, "Student");
    f.placement_new_with(st, Expr::addr_of(stud), "Student", vec![Expr::Var(local_src)]);
    f.finish();
    p.build()
}

/// Tainted *content* copied with a safe constant length.
pub fn benign_tainted_content_safe_len() -> Program {
    let mut p = ProgramBuilder::new("benign-tainted-content-safe-len");
    let pool = p.global("pool", Ty::CharArray(Some(64)));
    let mut f = p.function("main");
    let input = f.param("input", Ty::Ptr, true);
    let buf = f.local("buf", Ty::Ptr);
    f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Const(64));
    f.strncpy(buf, Expr::Var(input), Expr::Const(64));
    f.finish();
    p.build()
}

/// Alias of a big-enough buffer used as the arena.
pub fn benign_alias_pool() -> Program {
    let mut p = ProgramBuilder::new("benign-alias-pool");
    students(&mut p);
    let pool = p.global("pool", Ty::CharArray(Some(64)));
    let mut f = p.function("main");
    let alias = f.local("alias", Ty::Ptr);
    let gs = f.local("gs", Ty::Ptr);
    f.assign(alias, Expr::addr_of(pool));
    f.placement_new(gs, Expr::Var(alias), "GradStudent");
    f.finish();
    p.build()
}

/// A genuinely effective bounds check: `if (n > 8) return;` before the
/// placement, with no earlier overflow to defeat it (contrast Listing 19).
pub fn benign_guarded_count() -> Program {
    let mut p = ProgramBuilder::new("benign-guarded-count");
    let pool = p.global("mem_pool", Ty::CharArray(Some(72)));
    let mut f = p.function("sortAndAddUname");
    let uname = f.param("uname", Ty::Ptr, true);
    let n = f.local("n_unames", Ty::Int);
    let buf = f.local("buf", Ty::Ptr);
    f.read_input(n);
    f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
    f.ret();
    f.end_if();
    f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
    f.strncpy(buf, Expr::Var(uname), Expr::mul(Expr::Var(n), Expr::Const(9)));
    f.finish();
    p.build()
}

/// A safe direct call: the helper receives a constant count that fits.
pub fn benign_cross_call() -> Program {
    let mut p = ProgramBuilder::new("benign-cross-call");
    let pool = p.global("st_pool", Ty::CharArray(Some(64)));
    let mut helper = p.function("placeNames");
    let count = helper.param("count", Ty::Int, false);
    let names = helper.local("stnames", Ty::Ptr);
    helper.placement_new_array(names, Expr::addr_of(pool), 4, Expr::Var(count));
    helper.finish();
    let mut main = p.function("main");
    main.call("placeNames", vec![Expr::Const(16)]);
    main.finish();
    p.build()
}

/// The whole benign corpus.
pub fn benign_corpus() -> Vec<Program> {
    vec![
        benign_same_size(),
        benign_sized_pool(),
        benign_listing_02(),
        benign_const_array(),
        benign_sanitized_reuse(),
        benign_placement_delete(),
        benign_bounded_copy(),
        benign_clamped_input(),
        benign_heap_array(),
        benign_virtual_dispatch(),
        benign_equal_reuse(),
        benign_guarded_fnptr(),
        benign_sizeof_block(),
        benign_trusted_copy(),
        benign_tainted_content_safe_len(),
        benign_alias_pool(),
        benign_guarded_count(),
        benign_cross_call(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnew_detector::{Analyzer, Severity};
    use pnew_eval::BaselineChecker;

    #[test]
    fn corpus_is_complete_and_unique() {
        let corpus = benign_corpus();
        assert_eq!(corpus.len(), 18);
        let mut names: Vec<&str> = corpus.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn analyzer_has_no_false_positives_at_warning_level() {
        let analyzer = Analyzer::new();
        for prog in benign_corpus() {
            let report = analyzer.analyze(&prog);
            assert!(
                !report.detected_at(Severity::Warning),
                "{}: unexpected finding(s): {report}",
                prog.name
            );
        }
    }

    #[test]
    fn baseline_is_also_quiet() {
        let baseline = BaselineChecker::new();
        for prog in benign_corpus() {
            assert!(!baseline.analyze(&prog).detected(), "{}: baseline false positive", prog.name);
        }
    }
}
