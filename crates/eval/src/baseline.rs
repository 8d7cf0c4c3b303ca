//! The "traditional tools" baseline.
//!
//! §1 of the paper claims that no existing buffer-overflow tool (Coverity,
//! Fortify, ITS4, Flawfinder, …) detects placement-new overflows, because
//! the vulnerability class is simply not in their pattern set. This module
//! is the measurable stand-in for those tools: a checker that knows the
//! *classic* patterns — out-of-bounds string copies into lexically
//! declared arrays, with constant or obviously tainted lengths — and has
//! **no concept of placement new**. Running it beside the
//! [`Analyzer`](pnew_detector::Analyzer) over the same corpus reproduces the
//! coverage gap as a table (experiment E21).

use std::collections::HashMap;

use pnew_detector::ir::{Expr, Op, Program, Stmt, Ty, VarId};
use pnew_detector::{Finding, FindingKind, Report, Severity};

/// A classic-overflow checker, deliberately blind to placement new.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineChecker;

impl BaselineChecker {
    /// Creates the checker.
    pub fn new() -> Self {
        BaselineChecker
    }

    /// Scans a program for classic overflow patterns only.
    pub fn analyze(&self, program: &Program) -> Report {
        let mut report = Report::new(&program.name);
        for f in &program.functions {
            let mut consts: HashMap<VarId, i64> = HashMap::new();
            self.walk(program, &f.body, &mut consts, &mut report);
        }
        report
    }

    fn eval(&self, p: &Program, e: &Expr, consts: &HashMap<VarId, i64>) -> Option<i64> {
        match e {
            Expr::Const(c) => Some(*c),
            Expr::SizeOf(class) => p.sizeof(class).map(|s| s as i64),
            Expr::Var(v) => consts.get(v).copied(),
            Expr::BinOp(op, a, b) => {
                let a = self.eval(p, a, consts)?;
                let b = self.eval(p, b, consts)?;
                Some(match op {
                    Op::Add => a.checked_add(b)?,
                    Op::Sub => a.checked_sub(b)?,
                    Op::Mul => a.checked_mul(b)?,
                })
            }
            _ => None,
        }
    }

    fn walk(
        &self,
        p: &Program,
        body: &[Stmt],
        consts: &mut HashMap<VarId, i64>,
        report: &mut Report,
    ) {
        for stmt in body {
            match stmt {
                Stmt::Assign { dst, src, .. } => match self.eval(p, src, consts) {
                    Some(v) => {
                        consts.insert(*dst, v);
                    }
                    None => {
                        consts.remove(dst);
                    }
                },
                Stmt::ReadInput { dst, .. } => {
                    consts.remove(dst);
                }
                Stmt::Strncpy { site, dst, len, .. } => {
                    // The one pattern traditional tools know: a copy longer
                    // than the *lexically declared* destination array.
                    // Placement-derived pointers have no lexical size, so
                    // everything the paper builds sails through.
                    let declared = match &p.var(*dst).ty {
                        Ty::CharArray(Some(n)) => Some(u64::from(*n)),
                        _ => None,
                    };
                    let len_val = self.eval(p, len, consts).and_then(|v| u64::try_from(v).ok());
                    if let (Some(declared), Some(len_val)) = (declared, len_val) {
                        if len_val > declared {
                            report.findings.push(Finding {
                                kind: FindingKind::ClassicOverflow,
                                severity: Severity::Error,
                                site: site.clone(),
                                message: format!(
                                    "strncpy of {len_val} bytes into char[{declared}]"
                                ),
                                width: Some(len_val - declared),
                            });
                        }
                    }
                }
                Stmt::If { then_body, else_body, .. } => {
                    let mut t = consts.clone();
                    let mut e = consts.clone();
                    self.walk(p, then_body, &mut t, report);
                    self.walk(p, else_body, &mut e, report);
                    consts.retain(|k, v| t.get(k) == Some(v) && e.get(k) == Some(v));
                }
                Stmt::While { body, .. } => {
                    let mut b = consts.clone();
                    self.walk(p, body, &mut b, report);
                    consts.retain(|k, v| b.get(k) == Some(v));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnew_detector::Analyzer;
    use pnew_detector::ProgramBuilder;

    #[test]
    fn catches_the_classic_overflow() {
        let mut p = ProgramBuilder::new("classic");
        let mut f = p.function("main");
        let buf = f.local("buf", Ty::CharArray(Some(16)));
        let input = f.param("input", Ty::Ptr, true);
        f.strncpy(buf, Expr::Var(input), Expr::Const(64));
        f.finish();
        let r = BaselineChecker::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::ClassicOverflow).len(), 1);
    }

    #[test]
    fn respects_correct_bounds() {
        let mut p = ProgramBuilder::new("fine");
        let mut f = p.function("main");
        let buf = f.local("buf", Ty::CharArray(Some(64)));
        let input = f.param("input", Ty::Ptr, true);
        f.strncpy(buf, Expr::Var(input), Expr::Const(64));
        f.finish();
        let r = BaselineChecker::new().analyze(&p.build());
        assert!(!r.detected());
    }

    #[test]
    fn blind_to_placement_new_overflows() {
        // The paper's central coverage claim, in miniature: the analyzer
        // sees the object overflow, the baseline sees nothing.
        let mut p = ProgramBuilder::new("listing-4");
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let prog = p.build();

        assert!(!BaselineChecker::new().analyze(&prog).detected());
        assert!(Analyzer::new().analyze(&prog).detected());
    }

    #[test]
    fn blind_to_the_two_step_attack() {
        // The strncpy length is a variable the baseline cannot bound, and
        // the destination is a placement pointer with no lexical size.
        let mut p = ProgramBuilder::new("listing-19");
        let mut f = p.function("f");
        let uname = f.param("uname", Ty::Ptr, true);
        let pool = f.local("pool", Ty::CharArray(Some(72)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.strncpy(buf, Expr::Var(uname), Expr::mul(Expr::Var(n), Expr::Const(9)));
        f.finish();
        let r = BaselineChecker::new().analyze(&p.build());
        assert!(!r.detected());
    }
}
