//! How the placement-new detector is evaluated: the references it is
//! measured against, kept out of the shipped `pnew-detector` crate.
//!
//! * the [`Executor`] — lowers the detector's IR onto the simulated
//!   machine (`pnew-runtime`) and runs it concretely under scripted
//!   attacker inputs, reporting what actually overflowed;
//! * the [`Oracle`] — the analyzer/executor differential: per-site
//!   TP/FP/FN [`Verdict`]s, aggregated into a [`Matrix`] and rendered as
//!   the `pncheck-oracle/1` envelope ([`oracle::render_oracle_json`]).
//!   `xcheck` is its command-line front end;
//! * the [`BaselineChecker`] — a stand-in for traditional overflow tools
//!   that knows classic copy-overflows but has no concept of placement
//!   new, used to reproduce the paper's §1 coverage-gap claim (E21).
//!
//! # Examples
//!
//! ```
//! use pnew_detector::{Analyzer, Expr, ProgramBuilder, Ty};
//! use pnew_eval::BaselineChecker;
//!
//! // Listing 4: GradStudent placed at &stud.
//! let mut p = ProgramBuilder::new("listing-4");
//! p.class("Student", 16, None, false);
//! p.class("GradStudent", 32, Some("Student"), false);
//! let mut f = p.function("main");
//! let stud = f.local("stud", Ty::Class("Student".into()));
//! let st = f.local("st", Ty::Ptr);
//! f.placement_new(st, Expr::addr_of(stud), "GradStudent");
//! f.finish();
//! let program = p.build();
//!
//! assert!(Analyzer::new().analyze(&program).detected());
//! assert!(!BaselineChecker::new().analyze(&program).detected()); // the gap
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod exec;
pub mod oracle;

pub use baseline::BaselineChecker;
pub use exec::{ExecEvent, ExecEventKind, ExecOutcome, Executor};
pub use oracle::{DifferentialReport, Matrix, Oracle, OracleRecord, SiteVerdict, Verdict};
