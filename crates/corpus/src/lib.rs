//! Program corpus for the reproduction: the paper's listings, benign
//! counterparts, and workload generators.
//!
//! Three views of the same material:
//!
//! * [`listings`] — every vulnerable listing of the paper transcribed into
//!   the detector IR (sizes computed by the real layout engine);
//! * [`benign`] — sixteen §5.1-correct programs for false-positive
//!   measurement;
//! * [`scenarios`](crate::scenarios::scenarios) — the runnable machine
//!   transcriptions (from [`pnew_core::attacks`]) indexed by experiment
//!   id;
//! * [`workload`] — seeded generators for inputs, populations, and random
//!   safe/vulnerable programs.
//!
//! # Examples
//!
//! Reproduce the paper's coverage-gap claim over the whole corpus:
//!
//! ```
//! use pnew_corpus::{benign, listings};
//! use pnew_detector::{Analyzer, Severity};
//! use pnew_eval::BaselineChecker;
//!
//! let analyzer = Analyzer::new();
//! let baseline = BaselineChecker::new();
//! let vulnerable = listings::vulnerable_corpus();
//!
//! let ours = vulnerable.iter().filter(|p| analyzer.analyze(p).detected()).count();
//! let theirs = vulnerable.iter().filter(|p| baseline.analyze(p).detected()).count();
//! assert_eq!(ours, vulnerable.len());  // we see every listing
//! assert_eq!(theirs, 0);               // traditional tools see none
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benign;
pub mod listings;
pub mod scenarios;
pub mod workload;

pub use scenarios::{scenarios, Scenario};
