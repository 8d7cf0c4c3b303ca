//! # placement-new-attacks
//!
//! A from-scratch reproduction of *"A New Class of Buffer Overflow
//! Attacks"* (Ashish Kundu & Elisa Bertino, ICDCS 2011) as a Rust
//! workspace: the paper demonstrates that the C++ `placement new`
//! expression — `new (addr) T()` — performs no bounds, type, or alignment
//! checking, and builds a full catalogue of overflow attacks on it.
//!
//! Because safe Rust cannot (and should not) express the raw memory
//! corruption involved, the reproduction runs on a deterministic
//! **simulated C++ runtime** that models exactly what the attacks depend
//! on: the ILP32 process image, gcc-style object layout with vtable
//! pointers, stack frames with StackGuard canaries, and a header-based
//! heap allocator. See `DESIGN.md` for the substitution argument and
//! `EXPERIMENTS.md` for the per-listing reproduction results.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`memory`] — simulated address space (segments, permissions, traces);
//! * [`object`] — C++ object model: classes, layout, vtables, wire format;
//! * [`runtime`] — the machine: frames, canaries, heap, dispatch;
//! * [`core`] — placement new, the attack suite, and the §5 protections;
//! * [`detector`] — the §7 static-analysis tool (the traditional-tool
//!   baseline and the execution oracle that evaluate it are the
//!   `pnew-eval` crate, behind the `xcheck` binary);
//! * [`corpus`] — the paper's listings (runnable and analyzable) plus
//!   benign programs and workload generators.
//!
//! # Quickstart
//!
//! ```
//! use placement_new_attacks::core::attacks::bss_overflow;
//! use placement_new_attacks::core::AttackConfig;
//!
//! // Listing 11: the bss object overflow, exactly as published.
//! let report = bss_overflow::run(&AttackConfig::paper()).unwrap();
//! assert!(report.succeeded);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pnew_core as core;
pub use pnew_corpus as corpus;
pub use pnew_detector as detector;
pub use pnew_memory as memory;
pub use pnew_object as object;
pub use pnew_runtime as runtime;
