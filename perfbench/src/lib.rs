//! End-to-end and per-layer benchmark of the openmeta stack.
//!
//! Three workloads drive the library's public API from one process:
//! `discover` (run-time discovery and binding), `stream` (saturating
//! one-way record transport) and `fanout` (an open-loop ECho channel).
//! See `METRICS.md` beside this package for what each metric means and
//! which layer should move which end-to-end number.

#![deny(unsafe_code)]

pub mod discover;
pub mod fanout;
pub mod gen;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trace;
