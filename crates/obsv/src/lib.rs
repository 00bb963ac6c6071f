//! # obsv — the run observatory
//!
//! Everything that turns a simulated-cluster run into reviewable
//! artifacts:
//!
//! * [`chrome`] — causal trace export: a [`ccl_core::RunOutput`]
//!   becomes a Chrome-trace / Perfetto JSON document with per-node
//!   tracks, phase-annotated run slices, and send→receive flow arrows
//!   that resolve to individual envelopes via the reliable layer's
//!   per-link sequence numbers.
//! * [`json`] — the dependency-free JSON model, writer, and parser the
//!   pipeline is built on (the container has no registry access, so no
//!   serde).
//! * [`blame`] — the causal blame engine: an exact partition of a
//!   run's makespan, and of its logged bytes, by coherence object.
//! * [`report`] — the paper-artifact pipeline: run the full evaluation
//!   matrix, render the Table 1–2 / Figure 4–5 / blame / traffic
//!   Markdown for `EXPERIMENTS.md`, and compare the machine-readable
//!   report with a committed golden, exactly.
//!
//! The `report` binary (`cargo run --release -p obsv --bin report`) is
//! the one command: it checks both goldens and the tables — the smoke
//! golden's chaos, two-crash and torn/rotted-log cells are the
//! determinism proof, run in tier-1 by `tests/determinism.rs` — and
//! writes the full blame and phases documents (`--blame DIR`) and a
//! Chrome trace (`--trace PATH`) on request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod chrome;
pub mod json;
pub mod report;

pub use blame::{analyze, blame_json, checked_analysis, Blame, BlameObj};
pub use chrome::chrome_trace;
pub use json::Json;
pub use report::{collect, compare, phases_json, report_json, trace_fingerprint, Report, Scale};
