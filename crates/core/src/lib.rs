//! # ccl-core — recoverable home-based software DSM
//!
//! The public API of the reproduction of *"Coherence-Centric Logging and
//! Recovery for Home-Based Software Distributed Shared Memory"*
//! (Kongmunvattana & Tzeng, ICPP 1999): a home-based lazy-release-
//! consistency DSM over a simulated cluster, with pluggable fault
//! tolerance — no logging, traditional message logging (ML), or the
//! paper's coherence-centric logging (CCL) with prefetch-based recovery.
//!
//! ```
//! use ccl_core::{run_program, ClusterSpec, Protocol};
//!
//! let spec = ClusterSpec::new(4, 16)
//!     .with_page_size(256)
//!     .with_protocol(Protocol::Ccl);
//! let out = run_program(spec, |dsm| {
//!     let xs = dsm.alloc_blocked::<f64>(64);
//!     if dsm.me() == 0 {
//!         dsm.write(&xs, 0, 3.25);
//!     }
//!     dsm.barrier();
//!     dsm.read(&xs, 0)
//! });
//! assert!(out.nodes.iter().all(|n| n.result == 3.25));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsm;
mod runner;
mod shared;
mod spec;

pub use dsm::Dsm;
pub use runner::{run_program, NodeOutput, RunOutput};
pub use shared::{ArrayHandle, SharedVal, ELEM_BYTES};
pub use spec::{ClusterSpec, CrashPlan, FailureSpec, Protocol};

// Re-export the protocol-layer types the report pipeline needs.
pub use hlrc::{kind_label, MSG_KINDS};

// Re-export the substrate types reports and benches need.
pub use simnet::{
    recycle_trace_buffer, CostModel, DiskCounters, DiskFaultPlan, FaultPlan, Histogram, LogObj,
    NodeMetrics, NodeStats, Partition, SimDuration, SimTime, Trace, TraceEvent, TraceKind,
};
