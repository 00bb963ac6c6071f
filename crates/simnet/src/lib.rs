//! # simnet — simulated cluster substrate for the CCL reproduction
//!
//! This crate stands in for the physical testbed of Kongmunvattana &
//! Tzeng's ICPP'99 paper (eight Sun Ultra-5 workstations on 100 Mbps
//! Ethernet with local disks): it provides
//!
//! * **virtual time** ([`SimTime`], [`SimDuration`]) — per-node clocks
//!   advanced by explicit, deterministic cost charges;
//! * **hardware cost models** ([`CostModel`]: network, disk, CPU),
//!   calibrated to the paper's 1999 hardware;
//! * **a message transport** ([`Endpoint`], [`Envelope`]) with
//!   share-nothing node isolation — every cross-node interaction is an
//!   explicit message, as over sockets;
//! * **simulated stable storage** ([`SimDisk`]) holding byte-exact log
//!   and checkpoint streams that survive a simulated node crash;
//! * **a node runtime** ([`NodeCtx`], [`run_cluster`]) running one OS
//!   thread per DSM process, with the receive, defer and crash/resume
//!   primitives a protocol's service loop is built from;
//! * **the structured telemetry stream** ([`TraceEvent`],
//!   [`PhaseBreakdown`]).
//!
//! Higher layers (`hlrc`, `ftlog`, `ccl-core`) implement the actual DSM
//! protocols on top of these primitives; `hlrc::HlrcNode` owns the
//! message pump and the reply-while-blocked loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod engine;
mod error;
mod fault;
mod metrics;
mod models;
mod node;
mod router;
mod stats;
mod time;
mod trace;

pub use disk::{DiskCounters, DiskRecord, LogScan, SimDisk};
pub use engine::{LogObj, PhaseBreakdown, TraceEvent, TraceKind};
pub use error::{SimError, SimResult};
pub use fault::{DiskFaultPlan, FaultPlan, Partition, SendFate, MAX_RETRANSMITS};
pub use metrics::{Histogram, NodeMetrics, HIST_BINS};
pub use models::{CostModel, CpuModel, DiskModel, NetworkModel};
pub use node::{run_cluster, NodeCtx};
pub use router::{make_endpoints, Endpoint, Envelope, NodeId, WireSized};
pub use stats::{NodeStats, TRAFFIC_KINDS};
pub use time::{SimDuration, SimTime};
pub use trace::{recycle_trace_buffer, Trace, TraceIter, DEFAULT_TRACE_CAPACITY};
