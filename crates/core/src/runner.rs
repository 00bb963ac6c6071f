//! Program runner: launches a DSM program on the simulated cluster,
//! optionally injecting a crash and driving recovery.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use hlrc::{HlrcNode, Msg, NoLogging};
use simnet::{
    run_cluster, DiskCounters, NodeId, NodeMetrics, NodeStats, PhaseBreakdown, SimTime, Trace,
    TraceKind,
};

use crate::dsm::{CrashToken, Dsm};
use crate::spec::{ClusterSpec, Protocol};

/// Per-node outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct NodeOutput<R> {
    /// The node.
    pub node: NodeId,
    /// What the program returned on this node.
    pub result: R,
    /// Execution counters.
    pub stats: NodeStats,
    /// Stable-storage counters.
    pub disk: DiskCounters,
    /// Bytes resident in this node's ML/CCL log streams when the run
    /// ended. Unlike the cumulative `stats.log_bytes`, this shrinks at
    /// every checkpoint truncation — a cadence run keeps it bounded.
    pub log_bytes_on_disk: u64,
    /// Virtual time at which this node finished the program.
    pub finish: SimTime,
    /// Where this node's time went; the four components sum to
    /// `finish`.
    pub phases: PhaseBreakdown,
    /// Structured telemetry stream, in nondecreasing virtual-time
    /// order, packed; iterating it yields `TraceEvent`s by value.
    pub trace: Trace,
    /// Events dropped after the bounded trace sink filled (0 on every
    /// sized workload; nonzero means `trace` is a prefix).
    pub trace_dropped: u64,
    /// Hot-path distribution metrics (log-binned histograms).
    pub metrics: NodeMetrics,
    /// When the injected crash happened here (if this node failed).
    pub crashed_at: Option<SimTime>,
    /// When log replay ended and the node resumed live operation.
    pub recovery_exit: Option<SimTime>,
    /// Where the recovery window went: compute, wait and disk time
    /// between `crashed_at` and `recovery_exit`, summing to the window
    /// exactly (`hidden` is zero).
    pub recovery_phases: Option<PhaseBreakdown>,
}

/// Whole-cluster outcome.
#[derive(Debug, Clone)]
pub struct RunOutput<R> {
    /// Per-node outputs, in node order.
    pub nodes: Vec<NodeOutput<R>>,
}

impl<R> RunOutput<R> {
    /// The run's execution time: the latest finish across nodes.
    pub fn exec_time(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Cluster-wide merged statistics.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for n in &self.nodes {
            total.merge(&n.stats);
        }
        total
    }

    /// Cluster-wide merged histogram metrics.
    pub fn total_metrics(&self) -> NodeMetrics {
        let mut total = NodeMetrics::default();
        for n in &self.nodes {
            total.merge(&n.metrics);
        }
        total
    }

    /// Total log bytes flushed across the cluster.
    pub fn total_log_bytes(&self) -> u64 {
        self.total_stats().log_bytes
    }

    /// Total log flushes across the cluster.
    pub fn total_log_flushes(&self) -> u64 {
        self.total_stats().log_flushes
    }

    /// Mean flushed-log size in bytes across the cluster.
    pub fn mean_log_bytes(&self) -> f64 {
        self.total_stats().mean_log_flush_bytes()
    }

    /// The failed node's measured recovery time, if a crash was injected
    /// and recovery completed.
    pub fn recovery_time(&self) -> Option<simnet::SimDuration> {
        self.nodes.iter().find_map(|n| {
            let start = n.crashed_at?;
            let end = n.recovery_exit?;
            Some(end.saturating_since(start))
        })
    }

    /// Nodes whose log device failed permanently during the run.
    pub fn degraded_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| {
                n.trace
                    .iter()
                    .any(|ev| matches!(ev.kind, TraceKind::LogDeviceFailed))
            })
            .map(|n| n.node)
            .collect()
    }
}

/// Install (once) a panic hook that keeps the default behaviour for
/// real panics but stays silent for the internal crash-injection token,
/// whose unwind is expected and caught.
fn silence_crash_token_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashToken>().is_none() {
                default(info);
            }
        }));
    });
}

/// Run `program` on every node of the cluster described by `spec`.
///
/// The program is an ordinary function over [`Dsm`]; it must be
/// deterministic between synchronization events (fixed seeds, no wall
/// clock) and must perform the same allocation sequence on every node.
/// A final barrier is appended automatically so that every node stays
/// reachable until all protocol traffic has drained; no crash fires
/// there.
///
/// With a [`crate::CrashPlan`], the failed node's program unwinds at the
/// crash point, the node is rebuilt from what a crash keeps (its
/// machine, the page→home map, its peers' unconsumed requests and the
/// crash schedule; see [`hlrc::NodeInner::restart`]), and the program
/// re-runs from the start: with ML/CCL the re-run replays from the
/// stable log (fast, no synchronization waits) until the log is
/// exhausted, then resumes live execution; with `Protocol::None` the
/// re-run is a plain re-execution. A crash plan that never fired — its
/// node is outside the cluster, or its barrier is not one the program
/// reaches — fails the run once every node is done, and so does a
/// disk-fault plan for a node outside the cluster, before it starts.
pub fn run_program<R, F>(spec: ClusterSpec, program: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(&mut Dsm) -> R + Send + Sync,
{
    if !spec.failures.crashes.is_empty() {
        silence_crash_token_panics();
    }
    // A cadence barrier takes its checkpoint before a crash there fires,
    // and the checkpoint just cut the log: a torn tail would find no
    // flushed batch to tear and the crash would be a clean one.
    if let Some(n) = spec.checkpoint_every_barriers {
        for plan in &spec.failures.crashes {
            assert!(
                plan.torn_tail.is_none() || !plan.after_barriers.is_multiple_of(n),
                "{plan:?} tears a log that checkpoint cadence {n} cuts at that \
                 very barrier: there is no flushed batch left to tear"
            );
        }
    }
    for (node, plan) in &spec.failures.disk_faults {
        assert!(
            *node < spec.nodes,
            "{plan:?} is planned for node {node} of a {}-node cluster",
            spec.nodes
        );
    }
    let cfg = spec.dsm_config();
    let program = &program;
    let spec = &spec;
    // A home's served-image log is volatile, and a peer's recovery
    // implies the home survived — unless the schedule holds a second
    // crash. Only then does a recovering CCL home re-retain the images
    // its crash wiped (12.3 µs per home page and replayed write to it;
    // ROADMAP item 1 has what arming it on every run would move).
    // Logging and failure-free execution do not depend on the plan.
    let multi_crash = spec.failures.crashes.len() >= 2;
    let results = run_cluster::<Msg, _, _>(spec.nodes, spec.cost, move |mut ctx| {
        let id = ctx.id();
        if !spec.faults.is_none() {
            ctx.set_fault_plan(spec.faults.clone());
        }
        if let Some((_, plan)) = spec.failures.disk_faults.iter().find(|(n, _)| *n == id) {
            ctx.disk.set_faults(*plan);
        }
        // The node's fault-tolerance layer, built at start and again at
        // every crash: a restarted node keeps none of the dead one's.
        let protocol = || -> Box<dyn hlrc::FaultTolerance> {
            match spec.protocol {
                Protocol::None => Box::new(NoLogging),
                Protocol::Ml => Box::new(ftlog::MlLogger::new()),
                Protocol::Ccl if multi_crash => {
                    Box::new(ftlog::CclLogger::new().with_served_log_rebuild())
                }
                Protocol::Ccl => Box::new(ftlog::CclLogger::new()),
            }
        };
        let node = HlrcNode::new(ctx, cfg, protocol());
        let mut dsm = Dsm::new(
            node,
            spec.failures.crashes.clone(),
            spec.checkpoint_every_barriers,
        );
        if spec.failures.crashes.iter().any(|c| c.node == id) {
            return run_through_crashes(dsm, program, protocol);
        }
        let result = program(&mut dsm);
        finish(&mut dsm, result)
    });
    let (nodes, fired): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    for (i, plan) in spec.failures.crashes.iter().enumerate() {
        assert!(
            fired.iter().any(|f| f[i]),
            "{plan:?} never fired: its node must be one of the cluster's {}, and \
             its barrier one the program reaches (counted from 1 in each run \
             of the program; the runner's final barrier fires no crash)",
            spec.nodes
        );
    }
    RunOutput { nodes }
}

/// Run `program` on a node with crash events scheduled. Each fires
/// once; the program re-runs on the restarted node after every unwind
/// until it completes (several events at this node mean several
/// recoveries, possibly with another node's recovery in flight). Out of
/// line, so the whole nodes a restart moves take stack in no other
/// node's thread.
#[inline(never)]
fn run_through_crashes<R>(
    mut dsm: Dsm,
    program: &impl Fn(&mut Dsm) -> R,
    protocol: impl Fn() -> Box<dyn hlrc::FaultTolerance>,
) -> (NodeOutput<R>, Vec<bool>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| program(&mut dsm))) {
            Ok(result) => return finish(&mut dsm, result),
            Err(payload) => {
                if payload.downcast_ref::<CrashToken>().is_none() {
                    std::panic::resume_unwind(payload);
                }
                dsm = dsm.restart(protocol());
            }
        }
    }
}

/// The program returned `result` on `dsm`'s node: run the implicit final
/// barrier, which keeps managers and homes reachable until every node
/// has finished all its protocol traffic, and collect the node's output
/// and which crash plans it fired.
fn finish<R>(dsm: &mut Dsm, result: R) -> (NodeOutput<R>, Vec<bool>) {
    dsm.barrier_without_crash();
    let fired = std::mem::take(&mut dsm.fired);
    let inner = &mut dsm.node.inner;
    let log_bytes_on_disk = (inner.ctx.disk.stream_bytes(ftlog::ML_STREAM)
        + inner.ctx.disk.stream_bytes(ftlog::CCL_STREAM)) as u64;
    let output = NodeOutput {
        node: inner.me(),
        result,
        stats: inner.ctx.stats,
        disk: inner.ctx.disk.counters(),
        log_bytes_on_disk,
        finish: inner.ctx.now(),
        phases: inner.ctx.stats.phases(),
        trace: inner.ctx.take_trace(),
        trace_dropped: inner.ctx.trace_dropped(),
        metrics: inner.ctx.metrics.clone(),
        crashed_at: inner.ctx.crashed_at,
        recovery_exit: inner.ctx.recovery_exit,
        recovery_phases: inner.ctx.recovery_phases,
    };
    (output, fired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CrashPlan;

    fn tiny_spec(protocol: Protocol) -> ClusterSpec {
        ClusterSpec::new(3, 12)
            .with_page_size(256)
            .with_protocol(protocol)
    }

    fn counter_program(dsm: &mut Dsm) -> u64 {
        let arr = dsm.alloc::<u64>(8);
        for round in 0..4 {
            if dsm.me() == round % dsm.nodes() {
                let v = dsm.read(&arr, 0);
                dsm.write(&arr, 0, v + 1);
            }
            dsm.barrier();
        }
        dsm.read(&arr, 0)
    }

    #[test]
    fn all_protocols_agree_on_results() {
        for p in Protocol::ALL {
            let out = run_program(tiny_spec(p), counter_program);
            assert!(
                out.nodes.iter().all(|n| n.result == 4),
                "protocol {p:?} broke the program"
            );
        }
    }

    #[test]
    fn logging_protocols_actually_log() {
        let none = run_program(tiny_spec(Protocol::None), counter_program);
        let ml = run_program(tiny_spec(Protocol::Ml), counter_program);
        let ccl = run_program(tiny_spec(Protocol::Ccl), counter_program);
        assert_eq!(none.total_log_bytes(), 0);
        assert!(ml.total_log_bytes() > 0);
        assert!(ccl.total_log_bytes() > 0);
        assert!(
            ccl.total_log_bytes() < ml.total_log_bytes(),
            "CCL log ({}) must be smaller than ML log ({})",
            ccl.total_log_bytes(),
            ml.total_log_bytes()
        );
    }

    /// Every protocol the runner can select recovers a crashed node to
    /// the fault-free result.
    #[test]
    fn crash_recovery_preserves_results() {
        for protocol in Protocol::ALL {
            let spec = tiny_spec(protocol).with_crash(CrashPlan::new(1, 2));
            let out = run_program(spec, counter_program);
            assert!(
                out.nodes.iter().all(|n| n.result == 4),
                "{protocol:?}: {:?}",
                out.nodes.iter().map(|n| n.result).collect::<Vec<_>>()
            );
            assert!(out.recovery_time().is_some(), "{protocol:?}");
        }
    }

    /// The accounting invariant behind the phase breakdown: every clock
    /// advance in the engine is charged to exactly one category, so
    /// compute + wait + disk + hidden equals the node's finish time —
    /// under every protocol, crash or not.
    #[test]
    fn phase_breakdown_sums_to_finish_time() {
        let mut specs = Protocol::ALL.map(tiny_spec).to_vec();
        specs.push(tiny_spec(Protocol::Ccl).with_crash(CrashPlan::new(1, 2)));
        specs.push(tiny_spec(Protocol::Ml).with_crash(CrashPlan::new(1, 2)));
        for spec in specs.drain(..) {
            let label = format!(
                "{:?} crash={}",
                spec.protocol,
                !spec.failures.crashes.is_empty()
            );
            let out = run_program(spec, counter_program);
            for n in &out.nodes {
                assert_eq!(
                    n.phases.total().as_nanos(),
                    n.finish.as_nanos(),
                    "node {} phase sum deviates from finish ({label}): {:?}",
                    n.node,
                    n.phases
                );
            }
        }
    }

    /// Telemetry contract: each node's trace is nondecreasing in
    /// virtual time and tagged with the emitting node.
    #[test]
    fn trace_events_are_time_ordered_per_node() {
        let spec = tiny_spec(Protocol::Ccl).with_crash(CrashPlan::new(1, 2));
        let out = run_program(spec, counter_program);
        let mut total = 0;
        for n in &out.nodes {
            let mut last = simnet::SimTime::ZERO;
            for ev in &n.trace {
                assert_eq!(ev.node, n.node, "event from a foreign node in the stream");
                assert!(
                    ev.at >= last,
                    "node {} trace goes backwards: {:?} after {:?}",
                    n.node,
                    ev,
                    last
                );
                last = ev.at;
            }
            total += n.trace.len();
        }
        assert!(total > 0, "a CCL crash run must emit telemetry");
    }
}
