//! Cluster run specification: protocol selection and failure injection.

use hlrc::DsmConfig;
use simnet::{CostModel, DiskFaultPlan, FaultPlan, NodeId};

/// Which fault-tolerance protocol a run uses: the paper's three. Every
/// one of them can crash and recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// No logging — the paper's "None" baseline (re-execution on crash).
    None,
    /// Traditional message logging (§3.1).
    Ml,
    /// Coherence-centric logging (§3.2).
    Ccl,
}

impl Protocol {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::None => "none",
            Protocol::Ml => "ml",
            Protocol::Ccl => "ccl",
        }
    }

    /// Every protocol, in the order the paper's tables compare them.
    pub const ALL: [Protocol; 3] = [Protocol::None, Protocol::Ml, Protocol::Ccl];
}

/// Damage the crashing node's *last flushed log batch* at the moment
/// of the crash, modelling a power cut that lands mid-flush: a seeded
/// prefix of the batch persists intact, the next record is torn
/// (truncated short, or garbled by one bit when `garble` is set), and
/// the rest of the batch is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Garble one bit of the boundary record instead of truncating it.
    pub garble: bool,
    /// Seed choosing how much of the batch survives and where the
    /// damage lands (deterministic per seed).
    pub seed: u64,
}

/// Inject a crash of `node` immediately after it completes its
/// `after_barriers`-th barrier (a point where no locks are in flight,
/// matching the paper's crash-after-flush scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The node that fails.
    pub node: NodeId,
    /// Crash after this many completed barriers at that node (1-based).
    pub after_barriers: u64,
    /// When set, the crash lands mid-flush: the last flushed log batch
    /// is torn at a seeded point instead of persisting whole.
    pub torn_tail: Option<TornTail>,
}

impl CrashPlan {
    /// Crash `node` after `after_barriers` barriers.
    pub fn new(node: NodeId, after_barriers: u64) -> CrashPlan {
        CrashPlan {
            node,
            after_barriers,
            torn_tail: None,
        }
    }

    /// Make the crash land mid-flush: truncate the boundary record of
    /// the last flushed batch at a seeded point.
    pub fn with_torn_tail(mut self, seed: u64) -> CrashPlan {
        self.torn_tail = Some(TornTail {
            garble: false,
            seed,
        });
        self
    }

    /// Make the crash land mid-flush and flip one bit of the boundary
    /// record instead of truncating it (a torn sector that still has
    /// the right length).
    pub fn with_garbled_tail(mut self, seed: u64) -> CrashPlan {
        self.torn_tail = Some(TornTail { garble: true, seed });
        self
    }
}

/// Failure schedule for a run: any number of node crashes — including a
/// second crash of the same node after its first recovery, and
/// concurrent crashes of distinct nodes — plus per-node disk write-fault
/// plans. `after_barriers` counts barriers completed in the current
/// program incarnation, so a node that crashed and recovered counts from
/// zero again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSpec {
    /// Crash events, each fired at its barrier-completion point.
    pub crashes: Vec<CrashPlan>,
    /// Per-node disk write-fault schedules.
    pub disk_faults: Vec<(NodeId, DiskFaultPlan)>,
}

impl FailureSpec {
    /// No failures.
    pub fn none() -> FailureSpec {
        FailureSpec::default()
    }
}

/// Everything needed to launch one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of DSM processes (the paper uses 8).
    pub nodes: usize,
    /// Coherence granularity in bytes.
    pub page_size: usize,
    /// Size of the shared address space, in pages.
    pub shared_pages: u32,
    /// Fault-tolerance protocol.
    pub protocol: Protocol,
    /// Hardware cost model.
    pub cost: CostModel,
    /// Failure schedule (crashes and disk faults).
    pub failures: FailureSpec,
    /// Message-fault plan applied to every node's transport.
    pub faults: FaultPlan,
    /// Coordinated-checkpoint cadence: every node takes a checkpoint
    /// right after every `n`-th barrier (counted per program
    /// incarnation), truncating its ML/CCL logs and compacting the
    /// checkpoint page stream. The cadence is the only way a run takes
    /// a checkpoint: `None` means it takes none.
    pub checkpoint_every_barriers: Option<u64>,
}

impl ClusterSpec {
    /// A paper-like spec: 4 KB pages, no failures, no logging.
    pub fn new(nodes: usize, shared_pages: u32) -> ClusterSpec {
        ClusterSpec {
            nodes,
            page_size: 4096,
            shared_pages,
            protocol: Protocol::None,
            cost: CostModel::ULTRA5_CLUSTER,
            failures: FailureSpec::none(),
            faults: FaultPlan::none(),
            checkpoint_every_barriers: None,
        }
    }

    /// Select the fault-tolerance protocol.
    pub fn with_protocol(mut self, p: Protocol) -> ClusterSpec {
        self.protocol = p;
        self
    }

    /// Use a smaller page size (tests).
    pub fn with_page_size(mut self, bytes: usize) -> ClusterSpec {
        self.page_size = bytes;
        self
    }

    /// Add a crash event to the failure schedule.
    pub fn with_crash(mut self, plan: CrashPlan) -> ClusterSpec {
        self.failures.crashes.push(plan);
        self
    }

    /// Add a disk write-fault schedule at `node`.
    pub fn with_disk_fault(mut self, node: NodeId, plan: DiskFaultPlan) -> ClusterSpec {
        self.failures.disk_faults.push((node, plan));
        self
    }

    /// Set the message-fault plan (drops, duplicates, jitter,
    /// partitions), applied to every node's transport.
    pub fn with_faults(mut self, plan: FaultPlan) -> ClusterSpec {
        self.faults = plan;
        self
    }

    /// Take a coordinated checkpoint after every `n`-th barrier,
    /// truncating logs and compacting superseded checkpoint pages.
    pub fn with_checkpoint_cadence(mut self, n: u64) -> ClusterSpec {
        assert!(n > 0, "checkpoint cadence must be positive");
        self.checkpoint_every_barriers = Some(n);
        self
    }

    /// The derived HLRC configuration.
    pub fn dsm_config(&self) -> DsmConfig {
        DsmConfig::new(self.nodes, self.shared_pages).with_page_size(self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let spec = ClusterSpec::new(8, 64)
            .with_protocol(Protocol::Ccl)
            .with_page_size(512)
            .with_crash(CrashPlan::new(1, 3))
            .with_crash(CrashPlan::new(2, 5))
            .with_disk_fault(0, DiskFaultPlan::permanent_at(3))
            .with_faults(FaultPlan::lossy(7, 20, 5));
        assert_eq!(spec.protocol.label(), "ccl");
        assert_eq!(spec.page_size, 512);
        assert_eq!(spec.failures.crashes.len(), 2);
        assert_eq!(spec.failures.crashes[0].node, 1);
        assert_eq!(spec.failures.disk_faults.len(), 1);
        assert!(!spec.faults.is_none());
        let cfg = spec.dsm_config();
        assert_eq!(cfg.n_nodes, 8);
        assert_eq!(cfg.layout.page_size(), 512);
    }

    #[test]
    fn failure_spec_none_is_empty() {
        let none = FailureSpec::none();
        assert!(none.crashes.is_empty() && none.disk_faults.is_empty());
        assert_eq!(ClusterSpec::new(2, 4).failures, none);
        let spec = ClusterSpec::new(2, 4).with_disk_fault(1, DiskFaultPlan::transient(1, 10));
        assert_ne!(spec.failures, none);
    }

    #[test]
    fn torn_tail_and_cadence_builders() {
        let plain = CrashPlan::new(1, 3);
        assert_eq!(plain.torn_tail, None);
        let torn = CrashPlan::new(1, 3).with_torn_tail(7);
        assert_eq!(
            torn.torn_tail,
            Some(TornTail {
                garble: false,
                seed: 7
            })
        );
        let garbled = CrashPlan::new(1, 3).with_garbled_tail(9);
        assert_eq!(
            garbled.torn_tail,
            Some(TornTail {
                garble: true,
                seed: 9
            })
        );
        let spec = ClusterSpec::new(4, 16).with_checkpoint_cadence(2);
        assert_eq!(spec.checkpoint_every_barriers, Some(2));
        assert_eq!(ClusterSpec::new(4, 16).checkpoint_every_barriers, None);
    }

    #[test]
    fn table2_protocols() {
        assert_eq!(Protocol::ALL.map(|p| p.label()), ["none", "ml", "ccl"]);
    }
}
