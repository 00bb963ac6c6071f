//! Seeded, deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] describes how the interconnect misbehaves: per-link
//! message-drop probability, duplicate delivery, per-message delay
//! jitter, and link partitions over virtual-time windows. A
//! [`DiskFaultPlan`] describes stable-storage write failures, transient
//! (a retry succeeds) and permanent (the device stops accepting writes
//! for good).
//!
//! All randomness comes from an in-crate SplitMix64 generator seeded
//! from the plan, with one independent stream per directed link (and
//! one per disk), so a given `(plan, program)` pair injects the same
//! faults in every run — a failing chaos schedule is reproducible from
//! its printed seed alone.
//!
//! # How drops become delays
//!
//! The transport models a *reliable delivery layer over a lossy wire*
//! (the paper's cluster runs UDP with timeout/retransmit on top). The
//! sender judges each transmission: every dropped attempt costs one
//! retransmission timeout (exponential backoff, capped), and the copy
//! that finally survives is the one delivered — so a "drop" manifests
//! as added arrival latency plus [`TraceKind::Retransmit`] /
//! [`TraceKind::Timeout`](crate::TraceKind) telemetry, never as a lost
//! protocol message. Duplicates are physically delivered twice with the
//! same sequence number and suppressed at the receiver. With
//! [`FaultPlan::none`] every judgment short-circuits: no PRNG draws, no
//! extra delay, no telemetry — the reliable layer costs nothing when no
//! faults are injected.

use crate::router::NodeId;
use crate::time::{SimDuration, SimTime};

/// Retransmission attempts are capped: after this many consecutive
/// simulated losses the reliable layer's persistence is assumed to win
/// (delivery is guaranteed, only delay varies).
pub const MAX_RETRANSMITS: u32 = 16;

/// Exponential backoff doubles the timeout per attempt up to this
/// exponent (2^6 = 64x the base RTO).
const MAX_BACKOFF_EXP: u32 = 6;

/// SplitMix64 — the same tiny generator `minicheck` uses, reimplemented
/// here so the substrate stays dependency-free.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n > 0), Lemire-style without bias for
    /// the small ranges used here.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A symmetric link partition: no traffic passes between `a` and `b`
/// while the sender's clock is inside `[from, until)`; sends during the
/// window are delivered after it heals (plus retransmission backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// One endpoint of the partitioned pair.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Virtual time the partition starts (inclusive).
    pub from: SimTime,
    /// Virtual time the partition heals (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Does this partition block a `src -> dst` send at `at`?
    fn blocks(&self, src: NodeId, dst: NodeId, at: SimTime) -> bool {
        let pair = (self.a == src && self.b == dst) || (self.a == dst && self.b == src);
        pair && at >= self.from && at < self.until
    }
}

/// A deterministic network-fault schedule, consulted per envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-link PRNG streams.
    pub seed: u64,
    /// Probability (per mille) that a transmission attempt is dropped.
    pub drop_per_mille: u16,
    /// Probability (per mille) that a delivery is duplicated.
    pub dup_per_mille: u16,
    /// Maximum uniform extra delay added to each delivery (0 = none).
    pub jitter_max: SimDuration,
    /// Link partitions over virtual-time windows.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// Base retransmission timeout charged per dropped attempt
    /// (doubling per attempt, capped at 2^6 x).
    pub const RTO: SimDuration = SimDuration::from_micros(500);

    /// A fault-free plan: every judgment short-circuits at zero cost.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            jitter_max: SimDuration::ZERO,
            partitions: Vec::new(),
        }
    }

    /// A lossy-network plan with the given seed: drops, duplicates and
    /// jitter on every link (no partitions).
    pub fn lossy(seed: u64, drop_per_mille: u16, dup_per_mille: u16) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille,
            dup_per_mille,
            jitter_max: SimDuration::from_micros(200),
            partitions: Vec::new(),
        }
    }

    /// True if this plan can never perturb a message.
    pub fn is_none(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.jitter_max == SimDuration::ZERO
            && self.partitions.is_empty()
    }

    /// Add a partition window to the plan.
    pub fn with_partition(mut self, p: Partition) -> FaultPlan {
        self.partitions.push(p);
        self
    }

    /// The heal time of the latest partition blocking `src -> dst` at
    /// `at`, if any.
    fn partitioned_until(&self, src: NodeId, dst: NodeId, at: SimTime) -> Option<SimTime> {
        self.partitions
            .iter()
            .filter(|p| p.blocks(src, dst, at))
            .map(|p| p.until)
            .max()
    }
}

/// Default fault-free plan.
impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// The sender-side verdict on one transmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendFate {
    /// Extra delivery delay (partition heal + retransmission backoff +
    /// jitter) on top of the nominal transfer time.
    pub delay: SimDuration,
    /// Number of dropped attempts the reliable layer retransmitted
    /// (each one is a timeout expiry at the sender).
    pub attempts: u32,
    /// Deliver a second physical copy (same sequence number).
    pub duplicate: bool,
}

/// Exact record of the per-link sequence numbers delivered so far.
///
/// Virtual-time-ordered delivery can legally reorder a link's messages
/// (a retransmitted envelope's arrival stamp may fall after a later
/// send's), so duplicate suppression must not assume monotone sequence
/// numbers: a highest-seen watermark would swallow the late original.
/// The dense prefix compacts into `low`; only the out-of-order frontier
/// lives in the set.
#[derive(Debug, Default)]
struct SeenSeqs {
    /// Every sequence number in `1..=low` has been delivered.
    low: u64,
    /// Delivered numbers above `low` (sparse, compacted eagerly).
    above: std::collections::BTreeSet<u64>,
}

impl SeenSeqs {
    /// Record `seq`; true if it was already delivered.
    fn check(&mut self, seq: u64) -> bool {
        if seq <= self.low || self.above.contains(&seq) {
            return true;
        }
        self.above.insert(seq);
        while self.above.remove(&(self.low + 1)) {
            self.low += 1;
        }
        false
    }
}

/// Per-node fault-injection state: the plan plus one PRNG stream and
/// one sequence counter per directed link.
///
/// Allocation of a link's next sequence number and the fate roll are
/// node-private (each node owns its outgoing `FaultState`), so
/// injecting faults adds nothing to the fabric's one lock hold per
/// send. Suppression on the receive side sees the rank-ordered
/// delivery stream, which is why [`SeenSeqs`] is an exact set rather
/// than a watermark.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    active: bool,
    /// One PRNG stream per destination (this node is the sender).
    link_rngs: Vec<SplitMix64>,
    /// Next sequence number per destination (starts at 1; 0 = unset).
    next_seq: Vec<u64>,
    /// Sequence numbers seen per source (duplicate suppression).
    seen: Vec<SeenSeqs>,
}

impl FaultState {
    pub(crate) fn new(me: NodeId, n_nodes: usize, plan: FaultPlan) -> FaultState {
        let active = !plan.is_none();
        let link_rngs = (0..n_nodes)
            .map(|dst| {
                // Distinct stream per directed link: fold (src, dst)
                // into the seed through one SplitMix64 round each.
                let mut s = SplitMix64::new(plan.seed);
                for _ in 0..=me {
                    s.next_u64();
                }
                SplitMix64::new(s.next_u64() ^ (dst as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        FaultState {
            plan,
            active,
            link_rngs,
            next_seq: vec![1; n_nodes],
            seen: (0..n_nodes).map(|_| SeenSeqs::default()).collect(),
        }
    }

    /// Allocate the next sequence number for a send to `dst`.
    pub(crate) fn next_seq(&mut self, dst: NodeId) -> u64 {
        let s = self.next_seq[dst];
        self.next_seq[dst] = s + 1;
        s
    }

    /// Record an arrival from `src`; returns true if it is a duplicate
    /// that must be suppressed.
    pub(crate) fn is_duplicate(&mut self, src: NodeId, seq: u64) -> bool {
        if seq == 0 {
            return false;
        }
        self.seen[src].check(seq)
    }

    /// Judge one `me -> dst` transmission put on the wire at `sent_at`.
    pub(crate) fn judge(&mut self, me: NodeId, dst: NodeId, sent_at: SimTime) -> SendFate {
        if !self.active {
            return SendFate::default();
        }
        let mut fate = SendFate::default();
        let rng = &mut self.link_rngs[dst];

        // Partition: the first attempt that can succeed is after heal;
        // every base-RTO expiry spent inside the window is a timeout.
        if let Some(until) = self.plan.partitioned_until(me, dst, sent_at) {
            let blocked = until - sent_at;
            fate.delay += blocked;
            let expiries = blocked.as_nanos().div_ceil(FaultPlan::RTO.as_nanos());
            fate.attempts += (expiries.min(MAX_RETRANSMITS as u64)) as u32;
        }

        // Random drops: each costs one (exponentially backed off) RTO.
        if self.plan.drop_per_mille > 0 {
            while fate.attempts < MAX_RETRANSMITS
                && rng.below(1000) < self.plan.drop_per_mille as u64
            {
                let exp = fate.attempts.min(MAX_BACKOFF_EXP);
                fate.delay += SimDuration(FaultPlan::RTO.as_nanos() << exp);
                fate.attempts += 1;
            }
        }

        // Delay jitter on the surviving copy.
        if self.plan.jitter_max > SimDuration::ZERO {
            fate.delay += SimDuration(rng.below(self.plan.jitter_max.as_nanos() + 1));
        }

        // Duplicate delivery of the surviving copy.
        if self.plan.dup_per_mille > 0 {
            fate.duplicate = rng.below(1000) < self.plan.dup_per_mille as u64;
        }
        fate
    }
}

/// A deterministic stable-storage fault schedule for one node's disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// Seed for the disk's PRNG stream.
    pub seed: u64,
    /// Probability (per mille) that a write needs one retry (the retry
    /// succeeds but costs a second full access).
    pub transient_per_mille: u16,
    /// If set, the Nth write access (1-based) fails permanently: that
    /// write and all later ones are lost, and the device reports
    /// itself failed. Reads of previously persisted data still work
    /// (the paper's "log disk gone" degradation, not media loss).
    pub fail_after_writes: Option<u64>,
    /// Probability (per mille) that a persisted record suffers latent
    /// bit rot: one seeded bit of the stored copy is flipped. The rot
    /// is injected at persist time (deterministic regardless of read
    /// order) but — like real media decay — only *detected* when a
    /// recovery scan verifies the record's frame CRC.
    pub corrupt_per_mille: u16,
    /// If set, the device holds at most this many bytes across all
    /// streams: a flush that would exceed the bound is refused in full
    /// and the device reports itself full until a truncation frees
    /// space (the deterministic `LogDeviceFull` condition).
    pub capacity_bytes: Option<u64>,
}

impl DiskFaultPlan {
    /// A fault-free disk schedule.
    pub fn none() -> DiskFaultPlan {
        DiskFaultPlan {
            seed: 0,
            transient_per_mille: 0,
            fail_after_writes: None,
            corrupt_per_mille: 0,
            capacity_bytes: None,
        }
    }

    /// Transient-only schedule: each write retries with the given
    /// probability, no permanent failure.
    pub fn transient(seed: u64, per_mille: u16) -> DiskFaultPlan {
        DiskFaultPlan {
            transient_per_mille: per_mille,
            ..DiskFaultPlan::none_with_seed(seed)
        }
    }

    /// Permanent failure at the `n`th write (1-based).
    pub fn permanent_at(n: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            fail_after_writes: Some(n),
            ..DiskFaultPlan::none()
        }
    }

    /// Latent bit rot: each persisted record is silently damaged with
    /// the given probability (detected later by frame CRC scans).
    pub fn bit_rot(seed: u64, per_mille: u16) -> DiskFaultPlan {
        DiskFaultPlan {
            corrupt_per_mille: per_mille,
            ..DiskFaultPlan::none_with_seed(seed)
        }
    }

    /// Bound the device's total capacity in bytes.
    pub fn with_capacity(mut self, bytes: u64) -> DiskFaultPlan {
        self.capacity_bytes = Some(bytes);
        self
    }

    fn none_with_seed(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            ..DiskFaultPlan::none()
        }
    }

    /// True if this plan can never perturb a write.
    pub fn is_none(&self) -> bool {
        self.transient_per_mille == 0
            && self.fail_after_writes.is_none()
            && self.corrupt_per_mille == 0
            && self.capacity_bytes.is_none()
    }
}

impl Default for DiskFaultPlan {
    fn default() -> DiskFaultPlan {
        DiskFaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_judges_clean() {
        let mut st = FaultState::new(0, 4, FaultPlan::none());
        for dst in 1..4 {
            let fate = st.judge(0, dst, SimTime(12345));
            assert_eq!(fate, SendFate::default());
        }
    }

    #[test]
    fn judgments_are_deterministic_per_seed() {
        let plan = FaultPlan::lossy(42, 100, 50);
        let mut a = FaultState::new(0, 4, plan.clone());
        let mut b = FaultState::new(0, 4, plan);
        for i in 0..200u64 {
            let t = SimTime(i * 1000);
            assert_eq!(a.judge(0, 1, t), b.judge(0, 1, t));
        }
    }

    #[test]
    fn different_links_draw_different_streams() {
        let plan = FaultPlan::lossy(7, 500, 0);
        let mut st = FaultState::new(0, 3, plan);
        let a: Vec<_> = (0..50).map(|_| st.judge(0, 1, SimTime::ZERO)).collect();
        let b: Vec<_> = (0..50).map(|_| st.judge(0, 2, SimTime::ZERO)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn drops_add_backoff_delay() {
        // 100% drop rate: every judgment maxes out retransmissions.
        let plan = FaultPlan {
            drop_per_mille: 1000,
            ..FaultPlan::lossy(1, 1000, 0)
        };
        let mut st = FaultState::new(0, 2, plan);
        let fate = st.judge(0, 1, SimTime::ZERO);
        assert_eq!(fate.attempts, MAX_RETRANSMITS);
        assert!(fate.delay >= FaultPlan::RTO);
    }

    #[test]
    fn partition_delays_until_heal() {
        let plan = FaultPlan::none().with_partition(Partition {
            a: 0,
            b: 1,
            from: SimTime(1000),
            until: SimTime(5000),
        });
        let mut st = FaultState::new(0, 2, plan);
        let fate = st.judge(0, 1, SimTime(2000));
        assert!(fate.delay >= SimDuration(3000));
        assert!(fate.attempts > 0);
        // Outside the window: clean.
        let fate = st.judge(0, 1, SimTime(6000));
        assert_eq!(fate, SendFate::default());
    }

    #[test]
    fn duplicate_suppression_tracks_per_source() {
        let mut st = FaultState::new(0, 3, FaultPlan::none());
        assert!(!st.is_duplicate(1, 1));
        assert!(st.is_duplicate(1, 1));
        assert!(!st.is_duplicate(2, 1));
        assert!(!st.is_duplicate(1, 2));
        assert!(st.is_duplicate(1, 2));
        // Unsequenced legacy envelopes are never suppressed.
        assert!(!st.is_duplicate(1, 0));
    }

    /// Virtual-time-ordered delivery can reorder a link (a delayed
    /// retransmission lands after a later send): the late original must
    /// NOT be mistaken for a duplicate, while a true duplicate of it
    /// still is.
    #[test]
    fn out_of_order_originals_are_not_suppressed() {
        let mut st = FaultState::new(0, 2, FaultPlan::none());
        assert!(!st.is_duplicate(1, 2));
        assert!(!st.is_duplicate(1, 3));
        assert!(!st.is_duplicate(1, 1)); // late original, not a dup
        assert!(st.is_duplicate(1, 1)); // its second copy is
        assert!(st.is_duplicate(1, 3));
        assert!(!st.is_duplicate(1, 4));
    }

    #[test]
    fn seq_numbers_are_per_destination() {
        let mut st = FaultState::new(0, 2, FaultPlan::none());
        assert_eq!(st.next_seq(1), 1);
        assert_eq!(st.next_seq(1), 2);
        assert_eq!(st.next_seq(0), 1);
    }
}
