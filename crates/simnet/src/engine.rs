//! The structured run-telemetry stream.
//!
//! Every coherence-relevant action a DSM node takes emits a
//! [`TraceEvent`] (page fault, fetch, diff flush, write notice, log
//! append/flush, lock/barrier phase, crash/recovery step), and the
//! per-node accounting — every clock advance is charged to one
//! category — rolls up into a [`PhaseBreakdown`] whose components sum
//! exactly to the node's finish time.

use crate::router::NodeId;
use crate::stats::NodeStats;
use crate::time::{SimDuration, SimTime};

/// One structured telemetry record: something coherence-relevant
/// happened on `node` at virtual time `at`.
///
/// Events are stamped with the node's own clock at emission, so the
/// per-node stream is nondecreasing in `at` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at the emitting node.
    pub at: SimTime,
    /// The emitting node.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

/// The coherence object a logged record belongs to: what a
/// [`TraceKind::LogAppend`] is *about*. The blame engine keys its
/// per-object log-byte attribution on this tag; `Meta` marks protocol
/// bookkeeping that belongs to no single page, lock, or barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogObj {
    /// The record carries (part of) one page's data or diff.
    Page {
        /// Page id.
        page: u32,
    },
    /// The record describes a lock-acquire synchronization episode.
    Lock {
        /// Lock id.
        lock: u32,
    },
    /// The record describes a barrier synchronization episode.
    Barrier {
        /// Barrier episode.
        epoch: u32,
    },
    /// Protocol bookkeeping attributable to no single object
    /// (framing overhead assigned to whole-message records, etc.).
    Meta,
}

/// The kind of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A read page-protection fault was taken.
    ReadFault {
        /// Faulting page.
        page: u32,
    },
    /// A write page-protection fault was taken.
    WriteFault {
        /// Faulting page.
        page: u32,
    },
    /// A full page copy was fetched from another node.
    PageFetch {
        /// Fetched page.
        page: u32,
        /// Node the copy came from (home, or owner of the base copy).
        from: NodeId,
        /// Virtual nanoseconds the faulting node stalled, request to
        /// installed copy (the blame engine's fetch wait-span).
        wait_ns: u64,
    },
    /// Diffs for one closed interval were flushed to a remote node.
    DiffFlush {
        /// Destination: the home of the diffed pages.
        to: NodeId,
        /// Encoded diff payload bytes.
        bytes: u64,
    },
    /// Write notices from a remote interval were applied locally.
    NoticesApplied {
        /// Number of notices applied.
        count: u32,
    },
    /// A record was appended to the volatile (in-memory) log.
    LogAppend {
        /// Encoded record bytes.
        bytes: u64,
        /// The coherence object the record is about (multi-object
        /// records emit one `LogAppend` per object, bytes split by
        /// encoded size, so per-object attribution stays exact).
        obj: LogObj,
    },
    /// The volatile log was flushed to stable storage.
    LogFlush {
        /// Bytes written.
        bytes: u64,
        /// True if the write was overlapped with communication (its
        /// latency charged only where it exceeded the wait it hid
        /// behind).
        overlapped: bool,
    },
    /// A coordinated checkpoint was written to stable storage, with
    /// its compaction effect.
    Checkpoint {
        /// Bytes written.
        bytes: u64,
        /// Page images written by this checkpoint.
        pages: u32,
        /// Superseded page images dropped from `CKPT_PAGES`.
        compacted: u32,
    },
    /// A lock was acquired (notices from the grant already applied).
    LockAcquire {
        /// Lock id.
        lock: u32,
        /// Virtual nanoseconds from lock request to applied grant (the
        /// blame engine's lock wait-span).
        wait_ns: u64,
    },
    /// A lock was released.
    LockRelease {
        /// Lock id.
        lock: u32,
    },
    /// The lock manager granted `lock` to `to`. Emitted manager-side so
    /// the blame engine knows *who to blame* for the grantee's wait:
    /// `holder` is the previous grantee (the node whose release this
    /// grant waited on); `holder == to` means the grant was uncontended.
    LockGranted {
        /// Lock id.
        lock: u32,
        /// The node the grant went to.
        to: NodeId,
        /// The previous grantee (equals `to` when uncontended).
        holder: NodeId,
    },
    /// The node arrived at a barrier (interval closed, diffs flushed).
    BarrierEnter {
        /// Barrier episode.
        epoch: u32,
    },
    /// The node was released from a barrier.
    BarrierExit {
        /// Barrier episode.
        epoch: u32,
    },
    /// The barrier manager released episode `epoch`. Emitted
    /// manager-side once per episode so the blame engine can name the
    /// straggler: every other node's barrier wait is attributable to
    /// the last arrival.
    BarrierReleased {
        /// Barrier episode.
        epoch: u32,
        /// The last node to arrive (deterministic: arrivals are
        /// consumed in virtual-time order).
        straggler: NodeId,
        /// Virtual nanoseconds between the first and last arrival.
        spread_ns: u64,
    },
    /// An interval close stalled waiting for diff-flush acks. Emitted
    /// by the writer after the last ack lands; `home` is the node whose
    /// ack arrived last (the slowest home — the blame target).
    FlushAckWait {
        /// The home whose ack completed the wait.
        home: NodeId,
        /// Virtual nanoseconds from the end of the interval's sends
        /// (and of the log write issued with them) to the last ack.
        wait_ns: u64,
    },
    /// The node crashed (volatile state lost).
    Crash,
    /// Log replay began.
    RecoveryBegin,
    /// One logged synchronization episode was replayed.
    RecoveryReplay {
        /// Write notices reapplied by this episode.
        notices: u32,
    },
    /// Log replay finished; the node resumed live service.
    RecoveryEnd,
    /// A retransmission timeout expired while sending to `to` (the
    /// reliable layer's timer fired at least once for one send).
    Timeout {
        /// Destination of the delayed transmission.
        to: NodeId,
    },
    /// The reliable layer retransmitted a dropped message.
    Retransmit {
        /// Destination of the retransmitted message.
        to: NodeId,
        /// Number of dropped attempts before delivery succeeded.
        attempts: u32,
    },
    /// A duplicate delivery was suppressed by sequence number.
    DupSuppressed {
        /// Sender whose duplicate was discarded.
        from: NodeId,
    },
    /// This node's log device failed permanently; logging stopped and
    /// its fault tolerance degraded to re-execution.
    LogDeviceFailed,
    /// Recovery ran without a usable log (device failed before the
    /// crash): only the persisted log prefix was replayed.
    RecoveryDegraded,
    /// A protocol message left this node. Together with the matching
    /// [`MsgRecv`](TraceKind::MsgRecv) at the destination (same link,
    /// same per-link sequence number) this forms one causal edge of the
    /// run's message graph — the basis for exported trace flows.
    MsgSend {
        /// Destination node.
        to: NodeId,
        /// Per-link sequence number stamped by the reliable layer.
        seq: u64,
        /// Encoded wire bytes of the payload.
        bytes: u32,
        /// Stable payload-kind label (see [`WireSized::msg_label`](crate::WireSized::msg_label)).
        msg: &'static str,
    },
    /// A protocol message was accepted at this node (duplicates are
    /// suppressed before this event fires). Pairs with the `MsgSend` of
    /// the same `(sender, receiver, seq)` triple.
    MsgRecv {
        /// Originating node.
        from: NodeId,
        /// Per-link sequence number from the sender's reliable layer.
        seq: u64,
        /// Stable payload-kind label (see [`WireSized::msg_label`](crate::WireSized::msg_label)).
        msg: &'static str,
    },
    /// The log device hit its capacity bound: the flush was refused and
    /// logging is paused until a checkpoint truncates the log.
    LogDeviceFull,
    /// A recovery scan found a torn tail (mid-flush crash): the stream
    /// was cut to its longest verified prefix.
    TornTailDetected {
        /// The damaged stable stream.
        stream: &'static str,
        /// Records in the verified prefix that was salvaged.
        salvaged: u32,
        /// Records discarded (the torn frame and everything after it).
        discarded: u32,
    },
    /// A recovery scan found a frame whose CRC (or magic) check failed:
    /// latent bit rot or a garbled write.
    CrcMismatch {
        /// The damaged stable stream.
        stream: &'static str,
    },
    /// A stable stream was cut down to a verified prefix (salvage
    /// repair) — distinct from the free post-checkpoint truncation.
    LogTruncated {
        /// The repaired stream.
        stream: &'static str,
        /// Records surviving the cut.
        records: u32,
    },
    /// A recovering home whose log was damaged refetched the updates
    /// its pages were missing from the surviving writers' stable logs.
    HomeRepair {
        /// Missing write notices reconciled against the release history.
        notices: u32,
        /// Logged diffs actually fetched and re-applied.
        diffs: u32,
    },
    /// A recovering node whose log lost its tail synthesized the missing
    /// barrier `Sync` records from the barrier manager's release history
    /// so replay extends to the true pre-crash horizon.
    SyncSynthesized {
        /// Barrier records appended to the replay sequence.
        records: u32,
    },
    /// A demand fault's batched request carried history-predicted extra
    /// pages (emitted by the faulting node, once per batch).
    PrefetchIssued {
        /// The demand-faulting page the batch piggybacked on.
        page: u32,
        /// Predicted extra pages requested alongside it.
        count: u32,
    },
    /// A predicted copy was touched while still valid: the fetch round
    /// trip this access would have stalled on was hidden entirely.
    PrefetchHit {
        /// The page whose fault was avoided.
        page: u32,
    },
    /// A predicted copy was invalidated by a write notice before its
    /// first use: the prediction bought nothing but bytes.
    PrefetchWasted {
        /// The invalidated predicted page.
        page: u32,
    },
}

impl TraceKind {
    /// Stable machine-readable label for this event kind (used by the
    /// JSON telemetry emitters).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::ReadFault { .. } => "read_fault",
            TraceKind::WriteFault { .. } => "write_fault",
            TraceKind::PageFetch { .. } => "page_fetch",
            TraceKind::DiffFlush { .. } => "diff_flush",
            TraceKind::NoticesApplied { .. } => "notices_applied",
            TraceKind::LogAppend { .. } => "log_append",
            TraceKind::LogFlush { .. } => "log_flush",
            TraceKind::Checkpoint { .. } => "checkpoint",
            TraceKind::LockAcquire { .. } => "lock_acquire",
            TraceKind::LockRelease { .. } => "lock_release",
            TraceKind::LockGranted { .. } => "lock_granted",
            TraceKind::BarrierEnter { .. } => "barrier_enter",
            TraceKind::BarrierExit { .. } => "barrier_exit",
            TraceKind::BarrierReleased { .. } => "barrier_released",
            TraceKind::FlushAckWait { .. } => "flush_ack_wait",
            TraceKind::Crash => "crash",
            TraceKind::RecoveryBegin => "recovery_begin",
            TraceKind::RecoveryReplay { .. } => "recovery_replay",
            TraceKind::RecoveryEnd => "recovery_end",
            TraceKind::Timeout { .. } => "timeout",
            TraceKind::Retransmit { .. } => "retransmit",
            TraceKind::DupSuppressed { .. } => "dup_suppressed",
            TraceKind::LogDeviceFailed => "log_device_failed",
            TraceKind::RecoveryDegraded => "recovery_degraded",
            TraceKind::MsgSend { .. } => "msg_send",
            TraceKind::MsgRecv { .. } => "msg_recv",
            TraceKind::LogDeviceFull => "log_device_full",
            TraceKind::TornTailDetected { .. } => "torn_tail_detected",
            TraceKind::CrcMismatch { .. } => "crc_mismatch",
            TraceKind::LogTruncated { .. } => "log_truncated",
            TraceKind::HomeRepair { .. } => "home_repair",
            TraceKind::SyncSynthesized { .. } => "sync_synthesized",
            TraceKind::PrefetchIssued { .. } => "prefetch_issued",
            TraceKind::PrefetchHit { .. } => "prefetch_hit",
            TraceKind::PrefetchWasted { .. } => "prefetch_wasted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every `TraceKind` variant. `ordinal` below is a
    /// wildcard-free match, so adding a variant without extending this
    /// list fails to compile rather than silently escaping the label
    /// checks (the report keys on these strings).
    fn every_kind() -> Vec<TraceKind> {
        vec![
            TraceKind::ReadFault { page: 1 },
            TraceKind::WriteFault { page: 1 },
            TraceKind::PageFetch {
                page: 1,
                from: 0,
                wait_ns: 1,
            },
            TraceKind::DiffFlush { to: 0, bytes: 8 },
            TraceKind::NoticesApplied { count: 1 },
            TraceKind::LogAppend {
                bytes: 8,
                obj: LogObj::Page { page: 1 },
            },
            TraceKind::LogFlush {
                bytes: 8,
                overlapped: false,
            },
            TraceKind::Checkpoint {
                bytes: 8,
                pages: 1,
                compacted: 1,
            },
            TraceKind::LockAcquire {
                lock: 1,
                wait_ns: 1,
            },
            TraceKind::LockRelease { lock: 1 },
            TraceKind::LockGranted {
                lock: 1,
                to: 1,
                holder: 0,
            },
            TraceKind::BarrierEnter { epoch: 1 },
            TraceKind::BarrierExit { epoch: 1 },
            TraceKind::BarrierReleased {
                epoch: 1,
                straggler: 0,
                spread_ns: 1,
            },
            TraceKind::FlushAckWait {
                home: 0,
                wait_ns: 1,
            },
            TraceKind::Crash,
            TraceKind::RecoveryBegin,
            TraceKind::RecoveryReplay { notices: 1 },
            TraceKind::RecoveryEnd,
            TraceKind::Timeout { to: 0 },
            TraceKind::Retransmit { to: 0, attempts: 1 },
            TraceKind::DupSuppressed { from: 0 },
            TraceKind::LogDeviceFailed,
            TraceKind::RecoveryDegraded,
            TraceKind::MsgSend {
                to: 0,
                seq: 1,
                bytes: 8,
                msg: "m",
            },
            TraceKind::MsgRecv {
                from: 0,
                seq: 1,
                msg: "m",
            },
            TraceKind::LogDeviceFull,
            TraceKind::TornTailDetected {
                stream: "s",
                salvaged: 1,
                discarded: 1,
            },
            TraceKind::CrcMismatch { stream: "s" },
            TraceKind::LogTruncated {
                stream: "s",
                records: 1,
            },
            TraceKind::HomeRepair {
                notices: 1,
                diffs: 1,
            },
            TraceKind::SyncSynthesized { records: 1 },
            TraceKind::PrefetchIssued { page: 1, count: 1 },
            TraceKind::PrefetchHit { page: 1 },
            TraceKind::PrefetchWasted { page: 1 },
        ]
    }

    fn ordinal(k: &TraceKind) -> usize {
        match k {
            TraceKind::ReadFault { .. } => 0,
            TraceKind::WriteFault { .. } => 1,
            TraceKind::PageFetch { .. } => 2,
            TraceKind::DiffFlush { .. } => 3,
            TraceKind::NoticesApplied { .. } => 4,
            TraceKind::LogAppend { .. } => 5,
            TraceKind::LogFlush { .. } => 6,
            TraceKind::Checkpoint { .. } => 7,
            TraceKind::LockAcquire { .. } => 8,
            TraceKind::LockRelease { .. } => 9,
            TraceKind::LockGranted { .. } => 10,
            TraceKind::BarrierEnter { .. } => 11,
            TraceKind::BarrierExit { .. } => 12,
            TraceKind::BarrierReleased { .. } => 13,
            TraceKind::FlushAckWait { .. } => 14,
            TraceKind::Crash => 15,
            TraceKind::RecoveryBegin => 16,
            TraceKind::RecoveryReplay { .. } => 17,
            TraceKind::RecoveryEnd => 18,
            TraceKind::Timeout { .. } => 19,
            TraceKind::Retransmit { .. } => 20,
            TraceKind::DupSuppressed { .. } => 21,
            TraceKind::LogDeviceFailed => 22,
            TraceKind::RecoveryDegraded => 23,
            TraceKind::MsgSend { .. } => 24,
            TraceKind::MsgRecv { .. } => 25,
            TraceKind::LogDeviceFull => 26,
            TraceKind::TornTailDetected { .. } => 27,
            TraceKind::CrcMismatch { .. } => 28,
            TraceKind::LogTruncated { .. } => 29,
            TraceKind::HomeRepair { .. } => 30,
            TraceKind::SyncSynthesized { .. } => 31,
            TraceKind::PrefetchIssued { .. } => 32,
            TraceKind::PrefetchHit { .. } => 33,
            TraceKind::PrefetchWasted { .. } => 34,
        }
    }

    #[test]
    fn every_variant_has_a_unique_snake_case_label() {
        let kinds = every_kind();
        // The sample list covers each variant exactly once.
        let mut seen = vec![false; kinds.len()];
        for k in &kinds {
            let i = ordinal(k);
            assert!(!seen[i], "variant {i} sampled twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "some variant never sampled");
        // Labels are non-empty, snake_case, and pairwise distinct.
        let mut labels: Vec<&'static str> = kinds.iter().map(|k| k.label()).collect();
        for l in &labels {
            assert!(!l.is_empty());
            assert!(
                l.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "label {l:?} is not snake_case"
            );
            assert!(!l.starts_with('_') && !l.ends_with('_'), "label {l:?}");
        }
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate trace-kind labels");
    }
}

/// Where one node's virtual time went, as a partition of its finish
/// time: `compute + wait + disk + hidden` equals the node's final clock
/// exactly (every clock advance in the engine is charged to exactly one
/// category).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Application arithmetic plus protocol CPU overhead.
    pub compute: SimDuration,
    /// Blocked on remote replies or synchronization, not counting the
    /// portion that hid overlapped disk writes.
    pub wait: SimDuration,
    /// Stalled on stable-storage accesses (synchronous log/checkpoint
    /// writes and backpressure from a busy disk).
    pub disk: SimDuration,
    /// Disk work hidden behind communication wait (the CCL overlap win:
    /// this portion of the wait was doing useful logging).
    pub hidden: SimDuration,
}

impl PhaseBreakdown {
    /// Partition `stats`' time counters into phases.
    ///
    /// Overlapped disk time is carved out of the wait that hid it, so
    /// the four components still sum to the node's finish time.
    ///
    /// `stats` is fully destructured (no `..` rest pattern): adding a
    /// `NodeStats` field without deciding whether it belongs in the
    /// phase partition is a compile error here, which is what keeps the
    /// `compute + wait + disk + hidden == finish` invariant honest.
    pub fn from_stats(stats: &NodeStats) -> PhaseBreakdown {
        let NodeStats {
            compute_time,
            wait_time,
            disk_time,
            disk_time_overlapped,
            // Event counters: no time dimension, nothing to partition.
            msgs_sent: _,
            msgs_recv: _,
            bytes_sent: _,
            bytes_recv: _,
            read_faults: _,
            write_faults: _,
            page_fetches: _,
            prefetch_issued: _,
            prefetch_hits: _,
            prefetch_wasted: _,
            home_migrations: _,
            msgs_by_kind: _,
            bytes_by_kind: _,
            diffs_created: _,
            diff_bytes: _,
            twins_created: _,
            log_flushes: _,
            log_bytes: _,
            lock_acquires: _,
            barriers: _,
            timeouts: _,
            retransmits: _,
            dups_suppressed: _,
            sends_to_stopped: _,
            sched_stalls: _,
            recovery_stalls: _,
            recovery_traps: _,
        } = *stats;
        let hidden = disk_time_overlapped.min(wait_time);
        PhaseBreakdown {
            compute: compute_time,
            wait: wait_time.saturating_sub(hidden),
            disk: disk_time,
            hidden,
        }
    }

    /// Sum of all components (equals the node's finish time).
    pub fn total(&self) -> SimDuration {
        self.compute + self.wait + self.disk + self.hidden
    }
}
