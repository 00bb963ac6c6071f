//! The fault-tolerance hook interface.
//!
//! The HLRC protocol driver is written against this trait so that the
//! three protocols the paper compares — no logging, traditional message
//! logging (ML), and coherence-centric logging (CCL) — plug into the
//! *same* coherence code, differing only in what they record, when they
//! flush, and how they drive recovery. The coherence code has no
//! per-protocol branch and no knob that stands in for one: where a
//! protocol needs the substrate to behave differently (retain the pages
//! it serves) it says so through a hook here, next to the reason — a
//! constant of the protocol, not a mode of it. Every protocol fetches
//! the same way, predictions included: a predicted copy reaches
//! [`FaultTolerance::on_incoming`] at its first touch, so what a
//! protocol logs of the pages a node reads does not depend on how they
//! travelled. Each event crosses into this layer once: a home meets a
//! writer's diff flush through [`FaultTolerance::on_diff_flush`] alone,
//! before it applies the diffs, and what a protocol records of the
//! flush and whether the ack waits for a disk write is its whole answer
//! there. Implementations live in the `ftlog` crate; [`NoLogging`] (the
//! paper's "None" baseline) lives here.

use pagemem::{IntervalId, PageDiff, PageId, VClock};
use simnet::{Envelope, SimDuration};

use crate::msg::{Msg, WriteNotice};
use crate::node::NodeInner;
use crate::page_table::ServedCopies;

/// Which synchronization operation produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// A lock acquire (carrying the lock id).
    Acquire(u32),
    /// A barrier episode (carrying the epoch).
    Barrier(u32),
}

/// Outcome of a replayed synchronization step during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStep {
    /// The step was reconstructed from the log; execution may proceed.
    Replayed,
    /// The log is exhausted: the pre-crash state has been reached and
    /// the node must resume live protocol operation.
    LogExhausted,
}

/// Hooks the coherence protocol invokes on its fault-tolerance layer.
///
/// Failure-free hooks default to no-ops; recovery hooks default to
/// "not recovering". All byte accounting uses the real encoded sizes of
/// the objects involved, so log-size results are measurements, not
/// estimates.
#[allow(unused_variables)]
pub trait FaultTolerance: Send {
    /// What a home keeps of the page copies it serves — retain them or
    /// not, a constant of the protocol ([`ServedCopies`]). None and ML
    /// keep nothing beyond the frame ([`ServedCopies::Forget`], the
    /// default): every copy of a clean version is the home frame's
    /// buffer anyway, so every ML reader of one clean version logs the
    /// same allocation. CCL retains them
    /// ([`ServedCopies::Retain`]): the reply buffer of every version
    /// served stays in volatile memory ([`crate::ServedLog`]) so that a
    /// recovering peer's remote copies can be restored from them — CCL
    /// does not log the page replies a node receives, and a home's own
    /// writes to its pages produce no diffs in HLRC, so the states a
    /// peer fetched are reconstructible from nowhere else. Volatile is
    /// enough while the home survives, which a peer's recovery implies
    /// under the single-failure model; a home that crashed can re-form
    /// the log by its own replay
    /// ([`crate::PageTable::rebuild_served_logs`]). No answer costs
    /// anything on any clock: the buffer was built for the reply anyway.
    fn served_copies(&self) -> ServedCopies {
        ServedCopies::Forget
    }

    // ---- failure-free logging ----

    /// An incoming coherence message relevant to replay was received:
    /// page replies, lock grants, barrier releases (a home's diff
    /// flushes go to [`FaultTolerance::on_diff_flush`]). A
    /// predicted copy's [`Msg::PageReply`] comes at its first touch —
    /// one that is never touched never comes — so page replies arrive
    /// here exactly where replay will fault on their pages.
    fn on_incoming(&mut self, inner: &mut NodeInner, msg: &Msg) {}

    /// Write-invalidation notices were accepted at an acquire or barrier
    /// together with the piggybacked timestamp.
    fn on_notices(
        &mut self,
        inner: &mut NodeInner,
        kind: SyncKind,
        notices: &[WriteNotice],
        vc: &VClock,
    ) {
    }

    /// This (home) node is about to apply a writer's [`Msg::DiffFlush`]
    /// to its home copies — the "record of incoming updates" event of
    /// the paper. Called once per flush, before the diffs are applied.
    /// Returns the stable-storage flush the home charges before it
    /// acknowledges: the ack releases the writer's only other copy of
    /// the diffs, so a protocol whose log is the *sole* recovery source
    /// for the update (ML, which logs the whole message) makes the
    /// record durable first — a crash tearing the final flush then only
    /// ever loses records no peer acted on. CCL records the writer and
    /// the pages and returns zero: the writer's own stable log keeps the
    /// diffs, and recovery refetches them from there.
    fn on_diff_flush(&mut self, inner: &mut NodeInner, flush: &Msg) -> SimDuration {
        SimDuration::ZERO
    }

    /// This node created `diffs` at the end of interval `interval`.
    fn on_diffs_created(
        &mut self,
        inner: &mut NodeInner,
        interval: IntervalId,
        diffs: &[PageDiff],
    ) {
    }

    /// Stable-storage flush charged *before* the node sends its
    /// end-of-interval messages (ML flushes its volatile log here, fully
    /// on the critical path).
    fn flush_before_send(&mut self, inner: &mut NodeInner) -> SimDuration {
        SimDuration::ZERO
    }

    /// Stable-storage flush issued *right after* the diffs are sent
    /// (CCL flushes here). Returns its visible cost, charged at once,
    /// before the node waits for the diff acks: the write and the ack
    /// round trip overlap, and the node pays only the longer of the two.
    fn flush_after_send(&mut self, inner: &mut NodeInner) -> SimDuration {
        SimDuration::ZERO
    }

    /// A checkpoint is on the device (`ftlog::checkpoint` never calls
    /// this when it is not): truncate the log it replaces.
    fn on_checkpoint(&mut self, inner: &mut NodeInner) {}

    // ---- crash recovery ----

    /// Transition into recovery after a crash: restore the last
    /// checkpoint and build replay state from stable storage. Called
    /// once, on the layer built fresh for the restarted node
    /// ([`crate::HlrcNode::restart`]), whose protocol state holds nothing
    /// but the page→home map. Returns the application blob of that
    /// checkpoint, if there is one.
    fn begin_recovery(&mut self, inner: &mut NodeInner) -> Option<Vec<u8>> {
        None
    }

    /// Currently replaying from the log?
    fn in_recovery(&self) -> bool {
        false
    }

    /// Replay one synchronization operation — a lock acquire or a
    /// barrier episode — from the log.
    fn recovery_sync(&mut self, inner: &mut NodeInner, kind: SyncKind) -> RecoveryStep {
        RecoveryStep::LogExhausted
    }

    /// Service a page fault taken while replaying: a miss on a remote
    /// page, or the write-detection trap of a home page, which needs no
    /// data (CCL may learn there which home pages to stop trapping on).
    /// Returns [`RecoveryStep::LogExhausted`] if the log ran out, in
    /// which case the node leaves recovery and fetches live.
    fn recovery_fault(&mut self, inner: &mut NodeInner, page: PageId) -> RecoveryStep {
        assert!(
            inner.pages.is_home(page),
            "page fault in recovery without a recovery protocol"
        );
        RecoveryStep::Replayed
    }

    /// Last step of recovery, run right before the node goes live and
    /// the traffic deferred during replay is serviced. A protocol whose
    /// salvage scan found the log damaged repairs its home copies here
    /// (CCL reconciles the barrier manager's release history against
    /// its home versions and refetches the lost updates from the
    /// writers' stable logs) — after this returns, served pages must be
    /// current.
    fn finish_recovery(&mut self, inner: &mut NodeInner) {}

    /// Serve a surviving peer's request for logged diffs (the recovering
    /// node reconstructs remote copies from writers' stable logs).
    fn serve_logged_diffs(&mut self, inner: &mut NodeInner, env: &Envelope<Msg>) {
        // Without logs there is nothing to serve; reply empty so the
        // requester can fail loudly.
        if let Msg::LoggedDiffRequest { page, .. } = &env.payload {
            let done = inner.ctx.service_time(env);
            let _ = inner.ctx.send_from(
                done,
                env.src,
                Msg::LoggedDiffReply {
                    page: *page,
                    diffs: Vec::new(),
                },
            );
        }
    }
}

/// The paper's "None" baseline: no logging, no recovery support —
/// a failure means re-execution from the initial state.
#[derive(Debug, Default)]
pub struct NoLogging;

impl FaultTolerance for NoLogging {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_logging_defaults() {
        assert!(!NoLogging.in_recovery());
    }
}
