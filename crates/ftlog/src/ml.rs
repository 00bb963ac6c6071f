//! Traditional message logging (ML), §3.1 of the paper.
//!
//! ML follows the piecewise-deterministic model: every incoming message
//! that affects execution — full page copies fetched from homes, diffs
//! arriving at this home, and the lock-grant / barrier-release messages
//! carrying write-invalidation notices — is logged *in its entirety* in
//! volatile memory, and the volatile log is flushed to the local disk at
//! the next synchronization point, **before** the node communicates.
//! The flush is therefore fully on the critical path, and the log is
//! large (it contains whole pages), which is exactly the overhead the
//! paper measures against CCL.
//!
//! A page copy is logged when it is *consumed*, not when it arrives: a
//! demand reply at once, a predicted copy at its first touch, as the
//! `PageReply` it arrived in (the fetch path hands it over there). The
//! record lands where replay faults on the page, so replay reads it like
//! any demand reply, and a prediction never read is never logged — ML
//! fetches with the same predictors as every other protocol, and its
//! log holds the pages this node read, however they travelled.
//!
//! ML-recovery replays the logged messages in receipt order: each page
//! miss and each synchronization operation reads records from disk (one
//! read call per record, continuing the salvage scan — the "memory miss
//! idle time" and "high disk access latency" of §4.3), with no network
//! traffic at all.

use hlrc::{FaultTolerance, Msg, NodeInner, RecoveryStep, SyncKind, WriteNotice};
use pagemem::{Decode, Encode, PageId, PageState, VClock};
use simnet::{LogObj, SimDuration, TraceKind};

/// A record handed to replay: from the verified on-disk prefix, or
/// synthesized from the barrier manager's release history when the log
/// lost its tail (see [`MlLogger::begin_recovery`]).
struct ReplayRecord {
    msg: Msg,
    /// Synthesized records may legitimately disagree with the
    /// re-executed operation sequence (mid-log damage can discard the
    /// records between the salvaged prefix and the synthesized horizon);
    /// replay then abandons them instead of treating the drift as a
    /// logic bug.
    synthesized: bool,
}

use crate::frame;
use crate::recovery::fetch_release_history;
use crate::stable_log::{lost_releases, trace_append_by_page, StableLog, Written};

/// Stable-storage stream holding the ML log.
pub const ML_STREAM: &str = "ml.log";

/// The operation replay is looking for the record of.
#[derive(Debug, Clone, Copy)]
enum Want {
    /// The grant of this lock, or the release of this barrier epoch.
    Sync(SyncKind),
    /// The reply that satisfied a fault on this page.
    Fault(PageId),
}

/// Traditional message logging.
pub struct MlLogger {
    /// The stable stream, its staged batch and its device state. A
    /// staged page record shares the page buffer of the reply it logs.
    log: StableLog,
    cursor: Option<usize>,
    /// Verified-prefix length established by the last recovery scan
    /// (replay never reads past it, even if a failed device refused
    /// the repair truncation).
    log_valid: usize,
    /// Barrier-release records synthesized from the barrier manager's
    /// release history, consumed by replay after the on-disk prefix.
    synthesized: Vec<Msg>,
}

impl MlLogger {
    /// A fresh ML protocol instance.
    pub fn new() -> MlLogger {
        MlLogger {
            log: StableLog::new(ML_STREAM),
            cursor: None,
            log_valid: 0,
            synthesized: Vec::new(),
        }
    }

    /// Stage `msg` whole, wrapped in the checksummed frame it will
    /// persist under. A page copy is not copied again: the record keeps
    /// the buffer the home shipped — the home frame's own while it is
    /// clean, so every reader of that version logs it — and the reader's
    /// frame shares it too until its first write.
    fn stage(&mut self, inner: &mut NodeInner, msg: &Msg) {
        if let Some(bytes) = self.log.stage(msg) {
            trace_ml_append(inner, msg, bytes as u64);
        }
    }

    /// Write the staged log through the OS cache. Returns the critical-
    /// path cost: the buffered-write copy plus any stall while the
    /// device is still draining earlier flushes (the drain itself
    /// proceeds in the background), or the one futile access that
    /// discovered a dead or full device.
    fn flush_staged(&mut self, inner: &mut NodeInner) -> SimDuration {
        match self.log.flush(inner, false) {
            Written::Nothing => SimDuration::ZERO,
            Written::Refused { futile } => futile,
            Written::Persisted { cpu, drain } => cpu + StableLog::write_behind(inner, drain),
        }
    }

    /// Read and charge the next logged message, if any. Replay continues
    /// the salvage scan in order, one read call per record on a scan
    /// that starts at the call ([`simnet::SimDisk::scan_read`]): the
    /// call plus bandwidth, no seek, and no read-ahead.
    fn next_record(&mut self, inner: &mut NodeInner) -> Option<ReplayRecord> {
        let cursor = self.cursor.as_mut().expect("not in recovery");
        if *cursor >= self.log_valid {
            // The on-disk prefix is consumed: continue through the
            // synthesized barrier releases (no device transfer — their
            // content came over the network with the history reply).
            let msg = self.synthesized.get(*cursor - self.log_valid)?.clone();
            *cursor += 1;
            return Some(ReplayRecord {
                msg,
                synthesized: true,
            });
        }
        // The salvage scan verified every frame up to `log_valid`, and
        // nothing truncates the stream while replay runs.
        let record = &inner.ctx.disk.peek_stream(ML_STREAM)[*cursor];
        let msg = Msg::decode_from_slice(&frame::payload(record)).expect("verified ML log record");
        let bytes = record.len();
        *cursor += 1;
        let now = inner.ctx.now();
        let mut scan = inner.ctx.disk.warm_scan(now);
        let cost = inner.ctx.disk.scan_read(&mut scan, bytes, now);
        inner.ctx.charge_disk(cost);
        Some(ReplayRecord {
            msg,
            synthesized: false,
        })
    }

    /// After a successful replay step, drop out of recovery eagerly if
    /// the whole verified log prefix (and every synthesized release) has
    /// been consumed (the pre-crash — or pre-damage — state is reached).
    fn maybe_finish(&mut self) {
        let limit = self.log_valid + self.synthesized.len();
        if self.cursor.is_some_and(|cursor| cursor >= limit) {
            self.cursor = None;
        }
    }

    /// Abandon the rest of the replay: a synthesized record disagreed
    /// with the re-executed operation sequence, so the synthesized
    /// horizon is not reachable by guided replay. Fall back to live
    /// re-execution from here (the pre-synthesis behavior).
    fn abandon_replay(&mut self) -> RecoveryStep {
        self.cursor = None;
        self.synthesized.clear();
        RecoveryStep::LogExhausted
    }

    /// The one replay loop: read records in receipt order, applying
    /// the asynchronous ones (diff flushes) as they come,
    /// until the record that satisfied `want` live — the lock grant, the
    /// barrier release or the page reply — and re-apply it.
    fn replay_to(&mut self, inner: &mut NodeInner, want: Want) -> RecoveryStep {
        loop {
            let Some(rec) = self.next_record(inner) else {
                self.cursor = None;
                return RecoveryStep::LogExhausted;
            };
            let notices = match (&rec.msg, want) {
                (Msg::DiffFlush { writer, diffs }, _) => {
                    let payload: usize = diffs.iter().map(|d| d.encoded_size()).sum();
                    inner.ctx.charge_copy(payload);
                    for d in diffs {
                        inner.apply_home_diff(d, *writer);
                    }
                    continue;
                }
                (
                    Msg::LockGrant {
                        lock: l,
                        vc,
                        notices,
                    },
                    Want::Sync(SyncKind::Acquire(lock)),
                ) => {
                    assert_eq!(*l, lock, "ML replay drift: wrong lock grant");
                    inner.close_interval();
                    let fresh = inner.replay_sync(SyncKind::Acquire(lock), notices, vc);
                    invalidate_named(inner, &fresh);
                    // The grant logged the lock's own clock, which the
                    // next release measures its notices against.
                    inner.lock_grant_vcs.insert(lock, vc.clone());
                    notices.len()
                }
                (
                    Msg::BarrierRelease {
                        epoch: e,
                        vc,
                        notices,
                        ..
                    },
                    Want::Sync(SyncKind::Barrier(epoch)),
                ) => {
                    if *e != epoch && rec.synthesized {
                        return self.abandon_replay();
                    }
                    assert_eq!(*e, epoch, "ML replay drift: wrong barrier epoch");
                    // Close the interval locally (diffs are already at
                    // their homes from before the crash).
                    inner.close_interval();
                    let fresh = inner.replay_sync(SyncKind::Barrier(epoch), notices, vc);
                    invalidate_named(inner, &fresh);
                    notices.len()
                }
                (Msg::PageReply { page: p, data, .. }, Want::Fault(page)) => {
                    assert_eq!(*p, page, "ML replay drift: wrong page reply");
                    inner.ctx.charge_copy(data.len());
                    inner
                        .pages
                        .install_copy(page, data.clone(), PageState::ReadOnly);
                    0
                }
                (other, _) => {
                    // A synthesized record may legitimately disagree
                    // with the re-executed sequence; a real one may not.
                    if rec.synthesized {
                        return self.abandon_replay();
                    }
                    panic!("ML replay drift at {want:?}: unexpected {}", other.kind())
                }
            };
            inner.ctx.trace(TraceKind::RecoveryReplay {
                notices: notices as u32,
            });
            self.maybe_finish();
            return RecoveryStep::Replayed;
        }
    }
}

/// Drop the remote copies that replayed notices `fresh` name: replay
/// re-reads each from its logged reply at the next fault on it.
pub(crate) fn invalidate_named(inner: &mut NodeInner, fresh: &[WriteNotice]) {
    let me = inner.me() as u32;
    for n in fresh {
        if n.interval.node != me && !inner.pages.is_home(n.page) {
            inner.pages.invalidate(n.page);
        }
    }
}

/// Emit the `LogAppend` telemetry for one framed ML record, tagged with
/// the coherence object(s) it is about (a `DiffFlush` carries several
/// pages, see [`trace_append_by_page`]).
fn trace_ml_append(inner: &mut NodeInner, msg: &Msg, record_bytes: u64) {
    let obj = match msg {
        Msg::PageReply { page, .. } => LogObj::Page { page: *page },
        Msg::LockGrant { lock, .. } => LogObj::Lock { lock: *lock },
        Msg::BarrierRelease { epoch, .. } => LogObj::Barrier { epoch: *epoch },
        Msg::DiffFlush { diffs, .. } => {
            let shares = diffs.iter().map(|d| (d.page, d.encoded_size() as u64));
            return trace_append_by_page(inner, record_bytes, shares);
        }
        _ => LogObj::Meta,
    };
    inner.ctx.trace(TraceKind::LogAppend {
        bytes: record_bytes,
        obj,
    });
}

impl Default for MlLogger {
    fn default() -> Self {
        MlLogger::new()
    }
}

impl FaultTolerance for MlLogger {
    fn on_incoming(&mut self, inner: &mut NodeInner, msg: &Msg) {
        let log_it = matches!(
            msg,
            Msg::PageReply { .. } | Msg::LockGrant { .. } | Msg::BarrierRelease { .. }
        );
        if log_it {
            self.stage(inner, msg);
        }
    }

    fn on_diff_flush(&mut self, inner: &mut NodeInner, flush: &Msg) -> SimDuration {
        // Receiver-based pessimistic logging: once the home acks a diff
        // flush the writer discards its copy, leaving this log as the
        // update's only surviving record. The frame must be durable
        // before the ack goes out, or a crash tearing the final flush
        // would silently lose an update the cluster already acted on.
        // A stopped log takes nothing and the ack still goes out: a
        // restart then fails by name (`begin_recovery`).
        self.stage(inner, flush);
        self.flush_staged(inner)
    }

    fn on_notices(
        &mut self,
        inner: &mut NodeInner,
        kind: SyncKind,
        _notices: &[WriteNotice],
        _vc: &VClock,
    ) {
        // Flush at barrier completion so a barrier-aligned crash finds a
        // consistent prefix on disk (the release record included). Only
        // the write() copy is on the critical path; the device drains
        // in the background and is durable long before the next barrier.
        if matches!(kind, SyncKind::Barrier(_)) {
            let d = self.flush_staged(inner);
            if d > SimDuration::ZERO {
                inner.ctx.charge_disk(d);
            }
        }
    }

    fn flush_before_send(&mut self, inner: &mut NodeInner) -> SimDuration {
        // The whole volatile log goes to disk before the node sends its
        // end-of-interval messages: no overlap, full critical path.
        self.flush_staged(inner)
    }

    fn begin_recovery(&mut self, inner: &mut NodeInner) -> Option<Vec<u8>> {
        inner.ctx.trace(TraceKind::RecoveryBegin);
        let s = self.log.salvage(inner);
        // A stopped log took none of the flushes this home acked since:
        // their writers dropped the diffs, and the updates are in no
        // log. Replay cannot tell which, so the run fails here rather
        // than finish with a wrong result (DESIGN.md §13).
        assert!(
            !s.stopped,
            "ML log stopped before the crash: node {} acked diff flushes \
             its log device did not take, and no log holds those updates",
            inner.me()
        );
        self.log_valid = s.records;
        // Replay to the cluster-visible horizon, not just to the end of
        // a prefix that lost its tail (see `lost_releases`). Only then
        // are records read here, and only the barrier releases decoded.
        if s.lost_tail && !s.meta_rot {
            let last_logged = inner.ctx.disk.peek_stream(ML_STREAM)[..s.records]
                .iter()
                .filter(|r| Msg::encoded_kind(frame::payload_prefix(*r)) == "BarrierRelease")
                .filter_map(|r| match Msg::decode_from_slice(&frame::payload(r)) {
                    Ok(Msg::BarrierRelease { epoch, .. }) => Some(epoch),
                    _ => None,
                })
                .max();
            // ML replay is purely local, so everything but the reply
            // is safe to defer until recovery ends.
            let releases = fetch_release_history(inner, |inner, is_reply| {
                inner.ctx.wait_for_deferring(is_reply)
            });
            let lost = lost_releases(inner, &releases, last_logged);
            let synthesize = |(epoch, vc, notices, _): &hlrc::EpochRelease| Msg::BarrierRelease {
                epoch: *epoch,
                vc: vc.clone().into(),
                notices: notices.as_slice().into(),
                migrations: Vec::new().into(),
            };
            self.synthesized = lost.into_iter().map(synthesize).collect();
        }
        self.cursor = Some(0);
        self.maybe_finish();
        s.app
    }

    fn on_checkpoint(&mut self, inner: &mut NodeInner) {
        self.log.truncate_at_checkpoint(inner);
        // The replies that installed the copies this node holds went
        // with the log. Drop the copies too: the first touch after the
        // cut refetches, and that reply is in the log a replay from
        // this checkpoint reads. A predicted copy not touched yet is not
        // resident and stays: its reply is logged at its first touch,
        // after the cut.
        let me = inner.me();
        let cached: Vec<PageId> = inner
            .pages
            .iter()
            .filter(|(_, e)| e.home != me && e.is_resident())
            .map(|(page, _)| page)
            .collect();
        for page in cached {
            inner.pages.invalidate(page);
        }
    }

    fn in_recovery(&self) -> bool {
        self.cursor.is_some()
    }

    fn recovery_sync(&mut self, inner: &mut NodeInner, kind: SyncKind) -> RecoveryStep {
        self.replay_to(inner, Want::Sync(kind))
    }

    fn recovery_fault(&mut self, inner: &mut NodeInner, page: u32) -> RecoveryStep {
        // A home write's detection trap: no logged reply stands for it.
        if inner.pages.is_home(page) {
            return RecoveryStep::Replayed;
        }
        self.replay_to(inner, Want::Fault(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlrc::DsmConfig;
    use pagemem::{IntervalId, PageDiff, PageFrame, Twin};
    use simnet::{run_cluster, CostModel};

    /// A home meets a diff flush once: ML logs the whole message and
    /// makes it durable before the ack may leave, so the write-ahead
    /// wait it returns is the flush of that very frame.
    #[test]
    fn a_diff_flush_is_logged_whole_and_durable_before_its_ack() {
        let cfg = DsmConfig::new(1, 2).with_page_size(64);
        run_cluster::<Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            let mut ml = MlLogger::new();
            let base = PageFrame::zeroed(64);
            let mut written = base.clone();
            written.write_u64(8, 7);
            let flush = Msg::DiffFlush {
                writer: IntervalId { node: 1, seq: 0 },
                diffs: vec![PageDiff::create(1, &Twin::of(&base), &written)],
            };
            let wait = ml.on_diff_flush(&mut inner, &flush);
            assert!(wait > SimDuration::ZERO, "no write-ahead flush");
            let log = inner.ctx.disk.peek_stream(ML_STREAM);
            assert_eq!(log.len(), 1, "the frame is on disk, nothing else");
            assert_eq!(frame::verify(&log[0]), Ok((0, 0)), "own frame");
            let payload = frame::payload(&log[0]);
            assert_eq!(Msg::decode_from_slice(&payload).expect("own record"), flush);
        });
    }

    /// Only ML restores a replayed acquire's grant clock: its log holds
    /// the lock's own clock, which the next release measures its notices
    /// against. The node's merged clock in its place would cover this
    /// node's own interval, and the release would drop its notice though
    /// the lock's chain has not seen it.
    #[test]
    fn a_replayed_acquire_restores_the_lock_clock_its_grant_logged() {
        let cfg = DsmConfig::new(2, 4).with_page_size(64);
        run_cluster::<Msg, _, _>(2, CostModel::default(), move |ctx| {
            if ctx.id() != 1 {
                return;
            }
            let mut inner = NodeInner::new(ctx, cfg);
            let mut ml = MlLogger::new();
            let theirs = IntervalId { node: 0, seq: 0 };
            let mut lock_vc = VClock::new(2);
            lock_vc.observe(theirs);
            let grant = Msg::LockGrant {
                lock: 3,
                vc: lock_vc.clone().into(),
                notices: vec![WriteNotice {
                    page: 0,
                    interval: theirs,
                }],
            };
            ml.on_incoming(&mut inner, &grant);
            ml.flush_before_send(&mut inner);

            let mut inner = inner.restart();
            let mut ml = MlLogger::new();
            ml.begin_recovery(&mut inner);
            // Replay closes an interval that wrote home page 2 first.
            inner.pages.entry_mut(2).dirty = true;
            let step = ml.recovery_sync(&mut inner, SyncKind::Acquire(3));
            assert_eq!(step, RecoveryStep::Replayed);
            assert_eq!(*inner.lock_grant_vcs[&3], lock_vc);
            let mine = IntervalId { node: 1, seq: 0 };
            assert!(inner.vc.covers(mine) && inner.vc.covers(theirs));
            assert!(
                !inner.lock_grant_vcs[&3].covers(mine),
                "the release sends it"
            );
        });
    }
}
