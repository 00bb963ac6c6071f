//! One stable log stream: the batch staged for its next flush, and the
//! state machine of the device under it.
//!
//! ML and CCL log different things at different moments, but how a
//! record reaches the platter — framed once, when it is staged
//! ([`frame::encode_record`]), and written with its batch in one access
//! — and what can happen to a flush, and what a recovery scan may find
//! where the flush went, are properties of the log and its device, so
//! they live here once. [`StableLog`] owns the stream name, the frame
//! epoch and sequence, the staged batch and whether logging has
//! `stopped` (the device failed or filled), queues batches on the
//! device's write-behind queue, and keeps the invariants every recovery
//! argument leans on:
//!
//! * **a refused batch is dropped whole and logging stops** — nothing
//!   is staged until a truncation leaves the device room (only after a
//!   checkpoint is on it, so a failed device never reopens);
//! * **a salvaged prefix is contiguous in `(epoch, seq)`** — recovery
//!   adopts the longest prefix whose frames verify and cuts the stream
//!   there;
//! * **nothing is appended after a gap** — frames are numbered from the
//!   adopted prefix on, and a truncation opens a new epoch and drops
//!   the batch staged in the old one.
//!
//! Where the protocols *behave* differently the difference is the
//! caller's: who pays for the futile access that discovered a dead
//! device ([`Written::Refused`] hands the cost back), and what the
//! `write()` copy of a persisted batch overlaps — nothing under ML, the
//! diff acks under CCL — before the device drains it behind the node's
//! back ([`StableLog::write_behind`]).

use hlrc::{EpochRelease, NodeInner};
use pagemem::{Encode, PageId};
use simnet::{DiskRecord, LogObj, SimDuration, TraceKind};

use crate::checkpoint::{self, CKPT_META};
use crate::frame;

/// What became of one [`StableLog::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Written {
    /// Nothing reached the device: the batch was empty.
    Nothing,
    /// The device lost (permanent failure) or refused (`ENOSPC`) the
    /// batch, whole. `futile` is the one access that found out.
    Refused {
        /// Cost of the access that discovered the condition.
        futile: SimDuration,
    },
    /// The batch is in the OS cache and on its way to the platter.
    Persisted {
        /// The buffered `write()` copy — always on the critical path.
        cpu: SimDuration,
        /// Device time to drain the batch (doubled by a transient
        /// write fault: the device wrote it twice).
        drain: SimDuration,
    },
}

/// What [`StableLog::salvage`] recovered.
#[derive(Debug)]
pub struct Salvaged {
    /// Records in the adopted prefix: the stream's first `records`
    /// records, read back with [`frame::payload`].
    pub records: usize,
    /// Application blob of the restored checkpoint, if there is one.
    pub app: Option<Vec<u8>>,
    /// The stream may be missing records the node logged before the
    /// crash: the scan cut a damaged tail, or the device had already
    /// failed or filled.
    pub lost_tail: bool,
    /// The persisted checkpoint metadata was rotten: log and checkpoint
    /// were both discarded (`records` is 0) and the node
    /// re-executes from scratch.
    pub meta_rot: bool,
    /// The device had failed, or was full, when the node crashed:
    /// logging had stopped, and whatever it refused since is in no log.
    pub stopped: bool,
}

/// One append-only stable stream of a node's disk.
#[derive(Debug)]
pub struct StableLog {
    stream: &'static str,
    /// Stream epoch stamped into every frame; bumped at each
    /// truncation so stale records can never join the new log.
    epoch: u32,
    /// Frame sequence number of the next record.
    next_seq: u32,
    /// Framed records not yet flushed, in stage order.
    staged: Vec<DiskRecord>,
    /// The device failed, or is full until a checkpoint truncation frees
    /// space. A crash replays the persisted prefix, then re-executes
    /// live; the recovery scan ([`StableLog::salvage`]) reads the flag
    /// back from the device.
    stopped: bool,
}

impl StableLog {
    /// An empty log on `stream`.
    pub fn new(stream: &'static str) -> StableLog {
        StableLog {
            stream,
            epoch: 0,
            next_seq: 0,
            staged: Vec::new(),
            stopped: false,
        }
    }

    /// Frame `payload` into the batch of the next flush, taking the next
    /// sequence number; a buffer it shares is kept, not copied
    /// ([`frame::encode_record`]). Returns the framed size, or `None`,
    /// staging nothing, while logging is stopped.
    pub fn stage(&mut self, payload: &impl Encode) -> Option<usize> {
        if self.stopped {
            return None;
        }
        let record = frame::encode_record(self.epoch, self.next_seq, payload);
        self.next_seq += 1;
        self.staged.push(record);
        self.staged.last().map(DiskRecord::len)
    }

    /// Write the staged batch through the OS cache in a single access.
    /// `overlapped` only labels the `LogFlush` event. Time is reported,
    /// not charged: see [`Written`].
    pub fn flush(&mut self, inner: &mut NodeInner, overlapped: bool) -> Written {
        let records = std::mem::take(&mut self.staged);
        if records.is_empty() {
            return Written::Nothing;
        }
        let bytes: usize = records.iter().map(DiskRecord::len).sum();
        let retries_before = inner.ctx.disk.counters().write_retries;
        let _ = inner.ctx.disk.flush_records(self.stream, records);
        let futile = inner.ctx.disk.model().write_time(0);
        if inner.ctx.disk.has_failed() {
            // Permanent device failure: the batch is lost and logging
            // stops for good. The node keeps computing.
            self.stopped = true;
            inner.ctx.trace(TraceKind::LogDeviceFailed);
            return Written::Refused { futile };
        }
        if inner.ctx.disk.is_full() {
            // ENOSPC: the batch was refused whole. Stop logging —
            // appending a later batch over the gap would poison replay
            // — until a coordinated checkpoint truncates the log and
            // frees the space.
            self.stopped = true;
            inner.ctx.trace(TraceKind::LogDeviceFull);
            return Written::Refused { futile };
        }
        let mut drain = inner.ctx.disk.model().drain_time(bytes);
        if inner.ctx.disk.counters().write_retries > retries_before {
            drain = drain + drain;
        }
        inner.ctx.stats.log_flushes += 1;
        inner.ctx.stats.log_bytes += bytes as u64;
        inner.ctx.metrics.flush_bytes.record(bytes as u64);
        inner.ctx.trace(TraceKind::LogFlush {
            bytes: bytes as u64,
            overlapped,
        });
        Written::Persisted {
            cpu: inner.ctx.disk.model().buffered_write_cost(bytes),
            drain,
        }
    }

    /// Queue a persisted batch's `drain` behind whatever the device is
    /// still draining ([`simnet::SimDisk::write_behind`]) and let it
    /// proceed in the background. Returns the backpressure: how long the
    /// node would have to stall for the device to take the batch now.
    pub fn write_behind(inner: &mut NodeInner, drain: SimDuration) -> SimDuration {
        inner.ctx.stats.disk_time_overlapped += drain;
        let now = inner.ctx.now();
        inner.ctx.disk.write_behind(now, drain)
    }

    /// Recovery scan, run once after a crash: verify every frame, adopt
    /// the longest valid prefix (and its epoch), cut the torn or rotten
    /// tail off the stable stream so later appends stay contiguous,
    /// then restore the checkpoint the log begins at.
    pub fn salvage(&mut self, inner: &mut NodeInner) -> Salvaged {
        self.stopped = inner.ctx.disk.has_failed() || inner.ctx.disk.is_full();
        if self.stopped {
            // The log device died (or filled) before the crash. Replay
            // whatever prefix made it to stable storage; the tail of
            // the pre-crash execution is simply re-executed live.
            inner.ctx.trace(TraceKind::RecoveryDegraded);
        }
        let stream = self.stream;
        let s = frame::salvage(inner.ctx.disk.peek_stream(stream));
        let damaged = !s.is_clean();
        let lost_tail = damaged || self.stopped;
        let mut records = s.valid;
        let valid = records as u32;
        if damaged {
            if s.crc_mismatches > 0 {
                inner.ctx.trace(TraceKind::CrcMismatch { stream });
            }
            inner.ctx.trace(TraceKind::TornTailDetected {
                stream,
                salvaged: valid,
                discarded: s.discarded,
            });
            inner.ctx.disk.truncate_records(stream, records);
            inner.ctx.trace(TraceKind::LogTruncated {
                stream,
                records: valid,
            });
        }
        self.epoch = s.epoch;
        self.next_seq = valid;
        let restored = checkpoint::restore_meta(inner);
        let meta_rot = restored.is_err();
        if meta_rot {
            // The persisted checkpoint metadata is rotten. The log
            // begins at a checkpoint whose protocol state we cannot
            // restore, so neither is usable: discard both and
            // re-execute from scratch instead of panicking.
            inner
                .ctx
                .trace(TraceKind::CrcMismatch { stream: CKPT_META });
            inner.ctx.trace(TraceKind::RecoveryDegraded);
            inner.ctx.disk.truncate(CKPT_META);
            inner.ctx.disk.truncate(stream);
            records = 0;
            self.epoch += 1;
            self.next_seq = 0;
        }
        Salvaged {
            records,
            app: restored.unwrap_or(None),
            lost_tail,
            meta_rot,
            stopped: self.stopped,
        }
    }

    /// A checkpoint is on the device ([`crate::checkpoint()`]): truncate
    /// the stream, drop the staged batch and open a fresh epoch, which
    /// resumes a stopped log if the truncation left room.
    pub fn truncate_at_checkpoint(&mut self, inner: &mut NodeInner) {
        inner.ctx.disk.truncate(self.stream);
        self.staged.clear();
        self.epoch += 1;
        self.next_seq = 0;
        self.stopped &= inner.ctx.disk.is_full();
    }
}

/// The barrier releases a damaged log lost, out of the barrier
/// manager's retained history: every release the restored checkpoint
/// does not already cover and the salvaged prefix has no real record
/// for (`last_logged` is the newest barrier epoch it still holds).
///
/// A damaged log may have lost its final barrier records with its tail
/// (the completion flush is the only batch whose durability no ack
/// gates). Replaying only the salvaged prefix would end recovery
/// *before* the cluster-visible horizon: deferred peer requests would
/// be served from home copies the live catch-up has not rewritten yet.
/// The history holds exactly the lost records' content (epoch, merged
/// clock, merged notices), so each protocol synthesizes its own record
/// type from these and replays to the true horizon. A crashed manager
/// answers with an empty history and synthesis degrades to a no-op
/// (single-failure best effort).
pub fn lost_releases<'a>(
    inner: &mut NodeInner,
    releases: &'a [EpochRelease],
    last_logged: Option<u32>,
) -> Vec<&'a EpochRelease> {
    let lost: Vec<&EpochRelease> = releases
        .iter()
        .filter(|(epoch, ..)| {
            *epoch >= inner.barrier_epoch && last_logged.is_none_or(|e| *epoch > e)
        })
        .collect();
    if !lost.is_empty() {
        inner.ctx.trace(TraceKind::SyncSynthesized {
            records: lost.len() as u32,
        });
    }
    lost
}

/// Emit the `LogAppend` telemetry of a `record_bytes`-byte record that
/// carries several pages: one event per page, each with its own encoded
/// share, the frame and record overhead assigned to the first — so the
/// events sum exactly to the record's framed size (the blame engine's
/// per-object attribution leans on that exactness). A record naming no
/// page at all is protocol bookkeeping.
pub(crate) fn trace_append_by_page(
    inner: &mut NodeInner,
    record_bytes: u64,
    shares: impl Iterator<Item = (PageId, u64)>,
) {
    let shares: Vec<(PageId, u64)> = shares.collect();
    let mut overhead = record_bytes - shares.iter().map(|(_, bytes)| bytes).sum::<u64>();
    if shares.is_empty() {
        inner.ctx.trace(TraceKind::LogAppend {
            bytes: record_bytes,
            obj: LogObj::Meta,
        });
    }
    for (page, bytes) in shares {
        inner.ctx.trace(TraceKind::LogAppend {
            bytes: bytes + std::mem::take(&mut overhead),
            obj: LogObj::Page { page },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Raw;
    use crate::{CclLogger, CclRecord, MlLogger, CCL_STREAM, ML_STREAM};
    use hlrc::{DsmConfig, FaultTolerance, HlrcNode, Msg};
    use pagemem::{Encode, IntervalId};
    use simnet::{run_cluster, CostModel, DiskFaultPlan, SimTime};
    use std::sync::{Arc, Mutex};

    const STREAM: &str = "test.log";
    /// Payload bytes of one test record: two records outweigh the
    /// checkpoint of a node of [`on_node`]'s shape (two 64-byte pages).
    const PAYLOAD: usize = 128;
    /// Framed size of one test record.
    const REC: usize = PAYLOAD + frame::FRAME_HEADER_BYTES;

    /// The shape of every test node: one node, two 64-byte pages.
    fn config() -> DsmConfig {
        DsmConfig::new(1, 2).with_page_size(64)
    }

    /// Run `body` on the one node of a one-node cluster.
    fn on_node(body: impl Fn(&mut NodeInner) + Send + Sync) {
        run_cluster::<Msg, _, _>(1, CostModel::default(), move |ctx| {
            body(&mut NodeInner::new(ctx, config()));
        });
    }

    /// Stage `n` records, the `i`-th carrying `PAYLOAD` bytes of `i`.
    fn stage(log: &mut StableLog, n: u8) {
        for i in 0..n {
            assert_eq!(log.stage(&Raw(&[i; PAYLOAD])), Some(REC));
        }
    }

    /// Stage `n` records and write them in one flush.
    fn flush(log: &mut StableLog, inner: &mut NodeInner, n: u8) -> Written {
        stage(log, n);
        log.flush(inner, false)
    }

    /// The trace emitted since the last call.
    fn kinds(inner: &mut NodeInner) -> Vec<TraceKind> {
        inner.ctx.take_trace().iter().map(|ev| ev.kind).collect()
    }

    /// What a flush of `n` records returns when the device takes it
    /// (twice over, if a transient fault made it `retry`).
    fn persisted(inner: &NodeInner, n: usize, retry: bool) -> Written {
        let model = inner.ctx.disk.model();
        let once = model.drain_time(n * REC);
        let drain = if retry { once + once } else { once };
        let cpu = model.buffered_write_cost(n * REC);
        Written::Persisted { cpu, drain }
    }

    /// The `LogFlush` event of a flush of `records` records.
    fn flushed(records: usize) -> TraceKind {
        TraceKind::LogFlush {
            bytes: (records * REC) as u64,
            overlapped: false,
        }
    }

    /// A flush the device takes, at once or at the second attempt:
    /// returned cost, counters and trace.
    fn check_persisted(plan: DiskFaultPlan, retry: bool) {
        on_node(move |inner| {
            inner.ctx.disk.set_faults(plan);
            let mut log = StableLog::new(STREAM);
            assert_eq!(flush(&mut log, inner, 2), persisted(inner, 2, retry));
            assert_eq!(inner.ctx.now(), SimTime::ZERO, "the caller charges");
            assert_eq!(inner.ctx.disk.record_count(STREAM), 2, "persisted once");
            assert_eq!(inner.ctx.disk.counters().write_retries, u64::from(retry));
            assert_eq!(inner.ctx.stats.log_flushes, 1);
            assert_eq!(inner.ctx.stats.log_bytes, 2 * REC as u64);
            assert!(!log.stopped);
            assert_eq!(kinds(inner), [flushed(2)]);
            // An empty batch is no access at all.
            assert_eq!(flush(&mut log, inner, 0), Written::Nothing);
            assert_eq!(inner.ctx.disk.counters().writes, 1);
            // Write-behind: the first batch drains in the background,
            // the next one queues behind it.
            let drain = inner.ctx.disk.model().drain_time(2 * REC);
            assert_eq!(StableLog::write_behind(inner, drain), SimDuration::ZERO);
            assert_eq!(StableLog::write_behind(inner, drain), drain);
            assert_eq!(inner.ctx.stats.disk_time_overlapped, drain + drain);
        });
    }

    #[test]
    fn clean_write_reports_its_cost_and_charges_nothing() {
        check_persisted(DiskFaultPlan::none(), false);
    }

    #[test]
    fn transient_fault_doubles_the_drain() {
        check_persisted(DiskFaultPlan::transient(1, 1000), true);
    }

    /// The logging layer of a node whose one log is the test's: a
    /// checkpoint cuts it, as both loggers' `on_checkpoint` cut theirs.
    struct Cut(Arc<Mutex<StableLog>>);

    impl FaultTolerance for Cut {
        fn on_checkpoint(&mut self, inner: &mut NodeInner) {
            self.0.lock().unwrap().truncate_at_checkpoint(inner);
        }
    }

    /// A device that takes one flush and refuses the next with
    /// `refusal`: the batch is dropped whole, logging stops, and the
    /// checkpoint that follows, taken the one way ([`crate::checkpoint()`]),
    /// `reopens` the log — or, on a failed device, persists nothing and
    /// cuts nothing.
    fn check_refused(plan: DiskFaultPlan, refusal: TraceKind, reopens: bool) {
        run_cluster::<Msg, _, _>(1, CostModel::default(), move |mut ctx| {
            ctx.disk.set_faults(plan);
            let shared = Arc::new(Mutex::new(StableLog::new(STREAM)));
            let layer = Box::new(Cut(Arc::clone(&shared)));
            let mut node = HlrcNode::new(ctx, config(), layer);
            let futile = node.inner.ctx.disk.model().write_time(0);
            {
                let (inner, mut log) = (&mut node.inner, shared.lock().unwrap());
                assert_eq!(flush(&mut log, inner, 2), persisted(inner, 2, false));
                assert_eq!(flush(&mut log, inner, 2), Written::Refused { futile });
                assert!(log.stopped);
                assert_eq!(inner.ctx.disk.record_count(STREAM), 2, "refused whole");
                assert_eq!(inner.ctx.stats.log_flushes, 1);
                assert_eq!(kinds(inner), [flushed(2), refusal]);
                // Stopped: a later record is not staged and the device
                // is not touched, so nothing lands after the gap.
                assert_eq!(log.stage(&Raw(&[0; PAYLOAD])), None);
                assert_eq!(log.flush(inner, false), Written::Nothing);
                let counters = inner.ctx.disk.counters();
                assert_eq!(counters.full_writes + counters.failed_writes, 1);
            }
            let before = node.inner.ctx.now();
            crate::checkpoint(&mut node, b"");
            let (inner, mut log) = (&mut node.inner, shared.lock().unwrap());
            assert_eq!(log.stopped, !reopens);
            if reopens {
                // The checkpoint is on the device, whatever the bound,
                // and the truncation left room: logging resumes in a
                // new epoch, numbered from zero.
                assert_eq!(inner.ctx.disk.record_count(CKPT_META), 1);
                assert_eq!(flush(&mut log, inner, 1), persisted(inner, 1, false));
                let resumed = frame::salvage(inner.ctx.disk.peek_stream(STREAM));
                assert_eq!((resumed.epoch, resumed.valid), (1, 1));
            } else {
                // No checkpoint replaces the persisted prefix, the only
                // recovery data left, so it survives; the node paid the
                // one access that found the device dead.
                assert_eq!(inner.ctx.now() - before, futile);
                assert_eq!(inner.ctx.disk.record_count(CKPT_META), 0);
                assert_eq!(inner.ctx.disk.record_count(STREAM), 2);
                assert_eq!(log.stage(&Raw(&[0; PAYLOAD])), None);
            }
        });
    }

    #[test]
    fn full_device_refuses_whole_pauses_and_a_checkpoint_resumes() {
        let plan = DiskFaultPlan::none().with_capacity(3 * REC as u64);
        check_refused(plan, TraceKind::LogDeviceFull, true);
    }

    #[test]
    fn failed_device_degrades_for_good() {
        let plan = DiskFaultPlan::permanent_at(2);
        check_refused(plan, TraceKind::LogDeviceFailed, false);
    }

    /// The batch is the log's: a refused flush drops all of it, staging
    /// while logging is stopped takes nothing, not even a sequence
    /// number, and a checkpoint drops what was staged before it, so
    /// none of it reaches the new epoch.
    #[test]
    fn the_staged_batch_goes_with_a_refusal_and_with_a_checkpoint() {
        on_node(|inner| {
            let plan = DiskFaultPlan::none().with_capacity(3 * REC as u64);
            inner.ctx.disk.set_faults(plan);
            let mut log = StableLog::new(STREAM);
            assert!(matches!(flush(&mut log, inner, 4), Written::Refused { .. }));
            // Nothing of the refused batch is left to write again.
            assert_eq!(log.flush(inner, false), Written::Nothing);
            assert_eq!(inner.ctx.disk.counters().full_writes, 1);
            let seq = log.next_seq;
            assert_eq!(log.stage(&Raw(&[9; PAYLOAD])), None);
            assert_eq!(log.next_seq, seq, "a refused stage took a number");
            // Reopened, two records are staged and a checkpoint comes
            // before their flush: the next flush writes only what was
            // staged after it, first in the new epoch.
            log.truncate_at_checkpoint(inner);
            assert!(!log.stopped, "the truncation left room");
            stage(&mut log, 2);
            log.truncate_at_checkpoint(inner);
            assert_eq!(flush(&mut log, inner, 1), persisted(inner, 1, false));
            let stream = inner.ctx.disk.peek_stream(STREAM);
            assert_eq!(stream.len(), 1, "a staged record outlived its epoch");
            assert_eq!(frame::verify(&stream[0]), Ok((2, 0)));
        });
    }

    /// Salvage a stream of five records in epoch 1 whose fourth was
    /// rewritten by `damage` before it was written, with a log that
    /// knows nothing yet: expect `kept` records adopted, `trace`
    /// emitted, and the next record appended as `(1, kept)`.
    fn check_salvage(damage: fn(&mut Vec<u8>), kept: usize, trace: &[TraceKind]) {
        let trace = trace.to_vec();
        on_node(move |inner| {
            let mut records: Vec<DiskRecord> = (0..5)
                .map(|i| frame::encode_record(1, u32::from(i), &Raw(&[i; 32])))
                .collect();
            damage(records[3].flat_mut());
            inner.ctx.disk.flush_records(STREAM, records);
            let mut log = StableLog::new(STREAM);
            let s = log.salvage(inner);
            assert_eq!(kinds(inner), trace);
            assert_eq!(s.lost_tail, kept < 5);
            assert!(!s.meta_rot && s.app.is_none());
            assert_eq!(inner.ctx.disk.record_count(STREAM), kept);
            let prefix = &inner.ctx.disk.peek_stream(STREAM)[..s.records];
            for (i, record) in prefix.iter().enumerate() {
                assert_eq!(
                    frame::payload(record)[..],
                    [i as u8; 32],
                    "prefix is contiguous"
                );
            }
            log.stage(&Raw(b"next"));
            assert!(matches!(log.flush(inner, false), Written::Persisted { .. }));
            let next = &inner.ctx.disk.peek_stream(STREAM)[kept];
            assert_eq!(frame::verify(next), Ok((1, kept as u32)));
        });
    }

    /// What a scan that kept 3 of 5 records must report, in order.
    const CUT_AT_3: [TraceKind; 3] = [
        TraceKind::CrcMismatch { stream: STREAM },
        TraceKind::TornTailDetected {
            stream: STREAM,
            salvaged: 3,
            discarded: 2,
        },
        TraceKind::LogTruncated {
            stream: STREAM,
            records: 3,
        },
    ];

    #[test]
    fn salvage_adopts_a_clean_stream_whole() {
        check_salvage(|_| {}, 5, &[]);
    }

    #[test]
    fn salvage_cuts_a_torn_record_and_everything_after_it() {
        check_salvage(|rec| rec.truncate(20), 3, &CUT_AT_3[1..]);
    }

    #[test]
    fn salvage_reports_a_flipped_bit_before_it_cuts() {
        check_salvage(|rec| rec[25] ^= 0x04, 3, &CUT_AT_3);
    }

    /// The two recovery protocols sit on one device state machine: fed
    /// the same damaged byte stream, they adopt the same prefix.
    #[test]
    fn ml_and_ccl_adopt_the_same_prefix_of_the_same_damaged_stream() {
        // A record both logs can hold: ML's logged `DiffFlush` and
        // CCL's `Updates`, each naming a writer and nothing else,
        // encode to the same bytes.
        let writer = IntervalId { node: 0, seq: 7 };
        let diffs = Vec::new();
        let payload = Msg::DiffFlush { writer, diffs }.encode_to_vec();
        let pages = Vec::new();
        assert_eq!(
            payload,
            CclRecord::Updates { writer, pages }.encode_to_vec()
        );
        for garble in [false, true] {
            let payload = payload.clone();
            on_node(move |inner| {
                for stream in [ML_STREAM, CCL_STREAM] {
                    let mut log = StableLog::new(stream);
                    for _ in 0..6 {
                        log.stage(&Raw(&payload));
                    }
                    log.flush(inner, false);
                    assert!(inner.ctx.disk.tear_last_flush(0xC0FFEE, garble));
                }
                MlLogger::new().begin_recovery(inner);
                CclLogger::new().begin_recovery(inner);
                let adopted = inner.ctx.disk.record_count(ML_STREAM);
                assert_eq!(adopted, inner.ctx.disk.record_count(CCL_STREAM));
                assert!(adopted < 6, "the stream was not damaged");
                let cuts: Vec<u32> = kinds(inner)
                    .iter()
                    .filter_map(|k| match k {
                        TraceKind::LogTruncated { records, .. } => Some(*records),
                        _ => None,
                    })
                    .collect();
                assert_eq!(cuts, [adopted as u32; 2], "garble={garble}");
            });
        }
    }
}
