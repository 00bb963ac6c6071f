//! Related-work logging protocols (paper §5), for comparison only.
//!
//! The paper positions CCL against the earlier logging protocols that
//! were designed for *home-less* DSM:
//!
//! * Suri, Janssens & Fuchs (FTCS-25): log the **records** of all
//!   coherence messages rather than their contents —
//!   [`RecordOnlyLogger`] here;
//! * Park & Yeom (IPPS'98), *reduced-stable logging* (RSL): log only
//!   the content of lock-grant messages (the dirty-page lists) —
//!   [`RslLogger`] here.
//!
//! Both are implemented as they would behave if dropped into a
//! home-based system: they log what their papers say and flush at
//! synchronization points. Crucially, **neither can actually drive a
//! home-based recovery** — the paper's §5 point. A home copy advanced
//! by other writers' diffs cannot be rebuilt from message *records* or
//! dirty-page lists: the diff contents are gone, because home-based
//! HLRC discards diffs once the home acks them. Their `begin_recovery`
//! therefore reports the gap loudly rather than silently producing a
//! wrong memory image.
//!
//! **Contract: reference code, not a product path.** No table or figure
//! of the paper runs under these protocols; `ccl-core` exposes them
//! (`Protocol::RecordsOnly`, `Protocol::Rsl`) only as the comparison
//! points that `tests/integration_logging.rs` holds CCL and
//! ML against — `related_work_protocols_log_but_cannot_recover` (same
//! digests, logs smaller than ML's) and
//! `related_work_recovery_is_rejected` (a crash under either is a loud
//! error) — which is the paper's §5 argument as two executable checks.
//! (`report` runs both on every application and renders the
//! log-volume comparison itself into EXPERIMENTS.md §"Related-work
//! logging protocols".)

use hlrc::{FaultTolerance, Msg, NodeInner, SyncKind, WriteNotice};
use pagemem::{ByteWriter, Encode, Sink, VClock};
use simnet::SimDuration;

use crate::stable_log::{StableLog, Written};

/// Flush staging shared by the two record-style loggers.
struct Staged {
    log: StableLog,
    records: Vec<Vec<u8>>,
}

impl Staged {
    fn new(stream: &'static str) -> Staged {
        Staged {
            log: StableLog::new(stream),
            records: Vec::new(),
        }
    }

    fn push(&mut self, rec: Vec<u8>) {
        self.records.push(rec);
    }

    /// Written and drained synchronously — these protocols predate
    /// write-behind tricks — so the whole access, or the futile one
    /// that finds the device gone, is the cost.
    fn flush(&mut self, inner: &mut NodeInner) -> SimDuration {
        match self
            .log
            .write(inner, std::mem::take(&mut self.records), false)
        {
            Written::Nothing => SimDuration::ZERO,
            Written::Refused { futile } => futile,
            Written::Persisted { cpu, drain } => cpu + drain,
        }
    }
}

/// Suri-style logging: a fixed-size record per incoming coherence
/// message (kind tag, page/lock id, interval), never the contents.
pub struct RecordOnlyLogger {
    staged: Staged,
}

/// Stream name for the record-only log.
pub const RECORDS_STREAM: &str = "records.log";

impl RecordOnlyLogger {
    /// Fresh instance.
    pub fn new() -> RecordOnlyLogger {
        RecordOnlyLogger {
            staged: Staged::new(RECORDS_STREAM),
        }
    }

    fn record_of(msg: &Msg) -> Option<Vec<u8>> {
        let mut w = ByteWriter::with_capacity(16);
        match msg {
            Msg::PageReply { page, .. } => {
                w.put_u8(1);
                w.put_u32(*page);
            }
            Msg::DiffFlush { writer, diffs } => {
                w.put_u8(2);
                writer.encode(&mut w);
                w.put_u16(diffs.len() as u16);
            }
            Msg::LockGrant { lock, .. } => {
                w.put_u8(3);
                w.put_u32(*lock);
            }
            Msg::BarrierRelease { epoch, .. } => {
                w.put_u8(4);
                w.put_u32(*epoch);
            }
            _ => return None,
        }
        Some(w.into_bytes())
    }
}

impl Default for RecordOnlyLogger {
    fn default() -> Self {
        RecordOnlyLogger::new()
    }
}

impl FaultTolerance for RecordOnlyLogger {
    fn name(&self) -> &'static str {
        "records-only (Suri et al.)"
    }

    fn on_incoming(&mut self, _inner: &mut NodeInner, msg: &Msg) {
        if let Some(rec) = Self::record_of(msg) {
            self.staged.push(rec);
        }
    }

    fn flush_before_send(&mut self, inner: &mut NodeInner) -> SimDuration {
        // "Flushing them to stable storage before communicating with
        // another process" — fully synchronous, like ML.
        self.staged.flush(inner)
    }

    fn begin_recovery(&mut self, _inner: &mut NodeInner) {
        unimplemented!(
            "records-only logging cannot recover a home-based DSM: home \
             copies advanced by other writers' diffs are unreconstructible \
             from message records alone (the diff contents were discarded \
             when the home acked them) — the paper's §5 argument"
        );
    }
}

/// Park & Yeom's reduced-stable logging: only the contents of lock
/// grants and barrier releases (the dirty-page lists) reach the log.
pub struct RslLogger {
    staged: Staged,
}

/// Stream name for the RSL log.
pub const RSL_STREAM: &str = "rsl.log";

impl RslLogger {
    /// Fresh instance.
    pub fn new() -> RslLogger {
        RslLogger {
            staged: Staged::new(RSL_STREAM),
        }
    }
}

impl Default for RslLogger {
    fn default() -> Self {
        RslLogger::new()
    }
}

impl FaultTolerance for RslLogger {
    fn name(&self) -> &'static str {
        "rsl (Park & Yeom)"
    }

    fn on_notices(
        &mut self,
        _inner: &mut NodeInner,
        kind: SyncKind,
        notices: &[WriteNotice],
        vc: &VClock,
    ) {
        let mut w = ByteWriter::new();
        match kind {
            SyncKind::Acquire(l) => {
                w.put_u8(0);
                w.put_u32(l);
            }
            SyncKind::Barrier(e) => {
                w.put_u8(1);
                w.put_u32(e);
            }
        }
        hlrc::encode_notices(&mut w, notices);
        vc.encode(&mut w);
        self.staged.push(w.into_bytes());
    }

    fn flush_before_send(&mut self, inner: &mut NodeInner) -> SimDuration {
        self.staged.flush(inner)
    }

    fn begin_recovery(&mut self, _inner: &mut NodeInner) {
        unimplemented!(
            "RSL cannot recover a home-based DSM: dirty-page lists identify \
             what to invalidate but carry no data with which to rebuild \
             advanced home copies — the paper's §5 argument"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagemem::IntervalId;

    #[test]
    fn record_of_covers_replay_relevant_messages() {
        let iv = IntervalId { node: 1, seq: 2 };
        let vc = VClock::new(2);
        assert!(RecordOnlyLogger::record_of(&Msg::PageReply {
            page: 3,
            data: vec![0; 4096].into(),
            version: vc.clone(),
        })
        .is_some());
        assert!(RecordOnlyLogger::record_of(&Msg::DiffAck { writer: iv }).is_none());
        // The record for a full 4 KB page reply is a handful of bytes —
        // the protocols' whole point.
        let rec = RecordOnlyLogger::record_of(&Msg::PageReply {
            page: 3,
            data: vec![0; 4096].into(),
            version: vc,
        })
        .unwrap();
        assert!(rec.len() < 16);
        // Predicted copies reach the logger one `PageReply` at a time,
        // at their first touch; the batch they travelled in is no event.
        assert!(RecordOnlyLogger::record_of(&Msg::PageReplyBatch {
            after: 2,
            pages: vec![(3, vec![0; 4096].into(), VClock::new(2))],
        })
        .is_none());
    }

    #[test]
    fn names() {
        assert!(RecordOnlyLogger::new().name().contains("Suri"));
        assert!(RslLogger::new().name().contains("Park"));
        assert!(!RecordOnlyLogger::new().in_recovery());
        assert!(!RslLogger::new().in_recovery());
    }
}
