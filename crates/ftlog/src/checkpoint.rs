//! Checkpointing (§3.2 of the paper).
//!
//! A checkpoint consists of the shared-memory home copies, the protocol
//! state (vector clock, interval counter, barrier epoch), and an opaque
//! application-state blob. The first checkpoint writes every home page;
//! subsequent checkpoints are incremental — only pages whose version
//! advanced since the last checkpoint, or whose image did not survive on
//! disk, are written, and images that a newer checkpoint supersedes are
//! compacted away so `CKPT_PAGES` holds exactly one image per home page.
//!
//! A crash keeps nothing of a node's memory but the page→home map
//! ([`hlrc::NodeInner::restart`]), so [`restore_meta`] reads the whole
//! checkpoint back from disk: the metadata record, then every home
//! page's image and version, each read charged.
//!
//! Checkpoints must be **coordinated at a barrier** (all nodes
//! checkpoint at the same episode, holding no locks): that is what makes
//! each home's checkpoint base usable during any peer's recovery and
//! lets the logs be truncated safely. The paper's experiments take no
//! checkpoints (recovery replays from the initial state, which this
//! module models as the implicit epoch-zero checkpoint); a
//! `ClusterSpec` checkpoint cadence takes real ones through
//! [`checkpoint`], which cuts a log only once its checkpoint is on disk.
//!
//! Both checkpoint streams use the [`crate::frame`] record format, each
//! record encoded straight into its frame ([`frame::encode_record`]),
//! and are replaced whole. A garbled or torn checkpoint record degrades
//! recovery (the node falls back to re-execution) instead of panicking
//! — [`restore_meta`] returns a typed [`RestoreError`].

use crate::frame::{self, FrameError, Raw};
use hlrc::{HlrcNode, NodeInner};
use pagemem::{ByteReader, CodecError, Decode, Encode, Sink, VClock};
use simnet::{DiskRecord, SimDuration, TraceKind};
use std::collections::BTreeMap;

/// Stream holding the latest checkpoint's metadata record.
pub const CKPT_META: &str = "ckpt.meta";
/// Stream holding the checkpointed page images (latest per page).
pub const CKPT_PAGES: &str = "ckpt.pages";

/// Protocol/application state saved with a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    /// Vector clock at the checkpoint.
    pub vc: VClock,
    /// Next interval sequence number.
    pub next_interval: u32,
    /// Next barrier epoch.
    pub barrier_epoch: u32,
    /// Clock of the last completed barrier.
    pub last_barrier_vc: VClock,
    /// Opaque application state (iteration counters etc.).
    pub app_state: Vec<u8>,
}

impl Encode for CheckpointMeta {
    fn encode<S: Sink>(&self, w: &mut S) {
        self.vc.encode(w);
        w.put_u32(self.next_interval);
        w.put_u32(self.barrier_epoch);
        self.last_barrier_vc.encode(w);
        w.put_bytes(&self.app_state);
    }
}

impl Decode for CheckpointMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let vc = VClock::decode(r)?;
        let next_interval = r.get_u32()?;
        let barrier_epoch = r.get_u32()?;
        let last_barrier_vc = VClock::decode(r)?;
        let app_state = r.get_bytes()?;
        Ok(CheckpointMeta {
            vc,
            next_interval,
            barrier_epoch,
            last_barrier_vc,
            app_state,
        })
    }
}

/// Why a persisted checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The record's frame failed verification (torn tail, bit rot).
    Frame(FrameError),
    /// The frame verified but the payload did not decode (a logic bug
    /// or a version skew, never silent corruption — the CRC rules that
    /// out).
    Codec(CodecError),
    /// A page homed here has no image in the checkpoint: a damaged
    /// `CKPT_PAGES` record cut it, with every image after it, off the
    /// salvaged prefix.
    MissingPage(u32),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Frame(e) => write!(f, "checkpoint frame damaged: {e}"),
            RestoreError::Codec(e) => write!(f, "checkpoint payload undecodable: {e:?}"),
            RestoreError::MissingPage(p) => write!(f, "checkpoint holds no image of page {p}"),
        }
    }
}

/// One `CKPT_PAGES` payload: a home page's id, version and bytes.
pub struct PageImage<'a>(pub u32, pub &'a VClock, pub &'a [u8]);

impl Encode for PageImage<'_> {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_u32(self.0);
        self.1.encode(w);
        w.put_bytes(self.2);
    }
}

/// The page id a `CKPT_PAGES` payload describes (its leading `u32`).
fn payload_page(payload: &[u8]) -> Option<u32> {
    let mut r = ByteReader::new(payload);
    r.get_u32().ok()
}

/// A whole `CKPT_PAGES` payload: page id, version and page bytes.
fn decode_image(payload: &[u8]) -> Result<(u32, VClock, Vec<u8>), CodecError> {
    let mut r = ByteReader::new(payload);
    Ok((r.get_u32()?, VClock::decode(&mut r)?, r.get_bytes()?))
}

/// Take a coordinated checkpoint of `node`, charge it, and only then
/// cut its log ([`hlrc::FaultTolerance::on_checkpoint`]). The one
/// checkpoint path: its caller is the cadence in `ccl_core::Dsm::barrier`
/// (right after a barrier, no locks held, not while replaying). A
/// failed device takes no checkpoint, so nothing is cut: the node pays
/// the futile access that found out.
pub fn checkpoint(node: &mut HlrcNode, app_state: &[u8]) {
    let inner = &mut node.inner;
    if inner.ctx.disk.has_failed() {
        let futile = inner.ctx.disk.model().write_time(0);
        inner.ctx.charge_disk(futile);
        return;
    }
    let d = take_checkpoint(inner, app_state);
    inner.ctx.charge_disk(d);
    node.ft.on_checkpoint(inner);
}

/// Write the checkpoint of `inner` and return the write time. Both
/// streams are replaced whole, which only a failed device refuses: a
/// full one must take the checkpoint whose truncation frees it.
///
/// `CKPT_PAGES` is compacted in the same access: images superseded by a
/// newer one of the same page are dropped, so the stream is bounded by
/// one image per home page no matter how many checkpoints are taken.
/// Only the newly written images are charged — retained ones are
/// already on the platter. A home page is written when its version
/// moved past the base, or when no image of it survives on disk: the
/// salvage keeps only the prefix before a damaged record, and an
/// unchanged page whose image went with the rest of that stream would
/// otherwise never be written again.
fn take_checkpoint(inner: &mut NodeInner, app_state: &[u8]) -> SimDuration {
    // Salvage the current page stream and keep the latest surviving
    // image per page.
    let prior = inner.ctx.disk.peek_stream(CKPT_PAGES);
    let old = frame::salvage(prior);
    let mut retained = BTreeMap::new();
    for payload in old.payloads(prior) {
        if let Some(p) = payload_page(&payload) {
            retained.insert(p, payload); // later images supersede earlier
        }
    }
    // Incremental page set: anything whose version moved past the base
    // or whose image is gone. The images these replace are dropped.
    let mut fresh = Vec::new();
    for (page, e) in inner.pages.iter() {
        let Some(h) = e.home_state.as_deref() else {
            continue;
        };
        if h.version == h.base_version && retained.contains_key(&page) {
            continue; // unchanged since the last checkpoint, image intact
        }
        retained.remove(&page);
        let data = e.frame.as_ref().expect("home frame").bytes();
        fresh.push(PageImage(page, &h.version, data));
    }
    // Every prior record either survives in `retained` or is dropped:
    // superseded by a newer image, replaced by this checkpoint, or
    // damaged beyond salvage.
    let compacted = prior.len() - retained.len();
    let epoch = old.epoch.max(meta_epoch(inner)) + 1;
    let meta = CheckpointMeta {
        vc: inner.vc.clone(),
        next_interval: inner.next_interval,
        barrier_epoch: inner.barrier_epoch,
        last_barrier_vc: inner.last_barrier_vc.clone(),
        app_state: app_state.to_vec(),
    };
    let meta_record = frame::encode_record(epoch, 0, &meta);
    let meta_bytes = meta_record.len();
    // The retained images, re-framed into the new epoch, then the new.
    let mut stream: Vec<DiskRecord> = Vec::with_capacity(retained.len() + fresh.len());
    for payload in retained.values() {
        let seq = stream.len() as u32;
        stream.push(frame::encode_record(epoch, seq, &Raw(payload)));
    }
    let kept = stream.len();
    for image in &fresh {
        stream.push(frame::encode_record(epoch, stream.len() as u32, image));
    }
    let new_bytes: usize = stream[kept..].iter().map(DiskRecord::len).sum();
    if !old.is_clean() {
        inner
            .ctx
            .trace(TraceKind::CrcMismatch { stream: CKPT_PAGES });
    }
    inner.ctx.trace(TraceKind::Checkpoint {
        bytes: (meta_bytes + new_bytes) as u64,
        pages: fresh.len() as u32,
        compacted: compacted as u32,
    });
    let disk = &mut inner.ctx.disk;
    let d = disk.rewrite_stream(CKPT_META, vec![meta_record], meta_bytes)
        + disk.rewrite_stream(CKPT_PAGES, stream, new_bytes);
    // The in-memory base copies become the stable checkpoint image the
    // recovery path restores from.
    inner.pages.promote_base();
    d
}

/// The epoch of the persisted checkpoint metadata (0 if none or
/// unreadable).
fn meta_epoch(inner: &NodeInner) -> u32 {
    inner
        .ctx
        .disk
        .peek_stream(CKPT_META)
        .first()
        .and_then(|rec| frame::verify(rec).ok())
        .map_or(0, |(epoch, _)| epoch)
}

/// Restore the persisted checkpoint into `inner`, a node restarted
/// after a crash ([`hlrc::NodeInner::restart`]) that kept nothing of its
/// memory but the page→home map: first the metadata record (protocol
/// state), then every home page's image and version
/// from `CKPT_PAGES`, each read charged. Returns the saved application
/// blob, `Ok(None)` if no checkpoint was ever taken (the node restarts
/// from the initial state, the implicit epoch-zero checkpoint), or a
/// [`RestoreError`] if the checkpoint is damaged — the caller degrades
/// to re-execution instead of trusting (or panicking on) rotten state.
/// No frame and no protocol state is applied unless every home page
/// has its image.
pub fn restore_meta(inner: &mut NodeInner) -> Result<Option<Vec<u8>>, RestoreError> {
    let Some(record) = inner.ctx.disk.peek_stream(CKPT_META).first() else {
        return Ok(None);
    };
    let bytes = record.len();
    let meta = frame::verify(record)
        .map_err(RestoreError::Frame)
        .and_then(|_| {
            CheckpointMeta::decode_from_slice(&frame::payload(record)).map_err(RestoreError::Codec)
        });
    let cost = inner.ctx.disk.read_cost(bytes);
    inner.ctx.charge_disk(cost);
    let meta = meta?;
    let images = read_page_images(inner)?;
    let me = inner.me();
    if let Some((page, _)) =
        (inner.pages.iter()).find(|(p, e)| e.home == me && !images.contains_key(p))
    {
        return Err(RestoreError::MissingPage(page));
    }
    for (page, (version, data)) in images {
        if inner.pages.is_home(page) {
            inner.pages.restore_home(page, &data, version);
        }
    }
    inner.vc = meta.vc;
    inner.next_interval = meta.next_interval;
    inner.barrier_epoch = meta.barrier_epoch;
    inner.last_barrier_vc = meta.last_barrier_vc;
    Ok(Some(meta.app_state))
}

/// Read `CKPT_PAGES` back: the salvaged prefix, one read call per image
/// on one sequential scan started right after the metadata read
/// ([`simnet::SimDisk::scan_read`]), each image decoded to its page,
/// version and bytes.
fn read_page_images(
    inner: &mut NodeInner,
) -> Result<BTreeMap<u32, (VClock, Vec<u8>)>, RestoreError> {
    let stream = inner.ctx.disk.peek_stream(CKPT_PAGES);
    let salvaged = frame::salvage(stream);
    let decoded: Vec<_> = (salvaged.payloads(stream))
        .map(|payload| (frame::framed_size(payload.len()), decode_image(&payload)))
        .collect();
    let mut scan = inner.ctx.disk.warm_scan(inner.ctx.now());
    let mut images = BTreeMap::new();
    for (size, image) in decoded {
        let now = inner.ctx.now();
        let cost = (inner.ctx.disk).scan_read(&mut scan, size, now);
        inner.ctx.charge_disk(cost);
        let (page, version, data) = image.map_err(RestoreError::Codec)?;
        images.insert(page, (version, data));
    }
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_HEADER_BYTES;
    use hlrc::{DsmConfig, ServedLog};
    use pagemem::IntervalId;
    use simnet::{run_cluster, CostModel};

    #[test]
    fn meta_codec_roundtrip() {
        let mut vc = VClock::new(3);
        vc.observe(IntervalId { node: 1, seq: 4 });
        let meta = CheckpointMeta {
            vc: vc.clone(),
            next_interval: 7,
            barrier_epoch: 3,
            last_barrier_vc: vc,
            app_state: vec![1, 2, 3],
        };
        let bytes = meta.encode_to_vec();
        assert_eq!(CheckpointMeta::decode_from_slice(&bytes).unwrap(), meta);
    }

    #[test]
    fn checkpoint_and_restore_roundtrip() {
        let cfg = DsmConfig::new(1, 2).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            inner.pages.frame_mut(0).write_u64(0, 42);
            inner
                .pages
                .home_state_mut(0)
                .version
                .observe(IntervalId { node: 0, seq: 0 });
            inner.vc.observe(IntervalId { node: 0, seq: 0 });
            inner.next_interval = 1;
            inner.barrier_epoch = 2;

            let d = take_checkpoint(&mut inner, b"iter=5");
            assert!(d > SimDuration::ZERO);
            let images = inner.ctx.disk.peek_stream(CKPT_PAGES).to_vec();
            assert_eq!(images.len(), 2, "one image per home page");
            // A node that retains no served pages (ML, None) keeps no
            // image of its checkpoint in memory: the disk has it.
            assert_eq!(inner.pages.home_state(0).served, ServedLog::default());
            // A write after the checkpoint, which the crash loses.
            inner.pages.frame_mut(0).write_u64(0, 43);

            // Crash: the restarted node knows nothing the disk does not.
            // Restarted as a CCL node, it keeps the restored image as
            // image 0 of the served log it rebuilds.
            let mut inner = inner.restart();
            inner.pages.keep_served_copies(hlrc::ServedCopies::Retain);
            assert_eq!(inner.pages.frame(0).read_u64(0), 0);
            assert_eq!((inner.next_interval, inner.barrier_epoch), (0, 0));
            let before = inner.ctx.disk.counters();
            let app = restore_meta(&mut inner)
                .expect("checkpoint intact")
                .expect("checkpoint exists");
            assert_eq!(app, b"iter=5");
            assert_eq!(inner.next_interval, 1);
            assert_eq!(inner.barrier_epoch, 2);
            assert!(inner.vc.covers(IntervalId { node: 0, seq: 0 }));
            let h = inner.pages.home_state(0);
            assert_eq!(inner.pages.frame(0).read_u64(0), 42);
            assert!(h.version.covers(IntervalId { node: 0, seq: 0 }));
            assert_eq!(h.base_version, h.version);
            inner.pages.rebuild_served_logs(std::iter::empty());
            let (pos, base) = (inner.pages)
                .recovery_image(0, &VClock::new(1))
                .expect("image 0");
            assert_eq!((pos, &base[..8]), (0, &42u64.to_le_bytes()[..]));
            // One read for the metadata, one per image.
            let after = inner.ctx.disk.counters();
            let meta = inner.ctx.disk.stream_bytes(CKPT_META);
            let pages: usize = images.iter().map(|r| r.len()).sum();
            assert_eq!(after.reads - before.reads, 3);
            assert_eq!(after.bytes_read - before.bytes_read, (meta + pages) as u64);
        });
    }

    /// A damaged `CKPT_PAGES` record costs the salvage every image from
    /// it on. The next checkpoint writes each of those pages again,
    /// changed or not, so the stream is back to one image per home page,
    /// and a restore brings every page back; a restore that finds a home
    /// page without an image is an error, not a zeroed page.
    #[test]
    fn a_damaged_image_is_written_again_at_the_next_checkpoint() {
        let cfg = DsmConfig::new(1, 4).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            let write = |inner: &mut NodeInner, page: u32, seq: u32| {
                inner.pages.frame_mut(page).write_u64(0, u64::from(seq) + 1);
                inner
                    .pages
                    .note_home_write(page, IntervalId { node: 0, seq });
            };
            let garble = |inner: &mut NodeInner| {
                let mut records = inner.ctx.disk.peek_stream(CKPT_PAGES).to_vec();
                records[1].flat_mut()[FRAME_HEADER_BYTES] ^= 0x01;
                inner.ctx.disk.rewrite_stream(CKPT_PAGES, records, 0);
            };
            for page in 0..4 {
                write(&mut inner, page, page);
            }
            take_checkpoint(&mut inner, b"");
            garble(&mut inner);
            write(&mut inner, 3, 4);
            take_checkpoint(&mut inner, b"");
            let stream = inner.ctx.disk.peek_stream(CKPT_PAGES);
            let images: Vec<u32> = (frame::salvage(stream).payloads(stream))
                .filter_map(|p| payload_page(&p))
                .collect();
            assert_eq!(images, [0, 1, 2, 3], "one image per home page");

            let mut inner = inner.restart();
            assert!(restore_meta(&mut inner).expect("restores").is_some());
            let words: Vec<u64> = (0..4).map(|p| inner.pages.frame(p).read_u64(0)).collect();
            assert_eq!(words, [1, 2, 3, 5]);

            garble(&mut inner);
            let mut inner = inner.restart();
            assert_eq!(restore_meta(&mut inner), Err(RestoreError::MissingPage(1)));
            assert_eq!(inner.pages.frame(0).read_u64(0), 0, "nothing applied");
            assert_eq!(inner.next_interval, 0, "nothing applied");
        });
    }

    #[test]
    fn second_checkpoint_is_incremental_and_compacted() {
        let cfg = DsmConfig::new(1, 4).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            // First checkpoint: all 4 home pages written.
            take_checkpoint(&mut inner, b"");
            assert_eq!(inner.ctx.disk.record_count(CKPT_PAGES), 4);
            // Modify one page, checkpoint again: only its image is
            // rewritten; the superseded one is compacted away, so the
            // stream still holds exactly one image per page.
            inner.pages.frame_mut(1).write_u64(0, 9);
            inner
                .pages
                .home_state_mut(1)
                .version
                .observe(IntervalId { node: 0, seq: 0 });
            take_checkpoint(&mut inner, b"");
            assert_eq!(inner.ctx.disk.record_count(CKPT_PAGES), 4);
        });
    }

    /// Stream bytes stay bounded across many checkpoints: each one
    /// replaces superseded images instead of appending forever.
    #[test]
    fn repeated_checkpoints_keep_ckpt_pages_bounded() {
        let cfg = DsmConfig::new(1, 4).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            take_checkpoint(&mut inner, b"");
            let baseline = inner.ctx.disk.stream_bytes(CKPT_PAGES);
            assert!(baseline > 0);
            for round in 0..10u64 {
                // Touch the same page every round: without compaction
                // the stream would grow by one image per round.
                inner.pages.frame_mut(2).write_u64(0, round);
                inner.pages.home_state_mut(2).version.observe(IntervalId {
                    node: 0,
                    seq: round as u32,
                });
                take_checkpoint(&mut inner, b"state");
                assert_eq!(inner.ctx.disk.record_count(CKPT_PAGES), 4);
            }
            let after = inner.ctx.disk.stream_bytes(CKPT_PAGES);
            // Version clocks grow a little as intervals accumulate, but
            // the stream stays within a small constant of one image per
            // page — never 10 appended images.
            assert!(
                after < baseline + baseline / 2,
                "CKPT_PAGES grew {baseline} -> {after}"
            );
        });
    }

    #[test]
    fn restore_without_checkpoint_returns_none() {
        let cfg = DsmConfig::new(1, 1).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            assert!(restore_meta(&mut inner).unwrap().is_none());
        });
    }

    /// Pinned regression: a garbled `CKPT_META` record used to panic
    /// (`expect("corrupt checkpoint meta")`); now it is a typed error
    /// the recovery path turns into degraded re-execution.
    #[test]
    fn garbled_meta_is_an_error_not_a_panic() {
        let cfg = DsmConfig::new(1, 1).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            take_checkpoint(&mut inner, b"good");
            // Rot one payload bit of the persisted meta record.
            let mut rec = inner.ctx.disk.peek_stream(CKPT_META)[0].to_vec();
            let last = rec.len() - 1;
            rec[last] ^= 0x10;
            inner.ctx.disk.truncate(CKPT_META);
            inner.ctx.disk.flush_records(CKPT_META, vec![rec]);
            let err = restore_meta(&mut inner).unwrap_err();
            assert!(matches!(err, RestoreError::Frame(FrameError::CrcMismatch)));
            // A torn (truncated) meta record is also an error.
            let mut short = inner.ctx.disk.peek_stream(CKPT_META)[0].to_vec();
            short.truncate(7);
            inner.ctx.disk.truncate(CKPT_META);
            inner.ctx.disk.flush_records(CKPT_META, vec![short]);
            assert!(restore_meta(&mut inner).is_err());
        });
    }
}
