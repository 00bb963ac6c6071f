//! # ftlog — fault tolerance for home-based software DSM
//!
//! The paper's two logging protocols and their recovery schemes, plugged
//! into the `hlrc` coherence driver through its [`hlrc::FaultTolerance`]
//! hook interface:
//!
//! * [`MlLogger`] — traditional **message logging** (§3.1): log every
//!   incoming coherence message in volatile memory, flush the (large)
//!   log serially at each synchronization point; recover by replaying
//!   logged messages from disk, one access per record.
//! * [`CclLogger`] — **coherence-centric logging** (§3.2): log only
//!   notices, update *records*, and own diffs; overlap the (small) flush
//!   with the diff round-trip; recover by per-interval prefetching that
//!   rebuilds home copies from writers' logs and reconstructs remote
//!   copies from checkpoint bases plus logged diffs, eliminating page
//!   faults.
//! * [`StableLog`] — the one owner of a log stream's staged batch and
//!   its device state machine (refused and lost flushes, the
//!   write-behind queue, the salvage scan, checkpoint truncation). The protocols above differ
//!   only in what they record, when they flush and how they replay;
//!   what a device can do to a flush is the same under all of them.
//! * [`checkpoint()`] — coordinated incremental checkpoints, then log
//!   truncation.
//!
//! The "no logging" baseline is [`hlrc::NoLogging`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ccl;
pub mod checkpoint;
pub mod frame;
mod log_record;
mod ml;
mod recovery;
mod stable_log;

pub use ccl::{CclLogger, CCL_STREAM};
pub use checkpoint::{
    checkpoint, restore_meta, CheckpointMeta, RestoreError, CKPT_META, CKPT_PAGES,
};
pub use frame::{
    crc32, encode_record, frame_record, framed_size, salvage, FrameError, Salvage, StoredBytes,
    FRAME_HEADER_BYTES, FRAME_MAGIC,
};
pub use log_record::CclRecord;
pub use ml::{MlLogger, ML_STREAM};
pub use stable_log::{lost_releases, Salvaged, StableLog, Written};
