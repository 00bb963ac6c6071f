//! # hlrc — home-based lazy release consistency
//!
//! The coherence protocol of home-based software DSM (Zhou et al.,
//! OSDI'96), as used by the paper's modified TreadMarks:
//!
//! * every shared page has a fixed **home node** collecting updates
//!   from all writers;
//! * writers make **twins** on the first write of an interval and flush
//!   word-granular **diffs** to the home at each release/barrier;
//! * **write-invalidation notices** piggyback on lock grants and
//!   barrier releases; a miss costs one round trip to the home;
//! * locks have static managers; node 0 manages the barrier.
//!
//! The driver is parameterized by a [`FaultTolerance`] implementation —
//! the hook interface through which the `ftlog` crate plugs in the
//! paper's ML and CCL logging/recovery protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fault_tolerance;
mod fetch;
mod msg;
mod node;
mod page_table;
mod served;
mod sync;

pub use config::DsmConfig;
pub use fault_tolerance::{FaultTolerance, NoLogging, RecoveryStep, SyncKind};
pub use fetch::{PrefetchState, MAX_EXTRAS};
pub use msg::{
    decode_ascending, decode_diffs, decode_notices, encode_diffs, encode_notices, kind_label,
    put_ascending, EpochRelease, HomeMigration, Msg, PageCopy, RecoveryImage, WriteNotice,
    HEADER_BYTES, MAX_NOTICES, MSG_KINDS,
};
pub use node::{HlrcNode, NodeInner, OpenTwins};
pub use page_table::{HomeState, NodeSet, PageEntry, PageTable, ServedCopies};
pub use served::ServedLog;
pub use sync::{BarrierMgr, LockState, LockTable, NoticeUnion, PendingAcquire};
