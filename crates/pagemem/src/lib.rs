//! # pagemem — paged shared-memory substrate
//!
//! The memory-management layer under the home-based DSM:
//!
//! * [`PageLayout`]/[`PageId`] — the flat shared address space and its
//!   page-granular coherence units;
//! * [`PageFrame`] — the physical bytes of one page on one node;
//! * [`PageState`]/[`Access`]/[`Fault`] — the VM-protection state machine
//!   (software access checks substituting for mprotect/SIGSEGV, see
//!   DESIGN.md);
//! * [`Twin`]/[`PageDiff`] — multiple-writer write collection: pristine
//!   copies and word-granular run-length diffs;
//! * [`VClock`]/[`IntervalId`] — lazy-release-consistency interval
//!   timestamps;
//! * [`codec`] — the binary wire/log codec that makes every reported
//!   byte count real;
//! * [`SharedBytes`] — refcount-shared page payloads, which a frame
//!   shares until its first write (a physical optimization only; all
//!   reported byte counts stay logical). Frames, twins and diff runs
//!   come from the allocator and drop when they die.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod bytes;
pub mod codec;
mod diff;
mod page;
mod protect;
mod vclock;

pub use addr::{PageId, PageLayout};
pub use bytes::SharedBytes;
pub use codec::{ByteCount, ByteReader, ByteWriter, CodecError, Decode, Encode, Sink};
pub use diff::{DiffRun, PageDiff, Twin, DIFF_WORD};
pub use page::PageFrame;
pub use protect::{Access, Fault, PageState};
pub use vclock::{IntervalId, VClock, VOrder};
