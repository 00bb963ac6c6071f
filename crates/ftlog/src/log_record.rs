//! On-disk record format of the coherence-centric log.
//!
//! CCL stores exactly the three kinds of information the paper's §3.2
//! enumerates, in occurrence order:
//!
//! * [`CclRecord::Sync`] — the write-invalidation notices received at an
//!   acquire or barrier, with the piggybacked timestamp;
//! * [`CclRecord::Updates`] — the *record* (not contents) of incoming
//!   updates applied to this node's home copies: writer interval + pages;
//! * [`CclRecord::Diffs`] — the diffs this node itself produced at the
//!   end of an interval.
//!
//! Traditional ML needs no record type of its own: it logs the raw
//! encoded bytes of every incoming coherence message.

use hlrc::{
    decode_ascending, decode_diffs, decode_notices, encode_diffs, encode_notices, put_ascending,
    SyncKind, WriteNotice,
};
use pagemem::{ByteReader, CodecError, Decode, Encode, IntervalId, PageDiff, PageId, Sink, VClock};

/// One record in the coherence-centric log.
#[derive(Debug, Clone, PartialEq)]
pub enum CclRecord {
    /// Notices + timestamp accepted at one synchronization operation.
    ///
    /// Byte layout: `tag(0 acquire | 1 barrier) u32(lock | epoch)`, the
    /// notice list as interval records ([`hlrc::encode_notices`]:
    /// `var(n)`, then per interval `var(node) var(seq) var(n_runs)` and
    /// per run of consecutive pages `var(start) var(len)`, where
    /// `n_runs = 0` repeats the runs of the interval before), then the
    /// clock (`var(len)`, `var(count)` per process) — the same bytes the
    /// grant or release carried them in.
    Sync {
        /// Which operation.
        tag: SyncKind,
        /// The fresh write-invalidation notices received there.
        notices: Vec<WriteNotice>,
        /// The node's vector clock right after applying them.
        vc: VClock,
    },
    /// A writer's flushed diffs were applied to local home copies.
    ///
    /// Byte layout: `tag(2)`, the writer's interval (`var(node)
    /// var(seq)`), then the pages as
    /// an ascending list ([`hlrc::put_ascending`]: `var(n)`, then each
    /// page as `var(distance from the one before)`, the first from 0).
    Updates {
        /// The writer's interval.
        writer: IntervalId,
        /// The home pages it updated.
        pages: Vec<PageId>,
    },
    /// Diffs this node created at the end of `interval`.
    ///
    /// Byte layout: `tag(3)`, the interval (`var(node) var(seq)`), then
    /// the diffs as a
    /// [`Msg::DiffFlush`](hlrc::Msg::DiffFlush) carries them
    /// ([`hlrc::encode_diffs`]: `var(n)`, then per diff `u32(page)
    /// var(n_runs)` and per run `var(words since the previous run's
    /// end) var(length in words)` and the run's bytes).
    Diffs {
        /// The closed interval.
        interval: IntervalId,
        /// Its diffs (for non-home dirtied pages).
        diffs: Vec<PageDiff>,
    },
}

impl Encode for CclRecord {
    fn encode<S: Sink>(&self, w: &mut S) {
        match self {
            CclRecord::Sync { tag, notices, vc } => {
                match tag {
                    SyncKind::Acquire(l) => {
                        w.put_u8(0);
                        w.put_u32(*l);
                    }
                    SyncKind::Barrier(e) => {
                        w.put_u8(1);
                        w.put_u32(*e);
                    }
                }
                encode_notices(w, notices);
                vc.encode(w);
            }
            CclRecord::Updates { writer, pages } => {
                w.put_u8(2);
                writer.encode(w);
                put_ascending(w, pages);
            }
            CclRecord::Diffs { interval, diffs } => {
                w.put_u8(3);
                interval.encode(w);
                encode_diffs(w, diffs);
            }
        }
    }
}

impl Decode for CclRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        Ok(match tag {
            0 | 1 => {
                let id = r.get_u32()?;
                let sync_tag = if tag == 0 {
                    SyncKind::Acquire(id)
                } else {
                    SyncKind::Barrier(id)
                };
                let notices = decode_notices(r)?;
                let vc = VClock::decode(r)?;
                CclRecord::Sync {
                    tag: sync_tag,
                    notices,
                    vc,
                }
            }
            2 => {
                let writer = IntervalId::decode(r)?;
                let pages = decode_ascending(r)?;
                CclRecord::Updates { writer, pages }
            }
            3 => {
                let interval = IntervalId::decode(r)?;
                let diffs = decode_diffs(r)?;
                CclRecord::Diffs { interval, diffs }
            }
            t => {
                return Err(CodecError::BadTag {
                    context: "CclRecord",
                    tag: t,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagemem::{PageFrame, Twin};

    fn sample_diff(page: PageId) -> PageDiff {
        let base = PageFrame::zeroed(64);
        let twin = Twin::of(&base);
        let mut m = base.clone();
        m.write_u64(16, 7);
        PageDiff::create(page, &twin, &m)
    }

    fn roundtrip(rec: CclRecord) {
        let bytes = rec.encode_to_vec();
        assert_eq!(rec.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(CclRecord::decode_from_slice(&bytes).unwrap(), rec);
    }

    #[test]
    fn sync_records_roundtrip() {
        let mut vc = VClock::new(4);
        vc.set(1, 5);
        roundtrip(CclRecord::Sync {
            tag: SyncKind::Acquire(3),
            notices: vec![WriteNotice {
                page: 2,
                interval: IntervalId { node: 1, seq: 4 },
            }],
            vc: vc.clone(),
        });
        roundtrip(CclRecord::Sync {
            tag: SyncKind::Barrier(9),
            notices: vec![],
            vc,
        });
    }

    #[test]
    fn updates_record_roundtrip() {
        roundtrip(CclRecord::Updates {
            writer: IntervalId { node: 2, seq: 7 },
            pages: vec![1, 5, 9],
        });
    }

    #[test]
    fn diffs_record_roundtrip() {
        roundtrip(CclRecord::Diffs {
            interval: IntervalId { node: 0, seq: 1 },
            diffs: vec![sample_diff(4), sample_diff(6)],
        });
    }

    #[test]
    fn update_records_are_small() {
        // The key CCL economy: an update *record* is a fixed few bytes
        // regardless of the diff payload it stands for.
        let rec = CclRecord::Updates {
            writer: IntervalId { node: 1, seq: 1 },
            pages: vec![3],
        };
        assert!(rec.encoded_size() < 24);
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            CclRecord::decode_from_slice(&[9]),
            Err(CodecError::BadTag { .. })
        ));
    }
}
