//! Twins and diffs: the multiple-writer write-collection machinery.
//!
//! Before the first write to a non-home page in an interval, the DSM
//! makes a *twin* (pristine copy). At the next release or barrier it
//! *diffs* the modified page against its twin — comparing 4-byte words,
//! as TreadMarks did — and ships the run-length-encoded result to the
//! page's home node, which applies it to the home copy.
//!
//! The comparison kernel is a two-speed scan: with no run open it
//! skips unchanged spans with wide (vectorized) 64-byte compares, and
//! with a run open it races through fully-changed `u64` chunks,
//! dropping to word granularity only at the chunk that contains a run
//! boundary. The boundaries are bit-identical to the word-at-a-time
//! reference implementation ([`PageDiff::create_reference`]) while
//! doing per-word work only where runs start and end.

use crate::addr::PageId;
use crate::codec::{ByteReader, CodecError, Decode, Encode, Sink};
use crate::page::PageFrame;
use crate::pool::BufferPool;

/// Word granularity of diff comparison, in bytes.
pub const DIFF_WORD: usize = 4;

/// Chunk granularity of the scan (two diff words, one `u64` load each
/// side).
const CHUNK: usize = 8;

/// Block granularity of the skip loop over unchanged spans. Slice
/// equality at this width compiles to wide vector compares, so clean
/// spans cost a fraction of a word-at-a-time scan.
const SKIP: usize = 64;

/// A pristine pre-write copy of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Twin {
    data: PageFrame,
}

impl Twin {
    /// Snapshot `page` before the first write of the interval.
    pub fn of(page: &PageFrame) -> Twin {
        Twin { data: page.clone() }
    }

    /// Snapshot `page`, drawing the backing store from `pool` so the
    /// steady-state twin churn of an interval allocates nothing.
    pub fn of_with(page: &PageFrame, pool: &mut BufferPool) -> Twin {
        Twin {
            data: pool.frame_copy_of(page),
        }
    }

    /// The pristine bytes.
    pub fn bytes(&self) -> &[u8] {
        self.data.bytes()
    }

    /// The pristine page frame.
    pub fn frame(&self) -> &PageFrame {
        &self.data
    }

    /// Consume the twin, yielding its frame (for recycling into a
    /// [`BufferPool`] once the diff has been taken).
    pub fn into_frame(self) -> PageFrame {
        self.data
    }
}

/// One contiguous modified byte range within a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page (word-aligned).
    pub offset: u32,
    /// Replacement bytes (length a multiple of the diff word).
    pub data: Vec<u8>,
}

/// The encoded summary of modifications made to one page in one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDiff {
    /// Which shared page this diff modifies.
    pub page: PageId,
    /// Modified runs in ascending, non-overlapping offset order.
    pub runs: Vec<DiffRun>,
}

#[inline(always)]
fn word_differs(old: &[u8], new: &[u8], at: usize) -> bool {
    let o = u32::from_ne_bytes(old[at..at + DIFF_WORD].try_into().unwrap());
    let n = u32::from_ne_bytes(new[at..at + DIFF_WORD].try_into().unwrap());
    o != n
}

#[inline(always)]
fn chunk_at(b: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(b[at..at + CHUNK].try_into().unwrap())
}

/// Which diff words of a chunk XOR (`old ^ new`) changed, in byte
/// order: `.0` covers bytes `[0, 4)` of the chunk, `.1` bytes `[4, 8)`.
/// XOR is bytewise, so slicing the native-endian byte representation is
/// endian-agnostic.
#[inline(always)]
fn changed_lanes(x: u64) -> (bool, bool) {
    let b = x.to_ne_bytes();
    (
        u32::from_ne_bytes(b[..4].try_into().unwrap()) != 0,
        u32::from_ne_bytes(b[4..].try_into().unwrap()) != 0,
    )
}

impl PageDiff {
    /// Compare `current` against its `twin` and collect modified words.
    ///
    /// # Panics
    /// Panics if the twin and page sizes differ or are not multiples of
    /// the diff word.
    pub fn create(page: PageId, twin: &Twin, current: &PageFrame) -> PageDiff {
        Self::between(page, twin.bytes(), current.bytes())
    }

    /// The diff that turns the page image `old` into `new` — for
    /// images that are not frames, such as two retained reply buffers.
    ///
    /// # Panics
    /// As [`PageDiff::create`].
    pub fn between(page: PageId, old: &[u8], new: &[u8]) -> PageDiff {
        Self::build(page, old, new, |new, start, end| new[start..end].to_vec())
    }

    /// [`PageDiff::create`], drawing run buffers from `pool` so diff
    /// construction recycles the byte vectors of previously applied
    /// diffs instead of allocating.
    pub fn create_in(
        page: PageId,
        twin: &Twin,
        current: &PageFrame,
        pool: &mut BufferPool,
    ) -> PageDiff {
        Self::build(page, twin.bytes(), current.bytes(), |new, start, end| {
            let mut buf = pool.take_buf(end - start);
            buf.extend_from_slice(&new[start..end]);
            buf
        })
    }

    /// The chunked scan. `make_run` materializes `new[start..end]`;
    /// factored out so the pooled and plain entry points share one
    /// kernel.
    fn build<F: FnMut(&[u8], usize, usize) -> Vec<u8>>(
        page: PageId,
        old: &[u8],
        new: &[u8],
        mut make_run: F,
    ) -> PageDiff {
        assert_eq!(old.len(), new.len(), "twin/page size mismatch");
        assert_eq!(new.len() % DIFF_WORD, 0, "page not word-divisible");

        let len = new.len();
        let mut runs = Vec::new();
        let mut run_start: Option<usize> = None;
        let mut at = 0usize;
        'scan: while at + CHUNK <= len {
            if run_start.is_none() {
                // No open run: race through unchanged spans — wide
                // blocks first (vectorized memcmp), then chunks to land
                // exactly on the first chunk that differs.
                while at + SKIP <= len && old[at..at + SKIP] == new[at..at + SKIP] {
                    at += SKIP;
                }
                while at + CHUNK <= len && chunk_at(old, at) == chunk_at(new, at) {
                    at += CHUNK;
                }
                if at + CHUNK > len {
                    break;
                }
                // Open a run at the chunk's first changed word; a
                // lone changed low word closes immediately.
                let (w0, w1) = changed_lanes(chunk_at(old, at) ^ chunk_at(new, at));
                match (w0, w1) {
                    (true, true) => run_start = Some(at),
                    (true, false) => runs.push(DiffRun {
                        offset: at as u32,
                        data: make_run(new, at, at + DIFF_WORD),
                    }),
                    // The chunk differs, so at least one word changed.
                    (false, _) => run_start = Some(at + DIFF_WORD),
                }
                at += CHUNK;
            } else {
                // Open run: race through fully-changed chunks; the
                // first chunk containing an unchanged word closes the
                // run exactly where the word-at-a-time scan would.
                while at + CHUNK <= len {
                    let (w0, w1) = changed_lanes(chunk_at(old, at) ^ chunk_at(new, at));
                    if w0 && w1 {
                        at += CHUNK;
                        continue;
                    }
                    let start = run_start.take().unwrap();
                    if w0 {
                        // Run extends through the low word, ends at the
                        // unchanged high word.
                        runs.push(DiffRun {
                            offset: start as u32,
                            data: make_run(new, start, at + DIFF_WORD),
                        });
                    } else {
                        runs.push(DiffRun {
                            offset: start as u32,
                            data: make_run(new, start, at),
                        });
                        if w1 {
                            run_start = Some(at + DIFF_WORD);
                        }
                    }
                    at += CHUNK;
                    continue 'scan;
                }
                break;
            }
        }
        // Tail narrower than one chunk (page sizes are word multiples,
        // so this is at most one word).
        while at < len {
            match (word_differs(old, new, at), run_start) {
                (true, None) => run_start = Some(at),
                (false, Some(start)) => {
                    runs.push(DiffRun {
                        offset: start as u32,
                        data: make_run(new, start, at),
                    });
                    run_start = None;
                }
                _ => {}
            }
            at += DIFF_WORD;
        }
        if let Some(start) = run_start {
            runs.push(DiffRun {
                offset: start as u32,
                data: make_run(new, start, len),
            });
        }
        PageDiff { page, runs }
    }

    /// The original word-at-a-time scan, kept as the executable
    /// specification of run boundaries: the chunked [`PageDiff::create`]
    /// must produce byte-identical output (enforced by a property test).
    pub fn create_reference(page: PageId, twin: &Twin, current: &PageFrame) -> PageDiff {
        let old = twin.bytes();
        let new = current.bytes();
        assert_eq!(old.len(), new.len(), "twin/page size mismatch");
        assert_eq!(new.len() % DIFF_WORD, 0, "page not word-divisible");

        let mut runs = Vec::new();
        let mut run_start: Option<usize> = None;
        let words = new.len() / DIFF_WORD;
        for w in 0..words {
            let at = w * DIFF_WORD;
            let changed = old[at..at + DIFF_WORD] != new[at..at + DIFF_WORD];
            match (changed, run_start) {
                (true, None) => run_start = Some(at),
                (false, Some(start)) => {
                    runs.push(DiffRun {
                        offset: start as u32,
                        data: new[start..at].to_vec(),
                    });
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(start) = run_start {
            runs.push(DiffRun {
                offset: start as u32,
                data: new[start..].to_vec(),
            });
        }
        PageDiff { page, runs }
    }

    /// No modifications at all?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total modified bytes carried.
    pub fn payload_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.data.len()).sum()
    }

    /// Apply this diff to `target` (the home copy, or a copy being
    /// reconstructed during recovery).
    ///
    /// Single-word runs take a fixed-size copy path: a scattered diff
    /// (false-sharing access patterns) is almost entirely 4-byte runs,
    /// and a generic `copy_from_slice` pays a `memcpy` call plus
    /// length dispatch per run — more than the copy itself at that
    /// size. The fixed-size path compiles to one load/store pair.
    ///
    /// # Panics
    /// Panics if a run falls outside the page. For input that crossed a
    /// trust boundary (wire or log), use [`PageDiff::apply_checked`].
    pub fn apply(&self, target: &mut PageFrame) {
        let bytes = target.bytes_mut();
        for run in &self.runs {
            let start = run.offset as usize;
            let data = run.data.as_slice();
            if let Ok(word) = <&[u8; DIFF_WORD]>::try_from(data) {
                let dst = &mut bytes[start..start + DIFF_WORD];
                dst.copy_from_slice(word);
            } else {
                bytes[start..start + data.len()].copy_from_slice(data);
            }
        }
    }

    /// [`PageDiff::apply`] with the bounds check surfaced as an error:
    /// a run extending past the page (which decode cannot reject — it
    /// does not know the page size) yields a [`CodecError`] instead of
    /// a panic.
    pub fn apply_checked(&self, target: &mut PageFrame) -> Result<(), CodecError> {
        let len = target.len() as u64;
        for run in &self.runs {
            if run.offset as u64 + run.data.len() as u64 > len {
                return Err(CodecError::Invalid {
                    context: "PageDiff",
                    reason: "run extends past the end of the page",
                });
            }
        }
        self.apply(target);
        Ok(())
    }
}

impl Encode for PageDiff {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_u32(self.page);
        w.put_u16(self.runs.len() as u16);
        for run in &self.runs {
            w.put_u32(run.offset);
            w.put_bytes(&run.data);
        }
    }
}

impl Decode for PageDiff {
    /// Decode, rejecting structurally malformed diffs: runs must be
    /// word-aligned, non-empty word-multiples, and strictly ascending
    /// without overlap — exactly the invariants [`PageDiff::create`]
    /// guarantees. (Out-of-page offsets are caught by
    /// [`PageDiff::apply_checked`], since the page size is not known
    /// here.)
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let page = r.get_u32()?;
        let n = r.get_u16()? as usize;
        // A run is an offset, a length and at least one word.
        let mut runs = Vec::with_capacity(r.capacity_for(n, 4 + 4 + DIFF_WORD));
        let mut prev_end = 0u64;
        for i in 0..n {
            let offset = r.get_u32()?;
            let data = r.get_bytes()?;
            if !(offset as usize).is_multiple_of(DIFF_WORD) {
                return Err(CodecError::Invalid {
                    context: "DiffRun",
                    reason: "offset not word-aligned",
                });
            }
            if data.is_empty() || !data.len().is_multiple_of(DIFF_WORD) {
                return Err(CodecError::Invalid {
                    context: "DiffRun",
                    reason: "length empty or not a word multiple",
                });
            }
            if i > 0 && (offset as u64) < prev_end {
                return Err(CodecError::Invalid {
                    context: "DiffRun",
                    reason: "runs overlap or are out of order",
                });
            }
            prev_end = offset as u64 + data.len() as u64;
            runs.push(DiffRun { offset, data });
        }
        Ok(PageDiff { page, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;

    fn page_with(vals: &[(usize, u64)], size: usize) -> PageFrame {
        let mut p = PageFrame::zeroed(size);
        for &(off, v) in vals {
            p.write_u64(off, v);
        }
        p
    }

    #[test]
    fn identical_pages_give_empty_diff() {
        let p = page_with(&[(0, 7)], 64);
        let t = Twin::of(&p);
        let d = PageDiff::create(3, &t, &p);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let p = page_with(&[], 64);
        let t = Twin::of(&p);
        let mut p2 = p.clone();
        p2.write_u32(8, 0xFFFF_FFFF);
        let d = PageDiff::create(0, &t, &p2);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 8);
        assert_eq!(d.runs[0].data.len(), 4);
    }

    #[test]
    fn adjacent_words_merge_into_one_run() {
        let p = PageFrame::zeroed(64);
        let t = Twin::of(&p);
        let mut p2 = p.clone();
        p2.write_u64(16, u64::MAX); // words at 16 and 20
        let d = PageDiff::create(0, &t, &p2);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 16);
        assert_eq!(d.runs[0].data.len(), 8);
    }

    #[test]
    fn separated_changes_make_separate_runs() {
        let p = PageFrame::zeroed(64);
        let t = Twin::of(&p);
        let mut p2 = p.clone();
        p2.write_u32(0, 1);
        p2.write_u32(32, 2);
        let d = PageDiff::create(0, &t, &p2);
        assert_eq!(d.runs.len(), 2);
        assert_eq!(d.runs[0].offset, 0);
        assert_eq!(d.runs[1].offset, 32);
    }

    #[test]
    fn change_at_page_end_is_captured() {
        let p = PageFrame::zeroed(64);
        let t = Twin::of(&p);
        let mut p2 = p.clone();
        p2.write_u32(60, 9);
        let d = PageDiff::create(0, &t, &p2);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 60);
    }

    #[test]
    fn run_straddling_a_chunk_boundary_matches_reference() {
        // Words at 4 and 8 changed: one run crossing the 8-byte chunk
        // boundary, exercising the word-granularity fallback.
        let p = PageFrame::zeroed(64);
        let t = Twin::of(&p);
        let mut p2 = p.clone();
        p2.write_u32(4, 1);
        p2.write_u32(8, 2);
        let d = PageDiff::create(0, &t, &p2);
        assert_eq!(d, PageDiff::create_reference(0, &t, &p2));
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 4);
        assert_eq!(d.runs[0].data.len(), 8);
    }

    #[test]
    fn tail_word_of_non_chunk_multiple_page_is_scanned() {
        // 60-byte page: seven full chunks plus one trailing word.
        let p = PageFrame::zeroed(60);
        let t = Twin::of(&p);
        let mut p2 = p.clone();
        p2.write_u32(56, 5);
        let d = PageDiff::create(0, &t, &p2);
        assert_eq!(d, PageDiff::create_reference(0, &t, &p2));
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 56);
        assert_eq!(d.runs[0].data.len(), 4);
    }

    #[test]
    fn pooled_create_matches_plain_create() {
        let mut pool = BufferPool::new(64);
        let p = PageFrame::zeroed(64);
        let t = Twin::of_with(&p, &mut pool);
        let mut p2 = p.clone();
        p2.write_u64(16, 77);
        p2.write_u32(40, 3);
        let plain = PageDiff::create(9, &t, &p2);
        let pooled = PageDiff::create_in(9, &t, &p2, &mut pool);
        assert_eq!(plain, pooled);
        pool.recycle_frame(t.into_frame());
        assert_eq!(pool.idle_frames(), 1);
    }

    #[test]
    fn apply_reconstructs_modified_page() {
        let base = page_with(&[(0, 11), (24, 22)], 64);
        let t = Twin::of(&base);
        let mut modified = base.clone();
        modified.write_u64(24, 99);
        modified.write_u32(40, 7);
        let d = PageDiff::create(0, &t, &modified);

        let mut rebuilt = base.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, modified);
    }

    #[test]
    fn disjoint_diffs_commute_multiple_writers() {
        // Two writers of the same page modifying disjoint words (the
        // multiple-writer, data-race-free case): applying the two diffs
        // to the home copy in either order gives the same result.
        let base = PageFrame::zeroed(64);
        let t = Twin::of(&base);

        let mut w1 = base.clone();
        w1.write_u64(0, 111);
        let d1 = PageDiff::create(0, &t, &w1);

        let mut w2 = base.clone();
        w2.write_u64(32, 222);
        let d2 = PageDiff::create(0, &t, &w2);

        let mut home_a = base.clone();
        d1.apply(&mut home_a);
        d2.apply(&mut home_a);
        let mut home_b = base.clone();
        d2.apply(&mut home_b);
        d1.apply(&mut home_b);
        assert_eq!(home_a, home_b);
        assert_eq!(home_a.read_u64(0), 111);
        assert_eq!(home_a.read_u64(32), 222);
    }

    #[test]
    fn codec_roundtrip() {
        let base = PageFrame::zeroed(128);
        let t = Twin::of(&base);
        let mut m = base.clone();
        m.write_u64(8, 1);
        m.write_u32(100, 2);
        let d = PageDiff::create(17, &t, &m);
        let bytes = d.encode_to_vec();
        assert_eq!(d.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(PageDiff::decode_from_slice(&bytes).unwrap(), d);
    }

    fn encode_runs(runs: &[(u32, &[u8])]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(0); // page
        w.put_u16(runs.len() as u16);
        for (off, data) in runs {
            w.put_u32(*off);
            w.put_bytes(data);
        }
        w.into_bytes()
    }

    #[test]
    fn decode_rejects_unaligned_offset() {
        let bytes = encode_runs(&[(2, &[1, 2, 3, 4])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&bytes),
            Err(CodecError::Invalid {
                reason: "offset not word-aligned",
                ..
            })
        ));
    }

    #[test]
    fn decode_rejects_non_word_multiple_length() {
        let bytes = encode_runs(&[(0, &[1, 2, 3])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&bytes),
            Err(CodecError::Invalid { .. })
        ));
        let empty = encode_runs(&[(0, &[])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&empty),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn decode_rejects_overlapping_or_unordered_runs() {
        let overlap = encode_runs(&[(0, &[0; 8]), (4, &[0; 4])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&overlap),
            Err(CodecError::Invalid {
                reason: "runs overlap or are out of order",
                ..
            })
        ));
        let unordered = encode_runs(&[(32, &[0; 4]), (0, &[0; 4])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&unordered),
            Err(CodecError::Invalid { .. })
        ));
        // Adjacent (touching, not overlapping) runs remain decodable:
        // they cannot come from `create`, but they are applyable.
        let adjacent = encode_runs(&[(0, &[0; 4]), (4, &[0; 4])]);
        assert!(PageDiff::decode_from_slice(&adjacent).is_ok());
    }

    #[test]
    fn apply_checked_rejects_out_of_page_run() {
        let d = PageDiff {
            page: 0,
            runs: vec![DiffRun {
                offset: 60,
                data: vec![0; 8],
            }],
        };
        let mut target = PageFrame::zeroed(64);
        assert!(matches!(
            d.apply_checked(&mut target),
            Err(CodecError::Invalid {
                reason: "run extends past the end of the page",
                ..
            })
        ));
        // In-bounds diffs apply exactly like `apply`.
        let ok = PageDiff {
            page: 0,
            runs: vec![DiffRun {
                offset: 56,
                data: vec![7; 8],
            }],
        };
        ok.apply_checked(&mut target).unwrap();
        assert_eq!(target.bytes()[56], 7);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        let t = Twin::of(&PageFrame::zeroed(64));
        PageDiff::create(0, &t, &PageFrame::zeroed(128));
    }
}
