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
//!
//! # Encoding
//!
//! `u32(page) var(n)`, then per run `var(gap) var(words) data`: `gap`
//! is the number of unchanged words between the previous run's end (the
//! page start, for the first run) and this run, `words` the run's length
//! in words, and `data` its `4 · words` bytes, raw. Positions and
//! lengths are counted in diff words, one byte each below 128 words and
//! two below 16 384: a run header on a 4 KiB page (1 024 words) is 2 to
//! 4 bytes, 2 for the short, close runs of scattered writes.
//! Runs are ascending and disjoint by construction: the layout cannot
//! express a misaligned, overlapping or out-of-order run, so the
//! decoder has only a zero-length run, a run past the last `u32` offset
//! and short input to reject.

use crate::addr::PageId;
use crate::codec::{ByteReader, CodecError, Decode, Encode, Sink};
use crate::page::PageFrame;

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

    /// Snapshot `page` at its first write, which this makes private
    /// ([`PageFrame::make_private`]): the twin of a shared frame is the
    /// buffer it shared, with no copy, and the frame a private copy; the
    /// twin of a private frame is a copy. Either way one page is copied.
    pub fn before_write(page: &mut PageFrame) -> Twin {
        let data = match page.make_private() {
            Some(shipped) => PageFrame::shared(shipped),
            None => page.clone(),
        };
        Twin { data }
    }

    /// The pristine bytes.
    pub fn bytes(&self) -> &[u8] {
        self.data.bytes()
    }

    /// The pristine page frame.
    pub fn frame(&self) -> &PageFrame {
        &self.data
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
                        data: new[at..at + DIFF_WORD].to_vec(),
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
                            data: new[start..at + DIFF_WORD].to_vec(),
                        });
                    } else {
                        runs.push(DiffRun {
                            offset: start as u32,
                            data: new[start..at].to_vec(),
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
                        data: new[start..at].to_vec(),
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
                data: new[start..len].to_vec(),
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
        w.put_var(self.runs.len() as u32);
        let mut end = 0;
        for run in &self.runs {
            debug_assert!(run.offset >= end, "runs overlap or are out of order");
            debug_assert!(!run.data.is_empty() && run.data.len().is_multiple_of(DIFF_WORD));
            w.put_var((run.offset - end) / DIFF_WORD as u32);
            w.put_var((run.data.len() / DIFF_WORD) as u32);
            w.put_raw(&run.data);
            end = run.offset + run.data.len() as u32;
        }
    }
}

impl Decode for PageDiff {
    /// Decode, rejecting what [`PageDiff::create`] never makes: a run of
    /// no words, and a run that ends past the last `u32` byte offset.
    /// (A run past the end of the page is caught by
    /// [`PageDiff::apply_checked`], since the page size is not known
    /// here.)
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let invalid = |reason| CodecError::Invalid {
            context: "DiffRun",
            reason,
        };
        let page = r.get_u32()?;
        let n = r.get_var()? as usize;
        // A run is a gap, a length and at least one word.
        let mut runs = Vec::with_capacity(r.capacity_for(n, 1 + 1 + DIFF_WORD));
        let mut end = 0u64;
        for _ in 0..n {
            let gap = u64::from(r.get_var()?);
            let words = u64::from(r.get_var()?);
            if words == 0 {
                return Err(invalid("zero-length run"));
            }
            let offset = end + gap * DIFF_WORD as u64;
            end = offset + words * DIFF_WORD as u64;
            if end > u64::from(u32::MAX) {
                return Err(invalid("run ends past the last u32 offset"));
            }
            let data = r.get_raw((words as usize) * DIFF_WORD)?.to_vec();
            runs.push(DiffRun {
                offset: offset as u32,
                data,
            });
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

    /// The twin of a shared frame is the buffer it shared: the frame
    /// alone is copied, and the buffer's other holders never see the
    /// write the twin is taken for.
    #[test]
    fn a_shared_frame_becomes_its_own_twin() {
        let shipped = crate::SharedBytes::copy_of(&[3u8; 64]);
        let mut p = PageFrame::shared(shipped.clone());
        let t = Twin::before_write(&mut p);
        assert!(t.frame().as_shared().is_some_and(|b| b.ptr_eq(&shipped)));
        assert!(!p.is_shared());
        p.write_u32(8, 1);
        assert_eq!(&shipped[..], t.bytes());
        assert_eq!(PageDiff::create(0, &t, &p).runs.len(), 1);
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
        // Page and run count; word 2 (the low half of the u64 at 8)
        // two words in; word 25 after 22 unchanged ones: each run
        // header is a byte of gap and one of length.
        assert_eq!(bytes.len(), 4 + 1 + (1 + 1 + 4) + (1 + 1 + 4));
        assert_eq!(PageDiff::decode_from_slice(&bytes).unwrap(), d);
    }

    /// A diff of page 0 written field by field: per run its gap and
    /// length in words, then `data` (whatever its length).
    fn encode_runs(n: u32, runs: &[(u32, u32, &[u8])]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(0); // page
        w.put_var(n);
        for (gap, words, data) in runs {
            w.put_var(*gap);
            w.put_var(*words);
            w.put_raw(data);
        }
        w.into_bytes()
    }

    #[test]
    fn runs_are_placed_by_their_gaps_in_words() {
        let bytes = encode_runs(2, &[(1, 1, &[1; 4]), (2, 2, &[2; 8])]);
        let d = PageDiff::decode_from_slice(&bytes).unwrap();
        assert_eq!(d.runs.len(), 2);
        assert_eq!((d.runs[0].offset, d.runs[0].data.len()), (4, 4));
        // The first run ends at byte 8; a gap of two words puts the
        // second at 16.
        assert_eq!((d.runs[1].offset, d.runs[1].data.len()), (16, 8));
        // Adjacent runs (gap 0) cannot come from `create`, but they
        // are applyable and decode.
        let adjacent = encode_runs(2, &[(0, 1, &[0; 4]), (0, 1, &[0; 4])]);
        assert!(PageDiff::decode_from_slice(&adjacent).is_ok());
    }

    #[test]
    fn decode_rejects_a_zero_length_run() {
        let bytes = encode_runs(1, &[(0, 0, &[])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&bytes),
            Err(CodecError::Invalid {
                reason: "zero-length run",
                ..
            })
        ));
    }

    #[test]
    fn decode_rejects_a_run_that_ends_past_the_last_u32_offset() {
        // 2^30 - 1 words of gap and one word of run end at 2^32 bytes.
        let past = encode_runs(1, &[((1 << 30) - 1, 1, &[0; 4])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&past),
            Err(CodecError::Invalid {
                reason: "run ends past the last u32 offset",
                ..
            })
        ));
        // One word less ends at the last offset a run can reach.
        let last = encode_runs(1, &[((1 << 30) - 2, 1, &[0; 4])]);
        let d = PageDiff::decode_from_slice(&last).unwrap();
        assert_eq!(d.runs[0].offset, u32::MAX - 7);
    }

    #[test]
    fn decode_rejects_truncated_run_data() {
        let bytes = encode_runs(1, &[(0, 2, &[0; 4])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&bytes),
            Err(CodecError::Truncated {
                needed: 8,
                remaining: 4
            })
        ));
    }

    #[test]
    fn a_run_count_beyond_the_input_is_truncated_not_allocated() {
        // Four billion runs announced, one present: capacity comes from
        // the six bytes left, not from the count.
        let bytes = encode_runs(u32::MAX, &[(0, 1, &[0; 4])]);
        assert!(matches!(
            PageDiff::decode_from_slice(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn a_diff_of_more_than_65_535_runs_roundtrips() {
        // Every other word of a 1 MiB frame: 131 072 one-word runs.
        let base = PageFrame::zeroed(1 << 20);
        let t = Twin::of(&base);
        let mut m = base.clone();
        for at in (0..m.len()).step_by(2 * DIFF_WORD) {
            m.write_u32(at, 1);
        }
        let d = PageDiff::create(5, &t, &m);
        assert_eq!(d.runs.len(), 131_072);
        let bytes = d.encode_to_vec();
        assert_eq!(d.encoded_size(), bytes.len());
        assert_eq!(PageDiff::decode_from_slice(&bytes).unwrap(), d);
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
