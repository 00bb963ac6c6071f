//! Property tests for the twin/diff machinery — the invariants the whole
//! coherence and recovery stack leans on.

use minicheck::{check, Rng};
use pagemem::{Decode, Encode, PageDiff, PageFrame, SharedBytes, Twin, DIFF_WORD};

const PAGE: usize = 256;
const CASES: u64 = 128;

/// A page plus an arbitrary set of word-aligned mutations.
fn page_and_edits(rng: &mut Rng) -> (Vec<u8>, Vec<(usize, [u8; 4])>) {
    let base = rng.bytes(PAGE);
    let n_edits = rng.usize_in(0, 32);
    let edits = (0..n_edits)
        .map(|_| {
            let word = rng.usize_in(0, PAGE / DIFF_WORD);
            let mut data = [0u8; 4];
            for b in &mut data {
                *b = rng.byte();
            }
            (word * DIFF_WORD, data)
        })
        .collect();
    (base, edits)
}

fn apply_edits(base: &[u8], edits: &[(usize, [u8; 4])]) -> PageFrame {
    let mut p = PageFrame::from_bytes(base);
    for (off, bytes) in edits {
        p.bytes_mut()[*off..*off + 4].copy_from_slice(bytes);
    }
    p
}

/// diff(twin, current) applied to a copy of the twin reproduces
/// `current` exactly — the correctness core of diff-based write
/// propagation and of log-based recovery.
#[test]
fn diff_apply_reconstructs() {
    check("diff_apply_reconstructs", CASES, |rng| {
        let (base, edits) = page_and_edits(rng);
        let twin_frame = PageFrame::from_bytes(&base);
        let twin = Twin::of(&twin_frame);
        let current = apply_edits(&base, &edits);
        let diff = PageDiff::create(0, &twin, &current);

        let mut rebuilt = twin_frame.clone();
        diff.apply(&mut rebuilt);
        assert_eq!(rebuilt, current);
    });
}

/// The diff never carries more payload than the page and captures
/// no runs when nothing changed.
#[test]
fn diff_is_minimal() {
    check("diff_is_minimal", CASES, |rng| {
        let (base, edits) = page_and_edits(rng);
        let twin_frame = PageFrame::from_bytes(&base);
        let twin = Twin::of(&twin_frame);
        let current = apply_edits(&base, &edits);
        let diff = PageDiff::create(0, &twin, &current);

        assert!(diff.payload_bytes() <= PAGE);
        if current.bytes() == twin.bytes() {
            assert!(diff.is_empty());
        }
        // Each changed word must be covered by exactly one run; runs are
        // sorted, non-overlapping, word-aligned.
        let mut last_end = 0usize;
        for run in &diff.runs {
            assert_eq!(run.offset as usize % DIFF_WORD, 0);
            assert_eq!(run.data.len() % DIFF_WORD, 0);
            assert!(run.offset as usize >= last_end);
            last_end = run.offset as usize + run.data.len();
            assert!(last_end <= PAGE);
        }
    });
}

/// Wire-codec roundtrip is lossless, and the counting sink agrees with
/// the buffer over a whole diff.
#[test]
fn diff_codec_roundtrip() {
    check("diff_codec_roundtrip", CASES, |rng| {
        let (base, edits) = page_and_edits(rng);
        let twin_frame = PageFrame::from_bytes(&base);
        let twin = Twin::of(&twin_frame);
        let current = apply_edits(&base, &edits);
        let diff = PageDiff::create(9, &twin, &current);

        let bytes = diff.encode_to_vec();
        assert_eq!(diff.encoded_size(), bytes.len(), "the two sinks disagree");
        let back = PageDiff::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, diff);
    });
}

/// Every shape of change a 4 KiB page sees — scattered words, 64-byte
/// blocks, the whole page, the last word alone — encodes to exactly
/// `encoded_size()` bytes and decodes to the same diff: gaps and
/// lengths counted in words place each run where `create` found it.
#[test]
fn diff_codec_roundtrips_every_change_shape() {
    const PAGE_4K: usize = 4096;
    check("diff_codec_roundtrips_every_change_shape", CASES, |rng| {
        let twin_frame = PageFrame::from_bytes(&rng.bytes(PAGE_4K));
        let mut current = twin_frame.clone();
        let mut flip = |at: usize| {
            let w = &mut current.bytes_mut()[at..at + DIFF_WORD];
            w[0] ^= 0xFF;
        };
        let shape = rng.usize_in(0, 4);
        match shape {
            0 => {
                for _ in 0..rng.usize_in(1, 512) {
                    flip(rng.usize_in(0, PAGE_4K / DIFF_WORD) * DIFF_WORD);
                }
            }
            1 => {
                for _ in 0..rng.usize_in(1, 16) {
                    let block = rng.usize_in(0, PAGE_4K / 64) * 64;
                    (block..block + 64).step_by(DIFF_WORD).for_each(&mut flip);
                }
            }
            2 => (0..PAGE_4K).step_by(DIFF_WORD).for_each(&mut flip),
            _ => flip(PAGE_4K - DIFF_WORD),
        }
        let twin = Twin::of(&twin_frame);
        let diff = PageDiff::create(rng.next_u64() as u32, &twin, &current);
        assert!(!diff.is_empty());

        let bytes = diff.encode_to_vec();
        assert_eq!(diff.encoded_size(), bytes.len(), "shape {shape}");
        assert_eq!(PageDiff::decode_from_slice(&bytes).unwrap(), diff);
    });
}

/// Applying a diff twice is idempotent (recovery may replay).
#[test]
fn diff_apply_idempotent() {
    check("diff_apply_idempotent", CASES, |rng| {
        let (base, edits) = page_and_edits(rng);
        let twin_frame = PageFrame::from_bytes(&base);
        let twin = Twin::of(&twin_frame);
        let current = apply_edits(&base, &edits);
        let diff = PageDiff::create(0, &twin, &current);

        let mut once = twin_frame.clone();
        diff.apply(&mut once);
        let mut twice = once.clone();
        diff.apply(&mut twice);
        assert_eq!(once, twice);
    });
}

/// The chunked scan kernel is an exact drop-in for the retained naive
/// reference: byte-identical runs, offsets, and encoding across random
/// page sizes and change densities (including dense, sparse, silent,
/// chunk-straddling, and tail-word cases). The reported diff byte
/// counts of every experiment rest on this equivalence.
#[test]
fn chunked_kernel_matches_reference() {
    check("chunked_kernel_matches_reference", CASES * 4, |rng| {
        // Page sizes sweep word-but-not-chunk multiples (4 mod 8) as
        // well as chunk multiples, down to degenerate 4-byte pages.
        let size = DIFF_WORD * rng.usize_in(1, 128);
        let base = rng.bytes(size);
        let mut current = PageFrame::from_bytes(&base);
        // Change density from 0% to ~100%.
        let density = rng.usize_in(0, 101);
        for w in 0..size / DIFF_WORD {
            if rng.usize_in(0, 100) < density {
                let mut word = [0u8; 4];
                for b in &mut word {
                    *b = rng.byte();
                }
                current.bytes_mut()[w * DIFF_WORD..(w + 1) * DIFF_WORD].copy_from_slice(&word);
            }
        }
        let twin = Twin::of(&PageFrame::from_bytes(&base));
        let fast = PageDiff::create(7, &twin, &current);
        let reference = PageDiff::create_reference(7, &twin, &current);
        assert_eq!(fast, reference, "size={size} density={density}");
        assert_eq!(fast.encode_to_vec(), reference.encode_to_vec());

        // A twin booked at the first write of a shipped copy is the
        // buffer the copy was shipped in, and diffs the same.
        let shipped = SharedBytes::copy_of(&base);
        let mut frame = PageFrame::shared(shipped.clone());
        let booked = Twin::before_write(&mut frame);
        assert!(booked
            .frame()
            .as_shared()
            .is_some_and(|b| b.ptr_eq(&shipped)));
        assert!(!frame.is_shared());
        assert_eq!(PageDiff::create(7, &booked, &current), reference);
    });
}

/// Diffs from writers that touched disjoint words commute on the
/// home copy (the multiple-writer protocol's soundness condition
/// for data-race-free programs).
#[test]
fn disjoint_diffs_commute() {
    check("disjoint_diffs_commute", CASES, |rng| {
        let base = rng.bytes(PAGE);
        let n_words = rng.usize_in(0, 24);
        let mut words: Vec<usize> = (0..n_words)
            .map(|_| rng.usize_in(0, PAGE / DIFF_WORD))
            .collect();
        words.sort_unstable();
        words.dedup();
        let mut bytes = [0u8; 4];
        for b in &mut bytes {
            *b = rng.byte();
        }

        let (w1, w2) = words.split_at(words.len() / 2);
        let twin_frame = PageFrame::from_bytes(&base);
        let twin = Twin::of(&twin_frame);

        let m1 = apply_edits(
            &base,
            &w1.iter().map(|&w| (w * 4, bytes)).collect::<Vec<_>>(),
        );
        let m2 = apply_edits(
            &base,
            &w2.iter().map(|&w| (w * 4, bytes)).collect::<Vec<_>>(),
        );
        let d1 = PageDiff::create(0, &twin, &m1);
        let d2 = PageDiff::create(0, &twin, &m2);

        let mut ab = twin_frame.clone();
        d1.apply(&mut ab);
        d2.apply(&mut ab);
        let mut ba = twin_frame.clone();
        d2.apply(&mut ba);
        d1.apply(&mut ba);
        assert_eq!(ab, ba);
    });
}
