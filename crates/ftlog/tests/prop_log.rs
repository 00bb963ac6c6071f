//! Property tests for the coherence-centric log record format and the
//! framed stable-storage codec.

use ftlog::{frame_record, salvage, CclRecord};
use hlrc::{SyncKind, WriteNotice};
use minicheck::{check, Rng};
use pagemem::codec::var_size;
use pagemem::{CodecError, Decode, DiffRun, Encode, IntervalId, PageDiff, VClock};

const CASES: u64 = 192;

fn arb_interval(rng: &mut Rng) -> IntervalId {
    IntervalId {
        node: rng.u32_in(0, 8),
        seq: rng.u32_any_width(),
    }
}

fn arb_vclock(rng: &mut Rng) -> VClock {
    let n = rng.usize_in(1, 9);
    let mut c = VClock::new(n);
    for i in 0..n {
        c.set(i as u32, rng.u32_any_width());
    }
    c
}

/// Strips of consecutive pages and scattered pages, over a few
/// intervals that recur (`A B A`), duplicates included.
fn arb_notices(rng: &mut Rng) -> Vec<WriteNotice> {
    let intervals: Vec<IntervalId> = (0..rng.usize_in(1, 4)).map(|_| arb_interval(rng)).collect();
    let mut out = Vec::new();
    for _ in 0..rng.usize_in(0, 5) {
        let interval = *rng.pick(&intervals);
        let start = rng.u32_any_width();
        let strip = rng.bool();
        for i in 0..rng.u32_in(1, 10) {
            let page = if strip {
                start.saturating_add(i)
            } else {
                rng.u32_any_width()
            };
            out.push(WriteNotice { page, interval });
        }
    }
    out
}

fn arb_diff(rng: &mut Rng) -> PageDiff {
    let page = rng.u32_in(0, 1024);
    // The decoder enforces the structure `PageDiff::create` guarantees
    // (word-aligned, in order, no overlap), so walk offsets forward.
    let mut runs = Vec::new();
    let mut word = 0u32;
    for _ in 0..rng.usize_in(0, 6) {
        word += rng.u32_in(0, 16);
        let words = rng.u32_in(1, 5);
        runs.push(DiffRun {
            offset: word * 4,
            data: vec![0xAB; words as usize * 4],
        });
        word += words;
    }
    PageDiff { page, runs }
}

/// Up to `max` distinct home pages, ascending, as a flush applies them.
fn arb_pages(rng: &mut Rng, max: usize) -> Vec<u32> {
    let mut pages: Vec<u32> = (0..rng.usize_in(0, max))
        .map(|_| rng.u32_in(0, 1024))
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

fn arb_record(rng: &mut Rng) -> CclRecord {
    match rng.u32_in(0, 3) {
        0 => {
            let tag = if rng.bool() {
                SyncKind::Acquire(rng.u32_in(0, 64))
            } else {
                SyncKind::Barrier(rng.u32_in(0, 1000))
            };
            CclRecord::Sync {
                tag,
                notices: arb_notices(rng),
                vc: arb_vclock(rng),
            }
        }
        1 => CclRecord::Updates {
            writer: arb_interval(rng),
            pages: arb_pages(rng, 16),
        },
        _ => CclRecord::Diffs {
            interval: arb_interval(rng),
            diffs: (0..rng.usize_in(0, 4)).map(|_| arb_diff(rng)).collect(),
        },
    }
}

#[test]
fn records_roundtrip() {
    check("records_roundtrip", CASES, |rng| {
        let rec = arb_record(rng);
        let bytes = rec.encode_to_vec();
        assert_eq!(rec.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(CclRecord::decode_from_slice(&bytes).unwrap(), rec);
    });
}

/// What Table 2 hinges on for the barrier-only applications: the `Sync`
/// record of a barrier at which every node dirtied its contiguous home
/// strip costs a few bytes per *interval*, not twelve per page.
#[test]
fn a_barrier_of_home_strips_logs_in_a_few_bytes_per_interval() {
    let notices: Vec<WriteNotice> = (0..8u32)
        .flat_map(|node| {
            (0..66).map(move |p| WriteNotice {
                page: node * 66 + p,
                interval: IntervalId { node, seq: 30 },
            })
        })
        .collect();
    let mut vc = VClock::new(8);
    for node in 0..8 {
        vc.set(node, 31);
    }
    let rec = CclRecord::Sync {
        tag: SyncKind::Barrier(30),
        notices,
        vc,
    };
    // tag + epoch, count, 8 x (node seq n_runs start len), clock.
    assert!(
        rec.encoded_size() <= 5 + 2 + 8 * 7 + 9,
        "{} bytes",
        rec.encoded_size()
    );
}

/// Every counted field of every record, set to `u32::MAX` with nothing
/// behind it, is an error, not an allocation of that size. Each case is
/// the bytes before the count and the bytes after it: with a zero count
/// the same bytes decode, so the error comes from the count and not from
/// a misread field before it or from bytes left over.
#[test]
fn hostile_counts_return_errors() {
    const HUGE_VAR: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    // `Sync`: tag, epoch 3 as a `u32`. `Updates` and `Diffs`: tag,
    // interval `var(node) var(seq)` = node 3, interval 0.
    let cases: [(&str, &[u8], &[u8]); 4] = [
        ("Sync notices", &[1, 3, 0, 0, 0], &[0]),
        ("Sync clock", &[1, 3, 0, 0, 0, 0], &[]),
        ("Updates pages", &[2, 3, 0], &[]),
        ("Diffs diffs", &[3, 3, 0], &[]),
    ];
    for (what, before, after) in cases {
        let zero = [before, &[0], after].concat();
        assert!(
            CclRecord::decode_from_slice(&zero).is_ok(),
            "{what}: a zero count does not decode"
        );
        let hostile = [before, &HUGE_VAR].concat();
        match CclRecord::decode_from_slice(&hostile) {
            Ok(rec) => panic!("{what}: decoded {rec:?}"),
            Err(CodecError::Truncated { needed: 0, .. }) => {
                panic!("{what}: failed on bytes left over, not on the count")
            }
            Err(_) => {}
        }
    }
}

/// The economy claim underlying Table 2: an Updates record costs at
/// most two bytes per page (a distance under 1 024 pages) regardless of
/// the data volume the update carried.
#[test]
fn update_records_stay_small() {
    check("update_records_stay_small", CASES, |rng| {
        let writer = arb_interval(rng);
        let pages = arb_pages(rng, 64);
        let n = pages.len();
        let rec = CclRecord::Updates { writer, pages };
        // Tag, writer (`var(node) var(seq)`), count (n < 128).
        let writer_bytes = var_size(writer.node) + var_size(writer.seq);
        assert!(rec.encoded_size() <= 1 + writer_bytes + 1 + 2 * n);
    });
}

/// The crash-consistency contract of the frame codec: damage one
/// record of a framed stream — torn short or a single flipped bit,
/// anywhere — and salvage either returns the whole stream (no damage)
/// or cuts cleanly at the damaged record. It never yields an altered
/// payload and never resumes past a gap.
#[test]
fn salvage_is_full_decode_or_clean_prefix_cut() {
    check("salvage_is_full_decode_or_clean_prefix_cut", CASES, |rng| {
        let epoch = rng.u32_in(0, 50);
        let n = rng.usize_in(0, 12);
        let payloads: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.usize_in(0, 40);
                rng.bytes(len)
            })
            .collect();
        let mut records: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| frame_record(epoch, i as u32, p))
            .collect();
        let damaged = if n > 0 && rng.bool() {
            let victim = rng.usize_in(0, n);
            let len = records[victim].len();
            if rng.bool() {
                // Torn write: the record ends short.
                let cut = rng.usize_in(0, len);
                records[victim].truncate(cut);
            } else {
                // Latent bit rot: one flipped bit, anywhere — header
                // fields included.
                let bit = rng.usize_in(0, len * 8);
                records[victim][bit / 8] ^= 1 << (bit % 8);
            }
            Some(victim)
        } else {
            None
        };
        let s = salvage(&records);
        let salvaged: Vec<_> = s.payloads(&records).collect();
        match damaged {
            None => {
                assert!(s.is_clean());
                assert_eq!(salvaged, payloads);
            }
            Some(victim) => {
                assert!(!s.is_clean());
                assert_eq!(s.valid, victim);
                assert_eq!(salvaged, payloads[..victim]);
                assert_eq!(s.discarded as usize, records.len() - victim);
                assert_eq!(s.torn + s.crc_mismatches, 1);
            }
        }
    });
}

/// A record that reaches the decoder has passed its frame's CRC, but
/// the decoder does not lean on that: one flipped bit yields a record
/// or an error, never a panic.
#[test]
fn bit_flipped_records_never_panic() {
    check("bit_flipped_records_never_panic", 4 * CASES, |rng| {
        let mut bytes = arb_record(rng).encode_to_vec();
        let bit = rng.usize_in(0, bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = CclRecord::decode_from_slice(&bytes);
    });
}

#[test]
fn truncated_records_never_panic() {
    check("truncated_records_never_panic", CASES, |rng| {
        let rec = arb_record(rng);
        let cut = rng.usize_in(1, 32);
        let bytes = rec.encode_to_vec();
        let end = bytes.len().saturating_sub(cut).max(1).min(bytes.len());
        let _ = CclRecord::decode_from_slice(&bytes[..end]);
    });
}
