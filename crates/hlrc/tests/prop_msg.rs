//! Property tests for the protocol message codec: any message the
//! protocol can construct must survive the wire bit-for-bit, and its
//! reported wire size must be exact (the traffic/log statistics depend
//! on it).

use std::cell::Cell;
use std::sync::Arc;

use hlrc::{
    decode_notices, encode_notices, kind_label, Msg, RecoveryImage, WriteNotice, HEADER_BYTES,
    MAX_NOTICES, MSG_KINDS,
};
use minicheck::{check, Rng};
use pagemem::{
    ByteCount, ByteReader, ByteWriter, CodecError, Decode, DiffRun, Encode, IntervalId, PageDiff,
    Sink, VClock,
};
use simnet::WireSized;

const CASES: u64 = 192;

fn arb_interval(rng: &mut Rng) -> IntervalId {
    IntervalId {
        node: if rng.bool() {
            rng.u32_in(0, 8)
        } else {
            rng.u32_any_width()
        },
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

/// One interval's pages in a shape the run-length form must carry
/// through unchanged: an ascending strip, a descending strip, one page
/// repeated, or scattered pages, now and then up against `u32::MAX`.
fn arb_pages(rng: &mut Rng) -> Vec<u32> {
    let start = match rng.u32_in(0, 3) {
        0 => u32::MAX - rng.u32_in(0, 12),
        1 => rng.u32_in(0, 128),
        _ => rng.u32_any_width(),
    };
    let shape = rng.u32_in(0, 4);
    (0..rng.u32_in(1, 12))
        .map(|i| match shape {
            0 => start.saturating_add(i),
            1 => start.saturating_sub(i),
            2 => start,
            _ => rng.u32_any_width(),
        })
        .collect()
}

/// A notice list of groups, each a few intervals' pick of a few page
/// sets: neighbouring groups often name the same pages (the repeat
/// form), sometimes share an interval (and merge into one group), and
/// `A B A` interleavings occur.
fn arb_notices(rng: &mut Rng) -> Vec<WriteNotice> {
    let intervals: Vec<IntervalId> = (0..rng.usize_in(1, 4)).map(|_| arb_interval(rng)).collect();
    let page_sets: Vec<Vec<u32>> = (0..rng.usize_in(1, 3)).map(|_| arb_pages(rng)).collect();
    let mut out = Vec::new();
    for _ in 0..rng.usize_in(0, 6) {
        let interval = *rng.pick(&intervals);
        let pages = rng.pick(&page_sets);
        out.extend(pages.iter().map(|&page| WriteNotice { page, interval }));
    }
    out
}

fn arb_diff(rng: &mut Rng) -> PageDiff {
    let page = rng.u32_in(0, 1024);
    // The decoder enforces the structure `PageDiff::create` guarantees
    // (word-aligned, non-empty word-multiple lengths, in order, no
    // overlap; adjacency allowed), so generate runs by walking forward.
    let mut runs = Vec::new();
    let mut word = 0u32; // next free word index
    for _ in 0..rng.usize_in(0, 8) {
        word += rng.u32_in(0, 16); // gap before the run (0 = adjacent)
        let words = rng.u32_in(1, 5);
        runs.push(DiffRun {
            offset: word * 4,
            data: rng.bytes(words as usize * 4),
        });
        word += words;
    }
    PageDiff { page, runs }
}

fn arb_migrations(rng: &mut Rng) -> Vec<(u32, u32)> {
    (0..rng.usize_in(0, 5))
        .map(|_| (rng.u32_in(0, 1024), rng.u32_in(0, 8)))
        .collect()
}

/// A strictly ascending page list of up to `max` ids: neighbours,
/// strides, ids of every width, and now and then one ending at
/// `u32::MAX`.
fn arb_ascending(rng: &mut Rng, max: usize) -> Vec<u32> {
    let mut out: Vec<u32> = (0..rng.usize_in(0, max + 1))
        .map(|_| match rng.u32_in(0, 4) {
            0 => rng.u32_in(0, 128),
            1 => rng.u32_in(0, 16_384),
            2 => u32::MAX - rng.u32_in(0, 4),
            _ => rng.u32_any_width(),
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn arb_page_copies(rng: &mut Rng) -> Vec<hlrc::PageCopy> {
    (0..rng.usize_in(0, 8))
        .map(|_| {
            let len = rng.usize_in(0, 256);
            (rng.u32_in(0, 1024), rng.bytes(len).into(), arb_vclock(rng))
        })
        .collect()
}

/// A message of every kind, drawn by wire tag (tag 0 is retired).
fn arb_msg(rng: &mut Rng) -> Msg {
    match rng.u32_in(1, MSG_KINDS as u32 + 1) {
        1 => {
            let len = rng.usize_in(0, 256);
            Msg::PageReply {
                page: rng.u32_in(0, 1024),
                data: rng.bytes(len).into(),
                version: arb_vclock(rng),
            }
        }
        2 => Msg::DiffFlush {
            writer: arb_interval(rng),
            diffs: (0..rng.usize_in(0, 5)).map(|_| arb_diff(rng)).collect(),
        },
        3 => Msg::DiffAck {
            writer: arb_interval(rng),
        },
        4 => Msg::LockRequest {
            lock: rng.u32_in(0, 64),
            epoch: rng.u32_any_width(),
            vc: arb_vclock(rng),
        },
        5 => Msg::LockGrant {
            lock: rng.u32_in(0, 64),
            vc: Arc::new(arb_vclock(rng)),
            notices: arb_notices(rng),
        },
        6 => Msg::LockRelease {
            lock: rng.u32_in(0, 64),
            vc: arb_vclock(rng),
            notices: arb_notices(rng),
        },
        7 => Msg::BarrierArrive {
            epoch: rng.u32_in(0, 1000),
            vc: arb_vclock(rng),
            notices: arb_notices(rng),
            proposals: arb_migrations(rng),
        },
        8 => Msg::BarrierRelease {
            epoch: rng.u32_in(0, 1000),
            vc: Arc::new(arb_vclock(rng)),
            notices: arb_notices(rng).into(),
            migrations: arb_migrations(rng).into(),
        },
        9 => Msg::RecoveryPageRequest {
            page: rng.u32_in(0, 1024),
            required: arb_vclock(rng),
            held: rng.bool().then(|| rng.u32_any_width()),
        },
        10 => {
            let len = rng.usize_in(0, 256);
            let image = match rng.u32_in(0, 3) {
                0 => RecoveryImage::Image {
                    pos: rng.u32_any_width(),
                    data: rng.bytes(len).into(),
                },
                1 => RecoveryImage::Delta {
                    pos: rng.u32_any_width(),
                    diff: arb_diff(rng),
                },
                _ => RecoveryImage::Absent,
            };
            Msg::RecoveryPageReply {
                page: rng.u32_in(0, 1024),
                image,
            }
        }
        11 => Msg::LoggedDiffRequest {
            page: rng.u32_in(0, 1024),
            seqs: (0..rng.usize_in(0, 10))
                .map(|_| rng.u32_in(0, 10_000))
                .collect(),
        },
        12 => Msg::LoggedDiffReply {
            page: rng.u32_in(0, 1024),
            diffs: (0..rng.usize_in(0, 5))
                .map(|_| (arb_interval(rng), arb_diff(rng)))
                .collect(),
        },
        13 => Msg::ReleaseHistoryRequest,
        14 => Msg::ReleaseHistoryReply {
            releases: (0..rng.usize_in(0, 4))
                .map(|e| {
                    (
                        e as u32,
                        arb_vclock(rng),
                        arb_notices(rng),
                        arb_migrations(rng),
                    )
                })
                .collect(),
        },
        15 => Msg::PageRequestBatch {
            page: rng.u32_in(0, 1024),
            extras: arb_ascending(rng, 8),
            hits: arb_ascending(rng, 24),
        },
        16 => Msg::PageReplyBatch {
            after: rng.u32_in(0, 1024),
            pages: arb_page_copies(rng),
        },
        17 => Msg::RecoveryHello,
        _ => Msg::RecoveryHelloReply {
            held: (0..rng.usize_in(0, 16))
                .map(|_| rng.u32_in(0, 1024))
                .collect(),
            complete: rng.bool(),
            home_writes: if rng.bool() {
                arb_notices(rng)
            } else {
                Vec::new()
            },
        },
    }
}

#[test]
fn generator_reaches_every_wire_tag() {
    let seen: [Cell<bool>; MSG_KINDS] = Default::default();
    check("generator_reaches_every_wire_tag", CASES, |rng| {
        seen[arb_msg(rng).ordinal()].set(true);
    });
    for (ordinal, hit) in seen.iter().enumerate() {
        assert!(hit.get(), "arb_msg never produced {}", kind_label(ordinal));
    }
}

#[test]
fn every_message_roundtrips() {
    check("every_message_roundtrips", CASES, |rng| {
        let msg = arb_msg(rng);
        let bytes = msg.encode_to_vec();
        let back = Msg::decode_from_slice(&bytes).unwrap();
        assert_eq!(&back, &msg);
        assert_eq!(msg.wire_size(), HEADER_BYTES + bytes.len());
    });
}

#[test]
fn truncated_messages_never_panic() {
    check("truncated_messages_never_panic", CASES, |rng| {
        let msg = arb_msg(rng);
        let cut = rng.usize_in(0, 64);
        let bytes = msg.encode_to_vec();
        let end = bytes.len().saturating_sub(cut).max(1).min(bytes.len());
        // Decoding any prefix must return an error or a value, never panic.
        let _ = Msg::decode_from_slice(&bytes[..end]);
    });
}

#[test]
fn corrupted_tag_is_rejected() {
    check("corrupted_tag_is_rejected", CASES, |rng| {
        let msg = arb_msg(rng);
        // Past the last kind, or the retired tag 0.
        let tag = match rng.u32_in(MSG_KINDS as u32, 256) as usize {
            MSG_KINDS => 0,
            tag => tag as u8,
        };
        let mut bytes = msg.encode_to_vec();
        bytes[0] = tag;
        assert!(matches!(
            Msg::decode_from_slice(&bytes),
            Err(CodecError::BadTag { tag: t, .. }) if t == tag
        ));
    });
    // Tag 0 was the bare page request of a node that fetched without
    // predicting; every fetch is a `PageRequestBatch` now.
    assert!(matches!(
        Msg::decode_from_slice(&[0, 7, 0, 0, 0]),
        Err(CodecError::BadTag { tag: 0, .. })
    ));
}

// ------------------------------------------------ coherence metadata

fn notice(page: u32, node: u32, seq: u32) -> WriteNotice {
    WriteNotice {
        page,
        interval: IntervalId { node, seq },
    }
}

fn encoded(notices: &[WriteNotice]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_notices(&mut w, notices);
    w.into_bytes()
}

/// The list's encoded size: the same encoder, run into the counting sink.
fn counted(notices: &[WriteNotice]) -> usize {
    let mut n = ByteCount::default();
    encode_notices(&mut n, notices);
    n.bytes()
}

fn decoded(bytes: &[u8]) -> Result<Vec<WriteNotice>, CodecError> {
    decode_notices(&mut ByteReader::new(bytes))
}

/// The decoder reproduces the list exactly — order and duplicates
/// included — and the two sinks agree over the whole list.
#[test]
fn notice_lists_roundtrip_exactly() {
    check("notice_lists_roundtrip_exactly", 4 * CASES, |rng| {
        let list = arb_notices(rng);
        let bytes = encoded(&list);
        assert_eq!(counted(&list), bytes.len(), "the two sinks disagree");
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_notices(&mut r).unwrap(), list);
        assert!(r.is_exhausted());
    });
    for list in [
        vec![],
        vec![notice(0, 0, 0)],
        vec![notice(u32::MAX, u32::MAX, u32::MAX)],
        // A B A: the second A must not be merged into the first.
        vec![notice(1, 0, 0), notice(2, 1, 0), notice(3, 0, 0)],
        // u32::MAX then 0 is not a run.
        vec![
            notice(u32::MAX - 1, 0, 0),
            notice(u32::MAX, 0, 0),
            notice(0, 0, 0),
        ],
    ] {
        assert_eq!(decoded(&encoded(&list)).unwrap(), list);
    }
    // A repeat: the second group names the first one's pages as
    // `n_runs = 0`, and the third, after it, the same again.
    let list = vec![
        notice(5, 0, 0),
        notice(6, 0, 0),
        notice(5, 1, 0),
        notice(6, 1, 0),
        notice(5, 2, 7),
        notice(6, 2, 7),
    ];
    assert_eq!(encoded(&list), [6, 0, 0, 1, 5, 2, 1, 0, 0, 2, 7, 0]);
    assert_eq!(decoded(&encoded(&list)).unwrap(), list);
}

/// Byte budgets, in the spirit of `update_records_are_small`.
#[test]
fn coherence_metadata_is_small() {
    // A Shallow-shaped barrier release: 8 nodes, one interval each,
    // 66 pages of its home strip in a few runs. 6 340 bytes fixed-width.
    let mut release = Vec::new();
    for node in 0..8u32 {
        let strip = node * 80;
        for (first, len) in [(0, 30), (31, 20), (52, 10), (63, 5), (70, 1)] {
            release.extend((first..first + len).map(|p| notice(strip + p, node, 27)));
        }
    }
    assert_eq!(release.len(), 8 * 66);
    let size = counted(&release);
    assert!(size <= 200, "Shallow-shaped release takes {size} bytes");

    // An interval that dirtied one contiguous strip: count, group, run.
    let strip: Vec<_> = (100..166).map(|p| notice(p, 3, 9)).collect();
    assert_eq!(counted(&strip), 1 + 3 + 2);

    // An 8-node clock early in a run: one byte per entry.
    let mut vc = VClock::new(8);
    for node in 0..8 {
        vc.set(node, 100 + node);
    }
    assert_eq!(vc.encoded_size(), 9);

    // A 128-node lock grant: 64 writers, one interval each, all of them
    // of the one page the counters share. Each writer after the first
    // costs its node, its seq and the repeat byte.
    check("a_shared_page_grant_is_3_bytes_a_writer", CASES, |rng| {
        let page = rng.u32_in(0, 128);
        let mut writers: Vec<u32> = (0..128).collect();
        let list: Vec<_> = (0..64)
            .map(|_| {
                let node = writers.swap_remove(rng.usize_in(0, writers.len()));
                notice(page, node, rng.u32_in(0, 128))
            })
            .collect();
        assert!(counted(&list) <= 3 * list.len() + 5);
    });

    // The worst case, every notice its own group, at the id ranges a
    // committed run reaches.
    check("isolated_notices_stay_under_8_bytes", CASES, |rng| {
        let n = rng.usize_in(0, 300);
        let list: Vec<_> = (0..n as u32)
            .map(|i| notice(rng.u32_in(0, 16_384), i % 128, rng.u32_in(0, 16_384)))
            .collect();
        assert!(counted(&list) <= 8 * n + 3);
    });
}

#[test]
fn malformed_notice_lists_are_rejected() {
    let invalid = |bytes: &[u8]| matches!(decoded(bytes), Err(CodecError::Invalid { .. }));
    // n = 1, group (node 0, seq 0) repeating the runs of a group
    // before it, and there is none.
    assert!(invalid(&[1, 0, 0, 0]), "a first group repeats nothing");
    // n = 3, a run of 2, then a repeat of it: 4 notices.
    assert!(
        invalid(&[3, 0, 0, 1, 5, 2, 1, 0, 0]),
        "repeat overshoots the count"
    );
    // n = 1, one run of length 0.
    assert!(invalid(&[1, 0, 0, 1, 5, 0]), "zero-length run");
    // n = 2, one run of length 3.
    assert!(invalid(&[2, 0, 0, 1, 5, 3]), "run overshoots the count");
    // n = 2, a run of 2 starting at u32::MAX.
    assert!(
        invalid(&[2, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 2]),
        "run passes the last page id"
    );
    // More notices than any list holds, with a run to match: rejected
    // at the count, before anything is expanded.
    let mut w = ByteWriter::new();
    w.put_var(MAX_NOTICES as u32 + 1);
    for v in [0, 0, 1, 0, MAX_NOTICES as u32 + 1] {
        w.put_var(v);
    }
    assert!(invalid(&w.into_bytes()), "list over the limit");
    // n = 2 but the input ends after one notice.
    assert!(matches!(
        decoded(&[2, 0, 0, 1, 5, 1]),
        Err(CodecError::Truncated { .. })
    ));
}

/// The two page lists of a fetch request survive the wire exactly, and
/// a malformed one is an error of the right kind — the request is the
/// one message every fault sends, to a home that must outlive it.
#[test]
fn page_request_lists_roundtrip_and_malformed_ones_are_rejected() {
    check("page_request_lists_roundtrip", 4 * CASES, |rng| {
        let msg = Msg::PageRequestBatch {
            page: rng.u32_any_width(),
            extras: arb_ascending(rng, 8),
            hits: arb_ascending(rng, 64),
        };
        let bytes = msg.encode_to_vec();
        assert_eq!(msg.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(Msg::decode_from_slice(&bytes).unwrap(), msg);
    });
    // After the tag and the page: the extras list, then the hit list.
    let request = |lists: &[u8]| Msg::decode_from_slice(&[&[15, 7, 0, 0, 0], lists].concat());
    assert!(request(&[0, 0]).is_ok());
    assert!(request(&[2, 5, 1, 1, 0]).is_ok());
    let invalid = |lists: &[u8]| matches!(request(lists), Err(CodecError::Invalid { .. }));
    let truncated = |lists: &[u8]| matches!(request(lists), Err(CodecError::Truncated { .. }));
    assert!(truncated(&[3, 1, 1]), "count larger than the input");
    assert!(truncated(&[1, 9]), "no hit list");
    assert!(truncated(&[1, 0x80]), "id cut inside its varint");
    assert!(invalid(&[1, 0x80, 0x00, 0]), "overlong varint");
    assert!(invalid(&[2, 5, 0, 0]), "pages do not ascend");
    assert!(
        invalid(&[2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 0]),
        "second id past u32::MAX"
    );
    assert!(
        invalid(&[0, 2, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 2]),
        "hit past u32::MAX"
    );
    // u32::MAX itself is an id like any other.
    assert!(request(&[0, 2, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 1]).is_ok());
}

/// Every counted field of every message, set to `u32::MAX` with nothing
/// behind it, is an error — not an allocation of that size. (The first
/// case is the input that aborted the fixed-width decoder with "memory
/// allocation of 51539607540 bytes failed".)
#[test]
fn hostile_counts_return_errors() {
    const HUGE_VAR: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    const HUGE_U32: [u8; 4] = [0xFF; 4];
    let epoch = [7, 0, 0, 0];
    let empty_vc = [0u8];
    let cases: Vec<(&str, Vec<&[u8]>)> = vec![
        (
            "BarrierRelease notices",
            vec![&[8], &epoch, &empty_vc, &HUGE_VAR],
        ),
        ("BarrierRelease clock", vec![&[8], &epoch, &HUGE_VAR]),
        (
            "BarrierRelease migrations",
            vec![&[8], &epoch, &empty_vc, &[0], &HUGE_U32],
        ),
        (
            "BarrierArrive proposals",
            vec![&[7], &epoch, &empty_vc, &[0], &HUGE_U32],
        ),
        (
            "LockGrant notices",
            vec![&[5], &epoch, &empty_vc, &HUGE_VAR],
        ),
        (
            "LockRelease notices",
            vec![&[6], &epoch, &empty_vc, &HUGE_VAR],
        ),
        ("LockRequest clock", vec![&[4], &epoch, &[0], &HUGE_VAR]),
        ("PageReply data", vec![&[1], &epoch, &HUGE_U32]),
        ("DiffFlush diffs", vec![&[2], &[7, 0], &HUGE_VAR]),
        ("LoggedDiffRequest seqs", vec![&[11], &epoch, &HUGE_U32]),
        ("LoggedDiffReply diffs", vec![&[12], &epoch, &HUGE_U32]),
        ("ReleaseHistoryReply releases", vec![&[14], &HUGE_U32]),
        (
            "PageRequestBatch extras",
            vec![&[15], &epoch, &HUGE_VAR, &[0]],
        ),
        (
            "PageRequestBatch hits",
            vec![&[15], &epoch, &[0], &HUGE_VAR],
        ),
        ("PageReplyBatch pages", vec![&[16], &epoch, &HUGE_U32]),
        ("RecoveryHelloReply held", vec![&[18], &[1], &HUGE_U32]),
        (
            "RecoveryHelloReply home writes",
            vec![&[18], &[3], &[0; 4], &HUGE_VAR],
        ),
        // Flag bits past `complete` and the list: garbage, not a reply.
        ("RecoveryHelloReply flag 4", vec![&[18], &[4], &[0; 4]]),
        (
            "RecoveryHelloReply flag 0x81",
            vec![&[18], &[0x81], &[0; 4]],
        ),
        (
            "RecoveryHelloReply flag 0xFF",
            vec![&[18], &[0xFF], &[0; 4]],
        ),
        // The list flag with an empty list: never sent.
        (
            "RecoveryHelloReply empty list",
            vec![&[18], &[2], &[0; 4], &[0]],
        ),
        ("RecoveryPageRequest clock", vec![&[9], &epoch, &HUGE_VAR]),
        (
            "RecoveryPageRequest held",
            vec![&[9], &epoch, &empty_vc, &[0xFF; 5]],
        ),
        ("RecoveryPageReply kind", vec![&[10], &epoch, &[5]]),
        // The two retired kinds (a committed copy, a checkpoint base),
        // well-formed as they used to be: 4 counted bytes and a clock.
        (
            "RecoveryPageReply retired kind 0",
            vec![&[10], &epoch, &[0], &[4, 0, 0, 0], &epoch, &empty_vc],
        ),
        (
            "RecoveryPageReply retired kind 1",
            vec![&[10], &epoch, &[1], &[4, 0, 0, 0], &epoch, &empty_vc],
        ),
        (
            "RecoveryPageReply image",
            vec![&[10], &epoch, &[2], &[3], &HUGE_U32],
        ),
        (
            "RecoveryPageReply delta runs",
            vec![&[10], &epoch, &[3], &[3], &epoch, &HUGE_VAR],
        ),
        (
            "RecoveryPageReply delta run",
            vec![
                &[10],
                &epoch,
                &[3],
                &[3],
                &epoch,
                // One run, no gap, 2^30 - 1 words and none of them here.
                &[1, 0],
                &[0xFF, 0xFF, 0xFF, 0x03],
            ],
        ),
        (
            "RecoveryPageReply absent, then more",
            vec![&[10], &epoch, &[4], &[0]],
        ),
    ];
    for (what, parts) in cases {
        let bytes = parts.concat();
        assert!(Msg::decode_from_slice(&bytes).is_err(), "{what}");
    }
}

/// Decoding never trusts its input: random buffers and valid messages
/// with one flipped bit yield a value or an error, never a panic, an
/// abort or an allocation the input cannot justify.
#[test]
fn random_and_bit_flipped_buffers_never_panic() {
    check("random_buffers_never_panic", 8 * CASES, |rng| {
        let len = rng.usize_in(1, 96);
        let mut bytes = rng.bytes(len);
        bytes[0] %= MSG_KINDS as u8 + 1;
        let _ = Msg::decode_from_slice(&bytes);
        let _ = decoded(&bytes[1..]);
        let _ = VClock::decode_from_slice(&bytes[1..]);
    });
    check("bit_flipped_messages_never_panic", 8 * CASES, |rng| {
        let mut bytes = arb_msg(rng).encode_to_vec();
        let bit = rng.usize_in(0, bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = Msg::decode_from_slice(&bytes);
    });
}
