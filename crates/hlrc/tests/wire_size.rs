//! The wire ledger, one test per message variant: the encoded byte
//! count of a fixed message of every kind, pinned as a literal, and the
//! virtual-time charge (`wire_size`) as the header plus exactly that.
//! Sizes are counted by the encoder itself, so there is no second
//! description here to check against the first; what the pins catch is
//! a format that *moved*. A change that moves a message's size changes
//! a number in this file, and says so.

use std::sync::Arc;

use hlrc::{Msg, RecoveryImage, WriteNotice, HEADER_BYTES};
use pagemem::{Encode, IntervalId, PageDiff, PageFrame, Twin, VClock};
use simnet::WireSized;

fn check(m: &Msg, body: usize) {
    assert_eq!(m.encode_to_vec().len(), body, "encoded bytes moved");
    assert_eq!(m.wire_size(), HEADER_BYTES + body, "wire_size mismatch");
}

/// Entries in every size class of the variable-length clock encoding.
fn vc() -> VClock {
    let mut v = VClock::new(4);
    v.observe(IntervalId { node: 1, seq: 3 });
    v.observe(IntervalId { node: 2, seq: 200 });
    v.observe(IntervalId {
        node: 3,
        seq: 70_000,
    });
    v
}

/// [`vc`] encoded: its length, then each entry as a varint (0, 4, 201,
/// 70 001).
const VC_BYTES: usize = 1 + 1 + 1 + 2 + 3;

/// A list with everything the interval-record encoding distinguishes: a
/// strip of consecutive pages, an isolated page, a second interval
/// naming the same pages (a repeat), a third, a return to the first
/// one, a duplicate, and multi-byte ids.
fn notices() -> Vec<WriteNotice> {
    let a = IntervalId { node: 1, seq: 3 };
    let b = IntervalId { node: 3, seq: 200 };
    let c = IntervalId {
        node: 2,
        seq: 70_000,
    };
    let strip: &[u32] = &[5, 6, 7, 8, 40, 20_000];
    let mut list = Vec::new();
    for (pages, interval) in [(strip, a), (strip, b), (&[9], c), (&[4, 4], a)] {
        list.extend(pages.iter().map(|&page| WriteNotice { page, interval }));
    }
    list
}

/// [`notices`] encoded: the count, then per group its interval (node,
/// seq) and run count, and per run its start and length.
const NOTICE_BYTES: usize = 1
    // a: 5..=8, 40, 20 000 in three runs.
    + (1 + 1 + 1) + (1 + 1) + (1 + 1) + (3 + 1)
    // b: the runs of the group before, `n_runs = 0` and nothing else.
    + (1 + 2 + 1)
    // c: one page.
    + (1 + 3 + 1) + (1 + 1)
    // a again: 4 twice is two runs, not a repeat of c's.
    + (1 + 1 + 1) + 2 * (1 + 1);

/// Two one-word runs, words 2 and 32 of a 256-byte page.
fn diff() -> PageDiff {
    let base = PageFrame::zeroed(256);
    let twin = Twin::of(&base);
    let mut cur = PageFrame::zeroed(256);
    cur.write_u64(8, 0xdead_beef);
    cur.write_u64(128, 77);
    PageDiff::create(3, &twin, &cur)
}

/// [`diff`] encoded: page, run count, then per run a byte of gap and a
/// byte of length in words (gaps 2 and 29) and its word.
const DIFF_BYTES: usize = 4 + 1 + 2 * (1 + 1 + 4);

#[test]
fn msg_page_reply() {
    check(
        &Msg::PageReply {
            page: 7,
            data: vec![0xab; 256].into(),
            version: vc(),
        },
        273,
    );
}

#[test]
fn msg_diff_flush() {
    check(
        &Msg::DiffFlush {
            writer: IntervalId { node: 2, seq: 9 },
            diffs: vec![diff()],
        },
        // Tag, writer (node, seq), diff count.
        1 + (1 + 1) + 1 + DIFF_BYTES,
    );
}

#[test]
fn msg_diff_ack() {
    check(
        &Msg::DiffAck {
            writer: IntervalId { node: 2, seq: 9 },
        },
        // Tag, writer (node, seq).
        1 + (1 + 1),
    );
}

#[test]
fn msg_lock_request() {
    for (epoch, body) in [(0, 14), (127, 14), (128, 15), (1 << 30, 18)] {
        check(
            &Msg::LockRequest {
                lock: 3,
                epoch,
                vc: vc(),
            },
            body,
        );
    }
}

#[test]
fn msg_lock_request_on_128_nodes() {
    // What rides every hop of `scale-128`: 514 bytes of clock before.
    let mut wide = VClock::new(128);
    for node in 0..128 {
        wide.set(node, node % 5);
    }
    let m = Msg::LockRequest {
        lock: 3,
        epoch: 4,
        vc: wide,
    };
    check(&m, 1 + 4 + 1 + (2 + 128));
}

#[test]
fn msg_lock_grant() {
    check(
        &Msg::LockGrant {
            lock: 3,
            vc: Arc::new(vc()),
            notices: notices(),
        },
        // Tag, lock, clock, notices.
        1 + 4 + VC_BYTES + NOTICE_BYTES,
    );
}

#[test]
fn msg_lock_release() {
    check(
        &Msg::LockRelease {
            lock: 3,
            vc: vc(),
            notices: notices(),
        },
        1 + 4 + VC_BYTES + NOTICE_BYTES,
    );
}

#[test]
fn msg_barrier_arrive() {
    check(
        &Msg::BarrierArrive {
            epoch: 4,
            vc: vc(),
            notices: notices(),
            proposals: vec![(7, 2), (296, 0)],
        },
        // Tag, epoch, clock, notices, a u32 count and two (page, home).
        1 + 4 + VC_BYTES + NOTICE_BYTES + 4 + 2 * 8,
    );
}

#[test]
fn msg_barrier_release() {
    check(
        &Msg::BarrierRelease {
            epoch: 4,
            vc: Arc::new(vc()),
            notices: notices().into(),
            migrations: vec![(7, 2)].into(),
        },
        1 + 4 + VC_BYTES + NOTICE_BYTES + 4 + 8,
    );
}

#[test]
fn msg_page_request_batch() {
    let request = |extras: Vec<u32>, hits: Vec<u32>| Msg::PageRequestBatch {
        page: 7,
        extras,
        hits,
    };
    for (extras, hits, body) in [
        (vec![], vec![], 7),
        (vec![8, 9, 12], vec![], 10),
        (vec![], vec![3], 8),
        (vec![200, 20_000, 3_000_000], vec![0, u32::MAX], 22),
    ] {
        check(&request(extras, hits), body);
    }
    // Tag, page, and two lists of a count and one distance per id: what
    // rides every fault costs less with the report than it did without.
    // With both lists empty it is the retired bare request (tag, page:
    // 5 bytes) and two count bytes — every fault of every protocol
    // sends this one.
    assert_eq!(request(vec![], vec![]).encoded_size(), 1 + 4 + 1 + 1);
    assert_eq!(
        request(vec![8, 9, 12], vec![3, 300]).encoded_size(),
        1 + 4 + (1 + 3) + (1 + 1 + 2)
    );
    // Budgets (fixed-width lists: 41 bytes and 9, with no report): a
    // full batch of extras at 3D-FFT's page ids and strides, and the
    // request most faults send.
    let full: Vec<u32> = (1..=8).map(|k| 7 + 64 * k).collect();
    assert!(request(full, vec![]).encoded_size() <= 20);
    assert!(request(vec![], vec![]).encoded_size() <= 7);
}

#[test]
fn msg_page_reply_batch() {
    check(
        &Msg::PageReplyBatch {
            after: 7,
            pages: vec![
                (8, vec![0xab; 256].into(), vc()),
                (9, vec![0xcd; 256].into(), vc()),
            ],
        },
        553,
    );
}

#[test]
fn msg_release_history_reply() {
    check(
        &Msg::ReleaseHistoryReply {
            releases: vec![
                (0, vc(), notices(), vec![]),
                (1, vc(), vec![], vec![(5, 1)]),
            ],
        },
        // Tag, a u32 count, then per release its epoch, clock, notices
        // and migrations.
        1 + 4 + (4 + VC_BYTES + NOTICE_BYTES + 4) + (4 + VC_BYTES + 1 + 4 + 8),
    );
}

#[test]
fn msg_recovery_hello() {
    check(&Msg::RecoveryHello, 1);
}

#[test]
fn msg_recovery_hello_reply() {
    let reply = |held, complete, home_writes| Msg::RecoveryHelloReply {
        held,
        complete,
        home_writes,
    };
    // Without a list, the bytes every hello reply has always had: tag,
    // the `complete` byte, a counted list of 4-byte page ids.
    let plain = reply(vec![3, 4, 296], true, vec![]);
    check(&plain, 18);
    assert_eq!(
        plain.encode_to_vec(),
        [18, 1, 3, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 40, 1, 0, 0]
    );
    let empty = reply(vec![], false, vec![]);
    check(&empty, 6);
    assert_eq!(empty.encode_to_vec(), [18, 0, 0, 0, 0, 0]);
    // The barrier manager's, with the requester's own home writes: flag
    // bit 1, and the notice list after the pages.
    let listed = reply(vec![3], true, notices());
    check(&listed, 10 + NOTICE_BYTES);
    assert_eq!(listed.encode_to_vec()[1], 0b11);
}

#[test]
fn msg_recovery_page_request() {
    let request = |held| Msg::RecoveryPageRequest {
        page: 11,
        required: vc(),
        held,
    };
    for (held, body) in [
        (None, 13),
        (Some(3), 14),
        (Some(200), 15),
        (Some(70_000), 16),
    ] {
        check(&request(held), body);
    }
    // A request that names no held image is the clock and nothing else.
    assert_eq!(request(None).encoded_size(), 1 + 4 + vc().encoded_size());
    assert_eq!(
        request(Some(200)).encoded_size(),
        request(None).encoded_size() + 2
    );
}

#[test]
fn msg_recovery_page_reply() {
    let data: pagemem::SharedBytes = vec![1; 256].into();
    let reply = |image| Msg::RecoveryPageReply { page: 11, image };
    // The sizes the three kinds have always had: tag, page, kind, then
    // `var(pos)` and the counted contents or the diff.
    for (pos, var) in [(0, 1), (200, 2), (70_000, 3)] {
        let image = reply(RecoveryImage::Image {
            pos,
            data: data.clone(),
        });
        check(&image, 1 + 4 + 1 + var + 4 + 256);
        let delta = reply(RecoveryImage::Delta { pos, diff: diff() });
        check(&delta, 1 + 4 + 1 + var + DIFF_BYTES);
    }
    check(&reply(RecoveryImage::Absent), 1 + 4 + 1);
    // "The same image" is a delta with no runs: a dozen bytes on the
    // wire, not a page; its diff is a page id and a zero run count.
    let same = RecoveryImage::Delta {
        pos: 3,
        diff: PageDiff {
            page: 11,
            runs: Vec::new(),
        },
    };
    assert_eq!(reply(same).encoded_size(), 1 + 4 + 1 + 1 + 4 + 1);
}

#[test]
fn msg_logged_diff_request() {
    check(
        &Msg::LoggedDiffRequest {
            page: 11,
            seqs: vec![0, 2, 5],
        },
        21,
    );
}

#[test]
fn msg_logged_diff_reply() {
    check(
        &Msg::LoggedDiffReply {
            page: 11,
            diffs: vec![(IntervalId { node: 1, seq: 2 }, diff())],
        },
        // Tag, page, u32 count, the diff's interval (node, seq).
        1 + 4 + 4 + (1 + 1) + DIFF_BYTES,
    );
}
