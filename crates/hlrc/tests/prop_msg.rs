//! Property tests for the protocol message codec: any message the
//! protocol can construct must survive the wire bit-for-bit, and its
//! reported wire size must be exact (the traffic/log statistics depend
//! on it).

use std::cell::Cell;
use std::sync::Arc;

use hlrc::{kind_label, Msg, WriteNotice, HEADER_BYTES, MSG_KINDS};
use minicheck::{check, Rng};
use pagemem::{Decode, DiffRun, Encode, IntervalId, PageDiff, VClock};
use simnet::WireSized;

const CASES: u64 = 192;

fn arb_interval(rng: &mut Rng) -> IntervalId {
    IntervalId {
        node: rng.u32_in(0, 8),
        seq: rng.u32_in(0, 10_000),
    }
}

fn arb_vclock(rng: &mut Rng) -> VClock {
    let n = rng.usize_in(1, 9);
    let mut c = VClock::new(n);
    for i in 0..n {
        c.set(i as u32, rng.u32_in(0, 10_000));
    }
    c
}

fn arb_notices(rng: &mut Rng) -> Vec<WriteNotice> {
    (0..rng.usize_in(0, 20))
        .map(|_| WriteNotice {
            page: rng.u32_in(0, 1024),
            interval: arb_interval(rng),
        })
        .collect()
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

fn arb_page_copies(rng: &mut Rng) -> Vec<hlrc::PageCopy> {
    (0..rng.usize_in(0, 8))
        .map(|_| {
            let len = rng.usize_in(0, 256);
            (rng.u32_in(0, 1024), rng.bytes(len).into(), arb_vclock(rng))
        })
        .collect()
}

fn arb_msg(rng: &mut Rng) -> Msg {
    match rng.u32_in(0, MSG_KINDS as u32) {
        0 => Msg::PageRequest {
            page: rng.u32_in(0, 1024),
        },
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
        },
        10 => {
            let len = rng.usize_in(0, 256);
            Msg::RecoveryPageReply {
                page: rng.u32_in(0, 1024),
                advanced: rng.bool(),
                data: rng.bytes(len).into(),
                version: arb_vclock(rng),
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
            extras: (0..rng.usize_in(0, 8))
                .map(|_| rng.u32_in(0, 1024))
                .collect(),
        },
        16 => Msg::PageReplyBatch {
            after: rng.u32_in(0, 1024),
            pages: arb_page_copies(rng),
        },
        17 => {
            let len = rng.usize_in(0, 256);
            Msg::HomeMigrate {
                page: rng.u32_in(0, 1024),
                data: rng.bytes(len).into(),
                version: arb_vclock(rng),
            }
        }
        18 => Msg::RecoveryHello,
        _ => Msg::RecoveryHelloReply {
            held: (0..rng.usize_in(0, 16))
                .map(|_| rng.u32_in(0, 1024))
                .collect(),
            complete: rng.bool(),
        },
    }
}

#[test]
fn generator_reaches_every_wire_tag() {
    let seen: [Cell<bool>; MSG_KINDS] = Default::default();
    check("generator_reaches_every_wire_tag", CASES, |rng| {
        seen[arb_msg(rng).ordinal()].set(true);
    });
    for (tag, hit) in seen.iter().enumerate() {
        assert!(hit.get(), "arb_msg never produced {}", kind_label(tag));
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
        let tag = rng.u32_in(MSG_KINDS as u32, 256) as u8;
        let mut bytes = msg.encode_to_vec();
        bytes[0] = tag;
        assert!(Msg::decode_from_slice(&bytes).is_err());
    });
}
