//! A spliced record — frame head, a page buffer shared with the reply
//! it logs, tail — is stored differently from a flat one and must be
//! indistinguishable from it everywhere else: same logical bytes, same
//! CRC wherever the pieces split, same salvage, same decode, and damage
//! that lands on it stays in the one log that holds it.

use std::sync::Arc;

use ftlog::{decode_frame, frame_record, frame_spliced, salvage};
use hlrc::{Msg, WriteNotice};
use minicheck::{check, Rng};
use pagemem::{Decode, Encode, IntervalId, SharedBytes, VClock};
use simnet::{DiskFaultPlan, DiskModel, DiskRecord, SimDisk};

const CASES: u64 = 192;

fn arb_vclock(rng: &mut Rng) -> VClock {
    let n = rng.usize_in(1, 9);
    let mut c = VClock::new(n);
    for i in 0..n {
        c.set(i as u32, rng.u32_any_width());
    }
    c
}

/// A page's bytes: empty, odd-length, a whole 4 KiB page, or anything.
fn arb_page(rng: &mut Rng) -> SharedBytes {
    let len = match rng.usize_in(0, 4) {
        0 => 0,
        1 => 2 * rng.usize_in(0, 40) + 1,
        2 => 4096,
        _ => rng.usize_in(0, 300),
    };
    rng.bytes(len).into()
}

/// Every kind ML logs: page copies (shared buffers) and the rest.
fn arb_msg(rng: &mut Rng) -> Msg {
    let notices = |rng: &mut Rng| -> Vec<WriteNotice> {
        let node = rng.u32_in(0, 8);
        (0..rng.usize_in(0, 6))
            .map(|_| WriteNotice {
                page: rng.u32_in(0, 512),
                interval: IntervalId {
                    node,
                    seq: rng.u32_any_width(),
                },
            })
            .collect()
    };
    match rng.usize_in(0, 5) {
        0 | 1 => Msg::PageReply {
            page: rng.u32_any_width(),
            data: arb_page(rng),
            version: arb_vclock(rng),
        },
        2 => Msg::HomeMigrate {
            page: rng.u32_any_width(),
            data: arb_page(rng),
            version: arb_vclock(rng),
        },
        3 => Msg::LockGrant {
            lock: rng.u32_in(0, 64),
            vc: arb_vclock(rng).into(),
            notices: notices(rng),
        },
        _ => Msg::BarrierRelease {
            epoch: rng.u32_any_width(),
            vc: arb_vclock(rng).into(),
            notices: notices(rng).into(),
            migrations: Vec::new().into(),
        },
    }
}

/// The page buffer `msg` carries, if any.
fn page_of(msg: &Msg) -> Option<&SharedBytes> {
    match msg {
        Msg::PageReply { data, .. } | Msg::HomeMigrate { data, .. } => Some(data),
        _ => None,
    }
}

/// `flat` stored with its bytes `at..at + span` shared.
fn split(flat: &[u8], at: usize, span: usize) -> DiskRecord {
    let mut bytes = flat[..at].to_vec();
    bytes.extend_from_slice(&flat[at + span..]);
    DiskRecord::spliced(bytes, at, Arc::from(&flat[at..at + span]))
}

/// A spliced record is its flat frame byte for byte, keeps the page
/// buffer itself rather than a copy, and verifies wherever the pieces
/// split: each of the eight offsets mod 8 for either boundary, since
/// the CRC folds eight bytes a step.
#[test]
fn a_spliced_record_is_its_flat_frame_byte_for_byte() {
    check("spliced-record-is-flat-frame", CASES, |rng| {
        let msg = arb_msg(rng);
        let (epoch, seq) = (rng.u32_any_width(), rng.u32_any_width());
        let flat = frame_record(epoch, seq, &msg.encode_to_vec());
        let spliced = frame_spliced(epoch, seq, &msg);
        assert_eq!(spliced, flat, "{}", msg.kind());
        assert_eq!(spliced.len(), flat.len());
        let frame = decode_frame(&flat).expect("own frame");
        assert_eq!(decode_frame(&spliced), Ok(frame.clone()));
        assert_eq!(Msg::decode_from_slice(&frame.payload).as_ref(), Ok(&msg));
        match (page_of(&msg), spliced.shared()) {
            (Some(data), Some(span)) => {
                assert!(std::ptr::eq(data.as_ptr(), span.as_ptr()), "a copy");
            }
            (None, None) => {}
            (page, span) => panic!("page {page:?} but span {span:?}"),
        }
        for shift in 0..8 {
            let at = (rng.usize_in(0, flat.len() + 1) & !7 | shift).min(flat.len());
            let span = rng.usize_in(0, flat.len() - at + 1);
            let resplit = split(&flat, at, span);
            assert_eq!(decode_frame(&resplit), Ok(frame.clone()), "at {at}+{span}");
        }
    });
}

/// Damage at one logical bit or length, the same in both forms.
fn damage(rng: &mut Rng, len: usize) -> impl Fn(&mut Vec<u8>) {
    let torn = rng.bool() || len == 0;
    let at = rng.usize_in(0, len.max(1));
    let bit = rng.usize_in(0, 8);
    move |r: &mut Vec<u8>| {
        if torn {
            r.truncate(at);
        } else {
            r[at] ^= 1 << bit;
        }
    }
}

/// Salvage and decode read spliced and flat streams alike, clean or
/// damaged anywhere: same verdict, same prefix, same messages.
#[test]
fn salvage_reads_spliced_and_flat_streams_alike() {
    check("salvage-spliced-as-flat", CASES, |rng| {
        let epoch = rng.u32_in(0, 50);
        let msgs: Vec<Msg> = (0..rng.usize_in(0, 8)).map(|_| arb_msg(rng)).collect();
        let mut flat: Vec<Vec<u8>> = Vec::new();
        let mut spliced: Vec<DiskRecord> = Vec::new();
        for (seq, msg) in msgs.iter().enumerate() {
            flat.push(frame_record(epoch, seq as u32, &msg.encode_to_vec()));
            spliced.push(frame_spliced(epoch, seq as u32, msg));
        }
        if !msgs.is_empty() && rng.bool() {
            let victim = rng.usize_in(0, msgs.len());
            let hit = damage(rng, flat[victim].len());
            hit(&mut flat[victim]);
            hit(spliced[victim].flat_mut());
        }
        let s = salvage(&spliced);
        assert_eq!(s, salvage(&flat));
        let decode = |p: std::borrow::Cow<[u8]>| Msg::decode_from_slice(&p).expect("verified");
        let from_spliced: Vec<Msg> = s.payloads(&spliced).map(decode).collect();
        let from_flat: Vec<Msg> = s.payloads(&flat).map(decode).collect();
        assert_eq!(from_spliced, from_flat);
        assert_eq!(from_spliced, msgs[..s.valid]);
    });
}

/// One page buffer, logged by node A and node B, as the home shipped
/// it. Bit rot at rest and a torn flush — garbled or truncated — on A's
/// spliced records change A's log exactly as they change a flat copy
/// of it, and nothing else: B's record over the same buffer, and the
/// buffer itself, keep their bytes.
#[test]
fn damage_to_a_spliced_record_stays_in_its_own_log() {
    let page: SharedBytes = (0..4096u32)
        .map(|i| (i * 7) as u8)
        .collect::<Vec<u8>>()
        .into();
    let home = page.as_slice().to_vec();
    let reply = |n: u32| Msg::PageReply {
        page: n,
        data: page.clone(),
        version: VClock::new(4),
    };
    let log = |spliced: bool| -> Vec<DiskRecord> {
        (0..6u32)
            .map(|seq| match spliced {
                true => frame_spliced(1, seq, &reply(seq)),
                false => frame_record(1, seq, &reply(seq).encode_to_vec()).into(),
            })
            .collect()
    };
    type Fault = fn(&mut SimDisk);
    let faults: [(&str, Fault); 3] = [
        ("rot", |_| {}),
        ("garble", |d| assert!(d.tear_last_flush(0xC0FFEE, true))),
        ("truncate", |d| assert!(d.tear_last_flush(0xC0FFEE, false))),
    ];
    for (name, fault) in faults {
        let rot = DiskFaultPlan::bit_rot(9, if name == "rot" { 500 } else { 0 });
        let mut a = SimDisk::new(DiskModel::ULTRA5_LOCAL);
        let mut flat = SimDisk::new(DiskModel::ULTRA5_LOCAL);
        let mut b = SimDisk::new(DiskModel::ULTRA5_LOCAL);
        a.set_faults(rot);
        flat.set_faults(rot);
        a.flush_records("ml.log", log(true));
        flat.flush_records("ml.log", log(false));
        b.flush_records("ml.log", log(true));
        fault(&mut a);
        fault(&mut flat);
        let (a, flat) = (a.peek_stream("ml.log"), flat.peek_stream("ml.log"));
        assert_eq!(a, flat, "{name}: A's log is its flat copy's");
        let s = salvage(a);
        assert!(!s.is_clean(), "{name}: nothing was damaged");
        assert_eq!(s, salvage(flat), "{name}");
        assert!(salvage(b.peek_stream("ml.log")).is_clean(), "{name}");
        assert_eq!(b.peek_stream("ml.log"), log(false), "{name}: B's log moved");
        assert_eq!(page.as_slice(), home, "{name}: the shipped buffer moved");
        // What was damaged is A's own; what A still shares is intact.
        assert!(a[s.valid].shared().is_none(), "{name}: damaged in place");
        for r in a.iter().filter(|r| r.shared().is_some()) {
            assert_eq!(r.shared().map(|s| &s[..]), Some(page.as_slice()));
        }
    }
}
