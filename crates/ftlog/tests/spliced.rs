//! Every record that reaches a disk is encoded straight into its frame
//! ([`ftlog::encode_record`]). A spliced record — frame head, a page
//! buffer shared with the reply it logs, tail — is stored differently
//! from a flat one and must be indistinguishable from it everywhere
//! else: same logical bytes, same CRC wherever the pieces split, same
//! salvage, same decode, and damage that lands on it stays in the one
//! log that holds it. Every other record, of every stream, is its flat
//! frame outright.

use std::sync::Arc;

use ftlog::checkpoint::PageImage;
use ftlog::frame::{payload, verify, Raw};
use ftlog::{encode_record, frame_record, salvage, CclRecord, CheckpointMeta};
use hlrc::{Msg, SyncKind, WriteNotice};
use minicheck::{check, Rng};
use pagemem::{Decode, DiffRun, Encode, IntervalId, PageDiff, SharedBytes, VClock};
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

fn arb_interval(rng: &mut Rng) -> IntervalId {
    IntervalId {
        node: rng.u32_in(0, 8),
        seq: rng.u32_any_width(),
    }
}

/// Notices of one writer's interval.
fn notices(rng: &mut Rng) -> Vec<WriteNotice> {
    let interval = arb_interval(rng);
    (0..rng.usize_in(0, 6))
        .map(|_| WriteNotice {
            page: rng.u32_in(0, 512),
            interval,
        })
        .collect()
}

/// Every kind ML logs: page copies (shared buffers) and the rest.
fn arb_msg(rng: &mut Rng) -> Msg {
    match rng.usize_in(0, 4) {
        0 | 1 => Msg::PageReply {
            page: rng.u32_any_width(),
            data: arb_page(rng),
            version: arb_vclock(rng),
        },
        2 => Msg::LockGrant {
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

/// A diff of word-aligned runs in order, as `PageDiff::create` makes.
fn arb_diff(rng: &mut Rng) -> PageDiff {
    let mut word = 0;
    let runs = (0..rng.usize_in(0, 5))
        .map(|_| {
            word += rng.u32_in(0, 16);
            let words = rng.u32_in(1, 5);
            let offset = word * 4;
            word += words;
            DiffRun {
                offset,
                data: rng.bytes(words as usize * 4),
            }
        })
        .collect();
    PageDiff {
        page: rng.u32_in(0, 1024),
        runs,
    }
}

/// Every kind CCL logs.
fn arb_ccl_record(rng: &mut Rng) -> CclRecord {
    match rng.usize_in(0, 3) {
        0 => CclRecord::Sync {
            tag: match rng.bool() {
                true => SyncKind::Acquire(rng.u32_in(0, 64)),
                false => SyncKind::Barrier(rng.u32_any_width()),
            },
            notices: notices(rng),
            vc: arb_vclock(rng),
        },
        1 => {
            let mut pages: Vec<u32> = (0..rng.usize_in(0, 12))
                .map(|_| rng.u32_in(0, 1024))
                .collect();
            pages.sort_unstable();
            pages.dedup();
            CclRecord::Updates {
                writer: arb_interval(rng),
                pages,
            }
        }
        _ => CclRecord::Diffs {
            interval: arb_interval(rng),
            diffs: (0..rng.usize_in(0, 4)).map(|_| arb_diff(rng)).collect(),
        },
    }
}

fn arb_meta(rng: &mut Rng) -> CheckpointMeta {
    CheckpointMeta {
        vc: arb_vclock(rng),
        next_interval: rng.u32_any_width(),
        barrier_epoch: rng.u32_any_width(),
        last_barrier_vc: arb_vclock(rng),
        app_state: {
            let len = rng.usize_in(0, 40);
            rng.bytes(len)
        },
    }
}

/// The page buffer `msg` carries, if any.
fn page_of(msg: &Msg) -> Option<&SharedBytes> {
    match msg {
        Msg::PageReply { data, .. } => Some(data),
        _ => None,
    }
}

/// `flat` stored with its bytes `at..at + span` shared.
fn split(flat: &[u8], at: usize, span: usize) -> DiskRecord {
    let mut bytes = flat[..at].to_vec();
    bytes.extend_from_slice(&flat[at + span..]);
    DiskRecord::spliced(bytes, at, Arc::from(&flat[at..at + span]))
}

/// A record framed by the encoder every stream writes with, its flat
/// reference frame, and the page buffer it must share, if any.
struct Framed {
    kind: &'static str,
    record: DiskRecord,
    flat: Vec<u8>,
    page: Option<SharedBytes>,
}

fn framed(kind: &'static str, epoch: u32, seq: u32, payload: &impl Encode) -> Framed {
    Framed {
        kind,
        record: encode_record(epoch, seq, payload),
        flat: frame_record(epoch, seq, &payload.encode_to_vec()),
        page: None,
    }
}

/// A payload of a stream other than ML's: a CCL record, checkpoint
/// metadata, a new page image or a retained one carried into a new
/// epoch.
fn arb_other(rng: &mut Rng, epoch: u32, seq: u32) -> Framed {
    let data = rng.bytes(300);
    let data = &data[..rng.usize_in(0, 301)];
    match rng.usize_in(0, 4) {
        0 => framed("CclRecord", epoch, seq, &arb_ccl_record(rng)),
        1 => framed("CheckpointMeta", epoch, seq, &arb_meta(rng)),
        2 => {
            let (page, version) = (rng.u32_any_width(), arb_vclock(rng));
            framed("PageImage", epoch, seq, &PageImage(page, &version, data))
        }
        _ => framed("Raw", epoch, seq, &Raw(data)),
    }
}

/// Every payload a stable stream holds is framed as its flat frame byte
/// for byte: an ML message (which also decodes back), and one of every
/// other stream's. ML's page copies keep the page buffer itself rather
/// than a copy; nothing else shares a span. And the record verifies
/// wherever the pieces split: each of the eight offsets mod 8 for
/// either boundary, since the CRC folds eight bytes a step.
#[test]
fn a_spliced_record_is_its_flat_frame_byte_for_byte() {
    check("spliced-record-is-flat-frame", CASES, |rng| {
        let (epoch, seq) = (rng.u32_any_width(), rng.u32_any_width());
        let msg = arb_msg(rng);
        let ml = Framed {
            page: page_of(&msg).cloned(),
            ..framed(msg.kind(), epoch, seq, &msg)
        };
        let decoded = Msg::decode_from_slice(&payload(&ml.record));
        assert_eq!(decoded.as_ref(), Ok(&msg));
        for f in [ml, arb_other(rng, epoch, seq)] {
            let (kind, flat) = (f.kind, &f.flat);
            assert_eq!(f.record, *flat, "{kind}");
            assert_eq!(f.record.len(), flat.len());
            assert_eq!(verify(flat), Ok((epoch, seq)));
            assert_eq!(verify(&f.record), Ok((epoch, seq)));
            assert_eq!(payload(&f.record), payload(flat));
            match (&f.page, f.record.shared()) {
                (Some(data), Some(span)) => {
                    assert!(std::ptr::eq(data.as_ptr(), span.as_ptr()), "a copy");
                }
                (None, None) => {}
                (page, span) => panic!("{kind}: page {page:?} but span {span:?}"),
            }
            for shift in 0..8 {
                let at = (rng.usize_in(0, flat.len() + 1) & !7 | shift).min(flat.len());
                let span = rng.usize_in(0, flat.len() - at + 1);
                let resplit = split(flat, at, span);
                assert_eq!(verify(&resplit), Ok((epoch, seq)), "{kind} at {at}+{span}");
                assert_eq!(payload(&resplit), payload(flat), "{kind} at {at}+{span}");
            }
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
            spliced.push(encode_record(epoch, seq as u32, msg));
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
                true => encode_record(1, seq, &reply(seq)),
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
