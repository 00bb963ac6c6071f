//! Property tests for vector clocks and the wire codec.

use minicheck::{check, Rng};
use pagemem::{ByteReader, ByteWriter, Decode, Encode, IntervalId, Sink, VClock, VOrder};

const CASES: u64 = 256;

fn vclock(rng: &mut Rng, n: usize) -> VClock {
    let mut c = VClock::new(n);
    for i in 0..n {
        c.set(i as u32, rng.u32_in(0, 1000));
    }
    c
}

/// join is the least upper bound: commutative, idempotent, and
/// dominating both inputs.
#[test]
fn join_is_lub() {
    check("join_is_lub", CASES, |rng| {
        let a = vclock(rng, 6);
        let b = vclock(rng, 6);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert_eq!(&ab, &ba);
        assert!(a.dominated_by(&ab));
        assert!(b.dominated_by(&ab));
        let mut again = ab.clone();
        again.join(&a);
        assert_eq!(again, ab);
    });
}

/// compare is antisymmetric and consistent with dominated_by.
#[test]
fn compare_consistency() {
    check("compare_consistency", CASES, |rng| {
        // Small component range so every ordering actually occurs.
        let mut a = VClock::new(5);
        let mut b = VClock::new(5);
        for i in 0..5 {
            a.set(i, rng.u32_in(0, 4));
            b.set(i, rng.u32_in(0, 4));
        }
        match a.compare(&b) {
            VOrder::Equal => {
                assert_eq!(b.compare(&a), VOrder::Equal);
                assert!(a.dominated_by(&b) && b.dominated_by(&a));
            }
            VOrder::Before => {
                assert_eq!(b.compare(&a), VOrder::After);
                assert!(a.dominated_by(&b));
                assert!(!b.dominated_by(&a));
            }
            VOrder::After => {
                assert_eq!(b.compare(&a), VOrder::Before);
                assert!(b.dominated_by(&a));
            }
            VOrder::Concurrent => {
                assert_eq!(b.compare(&a), VOrder::Concurrent);
                assert!(!a.dominated_by(&b) && !b.dominated_by(&a));
            }
        }
    });
}

/// observe() makes covers() true and is the minimal such update.
#[test]
fn observe_covers() {
    check("observe_covers", CASES, |rng| {
        let mut a = vclock(rng, 4);
        let node = rng.u32_in(0, 4);
        let seq = rng.u32_in(0, 100);
        let before = a.get(node);
        let iv = IntervalId { node, seq };
        a.observe(iv);
        assert!(a.covers(iv));
        assert_eq!(a.get(node), before.max(seq + 1));
    });
}

/// Arbitrary clocks — any width up to 200 processes, entries from every
/// size class of the variable-length encoding — survive the codec, and
/// the counting sink agrees with the buffer over the whole clock.
#[test]
fn vclock_codec_roundtrip() {
    check("vclock_codec_roundtrip", CASES, |rng| {
        let n = rng.usize_in(0, 200);
        let mut a = VClock::new(n);
        for i in 0..n {
            a.set(i as u32, rng.u32_any_width());
        }
        let bytes = a.encode_to_vec();
        assert_eq!(a.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(VClock::decode_from_slice(&bytes).unwrap(), a);
    });
}

/// Variable-length integers round-trip at the length `var_size` gives.
#[test]
fn var_codec_roundtrip() {
    check("var_codec_roundtrip", CASES, |rng| {
        let v = rng.u32_any_width();
        let mut w = ByteWriter::new();
        w.put_var(v);
        let buf = w.into_bytes();
        assert_eq!(buf.len(), pagemem::codec::var_size(v));
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_var().unwrap(), v);
        assert!(r.is_exhausted());
    });
}

/// A clock decoder fed random bytes returns a clock or an error.
#[test]
fn random_bytes_never_panic_the_clock_decoder() {
    check("random_bytes_never_panic_the_clock_decoder", CASES, |rng| {
        let len = rng.usize_in(0, 64);
        let _ = VClock::decode_from_slice(&rng.bytes(len));
    });
}

#[test]
fn interval_codec_roundtrip() {
    check("interval_codec_roundtrip", CASES, |rng| {
        let iv = IntervalId {
            node: rng.next_u64() as u32,
            seq: rng.next_u64() as u32,
        };
        assert_eq!(
            IntervalId::decode_from_slice(&iv.encode_to_vec()).unwrap(),
            iv
        );
    });
}

/// Mixed scalar/byte-string sequences roundtrip through the codec.
#[test]
fn writer_reader_roundtrip() {
    check("writer_reader_roundtrip", CASES, |rng| {
        let n_items = rng.usize_in(0, 50);
        let items: Vec<(u8, u64)> = (0..n_items)
            .map(|_| {
                let kind = rng.u32_in(0, 4) as u8;
                let v = rng.next_u64();
                let v = match kind {
                    0 => v & 0xFF,
                    1 => v & 0xFFFF_FFFF,
                    2 => v & 0xFFFF_FFFF,
                    _ => v,
                };
                (kind, v)
            })
            .collect();
        let tail_len = rng.usize_in(0, 100);
        let tail = rng.bytes(tail_len);

        let mut w = ByteWriter::new();
        for &(kind, v) in &items {
            match kind {
                0 => w.put_u8(v as u8),
                1 => w.put_var(v as u32),
                2 => w.put_u32(v as u32),
                _ => w.put_u64(v),
            }
        }
        w.put_bytes(&tail);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        for &(kind, v) in &items {
            let got = match kind {
                0 => r.get_u8().unwrap() as u64,
                1 => r.get_var().unwrap() as u64,
                2 => r.get_u32().unwrap() as u64,
                _ => r.get_u64().unwrap(),
            };
            assert_eq!(got, v);
        }
        assert_eq!(r.get_bytes().unwrap(), tail);
        assert!(r.is_exhausted());
    });
}
