//! Framed, checksummed on-disk record format shared by every stable
//! stream (ML message log, CCL record log, both checkpoint streams).
//!
//! A stable-storage record is never trusted as written: real devices
//! tear the tail of an in-flight flush and rot bits at rest. Every
//! record is therefore wrapped in an 18-byte header —
//!
//! ```text
//! offset  size  field
//!      0     2  magic        (0xF51C, little-endian)
//!      2     4  stream epoch (bumped on every truncation)
//!      6     4  record seq   (position within the epoch, from 0)
//!     10     4  payload len
//!     14     4  CRC-32 (IEEE) over epoch ‖ seq ‖ len ‖ payload
//!     18     …  payload
//! ```
//!
//! — so recovery can [`salvage`] the longest valid prefix of a stream:
//! it stops at the first frame that is short, mangled, or out of
//! sequence, and everything before that point is guaranteed intact
//! (magic + length + CRC catch torn tails and latent single-bit rot;
//! epoch + seq catch records surviving from a superseded epoch).
//!
//! [`framed_size`] is the exact `encoded_size` mirror: staged-byte
//! accounting and Table 2 log-byte totals include the header overhead
//! without ever encoding twice.
//!
//! One encoder, [`encode_record`], writes every record that reaches a
//! disk, straight from its payload. A buffer the payload shares (ML's
//! page records) stays the record's shared span ([`simnet::DiskRecord`]:
//! head, span, tail). A record is verified on its logical bytes however
//! it is stored ([`StoredBytes`]), so sizes, CRCs and salvage results
//! are those of the flat [`frame_record`], the tests' reference.

use std::borrow::Cow;

use pagemem::{ByteCount, ByteWriter, Encode, SharedBytes, Sink};
use simnet::DiskRecord;

/// Frame magic, first two bytes of every record.
pub const FRAME_MAGIC: u16 = 0xF51C;

/// Exact header overhead per framed record, in bytes.
pub const FRAME_HEADER_BYTES: usize = 18;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup table,
/// built at compile time so the codec stays dependency-free.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 tables: `CRC_SLICES[k][b]` advances byte `b` through
/// `k` further zero bytes, so eight lookups fold eight bytes at once.
/// `CRC_SLICES[0]` is [`CRC_TABLE`].
const CRC_SLICES: [[u32; 256]; 8] = build_crc_slices();

const fn build_crc_slices() -> [[u32; 256]; 8] {
    let mut slices = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
}

/// Extend the (uninverted) register `crc` over `bytes`, eight bytes a
/// step and the tail bytewise: the same function as
/// [`crc32_update_bytewise`], faster.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let t = |k: usize, x: u32| CRC_SLICES[k][(x & 0xFF) as usize];
        crc = t(7, lo)
            ^ t(6, lo >> 8)
            ^ t(5, lo >> 16)
            ^ t(4, lo >> 24)
            ^ t(3, hi)
            ^ t(2, hi >> 8)
            ^ t(1, hi >> 16)
            ^ t(0, hi >> 24);
    }
    crc32_update_bytewise(crc, words.remainder())
}

/// One table lookup per byte: the reference [`crc32_update`] must equal.
fn crc32_update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0u32, bytes)
}

/// The CRC a frame stores: over epoch, seq, payload length, and the
/// payload — so a single flipped bit *anywhere* in the record fails
/// verification (a payload-only CRC would let header rot through). The
/// payload may come in pieces; the CRC is of their concatenation.
fn record_crc(epoch: u32, seq: u32, payload: [&[u8]; 3]) -> u32 {
    let len: usize = payload.iter().map(|p| p.len()).sum();
    let mut crc = !0u32;
    crc = crc32_update(crc, &epoch.to_le_bytes());
    crc = crc32_update(crc, &seq.to_le_bytes());
    crc = crc32_update(crc, &(len as u32).to_le_bytes());
    for piece in payload {
        crc = crc32_update(crc, piece);
    }
    !crc
}

/// The header of a frame for position `seq` of epoch `epoch` over
/// `payload`.
fn header(epoch: u32, seq: u32, payload: [&[u8]; 3]) -> [u8; FRAME_HEADER_BYTES] {
    let len: usize = payload.iter().map(|p| p.len()).sum();
    let mut h = [0u8; FRAME_HEADER_BYTES];
    h[0..2].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    h[2..6].copy_from_slice(&epoch.to_le_bytes());
    h[6..10].copy_from_slice(&seq.to_le_bytes());
    h[10..14].copy_from_slice(&(len as u32).to_le_bytes());
    h[14..18].copy_from_slice(&record_crc(epoch, seq, payload).to_le_bytes());
    h
}

/// Exact on-disk size of a framed record with a `payload_len`-byte
/// payload (the `encoded_size` mirror of [`encode_record`]).
pub fn framed_size(payload_len: usize) -> usize {
    payload_len + FRAME_HEADER_BYTES
}

/// Wrap the encoded `payload` in a flat frame for position `seq` of
/// stream epoch `epoch`: the reference [`encode_record`] must equal.
pub fn frame_record(epoch: u32, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(framed_size(payload.len()));
    out.extend_from_slice(&header(epoch, seq, [payload, &[], &[]]));
    out.extend_from_slice(payload);
    out
}

/// Encode `payload` into a frame for position `seq` of stream epoch
/// `epoch`, keeping the first buffer it hands over through
/// [`Sink::put_shared`] as the record's shared span instead of copying
/// it (a later one is copied). The logical bytes are exactly
/// `frame_record(epoch, seq, &payload.encode_to_vec())`.
pub fn encode_record(epoch: u32, seq: u32, payload: &impl Encode) -> DiskRecord {
    let mut size = Splice::new(ByteCount::default());
    payload.encode(&mut size);
    let mut w = Splice::new(ByteWriter::with_capacity(
        FRAME_HEADER_BYTES + size.sink.bytes(),
    ));
    w.sink.put_raw(&[0; FRAME_HEADER_BYTES]);
    payload.encode(&mut w);
    let mut bytes = w.sink.into_bytes();
    let h = match &w.span {
        None => header(epoch, seq, [&bytes[FRAME_HEADER_BYTES..], &[], &[]]),
        Some((at, span)) => {
            let (head, tail) = bytes.split_at(*at);
            header(epoch, seq, [&head[FRAME_HEADER_BYTES..], span, tail])
        }
    };
    bytes[..FRAME_HEADER_BYTES].copy_from_slice(&h);
    match w.span {
        None => DiskRecord::from(bytes),
        Some((at, span)) => DiskRecord::spliced(bytes, at, span.into()),
    }
}

/// Bytes that encode as themselves, with no length prefix: a payload
/// that is encoded already, such as a checkpoint image carried into a
/// new epoch.
pub struct Raw<'a>(pub &'a [u8]);

impl Encode for Raw<'_> {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_raw(self.0);
    }
}

/// A sink that passes everything on to `sink` except the body of the
/// first shared buffer, which it keeps by reference with the offset it
/// would have been written at.
struct Splice<S> {
    sink: S,
    span: Option<(usize, SharedBytes)>,
}

/// Where a sink's next byte goes: how many it has taken so far.
trait Position {
    fn position(&self) -> usize;
}

impl Position for ByteCount {
    fn position(&self) -> usize {
        self.bytes()
    }
}

impl Position for ByteWriter {
    fn position(&self) -> usize {
        self.len()
    }
}

impl<S> Splice<S> {
    fn new(sink: S) -> Splice<S> {
        Splice { sink, span: None }
    }
}

impl<S: Sink + Position> Sink for Splice<S> {
    fn put_u8(&mut self, v: u8) {
        self.sink.put_u8(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.sink.put_u32(v);
    }

    fn put_u64(&mut self, v: u64) {
        self.sink.put_u64(v);
    }

    fn put_var(&mut self, v: u32) {
        self.sink.put_var(v);
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.sink.put_bytes(v);
    }

    fn put_raw(&mut self, v: &[u8]) {
        self.sink.put_raw(v);
    }

    fn put_shared(&mut self, v: &SharedBytes) {
        if self.span.is_some() {
            return self.sink.put_bytes(v);
        }
        self.sink.put_u32(v.len() as u32);
        self.span = Some((self.sink.position(), v.clone()));
    }
}

/// A stored record's logical bytes, as up to three contiguous pieces:
/// head, shared span, tail. A flat record is all head.
pub trait StoredBytes {
    /// The pieces, in order.
    fn pieces(&self) -> [&[u8]; 3];
}

impl StoredBytes for Vec<u8> {
    fn pieces(&self) -> [&[u8]; 3] {
        [self, &[], &[]]
    }
}

impl StoredBytes for DiskRecord {
    fn pieces(&self) -> [&[u8]; 3] {
        DiskRecord::pieces(self)
    }
}

/// `pieces` without their first `n` bytes.
fn skip(pieces: [&[u8]; 3], mut n: usize) -> [&[u8]; 3] {
    pieces.map(|p| {
        let k = n.min(p.len());
        n -= k;
        &p[k..]
    })
}

/// The payload of a verified record: borrowed when it lies in one
/// piece, a copy when it spans several.
pub fn payload<R: StoredBytes>(record: &R) -> Cow<'_, [u8]> {
    match skip(record.pieces(), FRAME_HEADER_BYTES) {
        [p, [], []] | [[], p, []] | [[], [], p] => Cow::Borrowed(p),
        pieces => Cow::Owned(pieces.concat()),
    }
}

/// The first contiguous piece of a record's payload: enough to read a
/// tag byte without assembling the rest.
pub fn payload_prefix<R: StoredBytes>(record: &R) -> &[u8] {
    let pieces = skip(record.pieces(), FRAME_HEADER_BYTES);
    pieces.into_iter().find(|p| !p.is_empty()).unwrap_or(&[])
}

/// Why a frame failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a header — a torn (truncated) tail.
    TooShort,
    /// The magic bytes are wrong — garbage or a garbled header.
    BadMagic,
    /// The payload length does not match the record size — torn tail.
    BadLength,
    /// The record CRC does not match — bit rot or a garbled write.
    CrcMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            FrameError::TooShort => "record shorter than a frame header",
            FrameError::BadMagic => "bad frame magic",
            FrameError::BadLength => "frame length does not match record size",
            FrameError::CrcMismatch => "payload CRC mismatch",
        };
        f.write_str(what)
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Verify one framed record in place: its `(epoch, seq)`, or why it
/// failed. [`payload`] reads a verified record's payload.
pub fn verify<R: StoredBytes>(record: &R) -> Result<(u32, u32), FrameError> {
    let pieces = record.pieces();
    let total: usize = pieces.iter().map(|p| p.len()).sum();
    if total < FRAME_HEADER_BYTES {
        return Err(FrameError::TooShort);
    }
    let mut h = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0;
    for p in pieces {
        let k = (FRAME_HEADER_BYTES - filled).min(p.len());
        h[filled..filled + k].copy_from_slice(&p[..k]);
        filled += k;
    }
    if le_u16(&h[0..2]) != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let epoch = le_u32(&h[2..6]);
    let seq = le_u32(&h[6..10]);
    let len = le_u32(&h[10..14]) as usize;
    if total != FRAME_HEADER_BYTES + len {
        return Err(FrameError::BadLength);
    }
    let payload = skip(pieces, FRAME_HEADER_BYTES);
    if record_crc(epoch, seq, payload) != le_u32(&h[14..18]) {
        return Err(FrameError::CrcMismatch);
    }
    Ok((epoch, seq))
}

/// The result of scanning a stable stream for its longest valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage {
    /// Records in the longest valid prefix: the first `valid` records of
    /// the stream scanned verified, in order.
    pub valid: usize,
    /// The stream epoch (adopted from the first valid frame; 0 for an
    /// empty stream).
    pub epoch: u32,
    /// Records cut because the first bad frame was torn (truncated or
    /// length-mangled) — 1 or 0; the damaged record itself.
    pub torn: u32,
    /// Records cut because the first bad frame failed its CRC or magic
    /// check (bit rot / garbled write) — 1 or 0.
    pub crc_mismatches: u32,
    /// Total records discarded (the first bad frame plus everything
    /// after it — a log's suffix is meaningless past a gap).
    pub discarded: u32,
}

impl Salvage {
    /// True if the whole stream verified (nothing was cut).
    pub fn is_clean(&self) -> bool {
        self.discarded == 0
    }

    /// The verified payloads of `records`, the stream this scan
    /// verified ([`payload`] of each record of the prefix).
    pub fn payloads<'a, R: StoredBytes>(
        &self,
        records: &'a [R],
    ) -> impl Iterator<Item = Cow<'a, [u8]>> {
        records[..self.valid].iter().map(|r| payload(r))
    }
}

/// Scan `records` in order, verifying each frame, and salvage the
/// longest valid prefix. Nothing is copied: the prefix is reported by
/// its length ([`Salvage::payloads`] reads it).
///
/// The scan stops at the first record that fails verification — wrong
/// magic, wrong length, CRC mismatch, an epoch differing from the
/// first frame's, or a sequence number that is not its position. That
/// record and every later one are discarded: records after a gap may
/// depend on the lost one, so only the contiguous verified prefix is
/// safe to replay.
pub fn salvage<R: StoredBytes>(records: &[R]) -> Salvage {
    let mut out = Salvage {
        valid: 0,
        epoch: 0,
        torn: 0,
        crc_mismatches: 0,
        discarded: 0,
    };
    for (i, rec) in records.iter().enumerate() {
        match verify(rec) {
            Ok((epoch, seq)) => {
                if i == 0 {
                    out.epoch = epoch;
                }
                if epoch != out.epoch || seq != i as u32 {
                    // A stale record from a superseded epoch, or a
                    // sequencing gap: structurally intact but not part
                    // of this log — treated like a torn tail.
                    out.torn = 1;
                    out.discarded = (records.len() - i) as u32;
                    return out;
                }
                out.valid += 1;
            }
            Err(e) => {
                match e {
                    FrameError::CrcMismatch | FrameError::BadMagic => out.crc_mismatches = 1,
                    FrameError::TooShort | FrameError::BadLength => out.torn = 1,
                }
                out.discarded = (records.len() - i) as u32;
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use minicheck::{check, Rng};

    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_reference() {
        check("crc-slice-by-8", 256, |rng: &mut Rng| {
            let len = rng.usize_in(0, 4201);
            let start = rng.usize_in(0, 8);
            let buf = rng.bytes(start + len);
            let bytes = &buf[start..];
            let reg = rng.next_u64() as u32;
            assert_eq!(crc32_update(reg, bytes), crc32_update_bytewise(reg, bytes));
            // A chain split anywhere computes the one pass: `record_crc`
            // feeds 12 header bytes before the payload.
            let cut = rng.usize_in(0, len + 1);
            let chained = crc32_update(crc32_update(!0, &bytes[..cut]), &bytes[cut..]);
            assert_eq!(chained, crc32_update_bytewise(!0, bytes));
        });
    }

    #[test]
    fn frame_roundtrips_and_sizes_match() {
        let bytes = b"hello stable storage".to_vec();
        let rec = frame_record(3, 7, &bytes);
        assert_eq!(rec.len(), framed_size(bytes.len()));
        assert_eq!(verify(&rec), Ok((3, 7)));
        assert_eq!(payload(&rec)[..], bytes[..]);
    }

    #[test]
    fn empty_payload_frames_cleanly() {
        let rec = frame_record(1, 0, &[]);
        assert_eq!(rec.len(), FRAME_HEADER_BYTES);
        assert_eq!(verify(&rec), Ok((1, 0)));
        assert!(payload(&rec).is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let rec = frame_record(1, 0, b"payload bytes");
        for cut in 0..rec.len() {
            let torn = rec[..cut].to_vec();
            let err = verify(&torn).unwrap_err();
            assert!(
                matches!(err, FrameError::TooShort | FrameError::BadLength),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let rec = frame_record(2, 5, b"some payload worth protecting");
        for byte in 0..rec.len() {
            for bit in 0..8 {
                let mut bad = rec.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    verify(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    fn sample_stream(n: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let payloads: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 5 + i]).collect();
        let records = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| frame_record(4, i as u32, p))
            .collect();
        (payloads, records)
    }

    #[test]
    fn salvage_of_clean_stream_is_full() {
        let (payloads, records) = sample_stream(6);
        let s = salvage(&records);
        assert!(s.is_clean());
        assert_eq!(s.payloads(&records).collect::<Vec<_>>(), payloads);
        assert_eq!(s.epoch, 4);
    }

    #[test]
    fn salvage_cuts_at_torn_tail() {
        let (payloads, mut records) = sample_stream(6);
        let last = records.last_mut().unwrap();
        last.truncate(last.len() - 3);
        let s = salvage(&records);
        assert_eq!(s.payloads(&records).collect::<Vec<_>>(), payloads[..5]);
        assert_eq!(s.torn, 1);
        assert_eq!(s.discarded, 1);
    }

    #[test]
    fn salvage_cuts_at_corrupt_middle_and_drops_suffix() {
        let (payloads, mut records) = sample_stream(6);
        records[2][FRAME_HEADER_BYTES] ^= 0x40; // payload bit rot
        let s = salvage(&records);
        assert_eq!(s.payloads(&records).collect::<Vec<_>>(), payloads[..2]);
        assert_eq!(s.crc_mismatches, 1);
        assert_eq!(s.discarded, 4);
    }

    #[test]
    fn salvage_rejects_stale_epoch_records() {
        let (_, mut records) = sample_stream(4);
        records[2] = frame_record(3, 2, b"older epoch survivor");
        let s = salvage(&records);
        assert_eq!(s.valid, 2);
        assert_eq!(s.torn, 1);
        assert_eq!(s.discarded, 2);
    }

    #[test]
    fn salvage_rejects_seq_gap() {
        let (_, mut records) = sample_stream(4);
        records.remove(1);
        let s = salvage(&records);
        assert_eq!(s.valid, 1);
        assert_eq!(s.discarded, 2);
    }

    #[test]
    fn empty_stream_salvages_empty() {
        let s = salvage::<Vec<u8>>(&[]);
        assert!(s.is_clean());
        assert_eq!(s.valid, 0);
        assert_eq!(s.epoch, 0);
    }
}
