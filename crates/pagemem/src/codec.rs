//! Hand-rolled binary wire/log codec.
//!
//! Everything the DSM puts on the network or into a log is encoded with
//! this codec, so the byte counts the experiments report (log sizes,
//! traffic) are the bytes a real implementation would move.
//!
//! Two integer forms. Page payloads and the fields around them use
//! little-endian fixed-width integers and length-prefixed byte strings.
//! *Coherence metadata* — vector clocks and write-notice lists, which
//! ride every lock, barrier and page message and are what CCL logs
//! instead of page contents — and the run headers of a diff use LEB128
//! variable-length integers ([`Sink::put_var`]): node ids, interval
//! counts, page ids and word positions within a page are small numbers,
//! so a clock entry is usually one byte, not four.
//!
//! A format is written down once, as its [`Encode::encode`] over a
//! [`Sink`]. Run into a [`ByteWriter`] that description produces the
//! bytes; run into a [`ByteCount`] it produces their number — which is
//! every size the simulator charges, logs or reports.
//!
//! TreadMarks never shipped a write notice as a self-contained
//! `(page, processor, interval)` triple either: it sent *interval
//! records* — the creating processor and its interval once, then the
//! pages written in that interval. The notice-list encoding built on
//! these primitives (`hlrc::encode_notices`) is the same idea, with the
//! page list of each interval further collapsed into runs of
//! consecutive page ids.

use std::fmt;

use crate::SharedBytes;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the decoder needed.
    Truncated {
        /// Bytes the decoder tried to consume.
        needed: usize,
        /// Bytes actually remaining in the input.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        context: &'static str,
        /// The unrecognized tag value.
        tag: u8,
    },
    /// A value that framed correctly but violates a structural
    /// invariant of its type (semantic validation, not framing).
    Invalid {
        /// The type being decoded or validated.
        context: &'static str,
        /// The violated invariant.
        reason: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, had {remaining}")
            }
            CodecError::BadTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            CodecError::Invalid { context, reason } => {
                write!(f, "invalid {context}: {reason}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Longest encoding of a [`Sink::put_var`] value: a `u32` in 7-bit
/// groups.
pub const MAX_VAR_BYTES: usize = 5;

/// Encoded size of `v` as a variable-length integer: what
/// [`ByteCount::put_var`](Sink::put_var) adds.
#[inline]
// `u32::div_ceil` is a divide, a remainder and a branch; this form is a
// multiply and a shift, and the size pass of a long notice list — five
// of these per notice, on every send and receive — measured 1.4x slower
// with it.
#[allow(clippy::manual_div_ceil)]
pub const fn var_size(v: u32) -> usize {
    // ceil(significant bits / 7), one byte for zero.
    let bits = 32 - (v | 1).leading_zeros();
    ((bits + 6) / 7) as usize
}

/// Where an encoder puts its fields: the six primitives every wire
/// and log format is built from.
pub trait Sink {
    /// One byte.
    fn put_u8(&mut self, v: u8);

    /// A little-endian u32.
    fn put_u32(&mut self, v: u32);

    /// A little-endian u64.
    fn put_u64(&mut self, v: u64);

    /// A variable-length integer (LEB128): seven value bits per byte,
    /// least significant group first, high bit set on every byte but
    /// the last. One byte below 128, at most [`MAX_VAR_BYTES`].
    fn put_var(&mut self, v: u32);

    /// Length-prefixed (u32) byte string.
    fn put_bytes(&mut self, v: &[u8]);

    /// Raw bytes, no length prefix (fixed-size payloads like full pages).
    fn put_raw(&mut self, v: &[u8]);

    /// A length-prefixed byte string the encoder holds as a shared
    /// buffer: the same bytes as [`Sink::put_bytes`], and by default
    /// that call. A sink that keeps what it is given may keep the buffer
    /// itself instead of a copy of it.
    fn put_shared(&mut self, v: &SharedBytes) {
        self.put_bytes(v);
    }
}

/// The sink that keeps the bytes: an append-only buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// Create a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Reserve room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for ByteWriter {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_var(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// The sink that keeps only how many bytes there were. It never reads a
/// payload: sizing a message costs its fields, not its contents, and
/// allocates nothing.
#[derive(Debug, Default)]
pub struct ByteCount(usize);

impl ByteCount {
    /// Bytes a [`ByteWriter`] would hold after the same calls.
    pub fn bytes(&self) -> usize {
        self.0
    }
}

impl Sink for ByteCount {
    #[inline]
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }

    #[inline]
    fn put_u32(&mut self, _: u32) {
        self.0 += 4;
    }

    #[inline]
    fn put_u64(&mut self, _: u64) {
        self.0 += 8;
    }

    #[inline]
    fn put_var(&mut self, v: u32) {
        self.0 += var_size(v);
    }

    #[inline]
    fn put_bytes(&mut self, v: &[u8]) {
        self.0 += 4 + v.len();
    }

    #[inline]
    fn put_raw(&mut self, v: &[u8]) {
        self.0 += v.len();
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a variable-length integer written by [`Sink::put_var`].
    /// Only the canonical encoding is accepted:
    /// a value that overflows `u32` or carries a redundant trailing
    /// zero group (an *overlong* encoding) is rejected, so every value
    /// has exactly one byte string and [`var_size`] is exact.
    pub fn get_var(&mut self) -> Result<u32, CodecError> {
        let mut v = 0u32;
        let mut shift = 0;
        loop {
            let b = self.get_u8()?;
            // The fifth group holds the top four bits and must end the
            // value: anything above 0x0F overflows or continues.
            if shift == 7 * (MAX_VAR_BYTES - 1) && b > 0x0F {
                return Err(CodecError::Invalid {
                    context: "var",
                    reason: "value overflows 32 bits",
                });
            }
            v |= u32::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                if shift > 0 && b == 0 {
                    return Err(CodecError::Invalid {
                        context: "var",
                        reason: "overlong encoding",
                    });
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// How many elements to pre-allocate for a list whose wire count is
    /// `count` and whose elements take at least `min_elem_bytes` each:
    /// never more than the remaining input could hold, so a corrupt
    /// count costs an error at the first missing element, not an
    /// allocation sized by the attacker.
    pub fn capacity_for(&self, count: usize, min_elem_bytes: usize) -> usize {
        count.min(self.remaining() / min_elem_bytes)
    }

    /// Length-prefixed byte string (owned).
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

/// Types encodable with the wire codec.
///
/// `encode` is the one description of a type's format. The bytes and
/// their count are both read off it, so neither can drift from the
/// other and nothing overrides the provided methods.
pub trait Encode {
    /// Put `self`'s fields, in wire order, into the sink.
    fn encode<S: Sink>(&self, w: &mut S);

    /// The encoding, in a buffer allocated once at its exact size.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_size());
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Encoded size in bytes: `encode` run into a [`ByteCount`]. No
    /// buffer, no payload byte touched.
    fn encoded_size(&self) -> usize {
        let mut n = ByteCount::default();
        self.encode(&mut n);
        n.bytes()
    }
}

/// Types decodable with the wire codec.
pub trait Decode: Sized {
    /// Decode one value from the reader.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Convenience: decode from a full buffer, requiring it be consumed.
    fn decode_from_slice(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(CodecError::Truncated {
                needed: 0,
                remaining: r.remaining(),
            });
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert!(r.is_exhausted());
    }

    #[test]
    fn var_roundtrips_at_every_length_boundary() {
        let edges = [
            0u32,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            0x1F_FFFF,
            0x20_0000,
            0xFFF_FFFF,
            0x1000_0000,
            u32::MAX,
        ];
        for v in edges {
            let mut w = ByteWriter::new();
            w.put_var(v);
            let buf = w.into_bytes();
            assert_eq!(buf.len(), var_size(v), "var_size({v:#x})");
            assert!(buf.len() <= MAX_VAR_BYTES);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.get_var().unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn var_rejects_overlong_overflowing_and_truncated_encodings() {
        let invalid = |bytes: &[u8]| {
            matches!(
                ByteReader::new(bytes).get_var(),
                Err(CodecError::Invalid { context: "var", .. })
            )
        };
        assert!(invalid(&[0x80, 0x00]), "0 in two bytes");
        assert!(invalid(&[0xFF, 0x80, 0x00]), "127 in three bytes");
        assert!(invalid(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]), "bit 32 set");
        assert!(invalid(&[0xFF, 0xFF, 0xFF, 0xFF, 0x8F]), "a sixth byte");
        assert!(matches!(
            ByteReader::new(&[0x80]).get_var(),
            Err(CodecError::Truncated { .. })
        ));
        assert_eq!(
            ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).get_var(),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn the_two_sinks_agree_on_every_primitive() {
        // One call into each sink: the count must be the buffer's growth.
        macro_rules! agree {
            ($put:ident($v:expr)) => {{
                let (mut w, mut n) = (ByteWriter::new(), ByteCount::default());
                w.$put($v);
                n.$put($v);
                assert_eq!(n.bytes(), w.len(), "{}({:?})", stringify!($put), $v);
            }};
        }
        agree!(put_u8(7));
        agree!(put_u32(70_000));
        agree!(put_u64(u64::MAX - 1));
        for v in [0, 127, 128, 16_383, 16_384, 1 << 21, 1 << 28, u32::MAX] {
            agree!(put_var(v));
        }
        for len in [0, 4096] {
            let payload = vec![0xA5u8; len];
            agree!(put_bytes(&payload[..]));
            agree!(put_raw(&payload[..]));
        }
    }

    #[test]
    fn capacity_is_capped_by_the_remaining_input() {
        let r = ByteReader::new(&[0; 10]);
        assert_eq!(r.capacity_for(3, 2), 3);
        assert_eq!(r.capacity_for(usize::MAX, 4), 2);
        assert_eq!(r.capacity_for(usize::MAX, 1), 10);
    }

    #[test]
    fn byte_string_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_bytes().unwrap(), b"");
    }

    #[test]
    fn raw_bytes() {
        let mut w = ByteWriter::new();
        w.put_raw(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_raw(3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = ByteReader::new(&[1, 2]);
        let e = r.get_u32().unwrap_err();
        assert_eq!(
            e,
            CodecError::Truncated {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn truncated_byte_string_errors() {
        let mut w = ByteWriter::new();
        w.put_u32(10); // claims 10 bytes follow
        w.put_raw(&[1, 2]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.get_bytes(), Err(CodecError::Truncated { .. })));
    }

    #[derive(Debug, PartialEq)]
    struct Pair(u32, u64);

    impl Encode for Pair {
        fn encode<S: Sink>(&self, w: &mut S) {
            w.put_u32(self.0);
            w.put_u64(self.1);
        }
    }

    impl Decode for Pair {
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(Pair(r.get_u32()?, r.get_u64()?))
        }
    }

    #[test]
    fn trait_roundtrip_and_size() {
        let p = Pair(5, 6);
        let bytes = p.encode_to_vec();
        assert_eq!(p.encoded_size(), 12);
        assert_eq!(Pair::decode_from_slice(&bytes).unwrap(), p);
    }

    #[test]
    fn decode_from_slice_rejects_trailing_garbage() {
        let mut bytes = Pair(5, 6).encode_to_vec();
        bytes.push(0xFF);
        assert!(Pair::decode_from_slice(&bytes).is_err());
    }
}
