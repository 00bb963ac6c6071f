//! Page frames: the physical backing of one shared page on one node.

use std::fmt;

/// One page's worth of bytes, with little-endian typed accessors.
///
/// All accesses are bounds-checked; typed accessors additionally require
/// natural alignment of the offset, mirroring what real hardware would
/// enforce on the paper's SPARC testbed.
#[derive(Clone, PartialEq, Eq)]
pub struct PageFrame {
    data: Box<[u8]>,
}

impl PageFrame {
    /// A zero-filled frame of `size` bytes.
    pub fn zeroed(size: usize) -> PageFrame {
        PageFrame {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// A frame initialized from existing bytes.
    pub fn from_bytes(bytes: &[u8]) -> PageFrame {
        PageFrame {
            data: bytes.to_vec().into_boxed_slice(),
        }
    }

    /// A frame taking ownership of an existing backing store (the
    /// pooling path — see [`crate::BufferPool`]).
    pub fn from_boxed(data: Box<[u8]>) -> PageFrame {
        PageFrame { data }
    }

    /// Consume the frame, yielding its backing store for reuse.
    pub fn into_boxed(self) -> Box<[u8]> {
        self.data
    }

    #[inline]
    /// Size of the frame in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    /// Whether the frame holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    /// Read-only view of the frame's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    /// Mutable view of the frame's bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Overwrite the whole frame from `src` (must be the same length).
    pub fn copy_from(&mut self, src: &PageFrame) {
        assert_eq!(self.len(), src.len(), "page size mismatch");
        self.data.copy_from_slice(&src.data);
    }

    #[inline]
    fn check_aligned(&self, offset: usize, size: usize) {
        assert!(
            offset + size <= self.data.len(),
            "access at {offset}+{size} beyond page of {}",
            self.data.len()
        );
        assert!(
            offset.is_multiple_of(size),
            "misaligned {size}-byte access at offset {offset}"
        );
    }

    #[inline]
    /// Read a little-endian u64 at a naturally aligned offset.
    pub fn read_u64(&self, offset: usize) -> u64 {
        self.check_aligned(offset, 8);
        u64::from_le_bytes(self.data[offset..offset + 8].try_into().unwrap())
    }

    #[inline]
    /// Write a little-endian u64 at a naturally aligned offset.
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.check_aligned(offset, 8);
        self.data[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The `n` consecutive little-endian u64 words from the naturally
    /// aligned `offset` on: one bounds and alignment check for the run.
    #[inline]
    pub fn read_u64_run(&self, offset: usize, n: usize) -> impl Iterator<Item = u64> + '_ {
        self.check_aligned(offset, 8);
        self.data[offset..offset + 8 * n]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
    }

    /// Write `words` as consecutive little-endian u64 words from the
    /// naturally aligned `offset` on: one bounds and alignment check for
    /// the run.
    #[inline]
    pub fn write_u64_run(&mut self, offset: usize, words: impl ExactSizeIterator<Item = u64>) {
        self.check_aligned(offset, 8);
        let run = &mut self.data[offset..offset + 8 * words.len()];
        for (dst, w) in run.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }

    #[inline]
    /// Read an f64 (as stored little-endian bits).
    pub fn read_f64(&self, offset: usize) -> f64 {
        f64::from_bits(self.read_u64(offset))
    }

    #[inline]
    /// Write an f64 (as little-endian bits).
    pub fn write_f64(&mut self, offset: usize, v: f64) {
        self.write_u64(offset, v.to_bits());
    }

    #[inline]
    /// Read a little-endian u32 at a naturally aligned offset.
    pub fn read_u32(&self, offset: usize) -> u32 {
        self.check_aligned(offset, 4);
        u32::from_le_bytes(self.data[offset..offset + 4].try_into().unwrap())
    }

    #[inline]
    /// Write a little-endian u32 at a naturally aligned offset.
    pub fn write_u32(&mut self, offset: usize, v: u32) {
        self.check_aligned(offset, 4);
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

impl fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nz = self.data.iter().filter(|&&b| b != 0).count();
        write!(f, "PageFrame({} bytes, {} non-zero)", self.data.len(), nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_len() {
        let p = PageFrame::zeroed(128);
        assert_eq!(p.len(), 128);
        assert!(!p.is_empty());
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn typed_roundtrips() {
        let mut p = PageFrame::zeroed(64);
        p.write_u64(8, 0xDEAD_BEEF_0123_4567);
        assert_eq!(p.read_u64(8), 0xDEAD_BEEF_0123_4567);
        p.write_f64(16, -3.25);
        assert_eq!(p.read_f64(16), -3.25);
        p.write_u32(4, 77);
        assert_eq!(p.read_u32(4), 77);
    }

    #[test]
    fn runs_match_the_word_accessors() {
        let mut p = PageFrame::zeroed(64);
        p.write_u64_run(16, [1u64, 2, 3].into_iter());
        assert_eq!((p.read_u64(16), p.read_u64(24), p.read_u64(32)), (1, 2, 3));
        p.write_u64(40, 4);
        assert!(p.read_u64_run(24, 3).eq([2, 3, 4]));
        assert_eq!(p.read_u64_run(56, 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_run_panics() {
        PageFrame::zeroed(64).read_u64_run(4, 2).count();
    }

    #[test]
    fn from_bytes_copies() {
        let p = PageFrame::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(p.read_u64(0), u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn copy_from_replaces_contents() {
        let mut a = PageFrame::zeroed(16);
        let mut b = PageFrame::zeroed(16);
        b.write_u64(0, 42);
        a.copy_from(&b);
        assert_eq!(a.read_u64(0), 42);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_access_panics() {
        let p = PageFrame::zeroed(64);
        p.read_u64(4);
    }

    #[test]
    #[should_panic(expected = "beyond page")]
    fn out_of_bounds_panics() {
        let p = PageFrame::zeroed(8);
        p.read_u64(8);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn copy_from_size_mismatch_panics() {
        let mut a = PageFrame::zeroed(8);
        let b = PageFrame::zeroed(16);
        a.copy_from(&b);
    }
}
