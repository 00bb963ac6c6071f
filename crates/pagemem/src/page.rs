//! Page frames: the physical backing of one shared page on one node.

use std::fmt;

use crate::bytes::SharedBytes;

/// One page's worth of bytes, with little-endian typed accessors.
///
/// A frame is *private* — a buffer of its own — or *shared*: the
/// [`SharedBytes`] buffer the page was shipped in, held by whoever else
/// holds that buffer too (a log record, a served image, the home's
/// frame, other readers). Reads see either the same way. A shared frame
/// is never written: [`PageFrame::bytes_mut`] panics on one, and the
/// page table makes a frame private where a write is booked
/// ([`PageFrame::make_private`]), so no holder of a shared buffer ever
/// sees a write. A clone is always private.
///
/// All accesses are bounds-checked; typed accessors additionally require
/// natural alignment of the offset, mirroring what real hardware would
/// enforce on the paper's SPARC testbed.
pub struct PageFrame {
    data: Backing,
}

/// Where a frame's bytes live.
enum Backing {
    /// A buffer only this frame holds.
    Private(Box<[u8]>),
    /// A buffer this frame shares and never writes.
    Shared(SharedBytes),
}

impl PageFrame {
    /// A zero-filled frame of `size` bytes.
    pub fn zeroed(size: usize) -> PageFrame {
        PageFrame::private(vec![0u8; size].into_boxed_slice())
    }

    /// A private frame initialized from existing bytes.
    pub fn from_bytes(bytes: &[u8]) -> PageFrame {
        PageFrame::private(bytes.into())
    }

    fn private(data: Box<[u8]>) -> PageFrame {
        PageFrame {
            data: Backing::Private(data),
        }
    }

    /// A frame that is the buffer `bytes` itself, shared and read-only
    /// until it is made private.
    pub fn shared(bytes: SharedBytes) -> PageFrame {
        PageFrame {
            data: Backing::Shared(bytes),
        }
    }

    /// The buffer this frame shares, sharing it first if it is private:
    /// the frame becomes a copy of itself in a shared buffer, and its
    /// private backing store drops. How a clean home frame is served
    /// and retained — every copy of one version is its buffer.
    pub fn share(&mut self) -> SharedBytes {
        if let Some(bytes) = self.as_shared() {
            return bytes.clone();
        }
        let bytes = SharedBytes::copy_of(self.bytes());
        self.data = Backing::Shared(bytes.clone());
        bytes
    }

    /// Make this frame private, about to be written: a shared frame
    /// becomes a private copy, and the buffer it shared — which its
    /// other holders keep, unwritten — is handed back. `None` when the
    /// frame was private already.
    pub fn make_private(&mut self) -> Option<SharedBytes> {
        let bytes = self.as_shared()?.clone();
        self.data = Backing::Private(bytes.as_slice().into());
        Some(bytes)
    }

    /// The buffer this frame shares, if it is shared.
    pub fn as_shared(&self) -> Option<&SharedBytes> {
        match &self.data {
            Backing::Private(_) => None,
            Backing::Shared(bytes) => Some(bytes),
        }
    }

    /// Is this frame a shared buffer (and so not writable)?
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Backing::Shared(_))
    }

    #[inline]
    /// Size of the frame in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    #[inline]
    /// Whether the frame holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    #[inline]
    /// Read-only view of the frame's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            Backing::Private(data) => data,
            Backing::Shared(bytes) => bytes,
        }
    }

    #[inline]
    /// Mutable view of the frame's bytes.
    ///
    /// # Panics
    /// Panics if the frame is shared: its other holders must never see
    /// the write.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        match &mut self.data {
            Backing::Private(data) => data,
            Backing::Shared(_) => panic!("write to a shared page frame"),
        }
    }

    /// Overwrite the whole frame from `src` (must be the same length).
    pub fn copy_from(&mut self, src: &PageFrame) {
        assert_eq!(self.len(), src.len(), "page size mismatch");
        self.bytes_mut().copy_from_slice(src.bytes());
    }

    #[inline]
    fn check_aligned(&self, offset: usize, size: usize) {
        assert!(
            offset + size <= self.len(),
            "access at {offset}+{size} beyond page of {}",
            self.len()
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
        u64::from_le_bytes(self.bytes()[offset..offset + 8].try_into().unwrap())
    }

    #[inline]
    /// Write a little-endian u64 at a naturally aligned offset.
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.check_aligned(offset, 8);
        self.bytes_mut()[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The `n` consecutive little-endian u64 words from the naturally
    /// aligned `offset` on: one bounds and alignment check for the run.
    #[inline]
    pub fn read_u64_run(&self, offset: usize, n: usize) -> impl Iterator<Item = u64> + '_ {
        self.check_aligned(offset, 8);
        self.bytes()[offset..offset + 8 * n]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
    }

    /// Write `words` as consecutive little-endian u64 words from the
    /// naturally aligned `offset` on: one bounds and alignment check for
    /// the run.
    #[inline]
    pub fn write_u64_run(&mut self, offset: usize, words: impl ExactSizeIterator<Item = u64>) {
        self.check_aligned(offset, 8);
        let run = &mut self.bytes_mut()[offset..offset + 8 * words.len()];
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
        u32::from_le_bytes(self.bytes()[offset..offset + 4].try_into().unwrap())
    }

    #[inline]
    /// Write a little-endian u32 at a naturally aligned offset.
    pub fn write_u32(&mut self, offset: usize, v: u32) {
        self.check_aligned(offset, 4);
        self.bytes_mut()[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// A clone is a private copy, whatever the original is: writing it can
/// touch no shared buffer.
impl Clone for PageFrame {
    fn clone(&self) -> PageFrame {
        PageFrame::from_bytes(self.bytes())
    }
}

/// Frames are equal when their bytes are, shared or not.
impl PartialEq for PageFrame {
    fn eq(&self, other: &PageFrame) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for PageFrame {}

impl fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nz = self.bytes().iter().filter(|&&b| b != 0).count();
        let shared = if self.is_shared() { ", shared" } else { "" };
        write!(f, "PageFrame({} bytes, {nz} non-zero{shared})", self.len())
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
    fn a_shared_frame_reads_its_buffer_and_clones_private() {
        let buf = SharedBytes::copy_of(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        let p = PageFrame::shared(buf.clone());
        assert!(p.is_shared() && p.as_shared().unwrap().ptr_eq(&buf));
        assert_eq!((p.read_u64(0), p.read_u64(8)), (1, 2));
        let mut c = p.clone();
        assert!(!c.is_shared() && c == p);
        c.write_u64(0, 9);
        assert_eq!((buf[0], p.read_u64(0)), (1, 1));
        assert!(PageFrame::zeroed(8).as_shared().is_none());
    }

    /// Sharing a private frame turns it into a copy of itself in one
    /// shared buffer, and making it private again copies that buffer,
    /// which stays unwritten. A shared frame shares as is, and a private
    /// one stays private.
    #[test]
    fn share_and_make_private_round_trip() {
        let mut frame = PageFrame::from_bytes(&[5u8; 64]);
        let bytes = frame.share();
        assert!(frame.as_shared().is_some_and(|b| b.ptr_eq(&bytes)));
        assert!(frame.share().ptr_eq(&bytes));
        let shipped = frame.make_private().expect("was shared");
        assert!(shipped.ptr_eq(&bytes) && !frame.is_shared());
        frame.write_u64(0, 1);
        assert_eq!(&bytes[..], &[5u8; 64][..], "the shared buffer is unwritten");
        assert!(frame.make_private().is_none());
    }

    #[test]
    #[should_panic(expected = "write to a shared page frame")]
    fn writing_a_shared_frame_panics() {
        PageFrame::shared(SharedBytes::copy_of(&[0; 8])).write_u64(0, 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn copy_from_size_mismatch_panics() {
        let mut a = PageFrame::zeroed(8);
        let b = PageFrame::zeroed(16);
        a.copy_from(&b);
    }
}
