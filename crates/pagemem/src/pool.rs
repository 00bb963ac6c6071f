//! Per-node buffer pooling for the data-movement hot path.
//!
//! Private page frames, twins and diff run payloads are created and
//! dropped once per written page per interval; recycling their backing
//! stores makes steady-state intervals allocate approximately zero. A
//! copy that arrives from its home is held as the buffer it came in
//! and takes a frame from here only at its first write
//! ([`BufferPool::make_private`]), so the frames that write-invalidation
//! returns here are the ones the next write trap draws.
//! The pool is plain data owned by one node — no globals, no locks —
//! so determinism and per-node accounting are untouched. Pooling is a
//! *physical* optimization only: every reported byte count (wire, log)
//! is computed from logical sizes and never sees the pool.

use crate::bytes::SharedBytes;
use crate::page::PageFrame;

/// Most idle page frames retained per node. Sized generously above any
/// single node's per-interval twin churn; beyond this, frames drop back
/// to the allocator.
const MAX_FRAMES: usize = 256;

/// Most idle byte buffers (diff run payloads, encode scratch) retained.
const MAX_BUFS: usize = 256;

/// Allocation-recycling counters (diagnostic only; not part of any
/// reported experiment metric).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Frame requests served from the free list.
    pub frame_hits: u64,
    /// Frame requests that had to allocate.
    pub frame_misses: u64,
    /// Byte-buffer requests served from the free list.
    pub buf_hits: u64,
    /// Byte-buffer requests that had to allocate.
    pub buf_misses: u64,
}

/// A per-node free list of page-sized frames and small byte buffers.
#[derive(Debug)]
pub struct BufferPool {
    page_size: usize,
    frames: Vec<Box<[u8]>>,
    bufs: Vec<Vec<u8>>,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool recycling frames of exactly `page_size` bytes.
    pub fn new(page_size: usize) -> BufferPool {
        BufferPool {
            page_size,
            frames: Vec::new(),
            bufs: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// The frame size this pool recycles.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    fn take_backing(&mut self) -> Box<[u8]> {
        match self.frames.pop() {
            Some(b) => {
                self.stats.frame_hits += 1;
                b
            }
            None => {
                self.stats.frame_misses += 1;
                vec![0u8; self.page_size].into_boxed_slice()
            }
        }
    }

    /// A private frame initialized from `bytes`, backed by a recycled
    /// buffer when one is idle. Frames of a foreign size (never
    /// produced by this node's page table) fall back to a plain copy.
    pub fn frame_from_bytes(&mut self, bytes: &[u8]) -> PageFrame {
        if bytes.len() != self.page_size {
            return PageFrame::from_bytes(bytes);
        }
        let mut b = self.take_backing();
        b.copy_from_slice(bytes);
        PageFrame::from_boxed(b)
    }

    /// The buffer `frame` shares, sharing it first if it is private:
    /// the frame becomes a copy of itself in a shared buffer, and its
    /// private backing store comes here. How a clean home frame is
    /// served and retained — every copy of one version is its buffer.
    pub fn share(&mut self, frame: &mut PageFrame) -> SharedBytes {
        if let Some(bytes) = frame.as_shared() {
            return bytes.clone();
        }
        let bytes = SharedBytes::copy_of(frame.bytes());
        let private = std::mem::replace(frame, PageFrame::shared(bytes.clone()));
        self.recycle_frame(private);
        bytes
    }

    /// Make `frame` private, about to be written: a shared frame becomes
    /// a copy in a frame from here, and the buffer it shared — which its
    /// other holders keep, unwritten — is handed back. `None` when the
    /// frame was private already.
    pub fn make_private(&mut self, frame: &mut PageFrame) -> Option<SharedBytes> {
        let bytes = frame.as_shared()?.clone();
        *frame = self.frame_from_bytes(&bytes);
        Some(bytes)
    }

    /// Return a dead frame's backing store to the free list. Shared
    /// frames (their buffer is not this pool's), foreign sizes and
    /// overflow beyond the retention cap just drop.
    pub fn recycle_frame(&mut self, frame: PageFrame) {
        if frame.len() == self.page_size && self.frames.len() < MAX_FRAMES {
            if let Some(b) = frame.into_boxed() {
                self.frames.push(b);
            }
        }
    }

    /// An empty byte buffer with at least `capacity` spare room,
    /// recycled when possible.
    pub fn take_buf(&mut self, capacity: usize) -> Vec<u8> {
        match self.bufs.pop() {
            Some(mut b) => {
                self.stats.buf_hits += 1;
                b.clear();
                b.reserve(capacity);
                b
            }
            None => {
                self.stats.buf_misses += 1;
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a dead byte buffer to the free list. Tiny or oversized
    /// allocations are dropped rather than hoarded.
    pub fn recycle_buf(&mut self, buf: Vec<u8>) {
        let useful =
            buf.capacity() >= crate::diff::DIFF_WORD && buf.capacity() <= 2 * self.page_size;
        if useful && self.bufs.len() < MAX_BUFS {
            self.bufs.push(buf);
        }
    }

    /// Recycle every run payload of a consumed diff (typical at the
    /// home node, right after [`crate::PageDiff::apply`]).
    pub fn recycle_diff(&mut self, diff: crate::PageDiff) {
        for run in diff.runs {
            self.recycle_buf(run.data);
        }
    }

    /// Idle frames currently on the free list.
    pub fn idle_frames(&self) -> usize {
        self.frames.len()
    }

    /// Recycling counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_recycle_and_are_reused() {
        let mut pool = BufferPool::new(64);
        let a = pool.frame_from_bytes(&[7u8; 64]);
        assert_eq!(a.bytes(), &[7u8; 64]);
        assert_eq!(pool.stats().frame_misses, 1);
        pool.recycle_frame(a);
        assert_eq!(pool.idle_frames(), 1);
        let b = pool.frame_from_bytes(&[9u8; 64]);
        assert_eq!(b.bytes(), &[9u8; 64]);
        assert_eq!(pool.stats().frame_hits, 1);
        assert_eq!(pool.idle_frames(), 0);
    }

    #[test]
    fn foreign_sizes_bypass_the_pool() {
        let mut pool = BufferPool::new(64);
        let odd = pool.frame_from_bytes(&[1; 32]);
        assert_eq!(odd.len(), 32);
        pool.recycle_frame(odd);
        assert_eq!(pool.idle_frames(), 0);
        assert_eq!(pool.frame_from_bytes(&[1, 2, 3]).len(), 3);
    }

    /// Sharing a private frame gives its backing store to the pool, and
    /// making it private again draws it back: the round trip allocates
    /// one shared buffer and no frame. A shared frame shares as is, and
    /// a private one stays private.
    #[test]
    fn sharing_returns_the_backing_store_and_unsharing_draws_it() {
        let mut pool = BufferPool::new(64);
        let mut frame = PageFrame::from_bytes(&[5u8; 64]);
        let bytes = pool.share(&mut frame);
        assert!(frame.as_shared().is_some_and(|b| b.ptr_eq(&bytes)));
        assert!(pool.share(&mut frame).ptr_eq(&bytes));
        assert_eq!(pool.idle_frames(), 1);
        let shipped = pool.make_private(&mut frame).expect("was shared");
        assert!(shipped.ptr_eq(&bytes) && !frame.is_shared());
        assert_eq!((pool.idle_frames(), pool.stats().frame_hits), (0, 1));
        frame.write_u64(0, 1);
        assert_eq!(&bytes[..], &[5u8; 64][..], "the shared buffer is unwritten");
        assert!(pool.make_private(&mut frame).is_none());
        pool.recycle_frame(PageFrame::shared(bytes));
        assert_eq!(pool.idle_frames(), 0, "a shared buffer is not the pool's");
    }

    #[test]
    fn bufs_recycle_with_capacity_kept() {
        let mut pool = BufferPool::new(64);
        let mut b = pool.take_buf(16);
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        pool.recycle_buf(b);
        let b2 = pool.take_buf(4);
        assert!(b2.is_empty());
        assert!(b2.capacity() >= cap.min(4));
        assert_eq!(pool.stats().buf_hits, 1);
    }

    #[test]
    fn oversized_bufs_are_dropped() {
        let mut pool = BufferPool::new(8);
        pool.recycle_buf(Vec::with_capacity(1024));
        assert!(pool.take_buf(1).capacity() < 1024);
    }
}
