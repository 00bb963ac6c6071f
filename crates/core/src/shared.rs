//! Typed views over the shared address space.
//!
//! Every element is stored as one 8-byte little-endian word, so elements
//! never straddle a page boundary and the diff granularity (4-byte
//! words) subdivides them exactly.

use std::marker::PhantomData;
use std::ops::Range;

use pagemem::{PageId, PageLayout};

/// Values storable in shared memory (8 bytes each).
pub trait SharedVal: Copy + Send + 'static {
    /// Bit representation written to the page frame.
    fn to_bits(self) -> u64;
    /// Recover the value from its bit representation.
    fn from_bits(bits: u64) -> Self;
}

impl SharedVal for u64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl SharedVal for i64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
}

impl SharedVal for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// Size of one shared element in bytes.
pub const ELEM_BYTES: usize = 8;

/// Handle to a shared array of `T`, valid on every node.
///
/// Handles are plain descriptors (base address + length); all access
/// goes through [`crate::Dsm`], which runs the coherence protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayHandle<T: SharedVal> {
    pub(crate) base: usize,
    pub(crate) len: usize,
    pub(crate) _t: PhantomData<T>,
}

impl<T: SharedVal> ArrayHandle<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `i`.
    #[inline]
    pub(crate) fn addr(&self, i: usize) -> usize {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * ELEM_BYTES
    }

    /// Elements `start..start + n`, split where they cross a page: each
    /// run's page, its byte offset there, and the run's positions
    /// within the range, in address order.
    ///
    /// # Panics
    /// Panics unless the whole range lies within the array.
    pub(crate) fn page_runs(
        &self,
        layout: PageLayout,
        start: usize,
        n: usize,
    ) -> impl Iterator<Item = (PageId, usize, Range<usize>)> {
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.len),
            "range {start}..{} out of bounds (len {})",
            start.saturating_add(n),
            self.len
        );
        let base = self.base + start * ELEM_BYTES;
        let mut i = 0;
        std::iter::from_fn(move || {
            (i < n).then(|| {
                let addr = base + i * ELEM_BYTES;
                let off = layout.offset_of(addr);
                let len = ((layout.page_size() - off) / ELEM_BYTES).min(n - i);
                let run = i..i + len;
                i = run.end;
                (layout.page_of(addr), off, run)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrips() {
        assert_eq!(f64::from_bits(SharedVal::to_bits(-2.5f64)), -2.5);
        assert_eq!(i64::from_bits(SharedVal::to_bits(-7i64)), -7);
        assert_eq!(u64::from_bits(SharedVal::to_bits(9u64)), 9);
    }

    #[test]
    fn handle_addressing() {
        let h = ArrayHandle::<f64> {
            base: 4096,
            len: 10,
            _t: PhantomData,
        };
        assert_eq!(h.addr(0), 4096);
        assert_eq!(h.addr(9), 4096 + 72);
        assert_eq!(h.len(), 10);
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn handle_bounds_checked() {
        let h = ArrayHandle::<u64> {
            base: 0,
            len: 2,
            _t: PhantomData,
        };
        h.addr(2);
    }
}
