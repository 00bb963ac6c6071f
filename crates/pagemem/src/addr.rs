//! Global shared address space layout.
//!
//! The DSM exposes one flat byte-addressable shared space, split into
//! fixed-size pages — the coherence unit, just as the OS page is the
//! coherence unit in the paper's TreadMarks derivative.

use std::ops::Range;

/// Identifier of one shared page.
pub type PageId = u32;

/// Page-size bookkeeping for the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    page_size: usize,
}

impl PageLayout {
    /// The paper's coherence granularity: one 4 KB OS page.
    pub const OS_4K: PageLayout = PageLayout { page_size: 4096 };

    /// Create a layout with a custom page size (power of two, >= 8).
    ///
    /// # Panics
    /// Panics if `page_size` is not a power of two or is smaller than 8
    /// (one machine word of diff granularity).
    pub fn new(page_size: usize) -> PageLayout {
        assert!(
            page_size.is_power_of_two() && page_size >= 8,
            "page size must be a power of two >= 8, got {page_size}"
        );
        PageLayout { page_size }
    }

    #[inline]
    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Page containing byte address `addr`. The page size is a power
    /// of two, so this is a shift, not a division: it runs on every
    /// shared access.
    #[inline]
    pub fn page_of(&self, addr: usize) -> PageId {
        (addr >> self.page_size.trailing_zeros()) as PageId
    }

    /// Offset of byte address `addr` within its page.
    #[inline]
    pub fn offset_of(&self, addr: usize) -> usize {
        addr & (self.page_size - 1)
    }

    /// First byte address of `page`.
    #[inline]
    pub fn base_of(&self, page: PageId) -> usize {
        page as usize * self.page_size
    }

    /// Pages overlapped by the byte range `[range.start, range.end)`.
    pub fn pages_spanning(&self, range: Range<usize>) -> Range<PageId> {
        if range.start >= range.end {
            return 0..0;
        }
        let first = self.page_of(range.start);
        let last = self.page_of(range.end - 1);
        first..last + 1
    }

    /// Number of pages needed to hold `bytes` bytes.
    pub fn pages_for(&self, bytes: usize) -> u32 {
        (bytes.div_ceil(self.page_size)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_page_layout() {
        let l = PageLayout::OS_4K;
        assert_eq!(l.page_size(), 4096);
        assert_eq!(l.page_of(0), 0);
        assert_eq!(l.page_of(4095), 0);
        assert_eq!(l.page_of(4096), 1);
        assert_eq!(l.offset_of(4097), 1);
        assert_eq!(l.base_of(2), 8192);
    }

    #[test]
    fn spanning_ranges() {
        let l = PageLayout::new(64);
        assert_eq!(l.pages_spanning(0..1), 0..1);
        assert_eq!(l.pages_spanning(0..64), 0..1);
        assert_eq!(l.pages_spanning(0..65), 0..2);
        assert_eq!(l.pages_spanning(63..129), 0..3);
        assert_eq!(l.pages_spanning(10..10), 0..0);
        assert_eq!(l.pages_spanning(128..192), 2..3);
    }

    #[test]
    fn pages_for_rounds_up() {
        let l = PageLayout::new(64);
        assert_eq!(l.pages_for(0), 0);
        assert_eq!(l.pages_for(1), 1);
        assert_eq!(l.pages_for(64), 1);
        assert_eq!(l.pages_for(65), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        PageLayout::new(100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_tiny_pages() {
        PageLayout::new(4);
    }
}
