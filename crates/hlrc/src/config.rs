//! DSM cluster configuration.

use pagemem::{PageId, PageLayout};
use simnet::NodeId;

/// Static configuration of one DSM cluster run.
#[derive(Debug, Clone, Copy)]
pub struct DsmConfig {
    /// Number of processes (the paper uses 8).
    pub n_nodes: usize,
    /// Coherence granularity.
    pub layout: PageLayout,
    /// Size of the shared address space, in pages.
    pub n_pages: u32,
}

impl DsmConfig {
    /// A paper-like default: 8 nodes, 4 KB pages, block-distributed homes.
    pub fn new(n_nodes: usize, n_pages: u32) -> DsmConfig {
        DsmConfig {
            n_nodes,
            layout: PageLayout::OS_4K,
            n_pages,
        }
    }

    /// Override the page size (tests use small pages).
    pub fn with_page_size(mut self, bytes: usize) -> DsmConfig {
        self.layout = PageLayout::new(bytes);
        self
    }

    /// Home node of page `p` before any allocation says otherwise:
    /// contiguous blocks of pages per node, matching how the paper's
    /// regular grid applications distribute their data. Applications
    /// choose homes per allocation (`alloc_blocked` / `alloc_at` in
    /// `ccl-core`), so this is only the layout of unallocated space.
    pub fn home_of(&self, p: PageId) -> NodeId {
        debug_assert!(p < self.n_pages, "page {p} out of range");
        let per = (self.n_pages as usize).div_ceil(self.n_nodes);
        (p as usize / per).min(self.n_nodes - 1)
    }

    /// Manager node of lock `l` (static assignment, as in TreadMarks).
    pub fn lock_manager(&self, l: u32) -> NodeId {
        l as usize % self.n_nodes
    }

    /// The barrier manager (node 0, as in TreadMarks).
    pub fn barrier_manager(&self) -> NodeId {
        0
    }

    /// Total shared bytes.
    pub fn shared_bytes(&self) -> usize {
        self.n_pages as usize * self.layout.page_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_homes_are_contiguous_and_cover_all_nodes() {
        let cfg = DsmConfig::new(4, 16);
        let homes: Vec<_> = (0..16).map(|p| cfg.home_of(p)).collect();
        assert_eq!(homes[0], 0);
        assert_eq!(homes[3], 0);
        assert_eq!(homes[4], 1);
        assert_eq!(homes[15], 3);
        // non-decreasing
        assert!(homes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn block_homes_clamp_with_uneven_division() {
        let cfg = DsmConfig::new(3, 10);
        // per = ceil(10/3) = 4 -> pages 0..4 at 0, 4..8 at 1, 8..10 at 2
        assert_eq!(cfg.home_of(0), 0);
        assert_eq!(cfg.home_of(7), 1);
        assert_eq!(cfg.home_of(9), 2);
    }

    #[test]
    fn managers() {
        let cfg = DsmConfig::new(4, 8);
        assert_eq!(cfg.lock_manager(0), 0);
        assert_eq!(cfg.lock_manager(6), 2);
        assert_eq!(cfg.barrier_manager(), 0);
    }

    #[test]
    fn shared_bytes() {
        let cfg = DsmConfig::new(2, 8).with_page_size(256);
        assert_eq!(cfg.shared_bytes(), 2048);
    }
}
