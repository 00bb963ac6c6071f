//! # ccl-bench — paper-scale constants and the home-based-vs-homeless kernel
//!
//! What `obsv`'s `report` pipeline needs beyond the applications: the
//! paper's cluster size ([`NODES`]), where Figure 5's crash lands
//! ([`crash_point`]), and a stripe+halo kernel that runs on both the
//! home-based and the homeless LRC protocol ([`home_based`],
//! [`homeless`]) — the comparison motivating the paper's §2 (and the
//! subject of Cox et al., HPCA-5, cited there). `report` renders and
//! gates its numbers like every other table in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hlrc::{DsmConfig, HMsg, HlrcNode, HomelessNode, Msg, NoLogging};
use simnet::{run_cluster, CoherenceProtocol, NodeStats, SimTime, WireSized};

/// The paper's cluster size.
pub const NODES: usize = 8;

/// The barrier after which a node that completes `barriers` of them
/// fails, for a crash at roughly `fraction` of its run (0.75 is the
/// paper's late-crash scenario): never before the first barrier, never
/// at the last.
pub fn crash_point(barriers: u64, fraction: f64) -> u64 {
    ((barriers as f64 * fraction) as u64).clamp(1, barriers.saturating_sub(1).max(1))
}

/// The striped array: 8 pages of 4 KB.
const CELLS: usize = 64 * 64;
/// A 2-page multi-writer summary region: every node writes its own
/// slice of it each round, and every node reads all of it next round —
/// the access pattern where the home's single-round-trip update shines
/// (homeless LRC must chase diffs from every writer).
const SUMMARY_BASE: usize = CELLS * 8;
const SUMMARY_CELLS: usize = 1024;
const ROUNDS: u64 = 20;
const PAGES: u32 = 12;

/// What one protocol's run of the kernel produced.
#[derive(Debug, Clone)]
pub struct LrcRun {
    /// Each node's result, in node order: the two protocols must agree.
    pub results: Vec<u64>,
    /// Virtual execution time.
    pub exec: SimTime,
    /// Counters summed over the cluster.
    pub stats: NodeStats,
    /// Diff bytes the writers still hold at the end: home-based LRC
    /// discards a diff once its home acks it, homeless LRC keeps every
    /// one until a garbage-collection pass home-based DSM never needs.
    pub retained_diff_bytes: u64,
}

/// The shared-memory accesses the kernel makes; the engine's
/// [`CoherenceProtocol::ctx`] supplies the node id and the CPU charge.
trait Ops<M: WireSized>: CoherenceProtocol<M> {
    fn read(&mut self, addr: usize) -> u64;
    fn write(&mut self, addr: usize, v: u64);
    fn barrier(&mut self);
}

impl Ops<Msg> for HlrcNode {
    fn read(&mut self, addr: usize) -> u64 {
        self.read_u64(addr)
    }
    fn write(&mut self, addr: usize, v: u64) {
        self.write_u64(addr, v)
    }
    fn barrier(&mut self) {
        HlrcNode::barrier(self)
    }
}

impl Ops<HMsg> for HomelessNode {
    fn read(&mut self, addr: usize) -> u64 {
        self.read_u64(addr)
    }
    fn write(&mut self, addr: usize, v: u64) {
        self.write_u64(addr, v)
    }
    fn barrier(&mut self) {
        HomelessNode::barrier(self)
    }
}

/// Node `me`'s stripe of the array, as a cell range.
fn stripe(me: usize, nodes: usize) -> (usize, usize) {
    let per = CELLS / nodes;
    (me * per, (me + 1) * per)
}

/// Each round, every node updates its own stripe, reads the two
/// neighbouring stripes (periodic halo), writes its slice of the
/// summary region and reads all of it.
fn workload<M: WireSized, N: Ops<M>>(node: &mut N, nodes: usize) -> u64 {
    let me = node.ctx().id();
    let (lo, hi) = stripe(me, nodes);
    let mut acc = 0u64;
    for round in 1..=ROUNDS {
        for c in lo..hi {
            node.write(c * 8, round * 1_000 + c as u64);
        }
        node.ctx().charge_flops((hi - lo) as u64 * 4);
        node.barrier();
        let left = stripe((me + nodes - 1) % nodes, nodes).0;
        let right = stripe((me + 1) % nodes, nodes).0;
        acc = acc
            .wrapping_add(node.read(left * 8))
            .wrapping_add(node.read(right * 8));
        node.ctx().charge_flops(8);
        let per = SUMMARY_CELLS / nodes;
        for k in 0..per {
            node.write(SUMMARY_BASE + (me * per + k) * 8, round + k as u64);
        }
        node.barrier();
        for k in (0..SUMMARY_CELLS).step_by(16) {
            acc = acc.wrapping_add(node.read(SUMMARY_BASE + k * 8));
        }
        node.ctx().charge_flops(SUMMARY_CELLS as u64 / 16);
        node.barrier();
    }
    acc
}

fn summarize(outs: Vec<(u64, SimTime, NodeStats, usize)>) -> LrcRun {
    let mut stats = NodeStats::default();
    outs.iter().for_each(|o| stats.merge(&o.2));
    LrcRun {
        results: outs.iter().map(|o| o.0).collect(),
        exec: outs.iter().map(|o| o.1).max().expect("at least one node"),
        stats,
        retained_diff_bytes: outs.iter().map(|o| o.3 as u64).sum(),
    }
}

/// Run the kernel on `nodes` nodes under home-based LRC (no logging).
pub fn home_based(nodes: usize) -> LrcRun {
    let c = DsmConfig::new(nodes, PAGES);
    summarize(run_cluster(nodes, c.cost, move |ctx| {
        let mut node = HlrcNode::new(ctx, c, Box::new(NoLogging));
        let acc = workload(&mut node, nodes);
        node.barrier();
        (acc, node.inner.ctx.now(), node.inner.ctx.stats, 0)
    }))
}

/// Run the kernel on `nodes` nodes under homeless LRC.
pub fn homeless(nodes: usize) -> LrcRun {
    let c = DsmConfig::new(nodes, PAGES);
    summarize(run_cluster(nodes, c.cost, move |ctx| {
        let mut node = HomelessNode::new(ctx, c);
        let acc = workload(&mut node, nodes);
        node.barrier();
        let (_, bytes) = node.archive_footprint();
        (acc, node.ctx.now(), node.ctx.stats, bytes)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_stays_strictly_inside_the_run() {
        assert_eq!(crash_point(40, 0.75), 30);
        assert_eq!(crash_point(18, 0.75), 13);
        assert_eq!(crash_point(1, 0.75), 1);
        assert_eq!(crash_point(2, 0.99), 1);
        assert_eq!(crash_point(8, 0.0), 1);
    }
}
