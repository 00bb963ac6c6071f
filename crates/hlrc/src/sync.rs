//! Synchronization-manager state: locks and the global barrier.
//!
//! Each lock has a statically assigned manager node (TreadMarks style);
//! the barrier manager is node 0. Managers service requests inside
//! their asynchronous message handler.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use pagemem::VClock;
use simnet::{NodeId, SimTime};

use crate::msg::{EpochRelease, WriteNotice};

/// A notice list merged without duplicates: the first occurrence of
/// each notice keeps its place, later ones are dropped. A set index
/// beside the list makes a merge linear in what it adds; the list is
/// exactly the one a `Vec::contains` scan would build.
#[derive(Debug, Default)]
pub struct NoticeUnion {
    list: Vec<WriteNotice>,
    index: HashSet<WriteNotice>,
}

impl NoticeUnion {
    /// Append each notice not already present, in the given order.
    pub fn merge<'a>(&mut self, notices: impl IntoIterator<Item = &'a WriteNotice>) {
        for n in notices {
            if self.index.insert(*n) {
                self.list.push(*n);
            }
        }
    }

    /// The merged notices, in first-occurrence order.
    pub fn as_slice(&self) -> &[WriteNotice] {
        &self.list
    }

    /// Move the merged list out, leaving the union empty.
    pub fn take(&mut self) -> Vec<WriteNotice> {
        self.index.clear();
        std::mem::take(&mut self.list)
    }
}

/// A queued lock request.
#[derive(Debug, Clone)]
pub struct PendingAcquire {
    /// Requesting node.
    pub node: NodeId,
    /// Requester's vector clock (for notice filtering at grant time).
    pub vc: VClock,
    /// Virtual arrival time of the request at the manager.
    pub arrive: SimTime,
}

/// Manager-side state of one lock.
#[derive(Debug)]
pub struct LockState {
    /// Currently granted to someone?
    pub held: bool,
    /// Virtual time at which the last release was processed.
    pub last_release: SimTime,
    /// The lock's timestamp: joined clocks of every releaser so far.
    pub vc: VClock,
    /// Notices carried along the lock's release chain.
    pub notices: NoticeUnion,
    /// FIFO of waiting acquirers.
    pub queue: VecDeque<PendingAcquire>,
    /// The most recent grantee, if any grant has happened — the node a
    /// later acquirer's wait is blamed on (`TraceKind::LockGranted`'s
    /// `holder`).
    pub last_granted: Option<NodeId>,
}

impl LockState {
    fn new(n_nodes: usize) -> LockState {
        LockState {
            held: false,
            last_release: SimTime::ZERO,
            vc: VClock::new(n_nodes),
            notices: NoticeUnion::default(),
            queue: VecDeque::new(),
            last_granted: None,
        }
    }

    /// Record that the manager granted this lock to `to`, returning the
    /// previous grantee for blame (`to` itself on a fresh, uncontended
    /// lock: self-blame encodes "nobody made you wait").
    pub fn record_grant(&mut self, to: NodeId) -> NodeId {
        let holder = self.last_granted.unwrap_or(to);
        self.last_granted = Some(to);
        holder
    }

    /// Notices the acquirer (with clock `vc`) has not yet seen.
    pub fn notices_for(&self, vc: &VClock) -> Vec<WriteNotice> {
        self.notices
            .as_slice()
            .iter()
            .filter(|n| !vc.covers(n.interval))
            .copied()
            .collect()
    }

    /// Record a release: merge the releaser's clock and fresh notices.
    pub fn record_release(&mut self, vc: &VClock, notices: &[WriteNotice], at: SimTime) {
        self.vc.join(vc);
        self.notices.merge(notices);
        self.held = false;
        self.last_release = self.last_release.max(at);
    }
}

/// The set of locks this node manages (created lazily).
#[derive(Debug)]
pub struct LockTable {
    locks: HashMap<u32, LockState>,
    n_nodes: usize,
}

impl LockTable {
    /// Empty table for an `n_nodes` cluster.
    pub fn new(n_nodes: usize) -> LockTable {
        LockTable {
            locks: HashMap::new(),
            n_nodes,
        }
    }

    /// State of `lock`, created free on first touch.
    pub fn state_mut(&mut self, lock: u32) -> &mut LockState {
        let n = self.n_nodes;
        self.locks.entry(lock).or_insert_with(|| LockState::new(n))
    }
}

/// Barrier-manager state for the current episode.
#[derive(Debug)]
pub struct BarrierMgr {
    n_nodes: usize,
    /// Which nodes have arrived this episode.
    arrived: Vec<bool>,
    arrived_count: usize,
    /// Latest virtual arrival time across all arrivals.
    pub latest_arrival: SimTime,
    /// Earliest virtual arrival time this episode (for the
    /// first-to-last arrival spread in `TraceKind::BarrierReleased`).
    pub earliest_arrival: SimTime,
    /// The node whose arrival set `latest_arrival` — the straggler the
    /// other nodes' barrier wait is blamed on. Ties go to the later
    /// arrival call; arrivals are consumed in deterministic virtual-time
    /// order, so the choice is reproducible.
    pub straggler: NodeId,
    /// Join of all arrivals' clocks.
    pub merged_vc: VClock,
    /// Union of all arrivals' notices, in arrival order.
    pub merged_notices: NoticeUnion,
    /// Snapshot of every completed episode's release, by epoch. A node
    /// re-executing after a degraded recovery (no usable log)
    /// re-arrives at epochs the cluster already finished; the manager
    /// answers those from this history instead of gathering. (A map,
    /// not a dense vector: a recovering manager replays barriers
    /// without re-recording them, leaving gaps.) `Arc`-shared so the
    /// history and every broadcast release alias one snapshot.
    released: HashMap<u32, SharedRelease>,
}

/// One completed episode's release, `Arc`-shared between the manager's
/// history and every broadcast envelope: merged clock, merged notices.
type SharedRelease = (Arc<VClock>, Arc<[WriteNotice]>);

impl BarrierMgr {
    /// Fresh manager state for an `n`-node cluster.
    pub fn new(n_nodes: usize) -> BarrierMgr {
        BarrierMgr {
            n_nodes,
            arrived: vec![false; n_nodes],
            arrived_count: 0,
            latest_arrival: SimTime::ZERO,
            earliest_arrival: SimTime::ZERO,
            straggler: 0,
            merged_vc: VClock::new(n_nodes),
            merged_notices: NoticeUnion::default(),
            released: HashMap::new(),
        }
    }

    /// Record a completed episode's release so stale re-arrivals can be
    /// answered later. Called by the manager right before `reset`.
    pub fn record_released(&mut self, epoch: u32, vc: Arc<VClock>, notices: Arc<[WriteNotice]>) {
        self.released.insert(epoch, (vc, notices));
    }

    /// The stored release for `epoch`, if that episode already
    /// completed (a stale re-arrival must be re-released, not
    /// gathered). Cloning the returned `Arc`s into a re-sent
    /// [`crate::Msg::BarrierRelease`] is free.
    pub fn past_release(&self, epoch: u32) -> Option<(&Arc<VClock>, &Arc<[WriteNotice]>)> {
        self.released.get(&epoch).map(|(vc, n)| (vc, n))
    }

    /// Every retained release in ascending epoch order, for a
    /// [`crate::Msg::ReleaseHistoryReply`]. A recovering home replays
    /// this history to find updates its damaged log lost.
    pub fn release_history(&self) -> Vec<EpochRelease> {
        let mut v: Vec<_> = self
            .released
            .iter()
            .map(|(e, (vc, n))| (*e, (**vc).clone(), n.to_vec(), Vec::new()))
            .collect();
        v.sort_unstable_by_key(|(e, ..)| *e);
        v
    }

    /// Every retained notice of `node`'s own intervals, in ascending
    /// epoch order and each release's merge order: what that node wrote,
    /// as its barrier arrivals reported it.
    pub fn notices_of(&self, node: u32) -> Vec<WriteNotice> {
        let mut epochs: Vec<_> = self.released.iter().collect();
        epochs.sort_unstable_by_key(|(e, _)| **e);
        let notices = epochs.into_iter().flat_map(|(_, (_, n))| n.iter());
        notices
            .filter(|n| n.interval.node == node)
            .copied()
            .collect()
    }

    /// Record one node's arrival. Returns true when everyone is in.
    pub fn arrive(
        &mut self,
        node: NodeId,
        vc: &VClock,
        notices: &[WriteNotice],
        at: SimTime,
    ) -> bool {
        assert!(!self.arrived[node], "node {node} arrived twice at barrier");
        self.arrived[node] = true;
        self.arrived_count += 1;
        if self.arrived_count == 1 {
            self.earliest_arrival = at;
        } else {
            self.earliest_arrival = self.earliest_arrival.min(at);
        }
        if at >= self.latest_arrival {
            self.straggler = node;
        }
        self.latest_arrival = self.latest_arrival.max(at);
        self.merged_vc.join(vc);
        self.merged_notices.merge(notices);
        self.arrived_count == self.n_nodes
    }

    /// Reset for the next episode.
    pub fn reset(&mut self) {
        self.arrived.iter_mut().for_each(|a| *a = false);
        self.arrived_count = 0;
        self.latest_arrival = SimTime::ZERO;
        self.earliest_arrival = SimTime::ZERO;
        self.straggler = 0;
        self.merged_notices.take();
        // merged_vc persists monotonically across episodes.
    }

    /// How many have arrived so far.
    pub fn arrived_count(&self) -> usize {
        self.arrived_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagemem::IntervalId;

    fn notice(page: u32, node: u32, seq: u32) -> WriteNotice {
        WriteNotice {
            page,
            interval: IntervalId { node, seq },
        }
    }

    #[test]
    fn lock_release_chain_accumulates_notices() {
        let mut t = LockTable::new(4);
        let st = t.state_mut(3);
        let mut vc1 = VClock::new(4);
        vc1.observe(IntervalId { node: 1, seq: 0 });
        st.record_release(&vc1, &[notice(9, 1, 0)], SimTime(100));
        assert!(!st.held);
        assert_eq!(st.last_release, SimTime(100));

        // An acquirer that saw nothing gets the notice.
        let fresh = VClock::new(4);
        assert_eq!(st.notices_for(&fresh), vec![notice(9, 1, 0)]);
        // One that already covers it does not.
        assert!(st.notices_for(&vc1).is_empty());
    }

    #[test]
    fn duplicate_notices_not_stored_twice() {
        let mut t = LockTable::new(2);
        let st = t.state_mut(0);
        let vc = VClock::new(2);
        st.record_release(&vc, &[notice(1, 0, 0), notice(1, 0, 0)], SimTime(1));
        st.record_release(&vc, &[notice(1, 0, 0)], SimTime(2));
        assert_eq!(st.notices.as_slice(), &[notice(1, 0, 0)]);
    }

    #[test]
    fn barrier_completes_when_all_arrive() {
        let mut b = BarrierMgr::new(3);
        let vc = VClock::new(3);
        assert!(!b.arrive(0, &vc, &[notice(4, 0, 0)], SimTime(10)));
        assert!(!b.arrive(2, &vc, &[], SimTime(30)));
        assert!(b.arrive(1, &vc, &[notice(4, 0, 0), notice(5, 1, 0)], SimTime(20)));
        assert_eq!(b.latest_arrival, SimTime(30));
        assert_eq!(
            b.merged_notices.as_slice(),
            &[notice(4, 0, 0), notice(5, 1, 0)]
        );
        assert_eq!(b.arrived_count(), 3);
    }

    #[test]
    fn barrier_reset_clears_arrivals_keeps_vc() {
        let mut b = BarrierMgr::new(2);
        let mut vc = VClock::new(2);
        vc.observe(IntervalId { node: 0, seq: 4 });
        b.arrive(0, &vc, &[], SimTime(5));
        b.arrive(1, &vc, &[notice(0, 0, 4)], SimTime(6));
        b.reset();
        assert_eq!(b.arrived_count(), 0);
        assert!(b.merged_notices.as_slice().is_empty());
        assert_eq!(b.merged_vc.get(0), 5, "vc is monotone across episodes");
    }

    #[test]
    fn past_releases_are_replayable() {
        let mut b = BarrierMgr::new(2);
        let mut vc = VClock::new(2);
        vc.observe(IntervalId { node: 1, seq: 0 });
        assert!(b.past_release(0).is_none());
        b.record_released(0, Arc::new(vc.clone()), vec![notice(3, 1, 0)].into());
        let (rvc, rn) = b.past_release(0).expect("epoch 0 released");
        assert_eq!(rvc.get(1), 1);
        assert_eq!(&rn[..], &[notice(3, 1, 0)]);
        assert!(b.past_release(1).is_none());
    }

    #[test]
    fn a_nodes_own_notices_come_back_in_epoch_order() {
        let mut b = BarrierMgr::new(2);
        let vc = Arc::new(VClock::new(2));
        let release =
            |notices: Vec<WriteNotice>| -> SharedRelease { (Arc::clone(&vc), notices.into()) };
        let (vc2, n2) = release(vec![notice(9, 1, 2), notice(4, 0, 5), notice(8, 1, 2)]);
        b.record_released(2, vc2, n2);
        let (vc0, n0) = release(vec![notice(1, 1, 0)]);
        b.record_released(0, vc0, n0);
        assert_eq!(
            b.notices_of(1),
            vec![notice(1, 1, 0), notice(9, 1, 2), notice(8, 1, 2)]
        );
        assert_eq!(b.notices_of(0), vec![notice(4, 0, 5)]);
        assert!(
            BarrierMgr::new(2).notices_of(1).is_empty(),
            "a wiped history"
        );
    }

    #[test]
    fn grant_blames_the_previous_grantee() {
        let mut t = LockTable::new(4);
        let st = t.state_mut(7);
        // Fresh lock: nobody to blame but yourself.
        assert_eq!(st.record_grant(2), 2);
        // Next grant is blamed on the node that held it.
        assert_eq!(st.record_grant(3), 2);
        assert_eq!(st.record_grant(3), 3, "re-acquire blames self");
    }

    #[test]
    fn barrier_tracks_straggler_and_spread() {
        let mut b = BarrierMgr::new(3);
        let vc = VClock::new(3);
        b.arrive(1, &vc, &[], SimTime(40));
        b.arrive(0, &vc, &[], SimTime(10));
        b.arrive(2, &vc, &[], SimTime(40)); // tie: later arrival wins
        assert_eq!(b.straggler, 2);
        assert_eq!(b.earliest_arrival, SimTime(10));
        assert_eq!(b.latest_arrival, SimTime(40));
        b.reset();
        assert_eq!(b.straggler, 0);
        assert_eq!(b.earliest_arrival, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut b = BarrierMgr::new(2);
        let vc = VClock::new(2);
        b.arrive(0, &vc, &[], SimTime(1));
        b.arrive(0, &vc, &[], SimTime(2));
    }
}
