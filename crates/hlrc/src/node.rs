//! The HLRC protocol driver: one instance runs on each cluster node.
//!
//! [`NodeInner`] holds the node's protocol state (page table, vector
//! clock, manager roles); [`HlrcNode`] couples it with a pluggable
//! [`FaultTolerance`] implementation and drives the home-based lazy
//! release consistency protocol of Zhou et al. (OSDI'96), which the
//! paper's modified TreadMarks implements:
//!
//! * shared pages have fixed homes; writers collect modifications via
//!   twins and flush diffs to the home at each release/barrier;
//! * write-invalidation notices piggyback on lock grants and barrier
//!   releases; remote copies are invalidated on receipt;
//! * a page fault on an invalid copy is served by a single round trip
//!   to the home.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use pagemem::Encode;
use pagemem::{Access, Fault, IntervalId, PageDiff, PageId, PageState, Twin, VClock};
use simnet::{Envelope, NodeCtx, NodeId, SimDuration, SimTime, TraceKind};

use crate::config::DsmConfig;
use crate::fault_tolerance::{FaultTolerance, RecoveryStep, SyncKind};
use crate::fetch::PrefetchState;
use crate::msg::{EpochRelease, Msg, RecoveryImage, WriteNotice};
use crate::page_table::PageTable;
use crate::sync::{BarrierMgr, LockTable, NoticeUnion, PendingAcquire};

/// The pages an interval dirtied, each with the twin it had open.
pub type OpenTwins = Vec<(PageId, Option<Twin>)>;

/// Protocol state of one DSM node, independent of the fault-tolerance
/// layer (which receives `&mut NodeInner` in its hooks).
pub struct NodeInner {
    /// The node's machine: clock, network endpoint, disk, stats.
    pub ctx: NodeCtx<Msg>,
    /// Cluster configuration.
    pub cfg: DsmConfig,
    /// This node's view of every shared page.
    pub pages: PageTable,
    /// Intervals whose updates are visible here.
    pub vc: VClock,
    /// Sequence number of this node's next interval.
    pub next_interval: u32,
    /// Write notices known since the last barrier (own and learned).
    pub history: Vec<WriteNotice>,
    /// The merged clock of the last completed barrier.
    pub last_barrier_vc: VClock,
    /// Locks this node manages.
    pub locks: LockTable,
    /// Barrier-manager state (node 0 only).
    pub barrier_mgr: Option<BarrierMgr>,
    /// For locks currently held: the lock's clock at grant time
    /// (release sends only notices the manager cannot already know).
    /// Holds the grant message's `Arc` directly — no copy.
    pub lock_grant_vcs: HashMap<u32, Arc<VClock>>,
    /// This node's next barrier episode.
    pub barrier_epoch: u32,
    /// Synchronization operations entered so far. Only the prefetch
    /// staleness stamp reads it: a trailing prediction batch issued at
    /// another count crossed a synchronization operation and is dropped
    /// (see [`PrefetchState`]).
    pub sync_events: u64,
    /// Deterministic fetch-prediction state (see [`PrefetchState`]).
    pub prefetch: PrefetchState,
    /// Inside a live `barrier()`: this episode is entered
    /// (`barrier_epoch` already counts it) but its release is not yet
    /// consumed.
    in_barrier: bool,
    /// Requests this node may not consume yet, in arrival order: lock
    /// requests from an epoch this node has not reached (see
    /// [`NodeInner::completed_barriers`]).
    stalled_requests: Vec<Envelope<Msg>>,
    /// Recovery fetches that wait for this node's own replay to
    /// re-reach a write they cover (see
    /// [`PageTable::awaits_rebuild`]), in arrival order. Empty whenever
    /// this node is live, so at every crash point.
    parked_fetches: Vec<Envelope<Msg>>,
}

impl NodeInner {
    /// Build the protocol state for the node owning `ctx`.
    #[inline(always)]
    pub fn new(ctx: NodeCtx<Msg>, cfg: DsmConfig) -> NodeInner {
        let pages = PageTable::new(&cfg, ctx.id());
        NodeInner::with_pages(ctx, cfg, pages)
    }

    /// Simulate a crash of this node, and build the protocol state it
    /// restarts with, as [`NodeInner::new`] builds it, from what a crash
    /// keeps (DESIGN.md §13, "What a crash keeps"). What recovery needs
    /// of the past it reads back from the disk.
    pub fn restart(self) -> NodeInner {
        let (mut ctx, cfg, homes) = self.into_kept();
        ctx.mark_crashed();
        let pages = PageTable::restarted(&cfg, ctx.id(), homes);
        NodeInner::with_pages(ctx, cfg, pages)
    }

    /// What a crash keeps of this node: the machine (clock, disk,
    /// endpoint, stats, trace) with the requests peers sent that this
    /// node had not consumed yet deferred there (the senders' only
    /// copy), the configuration and the page→home map. The rest is
    /// dropped on return, before anything is rebuilt.
    fn into_kept(mut self) -> (NodeCtx<Msg>, DsmConfig, Vec<NodeId>) {
        // Parked fetches wait for a replay, and a crash fires only once
        // replay is over.
        debug_assert!(
            self.parked_fetches.is_empty(),
            "crashed with recovery fetches parked"
        );
        for env in std::mem::take(&mut self.stalled_requests) {
            self.ctx.defer(env);
        }
        (self.ctx, self.cfg, self.pages.home_map())
    }

    /// The protocol state of a node that knows nothing but `pages`.
    /// Inlined, like the constructors that call it: a node is some 6 KB,
    /// and every by-value hop at construction would deepen the peak
    /// stack of every node thread by a copy of it.
    #[inline(always)]
    fn with_pages(ctx: NodeCtx<Msg>, cfg: DsmConfig, pages: PageTable) -> NodeInner {
        let me = ctx.id();
        let n = cfg.n_nodes;
        assert_eq!(ctx.n_nodes(), n, "cluster size mismatch");
        NodeInner {
            pages,
            vc: VClock::new(n),
            next_interval: 0,
            history: Vec::new(),
            last_barrier_vc: VClock::new(n),
            locks: LockTable::new(n),
            barrier_mgr: (me == cfg.barrier_manager()).then(|| BarrierMgr::new(n)),
            lock_grant_vcs: HashMap::new(),
            barrier_epoch: 0,
            sync_events: 0,
            prefetch: PrefetchState::default(),
            in_barrier: false,
            stalled_requests: Vec::new(),
            parked_fetches: Vec::new(),
            cfg,
            ctx,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.ctx.id()
    }

    /// Barriers this node has left — the epoch its lock requests carry
    /// and the epoch up to which it consumes others'. The epoch fence: a
    /// node consumes no lock request from epoch `e + 1` before it has
    /// left barrier `e`, so a crash right after a barrier wipes a lock
    /// table in which every lock is free and every queue empty.
    pub fn completed_barriers(&self) -> u32 {
        self.barrier_epoch - u32::from(self.in_barrier)
    }

    /// The interval id this node's *current* (open) interval will get.
    pub fn current_interval(&self) -> IntervalId {
        IntervalId {
            node: self.me() as u32,
            seq: self.next_interval,
        }
    }

    /// Admit the notices of one synchronization message, live or
    /// replayed: keep those naming an interval this node has not seen,
    /// observe them, extend the notice history, and join the
    /// piggybacked clock. Returns the fresh notices in order; what to
    /// do to the pages they name (invalidate, patch) is the caller's.
    ///
    /// Freshness is judged against the clock as it stood *before* the
    /// batch: several notices share one interval (one per page written
    /// in it), and observing the interval at the first one must not
    /// mask its siblings.
    pub fn admit_notices(&mut self, notices: &[WriteNotice], vc_in: &VClock) -> Vec<WriteNotice> {
        let (fresh, vc) = self.notices_admitted(notices, vc_in);
        self.history.extend_from_slice(&fresh);
        self.vc = vc;
        fresh
    }

    /// What [`NodeInner::admit_notices`] would admit now, and the clock
    /// it would leave, without admitting anything.
    pub fn notices_admitted(
        &self,
        notices: &[WriteNotice],
        vc_in: &VClock,
    ) -> (Vec<WriteNotice>, VClock) {
        let mut fresh = NoticeUnion::default();
        fresh.merge(notices.iter().filter(|n| !self.vc.covers(n.interval)));
        let mut vc = self.vc.clone();
        for n in fresh.as_slice() {
            vc.observe(n.interval);
        }
        vc.join(vc_in);
        (fresh.take(), vc)
    }

    /// A barrier episode is complete, live or replayed: its merged
    /// clock becomes the horizon the next arrival reports against, and
    /// the notices it covers leave the history.
    pub fn close_barrier_epoch(&mut self) {
        self.last_barrier_vc = self.vc.clone();
        self.history
            .retain(|n| !self.last_barrier_vc.covers(n.interval));
    }

    /// Book one synchronization operation replay reproduced from its
    /// log, whatever the log: admit the logged notices and clock
    /// ([`NodeInner::admit_notices`]) and, for a barrier, close the
    /// episode and count it — before the node can go live, since the
    /// deferred lock requests it then services are fenced by epoch.
    /// Returns the fresh notices; what to do to the pages they name is
    /// the logging layer's. A replayed acquire's grant clock is not
    /// set here: only a log that holds the lock's clock can restore
    /// it, and the node's own merged clock in its place would make the
    /// next release drop notices the lock's chain has not seen.
    pub fn replay_sync(
        &mut self,
        kind: SyncKind,
        notices: &[WriteNotice],
        vc: &VClock,
    ) -> Vec<WriteNotice> {
        let fresh = self.admit_notices(notices, vc);
        if let SyncKind::Barrier(_) = kind {
            self.close_barrier_epoch();
            self.barrier_epoch += 1;
        }
        fresh
    }

    /// Snapshot the resident frame of `page` as the twin its
    /// end-of-interval diff will be taken against, making the frame
    /// private: a shared frame's buffer becomes the twin
    /// ([`Twin::before_write`]).
    fn open_twin(&mut self, page: PageId) {
        self.ctx.charge_copy(self.pages.page_size());
        self.ctx.stats.twins_created += 1;
        let e = self.pages.entry_mut(page);
        let frame = e.frame.as_mut().expect("twin of a page without a frame");
        e.twin = Some(Twin::before_write(frame));
    }

    /// The frame of home page `page` is about to change, and turns
    /// private ([`PageTable::before_home_write`]). A home that is
    /// rebuilding its served logs keeps the image it leaves behind — a
    /// page copy the live path never pays (there the image is the reply
    /// buffer), charged here.
    fn retain_before_home_write(&mut self, page: PageId) {
        if self.pages.before_home_write(page) {
            self.ctx.charge_copy(self.pages.page_size());
        }
    }

    /// Apply `writer`'s diff to its home copy here, live or replayed
    /// (see [`PageTable::apply_home_diff`]).
    pub fn apply_home_diff(&mut self, diff: &PageDiff, writer: IntervalId) {
        self.retain_before_home_write(diff.page);
        self.pages.apply_home_diff(diff, writer);
    }

    /// Close the open interval's books, if anything was written in it:
    /// number it, name it in the clock and in one notice per dirtied
    /// page, advance the version of the home pages among them and
    /// write-protect them all. Returns the interval and its
    /// [`OpenTwins`]. A live interval end diffs against those twins;
    /// replay drops them — the diffs the interval originally flushed
    /// are already part of the surviving homes' state, so only the
    /// bookkeeping advances.
    pub fn close_interval(&mut self) -> Option<(IntervalId, OpenTwins)> {
        let dirty = self.pages.dirty_pages();
        if dirty.is_empty() {
            return None;
        }
        let iv = self.current_interval();
        self.next_interval += 1;
        self.vc.observe(iv);
        let me = self.me();
        let mut twins = Vec::with_capacity(dirty.len());
        for page in dirty {
            self.history.push(WriteNotice { page, interval: iv });
            let e = self.pages.entry_mut(page);
            e.dirty = false;
            // Write detection re-arms: a home page is write-protected
            // again too, once replay opened it.
            e.state = PageState::ReadOnly;
            twins.push((page, e.twin.take()));
            if e.home == me {
                self.pages.note_home_write(page, iv);
            }
        }
        Some((iv, twins))
    }
}

/// A DSM node: HLRC coherence plus a pluggable fault-tolerance layer.
pub struct HlrcNode {
    /// Protocol state.
    pub inner: NodeInner,
    /// Logging/recovery protocol (None / ML / CCL).
    pub ft: Box<dyn FaultTolerance>,
}

impl HlrcNode {
    /// Create the node with the given fault-tolerance protocol.
    #[inline(always)]
    pub fn new(ctx: NodeCtx<Msg>, cfg: DsmConfig, ft: Box<dyn FaultTolerance>) -> HlrcNode {
        HlrcNode::with_inner(NodeInner::new(ctx, cfg), ft)
    }

    /// Couple freshly built protocol state with `ft` (inlined for the
    /// reason [`NodeInner::with_pages`] is).
    #[inline(always)]
    fn with_inner(mut inner: NodeInner, ft: Box<dyn FaultTolerance>) -> HlrcNode {
        inner.pages.keep_served_copies(ft.served_copies());
        HlrcNode { inner, ft }
    }

    // ---------------------------------------------------------------
    // Data access
    // ---------------------------------------------------------------

    /// Make `page` accessible with `access`, running the fault handler
    /// if the protection state requires it. This is the software stand-in
    /// for the mprotect/SIGSEGV trap (see DESIGN.md §10): an access the
    /// handler would leave unchanged
    /// ([`PageTable::access_changes_nothing`]) returns before it, as an
    /// MMU passes a permitted access without a trap.
    #[inline]
    pub fn ensure_access(&mut self, page: PageId, access: Access) {
        if !self.inner.pages.access_changes_nothing(page, access) {
            self.fault_handler(page, access);
        }
    }

    /// The body of [`HlrcNode::ensure_access`] for an access that may
    /// trap, fetch or book a write. It charges only where it traps.
    fn fault_handler(&mut self, page: PageId, access: Access) {
        let me_home = self.inner.pages.is_home(page);
        if me_home {
            // Home copies never miss; the first write of an interval
            // takes a cheap write-detection trap to produce a notice —
            // unless replay opened the page for the write its barrier
            // manager's history names (`PageTable::open_logged_write`):
            // then that write books it. A trap taken in replay goes to
            // the logging layer, which may learn of the pages to open.
            let e = self.inner.pages.entry(page);
            if access == Access::Write && !e.dirty {
                if e.state != PageState::Writable {
                    self.trap(Fault::WriteUpgrade, page);
                    self.replayed(|ft, inner| ft.recovery_fault(inner, page));
                }
                self.inner.retain_before_home_write(page);
                self.inner.pages.entry_mut(page).dirty = true;
            }
            return;
        }
        let inner = &mut self.inner;
        if let Some((data, version)) = inner.pages.take_predicted(page) {
            // First touch of a predicted copy: the fetch round trip this
            // access would have paid was hidden entirely. Its home is
            // told with the next request that goes there anyway, and
            // the logging layer now, with the reply the copy arrived as
            // — where a demand fetch would have handed it over.
            let home = inner.pages.entry(page).home;
            inner.prefetch.note_hit(home, page);
            inner.ctx.stats.prefetch_hits += 1;
            inner.ctx.trace(TraceKind::PrefetchHit { page });
            let reply = Msg::PageReply {
                page,
                data,
                version,
            };
            self.ft.on_incoming(&mut self.inner, &reply);
        }
        let state = self.inner.pages.entry(page).state;
        match state.fault_for(access) {
            // A copy replay opened for the write its log names
            // (`PageTable::open_logged_write`) is booked at that write,
            // and turns private there, as a trapped write's does.
            None if access == Access::Write => {
                let e = self.inner.pages.entry_mut(page);
                e.frame.as_mut().expect("opened page").make_private();
                e.dirty = true;
            }
            None => {}
            Some(fault) => {
                self.trap(fault, page);
                if matches!(fault, Fault::ReadMiss | Fault::WriteMiss)
                    && !self.replayed(|ft, inner| ft.recovery_fault(inner, page))
                {
                    self.fetch_page(page);
                }
                if access == Access::Write {
                    // Upgrade: snapshot a twin and open write collection.
                    self.inner.open_twin(page);
                    let e = self.inner.pages.entry_mut(page);
                    e.dirty = true;
                    e.state = PageState::Writable;
                }
            }
        }
    }

    /// Take the page-protection trap for `fault` on `page`: its cost,
    /// its counters (one inside the recovery window also counts in
    /// `NodeStats::recovery_traps`) and its trace event.
    fn trap(&mut self, fault: Fault, page: PageId) {
        let replaying = self.ft.in_recovery();
        let ctx = &mut self.inner.ctx;
        ctx.charge_overhead(ctx.cost.cpu.fault_trap);
        ctx.stats.recovery_traps += u64::from(replaying);
        if fault == Fault::ReadMiss {
            ctx.stats.read_faults += 1;
            ctx.trace(TraceKind::ReadFault { page });
        } else {
            ctx.stats.write_faults += 1;
            ctx.trace(TraceKind::WriteFault { page });
        }
    }

    /// Read access to the frame of `page` (after `ensure_access`).
    #[inline]
    pub fn frame(&self, page: PageId) -> &pagemem::PageFrame {
        self.inner.pages.frame(page)
    }

    /// Write access to the frame of `page` (after `ensure_access`). The
    /// write is booked, so the frame is private: a frame turns private
    /// where its write is booked, never on this path.
    #[inline]
    pub fn frame_mut(&mut self, page: PageId) -> &mut pagemem::PageFrame {
        let e = self.inner.pages.entry(page);
        debug_assert!(
            self.inner.pages.is_home(page) || e.state == PageState::Writable,
            "write access without write permission on page {page}"
        );
        debug_assert!(
            e.dirty && e.frame.as_ref().is_some_and(|f| !f.is_shared()),
            "a written frame must be dirty and private (page {page})"
        );
        self.inner.pages.frame_mut(page)
    }

    /// Convenience scalar accessors (examples and tests; applications
    /// use the typed views in `ccl-core`).
    #[inline]
    pub fn read_u64(&mut self, addr: usize) -> u64 {
        let (p, off) = self.locate(addr);
        self.ensure_access(p, Access::Read);
        self.frame(p).read_u64(off)
    }

    /// Write a u64 at byte address `addr` in the shared space.
    #[inline]
    pub fn write_u64(&mut self, addr: usize, v: u64) {
        let (p, off) = self.locate(addr);
        self.ensure_access(p, Access::Write);
        self.frame_mut(p).write_u64(off, v);
    }

    #[inline]
    fn locate(&self, addr: usize) -> (PageId, usize) {
        let l = self.inner.cfg.layout;
        (l.page_of(addr), l.offset_of(addr))
    }

    // ---------------------------------------------------------------
    // Synchronization
    // ---------------------------------------------------------------

    /// Acquire a global lock.
    pub fn acquire(&mut self, lock: u32) {
        self.inner.sync_events += 1;
        if self.replayed(|ft, inner| ft.recovery_sync(inner, SyncKind::Acquire(lock))) {
            self.inner.ctx.stats.lock_acquires += 1;
            return;
        }
        self.drain_stalled(self.inner.ctx.now());
        // LRC: an acquire delimits the current interval.
        self.end_interval();
        let mgr = self.inner.cfg.lock_manager(lock);
        let epoch = self.inner.completed_barriers();
        let vc = self.inner.vc.clone();
        let asked_at = self.inner.ctx.now();
        self.inner
            .ctx
            .send(mgr, Msg::LockRequest { lock, epoch, vc })
            .expect("send lock request");
        let env = self.wait_for(|m| matches!(m, Msg::LockGrant { lock: l, .. } if *l == lock));
        self.ft.on_incoming(&mut self.inner, &env.payload);
        if let Msg::LockGrant { vc, notices, .. } = env.payload {
            self.apply_sync_notices(SyncKind::Acquire(lock), &notices, &vc);
            self.inner.lock_grant_vcs.insert(lock, vc);
        }
        let waited = self.inner.ctx.now() - asked_at;
        self.inner
            .ctx
            .metrics
            .lock_wait_ns
            .record(waited.as_nanos());
        self.inner.ctx.stats.lock_acquires += 1;
        self.inner.ctx.trace(TraceKind::LockAcquire {
            lock,
            wait_ns: waited.as_nanos(),
        });
    }

    /// Release a global lock.
    pub fn release(&mut self, lock: u32) {
        self.inner.sync_events += 1;
        if self.ft.in_recovery() {
            // Replay: diffs are already at their homes (they were flushed
            // before the crash); only advance the interval bookkeeping.
            self.inner.close_interval();
            return;
        }
        self.drain_stalled(self.inner.ctx.now());
        self.end_interval();
        let grant_vc = self
            .inner
            .lock_grant_vcs
            .remove(&lock)
            .unwrap_or_else(|| Arc::new(VClock::new(self.inner.cfg.n_nodes)));
        let notices: Vec<WriteNotice> = self
            .inner
            .history
            .iter()
            .filter(|n| !grant_vc.covers(n.interval))
            .copied()
            .collect();
        let mgr = self.inner.cfg.lock_manager(lock);
        let vc = self.inner.vc.clone();
        self.inner
            .ctx
            .send(mgr, Msg::LockRelease { lock, vc, notices })
            .expect("send lock release");
        self.inner.ctx.trace(TraceKind::LockRelease { lock });
    }

    /// Global barrier across all nodes.
    pub fn barrier(&mut self) {
        self.inner.sync_events += 1;
        let epoch = self.inner.barrier_epoch;
        if self.replayed(|ft, inner| ft.recovery_sync(inner, SyncKind::Barrier(epoch))) {
            self.inner.ctx.stats.barriers += 1;
            return;
        }
        self.drain_stalled(self.inner.ctx.now());
        self.end_interval();
        self.inner.ctx.trace(TraceKind::BarrierEnter { epoch });
        self.inner.barrier_epoch += 1;
        self.inner.in_barrier = true;
        let notices: Vec<WriteNotice> = self
            .inner
            .history
            .iter()
            .filter(|n| !self.inner.last_barrier_vc.covers(n.interval))
            .copied()
            .collect();
        let mgr = self.inner.cfg.barrier_manager();
        let release = if self.inner.me() == mgr {
            self.gather_and_release(epoch, &notices)
        } else {
            let arrive = Msg::BarrierArrive {
                epoch,
                vc: self.inner.vc.clone(),
                notices,
                proposals: Vec::new(),
            };
            self.inner
                .ctx
                .send(mgr, arrive)
                .expect("send barrier arrive");
            self.wait_for(|m| matches!(m, Msg::BarrierRelease { epoch: e, .. } if *e == epoch))
                .payload
        };
        // The manager logs its (self-directed) release like everyone
        // else, so ML replay sees the same record stream.
        self.ft.on_incoming(&mut self.inner, &release);
        let Msg::BarrierRelease { vc, notices, .. } = release else {
            unreachable!("waited for a barrier release")
        };
        self.apply_sync_notices(SyncKind::Barrier(epoch), &notices, &vc);
        self.inner.close_barrier_epoch();
        self.inner.ctx.stats.barriers += 1;
        self.inner.ctx.trace(TraceKind::BarrierExit { epoch });
        // The fence opens, but the lock requests it held back are not
        // serviced here: the caller may inject a crash the moment this
        // returns, and a grant made now would die with the lock table.
        // They go out at the next protocol entry (`drain_stalled`).
        self.inner.in_barrier = false;
    }

    /// Barrier manager's side of episode `epoch`: record its own
    /// arrival, service traffic until the whole cluster is in, then
    /// broadcast the merged release and wait out its departure. Returns
    /// the release, which the manager consumes like any member.
    fn gather_and_release(&mut self, epoch: u32, notices: &[WriteNotice]) -> Msg {
        let me = self.inner.me();
        let now = self.inner.ctx.now();
        let vc = self.inner.vc.clone();
        let mgr = self.inner.barrier_mgr.as_mut().expect("manager state");
        mgr.arrive(me, &vc, notices, now);
        self.service_while(|node| {
            node.inner
                .barrier_mgr
                .as_ref()
                .expect("manager state")
                .arrived_count()
                < node.inner.cfg.n_nodes
        });
        let handler = self.inner.ctx.cost.cpu.message_handler;
        let mgr = self.inner.barrier_mgr.as_mut().expect("manager state");
        let release_time = mgr.latest_arrival.max(now) + handler;
        // One shared snapshot: the release history, every broadcast
        // copy, and the manager's own release all alias it.
        let merged_vc = Arc::new(mgr.merged_vc.clone());
        let merged_notices: Arc<[WriteNotice]> = mgr.merged_notices.take().into();
        mgr.record_released(epoch, Arc::clone(&merged_vc), Arc::clone(&merged_notices));
        let straggler = mgr.straggler;
        let spread_ns = (mgr.latest_arrival - mgr.earliest_arrival).as_nanos();
        mgr.reset();
        self.inner.ctx.trace(TraceKind::BarrierReleased {
            epoch,
            straggler,
            spread_ns,
        });
        let release = Msg::BarrierRelease {
            epoch,
            vc: merged_vc,
            notices: merged_notices,
            migrations: Vec::new().into(),
        };
        for node in (0..self.inner.cfg.n_nodes).filter(|&n| n != me) {
            self.inner
                .ctx
                .send_from(release_time, node, release.clone())
                .expect("send barrier release");
        }
        self.inner.ctx.wait_until(release_time);
        release
    }

    // ---------------------------------------------------------------
    // Interval management
    // ---------------------------------------------------------------

    /// Close the current interval: create diffs for dirtied pages, flush
    /// them to their homes, run the logging protocol's flush hooks (the
    /// after-send one while the acks are in flight) and wait for the
    /// acks. No-op (except the ML flush) when nothing was written.
    fn end_interval(&mut self) {
        self.pump();
        // ML flushes its volatile log of incoming messages before the
        // node communicates — fully on the critical path.
        let pre = self.ft.flush_before_send(&mut self.inner);
        if pre > SimDuration::ZERO {
            self.inner.ctx.charge_disk(pre);
        }
        let Some((iv, twins)) = self.inner.close_interval() else {
            return;
        };
        let page_size = self.inner.pages.page_size();
        let me = self.inner.me();

        // Ordered by home: the iteration feeds sends and trace events.
        let mut per_home: BTreeMap<NodeId, Vec<PageDiff>> = BTreeMap::new();
        let mut all_diffs: Vec<PageDiff> = Vec::new();
        for (p, twin) in twins {
            let inner = &mut self.inner;
            let e = inner.pages.entry(p);
            let home = e.home;
            // A home write is neither twinned nor diffed; any other
            // dirty page must have a twin.
            let Some(twin) = twin else {
                assert_eq!(home, me, "dirty non-home page {p} without twin");
                continue;
            };
            let frame = e.frame.as_ref().expect("dirty page without frame");
            let diff = PageDiff::create(p, &twin, frame);
            // Word-compare of page against twin plus encoding.
            inner.ctx.charge_copy(2 * page_size);
            inner.ctx.stats.diffs_created += 1;
            inner.ctx.stats.diff_bytes += diff.encoded_size() as u64;
            inner
                .ctx
                .metrics
                .diff_bytes
                .record(diff.encoded_size() as u64);
            if diff.is_empty() {
                continue; // silent write (same values): nothing to flush
            }
            per_home.entry(home).or_default().push(diff.clone());
            all_diffs.push(diff);
        }
        self.ft.on_diffs_created(&mut self.inner, iv, &all_diffs);

        let n_flushes = per_home.len();
        for (home, diffs) in per_home {
            let bytes: u64 = diffs.iter().map(|d| d.encoded_size() as u64).sum();
            self.inner
                .ctx
                .send(home, Msg::DiffFlush { writer: iv, diffs })
                .expect("send diff flush");
            self.inner
                .ctx
                .trace(TraceKind::DiffFlush { to: home, bytes });
        }
        // CCL writes its log here, with the diffs already on the wire:
        // the write and the ack round trip overlap, and the node resumes
        // at the later of the two. The ack wait is measured from the end
        // of the write, so it records only what the write did not cover.
        let post = self.ft.flush_after_send(&mut self.inner);
        if post > SimDuration::ZERO {
            self.inner.ctx.charge_disk(post);
        }
        let t0 = self.inner.ctx.now();
        let mut pending = n_flushes;
        // Acks are absorbed in virtual arrival order, so the last one is
        // the slowest home — the node the whole ack wait is blamed on.
        let mut slowest_home: Option<NodeId> = None;
        while pending > 0 {
            let env = self.wait_for(|m| matches!(m, Msg::DiffAck { writer } if *writer == iv));
            slowest_home = Some(env.src);
            pending -= 1;
        }
        let waited = self.inner.ctx.now() - t0;
        if let Some(home) = slowest_home {
            self.inner.ctx.trace(TraceKind::FlushAckWait {
                home,
                wait_ns: waited.as_nanos(),
            });
        }
    }

    /// Process incoming notices at an acquire/barrier: admit the fresh
    /// ones, invalidate the remote copies they name, and hand them to
    /// the logging layer.
    fn apply_sync_notices(&mut self, kind: SyncKind, notices: &[WriteNotice], vc_in: &VClock) {
        let me = self.inner.me() as u32;
        let fresh = self.inner.admit_notices(notices, vc_in);
        let mut invalidated: BTreeSet<PageId> = BTreeSet::new();
        for n in &fresh {
            if n.interval.node == me || self.inner.pages.is_home(n.page) {
                continue;
            }
            debug_assert!(
                self.inner.pages.entry(n.page).twin.is_none(),
                "invalidation of a page with an open twin: intervals \
                 must be delimited before notices are applied"
            );
            if self.inner.pages.entry(n.page).predicted.is_some() {
                // Predicted copy invalidated before its first use:
                // the prediction bought nothing but bytes.
                self.inner.ctx.stats.prefetch_wasted += 1;
                self.inner
                    .ctx
                    .trace(TraceKind::PrefetchWasted { page: n.page });
            }
            self.inner.pages.invalidate(n.page);
            invalidated.insert(n.page);
        }
        if !invalidated.is_empty() {
            self.inner.prefetch.note_invalidated(invalidated);
        }
        if !fresh.is_empty() {
            self.inner.ctx.trace(TraceKind::NoticesApplied {
                count: fresh.len() as u32,
            });
        }
        let vc = self.inner.vc.clone();
        self.ft.on_notices(&mut self.inner, kind, &fresh, &vc);
    }

    /// Re-service the stalled requests in arrival order — after an
    /// adoption completes, and at every protocol entry (`acquire`,
    /// `release`, `barrier`, a page fetch, the next serviced message)
    /// for the lock requests the epoch fence held back. Whatever still
    /// may not be consumed stalls again. Replies depart no earlier than
    /// this node's clock and `not_before` (the arrival of the message
    /// whose service triggered the drain): the stalled envelopes left
    /// the inbox long ago, so only those two bound what the scheduler
    /// has been promised.
    pub(crate) fn drain_stalled(&mut self, not_before: SimTime) {
        if self.inner.stalled_requests.is_empty() {
            return;
        }
        let stalled = std::mem::take(&mut self.inner.stalled_requests);
        for mut env in stalled {
            env.arrive_at = env.arrive_at.max(not_before);
            self.service(env, true);
        }
    }
}

impl NodeInner {
    /// Serve one request of a recovering peer (the class named by
    /// [`Msg::is_recovery_request`]), finishing service at `done` —
    /// from the live service loop and from a recovering node's own
    /// fetch waits (concurrently recovering nodes must keep serving
    /// each other or they deadlock).
    pub fn serve_recovery_request(
        &mut self,
        ft: &mut dyn FaultTolerance,
        env: &Envelope<Msg>,
        done: SimTime,
    ) {
        match &env.payload {
            Msg::RecoveryPageRequest { .. } => self.serve_recovery_page(env, done),
            Msg::LoggedDiffRequest { .. } => ft.serve_logged_diffs(self, env),
            Msg::ReleaseHistoryRequest => self.serve_release_history(env, done),
            Msg::RecoveryHello => self.serve_recovery_hello(env, done),
            other => unreachable!("{} is not a recovery request", other.kind()),
        }
    }

    /// Answer a [`Msg::RecoveryPageRequest`] for a page homed here from
    /// the served-image log, finishing service at `done` — or park it,
    /// when this home is rebuilding that log by its own replay and has
    /// not re-reached a write the request covers: no image shows the
    /// page as of the requested clock yet, and one will
    /// ([`NodeInner::serve_parked_fetches`]).
    pub fn serve_recovery_page(&mut self, env: &Envelope<Msg>, done: SimTime) {
        let Msg::RecoveryPageRequest {
            page,
            required,
            held,
        } = &env.payload
        else {
            return;
        };
        let page = *page;
        debug_assert!(self.pages.is_home(page));
        if self
            .pages
            .awaits_rebuild(page, required, self.next_interval)
        {
            self.parked_fetches.push(env.clone());
            return;
        }
        self.pages.note_remote_fetch(page, env.src);
        let (image, cost) = self.served_image(page, required, *held);
        let reply = Msg::RecoveryPageReply { page, image };
        self.ctx
            .send_from(done + cost, env.src, reply)
            .expect("send recovery page reply");
    }

    /// Is a recovery fetch parked here?
    pub fn has_parked_fetches(&self) -> bool {
        !self.parked_fetches.is_empty()
    }

    /// Look at the parked recovery fetches again, in arrival order:
    /// answer those whose writes this node's replay has re-reached by
    /// now, keep the rest. To be called wherever replay may have made
    /// progress and is about to block — and when it ends, which answers
    /// them all. Replies depart no earlier than this node's clock and
    /// `not_before` (the arrival of the message whose service led here,
    /// if one did), like those of any request serviced late.
    pub fn serve_parked_fetches(&mut self, not_before: SimTime) {
        let handler = self.ctx.cost.cpu.message_handler;
        for mut env in std::mem::take(&mut self.parked_fetches) {
            env.arrive_at = env.arrive_at.max(not_before);
            let done = self.ctx.async_service_base(&env, true) + handler;
            self.serve_recovery_page(&env, done);
        }
    }

    /// The served-log answer to a recovery fetch
    /// ([`PageTable::recovery_answer`]) and what preparing it costs: a
    /// word-compare of two images plus encoding where a diff was taken,
    /// as for any diff, and the copy of a page sent whole (a delta is
    /// encoded straight into the reply).
    fn served_image(
        &mut self,
        page: PageId,
        required: &VClock,
        held: Option<u32>,
    ) -> (RecoveryImage, SimDuration) {
        let (image, compared) = self.pages.recovery_answer(page, required, held);
        let cpu = self.ctx.cost.cpu;
        let mut cost = SimDuration::ZERO;
        if compared {
            cost += cpu.copy(2 * self.pages.page_size());
        }
        if let RecoveryImage::Image { data, .. } = &image {
            cost += cpu.copy(data.len());
        }
        (image, cost)
    }

    /// Answer a [`Msg::RecoveryHello`], finishing service at `done`:
    /// tell the recovering peer which pages homed here it ever touched
    /// a copy of, as far as it said (its replay will touch exactly
    /// those again, and at most a few it had not reported yet), and
    /// whether that record is complete; the barrier manager also tells
    /// it what its own intervals wrote of its home pages, from the
    /// retained releases. Read-only on volatile directory state, so a
    /// home that is itself replaying can answer.
    pub fn serve_recovery_hello(&mut self, env: &Envelope<Msg>, done: SimTime) {
        let homed_there = |n: &WriteNotice| self.pages.entry(n.page).home == env.src;
        let home_writes = match &self.barrier_mgr {
            Some(mgr) => (mgr.notices_of(env.src as u32).into_iter())
                .filter(homed_there)
                .collect(),
            None => Vec::new(),
        };
        let reply = Msg::RecoveryHelloReply {
            held: self.pages.held_by(env.src),
            complete: self.pages.copysets_complete(),
            home_writes,
        };
        let copy_cost = self.ctx.cost.cpu.copy(reply.encoded_size());
        self.ctx
            .send_from(done + copy_cost, env.src, reply)
            .expect("send recovery hello reply");
    }

    /// Answer a [`Msg::ReleaseHistoryRequest`] from the barrier
    /// manager's retained per-epoch releases, finishing service at
    /// `done`. A freshly crashed manager answers with an empty history
    /// (its map was wiped with the rest of volatile memory), which the
    /// requester treats as "nothing to repair" — best effort, exactly
    /// like the single-failure assumption everywhere else.
    pub fn serve_release_history(&mut self, env: &Envelope<Msg>, done: SimTime) {
        debug_assert_eq!(self.me(), self.cfg.barrier_manager());
        let reply = Msg::ReleaseHistoryReply {
            releases: self.release_history(),
        };
        let copy_cost = self.ctx.cost.cpu.copy(reply.encoded_size());
        self.ctx
            .send_from(done + copy_cost, env.src, reply)
            .expect("send release history reply");
    }

    /// The barrier manager's retained per-epoch releases, as this node
    /// holds them (empty anywhere but at the manager).
    pub fn release_history(&self) -> Vec<EpochRelease> {
        self.barrier_mgr
            .as_ref()
            .map(|m| m.release_history())
            .unwrap_or_default()
    }

    /// Grant `lock` to `to`, whose request carried clock `vc`; the
    /// grant leaves at `at`.
    fn grant(&mut self, lock: u32, to: NodeId, vc: &VClock, at: SimTime) {
        let st = self.locks.state_mut(lock);
        st.held = true;
        let notices = st.notices_for(vc);
        let lvc = Arc::new(st.vc.clone());
        let holder = st.record_grant(to);
        self.ctx.trace(TraceKind::LockGranted { lock, to, holder });
        let grant = Msg::LockGrant {
            lock,
            vc: lvc,
            notices,
        };
        self.ctx.send_from(at, to, grant).expect("send lock grant");
    }

    /// Manager side of [`Msg::LockRequest`]: grant a free lock, queue
    /// behind a held one.
    fn serve_lock_request(&mut self, env: &Envelope<Msg>, lock: u32, vc: &VClock, done: SimTime) {
        debug_assert_eq!(
            self.cfg.lock_manager(lock),
            self.me(),
            "lock request at non-manager"
        );
        let handler = self.ctx.cost.cpu.message_handler;
        let st = self.locks.state_mut(lock);
        if st.held {
            st.queue.push_back(PendingAcquire {
                node: env.src,
                vc: vc.clone(),
                arrive: env.arrive_at,
            });
        } else {
            let at = done.max(st.last_release + handler);
            self.grant(lock, env.src, vc, at);
        }
    }

    /// Manager side of [`Msg::LockRelease`]: fold the releaser's
    /// notices into the lock and pass it to the next waiter, if any.
    fn serve_lock_release(
        &mut self,
        env: &Envelope<Msg>,
        lock: u32,
        vc: &VClock,
        notices: &[WriteNotice],
        done: SimTime,
    ) {
        let handler = self.ctx.cost.cpu.message_handler;
        let st = self.locks.state_mut(lock);
        st.record_release(vc, notices, env.arrive_at);
        if let Some(next) = st.queue.pop_front() {
            let at = done.max(next.arrive + handler);
            self.grant(lock, next.node, &next.vc, at);
        }
    }

    /// Manager side of [`Msg::BarrierArrive`].
    fn serve_barrier_arrive(&mut self, env: &Envelope<Msg>, done: SimTime) {
        let Msg::BarrierArrive {
            epoch, vc, notices, ..
        } = &env.payload
        else {
            return;
        };
        debug_assert_eq!(
            self.me(),
            self.cfg.barrier_manager(),
            "barrier arrive at non-manager"
        );
        let mgr = self.barrier_mgr.as_mut().expect("barrier manager state");
        // A node re-executing after a degraded recovery arrives at
        // epochs the cluster already completed: answer from the
        // release history instead of gathering.
        if let Some((rvc, rnotices)) = mgr.past_release(*epoch) {
            let release = Msg::BarrierRelease {
                epoch: *epoch,
                vc: Arc::clone(rvc),
                notices: Arc::clone(rnotices),
                migrations: Vec::new().into(),
            };
            self.ctx
                .send_from(done, env.src, release)
                .expect("re-send barrier release");
            return;
        }
        // If the manager is already inside barrier(), its own epoch
        // counter has advanced past the arrivals' epoch.
        debug_assert!(
            *epoch == self.barrier_epoch || *epoch + 1 == self.barrier_epoch,
            "barrier epoch skew: arrival {} vs manager {}",
            epoch,
            self.barrier_epoch
        );
        mgr.arrive(env.src, vc, notices, env.arrive_at);
    }
}

impl HlrcNode {
    // ---------------------------------------------------------------
    // Message service: the node's outer loop
    // ---------------------------------------------------------------

    /// True if `payload` must wait out this node's log replay instead
    /// of being serviced: serving a peer from a half-restored memory
    /// image would hand out corrupt data. A recovering peer's requests
    /// are exempt (see [`Msg::is_recovery_request`]): two nodes
    /// recovering at once must keep serving each other.
    fn must_defer(&self, payload: &Msg) -> bool {
        self.ft.in_recovery() && !payload.is_recovery_request()
    }

    /// Drain every message that has already arrived in virtual time,
    /// servicing (or deferring) each. Called at fault/synchronization
    /// points and whenever the node blocks. Bounded by the node's own
    /// clock: the conservative scheduler only releases envelopes the
    /// node could observe "now", and waits only until it can tell what
    /// has arrived by then. [`NodeCtx::recv_arrived`] pulls whole batches
    /// of admissible envelopes out of the fabric under one lock
    /// acquisition and replays them from a local buffer, so a busy
    /// service pump costs one fabric visit per burst, not per message.
    fn pump(&mut self) {
        while let Some(env) = self.inner.ctx.recv_arrived() {
            if self.must_defer(&env.payload) {
                self.inner.ctx.defer(env);
            } else {
                self.service(env, false);
            }
        }
    }

    /// Block until a message matching `pred` arrives (absorbing its
    /// arrival time as wait), servicing all other traffic
    /// asynchronously — or deferring it during recovery.
    pub fn wait_for<F: Fn(&Msg) -> bool>(&mut self, pred: F) -> Envelope<Msg> {
        loop {
            let env = self.inner.ctx.recv().expect("cluster channel closed");
            if pred(&env.payload) {
                self.inner.ctx.absorb(&env);
                return env;
            }
            if self.must_defer(&env.payload) {
                self.inner.ctx.defer(env);
            } else {
                self.service(env, false);
            }
        }
    }

    /// Service messages until `more` returns false. The barrier manager
    /// uses this to gather arrivals: each incoming message is serviced
    /// normally (updating manager state), and the loop exits once the
    /// gather condition is met.
    fn service_while<F: Fn(&Self) -> bool>(&mut self, more: F) {
        while more(self) {
            let env = self.inner.ctx.recv().expect("cluster channel closed");
            self.service(env, false);
        }
    }

    /// Log replay has finished: stamp the recovery end time, emit the
    /// telemetry event, and service everything deferred while replaying
    /// (in arrival order, timed from "now").
    fn resume_live(&mut self) {
        self.inner.ctx.mark_recovered();
        for env in self.inner.ctx.take_deferred() {
            self.service(env, true);
        }
    }

    /// Service one asynchronous protocol message: the epoch fence, then
    /// one handler per message kind. `deferred` marks messages replayed
    /// after recovery, whose service time is "now" rather than their
    /// (long past) arrival time; reply timing is based on
    /// [`NodeCtx::async_service_base`].
    fn service(&mut self, env: Envelope<Msg>, deferred: bool) {
        if !self.inner.in_barrier {
            // Out of the barrier: what the epoch fence held back goes
            // first, it arrived first.
            self.drain_stalled(env.arrive_at);
        }
        // A lock request from a node that already left a barrier this
        // node is still inside may not be consumed yet (the epoch fence,
        // see `NodeInner::completed_barriers`). Stalled envelopes are
        // re-serviced by `drain_stalled`.
        let fenced = matches!(&env.payload, Msg::LockRequest { epoch, .. }
            if *epoch > self.inner.completed_barriers());
        if fenced {
            self.inner.stalled_requests.push(env);
            return;
        }
        let handler = self.inner.ctx.cost.cpu.message_handler;
        let done = self.inner.ctx.async_service_base(&env, deferred) + handler;
        match &env.payload {
            Msg::PageRequestBatch { page, extras, hits } => {
                self.serve_pages(env.src, *page, extras, hits, done)
            }
            Msg::PageReplyBatch { .. } => self.install_prefetch_batch(env),
            Msg::DiffFlush { .. } => self.serve_diff_flush(env, done),
            Msg::LockRequest { lock, vc, .. } => {
                self.inner.serve_lock_request(&env, *lock, vc, done)
            }
            Msg::LockRelease { lock, vc, notices } => self
                .inner
                .serve_lock_release(&env, *lock, vc, notices, done),
            Msg::BarrierArrive { .. } => self.inner.serve_barrier_arrive(&env, done),
            m if m.is_recovery_request() => {
                self.inner.serve_recovery_request(&mut *self.ft, &env, done)
            }
            other => unreachable!(
                "unexpected asynchronous message {} at node {}",
                other.kind(),
                self.inner.me()
            ),
        }
    }

    /// Home side of [`Msg::DiffFlush`]: apply the writer's diffs to the
    /// home copies and acknowledge.
    fn serve_diff_flush(&mut self, env: Envelope<Msg>, done: SimTime) {
        // The logging layer records the flush, and the ack waits for
        // whatever write-ahead flush it asks for (see
        // [`FaultTolerance::on_diff_flush`]).
        let wal = self.ft.on_diff_flush(&mut self.inner, &env.payload);
        if wal > SimDuration::ZERO {
            self.inner.ctx.charge_disk(wal);
        }
        let Msg::DiffFlush { writer, diffs } = env.payload else {
            unreachable!()
        };
        let payload: usize = diffs.iter().map(|d| d.encoded_size()).sum();
        let copy_cost = self.inner.ctx.cost.cpu.copy(payload);
        for d in &diffs {
            self.inner.apply_home_diff(d, writer);
        }
        self.inner
            .ctx
            .send_from(done + copy_cost + wal, env.src, Msg::DiffAck { writer })
            .expect("send diff ack");
    }

    // ---------------------------------------------------------------
    // Crash / recovery entry
    // ---------------------------------------------------------------

    /// Simulate a crash of this node, and restart it with the
    /// fault-tolerance layer `ft`, built fresh: the dying layer and every
    /// volatile byte go, the protocol state is rebuilt
    /// ([`NodeInner::restart`]), and `ft` recovers from stable storage. The caller restarts the
    /// application program on the returned node, from the returned
    /// application blob of the last checkpoint if there is one.
    pub fn restart(self, ft: Box<dyn FaultTolerance>) -> (HlrcNode, Option<Vec<u8>>) {
        let HlrcNode { inner, ft: dying } = self;
        // A crash fires after a barrier, and a replayed barrier it can
        // follow is the last one logged, where replay ends.
        debug_assert!(!dying.in_recovery(), "crashed in the middle of a replay");
        drop(dying);
        let mut node = HlrcNode::with_inner(inner.restart(), ft);
        let app = node.ft.begin_recovery(&mut node.inner);
        if !node.ft.in_recovery() {
            // Nothing to replay — no protocol log, an empty log, or a
            // failed log device (degraded recovery). Live re-execution
            // starts right away, so recovery formally ends here; without
            // this stamp `recovery_exit` would never be set.
            node.exit_recovery();
        }
        (node, app)
    }

    /// Leave recovery: give the fault-tolerance layer its last word
    /// (home-copy repair from surviving logs, see
    /// [`FaultTolerance::finish_recovery`]) and only then go live and
    /// service the traffic deferred during replay — survivors must
    /// never be handed a page the repair pass was about to fix. In
    /// between, a home that was rebuilding its served logs closes them
    /// (a page copy per page replay wrote, charged) and answers the
    /// recovery fetches still parked: replay re-reaches nothing more.
    fn exit_recovery(&mut self) {
        self.ft.finish_recovery(&mut self.inner);
        let inner = &mut self.inner;
        let copies = inner.pages.finish_served_rebuild();
        inner.ctx.charge_copy(copies * inner.pages.page_size());
        inner.serve_parked_fetches(inner.ctx.now());
        self.resume_live();
    }

    /// Run one replay `step` if this node is replaying its log, and
    /// leave recovery when the log ran out — under the step or right
    /// after it. True when the step reproduced the operation from the
    /// log; false when the node is live and must perform it itself.
    fn replayed(
        &mut self,
        step: impl FnOnce(&mut dyn FaultTolerance, &mut NodeInner) -> RecoveryStep,
    ) -> bool {
        if !self.ft.in_recovery() {
            return false;
        }
        let step = step(&mut *self.ft, &mut self.inner);
        if !self.ft.in_recovery() || step == RecoveryStep::LogExhausted {
            self.exit_recovery();
        }
        step == RecoveryStep::Replayed
    }
}

#[cfg(test)]
mod tests {
    use minicheck::{check, Rng};
    use pagemem::{PageFrame, SharedBytes};
    use simnet::{run_cluster, CostModel, NodeStats};

    use super::*;
    use crate::NoLogging;

    const PAGE: usize = 64;

    /// One drawn access: to a page homed here or not, whose entry is set
    /// to `state`, dirty or not, with or without a predicted copy, its
    /// frame — unless dirty, which is always private — shared or not.
    #[derive(Debug, Clone, Copy)]
    struct Draw {
        home: bool,
        state: PageState,
        dirty: bool,
        predicted: bool,
        shared: bool,
        access: Access,
        fill: u8,
    }

    fn arb_draw(rng: &mut Rng) -> Draw {
        Draw {
            home: rng.bool(),
            state: *rng.pick(&[PageState::Invalid, PageState::ReadOnly, PageState::Writable]),
            dirty: rng.bool(),
            predicted: rng.bool(),
            shared: rng.bool(),
            access: *rng.pick(&[Access::Read, Access::Write]),
            fill: rng.byte(),
        }
    }

    /// Everything of node `node` an access may change: the entry of
    /// `page` (and its frame's bytes), the clock, the counters and the
    /// length of the trace.
    fn observe(
        node: &HlrcNode,
        page: PageId,
    ) -> (String, Option<Vec<u8>>, SimTime, NodeStats, usize) {
        let e = node.inner.pages.entry(page);
        (
            format!("{e:?}"),
            e.frame.as_ref().map(|f| f.bytes().to_vec()),
            node.inner.ctx.now(),
            node.inner.ctx.stats,
            node.inner.ctx.trace_events().len(),
        )
    }

    /// The early return of `ensure_access` skips only what the fault
    /// handler would not have done anyway: wherever the predicate admits
    /// an access, running the handler leaves the node as it was.
    #[test]
    fn the_access_predicate_admits_only_accesses_that_change_nothing() {
        check("access-predicate", 24, |rng: &mut Rng| {
            let draws: Vec<Draw> = (0..32).map(|_| arb_draw(rng)).collect();
            let cfg = DsmConfig::new(2, 4).with_page_size(PAGE);
            let admitted = run_cluster(2, CostModel::default(), |ctx| {
                let mut node = HlrcNode::new(ctx, cfg, Box::new(NoLogging));
                if node.inner.me() != 0 {
                    return 0;
                }
                let mut admitted = 0;
                for d in &draws {
                    // Pages 0-1 are homed here, 2-3 at node 1.
                    let page = if d.home { 0 } else { 2 };
                    let e = node.inner.pages.entry_mut(page);
                    e.state = d.state;
                    e.dirty = d.dirty;
                    let predicted = !d.home && d.predicted;
                    let resident = d.home || (d.state != PageState::Invalid && !predicted);
                    let shipped = SharedBytes::copy_of(&[d.fill; PAGE]);
                    e.frame = if predicted || (resident && d.shared && !d.dirty) {
                        Some(PageFrame::shared(shipped))
                    } else {
                        resident.then(|| PageFrame::from_bytes(&[d.fill; PAGE]))
                    };
                    e.predicted = predicted.then(|| VClock::new(2));
                    if !node.inner.pages.access_changes_nothing(page, d.access) {
                        continue;
                    }
                    admitted += 1;
                    let before = observe(&node, page);
                    node.fault_handler(page, d.access);
                    assert_eq!(observe(&node, page), before, "{d:?} changed the node");
                }
                admitted
            });
            assert!(admitted[0] > 0, "no draw was admitted: {draws:?}");
        });
    }
}
