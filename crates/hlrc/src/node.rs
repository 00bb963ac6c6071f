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
use pagemem::{
    Access, BufferPool, Fault, IntervalId, PageDiff, PageId, PageState, SharedBytes, Twin, VClock,
};
use simnet::{CoherenceProtocol, Envelope, NodeCtx, NodeId, SimDuration, SimTime, TraceKind};

use crate::config::{DsmConfig, HomePolicy};
use crate::fault_tolerance::{FaultTolerance, RecoveryStep, SyncKind};
use crate::msg::{HomeMigration, Msg, PageCopy, WriteNotice};
use crate::page_table::PageTable;
use crate::sync::{BarrierMgr, LockTable, PendingAcquire};

/// Deterministic fetch-prediction state. Every input is a virtual-time
/// protocol event (fault page ids, invalidation notices), so prediction
/// is a pure function of the deterministic execution and `detcheck`'s
/// bit-reproducibility proof covers prefetch-enabled runs.
#[derive(Debug, Default)]
pub struct PrefetchState {
    /// Page of the previous demand fault.
    last_fault: Option<PageId>,
    /// Candidate stride between the last two demand faults, in pages.
    stride: i64,
    /// Two consecutive faults agreed on `stride` (two-miss confirmation
    /// before any stride prediction is issued).
    confirmed: bool,
    /// Pages invalidated by the most recent notice batch that
    /// invalidated anything: the write-notice sets already carried by
    /// lock grants and barrier releases are a free predictor of what
    /// will fault next (the invalidated copies are what this node was
    /// actively reading).
    recent_invalidated: BTreeSet<PageId>,
    /// Trailing prefetch batches not yet arrived, keyed by the demand
    /// page whose request issued them: `(demand page, sync_events at
    /// issue, predicted pages)`. The stamp gates the asynchronous
    /// install — extras are only as fresh as the acquire they were
    /// requested under, so a batch that crosses a synchronization
    /// operation is dropped, never installed stale.
    in_flight: Vec<(PageId, u64, Vec<PageId>)>,
    /// The page a demand fetch is currently blocked on, if any. An
    /// in-flight batch must never install this page mid-wait: the
    /// demand [`Msg::PageReply`] is the logged record that satisfies
    /// the fault, and letting the batch win the race would leave that
    /// record dangling in the message log — replay would consume the
    /// batch for this fault and then misattribute the reply record to
    /// the next one.
    demand: Option<PageId>,
}

impl PrefetchState {
    /// Record a demand fault at `page`, updating stride detection.
    fn note_fault(&mut self, page: PageId) {
        if let Some(prev) = self.last_fault {
            let s = i64::from(page) - i64::from(prev);
            if s != 0 && s == self.stride {
                self.confirmed = true;
            } else {
                self.stride = s;
                self.confirmed = false;
            }
        }
        self.last_fault = Some(page);
    }

    /// A confirmed stride, if any.
    fn stride(&self) -> Option<i64> {
        (self.confirmed && self.stride != 0).then_some(self.stride)
    }

    /// Is `page` predicted by a batch still in flight?
    fn in_flight(&self, page: PageId) -> bool {
        self.in_flight.iter().any(|(_, _, ps)| ps.contains(&page))
    }

    /// Remove and return the in-flight entry trailing demand page
    /// `after`, if any.
    fn take_in_flight(&mut self, after: PageId) -> Option<(u64, Vec<PageId>)> {
        let i = self.in_flight.iter().position(|(a, _, _)| *a == after)?;
        let (_, stamp, pages) = self.in_flight.remove(i);
        Some((stamp, pages))
    }
}

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
    /// Free list recycling page frames (twins, fetched copies) and
    /// diff-run buffers across intervals. Purely physical: no reported
    /// metric observes it.
    pub pool: BufferPool,
    /// This node's next barrier episode.
    pub barrier_epoch: u32,
    /// Completed synchronization operations (failure injection hooks
    /// count these).
    pub sync_events: u64,
    /// Deterministic fetch-prediction state (see [`PrefetchState`]).
    pub prefetch: PrefetchState,
    /// Home-side diff bytes per `(page, writer)` since the last
    /// migration window — the profile that drives adaptive home
    /// migration. Only maintained when `cfg.adaptive_migration` is on.
    pub diff_traffic: BTreeMap<PageId, BTreeMap<u32, u64>>,
    /// Pages this node is adopting at the current barrier: the release
    /// named them but their [`Msg::HomeMigrate`] has not arrived yet.
    /// Page requests for them are stalled and re-serviced after the
    /// adoption completes.
    pending_migrations: BTreeSet<PageId>,
    /// Inside a live `barrier()`: this episode is entered
    /// (`barrier_epoch` already counts it) but its release is not yet
    /// consumed.
    in_barrier: bool,
    /// Requests this node may not consume yet, in arrival order: page
    /// traffic stalled on `pending_migrations`, and lock requests from
    /// an epoch this node has not reached (see
    /// [`NodeInner::completed_barriers`]).
    stalled_requests: Vec<Envelope<Msg>>,
    /// The next barrier is a migration window (set by the cluster
    /// driver at checkpoint barriers); consumed at barrier arrival.
    pub migration_window: bool,
}

impl NodeInner {
    /// Build the protocol state for the node owning `ctx`.
    pub fn new(ctx: NodeCtx<Msg>, cfg: DsmConfig) -> NodeInner {
        let me = ctx.id();
        let n = cfg.n_nodes;
        assert_eq!(ctx.n_nodes(), n, "cluster size mismatch");
        NodeInner {
            pages: PageTable::new(&cfg, me),
            vc: VClock::new(n),
            next_interval: 0,
            history: Vec::new(),
            last_barrier_vc: VClock::new(n),
            locks: LockTable::new(n),
            barrier_mgr: (me == cfg.barrier_manager()).then(|| BarrierMgr::new(n)),
            lock_grant_vcs: HashMap::new(),
            pool: BufferPool::new(cfg.layout.page_size()),
            barrier_epoch: 0,
            sync_events: 0,
            prefetch: PrefetchState::default(),
            diff_traffic: BTreeMap::new(),
            pending_migrations: BTreeSet::new(),
            in_barrier: false,
            stalled_requests: Vec::new(),
            migration_window: false,
            cfg,
            ctx,
        }
    }

    /// Is `page` mid-adoption (mapping announced, data not yet here)?
    pub fn pending_migration(&self, page: PageId) -> bool {
        self.pending_migrations.contains(&page)
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

    /// During replay, close the current interval locally: the diffs it
    /// originally flushed are already part of the surviving homes'
    /// state, so only the bookkeeping (interval number, notices, twins)
    /// advances. Recovery protocols call this when they find the next
    /// synchronization record in the log.
    pub fn replay_close_interval(&mut self) {
        let dirty = self.pages.dirty_pages();
        if dirty.is_empty() {
            return;
        }
        let iv = self.current_interval();
        self.next_interval += 1;
        self.vc.observe(iv);
        let me = self.me();
        for p in dirty {
            self.history.push(WriteNotice {
                page: p,
                interval: iv,
            });
            let e = self.pages.entry_mut(p);
            e.dirty = false;
            if e.home == me {
                e.version.as_mut().expect("home version").observe(iv);
                e.twin = None;
            } else {
                e.twin = None;
                e.state = PageState::ReadOnly;
            }
        }
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
    pub fn new(ctx: NodeCtx<Msg>, cfg: DsmConfig, ft: Box<dyn FaultTolerance>) -> HlrcNode {
        HlrcNode {
            inner: NodeInner::new(ctx, cfg),
            ft,
        }
    }

    // ---------------------------------------------------------------
    // Data access
    // ---------------------------------------------------------------

    /// Make `page` accessible with `access`, running the fault handler
    /// if the protection state requires it. This is the software stand-in
    /// for the mprotect/SIGSEGV trap (see DESIGN.md).
    pub fn ensure_access(&mut self, page: PageId, access: Access) {
        let me_home = self.inner.pages.is_home(page);
        if me_home {
            // Home copies never miss; the first write of an interval
            // takes a cheap write-detection trap to produce a notice.
            if access == Access::Write && !self.inner.pages.entry(page).dirty {
                let trap = self.inner.ctx.cost.cpu.fault_trap;
                self.inner.ctx.charge_overhead(trap);
                self.inner.ctx.stats.write_faults += 1;
                self.inner.ctx.trace(TraceKind::WriteFault { page });
                if self.ft.needs_home_write_twins()
                    && (self.inner.pages.entry(page).remote_fetched()
                        || self.ft.logs_home_diffs_durably())
                {
                    // CCL: snapshot the home copy so the end-of-interval
                    // diff of the home's own writes can be logged for
                    // peers' recovery reconstruction. In multi-failure
                    // mode every interval is captured (the base stays at
                    // the checkpoint image); otherwise capture starts at
                    // the first remote fetch.
                    let page_size = self.inner.pages.page_size();
                    self.inner.ctx.charge_copy(page_size);
                    self.inner.ctx.stats.twins_created += 1;
                    let inner = &mut self.inner;
                    let e = inner.pages.entry_mut(page);
                    e.twin = Some(Twin::of_with(
                        e.frame.as_ref().expect("home frame"),
                        &mut inner.pool,
                    ));
                }
                self.inner.pages.entry_mut(page).dirty = true;
            }
            return;
        }
        if self.inner.pages.entry(page).prefetched {
            // First touch of a predicted copy: the fetch round trip this
            // access would have paid was hidden entirely.
            self.inner.pages.entry_mut(page).prefetched = false;
            self.inner.ctx.stats.prefetch_hits += 1;
            self.inner.ctx.trace(TraceKind::PrefetchHit { page });
        }
        let state = self.inner.pages.entry(page).state;
        match state.fault_for(access) {
            None => {}
            Some(fault) => {
                let trap = self.inner.ctx.cost.cpu.fault_trap;
                self.inner.ctx.charge_overhead(trap);
                match fault {
                    Fault::ReadMiss => {
                        self.inner.ctx.stats.read_faults += 1;
                        self.inner.ctx.trace(TraceKind::ReadFault { page });
                    }
                    Fault::WriteMiss | Fault::WriteUpgrade => {
                        self.inner.ctx.stats.write_faults += 1;
                        self.inner.ctx.trace(TraceKind::WriteFault { page });
                    }
                }
                if matches!(fault, Fault::ReadMiss | Fault::WriteMiss) {
                    if self.ft.in_recovery() {
                        let step =
                            self.ft
                                .recovery_fault(&mut self.inner, page, access == Access::Write);
                        if step == RecoveryStep::LogExhausted {
                            self.exit_recovery();
                            self.fetch_page(page);
                        } else if !self.ft.in_recovery() {
                            self.exit_recovery();
                        }
                    } else {
                        self.fetch_page(page);
                    }
                }
                if access == Access::Write {
                    // Upgrade: snapshot a twin and open write collection.
                    let page_size = self.inner.pages.page_size();
                    self.inner.ctx.charge_copy(page_size);
                    self.inner.ctx.stats.twins_created += 1;
                    let inner = &mut self.inner;
                    let e = inner.pages.entry_mut(page);
                    let twin = Twin::of_with(
                        e.frame.as_ref().expect("frame after fetch"),
                        &mut inner.pool,
                    );
                    e.twin = Some(twin);
                    e.dirty = true;
                    e.state = PageState::Writable;
                }
            }
        }
    }

    /// Read access to the frame of `page` (after `ensure_access`).
    pub fn frame(&self, page: PageId) -> &pagemem::PageFrame {
        self.inner.pages.frame(page)
    }

    /// Write access to the frame of `page` (after `ensure_access`).
    pub fn frame_mut(&mut self, page: PageId) -> &mut pagemem::PageFrame {
        debug_assert!(
            self.inner.pages.is_home(page)
                || self.inner.pages.entry(page).state == PageState::Writable,
            "write access without write permission on page {page}"
        );
        self.inner.pages.frame_mut(page)
    }

    /// Convenience scalar accessors (examples and tests; applications
    /// use the typed views in `ccl-core`).
    pub fn read_u64(&mut self, addr: usize) -> u64 {
        let (p, off) = self.locate(addr);
        self.ensure_access(p, Access::Read);
        self.frame(p).read_u64(off)
    }

    /// Write a u64 at byte address `addr` in the shared space.
    pub fn write_u64(&mut self, addr: usize, v: u64) {
        let (p, off) = self.locate(addr);
        self.ensure_access(p, Access::Write);
        self.frame_mut(p).write_u64(off, v);
    }

    /// Read an f64 at byte address `addr`.
    pub fn read_f64(&mut self, addr: usize) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an f64 at byte address `addr`.
    pub fn write_f64(&mut self, addr: usize, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    fn locate(&self, addr: usize) -> (PageId, usize) {
        let l = self.inner.cfg.layout;
        (l.page_of(addr), l.offset_of(addr))
    }

    fn fetch_page(&mut self, page: PageId) {
        self.drain_stalled(self.inner.ctx.now());
        if self.inner.cfg.prefetch_depth == 0 {
            self.fetch_page_single(page);
            return;
        }
        self.fetch_page_batched(page);
    }

    /// The legacy stop-and-wait fetch: one page, one round trip.
    /// Byte-exact with the pre-batching protocol (`prefetch_depth: 0`
    /// reproduces historical runs bit for bit).
    fn fetch_page_single(&mut self, page: PageId) {
        let home = self.inner.pages.entry(page).home;
        self.inner.ctx.stats.page_fetches += 1;
        let asked_at = self.inner.ctx.now();
        self.inner
            .ctx
            .send(home, Msg::PageRequest { page })
            .expect("send page request");
        let env = self.wait_for(|m| matches!(m, Msg::PageReply { page: p, .. } if *p == page));
        let page_size = self.inner.pages.page_size();
        self.inner.ctx.charge_copy(page_size);
        let waited = self.inner.ctx.now() - asked_at;
        self.inner
            .ctx
            .metrics
            .fetch_latency_ns
            .record(waited.as_nanos());
        self.inner.ctx.trace(TraceKind::PageFetch {
            page,
            from: home,
            wait_ns: waited.as_nanos(),
        });
        self.ft.on_incoming(&mut self.inner, &env.payload);
        if let Msg::PageReply { data, .. } = env.payload {
            self.inner
                .pages
                .install_copy(page, &data, PageState::ReadOnly, &mut self.inner.pool);
        }
    }

    /// The latency-hiding fetch: the request carries the faulting page
    /// plus up to `prefetch_depth` predicted same-home pages. The home
    /// answers the demand page with an ordinary [`Msg::PageReply`] —
    /// byte-identical stall to the legacy fetch — and ships the
    /// predicted copies in one trailing [`Msg::PageReplyBatch`] that
    /// installs asynchronously at the next inbox drain. A wrong
    /// prediction costs bytes on the wire, never an extra stall.
    fn fetch_page_batched(&mut self, page: PageId) {
        let home = self.inner.pages.entry(page).home;
        self.inner.ctx.stats.page_fetches += 1;
        self.inner.prefetch.note_fault(page);
        // A fault on a page already predicted by an in-flight batch
        // still pays one demand round trip (waiting out the batch could
        // stall longer than a fresh fetch), but issues no new
        // predictions — the in-flight batch already covers the window.
        let extras = if self.inner.prefetch.in_flight(page) {
            Vec::new()
        } else {
            self.prefetch_candidates(page, home)
        };
        let asked_at = self.inner.ctx.now();
        if !extras.is_empty() {
            self.inner.ctx.stats.prefetch_issued += extras.len() as u64;
            self.inner.ctx.trace(TraceKind::PrefetchIssued {
                page,
                count: extras.len() as u32,
            });
            self.inner
                .prefetch
                .in_flight
                .push((page, self.inner.sync_events, extras.clone()));
        }
        self.inner
            .ctx
            .send(home, Msg::PageRequestBatch { page, extras })
            .expect("send page request batch");
        self.inner.prefetch.demand = Some(page);
        let env = self.wait_for(|m| matches!(m, Msg::PageReply { page: p, .. } if *p == page));
        self.inner.prefetch.demand = None;
        let page_size = self.inner.pages.page_size();
        self.inner.ctx.charge_copy(page_size);
        let waited = self.inner.ctx.now() - asked_at;
        self.inner
            .ctx
            .metrics
            .fetch_latency_ns
            .record(waited.as_nanos());
        self.inner.ctx.trace(TraceKind::PageFetch {
            page,
            from: home,
            wait_ns: waited.as_nanos(),
        });
        self.ft.on_incoming(&mut self.inner, &env.payload);
        if let Msg::PageReply { data, .. } = env.payload {
            self.inner
                .pages
                .install_copy(page, &data, PageState::ReadOnly, &mut self.inner.pool);
        }
    }

    /// Install a trailing prefetch batch (see [`Msg::PageReplyBatch`]):
    /// gate on the issue-time synchronization stamp, then install every
    /// carried page that is still invalid, valid-until-invalidated.
    /// Called from the asynchronous service path, so nothing here may
    /// block. Pages that went stale (a sync operation completed since
    /// the request) or valid (demand-fetched while the batch was in
    /// flight) count as wasted predictions.
    fn install_prefetch_batch(&mut self, env: Envelope<Msg>) {
        let Msg::PageReplyBatch { after, pages } = env.payload else {
            unreachable!()
        };
        let stale = match self.inner.prefetch.take_in_flight(after) {
            // A batch from a pre-crash incarnation (the map resets with
            // the node) or one that crossed a synchronization operation
            // can no longer prove its copies fresh enough.
            None => true,
            Some((stamp, _)) => stamp != self.inner.sync_events,
        };
        let mut install: Vec<PageCopy> = Vec::new();
        for (p, data, version) in pages {
            let e = self.inner.pages.entry(p);
            if stale
                || e.state != PageState::Invalid
                || self.inner.pending_migration(p)
                || self.inner.prefetch.demand == Some(p)
            {
                self.inner.ctx.stats.prefetch_wasted += 1;
                self.inner.ctx.trace(TraceKind::PrefetchWasted { page: p });
                continue;
            }
            install.push((p, data, version));
        }
        if install.is_empty() {
            return;
        }
        // Log before installing (write-ahead, like every other incoming
        // that mutates page state) with exactly the installed subset, so
        // ML replay re-installs precisely what live execution did.
        let logged = Msg::PageReplyBatch {
            after,
            pages: install.clone(),
        };
        self.ft.on_incoming(&mut self.inner, &logged);
        for (p, data, _version) in install {
            self.inner
                .pages
                .install_copy(p, &data, PageState::ReadOnly, &mut self.inner.pool);
            self.inner.pages.entry_mut(p).prefetched = true;
        }
    }

    /// Predicted pages worth piggybacking on a fault at `page`, all
    /// homed at `home` and currently invalid here: confirmed-stride
    /// projections first, then pages recently invalidated by write
    /// notices (likely to fault again). Ascending and deduplicated —
    /// a pure function of deterministic protocol state.
    fn prefetch_candidates(&self, page: PageId, home: NodeId) -> Vec<PageId> {
        let depth = self.inner.cfg.prefetch_depth as usize;
        let n_pages = self.inner.pages.len() as i64;
        let mut out: Vec<PageId> = Vec::new();
        let want = |p: PageId, out: &mut Vec<PageId>| {
            if p == page || out.contains(&p) || out.len() >= depth {
                return;
            }
            let e = self.inner.pages.entry(p);
            if e.home == home
                && e.state == PageState::Invalid
                && !self.inner.pending_migration(p)
                && !self.inner.prefetch.in_flight(p)
            {
                out.push(p);
            }
        };
        if let Some(stride) = self.inner.prefetch.stride() {
            let mut p = i64::from(page);
            for _ in 0..depth {
                p += stride;
                if p < 0 || p >= n_pages {
                    break;
                }
                want(p as PageId, &mut out);
            }
        }
        if out.len() < depth {
            for &p in &self.inner.prefetch.recent_invalidated {
                want(p, &mut out);
            }
        }
        out.sort_unstable();
        out
    }

    // ---------------------------------------------------------------
    // Synchronization
    // ---------------------------------------------------------------

    /// Acquire a global lock.
    pub fn acquire(&mut self, lock: u32) {
        self.inner.sync_events += 1;
        if self.ft.in_recovery() {
            match self.ft.recovery_acquire(&mut self.inner, lock) {
                RecoveryStep::Replayed => {
                    self.inner.ctx.stats.lock_acquires += 1;
                    if !self.ft.in_recovery() {
                        self.exit_recovery();
                    }
                    return;
                }
                RecoveryStep::LogExhausted => self.exit_recovery(),
            }
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
            self.inner.replay_close_interval();
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
        if self.ft.in_recovery() {
            match self.ft.recovery_barrier(&mut self.inner, epoch) {
                RecoveryStep::Replayed => {
                    self.inner.barrier_epoch += 1;
                    self.inner.ctx.stats.barriers += 1;
                    if !self.ft.in_recovery() {
                        self.exit_recovery();
                    }
                    return;
                }
                RecoveryStep::LogExhausted => self.exit_recovery(),
            }
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
        let me = self.inner.me();
        let proposals = self.migration_proposals(epoch, &notices);
        if me == self.inner.cfg.barrier_manager() {
            let now = self.inner.ctx.now();
            let vc = self.inner.vc.clone();
            let mgr = self.inner.barrier_mgr.as_mut().expect("manager state");
            mgr.arrive(me, &vc, &notices, &proposals, now);
            // Gather the cluster: service traffic until everyone arrived.
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
            let merged_notices: Arc<[WriteNotice]> = std::mem::take(&mut mgr.merged_notices).into();
            let migrations: Arc<[HomeMigration]> = mgr.decided_migrations().into();
            mgr.record_released(
                epoch,
                Arc::clone(&merged_vc),
                Arc::clone(&merged_notices),
                Arc::clone(&migrations),
            );
            let straggler = mgr.straggler;
            let spread_ns = (mgr.latest_arrival - mgr.earliest_arrival).as_nanos();
            mgr.reset();
            self.inner.ctx.trace(TraceKind::BarrierReleased {
                epoch,
                straggler,
                spread_ns,
            });
            for node in 0..self.inner.cfg.n_nodes {
                if node != me {
                    self.inner
                        .ctx
                        .send_from(
                            release_time,
                            node,
                            Msg::BarrierRelease {
                                epoch,
                                vc: Arc::clone(&merged_vc),
                                notices: Arc::clone(&merged_notices),
                                migrations: Arc::clone(&migrations),
                            },
                        )
                        .expect("send barrier release");
                }
            }
            self.inner.ctx.wait_until(release_time);
            // The manager logs the (self-directed) release like everyone
            // else, so ML replay sees the same record stream.
            let own_release = Msg::BarrierRelease {
                epoch,
                vc: Arc::clone(&merged_vc),
                notices: Arc::clone(&merged_notices),
                migrations: Arc::clone(&migrations),
            };
            self.ft.on_incoming(&mut self.inner, &own_release);
            // Migrations before notices: a new home must own the page
            // before the notice loop decides what to invalidate.
            self.apply_migrations(epoch, &migrations);
            self.apply_sync_notices(SyncKind::Barrier(epoch), &merged_notices, &merged_vc);
        } else {
            let vc = self.inner.vc.clone();
            self.inner
                .ctx
                .send(
                    self.inner.cfg.barrier_manager(),
                    Msg::BarrierArrive {
                        epoch,
                        vc,
                        notices,
                        proposals,
                    },
                )
                .expect("send barrier arrive");
            let env =
                self.wait_for(|m| matches!(m, Msg::BarrierRelease { epoch: e, .. } if *e == epoch));
            self.ft.on_incoming(&mut self.inner, &env.payload);
            if let Msg::BarrierRelease {
                vc,
                notices,
                migrations,
                ..
            } = env.payload
            {
                self.apply_migrations(epoch, &migrations);
                self.apply_sync_notices(SyncKind::Barrier(epoch), &notices, &vc);
            }
        }
        self.inner.last_barrier_vc = self.inner.vc.clone();
        let lb = self.inner.last_barrier_vc.clone();
        self.inner.history.retain(|n| !lb.covers(n.interval));
        self.inner.ctx.stats.barriers += 1;
        self.inner.ctx.trace(TraceKind::BarrierExit { epoch });
        // The fence opens, but the lock requests it held back are not
        // serviced here: the caller may inject a crash the moment this
        // returns, and a grant made now would die with the lock table.
        // They go out at the next protocol entry (`drain_stalled`).
        self.inner.in_barrier = false;
    }

    // ---------------------------------------------------------------
    // Interval management
    // ---------------------------------------------------------------

    /// Close the current interval: create diffs for dirtied pages, flush
    /// them to their homes, wait for acks, and run the logging protocol's
    /// flush hooks. No-op (except the ML flush) when nothing was written.
    fn end_interval(&mut self) {
        self.pump();
        // ML flushes its volatile log of incoming messages before the
        // node communicates — fully on the critical path.
        let pre = self.ft.flush_before_send(&mut self.inner);
        if pre > SimDuration::ZERO {
            self.inner.ctx.charge_disk(pre);
        }
        let dirty = self.inner.pages.dirty_pages();
        if dirty.is_empty() {
            return;
        }
        let iv = self.inner.current_interval();
        self.inner.next_interval += 1;
        self.inner.vc.observe(iv);
        let page_size = self.inner.pages.page_size();

        let mut per_home: HashMap<NodeId, Vec<PageDiff>> = HashMap::new();
        let mut all_diffs: Vec<PageDiff> = Vec::new();
        let mut home_diffs: Vec<PageDiff> = Vec::new();
        for &p in &dirty {
            self.inner.history.push(WriteNotice {
                page: p,
                interval: iv,
            });
            let me = self.inner.me();
            let inner = &mut self.inner;
            let e = inner.pages.entry_mut(p);
            e.dirty = false;
            if e.home == me {
                // Home writes update the home copy in place; only the
                // version advances. With a logging protocol that needs
                // it, diff the home's own writes into the log set (but
                // never onto the wire).
                e.version.as_mut().expect("home version").observe(iv);
                if let Some(twin) = e.twin.take() {
                    let frame = e.frame.as_ref().expect("home frame");
                    let diff = PageDiff::create_in(p, &twin, frame, &mut inner.pool);
                    inner.pool.recycle_frame(twin.into_frame());
                    self.inner.ctx.charge_copy(2 * page_size);
                    if !diff.is_empty() {
                        home_diffs.push(diff);
                    }
                }
                continue;
            }
            let twin = e.twin.take().expect("dirty non-home page without twin");
            e.state = PageState::ReadOnly;
            let home = e.home;
            let frame = e.frame.as_ref().expect("dirty page without frame");
            let diff = PageDiff::create_in(p, &twin, frame, &mut inner.pool);
            inner.pool.recycle_frame(twin.into_frame());
            // Word-compare of page against twin plus encoding.
            self.inner.ctx.charge_copy(2 * page_size);
            self.inner.ctx.stats.diffs_created += 1;
            self.inner.ctx.stats.diff_bytes += diff.encoded_size() as u64;
            self.inner
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
        if !home_diffs.is_empty() {
            self.ft.on_home_diffs(&mut self.inner, iv, &home_diffs);
        }

        let n_flushes = per_home.len();
        // Flush in home order: the iteration feeds sends and trace
        // events, so it must not inherit HashMap iteration order.
        let mut per_home: Vec<_> = per_home.into_iter().collect();
        per_home.sort_unstable_by_key(|(home, _)| *home);
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
        // CCL issues its log flush here so the disk access proceeds in
        // parallel with the diff round-trips.
        let (post, overlappable) = self.ft.flush_after_send(&mut self.inner);
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
        if post > SimDuration::ZERO {
            if overlappable {
                let hidden = post.as_nanos().min(waited.as_nanos());
                self.inner.ctx.stats.disk_time_overlapped += SimDuration(hidden);
                let residual = post.saturating_sub(waited);
                if residual > SimDuration::ZERO {
                    self.inner.ctx.charge_disk(residual);
                }
            } else {
                self.inner.ctx.charge_disk(post);
            }
        }
    }

    /// Process incoming notices at an acquire/barrier: invalidate named
    /// remote copies, extend the notice history, merge the clock.
    fn apply_sync_notices(&mut self, kind: SyncKind, notices: &[WriteNotice], vc_in: &VClock) {
        let me = self.inner.me() as u32;
        // Freshness is judged against the clock as it stood *before*
        // this batch: several notices share one interval (one per page
        // written in it), and observing the interval at the first one
        // must not mask its siblings.
        let vc_before = self.inner.vc.clone();
        let mut fresh: Vec<WriteNotice> = Vec::new();
        let mut invalidated: BTreeSet<PageId> = BTreeSet::new();
        for n in notices {
            if vc_before.covers(n.interval) || fresh.contains(n) {
                continue;
            }
            fresh.push(*n);
            self.inner.vc.observe(n.interval);
            self.inner.history.push(*n);
            if n.interval.node != me && !self.inner.pages.is_home(n.page) {
                debug_assert!(
                    self.inner.pages.entry(n.page).twin.is_none(),
                    "invalidation of a page with an open twin: intervals \
                     must be delimited before notices are applied"
                );
                if self.inner.pages.entry(n.page).prefetched {
                    // Predicted copy invalidated before its first use:
                    // the prediction bought nothing but bytes.
                    self.inner.ctx.stats.prefetch_wasted += 1;
                    self.inner
                        .ctx
                        .trace(TraceKind::PrefetchWasted { page: n.page });
                }
                self.inner.pages.invalidate(n.page, &mut self.inner.pool);
                invalidated.insert(n.page);
            }
        }
        if !invalidated.is_empty() {
            // The freshest invalidation set replaces the previous one as
            // the notice-driven refetch predictor.
            self.inner.prefetch.recent_invalidated = invalidated;
        }
        self.inner.vc.join(vc_in);
        if !fresh.is_empty() {
            self.inner.ctx.trace(TraceKind::NoticesApplied {
                count: fresh.len() as u32,
            });
        }
        let vc = self.inner.vc.clone();
        self.ft.on_notices(&mut self.inner, kind, &fresh, &vc);
    }

    // ---------------------------------------------------------------
    // Home migration
    // ---------------------------------------------------------------

    /// Home-migration proposals this node piggybacks on its barrier
    /// arrival. Two deterministic sources:
    ///
    /// * **First touch** (epoch 0, [`HomePolicy::FirstTouch`]): every
    ///   page this node wrote in the first epoch but does not own —
    ///   the initial touch pattern, committed at the first barrier,
    ///   decides ownership instead of the static block layout.
    /// * **Adaptive** (migration windows, `cfg.adaptive_migration`):
    ///   a home page whose diff traffic since the last window is
    ///   dominated by one remote writer (strict majority of bytes)
    ///   is proposed to move to that writer.
    ///
    /// Pages migrate at most once (`migrated` blocks re-proposals), so
    /// adaptive placement cannot ping-pong.
    fn migration_proposals(&mut self, epoch: u32, notices: &[WriteNotice]) -> Vec<HomeMigration> {
        let me = self.inner.me() as u32;
        let mut out: Vec<HomeMigration> = Vec::new();
        if epoch == 0 && self.inner.cfg.home_policy == HomePolicy::FirstTouch {
            for n in notices {
                if n.interval.node != me {
                    continue;
                }
                let e = self.inner.pages.entry(n.page);
                if e.home as u32 != me && !e.migrated && !out.iter().any(|&(p, _)| p == n.page) {
                    out.push((n.page, me));
                }
            }
        }
        let window = std::mem::take(&mut self.inner.migration_window);
        if window && self.inner.cfg.adaptive_migration {
            let traffic = std::mem::take(&mut self.inner.diff_traffic);
            for (page, writers) in traffic {
                let e = self.inner.pages.entry(page);
                if e.home as u32 != me || e.migrated {
                    continue;
                }
                let total: u64 = writers.values().sum();
                // Strictly-greater wins, so BTreeMap order breaks byte
                // ties toward the lowest writer id — deterministic.
                let mut best_w = u32::MAX;
                let mut best_b = 0u64;
                for (&w, &b) in &writers {
                    if b > best_b {
                        best_b = b;
                        best_w = w;
                    }
                }
                if best_w != u32::MAX && best_w != me && best_b * 2 > total {
                    out.push((page, best_w));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Apply a barrier's committed migration list. Every node walks the
    /// *same sorted list in the same order*, so the cross-node handshake
    /// (old home sends [`Msg::HomeMigrate`], new home adopts) cannot
    /// deadlock: sends are non-blocking, adoptions are the only blocking
    /// entries, and by induction on the list index the first entry any
    /// node blocks on has already had its `HomeMigrate` dispatched.
    fn apply_migrations(&mut self, epoch: u32, migrations: &[HomeMigration]) {
        if migrations.is_empty() {
            return;
        }
        let me = self.inner.me();
        // Pass 1: reserve every page this node is adopting, so a racing
        // request stalls (see `service`) instead of being answered by a
        // home role that is mid-handover.
        for &(page, to) in migrations {
            if to as usize == me && self.inner.pages.entry(page).home != me {
                self.inner.pending_migrations.insert(page);
            }
        }
        for &(page, to) in migrations {
            let to = to as usize;
            let home = self.inner.pages.entry(page).home;
            if home == to {
                // Already applied — a replayed or re-delivered release
                // after a crash that preserved the post-migration
                // mapping. Idempotent skip.
                self.inner.pending_migrations.remove(&page);
                continue;
            }
            if to == me {
                // Adopt. In-migrations arrive in deterministic but
                // list-order-unrelated order, so absorb whichever
                // `HomeMigrate` comes until *this* page is in.
                while self.inner.pending_migration(page) {
                    let env = self.wait_for(|m| matches!(m, Msg::HomeMigrate { .. }));
                    self.adopt_migrated(env);
                }
                if epoch == 0 {
                    // First-touch adoption: pre-checkpoint truth is the
                    // zero-initialized page, not the transfer image.
                    self.inner.pages.zero_base(page);
                }
            } else if home == me {
                let page_size = self.inner.pages.page_size();
                let e = self.inner.pages.entry(page);
                let data = SharedBytes::copy_of(e.frame.as_ref().expect("home frame").bytes());
                let version = e.version.clone().expect("home version");
                self.inner.ctx.charge_copy(page_size);
                self.inner
                    .ctx
                    .send(
                        to,
                        Msg::HomeMigrate {
                            page,
                            data,
                            version,
                        },
                    )
                    .expect("send home migrate");
                self.inner.pages.demote_home(page, to);
                self.inner.ctx.stats.home_migrations += 1;
                self.inner
                    .ctx
                    .trace(TraceKind::HomeMigrated { page, from: me, to });
            } else {
                self.inner.pages.note_migrated(page, to);
            }
        }
        debug_assert!(
            self.inner.pending_migrations.is_empty(),
            "unadopted migrations left at node {me}"
        );
        self.drain_stalled(self.inner.ctx.now());
    }

    /// Absorb one [`Msg::HomeMigrate`]: log it (ML replays adoptions
    /// from these records), install the transferred home copy, and
    /// clear the page's reservation.
    fn adopt_migrated(&mut self, env: Envelope<Msg>) {
        self.ft.on_incoming(&mut self.inner, &env.payload);
        let Msg::HomeMigrate {
            page,
            data,
            version,
        } = env.payload
        else {
            unreachable!()
        };
        debug_assert!(
            self.inner.pending_migrations.contains(&page),
            "unsolicited home migrate for page {page}"
        );
        self.inner.ctx.charge_copy(data.len());
        self.inner.pages.adopt_home(page, &data, version);
        self.inner.pending_migrations.remove(&page);
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
    fn drain_stalled(&mut self, not_before: SimTime) {
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
    /// Answer a [`Msg::RecoveryPageRequest`] for a page homed here,
    /// finishing service at `done`.
    ///
    /// `mid_replay` says whether this home is itself replaying its log:
    /// then it must not hand out its live frame (which may still be
    /// behind `required`, missing intervals the requester already
    /// replayed) and serves the checkpoint base as "advanced" instead,
    /// making the requester reconstruct the page from the writers'
    /// stable logs — correct at any replay point. Callable both from
    /// the live service loop and from a recovering node's own fetch
    /// waits (concurrently recovering nodes must keep serving each
    /// other or they deadlock).
    pub fn serve_recovery_page(
        &mut self,
        env: &Envelope<Msg>,
        done: SimTime,
        mid_replay: bool,
        home_write_twins: bool,
        stable_base: bool,
    ) {
        let Msg::RecoveryPageRequest { page, required } = &env.payload else {
            return;
        };
        let page = *page;
        debug_assert!(self.pages.is_home(page));
        // Inspect the open-interval state *before* the fetch
        // bookkeeping: a first fetch landing mid-interval promotes the
        // live frame (open writes included) into the base and twins
        // it, and neither of those images may be handed to a replaying
        // peer as the state at `version`.
        let (was_dirty, had_twin) = {
            let e = self.pages.entry(page);
            (e.dirty, e.twin.is_some())
        };
        self.pages
            .note_remote_fetch(page, env.src, home_write_twins, stable_base);
        let e = self.pages.entry(page);
        let version = e.version.clone().expect("home version");
        // The live frame equals the state named by `version` only while
        // no interval is open on the page: open-interval words are in
        // the frame but in no version a replaying peer can require, and
        // how many of them exist depends on real scheduling (the
        // request is serviced at whichever blocking point this node
        // happens to reach). Serving them would leak a survivor's
        // in-progress writes into the peer's replay. A dirty page is
        // served from its interval-open twin — exactly the state at
        // `version` — and without one the stable-base path below makes
        // the peer reconstruct from logged diffs instead.
        let (advanced, data, version) =
            if !mid_replay && version.dominated_by(required) && (!was_dirty || had_twin) {
                let image = if was_dirty {
                    e.twin.as_ref().expect("interval-open twin").frame()
                } else {
                    e.frame.as_ref().expect("home frame")
                };
                (false, SharedBytes::copy_of(image.bytes()), version)
            } else {
                (
                    true,
                    SharedBytes::copy_of(e.base.as_ref().expect("home base").bytes()),
                    e.base_version.clone().expect("base version"),
                )
            };
        let copy_cost = self.ctx.cost.cpu.copy(data.len());
        self.ctx
            .send_from(
                done + copy_cost,
                env.src,
                Msg::RecoveryPageReply {
                    page,
                    advanced,
                    data,
                    version,
                },
            )
            .expect("send recovery page reply");
    }

    /// Answer a [`Msg::RecoveryHello`], finishing service at `done`:
    /// tell the recovering peer which pages homed here it ever fetched
    /// (its replay will touch exactly those again), and whether that
    /// record is complete. Read-only on volatile directory state, so a
    /// home that is itself replaying can answer.
    pub fn serve_recovery_hello(&mut self, env: &Envelope<Msg>, done: SimTime) {
        let reply = Msg::RecoveryHelloReply {
            held: self.pages.held_by(env.src),
            complete: self.pages.copysets_complete(),
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
        let releases = self
            .barrier_mgr
            .as_ref()
            .map(|m| m.release_history())
            .unwrap_or_default();
        let reply = Msg::ReleaseHistoryReply { releases };
        let copy_cost = self.ctx.cost.cpu.copy(reply.encoded_size());
        self.ctx
            .send_from(done + copy_cost, env.src, reply)
            .expect("send release history reply");
    }
}

/// The engine runs the HLRC node: the pump, the reply-while-blocked
/// loop, and the crash/resume lifecycle come from
/// [`CoherenceProtocol`]; this impl supplies only message service and
/// the recovery deferral predicate.
impl CoherenceProtocol<Msg> for HlrcNode {
    fn ctx(&mut self) -> &mut NodeCtx<Msg> {
        &mut self.inner.ctx
    }

    /// True while replaying from the log after a crash: serving a peer
    /// from a half-restored memory image would hand out corrupt data.
    fn deferring(&self) -> bool {
        self.ft.in_recovery()
    }

    /// Recovery-class requests are exempt from deferral: they are
    /// answered from stable state (the base image and the stable log)
    /// or from directory state (the copysets), never from the
    /// half-restored frames, so a replaying node can still serve them.
    /// Without this, two nodes recovering at once would defer each
    /// other's requests and deadlock.
    fn must_defer(&self, payload: &Msg) -> bool {
        self.ft.in_recovery()
            && !matches!(
                payload,
                Msg::RecoveryPageRequest { .. }
                    | Msg::LoggedDiffRequest { .. }
                    | Msg::ReleaseHistoryRequest
                    | Msg::RecoveryHello
            )
    }

    /// Service one asynchronous protocol message. `deferred` marks
    /// messages replayed after recovery, whose service time is "now"
    /// rather than their (long past) arrival time.
    fn service(&mut self, env: Envelope<Msg>, deferred: bool) {
        if !self.inner.in_barrier {
            // Out of the barrier: what the epoch fence held back goes
            // first, it arrived first.
            self.drain_stalled(env.arrive_at);
        }
        // Traffic touching a page whose adoption this node has announced
        // but not completed must wait: the old copy is stale and the new
        // home has nothing to serve yet. So must a lock request from a
        // node that already left a barrier this node is still inside
        // (the epoch fence, see `NodeInner::completed_barriers`).
        // Stalled envelopes are re-serviced by `drain_stalled`.
        let stall = match &env.payload {
            Msg::PageRequest { page } => self.inner.pending_migration(*page),
            Msg::PageRequestBatch { page, extras } => {
                self.inner.pending_migration(*page)
                    || extras.iter().any(|p| self.inner.pending_migration(*p))
            }
            Msg::DiffFlush { diffs, .. } => {
                diffs.iter().any(|d| self.inner.pending_migration(d.page))
            }
            Msg::LockRequest { epoch, .. } => *epoch > self.inner.completed_barriers(),
            _ => false,
        };
        if stall {
            self.inner.stalled_requests.push(env);
            return;
        }
        let handler = self.inner.ctx.cost.cpu.message_handler;
        let done = self.inner.ctx.async_service_base(&env, deferred) + handler;
        // DiffFlush is handled by value (not through the shared match on
        // `&env.payload`) so the run buffers of every applied diff can be
        // recycled into the pool instead of freed.
        if matches!(env.payload, Msg::DiffFlush { .. }) {
            self.ft.on_incoming(&mut self.inner, &env.payload);
            let src = env.src;
            let Msg::DiffFlush { writer, diffs } = env.payload else {
                unreachable!()
            };
            if self.inner.cfg.adaptive_migration {
                // Per-(page, writer) byte profile driving adaptive home
                // migration at the next migration window.
                for d in &diffs {
                    *self
                        .inner
                        .diff_traffic
                        .entry(d.page)
                        .or_default()
                        .entry(writer.node)
                        .or_default() += d.encoded_size() as u64;
                }
            }
            let payload: usize = diffs.iter().map(|d| d.encoded_size()).sum();
            let copy_cost = self.inner.ctx.cost.cpu.copy(payload);
            let mut pages = Vec::with_capacity(diffs.len());
            for d in diffs {
                self.inner.pages.apply_home_diff(&d, writer);
                pages.push(d.page);
                self.inner.pool.recycle_diff(d);
            }
            self.ft.on_updates_applied(&mut self.inner, writer, &pages);
            // Write-ahead gate: the ack tells the writer it may discard
            // its diff, so a protocol whose log is the only remaining
            // copy must persist the staged record first (see
            // [`FaultTolerance::flush_before_ack`]).
            let wal = self.ft.flush_before_ack(&mut self.inner);
            if wal > SimDuration::ZERO {
                self.inner.ctx.charge_disk(wal);
            }
            self.inner
                .ctx
                .send_from(done + copy_cost + wal, src, Msg::DiffAck { writer })
                .expect("send diff ack");
            return;
        }
        match &env.payload {
            Msg::PageRequest { page } => {
                let page = *page;
                debug_assert!(self.inner.pages.is_home(page), "page request at non-home");
                self.inner.pages.note_remote_fetch(
                    page,
                    env.src,
                    self.ft.needs_home_write_twins(),
                    self.ft.logs_home_diffs_durably(),
                );
                let e = self.inner.pages.entry(page);
                let data = SharedBytes::copy_of(e.frame.as_ref().expect("home frame").bytes());
                let version = e.version.clone().expect("home version");
                let copy_cost = self.inner.ctx.cost.cpu.copy(data.len());
                self.inner
                    .ctx
                    .send_from(
                        done + copy_cost,
                        env.src,
                        Msg::PageReply {
                            page,
                            data,
                            version,
                        },
                    )
                    .expect("send page reply");
            }
            Msg::PageRequestBatch { page, extras } => {
                let page = *page;
                let extras = extras.clone();
                let copy_of = |inner: &mut NodeInner, p: PageId| -> PageCopy {
                    debug_assert!(inner.pages.is_home(p), "batch page request at non-home");
                    let e = inner.pages.entry(p);
                    let data = SharedBytes::copy_of(e.frame.as_ref().expect("home frame").bytes());
                    let version = e.version.clone().expect("home version");
                    (p, data, version)
                };
                // The demand page first, as an ordinary reply with the
                // exact single-fetch timing: the requester's stall never
                // grows with the prediction depth.
                self.inner.pages.note_remote_fetch(
                    page,
                    env.src,
                    self.ft.needs_home_write_twins(),
                    self.ft.logs_home_diffs_durably(),
                );
                let (_, data, version) = copy_of(&mut self.inner, page);
                let demand_cost = self.inner.ctx.cost.cpu.copy(data.len());
                self.inner
                    .ctx
                    .send_from(
                        done + demand_cost,
                        env.src,
                        Msg::PageReply {
                            page,
                            data,
                            version,
                        },
                    )
                    .expect("send page reply");
                // Predicted extras trail in one batch, copied by the
                // communication processor after the demand reply is on
                // the wire.
                if !extras.is_empty() {
                    let mut copies: Vec<PageCopy> = Vec::with_capacity(extras.len());
                    let mut total = 0usize;
                    for p in extras {
                        self.inner.pages.note_remote_fetch(
                            p,
                            env.src,
                            self.ft.needs_home_write_twins(),
                            self.ft.logs_home_diffs_durably(),
                        );
                        let copy = copy_of(&mut self.inner, p);
                        total += copy.1.len();
                        copies.push(copy);
                    }
                    let extras_cost = self.inner.ctx.cost.cpu.copy(total);
                    self.inner
                        .ctx
                        .send_from(
                            done + demand_cost + extras_cost,
                            env.src,
                            Msg::PageReplyBatch {
                                after: page,
                                pages: copies,
                            },
                        )
                        .expect("send page reply batch");
                }
            }
            Msg::PageReplyBatch { .. } => self.install_prefetch_batch(env),
            Msg::HomeMigrate { .. } => {
                // An in-migration serviced outside `apply_migrations`'
                // own receive loop (it was absorbed while waiting for a
                // different pending page's envelope — `wait_for` matches
                // any `HomeMigrate`, so this arm only fires for pages
                // still reserved).
                debug_assert!(
                    matches!(
                        &env.payload,
                        Msg::HomeMigrate { page, .. } if self.inner.pending_migration(*page)
                    ),
                    "home migrate outside an adoption window"
                );
                self.adopt_migrated(env);
            }
            Msg::LockRequest { lock, vc, .. } => {
                let lock = *lock;
                debug_assert_eq!(
                    self.inner.cfg.lock_manager(lock),
                    self.inner.me(),
                    "lock request at non-manager"
                );
                let st = self.inner.locks.state_mut(lock);
                if st.held {
                    st.queue.push_back(PendingAcquire {
                        node: env.src,
                        vc: vc.clone(),
                        arrive: env.arrive_at,
                    });
                } else {
                    st.held = true;
                    let grant_at = done.max(st.last_release + handler);
                    let notices = st.notices_for(vc);
                    let lvc = Arc::new(st.vc.clone());
                    let holder = st.record_grant(env.src);
                    self.inner.ctx.trace(TraceKind::LockGranted {
                        lock,
                        to: env.src,
                        holder,
                    });
                    self.inner
                        .ctx
                        .send_from(
                            grant_at,
                            env.src,
                            Msg::LockGrant {
                                lock,
                                vc: lvc,
                                notices,
                            },
                        )
                        .expect("send lock grant");
                }
            }
            Msg::LockRelease { lock, vc, notices } => {
                let lock = *lock;
                let st = self.inner.locks.state_mut(lock);
                st.record_release(vc, notices, env.arrive_at);
                if let Some(next) = st.queue.pop_front() {
                    st.held = true;
                    let grant_at = done.max(next.arrive + handler);
                    let out_notices = st.notices_for(&next.vc);
                    let lvc = Arc::new(st.vc.clone());
                    let holder = st.record_grant(next.node);
                    self.inner.ctx.trace(TraceKind::LockGranted {
                        lock,
                        to: next.node,
                        holder,
                    });
                    self.inner
                        .ctx
                        .send_from(
                            grant_at,
                            next.node,
                            Msg::LockGrant {
                                lock,
                                vc: lvc,
                                notices: out_notices,
                            },
                        )
                        .expect("send queued lock grant");
                }
            }
            Msg::BarrierArrive {
                epoch,
                vc,
                notices,
                proposals,
            } => {
                debug_assert_eq!(
                    self.inner.me(),
                    self.inner.cfg.barrier_manager(),
                    "barrier arrive at non-manager"
                );
                // A node re-executing after a degraded recovery arrives
                // at epochs the cluster already completed: answer from
                // the release history instead of gathering.
                let past = self
                    .inner
                    .barrier_mgr
                    .as_ref()
                    .expect("barrier manager state")
                    .past_release(*epoch)
                    .map(|(rvc, rn, rm)| (Arc::clone(rvc), Arc::clone(rn), Arc::clone(rm)));
                if let Some((rvc, rnotices, rmigrations)) = past {
                    self.inner
                        .ctx
                        .send_from(
                            done,
                            env.src,
                            Msg::BarrierRelease {
                                epoch: *epoch,
                                vc: rvc,
                                notices: rnotices,
                                migrations: rmigrations,
                            },
                        )
                        .expect("re-send barrier release");
                    return;
                }
                // If the manager is already inside barrier(), its own
                // epoch counter has advanced past the arrivals' epoch.
                debug_assert!(
                    *epoch == self.inner.barrier_epoch || *epoch + 1 == self.inner.barrier_epoch,
                    "barrier epoch skew: arrival {} vs manager {}",
                    epoch,
                    self.inner.barrier_epoch
                );
                let at = env.arrive_at;
                self.inner
                    .barrier_mgr
                    .as_mut()
                    .expect("barrier manager state")
                    .arrive(env.src, vc, notices, proposals, at);
            }
            Msg::RecoveryPageRequest { .. } => {
                let mid_replay = self.ft.in_recovery();
                let twins = self.ft.needs_home_write_twins();
                let stable = self.ft.logs_home_diffs_durably();
                self.inner
                    .serve_recovery_page(&env, done, mid_replay, twins, stable);
            }
            Msg::LoggedDiffRequest { .. } => {
                self.ft.serve_logged_diffs(&mut self.inner, &env);
            }
            Msg::ReleaseHistoryRequest => {
                self.inner.serve_release_history(&env, done);
            }
            Msg::RecoveryHello => {
                self.inner.serve_recovery_hello(&env, done);
                self.ft.on_recovery_hello(&mut self.inner, done);
            }
            other => unreachable!(
                "unexpected asynchronous message {} at node {}",
                other.kind(),
                self.inner.me()
            ),
        }
    }
}

impl HlrcNode {
    // ---------------------------------------------------------------
    // Crash / recovery entry
    // ---------------------------------------------------------------

    /// Simulate a crash of this node, noticed by the cluster after
    /// `detection`: volatile state (page frames, clocks, manager
    /// tables) reverts to the last checkpoint image; stable storage
    /// survives. The fault-tolerance layer then prepares replay. The
    /// caller restarts the application program.
    pub fn crash_and_reset(&mut self, detection: SimDuration) {
        let n = self.inner.cfg.n_nodes;
        self.inner.ctx.mark_crashed(detection);
        self.inner.pages.reset_to_base();
        self.inner.vc = VClock::new(n);
        self.inner.next_interval = 0;
        self.inner.history.clear();
        self.inner.last_barrier_vc = VClock::new(n);
        self.inner.locks.clear();
        if let Some(mgr) = self.inner.barrier_mgr.as_mut() {
            *mgr = BarrierMgr::new(n);
        }
        self.inner.lock_grant_vcs.clear();
        self.inner.barrier_epoch = 0;
        self.inner.sync_events = 0;
        self.inner.prefetch = PrefetchState::default();
        self.inner.diff_traffic.clear();
        self.inner.pending_migrations.clear();
        self.inner.in_barrier = false;
        // Stalled requests are the senders' only copy: they wait out
        // the replay with the rest of the deferred traffic.
        for env in std::mem::take(&mut self.inner.stalled_requests) {
            self.inner.ctx.defer(env);
        }
        self.inner.migration_window = false;
        self.ft.begin_recovery(&mut self.inner);
        if !self.ft.in_recovery() {
            // Nothing to replay — no protocol log, an empty log, or a
            // failed log device (degraded recovery). Live re-execution
            // starts right away, so recovery formally ends here; without
            // this stamp `recovery_exit` would never be set.
            self.exit_recovery();
        }
    }

    /// Leave recovery: give the fault-tolerance layer its last word
    /// (home-copy repair from surviving logs, see
    /// [`FaultTolerance::finish_recovery`]) and only then go live and
    /// service the traffic deferred during replay — survivors must
    /// never be handed a page the repair pass was about to fix.
    fn exit_recovery(&mut self) {
        self.ft.finish_recovery(&mut self.inner);
        self.resume_live();
    }

    /// Total encoded bytes of a message (diagnostics helper).
    pub fn msg_bytes(msg: &Msg) -> usize {
        msg.encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::run_cluster;

    /// A logger stub that wants home-write twins (like CCL) but logs
    /// nothing; enough to exercise the recovery-page serving paths.
    struct TwinningStub;

    impl FaultTolerance for TwinningStub {
        fn name(&self) -> &'static str {
            "twinning-stub"
        }
        fn needs_home_write_twins(&self) -> bool {
            true
        }
    }

    /// A recovery fetch serviced while the home has an *open* interval
    /// on the page must return the last committed state (the
    /// interval-open twin), never the live frame: the open-interval
    /// words are in no version the replaying peer can have required,
    /// and their extent depends on real scheduling. Pre-fix, the home
    /// served the live frame whenever its version was dominated by
    /// `required`, leaking the in-progress write below (0xA2) into the
    /// peer's replay.
    #[test]
    fn recovery_fetch_of_a_dirty_home_page_serves_the_committed_state() {
        let cfg = DsmConfig::new(2, 4).with_page_size(256);
        let out = run_cluster(2, cfg.cost, move |ctx| {
            let me = ctx.id();
            let mut node = HlrcNode::new(ctx, cfg, Box::new(TwinningStub));
            if me == 0 {
                // Commit 0xA1 on the locally-homed page 0, then let
                // node 1 install a copy (its fetch is serviced inside
                // the barrier gather loops).
                node.write_u64(8, 0xA1);
                node.barrier();
                node.barrier();
                // Open a new interval on the page: the first write
                // snapshots the committed state into the twin.
                node.write_u64(8, 0xA2);
                // Signal node 1 that the interval is open, then serve
                // its recovery fetch while still mid-interval.
                node.inner
                    .ctx
                    .send(
                        1,
                        Msg::DiffAck {
                            writer: IntervalId { node: 0, seq: 0 },
                        },
                    )
                    .expect("send go signal");
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryPageRequest { .. }));
                let done = node.inner.ctx.service_time(&env);
                node.inner
                    .serve_recovery_page(&env, done, false, true, false);
                node.barrier();
                (false, 0)
            } else {
                node.barrier();
                let committed = node.read_u64(8);
                node.barrier();
                let required = node.inner.vc.clone();
                node.wait_for(|m| matches!(m, Msg::DiffAck { .. }));
                node.inner
                    .ctx
                    .send(0, Msg::RecoveryPageRequest { page: 0, required })
                    .expect("send recovery fetch");
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryPageReply { .. }));
                let Msg::RecoveryPageReply { advanced, data, .. } = env.payload else {
                    unreachable!()
                };
                let word = u64::from_le_bytes(data[8..16].try_into().unwrap());
                node.barrier();
                assert_eq!(committed, 0xA1);
                (advanced, word)
            }
        });
        let (advanced, word) = out[1];
        assert!(!advanced, "the home never closed the open interval");
        assert_eq!(
            word, 0xA1,
            "recovery fetch leaked the home's open-interval write"
        );
    }
}
