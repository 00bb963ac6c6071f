//! Homeless lazy release consistency — the original TreadMarks protocol
//! that the paper's authors *modified into* home-based HLRC.
//!
//! The paper's §2 motivates home-based DSM by contrast with this
//! protocol: without homes,
//!
//! * every writer must **retain** the diffs of every interval (they are
//!   the only record of its modifications), so memory for coherence
//!   state grows until garbage-collected — the home-based protocol
//!   discards a diff as soon as the home acks it;
//! * bringing a copy up to date needs diff requests to potentially
//!   **many** concurrent writers, not one round trip to a home;
//! * write notices must carry enough ordering information to apply
//!   those diffs in happens-before order.
//!
//! This implementation is intentionally a faithful-but-lean homeless
//! LRC: eager diffing at interval end (TreadMarks' lazy diffing is an
//! optimization of the same protocol), no garbage collection (the paper
//! notes home-based needs none; here the archive growth is exactly the
//! cost we want to measure), and full-page seeding from the page's
//! initial owner. It shares the substrate (`simnet`, `pagemem`) with
//! HLRC and nothing else.
//!
//! **Contract: reference code, not a product path.** Nothing in
//! `ccl-core`, the logging protocols or the applications runs on it.
//! Its job is to be the *differential oracle* for the home-based
//! protocol: `crates/hlrc/tests/engine.rs`
//! (`hlrc_and_homeless_agree_on_random_schedules`) drives `HlrcNode` and
//! [`HomelessNode`] through the same random data-race-free schedules
//! and requires identical digests on every node — two independently
//! written coherence protocols that must agree on what release
//! consistency means. (`report` additionally runs `ccl-bench`'s
//! stripe+halo kernel on both protocols and gates the message-count and
//! diff-retention comparison of the paper's §2 — EXPERIMENTS.md
//! §"Home-based vs homeless LRC".) A simplification pass may shrink it
//! but must not merge it into `node.rs`: an oracle that shares logic
//! with what it checks checks nothing.

use std::collections::HashMap;

use pagemem::{
    Access, BufferPool, ByteReader, CodecError, Decode, Encode, Fault, IntervalId, PageDiff,
    PageFrame, PageId, PageState, SharedBytes, Sink, Twin, VClock,
};
use simnet::{CoherenceProtocol, Envelope, NodeCtx, NodeId, TraceKind, WireSized};

use crate::config::DsmConfig;
use crate::msg::{decode_ids, decode_notices, encode_notices, WriteNotice};
use crate::sync::{BarrierMgr, LockTable, PendingAcquire};

/// Messages of the homeless protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum HMsg {
    /// Fetch a full (possibly stale) copy of `page` from its initial
    /// owner, together with the vector timestamp it reflects.
    CopyRequest {
        /// Requested page.
        page: PageId,
    },
    /// The owner's copy and the intervals it reflects.
    CopyReply {
        /// The page.
        page: PageId,
        /// Full contents (refcounted: cloning the message shares them).
        data: SharedBytes,
        /// Which writer intervals `data` already includes.
        applied: VClock,
    },
    /// Ask a writer for its retained diffs of `page` for the given
    /// interval sequence numbers.
    DiffRequest {
        /// The page.
        page: PageId,
        /// Wanted interval sequence numbers (the writer's numbering).
        seqs: Vec<u32>,
    },
    /// The retained diffs.
    DiffReply {
        /// The page.
        page: PageId,
        /// (interval, diff) pairs, in the writer's interval order.
        diffs: Vec<(IntervalId, PageDiff)>,
    },
    /// Lock request/grant/release and barrier messages, as in HLRC.
    LockRequest {
        /// The lock.
        lock: u32,
        /// Acquirer clock.
        vc: VClock,
    },
    /// Lock grant with piggybacked notices.
    LockGrant {
        /// The lock.
        lock: u32,
        /// Lock timestamp.
        vc: VClock,
        /// Notices the acquirer lacks.
        notices: Vec<WriteNotice>,
    },
    /// Lock release carrying fresh notices.
    LockRelease {
        /// The lock.
        lock: u32,
        /// Releaser clock.
        vc: VClock,
        /// Fresh notices.
        notices: Vec<WriteNotice>,
    },
    /// Barrier arrival.
    BarrierArrive {
        /// Episode.
        epoch: u32,
        /// Clock.
        vc: VClock,
        /// Fresh notices.
        notices: Vec<WriteNotice>,
    },
    /// Barrier release.
    BarrierRelease {
        /// Episode.
        epoch: u32,
        /// Merged clock.
        vc: VClock,
        /// Merged notices.
        notices: Vec<WriteNotice>,
    },
}

impl HMsg {
    /// The wire tag.
    fn ordinal(&self) -> usize {
        match self {
            HMsg::CopyRequest { .. } => 0,
            HMsg::CopyReply { .. } => 1,
            HMsg::DiffRequest { .. } => 2,
            HMsg::DiffReply { .. } => 3,
            HMsg::LockRequest { .. } => 4,
            HMsg::LockGrant { .. } => 5,
            HMsg::LockRelease { .. } => 6,
            HMsg::BarrierArrive { .. } => 7,
            HMsg::BarrierRelease { .. } => 8,
        }
    }
}

/// Label of each [`HMsg`] wire tag.
const HMSG_LABELS: [&str; 9] = [
    "CopyRequest",
    "CopyReply",
    "DiffRequest",
    "DiffReply",
    "LockRequest",
    "LockGrant",
    "LockRelease",
    "BarrierArrive",
    "BarrierRelease",
];

impl Encode for HMsg {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_u8(self.ordinal() as u8);
        match self {
            HMsg::CopyRequest { page } => w.put_u32(*page),
            HMsg::CopyReply {
                page,
                data,
                applied,
            } => {
                w.put_u32(*page);
                w.put_bytes(data);
                applied.encode(w);
            }
            HMsg::DiffRequest { page, seqs } => {
                w.put_u32(*page);
                w.put_u32(seqs.len() as u32);
                for s in seqs {
                    w.put_u32(*s);
                }
            }
            HMsg::DiffReply { page, diffs } => {
                w.put_u32(*page);
                w.put_u32(diffs.len() as u32);
                for (iv, d) in diffs {
                    iv.encode(w);
                    d.encode(w);
                }
            }
            HMsg::LockRequest { lock, vc } => {
                w.put_u32(*lock);
                vc.encode(w);
            }
            HMsg::LockGrant { lock, vc, notices } | HMsg::LockRelease { lock, vc, notices } => {
                w.put_u32(*lock);
                vc.encode(w);
                encode_notices(w, notices);
            }
            HMsg::BarrierArrive { epoch, vc, notices }
            | HMsg::BarrierRelease { epoch, vc, notices } => {
                w.put_u32(*epoch);
                vc.encode(w);
                encode_notices(w, notices);
            }
        }
    }
}

impl Decode for HMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => HMsg::CopyRequest { page: r.get_u32()? },
            1 => HMsg::CopyReply {
                page: r.get_u32()?,
                data: r.get_bytes()?.into(),
                applied: VClock::decode(r)?,
            },
            2 => HMsg::DiffRequest {
                page: r.get_u32()?,
                seqs: decode_ids(r)?,
            },
            3 => {
                let page = r.get_u32()?;
                let n = r.get_u32()? as usize;
                // Interval id, then a diff's page id and run count.
                let mut diffs = Vec::with_capacity(r.capacity_for(n, 8 + 4 + 2));
                for _ in 0..n {
                    diffs.push((IntervalId::decode(r)?, PageDiff::decode(r)?));
                }
                HMsg::DiffReply { page, diffs }
            }
            4 => HMsg::LockRequest {
                lock: r.get_u32()?,
                vc: VClock::decode(r)?,
            },
            5 => HMsg::LockGrant {
                lock: r.get_u32()?,
                vc: VClock::decode(r)?,
                notices: decode_notices(r)?,
            },
            6 => HMsg::LockRelease {
                lock: r.get_u32()?,
                vc: VClock::decode(r)?,
                notices: decode_notices(r)?,
            },
            7 => HMsg::BarrierArrive {
                epoch: r.get_u32()?,
                vc: VClock::decode(r)?,
                notices: decode_notices(r)?,
            },
            8 => HMsg::BarrierRelease {
                epoch: r.get_u32()?,
                vc: VClock::decode(r)?,
                notices: decode_notices(r)?,
            },
            t => {
                return Err(CodecError::BadTag {
                    context: "HMsg",
                    tag: t,
                })
            }
        })
    }
}

impl WireSized for HMsg {
    fn wire_size(&self) -> usize {
        crate::msg::HEADER_BYTES + self.encoded_size()
    }

    fn msg_label(&self) -> &'static str {
        HMSG_LABELS[self.ordinal()]
    }
}

struct HPage {
    /// Initial owner (serves full seed copies); pages are distributed
    /// exactly like HLRC homes so comparisons are apples-to-apples.
    owner: NodeId,
    state: PageState,
    frame: Option<PageFrame>,
    twin: Option<Twin>,
    /// Writer intervals already reflected in `frame`.
    applied: VClock,
    /// All write notices known for this page, in learn order
    /// (happens-before consistent).
    notices: Vec<WriteNotice>,
    dirty: bool,
}

/// A homeless-LRC DSM node.
pub struct HomelessNode {
    /// The node's machine.
    pub ctx: NodeCtx<HMsg>,
    cfg: DsmConfig,
    pages: Vec<HPage>,
    vc: VClock,
    next_interval: u32,
    history: Vec<WriteNotice>,
    last_barrier_vc: VClock,
    locks: LockTable,
    barrier_mgr: Option<BarrierMgr>,
    lock_grant_vcs: HashMap<u32, VClock>,
    barrier_epoch: u32,
    /// The retained diff archive: (page, own interval seq) → diff.
    /// This is the memory the paper says home-based DSM does not need.
    archive: HashMap<(PageId, u32), PageDiff>,
    /// Bytes currently held in the archive (reported by the bench).
    pub archive_bytes: usize,
    /// Free list recycling twin frames and seeded copies. Archive diffs
    /// never return to it (they are retained forever — the protocol's
    /// defining cost), so only page-sized frames circulate.
    pool: BufferPool,
}

impl HomelessNode {
    /// Build a homeless node over the same configuration type as HLRC.
    pub fn new(ctx: NodeCtx<HMsg>, cfg: DsmConfig) -> HomelessNode {
        let me = ctx.id();
        let n = cfg.n_nodes;
        let page_size = cfg.layout.page_size();
        let pages = (0..cfg.n_pages)
            .map(|p| {
                let owner = cfg.home_of(p);
                HPage {
                    owner,
                    state: if owner == me {
                        PageState::ReadOnly
                    } else {
                        PageState::Invalid
                    },
                    frame: (owner == me).then(|| PageFrame::zeroed(page_size)),
                    twin: None,
                    applied: VClock::new(n),
                    notices: Vec::new(),
                    dirty: false,
                }
            })
            .collect();
        HomelessNode {
            cfg,
            pages,
            vc: VClock::new(n),
            next_interval: 0,
            history: Vec::new(),
            last_barrier_vc: VClock::new(n),
            locks: LockTable::new(n),
            barrier_mgr: (me == 0).then(|| BarrierMgr::new(n)),
            lock_grant_vcs: HashMap::new(),
            barrier_epoch: 0,
            archive: HashMap::new(),
            archive_bytes: 0,
            pool: BufferPool::new(page_size),
            ctx,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.ctx.id()
    }

    fn locate(&self, addr: usize) -> (PageId, usize) {
        let l = self.cfg.layout;
        (l.page_of(addr), l.offset_of(addr))
    }

    /// Read a u64 from the shared space.
    pub fn read_u64(&mut self, addr: usize) -> u64 {
        let (p, off) = self.locate(addr);
        self.ensure_access(p, Access::Read);
        self.pages[p as usize]
            .frame
            .as_ref()
            .expect("frame after ensure")
            .read_u64(off)
    }

    /// Write a u64 to the shared space.
    pub fn write_u64(&mut self, addr: usize, v: u64) {
        let (p, off) = self.locate(addr);
        self.ensure_access(p, Access::Write);
        self.pages[p as usize]
            .frame
            .as_mut()
            .expect("frame after ensure")
            .write_u64(off, v);
    }

    fn ensure_access(&mut self, page: PageId, access: Access) {
        let state = self.pages[page as usize].state;
        match state.fault_for(access) {
            None => {}
            Some(fault) => {
                let trap = self.ctx.cost.cpu.fault_trap;
                self.ctx.charge_overhead(trap);
                match fault {
                    Fault::ReadMiss => {
                        self.ctx.stats.read_faults += 1;
                        self.ctx.trace(TraceKind::ReadFault { page });
                    }
                    _ => {
                        self.ctx.stats.write_faults += 1;
                        self.ctx.trace(TraceKind::WriteFault { page });
                    }
                }
                if matches!(fault, Fault::ReadMiss | Fault::WriteMiss) {
                    self.validate_page(page);
                }
                if access == Access::Write {
                    let page_size = self.cfg.layout.page_size();
                    self.ctx.charge_copy(page_size);
                    self.ctx.stats.twins_created += 1;
                    let e = &mut self.pages[page as usize];
                    e.twin = Some(Twin::of_with(
                        e.frame.as_ref().expect("frame"),
                        &mut self.pool,
                    ));
                    e.dirty = true;
                    e.state = PageState::Writable;
                }
            }
        }
    }

    /// Make the local copy of `page` current: seed a full copy from the
    /// owner if none exists, then pull every missing writer's diffs —
    /// the multi-round-trip update path that home-based DSM replaces
    /// with a single fetch.
    fn validate_page(&mut self, page: PageId) {
        self.ctx.stats.page_fetches += 1;
        let me = self.me();
        let owner = self.pages[page as usize].owner;
        let asked_at = self.ctx.now();
        if self.pages[page as usize].frame.is_none() {
            let owner = self.pages[page as usize].owner;
            if owner == me {
                unreachable!("owner always has a frame");
            }
            self.ctx
                .send(owner, HMsg::CopyRequest { page })
                .expect("send copy request");
            let env = self.wait_for(|m| matches!(m, HMsg::CopyReply { page: p, .. } if *p == page));
            if let HMsg::CopyReply { data, applied, .. } = env.payload {
                self.ctx.charge_copy(data.len());
                let frame = self.pool.frame_from_bytes(&data);
                let e = &mut self.pages[page as usize];
                e.frame = Some(frame);
                e.applied = applied;
            }
        }
        // Collect unapplied intervals per writer, in learn order.
        let mut per_writer: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut order: Vec<IntervalId> = Vec::new();
        {
            let e = &self.pages[page as usize];
            for n in &e.notices {
                if e.applied.covers(n.interval) || n.interval.node == me as u32 {
                    continue;
                }
                order.push(n.interval);
                per_writer
                    .entry(n.interval.node)
                    .or_default()
                    .push(n.interval.seq);
            }
        }
        let n_requests = per_writer.len();
        // Request in writer order: the iteration feeds sends, so it
        // must not inherit HashMap iteration order.
        let mut per_writer: Vec<_> = per_writer.into_iter().collect();
        per_writer.sort_unstable_by_key(|(writer, _)| *writer);
        for (writer, seqs) in per_writer {
            self.ctx
                .send(writer as usize, HMsg::DiffRequest { page, seqs })
                .expect("send diff request");
        }
        let mut got: HashMap<IntervalId, PageDiff> = HashMap::new();
        for _ in 0..n_requests {
            let env = self.wait_for(|m| matches!(m, HMsg::DiffReply { page: p, .. } if *p == page));
            if let HMsg::DiffReply { diffs, .. } = env.payload {
                for (iv, d) in diffs {
                    self.ctx.charge_copy(d.encoded_size());
                    got.insert(iv, d);
                }
            }
        }
        let e = &mut self.pages[page as usize];
        for iv in order {
            if let Some(d) = got.get(&iv) {
                d.apply(e.frame.as_mut().expect("frame"));
            }
            e.applied.observe(iv);
        }
        e.state = PageState::ReadOnly;
        let waited = self.ctx.now() - asked_at;
        self.ctx.metrics.fetch_latency_ns.record(waited.as_nanos());
        self.ctx.trace(TraceKind::PageFetch {
            page,
            from: owner,
            wait_ns: waited.as_nanos(),
        });
    }

    /// Close the current interval: diff every dirty page against its
    /// twin and *retain* the diff in the archive (nothing is flushed
    /// anywhere — that is the homeless model).
    fn end_interval(&mut self) {
        self.pump();
        let me = self.me() as u32;
        let dirty: Vec<PageId> = self
            .pages
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dirty)
            .map(|(p, _)| p as PageId)
            .collect();
        if dirty.is_empty() {
            return;
        }
        let iv = IntervalId {
            node: me,
            seq: self.next_interval,
        };
        self.next_interval += 1;
        self.vc.observe(iv);
        let page_size = self.cfg.layout.page_size();
        for p in dirty {
            let notice = WriteNotice {
                page: p,
                interval: iv,
            };
            self.history.push(notice);
            let e = &mut self.pages[p as usize];
            e.dirty = false;
            e.state = PageState::ReadOnly;
            e.applied.observe(iv);
            e.notices.push(notice);
            let twin = e.twin.take().expect("dirty page without twin");
            let frame = e.frame.as_ref().expect("dirty page without frame");
            let diff = PageDiff::create(p, &twin, frame);
            self.pool.recycle_frame(twin.into_frame());
            self.ctx.charge_copy(2 * page_size);
            self.ctx.stats.diffs_created += 1;
            self.ctx.stats.diff_bytes += diff.encoded_size() as u64;
            self.ctx
                .metrics
                .diff_bytes
                .record(diff.encoded_size() as u64);
            self.archive_bytes += diff.encoded_size();
            self.archive.insert((p, iv.seq), diff);
        }
    }

    fn apply_notices(&mut self, notices: &[WriteNotice], vc_in: &VClock) {
        let me = self.me() as u32;
        let vc_before = self.vc.clone();
        let mut fresh = 0u32;
        for n in notices {
            if vc_before.covers(n.interval) {
                continue;
            }
            if self.history.contains(n) {
                continue;
            }
            self.vc.observe(n.interval);
            self.history.push(*n);
            fresh += 1;
            let e = &mut self.pages[n.page as usize];
            e.notices.push(*n);
            if n.interval.node != me {
                // Invalidate, but keep the stale frame: homeless LRC
                // updates it in place with diffs at the next access.
                e.state = PageState::Invalid;
                e.twin = None;
                e.dirty = false;
            }
        }
        self.vc.join(vc_in);
        if fresh > 0 {
            self.ctx.trace(TraceKind::NoticesApplied { count: fresh });
        }
    }

    /// Acquire a global lock.
    pub fn acquire(&mut self, lock: u32) {
        self.end_interval();
        let mgr = self.cfg.lock_manager(lock);
        let vc = self.vc.clone();
        let asked_at = self.ctx.now();
        self.ctx
            .send(mgr, HMsg::LockRequest { lock, vc })
            .expect("send lock request");
        let env = self.wait_for(|m| matches!(m, HMsg::LockGrant { lock: l, .. } if *l == lock));
        if let HMsg::LockGrant { vc, notices, .. } = env.payload {
            self.apply_notices(&notices, &vc);
            self.lock_grant_vcs.insert(lock, vc);
        }
        let waited = self.ctx.now() - asked_at;
        self.ctx.metrics.lock_wait_ns.record(waited.as_nanos());
        self.ctx.stats.lock_acquires += 1;
        self.ctx.trace(TraceKind::LockAcquire {
            lock,
            wait_ns: waited.as_nanos(),
        });
    }

    /// Release a global lock.
    pub fn release(&mut self, lock: u32) {
        self.end_interval();
        let grant_vc = self
            .lock_grant_vcs
            .remove(&lock)
            .unwrap_or_else(|| VClock::new(self.cfg.n_nodes));
        let notices: Vec<WriteNotice> = self
            .history
            .iter()
            .filter(|n| !grant_vc.covers(n.interval))
            .copied()
            .collect();
        let mgr = self.cfg.lock_manager(lock);
        let vc = self.vc.clone();
        self.ctx
            .send(mgr, HMsg::LockRelease { lock, vc, notices })
            .expect("send lock release");
        self.ctx.trace(TraceKind::LockRelease { lock });
    }

    /// Global barrier.
    pub fn barrier(&mut self) {
        self.end_interval();
        let epoch = self.barrier_epoch;
        self.ctx.trace(TraceKind::BarrierEnter { epoch });
        self.barrier_epoch += 1;
        let notices: Vec<WriteNotice> = self
            .history
            .iter()
            .filter(|n| !self.last_barrier_vc.covers(n.interval))
            .copied()
            .collect();
        let me = self.me();
        if me == 0 {
            let now = self.ctx.now();
            let vc = self.vc.clone();
            let mgr = self.barrier_mgr.as_mut().expect("manager");
            mgr.arrive(me, &vc, &notices, &[], now);
            // Gather the cluster: service traffic until everyone arrived.
            self.service_while(|node| {
                node.barrier_mgr.as_ref().expect("manager").arrived_count() < node.cfg.n_nodes
            });
            let handler = self.ctx.cost.cpu.message_handler;
            let mgr = self.barrier_mgr.as_mut().expect("manager");
            let release_time = mgr.latest_arrival.max(now) + handler;
            let merged_vc = mgr.merged_vc.clone();
            let merged = std::mem::take(&mut mgr.merged_notices);
            let straggler = mgr.straggler;
            let spread_ns = (mgr.latest_arrival - mgr.earliest_arrival).as_nanos();
            mgr.reset();
            self.ctx.trace(TraceKind::BarrierReleased {
                epoch,
                straggler,
                spread_ns,
            });
            for node in 1..self.cfg.n_nodes {
                self.ctx
                    .send_from(
                        release_time,
                        node,
                        HMsg::BarrierRelease {
                            epoch,
                            vc: merged_vc.clone(),
                            notices: merged.clone(),
                        },
                    )
                    .expect("send barrier release");
            }
            self.ctx.wait_until(release_time);
            self.apply_notices(&merged, &merged_vc);
        } else {
            let vc = self.vc.clone();
            self.ctx
                .send(0, HMsg::BarrierArrive { epoch, vc, notices })
                .expect("send barrier arrive");
            let env = self
                .wait_for(|m| matches!(m, HMsg::BarrierRelease { epoch: e, .. } if *e == epoch));
            if let HMsg::BarrierRelease { vc, notices, .. } = env.payload {
                self.apply_notices(&notices, &vc);
            }
        }
        self.last_barrier_vc = self.vc.clone();
        let lb = self.last_barrier_vc.clone();
        self.history.retain(|n| !lb.covers(n.interval));
        self.ctx.stats.barriers += 1;
        self.ctx.trace(TraceKind::BarrierExit { epoch });
    }

    /// Wall-clock-free drain cost model: homeless LRC has no flushes; we
    /// only expose the archive footprint.
    pub fn archive_footprint(&self) -> (usize, usize) {
        (self.archive.len(), self.archive_bytes)
    }
}

/// The engine runs the homeless node too: same pump and blocking loop
/// as HLRC, no deferral (this protocol has no logging/recovery layer).
impl CoherenceProtocol<HMsg> for HomelessNode {
    fn ctx(&mut self) -> &mut NodeCtx<HMsg> {
        &mut self.ctx
    }

    fn service(&mut self, env: Envelope<HMsg>, deferred: bool) {
        let handler = self.ctx.cost.cpu.message_handler;
        let done = self.ctx.async_service_base(&env, deferred) + handler;
        match &env.payload {
            HMsg::CopyRequest { page } => {
                let e = &self.pages[*page as usize];
                let data = SharedBytes::copy_of(e.frame.as_ref().expect("owner frame").bytes());
                let applied = e.applied.clone();
                let cost = self.ctx.cost.cpu.copy(data.len());
                self.ctx
                    .send_from(
                        done + cost,
                        env.src,
                        HMsg::CopyReply {
                            page: *page,
                            data,
                            applied,
                        },
                    )
                    .expect("send copy reply");
            }
            HMsg::DiffRequest { page, seqs } => {
                let me = self.me() as u32;
                let diffs: Vec<(IntervalId, PageDiff)> = seqs
                    .iter()
                    .filter_map(|&seq| {
                        self.archive
                            .get(&(*page, seq))
                            .map(|d| (IntervalId { node: me, seq }, d.clone()))
                    })
                    .collect();
                let payload: usize = diffs.iter().map(|(_, d)| d.encoded_size()).sum();
                let cost = self.ctx.cost.cpu.copy(payload);
                self.ctx
                    .send_from(done + cost, env.src, HMsg::DiffReply { page: *page, diffs })
                    .expect("send diff reply");
            }
            HMsg::LockRequest { lock, vc } => {
                let st = self.locks.state_mut(*lock);
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
                    let lvc = st.vc.clone();
                    let holder = st.record_grant(env.src);
                    self.ctx.trace(TraceKind::LockGranted {
                        lock: *lock,
                        to: env.src,
                        holder,
                    });
                    self.ctx
                        .send_from(
                            grant_at,
                            env.src,
                            HMsg::LockGrant {
                                lock: *lock,
                                vc: lvc,
                                notices,
                            },
                        )
                        .expect("send grant");
                }
            }
            HMsg::LockRelease { lock, vc, notices } => {
                let st = self.locks.state_mut(*lock);
                st.record_release(vc, notices, env.arrive_at);
                if let Some(next) = st.queue.pop_front() {
                    st.held = true;
                    let grant_at = done.max(next.arrive + handler);
                    let out = st.notices_for(&next.vc);
                    let lvc = st.vc.clone();
                    let holder = st.record_grant(next.node);
                    self.ctx.trace(TraceKind::LockGranted {
                        lock: *lock,
                        to: next.node,
                        holder,
                    });
                    self.ctx
                        .send_from(
                            grant_at,
                            next.node,
                            HMsg::LockGrant {
                                lock: *lock,
                                vc: lvc,
                                notices: out,
                            },
                        )
                        .expect("send queued grant");
                }
            }
            HMsg::BarrierArrive { vc, notices, .. } => {
                self.barrier_mgr
                    .as_mut()
                    .expect("barrier arrive at non-manager")
                    .arrive(env.src, vc, notices, &[], env.arrive_at);
            }
            other => unreachable!("unexpected async {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::run_cluster;

    fn cfg(n: usize, pages: u32) -> DsmConfig {
        DsmConfig::new(n, pages).with_page_size(256)
    }

    fn spawn<F, R>(c: DsmConfig, f: F) -> Vec<R>
    where
        F: Fn(HomelessNode) -> R + Send + Sync,
        R: Send,
    {
        run_cluster(c.n_nodes, c.cost, move |ctx| f(HomelessNode::new(ctx, c)))
    }

    #[test]
    fn producer_consumer_through_barrier() {
        let out = spawn(cfg(3, 3), |mut node| {
            if node.me() == 0 {
                node.write_u64(256 + 8, 4242);
            }
            node.barrier();
            let v = node.read_u64(256 + 8);
            node.barrier();
            v
        });
        assert_eq!(out, vec![4242, 4242, 4242]);
    }

    #[test]
    fn multiple_writers_merge_via_diffs() {
        let out = spawn(cfg(3, 3), |mut node| {
            match node.me() {
                0 => node.write_u64(512, 11),
                1 => node.write_u64(512 + 64, 22),
                _ => {}
            }
            node.barrier();
            let a = node.read_u64(512);
            let b = node.read_u64(512 + 64);
            node.barrier();
            (a, b)
        });
        assert!(out.iter().all(|&(a, b)| a == 11 && b == 22));
    }

    #[test]
    fn lock_counter_is_exact() {
        const ROUNDS: u64 = 5;
        let out = spawn(cfg(3, 3), move |mut node| {
            for _ in 0..ROUNDS {
                node.acquire(7);
                let v = node.read_u64(0);
                node.write_u64(0, v + 1);
                node.release(7);
            }
            node.barrier();
            let v = node.read_u64(0);
            node.barrier();
            v
        });
        assert!(out.iter().all(|&v| v == 3 * ROUNDS));
    }

    #[test]
    fn archive_grows_without_bound() {
        // The homeless disadvantage the paper cites: every interval's
        // diffs are retained.
        let out = spawn(cfg(2, 2), |mut node| {
            for round in 0..10u64 {
                if node.me() == 1 {
                    node.write_u64(8, round); // page 0, owned by node 0
                }
                node.barrier();
                let _ = node.read_u64(8);
                node.barrier();
            }
            node.archive_footprint()
        });
        let (diffs, bytes) = out[1];
        assert_eq!(diffs, 10, "one retained diff per interval");
        assert!(bytes > 0);
    }

    #[test]
    fn stale_copy_updated_in_place() {
        // Reader keeps its frame across invalidations; revalidation
        // applies only the missing diffs.
        let out = spawn(cfg(2, 2), |mut node| {
            for round in 1..=3u64 {
                if node.me() == 0 {
                    node.write_u64(0, round);
                }
                node.barrier();
                assert_eq!(node.read_u64(0), round);
                node.barrier();
            }
            node.ctx.stats.page_fetches
        });
        // Node 1 revalidates each round (3 fetch episodes), node 0 none.
        assert_eq!(out[0], 0);
        assert_eq!(out[1], 3);
    }

    #[test]
    fn hmsg_codec_roundtrips() {
        let mut vc = VClock::new(3);
        vc.set(1, 4);
        let iv = IntervalId { node: 1, seq: 2 };
        let base = PageFrame::zeroed(64);
        let twin = Twin::of(&base);
        let mut m = base.clone();
        m.write_u64(0, 5);
        let diff = PageDiff::create(1, &twin, &m);
        for msg in [
            HMsg::CopyRequest { page: 1 },
            HMsg::CopyReply {
                page: 1,
                data: vec![0; 64].into(),
                applied: vc.clone(),
            },
            HMsg::DiffRequest {
                page: 1,
                seqs: vec![0, 1],
            },
            HMsg::DiffReply {
                page: 1,
                diffs: vec![(iv, diff)],
            },
            HMsg::LockRequest {
                lock: 3,
                vc: vc.clone(),
            },
            HMsg::BarrierRelease {
                epoch: 2,
                vc,
                notices: vec![WriteNotice {
                    page: 0,
                    interval: iv,
                }],
            },
        ] {
            let bytes = msg.encode_to_vec();
            assert_eq!(msg.encoded_size(), bytes.len(), "the two sinks disagree");
            assert_eq!(HMsg::decode_from_slice(&bytes).unwrap(), msg);
        }
    }
}
