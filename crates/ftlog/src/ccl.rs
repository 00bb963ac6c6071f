//! Coherence-centric logging (CCL) and prefetch-based recovery — the
//! paper's contribution (§3.2).
//!
//! Failure-free logging records only what recovery cannot re-derive:
//!
//! * incoming write-invalidation notices (with the piggybacked clock),
//! * *records* of incoming updates applied at this home (writer + pages,
//!   never the diff contents),
//! * the diffs this node itself produced at the end of each interval.
//!
//! Fetched page copies are **not** logged — they are reconstructible.
//! The log is written right after the diffs are sent to their home
//! nodes, so the write and the diff round trip overlap: the node pays
//! only the part of its `write()` copy that outlasts the acks, and the
//! device drains the batch in the background.
//!
//! A node keeps each diff it logs in memory, from the flush that
//! persists it until the checkpoint that truncates its log, and serves
//! a peer's [`Msg::LoggedDiffRequest`] from there: a writer that lives
//! reads nothing back. Only a crash wipes them, and the salvaged log
//! brings them back (below).
//!
//! Recovery opens with a one-round-trip *handshake*: the recovering
//! node sends [`Msg::RecoveryHello`] to every peer before it even scans
//! its own log. Each peer answers with the pages homed there that this
//! node ever touched a copy of (homes keep a per-page copyset, see
//! [`hlrc::PageTable::held_by`]). Replay is deterministic, so the
//! *held* pages are exactly the remote pages this node will touch again
//! (but for a first use whose report had not left at the crash: the
//! on-demand path below).
//!
//! Replay reads the (small) local log as one sequential scan, started
//! where the salvage left the head, that drains it into memory ahead of
//! replay; each interval's records cost one read call that waits only
//! for the bytes the scan has not reached. Replay pays for an
//! interval's records where it first uses them, one interval before
//! their sync (below). The same scan brings back the diffs this node
//! served: each is served again once the scan holds its record.
//!
//! Replay then walks the sync events of the log and restores in
//! *waves*, every request of a wave in flight at once: for its home
//! copies, the diffs named by the recorded incoming updates, fetched
//! from what their writers logged (the paper's mechanism); for every
//! held remote copy a logged notice names, a
//! [`Msg::RecoveryPageRequest`] to the page's home, which answers from
//! its *served-image log* — the reply buffers it retained, one per
//! version it ever served ([`hlrc::ServedLog`]) — with the earliest
//! image that shows everything the replayed clock covers: whole, or as
//! a diff against the image this node's copy was last restored from
//! when that is smaller (the node keeps that image: a copy it has
//! written since is no base for such a diff). The page reply, the one
//! message CCL does not log at the receiver, is logged at the sender
//! instead, in volatile memory.
//!
//! A replayed interval waits only for what its log could not announce,
//! and pays no write trap for a page it is known to write — home or
//! remote — nor a twin for a remote one:
//!
//! * the remote pages it writes are named by its own logged `Diffs`
//!   records, and those not resident when it starts join the wave of
//!   the sync that opens it — the request its first fault on each would
//!   have sent, clock and all. The first replayed interval, which no
//!   sync opens, gets a wave of its own before replay starts. Once the
//!   wave is in, those pages are opened for writing: the diffs they
//!   would be twinned for already sit at their homes. A page written
//!   back to the values it held (an empty diff) is in no record, and
//!   traps and twins as it did live;
//! * the home pages it writes are in no log of its own — a home write
//!   makes no diff, and the `Sync` records hold only the notices it
//!   received — but every barrier arrival reported them to the barrier
//!   manager, whose hello reply lists them back, interval by interval.
//!   Where a sync opens the remote pages, it opens the home pages of
//!   this node's intervals up to the one the next sync closes; each is
//!   booked by the write that comes and write-protected again when its
//!   interval ends. Nothing waits for that reply: if it is not in yet,
//!   the first home write traps as it did live, and that trap waits for
//!   it and opens the rest. A node with no list — the manager itself,
//!   or one whose manager lost its history in a crash — traps at home;
//! * once a sync's wave is absorbed, the next sync's wave leaves, one
//!   interval ahead: its logged-diff requests, and the page requests for
//!   the resident copies its notices name. Those are the requests that
//!   sync would send, but for this node's own clock entry, which the
//!   interval in between moves — and which only the pages that interval
//!   writes depend on, so those are asked at the sync. The replies are
//!   kept unabsorbed until the sync: the interval in between may still
//!   read the old copies.
//!
//! What is left is the first *read* of a page no notice names, restored
//! on demand ([`FaultTolerance::recovery_fault`], a wave of one page),
//! and the first restore of a held page no earlier interval touched.
//! Pages this node never held are never requested: recovery moves the
//! replayed working set, not the cluster's write set. The held-set
//! filter is an optimization only — a fault on a page it skipped
//! restores on demand — so a home whose copysets were wiped by its own
//! crash simply answers "incomplete" and all its pages count as held.
//!
//! The one thing a served-image log does not survive is its home's own
//! crash, and what went with it is re-derivable: replay is deterministic
//! and the remote writers' diffs sit in their stable logs. A recovering
//! home that may be asked again ([`CclLogger::with_served_log_rebuild`])
//! re-forms its served logs as it replays — the write history by walking
//! it again, the images by keeping each home frame before it changes, a
//! page copy apiece ([`hlrc::PageTable::rebuild_served_logs`]) — and a
//! fetch for a write it has not re-reached waits at the home until it
//! has. Nothing else here knows how many failures there are.
//!
//! Recovery fetches stay one message per page (and per writer), at most
//! one in flight per page: messages are priced on their own links, so a
//! wave already costs one round trip (DESIGN.md §13); what matters is
//! volume, which the held filter cuts, and which waits are left.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hlrc::{
    FaultTolerance, Msg, NodeInner, NodeSet, RecoveryImage, RecoveryStep, ServedCopies, SyncKind,
    WriteNotice,
};
use pagemem::codec::var_size;
use pagemem::{
    Decode, Encode, IntervalId, PageDiff, PageFrame, PageId, PageState, SharedBytes, VClock,
};
use simnet::{Envelope, LogObj, LogScan, NodeId, SimDuration, SimTime, TraceKind};

use crate::frame;
use crate::log_record::CclRecord;
use crate::recovery::fetch_release_history;
use crate::stable_log::{lost_releases, trace_append_by_page, StableLog, Written};

/// Stable-storage stream holding the coherence-centric log.
pub const CCL_STREAM: &str = "ccl.log";

/// The logged diffs one fetch wave asks for, per page. Ordered: the
/// wave's requests go out in `(page, writer)` order.
type Wants = BTreeMap<PageId, Vec<IntervalId>>;

/// The logged diffs a fetch wave brought back.
type Found = HashMap<(PageId, IntervalId), PageDiff>;

/// In-memory replay state (rebuilt from the stable log after a crash).
struct CclReplay {
    /// Decoded records with their framed sizes (0 for a synthesized
    /// one), which price their reads.
    records: Vec<(CclRecord, usize)>,
    cursor: usize,
    /// The records before this one are read ([`CclReplay::read_through`]):
    /// replay uses nothing of a record past it.
    read_to: usize,
    /// The scan replay reads from, started where the salvage left the
    /// head: it drains the log into memory ahead of replay.
    scan: LogScan,
    /// The served image each resident remote copy was last restored
    /// from and its position in the home's log (an entry goes when its
    /// copy does — or its home, see [`CclLogger::forget_images_of`]).
    /// The position is what the next request for the page names, so the
    /// home can answer with a diff; the image — the reply buffer, kept
    /// instead of freed — is what that diff is applied to. The copy
    /// itself will not do once this node has written it: a word a
    /// re-executed write changed and a later writer changed back is in
    /// no diff between two images.
    restored: HashMap<PageId, (u32, SharedBytes)>,
    /// The wave being waited out, until it is absorbed.
    wave: Option<Wave>,
    /// The next replayed sync's wave, sent one interval early, its
    /// replies kept until that sync.
    ahead: Option<Wave>,
    /// The segment being replayed closes this node's own intervals up to
    /// this clock entry, and their home pages are not open yet: the
    /// barrier manager's list was not in when replay entered it.
    unopened: Option<u32>,
}

/// One fetch wave: its requests and what came back of them.
#[derive(Default)]
struct Wave {
    /// The recorded updates of this node's home copies it brings back:
    /// writers per page, in record order.
    wants: Wants,
    /// Their logged diffs, as far as they are in.
    found: Found,
    /// Logged-diff replies still to come.
    diffs_due: usize,
    /// The remote pages it asked their homes for.
    asked: BTreeSet<PageId>,
    /// Those whose answer is still to come.
    pages_due: BTreeSet<PageId>,
    /// Replies in and not absorbed yet: a wave sent ahead keeps them for
    /// its sync.
    kept: Vec<Msg>,
    /// The clock a wave sent ahead asked at.
    required: Option<VClock>,
}

impl CclReplay {
    /// Read the log through record `end` (exclusive), if replay has not
    /// yet: one read call for the records from `read_to` on, charged as
    /// disk, which waits for the scan to hold their last byte.
    fn read_through(&mut self, inner: &mut NodeInner, end: usize) {
        if end <= self.read_to {
            return;
        }
        let bytes = self.records[self.read_to..end]
            .iter()
            .map(|(_, size)| size)
            .sum();
        let now = inner.ctx.now();
        let cost = inner.ctx.disk.scan_read(&mut self.scan, bytes, now);
        inner.ctx.charge_disk(cost);
        self.read_to = end;
    }

    /// Whether replay has read all of `seg`, and may use it.
    fn has_read(&self, seg: &Segment) -> bool {
        seg.end <= self.read_to
    }
}

impl Wave {
    /// Replies still to come.
    fn due(&self) -> usize {
        self.diffs_due + self.pages_due.len()
    }

    /// Whether this wave awaits `reply`; if it does, it is in now.
    fn receives(&mut self, reply: &Msg) -> bool {
        match reply {
            Msg::RecoveryPageReply { page, .. } => self.pages_due.remove(page),
            Msg::LoggedDiffReply { .. } if self.diffs_due > 0 => {
                self.diffs_due -= 1;
                true
            }
            _ => false,
        }
    }
}

/// The log records of one replayed interval: from the cursor through
/// the `Sync` record of the sync that ends it.
struct Segment {
    /// One past its last record.
    end: usize,
    /// The recorded updates of this node's home copies in it.
    wants: Wants,
    /// The pages its own `Diffs` records are of: remote pages this node
    /// writes in the interval.
    written: BTreeSet<PageId>,
    /// The `Sync` record ending it (none where the log runs out first)
    /// and that record's size, 0 for a synthesized one.
    sync: Option<(SyncKind, Vec<WriteNotice>, VClock, usize)>,
}

/// Read the segment of `records` that starts at `from`.
fn segment(records: &[(CclRecord, usize)], from: usize) -> Segment {
    let mut seg = Segment {
        end: from,
        wants: Wants::new(),
        written: BTreeSet::new(),
        sync: None,
    };
    while let Some((rec, size)) = records.get(seg.end) {
        seg.end += 1;
        match rec {
            CclRecord::Updates { writer, pages } => {
                for p in pages {
                    seg.wants.entry(*p).or_default().push(*writer);
                }
            }
            // Replay needs none of this node's own diffs again — they
            // are for the peers (`serve_logged_diffs`) — only their pages.
            CclRecord::Diffs { diffs, .. } => seg.written.extend(diffs.iter().map(|d| d.page)),
            CclRecord::Sync { tag, notices, vc } => {
                seg.sync = Some((*tag, notices.clone(), vc.clone(), *size));
                break;
            }
        }
    }
    seg
}

/// Open `page` for the write replay knows is coming
/// ([`hlrc::PageTable::open_logged_write`]), if it is resident,
/// write-protected and not written yet in the open interval.
fn open_for_write(inner: &mut NodeInner, page: PageId) {
    let e = inner.pages.entry(page);
    if e.is_resident() && e.state == PageState::ReadOnly && !e.dirty {
        inner.pages.open_logged_write(page);
    }
}

fn is_fetch_reply(m: &Msg) -> bool {
    matches!(
        m,
        Msg::LoggedDiffReply { .. } | Msg::RecoveryPageReply { .. }
    )
}

/// Victim side of the recovery handshake: which remote pages the
/// surviving homes say this node held before the crash.
#[derive(Default)]
struct HeldPages {
    /// Hello replies not yet received. None is left in flight at
    /// recovery exit ([`FaultTolerance::finish_recovery`] waits for
    /// them), so none at any crash point either.
    pending: usize,
    /// The pages some home listed as fetched by this node.
    pages: BTreeSet<PageId>,
    /// The homes whose record is incomplete (or that already stopped),
    /// so every page homed there counts as held.
    whole_homes: NodeSet,
    /// The barrier manager's reply, and the list of this node's home
    /// writes it carries, is still to come.
    manager_due: bool,
    /// From that list: the home pages each of this node's own intervals
    /// wrote, by interval sequence number. Empty where nothing listed
    /// them — this node is the manager, or a crash wiped the manager's
    /// history — and then replay traps at home as the live run did.
    home_writes: BTreeMap<u32, Vec<PageId>>,
}

/// Coherence-centric logging.
pub struct CclLogger {
    /// The stable stream. CCL issues flushes and lets them drain in the
    /// background; a later flush queues behind an unfinished one.
    log: StableLog,
    /// The diffs staged since the last flush, served once it persists.
    unflushed: Vec<((PageId, u32), PageDiff)>,
    replay: Option<CclReplay>,
    /// The logged diffs this node serves, each with the time it is in
    /// memory: exactly the `Diffs` records of its stable log. Each is
    /// kept from the flush that persists it until the checkpoint that
    /// truncates the log, so a writer that lives serves from the memory
    /// that made it. A crash drops them with the logger; the one the
    /// node restarts with fills its own from the salvaged log, each diff
    /// once the scan started at the salvage holds its record
    /// ([`FaultTolerance::begin_recovery`]).
    serve_cache: HashMap<(PageId, u32), (PageDiff, SimTime)>,
    /// No miss is known before this: the end of the scan that filled
    /// `serve_cache` after a crash.
    misses_known_at: SimTime,
    /// What the recovery handshake told this (recovering) node.
    held: HeldPages,
    /// When this node recovers, re-form the served-image logs its crash
    /// wiped (see [`CclLogger::with_served_log_rebuild`]).
    rebuild_served_logs: bool,
    /// The salvage scan found the log damaged (or gone): replay cannot
    /// reconstruct every update the cluster saw this node apply, so
    /// [`FaultTolerance::finish_recovery`] must repair the home copies
    /// before any deferred peer request is served.
    needs_repair: bool,
    /// Release history fetched from the barrier manager at
    /// [`CclLogger::begin_recovery`] (to synthesize lost barrier `Sync`
    /// records), kept for the home-repair wave: one round trip for both.
    saved_releases: Option<Vec<hlrc::EpochRelease>>,
}

impl CclLogger {
    /// CCL as published (flush overlapped with communication).
    pub fn new() -> CclLogger {
        CclLogger {
            log: StableLog::new(CCL_STREAM),
            unflushed: Vec::new(),
            replay: None,
            serve_cache: HashMap::new(),
            misses_known_at: SimTime::ZERO,
            held: HeldPages::default(),
            rebuild_served_logs: false,
            needs_repair: false,
            saved_releases: None,
        }
    }

    /// A node that recovers re-forms its served-image logs by its own
    /// replay instead of answering "absent" until the next checkpoint:
    /// what a peer that crashes after it, or alongside it, needs of it.
    /// Failure-free execution is untouched; recovery pays a page copy
    /// (12.3 µs at 4 KiB) per home page and replayed write to it — the
    /// image the live path had for free in the reply buffer.
    pub fn with_served_log_rebuild(mut self) -> CclLogger {
        self.rebuild_served_logs = true;
        self
    }

    fn stage(&mut self, inner: &mut NodeInner, rec: CclRecord) {
        // Table 2 log bytes include the on-disk header overhead.
        let Some(bytes) = self.log.stage(&rec) else {
            return;
        };
        trace_ccl_append(inner, &rec, bytes as u64);
        if let CclRecord::Diffs { interval, diffs } = rec {
            (self.unflushed).extend(diffs.into_iter().map(|d| ((d.page, interval.seq), d)));
        }
    }

    /// Write the staged records through the OS cache, returning
    /// `(cpu_copy_cost, device_drain_time)` of a successful flush. The
    /// futile access that finds a dead or full device is charged here.
    fn flush_staged(&mut self, inner: &mut NodeInner) -> (SimDuration, SimDuration) {
        let served = std::mem::take(&mut self.unflushed);
        match self.log.flush(inner, true) {
            Written::Nothing => (SimDuration::ZERO, SimDuration::ZERO),
            Written::Refused { futile } => {
                inner.ctx.charge_disk(futile);
                (SimDuration::ZERO, SimDuration::ZERO)
            }
            Written::Persisted { cpu, drain } => {
                // In the log now, so served from here on: the memory
                // that made them keeps them until the checkpoint.
                let now = inner.ctx.now();
                let served = served.into_iter().map(|(key, d)| (key, (d, now)));
                self.serve_cache.extend(served);
                (cpu, drain)
            }
        }
    }

    /// Block until a message matching `pred` arrives, deferring other
    /// traffic — except recovery-class requests from peers, answered on
    /// the spot, and replies to the wave sent ahead, kept for its sync.
    /// Two nodes recovering concurrently block in each other's fetch
    /// waves; deferring those requests would deadlock the pair.
    fn recovery_wait<F: Fn(&Msg) -> bool>(
        &mut self,
        inner: &mut NodeInner,
        pred: F,
    ) -> Envelope<Msg> {
        loop {
            let env = inner.ctx.recv().expect("cluster channel closed");
            if pred(&env.payload) {
                inner.ctx.absorb(&env);
                return env;
            }
            if env.payload.is_recovery_request() {
                if matches!(env.payload, Msg::RecoveryHello) {
                    self.forget_images_of(inner, env.src);
                }
                let done = inner.ctx.service_time(&env);
                inner.serve_recovery_request(self, &env, done);
                self.settle_parked(inner, env.arrive_at);
            } else if let Msg::RecoveryHelloReply { .. } = &env.payload {
                self.note_hello_reply(inner, &env);
            } else if is_fetch_reply(&env.payload) {
                self.take_reply(inner, env.payload);
            } else {
                inner.ctx.defer(env);
            }
        }
    }

    /// `home` says it crashed: the logs it rebuilds may hold, at a
    /// position this node remembers, another image than the one it was
    /// sent (or none), and a delta against that would corrupt the copy
    /// silently. The next request there names no held image.
    fn forget_images_of(&mut self, inner: &NodeInner, home: NodeId) {
        if let Some(replay) = self.replay.as_mut() {
            replay
                .restored
                .retain(|page, _| inner.pages.entry(*page).home != home);
        }
    }

    /// A peer's fetch is parked here until this replay re-reaches a
    /// write (`NodeInner::serve_recovery_page`). If the wave being
    /// waited out has its diffs in, apply its updates now, not after its
    /// page replies: the peer may be a home one of those is due from,
    /// replaying too and waiting for this answer first. The wave sent
    /// ahead is never applied here — its sync has not come. With nothing
    /// parked — always, unless two nodes recover at once — a wave runs
    /// exactly as it otherwise would.
    fn settle_parked(&mut self, inner: &mut NodeInner, not_before: SimTime) {
        if !inner.has_parked_fetches() {
            return;
        }
        let wave = self.replay.as_ref().and_then(|r| r.wave.as_ref());
        if wave.is_some_and(|w| w.diffs_due == 0) {
            self.apply_home_updates(inner);
        }
        inner.serve_parked_fetches(not_before);
    }

    /// Re-apply the recorded updates of the wave being waited out to
    /// this node's home copies, in record order (once: early for a
    /// parked fetch, or at its end).
    fn apply_home_updates(&mut self, inner: &mut NodeInner) {
        let Some(wave) = self.replay.as_mut().and_then(|r| r.wave.as_mut()) else {
            return;
        };
        let (wants, found) = (std::mem::take(&mut wave.wants), &wave.found);
        for (page, writers) in &wants {
            for iv in writers {
                if let Some(d) = found.get(&(*page, *iv)) {
                    inner.ctx.charge_copy(d.payload_bytes());
                    inner.apply_home_diff(d, *iv);
                } else {
                    // Lost by its writer's log: nothing may wait for it.
                    inner.pages.home_state_mut(*page).served.unexpect(*iv);
                }
            }
        }
    }

    /// Record one peer's answer to this node's [`Msg::RecoveryHello`].
    /// The barrier manager's also lists this node's home writes: kept
    /// where replay opens pages ([`CclLogger::open_written`]), and the
    /// segment being replayed opens its home pages as soon as they are
    /// in.
    fn note_hello_reply(&mut self, inner: &mut NodeInner, env: &Envelope<Msg>) {
        let Msg::RecoveryHelloReply {
            held,
            complete,
            home_writes,
        } = &env.payload
        else {
            return;
        };
        self.held.pending = self.held.pending.saturating_sub(1);
        inner.ctx.charge_copy(4 * held.len());
        self.held.pages.extend(held);
        if !complete {
            self.held.whole_homes.insert(env.src);
        }
        if env.src != inner.cfg.barrier_manager() {
            return;
        }
        self.held.manager_due = false;
        // A page id and an interval per notice.
        inner.ctx.charge_copy(8 * home_writes.len());
        for n in home_writes {
            debug_assert_eq!(n.interval.node as usize, inner.me(), "another node's write");
            let pages = self.held.home_writes.entry(n.interval.seq).or_default();
            pages.push(n.page);
        }
        if let Some(closes) = self.replay.as_mut().and_then(|r| r.unopened.take()) {
            self.open_home_writes(inner, closes);
        }
    }

    /// Open for writing the pages `next` writes that replay knows of: the
    /// resident remote copies its own logged diffs name, and the home
    /// pages the barrier manager's list names for this node's intervals
    /// up to the one `next`'s sync closes. Replay need not trap (or
    /// twin) to learn that the segment writes them. Only where a real
    /// `Sync` record closes the segment, as in [`CclLogger::send_ahead`]:
    /// at a synthesized one replay may be abandoned mid-interval, and the
    /// live interval end would find a written remote page without a twin.
    /// Where the list is still to come the home pages wait for it — or
    /// for the first home write that traps, which waits for it.
    fn open_written(&mut self, inner: &mut NodeInner, next: &Segment) {
        debug_assert!(
            self.replay.as_ref().is_some_and(|r| r.has_read(next)),
            "replay used log records it has not read"
        );
        let Some((.., vc, size)) = &next.sync else {
            return;
        };
        if *size == 0 {
            return;
        }
        for &page in &next.written {
            if !inner.pages.is_home(page) {
                open_for_write(inner, page);
            }
        }
        let closes = vc.get(inner.me() as u32);
        if self.held.manager_due {
            self.replay.as_mut().expect("not in recovery").unopened = Some(closes);
        } else {
            self.open_home_writes(inner, closes);
        }
    }

    /// Open the home pages the barrier manager's list names for this
    /// node's intervals from the open one up to (not including) `closes`.
    fn open_home_writes(&self, inner: &mut NodeInner, closes: u32) {
        if inner.next_interval >= closes {
            return;
        }
        for (_, pages) in self.held.home_writes.range(inner.next_interval..closes) {
            for &page in pages {
                if inner.pages.is_home(page) {
                    open_for_write(inner, page);
                }
            }
        }
    }

    /// Block until every hello reply still on its way has arrived.
    fn await_hello_replies(&mut self, inner: &mut NodeInner) {
        while self.held.pending > 0 {
            let env = self.recovery_wait(inner, |m| matches!(m, Msg::RecoveryHelloReply { .. }));
            self.note_hello_reply(inner, &env);
        }
    }

    /// Ask for the logged diffs of every `(page, intervals)` entry of
    /// `wants`: one request per page and writer, all in flight at once.
    /// Returns how many replies to expect.
    fn request_logged_diffs(&mut self, inner: &mut NodeInner, wants: &Wants) -> usize {
        let mut outstanding = 0usize;
        for (page, ivs) in wants {
            let mut per_writer: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for iv in ivs {
                debug_assert_ne!(iv.node as usize, inner.me(), "update from this node");
                per_writer.entry(iv.node).or_default().push(iv.seq);
            }
            for (writer, seqs) in per_writer {
                inner
                    .ctx
                    .send(
                        writer as usize,
                        Msg::LoggedDiffRequest { page: *page, seqs },
                    )
                    .expect("send logged diff request");
                outstanding += 1;
            }
        }
        outstanding
    }

    /// A wave that asks for the logged diffs of `wants`.
    fn diffs_wave(&mut self, inner: &mut NodeInner, wants: Wants) -> Wave {
        let diffs_due = self.request_logged_diffs(inner, &wants);
        Wave {
            wants,
            diffs_due,
            ..Wave::default()
        }
    }

    /// Ask the home of each of `pages` for the page as a replay at clock
    /// `required` must see it, all requests in flight at once, as part
    /// of `wave`.
    fn request_pages(
        &self,
        inner: &mut NodeInner,
        wave: &mut Wave,
        pages: &[PageId],
        required: &VClock,
    ) {
        let restored = &self.replay.as_ref().expect("not in recovery").restored;
        for &page in pages {
            let request = Msg::RecoveryPageRequest {
                page,
                required: required.clone(),
                held: restored.get(&page).map(|(pos, _)| *pos),
            };
            inner
                .ctx
                .send(inner.pages.entry(page).home, request)
                .expect("send recovery page request");
            wave.asked.insert(page);
            wave.pages_due.insert(page);
        }
    }

    /// Take in one home's answer about `page`: install the image,
    /// rebuild it from the held one and the delta, or drop the copy no
    /// image covers.
    fn absorb_page_reply(&mut self, inner: &mut NodeInner, page: PageId, image: RecoveryImage) {
        let restored = &mut self.replay.as_mut().expect("not in recovery").restored;
        match image {
            RecoveryImage::Image { pos, data } => {
                inner.ctx.charge_copy(data.len());
                inner
                    .pages
                    .install_copy(page, data.clone(), PageState::ReadOnly);
                restored.insert(page, (pos, data));
            }
            RecoveryImage::Delta { pos, diff } if restored.contains_key(&page) => {
                let (at, held) = &restored[&page];
                if *at == pos {
                    // Still the image this node holds, so it has not
                    // written the page since either: the copy stands.
                    debug_assert!(diff.is_empty());
                    return;
                }
                inner.ctx.charge_copy(diff.encoded_size());
                inner.ctx.charge_copy(diff.payload_bytes());
                let mut image = PageFrame::from_bytes(held);
                diff.apply_checked(&mut image)
                    .expect("delta does not fit the page");
                // A copy not written since is the held image: patching
                // it in place was all of the work. A written one is
                // replaced by the rebuilt image, a page copy more (a
                // node knows which from its write detection; the bytes
                // say the same).
                let copy = inner.pages.frame(page).bytes();
                if copy != &held[..] {
                    inner.ctx.charge_copy(image.bytes().len());
                }
                // The rebuilt image is held, and the copy is it, shared.
                let image = image.share();
                inner
                    .pages
                    .install_copy(page, image.clone(), PageState::ReadOnly);
                restored.insert(page, (pos, image));
            }
            // No image covers the page — or a delta against an image
            // forgotten since it was named (`forget_images_of`): the
            // copy goes, and a fault on it restores it whole.
            RecoveryImage::Delta { .. } | RecoveryImage::Absent => {
                inner.pages.invalidate(page);
                restored.remove(&page);
            }
        }
    }

    /// Absorb one reply into the wave being waited out: a page, or
    /// logged diffs (which may settle a parked fetch).
    fn absorb_reply(&mut self, inner: &mut NodeInner, reply: Msg) {
        if let Msg::RecoveryPageReply { page, image } = reply {
            return self.absorb_page_reply(inner, page, image);
        }
        let replay = self.replay.as_mut().expect("not in recovery");
        let wave = replay.wave.as_mut().expect("no wave in flight");
        absorb_logged_diffs(inner, reply, &mut wave.found);
        self.settle_parked(inner, inner.ctx.now());
    }

    /// Take in a reply to one of this node's recovery fetches: the wave
    /// being waited out absorbs it now; the wave sent ahead keeps it,
    /// unabsorbed, for its sync.
    fn take_reply(&mut self, inner: &mut NodeInner, reply: Msg) {
        let replay = self
            .replay
            .as_mut()
            .expect("a fetch reply outside recovery");
        if replay.wave.as_mut().is_some_and(|w| w.receives(&reply)) {
            return self.absorb_reply(inner, reply);
        }
        let ahead = replay.ahead.as_mut().expect("a fetch reply no wave awaits");
        assert!(ahead.receives(&reply), "a {} no wave awaits", reply.kind());
        ahead.kept.push(reply);
    }

    /// Run `wave` — a replayed sync's, that of the first replayed
    /// interval, or one page replay faults on — with `pages` in it:
    /// send what it has not asked yet, absorb what it kept, and wait
    /// out the rest, counting a stall if any of it was not in yet. Then
    /// its updates are applied in record order. On its way in and out
    /// it looks at the recovery fetches parked here.
    fn restore_wave(&mut self, inner: &mut NodeInner, mut wave: Wave, pages: &[PageId]) {
        inner.serve_parked_fetches(inner.ctx.now());
        let unasked: Vec<PageId> = pages
            .iter()
            .copied()
            .filter(|p| !wave.asked.contains(p))
            .collect();
        let required = inner.vc.clone();
        self.request_pages(inner, &mut wave, &unasked, &required);
        let kept = std::mem::take(&mut wave.kept);
        self.replay.as_mut().expect("not in recovery").wave = Some(wave);
        for reply in kept {
            self.absorb_reply(inner, reply);
        }
        let mut stalled = false;
        while self
            .replay
            .as_ref()
            .and_then(|r| r.wave.as_ref())
            .is_some_and(|w| w.due() > 0)
        {
            let before = inner.ctx.now();
            let env = self.recovery_wait(inner, is_fetch_reply);
            stalled |= inner.ctx.now() > before;
            self.take_reply(inner, env.payload);
        }
        if stalled {
            inner.ctx.stats.recovery_stalls += 1;
        }
        self.apply_home_updates(inner);
        self.replay.as_mut().expect("not in recovery").wave = None;
        inner.serve_parked_fetches(inner.ctx.now());
    }

    /// The wave of the sync replay has reached, whose recorded updates
    /// are `wants`: the one sent ahead if there is one — asking for the
    /// same diffs, at the same clock but for this node's own entry — or
    /// a new one.
    fn sync_wave(&mut self, inner: &mut NodeInner, wants: Wants) -> Wave {
        let Some(ahead) = self.replay.as_mut().and_then(|r| r.ahead.take()) else {
            return self.diffs_wave(inner, wants);
        };
        debug_assert_eq!(
            ahead.wants, wants,
            "the wave sent ahead asked for other diffs"
        );
        let me = inner.me() as u32;
        let same_clock = |vc: &VClock| {
            (0..inner.cfg.n_nodes as u32)
                .filter(|&n| n != me)
                .all(|n| vc.get(n) == inner.vc.get(n))
        };
        debug_assert!(
            ahead.required.as_ref().is_some_and(same_clock),
            "the wave sent ahead asked at another clock"
        );
        ahead
    }

    /// Send the wave of the sync ending `next` — the interval replay is
    /// entering — now, one interval early: the logged diffs of the
    /// updates it records, and the page requests that sync will make
    /// for the copies resident now, but for the pages the interval
    /// writes (their requests carry this node's own clock entry as the
    /// interval leaves it). A resident copy stays resident through the
    /// interval, so no fault asks for one of these pages meanwhile.
    /// Nothing leaves when the log runs out first, or ends in a
    /// synthesized sync record, where replay may be abandoned instead.
    fn send_ahead(&mut self, inner: &mut NodeInner, next: Segment) {
        debug_assert!(
            self.replay.as_ref().is_some_and(|r| r.has_read(&next)),
            "replay used log records it has not read"
        );
        let Some((_, notices, vc, _)) = next.sync.filter(|(.., size)| *size > 0) else {
            return;
        };
        let (fresh, required) = inner.notices_admitted(&notices, &vc);
        let me = inner.me() as u32;
        let mut pages: Vec<PageId> = fresh
            .iter()
            .filter(|n| n.interval.node != me && !inner.pages.is_home(n.page))
            .map(|n| n.page)
            .filter(|p| inner.pages.entry(*p).is_resident() && !next.written.contains(p))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let mut wave = self.diffs_wave(inner, next.wants);
        self.request_pages(inner, &mut wave, &pages, &required);
        wave.required = Some(required);
        self.replay.as_mut().expect("not in recovery").ahead = Some(wave);
    }

    /// Replay is over — the log consumed, exhausted or abandoned.
    fn end_replay(&mut self) {
        let replay = self.replay.take();
        debug_assert!(
            replay.is_none_or(|r| r.ahead.is_none()),
            "a wave sent ahead outlived its replay"
        );
    }

    /// Home-repair wave, run once at recovery exit when the salvage
    /// scan found the log damaged. A torn or rotten tail may have taken
    /// `Updates` records with it — updates this home *applied and
    /// acked* before the crash, which replay could not reconstruct. The
    /// writers' stable logs still hold those diffs (a CCL ack never
    /// releases them): replay the barrier manager's release history
    /// against the restored home versions, refetch every uncovered
    /// foreign interval from its writer's log, and re-apply in history
    /// order (causal per writer, and concurrent writers touch disjoint
    /// words under DRF, so a valid linearization). A crashed manager
    /// answers with an empty history and the wave degrades to a no-op.
    fn repair_home_pages(&mut self, inner: &mut NodeInner) {
        let me = inner.me();
        // `begin_recovery` usually fetched the history already.
        let releases = self.saved_releases.take().unwrap_or_else(|| {
            fetch_release_history(inner, |inner, is_reply| self.recovery_wait(inner, is_reply))
        });
        // Foreign notices naming pages homed here that the restored home
        // version does not cover: exactly what the damaged log lost.
        let mut missing: Vec<WriteNotice> = Vec::new();
        for (_, _, notices, _) in &releases {
            for n in notices {
                if n.interval.node as usize == me
                    || !inner.pages.is_home(n.page)
                    || missing.contains(n)
                {
                    continue;
                }
                let covered = inner.pages.home_state(n.page).version.covers(n.interval);
                if !covered {
                    missing.push(*n);
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        // Refetch from the writers' stable logs in one parallel wave.
        let mut wants = Wants::new();
        for n in &missing {
            wants.entry(n.page).or_default().push(n.interval);
        }
        let mut fetched = Found::new();
        for _ in 0..self.request_logged_diffs(inner, &wants) {
            let env = self.recovery_wait(inner, |m| matches!(m, Msg::LoggedDiffReply { .. }));
            absorb_logged_diffs(inner, env.payload, &mut fetched);
        }
        let mut applied = 0u32;
        for n in &missing {
            if let Some(d) = fetched.get(&(n.page, n.interval)) {
                inner.ctx.charge_copy(d.payload_bytes());
                inner.apply_home_diff(d, n.interval);
                applied += 1;
            } else {
                // A miss in the writer's log: the diff was silently
                // empty. Observe it so the version names what the copy has.
                inner
                    .pages
                    .home_state_mut(n.page)
                    .version
                    .observe(n.interval);
            }
        }
        inner.ctx.trace(TraceKind::HomeRepair {
            notices: missing.len() as u32,
            diffs: applied,
        });
    }

    /// Walk the log to the next `Sync` record, collecting update records
    /// along the way; then apply the sync's notices, restore the pages
    /// they name and those the next interval writes, open the latter for
    /// writing, and send the next sync's wave ahead.
    fn advance_to_sync(&mut self, inner: &mut NodeInner, expected: SyncKind) -> RecoveryStep {
        // Phase 1: the records of this step, collecting the recorded
        // home-copy updates of the interval. The peek one sync earlier
        // (or at recovery start, for the first) read them already.
        let replay = self.replay.as_mut().expect("not in recovery");
        let seg = segment(&replay.records, replay.cursor);
        debug_assert!(
            replay.has_read(&seg),
            "replay used log records it has not read"
        );
        replay.cursor = seg.end;
        if let Some((tag, .., size)) = &seg.sync {
            if *tag != expected {
                // A real record disagreeing with the re-executed sync
                // sequence is a logic bug; a *synthesized* barrier
                // record (size 0) can land here legitimately: mid-log
                // damage may have discarded acquire records below the
                // synthesized horizon. Abandon the replay and re-execute
                // live; home repair runs at exit.
                assert_eq!(*size, 0, "CCL replay drift at {expected:?}");
                self.end_replay();
                return RecoveryStep::LogExhausted;
            }
        }
        let Some((_, notices, vc, _)) = seg.sync else {
            // Log exhausted: pre-crash state reached. (The cursor can
            // only run out at a step boundary because flushes cover
            // whole intervals.)
            self.end_replay();
            return RecoveryStep::LogExhausted;
        };

        // Phase 2: close the re-executed interval, admit the logged
        // notices, and bring this node's copies — home and remote — to
        // the state the next interval saw.
        inner.close_interval();
        // Every page opened for the segment just replayed was written,
        // hence booked and protected again: a page opened for a write
        // that never came could not have been booked by any trap.
        debug_assert!(
            inner
                .pages
                .iter()
                .all(|(_, e)| e.state != PageState::Writable),
            "node {}: a page opened for the replayed interval is still open and unbooked",
            inner.me()
        );
        self.replay.as_mut().expect("not in recovery").unopened = None;
        let me = inner.me() as u32;
        // No grant clock is restored at an acquire: the record holds this
        // node's merged clock, not the lock's.
        let fresh = inner.replay_sync(expected, &notices, &vc);
        // One wave: the home-copy updates, and the image of every held
        // remote page a notice names — resident or not, an image is what
        // a resident copy is brought up to date from as well. Replay
        // touches no page neither resident nor held (the handshake is
        // waited out if that matters): none is restored.
        let mut pages: Vec<PageId> = fresh
            .iter()
            .filter(|n| n.interval.node != me && !inner.pages.is_home(n.page))
            .map(|n| n.page)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let resident = |inner: &NodeInner, p: PageId| inner.pages.entry(p).is_resident();
        if pages.iter().any(|p| !resident(inner, *p)) {
            self.await_hello_replies(inner);
            let held = &self.held;
            pages.retain(|&p| {
                let e = inner.pages.entry(p);
                e.is_resident() || held.pages.contains(&p) || held.whole_homes.contains(e.home)
            });
        }
        // And the pages the interval this sync opens writes but does
        // not hold: it would fault on each, asking at this very clock
        // (this node wrote them, so no held filter applies). Its records
        // are read here, one interval before its sync.
        let replay = self.replay.as_mut().expect("not in recovery");
        let next = segment(&replay.records, replay.cursor);
        replay.read_through(inner, next.end);
        pages.extend(next.written.iter().filter(|&&p| !resident(inner, p)));
        pages.sort_unstable();
        pages.dedup();
        let wave = self.sync_wave(inner, seg.wants);
        debug_assert!(
            wave.asked.iter().all(|p| pages.binary_search(p).is_ok()),
            "the wave sent ahead asked for a page its sync does not want"
        );
        self.restore_wave(inner, wave, &pages);
        self.open_written(inner, &next);

        inner.ctx.trace(TraceKind::RecoveryReplay {
            notices: fresh.len() as u32,
        });
        // Eagerly leave recovery when the log is fully consumed.
        if self
            .replay
            .as_ref()
            .is_some_and(|r| r.cursor >= r.records.len())
        {
            self.end_replay();
        } else {
            self.send_ahead(inner, next);
        }
        RecoveryStep::Replayed
    }
}

/// Take one [`Msg::LoggedDiffReply`] into `found`, charging the receive
/// copy of each diff.
fn absorb_logged_diffs(inner: &mut NodeInner, reply: Msg, found: &mut Found) {
    let Msg::LoggedDiffReply { page, diffs } = reply else {
        unreachable!("waited for a logged diff reply, got {}", reply.kind())
    };
    for (iv, d) in diffs {
        inner.ctx.charge_copy(d.encoded_size());
        found.insert((page, iv), d);
    }
}

/// Emit the `LogAppend` telemetry for one staged CCL record, tagged
/// with the coherence object(s) it is about (`Updates` and `Diffs`
/// carry several pages, see [`trace_append_by_page`]).
fn trace_ccl_append(inner: &mut NodeInner, rec: &CclRecord, record_bytes: u64) {
    let obj = match rec {
        CclRecord::Sync { tag, .. } => match *tag {
            SyncKind::Acquire(lock) => LogObj::Lock { lock },
            SyncKind::Barrier(epoch) => LogObj::Barrier { epoch },
        },
        CclRecord::Updates { pages, .. } => {
            // Each page id's distance from the one before it; the rest
            // is record framing.
            let prev = std::iter::once(0).chain(pages.iter().copied());
            let shares = pages
                .iter()
                .zip(prev)
                .map(|(&page, prev)| (page, var_size(page - prev) as u64));
            return trace_append_by_page(inner, record_bytes, shares);
        }
        CclRecord::Diffs { diffs, .. } => {
            let shares = diffs.iter().map(|d| (d.page, d.encoded_size() as u64));
            return trace_append_by_page(inner, record_bytes, shares);
        }
    };
    inner.ctx.trace(TraceKind::LogAppend {
        bytes: record_bytes,
        obj,
    });
}

impl Default for CclLogger {
    fn default() -> Self {
        CclLogger::new()
    }
}

impl FaultTolerance for CclLogger {
    fn served_copies(&self) -> ServedCopies {
        ServedCopies::Retain
    }

    fn on_notices(
        &mut self,
        inner: &mut NodeInner,
        kind: SyncKind,
        notices: &[WriteNotice],
        vc: &VClock,
    ) {
        self.stage(
            inner,
            CclRecord::Sync {
                tag: kind,
                notices: notices.to_vec(),
                vc: vc.clone(),
            },
        );
        // Flush at barrier completion so a barrier-aligned crash finds
        // the episode's notices on disk (lock-acquire notices keep the
        // paper's schedule: flushed at the subsequent release) —
        // asynchronously, durable long before the next barrier.
        if matches!(kind, SyncKind::Barrier(_)) {
            // Only the write() copy is paid here: the batch joins the
            // device queue and no backpressure is charged at a barrier.
            let (cpu, drain) = self.flush_staged(inner);
            if drain > SimDuration::ZERO {
                inner.ctx.charge_disk(cpu);
                let _ = StableLog::write_behind(inner, drain);
            }
        }
    }

    fn on_diff_flush(&mut self, inner: &mut NodeInner, flush: &Msg) -> SimDuration {
        if let Msg::DiffFlush { writer, diffs } = flush {
            let pages = diffs.iter().map(|d| d.page).collect();
            let record = CclRecord::Updates {
                writer: *writer,
                pages,
            };
            self.stage(inner, record);
        }
        // No write-ahead gate: the writer's own stable log keeps the
        // diffs this record names.
        SimDuration::ZERO
    }

    fn on_diffs_created(
        &mut self,
        inner: &mut NodeInner,
        interval: IntervalId,
        diffs: &[PageDiff],
    ) {
        if !diffs.is_empty() {
            self.stage(
                inner,
                CclRecord::Diffs {
                    interval,
                    diffs: diffs.to_vec(),
                },
            );
        }
    }

    fn flush_after_send(&mut self, inner: &mut NodeInner) -> SimDuration {
        let (cpu, drain) = self.flush_staged(inner);
        if drain == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        // Asynchronous write-behind: the write() copy overlaps the diff
        // acks in flight, and the device drains the batch in the
        // background while the node computes on (the paper's
        // latency-tolerance technique). Visible: the copy, plus
        // backpressure from an undrained flush.
        cpu + StableLog::write_behind(inner, drain)
    }

    fn begin_recovery(&mut self, inner: &mut NodeInner) -> Option<Vec<u8>> {
        inner.ctx.trace(TraceKind::RecoveryBegin);
        // Handshake first: its round trip overlaps this node's own
        // salvage scan. The replies are collected by `recovery_wait` as
        // they arrive.
        let me = inner.me();
        for peer in (0..inner.cfg.n_nodes).filter(|&p| p != me) {
            let stopped = inner.ctx.stats.sends_to_stopped;
            inner
                .ctx
                .send(peer, Msg::RecoveryHello)
                .expect("send recovery hello");
            if inner.ctx.stats.sends_to_stopped > stopped {
                // A finished peer answers nothing: assume the worst.
                self.held.whole_homes.insert(peer);
            } else {
                self.held.pending += 1;
                self.held.manager_due |= peer == inner.cfg.barrier_manager();
            }
        }
        let s = self.log.salvage(inner);
        // Any lost record may be an `Updates` the cluster already saw
        // this home apply (its writer's stable log still has the diff):
        // schedule the home-repair wave that refetches them.
        self.needs_repair = s.lost_tail || s.meta_rot;
        // The salvage scan CRC-verified every surviving payload: a
        // decode failure here would be a logic bug, not damage. Replay
        // read charging covers the framed record, header included.
        let records: Vec<(CclRecord, usize)> = inner.ctx.disk.peek_stream(CCL_STREAM)[..s.records]
            .iter()
            .map(|record| {
                let payload = frame::payload(record);
                let rec = CclRecord::decode_from_slice(&payload).expect("verified CCL log record");
                (rec, record.len())
            })
            .collect();
        // Replay reads on where the salvage scan left the head: from
        // here on, the log drains into memory ahead of replay, and each
        // read waits only for what the scan has not reached yet.
        let scan = inner.ctx.disk.warm_scan(inner.ctx.now());
        // The crash wiped the diffs this node served: the same scan
        // brings each back, and a miss is known once it holds the log.
        let mut prefix = 0;
        for (rec, size) in &records {
            prefix += size;
            if let CclRecord::Diffs { interval, diffs } = rec {
                for d in diffs {
                    let key = (d.page, interval.seq);
                    self.serve_cache
                        .insert(key, (d.clone(), scan.ready_at(prefix)));
                }
            }
        }
        self.misses_known_at = scan.ready_at(prefix);
        let mut replay = CclReplay {
            records,
            cursor: 0,
            read_to: 0,
            scan,
            restored: HashMap::new(),
            wave: None,
            ahead: None,
            unopened: None,
        };
        if self.rebuild_served_logs && !replay.records.is_empty() {
            // Before anything here waits, hence serves: what this replay
            // will bring back into the home copies, so a peer's fetch
            // can tell what it must wait for. That is every `Updates`
            // record of the log, read through to its end first.
            replay.read_through(inner, replay.records.len());
            let updates = replay.records.iter().filter_map(|(rec, _)| match rec {
                CclRecord::Updates { writer, pages } => Some((writer, pages)),
                _ => None,
            });
            inner.pages.rebuild_served_logs(
                updates.flat_map(|(writer, pages)| pages.iter().map(|page| (*page, *writer))),
            );
        }
        // Replay to the cluster-visible horizon, not just to the end of
        // a prefix that lost its tail (see `lost_releases`): the writes
        // a live re-execution would redo are refetchable from nobody.
        // Synthesized records carry size 0: nothing is read for them.
        if s.lost_tail && !s.meta_rot {
            let releases =
                fetch_release_history(inner, |inner, is_reply| self.recovery_wait(inner, is_reply));
            let last_logged = (replay.records.iter())
                .filter_map(|(rec, _)| match rec {
                    CclRecord::Sync {
                        tag: SyncKind::Barrier(e),
                        ..
                    } => Some(*e),
                    _ => None,
                })
                .max();
            // The synthesized records, like real `Sync` records, carry
            // only notices and the clock.
            for (epoch, vc, notices, _) in lost_releases(inner, &releases, last_logged) {
                let sync = CclRecord::Sync {
                    tag: SyncKind::Barrier(*epoch),
                    notices: notices.clone(),
                    vc: vc.clone(),
                };
                replay.records.push((sync, 0));
            }
            self.saved_releases = Some(releases);
        }
        // Nothing was ever logged: crash before the first flush.
        self.replay = (!replay.records.is_empty()).then_some(replay);
        let Some(replay) = self.replay.as_mut() else {
            return s.app;
        };
        // The first replayed interval has no sync to restore the pages
        // it writes: they get a wave of their own before replay starts,
        // and the first sync's wave leaves right after it.
        let first = segment(&replay.records, 0);
        replay.read_through(inner, first.end);
        let pages: Vec<PageId> = (first.written.iter())
            .filter(|&&p| !inner.pages.entry(p).is_resident())
            .copied()
            .collect();
        if !pages.is_empty() {
            self.restore_wave(inner, Wave::default(), &pages);
        }
        self.open_written(inner, &first);
        self.send_ahead(inner, first);
        s.app
    }

    fn on_checkpoint(&mut self, inner: &mut NodeInner) {
        self.log.truncate_at_checkpoint(inner);
        self.unflushed.clear();
        self.serve_cache.clear();
    }

    fn in_recovery(&self) -> bool {
        self.replay.is_some()
    }

    fn recovery_sync(&mut self, inner: &mut NodeInner, kind: SyncKind) -> RecoveryStep {
        self.advance_to_sync(inner, kind)
    }

    fn recovery_fault(&mut self, inner: &mut NodeInner, page: PageId) -> RecoveryStep {
        if inner.pages.is_home(page) {
            // A home write trapped where replay meant to open it: the
            // barrier manager's list was not in. This trap is paid
            // either way; wait here for the list, which opens the rest.
            // Anywhere else it is a write no list names, and needs
            // nothing.
            while self.held.manager_due
                && (self.replay.as_ref()).is_some_and(|r| r.unopened.is_some())
            {
                let env =
                    self.recovery_wait(inner, |m| matches!(m, Msg::RecoveryHelloReply { .. }));
                self.note_hello_reply(inner, &env);
            }
            return RecoveryStep::Replayed;
        }
        // A page no replayed notice named (first touch), or one this
        // node used as a predicted copy without living to tell its
        // home, was not restored ahead of time; restore on demand.
        self.restore_wave(inner, Wave::default(), &[page]);
        // Replay is deterministic: a page it touches was shipped here
        // before the crash, and every shipped copy left an image at its
        // home. None means replay left the logged run.
        assert!(
            inner.pages.entry(page).is_resident(),
            "CCL replay drift: node {} touched page {page} at {:?}, \
             where its home retains no image of it",
            inner.me(),
            inner.vc
        );
        RecoveryStep::Replayed
    }

    fn finish_recovery(&mut self, inner: &mut NodeInner) {
        // A replay that never needed the handshake (nothing to fetch)
        // still consumes its replies before going live.
        self.await_hello_replies(inner);
        if std::mem::take(&mut self.needs_repair) {
            self.repair_home_pages(inner);
        }
    }

    fn serve_logged_diffs(&mut self, inner: &mut NodeInner, env: &Envelope<Msg>) {
        let Msg::LoggedDiffRequest { page, seqs } = &env.payload else {
            return;
        };
        let me = inner.me() as u32;
        let arrived = inner.ctx.service_time(env);
        let mut out: Vec<(IntervalId, PageDiff)> = Vec::new();
        let mut ready = arrived;
        for &seq in seqs {
            // Each diff once it is in memory; a miss means a silent
            // write whose diff was empty, known once the whole log is.
            match self.serve_cache.get(&(*page, seq)) {
                Some((d, at)) => {
                    out.push((IntervalId { node: me, seq }, d.clone()));
                    ready = ready.max(*at);
                }
                None => ready = ready.max(self.misses_known_at),
            }
        }
        let payload: usize = out.iter().map(|(_, d)| d.encoded_size()).sum();
        let done = ready + inner.ctx.cost.cpu.copy(payload);
        inner
            .ctx
            .send_from(
                done,
                env.src,
                Msg::LoggedDiffReply {
                    page: *page,
                    diffs: out,
                },
            )
            .expect("send logged diff reply");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlrc::DsmConfig;
    use pagemem::{PageFrame, Twin};
    use simnet::{run_cluster, CostModel};

    /// A home meets a diff flush once: CCL stages an `Updates` record of
    /// the writer and the flushed pages, in flush order, and the ack
    /// waits for no disk — the writer's own log keeps the diffs.
    #[test]
    fn a_diff_flush_stages_its_update_record_and_waits_for_nothing() {
        let cfg = DsmConfig::new(1, 4).with_page_size(64);
        run_cluster::<Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            let mut ccl = CclLogger::new();
            let base = PageFrame::zeroed(64);
            let mut written = base.clone();
            written.write_u64(0, 5);
            let writer = IntervalId { node: 1, seq: 4 };
            let diffs = [1, 2, 3].map(|p| PageDiff::create(p, &Twin::of(&base), &written));
            let flush = Msg::DiffFlush {
                writer,
                diffs: diffs.to_vec(),
            };
            assert_eq!(ccl.on_diff_flush(&mut inner, &flush), SimDuration::ZERO);
            assert_eq!(
                inner.ctx.disk.record_count(CCL_STREAM),
                0,
                "nothing flushed"
            );
            ccl.flush_after_send(&mut inner);
            let log = inner.ctx.disk.peek_stream(CCL_STREAM);
            assert_eq!(log.len(), 1, "one record staged");
            let rec = CclRecord::decode_from_slice(&frame::payload(&log[0]));
            let pages = vec![1, 2, 3];
            assert_eq!(rec, Ok(CclRecord::Updates { writer, pages }));
        });
    }

    /// A writer whose crash wiped the diffs it served gets them back from
    /// its salvaged log: each once the scan replay reads from holds the
    /// record carrying it, at `scan.ready_at(prefix)`, and a miss once
    /// that scan holds the whole log. Refilling counts no read of its
    /// own: the scan is replay's.
    #[test]
    fn a_recovered_writer_serves_each_diff_as_its_scan_reaches_it() {
        let cfg = DsmConfig::new(1, 2).with_page_size(64);
        run_cluster::<Msg, _, _>(1, CostModel::default(), move |ctx| {
            let mut inner = NodeInner::new(ctx, cfg);
            let mut ccl = CclLogger::new();
            let base = PageFrame::zeroed(64);
            let diff = |page: PageId, word: usize| {
                let mut frame = base.clone();
                frame.write_u64(8 * word, word as u64 + 1);
                PageDiff::create(page, &Twin::of(&base), &frame)
            };
            let iv = |seq| IntervalId { node: 0, seq };
            ccl.on_diffs_created(&mut inner, iv(0), &[diff(0, 1)]);
            let flush = Msg::DiffFlush {
                writer: IntervalId { node: 1, seq: 0 },
                diffs: vec![diff(1, 3)],
            };
            ccl.on_diff_flush(&mut inner, &flush);
            ccl.on_diffs_created(&mut inner, iv(1), &[diff(0, 2), diff(1, 7)]);
            ccl.flush_after_send(&mut inner);
            let records = inner.ctx.disk.peek_stream(CCL_STREAM).to_vec();

            // The crash: node and logger restart with nothing but the disk.
            drop(ccl);
            let mut inner = inner.restart();
            let mut ccl = CclLogger::new();
            ccl.begin_recovery(&mut inner);
            let scan = ccl.replay.as_ref().expect("replay scans").scan;
            let (mut prefix, mut served) = (0, 0);
            for record in &records {
                prefix += record.len();
                if let CclRecord::Diffs { interval, diffs } =
                    CclRecord::decode_from_slice(&frame::payload(record)).expect("own record")
                {
                    for d in diffs {
                        let (kept, ready) = &ccl.serve_cache[&(d.page, interval.seq)];
                        assert_eq!((kept, *ready), (&d, scan.ready_at(prefix)));
                        served += 1;
                    }
                }
            }
            assert_eq!((ccl.serve_cache.len(), served), (3, 3));
            assert_eq!(ccl.misses_known_at, scan.ready_at(prefix));
            // Replay read the only segment at recovery start, once.
            let counters = inner.ctx.disk.counters();
            assert_eq!((counters.reads, counters.bytes_read), (1, prefix as u64));
        });
    }
}
