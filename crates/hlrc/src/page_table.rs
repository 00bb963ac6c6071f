//! Per-node page table: the DSM's view of every shared page.
//!
//! Besides the coherence state proper, a home keeps two pieces of
//! volatile directory state per page for its peers' recoveries, in the
//! page's [`HomeState`]: the copyset (who touched a copy of it) and,
//! under a protocol that retains served pages, the [`ServedLog`] (what
//! anyone was sent).
//! Neither prices anything: no clock is charged for keeping them — only
//! for getting the served logs *back* after this node's own crash
//! ([`PageTable::rebuild_served_logs`]).

use pagemem::{
    Access, Encode, IntervalId, PageDiff, PageFrame, PageId, PageState, SharedBytes, Twin, VClock,
};
use simnet::NodeId;

use crate::config::DsmConfig;
use crate::msg::RecoveryImage;
use crate::served::ServedLog;

/// A set of node ids, one bit each. Empty sets allocate nothing, so
/// carrying one per page-table entry costs a `Vec` header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet(Vec<u64>);

impl NodeSet {
    /// Add `node` to the set.
    pub fn insert(&mut self, node: NodeId) {
        let word = node / 64;
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (node % 64);
    }

    /// Is `node` in the set?
    pub fn contains(&self, node: NodeId) -> bool {
        self.0
            .get(node / 64)
            .is_some_and(|w| w & (1 << (node % 64)) != 0)
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One shared page as seen by one node. Every node holds an entry for
/// every page, so a field that only the page's home uses belongs in
/// [`HomeState`], not here: a non-home entry carries none of it.
#[derive(Debug, Clone)]
pub struct PageEntry {
    /// The page's home node (static).
    pub home: NodeId,
    /// Local protection state. Home copies are born `ReadOnly` (write
    /// detection re-armed each interval; replay may open one ahead of a
    /// write it knows of) and are never invalidated.
    pub state: PageState,
    /// Local frame, if a copy exists. Home copies always exist. A copy
    /// that came from its home — fetched, predicted, replayed from a
    /// log or restored — is the buffer it was shipped in, shared, and a
    /// clean home frame is the buffer it was last served as: a frame
    /// turns private only where a write is booked
    /// ([`HlrcNode::ensure_access`]) or a home applies a diff
    /// ([`PageTable::before_home_write`]). A dirty frame is always
    /// private.
    ///
    /// [`HlrcNode::ensure_access`]: crate::HlrcNode::ensure_access
    pub frame: Option<PageFrame>,
    /// Twin taken at the first write of the current interval (non-home).
    pub twin: Option<Twin>,
    /// Written during the current interval?
    pub dirty: bool,
    /// Non-home side: this copy arrived as a prefetch prediction and has
    /// not been touched yet — the version it was shipped at. Its frame
    /// is the reply buffer it came in, as the home shipped it; the first
    /// access hands both over as the reply (and counts a hit, see
    /// [`PageTable::take_predicted`]). A predicted copy invalidated
    /// untouched was a wasted prediction and never took a private
    /// frame. It cannot change before its first touch: a write traps
    /// first, and a notice drops it.
    pub predicted: Option<VClock>,
    /// What the home keeps of the page: `Some` exactly at the home node.
    pub home_state: Option<Box<HomeState>>,
}

/// What only a page's home keeps of it: the home copy's version and
/// checkpoint base, and the directory state kept for its peers'
/// recoveries.
#[derive(Debug, Clone)]
pub struct HomeState {
    /// Home-copy version: per-writer count of applied intervals.
    pub version: VClock,
    /// Version of the home copy at the last checkpoint (zero before
    /// one): the next incremental checkpoint writes the page only if
    /// `version` moved past it. The checkpointed bytes are on disk, and
    /// in memory only as image 0 of a retaining table's `served` log.
    pub base_version: VClock,
    /// The nodes that ever *touched* a copy of this page — faulted on
    /// it (demand fetch), reported the first touch of a predicted copy,
    /// or restored it while recovering. A predicted copy that was
    /// shipped and never reported is not here: most are never read.
    /// Volatile directory state kept *outside* the touching node, so
    /// that node's crash does not orphan it: replay is deterministic, so
    /// a recovering node touches exactly the pages it touched before,
    /// and its homes can tell it which (see [`PageTable::held_by`]) —
    /// all but a first touch whose report had not left yet, which replay
    /// restores when it faults on it. Never cleared at a checkpoint — a
    /// copy cached before the checkpoint is re-touched after it without
    /// a new fetch.
    pub copyset: NodeSet,
    /// The page's write history and the reply buffers retained from it
    /// since the last checkpoint. Empty unless the table
    /// [retains](ServedCopies::Retain) what it serves.
    pub served: ServedLog,
}

impl HomeState {
    /// A home copy's state at `version`, over checkpoint base `base_version`.
    fn at(version: VClock, base_version: VClock) -> Box<HomeState> {
        Box::new(HomeState {
            version,
            base_version,
            copyset: NodeSet::default(),
            served: ServedLog::default(),
        })
    }
}

impl PageEntry {
    /// Page `home`'s entry as node `me` first holds it: a home copy
    /// zeroed at version zero, or no copy at all.
    fn fresh(home: NodeId, me: NodeId, n_nodes: usize, page_size: usize) -> PageEntry {
        let at_home = home == me;
        PageEntry {
            home,
            state: if at_home {
                PageState::ReadOnly
            } else {
                PageState::Invalid
            },
            frame: at_home.then(|| PageFrame::zeroed(page_size)),
            twin: None,
            dirty: false,
            predicted: None,
            home_state: at_home.then(|| HomeState::at(VClock::new(n_nodes), VClock::new(n_nodes))),
        }
    }

    /// Does this node hold a copy of the page it has touched: a frame
    /// that is no predicted copy waiting for its first touch?
    pub fn is_resident(&self) -> bool {
        self.frame.is_some() && self.predicted.is_none()
    }
}

/// The buffer a home serves or retains of its frame as it stands: a
/// clean frame's own, which the frame shares from then on until it
/// changes ([`PageFrame::share`]), so every copy of one clean version
/// is one allocation; a dirty frame's copy, since the frame is still
/// being written and stays private.
fn image_of(frame: &mut PageFrame, dirty: bool) -> SharedBytes {
    if dirty {
        SharedBytes::copy_of(frame.bytes())
    } else {
        frame.share()
    }
}

/// How far back the served logs of the pages homed here reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServedLogs {
    /// To the checkpoint base.
    Whole,
    /// A crash of this node wiped them: every recovery fetch is answered
    /// "absent" until the next checkpoint.
    Lost,
    /// A crash wiped them and this node's replay is re-forming them
    /// ([`PageTable::rebuild_served_logs`]): whole up to what it re-reached.
    Rebuilding,
}

/// What a home keeps of the page copies it serves: the two answers of
/// [`FaultTolerance::served_copies`](crate::FaultTolerance::served_copies).
/// Either way every copy of one clean version is the home frame's own
/// buffer, shared until the frame next changes (see
/// [`PageTable::serve_copy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedCopies {
    /// Keep nothing beyond the frame. The "None" baseline, and ML,
    /// whose receivers log each reply with the buffer it came in.
    Forget,
    /// Keep the write history and the reply buffer of every version
    /// served ([`ServedLog`]), to restore a recovering peer's copies
    /// from (CCL).
    Retain,
}

/// The full table for one node.
#[derive(Debug)]
pub struct PageTable {
    entries: Vec<PageEntry>,
    page_size: usize,
    me: NodeId,
    n_nodes: usize,
    /// Do the copysets record every touch the cluster ever told this
    /// home of? False once a crash of this node wiped them.
    copysets_complete: bool,
    /// What this home keeps of the copies it serves.
    served_copies: ServedCopies,
    /// See [`ServedLogs`].
    served_logs: ServedLogs,
}

impl PageTable {
    /// Build the table for node `me`: home pages get zeroed frames and
    /// zeroed version clocks; remote pages start `Invalid` with no frame.
    pub fn new(cfg: &DsmConfig, me: NodeId) -> PageTable {
        let homes = (0..cfg.n_pages).map(|p| cfg.home_of(p));
        PageTable::of(cfg, me, homes)
    }

    /// The table of node `me` restarting after a crash, built as
    /// [`PageTable::new`] builds one, from the one thing the crash kept
    /// of the old table: its [`home_map`](Self::home_map). Home pages
    /// are zeroed at version zero until the checkpoint restore fills
    /// them in ([`PageTable::restore_home`]). The directory is marked
    /// lost, which is what a restarted node knows: neither what the
    /// cluster fetched from this home before the crash nor what it was
    /// sent.
    pub fn restarted(cfg: &DsmConfig, me: NodeId, homes: Vec<NodeId>) -> PageTable {
        debug_assert_eq!(homes.len(), cfg.n_pages as usize);
        PageTable {
            copysets_complete: false,
            served_logs: ServedLogs::Lost,
            ..PageTable::of(cfg, me, homes.into_iter())
        }
    }

    /// A table of fresh entries over `homes`, each page's home.
    fn of(cfg: &DsmConfig, me: NodeId, homes: impl Iterator<Item = NodeId>) -> PageTable {
        let page_size = cfg.layout.page_size();
        let entries = homes.map(|home| PageEntry::fresh(home, me, cfg.n_nodes, page_size));
        PageTable {
            entries: entries.collect(),
            page_size,
            me,
            n_nodes: cfg.n_nodes,
            copysets_complete: true,
            served_copies: ServedCopies::Forget,
            served_logs: ServedLogs::Whole,
        }
    }

    /// The page→home map: each page's home. The program's allocation,
    /// identical on every node, and all a crash of this node keeps of
    /// the table: recovery routes its first requests by it before the
    /// re-run program allocates again.
    pub fn home_map(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.home).collect()
    }

    /// From here on, keep `copies` of the pages served from here. Set
    /// once, when the node is built, from
    /// [`FaultTolerance::served_copies`](crate::FaultTolerance::served_copies).
    pub fn keep_served_copies(&mut self, copies: ServedCopies) {
        self.served_copies = copies;
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `page` homed at this node?
    #[inline]
    pub fn is_home(&self, page: PageId) -> bool {
        self.entries[page as usize].home == self.me
    }

    /// Shared view of an entry.
    #[inline]
    pub fn entry(&self, page: PageId) -> &PageEntry {
        &self.entries[page as usize]
    }

    /// Mutable view of an entry.
    #[inline]
    pub fn entry_mut(&mut self, page: PageId) -> &mut PageEntry {
        &mut self.entries[page as usize]
    }

    /// The home state of `page`.
    ///
    /// # Panics
    /// Panics if `page` is not homed here.
    pub fn home_state(&self, page: PageId) -> &HomeState {
        self.entries[page as usize]
            .home_state
            .as_deref()
            .expect("page not homed here")
    }

    /// Mutable home state of `page`.
    ///
    /// # Panics
    /// Panics if `page` is not homed here.
    pub fn home_state_mut(&mut self, page: PageId) -> &mut HomeState {
        self.entries[page as usize]
            .home_state
            .as_deref_mut()
            .expect("page not homed here")
    }

    /// The local frame of `page`.
    ///
    /// # Panics
    /// Panics if no local copy exists (protocol bug: access without
    /// `ensure_access`).
    #[inline]
    pub fn frame(&self, page: PageId) -> &PageFrame {
        self.entries[page as usize]
            .frame
            .as_ref()
            .expect("access to page without a local copy")
    }

    /// Mutable local frame of `page`: writable only if it is private.
    #[inline]
    pub fn frame_mut(&mut self, page: PageId) -> &mut PageFrame {
        self.entries[page as usize]
            .frame
            .as_mut()
            .expect("write to page without a local copy")
    }

    /// Does `access` to `page` change nothing — no trap, no fetch, no
    /// booking? True when no predicted copy waits for its first touch
    /// and the page is resident for a read, or already dirty and
    /// writable (a home page is always writable once dirty) for a
    /// write. Asked on every access, ahead of the fault handler
    /// ([`HlrcNode::ensure_access`]), whose slow path would leave such
    /// an entry as it found it.
    ///
    /// [`HlrcNode::ensure_access`]: crate::HlrcNode::ensure_access
    #[inline]
    pub fn access_changes_nothing(&self, page: PageId, access: Access) -> bool {
        let e = &self.entries[page as usize];
        e.predicted.is_none()
            && match access {
                Access::Read => e.state != PageState::Invalid,
                Access::Write => e.dirty && (e.home == self.me || e.state == PageState::Writable),
            }
    }

    /// Pages dirtied in the current interval.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dirty)
            .map(|(p, _)| p as PageId)
            .collect()
    }

    /// Install a copy of non-home page `page` that came from its home:
    /// the buffer it was shipped in becomes the frame, shared with the
    /// home and any other holder until its first write.
    pub fn install_copy(&mut self, page: PageId, data: SharedBytes, state: PageState) {
        let e = &mut self.entries[page as usize];
        debug_assert_ne!(e.home, self.me, "installing a copy of a home page");
        e.frame = Some(PageFrame::shared(data));
        e.state = state;
    }

    /// Install a predicted copy of invalid non-home page `page`: the
    /// reply buffer itself, shared with the home and any other holder,
    /// and its version, until [its first touch](Self::take_predicted).
    pub fn install_predicted(&mut self, page: PageId, data: SharedBytes, version: VClock) {
        let e = &mut self.entries[page as usize];
        debug_assert!(
            e.home != self.me && e.frame.is_none(),
            "predicting a held page"
        );
        e.state = PageState::ReadOnly;
        e.frame = Some(PageFrame::shared(data));
        e.predicted = Some(version);
    }

    /// First touch of `page`: if it holds a predicted copy, it is one
    /// no longer; return its buffer and version — the reply the copy
    /// arrived as.
    pub fn take_predicted(&mut self, page: PageId) -> Option<(SharedBytes, VClock)> {
        let e = &mut self.entries[page as usize];
        // Asked on every remote access that reaches the fault handler:
        // the common answer stores nothing.
        let version = e.predicted.take()?;
        let frame = e.frame.as_ref().and_then(PageFrame::as_shared);
        let data = frame.expect("an untouched predicted copy is its reply buffer");
        Some((data.clone(), version))
    }

    /// Drop the local copy of a non-home page (write-invalidation), and
    /// its twin.
    pub fn invalidate(&mut self, page: PageId) {
        let e = &mut self.entries[page as usize];
        debug_assert_ne!(e.home, self.me, "invalidating a home page");
        e.frame = None;
        e.twin = None;
        e.state = PageState::Invalid;
        e.dirty = false;
        e.predicted = None;
    }

    /// Replay knows the stretch up to the next sync writes `page` — a
    /// resident remote copy its own logged diffs name, or a home page
    /// the barrier manager's history names: make it writable with no
    /// write trap (and, remote, no twin). Nothing is booked here — the
    /// first write marks it dirty (see [`HlrcNode::ensure_access`]), so
    /// whichever interval writes it books it, as a trapped write would
    /// have (a remote page with a `None` twin that replay drops), and
    /// that interval's end write-protects it again. Replay only: a live
    /// interval diffs every remote page it writes against a twin, and
    /// learns which home pages it wrote from their traps.
    ///
    /// [`HlrcNode::ensure_access`]: crate::HlrcNode::ensure_access
    pub fn open_logged_write(&mut self, page: PageId) {
        let e = &mut self.entries[page as usize];
        debug_assert!(
            e.frame.is_some() && e.state == PageState::ReadOnly && e.twin.is_none() && !e.dirty,
            "opening page {page} in state {:?} (home {}, twin {}, dirty {})",
            e.state,
            e.home,
            e.twin.is_some(),
            e.dirty
        );
        e.state = PageState::Writable;
    }

    /// Apply a writer's diff to the home copy, bumping its version. The
    /// frame must be private ([`PageTable::before_home_write`]).
    ///
    /// The decoder already rejects structurally malformed diffs; the
    /// checked apply additionally catches runs that extend past this
    /// node's page size (undetectable without the page), so a corrupt
    /// flush or log record fails with a diagnosis instead of a slice
    /// panic deep in the copy loop.
    pub fn apply_home_diff(&mut self, diff: &PageDiff, writer: IntervalId) {
        let e = &mut self.entries[diff.page as usize];
        debug_assert_eq!(e.home, self.me, "diff flushed to a non-home node");
        diff.apply_checked(e.frame.as_mut().expect("home frame missing"))
            .expect("diff does not fit the home page");
        self.note_home_write(diff.page, writer);
    }

    /// Interval `iv`'s writes to home page `page` are complete in its
    /// frame — a writer's diff was applied, or this node closed an
    /// interval of its own that dirtied the page: the version advances
    /// and, when served pages are retained, so does the write history.
    pub fn note_home_write(&mut self, page: PageId, iv: IntervalId) {
        let retain = self.served_copies == ServedCopies::Retain;
        let h = self.home_state_mut(page);
        h.version.observe(iv);
        if retain {
            h.served.note_write(iv);
        }
    }

    /// This node crashed and is about to replay its log from the
    /// checkpoint base: re-form the served logs the crash wiped, instead
    /// of answering "absent" until the next checkpoint. Replay walks the
    /// same write history — its own intervals as it closes them, and the
    /// `updates` (page, remote interval) its log recorded as it applies
    /// their diffs again — so the histories come back by themselves; the
    /// images do because every frame is [retained](Self::before_home_write)
    /// before it changes; a request for a write not yet re-reached
    /// [waits](Self::awaits_rebuild).
    pub fn rebuild_served_logs(&mut self, updates: impl Iterator<Item = (PageId, IntervalId)>) {
        debug_assert!(
            self.served_copies == ServedCopies::Retain,
            "nothing was retained to rebuild"
        );
        self.served_logs = ServedLogs::Rebuilding;
        for (page, iv) in updates {
            self.home_state_mut(page).served.expect_write(iv);
        }
    }

    /// The frame of home page `page` is about to change — a write is
    /// booked, or a diff applied. While the served logs are being
    /// rebuilt, keep the image at the position it leaves; true when that
    /// took an image (a page copy, charged by the caller). Then the
    /// frame turns private if it was the buffer of a copy served:
    /// whoever holds that buffer keeps it unwritten.
    pub fn before_home_write(&mut self, page: PageId) -> bool {
        let rebuilding = self.served_logs == ServedLogs::Rebuilding;
        let e = &mut self.entries[page as usize];
        let frame = e.frame.as_mut().expect("home frame");
        let h = e.home_state.as_deref_mut().expect("page not homed here");
        let retained = rebuilding && h.served.retain(|| image_of(frame, e.dirty));
        frame.make_private();
        retained
    }

    /// Must a recovery fetch of home page `page` at clock `required`
    /// wait for this node's replay? While the rebuilt log lacks a write
    /// `required` covers: an interval of this node's own beyond the
    /// `closed` ones it has closed again (which pages it wrote is in no
    /// log, so any counts), or a recorded update of the page not yet
    /// applied again.
    pub fn awaits_rebuild(&self, page: PageId, required: &VClock, closed: u32) -> bool {
        self.served_logs == ServedLogs::Rebuilding
            && (required.get(self.me as u32) > closed
                || self.home_state(page).served.awaits(required))
    }

    /// Replay is over: the rebuilt logs are whole again, once the state
    /// replay ended in is retained too (the next change of these frames
    /// is a live one, which retains nothing). Returns how many page
    /// copies that took, for the caller to charge.
    pub fn finish_served_rebuild(&mut self) -> usize {
        if self.served_logs != ServedLogs::Rebuilding {
            return 0;
        }
        self.served_logs = ServedLogs::Whole;
        let mut copies = 0;
        for e in &mut self.entries {
            let Some(h) = e.home_state.as_deref_mut() else {
                continue;
            };
            let frame = e.frame.as_mut().expect("home frame");
            let changed = h.served.pos() > 0;
            copies += usize::from(changed && h.served.retain(|| image_of(frame, e.dirty)));
        }
        copies
    }

    /// Promote current home copies to be the new checkpoint base
    /// (called when a checkpoint is taken). The served logs restart
    /// from it: see [`ServedLog::truncate_at_checkpoint`].
    pub fn promote_base(&mut self) {
        self.served_logs = ServedLogs::Whole;
        for e in &mut self.entries {
            let Some(h) = e.home_state.as_deref_mut() else {
                continue;
            };
            h.base_version = h.version.clone();
            if self.served_copies == ServedCopies::Retain {
                let frame = e.frame.as_mut().expect("home frame");
                h.served.truncate_at_checkpoint(|| image_of(frame, e.dirty));
            }
        }
    }

    /// Restore home page `page` from its checkpoint image after a
    /// restart: the frame becomes `data`, at `version`, and so does
    /// image 0 of its served log, where one is kept.
    pub fn restore_home(&mut self, page: PageId, data: &[u8], version: VClock) {
        let retain = self.served_copies == ServedCopies::Retain;
        let e = &mut self.entries[page as usize];
        e.frame = Some(PageFrame::from_bytes(data));
        let h = e
            .home_state
            .as_deref_mut()
            .expect("restoring a page not homed here");
        h.version = version.clone();
        h.base_version = version;
        if retain {
            h.served.start_from(SharedBytes::copy_of(data));
        }
    }

    /// Reassign `page`'s home (explicit data distribution, as the
    /// paper-era applications do). Must be called identically on every
    /// node before the page is first accessed; idempotent, so a
    /// post-crash re-execution of the allocation phase is harmless.
    pub fn set_home(&mut self, page: PageId, home: NodeId) {
        if self.entries[page as usize].home != home {
            self.entries[page as usize] =
                PageEntry::fresh(home, self.me, self.n_nodes, self.page_size);
        }
    }

    /// Record that `by` touched a copy of home page `page`: it faulted
    /// on the page, reported the first touch of a predicted copy of it,
    /// or restored it while recovering. Shipping a predicted copy is
    /// not a touch.
    pub fn note_remote_fetch(&mut self, page: PageId, by: NodeId) {
        self.home_state_mut(page).copyset.insert(by);
    }

    /// A copy of home page `page` to ship — the demand page, or a
    /// predicted extra: the reply buffer and the version it shows. A
    /// clean frame is served as its own buffer, which it shares from
    /// then on, so every fetch of one clean version is answered with one
    /// allocation, and the frame turns private again only when it next
    /// changes ([`PageTable::before_home_write`]); a dirty frame is
    /// copied each time. A table that [retains](ServedCopies::Retain)
    /// keeps the buffer and answers every fetch at that position with
    /// it; an extra's buffer is retained like any other, since a peer
    /// that touched it and crashed before saying so restores it from
    /// that image. Who the copy goes to is not recorded here (see
    /// [`PageTable::note_remote_fetch`]).
    pub fn serve_copy(&mut self, page: PageId) -> (SharedBytes, VClock) {
        let retain = self.served_copies == ServedCopies::Retain;
        let e = &mut self.entries[page as usize];
        let frame = e.frame.as_mut().expect("home frame");
        let h = e.home_state.as_deref_mut().expect("page not homed here");
        let mut image = || image_of(frame, e.dirty);
        let data = if retain {
            h.served.serve(image)
        } else {
            image()
        };
        (data, h.version.clone())
    }

    /// The retained image, and its position, that a peer replaying at
    /// clock `required` restores its copy of home page `page` from —
    /// the selection rule of [`ServedLog::select`], with the live frame
    /// admitted only while it is clean and not ahead of `required`.
    /// `None` when no admissible image exists, or when a crash of this
    /// home wiped the log for good.
    ///
    /// A log being rebuilt has an image at every position replay has
    /// left, so the selection falls through to the live frame only at
    /// the current one, where a clean frame *is* the image.
    pub fn recovery_image(
        &mut self,
        page: PageId,
        required: &VClock,
    ) -> Option<(u32, SharedBytes)> {
        if self.served_logs == ServedLogs::Lost {
            return None;
        }
        let rebuilding = self.served_logs == ServedLogs::Rebuilding;
        let e = &mut self.entries[page as usize];
        let frame = e.frame.as_mut().expect("home frame");
        let h = e.home_state.as_deref_mut().expect("page not homed here");
        let live = (!e.dirty && (rebuilding || h.version.dominated_by(required)))
            .then_some(|| frame.share());
        h.served.select(required, live, self.page_size)
    }

    /// The whole answer to a peer replaying at clock `required` that
    /// asks for home page `page` and says it still holds the image at
    /// `held`: the image [`PageTable::recovery_image`] selects, as a
    /// diff against the held one whenever taking it in costs the
    /// requester less copying than the page (its encoding plus its
    /// payload, the two copies the requester makes, under the page
    /// size; nothing but an empty diff when they are the same image),
    /// else whole. The home keeps no per-requester state — a `held`
    /// position it no longer retains, one it has sent to nobody since
    /// it crashed (the requester means the previous incarnation's
    /// image), or none, simply yields the whole page. The diff rebuilds the selected image from the held *image* and from
    /// nothing else: the requester's copy also holds the writes it has
    /// re-executed since, and a word one of them changed and a later
    /// writer changed back is equal in both images and so in no diff
    /// between them. (A requester that wrote the page since is never
    /// told "the same image": its interval is in the history past
    /// `held` and `required` covers it, so the selection lies beyond.)
    /// Also says whether two images had to be compared for the answer.
    pub fn recovery_answer(
        &mut self,
        page: PageId,
        required: &VClock,
        held: Option<u32>,
    ) -> (RecoveryImage, bool) {
        let Some((pos, data)) = self.recovery_image(page, required) else {
            return (RecoveryImage::Absent, false);
        };
        let served = &self.home_state(page).served;
        let Some(old) = held.and_then(|h| served.image_at(h)) else {
            return (RecoveryImage::Image { pos, data }, false);
        };
        if old.ptr_eq(&data) {
            let diff = PageDiff {
                page,
                runs: Vec::new(),
            };
            return (RecoveryImage::Delta { pos, diff }, false);
        }
        let diff = PageDiff::between(page, old, &data);
        if diff.encoded_size() + diff.payload_bytes() < data.len() {
            (RecoveryImage::Delta { pos, diff }, true)
        } else {
            (RecoveryImage::Image { pos, data }, true)
        }
    }

    /// The pages homed here that `node` ever touched a copy of, as far
    /// as it said, ascending — the home's half of the recovery
    /// handshake. Touches noted before a wipe are missing from it when
    /// [`PageTable::copysets_complete`] is false.
    pub fn held_by(&self, node: NodeId) -> Vec<PageId> {
        self.iter()
            .filter(|(_, e)| (e.home_state.as_ref()).is_some_and(|h| h.copyset.contains(node)))
            .map(|(p, _)| p)
            .collect()
    }

    /// Whether the copysets of the pages homed here record every touch
    /// noted since the run began (see [`PageTable::held_by`]).
    pub fn copysets_complete(&self) -> bool {
        self.copysets_complete
    }

    /// Iterate all entries with their page ids.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &PageEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(p, e)| (p as PageId, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DsmConfig {
        DsmConfig::new(2, 4).with_page_size(64)
    }

    #[test]
    fn home_pages_are_resident_remote_invalid() {
        let t = PageTable::new(&cfg(), 0);
        assert!(t.is_home(0) && t.is_home(1));
        assert!(!t.is_home(2) && !t.is_home(3));
        assert_eq!(t.entry(0).state, PageState::ReadOnly);
        assert!(t.entry(0).frame.is_some());
        assert_eq!(t.entry(2).state, PageState::Invalid);
        assert!(t.entry(2).frame.is_none());
    }

    fn word(image: &[u8]) -> u64 {
        u64::from_le_bytes(image[..8].try_into().unwrap())
    }

    #[test]
    fn install_and_invalidate_remote_copy() {
        let mut t = PageTable::new(&cfg(), 0);
        let shipped = SharedBytes::copy_of(&[7u8; 64]);
        t.install_copy(2, shipped.clone(), PageState::ReadOnly);
        assert_eq!(t.frame(2).bytes()[0], 7);
        // The copy is the buffer it came in: no frame was made.
        assert!(t.frame(2).as_shared().is_some_and(|b| b.ptr_eq(&shipped)));
        // A first write makes it private and hands back the buffer it
        // shared, which the write never reaches.
        let frame = t.entry_mut(2).frame.as_mut().unwrap();
        assert!(frame.make_private().is_some_and(|b| b.ptr_eq(&shipped)));
        frame.write_u64(0, 1);
        assert!(!t.frame(2).is_shared() && shipped[0] == 7);
        t.invalidate(2);
        assert_eq!(t.entry(2).state, PageState::Invalid);
        assert!(t.entry(2).frame.is_none());
        // The next copy of that buffer is the buffer again.
        t.install_copy(3, shipped.clone(), PageState::ReadOnly);
        assert!(t.frame(3).as_shared().is_some_and(|b| b.ptr_eq(&shipped)));
        assert_eq!(t.frame(3).bytes()[63], 7);
    }

    #[test]
    fn apply_home_diff_bumps_version() {
        let mut t = PageTable::new(&cfg(), 0);
        let base = PageFrame::zeroed(64);
        let twin = Twin::of(&base);
        let mut m = base.clone();
        m.write_u64(0, 5);
        let d = PageDiff::create(1, &twin, &m);
        let iv = IntervalId { node: 1, seq: 0 };
        t.apply_home_diff(&d, iv);
        assert_eq!(t.frame(1).read_u64(0), 5);
        assert!(t.home_state(1).version.covers(iv));
    }

    #[test]
    fn a_restarted_table_keeps_only_the_home_map() {
        let cfg = cfg();
        let mut t = PageTable::new(&cfg, 0);
        t.set_home(1, 1);
        t.set_home(3, 0);
        t.frame_mut(0).write_u64(0, 99);
        t.promote_base();
        t.install_copy(1, [1u8; 64].into(), PageState::ReadOnly);
        let homes = t.home_map();
        assert_eq!(homes, [0, 1, 1, 0]);
        let mut r = PageTable::restarted(&cfg, 0, homes);
        assert_eq!(r.home_map(), t.home_map());
        // Home copies start over from zero, checkpoint base included:
        // the restart reads the image back from disk. A table retaining
        // served pages shows the base as image 0 while it rebuilds.
        r.keep_served_copies(ServedCopies::Retain);
        r.rebuild_served_logs(std::iter::empty());
        let horizon_0 = VClock::new(2);
        for page in [0, 3] {
            assert_eq!(r.frame(page).read_u64(0), 0);
            assert_eq!(r.home_state(page).version, VClock::new(2));
            let (pos, image) = r.recovery_image(page, &horizon_0).expect("base");
            assert_eq!((pos, &image[..]), (0, &[0u8; 64][..]));
        }
        assert!(r.entry(1).frame.is_none(), "remote copies dropped");
        assert_eq!(r.entry(1).state, PageState::Invalid);
        // The restore fills a home copy in from its checkpoint image.
        let mut v = VClock::new(2);
        v.set(1, 4);
        r.restore_home(0, &[7u8; 64], v.clone());
        assert_eq!(r.frame(0).bytes(), &[7u8; 64][..]);
        let (pos, image) = r.recovery_image(0, &horizon_0).expect("base");
        assert_eq!((pos, &image[..]), (0, &[7u8; 64][..]));
        let h = r.home_state(0);
        assert_eq!((&h.version, &h.base_version), (&v, &v));
        // The re-run allocation names the homes the table already has
        // and leaves a restored home copy alone.
        r.set_home(0, 0);
        assert_eq!(r.frame(0).bytes(), &[7u8; 64][..]);
    }

    #[test]
    fn promote_base_captures_current_state() {
        let mut t = PageTable::new(&cfg(), 0);
        t.keep_served_copies(ServedCopies::Retain);
        t.frame_mut(0).write_u64(0, 42);
        t.note_home_write(0, IntervalId { node: 0, seq: 0 });
        t.promote_base();
        // The base is the frame's buffer until the frame changes.
        assert!(t.frame(0).is_shared());
        t.before_home_write(0);
        t.frame_mut(0).write_u64(0, 77);
        let h = t.home_state(0);
        assert_eq!(h.base_version, h.version);
        let (pos, image) = t.recovery_image(0, &VClock::new(2)).expect("base");
        assert_eq!((pos, word(&image)), (0, 42));
        assert_eq!(t.frame(0).read_u64(0), 77);
        // A table that retains no served pages keeps no image of the
        // checkpoint in memory: the disk has it.
        let mut t = PageTable::new(&cfg(), 0);
        t.frame_mut(0).write_u64(0, 42);
        t.note_home_write(0, IntervalId { node: 0, seq: 0 });
        t.promote_base();
        let h = t.home_state(0);
        assert_eq!(h.served, ServedLog::default());
        assert_eq!(h.base_version, h.version);
    }

    /// Every node holds an entry for every page, and only the home's
    /// holds home state: a home-only field belongs in [`HomeState`],
    /// which the size bound below keeps out of every other entry. The
    /// allocation puts it at each page's home, and a restart rebuilds it
    /// there, at version zero.
    #[test]
    fn only_a_home_holds_home_state() {
        let cfg = cfg();
        let homed_exactly_here = |t: &PageTable| {
            t.iter()
                .all(|(page, e)| e.home_state.is_some() == t.is_home(page))
        };
        let mut node0 = PageTable::new(&cfg, 0);
        let mut node1 = PageTable::new(&cfg, 1);
        assert!(homed_exactly_here(&node0) && homed_exactly_here(&node1));
        assert!(node1.entry(1).home_state.is_none());
        node0.set_home(1, 1);
        node1.set_home(1, 1);
        assert!(node0.entry(1).home_state.is_none() && node1.is_home(1));
        assert!(homed_exactly_here(&node0) && homed_exactly_here(&node1));
        let mut v = VClock::new(2);
        v.set(1, 2);
        node1.home_state_mut(1).version = v;
        let restarted = PageTable::restarted(&cfg, 1, node1.home_map());
        assert!(homed_exactly_here(&restarted) && restarted.is_home(1));
        assert_eq!(restarted.home_state(1).version, VClock::new(2));
        #[cfg(target_pointer_width = "64")]
        assert!(
            std::mem::size_of::<PageEntry>() <= 96,
            "PageEntry is {} B",
            std::mem::size_of::<PageEntry>()
        );
    }

    #[test]
    fn node_set_spans_words() {
        let mut s = NodeSet::default();
        assert!(s.is_empty() && !s.contains(0) && !s.contains(127));
        s.insert(3);
        s.insert(127);
        assert!(s.contains(3) && s.contains(127));
        assert!(!s.contains(2) && !s.contains(64) && !s.contains(128));
    }

    #[test]
    fn copyset_records_who_fetched_what() {
        let mut t = PageTable::new(&DsmConfig::new(4, 8).with_page_size(64), 0);
        assert!(t.copysets_complete());
        t.note_remote_fetch(0, 2);
        t.note_remote_fetch(1, 2);
        t.note_remote_fetch(1, 3);
        assert_eq!(t.held_by(2), vec![0, 1]);
        assert_eq!(t.held_by(3), vec![1]);
        assert!(t.held_by(1).is_empty());
        // A checkpoint does not forget: a copy cached before it is
        // re-touched after it without a new fetch.
        t.promote_base();
        assert_eq!(t.held_by(2), vec![0, 1]);
        assert!(t.copysets_complete());
    }

    #[test]
    fn a_fetch_retains_its_buffer_and_leaves_the_base_alone() {
        let iv = IntervalId { node: 0, seq: 0 };
        let mut t = PageTable::new(&cfg(), 0);
        t.keep_served_copies(ServedCopies::Retain);
        t.frame_mut(0).write_u64(0, 5);
        t.note_home_write(0, iv);
        let (first, version) = t.serve_copy(0);
        assert!(version.covers(iv));
        // The retained image is the clean frame's own buffer.
        assert!(t.frame(0).as_shared().is_some_and(|b| b.ptr_eq(&first)));
        // The base stays the checkpoint image whoever fetches: image 0,
        // selected at horizon 0, is the zeroed page and no buffer served.
        let (pos, base) = t.recovery_image(0, &VClock::new(2)).expect("base");
        assert!(pos == 0 && base[..] == [0u8; 64][..] && !base.ptr_eq(&first));
        // One version, one buffer; a new version, a new one. The write
        // makes the frame private first, and the image keeps its bytes.
        assert!(t.serve_copy(0).0.ptr_eq(&first));
        t.before_home_write(0);
        t.frame_mut(0).write_u64(0, 6);
        t.note_home_write(0, IntervalId { node: 0, seq: 1 });
        assert!(!t.serve_copy(0).0.ptr_eq(&first));
        assert_eq!(word(&first), 5);
        assert_eq!(
            t.home_state(0).served.images().len(),
            3,
            "the base and two versions"
        );
        // A replay that saw only the first write gets the first buffer.
        let (pos, image) = t.recovery_image(0, &version).expect("retained");
        assert!(pos == 1 && image.ptr_eq(&first));
        // A crashed home has nothing to select from until it checkpoints.
        let mut t = PageTable::restarted(&cfg(), 0, t.home_map());
        t.keep_served_copies(ServedCopies::Retain);
        assert!(t.recovery_image(0, &version).is_none());
        t.promote_base();
        assert!(t.recovery_image(0, &version).is_some());
    }

    /// A home that retains nothing ships one buffer per clean version:
    /// the frame's own, which it shares from the first fetch of the
    /// version on, whether anyone still holds a copy or not. A dirty
    /// frame is copied each time and stays private.
    #[test]
    fn a_home_that_retains_nothing_ships_one_buffer_per_clean_version() {
        let mut t = PageTable::new(&cfg(), 0);
        t.frame_mut(0).write_u64(0, 5);
        t.note_home_write(0, IntervalId { node: 0, seq: 0 });
        let (first, version) = t.serve_copy(0);
        assert!(t.frame(0).as_shared().is_some_and(|b| b.ptr_eq(&first)));
        let (second, again) = t.serve_copy(0);
        assert!(second.ptr_eq(&first) && again == version);
        assert!(
            t.home_state(0).served.images().is_empty(),
            "nothing is retained"
        );
        // With every copy dropped, the frame still is the buffer.
        drop((first, second));
        let held = t.serve_copy(0).0;
        assert!(t.serve_copy(0).0.ptr_eq(&held));
        // A dirty frame is copied each time, and nothing of it is kept.
        t.before_home_write(0);
        t.entry_mut(0).dirty = true;
        t.frame_mut(0).write_u64(0, 6);
        let dirty = t.serve_copy(0).0;
        assert!(!dirty.ptr_eq(&held) && !t.serve_copy(0).0.ptr_eq(&dirty));
        assert!(!t.frame(0).is_shared());
        assert_eq!((word(&held), word(&dirty)), (5, 6));
        // A moved version is served as the frame again, and shared from
        // then on.
        t.entry_mut(0).dirty = false;
        t.note_home_write(0, IntervalId { node: 0, seq: 1 });
        let moved = t.serve_copy(0).0;
        assert!(!moved.ptr_eq(&held) && t.serve_copy(0).0.ptr_eq(&moved));
        assert_eq!(word(&moved), 6);
    }

    /// A home frame turns private before every change — a booked write,
    /// an applied diff — so no copy served before sees the change. A home rebuilding its served logs first retains the image
    /// the change leaves.
    #[test]
    fn a_home_frame_turns_private_before_it_changes() {
        let mut t = PageTable::new(&cfg(), 0);
        let served = t.serve_copy(0).0;
        assert!(t.frame(0).as_shared().is_some_and(|b| b.ptr_eq(&served)));
        let twin = Twin::of(&PageFrame::zeroed(64));
        let mut written = PageFrame::zeroed(64);
        written.write_u64(8, 3);
        let diff = PageDiff::create(0, &twin, &written);
        assert!(!t.before_home_write(0), "nothing to retain");
        assert!(!t.frame(0).is_shared(), "and private again");
        t.apply_home_diff(&diff, IntervalId { node: 1, seq: 0 });
        assert_eq!((t.frame(0).read_u64(8), served[8]), (3, 0));
        // A private frame stays as it is.
        t.before_home_write(0);
        assert!(!t.frame(0).is_shared());
        // A crashed home that rebuilds its served logs keeps the image
        // a change leaves: its frame's buffer, once per position.
        let mut r = PageTable::restarted(&cfg(), 0, t.home_map());
        r.keep_served_copies(ServedCopies::Retain);
        r.rebuild_served_logs(std::iter::empty());
        assert!(r.before_home_write(0), "an image retained");
        assert!(!r.frame(0).is_shared());
        assert_eq!(r.home_state(0).served.images().len(), 1);
        assert!(!r.before_home_write(0), "one per position");
    }

    #[test]
    fn a_predicted_copy_is_the_buffer_it_was_shipped_in() {
        let mut t = PageTable::new(&cfg(), 0);
        let data = SharedBytes::copy_of(&[3u8; 64]);
        t.install_predicted(2, data.clone(), VClock::new(2));
        assert_eq!(t.entry(2).state, PageState::ReadOnly);
        assert!(t.frame(2).as_shared().is_some_and(|b| b.ptr_eq(&data)));
        assert!(!t.entry(2).is_resident(), "untouched");
        // Invalidated untouched: it drops as the buffer it came in.
        t.invalidate(2);
        assert!(t.entry(2).predicted.is_none() && t.entry(2).frame.is_none());
        assert!(t.take_predicted(2).is_none());
        // Touched: the buffer is handed back, with its version, as the
        // reply it arrived in, and stays the frame.
        t.install_predicted(3, data.clone(), VClock::new(2));
        let (reply, _) = t.take_predicted(3).expect("predicted");
        assert!(reply.ptr_eq(&data) && t.entry(3).is_resident());
        assert!(t.frame(3).as_shared().is_some_and(|b| b.ptr_eq(&data)));
        assert!(t.take_predicted(3).is_none(), "touched once");
    }

    #[test]
    fn a_crash_makes_the_copysets_unknown() {
        let mut t = PageTable::new(&cfg(), 0);
        assert!(t.copysets_complete());
        t.note_remote_fetch(0, 1);
        let mut t = PageTable::restarted(&cfg(), 0, t.home_map());
        assert!(!t.copysets_complete());
        assert!(t.held_by(1).is_empty() && t.home_state(0).copyset.is_empty());
        // Fetches after the wipe are recorded again.
        t.note_remote_fetch(1, 1);
        assert_eq!(t.held_by(1), vec![1]);
        assert!(!t.copysets_complete());
    }

    #[test]
    fn dirty_tracking() {
        let mut t = PageTable::new(&cfg(), 0);
        assert!(t.dirty_pages().is_empty());
        t.entry_mut(0).dirty = true;
        t.entry_mut(3).dirty = true;
        assert_eq!(t.dirty_pages(), vec![0, 3]);
    }
}
