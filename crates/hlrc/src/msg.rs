//! Protocol messages.
//!
//! Every cross-node interaction of the DSM — coherence, synchronization,
//! and crash recovery — is one of these messages. They carry a real
//! binary encoding (see [`pagemem::codec`]) so that the traffic and log
//! byte counts the experiments report are the bytes a socket
//! implementation would move. `wire_size` adds the UDP/IP-era header
//! overhead per message.

use std::sync::Arc;

use pagemem::{
    ByteReader, CodecError, Decode, Encode, IntervalId, PageDiff, PageId, SharedBytes, Sink, VClock,
};
use simnet::WireSized;

/// Per-message header overhead on the wire (UDP/IP + DSM header).
pub const HEADER_BYTES: usize = 32;

/// Number of distinct [`Msg`] variants. Per-variant traffic counters
/// are indexed by [`Msg::ordinal`], `0..MSG_KINDS`.
pub const MSG_KINDS: usize = 18;

/// Wire tag of the variant with ordinal 0; the rest follow in
/// declaration order. Tag 0 was the bare page request of a node that
/// fetched without predicting, and decodes as an error.
const FIRST_TAG: u8 = 1;

/// Flag bits of a [`Msg::RecoveryHelloReply`]: `complete`, and a
/// `home_writes` list follows the page list.
const HELLO_COMPLETE: u8 = 1;
const HELLO_LISTED: u8 = 2;

/// Short label for a [`Msg`] ordinal, for traffic tables.
pub fn kind_label(ordinal: usize) -> &'static str {
    const LABELS: [&str; MSG_KINDS] = [
        "PageReply",
        "DiffFlush",
        "DiffAck",
        "LockRequest",
        "LockGrant",
        "LockRelease",
        "BarrierArrive",
        "BarrierRelease",
        "RecoveryPageRequest",
        "RecoveryPageReply",
        "LoggedDiffRequest",
        "LoggedDiffReply",
        "ReleaseHistoryRequest",
        "ReleaseHistoryReply",
        "PageRequestBatch",
        "PageReplyBatch",
        "RecoveryHello",
        "RecoveryHelloReply",
    ];
    LABELS.get(ordinal).copied().unwrap_or("?")
}

/// An entry of the home-migration lists the barrier messages still
/// carry, always empty: `(page, new_home)`. Homes never move; the lists
/// keep the wire and log bytes until ROADMAP item 10 drops them.
pub type HomeMigration = (PageId, u32);

/// One page copy inside a [`Msg::PageReplyBatch`].
pub type PageCopy = (PageId, SharedBytes, VClock);

/// One retained barrier release: `(epoch, merged clock, merged notices,
/// an always-empty migration list kept until ROADMAP item 10)`.
pub type EpochRelease = (u32, VClock, Vec<WriteNotice>, Vec<HomeMigration>);

/// What a [`Msg::RecoveryPageReply`] carries: the home's answer from its
/// served-image log (see [`crate::ServedLog`]).
///
/// Wire layout, after the one-byte kind (`2..=4` in declaration order —
/// `0` and `1` were the two replies of a home that logged its own
/// writes' diffs instead of retaining images, and decode as errors):
/// `Image`: `var(pos) bytes(data)`; `Delta`: `var(pos) diff`; `Absent`:
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryImage {
    /// The retained image at position `pos` of the page's served log,
    /// whole.
    Image {
        /// Position of the image.
        pos: u32,
        /// Its contents.
        data: SharedBytes,
    },
    /// The retained image at `pos` as a diff against the image the
    /// request said the requester still holds — sent when copying it
    /// in and then its payload costs the requester less than the page;
    /// empty when they are the same image (`pos`
    /// is the held position). To be applied to that image, which the
    /// requester keeps for the purpose, not to its copy.
    Delta {
        /// Position of the image the diff leads to.
        pos: u32,
        /// `diff(held image, image at pos)`.
        diff: PageDiff,
    },
    /// No image shows the page as of the requested clock: nothing was
    /// fetched at or after it and the home has moved on. The requester
    /// held no copy there before its crash either, and drops its own.
    Absent,
}

impl Encode for RecoveryImage {
    fn encode<S: Sink>(&self, w: &mut S) {
        match self {
            RecoveryImage::Image { pos, data } => {
                w.put_u8(2);
                w.put_var(*pos);
                w.put_bytes(data);
            }
            RecoveryImage::Delta { pos, diff } => {
                w.put_u8(3);
                w.put_var(*pos);
                diff.encode(w);
            }
            RecoveryImage::Absent => w.put_u8(4),
        }
    }
}

impl Decode for RecoveryImage {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            2 => RecoveryImage::Image {
                pos: r.get_var()?,
                data: r.get_bytes()?.into(),
            },
            3 => RecoveryImage::Delta {
                pos: r.get_var()?,
                diff: PageDiff::decode(r)?,
            },
            4 => RecoveryImage::Absent,
            tag => {
                return Err(CodecError::BadTag {
                    context: "RecoveryImage",
                    tag,
                })
            }
        })
    }
}

/// A write-invalidation notice: "`interval.node` modified `page` during
/// `interval`". Piggybacked on lock grants and barrier releases; the
/// receiver invalidates its non-home copy of `page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteNotice {
    /// The modified page.
    pub page: PageId,
    /// The writer's interval in which the modification happened.
    pub interval: IntervalId,
}

/// Longest notice list a decoder accepts. Run-length coding lets a
/// dozen bytes name four billion notices, so the count is the one thing
/// the remaining input cannot bound; beyond this it is damage, not data
/// (2^20 pages dirtied between two synchronizations is 4 GiB of 4 KiB
/// pages). [`encode_notices`] refuses to produce a longer list.
pub const MAX_NOTICES: usize = 1 << 20;

/// Does a run of consecutive pages end between these two neighbours?
fn run_breaks(pair: &[WriteNotice]) -> bool {
    pair[0].page.checked_add(1) != Some(pair[1].page)
}

/// Do two groups name the same pages in the same order (and so the
/// same runs)?
fn same_pages(a: &[WriteNotice], b: &[WriteNotice]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.page == y.page)
}

/// Encode a write-notice list as interval records, all integers
/// variable-length ([`Sink::put_var`]):
///
/// ```text
/// var(n_notices)
/// per group — a maximal span of consecutive notices of one interval:
///     var(node) var(seq) var(n_runs)
///     per run — a maximal span of pages ascending by exactly 1:
///         var(start_page) var(len)
/// ```
///
/// A group whose pages are those of the group just before it, in the
/// same order, is written `var(node) var(seq) var(0)`: `n_runs = 0`
/// means "the runs of the group before", and is invalid for the first
/// group.
///
/// The list is walked in its given order and [`decode_notices`]
/// reproduces it exactly, duplicates and unsorted pages included: the
/// order of a merged list is the manager's causal merge order, which
/// `ReleaseHistoryReply` consumers replay. An interval that dirtied one
/// contiguous strip costs a handful of bytes however long the strip,
/// and writers that dirtied the same pages one after another — every
/// writer of one shared page, as a lock's grants carry them — cost
/// their interval id and one byte each. The worst case, every notice
/// its own group of a new page, is 5–8 bytes a notice at the id ranges
/// any committed run reaches (12 fixed-width).
pub fn encode_notices<S: Sink>(w: &mut S, notices: &[WriteNotice]) {
    assert!(
        notices.len() <= MAX_NOTICES,
        "notice list of {} exceeds the codec limit",
        notices.len()
    );
    w.put_var(notices.len() as u32);
    let mut prev: &[WriteNotice] = &[];
    let mut rest = notices;
    while let Some(first) = rest.first() {
        let interval = first.interval;
        let len = rest.iter().take_while(|n| n.interval == interval).count();
        let (group, tail) = rest.split_at(len);
        rest = tail;
        w.put_var(interval.node);
        w.put_var(interval.seq);
        if same_pages(group, prev) {
            w.put_var(0);
        } else {
            w.put_var(1 + group.windows(2).filter(|pair| run_breaks(pair)).count() as u32);
            let mut start = 0;
            for (k, pair) in group.windows(2).enumerate() {
                if run_breaks(pair) {
                    w.put_var(group[start].page);
                    w.put_var((k + 1 - start) as u32);
                    start = k + 1;
                }
            }
            w.put_var(group[start].page);
            w.put_var((len - start) as u32);
        }
        prev = group;
    }
}

/// Decode a list written by [`encode_notices`]. Counts are not trusted:
/// a list longer than [`MAX_NOTICES`], a first group that repeats the
/// runs of none, a zero-length run, a run past the last page id and
/// runs (or a repeat) that overshoot `n_notices` are all
/// [`CodecError::Invalid`].
pub fn decode_notices(r: &mut ByteReader<'_>) -> Result<Vec<WriteNotice>, CodecError> {
    let invalid = |reason| CodecError::Invalid {
        context: "notice list",
        reason,
    };
    let n = r.get_var()? as usize;
    if n > MAX_NOTICES {
        return Err(invalid("more notices than any list holds"));
    }
    let mut out: Vec<WriteNotice> = Vec::with_capacity(r.capacity_for(n, 1));
    // Where the group before this one lies in `out`.
    let mut prev = 0..0;
    while out.len() < n {
        let interval = IntervalId {
            node: r.get_var()?,
            seq: r.get_var()?,
        };
        let n_runs = r.get_var()?;
        let group = out.len();
        if n_runs == 0 {
            if prev.is_empty() {
                return Err(invalid("the first group repeats no runs"));
            }
            if prev.len() > n - group {
                return Err(invalid("runs overshoot the notice count"));
            }
            for k in prev {
                let page = out[k].page;
                out.push(WriteNotice { page, interval });
            }
        }
        for _ in 0..n_runs {
            let start = r.get_var()?;
            let len = r.get_var()?;
            if len == 0 {
                return Err(invalid("zero-length page run"));
            }
            if len as usize > n - out.len() {
                return Err(invalid("runs overshoot the notice count"));
            }
            let Some(last) = start.checked_add(len - 1) else {
                return Err(invalid("page run passes the last page id"));
            };
            out.extend((start..=last).map(|page| WriteNotice { page, interval }));
        }
        prev = group..out.len();
    }
    Ok(out)
}

/// A `u32`-counted list of `u32` ids (interval seqs, page ids).
fn decode_ids(r: &mut ByteReader<'_>) -> Result<Vec<u32>, CodecError> {
    let n = r.get_u32()? as usize;
    let mut v = Vec::with_capacity(r.capacity_for(n, 4));
    for _ in 0..n {
        v.push(r.get_u32()?);
    }
    Ok(v)
}

/// A strictly ascending page list: `var(count)`, then each id as the
/// distance from the one before it (the first from 0). Neighbouring
/// pages cost a byte each where the fixed-width list spent four.
pub fn put_ascending<S: Sink>(w: &mut S, pages: &[PageId]) {
    w.put_var(pages.len() as u32);
    let mut prev = 0;
    for (i, &page) in pages.iter().enumerate() {
        assert!(i == 0 || page > prev, "page list is not strictly ascending");
        w.put_var(page - prev);
        prev = page;
    }
}

/// Decode a list written by [`put_ascending`]. Nothing is trusted: the
/// count allocates no more than the remaining input could hold (an id
/// takes at least a byte), and a distance of zero or one that carries
/// the id past `u32::MAX` is [`CodecError::Invalid`].
pub fn decode_ascending(r: &mut ByteReader<'_>) -> Result<Vec<PageId>, CodecError> {
    let invalid = |reason| CodecError::Invalid {
        context: "ascending page list",
        reason,
    };
    let n = r.get_var()? as usize;
    let mut out = Vec::with_capacity(r.capacity_for(n, 1));
    let mut prev: PageId = 0;
    for i in 0..n {
        let step = r.get_var()?;
        if i > 0 && step == 0 {
            return Err(invalid("pages do not ascend"));
        }
        prev = prev
            .checked_add(step)
            .ok_or_else(|| invalid("page id passes the last page id"))?;
        out.push(prev);
    }
    Ok(out)
}

/// A kept home-migration list: `u32(count)` then `u32(page) u32(to)`
/// each. Every list sent is empty; ROADMAP item 10 drops the count.
fn encode_migrations<S: Sink>(w: &mut S, migrations: &[HomeMigration]) {
    w.put_u32(migrations.len() as u32);
    for (page, to) in migrations {
        w.put_u32(*page);
        w.put_u32(*to);
    }
}

fn decode_migrations(r: &mut ByteReader<'_>) -> Result<Vec<HomeMigration>, CodecError> {
    let n = r.get_u32()? as usize;
    let mut v = Vec::with_capacity(r.capacity_for(n, 8));
    for _ in 0..n {
        let page = r.get_u32()?;
        let to = r.get_u32()?;
        v.push((page, to));
    }
    Ok(v)
}

/// A list of diffs, as a [`Msg::DiffFlush`] ships it and CCL logs it:
/// `var(count)`, then each [`PageDiff`] in its own encoding.
pub fn encode_diffs<S: Sink>(w: &mut S, diffs: &[PageDiff]) {
    w.put_var(diffs.len() as u32);
    for d in diffs {
        d.encode(w);
    }
}

/// Smallest encoded [`PageDiff`]: page id and run count, no runs.
const MIN_DIFF_BYTES: usize = 4 + 1;

/// Decode a list written by [`encode_diffs`]; the count allocates no
/// more than the remaining input could hold.
pub fn decode_diffs(r: &mut ByteReader<'_>) -> Result<Vec<PageDiff>, CodecError> {
    let n = r.get_var()? as usize;
    let mut v = Vec::with_capacity(r.capacity_for(n, MIN_DIFF_BYTES));
    for _ in 0..n {
        v.push(PageDiff::decode(r)?);
    }
    Ok(v)
}

/// One DSM protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Home's reply: the current home copy and its version timestamp.
    PageReply {
        /// The page.
        page: PageId,
        /// Full page contents (refcount-shared: envelope duplicates and
        /// log appends reuse this allocation; wire accounting uses the
        /// logical length).
        data: SharedBytes,
        /// Home-copy version (per-writer applied interval counts).
        version: VClock,
    },
    /// Writer flushes the diffs of its just-ended interval to one home.
    DiffFlush {
        /// The writer's interval that produced these diffs.
        writer: IntervalId,
        /// Diffs for pages homed at the destination.
        diffs: Vec<PageDiff>,
    },
    /// Home acknowledges application of a [`Msg::DiffFlush`].
    DiffAck {
        /// Echo of the flushed interval.
        writer: IntervalId,
    },
    /// Ask the lock manager for ownership of `lock`.
    ///
    /// Wire layout: `tag(4) u32(lock) var(epoch) vc`.
    LockRequest {
        /// The lock.
        lock: u32,
        /// Barriers the acquirer has completed. The epoch fence: a
        /// manager that has completed fewer is still inside `barrier()`
        /// and holds the request until it has consumed its own release,
        /// so a crash aligned with that barrier finds no grant to lose.
        epoch: u32,
        /// Acquirer's vector clock (lets the manager filter notices).
        vc: VClock,
    },
    /// Manager grants `lock`, piggybacking the notices the acquirer lacks.
    LockGrant {
        /// The lock.
        lock: u32,
        /// The lock's release timestamp (acquirer joins with it).
        /// `Arc`: the receiver only reads it, and keeps it in its
        /// grant table without copying.
        vc: Arc<VClock>,
        /// Write-invalidation notices the acquirer has not yet seen.
        notices: Vec<WriteNotice>,
    },
    /// Releaser returns `lock` to its manager with its fresh notices.
    LockRelease {
        /// The lock.
        lock: u32,
        /// Releaser's vector clock at release.
        vc: VClock,
        /// Notices the manager's record of this lock does not yet cover.
        notices: Vec<WriteNotice>,
    },
    /// Arrive at the global barrier.
    BarrierArrive {
        /// Barrier episode number.
        epoch: u32,
        /// Arriving node's vector clock.
        vc: VClock,
        /// Notices the arriving node generated/learned since last barrier.
        notices: Vec<WriteNotice>,
        /// Always empty: its 4-byte count stays on the wire until
        /// ROADMAP item 10 drops it.
        proposals: Vec<HomeMigration>,
    },
    /// Barrier manager releases everyone with the merged notices.
    /// The clock and notice set are broadcast to every node and only
    /// read by receivers, so both are `Arc`-shared: an n-way fan-out
    /// is n refcount bumps, not n deep copies.
    BarrierRelease {
        /// Barrier episode number.
        epoch: u32,
        /// Join of all arrivals' clocks.
        vc: Arc<VClock>,
        /// Union of all notices from this episode.
        notices: Arc<[WriteNotice]>,
        /// Always empty: its 4-byte count stays on the wire and in ML's
        /// log until ROADMAP item 10 drops it.
        migrations: Arc<[HomeMigration]>,
    },
    /// Recovery: fetch `page` as a replayed interval at clock
    /// `required` must see it.
    ///
    /// Wire layout: `tag(9) u32(page) vc(required) [var(held)]` — the
    /// held position trails the clock only when there is one (a message
    /// is a datagram, so its end delimits the optional tail).
    RecoveryPageRequest {
        /// Requested page.
        page: PageId,
        /// The vector timestamp the replayed interval must observe.
        required: VClock,
        /// Position of the served image the requester's copy was last
        /// restored from, if it still has that copy: lets the home
        /// answer with a diff against it.
        held: Option<u32>,
    },
    /// Reply to [`Msg::RecoveryPageRequest`].
    RecoveryPageReply {
        /// The page.
        page: PageId,
        /// What the home could serve of it.
        image: RecoveryImage,
    },
    /// Recovery: ask a surviving writer for its logged diffs of `page`
    /// from the given interval sequence numbers.
    LoggedDiffRequest {
        /// The page being reconstructed.
        page: PageId,
        /// Interval sequence numbers in the writer's numbering.
        seqs: Vec<u32>,
    },
    /// Reply to [`Msg::LoggedDiffRequest`]: the logged diffs, tagged by
    /// interval, in the writer's interval order.
    LoggedDiffReply {
        /// The page.
        page: PageId,
        /// (interval, diff) pairs found in the writer's stable log.
        diffs: Vec<(IntervalId, PageDiff)>,
    },
    /// Recovery: ask the barrier manager for its retained episode
    /// releases. A node whose log came back damaged (torn tail, bit
    /// rot, dead device) reconciles this history against its home-copy
    /// versions to learn which applied updates its log lost, then
    /// refetches those diffs from the writers' stable logs.
    ReleaseHistoryRequest,
    /// Reply to [`Msg::ReleaseHistoryRequest`]: every retained episode
    /// release, in ascending epoch order. Within one release the notice
    /// order is the manager's merge order, which respects causality —
    /// replaying it is a valid re-application order.
    ReleaseHistoryReply {
        /// (epoch, merged clock, merged notices, empty migration list)
        /// per completed episode.
        releases: Vec<EpochRelease>,
    },
    /// Fetch up-to-date copies of several pages homed at one node with a
    /// single request: the faulting page (answered with an ordinary
    /// [`Msg::PageReply`], so the demand stall never grows with the
    /// prediction depth) plus any prefetch candidates predicted from the
    /// access history (answered with a trailing [`Msg::PageReplyBatch`]).
    /// It also carries the requester's report of which earlier extras
    /// from this home it has since touched: the home's copyset records
    /// what a node *used*, and only the node knows that.
    ///
    /// Wire layout: `tag(15) u32(page) ascending(extras)
    /// ascending(hits)`, each list `var(count)` then every id as the
    /// `var` distance from its predecessor (the first from 0): 7 bytes
    /// with both lists empty, about 17 with eight extras.
    PageRequestBatch {
        /// The faulting page the requester is blocked on.
        page: PageId,
        /// Predicted same-home pages, strictly ascending.
        extras: Vec<PageId>,
        /// Extras of earlier requests to this home that the requester
        /// first touched since its last request to it, strictly
        /// ascending. Served nothing; noted in the copyset.
        hits: Vec<PageId>,
    },
    /// Home's trailing reply to a [`Msg::PageRequestBatch`] with
    /// predicted extras: their copies and versions, in request order.
    /// Installed asynchronously whenever the requester next drains its
    /// inbox — a misprediction costs bytes on the wire, never a stall.
    PageReplyBatch {
        /// The demand page of the request this batch trails (matches the
        /// batch to the requester's in-flight prediction stamp).
        after: PageId,
        /// `(page, contents, version)` per predicted page.
        pages: Vec<PageCopy>,
    },
    /// Recovery handshake, sent by a node to every peer the moment it
    /// starts recovering: "tell me which of your pages I held, and get
    /// your log ready — my logged-diff requests are coming".
    RecoveryHello,
    /// Reply to [`Msg::RecoveryHello`]: the pages homed at the replier
    /// that the recovering node ever touched a copy of, as far as it
    /// told the replier (a demand fetch tells; the first use of a
    /// predicted copy is told by the next [`Msg::PageRequestBatch`]).
    /// Replay is deterministic, so these are the remote pages it will
    /// touch again. The barrier manager's reply also names what the
    /// recovering node's own intervals wrote of its *home* pages, read
    /// from the release history every `BarrierArrive` fed: replay opens
    /// those pages instead of trapping on them, as the node's own logged
    /// diffs let it open its remote ones.
    ///
    /// Wire layout: `tag(18) u8(flags) u32(count) u32(page)…`, then, if
    /// flag bit 1 is set, the notice list ([`encode_notices`]). Bit 0 is
    /// `complete`; any other bit is an error. A list is sent only when
    /// it is not empty, so every other reply keeps the layout it always
    /// had: 38 + 4·pages bytes on the wire.
    RecoveryHelloReply {
        /// Pages homed at the replier that the sender touched, ascending.
        held: Vec<PageId>,
        /// False when the replier's copysets were wiped (its own
        /// crash): `held` may then miss pages, and the sender must treat
        /// every page homed at the replier as held.
        complete: bool,
        /// The write notices of the sender's own intervals for pages
        /// homed at the sender, in release order. Empty from every peer
        /// but the barrier manager, and from a manager whose history its
        /// own crash wiped.
        home_writes: Vec<WriteNotice>,
    },
}

impl Msg {
    /// Short tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        kind_label(self.ordinal())
    }

    /// The [`Msg::kind`] of an encoded message, read from its tag byte
    /// alone: nothing past the first byte is looked at. `"?"` for an
    /// empty buffer or an unknown tag.
    pub fn encoded_kind(bytes: &[u8]) -> &'static str {
        match bytes.first() {
            Some(&tag) if tag >= FIRST_TAG => kind_label((tag - FIRST_TAG) as usize),
            _ => "?",
        }
    }

    /// A recovering peer's request — the one class a node must keep
    /// answering while it replays its own log. Each is served from
    /// stable state (the stable log, the barrier manager's release
    /// history) or from directory state (the copysets; the served log —
    /// a wiped one answers "absent", one being rebuilt answers once
    /// replay has re-reached the writes asked for), never from
    /// half-restored frames; deferring them would deadlock two nodes
    /// recovering at once.
    pub fn is_recovery_request(&self) -> bool {
        matches!(
            self,
            Msg::RecoveryPageRequest { .. }
                | Msg::LoggedDiffRequest { .. }
                | Msg::ReleaseHistoryRequest
                | Msg::RecoveryHello
        )
    }

    /// The variant's index in declaration order, used to index
    /// per-variant traffic counters; its wire tag is one more.
    pub fn ordinal(&self) -> usize {
        match self {
            Msg::PageReply { .. } => 0,
            Msg::DiffFlush { .. } => 1,
            Msg::DiffAck { .. } => 2,
            Msg::LockRequest { .. } => 3,
            Msg::LockGrant { .. } => 4,
            Msg::LockRelease { .. } => 5,
            Msg::BarrierArrive { .. } => 6,
            Msg::BarrierRelease { .. } => 7,
            Msg::RecoveryPageRequest { .. } => 8,
            Msg::RecoveryPageReply { .. } => 9,
            Msg::LoggedDiffRequest { .. } => 10,
            Msg::LoggedDiffReply { .. } => 11,
            Msg::ReleaseHistoryRequest => 12,
            Msg::ReleaseHistoryReply { .. } => 13,
            Msg::PageRequestBatch { .. } => 14,
            Msg::PageReplyBatch { .. } => 15,
            Msg::RecoveryHello => 16,
            Msg::RecoveryHelloReply { .. } => 17,
        }
    }
}

impl Encode for Msg {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_u8(FIRST_TAG + self.ordinal() as u8);
        match self {
            Msg::PageReply {
                page,
                data,
                version,
            } => {
                w.put_u32(*page);
                w.put_shared(data);
                version.encode(w);
            }
            Msg::DiffFlush { writer, diffs } => {
                writer.encode(w);
                encode_diffs(w, diffs);
            }
            Msg::DiffAck { writer } => writer.encode(w),
            Msg::LockRequest { lock, epoch, vc } => {
                w.put_u32(*lock);
                w.put_var(*epoch);
                vc.encode(w);
            }
            Msg::LockGrant { lock, vc, notices } => {
                w.put_u32(*lock);
                vc.encode(w);
                encode_notices(w, notices);
            }
            Msg::LockRelease { lock, vc, notices } => {
                w.put_u32(*lock);
                vc.encode(w);
                encode_notices(w, notices);
            }
            Msg::BarrierArrive {
                epoch,
                vc,
                notices,
                proposals,
            } => {
                w.put_u32(*epoch);
                vc.encode(w);
                encode_notices(w, notices);
                encode_migrations(w, proposals);
            }
            Msg::BarrierRelease {
                epoch,
                vc,
                notices,
                migrations,
            } => {
                w.put_u32(*epoch);
                vc.encode(w);
                encode_notices(w, notices);
                encode_migrations(w, migrations);
            }
            Msg::RecoveryPageRequest {
                page,
                required,
                held,
            } => {
                w.put_u32(*page);
                required.encode(w);
                if let Some(pos) = held {
                    w.put_var(*pos);
                }
            }
            Msg::RecoveryPageReply { page, image } => {
                w.put_u32(*page);
                image.encode(w);
            }
            Msg::LoggedDiffRequest { page, seqs } => {
                w.put_u32(*page);
                w.put_u32(seqs.len() as u32);
                for s in seqs {
                    w.put_u32(*s);
                }
            }
            Msg::LoggedDiffReply { page, diffs } => {
                w.put_u32(*page);
                w.put_u32(diffs.len() as u32);
                for (iv, d) in diffs {
                    iv.encode(w);
                    d.encode(w);
                }
            }
            Msg::ReleaseHistoryRequest | Msg::RecoveryHello => {}
            Msg::ReleaseHistoryReply { releases } => {
                w.put_u32(releases.len() as u32);
                for (epoch, vc, notices, migrations) in releases {
                    w.put_u32(*epoch);
                    vc.encode(w);
                    encode_notices(w, notices);
                    encode_migrations(w, migrations);
                }
            }
            Msg::PageRequestBatch { page, extras, hits } => {
                w.put_u32(*page);
                put_ascending(w, extras);
                put_ascending(w, hits);
            }
            Msg::PageReplyBatch { after, pages } => {
                w.put_u32(*after);
                w.put_u32(pages.len() as u32);
                for (page, data, version) in pages {
                    w.put_u32(*page);
                    w.put_bytes(data);
                    version.encode(w);
                }
            }
            Msg::RecoveryHelloReply {
                held,
                complete,
                home_writes,
            } => {
                let listed = !home_writes.is_empty();
                w.put_u8(u8::from(*complete) * HELLO_COMPLETE + u8::from(listed) * HELLO_LISTED);
                w.put_u32(held.len() as u32);
                for p in held {
                    w.put_u32(*p);
                }
                if listed {
                    encode_notices(w, home_writes);
                }
            }
        }
    }
}

impl Decode for Msg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        Ok(match tag {
            1 => Msg::PageReply {
                page: r.get_u32()?,
                data: r.get_bytes()?.into(),
                version: VClock::decode(r)?,
            },
            2 => Msg::DiffFlush {
                writer: IntervalId::decode(r)?,
                diffs: decode_diffs(r)?,
            },
            3 => Msg::DiffAck {
                writer: IntervalId::decode(r)?,
            },
            4 => Msg::LockRequest {
                lock: r.get_u32()?,
                epoch: r.get_var()?,
                vc: VClock::decode(r)?,
            },
            5 => Msg::LockGrant {
                lock: r.get_u32()?,
                vc: Arc::new(VClock::decode(r)?),
                notices: decode_notices(r)?,
            },
            6 => Msg::LockRelease {
                lock: r.get_u32()?,
                vc: VClock::decode(r)?,
                notices: decode_notices(r)?,
            },
            7 => Msg::BarrierArrive {
                epoch: r.get_u32()?,
                vc: VClock::decode(r)?,
                notices: decode_notices(r)?,
                proposals: decode_migrations(r)?,
            },
            8 => Msg::BarrierRelease {
                epoch: r.get_u32()?,
                vc: Arc::new(VClock::decode(r)?),
                notices: decode_notices(r)?.into(),
                migrations: decode_migrations(r)?.into(),
            },
            9 => Msg::RecoveryPageRequest {
                page: r.get_u32()?,
                required: VClock::decode(r)?,
                held: if r.is_exhausted() {
                    None
                } else {
                    Some(r.get_var()?)
                },
            },
            10 => Msg::RecoveryPageReply {
                page: r.get_u32()?,
                image: RecoveryImage::decode(r)?,
            },
            11 => Msg::LoggedDiffRequest {
                page: r.get_u32()?,
                seqs: decode_ids(r)?,
            },
            12 => {
                let page = r.get_u32()?;
                let n = r.get_u32()? as usize;
                let mut diffs = Vec::with_capacity(r.capacity_for(n, 2 + MIN_DIFF_BYTES));
                for _ in 0..n {
                    let iv = IntervalId::decode(r)?;
                    let d = PageDiff::decode(r)?;
                    diffs.push((iv, d));
                }
                Msg::LoggedDiffReply { page, diffs }
            }
            13 => Msg::ReleaseHistoryRequest,
            14 => {
                let n = r.get_u32()? as usize;
                // Epoch, clock length, notice count, migration count.
                let mut releases = Vec::with_capacity(r.capacity_for(n, 4 + 1 + 1 + 4));
                for _ in 0..n {
                    let epoch = r.get_u32()?;
                    let vc = VClock::decode(r)?;
                    let notices = decode_notices(r)?;
                    releases.push((epoch, vc, notices, decode_migrations(r)?));
                }
                Msg::ReleaseHistoryReply { releases }
            }
            15 => Msg::PageRequestBatch {
                page: r.get_u32()?,
                extras: decode_ascending(r)?,
                hits: decode_ascending(r)?,
            },
            16 => {
                let after = r.get_u32()?;
                let n = r.get_u32()? as usize;
                // Page id, contents length, clock length.
                let mut pages = Vec::with_capacity(r.capacity_for(n, 4 + 4 + 1));
                for _ in 0..n {
                    let page = r.get_u32()?;
                    let data: SharedBytes = r.get_bytes()?.into();
                    let version = VClock::decode(r)?;
                    pages.push((page, data, version));
                }
                Msg::PageReplyBatch { after, pages }
            }
            17 => Msg::RecoveryHello,
            18 => {
                let invalid = |reason| CodecError::Invalid {
                    context: "RecoveryHelloReply",
                    reason,
                };
                let flags = r.get_u8()?;
                if flags & !(HELLO_COMPLETE | HELLO_LISTED) != 0 {
                    return Err(invalid("unknown flag bits"));
                }
                let held = decode_ids(r)?;
                let home_writes = if flags & HELLO_LISTED != 0 {
                    let list = decode_notices(r)?;
                    if list.is_empty() {
                        return Err(invalid("an empty list is never sent"));
                    }
                    list
                } else {
                    Vec::new()
                };
                Msg::RecoveryHelloReply {
                    held,
                    complete: flags & HELLO_COMPLETE != 0,
                    home_writes,
                }
            }
            t => {
                return Err(CodecError::BadTag {
                    context: "Msg",
                    tag: t,
                })
            }
        })
    }
}

impl WireSized for Msg {
    fn wire_size(&self) -> usize {
        HEADER_BYTES + self.encoded_size()
    }

    fn msg_label(&self) -> &'static str {
        self.kind()
    }

    fn kind_ordinal(&self) -> usize {
        self.ordinal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagemem::{PageFrame, Twin};

    fn sample_diff() -> PageDiff {
        let base = PageFrame::zeroed(64);
        let twin = Twin::of(&base);
        let mut m = base.clone();
        m.write_u64(8, 42);
        PageDiff::create(5, &twin, &m)
    }

    fn roundtrip(m: Msg) {
        let bytes = m.encode_to_vec();
        let back = Msg::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(m.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(m.wire_size(), HEADER_BYTES + bytes.len());
    }

    #[test]
    fn all_variants_roundtrip() {
        let vc = {
            let mut v = VClock::new(4);
            v.set(2, 9);
            v
        };
        let iv = IntervalId { node: 1, seq: 3 };
        let notice = WriteNotice {
            page: 7,
            interval: iv,
        };
        roundtrip(Msg::PageReply {
            page: 3,
            data: vec![1; 64].into(),
            version: vc.clone(),
        });
        roundtrip(Msg::DiffFlush {
            writer: iv,
            diffs: vec![sample_diff()],
        });
        roundtrip(Msg::DiffAck { writer: iv });
        roundtrip(Msg::LockRequest {
            lock: 2,
            epoch: 300,
            vc: vc.clone(),
        });
        roundtrip(Msg::LockGrant {
            lock: 2,
            vc: Arc::new(vc.clone()),
            notices: vec![notice],
        });
        roundtrip(Msg::LockRelease {
            lock: 2,
            vc: vc.clone(),
            notices: vec![notice, notice],
        });
        roundtrip(Msg::BarrierArrive {
            epoch: 4,
            vc: vc.clone(),
            notices: vec![],
            proposals: vec![(7, 2)],
        });
        roundtrip(Msg::BarrierRelease {
            epoch: 4,
            vc: Arc::new(vc.clone()),
            notices: vec![notice].into(),
            migrations: vec![(7, 2), (9, 0)].into(),
        });
        for held in [None, Some(0), Some(300)] {
            roundtrip(Msg::RecoveryPageRequest {
                page: 9,
                required: vc.clone(),
                held,
            });
        }
        for image in [
            RecoveryImage::Image {
                pos: 300,
                data: vec![2; 64].into(),
            },
            RecoveryImage::Delta {
                pos: 3,
                diff: sample_diff(),
            },
            RecoveryImage::Absent,
        ] {
            roundtrip(Msg::RecoveryPageReply { page: 9, image });
        }
        roundtrip(Msg::LoggedDiffRequest {
            page: 9,
            seqs: vec![1, 2, 3],
        });
        roundtrip(Msg::LoggedDiffReply {
            page: 9,
            diffs: vec![(iv, sample_diff())],
        });
        roundtrip(Msg::ReleaseHistoryRequest);
        roundtrip(Msg::ReleaseHistoryReply {
            releases: vec![
                (0, vc.clone(), vec![notice], vec![]),
                (1, vc.clone(), vec![], vec![(3, 1)]),
            ],
        });
        roundtrip(Msg::PageRequestBatch {
            page: 3,
            extras: vec![4, 9],
            hits: vec![],
        });
        roundtrip(Msg::PageRequestBatch {
            page: 3,
            extras: vec![],
            hits: vec![0, 300, u32::MAX],
        });
        roundtrip(Msg::PageReplyBatch {
            after: 3,
            pages: vec![
                (4, vec![1; 64].into(), vc.clone()),
                (9, vec![2; 64].into(), vc.clone()),
            ],
        });
        roundtrip(Msg::RecoveryHello);
        roundtrip(Msg::RecoveryHelloReply {
            held: vec![2, 3, 17],
            complete: true,
            home_writes: vec![],
        });
        roundtrip(Msg::RecoveryHelloReply {
            held: vec![],
            complete: false,
            home_writes: vec![],
        });
        roundtrip(Msg::RecoveryHelloReply {
            held: vec![4],
            complete: true,
            home_writes: vec![notice, notice],
        });
    }

    #[test]
    fn page_request_lists_are_distances_and_hostile_ones_are_errors() {
        let m = Msg::PageRequestBatch {
            page: 7,
            extras: vec![71, 135, 199],
            hits: vec![9],
        };
        // Tag, page, then per list a count and each id's distance from
        // the one before (the first from 0).
        assert_eq!(
            m.encode_to_vec(),
            [15, 7, 0, 0, 0, 3, 71, 64, 64, 1, 9],
            "layout"
        );
        let list = |bytes: &[u8]| decode_ascending(&mut ByteReader::new(bytes));
        assert_eq!(list(&[0]), Ok(vec![]));
        assert_eq!(list(&[3, 0, 1, 1]), Ok(vec![0, 1, 2]));
        // A count the input cannot back allocates nothing and fails at
        // the first missing id.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert!(matches!(list(&huge), Err(CodecError::Truncated { .. })));
        assert!(matches!(list(&[2, 5]), Err(CodecError::Truncated { .. })));
        let invalid = |bytes: &[u8]| matches!(list(bytes), Err(CodecError::Invalid { .. }));
        assert!(invalid(&[2, 5, 0]), "a repeated page");
        assert!(invalid(&[2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]), "overflow");
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn an_unsorted_page_list_is_never_encoded() {
        Msg::PageRequestBatch {
            page: 0,
            extras: vec![9, 4],
            hits: vec![],
        }
        .encode_to_vec();
    }

    #[test]
    fn batch_of_one_matches_single_fetch_payload_shape() {
        // A batch of one page carries the same page bytes as the single
        // reply; the envelope difference is a few bytes of list framing.
        let vc = VClock::new(4);
        let single = Msg::PageReply {
            page: 3,
            data: vec![0; 4096].into(),
            version: vc.clone(),
        };
        let batch = Msg::PageReplyBatch {
            after: 3,
            pages: vec![(3, vec![0; 4096].into(), vc)],
        };
        assert!(batch.wire_size() >= single.wire_size());
        assert!(batch.wire_size() <= single.wire_size() + 12);
    }

    #[test]
    fn ordinals_match_wire_tags_and_labels() {
        let vc = VClock::new(2);
        let msgs = [
            Msg::PageReply {
                page: 0,
                data: vec![0; 8].into(),
                version: vc.clone(),
            },
            Msg::PageRequestBatch {
                page: 0,
                extras: vec![1],
                hits: vec![],
            },
            Msg::PageReplyBatch {
                after: 0,
                pages: vec![],
            },
            Msg::RecoveryHello,
            Msg::RecoveryHelloReply {
                held: vec![1],
                complete: true,
                home_writes: vec![],
            },
        ];
        for m in msgs {
            let bytes = m.encode_to_vec();
            assert_eq!(m.ordinal() + 1, bytes[0] as usize, "the wire tag follows");
            let variant = format!("{m:?}");
            assert!(
                variant.starts_with(m.kind()),
                "{} labels {variant}",
                m.kind()
            );
        }
        assert_eq!(kind_label(MSG_KINDS), "?");
    }

    #[test]
    fn bad_tag_rejected() {
        let e = Msg::decode_from_slice(&[99]).unwrap_err();
        assert!(matches!(e, CodecError::BadTag { tag: 99, .. }));
    }

    #[test]
    fn page_reply_dominates_small_messages() {
        // The wire-size asymmetry ML-vs-CCL log sizes hinge on: a full
        // page reply is much bigger than the diff that produced it.
        let big = Msg::PageReply {
            page: 0,
            data: vec![0; 4096].into(),
            version: VClock::new(8),
        };
        let small = Msg::DiffFlush {
            writer: IntervalId { node: 0, seq: 0 },
            diffs: vec![sample_diff()],
        };
        assert!(big.wire_size() > 10 * small.wire_size());
    }

    #[test]
    fn kinds_are_distinct() {
        assert_eq!(Msg::RecoveryHello.kind(), "RecoveryHello");
        assert_eq!(
            Msg::DiffAck {
                writer: IntervalId { node: 0, seq: 0 }
            }
            .kind(),
            "DiffAck"
        );
    }
}
