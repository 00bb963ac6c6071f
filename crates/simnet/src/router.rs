//! Message transport between cluster nodes: a conservative
//! virtual-time-ordered delivery fabric.
//!
//! Each node owns an [`Endpoint`]: its attachment to the shared
//! interconnect. Nodes share *nothing* else — all cross-node interaction
//! goes through [`Envelope`]s, exactly as it would over sockets on the
//! paper's Ethernet cluster. Virtual arrival times are stamped by the
//! sender from the [`NetworkModel`](crate::NetworkModel).
//!
//! # Virtual-time-ordered delivery
//!
//! Before this layer existed as a scheduler, each inbox was a physical
//! FIFO: two concurrent senders raced real thread scheduling for the
//! delivery order, so lock-grant order — and with it Water's virtual
//! execution time — drifted run to run. The fabric instead delivers each
//! node's messages strictly in `(arrive_at, src, seq)` order, holding a
//! candidate back until no peer can still produce an earlier-ranked
//! message. Delivery order then depends only on virtual time, which the
//! cost model computes deterministically, and every run is
//! bit-reproducible.
//!
//! The "can still produce" test is a conservative-PDES watermark scheme:
//!
//! * Every endpoint publishes a **floor** — a lower bound on the virtual
//!   departure time of anything it may still send. A node parked in a
//!   blocking receive publishes [`Watermark::Idle`] (it cannot send at
//!   all until its next delivery); a node polling its inbox mid-run
//!   publishes its clock; a node that just took a delivery publishes
//!   that delivery's arrival time, because asynchronous handlers reply
//!   relative to *request arrival*, which may lag its own clock.
//! * A peer's future sends therefore depart no earlier than
//!   `local(i) = min(floor(i), min-rank of i's own inbox)`: program
//!   sends are covered by the floor, service replies by the inbox term.
//!   Reactions to messages *not yet delivered anywhere* are covered by
//!   one cascade step: any future arrival departs at or after the
//!   global minimum `M1 = min over live i of local(i)` and crosses the
//!   wire, so it lands at or after `M1 + L`, where the lookahead `L` is
//!   the network's base latency (every cross-node transfer costs at
//!   least `L`).
//! * A candidate with rank `(t, s, q)` at receiver `j` is deliverable
//!   once, for every live peer `i != j`,
//!   `min(local(i), M1 + L) + L` exceeds `t` — or equals it with
//!   `i >= s`, because a message from `i` arriving exactly at `t` would
//!   still rank after the candidate on the source tie-break (same-source
//!   messages carry strictly increasing sequence numbers).
//!
//! Liveness: the scheme cannot deadlock while any node is running,
//! because the node holding the global minimum always clears its own
//! bound (`M1 + 2L > M1` strictly, `L > 0`), and nodes blocked in a
//! receive publish `Idle`, excluding themselves from every bound.
//! Retired endpoints (clean exit or panic) drop out of the bound
//! entirely. A cluster-wide quiescence with a pending candidate would
//! be a protocol bug; a watchdog turns that state into a loud panic with
//! a floor dump instead of a silent hang.
//!
//! Ties beyond `(arrive_at, src, seq)` cannot occur in engine traffic
//! (the reliable layer stamps strictly increasing per-link sequence
//! numbers); raw unsequenced envelopes (`seq == 0`, unit tests only)
//! fall back to per-inbox push order.
//!
//! # Sharded implementation
//!
//! The scheme above is a *virtual-time* contract; this section is about
//! its physical cost. A first implementation kept the whole fabric
//! behind one `Mutex` + one `Condvar`: every send, receive, and poll
//! from all N node threads serialized on a single lock, every
//! admissibility check rescanned all N nodes, and every state change
//! woke the entire cluster. The current implementation shards that
//! state without moving a single virtual-time observable:
//!
//! * **Per-node inbox shards.** Each node's heap lives in its own
//!   [`Shard`] behind its own mutex. `send(i → j)` touches only shard
//!   `j`; concurrent sends to different destinations do not contend.
//! * **Shared watermark table.** Floors, inbox-head ranks, and liveness
//!   live in one small [`WmTable`] (a second, short-hold lock). A
//!   tournament [`MinTree`] over `local(i)` makes both `M1` and
//!   `min over i != j of local(i)` O(log N) reads, so the admissibility
//!   check is O(1)-ish per candidate instead of an O(N) rescan — with a
//!   rare exact O(N) pass only on a bound/candidate tie.
//! * **Targeted wakeups.** A parked receiver registers what it is
//!   waiting for ([`ParkWait`]): a first arrival, or the conservative
//!   bound reaching its head candidate's rank. State changes wake only
//!   the nodes whose wait condition is now (conservatively) met, on
//!   per-node [`WaitCell`]s, instead of broadcasting to the cluster.
//! * **Batch draining.** [`Endpoint::recv_upto_batch`] pops every
//!   already-admissible message under one lock acquisition, pinning the
//!   floor at the *first* popped rank so the batch promise stays valid
//!   for replies to earlier messages in the batch.
//!
//! Lock order is `shard[j] → wm → cell[k]`, each strictly after the
//! previous, at most one shard held at a time; `wm.heads[j]` is written
//! only while holding shard `j`, which serializes sender pushes against
//! receiver pops. A sender keeps holding shard `dst` across the `wm`
//! update, so a message is never visible in a heap before its head rank
//! is visible in the table, and the sender's own floor (≤ the message's
//! departure) covers the in-flight window. All of this changes *when*
//! threads run, never *what* clears: the bound formula, the rank order,
//! and the floor protocol are byte-for-byte the ones derived above, and
//! the `report` goldens hold the fabric to bit-identical digests.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::{SimError, SimResult};
use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};

/// Index of a node (process) in the cluster: `0..n_nodes`.
pub type NodeId = usize;

/// How long the fabric lets a node wait without *any* scheduler
/// progress before declaring a watermark deadlock (a protocol bug, not
/// a slow peer: every legal wait is bounded by peers reaching their
/// next scheduler interaction).
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(60);

/// How many times a blocked receive re-checks its candidate (yielding
/// the CPU between checks) before committing to a condvar park. Most
/// waits are short — the watermark movement that releases the head
/// candidate is already in flight on another core — so a couple of
/// yields converts them into deliveries without the park/wake futex
/// round-trip, and without registering in the stall telemetry (the
/// call never slept). Purely physical: the admissibility predicate is
/// evaluated identically either way.
const SPINS_BEFORE_PARK: usize = 3;

/// Types that know their encoded wire size, used to charge transfer time.
///
/// Implementations should return the size the message would occupy in a
/// real implementation's UDP payload (headers included), because those
/// are the byte counts the paper's log-size and traffic numbers reflect.
///
/// `wire_size` is called on every send *and* receive (and again for
/// every duplicated or retransmitted envelope), so it must cost the
/// message's fields, not its contents, and allocate nothing. A payload
/// with a real codec has its size counted by the encoder into a byte
/// count (`pagemem::Encode::encoded_size`); never into a buffer.
/// Logical size is deliberately decoupled from physical allocation:
/// refcounted payloads shared across cloned envelopes still count their
/// full byte length here.
pub trait WireSized {
    /// Size on the wire in bytes: per-message header plus encoded body.
    fn wire_size(&self) -> usize;

    /// Stable label naming this payload's message kind, recorded on the
    /// `MsgSend`/`MsgRecv` telemetry pair so exported traces can name
    /// each causal edge. Protocol payloads override this with their
    /// per-variant kind; abstract test payloads keep the default.
    fn msg_label(&self) -> &'static str {
        "msg"
    }

    /// Stable small ordinal naming this payload's message kind, used to
    /// bucket per-kind traffic histograms (see
    /// [`NodeStats::count_kind`](crate::NodeStats::count_kind)).
    /// Protocol payloads override this with their wire tag; abstract
    /// test payloads keep the default bucket 0.
    fn kind_ordinal(&self) -> usize {
        0
    }
}

/// A message in flight.
///
/// Envelopes are cloned by the fault layer (duplication, retransmit)
/// and by broadcast fan-out, so payload types should make `Clone`
/// cheap — page contents and broadcast notice sets in `hlrc` are
/// refcounted (`SharedBytes`/`Arc`), making an envelope clone a
/// constant-size copy regardless of payload size.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual time at which the sender put it on the wire.
    pub sent_at: SimTime,
    /// Virtual time at which it reaches the destination.
    pub arrive_at: SimTime,
    /// Per-link sequence number stamped by the sender's reliable
    /// layer (1-based; 0 marks an unsequenced raw envelope). Duplicate
    /// deliveries reuse the original's number so the receiver can
    /// suppress them.
    pub seq: u64,
    /// The message body.
    pub payload: M,
}

/// Total delivery order of one inbox: virtual arrival time, then source
/// node, then per-link sequence number. `push` (inbox insertion order)
/// is a final physical tie-break reachable only by unsequenced raw
/// envelopes — engine traffic never ties on the first three keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank {
    /// Virtual arrival time.
    pub at: SimTime,
    /// Sending node.
    pub src: NodeId,
    /// Per-link sequence number (0 for raw envelopes).
    pub seq: u64,
    /// Inbox insertion order (raw-envelope FIFO tie-break only).
    push: u64,
}

/// A published lower bound on a node's future send departures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Watermark {
    /// The node may still send, but not before this virtual time.
    Promise(SimTime),
    /// The node is parked in a blocking receive: it cannot send
    /// anything until its next delivery (equivalent to a promise of
    /// infinity; its inbox term still bounds its reply departures).
    Idle,
}

impl Watermark {
    fn as_time(self) -> SimTime {
        match self {
            Watermark::Promise(t) => t,
            Watermark::Idle => SimTime::MAX,
        }
    }
}

/// Whether a node still participates in the delivery bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Liveness {
    /// Running: its floor and inbox constrain every peer's deliveries.
    Live,
    /// Finished its program and retired cleanly; sends to it yield
    /// [`SimError::PeerStopped`].
    Stopped,
    /// Vanished mid-run (panic); sends to it yield
    /// [`SimError::Disconnected`].
    Dead,
}

/// Inbox entry: rank + envelope. Ordered by rank alone.
struct Pending<M> {
    rank: Rank,
    env: Envelope<M>,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum rank.
        other.rank.cmp(&self.rank)
    }
}

/// Pad a shard to its own cache lines so neighboring shard locks don't
/// false-share.
#[repr(align(128))]
struct Align128<T>(T);

/// One node's inbox shard: everything a sender to this node must touch.
/// Liveness is duplicated here (authoritative copy for the send-path
/// error check) so the common send never takes the watermark lock.
struct Shard<M> {
    heap: BinaryHeap<Pending<M>>,
    live: Liveness,
    pushes: u64,
}

impl<M> Shard<M> {
    fn new() -> Shard<M> {
        Shard {
            heap: BinaryHeap::new(),
            live: Liveness::Live,
            pushes: 0,
        }
    }

    fn head_at(&self) -> SimTime {
        self.heap.peek().map_or(SimTime::MAX, |p| p.rank.at)
    }
}

/// What a parked receiver is waiting for, so wakeups can be targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParkWait {
    /// Empty inbox in a blocking receive: only a first arrival (or a
    /// peer retiring toward the all-retired disconnect) matters.
    Arrival,
    /// Waiting for the conservative bound to reach this virtual time —
    /// the head candidate's rank, or the poll horizon in `recv_upto`.
    Bound(SimTime),
}

/// Flat-array tournament tree maintaining the minimum of `n` leaves
/// with O(log n) point updates, O(1) global min, and O(log n)
/// min-excluding-one-leaf (fold the sibling values on the leaf-to-root
/// path).
struct MinTree {
    cap: usize,
    v: Vec<u64>,
}

impl MinTree {
    fn new(n: usize) -> MinTree {
        let cap = n.next_power_of_two().max(1);
        MinTree {
            cap,
            v: vec![u64::MAX; 2 * cap],
        }
    }

    fn leaf(&self, i: usize) -> u64 {
        self.v[self.cap + i]
    }

    fn set(&mut self, i: usize, val: u64) {
        let mut x = self.cap + i;
        if self.v[x] == val {
            return;
        }
        self.v[x] = val;
        x >>= 1;
        while x >= 1 {
            let m = self.v[2 * x].min(self.v[2 * x + 1]);
            if self.v[x] == m {
                break;
            }
            self.v[x] = m;
            x >>= 1;
        }
    }

    fn min(&self) -> u64 {
        self.v[1]
    }

    fn min_excluding(&self, i: usize) -> u64 {
        let mut x = self.cap + i;
        let mut m = u64::MAX;
        while x > 1 {
            m = m.min(self.v[x ^ 1]);
            x >>= 1;
        }
        m
    }
}

/// The shared watermark table: the scheduler-global state every
/// admissibility decision reads. Kept deliberately small — floors,
/// cached inbox-head ranks, liveness, the min-tree over `local(i)`, and
/// the park registry — so the lock is held for microseconds.
struct WmTable {
    floors: Vec<Watermark>,
    /// Cached min arrival rank of each node's inbox heap (`SimTime::MAX`
    /// when empty): the inbox term of `local(i)`. Written only while
    /// holding that node's shard lock, which serializes sender pushes
    /// against receiver pops.
    heads: Vec<SimTime>,
    live: Vec<Liveness>,
    live_count: usize,
    /// `tree.leaf(i) == local(i)` for live nodes, `u64::MAX` otherwise.
    tree: MinTree,
    parked: Vec<Option<ParkWait>>,
    parked_count: usize,
    /// Reusable wake-list buffer (avoids an allocation per scan).
    scratch: Vec<NodeId>,
}

impl WmTable {
    fn new(n: usize) -> WmTable {
        let mut wm = WmTable {
            // Nothing has run yet: a fresh node may send at any time.
            floors: vec![Watermark::Promise(SimTime::ZERO); n],
            heads: vec![SimTime::MAX; n],
            live: vec![Liveness::Live; n],
            live_count: n,
            tree: MinTree::new(n),
            parked: vec![None; n],
            parked_count: 0,
            scratch: Vec::new(),
        };
        for i in 0..n {
            wm.refresh(i);
        }
        wm
    }

    /// Earliest possible departure of node `i`'s next send: program
    /// sends respect the floor, service replies depart no earlier than
    /// the arrival of the inbox message that triggers them.
    fn local_of(&self, i: NodeId) -> SimTime {
        self.floors[i].as_time().min(self.heads[i])
    }

    /// Recompute node `i`'s min-tree leaf from its floor/head/liveness.
    fn refresh(&mut self, i: NodeId) {
        let leaf = if self.live[i] == Liveness::Live {
            self.local_of(i).0
        } else {
            u64::MAX
        };
        self.tree.set(i, leaf);
    }

    /// How many *other* live nodes constrain node `j`.
    fn live_peers(&self, j: NodeId) -> usize {
        self.live_count - usize::from(self.live[j] == Liveness::Live)
    }

    /// Is a candidate with rank `(t, s)` at receiver `j` safe to
    /// deliver — i.e. can no live peer still produce an earlier-ranked
    /// message for `j`? See the module docs for the bound derivation.
    /// With `s == usize::MAX` this degenerates to "no live peer can
    /// reach `j` at or before `t` at all" (the pump's stop condition).
    ///
    /// Incremental form of the per-peer loop: the minimum peer bound is
    /// `min(min over live i != j of local(i), M1 + L) + L`, both terms
    /// O(log N) from the min-tree. Strictly above `t` means every peer
    /// bound is; strictly below means some peer bound is. Only an exact
    /// tie (engine traffic cannot tie, so raw-envelope tests and the
    /// occasional bound collision only) falls back to the O(N) scan to
    /// apply the `i >= s` source tie-break per peer.
    fn clears(&self, j: NodeId, t: SimTime, s: NodeId, lookahead: SimDuration) -> bool {
        if self.live_peers(j) == 0 {
            return true;
        }
        let horizon = SimTime(self.tree.min()) + lookahead;
        let b = SimTime(self.tree.min_excluding(j)).min(horizon) + lookahead;
        if b != t {
            return b > t;
        }
        if s == usize::MAX {
            return false;
        }
        for (i, &live) in self.live.iter().enumerate() {
            if i == j || live != Liveness::Live {
                continue;
            }
            let bound = self.local_of(i).min(horizon) + lookahead;
            let ok = bound > t || (bound == t && i >= s);
            if !ok {
                return false;
            }
        }
        true
    }

    /// Which parked nodes' wait conditions are (conservatively) met,
    /// given the current table — the targeted replacement for a
    /// cluster-wide broadcast. `Bound(t)` waiters wake once the minimum
    /// peer bound reaches `t` (ties may still fail the exact source
    /// check; the woken node re-evaluates and re-parks). `Arrival`
    /// waiters are woken directly by sends and liveness changes, never
    /// by floor movement.
    fn due_wakes(&self, skip: NodeId, lookahead: SimDuration, out: &mut Vec<NodeId>) {
        let horizon = SimTime(self.tree.min()) + lookahead;
        for (k, w) in self.parked.iter().enumerate() {
            let t = match w {
                Some(ParkWait::Bound(t)) if k != skip => *t,
                _ => continue,
            };
            let b = SimTime(self.tree.min_excluding(k)).min(horizon) + lookahead;
            if b >= t {
                out.push(k);
            }
        }
    }

    /// Wake the parked nodes whose bound-wait became satisfiable, if
    /// node `j`'s `local()` rose across this critical section (from
    /// `before`, its leaf at entry). Falls (sends, deliveries at the
    /// old floor) can only tighten peer bounds and never unblock
    /// anyone, so they skip the scan entirely. `j` itself is excluded:
    /// its own bound tie would otherwise wake it right back up.
    fn scan_if_raised(
        &mut self,
        j: NodeId,
        before: u64,
        lookahead: SimDuration,
        cells: &[WaitCell],
    ) {
        if self.parked_count == 0 || self.tree.leaf(j) <= before {
            return;
        }
        let mut wake = std::mem::take(&mut self.scratch);
        self.due_wakes(j, lookahead, &mut wake);
        for k in wake.drain(..) {
            self.unpark(k, cells);
        }
        self.scratch = wake;
    }

    /// Register node `j` as parked; returns the wake-seq ticket to wait
    /// on. Reading the ticket under the `wm` lock is what makes the
    /// park race-free: wakers bump it only while holding `wm`, so any
    /// wake decided after this call is observed by the waiter.
    fn park(&mut self, j: NodeId, wait: ParkWait, cells: &[WaitCell]) -> u64 {
        if self.parked[j].is_none() {
            self.parked_count += 1;
        }
        self.parked[j] = Some(wait);
        *cells[j].seq.lock().unwrap()
    }

    fn unpark(&mut self, k: NodeId, cells: &[WaitCell]) {
        if self.parked[k].take().is_some() {
            self.parked_count -= 1;
            let mut g = cells[k].seq.lock().unwrap();
            *g = g.wrapping_add(1);
            drop(g);
            cells[k].cv.notify_one();
        }
    }

    fn unpark_all(&mut self, cells: &[WaitCell]) {
        for k in 0..self.parked.len() {
            self.unpark(k, cells);
        }
    }
}

/// One node's wakeup channel: a wake sequence number and its condvar.
/// The seq is bumped (under `wm` + this leaf lock) on every targeted
/// wake, so a parked thread can detect wakes decided between releasing
/// `wm` and entering the wait.
struct WaitCell {
    seq: Mutex<u64>,
    cv: Condvar,
}

/// The shared interconnect: per-node inbox shards plus the shared
/// watermark table the conservative scheduler runs on.
struct Fabric<M> {
    shards: Vec<Align128<Mutex<Shard<M>>>>,
    wm: Mutex<WmTable>,
    cells: Vec<WaitCell>,
    /// Bumped on every scheduler mutation; the deadlock watchdog fires
    /// only when a full timeout passes with no change anywhere.
    version: AtomicU64,
    /// Minimum virtual latency of any cross-node transfer (conservative
    /// lookahead `L`).
    lookahead: SimDuration,
}

impl<M> Fabric<M> {
    fn shard(&self, j: NodeId) -> &Mutex<Shard<M>> {
        &self.shards[j].0
    }

    fn touch(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Human-readable scheduler snapshot for the deadlock watchdog.
    /// Called with no locks held; shards are `try_lock`ed because a
    /// panicking watchdog must not deadlock against a stuck holder.
    fn dump(&self) -> String {
        use std::fmt::Write;
        let wm = self.wm.lock().unwrap();
        let mut s = String::new();
        for i in 0..wm.floors.len() {
            let inbox = match self.shard(i).try_lock() {
                Ok(sh) => {
                    let head = sh
                        .heap
                        .peek()
                        .map_or("-".to_string(), |p| format!("{:?}", p.rank));
                    format!("inbox_len={} inbox_head={head}", sh.heap.len())
                }
                Err(_) => "inbox=<locked>".to_string(),
            };
            let _ = write!(
                s,
                "\n  node {i}: {:?} floor={:?} head_at={:?} parked={:?} {inbox}",
                wm.live[i], wm.floors[i], wm.heads[i], wm.parked[i]
            );
        }
        s
    }
}

/// One node's attachment to the cluster interconnect.
pub struct Endpoint<M> {
    id: NodeId,
    n_nodes: usize,
    fabric: Arc<Fabric<M>>,
    /// Receive calls that had to park at least once waiting for peer
    /// watermarks to advance (physical-layer telemetry; never part of
    /// the deterministic virtual-time surface).
    stalls: AtomicU64,
    /// Wall-clock nanoseconds spent parked, one sample per park
    /// (physical-layer telemetry, same caveat as `stalls`).
    park_hist: Mutex<Histogram>,
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        // A panicking node does not count as a clean exit: sends to it
        // must keep surfacing as `Disconnected` (a real bug). Either
        // way the node stops constraining peer deliveries, so every
        // parked receiver must re-evaluate its bound.
        let fabric = &*self.fabric;
        let mode = if std::thread::panicking() {
            Liveness::Dead
        } else {
            Liveness::Stopped
        };
        let mut sh = fabric.shard(self.id).lock().unwrap();
        sh.live = mode;
        drop(sh);
        let mut wm = fabric.wm.lock().unwrap();
        wm.live[self.id] = mode;
        wm.live_count -= 1;
        wm.refresh(self.id);
        fabric.touch();
        // Retirement relaxes every bound and feeds the all-retired
        // disconnect: the one event that still wakes the whole cluster.
        wm.unpark_all(&fabric.cells);
    }
}

impl<M> Endpoint<M> {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Cluster size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Receive calls so far that parked on the watermark scheme, reset
    /// to zero. Physical-layer overhead telemetry: two identical runs
    /// may stall differently without any virtual-time observable
    /// changing.
    pub fn take_stalls(&self) -> u64 {
        self.stalls.swap(0, Ordering::Relaxed)
    }

    /// Wall-clock park durations (ns) recorded since the last call,
    /// reset to empty. Physical-layer telemetry, like
    /// [`take_stalls`](Endpoint::take_stalls).
    pub fn take_park_hist(&self) -> Histogram {
        std::mem::take(&mut *self.park_hist.lock().unwrap())
    }

    /// Deliver an envelope to its destination's inbox.
    ///
    /// A destination that finished its program and retired cleanly
    /// yields [`SimError::PeerStopped`] (expected under failure
    /// injection — the sender counts and drops the message); a
    /// destination that vanished any other way is a torn-down cluster
    /// and yields [`SimError::Disconnected`].
    ///
    /// Fast path: only the destination's shard lock. The watermark
    /// table is touched only when the push changes the destination's
    /// head-of-line rank (it can only lower `local(dst)`, so no other
    /// node's wait can become satisfiable — no wake scan). The shard
    /// lock is held across the table update so the message is never
    /// visible in the heap before its head rank is visible to
    /// admissibility checks.
    pub fn send(&self, env: Envelope<M>) -> SimResult<()> {
        let dst = env.dst;
        if dst >= self.n_nodes {
            return Err(SimError::UnknownNode(dst));
        }
        let fabric = &*self.fabric;
        let mut sh = fabric.shard(dst).lock().unwrap();
        match sh.live {
            Liveness::Stopped => return Err(SimError::PeerStopped(dst)),
            Liveness::Dead => return Err(SimError::Disconnected),
            Liveness::Live => {}
        }
        let push = sh.pushes;
        sh.pushes += 1;
        let rank = Rank {
            at: env.arrive_at,
            src: env.src,
            seq: env.seq,
            push,
        };
        let head_changed = sh.heap.peek().is_none_or(|p| rank < p.rank);
        sh.heap.push(Pending { rank, env });
        fabric.touch();
        if head_changed {
            let mut wm = fabric.wm.lock().unwrap();
            if rank.at < wm.heads[dst] {
                wm.heads[dst] = rank.at;
                wm.refresh(dst);
            }
            // Wake dst on *any* head rank change, including an
            // equal-arrival (src, seq) change: the source tie-break
            // `i >= s` is easier for a smaller source, so a parked dst
            // could clear the new head even where the old one stalled.
            wm.unpark(dst, &fabric.cells);
        }
        drop(sh);
        Ok(())
    }

    /// Block until the earliest-ranked envelope in this node's inbox is
    /// safe to deliver, then deliver it. While parked the node
    /// publishes `Watermark::Idle`; on delivery it publishes the
    /// arrival time (asynchronous service replies depart relative to
    /// request arrival, which may lag the node's own clock).
    ///
    /// Errs with [`SimError::Disconnected`] only when the inbox is
    /// empty and every peer has retired — nothing can ever arrive.
    pub fn recv(&self) -> SimResult<Envelope<M>> {
        let fabric = &*self.fabric;
        let mut stalled = false;
        let mut spins = 0usize;
        loop {
            let mut sh = fabric.shard(self.id).lock().unwrap();
            let mut wm = fabric.wm.lock().unwrap();
            let before = wm.tree.leaf(self.id);
            if wm.floors[self.id] != Watermark::Idle {
                wm.floors[self.id] = Watermark::Idle;
                wm.refresh(self.id);
                fabric.touch();
            }
            if let Some(rank) = sh.heap.peek().map(|p| p.rank) {
                if wm.clears(self.id, rank.at, rank.src, fabric.lookahead) {
                    let p = sh.heap.pop().expect("peeked");
                    wm.heads[self.id] = sh.head_at();
                    wm.floors[self.id] = Watermark::Promise(rank.at);
                    wm.refresh(self.id);
                    fabric.touch();
                    wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
                    drop(wm);
                    drop(sh);
                    if stalled {
                        self.stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(p.env);
                }
                wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
                if spins < SPINS_BEFORE_PARK {
                    spins += 1;
                    drop(wm);
                    drop(sh);
                    std::thread::yield_now();
                    continue;
                }
                let seen = wm.park(self.id, ParkWait::Bound(rank.at), &fabric.cells);
                drop(wm);
                drop(sh);
                stalled = true;
                spins = 0;
                self.wait(seen);
            } else {
                if wm.live_peers(self.id) == 0 {
                    return Err(SimError::Disconnected);
                }
                wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
                if spins < SPINS_BEFORE_PARK {
                    spins += 1;
                    drop(wm);
                    drop(sh);
                    std::thread::yield_now();
                    continue;
                }
                let seen = wm.park(self.id, ParkWait::Arrival, &fabric.cells);
                drop(wm);
                drop(sh);
                stalled = true;
                spins = 0;
                self.wait(seen);
            }
        }
    }

    /// Deliver the earliest-ranked envelope with `arrive_at <= upto`,
    /// or return `None` once no live peer can produce one (the engine's
    /// pump: "service everything that has arrived by now"). Blocks only
    /// as long as the answer is genuinely unknown — until peer
    /// watermarks either release the head-of-line candidate or prove
    /// that nothing can arrive at or before `upto`.
    pub fn recv_upto(&self, upto: SimTime) -> Option<Envelope<M>> {
        let mut out = Vec::new();
        self.recv_upto_inner(upto, 1, &mut out);
        out.pop()
    }

    /// Batch form of [`recv_upto`](Endpoint::recv_upto): drain *every*
    /// already-admissible envelope with `arrive_at <= upto` under one
    /// lock acquisition, appending them (in delivery order) to `out`.
    /// Returns how many were delivered; `0` means the drained condition
    /// — no live peer can produce an arrival at or before `upto`.
    ///
    /// The batch promise: after popping the first envelope at rank
    /// `t1`, the floor is pinned at `Promise(t1)` (not at the last
    /// popped rank) while later candidates are evaluated, because the
    /// caller may reply to *any* batched message and those replies
    /// depart no earlier than `t1`. Under that floor, `local(self) =
    /// t1` participates in every bound, so a candidate `t2` clearing
    /// here also cleared in the one-message-per-call schedule: any
    /// response chain through a peer lands at or after `t1 + 2L ≥` the
    /// bound that admitted `t2`, and the caller's own loopback sends
    /// depart at or after its clock (`≥ upto ≥ t2`), so nothing the
    /// batch delays can ever rank before a batched envelope. Same
    /// deliveries, same order, one lock hold.
    pub fn recv_upto_batch(&self, upto: SimTime, out: &mut Vec<Envelope<M>>) -> usize {
        self.recv_upto_inner(upto, usize::MAX, out)
    }

    fn recv_upto_inner(&self, upto: SimTime, max: usize, out: &mut Vec<Envelope<M>>) -> usize {
        let fabric = &*self.fabric;
        let mut stalled = false;
        let mut spins = 0usize;
        let delivered = loop {
            let mut sh = fabric.shard(self.id).lock().unwrap();
            let mut wm = fabric.wm.lock().unwrap();
            let before = wm.tree.leaf(self.id);
            // While polling, the node promises not to send before its
            // own clock (`upto`); program execution resumes from there.
            if wm.floors[self.id] != Watermark::Promise(upto) {
                wm.floors[self.id] = Watermark::Promise(upto);
                wm.refresh(self.id);
                fabric.touch();
            }
            let mut delivered = 0usize;
            while delivered < max {
                let head = sh.heap.peek().map(|p| p.rank);
                let Some(rank) = head.filter(|r| r.at <= upto) else {
                    break;
                };
                if !wm.clears(self.id, rank.at, rank.src, fabric.lookahead) {
                    break;
                }
                let p = sh.heap.pop().expect("peeked");
                if delivered == 0 {
                    wm.floors[self.id] = Watermark::Promise(rank.at);
                }
                wm.heads[self.id] = sh.head_at();
                wm.refresh(self.id);
                out.push(p.env);
                delivered += 1;
            }
            if delivered > 0 {
                fabric.touch();
                wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
                break delivered;
            }
            if wm.clears(self.id, upto, usize::MAX, fabric.lookahead) {
                // Every live peer's bound strictly exceeds `upto`:
                // nothing more can arrive by now.
                wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
                break 0;
            }
            wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
            if spins < SPINS_BEFORE_PARK {
                spins += 1;
                drop(wm);
                drop(sh);
                std::thread::yield_now();
                continue;
            }
            let wait = match sh.heap.peek().map(|p| p.rank.at) {
                Some(t) if t <= upto => ParkWait::Bound(t),
                _ => ParkWait::Bound(upto),
            };
            let seen = wm.park(self.id, wait, &fabric.cells);
            drop(wm);
            drop(sh);
            stalled = true;
            spins = 0;
            self.wait(seen);
        };
        if stalled {
            self.stalls.fetch_add(1, Ordering::Relaxed);
        }
        delivered
    }

    /// Non-blocking inbox poll: the head-of-line envelope, if it is
    /// already safe to deliver.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        let fabric = &*self.fabric;
        let mut sh = fabric.shard(self.id).lock().unwrap();
        let rank = sh.heap.peek().map(|p| p.rank)?;
        let mut wm = fabric.wm.lock().unwrap();
        if !wm.clears(self.id, rank.at, rank.src, fabric.lookahead) {
            return None;
        }
        let before = wm.tree.leaf(self.id);
        let p = sh.heap.pop().expect("peeked");
        wm.heads[self.id] = sh.head_at();
        wm.floors[self.id] = Watermark::Promise(rank.at);
        wm.refresh(self.id);
        fabric.touch();
        wm.scan_if_raised(self.id, before, fabric.lookahead, &fabric.cells);
        drop(wm);
        drop(sh);
        Some(p.env)
    }

    /// Wait on this node's wake cell until a targeted wake arrives
    /// (seq moves past `seen`), recording the park duration. The
    /// deadlock watchdog rides along: a full timeout during which the
    /// *whole fabric's* version never moved means the cluster is
    /// quiescent with an undeliverable candidate — a protocol bug
    /// worth a loud dump, not a hang.
    fn wait(&self, seen: u64) {
        let fabric = &*self.fabric;
        let cell = &fabric.cells[self.id];
        let t0 = std::time::Instant::now();
        let mut v0 = fabric.version.load(Ordering::Relaxed);
        let mut g = cell.seq.lock().unwrap();
        while *g == seen {
            let (ng, to) = cell.cv.wait_timeout(g, WATCHDOG).unwrap();
            g = ng;
            if to.timed_out() && *g == seen {
                let v = fabric.version.load(Ordering::Relaxed);
                if v == v0 {
                    // Drop the cell guard before dumping: `dump` takes
                    // the wm lock, which wakers hold while bumping
                    // cells — never hold a cell across that.
                    drop(g);
                    panic!(
                        "watermark deadlock: node {} made no progress for {:?};\
                         scheduler state:{}",
                        self.id,
                        WATCHDOG,
                        fabric.dump()
                    );
                }
                v0 = v;
            }
        }
        drop(g);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.park_hist.lock().unwrap().record(ns);
    }
}

/// Build fully connected endpoints for an `n`-node cluster with an
/// explicit conservative lookahead: the minimum virtual latency of any
/// cross-node transfer. [`run_cluster`](crate::run_cluster) passes the
/// network model's base latency.
pub fn make_endpoints_with_lookahead<M>(n: usize, lookahead: SimDuration) -> Vec<Endpoint<M>> {
    let fabric = Arc::new(Fabric {
        shards: (0..n).map(|_| Align128(Mutex::new(Shard::new()))).collect(),
        wm: Mutex::new(WmTable::new(n)),
        cells: (0..n)
            .map(|_| WaitCell {
                seq: Mutex::new(0),
                cv: Condvar::new(),
            })
            .collect(),
        version: AtomicU64::new(0),
        lookahead,
    });
    (0..n)
        .map(|id| Endpoint {
            id,
            n_nodes: n,
            fabric: Arc::clone(&fabric),
            stalls: AtomicU64::new(0),
            park_hist: Mutex::new(Histogram::new()),
        })
        .collect()
}

/// Build fully connected endpoints for an `n`-node cluster.
///
/// Uses an effectively unbounded lookahead, under which the bound check
/// always clears and delivery degenerates to pure rank order over
/// whatever is queued — the right semantics for raw envelopes with
/// hand-stamped times and no cost model. Engine clusters go through
/// `make_endpoints_with_lookahead` with the real network latency.
pub fn make_endpoints<M>(n: usize) -> Vec<Endpoint<M>> {
    make_endpoints_with_lookahead(n, SimDuration::from_secs(1 << 20))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);

    impl WireSized for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    fn env(src: NodeId, dst: NodeId, p: Ping) -> Envelope<Ping> {
        Envelope {
            src,
            dst,
            sent_at: SimTime::ZERO,
            arrive_at: SimTime(100),
            seq: 0,
            payload: p,
        }
    }

    #[test]
    fn point_to_point_delivery() {
        let eps = make_endpoints::<Ping>(3);
        eps[0].send(env(0, 2, Ping(7))).unwrap();
        let got = eps[2].recv().unwrap();
        assert_eq!(got.payload, Ping(7));
        assert_eq!(got.src, 0);
        assert_eq!(got.arrive_at, SimTime(100));
    }

    #[test]
    fn self_send_works() {
        let eps = make_endpoints::<Ping>(1);
        eps[0].send(env(0, 0, Ping(1))).unwrap();
        assert_eq!(eps[0].recv().unwrap().payload, Ping(1));
    }

    #[test]
    fn unknown_destination_rejected() {
        let eps = make_endpoints::<Ping>(2);
        let e = eps[0].send(env(0, 9, Ping(0)));
        assert_eq!(e.unwrap_err(), SimError::UnknownNode(9));
    }

    #[test]
    fn try_recv_nonblocking() {
        let eps = make_endpoints::<Ping>(2);
        assert!(eps[1].try_recv().is_none());
        eps[0].send(env(0, 1, Ping(3))).unwrap();
        assert_eq!(eps[1].try_recv().unwrap().payload, Ping(3));
    }

    #[test]
    fn fifo_per_pair() {
        let eps = make_endpoints::<Ping>(2);
        for i in 0..10 {
            eps[0].send(env(0, 1, Ping(i))).unwrap();
        }
        for i in 0..10 {
            assert_eq!(eps[1].recv().unwrap().payload, Ping(i));
        }
    }

    #[test]
    fn send_to_cleanly_stopped_peer_is_peer_stopped() {
        let mut eps = make_endpoints::<Ping>(2);
        let b = eps.pop().unwrap();
        drop(b); // clean retirement (this thread is not panicking)
        let e = eps[0].send(env(0, 1, Ping(0)));
        assert_eq!(e.unwrap_err(), SimError::PeerStopped(1));
    }

    #[test]
    fn send_to_panicked_peer_is_disconnected() {
        let mut eps = make_endpoints::<Ping>(2);
        let b = eps.pop().unwrap();
        // Drop the endpoint during an unwind: that is how a panicking
        // node retires, and it must NOT count as a clean stop.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(move || {
            let _hold = b;
            panic!("node dies");
        });
        std::panic::set_hook(hook);
        assert!(r.is_err());
        let e = eps[0].send(env(0, 1, Ping(0)));
        assert_eq!(e.unwrap_err(), SimError::Disconnected);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = make_endpoints::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.send(env(0, 1, Ping(42))).unwrap();
            });
            let got = b.recv().unwrap();
            assert_eq!(got.payload, Ping(42));
        });
    }

    /// The tentpole property at transport level: queued envelopes leave
    /// the inbox in `(arrive_at, src, seq)` order regardless of the
    /// physical order they were pushed in.
    #[test]
    fn delivery_follows_virtual_rank_not_push_order() {
        let eps = make_endpoints::<Ping>(3);
        let stamped = |src: NodeId, at: u64, seq: u64, p: Ping| Envelope {
            src,
            dst: 2,
            sent_at: SimTime::ZERO,
            arrive_at: SimTime(at),
            seq,
            payload: p,
        };
        // Pushed out of order, from interleaved sources.
        eps[1].send(stamped(1, 300, 1, Ping(4))).unwrap();
        eps[0].send(stamped(0, 300, 7, Ping(3))).unwrap();
        eps[1].send(stamped(1, 100, 2, Ping(1))).unwrap();
        eps[0].send(stamped(0, 200, 9, Ping(2))).unwrap();
        eps[0].send(stamped(0, 100, 5, Ping(0))).unwrap();
        for want in 0..5 {
            assert_eq!(eps[2].recv().unwrap().payload, Ping(want));
        }
    }

    /// A candidate must wait for a peer whose floor still allows an
    /// earlier-ranked send, and clear once that peer goes idle.
    #[test]
    fn candidate_blocks_on_lagging_watermark() {
        let lookahead = SimDuration::from_nanos(10);
        let mut eps = make_endpoints_with_lookahead::<Ping>(3, lookahead);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        b.send(Envelope {
            src: 1,
            dst: 2,
            sent_at: SimTime::ZERO,
            arrive_at: SimTime(100),
            seq: 1,
            payload: Ping(9),
        })
        .unwrap();
        drop(b); // node 1 retires: only node 0 constrains node 2 now
                 // Node 0's floor is still Promise(0): it could send something
                 // arriving at 0 + 2*10 = 20 < 100, so node 2 must wait.
        assert!(c.try_recv().is_none(), "cleared through a lagging peer");
        std::thread::scope(|s| {
            s.spawn(|| {
                // Node 0 parks in a blocking receive: floor goes Idle,
                // its empty inbox stops constraining node 2, and the
                // candidate clears.
                let got = a.recv();
                // Woken by node 2's sentinel below.
                assert_eq!(got.unwrap().payload, Ping(55));
            });
            let got = c.recv().unwrap();
            assert_eq!(got.payload, Ping(9));
            c.send(Envelope {
                src: 2,
                dst: 0,
                sent_at: SimTime(100),
                arrive_at: SimTime(200),
                seq: 1,
                payload: Ping(55),
            })
            .unwrap();
            drop(c); // node 2 retires so its floor stops gating node 0
        });
    }

    /// The batch drain must deliver exactly the rank-order prefix the
    /// one-message-at-a-time pump would, and report drained (0) only
    /// when nothing at or below `upto` can arrive.
    #[test]
    fn recv_upto_batch_drains_in_rank_order() {
        let eps = make_endpoints::<Ping>(3);
        let stamped = |src: NodeId, at: u64, seq: u64, p: Ping| Envelope {
            src,
            dst: 2,
            sent_at: SimTime::ZERO,
            arrive_at: SimTime(at),
            seq,
            payload: p,
        };
        eps[1].send(stamped(1, 300, 1, Ping(3))).unwrap();
        eps[0].send(stamped(0, 100, 1, Ping(0))).unwrap();
        eps[1].send(stamped(1, 100, 2, Ping(1))).unwrap();
        eps[0].send(stamped(0, 250, 2, Ping(2))).unwrap();
        let mut out = Vec::new();
        assert_eq!(eps[2].recv_upto_batch(SimTime(250), &mut out), 3);
        let got: Vec<u32> = out.iter().map(|e| e.payload.0).collect();
        assert_eq!(got, vec![0, 1, 2]);
        out.clear();
        assert_eq!(eps[2].recv_upto_batch(SimTime(250), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(eps[2].recv_upto(SimTime(300)).unwrap().payload, Ping(3));
    }

    // ---- watermark-core invariants (satellite coverage) -------------

    /// Brute-force recomputation of what the min-tree leaves must hold,
    /// straight from the definition in the module docs.
    fn assert_wm_matches_rescan(eps: &[Option<Endpoint<Ping>>]) {
        let fabric = match eps.iter().flatten().next() {
            Some(ep) => &ep.fabric,
            None => return,
        };
        let n = fabric.shards.len();
        // Lock order: shards strictly before wm (never hold two shards —
        // this single-threaded checker takes them one at a time).
        let heads: Vec<SimTime> = (0..n)
            .map(|i| fabric.shard(i).lock().unwrap().head_at())
            .collect();
        let wm = fabric.wm.lock().unwrap();
        let mut expect = Vec::with_capacity(n);
        for (i, &head) in heads.iter().enumerate() {
            assert_eq!(
                wm.heads[i], head,
                "cached head of node {i} diverged from its heap"
            );
            let leaf = if wm.live[i] == Liveness::Live {
                wm.floors[i].as_time().min(head).0
            } else {
                u64::MAX
            };
            assert_eq!(wm.tree.leaf(i), leaf, "stale leaf for node {i}");
            expect.push(leaf);
        }
        let brute_min = expect.iter().copied().min().unwrap_or(u64::MAX);
        assert_eq!(wm.tree.min(), brute_min, "incremental global min drifted");
        for j in 0..n {
            let brute = expect
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(_, &v)| v)
                .min()
                .unwrap_or(u64::MAX);
            assert_eq!(
                wm.tree.min_excluding(j),
                brute,
                "min_excluding({j}) drifted"
            );
        }
        assert_eq!(
            wm.live_count,
            wm.live.iter().filter(|&&l| l == Liveness::Live).count(),
            "live_count drifted"
        );
    }

    /// Satellite property: under random send / receive / retire / crash
    /// interleavings, the incrementally maintained global minimum (and
    /// every min-excluding-one read) always equals a from-scratch O(N)
    /// recomputation.
    #[test]
    fn incremental_min_matches_rescan_under_random_ops() {
        minicheck::check("wm_incremental_min", 64, |rng| {
            let n = rng.usize_in(2, 9);
            let lookahead = SimDuration::from_nanos(rng.u64_in(1, 1_000));
            let mut eps: Vec<Option<Endpoint<Ping>>> =
                make_endpoints_with_lookahead::<Ping>(n, lookahead)
                    .into_iter()
                    .map(Some)
                    .collect();
            let mut seq = vec![vec![0u64; n]; n];
            for _ in 0..48 {
                let src = rng.usize_in(0, n - 1);
                let dst = rng.usize_in(0, n - 1);
                match rng.u64_in(0, 9) {
                    // Weighted toward sends so inboxes actually fill.
                    0..=4 => {
                        if let Some(ep) = &eps[src] {
                            seq[src][dst] += 1;
                            let at = rng.u64_in(1, 1 << 20);
                            let _ = ep.send(Envelope {
                                src,
                                dst,
                                sent_at: SimTime(at.saturating_sub(1)),
                                arrive_at: SimTime(at),
                                seq: seq[src][dst],
                                payload: Ping(at as u32),
                            });
                        }
                    }
                    5..=7 => {
                        if let Some(ep) = &eps[dst] {
                            let _ = ep.try_recv();
                        }
                    }
                    8 => {
                        // Retire (clean stop) — keep at least one node.
                        if eps.iter().flatten().count() > 1 {
                            drop(eps[dst].take());
                        }
                    }
                    _ => {
                        // Crash: drop the endpoint mid-unwind, the way
                        // a panicking node retires.
                        if eps.iter().flatten().count() > 1 {
                            if let Some(ep) = eps[dst].take() {
                                let hook = std::panic::take_hook();
                                std::panic::set_hook(Box::new(|_| {}));
                                let r = std::panic::catch_unwind(move || {
                                    let _hold = ep;
                                    panic!("crash");
                                });
                                std::panic::set_hook(hook);
                                assert!(r.is_err());
                            }
                        }
                    }
                }
                assert_wm_matches_rescan(&eps);
            }
        });
    }

    /// Satellite unit test: a floor move produces wakeups *only* for
    /// parked nodes whose head candidate now clears (conservatively) —
    /// not a cluster-wide broadcast.
    #[test]
    fn floor_move_wakes_only_clearable_parks() {
        let lookahead = SimDuration::from_nanos(10);
        let eps = make_endpoints_with_lookahead::<Ping>(4, lookahead);
        let fabric = &eps[0].fabric;
        let mut wm = fabric.wm.lock().unwrap();
        // Node 1 parked on a near candidate, node 2 on a far one, node
        // 3 parked on an empty inbox (Arrival).
        wm.park(1, ParkWait::Bound(SimTime(25)), &fabric.cells);
        wm.park(2, ParkWait::Bound(SimTime(1_000)), &fabric.cells);
        wm.park(3, ParkWait::Arrival, &fabric.cells);
        // Node 0 raises its floor to 10: every peer bound becomes
        // min(local, M1+L) + L = min over {10,...} + 10 = 20 < 25 — no
        // one wakes yet.
        wm.floors[0] = Watermark::Promise(SimTime(10));
        for i in 1..4 {
            wm.floors[i] = Watermark::Idle;
        }
        for i in 0..4 {
            wm.refresh(i);
        }
        let mut due = Vec::new();
        wm.due_wakes(0, lookahead, &mut due);
        assert_eq!(due, Vec::<NodeId>::new(), "bound 20 must wake nobody");
        // Floor to 15: bound 25 reaches node 1's candidate exactly —
        // wake it (the exact source tie-break happens on re-check).
        // Node 2 (candidate 1000) and node 3 (Arrival) stay parked.
        wm.floors[0] = Watermark::Promise(SimTime(15));
        wm.refresh(0);
        due.clear();
        wm.due_wakes(0, lookahead, &mut due);
        assert_eq!(due, vec![1], "only the clearable park wakes");
        // A raise past everything still leaves Arrival parks alone:
        // floor movement cannot fill an empty inbox.
        wm.floors[0] = Watermark::Promise(SimTime(10_000));
        wm.refresh(0);
        due.clear();
        wm.due_wakes(0, lookahead, &mut due);
        assert_eq!(due, vec![1, 2], "arrival park must not wake on floors");
        // Drain the park registry so Drop's unpark_all bookkeeping
        // stays balanced.
        wm.unpark_all(&fabric.cells);
        drop(wm);
    }
}
