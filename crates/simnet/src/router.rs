//! Message transport between cluster nodes: a conservative
//! virtual-time-ordered delivery fabric.
//!
//! Each node owns an [`Endpoint`]: its attachment to the shared
//! interconnect. Nodes share *nothing* else — all cross-node interaction
//! goes through [`Envelope`]s, exactly as it would over sockets on the
//! paper's Ethernet cluster. Virtual arrival times are stamped by the
//! sender from the [`NetworkModel`](crate::NetworkModel).
//!
//! # Windowed conservative scheduling
//!
//! Each node's messages are delivered strictly in `(arrive_at, src,
//! seq)` order, a candidate held back until no peer can still produce
//! an earlier-ranked one, so delivery order (and with it lock-grant
//! order) depends only on virtual time, not on thread scheduling.
//!
//! Every node is running its program, blocked in [`Endpoint::recv`],
//! blocked polling at its clock `t` ([`Endpoint::recv_upto_batch`]), or
//! retired. A blocked node's **next event** `E(i)` is its inbox head's
//! arrival time — for a poller, the earlier of that and `t` — and `+∞`
//! for an empty inbox in `recv`. While no node runs, all of them are
//! exact, and they bound everything still to come:
//!
//! * a node sends only after its next event (a poller not before its
//!   clock, a handler relative to the arrival it serves), so every
//!   future send departs at or after `M1 = min over i of E(i)`;
//! * every cross-node transfer costs at least the lookahead `L` (the
//!   network's base latency), so every new arrival lands at or after
//!   `M1 + L`, and node `i` next sends at or after `min(E(i), M1 + L)`;
//! * so nothing from a peer can ever reach node `j` before its **window
//!   bound** `B(j) = min(min over live i ≠ j of E(i), M1 + L) + L`.
//!
//! When the last running node blocks, the scheduler *opens a window*:
//! it stores every bound and resumes each node whose next event lies
//! below its own. The resumed nodes run in parallel. A fabric call
//! carries on without a hand-off while its next event is below its
//! bound (a poll drains every head at or before `t` that is) and blocks
//! otherwise; the last to block opens the next window. A send that puts
//! a blocked node's head below its bound resumes it — only raw envelopes
//! can, since an engine send lands at or past every open bound.
//! Resuming changes a node's state under the fabric lock; the resumed
//! threads are notified only after it is dropped, and never by
//! themselves.
//!
//! Liveness: the node holding `M1` always clears its own bound
//! (`B ≥ M1 + L > M1`, `L > 0`). If no node has a next event, a node
//! with no live peer gets [`SimError::Disconnected`]; otherwise the
//! cluster is deadlocked, and every blocked call panics at once.
//!
//! The scheduler decides only *when* threads run, never *what* is
//! deliverable: each node receives the rank order of everything that
//! will ever reach it, and a poll reports "nothing more by `t`" exactly
//! when that is true. Engine traffic never ties on the rank (per-link
//! sequence numbers increase strictly); raw unsequenced envelopes
//! (`seq == 0`, unit tests only) fall back to push order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::error::{SimError, SimResult};
use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};

/// Index of a node (process) in the cluster: `0..n_nodes`.
pub type NodeId = usize;

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
struct Rank {
    /// Virtual arrival time.
    at: SimTime,
    /// Sending node.
    src: NodeId,
    /// Per-link sequence number (0 for raw envelopes).
    seq: u64,
    /// Inbox insertion order (raw-envelope FIFO tie-break only).
    push: u64,
}

/// What a node is doing, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Running its program, outside any fabric call.
    Running,
    /// Blocked in [`Endpoint::recv`]: its next event is its inbox head.
    Recv,
    /// Blocked in [`Endpoint::recv_upto_batch`] at this clock: its next
    /// event is the earlier of its inbox head and the clock.
    Poll(SimTime),
    /// Finished its program and retired cleanly; sends to it yield
    /// [`SimError::PeerStopped`].
    Stopped,
    /// Vanished mid-run (panic); sends to it yield
    /// [`SimError::Disconnected`].
    Dead,
}

/// Everything the scheduler decides on, behind the fabric's one lock.
struct Sched<M> {
    /// Each node's pending envelopes, in rank order.
    inbox: Vec<VecDeque<(Rank, Envelope<M>)>>,
    state: Vec<State>,
    /// Each node's window bound: no peer can deliver to it below this.
    bound: Vec<SimTime>,
    /// Nodes in [`State::Running`].
    running: usize,
    /// Nodes not yet retired.
    live: usize,
    /// Envelopes pushed so far (the raw-envelope tie-break).
    pushes: u64,
    /// Set once no node can ever act again: the per-node state every
    /// blocked call panics with.
    deadlock: Option<String>,
    /// The first node to retire panicking. Its peers panic only after it
    /// retired (a deadlock, or a send to it), so its panic is the cause.
    first_dead: Option<NodeId>,
}

impl<M> Sched<M> {
    /// Can node `j` act on an event at `t` now: is `t` below its window
    /// bound, or has `j` no live peer left?
    fn clears(&self, j: NodeId, t: SimTime) -> bool {
        t < self.bound[j] || self.live == 1
    }

    /// Node `j`'s next event if it is blocked (`SimTime::MAX` for none,
    /// and for a running or retired node).
    fn next_event(&self, j: NodeId) -> SimTime {
        let head = self.inbox[j].front().map_or(SimTime::MAX, |p| p.0.at);
        match self.state[j] {
            State::Recv => head,
            State::Poll(t) => head.min(t),
            _ => SimTime::MAX,
        }
    }

    /// Resume node `j` if it is blocked and its next event clears. Only
    /// the state changes here; the caller wakes `j` once it has dropped
    /// the lock ([`Fabric::notify`]).
    fn resume_if_due(&mut self, j: NodeId) -> bool {
        let blocked = matches!(self.state[j], State::Recv | State::Poll(_));
        if !blocked || !self.clears(j, self.next_event(j)) {
            return false;
        }
        self.state[j] = State::Running;
        self.running += 1;
        true
    }

    /// Open a window: no node is running, so compute every blocked
    /// node's bound from the exact next events and resume each node
    /// whose next event lies below its bound. If none can act, flag the
    /// deadlock. Returns the nodes to wake: the resumed ones, or every
    /// node to report the deadlock.
    fn open_window(&mut self, lookahead: SimDuration) -> Vec<NodeId> {
        debug_assert_eq!(self.running, 0);
        let n = self.state.len();
        // The lowest next event `m1` (at node `arg`), and the lowest
        // among the others `m2`: `min over i ≠ j` is `m2` for `arg`,
        // `m1` for everyone else.
        let (mut m1, mut arg, mut m2) = (SimTime::MAX, n, SimTime::MAX);
        for j in 0..n {
            let e = self.next_event(j);
            if e < m1 {
                (m2, m1, arg) = (m1, e, j);
            } else if e < m2 {
                m2 = e;
            }
        }
        let horizon = m1 + lookahead;
        let mut resumed = Vec::new();
        for j in 0..n {
            let others = if j == arg { m2 } else { m1 };
            self.bound[j] = others.min(horizon) + lookahead;
            if self.resume_if_due(j) {
                resumed.push(j);
            }
        }
        if resumed.is_empty() && self.live > 0 {
            self.deadlock = Some(self.dump());
            resumed = (0..n).collect();
        }
        resumed
    }

    /// Per-node scheduler state, for the deadlock panic.
    fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (j, state) in self.state.iter().enumerate() {
            let head = self.inbox[j]
                .front()
                .map_or("-".to_string(), |p| format!("{:?}", p.0));
            let _ = write!(
                s,
                "\n  node {j}: {state:?} bound={:?} inbox_len={} inbox_head={head}",
                self.bound[j],
                self.inbox[j].len()
            );
        }
        s
    }
}

/// The shared interconnect: every inbox and the scheduler state behind
/// one lock, and one wake-up condvar per node.
struct Fabric<M> {
    sched: Mutex<Sched<M>>,
    wake: Vec<Condvar>,
    /// Minimum virtual latency of any cross-node transfer (conservative
    /// lookahead `L`).
    lookahead: SimDuration,
}

/// No thread panics holding the fabric lock: a deadlock panics only
/// after releasing it.
const UNPOISONED: &str = "no thread panics holding the fabric lock";

impl<M> Fabric<M> {
    fn lock(&self) -> MutexGuard<'_, Sched<M>> {
        self.sched.lock().expect(UNPOISONED)
    }

    /// Wake `nodes`, all but `me`. Called after the lock is dropped, so
    /// a woken thread does not block at once on the lock its waker
    /// holds; no wake is lost, since a node checks its state under the
    /// lock before it waits. The caller `me` never needs a notify: it
    /// reads its own state before it waits.
    fn notify(&self, nodes: &[NodeId], me: NodeId) {
        for &j in nodes.iter().filter(|&&j| j != me) {
            self.wake[j].notify_one();
        }
    }
}

/// Which node of a cluster died first, panicking: see
/// [`Endpoint::first_death`].
pub(crate) struct FirstDeath<M>(Arc<Fabric<M>>);

impl<M> FirstDeath<M> {
    /// The first node whose endpoint was dropped by a panicking thread.
    pub(crate) fn node(&self) -> Option<NodeId> {
        let g = self.0.sched.lock().unwrap_or_else(PoisonError::into_inner);
        g.first_dead
    }
}

/// One node's attachment to the cluster interconnect.
pub struct Endpoint<M> {
    id: NodeId,
    fabric: Arc<Fabric<M>>,
    /// Fabric calls that had to wait for a window (physical-layer
    /// telemetry; never part of the deterministic virtual-time surface).
    stalls: AtomicU64,
    /// Wall-clock nanoseconds spent waiting, one sample per wait
    /// (physical-layer telemetry, same caveat as `stalls`).
    park_hist: Mutex<Histogram>,
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        // A panicking node does not count as a clean exit: sends to it
        // must keep surfacing as `Disconnected` (a real bug). Either way
        // it stops bounding its peers, and if it was the last running
        // node the next window opens. `Drop` must not panic, and no
        // update under the lock leaves the state invalid.
        let fabric = &*self.fabric;
        let mut g = fabric.sched.lock().unwrap_or_else(PoisonError::into_inner);
        g.state[self.id] = if std::thread::panicking() {
            g.first_dead.get_or_insert(self.id);
            State::Dead
        } else {
            State::Stopped
        };
        g.running -= 1;
        g.live -= 1;
        if g.running == 0 && g.deadlock.is_none() {
            let woken = g.open_window(fabric.lookahead);
            drop(g);
            fabric.notify(&woken, self.id);
        }
    }
}

impl<M> Endpoint<M> {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// A handle that outlives the endpoints and names the first node to
    /// retire panicking ([`FirstDeath::node`]).
    pub(crate) fn first_death(&self) -> FirstDeath<M> {
        FirstDeath(Arc::clone(&self.fabric))
    }

    /// Cluster size.
    pub fn n_nodes(&self) -> usize {
        self.fabric.wake.len()
    }

    /// Fabric calls so far that waited for a window, reset to zero.
    /// Physical-layer overhead telemetry: two identical runs may stall
    /// differently without any virtual-time observable changing.
    pub fn take_stalls(&self) -> u64 {
        self.stalls.swap(0, Ordering::Relaxed)
    }

    /// Wall-clock wait durations (ns) recorded since the last call,
    /// reset to empty. Physical-layer telemetry, like
    /// [`take_stalls`](Endpoint::take_stalls).
    pub fn take_park_hist(&self) -> Histogram {
        std::mem::take(&mut *self.park_hist.lock().expect("unshared"))
    }

    /// Deliver an envelope to its destination's inbox.
    ///
    /// A destination that finished its program and retired cleanly
    /// yields [`SimError::PeerStopped`] (expected under failure
    /// injection — the sender counts and drops the message); a
    /// destination that vanished any other way is a torn-down cluster
    /// and yields [`SimError::Disconnected`].
    pub fn send(&self, env: Envelope<M>) -> SimResult<()> {
        let dst = env.dst;
        if dst >= self.n_nodes() {
            return Err(SimError::UnknownNode(dst));
        }
        let fabric = &*self.fabric;
        let mut g = fabric.lock();
        match g.state[dst] {
            State::Stopped => return Err(SimError::PeerStopped(dst)),
            State::Dead => return Err(SimError::Disconnected),
            _ => {}
        }
        let rank = Rank {
            at: env.arrive_at,
            src: env.src,
            seq: env.seq,
            push: g.pushes,
        };
        g.pushes += 1;
        let inbox = &mut g.inbox[dst];
        inbox.insert(inbox.partition_point(|p| p.0 < rank), (rank, env));
        if g.resume_if_due(dst) {
            drop(g);
            fabric.wake[dst].notify_one();
        }
        Ok(())
    }

    /// Block until the earliest-ranked envelope in this node's inbox is
    /// safe to deliver, then deliver it.
    ///
    /// Errs with [`SimError::Disconnected`] only when the inbox is
    /// empty and every peer has retired — nothing can ever arrive.
    pub fn recv(&self) -> SimResult<Envelope<M>> {
        let mut g = self.fabric.lock();
        loop {
            match g.inbox[self.id].front().map(|p| p.0.at) {
                Some(at) if g.clears(self.id, at) => {
                    return Ok(g.inbox[self.id].pop_front().expect("peeked").1);
                }
                None if g.live == 1 => return Err(SimError::Disconnected),
                _ => g = self.block(g, State::Recv),
            }
        }
    }

    /// Drain *every* deliverable envelope with `arrive_at <= upto`,
    /// appending them (in delivery order) to `out`, and return how many
    /// were delivered (the engine's pump: "service everything that has
    /// arrived by now"). `0` means drained: no peer can still produce
    /// an arrival at or before `upto`. Blocks only as long as the
    /// answer is unknown — until a window bound either admits the head
    /// or passes `upto`.
    ///
    /// Every envelope in one batch lies below the window bound, so
    /// nothing a peer can still send ranks before it; the caller's own
    /// loopback sends depart at or after its clock (`≥ upto`). The
    /// batch is therefore exactly the rank-order prefix that the
    /// one-message-per-call pump would deliver.
    pub fn recv_upto_batch(&self, upto: SimTime, out: &mut Vec<Envelope<M>>) -> usize {
        let mut g = self.fabric.lock();
        loop {
            let mut delivered = 0;
            while let Some(at) = g.inbox[self.id].front().map(|p| p.0.at) {
                if at > upto || !g.clears(self.id, at) {
                    break;
                }
                out.push(g.inbox[self.id].pop_front().expect("peeked").1);
                delivered += 1;
            }
            if delivered > 0 || g.clears(self.id, upto) {
                return delivered;
            }
            g = self.block(g, State::Poll(upto));
        }
    }

    /// Block in `state` until the scheduler resumes this node. If this
    /// was the last running node, open the next window first. Panics
    /// with every node's state if the cluster is deadlocked.
    fn block<'a>(
        &'a self,
        mut g: MutexGuard<'a, Sched<M>>,
        state: State,
    ) -> MutexGuard<'a, Sched<M>> {
        let fabric = &*self.fabric;
        let t0 = Instant::now();
        g.state[self.id] = state;
        g.running -= 1;
        if g.running == 0 {
            let woken = g.open_window(fabric.lookahead);
            if woken.iter().any(|&j| j != self.id) {
                drop(g);
                fabric.notify(&woken, self.id);
                g = fabric.lock();
            }
        }
        while g.state[self.id] != State::Running {
            if let Some(dump) = g.deadlock.clone() {
                // Leave as a running node, so that this endpoint's
                // `Drop` retires it like any other.
                g.state[self.id] = State::Running;
                g.running += 1;
                drop(g);
                panic!(
                    "fabric deadlock: every live node is blocked and none has a next event \
                     (node {} was in {state:?}); scheduler state:{dump}",
                    self.id
                );
            }
            g = fabric.wake[self.id].wait(g).expect(UNPOISONED);
        }
        self.stalls.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.park_hist.lock().expect("unshared").record(ns);
        g
    }
}

/// Build fully connected endpoints for an `n`-node cluster with an
/// explicit conservative lookahead: the minimum virtual latency of any
/// cross-node transfer. [`run_cluster`](crate::run_cluster) passes the
/// network model's base latency.
pub fn make_endpoints_with_lookahead<M>(n: usize, lookahead: SimDuration) -> Vec<Endpoint<M>> {
    assert!(
        lookahead > SimDuration::ZERO,
        "no progress without lookahead"
    );
    // Every node starts running at virtual time 0, so the first window's
    // bound is `min(0, 0 + L) + L = L` for everyone.
    let sched = Sched {
        inbox: (0..n).map(|_| VecDeque::new()).collect(),
        state: vec![State::Running; n],
        bound: vec![SimTime::ZERO + lookahead; n],
        running: n,
        live: n,
        pushes: 0,
        deadlock: None,
        first_dead: None,
    };
    let fabric = Arc::new(Fabric {
        sched: Mutex::new(sched),
        wake: (0..n).map(|_| Condvar::new()).collect(),
        lookahead,
    });
    (0..n)
        .map(|id| Endpoint {
            id,
            fabric: Arc::clone(&fabric),
            stalls: AtomicU64::new(0),
            park_hist: Mutex::new(Histogram::new()),
        })
        .collect()
}

/// Build fully connected endpoints for an `n`-node cluster.
///
/// Uses an effectively unbounded lookahead, under which every bound
/// lies far past any hand-stamped time and delivery degenerates to pure
/// rank order over whatever is queued — the right semantics for raw
/// envelopes with no cost model. Engine clusters go through
/// `make_endpoints_with_lookahead` with the real network latency.
pub fn make_endpoints<M>(n: usize) -> Vec<Endpoint<M>> {
    make_endpoints_with_lookahead(n, SimDuration::from_secs(1 << 20))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
    fn poll_is_nonblocking() {
        let eps = make_endpoints::<Ping>(2);
        let mut out = Vec::new();
        assert_eq!(eps[1].recv_upto_batch(SimTime(100), &mut out), 0);
        eps[0].send(env(0, 1, Ping(3))).unwrap();
        assert_eq!(eps[1].recv_upto_batch(SimTime(100), &mut out), 1);
        assert_eq!(out[0].payload, Ping(3));
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

    /// A raw envelope below a blocked receiver's bound resumes it at
    /// once, while its sender keeps running and no window can open.
    #[test]
    fn a_send_below_the_bound_resumes_a_blocked_receiver() {
        let mut eps = make_endpoints::<Ping>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let (ack, acked) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.send(env(0, 1, Ping(42))).unwrap();
                let got = acked.recv_timeout(std::time::Duration::from_secs(10));
                assert!(got.is_ok(), "the receiver waited for a window");
            });
            assert_eq!(b.recv().unwrap().payload, Ping(42));
            ack.send(()).unwrap();
        });
    }

    /// A node that retires as the last running one opens a window, and
    /// the peers it resumes are woken although it never blocks: both
    /// blocked receivers return. A lost wake fails on the timeout
    /// instead of hanging.
    #[test]
    fn a_retiring_nodes_window_wakes_its_peers() {
        let mut eps = make_endpoints_with_lookahead::<Ping>(3, SimDuration::from_nanos(10));
        let fabric = Arc::clone(&eps[0].fabric);
        // Both heads arrive at 100, past every first bound (10): the
        // receivers block until a window admits them.
        for dst in [1, 2] {
            eps[0].send(env(0, dst, Ping(dst as u32))).unwrap();
        }
        // Not scoped threads: a scope would hang joining a thread whose
        // wake was lost, instead of failing.
        let (done, got) = std::sync::mpsc::channel();
        let receivers: Vec<_> = eps
            .drain(1..)
            .map(|ep| {
                let done = done.clone();
                std::thread::spawn(move || done.send(ep.recv().map(|e| e.payload)).unwrap())
            })
            .collect();
        let t0 = std::time::Instant::now();
        while fabric.lock().state[1..] != [State::Recv, State::Recv] {
            assert!(t0.elapsed().as_secs() < 10, "the receivers never blocked");
            std::thread::yield_now();
        }
        // Node 0 retires: the window bounds both at 100 + 10 + 10.
        drop(eps);
        let timeout = std::time::Duration::from_secs(10);
        let mut payloads: Vec<u32> = (0..2)
            .map(|_| {
                got.recv_timeout(timeout)
                    .expect("a resumed peer was never woken")
            })
            .map(|r| r.unwrap().0)
            .collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![1, 2]);
        for r in receivers {
            r.join().unwrap();
        }
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

    /// A head at or past its node's window bound must wait until the
    /// lagging peer blocks and the next window admits it.
    #[test]
    fn head_past_its_bound_waits_until_the_lagging_peer_blocks() {
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
        let a_blocking = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Node 0 is still running at virtual time 0, so it could
                // send something arriving at 10 < 100: node 2's first
                // bound is 10, and its head must wait for node 0. The
                // pass never depends on the sleep; it only gives a
                // scheduler that ignored the bound time to deliver early.
                std::thread::sleep(std::time::Duration::from_millis(50));
                a_blocking.store(true, Ordering::SeqCst);
                // Node 0 blocks on an empty inbox: the window opens with
                // node 2's bound at min(∞, 100 + 10) + 10 = 120.
                let got = a.recv();
                // Resumed once node 2 retires and it has no live peer.
                assert_eq!(got.unwrap().payload, Ping(55));
            });
            let got = c.recv().unwrap();
            assert!(
                a_blocking.load(Ordering::SeqCst),
                "delivered past the bound of a running peer"
            );
            assert_eq!(got.payload, Ping(9));
            assert_eq!(c.take_stalls(), 1, "one call waited for one window");
            c.send(Envelope {
                src: 2,
                dst: 0,
                sent_at: SimTime(100),
                arrive_at: SimTime(200),
                seq: 1,
                payload: Ping(55),
            })
            .unwrap();
            drop(c); // node 2 retires, so node 0 is the last live node
        });
    }

    /// The cascade term of the bound: a node resumed while its only
    /// peer idles on an empty inbox may still make that peer answer it,
    /// so its bound stops at `M1 + 2L` and a later head waits for the
    /// answer instead of overtaking it.
    #[test]
    fn a_reply_to_a_request_sent_inside_a_window_is_not_overtaken() {
        let mut eps = make_endpoints_with_lookahead::<Ping>(2, SimDuration::from_nanos(10));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let stamped = |src: NodeId, dst: NodeId, at: u64, p: Ping| Envelope {
            src,
            dst,
            sent_at: SimTime(at - 10),
            arrive_at: SimTime(at),
            seq: 1,
            payload: p,
        };
        a.send(stamped(0, 0, 1_000, Ping(2))).unwrap();
        let mut out = Vec::new();
        std::thread::scope(|s| {
            s.spawn(move || {
                // Node 1 idles on an empty inbox until node 0 asks, and
                // answers from the request's arrival.
                let req = b.recv().unwrap();
                b.send(stamped(1, 0, req.arrive_at.0 + 10, Ping(1)))
                    .unwrap();
            });
            // Returns once node 1 idles too: the window gives node 0 the
            // bound min(∞, 20 + 10) + 10 = 40, and nothing arrives by 20.
            assert_eq!(a.recv_upto_batch(SimTime(20), &mut out), 0);
            a.send(stamped(0, 1, 30, Ping(0))).unwrap();
            assert!(a.recv_upto_batch(SimTime(2_000), &mut out) > 0);
            while out.len() < 2 {
                out.push(a.recv().unwrap());
            }
        });
        let got: Vec<u32> = out.iter().map(|e| e.payload.0).collect();
        assert_eq!(got, vec![1, 2], "the self-sent head overtook the reply");
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
        assert_eq!(eps[2].recv_upto_batch(SimTime(300), &mut out), 1);
        assert_eq!(out[0].payload, Ping(3));
    }

    /// One step of a random raw-envelope program (see
    /// `random_programs_deliver_in_rank_order_and_reproducibly`).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Advance the node's clock.
        Compute(u64),
        /// Send from the clock to `dst`, `extra` ns slower than the
        /// fastest transfer; `reply` asks the receiver to answer.
        Send {
            dst: NodeId,
            extra: u64,
            reply: bool,
        },
        /// Drain everything that has arrived by the clock.
        Poll,
    }

    /// A delivery as `(arrive_at, src, seq, payload)`.
    type Delivery = (u64, NodeId, u64, u32);

    /// A node running one program the way the engine drives its
    /// endpoint: sends depart at its clock, or at the arrival of the
    /// request a reply answers; every transfer costs at least the
    /// lookahead, a loopback at least 1 ns.
    struct Proc<'a> {
        ep: &'a Endpoint<Ping>,
        lookahead: u64,
        clock: u64,
        seq: Vec<u64>,
        /// Every delivery, in order.
        log: Vec<Delivery>,
        /// The log's length and the clock at the end of each poll.
        polls: Vec<(usize, u64)>,
    }

    impl Proc<'_> {
        fn send(&mut self, from: u64, dst: NodeId, extra: u64, payload: u32) {
            let src = self.ep.id();
            self.seq[dst] += 1;
            let wire = if dst == src { 1 } else { self.lookahead };
            self.ep
                .send(Envelope {
                    src,
                    dst,
                    sent_at: SimTime(from),
                    arrive_at: SimTime(from + wire + extra),
                    seq: self.seq[dst],
                    payload: Ping(payload),
                })
                .expect("a node retires only after everything it expects");
        }

        fn take(&mut self, env: Envelope<Ping>) {
            let at = env.arrive_at.0;
            self.log.push((at, env.src, env.seq, env.payload.0));
            if env.payload.0 == 1 {
                // A reply departs at the request's arrival, a loopback
                // one not before the clock (the batch promise).
                let from = if env.src == self.ep.id() {
                    at.max(self.clock)
                } else {
                    at
                };
                self.send(from, env.src, 0, 0);
            }
        }

        fn run(mut self, program: &[Op], expect: usize) -> (Vec<Delivery>, Vec<(usize, u64)>) {
            let mut out = Vec::new();
            for &op in program {
                match op {
                    Op::Compute(d) => self.clock += d,
                    Op::Send { dst, extra, reply } => {
                        self.send(self.clock, dst, extra, u32::from(reply));
                    }
                    Op::Poll => {
                        while self.ep.recv_upto_batch(SimTime(self.clock), &mut out) > 0 {
                            for env in out.drain(..) {
                                self.take(env);
                            }
                        }
                        self.polls.push((self.log.len(), self.clock));
                    }
                }
            }
            while self.log.len() < expect {
                let env = self.ep.recv().expect("an expected message");
                self.clock = self.clock.max(env.arrive_at.0);
                self.take(env);
            }
            (self.log, self.polls)
        }
    }

    /// Random raw-envelope programs on 2–5 node threads with a real
    /// lookahead: every inbox delivers in strict rank order, every poll
    /// drains exactly what has arrived by its clock, and a second run
    /// delivers the identical per-node sequences.
    #[test]
    fn random_programs_deliver_in_rank_order_and_reproducibly() {
        minicheck::check("window_delivery", 48, |rng| {
            let n = rng.usize_in(2, 6);
            let lookahead = rng.u64_in(1, 1_000);
            let mut expect = vec![0usize; n];
            let programs: Vec<Vec<Op>> = (0..n)
                .map(|src| {
                    (0..rng.usize_in(4, 24))
                        .map(|_| match rng.below(5) {
                            0 => Op::Compute(rng.below(3 * lookahead)),
                            1 => Op::Poll,
                            _ => {
                                let (dst, reply) = (rng.usize_in(0, n), rng.bool());
                                expect[dst] += 1;
                                expect[src] += usize::from(reply);
                                Op::Send {
                                    dst,
                                    extra: rng.below(2 * lookahead),
                                    reply,
                                }
                            }
                        })
                        .collect()
                })
                .collect();
            let run = || {
                let eps = make_endpoints_with_lookahead::<Ping>(n, SimDuration(lookahead));
                std::thread::scope(|s| {
                    let handles: Vec<_> = eps
                        .into_iter()
                        .map(|ep| {
                            let (program, expect) = (&programs[ep.id()], expect[ep.id()]);
                            s.spawn(move || {
                                let proc = Proc {
                                    ep: &ep,
                                    lookahead,
                                    clock: 0,
                                    seq: vec![0; n],
                                    log: Vec::new(),
                                    polls: Vec::new(),
                                };
                                proc.run(program, expect)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .collect::<Vec<_>>()
                })
            };
            let first = run();
            for (j, (log, polls)) in first.iter().enumerate() {
                assert_eq!(log.len(), expect[j], "node {j} delivery count");
                for w in log.windows(2) {
                    let (a, b) = ((w[0].0, w[0].1, w[0].2), (w[1].0, w[1].1, w[1].2));
                    assert!(a < b, "node {j} delivered {b:?} after {a:?}");
                }
                for &(len, clock) in polls {
                    assert!(
                        log[len..].iter().all(|d| d.0 > clock),
                        "node {j}: a poll at {clock} missed an arrival by then"
                    );
                }
            }
            assert_eq!(run(), first, "a second run delivered differently");
        });
    }

    /// Live nodes all blocked in `recv` on empty inboxes can never be
    /// resumed: every one of them panics at once, naming each node's
    /// state, instead of hanging.
    #[test]
    fn blocked_live_nodes_with_empty_inboxes_panic_at_once() {
        let mut eps = make_endpoints_with_lookahead::<Ping>(4, SimDuration::from_nanos(10));
        drop(eps.pop()); // node 3 retires cleanly first
        let t0 = std::time::Instant::now();
        let messages: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .map(|ep| s.spawn(move || ep.recv().map(|_| ())))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let payload = h.join().expect_err("a deadlocked recv must panic");
                    *payload.downcast::<String>().expect("a formatted panic")
                })
                .collect()
        });
        let took = t0.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
        for m in &messages {
            assert!(m.contains("deadlock"), "{m}");
            for j in 0..3 {
                assert!(m.contains(&format!("node {j}: Recv ")), "{m}");
            }
            assert!(m.contains("node 3: Stopped "), "{m}");
        }
    }
}
