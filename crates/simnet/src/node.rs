//! Per-node runtime context and cluster launcher.
//!
//! A [`NodeCtx`] bundles everything a DSM process owns on its machine:
//! its virtual clock, its network endpoint, its local disk, its hardware
//! cost model, and its statistics. One OS thread runs each node;
//! [`run_cluster`] spawns them and joins their results.

use std::collections::VecDeque;
use std::thread;

use crate::disk::SimDisk;
use crate::engine::{PhaseBreakdown, TraceKind};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultPlan, FaultState};
use crate::metrics::NodeMetrics;
use crate::models::CostModel;
use crate::router::{make_endpoints_with_lookahead, Endpoint, Envelope, NodeId, WireSized};
use crate::stats::NodeStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceSink};

/// The local machine of one DSM process.
pub struct NodeCtx<M> {
    id: NodeId,
    n_nodes: usize,
    clock: SimTime,
    /// Hardware cost model (shared by all nodes in a homogeneous cluster).
    pub cost: CostModel,
    ep: Endpoint<M>,
    /// This node's local stable storage.
    pub disk: SimDisk,
    /// Execution counters.
    pub stats: NodeStats,
    /// Hot-path distribution metrics (log-binned histograms).
    pub metrics: NodeMetrics,
    /// Messages deferred while replaying from the log after a crash.
    deferred: Vec<Envelope<M>>,
    /// Already-admitted deliveries batch-drained from the fabric but
    /// not yet consumed by the protocol. Strictly earlier-ranked than
    /// anything still in (or yet to reach) the endpoint's inbox, so
    /// every receive path must empty this before touching the fabric.
    /// Lives in the transport layer: it survives a simulated crash of
    /// the DSM process above it, like [`FaultState`].
    arrived: VecDeque<Envelope<M>>,
    /// Scratch buffer handed to [`Endpoint::recv_upto_batch`] (reused
    /// to keep the pump allocation-free).
    batch: Vec<Envelope<M>>,
    /// Structured telemetry stream, in emission (= virtual time) order.
    trace: TraceSink,
    /// Virtual time of the simulated crash, if one was injected.
    pub crashed_at: Option<SimTime>,
    /// Virtual time at which log replay finished and the node resumed
    /// live operation (recovery time = `recovery_exit - crashed_at`).
    pub recovery_exit: Option<SimTime>,
    /// The time counters (compute, wait, disk) as they stood at
    /// `crashed_at`; [`NodeCtx::mark_recovered`] subtracts them.
    crash_counters: [SimDuration; 3],
    /// Where the recovery window `[crashed_at, recovery_exit]` went:
    /// its compute, wait and disk time sum to the window exactly
    /// (`hidden` is zero — the wait is reported whole).
    pub recovery_phases: Option<PhaseBreakdown>,
    /// Fault-injection state: the plan plus per-link PRNG streams and
    /// sequence counters. Lives in the transport layer, so it survives
    /// a simulated crash of the DSM process above it.
    faults: FaultState,
    /// Rank of the last delivery, as a soundness witness for the
    /// conservative scheduler: per-receiver delivery order must be
    /// nondecreasing in `(arrive_at, src, seq)` (checked in debug
    /// builds).
    last_rank: (SimTime, NodeId, u64),
}

impl<M: WireSized> NodeCtx<M> {
    fn new(ep: Endpoint<M>, cost: CostModel) -> NodeCtx<M> {
        let id = ep.id();
        NodeCtx {
            id,
            n_nodes: ep.n_nodes(),
            clock: SimTime::ZERO,
            cost,
            disk: SimDisk::new(cost.disk),
            faults: FaultState::new(ep.id(), ep.n_nodes(), FaultPlan::none()),
            ep,
            stats: NodeStats::default(),
            metrics: NodeMetrics::default(),
            deferred: Vec::new(),
            arrived: VecDeque::new(),
            batch: Vec::new(),
            trace: TraceSink::new(id),
            crashed_at: None,
            recovery_exit: None,
            crash_counters: [SimDuration::ZERO; 3],
            recovery_phases: None,
            last_rank: (SimTime::ZERO, 0, 0),
        }
    }

    /// Arm a network-fault schedule. Call before any traffic flows;
    /// the per-link PRNG streams restart from the plan's seed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(self.id, self.n_nodes, plan);
    }

    /// This node's id in the cluster.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Current virtual time at this node.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advance the clock by protocol CPU overhead (fault traps, handler
    /// entry, recovery bookkeeping), accounted as compute time.
    pub fn charge_overhead(&mut self, d: SimDuration) {
        self.stats.compute_time += d;
        self.clock += d;
    }

    /// Advance the clock by a synchronous stable-storage stall (log or
    /// checkpoint writes, and backpressure from a busy disk), accounted
    /// as disk time.
    pub fn charge_disk(&mut self, d: SimDuration) {
        self.stats.disk_time += d;
        self.clock += d;
    }

    /// Move the clock forward to `t` (no-op if already past it) and
    /// account the jump as wait time.
    pub fn wait_until(&mut self, t: SimTime) {
        if t > self.clock {
            self.stats.wait_time += t - self.clock;
            self.clock = t;
        }
    }

    /// Charge application arithmetic.
    pub fn charge_flops(&mut self, n: u64) {
        let d = self.cost.cpu.flops(n);
        self.stats.compute_time += d;
        self.clock += d;
    }

    /// Charge a memory copy/compare of `bytes`.
    pub fn charge_copy(&mut self, bytes: usize) {
        let d = self.cost.cpu.copy(bytes);
        self.stats.compute_time += d;
        self.clock += d;
    }

    /// Block until the next envelope in virtual-time order is safe to
    /// deliver. Does not touch the clock; the caller decides whether
    /// the arrival is synchronous (absorb its arrival time) or served
    /// asynchronously. Duplicate deliveries are suppressed here by
    /// sequence number, invisibly to the protocol.
    pub fn recv(&mut self) -> SimResult<Envelope<M>> {
        loop {
            // Deliveries batched by `recv_arrived` rank before anything
            // the fabric can still produce: a blocking receive nested
            // inside batch service must see them first.
            let env = match self.arrived.pop_front() {
                Some(env) => env,
                None => {
                    let env = self.ep.recv();
                    self.drain_sched_telemetry();
                    env?
                }
            };
            if let Some(env) = self.admit(env) {
                return Ok(env);
            }
        }
    }

    /// Deliver the next envelope that has already arrived by this
    /// node's clock, if any (used to service requests at sync points
    /// mid-run). Blocks only until the conservative scheduler can
    /// answer definitively; the answer itself is a pure function of
    /// virtual time. Suppresses duplicates like [`NodeCtx::recv`].
    pub fn recv_arrived(&mut self) -> Option<Envelope<M>> {
        loop {
            let env = match self.arrived.pop_front() {
                Some(env) => env,
                None => {
                    // Batch-drain everything already admissible under
                    // one fabric lock hold; later calls consume the
                    // buffer without touching the fabric at all.
                    let mut batch = std::mem::take(&mut self.batch);
                    let n = self.ep.recv_upto_batch(self.clock, &mut batch);
                    self.drain_sched_telemetry();
                    self.arrived.extend(batch.drain(..));
                    self.batch = batch;
                    if n == 0 {
                        return None;
                    }
                    self.arrived.pop_front().expect("nonempty batch")
                }
            };
            if let Some(env) = self.admit(env) {
                return Some(env);
            }
        }
    }

    /// The one receive step after a delivery leaves the fabric: suppress
    /// a duplicate (by sequence number, invisibly to the protocol), or
    /// accept the envelope — traffic counters plus the `MsgRecv` half of
    /// its causal edge, keyed by the same `(src, dst, seq)` triple the
    /// sender stamped.
    fn admit(&mut self, env: Envelope<M>) -> Option<Envelope<M>> {
        if self.faults.is_duplicate(env.src, env.seq) {
            self.stats.dups_suppressed += 1;
            self.trace(TraceKind::DupSuppressed { from: env.src });
            return None;
        }
        let rank = (env.arrive_at, env.src, env.seq);
        debug_assert!(
            rank >= self.last_rank,
            "delivery order regressed at node {}: {:?} after {:?}",
            self.id,
            rank,
            self.last_rank
        );
        self.last_rank = rank;
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.payload.wire_size() as u64;
        self.trace(TraceKind::MsgRecv {
            from: env.src,
            seq: env.seq,
            msg: env.payload.msg_label(),
        });
        Some(env)
    }

    /// Fold the endpoint's physical-layer scheduler telemetry (stall
    /// count, park durations) into this node's stats after a fabric
    /// call. A call that never parked has nothing to drain.
    fn drain_sched_telemetry(&mut self) {
        let stalls = self.ep.take_stalls();
        if stalls > 0 {
            self.stats.sched_stalls += stalls;
            self.metrics.park_ns.merge(&self.ep.take_park_hist());
        }
    }

    /// Absorb a synchronously awaited message: the node was blocked, so
    /// its clock jumps to the arrival time (counted as wait).
    pub fn absorb(&mut self, env: &Envelope<M>) {
        self.wait_until(env.arrive_at);
    }

    /// Time at which an asynchronous handler finishes servicing `env`
    /// (arrival + fixed handler entry cost), before any per-byte work.
    pub fn service_time(&self, env: &Envelope<M>) -> SimTime {
        env.arrive_at + self.cost.cpu.message_handler
    }

    /// Logical start time for asynchronously servicing `env`: its
    /// arrival time, or "now" for a message replayed from the deferred
    /// queue after recovery (its arrival is long past).
    pub fn async_service_base(&self, env: &Envelope<M>, deferred: bool) -> SimTime {
        if deferred {
            env.arrive_at.max(self.clock)
        } else {
            env.arrive_at
        }
    }

    /// Queue `env` for service after recovery finishes.
    pub fn defer(&mut self, env: Envelope<M>) {
        self.deferred.push(env);
    }

    /// Take the messages deferred during recovery, in arrival order.
    pub fn take_deferred(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.deferred)
    }

    /// Block until a message matching `pred` arrives, deferring every
    /// other message. Used only during crash recovery, where all normal
    /// protocol service is postponed until replay finishes.
    pub fn wait_for_deferring<F: Fn(&M) -> bool>(&mut self, pred: F) -> Envelope<M> {
        loop {
            let env = self.recv().expect("cluster channel closed");
            if pred(&env.payload) {
                self.absorb(&env);
                return env;
            }
            self.deferred.push(env);
        }
    }

    /// Emit a telemetry event stamped with this node's current clock.
    /// Per-node streams are therefore nondecreasing in time.
    pub fn trace(&mut self, kind: TraceKind) {
        self.trace.push(self.clock, kind);
    }

    /// The telemetry emitted so far.
    pub fn trace_events(&self) -> &Trace {
        self.trace.trace()
    }

    /// Take ownership of the telemetry stream (used when assembling the
    /// run output).
    pub fn take_trace(&mut self) -> Trace {
        self.trace.take()
    }

    /// Events discarded after the trace sink reached its capacity
    /// (0 on every sized workload in the repo; nonzero means the export
    /// is a prefix and the run output says so).
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    fn time_counters(&self) -> [SimDuration; 3] {
        [
            self.stats.compute_time,
            self.stats.wait_time,
            self.stats.disk_time,
        ]
    }

    /// Record a crash at the current virtual time: the recovery window
    /// opens here. The telemetry survives (it models an external
    /// observer, not node memory).
    pub fn mark_crashed(&mut self) {
        self.crashed_at = Some(self.clock);
        self.recovery_exit = None;
        self.recovery_phases = None;
        self.crash_counters = self.time_counters();
        self.trace(TraceKind::Crash);
    }

    /// Log replay has finished: close the recovery window at the
    /// current virtual time. No-op if it is already closed.
    pub fn mark_recovered(&mut self) {
        if self.recovery_exit.is_some() {
            return;
        }
        self.recovery_exit = Some(self.clock);
        let [compute, wait, disk] = self.time_counters();
        let [compute0, wait0, disk0] = self.crash_counters;
        self.recovery_phases = Some(PhaseBreakdown {
            compute: compute.saturating_sub(compute0),
            wait: wait.saturating_sub(wait0),
            disk: disk.saturating_sub(disk0),
            hidden: SimDuration::ZERO,
        });
        self.trace(TraceKind::RecoveryEnd);
    }
}

/// Send paths. `Clone` is needed only to materialize duplicate
/// deliveries under fault injection.
impl<M: WireSized + Clone> NodeCtx<M> {
    /// Send `payload` to `dst`, stamping departure now and arrival per
    /// the network model.
    pub fn send(&mut self, dst: NodeId, payload: M) -> SimResult<()> {
        let sent_at = self.clock;
        self.send_from(sent_at, dst, payload)
    }

    /// Send with an explicit logical departure time.
    ///
    /// Asynchronous protocol handlers (the "communication processor")
    /// reply relative to the *request's arrival*, not to wherever the
    /// host application happens to have advanced its own clock.
    ///
    /// The armed [`FaultPlan`] judges every cross-node transmission:
    /// simulated drops and partitions surface as retransmission delay
    /// (plus `Timeout`/`Retransmit` telemetry), duplicates as a second
    /// physical delivery with the same sequence number. Sends to a peer
    /// that already finished its program are counted and dropped, not
    /// errors — under failure injection such stragglers are expected.
    pub fn send_from(&mut self, sent_at: SimTime, dst: NodeId, payload: M) -> SimResult<()> {
        let size = payload.wire_size();
        // Loopback messages (manager talking to itself) skip the wire:
        // a real implementation short-circuits these in memory.
        let (nominal, fate) = if dst == self.id {
            (sent_at + SimDuration::from_micros(1), Default::default())
        } else {
            let transfer = self.cost.net.transfer_time(size);
            (sent_at + transfer, self.faults.judge(self.id, dst, sent_at))
        };
        let arrive_at = nominal + fate.delay;
        let seq = self.faults.next_seq(dst);
        if fate.attempts > 0 {
            self.stats.timeouts += fate.attempts as u64;
            self.stats.retransmits += fate.attempts as u64;
            self.metrics
                .retransmit_backoff_ns
                .record(fate.delay.as_nanos());
            self.trace(TraceKind::Timeout { to: dst });
            self.trace(TraceKind::Retransmit {
                to: dst,
                attempts: fate.attempts,
            });
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += size as u64;
        self.stats.count_kind(payload.kind_ordinal(), size as u64);
        self.trace(TraceKind::MsgSend {
            to: dst,
            seq,
            bytes: size as u32,
            msg: payload.msg_label(),
        });
        let duplicate = fate.duplicate.then(|| Envelope {
            src: self.id,
            dst,
            sent_at,
            // The duplicate trails the original by one more transfer.
            arrive_at: arrive_at + self.cost.net.transfer_time(size),
            seq,
            payload: payload.clone(),
        });
        let sent = self
            .ep
            .send(Envelope {
                src: self.id,
                dst,
                sent_at,
                arrive_at,
                seq,
                payload,
            })
            .and_then(|()| match duplicate {
                Some(d) => self.ep.send(d),
                None => Ok(()),
            });
        match sent {
            Err(SimError::PeerStopped(_)) => {
                self.stats.sends_to_stopped += 1;
                Ok(())
            }
            other => other,
        }
    }
}

/// Spawn `n` node threads, run `f` on each, and collect the results in
/// node order. A panic in a node propagates, with its own payload, after
/// all threads are joined: the first node's to die, since its peers'
/// panics (a deadlock, a send to the dead node) only follow from it.
pub fn run_cluster<M, R, F>(n: usize, cost: CostModel, f: F) -> Vec<R>
where
    M: WireSized + Send + 'static,
    R: Send,
    F: Fn(NodeCtx<M>) -> R + Send + Sync,
{
    let eps = make_endpoints_with_lookahead::<M>(n, cost.net.latency);
    let first_death = eps.first().map(|ep| ep.first_death());
    let f = &f;
    let mut joined: Vec<thread::Result<R>> = thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let ctx = NodeCtx::new(ep, cost);
                s.spawn(move || f(ctx))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let cause = (first_death.and_then(|d| d.node()))
        .filter(|&j| joined[j].is_err())
        .or_else(|| joined.iter().position(thread::Result::is_err));
    if let Some(Err(payload)) = cause.map(|j| joined.swap_remove(j)) {
        std::panic::resume_unwind(payload);
    }
    joined.into_iter().map(Result::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Blob(usize);

    impl WireSized for Blob {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn clock_charges_accumulate() {
        let results = run_cluster::<Blob, _, _>(1, CostModel::default(), |mut ctx| {
            ctx.charge_flops(1000);
            ctx.charge_copy(4096);
            (ctx.now(), ctx.stats)
        });
        let (now, stats) = results[0];
        assert_eq!(now.as_nanos(), 45 * 1000 + 3 * 4096);
        assert_eq!(stats.compute_time.as_nanos(), now.as_nanos());
    }

    #[test]
    fn request_reply_advances_requester_clock() {
        // Node 0 asks node 1 for a 4 KB page; node 1 services it
        // asynchronously. Node 0's clock must land at
        // request transfer + handler + reply transfer.
        let results = run_cluster::<Blob, _, _>(2, CostModel::default(), |mut ctx| {
            if ctx.id() == 0 {
                ctx.send(1, Blob(64)).unwrap();
                let reply = ctx.recv().unwrap();
                ctx.absorb(&reply);
                ctx.now().as_nanos()
            } else {
                let req = ctx.recv().unwrap();
                let done = ctx.service_time(&req);
                ctx.send_from(done, req.src, Blob(4096)).unwrap();
                0
            }
        });
        let m = CostModel::default();
        let expect = (m.net.transfer_time(64) + m.cpu.message_handler + m.net.transfer_time(4096))
            .as_nanos();
        assert_eq!(results[0], expect);
    }

    /// The panic that reaches the caller is the node's that died first,
    /// not a peer's that only followed from it: here both peers then
    /// block forever and panic on the deadlock, node 0 among them.
    #[test]
    #[should_panic(expected = "node 2 gives up")]
    fn the_first_nodes_panic_propagates() {
        run_cluster::<Blob, _, _>(3, CostModel::default(), |mut ctx| {
            if ctx.id() == 2 {
                panic!("node 2 gives up");
            }
            ctx.recv().unwrap();
        });
    }

    #[test]
    fn wait_until_never_moves_backwards() {
        run_cluster::<Blob, _, _>(1, CostModel::default(), |mut ctx| {
            ctx.charge_overhead(SimDuration::from_millis(5));
            let before = ctx.now();
            ctx.wait_until(SimTime(1));
            assert_eq!(ctx.now(), before);
            ctx.wait_until(before + SimDuration::from_millis(1));
            assert_eq!(ctx.now(), before + SimDuration::from_millis(1));
            assert_eq!(ctx.stats.wait_time, SimDuration::from_millis(1));
        });
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let results = run_cluster::<Blob, _, _>(2, CostModel::default(), |mut ctx| {
            if ctx.id() == 0 {
                ctx.send(1, Blob(100)).unwrap();
                ctx.stats
            } else {
                ctx.recv().unwrap();
                ctx.stats
            }
        });
        assert_eq!(results[0].msgs_sent, 1);
        assert_eq!(results[0].bytes_sent, 100);
        assert_eq!(results[1].msgs_recv, 1);
        assert_eq!(results[1].bytes_recv, 100);
    }

    #[test]
    fn all_pairs_exchange() {
        const N: usize = 4;
        let results = run_cluster::<Blob, _, _>(N, CostModel::default(), |mut ctx| {
            for dst in 0..N {
                if dst != ctx.id() {
                    ctx.send(dst, Blob(8)).unwrap();
                }
            }
            let mut got = 0;
            while got < N - 1 {
                ctx.recv().unwrap();
                got += 1;
            }
            got
        });
        assert!(results.iter().all(|&g| g == N - 1));
    }
}
