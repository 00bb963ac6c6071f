//! Causal blame engine: virtual-time critical path and per-object cost.
//!
//! Every run already records *where* time went (the phase breakdown:
//! compute / wait / disk / hidden). This module answers *why*: it
//! reconstructs the cross-node causal structure from the trace and
//! attributes every nanosecond of the run's makespan — and every logged
//! byte — to the **coherence object** responsible: the page that was
//! fetched, the lock whose holder kept others waiting, the barrier
//! episode whose straggler released everyone late, the home whose
//! diff-ack arrived last.
//!
//! # Wait spans
//!
//! The producers stamp each blocking episode with its duration and its
//! cause at the moment the wait ends:
//!
//! * [`TraceKind::PageFetch`] — `wait_ns` of fault-to-installed-copy
//!   stall, blamed on the page, caused by the serving home/owner;
//! * [`TraceKind::LockAcquire`] — `wait_ns` of request-to-grant stall,
//!   blamed on the lock; the *holder* is joined from the manager-side
//!   [`TraceKind::LockGranted`] stream (the n-th acquire of lock L on
//!   node N matches the manager's n-th grant of L to N — grants to one
//!   `(lock, to)` pair are FIFO because a node never has two
//!   outstanding acquires of the same lock);
//! * [`TraceKind::BarrierEnter`]/[`TraceKind::BarrierExit`] — the
//!   bracketed interval is a barrier wait, blamed on the episode; the
//!   straggler is joined from the manager-side
//!   [`TraceKind::BarrierReleased`];
//! * [`TraceKind::FlushAckWait`] — the end-of-interval stall for diff
//!   acks, blamed on the slowest home.
//!
//! # The blame path
//!
//! The *blame path* is a causally ordered, exact partition of
//! `[0, exec_ns]`: starting from the node that finished last, walk
//! backward; each step finds the latest wait span ending at or before
//! the cursor, emits the local segment above it and the wait segment
//! itself, then hops to the *causing* node at the span's start and
//! continues there. Time the causer spent computing in parallel with
//! the wait is charged to the wait (that is the point: the waiter lost
//! that time *to* the cause). Segment durations therefore sum to
//! **exactly** `exec_ns` — [`checked_analysis`] refuses a run where
//! they do not, and `report` and `blame` go through it for every run.
//!
//! Segments on a crashed node that fall inside its recovery window
//! `[crashed_at, recovery_exit]` are split out as `recovery` segments,
//! so log-replay time on the makespan is visible separately.
//!
//! # Log-byte attribution
//!
//! Loggers emit one [`TraceKind::LogAppend`] per coherence object
//! (multi-object records split their framed bytes by encoded size, the
//! frame overhead riding on the first object), and one
//! [`TraceKind::LogFlush`] per stable write. Reconciliation is a FIFO
//! queue per node: a flush pops the appends it persisted; bytes the
//! appends don't explain (e.g. streams that log whole framed batches
//! without itemized appends) fall to `meta`; appends never flushed
//! (crash-dropped, degraded or paused devices) land in the `unflushed`
//! bucket. Flushed attribution sums to **exactly**
//! `total_stats().log_bytes` because both count the same
//! `LogFlush.bytes`.
//!
//! Everything here is a pure function of the trace, and the trace is a
//! pure function of the deterministic virtual-time schedule — so
//! [`blame_json`] is byte-stable across runs: the report goldens pin
//! its hash per run (`blame_fp`), chaos cells included, and `report
//! --blame DIR` writes the documents themselves.

use std::collections::{BTreeMap, VecDeque};

use ccl_core::{LogObj, RunOutput, TraceKind};

use crate::json::Json;

/// Schema tag stamped into every [`blame_json`] document.
pub const SCHEMA: &str = "ccl-blame/v1";

/// How many objects / barrier episodes the JSON keeps (full data stays
/// in [`Blame`]).
pub const TOP_K: usize = 8;

/// The coherence object a cost is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameObj {
    /// A shared page.
    Page(u32),
    /// A lock.
    Lock(u32),
    /// A barrier episode.
    Barrier(u32),
    /// An end-of-interval diff-flush ack wait, keyed by the slowest
    /// home (the node whose ack arrived last).
    Flush(usize),
    /// Protocol metadata: log framing, un-itemized records.
    Meta,
}

impl BlameObj {
    /// Stable machine-readable key, e.g. `page:12`, `lock:3`,
    /// `barrier:7`, `flush:home2`, `meta`.
    pub fn key(&self) -> String {
        match self {
            BlameObj::Page(p) => format!("page:{p}"),
            BlameObj::Lock(l) => format!("lock:{l}"),
            BlameObj::Barrier(e) => format!("barrier:{e}"),
            BlameObj::Flush(h) => format!("flush:home{h}"),
            BlameObj::Meta => "meta".to_string(),
        }
    }

    /// The object's class: `page`, `lock`, `barrier`, `flush` or
    /// `meta`.
    pub fn class(&self) -> &'static str {
        match self {
            BlameObj::Page(_) => "page",
            BlameObj::Lock(_) => "lock",
            BlameObj::Barrier(_) => "barrier",
            BlameObj::Flush(_) => "flush",
            BlameObj::Meta => "meta",
        }
    }
}

/// What one blame-path segment was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local progress (compute, or anything that is not a traced wait).
    Compute,
    /// Local progress inside the node's recovery window (log replay).
    Recovery,
    /// A traced wait, blamed on `obj`; `causer` is the node the walk
    /// hops to (home, lock holder, straggler, slowest home).
    Wait {
        /// The blamed coherence object.
        obj: BlameObj,
        /// The node responsible for the wait.
        causer: usize,
    },
}

/// One segment of the blame path. Half-open `[start_ns, end_ns)` on
/// `node`'s virtual-time axis; consecutive segments abut causally, not
/// necessarily on the same node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Node the segment lies on.
    pub node: usize,
    /// Segment start, virtual ns.
    pub start_ns: u64,
    /// Segment end, virtual ns.
    pub end_ns: u64,
    /// What the node was doing.
    pub kind: SegmentKind,
}

impl Segment {
    /// Segment width in virtual ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregated cost of one coherence object across the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectCost {
    /// Wait ns this object put on the blame path.
    pub cp_wait_ns: u64,
    /// Wait ns across *all* nodes' wait spans (on- and off-path).
    pub total_wait_ns: u64,
    /// Number of wait spans blaming this object.
    pub waits: u64,
    /// Stable log bytes attributed to this object (flushed only).
    pub log_bytes: u64,
    /// Log records (itemized appends) attributed to this object.
    pub log_records: u64,
}

/// One barrier episode's blame row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierRow {
    /// Barrier episode.
    pub epoch: u32,
    /// Last arrival (from the manager's [`TraceKind::BarrierReleased`]).
    pub straggler: usize,
    /// First-to-last arrival spread, virtual ns.
    pub spread_ns: u64,
    /// Wait ns this episode put on the blame path.
    pub cp_wait_ns: u64,
    /// Wait ns across all nodes for this episode.
    pub total_wait_ns: u64,
}

/// One crashed node's recovery window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryWindow {
    /// The crashed node.
    pub node: usize,
    /// Crash instant, virtual ns.
    pub crash_ns: u64,
    /// End of recovery (resumed live), virtual ns.
    pub exit_ns: u64,
    /// Logged episodes replayed inside the window.
    pub replayed: u64,
    /// Blame-path ns inside the window (how much of the makespan the
    /// recovery occupied).
    pub cp_ns: u64,
}

/// The full blame analysis of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blame {
    /// The run's makespan (max node finish), virtual ns.
    pub exec_ns: u64,
    /// The blame path, in causal (forward-time) order. Durations sum
    /// to exactly [`Blame::exec_ns`].
    pub critical_path: Vec<Segment>,
    /// Per-object aggregated cost, keyed by object.
    pub objects: BTreeMap<BlameObj, ObjectCost>,
    /// Per-episode barrier rows, in epoch order.
    pub barriers: Vec<BarrierRow>,
    /// Flushed log bytes per object class (`page`/`lock`/`barrier`/
    /// `meta`). Sums to the run's `total_stats().log_bytes`.
    pub log_by_class: BTreeMap<&'static str, u64>,
    /// Appended-but-never-flushed bytes (crash-dropped, degraded or
    /// paused log devices).
    pub unflushed_bytes: u64,
    /// Recovery windows of crashed nodes, in node order.
    pub recovery: Vec<RecoveryWindow>,
    /// Cluster-wide fetch-hiding effectiveness counters.
    pub prefetch: PrefetchSummary,
}

/// How well the batched prefetch worked: pages pulled in speculatively,
/// how many later served a fault, and how many were invalidated unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchSummary {
    /// Extra pages carried by demand-fetch batches.
    pub issued: u64,
    /// Faults absorbed by a previously prefetched copy.
    pub hits: u64,
    /// Prefetched copies invalidated before any use.
    pub wasted: u64,
}

/// One wait span on a node's timeline, cause resolved.
#[derive(Debug, Clone, Copy)]
struct WaitSpan {
    start: u64,
    end: u64,
    obj: BlameObj,
    causer: usize,
}

impl Blame {
    /// Sum of blame-path segment durations — equal to
    /// [`Blame::exec_ns`] by construction.
    pub fn cp_sum_ns(&self) -> u64 {
        self.critical_path.iter().map(Segment::dur_ns).sum()
    }

    /// Blame-path wait ns per object class.
    pub fn cp_wait_by_class(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for seg in &self.critical_path {
            if let SegmentKind::Wait { obj, .. } = seg.kind {
                *by.entry(obj.class()).or_insert(0) += seg.dur_ns();
            }
        }
        by
    }

    /// Blame-path ns spent in `kind` segments.
    fn cp_kind_ns(&self, want: SegmentKind) -> u64 {
        self.critical_path
            .iter()
            .filter(|s| s.kind == want)
            .map(Segment::dur_ns)
            .sum()
    }

    /// Blame-path compute ns.
    pub fn cp_compute_ns(&self) -> u64 {
        self.cp_kind_ns(SegmentKind::Compute)
    }

    /// Blame-path recovery ns.
    pub fn cp_recovery_ns(&self) -> u64 {
        self.cp_kind_ns(SegmentKind::Recovery)
    }

    /// Total flushed log bytes across all classes.
    pub fn log_total_bytes(&self) -> u64 {
        self.log_by_class.values().sum()
    }

    /// Objects ranked most-blamed first: by blame-path wait, then total
    /// wait, then log bytes, ties broken by key for determinism.
    pub fn ranked_objects(&self) -> Vec<(BlameObj, &ObjectCost)> {
        let mut v: Vec<_> = self.objects.iter().map(|(o, c)| (*o, c)).collect();
        v.sort_by(|(ao, ac), (bo, bc)| {
            (bc.cp_wait_ns, bc.total_wait_ns, bc.log_bytes)
                .cmp(&(ac.cp_wait_ns, ac.total_wait_ns, ac.log_bytes))
                .then_with(|| ao.cmp(bo))
        });
        v
    }

    /// The single most-blamed object, if any cost was attributed.
    pub fn top_object(&self) -> Option<BlameObj> {
        self.ranked_objects()
            .into_iter()
            .find(|(_, c)| c.cp_wait_ns > 0 || c.total_wait_ns > 0 || c.log_bytes > 0)
            .map(|(o, _)| o)
    }
}

/// Join tables built from manager-side trace events.
#[derive(Default)]
struct Joins {
    /// `(lock, grantee)` → holders, in grant order.
    grants: BTreeMap<(u32, usize), Vec<usize>>,
    /// Barrier epoch → (straggler, spread_ns). A re-released epoch
    /// (manager crashed and the episode re-ran) keeps the last release.
    stragglers: BTreeMap<u32, (usize, u64)>,
}

impl Joins {
    /// The cluster's tables from each node's, in node order: grants to
    /// one grantee keep node-then-trace order, and the last release of
    /// an epoch in that order wins.
    fn merge(per_node: impl Iterator<Item = Joins>) -> Joins {
        let mut all = Joins::default();
        for node in per_node {
            for (key, holders) in node.grants {
                all.grants.entry(key).or_default().extend(holders);
            }
            all.stragglers.extend(node.stragglers);
        }
        all
    }
}

/// The object a log record is blamed on.
impl From<LogObj> for BlameObj {
    fn from(obj: LogObj) -> BlameObj {
        match obj {
            LogObj::Page { page } => BlameObj::Page(page),
            LogObj::Lock { lock } => BlameObj::Lock(lock),
            LogObj::Barrier { epoch } => BlameObj::Barrier(epoch),
            LogObj::Meta => BlameObj::Meta,
        }
    }
}

/// A wait span's causer as another node's trace names it: the holder
/// of the `k`th grant of `lock` to this node, or an epoch's straggler.
/// Known once every trace is scanned ([`NodeScan::resolve`]).
enum Cause {
    Lock { lock: u32, k: usize },
    Barrier(u32),
}

/// Per-node scan results: wait spans (end-sorted once resolved), log
/// attribution, and the manager-side records the joins are built from.
struct NodeScan {
    spans: Vec<WaitSpan>,
    /// Spans whose causer the joins name, by index into `spans`.
    unresolved: Vec<(usize, Cause)>,
    /// The grants and barrier releases this node's trace records.
    joins: Joins,
    /// Flushed bytes and record counts per object.
    flushed: BTreeMap<BlameObj, (u64, u64)>,
    unflushed_bytes: u64,
    replayed: u64,
}

impl NodeScan {
    /// Name the causer of every span node `me` could not name alone,
    /// from the cluster's `joins` (a grant or release nobody recorded
    /// blames `me`), then order the spans by end.
    fn resolve(&mut self, me: usize, joins: &Joins) {
        for (i, cause) in self.unresolved.drain(..) {
            self.spans[i].causer = match cause {
                Cause::Lock { lock, k } => joins.grants.get(&(lock, me)).and_then(|g| g.get(k)),
                Cause::Barrier(epoch) => joins.stragglers.get(&epoch).map(|(s, _)| s),
            }
            .copied()
            .unwrap_or(me);
        }
        self.spans.retain(|s| s.end > s.start);
        self.spans.sort_by_key(|s| (s.end, s.start));
    }
}

/// One pass over node `n`'s trace, which decodes each packed event once.
fn scan_node<R>(n: &ccl_core::NodeOutput<R>) -> NodeScan {
    let me = n.node;
    let mut spans = Vec::new();
    let mut unresolved = Vec::new();
    let mut joins = Joins::default();
    let mut lock_seen: BTreeMap<u32, usize> = BTreeMap::new();
    let mut barrier_enter: BTreeMap<u32, u64> = BTreeMap::new();
    let mut pending: VecDeque<(u64, BlameObj)> = VecDeque::new();
    let mut flushed: BTreeMap<BlameObj, (u64, u64)> = BTreeMap::new();
    let mut unflushed = 0u64;
    let mut replayed = 0u64;
    for ev in &n.trace {
        let at = ev.at.as_nanos();
        match ev.kind {
            TraceKind::PageFetch {
                page,
                from,
                wait_ns,
            } if wait_ns > 0 => {
                spans.push(WaitSpan {
                    start: at.saturating_sub(wait_ns),
                    end: at,
                    obj: BlameObj::Page(page),
                    causer: from,
                });
            }
            TraceKind::LockAcquire { lock, wait_ns } => {
                let seen = lock_seen.entry(lock).or_insert(0);
                let k = *seen;
                *seen += 1;
                if wait_ns > 0 {
                    unresolved.push((spans.len(), Cause::Lock { lock, k }));
                    spans.push(WaitSpan {
                        start: at.saturating_sub(wait_ns),
                        end: at,
                        obj: BlameObj::Lock(lock),
                        causer: me,
                    });
                }
            }
            TraceKind::LockGranted { lock, to, holder } => {
                joins.grants.entry((lock, to)).or_default().push(holder);
            }
            TraceKind::BarrierReleased {
                epoch,
                straggler,
                spread_ns,
            } => {
                joins.stragglers.insert(epoch, (straggler, spread_ns));
            }
            TraceKind::FlushAckWait { home, wait_ns } if wait_ns > 0 => {
                spans.push(WaitSpan {
                    start: at.saturating_sub(wait_ns),
                    end: at,
                    obj: BlameObj::Flush(home),
                    causer: home,
                });
            }
            TraceKind::BarrierEnter { epoch } => {
                barrier_enter.insert(epoch, at);
            }
            TraceKind::BarrierExit { epoch } => {
                if let Some(enter) = barrier_enter.remove(&epoch) {
                    if at > enter {
                        unresolved.push((spans.len(), Cause::Barrier(epoch)));
                        spans.push(WaitSpan {
                            start: enter,
                            end: at,
                            obj: BlameObj::Barrier(epoch),
                            causer: me,
                        });
                    }
                }
            }
            TraceKind::LogAppend { bytes, obj } => {
                pending.push_back((bytes, obj.into()));
            }
            TraceKind::LogFlush { bytes, .. } => {
                // Pop the appends this flush persisted (FIFO — staged
                // bytes reset per flush, so the front of the queue is
                // exactly what went out). Residual bytes the appends
                // don't explain are framing or un-itemized records.
                let mut left = bytes;
                while let Some(&(b, obj)) = pending.front() {
                    if b > left {
                        break;
                    }
                    pending.pop_front();
                    left -= b;
                    let e = flushed.entry(obj).or_insert((0, 0));
                    e.0 += b;
                    e.1 += 1;
                }
                if left > 0 {
                    flushed.entry(BlameObj::Meta).or_insert((0, 0)).0 += left;
                }
            }
            TraceKind::Crash => {
                // Volatile staged records died with the node.
                unflushed += pending.drain(..).map(|(b, _)| b).sum::<u64>();
                barrier_enter.clear();
            }
            TraceKind::RecoveryReplay { .. } => replayed += 1,
            _ => {}
        }
    }
    unflushed += pending.drain(..).map(|(b, _)| b).sum::<u64>();
    NodeScan {
        spans,
        unresolved,
        joins,
        flushed,
        unflushed_bytes: unflushed,
        replayed,
    }
}

/// Split a local segment by the node's recovery window and push the
/// pieces (in backward order, matching the walk).
fn push_local(
    path: &mut Vec<Segment>,
    node: usize,
    start: u64,
    end: u64,
    window: Option<(u64, u64)>,
) {
    if end <= start {
        return;
    }
    // Backward order: the piece nearest `end` first.
    let mut cuts = vec![(start, end, SegmentKind::Compute)];
    if let Some((w0, w1)) = window {
        let (w0, w1) = (w0.max(start), w1.min(end));
        if w1 > w0 {
            cuts = Vec::new();
            if end > w1 {
                cuts.push((w1, end, SegmentKind::Compute));
            }
            cuts.push((w0, w1, SegmentKind::Recovery));
            if w0 > start {
                cuts.push((start, w0, SegmentKind::Compute));
            }
        }
    }
    for (s, e, kind) in cuts {
        path.push(Segment {
            node,
            start_ns: s,
            end_ns: e,
            kind,
        });
    }
}

/// Analyze one run: reconstruct wait spans, walk the blame path,
/// attribute log bytes. Pure function of the (deterministic) trace.
pub fn analyze<R>(run: &RunOutput<R>) -> Blame {
    let mut scans: Vec<NodeScan> = run.nodes.iter().map(scan_node).collect();
    let joins = Joins::merge(scans.iter_mut().map(|s| std::mem::take(&mut s.joins)));
    for (n, scan) in run.nodes.iter().zip(&mut scans) {
        scan.resolve(n.node, &joins);
    }
    let windows: Vec<Option<(u64, u64)>> = run
        .nodes
        .iter()
        .map(|n| match (n.crashed_at, n.recovery_exit) {
            (Some(c), Some(x)) => Some((c.as_nanos(), x.as_nanos())),
            _ => None,
        })
        .collect();

    // Start at the last finisher (smallest id on ties — node order).
    let exec_ns = run.exec_time().as_nanos();
    let mut cur = 0usize;
    for (i, n) in run.nodes.iter().enumerate() {
        if n.finish.as_nanos() > run.nodes[cur].finish.as_nanos() {
            cur = i;
        }
    }

    let mut consumed: Vec<Vec<bool>> = scans.iter().map(|s| vec![false; s.spans.len()]).collect();
    let mut path: Vec<Segment> = Vec::new();
    let mut t = exec_ns;
    let total_spans: usize = scans.iter().map(|s| s.spans.len()).sum();
    for _guard in 0..=total_spans {
        // Latest span on `cur` ending at or before the cursor.
        let spans = &scans[cur].spans;
        let idx = spans.partition_point(|s| s.end <= t);
        if idx == 0 {
            break;
        }
        let s = spans[idx - 1];
        consumed[cur][idx - 1] = true;
        push_local(&mut path, cur, s.end, t, windows[cur]);
        path.push(Segment {
            node: cur,
            start_ns: s.start,
            end_ns: s.end,
            kind: SegmentKind::Wait {
                obj: s.obj,
                causer: s.causer,
            },
        });
        t = s.start;
        cur = s.causer;
    }
    push_local(&mut path, cur, 0, t, windows[cur]);
    path.reverse();

    // Aggregate objects: wait spans (on/off path) and log bytes.
    let mut objects: BTreeMap<BlameObj, ObjectCost> = BTreeMap::new();
    let mut barrier_total: BTreeMap<u32, u64> = BTreeMap::new();
    for (scan, used) in scans.iter().zip(&consumed) {
        for (s, &on_path) in scan.spans.iter().zip(used) {
            let c = objects.entry(s.obj).or_default();
            let dur = s.end - s.start;
            c.total_wait_ns += dur;
            c.waits += 1;
            if on_path {
                c.cp_wait_ns += dur;
            }
            if let BlameObj::Barrier(e) = s.obj {
                *barrier_total.entry(e).or_insert(0) += dur;
            }
        }
        for (obj, &(bytes, recs)) in &scan.flushed {
            let c = objects.entry(*obj).or_default();
            c.log_bytes += bytes;
            c.log_records += recs;
        }
    }

    let mut log_by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (obj, cost) in &objects {
        if cost.log_bytes > 0 {
            *log_by_class.entry(obj.class()).or_insert(0) += cost.log_bytes;
        }
    }

    let barriers = joins
        .stragglers
        .iter()
        .map(|(&epoch, &(straggler, spread_ns))| BarrierRow {
            epoch,
            straggler,
            spread_ns,
            cp_wait_ns: objects
                .get(&BlameObj::Barrier(epoch))
                .map(|c| c.cp_wait_ns)
                .unwrap_or(0),
            total_wait_ns: barrier_total.get(&epoch).copied().unwrap_or(0),
        })
        .collect();

    let recovery = run
        .nodes
        .iter()
        .zip(&windows)
        .zip(&scans)
        .filter_map(|((n, w), scan)| {
            w.map(|(c, x)| RecoveryWindow {
                node: n.node,
                crash_ns: c,
                exit_ns: x,
                replayed: scan.replayed,
                cp_ns: path
                    .iter()
                    .filter(|s| s.node == n.node && s.kind == SegmentKind::Recovery)
                    .map(Segment::dur_ns)
                    .sum(),
            })
        })
        .collect();

    Blame {
        exec_ns,
        critical_path: path,
        objects,
        barriers,
        log_by_class,
        unflushed_bytes: scans.iter().map(|s| s.unflushed_bytes).sum(),
        recovery,
        prefetch: {
            let ts = run.total_stats();
            PrefetchSummary {
                issued: ts.prefetch_issued,
                hits: ts.prefetch_hits,
                wasted: ts.prefetch_wasted,
            }
        },
    }
}

/// [`analyze`] `run`, hard-checking what makes the analysis worth
/// reading: the trace is complete (a truncated trace silently falsifies
/// every trace-derived number), the blame path partitions `[0, exec_ns]`
/// exactly, and the per-object log attribution sums to the bytes the
/// run flushed. A violation means the attribution lies.
pub fn checked_analysis<R>(label: &str, run: &RunOutput<R>) -> Result<Blame, String> {
    let dropped: u64 = run.nodes.iter().map(|n| n.trace_dropped).sum();
    if dropped > 0 {
        return Err(format!(
            "{label}: {dropped} trace event(s) dropped by the bounded sinks — trace \
             fingerprints and blame need the full trace; size the workload or the \
             trace bound so nothing drops"
        ));
    }
    let blame = analyze(run);
    if blame.cp_sum_ns() != blame.exec_ns {
        return Err(format!(
            "{label}: blame path sums to {} ns but the run took {} ns",
            blame.cp_sum_ns(),
            blame.exec_ns
        ));
    }
    let logged = run.total_stats().log_bytes;
    if blame.log_total_bytes() != logged {
        return Err(format!(
            "{label}: attributed {} log bytes but the run flushed {logged}",
            blame.log_total_bytes(),
        ));
    }
    Ok(blame)
}

/// Render one blame analysis as a deterministic JSON document.
pub fn blame_json(blame: &Blame, label: &str) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(SCHEMA.to_string()));
    doc.set("label", Json::Str(label.to_string()));
    doc.set("exec_ns", Json::from_u64(blame.exec_ns));

    let mut cp = Json::obj();
    cp.set("segments", Json::from_u64(blame.critical_path.len() as u64));
    cp.set("sum_ns", Json::from_u64(blame.cp_sum_ns()));
    cp.set("compute_ns", Json::from_u64(blame.cp_compute_ns()));
    cp.set("recovery_ns", Json::from_u64(blame.cp_recovery_ns()));
    let by_class = blame.cp_wait_by_class();
    let mut waits = Json::obj();
    for class in ["page", "lock", "barrier", "flush"] {
        waits.set(
            class,
            Json::from_u64(by_class.get(class).copied().unwrap_or(0)),
        );
    }
    cp.set("wait_ns_by_class", waits);
    let mut segs = Vec::new();
    for s in &blame.critical_path {
        let mut j = Json::obj();
        j.set("node", Json::from_u64(s.node as u64));
        j.set("start_ns", Json::from_u64(s.start_ns));
        j.set("end_ns", Json::from_u64(s.end_ns));
        match s.kind {
            SegmentKind::Compute => {
                j.set("kind", Json::Str("compute".into()));
            }
            SegmentKind::Recovery => {
                j.set("kind", Json::Str("recovery".into()));
            }
            SegmentKind::Wait { obj, causer } => {
                j.set("kind", Json::Str("wait".into()));
                j.set("object", Json::Str(obj.key()));
                j.set("causer", Json::from_u64(causer as u64));
            }
        }
        segs.push(j);
    }
    cp.set("path", Json::Arr(segs));
    doc.set("critical_path", cp);

    let mut tops = Vec::new();
    for (obj, cost) in blame.ranked_objects().into_iter().take(TOP_K) {
        if cost.cp_wait_ns == 0 && cost.total_wait_ns == 0 && cost.log_bytes == 0 {
            continue;
        }
        let mut j = Json::obj();
        j.set("object", Json::Str(obj.key()));
        j.set("class", Json::Str(obj.class().to_string()));
        j.set("cp_wait_ns", Json::from_u64(cost.cp_wait_ns));
        j.set("total_wait_ns", Json::from_u64(cost.total_wait_ns));
        j.set("waits", Json::from_u64(cost.waits));
        j.set("log_bytes", Json::from_u64(cost.log_bytes));
        j.set("log_records", Json::from_u64(cost.log_records));
        tops.push(j);
    }
    doc.set("objects", Json::Arr(tops));

    let mut rows: Vec<&BarrierRow> = blame.barriers.iter().collect();
    rows.sort_by(|a, b| {
        (b.total_wait_ns, b.spread_ns)
            .cmp(&(a.total_wait_ns, a.spread_ns))
            .then_with(|| a.epoch.cmp(&b.epoch))
    });
    let mut btab = Vec::new();
    for r in rows.into_iter().take(TOP_K) {
        let mut j = Json::obj();
        j.set("epoch", Json::from_u64(r.epoch as u64));
        j.set("straggler", Json::from_u64(r.straggler as u64));
        j.set("spread_ns", Json::from_u64(r.spread_ns));
        j.set("cp_wait_ns", Json::from_u64(r.cp_wait_ns));
        j.set("total_wait_ns", Json::from_u64(r.total_wait_ns));
        btab.push(j);
    }
    let mut barriers = Json::obj();
    barriers.set("episodes", Json::from_u64(blame.barriers.len() as u64));
    barriers.set("stragglers", Json::Arr(btab));
    doc.set("barriers", barriers);

    let mut log = Json::obj();
    for class in ["page", "lock", "barrier", "meta"] {
        log.set(
            class,
            Json::from_u64(blame.log_by_class.get(class).copied().unwrap_or(0)),
        );
    }
    log.set("flushed_total", Json::from_u64(blame.log_total_bytes()));
    log.set("unflushed", Json::from_u64(blame.unflushed_bytes));
    doc.set("log_bytes", log);

    let mut pf = Json::obj();
    pf.set("issued", Json::from_u64(blame.prefetch.issued));
    pf.set("hits", Json::from_u64(blame.prefetch.hits));
    pf.set("wasted", Json::from_u64(blame.prefetch.wasted));
    doc.set("prefetch", pf);

    let mut rec = Vec::new();
    for w in &blame.recovery {
        let mut j = Json::obj();
        j.set("node", Json::from_u64(w.node as u64));
        j.set("crash_ns", Json::from_u64(w.crash_ns));
        j.set("exit_ns", Json::from_u64(w.exit_ns));
        j.set("window_ns", Json::from_u64(w.exit_ns - w.crash_ns));
        j.set("replayed", Json::from_u64(w.replayed));
        j.set("cp_ns", Json::from_u64(w.cp_ns));
        rec.push(j);
    }
    doc.set("recovery", Json::Arr(rec));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use ccl_core::{run_program, ClusterSpec, CrashPlan, Protocol};

    fn run(protocol: Protocol) -> RunOutput<u64> {
        let spec = ClusterSpec::new(4, 16)
            .with_page_size(256)
            .with_protocol(protocol);
        run_program(spec, |dsm| {
            let arr = dsm.alloc::<u64>(64);
            for round in 0..4 {
                dsm.acquire(1);
                let v = dsm.read(&arr, 0);
                dsm.write(&arr, 0, v + 1);
                dsm.release(1);
                let me = dsm.me();
                let v = dsm.read(&arr, 8 + me);
                dsm.write(&arr, 8 + me, v + round as u64);
                dsm.barrier();
            }
            dsm.read(&arr, 0)
        })
    }

    #[test]
    fn path_partitions_the_makespan_exactly() {
        for protocol in [Protocol::None, Protocol::Ml, Protocol::Ccl] {
            let out = run(protocol);
            let blame = analyze(&out);
            assert_eq!(
                blame.cp_sum_ns(),
                blame.exec_ns,
                "{protocol:?}: blame path must partition [0, exec_ns]"
            );
            assert_eq!(blame.exec_ns, out.exec_time().as_nanos());
            // Segments are causally ordered: start < end, and each
            // segment's end meets the next segment's start in time.
            for w in blame.critical_path.windows(2) {
                assert!(w[0].end_ns == w[1].start_ns, "path must be gapless");
            }
            for s in &blame.critical_path {
                assert!(s.start_ns < s.end_ns, "no zero-width segments");
            }
        }
    }

    #[test]
    fn log_attribution_sums_to_total_log_bytes() {
        for protocol in [Protocol::None, Protocol::Ml, Protocol::Ccl] {
            let out = run(protocol);
            let blame = analyze(&out);
            assert_eq!(
                blame.log_total_bytes(),
                out.total_stats().log_bytes,
                "{protocol:?}: flushed attribution must equal logged bytes"
            );
        }
        assert_eq!(analyze(&run(Protocol::None)).log_total_bytes(), 0);
    }

    #[test]
    fn contended_lock_is_blamed_with_a_real_holder() {
        let out = run(Protocol::Ccl);
        let blame = analyze(&out);
        let lock = blame
            .objects
            .get(&BlameObj::Lock(1))
            .expect("four nodes fighting over lock 1 must surface it");
        assert!(lock.total_wait_ns > 0, "contention means waiting");
        // At least one lock wait on the path must blame a *different*
        // node (the previous holder), proving the manager-side join.
        let cross = blame.critical_path.iter().any(|s| {
            matches!(
                s.kind,
                SegmentKind::Wait {
                    obj: BlameObj::Lock(1),
                    causer,
                } if causer != s.node
            )
        });
        let off_path = out.nodes.iter().any(|n| {
            n.trace.iter().any(
                |ev| matches!(ev.kind, TraceKind::LockGranted { holder, to, .. } if holder != to),
            )
        });
        assert!(
            cross || !off_path,
            "a contended grant must blame the previous holder"
        );
    }

    #[test]
    fn barrier_rows_name_stragglers_and_json_is_deterministic() {
        let out1 = run(Protocol::Ml);
        let out2 = run(Protocol::Ml);
        let b1 = analyze(&out1);
        let b2 = analyze(&out2);
        assert!(!b1.barriers.is_empty(), "the program barriers every round");
        for row in &b1.barriers {
            assert!(row.straggler < out1.nodes.len());
        }
        let j1 = blame_json(&b1, "tiny/ml").pretty();
        let j2 = blame_json(&b2, "tiny/ml").pretty();
        assert_eq!(j1, j2, "blame_json must be byte-identical across runs");
        let doc = json::parse(&j1).expect("blame_json parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            doc.get("critical_path")
                .unwrap()
                .get("sum_ns")
                .unwrap()
                .as_f64(),
            doc.get("exec_ns").unwrap().as_f64()
        );
    }

    #[test]
    fn crash_runs_carry_recovery_windows_on_the_path() {
        let spec = ClusterSpec::new(4, 16)
            .with_page_size(256)
            .with_protocol(Protocol::Ccl)
            .with_crash(CrashPlan::new(1, 2));
        let out = run_program(spec, |dsm| {
            let arr = dsm.alloc::<u64>(64);
            for _ in 0..6 {
                let me = dsm.me();
                let v = dsm.read(&arr, me);
                dsm.write(&arr, me, v + 1);
                dsm.barrier();
            }
            dsm.read(&arr, 0)
        });
        let blame = analyze(&out);
        assert_eq!(blame.cp_sum_ns(), blame.exec_ns);
        assert_eq!(blame.recovery.len(), 1, "one node crashed");
        let w = &blame.recovery[0];
        assert_eq!(w.node, 1);
        assert!(w.exit_ns > w.crash_ns);
        assert_eq!(
            blame.log_total_bytes(),
            out.total_stats().log_bytes,
            "attribution stays exact across a crash"
        );
    }

    /// What makes `report` and `blame` exit 1: a run whose sinks
    /// dropped events is refused before any number is derived from it.
    #[test]
    fn checked_analysis_refuses_a_truncated_trace() {
        let mut out = run(Protocol::Ccl);
        assert_eq!(checked_analysis("tiny/ccl", &out), Ok(analyze(&out)));
        out.nodes[2].trace_dropped = 3;
        let err = checked_analysis("tiny/ccl", &out).unwrap_err();
        assert!(
            err.starts_with("tiny/ccl: 3 trace event(s) dropped"),
            "{err}"
        );
    }

    #[test]
    fn wait_spans_never_leave_the_run_window() {
        let out = run(Protocol::Ccl);
        let blame = analyze(&out);
        for s in &blame.critical_path {
            assert!(s.end_ns <= blame.exec_ns);
        }
        assert_eq!(blame.critical_path.first().map(|s| s.start_ns), Some(0));
        assert_eq!(
            blame.critical_path.last().map(|s| s.end_ns),
            Some(blame.exec_ns)
        );
    }
}
