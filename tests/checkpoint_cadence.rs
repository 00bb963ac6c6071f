//! Cadence-driven coordinated checkpointing: `ClusterSpec`'s
//! `checkpoint_every_barriers` knob must keep the on-disk log bounded,
//! survive crashes (including a torn mid-flush tail) by restarting from
//! the latest cadence cut, and turn the deterministic `LogDeviceFull`
//! condition into a graceful pause that the next checkpoint's log
//! truncation un-wedges.

use std::borrow::Cow;

use ccl_core::{
    run_program, ClusterSpec, CrashPlan, DiskFaultPlan, Dsm, Protocol, RunOutput, TraceKind,
};

const NODES: u64 = 3;
const STRIPE: u64 = 16;
const ROUNDS: u64 = 24;

fn spec(protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(NODES as usize, 24)
        .with_page_size(256)
        .with_protocol(protocol)
}

/// An iterative kernel sized so every round writes a full stripe and
/// reads across stripes (coherence traffic → log growth every round).
/// It publishes its restart point before every barrier, so a cadence
/// checkpoint taken at any barrier resumes at the right round.
fn program(dsm: &mut Dsm) -> u64 {
    let a = dsm.alloc_blocked::<u64>((NODES * STRIPE) as usize);
    let me = dsm.me() as u64;
    let start = match dsm.restored_state() {
        Some(blob) => u64::from_le_bytes(blob.try_into().expect("8-byte blob")),
        None => 0,
    };
    for round in start..ROUNDS {
        for i in 0..STRIPE {
            let idx = (me * STRIPE + i) as usize;
            let v = dsm.read(&a, idx);
            dsm.write(&a, idx, v + 1);
        }
        // Cross-stripe read forces coherence traffic (and CCL records).
        let _ = dsm.read(&a, (((me + 1) % NODES) * STRIPE) as usize);
        dsm.set_checkpoint_state(&(round + 1).to_le_bytes());
        dsm.barrier();
    }
    (0..(NODES * STRIPE) as usize)
        .map(|i| dsm.read(&a, i))
        .sum()
}

fn expected() -> u64 {
    NODES * STRIPE * ROUNDS
}

fn assert_correct(label: &str, out: &RunOutput<u64>) {
    assert!(
        out.nodes.iter().all(|n| n.result == expected()),
        "{label}: results {:?}, expected {}",
        out.nodes.iter().map(|n| n.result).collect::<Vec<_>>(),
        expected()
    );
}

/// The headline property: with a cadence, every checkpoint truncates the
/// ML/CCL log, so the bytes resident on disk at the end of the run stay
/// a small fraction of the full (never-truncated) log.
#[test]
fn cadence_bounds_resident_log_bytes() {
    for p in [Protocol::Ml, Protocol::Ccl] {
        let unbounded = run_program(spec(p), program);
        let bounded = run_program(spec(p).with_checkpoint_cadence(5), program);
        assert_correct("unbounded", &unbounded);
        assert_correct("bounded", &bounded);
        let full: u64 = unbounded.nodes.iter().map(|n| n.log_bytes_on_disk).sum();
        let resident: u64 = bounded.nodes.iter().map(|n| n.log_bytes_on_disk).sum();
        // Cadence 5 over 24 barriers: only the post-barrier-20 suffix is
        // still resident — well under half of the full log.
        assert!(
            resident * 2 < full,
            "{p:?}: cadence left {resident} bytes resident vs {full} untruncated"
        );
        assert!(full > 0, "{p:?}: workload generated no log traffic");
    }
}

/// Crashing after a cadence cut restarts from the checkpoint blob and
/// replays only the post-checkpoint log — even when the crash lands
/// mid-flush and tears the final record batch (after barrier 17), and
/// when it lands on a cadence barrier itself (15, 20): every node, the
/// victim included, takes that barrier's checkpoint before the crash
/// fires, so the victim restarts from the same cut as its survivors.
/// (There the log was just cut, so the tear finds no batch to damage:
/// those crashes are plain ones, and a torn one is refused, see
/// [`a_torn_crash_on_a_cadence_barrier_is_refused`].)
#[test]
fn cadence_checkpoint_survives_torn_crash() {
    for p in [Protocol::Ml, Protocol::Ccl] {
        for crash in [15, 17, 20] {
            let plan = CrashPlan::new(1, crash);
            let torn = !crash.is_multiple_of(5);
            let plan = if torn {
                plan.with_torn_tail(0xCAD_E17)
            } else {
                plan
            };
            let out = run_program(spec(p).with_checkpoint_cadence(5).with_crash(plan), program);
            let kind = if torn { "torn" } else { "plain" };
            let label = format!("{p:?}: cadence 5, {kind} crash after barrier {crash}");
            assert_correct(&label, &out);
            assert_eq!(
                out.nodes[1].disk.torn_records > 0,
                torn,
                "{label}: torn records {}",
                out.nodes[1].disk.torn_records
            );
            assert!(
                out.recovery_time().is_some(),
                "{label}: no recovery happened"
            );
            // The restart fast-forwarded: node 1 re-executed from the
            // last cut at or before its crash, not from round 0.
            let replayed = out.nodes[1]
                .trace
                .iter()
                .any(|ev| matches!(ev.kind, TraceKind::RecoveryBegin));
            assert!(replayed, "{label}: node 1 never entered recovery");
        }
    }
}

/// A torn tail on a cadence barrier would tear nothing — the checkpoint
/// taken there just cut the log — so the run refuses it up front rather
/// than run a clean crash that claims to be a torn one.
#[test]
#[should_panic(expected = "checkpoint cadence 5 cuts at that very barrier")]
fn a_torn_crash_on_a_cadence_barrier_is_refused() {
    let plan = CrashPlan::new(1, 15).with_garbled_tail(0xCAD_E17);
    run_program(
        spec(Protocol::Ccl)
            .with_checkpoint_cadence(5)
            .with_crash(plan),
        program,
    );
}

/// A crash plan the run can never reach fails the run and names the
/// plan, instead of quietly running crash-free: a node outside the
/// cluster, barrier 0 (the count starts at 1), a barrier past the
/// program's last, and the runner's implicit final barrier (barrier
/// `ROUNDS + 1`), which fires no crash.
#[test]
#[should_panic(expected = "never fired")]
fn a_crash_on_a_node_outside_the_cluster_is_refused() {
    run_program(
        spec(Protocol::Ccl).with_crash(CrashPlan::new(7, 3)),
        program,
    );
}

/// See [`a_crash_on_a_node_outside_the_cluster_is_refused`].
#[test]
#[should_panic(expected = "never fired")]
fn a_crash_after_barrier_zero_is_refused() {
    run_program(
        spec(Protocol::Ccl).with_crash(CrashPlan::new(1, 0)),
        program,
    );
}

/// See [`a_crash_on_a_node_outside_the_cluster_is_refused`].
#[test]
#[should_panic(expected = "never fired")]
fn a_crash_past_the_programs_last_barrier_is_refused() {
    run_program(
        spec(Protocol::Ccl).with_crash(CrashPlan::new(1, ROUNDS + 9)),
        program,
    );
}

/// See [`a_crash_on_a_node_outside_the_cluster_is_refused`].
#[test]
#[should_panic(expected = "never fired")]
fn a_crash_on_the_runners_final_barrier_is_refused() {
    run_program(
        spec(Protocol::Ccl).with_crash(CrashPlan::new(1, ROUNDS + 1)),
        program,
    );
}

/// A disk fault planned for a node the cluster does not have is refused
/// before the run starts.
#[test]
#[should_panic(expected = "is planned for node 7 of a 3-node cluster")]
fn a_disk_fault_on_a_node_outside_the_cluster_is_refused() {
    run_program(
        spec(Protocol::Ccl).with_disk_fault(7, DiskFaultPlan::permanent_at(1)),
        program,
    );
}

/// A capacity-bounded log device fills mid-run: logging pauses (traced
/// as `LogDeviceFull`, never an error) and the application still
/// finishes with the right answer. With a cadence, the next checkpoint's
/// truncation frees the space and logging resumes — the run ends with
/// live bytes back on disk.
#[test]
fn log_device_full_pauses_then_cadence_resumes() {
    let p = Protocol::Ml; // the by-far largest log; fills a real capacity
    let baseline = run_program(spec(p), program);
    assert_correct("baseline", &baseline);
    let peak = baseline
        .nodes
        .iter()
        .map(|n| n.log_bytes_on_disk)
        .max()
        .unwrap();
    assert!(peak > 0);
    let cap = peak / 2;
    let full_trace = |out: &RunOutput<u64>| {
        out.nodes[1]
            .trace
            .iter()
            .any(|ev| matches!(ev.kind, TraceKind::LogDeviceFull))
    };

    // Without a cadence the device wedges at the cap and stays paused:
    // a graceful degradation, not a failure.
    let wedged = run_program(
        spec(p).with_disk_fault(1, DiskFaultPlan::none().with_capacity(cap)),
        program,
    );
    assert_correct("wedged", &wedged);
    assert!(full_trace(&wedged), "capacity bound never hit");
    assert!(
        wedged.nodes[1].log_bytes_on_disk <= cap,
        "paused device kept writing past its capacity"
    );

    // With a long cadence the device still fills mid-interval, but the
    // barrier-16 checkpoint truncates the log, clears the pause, and
    // the remaining rounds log normally.
    let resumed = run_program(
        spec(p)
            .with_checkpoint_cadence(16)
            .with_disk_fault(1, DiskFaultPlan::none().with_capacity(cap)),
        program,
    );
    assert_correct("resumed", &resumed);
    assert!(full_trace(&resumed), "cadence run never hit the capacity");
    assert!(
        resumed.nodes[1].log_bytes_on_disk > 0,
        "logging never resumed after the cadence truncation"
    );
}

/// A home whose log device stopped before its crash — filled under a
/// cadence, or failed — still recovers to the exact result under CCL:
/// every home applies diffs its log never recorded while it was
/// stopped, and each is still in its writer's log, where the
/// home-repair wave refetches it. ML does not hold this (DESIGN.md §13):
/// its home acks a flush it could not log, the writer drops the diffs,
/// and after the crash the update is in no log, so the restart fails
/// ([`a_stopped_ml_log_fails_loudly_and_never_wrong`]). Two of the full-device
/// crashes land on a cadence barrier (16 and 10): the checkpoint is on
/// the device, whatever its bound, before the log it replaces is cut.
#[test]
fn ccl_recovers_exactly_at_a_home_whose_log_device_stopped() {
    let p = Protocol::Ccl;
    let peak = (run_program(spec(p), program).nodes.iter())
        .map(|n| n.log_bytes_on_disk)
        .max()
        .unwrap();
    let full = |div| DiskFaultPlan::none().with_capacity(peak / div);
    let cells = [
        (8, full(2), 12),
        (8, full(4), 19),
        (5, full(3), 13),
        (8, full(3), 16),
        (5, full(2), 10),
        (0, DiskFaultPlan::permanent_at(2), 12),
        (0, DiskFaultPlan::permanent_at(5), 18),
    ];
    for (cadence, plan, crash) in cells {
        let mut cell = spec(p)
            .with_disk_fault(1, plan)
            .with_crash(CrashPlan::new(1, crash));
        if cadence > 0 {
            cell = cell.with_checkpoint_cadence(cadence);
        }
        let label = format!("{plan:?}, cadence {cadence}, crash after barrier {crash}");
        let out = run_program(cell, program);
        assert_correct(&label, &out);
        let at =
            |stop: fn(&TraceKind) -> bool| out.nodes[1].trace.iter().position(|ev| stop(&ev.kind));
        let stopped = at(|k| matches!(k, TraceKind::LogDeviceFull | TraceKind::LogDeviceFailed));
        let crashed = at(|k| matches!(k, TraceKind::RecoveryBegin));
        assert!(
            matches!((stopped, crashed), (Some(s), Some(c)) if s < c),
            "{label}: the log did not stop before the crash"
        );
    }
}

/// A copy cached *before* a cadence checkpoint and re-touched after it
/// comes back after a crash. Node 1 fetches page P (homed at node 0) in
/// round 1, writes a word of its own into it, and from then on only
/// re-reads it: no notice names P to node 1 again before the
/// checkpoint, so no replayed sync restores it — the first replayed
/// read faults, and the home must still have the page as it stood at
/// the checkpoint. It does: the
/// checkpoint truncated the served images (the newest one predates node
/// 1's own diff), and the checkpoint base answers at position 0.
///
/// ML's logged reply for P went with the log the checkpoint truncated,
/// so ML drops the copy at the cut: the round-4 read refetches, that
/// reply is logged, and the replay finds it. Each protocol against its
/// own fault-free run.
#[test]
fn a_copy_cached_before_a_checkpoint_is_restored_after_a_crash() {
    const ROUNDS: u64 = 8;
    let program = |dsm: &mut Dsm| -> u64 {
        let p = dsm.alloc_at::<u64>(dsm.page_size() / 8, 0);
        let (start, mut sum) = match dsm.restored_state() {
            Some(blob) => (
                u64::from_le_bytes(blob[..8].try_into().unwrap()),
                u64::from_le_bytes(blob[8..].try_into().unwrap()),
            ),
            None => (0, 0),
        };
        for round in start..ROUNDS {
            match (round, dsm.me()) {
                // Nodes 1 and 2 both write P, homed at node 0.
                (0, 0) => dsm.write(&p, 0, 7),
                (0, 2) => dsm.write(&p, 2, 5),
                // After the checkpoint the home moves on: while node 1
                // replays rounds 4 and 5, the live frame already says 8.
                (5, 0) => dsm.write(&p, 0, 8),
                (1, 1) => {
                    sum += dsm.read(&p, 0) + dsm.read(&p, 2);
                    dsm.write(&p, 1, 9);
                }
                (_, 1) if round >= 2 => {
                    sum = sum * 31 + dsm.read(&p, 0) + dsm.read(&p, 1) + dsm.read(&p, 2);
                }
                _ => {}
            }
            let mut blob = (round + 1).to_le_bytes().to_vec();
            blob.extend_from_slice(&sum.to_le_bytes());
            dsm.set_checkpoint_state(&blob);
            dsm.barrier();
        }
        sum
    };
    let crashed_like_clean = |protocol| {
        let cadence = spec(protocol).with_checkpoint_cadence(4);
        let clean = run_program(cadence.clone(), program);
        let out = run_program(cadence.with_crash(CrashPlan::new(1, 6)), program);
        assert!(out.recovery_time().is_some(), "no recovery happened");
        for (a, b) in clean.nodes.iter().zip(&out.nodes) {
            assert_eq!(a.result, b.result, "{protocol:?}: node {} diverged", a.node);
        }
        out
    };
    crashed_like_clean(Protocol::Ml);
    let out = crashed_like_clean(Protocol::Ccl);
    // Under CCL, restored by the replay — at the fault, and again at the replayed
    // barrier whose notice names the home's round-5 write — and never
    // fetched live again.
    let victim = &out.nodes[1];
    let crashed = victim.crashed_at.expect("crash was not injected");
    let refetched = victim
        .trace
        .iter()
        .any(|ev| matches!(ev.kind, TraceKind::PageFetch { page: 0, .. }) && ev.at > crashed);
    assert!(!refetched, "P was fetched live instead of restored");
    let recovery_replies = out.nodes[0]
        .trace
        .iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                TraceKind::MsgSend {
                    to: 1,
                    msg: "RecoveryPageReply",
                    ..
                }
            )
        })
        .count();
    assert_eq!(recovery_replies, 2);
}

/// A copy *predicted* before an ML truncating checkpoint and first
/// touched after it comes back after a crash. Node 1 faults on A0
/// (homed at node 0) in round 1, and the notices of node 0's round-0
/// writes predict A1..A3 along with it; the copies install while node 1
/// waits for Q from node 2. The barrier-2 checkpoint truncates the log
/// and drops the copies ML holds a logged reply for — not the predicted
/// ones, which have no frame and no record yet. Node 1 first touches A1
/// in round 2: its reply is logged then, after the cut, and the replay
/// from the checkpoint finds it where it faults on A1.
#[test]
fn a_copy_predicted_before_an_ml_checkpoint_replays_after_it() {
    const ROUNDS: u64 = 4;
    const A1: u32 = 1;
    let program = |dsm: &mut Dsm| -> u64 {
        let words = dsm.page_size() / 8;
        let a = dsm.alloc_at::<u64>(4 * words, 0); // pages 0..4
        let q = dsm.alloc_at::<u64>(words, 2); // page 4
        let (start, mut sum) = match dsm.restored_state() {
            Some(blob) => (
                u64::from_le_bytes(blob[..8].try_into().unwrap()),
                u64::from_le_bytes(blob[8..].try_into().unwrap()),
            ),
            None => (0, 0),
        };
        for round in start..ROUNDS {
            match (round, dsm.me()) {
                (0, 0) => (0..4).for_each(|k| dsm.write(&a, k * words, 10 + k as u64)),
                (0, 2) => dsm.write(&q, 0, 5),
                (1, 1) => sum += dsm.read(&a, 0) + dsm.read(&q, 0),
                (2, 1) => sum = sum * 31 + dsm.read(&a, words),
                (3, 1) => sum = sum * 31 + dsm.read(&a, words + 1),
                _ => {}
            }
            let mut blob = (round + 1).to_le_bytes().to_vec();
            blob.extend_from_slice(&sum.to_le_bytes());
            dsm.set_checkpoint_state(&blob);
            dsm.barrier();
        }
        sum
    };
    let cadence = spec(Protocol::Ml).with_checkpoint_cadence(2);
    let clean = run_program(cadence.clone(), program);
    assert_eq!(clean.nodes[1].result, (15 * 31 + 11) * 31);
    let out = run_program(cadence.with_crash(CrashPlan::new(1, 3)), program);
    assert!(out.recovery_time().is_some(), "no recovery happened");
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(a.result, b.result, "node {} diverged", a.node);
    }
    // Before the crash: predicted before the cut, first touched after.
    let victim = &out.nodes[1];
    let crashed = victim.crashed_at.expect("crash was not injected");
    let first = |want: &dyn Fn(&TraceKind) -> bool| {
        let ev = victim.trace.iter().find(|ev| want(&ev.kind));
        ev.expect("no such event").at
    };
    let issued = first(&|k| matches!(k, TraceKind::PrefetchIssued { page: 0, .. }));
    let cut = first(&|k| matches!(k, TraceKind::Checkpoint { .. }));
    let hit = first(&|k| matches!(k, TraceKind::PrefetchHit { page: A1 }));
    assert!(issued < cut && cut < hit && hit < crashed);
    // After it: A1 came back from the log, not from its home.
    let refetched = victim
        .trace
        .iter()
        .any(|ev| matches!(ev.kind, TraceKind::PageFetch { page: A1, .. }) && ev.at > crashed);
    assert!(!refetched, "A1 was fetched live instead of replayed");
}

/// A CCL writer serves exactly the logged diffs its stable log holds:
/// it keeps each in memory from the flush that persists it, drops them
/// all at the checkpoint that truncates the log, and keeps none of a
/// flush the device refused. Three nodes each write a word of every
/// page, so each logs diffs every round; node 1's device fills between
/// checkpoints, each of which lets it log again, and it ends paused. At
/// the end every node asks the next one for every diff it could have
/// logged: the answers are that node's salvaged `Diffs` records, diff
/// for diff.
#[test]
fn a_ccl_writer_serves_exactly_the_diffs_its_log_holds() {
    use std::collections::BTreeMap;

    use ftlog::{CclLogger, CclRecord, CCL_STREAM};
    use hlrc::{DsmConfig, HlrcNode, Msg};
    use pagemem::{Decode, PageDiff};

    const PAGES: u32 = 6;
    const PAGE_SIZE: usize = 256;
    const ROUNDS: u32 = 12;
    const CADENCE: u32 = 5;
    const CAPACITY: u64 = 800;
    let n = NODES as usize;
    let cfg = DsmConfig::new(n, PAGES).with_page_size(PAGE_SIZE);
    type Diffs = BTreeMap<(u32, u32), PageDiff>;
    let out: Vec<(Diffs, Diffs, u64)> =
        simnet::run_cluster::<Msg, _, _>(n, simnet::CostModel::default(), move |mut ctx| {
            let me = ctx.id();
            if me == 1 {
                ctx.disk
                    .set_faults(DiskFaultPlan::none().with_capacity(CAPACITY));
            }
            let mut node = HlrcNode::new(ctx, cfg, Box::new(CclLogger::new()));
            for round in 1..=ROUNDS {
                for page in 0..PAGES as usize {
                    node.write_u64(page * PAGE_SIZE + 8 * me, u64::from(round));
                }
                node.barrier();
                if round % CADENCE == 0 {
                    ftlog::checkpoint(&mut node, &[]);
                }
            }
            let writer = (me + 1) % n;
            for page in 0..PAGES {
                let seqs = (0..2 * ROUNDS).collect();
                let ask = Msg::LoggedDiffRequest { page, seqs };
                node.inner.ctx.send(writer, ask).expect("send");
            }
            let mut served = Diffs::new();
            for _ in 0..PAGES {
                let env = node.wait_for(|m| matches!(m, Msg::LoggedDiffReply { .. }));
                let Msg::LoggedDiffReply { page, diffs } = env.payload else {
                    unreachable!("waited for a logged diff reply")
                };
                served.extend(diffs.into_iter().map(|(iv, d)| ((page, iv.seq), d)));
            }
            // Keep serving until every node has its answers.
            node.barrier();
            let disk = &node.inner.ctx.disk;
            let mut logged = Diffs::new();
            let log = disk.peek_stream(CCL_STREAM);
            for payload in ftlog::salvage(log).payloads(log) {
                let record = CclRecord::decode_from_slice(&payload).expect("verified record");
                if let CclRecord::Diffs { interval, diffs } = record {
                    logged.extend(diffs.into_iter().map(|d| ((d.page, interval.seq), d)));
                }
            }
            (served, logged, disk.counters().full_writes)
        });
    for (me, (served, ..)) in out.iter().enumerate() {
        let writer = (me + 1) % n;
        let logged = &out[writer].1;
        assert!(
            !logged.is_empty(),
            "node {writer} logged no diff after the checkpoint"
        );
        assert_eq!(
            served, logged,
            "node {writer} serves other diffs than it logged"
        );
    }
    assert!(out[1].2 > 1, "node 1's device filled at most once");
    assert!(
        out[1].1.len() < out[0].1.len(),
        "node 1's device did not fill after the last checkpoint"
    );
}

/// Reading the checkpoint back is as deterministic as the rest of a
/// run: one cadence-plus-crash spec, run twice, gives bit-identical
/// digests, execution time, recovery exit and disk counters.
#[test]
fn a_cadence_crash_run_reads_its_checkpoint_back_deterministically() {
    for p in [Protocol::Ml, Protocol::Ccl] {
        let spec = spec(p)
            .with_checkpoint_cadence(5)
            .with_crash(CrashPlan::new(1, 17));
        let a = run_program(spec.clone(), program);
        let b = run_program(spec, program);
        assert_correct("cadence+crash", &a);
        assert!(a.nodes[1].disk.reads > 0, "{p:?}: nothing read back");
        assert_eq!(a.exec_time(), b.exec_time(), "{p:?}");
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            let node = x.node;
            assert_eq!(x.result, y.result, "{p:?}: node {node}");
            assert_eq!(x.recovery_exit, y.recovery_exit, "{p:?}: node {node}");
            assert_eq!(x.disk, y.disk, "{p:?}: node {node}");
        }
    }
}

/// What node 1 of [`hand_run`] saw of its checkpoint and its restart.
#[derive(Debug, Default)]
struct Restart {
    /// The pages `CKPT_PAGES` holds an image of after the checkpoint
    /// that follows the garble (all of them when nothing was garbled).
    imaged: Vec<u32>,
    /// Its home frames as the last checkpoint before the crash took
    /// them, and as the restart left them.
    checkpointed: Vec<Vec<u8>>,
    restored: Vec<Vec<u8>>,
    /// Records and bytes of `ckpt.meta` and `ckpt.pages` at the crash.
    ckpt_records: u64,
    ckpt_bytes: u64,
    /// Disk reads, and bytes read, between the crash and the return of
    /// the restart.
    reads: u64,
    bytes_read: u64,
}

/// Nine pages on three nodes, node `k` homing pages `3k..3k + 3`. Each
/// round node `k` writes a word of its first home page, a word of the
/// second home page of the next node (a diff) and reads the first home
/// page of the node after that (a fetch); nobody writes a third home
/// page. Every node checkpoints after every second barrier. With
/// `garble`, node 1 damages the second record of its `CKPT_PAGES` right
/// after the first checkpoint; with `crash`, it crashes after barrier 5
/// and restarts as the runner restarts it. Driven by hand so the test
/// can look at the disk and the page table where the runner cannot.
/// Returns every node's digest of all nine pages, and node 1's
/// [`Restart`].
fn hand_run(protocol: Protocol, garble: bool, crash: bool) -> Vec<(u64, Restart)> {
    use ftlog::{CclLogger, MlLogger, CKPT_META, CKPT_PAGES};
    use hlrc::{DsmConfig, FaultTolerance, HlrcNode};

    const HOMED: usize = 3;
    const PAGE_SIZE: usize = 256;
    const ROUNDS: u64 = 8;
    let n = NODES as usize;
    let cfg = DsmConfig::new(n, (n * HOMED) as u32).with_page_size(PAGE_SIZE);
    let logger = move || -> Box<dyn FaultTolerance> {
        match protocol {
            Protocol::Ml => Box::new(MlLogger::new()),
            Protocol::Ccl => Box::new(CclLogger::new()),
            Protocol::None => unreachable!("no checkpoint to restore"),
        }
    };
    let word = |page: usize, word: usize| page * PAGE_SIZE + 8 * word;
    simnet::run_cluster::<hlrc::Msg, _, _>(n, simnet::CostModel::default(), move |ctx| {
        let me = ctx.id();
        let homes = |k: usize| HOMED * (k % n);
        let frames = |node: &HlrcNode| -> Vec<Vec<u8>> {
            (homes(me)..homes(me) + HOMED)
                .map(|p| node.frame(p as u32).bytes().to_vec())
                .collect()
        };
        let mut node = HlrcNode::new(ctx, cfg, logger());
        let mut seen = Restart::default();
        let mut round = 0;
        while round < ROUNDS {
            let value = round + 1;
            node.write_u64(word(homes(me), round as usize), value);
            node.write_u64(word(homes(me + 1) + 1, me), value);
            let _ = node.read_u64(word(homes(me + 2), 0));
            node.barrier();
            round += 1;
            if round % 2 == 0 && !node.ft.in_recovery() {
                ftlog::checkpoint(&mut node, &round.to_le_bytes());
                let disk = &mut node.inner.ctx.disk;
                if me == 1 && round == 2 && garble {
                    let mut records = disk.peek_stream(CKPT_PAGES).to_vec();
                    records[1].flat_mut()[ftlog::FRAME_HEADER_BYTES] ^= 0x01;
                    disk.rewrite_stream(CKPT_PAGES, records, 0);
                }
                if me == 1 && round == 4 {
                    let images = disk.peek_stream(CKPT_PAGES);
                    let page = |p: Cow<[u8]>| u32::from_le_bytes(p[..4].try_into().unwrap());
                    seen.imaged = ftlog::salvage(images).payloads(images).map(page).collect();
                    seen.imaged.sort_unstable();
                    seen.ckpt_records =
                        (disk.record_count(CKPT_META) + disk.record_count(CKPT_PAGES)) as u64;
                    seen.ckpt_bytes =
                        (disk.stream_bytes(CKPT_META) + disk.stream_bytes(CKPT_PAGES)) as u64;
                    seen.checkpointed = frames(&node);
                }
            }
            if me == 1 && round == 5 && crash && seen.restored.is_empty() {
                let before = node.inner.ctx.disk.counters();
                let (restarted, blob) = node.restart(logger());
                node = restarted;
                let after = node.inner.ctx.disk.counters();
                seen.reads = after.reads - before.reads;
                seen.bytes_read = after.bytes_read - before.bytes_read;
                seen.restored = frames(&node);
                round =
                    u64::from_le_bytes(blob.expect("the checkpoint restores").try_into().unwrap());
            }
        }
        node.barrier();
        let digest = (0..n * HOMED)
            .flat_map(|p| (0..ROUNDS as usize).map(move |w| word(p, w)))
            .fold(0u64, |h, addr| {
                h.wrapping_mul(31).wrapping_add(node.read_u64(addr))
            });
        node.barrier();
        (digest, seen)
    })
}

/// A crash after a checkpoint restores the home frames from the disk,
/// not from memory: right after the restart they equal the checkpoint's
/// images (which differ from the initial ones), the restart read every
/// image back, and the run reaches the fault-free digest.
#[test]
fn a_restart_reads_its_home_frames_back_from_the_checkpoint() {
    for p in [Protocol::Ml, Protocol::Ccl] {
        let clean = hand_run(p, false, false);
        let crashed = hand_run(p, false, true);
        let digests = |out: &[(u64, Restart)]| out.iter().map(|(d, _)| *d).collect::<Vec<_>>();
        assert_eq!(digests(&crashed), digests(&clean), "{p:?}");
        let seen = &crashed[1].1;
        assert_eq!(seen.imaged, [3, 4, 5], "{p:?}");
        assert_eq!(seen.restored, seen.checkpointed, "{p:?}");
        let zero = vec![0u8; 256];
        assert!(seen.checkpointed[..2].iter().all(|f| *f != zero), "{p:?}");
        assert!(seen.reads >= seen.ckpt_records, "{p:?}: {seen:?}");
        assert!(seen.bytes_read >= seen.ckpt_bytes, "{p:?}: {seen:?}");
        if p == Protocol::Ml {
            // ML reads its log at replay, not at the restart: what the
            // restart read is the checkpoint, record for record.
            assert_eq!(
                (seen.reads, seen.bytes_read),
                (seen.ckpt_records, seen.ckpt_bytes)
            );
        }
    }
}

/// A damaged `CKPT_PAGES` record costs the salvage every image after it
/// too, among them that of a page nobody writes again. The next
/// checkpoint writes every page without an image, so the stream is back
/// to one image per home page, and a crash after it restores them all
/// and reaches the fault-free digest.
#[test]
fn a_checkpoint_rewrites_the_images_a_damaged_record_cost() {
    for p in [Protocol::Ml, Protocol::Ccl] {
        let clean = hand_run(p, false, false);
        let crashed = hand_run(p, true, true);
        let seen = &crashed[1].1;
        assert_eq!(seen.imaged, [3, 4, 5], "{p:?}: one image per home page");
        assert_eq!(seen.restored, seen.checkpointed, "{p:?}");
        for (a, b) in clean.iter().zip(&crashed) {
            assert_eq!(a.0, b.0, "{p:?}");
        }
    }
}

/// Run `cell`, which either finishes with the fault-free result or fails
/// with the named stopped-log error: true when it failed. Anything else
/// fails the test.
fn fails_on_a_stopped_log(label: &str, cell: ClusterSpec) -> bool {
    let Err(payload) = std::panic::catch_unwind(|| {
        assert_correct(label, &run_program(cell, program));
    }) else {
        return false;
    };
    let message = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(
        message.starts_with("ML log stopped before the crash"),
        "{label}: failed with something else: {message}"
    );
    true
}

/// The stopped-device matrix: node 1's log device capped at ML's peak
/// /2, /3 or /4 under cadence 16, 8 or 5 with a crash after every
/// barrier 6–23 (162 cells), or failed at its 2nd, 3rd, 5th or 10th
/// write with a crash after barrier 6, 12, 18 or 23 (16 cells). An ML
/// home acks a diff flush its stopped log did not take, so each ML cell
/// ends exact or fails with the named error; none finishes wrong. The
/// same cells under CCL end exact: every diff a stopped home applied is
/// still in its writer's log.
#[test]
fn a_stopped_ml_log_fails_loudly_and_never_wrong() {
    let peak = (run_program(spec(Protocol::Ml), program).nodes.iter())
        .map(|n| n.log_bytes_on_disk)
        .max()
        .unwrap();
    let mut cells = Vec::new();
    for div in [2, 3, 4] {
        for cadence in [16, 8, 5] {
            for crash in 6..=23 {
                let plan = DiskFaultPlan::none().with_capacity(peak / div);
                cells.push((Some(cadence), plan, crash));
            }
        }
    }
    for at in [2, 3, 5, 10] {
        for crash in [6, 12, 18, 23] {
            cells.push((None, DiskFaultPlan::permanent_at(at), crash));
        }
    }
    assert_eq!(cells.len(), 178);
    for p in [Protocol::Ml, Protocol::Ccl] {
        let mut stopped = 0;
        for &(cadence, plan, crash) in &cells {
            let mut cell = spec(p)
                .with_disk_fault(1, plan)
                .with_crash(CrashPlan::new(1, crash));
            if let Some(n) = cadence {
                cell = cell.with_checkpoint_cadence(n);
            }
            let label =
                format!("{p:?}: {plan:?}, cadence {cadence:?}, crash after barrier {crash}");
            if fails_on_a_stopped_log(&label, cell) {
                assert_eq!(p, Protocol::Ml, "{label}: CCL failed");
                stopped += 1;
            }
        }
        eprintln!("{p:?}: {stopped} of {} cells failed loudly", cells.len());
    }
}
