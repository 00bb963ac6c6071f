//! Crash-recovery integration: a node fails mid-run, recovers from its
//! stable log, and the whole computation must still produce the exact
//! failure-free result — the correctness gate of DESIGN.md.

use std::collections::BTreeSet;

use ccl_apps::App;
use ccl_core::{
    kind_label, run_program, ClusterSpec, CrashPlan, Protocol, SimDuration, TraceKind, MSG_KINDS,
};
use hlrc::WriteNotice;
use pagemem::{Encode, IntervalId};

fn spec(app: App, nodes: usize, protocol: Protocol) -> ClusterSpec {
    let page = 256;
    ClusterSpec::new(nodes, app.tiny_pages(page) + 4)
        .with_page_size(page)
        .with_protocol(protocol)
}

fn check_recovery(app: App, protocol: Protocol, crash_node: usize, after_barriers: u64) {
    let expect = app.tiny_reference();
    let s = spec(app, 4, protocol).with_crash(CrashPlan::new(crash_node, after_barriers));
    let out = run_program(s, move |dsm| app.run_tiny(dsm));
    for n in &out.nodes {
        assert_eq!(
            n.result,
            expect,
            "{} with {:?}, crash of node {crash_node} after barrier {after_barriers}: \
             node {} digest mismatch",
            app.name(),
            protocol,
            n.node
        );
    }
    let failed = &out.nodes[crash_node];
    assert!(failed.crashed_at.is_some(), "crash was not injected");
    assert!(
        failed.recovery_exit.is_some(),
        "recovery never completed at the failed node"
    );
    assert!(
        out.recovery_time().unwrap() > SimDuration::ZERO,
        "recovery time must be positive"
    );
}

#[test]
fn ccl_recovers_fft3d() {
    check_recovery(App::Fft3d, Protocol::Ccl, 1, 3);
}

#[test]
fn ccl_recovers_mg() {
    check_recovery(App::Mg, Protocol::Ccl, 1, 4);
}

#[test]
fn ccl_recovers_shallow() {
    check_recovery(App::Shallow, Protocol::Ccl, 1, 4);
}

#[test]
fn ccl_recovers_water() {
    check_recovery(App::Water, Protocol::Ccl, 1, 3);
}

#[test]
fn ml_recovers_all_apps() {
    for app in App::ALL {
        check_recovery(app, Protocol::Ml, 1, 3);
    }
}

#[test]
fn recovery_works_for_every_failed_node() {
    // Fail each non-manager node in turn (single-failure model; the
    // paper's experiments also crash one worker).
    for node in 1..4 {
        check_recovery(App::Shallow, Protocol::Ccl, node, 3);
    }
}

#[test]
fn recovery_works_at_different_crash_points() {
    for after in [1, 2, 5, 8] {
        check_recovery(App::Mg, Protocol::Ccl, 2, after);
    }
}

#[test]
fn late_crash_close_to_program_end() {
    // Crash near the end: almost the entire run replays from the log.
    check_recovery(App::Water, Protocol::Ccl, 1, 8);
    check_recovery(App::Water, Protocol::Ml, 1, 8);
}

#[test]
fn ccl_recovery_reads_less_log_than_ml_recovery() {
    // The mechanism behind the paper's Figure 5: ML-recovery reads its
    // (large) log back record by record, CCL-recovery reads its (small)
    // log once per interval. The wall-clock win shows at paper scale
    // (the Figure 5 table `report` renders); at test scale we assert the
    // scale-independent invariants: both recoveries succeed and CCL's
    // replay pulls far fewer bytes off stable storage.
    let app = App::Shallow;
    let crash = CrashPlan::new(1, 5);
    let ccl = run_program(spec(app, 4, Protocol::Ccl).with_crash(crash), move |dsm| {
        app.run_tiny(dsm)
    });
    let ml = run_program(spec(app, 4, Protocol::Ml).with_crash(crash), move |dsm| {
        app.run_tiny(dsm)
    });
    assert!(ccl.recovery_time().is_some() && ml.recovery_time().is_some());
    let ccl_read = ccl.nodes[1].disk.bytes_read;
    let ml_read = ml.nodes[1].disk.bytes_read;
    assert!(
        ccl_read * 2 < ml_read,
        "CCL replay read {ccl_read} bytes, ML replay read {ml_read}"
    );
    // And recovery is far cheaper than redoing the lost work live:
    // the replayed prefix costs less than the full failure-free run.
    assert!(ccl.recovery_time().unwrap().as_secs_f64() < ccl.exec_time().as_secs_f64());
}

/// The failed node's replay reads in Water's crash run under
/// `protocol`: (reads, bytes read, disk time of its recovery window),
/// its reads and bytes counted against the fault-free run. With no
/// checkpoint to restore and no damage to repair, the window's disk
/// time is those reads' alone.
fn replay_reads(protocol: Protocol) -> (u64, u64, SimDuration) {
    let app = App::Water;
    let s = spec(app, 4, protocol);
    let clean = run_program(s.clone(), move |dsm| app.run_tiny(dsm));
    let crashed = s.with_crash(CrashPlan::new(1, 3));
    let out = run_program(crashed, move |dsm| app.run_tiny(dsm));
    let (before, after) = (clean.nodes[1].disk, out.nodes[1].disk);
    let reads = after.reads - before.reads;
    let bytes = after.bytes_read - before.bytes_read;
    assert!(reads > 0, "{protocol:?}: replay read nothing");
    let window = out.nodes[1].recovery_phases.expect("recovery window");
    (reads, bytes, window.disk)
}

#[test]
fn every_ml_replay_read_pays_one_call_plus_bandwidth() {
    // ML reads its log on demand, one record per call, each on a scan
    // that starts at the call: one call plus bandwidth.
    let (reads, bytes, disk) = replay_reads(Protocol::Ml);
    let model = spec(App::Water, 4, Protocol::Ml).cost.disk;
    let call = simnet::DiskModel::READ_CALL.as_nanos();
    let expect = SimDuration::from_nanos(reads * call + bytes * model.ns_per_byte);
    assert_eq!(disk, expect, "{reads} reads of {bytes} bytes");
}

#[test]
fn ccl_replay_reads_wait_only_for_what_the_scan_has_not_reached() {
    // CCL reads its log one replayed interval per call, from the scan
    // the salvage started: each call pays `READ_CALL` and waits only for
    // the bytes the scan does not hold yet. Every call is paid, and the
    // reads as a whole beat what demand reads of the same bytes cost.
    let (reads, bytes, disk) = replay_reads(Protocol::Ccl);
    let model = spec(App::Water, 4, Protocol::Ccl).cost.disk;
    let calls = simnet::DiskModel::READ_CALL.times(reads);
    let demand = calls + SimDuration::from_nanos(bytes * model.ns_per_byte);
    assert!(
        disk >= calls,
        "{reads} reads of {bytes} bytes took {disk:?}"
    );
    assert!(
        disk < demand,
        "{reads} reads of {bytes} bytes took {disk:?}, demand reads {demand:?}"
    );
}

#[test]
fn recovery_steps_are_traced_between_crash_and_exit() {
    // The telemetry contract of a crash run: the failed node's trace
    // carries the whole recovery arc — begin, per-episode replay steps,
    // end — inside the [crashed_at, recovery_exit] window.
    let app = App::Shallow;
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let s = spec(app, 4, protocol).with_crash(CrashPlan::new(1, 4));
        let out = run_program(s, move |dsm| app.run_tiny(dsm));
        let failed = &out.nodes[1];
        let crashed = failed.crashed_at.expect("crash was not injected");
        let exit = failed.recovery_exit.expect("recovery never completed");
        let window: Vec<_> = failed
            .trace
            .iter()
            .filter(|ev| ev.at >= crashed && ev.at <= exit)
            .collect();
        let begins = window
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::RecoveryBegin))
            .count();
        let replays = window
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::RecoveryReplay { .. }))
            .count();
        let ends = window
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::RecoveryEnd))
            .count();
        assert_eq!(begins, 1, "{protocol:?}: RecoveryBegin missing from window");
        assert!(replays > 0, "{protocol:?}: no replay steps traced");
        assert_eq!(ends, 1, "{protocol:?}: RecoveryEnd missing from window");
    }
}

/// The trace is kept packed (`simnet::Trace`): a crash run's events
/// average at most 12 bytes each, not the 56 of a `TraceEvent`.
#[test]
fn a_crash_runs_trace_averages_at_most_12_bytes_an_event() {
    let app = App::Fft3d;
    let s = spec(app, 4, Protocol::Ccl).with_crash(CrashPlan::new(1, 3));
    let out = run_program(s, move |dsm| app.run_tiny(dsm));
    let events: usize = out.nodes.iter().map(|n| n.trace.len()).sum();
    let bytes: usize = out.nodes.iter().map(|n| n.trace.encoded_len()).sum();
    assert!(events > 1000, "only {events} events");
    assert!(
        bytes <= 12 * events,
        "{bytes} B for {events} events: {:.1} B an event",
        bytes as f64 / events as f64
    );
}

// ------------------------------------------------------------
// Recovery handshake: held-set filter and served logged diffs
// ------------------------------------------------------------

/// Wire tag of a message kind, by its label.
fn tag(label: &str) -> usize {
    (0..MSG_KINDS)
        .find(|&k| kind_label(k) == label)
        .expect("known message kind")
}

/// The remote pages `node` touched before `until`, from its trace: the
/// pages it faulted on and fetched, and the predicted copies it went
/// on to use. (A predicted copy it never used is not among them.)
fn touched_before(
    node: &ccl_core::NodeOutput<u64>,
    until: ccl_core::SimTime,
) -> std::collections::BTreeSet<u32> {
    node.trace
        .iter()
        .filter(|ev| ev.at <= until)
        .filter_map(|ev| match ev.kind {
            TraceKind::PageFetch { page, .. } | TraceKind::PrefetchHit { page } => Some(page),
            _ => None,
        })
        .collect()
}

/// The write notices the barrier manager's hello reply lists for
/// `victim`: what each of its intervals before the crash wrote of its
/// own home pages, read off its trace. For a program that synchronizes
/// at barriers only: an interval closes at each barrier after a write,
/// each page it writes takes one write fault, and a page the victim
/// writes without having fetched or used a predicted copy of it is
/// homed at the victim.
fn own_home_writes(victim: &ccl_core::NodeOutput<u64>) -> Vec<WriteNotice> {
    let crashed = victim.crashed_at.expect("crash was not injected");
    let fetched = touched_before(victim, crashed);
    let mut interval = IntervalId {
        node: victim.node as u32,
        seq: 0,
    };
    let mut written = BTreeSet::new();
    let mut out = Vec::new();
    for ev in victim
        .trace
        .iter()
        .take_while(|ev| ev.kind != TraceKind::Crash)
    {
        match ev.kind {
            TraceKind::WriteFault { page } => {
                written.insert(page);
            }
            TraceKind::BarrierEnter { .. } if !written.is_empty() => {
                let home = written.iter().filter(|p| !fetched.contains(p));
                out.extend(home.map(|&page| WriteNotice { page, interval }));
                written.clear();
                interval.seq += 1;
            }
            _ => {}
        }
    }
    out
}

/// How many pages `home` told `victim` it held: the length of the list
/// in the one hello reply it sent, from the reply's size on the wire —
/// less the `home_writes` it also carried (the barrier manager's).
fn pages_in_hello_reply(
    home: &ccl_core::NodeOutput<u64>,
    victim: usize,
    home_writes: Vec<WriteNotice>,
) -> u64 {
    let sizes: Vec<u32> = home
        .trace
        .iter()
        .filter_map(|ev| match ev.kind {
            TraceKind::MsgSend {
                to,
                msg: "RecoveryHelloReply",
                bytes,
                ..
            } if to == victim => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(sizes.len(), 1, "node {} hello replies", home.node);
    let empty = hlrc::Msg::RecoveryHelloReply {
        held: Vec::new(),
        complete: true,
        home_writes,
    };
    u64::from(sizes[0] - simnet::WireSized::wire_size(&empty) as u32) / 4
}

#[test]
fn ccl_recovery_fetches_no_more_than_the_victim_held() {
    // Replay is deterministic, so the victim re-touches exactly what it
    // touched before the crash; its homes told it what that was. Every
    // replayed sync restores the held pages its notices name — one
    // request each, resident or not, since a copy is brought up to date
    // from its home's served images, not patched with diffs — so the
    // recovery fetches are bounded by the pages it touched (demand
    // pages plus the predicted copies it used — not the predictions it
    // was merely shipped) times the syncs replayed, however many pages
    // the cluster wrote meanwhile.
    let app = App::Shallow;
    let s = spec(app, 4, Protocol::Ccl).with_crash(CrashPlan::new(1, 5));
    let out = run_program(s, move |dsm| app.run_tiny(dsm));
    assert!(out.nodes.iter().all(|n| n.result == app.tiny_reference()));
    let victim = &out.nodes[1];
    let crashed = victim.crashed_at.expect("crash was not injected");
    let touched = touched_before(victim, crashed).len() as u64;
    let predicted: u64 = victim
        .trace
        .iter()
        .filter(|ev| ev.at <= crashed)
        .filter_map(|ev| match ev.kind {
            TraceKind::PrefetchIssued { count, .. } => Some(u64::from(count)),
            _ => None,
        })
        .sum();
    assert!(
        predicted > touched,
        "the bound below is no tighter than counting every shipped copy"
    );
    let replayed = victim
        .trace
        .iter()
        .filter(|ev| matches!(ev.kind, TraceKind::RecoveryReplay { .. }))
        .count() as u64;
    let fetched = victim.stats.msgs_by_kind[tag("RecoveryPageRequest")];
    assert!(fetched > 0, "recovery prefetched nothing");
    assert!(
        fetched <= touched * replayed,
        "{fetched} recovery fetches for {touched} pages touched before the crash \
         over {replayed} replayed syncs"
    );
    // One wave per sync: nothing is patched from logged diffs, and with
    // no diff in the run nothing is fetched from a log at all.
    assert_eq!(out.total_stats().diffs_created, 0);
    assert_eq!(victim.stats.msgs_by_kind[tag("LoggedDiffRequest")], 0);
    // Every peer was greeted once and answered once.
    assert_eq!(victim.stats.msgs_by_kind[tag("RecoveryHello")], 3);
    assert_eq!(out.total_stats().msgs_by_kind[tag("RecoveryHelloReply")], 3);
    // No survivor read its log back: each serves from memory.
    for n in out.nodes.iter().filter(|n| n.node != 1) {
        assert_eq!(n.disk.reads, 0, "node {} log reads", n.node);
    }
}

#[test]
fn homes_list_as_held_only_what_the_victim_touched() {
    // held ⊆ touched, home by home: no hello reply lists more pages
    // than the victim demand-fetched from that home or first touched
    // as predicted copies of its pages before the crash — and the
    // demand pages, which need no report, are all there. (A page's
    // home is whoever any node ever fetched it from; a used prediction
    // nobody ever faulted on could be anyone's and counts for every
    // home, but only once in the total.)
    for (app, after) in [(App::Fft3d, 3), (App::Shallow, 5)] {
        let s = spec(app, 4, Protocol::Ccl).with_crash(CrashPlan::new(1, after));
        let out = run_program(s, move |dsm| app.run_tiny(dsm));
        assert!(out.nodes.iter().all(|n| n.result == app.tiny_reference()));
        let victim = &out.nodes[1];
        let crashed = victim.crashed_at.expect("crash was not injected");
        let mut home_of = std::collections::BTreeMap::new();
        for ev in out.nodes.iter().flat_map(|n| &n.trace) {
            if let TraceKind::PageFetch { page, from, .. } = ev.kind {
                home_of.insert(page, from);
            }
        }
        let touched = touched_before(victim, crashed);
        let hits = victim
            .trace
            .iter()
            .filter(|ev| ev.at <= crashed && matches!(ev.kind, TraceKind::PrefetchHit { .. }))
            .count();
        assert!(hits > 0, "{}: no predicted copy was ever used", app.name());
        let mut listed = 0;
        for home in out.nodes.iter().filter(|n| n.node != 1) {
            let demand = victim
                .trace
                .iter()
                .filter(|ev| ev.at <= crashed)
                .filter_map(|ev| match ev.kind {
                    TraceKind::PageFetch { page, from, .. } if from == home.node => Some(page),
                    _ => None,
                })
                .collect::<std::collections::BTreeSet<u32>>()
                .len() as u64;
            let touched_here = touched
                .iter()
                .filter(|p| home_of.get(p).is_none_or(|h| *h == home.node))
                .count() as u64;
            // The barrier manager also lists the victim's home writes.
            let home_writes = match home.node {
                0 => own_home_writes(victim),
                _ => Vec::new(),
            };
            assert!(home.node != 0 || !home_writes.is_empty());
            let held = pages_in_hello_reply(home, 1, home_writes);
            assert!(
                (demand..=touched_here).contains(&held),
                "{}: node {} lists {held} pages; the victim demand-fetched {demand} \
                 and touched {touched_here} of its pages",
                app.name(),
                home.node
            );
            listed += held;
        }
        assert!(
            (1..=touched.len() as u64).contains(&listed),
            "{}: {listed} pages listed in all, {} touched",
            app.name(),
            touched.len()
        );
    }
}

#[test]
fn a_first_touch_the_home_never_heard_of_is_restored_when_replay_faults_on_it() {
    // The unreported hit. Node 0 writes its pages X and Y once; node 1
    // faults on Y and is shipped X alongside it (the notice-set
    // predictor), fetches Z from node 2 (the wait in which the trailing
    // copy of X installs), and then reads X — a first touch of a
    // predicted copy, to be reported with node 1's next request to
    // node 0. There is none: from then on it reads only Z, and fails.
    // Node 0 therefore lists Y and not X; the replayed barrier restores
    // Y and Z ahead of time, the replayed read of X faults, and that
    // one fault asks node 0 for X — which it has, because it retains
    // the image of every copy it ships, touched or not. ML, which
    // replays what it logged itself, is the oracle.
    const Y: u32 = 0;
    const X: u32 = 1;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let ys = dsm.alloc_at::<u64>(words, 0);
        let xs = dsm.alloc_at::<u64>(words, 0);
        let zs = dsm.alloc_at::<u64>(words, 2);
        let mut seen = 0u64;
        for round in 0..6u64 {
            match dsm.me() {
                0 if round == 0 => {
                    dsm.write(&ys, 0, 11);
                    dsm.write(&xs, 0, 22);
                }
                2 => dsm.write(&zs, 0, 100 + round),
                _ => {}
            }
            dsm.barrier();
            if dsm.me() == 1 {
                if round == 0 {
                    seen = fold(seen, dsm.read(&ys, 0));
                }
                seen = fold(seen, dsm.read(&zs, 0));
                if round == 0 {
                    seen = fold(seen, dsm.read(&xs, 0));
                }
            }
            dsm.barrier();
        }
        seen
    };
    let mut digests = Vec::new();
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let base = ClusterSpec::new(3, 8)
            .with_page_size(256)
            .with_protocol(protocol);
        let clean = run_program(base.clone(), program);
        let out = run_program(base.with_crash(CrashPlan::new(1, 8)), program);
        assert!(out.recovery_time().is_some(), "crash was not injected");
        for (a, b) in clean.nodes.iter().zip(&out.nodes) {
            assert_eq!(a.result, b.result, "{protocol:?}: node {} diverged", a.node);
        }
        digests.push(out.nodes[1].result);
        if protocol != Protocol::Ccl {
            continue;
        }
        let victim = &out.nodes[1];
        let crashed = victim.crashed_at.expect("crash time");
        let exit = victim.recovery_exit.expect("recovery never completed");
        // Before the crash: X arrived as a prediction, was used, and
        // node 0 was never asked for anything again.
        let at = |kind: &dyn Fn(&TraceKind) -> bool| -> Vec<ccl_core::SimTime> {
            victim
                .trace
                .iter()
                .filter(|ev| kind(&ev.kind))
                .map(|ev| ev.at)
                .collect()
        };
        let hit = at(&|k| matches!(k, TraceKind::PrefetchHit { page: X }));
        assert!(
            hit.len() == 1 && hit[0] < crashed,
            "X was not a used prediction"
        );
        let asked_node_0 = at(&|k| matches!(k, TraceKind::PageFetch { from: 0, .. }));
        assert!(
            asked_node_0.iter().all(|t| *t < hit[0] || *t > exit),
            "the first touch of X was reported after all"
        );
        assert!(
            at(&|k| matches!(k, TraceKind::PageFetch { page: X, .. })).is_empty(),
            "X was demand-fetched"
        );
        // The hello reply lists Y alone.
        assert_eq!(
            pages_in_hello_reply(&out.nodes[0], 1, own_home_writes(victim)),
            1
        );
        // Replay faulted on X, once, and on nothing else homed at node
        // 0: Y came back with the replayed barrier's wave.
        let faults = |page| {
            at(&|k| *k == TraceKind::ReadFault { page })
                .iter()
                .filter(|t| **t >= crashed && **t <= exit)
                .count()
        };
        assert_eq!((faults(X), faults(Y)), (1, 0));
        // So node 0 answered two recovery fetches: Y's and X's.
        assert_eq!(
            out.nodes[0].stats.msgs_by_kind[tag("RecoveryPageReply")],
            2,
            "one for Y ahead of time, exactly one for X on demand"
        );
    }
    assert_eq!(digests[0], digests[1], "CCL and ML disagree");
}

#[test]
fn a_prediction_reported_after_a_checkpoint_recovers_like_ml() {
    // Node 1 uses a predicted copy of P, homed at node 0, before the
    // checkpoint barrier that ends round 3. Its next request to node 0
    // comes after that checkpoint and carries the report. Node 1 then
    // fails and recovers from the checkpoint; ML is the oracle.
    const P: u32 = 1;
    const Q: u32 = 2;
    const ROUNDS: u64 = 8;
    let program = |dsm: &mut ccl_core::Dsm| -> u64 {
        let words = dsm.page_size() / 8;
        let rs = dsm.alloc_at::<u64>(words, 0);
        let ps = dsm.alloc_at::<u64>(words, 0);
        let qs = dsm.alloc_at::<u64>(words, 0);
        let ss = dsm.alloc_at::<u64>(words, 2);
        let (start, mut seen) = match dsm.restored_state() {
            Some(blob) => (
                u64::from_le_bytes(blob[..8].try_into().unwrap()),
                u64::from_le_bytes(blob[8..].try_into().unwrap()),
            ),
            None => (0, 0),
        };
        for round in start..ROUNDS {
            match (round, dsm.me()) {
                // Node 2 is P's one remote writer.
                (1, 2) => dsm.write(&ps, 2, 5),
                (2, 0) => {
                    dsm.write(&rs, 0, 7);
                    dsm.write(&ps, 0, 8);
                }
                (2, 2) => dsm.write(&ss, 0, 9),
                // Fault on R (P rides along), fetch S (P installs),
                // use P: a first touch node 0 has yet to hear of.
                (3, 1) => {
                    for h in [&rs, &ss, &ps] {
                        seen = fold(seen, dsm.read(h, 0));
                    }
                }
                // After the checkpoint: the next request to node 0.
                (4, 0) => dsm.write(&qs, 0, 10),
                (5, 1) => seen = fold(seen, dsm.read(&qs, 0)),
                (6, 2) => dsm.write(&ps, 2, 12),
                (7, 1) => seen = fold(seen, dsm.read(&ps, 2)),
                _ => {}
            }
            let mut blob = (round + 1).to_le_bytes().to_vec();
            blob.extend_from_slice(&seen.to_le_bytes());
            dsm.set_checkpoint_state(&blob);
            dsm.barrier();
        }
        seen
    };
    let mut digests = Vec::new();
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let base = ClusterSpec::new(3, 8)
            .with_page_size(256)
            .with_protocol(protocol)
            .with_checkpoint_cadence(4);
        let clean = run_program(base.clone(), program);
        let out = run_program(base.with_crash(CrashPlan::new(1, 6)), program);
        assert!(out.recovery_time().is_some(), "crash was not injected");
        for (a, b) in clean.nodes.iter().zip(&out.nodes) {
            assert_eq!(a.result, b.result, "{protocol:?}: node {} diverged", a.node);
        }
        digests.push(out.nodes[1].result);
        if protocol != Protocol::Ccl {
            continue;
        }
        let victim = &out.nodes[1];
        let crashed = victim.crashed_at.expect("crash time");
        let checkpointed = victim
            .trace
            .iter()
            .find(|ev| matches!(ev.kind, TraceKind::Checkpoint { .. }))
            .expect("no checkpoint")
            .at;
        let hit = victim
            .trace
            .iter()
            .find(|ev| ev.kind == TraceKind::PrefetchHit { page: P })
            .expect("P was not a used prediction");
        assert!(hit.at < checkpointed);
        // The request for Q left after the checkpoint and before the
        // crash, and it is exactly as long as one that reports P.
        let report = hlrc::Msg::PageRequestBatch {
            page: Q,
            extras: vec![],
            hits: vec![P],
        };
        let sent: Vec<_> = victim
            .trace
            .iter()
            .filter(|ev| ev.at > checkpointed && ev.at < crashed)
            .filter_map(|ev| match ev.kind {
                TraceKind::MsgSend {
                    to: 0,
                    msg: "PageRequestBatch",
                    bytes,
                    ..
                } => Some(bytes as usize),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![simnet::WireSized::wire_size(&report)]);
    }
    assert_eq!(digests[0], digests[1], "CCL and ML disagree");
}

#[test]
fn a_page_the_victim_never_held_is_left_alone_until_it_faults_live() {
    // Page X (page 0) is written every round but the victim first reads
    // it *after* its crash point; page Y (page 1) it reads every round.
    // Recovery must restore Y — once per replayed barrier that names
    // it, each time from what its home served before the crash — and
    // never ask for X; the later read of X is an ordinary live fetch.
    // (X and Y live at different homes: a speculative extra is a
    // same-home page, so a fault on Y cannot fetch X alongside it — and
    // a fetched page is a held page.)
    const X: u32 = 0;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let xs = dsm.alloc_at::<u64>(words, 0);
        let ys = dsm.alloc_at::<u64>(words, 2);
        let mut sum = 0u64;
        for round in 0..6u64 {
            if dsm.me() == 0 {
                dsm.write(&xs, 0, round + 1);
                dsm.write(&ys, 0, 10 * (round + 1));
            }
            dsm.barrier();
            match dsm.me() {
                1 => {
                    sum += dsm.read(&ys, 0);
                    if round >= 4 {
                        sum += dsm.read(&xs, 0);
                    }
                }
                2 => sum += dsm.read(&xs, 0),
                _ => {}
            }
            dsm.barrier();
        }
        sum
    };
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    let clean = run_program(base.clone(), program);
    let out = run_program(base.with_crash(CrashPlan::new(1, 6)), program);
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(a.result, b.result, "node {} diverged", a.node);
    }
    let victim = &out.nodes[1];
    let exit = victim.recovery_exit.expect("recovery never completed");
    let asked = victim.stats.msgs_by_kind[tag("RecoveryPageRequest")];
    let replayed_barriers = 6;
    assert!(
        (1..=replayed_barriers).contains(&asked),
        "{asked} recovery fetches for one held page over {replayed_barriers} barriers"
    );
    let answered = |home: usize| out.nodes[home].stats.msgs_by_kind[tag("RecoveryPageReply")];
    assert_eq!(answered(2), asked, "every recovery fetch went to Y's home");
    assert_eq!(answered(0), 0, "X's home was asked for a page");
    let x_fetches: Vec<_> = victim
        .trace
        .iter()
        .filter(|ev| matches!(ev.kind, TraceKind::PageFetch { page: X, .. }))
        .collect();
    assert!(!x_fetches.is_empty(), "X was never fetched at all");
    assert!(
        x_fetches.iter().all(|ev| ev.at > exit),
        "X was fetched before recovery ended"
    );
}

/// Two diffs of page 0 for intervals 0 and 1 of node 0: a one-word one
/// and a whole-page one.
fn word_and_page_diffs(page_size: usize) -> [pagemem::PageDiff; 2] {
    use pagemem::{PageDiff, PageFrame, Twin};
    let base = PageFrame::zeroed(page_size);
    let mut word = base.clone();
    word.write_u64(8, 7);
    let mut whole = base.clone();
    for w in 0..page_size / 8 {
        whole.write_u64(8 * w, w as u64 + 1);
    }
    [word, whole].map(|frame| PageDiff::create(0, &Twin::of(&base), &frame))
}

#[test]
fn a_surviving_writer_serves_logged_diffs_from_the_memory_that_made_them() {
    // Node 0 logs two diffs. Node 1 says hello and asks at once for the
    // whole-page one and for an interval node 0 never logged (a silent
    // write, whose diff was empty). A writer that lives keeps what it
    // logged until the checkpoint: both answers leave at arrival +
    // handler + the copy of what they carry, and its disk is never read.
    use hlrc::{DsmConfig, FaultTolerance, Msg, NodeInner};
    let cfg = DsmConfig::new(2, 4).with_page_size(4096);
    let times = simnet::run_cluster::<Msg, _, _>(2, simnet::CostModel::default(), move |ctx| {
        let me = ctx.id();
        let mut inner = NodeInner::new(ctx, cfg);
        if me == 0 {
            let mut ccl = ftlog::CclLogger::new();
            for (seq, diff) in word_and_page_diffs(4096).into_iter().enumerate() {
                let interval = IntervalId {
                    node: 0,
                    seq: seq as u32,
                };
                ccl.on_diffs_created(&mut inner, interval, &[diff]);
            }
            ccl.flush_after_send(&mut inner);
            let [_, whole] = word_and_page_diffs(4096);
            let mut expected = Vec::new();
            for carried in [None, Some(whole.encoded_size()), Some(0)] {
                let env = inner.ctx.recv().expect("hello or logged diff request");
                let done = inner.ctx.service_time(&env);
                inner.serve_recovery_request(&mut ccl, &env, done);
                if let Some(bytes) = carried {
                    expected.push(done + inner.ctx.cost.cpu.copy(bytes));
                }
            }
            assert_eq!(
                inner.ctx.disk.counters().reads,
                0,
                "a survivor read its log"
            );
            expected
        } else {
            inner.ctx.send(0, Msg::RecoveryHello).expect("send");
            for seqs in [vec![1], vec![5]] {
                let ask = Msg::LoggedDiffRequest { page: 0, seqs };
                inner.ctx.send(0, ask).expect("send");
            }
            // Both replies, the hit's first.
            let is_reply = |m: &Msg| matches!(m, Msg::LoggedDiffReply { .. });
            let mut replies: Vec<_> = (0..2)
                .map(|_| {
                    let env = inner.ctx.wait_for_deferring(is_reply);
                    let Msg::LoggedDiffReply { diffs, .. } = env.payload else {
                        unreachable!("waited for a logged diff reply")
                    };
                    (diffs.is_empty(), env.sent_at)
                })
                .collect();
            replies.sort();
            assert!(!replies[0].0, "the hit missed");
            assert!(replies[1].0, "the miss hit");
            replies.into_iter().map(|(_, at)| at).collect()
        }
    });
    assert_eq!(
        times[1], times[0],
        "served at other times than arrival + handler + copy"
    );
}

#[test]
fn a_writer_that_crashed_serves_only_what_its_salvage_kept() {
    // Node 0 logs interval 0's diff, then interval 1's in a flush of its
    // own, and serves interval 0 to node 1 from memory. Then it crashes
    // mid-flush: the second record is torn off. The crash wiped the
    // diffs it served, and its salvaged log brings back only the first,
    // once the scan started at the salvage holds it; interval 1 is a
    // miss now, known once that scan holds the whole salvaged log.
    use hlrc::{DsmConfig, FaultTolerance, Msg, NodeInner};
    let cfg = DsmConfig::new(2, 4).with_page_size(256);
    let disk = simnet::CostModel::default().disk;
    let out = simnet::run_cluster::<Msg, _, _>(2, simnet::CostModel::default(), move |ctx| {
        let me = ctx.id();
        let mut inner = NodeInner::new(ctx, cfg);
        if me == 0 {
            let mut ccl = ftlog::CclLogger::new();
            for (seq, diff) in word_and_page_diffs(256).into_iter().enumerate() {
                let interval = IntervalId {
                    node: 0,
                    seq: seq as u32,
                };
                ccl.on_diffs_created(&mut inner, interval, &[diff]);
                ccl.flush_after_send(&mut inner);
            }
            let kept = inner.ctx.disk.stream_bytes(ftlog::CCL_STREAM)
                - inner.ctx.disk.peek_stream(ftlog::CCL_STREAM)[1].len();
            let env = inner.ctx.recv().expect("logged diff request");
            ccl.serve_logged_diffs(&mut inner, &env);
            // Long after node 1's next requests arrive.
            let later = inner.ctx.now() + SimDuration::from_millis(50);
            inner.ctx.wait_until(later);
            let crashed = inner.ctx.now();
            assert!(inner.ctx.disk.tear_last_flush(7, false));
            // The crash: node and logger restart with nothing but the
            // disk, as the runner restarts them.
            drop(ccl);
            let mut inner = inner.restart();
            let mut ccl = ftlog::CclLogger::new();
            ccl.begin_recovery(&mut inner);
            for _ in 0..2 {
                let env = inner.ctx.recv().expect("logged diff request");
                ccl.serve_logged_diffs(&mut inner, &env);
            }
            vec![(crashed + disk.drain_time(kept), 0)]
        } else {
            let ask = |inner: &mut NodeInner, seq: u32| {
                let ask = Msg::LoggedDiffRequest {
                    page: 0,
                    seqs: vec![seq],
                };
                inner.ctx.send(0, ask).expect("send");
            };
            let is_reply = |m: &Msg| matches!(m, Msg::LoggedDiffReply { .. });
            ask(&mut inner, 0);
            let served = inner.ctx.wait_for_deferring(is_reply);
            assert!(
                matches!(&served.payload, Msg::LoggedDiffReply { diffs, .. } if diffs.len() == 1)
            );
            ask(&mut inner, 1);
            ask(&mut inner, 0);
            // Both replies, by the diffs they carry: the miss first.
            let mut replies: Vec<_> = (0..2)
                .map(|_| {
                    let env = inner.ctx.wait_for_deferring(is_reply);
                    let Msg::LoggedDiffReply { diffs, .. } = env.payload else {
                        unreachable!("waited for a logged diff reply")
                    };
                    (env.sent_at, diffs.len())
                })
                .collect();
            replies.sort_by_key(|&(_, carried)| carried);
            replies
        }
    });
    let scanned = out[0][0].0;
    let carried: Vec<usize> = out[1].iter().map(|&(_, n)| n).collect();
    assert_eq!(carried, [0, 1], "not one miss (the cut diff) and one hit");
    for (sent, _) in &out[1] {
        assert!(
            *sent >= scanned,
            "an answer left at {sent:?}, before the scan held the log at {scanned:?}"
        );
    }
}

#[test]
fn a_replaying_node_forgets_the_images_of_a_home_that_says_it_crashed() {
    // Node 1 replays three barriers, each naming page 0 of node 0,
    // which is scripted. The first answer is an image at position 5.
    // Into the second wave node 0 says hello — it crashed, and the log
    // it rebuilds may hold another image at 5 — and then answers as its
    // dead incarnation would have: "the image you hold stands". Node 1
    // holds no such image any more, drops the copy instead of trusting
    // it, and names no held image in the third wave.
    use hlrc::{DsmConfig, HlrcNode, Msg, RecoveryImage, SyncKind, WriteNotice};
    use pagemem::{IntervalId, PageDiff, VClock};
    let cfg = DsmConfig::new(2, 4).with_page_size(256);
    let held = simnet::run_cluster::<Msg, _, _>(2, simnet::CostModel::default(), move |ctx| {
        if ctx.id() == 1 {
            let mut node = HlrcNode::new(ctx, cfg, Box::new(ftlog::CclLogger::new()));
            let mut vc = VClock::new(2);
            for epoch in 0..3 {
                let interval = IntervalId {
                    node: 0,
                    seq: epoch,
                };
                vc.observe(interval);
                let notice = WriteNotice { page: 0, interval };
                node.ft
                    .on_notices(&mut node.inner, SyncKind::Barrier(epoch), &[notice], &vc);
            }
            let ccl = Box::new(ftlog::CclLogger::new());
            let (mut node, _) = node.restart(ccl);
            node.barrier();
            assert!(node.inner.pages.entry(0).frame.is_some(), "restored");
            node.barrier();
            assert!(
                node.inner.pages.entry(0).frame.is_none(),
                "a delta against a forgotten image was trusted"
            );
            node.barrier();
            assert!(!node.ft.in_recovery());
            assert_eq!(node.inner.pages.frame(0).read_u64(0), 3);
            Vec::new()
        } else {
            let mut ctx = ctx;
            let image = |pos, v: u64| {
                let mut data = vec![0u8; 256];
                data[..8].copy_from_slice(&v.to_le_bytes());
                RecoveryImage::Image {
                    pos,
                    data: data.into(),
                }
            };
            let same = RecoveryImage::Delta {
                pos: 5,
                diff: PageDiff {
                    page: 0,
                    runs: Vec::new(),
                },
            };
            let reply = |ctx: &mut simnet::NodeCtx<Msg>, msg| ctx.send(1, msg).expect("send");
            let next = |ctx: &mut simnet::NodeCtx<Msg>| {
                let env = ctx.recv().expect("node 1 is waiting");
                ctx.absorb(&env);
                env.payload
            };
            assert_eq!(next(&mut ctx), Msg::RecoveryHello);
            let listed = Msg::RecoveryHelloReply {
                held: vec![0],
                complete: true,
                home_writes: vec![],
            };
            reply(&mut ctx, listed);
            let mut held = Vec::new();
            for answers in [
                vec![image(5, 1)],
                vec![RecoveryImage::Absent, same], // the first stands for the hello
                vec![image(1, 3)],
            ] {
                let Msg::RecoveryPageRequest { held: h, .. } = next(&mut ctx) else {
                    panic!("expected a recovery fetch");
                };
                held.push(h);
                for image in answers {
                    if image == RecoveryImage::Absent {
                        reply(&mut ctx, Msg::RecoveryHello);
                    } else {
                        reply(&mut ctx, Msg::RecoveryPageReply { page: 0, image });
                    }
                }
            }
            assert!(matches!(next(&mut ctx), Msg::RecoveryHelloReply { .. }));
            held
        }
    });
    assert_eq!(held[0], vec![None, Some(5), None]);
}

// ------------------------------------------------------------
// Waves: what replay still waits for
// ------------------------------------------------------------

#[test]
fn the_pages_the_first_replayed_interval_writes_are_restored_in_one_wave() {
    // Node 1 writes one word of each of six pages homed at nodes 0 and
    // 2 every round, and fails. Its first replayed interval writes all
    // six before any sync, so no notice names them: its own logged
    // diffs do. Recovery asks for the six at one instant, before replay
    // starts, and opens them for writing: the interval takes no write
    // fault on any of them.
    const PER_HOME: usize = 3;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let a = dsm.alloc_at::<u64>(PER_HOME * words, 0);
        let b = dsm.alloc_at::<u64>(PER_HOME * words, 2);
        let mut seen = 0u64;
        for round in 1..=4u64 {
            if dsm.me() == 1 {
                for p in 0..PER_HOME {
                    dsm.write(&a, p * words + 1, round);
                    dsm.write(&b, p * words + 1, 10 * round);
                }
            }
            dsm.barrier();
            if dsm.me() != 1 {
                for p in 0..PER_HOME {
                    seen = fold(seen, dsm.read(&a, p * words + 1));
                    seen = fold(seen, dsm.read(&b, p * words + 1));
                }
            }
            dsm.barrier();
        }
        seen
    };
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    let clean = run_program(base.clone(), program);
    let out = run_program(base.with_crash(CrashPlan::new(1, 6)), program);
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(a.result, b.result, "node {} diverged", a.node);
    }
    // The six pages: what the victim's fault-free run write-faults on.
    let written: BTreeSet<u32> = clean.nodes[1]
        .trace
        .iter()
        .filter_map(|ev| match ev.kind {
            TraceKind::WriteFault { page } => Some(page),
            _ => None,
        })
        .collect();
    assert_eq!(written.len(), 2 * PER_HOME);
    // The recovery window up to the first replayed sync, in trace order.
    let window: Vec<_> = out.nodes[1]
        .trace
        .iter()
        .skip_while(|ev| ev.kind != TraceKind::Crash)
        .take_while(|ev| !matches!(ev.kind, TraceKind::RecoveryReplay { .. }))
        .collect();
    let asked: Vec<ccl_core::SimTime> = window
        .iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                TraceKind::MsgSend {
                    msg: "RecoveryPageRequest",
                    ..
                }
            )
        })
        .map(|ev| ev.at)
        .collect();
    assert_eq!(asked.len(), 2 * PER_HOME, "pages restored before replay");
    assert!(
        asked.iter().all(|t| *t == asked[0]),
        "the restores left at {asked:?}, not at one instant"
    );
    let trapped: Vec<_> = window
        .iter()
        .filter_map(|ev| match ev.kind {
            TraceKind::WriteFault { page } if written.contains(&page) => Some(page),
            _ => None,
        })
        .collect();
    assert_eq!(
        trapped,
        vec![],
        "the first replayed interval trapped on pages its log names"
    );
}

#[test]
fn a_wave_sent_ahead_is_absorbed_at_its_sync_not_when_it_arrives() {
    // Node 2 rewrites, at the start of every round, the word of its
    // page P that node 1 does *not* read that round (they alternate),
    // and computes on. Node 1 fetches P mid-round, so the image it is
    // sent in round r holds node 2's round-r value of the word node 1
    // read in round r - 1 — unread, concurrent. Replaying round r, node
    // 1 has the next barrier's wave in flight, and its answer for P is
    // the image of round r + 1: the word node 1 reads in round r, with
    // the value node 2 writes into it a round later. That answer
    // arrives while round r's read of a fresh page Q_r waits on demand,
    // and round r then reads P — which must still be the copy the last
    // barrier restored.
    const ROUNDS: u64 = 6;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let qs = dsm.alloc_at::<u64>(ROUNDS as usize * words, 0);
        let p = dsm.alloc_at::<u64>(words, 2);
        let mut seen = 0u64;
        for round in 1..=ROUNDS {
            let (write, read) = ((round % 2) as usize, (1 - round % 2) as usize);
            match dsm.me() {
                1 => {
                    seen = fold(seen, dsm.read(&qs, (round as usize - 1) * words));
                    dsm.charge_flops(100_000);
                    seen = fold(seen, dsm.read(&p, read));
                }
                2 => {
                    dsm.write(&p, write, round);
                    dsm.charge_flops(1_000_000);
                }
                _ => {}
            }
            dsm.barrier();
        }
        seen
    };
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    let clean = run_program(base.clone(), program);
    let out = run_program(base.with_crash(CrashPlan::new(1, 5)), program);
    assert!(out.recovery_time().is_some(), "crash was not injected");
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(
            a.result, b.result,
            "node {}: a replayed read saw the next barrier's image",
            a.node
        );
    }
    // The case the test is about happened: replay restored the Q pages
    // on demand, with P's next wave in flight.
    let victim = &out.nodes[1];
    let crashed = victim.crashed_at.expect("crash time");
    let exit = victim.recovery_exit.expect("recovery never completed");
    let on_demand = victim
        .trace
        .iter()
        .filter(|ev| ev.at >= crashed && ev.at <= exit)
        .filter(|ev| matches!(ev.kind, TraceKind::ReadFault { .. }))
        .count();
    assert!(on_demand >= 4, "{on_demand} pages restored on demand");
}

// ------------------------------------------------------------
// Replayed writes: what the log lets replay skip
// ------------------------------------------------------------

/// The pages `victim` write-faults on between its crash and the end of
/// its recovery, in trace order.
fn replay_write_faults(victim: &ccl_core::NodeOutput<u64>) -> Vec<u32> {
    victim
        .trace
        .iter()
        .skip_while(|ev| ev.kind != TraceKind::Crash)
        .take_while(|ev| ev.kind != TraceKind::RecoveryEnd)
        .filter_map(|ev| match ev.kind {
            TraceKind::WriteFault { page } => Some(page),
            _ => None,
        })
        .collect()
}

#[test]
fn replayed_writes_to_logged_pages_take_no_trap() {
    // Every round node 1 takes lock 1 only to read page S (an interval
    // that writes nothing, closed by the release), then writes one word
    // of each of four pages homed at nodes 0 and 2, and a word of S with
    // the value it already holds: an empty diff, so S is in no `Diffs`
    // record. Replaying, node 1 opens the four pages at each acquire —
    // its log names them — and the release in between books none of
    // them: each is booked by the interval that writes it. S, which
    // nothing in the log names, traps and is twinned as it was live,
    // once per replayed round.
    const PER_HOME: usize = 2;
    const ROUNDS: u64 = 6;
    // Pages are allocated in order from page 0: S follows the four.
    const S: u32 = 2 * PER_HOME as u32;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let a = dsm.alloc_at::<u64>(PER_HOME * words, 0);
        let b = dsm.alloc_at::<u64>(PER_HOME * words, 2);
        let s = dsm.alloc_at::<u64>(words, 0);
        let mut seen = 0u64;
        for round in 1..=ROUNDS {
            if dsm.me() == 1 {
                dsm.acquire(1);
                seen = fold(seen, dsm.read(&s, 0));
                dsm.release(1);
                for p in 0..PER_HOME {
                    dsm.write(&a, p * words + 1, round);
                    dsm.write(&b, p * words + 1, 10 * round);
                }
                dsm.write(&s, 0, 0);
            }
            dsm.barrier();
            if dsm.me() != 1 {
                for p in 0..PER_HOME {
                    seen = fold(seen, dsm.read(&a, p * words + 1));
                    seen = fold(seen, dsm.read(&b, p * words + 1));
                }
            }
            dsm.barrier();
        }
        seen
    };
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    let clean = run_program(base.clone(), program);
    let out = run_program(base.with_crash(CrashPlan::new(1, 2 * ROUNDS - 2)), program);
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(a.result, b.result, "node {} diverged", a.node);
    }
    let replayed = ROUNDS - 1;
    let victim = &out.nodes[1];
    assert_eq!(
        replay_write_faults(victim),
        vec![S; replayed as usize],
        "replay trapped on a page its log names, or not on the silent one"
    );
    // Live, every twin is diffed; replay twinned S alone.
    let stats = &victim.stats;
    assert_eq!(stats.diffs_created, clean.nodes[1].stats.diffs_created);
    assert_eq!(stats.twins_created - stats.diffs_created, replayed);
}

#[test]
fn a_replay_that_may_be_abandoned_opens_nothing() {
    // Every round node 1 writes page P, homed at node 0, and page Q, its
    // own, then takes lock 1 and lets it go. The acquire flushes P's
    // diff; its `Sync` record waits for the barrier's flush, and the
    // crash after that barrier tears the whole batch away. The log now
    // ends in P's diff, and the barrier record is synthesized from the
    // manager's history. Replay meets it where it expected the acquire
    // and goes live there: that interval end needs P's twin. So replay
    // must not open P at the barrier before — the segment ends in a
    // record that may abandon it — and P traps in the replayed round as
    // it did live. Nor Q, which the manager's list names just as the log
    // names P: the rule is one for both.
    const ROUNDS: u64 = 4;
    // A tear seed that keeps none of a two-record batch.
    const TEAR_EVERYTHING: u64 = 2;
    // Pages are allocated in order from page 0.
    const P: u32 = 0;
    const Q: u32 = 1;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let p = dsm.alloc_at::<u64>(words, 0);
        let q = dsm.alloc_at::<u64>(words, 1);
        let mut seen = 0u64;
        for round in 1..=ROUNDS {
            if dsm.me() == 1 {
                dsm.write(&p, 1, round);
                dsm.write(&q, 1, 10 * round);
                dsm.acquire(1);
                dsm.release(1);
            }
            dsm.barrier();
            if dsm.me() != 1 {
                seen = fold(seen, dsm.read(&p, 1));
                seen = fold(seen, dsm.read(&q, 1));
            }
            dsm.barrier();
        }
        seen
    };
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    let clean = run_program(base.clone(), program);
    let crash = CrashPlan::new(1, 2 * ROUNDS - 3).with_torn_tail(TEAR_EVERYTHING);
    let out = run_program(base.with_crash(crash), program);
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(a.result, b.result, "node {} diverged", a.node);
    }
    let victim = &out.nodes[1];
    assert_eq!(victim.disk.torn_records, 2, "the tear kept a sync record");
    // The rounds before, which a real record closes, open both pages
    // (the manager's list came in with the release history the torn
    // log made replay fetch first).
    assert_eq!(
        replay_write_faults(victim),
        vec![P, Q],
        "replay opened a page before a synthesized record, or trapped on one before a real one"
    );
    assert_eq!(victim.stats.recovery_traps, 2);
}

/// Node 1's program for the replayed home-write tests: every round an
/// empty critical section under lock 1, one word of each of `HOME` of
/// its own pages, then under lock 2 a word of one more of its own pages
/// — all read by the other nodes after the barrier. With `read_first`,
/// each round starts with a read of a page of node 0 that nobody writes.
fn home_writer(read_first: bool) -> impl Fn(&mut ccl_core::Dsm) -> u64 + Clone {
    const HOME: usize = 4;
    move |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let h = dsm.alloc_at::<u64>((HOME + 1) * words, 1);
        let r = dsm.alloc_at::<u64>(words, 0);
        let mut seen = 0u64;
        for round in 1..=6u64 {
            if dsm.me() == 1 {
                if read_first {
                    seen = fold(seen, dsm.read(&r, 0));
                }
                dsm.acquire(1);
                dsm.release(1);
                for p in 0..HOME {
                    dsm.write(&h, p * words + 1, round);
                }
                dsm.acquire(2);
                dsm.write(&h, HOME * words + 1, 10 * round);
                dsm.release(2);
            }
            dsm.barrier();
            if dsm.me() != 1 {
                for p in 0..=HOME {
                    seen = fold(seen, dsm.read(&h, p * words + 1));
                }
            }
            dsm.barrier();
        }
        seen
    }
}

#[test]
fn replayed_home_writes_take_no_trap() {
    // Node 1's own log names none of the home pages it writes (a home
    // write makes no diff, and its `Sync` records hold only the notices
    // it received); the barrier manager's release history does, and
    // the manager's hello reply hands them over. Replay opens each page
    // at the sync before the interval that writes it — the four after
    // the empty critical section, whose release books none of them, and
    // the fifth inside lock 2 — so the live run's five traps a round are
    // gone. One is left when the first replayed home write comes before
    // the manager's reply has been taken in: that trap is paid anyway,
    // waits for the reply and opens the rest. Read a page of node 0
    // first, and the restore of it takes the reply in before any home
    // write: no trap at all but that read's.
    const ROUNDS: u64 = 6;
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    for read_first in [false, true] {
        let program = home_writer(read_first);
        let clean = run_program(base.clone(), program.clone());
        let out = run_program(
            base.clone().with_crash(CrashPlan::new(1, 2 * ROUNDS - 2)),
            program,
        );
        for (a, b) in clean.nodes.iter().zip(&out.nodes) {
            assert_eq!(a.result, b.result, "node {} diverged", a.node);
        }
        // Live, every round trapped on all five home pages.
        assert_eq!(clean.nodes[1].stats.write_faults, 5 * ROUNDS);
        let victim = &out.nodes[1];
        let (traps, reads) = match read_first {
            false => (vec![0], 0),
            true => (vec![], 1),
        };
        assert_eq!(
            replay_write_faults(victim),
            traps,
            "read first: {read_first}: replay trapped on a home page the manager listed"
        );
        assert_eq!(victim.stats.recovery_traps, traps.len() as u64 + reads);
    }
}

#[test]
fn a_victim_without_the_managers_list_traps_at_home() {
    // The barrier manager itself fails: nobody holds a history of its
    // writes to hand it (its own went with its volatile memory), so no
    // hello reply lists any, and replay traps on each home page of each
    // replayed interval exactly where the live run did — and still
    // reaches the fault-free digest.
    const ROUNDS: u64 = 6;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let h = dsm.alloc_at::<u64>(3 * words, 0);
        let mut seen = 0u64;
        for round in 1..=ROUNDS {
            if dsm.me() == 0 {
                for p in 0..3 {
                    dsm.write(&h, p * words + 1, round + p as u64);
                }
            }
            dsm.barrier();
            if dsm.me() != 0 {
                for p in 0..3 {
                    seen = fold(seen, dsm.read(&h, p * words + 1));
                }
            }
            dsm.barrier();
        }
        seen
    };
    let base = ClusterSpec::new(3, 8)
        .with_page_size(256)
        .with_protocol(Protocol::Ccl);
    let clean = run_program(base.clone(), program);
    let out = run_program(base.with_crash(CrashPlan::new(0, 2 * ROUNDS - 2)), program);
    for (a, b) in clean.nodes.iter().zip(&out.nodes) {
        assert_eq!(a.result, b.result, "node {} diverged", a.node);
    }
    let victim = &out.nodes[0];
    let live: Vec<u32> = victim
        .trace
        .iter()
        .take_while(|ev| ev.kind != TraceKind::Crash)
        .filter_map(|ev| match ev.kind {
            TraceKind::WriteFault { page } => Some(page),
            _ => None,
        })
        .collect();
    assert_eq!(live.len() as u64, 3 * (ROUNDS - 1));
    assert_eq!(replay_write_faults(victim), live);
    assert_eq!(victim.stats.recovery_traps, live.len() as u64);
}

// ------------------------------------------------------------
// Served images: what the home-write twins used to guarantee
// ------------------------------------------------------------

/// Fold a sequence of values read into a digest that depends on each
/// value and on their order.
fn fold(digest: u64, v: u64) -> u64 {
    digest.wrapping_mul(1_000_003).wrapping_add(v)
}

#[test]
fn a_replayed_read_never_sees_the_homes_later_write() {
    // The future-write hazard. Node 0 rewrites word W of its own page
    // every round; node 1 reads W every round and fails after round 5
    // of 8. While it replays, node 0 is parked one barrier ahead with
    // round 6 already in W — a value node 1's replayed reads of rounds
    // 1..=5 must never see. No diff of W exists anywhere (a home write
    // makes none): each round's value comes back from the reply buffer
    // node 0 retained when node 1 first fetched it. ML, which replays
    // the replies it logged itself, is the oracle.
    const W: usize = 3;
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let p = dsm.alloc_at::<u64>(words, 0);
        let mut seen = 0u64;
        for round in 1..=8u64 {
            if dsm.me() == 0 {
                dsm.write(&p, W, round);
            }
            dsm.barrier();
            if dsm.me() == 1 {
                seen = fold(seen, dsm.read(&p, W));
            }
            dsm.barrier();
        }
        seen
    };
    let rounds_in_order = (1..=8).fold(0, fold);
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let base = ClusterSpec::new(3, 8)
            .with_page_size(256)
            .with_protocol(protocol);
        let clean = run_program(base.clone(), program);
        let out = run_program(base.with_crash(CrashPlan::new(1, 10)), program);
        assert_eq!(clean.nodes[1].result, rounds_in_order);
        assert_eq!(
            out.nodes[1].result, rounds_in_order,
            "{protocol:?}: a replayed read saw another round's value"
        );
        assert!(out.recovery_time().is_some(), "crash was not injected");
        if protocol == Protocol::Ccl {
            // Restored from node 0's served images, with no twin made
            // and no logged diff to fetch.
            assert_eq!(out.total_stats().twins_created, 0);
            assert!(out.nodes[0].stats.msgs_by_kind[tag("RecoveryPageReply")] >= 5);
            assert_eq!(out.total_stats().msgs_by_kind[tag("LoggedDiffRequest")], 0);
        }
    }
}

#[test]
fn ccl_pays_nothing_for_a_home_write() {
    // Every node rewrites its own block every round and reads its
    // neighbour's: all writes are home writes that someone fetched.
    // HLRC makes no twin and no diff for them, and neither does CCL —
    // what it logs is a barrier record of a few bytes per round.
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let (me, n) = (dsm.me(), dsm.nodes());
        let grid = dsm.alloc_blocked::<u64>(n * 4 * words);
        let mut sum = 0u64;
        for round in 0..8u64 {
            for i in 0..4 * words {
                dsm.write(&grid, me * 4 * words + i, round * 1000 + i as u64);
            }
            dsm.charge_flops(2_000_000);
            dsm.barrier();
            for i in 0..4 * words {
                sum = fold(sum, dsm.read(&grid, ((me + 1) % n) * 4 * words + i));
            }
            dsm.barrier();
        }
        sum
    };
    let run = |protocol| {
        let spec = ClusterSpec::new(4, 24).with_protocol(protocol);
        run_program(spec, program)
    };
    let (none, ccl) = (run(Protocol::None), run(Protocol::Ccl));
    for (a, b) in none.nodes.iter().zip(&ccl.nodes) {
        assert_eq!(a.result, b.result);
    }
    assert_eq!(none.total_stats().twins_created, 0);
    assert_eq!(ccl.total_stats().twins_created, 0);
    assert_eq!(ccl.total_stats().diffs_created, 0);
    assert!(
        ccl.total_stats().page_fetches > 0,
        "nobody read a home write"
    );
    let (none_ns, ccl_ns) = (none.exec_time().as_nanos(), ccl.exec_time().as_nanos());
    assert!(
        ccl_ns >= none_ns && (ccl_ns - none_ns) * 1000 < none_ns,
        "CCL took {ccl_ns} ns against {none_ns} ns without logging"
    );
}

#[test]
fn small_writes_get_small_recovery_replies() {
    // A lock-protected counter in word 0 of a page whose home also
    // writes word 1 of it, every round. The failed node's replayed
    // acquires restore the page each time a holder before it wrote it:
    // the first answer is the page, every later one a diff against the
    // image the node already holds — a few words, not 4 KB.
    let program = |dsm: &mut ccl_core::Dsm| {
        let words = dsm.page_size() / 8;
        let c = dsm.alloc_at::<u64>(words, 0);
        for round in 0..6u64 {
            if dsm.me() == 0 {
                dsm.write(&c, 1, round);
            }
            dsm.acquire(1);
            let v = dsm.read(&c, 0);
            dsm.write(&c, 0, v + 1);
            dsm.release(1);
            dsm.barrier();
        }
        dsm.read(&c, 0)
    };
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let spec = ClusterSpec::new(4, 8)
            .with_protocol(protocol)
            .with_crash(CrashPlan::new(1, 5));
        let page = spec.page_size as u64;
        let out = run_program(spec, program);
        assert!(out.recovery_time().is_some(), "crash was not injected");
        assert_eq!(
            out.nodes.iter().map(|n| n.result).collect::<Vec<_>>(),
            vec![24; 4],
            "{protocol:?}: lost or doubled increments"
        );
        if protocol == Protocol::Ccl {
            let home = &out.nodes[0].stats;
            let replies = home.msgs_by_kind[tag("RecoveryPageReply")];
            let bytes = home.bytes_by_kind[tag("RecoveryPageReply")];
            assert!(replies >= 4, "only {replies} recovery replies");
            assert!(
                bytes < replies * page / 2,
                "{replies} recovery replies took {bytes} bytes"
            );
        }
    }
}

#[test]
fn a_word_written_back_to_its_old_value_is_restored() {
    // Node 1 finds a flag clear under a lock, sets it and fails later;
    // node 2 clears it again each round and, if `stamp`, writes the
    // round into the word next to it. When node 1 replays, the image it
    // is brought up to date *to* has the flag exactly as the image it
    // was restored *from* had it — a diff between the two images does
    // not mention the flag (and without the stamp is empty), while node
    // 1's own copy holds the 1 it re-executed. Whatever the home sends
    // must still leave the flag clear. ML is the oracle.
    fn program(dsm: &mut ccl_core::Dsm, stamp: bool) -> u64 {
        let words = dsm.page_size() / 8;
        let p = dsm.alloc_at::<u64>(words, 0);
        let mut seen = 0u64;
        for round in 1..=6u64 {
            if dsm.me() == 1 {
                dsm.acquire(1);
                seen = fold(seen, dsm.read(&p, 0));
                dsm.write(&p, 0, 1);
                dsm.release(1);
            }
            dsm.barrier();
            if dsm.me() == 2 {
                dsm.acquire(1);
                seen = fold(seen, dsm.read(&p, 0));
                dsm.write(&p, 0, 0);
                if stamp {
                    dsm.write(&p, 1, round);
                }
                dsm.release(1);
            }
            dsm.barrier();
        }
        seen
    }
    let always = |v| (0..6).fold(0, |d, _| fold(d, v));
    for (protocol, stamp) in [
        (Protocol::Ml, true),
        (Protocol::Ccl, true),
        (Protocol::Ccl, false),
    ] {
        let spec = ClusterSpec::new(3, 8)
            .with_protocol(protocol)
            .with_crash(CrashPlan::new(1, 9));
        let page = spec.page_size as u64;
        let out = run_program(spec, move |dsm| program(dsm, stamp));
        assert!(out.recovery_time().is_some(), "crash was not injected");
        assert_eq!(
            (out.nodes[1].result, out.nodes[2].result),
            (always(0), always(1)),
            "{protocol:?}, stamp {stamp}: a replayed read saw a flag its last writer had cleared"
        );
        if protocol == Protocol::Ccl {
            // And it took less than whole pages to get that right.
            let home = &out.nodes[0].stats;
            let replies = home.msgs_by_kind[tag("RecoveryPageReply")];
            let bytes = home.bytes_by_kind[tag("RecoveryPageReply")];
            assert!(replies >= 4, "only {replies} recovery replies");
            assert!(
                bytes < replies * page / 2,
                "{replies} recovery replies took {bytes} bytes"
            );
        }
    }
}

// ------------------------------------------------------------
// Lock-manager crash: the epoch fence
// ------------------------------------------------------------

/// Three rounds of: every node dirties `w` of its own blocked-home
/// pages (which sizes the barrier release, and so how long the other
/// nodes' releases trail the barrier manager's own exit), barrier, one
/// lock-protected increment. Node 1 manages lock 1 and fails right
/// after barrier 2 — the barrier inside which, without the fence, it
/// grants lock 1 to a node that left the barrier before it did, and
/// then forgets the grant.
fn lock_manager_crash_counter(protocol: Protocol, w: usize) -> Vec<u64> {
    const PER_NODE: usize = 64;
    let spec = ClusterSpec::new(4, 4 * PER_NODE as u32 + 24)
        .with_page_size(256)
        .with_protocol(protocol)
        .with_crash(CrashPlan::new(1, 2));
    let out = run_program(spec, move |dsm| {
        let words = dsm.page_size() / 8;
        let c = dsm.alloc_at::<u64>(512, 0);
        let grid = dsm.alloc_blocked::<u64>(4 * PER_NODE * words);
        for r in 0..3u64 {
            let mine = dsm.me() * PER_NODE;
            for p in 0..w {
                dsm.write(&grid, (mine + p) * words, r + 1);
            }
            dsm.barrier();
            dsm.acquire(1);
            let v = dsm.read(&c, 0);
            dsm.write(&c, 0, v + 1);
            dsm.release(1);
        }
        dsm.barrier();
        dsm.read(&c, 0)
    });
    assert!(out.recovery_time().is_some(), "crash was not injected");
    out.nodes.iter().map(|n| n.result).collect()
}

#[test]
fn a_crashed_lock_manager_loses_no_grant() {
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        for w in [0, 8, 56] {
            assert_eq!(
                lock_manager_crash_counter(protocol, w),
                vec![12; 4],
                "{protocol:?}, {w} pages dirtied per node and round: lost updates"
            );
        }
    }
}
