//! Chaos harness: the applications must produce their exact fault-free
//! digests under randomized-but-seeded fault schedules — message drops,
//! duplicates, delivery jitter, link partitions, disk write faults, and
//! multi-crash recovery.
//!
//! Schedules are drawn from `minicheck` streams, so every failure
//! reports a seed that reproduces the exact schedule via
//! `minicheck::check_seed`. The number of random schedules per property
//! is `CHAOS_SCHEDULES` (default 8); `scripts/verify.sh` runs this file
//! only through its `cargo test -q --workspace` stage, at that default.

use std::cell::Cell;

use ccl_apps::App;
use ccl_core::{
    run_program, ClusterSpec, CrashPlan, DiskFaultPlan, Dsm, FaultPlan, LogObj, Partition,
    Protocol, RunOutput, SimDuration, SimTime, TraceKind,
};
use minicheck::{check, Rng};

const NODES: usize = 4;

fn schedules() -> u64 {
    std::env::var("CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

fn tiny_spec(app: App, protocol: Protocol) -> ClusterSpec {
    let page = 256;
    ClusterSpec::new(NODES, app.tiny_pages(page) + 4)
        .with_page_size(page)
        .with_protocol(protocol)
}

/// A randomized message-fault schedule: at least 1% drop probability,
/// duplication, jitter, and (half the time) one link-partition window
/// early in the run.
fn random_faults(rng: &mut Rng) -> FaultPlan {
    let drop = rng.u32_in(10, 60) as u16; // 1.0% .. 6.0% per transmission
    let dup = rng.u32_in(10, 40) as u16;
    let mut plan = FaultPlan::lossy(rng.next_u64(), drop, dup);
    if rng.bool() {
        let a = rng.usize_in(0, NODES);
        let b = (a + rng.usize_in(1, NODES)) % NODES;
        let from = SimTime(rng.u64_in(100_000, 2_000_000));
        let until = from + SimDuration::from_micros(rng.u64_in(100, 1_000));
        plan = plan.with_partition(Partition { a, b, from, until });
    }
    plan
}

/// The observability invariant: every clock advance is charged to
/// exactly one of compute/wait/disk/hidden, so the four sum to the
/// node's finish time under any fault schedule — and between a crash
/// and the end of its recovery, compute/wait/disk sum to the recovery
/// window (`RunOutput::recovery_time` is the first such window).
/// Failures name the fault seed for reproduction.
fn check_phase_accounting(name: &str, protocol: Protocol, seed: u64, out: &RunOutput<u64>) {
    for n in &out.nodes {
        assert_eq!(
            n.phases.total().as_nanos(),
            n.finish.as_nanos(),
            "{name} under {:?}: node {} phase accounting leaks \
             (fault seed {seed:#018x}): {:?} vs finish {:?}",
            protocol,
            n.node,
            n.phases,
            n.finish
        );
        if let (Some(crashed), Some(exit)) = (n.crashed_at, n.recovery_exit) {
            let window = n.recovery_phases.expect("recovery window without phases");
            assert_eq!(
                window.total(),
                exit.saturating_since(crashed),
                "{name} under {:?}: node {} recovery-window accounting leaks \
                 (fault seed {seed:#018x}): {window:?}",
                protocol,
                n.node
            );
        }
    }
}

/// Run `app` under `spec` and check it ([`Program::run_and_check`]).
fn run_and_check(app: App, spec: ClusterSpec) -> RunOutput<u64> {
    Program::App(app).run_and_check(spec)
}

/// What a run executes: a shipped application's tiny instance, or the
/// multi-writer kernel below.
#[derive(Debug, Clone, Copy)]
enum Program {
    App(App),
    MultiWriter,
}

const MW_PAGES: usize = 8;
const MW_ROUNDS: usize = 4;

/// The value word `idx` holds after `round`: never the round before's,
/// so every written word lands in a diff.
fn mw_value(round: usize, idx: usize) -> u64 {
    ((round as u64 + 1) << 32) | idx as u64
}

/// Barrier-only multi-writer kernel (the shape of `benchmark/`'s
/// `multiwriter-matrix`): every node writes a word stripe of every
/// page, so each home applies a diff from every other node each round
/// — the only shape with `Updates` records in a crashed home's log —
/// then every node reads everything.
fn multiwriter(dsm: &mut Dsm, words: usize) -> u64 {
    let (me, nodes) = (dsm.me(), dsm.nodes());
    let arr = dsm.alloc_blocked::<u64>(MW_PAGES * words);
    let mut sum = 0u64;
    for round in 0..MW_ROUNDS {
        for idx in (0..MW_PAGES * words).filter(|idx| idx % nodes == me) {
            dsm.write(&arr, idx, mw_value(round, idx));
        }
        dsm.barrier();
        for idx in 0..MW_PAGES * words {
            sum = sum.wrapping_mul(31).wrapping_add(dsm.read(&arr, idx));
        }
        dsm.barrier();
    }
    sum
}

fn multiwriter_reference(words: usize) -> u64 {
    let mut sum = 0u64;
    for round in 0..MW_ROUNDS {
        for idx in 0..MW_PAGES * words {
            sum = sum.wrapping_mul(31).wrapping_add(mw_value(round, idx));
        }
    }
    sum
}

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::App(app) => app.name(),
            Program::MultiWriter => "multiwriter",
        }
    }

    fn tiny_spec(self, protocol: Protocol) -> ClusterSpec {
        match self {
            Program::App(app) => tiny_spec(app, protocol),
            Program::MultiWriter => ClusterSpec::new(NODES, MW_PAGES as u32 + 4)
                .with_page_size(256)
                .with_protocol(protocol),
        }
    }

    /// Run under `spec` and assert every node returns the serial
    /// reference digest **and** balances its phase accounting (see
    /// [`check_phase_accounting`]).
    fn run_and_check(self, spec: ClusterSpec) -> RunOutput<u64> {
        let protocol = spec.protocol;
        let seed = spec.faults.seed;
        let words = spec.page_size / 8;
        let expect = match self {
            Program::App(app) => app.tiny_reference(),
            Program::MultiWriter => multiwriter_reference(words),
        };
        let out = run_program(spec, move |dsm| match self {
            Program::App(app) => app.run_tiny(dsm),
            Program::MultiWriter => multiwriter(dsm, words),
        });
        for n in &out.nodes {
            assert_eq!(
                n.result,
                expect,
                "{} under {:?} diverged on node {} (fault seed {seed:#018x})",
                self.name(),
                protocol,
                n.node
            );
        }
        check_phase_accounting(self.name(), protocol, seed, &out);
        out
    }
}

/// Like [`run_and_check`] but without the digest assertion: for fault
/// classes where mid-history state is genuinely unrecoverable (e.g.
/// bit rot landing in the middle of a log), the contract is completion
/// and honest accounting, not exact convergence.
fn run_and_complete(app: App, spec: ClusterSpec) -> RunOutput<u64> {
    let protocol = spec.protocol;
    let seed = spec.faults.seed;
    let out = run_program(spec, move |dsm| app.run_tiny(dsm));
    check_phase_accounting(app.name(), protocol, seed, &out);
    out
}

fn count_recoveries(out: &RunOutput<u64>) -> usize {
    out.nodes
        .iter()
        .map(|n| {
            n.trace
                .iter()
                .filter(|ev| matches!(ev.kind, TraceKind::RecoveryBegin))
                .count()
        })
        .sum()
}

// ------------------------------------------------------------
// Message-fault schedules: every app x protocol
// ------------------------------------------------------------

/// Each random schedule perturbs the network; digests must not move.
/// Across the whole schedule set the reliable layer must actually have
/// fired (retransmissions, suppressed duplicates, or timeouts) — a plan
/// that never perturbs anything would make the property vacuous.
fn message_chaos(protocol: Protocol) {
    for app in App::ALL {
        let perturbed = Cell::new(0u64);
        let name = format!("chaos-msg-{}-{}", app.name(), protocol.label());
        check(&name, schedules(), |rng| {
            let spec = tiny_spec(app, protocol).with_faults(random_faults(rng));
            let out = run_and_check(app, spec);
            let t = out.total_stats();
            perturbed.set(perturbed.get() + t.retransmits + t.dups_suppressed + t.timeouts);
        });
        assert!(
            perturbed.get() > 0,
            "{name}: no schedule perturbed a single message"
        );
    }
}

#[test]
fn message_faults_preserve_digests_none() {
    message_chaos(Protocol::None);
}

#[test]
fn message_faults_preserve_digests_ml() {
    message_chaos(Protocol::Ml);
}

#[test]
fn message_faults_preserve_digests_ccl() {
    message_chaos(Protocol::Ccl);
}

/// With the default fault-free plan the transport must stay untouched:
/// two runs are cycle-identical and no reliable-layer counter moves.
#[test]
fn fault_free_plan_leaves_runs_untouched() {
    let app = App::Fft3d;
    for protocol in Protocol::ALL {
        let a = run_and_check(app, tiny_spec(app, protocol));
        let b = run_and_check(app, tiny_spec(app, protocol));
        assert_eq!(
            a.exec_time(),
            b.exec_time(),
            "{:?}: fault-free runs must be cycle-identical",
            protocol
        );
        let t = a.total_stats();
        assert_eq!(
            t.retransmits + t.dups_suppressed + t.timeouts,
            0,
            "{protocol:?}: fault machinery fired without a fault plan"
        );
    }
}

// ------------------------------------------------------------
// Phase accounting across the whole matrix
// ------------------------------------------------------------

/// The observability invariant, exhaustively: for every application,
/// every Table 2 protocol, and two fault schedules (clean, and a lossy
/// network — plus a crash where a recovery protocol can replay), each
/// node's compute + wait + disk + hidden time equals its finish time.
/// `run_and_check` asserts the balance per node, so this test is the
/// matrix driver; the randomized chaos properties above re-check it on
/// every schedule they draw.
#[test]
fn phase_accounting_balances_across_the_matrix() {
    for app in App::ALL {
        for protocol in Protocol::ALL {
            run_and_check(app, tiny_spec(app, protocol));
            let mut faulty =
                tiny_spec(app, protocol).with_faults(FaultPlan::lossy(0xFA57_AC1D, 15, 10));
            if protocol != Protocol::None {
                faulty = faulty.with_crash(CrashPlan::new(1, 3));
            }
            run_and_check(app, faulty);
        }
    }
}

// ------------------------------------------------------------
// Crashes under a lossy network, and multi-crash schedules
// ------------------------------------------------------------

/// A crash plus a lossy network at once: recovery replays from the log
/// while the reliable layer keeps repairing live traffic.
#[test]
fn crash_recovery_survives_lossy_network() {
    let app = App::Shallow;
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let spec = tiny_spec(app, protocol)
            .with_faults(FaultPlan::lossy(0xC0FFEE, 20, 10))
            .with_crash(CrashPlan::new(1, 3));
        let out = run_and_check(app, spec);
        assert!(out.recovery_time().is_some(), "{protocol:?}: no recovery");
        assert!(out.total_stats().retransmits > 0);
    }
}

/// `program` with two crashes, on a clean or faulty network: every node
/// reaches the fault-free digest, exactly two recoveries ran, and a
/// second run of the same spec is bit-identical.
fn two_crashes_of(
    program: Program,
    protocol: Protocol,
    [first, second]: [CrashPlan; 2],
    faults: FaultPlan,
) -> RunOutput<u64> {
    let spec = program
        .tiny_spec(protocol)
        .with_faults(faults)
        .with_crash(first)
        .with_crash(second);
    let out = program.run_and_check(spec.clone());
    let what = format!(
        "{} under {protocol:?}, {first:?} + {second:?}",
        program.name()
    );
    assert_eq!(count_recoveries(&out), 2, "{what}: expected two recoveries");
    let again = program.run_and_check(spec);
    for (a, b) in out.nodes.iter().zip(&again.nodes) {
        assert_eq!(
            (a.finish, a.recovery_exit, a.log_bytes_on_disk, a.phases),
            (b.finish, b.recovery_exit, b.log_bytes_on_disk, b.phases),
            "{what}: node {} differs between two runs",
            a.node
        );
    }
    out
}

fn two_crashes(protocol: Protocol, first: CrashPlan, second: CrashPlan) -> RunOutput<u64> {
    two_crashes_of(
        Program::App(App::Fft3d),
        protocol,
        [first, second],
        FaultPlan::none(),
    )
}

/// The three two-crash schedules: the second victim's recovery meets a
/// home that crashed earlier; both recover at once and serve each other
/// while replaying; one node fails again after its recovery completed.
fn two_crash_schedules() -> [[CrashPlan; 2]; 3] {
    [
        [CrashPlan::new(1, 2), CrashPlan::new(2, 4)],
        [CrashPlan::new(1, 3), CrashPlan::new(2, 3)],
        [CrashPlan::new(1, 2), CrashPlan::new(1, 4)],
    ]
}

/// Every schedule under CCL, clean and lossy, on a program whose
/// crashed homes are written by themselves only (`Shallow`), by
/// everyone (the multi-writer kernel: the rebuilt served log must wait
/// for and re-apply recorded updates) or under locks (`Water`).
fn two_crash_matrix(program: Program) {
    for schedule in two_crash_schedules() {
        for faults in [FaultPlan::none(), FaultPlan::lossy(0x2C4A_5E55, 20, 10)] {
            two_crashes_of(program, Protocol::Ccl, schedule, faults);
        }
    }
}

#[test]
fn two_crash_matrix_ccl_fft3d() {
    two_crash_matrix(Program::App(App::Fft3d));
}

#[test]
fn two_crash_matrix_ccl_shallow() {
    two_crash_matrix(Program::App(App::Shallow));
}

#[test]
fn two_crash_matrix_ccl_multiwriter() {
    two_crash_matrix(Program::MultiWriter);
}

#[test]
fn two_crash_matrix_ccl_water() {
    two_crash_matrix(Program::App(App::Water));
}

#[test]
fn sequential_crashes_of_distinct_nodes_ml() {
    two_crashes(Protocol::Ml, CrashPlan::new(1, 2), CrashPlan::new(2, 4));
}

/// The second victim's handshake reaches a home that crashed earlier:
/// node 1 lost its copysets with the rest of its volatile state, so it
/// can only answer "incomplete" (`hlrc`'s protocol tests pin that) and
/// node 2 falls back to treating every page homed there as held — and
/// still lands on the fault-free digest (`two_crashes` checks it),
/// because node 1 rebuilt its served-image logs while it replayed: it
/// answers node 2's recovery fetches after its own crash with images.
/// ("Absent" remains the answer for a page node 2 held but did not
/// fetch again in the stretch it replays; had it been the answer for
/// one node 2 then touches, the run would have died of "CCL replay
/// drift".)
#[test]
fn sequential_crashes_of_distinct_nodes_ccl() {
    let out = two_crashes(Protocol::Ccl, CrashPlan::new(1, 2), CrashPlan::new(2, 4));
    // An "absent" reply is its header, tag, page and kind.
    let absent_bytes = hlrc::HEADER_BYTES as u32 + 6;
    let mut crashed = false;
    let mut answered_after_crash = false;
    let mut images_after_crash = 0;
    for ev in &out.nodes[1].trace {
        match ev.kind {
            TraceKind::Crash => crashed = true,
            TraceKind::MsgSend {
                to: 2,
                msg: "RecoveryHelloReply",
                ..
            } => answered_after_crash |= crashed,
            TraceKind::MsgSend {
                to: 2,
                msg: "RecoveryPageReply",
                bytes,
                ..
            } if crashed && bytes > absent_bytes => images_after_crash += 1,
            _ => {}
        }
    }
    assert!(
        answered_after_crash,
        "node 1 never answered node 2's hello after its own crash"
    );
    assert!(
        images_after_crash > 0,
        "node 2 restored nothing from the home that crashed before it"
    );
}

/// CCL's failure-free behaviour does not depend on how many crashes are
/// scheduled: a home write is never twinned, nothing about it reaches
/// the log, a replayed remote write is not twinned either, and up to
/// the first crash a two-crash run is, event for event and nanosecond
/// for nanosecond, the single-crash run.
#[test]
fn two_crash_runs_log_and_twin_like_any_other() {
    let [sequential, ..] = two_crash_schedules();
    for program in [
        Program::App(App::Fft3d),
        Program::App(App::Shallow),
        Program::MultiWriter,
    ] {
        let spec = program.tiny_spec(Protocol::Ccl);
        let two = program.run_and_check(
            spec.clone()
                .with_crash(sequential[0])
                .with_crash(sequential[1]),
        );
        // Victims included: replay opens the remote pages its log says
        // an interval writes, so it twins none of them again.
        for n in &two.nodes {
            assert_eq!(
                n.stats.twins_created,
                n.stats.diffs_created,
                "{}: node {} twinned a page it did not diff",
                program.name(),
                n.node
            );
        }
        let one = program.run_and_check(spec.with_crash(sequential[0]));
        let crash = one.nodes[1].crashed_at.expect("node 1 crashed");
        assert_eq!(
            two.nodes[1]
                .trace
                .iter()
                .find(|ev| ev.kind == TraceKind::Crash)
                .map(|ev| ev.at),
            Some(crash)
        );
        for (a, b) in one.nodes.iter().zip(&two.nodes) {
            let before = |n: &ccl_core::NodeOutput<u64>| {
                n.trace
                    .iter()
                    .take_while(|ev| ev.at < crash)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                before(a),
                before(b),
                "{}: node {} differs before the first crash",
                program.name(),
                a.node
            );
        }
    }
    // 3D-FFT writes home pages only and applies no remote update: a log
    // record that names a page can only be a diff of a home write.
    let app = App::Fft3d;
    let out = run_and_check(
        app,
        tiny_spec(app, Protocol::Ccl)
            .with_crash(sequential[0])
            .with_crash(sequential[1]),
    );
    for n in &out.nodes {
        let paged = n.trace.iter().any(|ev| {
            matches!(
                ev.kind,
                TraceKind::LogAppend {
                    obj: LogObj::Page { .. },
                    ..
                }
            )
        });
        assert!(
            !paged,
            "node {} logged a diff of its own home write",
            n.node
        );
    }
}

/// Both nodes fail at the same barrier: their recoveries overlap, and
/// each must serve the other's recovery fetches while replaying.
#[test]
fn overlapping_crashes_ml() {
    two_crashes(Protocol::Ml, CrashPlan::new(1, 3), CrashPlan::new(2, 3));
}

#[test]
fn overlapping_crashes_ccl() {
    two_crashes(Protocol::Ccl, CrashPlan::new(1, 3), CrashPlan::new(2, 3));
}

/// The same node fails again after its first recovery completed
/// (`after_barriers` counts within the re-run incarnation).
#[test]
fn same_node_crashes_twice_ml() {
    two_crashes(Protocol::Ml, CrashPlan::new(1, 2), CrashPlan::new(1, 4));
}

#[test]
fn same_node_crashes_twice_ccl() {
    two_crashes(Protocol::Ccl, CrashPlan::new(1, 2), CrashPlan::new(1, 4));
}

// ------------------------------------------------------------
// Disk-fault schedules
// ------------------------------------------------------------

/// Transient write faults cost retries (time), never correctness.
#[test]
fn transient_disk_faults_only_cost_time() {
    let app = App::Fft3d;
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let spec =
            tiny_spec(app, protocol).with_disk_fault(1, DiskFaultPlan::transient(0xD15C, 400));
        let out = run_and_check(app, spec);
        assert!(
            out.nodes[1].disk.write_retries > 0,
            "{protocol:?}: the transient fault schedule never fired"
        );
        assert!(out.degraded_nodes().is_empty());
    }
}

/// A permanently failed log device stops logging at that node (traced
/// as degraded) but the run still completes with correct digests.
#[test]
fn permanent_disk_failure_degrades_but_completes() {
    let app = App::Fft3d;
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let spec = tiny_spec(app, protocol).with_disk_fault(1, DiskFaultPlan::permanent_at(2));
        let out = run_and_check(app, spec);
        assert_eq!(
            out.degraded_nodes(),
            vec![1],
            "{protocol:?}: node 1's device failure was not reported"
        );
        assert!(out.nodes[1].disk.failed_writes > 0);
    }
}

/// The worst case: the log device dies, then the node crashes. Under
/// CCL recovery replays the persisted prefix and re-executes the tail
/// live instead of wedging, reporting itself as degraded. Node 1 only
/// reads the shared counter, so its re-executed tail is side-effect free
/// and the final digests stay exact. Under ML the restarting node fails
/// the run with a named error: its stopped log took none of the diff
/// flushes it acked since, and replay cannot tell which updates that
/// lost (DESIGN.md §13). Node 1 homes no page here, so nothing was
/// lost, but the node cannot know that.
#[test]
fn crash_after_log_device_failure_runs_degraded_recovery() {
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let spec = ClusterSpec::new(3, 12)
            .with_page_size(256)
            .with_protocol(protocol)
            .with_disk_fault(1, DiskFaultPlan::permanent_at(1))
            .with_crash(CrashPlan::new(1, 4));
        let run = || {
            run_program(spec.clone(), |dsm| {
                let xs = dsm.alloc::<u64>(8);
                for _round in 0..6 {
                    if dsm.me() == 0 {
                        let v = dsm.read(&xs, 0);
                        dsm.write(&xs, 0, v + 1);
                    }
                    dsm.barrier();
                }
                dsm.read(&xs, 0)
            })
        };
        if protocol == Protocol::Ml {
            let failed = std::panic::catch_unwind(run).expect_err("ML finished on a stopped log");
            let message = failed.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.starts_with("ML log stopped before the crash"),
                "ML failed with something else: {message}"
            );
            continue;
        }
        let out = run();
        for n in &out.nodes {
            assert_eq!(n.result, 6, "{protocol:?}: degraded recovery diverged");
        }
        assert_eq!(out.degraded_nodes(), vec![1]);
        let failed = &out.nodes[1];
        assert!(
            failed
                .trace
                .iter()
                .any(|ev| matches!(ev.kind, TraceKind::RecoveryDegraded)),
            "{protocol:?}: degraded recovery was not traced"
        );
        assert!(out.recovery_time().is_some());
    }
}

// ------------------------------------------------------------
// Crash-consistent storage: torn tails and bit rot
// ------------------------------------------------------------

/// The crash lands mid-flush on every application under both recovery
/// protocols: the last flushed log batch is torn at a seeded point
/// (truncated on even seeds, bit-garbled on odd ones). Recovery must
/// salvage the valid prefix, re-execute the lost tail live, and land on
/// the exact fault-free digest — never panic, never a wrong result.
#[test]
fn mid_flush_torn_crash_matrix() {
    let mut seed = 0xD15C_7EA5_u64;
    for app in App::ALL {
        for protocol in [Protocol::Ml, Protocol::Ccl] {
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let crash = if seed.is_multiple_of(2) {
                CrashPlan::new(1, 3).with_torn_tail(seed)
            } else {
                CrashPlan::new(1, 3).with_garbled_tail(seed)
            };
            let out = run_and_check(app, tiny_spec(app, protocol).with_crash(crash));
            assert!(
                out.recovery_time().is_some(),
                "{} under {protocol:?}: torn-tail crash did not recover",
                app.name()
            );
        }
    }
}

/// Latent bit rot on top of a crash: records rot (deterministically,
/// per seed) as they are written and the damage surfaces as CRC
/// mismatches when the recovery scan reads the log back. Rot can land
/// *anywhere* in the log — salvage then cuts the stream mid-history,
/// and unlike the torn-tail case the lost span may include state no
/// surviving copy can reconstruct — so the guarantee here is detection
/// plus completion: recovery never panics, never wedges, and every
/// node's phase accounting still balances. (Tail-only damage keeps the
/// exact-digest guarantee; that is `mid_flush_torn_crash_matrix`.)
#[test]
fn bit_rot_surfaces_at_recovery_and_completes() {
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let app = App::Fft3d;
        let spec = tiny_spec(app, protocol)
            .with_disk_fault(1, DiskFaultPlan::bit_rot(0xB17_207, 500))
            .with_crash(CrashPlan::new(1, 3));
        let out = run_and_complete(app, spec);
        assert!(
            out.nodes[1].disk.corrupted_records > 0,
            "{protocol:?}: the bit-rot schedule never fired"
        );
        assert!(
            out.nodes[1]
                .trace
                .iter()
                .any(|ev| matches!(ev.kind, TraceKind::CrcMismatch { .. })),
            "{protocol:?}: rot was written but recovery never detected it"
        );
        assert!(out.recovery_time().is_some());
    }
}

// ------------------------------------------------------------
// Combined random schedules (ML/CCL): message + disk faults
// ------------------------------------------------------------

/// The full mix: every random schedule carries message faults, and some
/// draw a transient disk-fault schedule on top.
fn combined_chaos(protocol: Protocol) {
    for app in [App::Fft3d, App::Shallow] {
        let name = format!("chaos-mixed-{}-{}", app.name(), protocol.label());
        check(&name, schedules(), |rng| {
            let mut spec = tiny_spec(app, protocol).with_faults(random_faults(rng));
            if rng.bool() {
                let node = rng.usize_in(0, NODES);
                let per_mille = rng.u32_in(100, 500) as u16;
                spec =
                    spec.with_disk_fault(node, DiskFaultPlan::transient(rng.next_u64(), per_mille));
            }
            run_and_check(app, spec);
        });
    }
}

#[test]
fn mixed_message_and_disk_chaos_ml() {
    combined_chaos(Protocol::Ml);
}

#[test]
fn mixed_message_and_disk_chaos_ccl() {
    combined_chaos(Protocol::Ccl);
}
