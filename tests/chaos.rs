//! Chaos harness: the applications must produce their exact fault-free
//! digests under randomized-but-seeded fault schedules — message drops,
//! duplicates, delivery jitter, link partitions, disk write faults, and
//! multi-crash recovery.
//!
//! Schedules are drawn from `minicheck` streams, so every failure
//! reports a seed that reproduces the exact schedule via
//! `minicheck::check_seed`. The number of random schedules per property
//! is `CHAOS_SCHEDULES` (default 8); `scripts/verify.sh` runs a bounded
//! smoke pass with a smaller value.

use std::cell::Cell;

use ccl_apps::App;
use ccl_core::{
    run_program, ClusterSpec, CrashPlan, DiskFaultPlan, FaultPlan, Partition, Protocol, RunOutput,
    SimDuration, SimTime, TraceKind,
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
fn check_phase_accounting(app: App, protocol: Protocol, seed: u64, out: &RunOutput<u64>) {
    for n in &out.nodes {
        assert_eq!(
            n.phases.total().as_nanos(),
            n.finish.as_nanos(),
            "{} under {:?}: node {} phase accounting leaks \
             (fault seed {seed:#018x}): {:?} vs finish {:?}",
            app.name(),
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
                "{} under {:?}: node {} recovery-window accounting leaks \
                 (fault seed {seed:#018x}): {window:?}",
                app.name(),
                protocol,
                n.node
            );
        }
    }
}

/// Run `app` under `spec` and assert every node returns the serial
/// reference digest **and** balances its phase accounting (see
/// [`check_phase_accounting`]).
fn run_and_check(app: App, spec: ClusterSpec) -> RunOutput<u64> {
    let protocol = spec.protocol;
    let seed = spec.faults.seed;
    let expect = app.tiny_reference();
    let out = run_program(spec, move |dsm| app.run_tiny(dsm));
    for n in &out.nodes {
        assert_eq!(
            n.result,
            expect,
            "{} under {:?} diverged on node {} (fault seed {seed:#018x})",
            app.name(),
            protocol,
            n.node
        );
    }
    check_phase_accounting(app, protocol, seed, &out);
    out
}

/// Like [`run_and_check`] but without the digest assertion: for fault
/// classes where mid-history state is genuinely unrecoverable (e.g.
/// bit rot landing in the middle of a log), the contract is completion
/// and honest accounting, not exact convergence.
fn run_and_complete(app: App, spec: ClusterSpec) -> RunOutput<u64> {
    let protocol = spec.protocol;
    let seed = spec.faults.seed;
    let out = run_program(spec, move |dsm| app.run_tiny(dsm));
    check_phase_accounting(app, protocol, seed, &out);
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
    for protocol in Protocol::TABLE2 {
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
        for protocol in Protocol::TABLE2 {
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

fn two_crashes(protocol: Protocol, first: CrashPlan, second: CrashPlan) -> RunOutput<u64> {
    let app = App::Fft3d;
    let spec = tiny_spec(app, protocol)
        .with_crash(first)
        .with_crash(second);
    let out = run_and_check(app, spec);
    assert_eq!(
        count_recoveries(&out),
        2,
        "{protocol:?}: expected two recoveries for {first:?} + {second:?}"
    );
    out
}

#[test]
fn sequential_crashes_of_distinct_nodes_ml() {
    two_crashes(Protocol::Ml, CrashPlan::new(1, 2), CrashPlan::new(2, 4));
}

/// The second victim's handshake reaches a home that crashed earlier:
/// node 1 lost its copysets with the rest of its volatile state, so it
/// can only answer "incomplete" (`hlrc`'s protocol tests pin that) and
/// node 2 falls back to treating every page homed there as held — and
/// still lands on the fault-free digest (`two_crashes` checks it).
#[test]
fn sequential_crashes_of_distinct_nodes_ccl() {
    let out = two_crashes(Protocol::Ccl, CrashPlan::new(1, 2), CrashPlan::new(2, 4));
    let mut crashed = false;
    let mut answered_after_crash = false;
    for ev in &out.nodes[1].trace {
        match ev.kind {
            TraceKind::Crash => crashed = true,
            TraceKind::MsgSend {
                to: 2,
                msg: "RecoveryHelloReply",
                ..
            } => answered_after_crash |= crashed,
            _ => {}
        }
    }
    assert!(
        answered_after_crash,
        "node 1 never answered node 2's hello after its own crash"
    );
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

/// The worst case: the log device dies, then the node crashes. Recovery
/// replays the persisted prefix and re-executes the tail live instead of
/// wedging, reporting itself as degraded. Node 1 only reads the shared
/// counter, so its re-executed tail is side-effect free and the final
/// digests stay exact.
#[test]
fn crash_after_log_device_failure_runs_degraded_recovery() {
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let spec = ClusterSpec::new(3, 12)
            .with_page_size(256)
            .with_protocol(protocol)
            .with_disk_fault(1, DiskFaultPlan::permanent_at(1))
            .with_crash(CrashPlan::new(1, 4));
        let out = run_program(spec, |dsm| {
            let xs = dsm.alloc::<u64>(8);
            for _round in 0..6 {
                if dsm.me() == 0 {
                    let v = dsm.read(&xs, 0);
                    dsm.write(&xs, 0, v + 1);
                }
                dsm.barrier();
            }
            dsm.read(&xs, 0)
        });
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
