//! 64- and 128-node scale smoke tests for the conservative
//! virtual-time scheduler.
//!
//! Every scheduler window waits for all running node threads to block,
//! and every window bound quantifies over every live peer, so the cost
//! and the liveness risk both grow with cluster size and
//! synchronization density, not workload size. These tests run a lock-
//! and barrier-heavy program on clusters eight and sixteen times the
//! paper's 8-node configuration to show the scheduler stays live well
//! past the scale every other test exercises. (A genuine scheduler
//! deadlock — every live node blocked with nothing left to deliver —
//! panics at once with every node's state and bound, so a regression
//! fails loudly here instead of hanging CI.)
//!
//! `scripts/verify.sh` runs both tiers only through its `cargo test -q
//! --workspace` stage, in the default debug profile and with no
//! wall-clock ceiling; the benchmark's `scale-128` workload is where
//! the 128-node host time is watched.

use ccl_core::{run_program, ClusterSpec, CrashPlan, Protocol, RunOutput};

const ROUNDS: u64 = 4;
const LOCKS: u32 = 8;

/// Every node alternates contended lock work (all nodes hammer 8
/// locks, incrementing shared counters) with full-cluster barriers —
/// the pattern that maximizes simultaneous scheduler waits.
fn spec(nodes: usize, protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(nodes, 16)
        .with_page_size(256)
        .with_protocol(protocol)
}

fn run(nodes: usize, protocol: Protocol) -> RunOutput<u64> {
    run_spec(spec(nodes, protocol))
}

fn run_spec(spec: ClusterSpec) -> RunOutput<u64> {
    run_program(spec, |dsm| {
        let counters = dsm.alloc::<u64>(LOCKS as usize);
        for _ in 0..ROUNDS {
            let me = dsm.me() as u32;
            for k in 0..LOCKS {
                let lock = (me + k) % LOCKS;
                dsm.acquire(lock);
                let v = dsm.read(&counters, lock as usize);
                dsm.write(&counters, lock as usize, v + 1);
                dsm.release(lock);
            }
            dsm.barrier();
        }
        (0..LOCKS as usize).map(|k| dsm.read(&counters, k)).sum()
    })
}

fn assert_no_lost_increments(nodes: usize, protocol: Protocol) {
    assert_all_counted(&run(nodes, protocol), &format!("{protocol:?}"));
}

/// Every round, all nodes increment all 8 counters once each.
fn assert_all_counted(out: &RunOutput<u64>, what: &str) {
    let expect = out.nodes.len() as u64 * ROUNDS * LOCKS as u64;
    for n in &out.nodes {
        assert_eq!(n.result, expect, "{what}: node {} lost increments", n.node);
    }
}

fn assert_survives_crash(nodes: usize, protocol: Protocol, victim: usize, barrier: u64) {
    let out = run_spec(spec(nodes, protocol).with_crash(CrashPlan::new(victim, barrier)));
    assert!(out.recovery_time().is_some(), "crash was not injected");
    assert_all_counted(
        &out,
        &format!("{protocol:?}, {nodes} nodes, node {victim} fails after barrier {barrier}"),
    );
}

/// Every node but the barrier manager manages one of the 8 locks, and
/// every round opens with all nodes requesting locks straight out of a
/// barrier: whichever node fails, at whichever barrier, it must not
/// have granted a lock from inside that barrier (the epoch fence), or
/// the grant dies with it and increments are lost.
#[test]
fn any_lock_manager_may_fail_at_any_barrier() {
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        for victim in 1..8 {
            for barrier in 1..=3 {
                assert_survives_crash(8, protocol, victim, barrier);
            }
        }
    }
}

/// The benchmark's crash cell at half its size. The 8-node matrix
/// above passes with or without the fence; at 64 nodes the release
/// fan-out is long enough that without it the ML cell ends 7
/// increments short (2041 of 2048).
#[test]
fn sixty_four_nodes_survive_a_lock_manager_crash() {
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        assert_survives_crash(64, protocol, 1, 3);
    }
}

#[test]
fn sixty_four_nodes_of_locks_and_barriers_stay_live() {
    for protocol in [Protocol::None, Protocol::Ccl] {
        assert_no_lost_increments(64, protocol);
    }
}

#[test]
fn one_hundred_twenty_eight_nodes_of_locks_and_barriers_stay_live() {
    assert_no_lost_increments(128, Protocol::Ccl);
}

/// Two same-spec runs at scale are bit-identical: determinism does not
/// degrade with cluster size.
fn assert_reproducible(nodes: usize) {
    let (a, b) = (run(nodes, Protocol::Ccl), run(nodes, Protocol::Ccl));
    assert_eq!(a.exec_time(), b.exec_time());
    assert_eq!(a.total_log_bytes(), b.total_log_bytes());
    let stats = |o: &RunOutput<u64>| {
        o.nodes
            .iter()
            .map(|n| (n.stats.msgs_sent, n.stats.msgs_recv, n.finish))
            .collect::<Vec<_>>()
    };
    assert_eq!(stats(&a), stats(&b));
}

#[test]
fn sixty_four_node_runs_are_reproducible() {
    assert_reproducible(64);
}

#[test]
fn one_hundred_twenty_eight_node_runs_are_reproducible() {
    assert_reproducible(128);
}
