//! Checkpointing integration: coordinated checkpoints shorten recovery
//! (log truncation + base promotion) and restore application state.
//! Every checkpoint here is a cadence checkpoint
//! (`ClusterSpec::with_checkpoint_cadence`), the only way a run takes
//! one; programs publish their restart point with
//! `Dsm::set_checkpoint_state` before each barrier.

use ccl_core::{run_program, ClusterSpec, CrashPlan, Dsm, Protocol, TraceKind};

fn spec(protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(3, 24)
        .with_page_size(256)
        .with_protocol(protocol)
}

/// [`checkpointed_program`] runs under this: checkpoints after barriers
/// 3 and 6, halfway and at the end.
fn checkpointed(protocol: Protocol) -> ClusterSpec {
    spec(protocol).with_checkpoint_cadence(3)
}

/// An iterative program for a spec that checkpoints every third barrier:
/// each round every node increments its own stripe; the app state blob
/// records the round.
fn checkpointed_program(dsm: &mut Dsm) -> u64 {
    const ROUNDS: u64 = 6;
    let a = dsm.alloc_blocked::<u64>(48);
    let me = dsm.me();
    let stripe = 16;
    // Fast-forward: a post-crash restart resumes from the checkpoint.
    let start = match dsm.restored_state() {
        Some(blob) => u64::from_le_bytes(blob.try_into().expect("8-byte blob")),
        None => 0,
    };
    for round in start..ROUNDS {
        for i in 0..stripe {
            let idx = me * stripe + i;
            let v = dsm.read(&a, idx);
            dsm.write(&a, idx, v + round + 1);
        }
        // A cadence checkpoint right after the barrier is coordinated
        // (same round on every node), holds no locks, and the restart
        // path re-executes from exactly the next round.
        dsm.set_checkpoint_state(&(round + 1).to_le_bytes());
        dsm.barrier();
    }
    (0..48).map(|i| dsm.read(&a, i)).sum()
}

fn expected_sum() -> u64 {
    // each element accumulates 1+2+...+6 = 21; 48 elements
    48 * 21
}

#[test]
fn checkpoint_is_transparent_without_crash() {
    for p in [Protocol::Ml, Protocol::Ccl] {
        let out = run_program(checkpointed(p), checkpointed_program);
        assert!(
            out.nodes.iter().all(|n| n.result == expected_sum()),
            "{p:?}"
        );
    }
}

#[test]
fn recovery_from_checkpoint_restores_app_state_ccl() {
    // Crash after the barrier-3 checkpoint: the restart must
    // fast-forward via the restored blob and replay only the
    // post-checkpoint log, then take the barrier-6 checkpoint live.
    let s = checkpointed(Protocol::Ccl).with_crash(CrashPlan::new(1, 5));
    let out = run_program(s, checkpointed_program);
    assert!(
        out.nodes.iter().all(|n| n.result == expected_sum()),
        "results: {:?}",
        out.nodes.iter().map(|n| n.result).collect::<Vec<_>>()
    );
    assert!(out.recovery_time().is_some());
}

#[test]
fn recovery_from_checkpoint_restores_app_state_ml() {
    let s = checkpointed(Protocol::Ml).with_crash(CrashPlan::new(1, 5));
    let out = run_program(s, checkpointed_program);
    assert!(out.nodes.iter().all(|n| n.result == expected_sum()));
}

#[test]
fn checkpoint_truncates_log_and_shortens_replay() {
    // Same crash point, with and without a checkpoint: the checkpointed
    // run must replay less (smaller recovery time) because the log was
    // truncated at the checkpoint.
    fn program(dsm: &mut Dsm) -> u64 {
        const ROUNDS: u64 = 24;
        let a = dsm.alloc_blocked::<u64>(48);
        let me = dsm.me();
        let start = match dsm.restored_state() {
            Some(blob) => u64::from_le_bytes(blob.try_into().unwrap()),
            None => 0,
        };
        for round in start..ROUNDS {
            for i in 0..16 {
                let idx = me * 16 + i;
                let v = dsm.read(&a, idx);
                dsm.write(&a, idx, v + 1);
            }
            // cross-stripe read to force coherence traffic
            let _ = dsm.read(&a, ((me + 1) % 3) * 16);
            dsm.set_checkpoint_state(&(round + 1).to_le_bytes());
            dsm.barrier();
        }
        (0..48).map(|i| dsm.read(&a, i)).sum()
    }
    // Crash late in both runs (same logical round), after the barrier-12
    // checkpoint of the run that takes one. The workload is sized so the
    // per-interval replay savings dominate the fixed cost of reading the
    // checkpoint back.
    let crash = CrashPlan::new(1, 23);
    let with = run_program(
        spec(Protocol::Ccl)
            .with_checkpoint_cadence(12)
            .with_crash(crash),
        program,
    );
    let without = run_program(spec(Protocol::Ccl).with_crash(crash), program);
    assert!(with.nodes.iter().all(|n| n.result == 48 * 24));
    assert!(without.nodes.iter().all(|n| n.result == 48 * 24));
    // The mechanism: the checkpointed run's log was truncated, so its
    // replay reads far fewer bytes back from stable storage (wall-clock
    // wins show at realistic scale; at test scale fixed costs dominate).
    // Its restart also reads the checkpoint back, the metadata and
    // every home page's image: exactly the bytes its one checkpoint
    // before the crash wrote (the barrier-24 one comes after). That read
    // is the fixed cost; the replay is what the cut shortens.
    let victim = &with.nodes[1];
    let crashed = victim.crashed_at.expect("crash was not injected");
    let checkpoint_bytes: u64 = (victim.trace.iter())
        .filter(|ev| ev.at < crashed)
        .filter_map(|ev| match ev.kind {
            TraceKind::Checkpoint { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert!(checkpoint_bytes > 0, "no checkpoint was taken");
    let read_with = victim.disk.bytes_read - checkpoint_bytes;
    let read_without = without.nodes[1].disk.bytes_read;
    assert!(
        read_with < read_without,
        "truncated-log replay read {read_with} bytes, full replay {read_without}"
    );
}

#[test]
fn multiple_checkpoints_keep_only_latest_meta() {
    let out = run_program(spec(Protocol::Ccl).with_checkpoint_cadence(1), |dsm| {
        let a = dsm.alloc_blocked::<u64>(48);
        for round in 0..3u64 {
            dsm.write(&a, dsm.me() * 16, round);
            dsm.set_checkpoint_state(&round.to_le_bytes());
            dsm.barrier();
        }
        let metas = dsm.node().inner.ctx.disk.record_count(ftlog::CKPT_META);
        (dsm.read(&a, 0), metas)
    });
    // Three checkpoints happened; disk writes accumulated, and each
    // metadata record replaced the one before it.
    assert!(out.nodes.iter().all(|n| n.result == (2, 1)));
    assert!(out.nodes[0].disk.writes >= 3);
}
