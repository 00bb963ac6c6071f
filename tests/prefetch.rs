//! Fetch-hiding transparency: the batched-fetch / prefetch machinery
//! (DESIGN.md §15) is a pure latency optimization and must never change
//! what the application computes.
//!
//! Every protocol fetches through the same predictors — ML logs a
//! predicted copy at its first touch, CCL restores what a node reported
//! touching — so there is no non-speculating run of a program to hold
//! the speculating ones against. The oracle is serial instead: each
//! application's `tiny_reference`, and for random barrier-synchronized
//! write schedules the last value written to each cell. Every property
//! demands it of every protocol, fault-free, under random schedules and
//! across injected crash recovery on a lossy network, and none may pass
//! vacuously: each protocol must predict. Schedules are drawn from
//! `minicheck` streams, so failures report a reproducing seed.

use std::cell::Cell;

use ccl_apps::App;
use ccl_core::{
    kind_label, run_program, ClusterSpec, CrashPlan, Dsm, FaultPlan, Protocol, TraceKind, MSG_KINDS,
};
use minicheck::{check, Rng};

const NODES: usize = 4;
const PAGE: usize = 256;
const CASES: u64 = 8;

fn tiny_spec(app: App, protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(NODES, app.tiny_pages(PAGE) + 4)
        .with_page_size(PAGE)
        .with_protocol(protocol)
}

/// Traffic-counter index of a message kind, by its label.
fn kind(label: &str) -> usize {
    (0..MSG_KINDS)
        .find(|&k| kind_label(k) == label)
        .expect("known message kind")
}

/// Fault-free matrix: for every application every protocol's digest is
/// the serial reference. None is vacuous: each run fetches, predicts,
/// and sends every fetch as a batch request (there is no other kind).
/// (What the predictions buy is pinned elsewhere: `report` holds
/// 3D-FFT's `exec_ns` to the nanosecond, and `obsv`'s
/// `committed_fft_page_wait_share_stays_below_its_pre_prefetch_level`
/// holds the page-wait share.)
#[test]
fn fetch_hiding_is_digest_transparent_fault_free() {
    let batch = kind("PageRequestBatch");
    for app in App::ALL {
        let reference = app.tiny_reference();
        for protocol in Protocol::ALL {
            let label = format!("{}/{protocol:?}", app.name());
            let out = run_program(tiny_spec(app, protocol), move |dsm| app.run_tiny(dsm));
            for n in &out.nodes {
                assert_eq!(n.result, reference, "{label}: digest drifted");
            }
            let stats = out.total_stats();
            assert!(stats.page_fetches > 0, "{label}: nothing was fetched");
            assert!(stats.prefetch_issued > 0, "{label}: no prediction issued");
            assert_eq!(
                stats.msgs_by_kind[batch], stats.page_fetches,
                "{label}: a fetch went out as something else"
            );
        }
    }
}

/// Random DRF write schedules (one writer per cell per round): the
/// final shared state every node reads back under every protocol is
/// the last value written to each cell — and across the drawn
/// schedules each protocol predicted something.
#[test]
fn random_schedules_agree_with_the_serial_reference() {
    const CELLS: usize = 96; // 3 x 256-byte pages, block-distributed

    type Round = Vec<(usize, usize, u64)>; // (cell, writer, value)

    fn arb_schedule(rng: &mut Rng) -> Vec<Round> {
        let rounds = rng.usize_in(1, 6);
        (0..rounds)
            .map(|_| {
                let mut round: Round = (0..rng.usize_in(0, 24))
                    .map(|_| {
                        (
                            rng.usize_in(0, CELLS),
                            rng.usize_in(0, NODES),
                            rng.u64_in(1, 1_000_000),
                        )
                    })
                    .collect();
                round.sort_by_key(|(c, _, _)| *c);
                round.dedup_by_key(|(c, _, _)| *c);
                round
            })
            .collect()
    }

    /// What a serial run of the schedule leaves in each cell.
    fn serial(schedule: &[Round]) -> Vec<u64> {
        let mut cells = vec![0; CELLS];
        for &(cell, _, value) in schedule.iter().flatten() {
            cells[cell] = value;
        }
        cells
    }

    fn program(schedule: Vec<Round>) -> impl Fn(&mut Dsm) -> Vec<u64> + Send + Sync {
        move |dsm: &mut Dsm| {
            let a = dsm.alloc_blocked::<u64>(CELLS);
            let me = dsm.me();
            for round in &schedule {
                for &(cell, writer, value) in round {
                    if writer == me {
                        dsm.write(&a, cell, value);
                    }
                }
                dsm.barrier();
                let probe = (me * 31) % CELLS;
                let _ = dsm.read(&a, probe);
                dsm.barrier();
            }
            (0..CELLS).map(|c| dsm.read(&a, c)).collect()
        }
    }

    let predicted = Protocol::ALL.map(|_| Cell::new(0u64));
    check("prefetch-schedules", CASES, |rng| {
        let schedule = arb_schedule(rng);
        let want = serial(&schedule);
        for (protocol, predicted) in Protocol::ALL.into_iter().zip(&predicted) {
            let spec = ClusterSpec::new(NODES, 8)
                .with_page_size(PAGE)
                .with_protocol(protocol);
            let out = run_program(spec, program(schedule.clone()));
            for n in &out.nodes {
                assert_eq!(
                    n.result, want,
                    "{protocol:?}: node {} diverges from the serial run",
                    n.node
                );
            }
            predicted.set(predicted.get() + out.total_stats().prefetch_issued);
        }
    });
    for (protocol, predicted) in Protocol::ALL.into_iter().zip(&predicted) {
        assert!(predicted.get() > 0, "{protocol:?}: never predicted");
    }
}

/// Chaos recovery: a random crash on a random lossy network, with
/// prediction on. Both recovering protocols reach the reference — ML
/// from the predicted copies it logged at their first touch, CCL from
/// the ones its homes were told of — and at least one drawn schedule
/// must actually recover under each, with predictions used before the
/// crash, or the property is vacuous.
#[test]
fn chaos_recovery_reaches_the_reference_with_prediction_on() {
    let app = App::Fft3d;
    let reference = app.tiny_reference();
    let protocols = [Protocol::Ml, Protocol::Ccl];
    let recovered = [Cell::new(0u64), Cell::new(0u64)];
    check("prefetch-chaos", CASES, |rng| {
        let victim = rng.usize_in(1, NODES);
        let after = rng.u64_in(1, 5);
        let faults = FaultPlan::lossy(rng.next_u64(), rng.u32_in(5, 30) as u16, 10);
        for (protocol, recovered) in protocols.into_iter().zip(&recovered) {
            let spec = tiny_spec(app, protocol)
                .with_faults(faults.clone())
                .with_crash(CrashPlan::new(victim, after));
            let out = run_program(spec, move |dsm| app.run_tiny(dsm));
            for n in &out.nodes {
                assert_eq!(n.result, reference, "{protocol:?}: digest drifted");
            }
            let node = &out.nodes[victim];
            let used_a_prediction = node.crashed_at.is_some_and(|crashed| {
                node.trace
                    .iter()
                    .any(|ev| matches!(ev.kind, TraceKind::PrefetchHit { .. }) && ev.at < crashed)
            });
            if out.recovery_time().is_some() && used_a_prediction {
                recovered.set(recovered.get() + 1);
            }
        }
    });
    for (protocol, recovered) in protocols.into_iter().zip(&recovered) {
        assert!(
            recovered.get() > 0,
            "{protocol:?}: no schedule recovered a node that used a prediction"
        );
    }
}
