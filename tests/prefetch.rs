//! Fetch-hiding transparency: the batched-fetch / prefetch machinery
//! (DESIGN.md §15) is a pure latency optimization and must never change
//! what the application computes.
//!
//! Whether a node speculates is a property of its logging protocol
//! (`FaultTolerance::logs_page_contents`): None and CCL predict, ML
//! never does. So the ML run of a program *is* its run on the classic
//! one-page-per-round-trip protocol, and every property here demands
//! bit-identical application results from the speculating and the
//! non-speculating runs of the same program on the same schedule:
//! fault-free, under random barrier-synchronized write schedules, and
//! across injected crash recovery on a lossy network. Schedules are
//! drawn from `minicheck` streams, so failures report a reproducing
//! seed.

use std::cell::Cell;

use ccl_apps::App;
use ccl_core::{
    kind_label, run_program, ClusterSpec, CrashPlan, Dsm, FaultPlan, Protocol, MSG_KINDS,
};
use minicheck::{check, Rng};

const NODES: usize = 4;
const PAGE: usize = 256;
const CASES: u64 = 8;

/// The protocol whose runs never speculate: the arm every speculating
/// run is compared against.
const ABLATED: Protocol = Protocol::Ml;

fn tiny_spec(app: App, protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(NODES, app.tiny_pages(PAGE) + 4)
        .with_page_size(PAGE)
        .with_protocol(protocol)
}

/// Wire tag of a message kind, by its label.
fn tag(label: &str) -> usize {
    (0..MSG_KINDS)
        .find(|&k| kind_label(k) == label)
        .expect("known message kind")
}

/// Fault-free matrix: for every application the speculating digests
/// (None, CCL) and the non-speculating one (ML) agree with the serial
/// reference. Neither side may be vacuous: a speculating run speaks
/// only the batch dialect and predicts something, the ML run sends
/// only bare requests and predicts nothing. (What the predictions buy
/// is pinned elsewhere: `report` holds 3D-FFT's `exec_ns` to the
/// nanosecond, and `obsv`'s
/// `committed_fft_page_wait_share_stays_below_its_pre_prefetch_level`
/// holds the page-wait share.)
#[test]
fn fetch_hiding_is_digest_transparent_fault_free() {
    let (single, batch) = (tag("PageRequest"), tag("PageRequestBatch"));
    for app in App::ALL {
        let reference = app.tiny_reference();
        for protocol in Protocol::TABLE2 {
            let label = format!("{}/{protocol:?}", app.name());
            let out = run_program(tiny_spec(app, protocol), move |dsm| app.run_tiny(dsm));
            for n in &out.nodes {
                assert_eq!(n.result, reference, "{label}: digest drifted");
            }
            let stats = out.total_stats();
            assert!(stats.page_fetches > 0, "{label}: nothing was fetched");
            if protocol == ABLATED {
                assert_eq!(stats.prefetch_issued, 0, "{label}: ML speculated");
                assert_eq!(stats.msgs_by_kind[batch], 0, "{label}: batch request");
            } else {
                assert!(stats.prefetch_issued > 0, "{label}: no prediction issued");
                assert_eq!(stats.msgs_by_kind[single], 0, "{label}: bare request");
            }
        }
    }
}

/// Random DRF write schedules (one writer per cell per round): the
/// final shared state read back by the speculating runs must match the
/// non-speculating run cell for cell.
#[test]
fn random_schedules_agree_with_ablated_runs() {
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

    check("prefetch-schedules", CASES, |rng| {
        let schedule = arb_schedule(rng);
        let run = |protocol| {
            let spec = ClusterSpec::new(NODES, 8)
                .with_page_size(PAGE)
                .with_protocol(protocol);
            run_program(spec, program(schedule.clone()))
        };
        let off = run(ABLATED);
        for protocol in [Protocol::None, Protocol::Ccl] {
            for (a, b) in run(protocol).nodes.iter().zip(&off.nodes) {
                assert_eq!(
                    a.result, b.result,
                    "{protocol:?}: node {} diverges from its non-speculating twin",
                    a.node
                );
            }
        }
    });
}

/// Chaos recovery: a random crash on a random lossy network. The digest
/// recovered with the fetch-hiding machinery on (CCL) equals the one
/// recovered without it (ML) on the same schedule, and both equal the
/// reference. At least one drawn schedule must actually recover under
/// each protocol, or the property is vacuous.
#[test]
fn chaos_recovery_agrees_with_ablated_runs() {
    let app = App::Fft3d;
    let reference = app.tiny_reference();
    let recovered = [Cell::new(0u64), Cell::new(0u64)];
    check("prefetch-chaos", CASES, |rng| {
        let victim = rng.usize_in(1, NODES);
        let after = rng.u64_in(1, 5);
        let faults = FaultPlan::lossy(rng.next_u64(), rng.u32_in(5, 30) as u16, 10);
        for (protocol, recovered) in [Protocol::Ccl, ABLATED].into_iter().zip(&recovered) {
            let spec = tiny_spec(app, protocol)
                .with_faults(faults.clone())
                .with_crash(CrashPlan::new(victim, after));
            let out = run_program(spec, move |dsm| app.run_tiny(dsm));
            for n in &out.nodes {
                assert_eq!(n.result, reference, "{protocol:?}: digest drifted");
            }
            if out.recovery_time().is_some() {
                recovered.set(recovered.get() + 1);
            }
        }
    });
    for (protocol, recovered) in [Protocol::Ccl, ABLATED].into_iter().zip(&recovered) {
        assert!(
            recovered.get() > 0,
            "{protocol:?}: no schedule exercised recovery"
        );
    }
}
