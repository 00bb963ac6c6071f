//! Fetch-hiding transparency: the batched-fetch / prefetch / adaptive
//! home-migration machinery (DESIGN.md §15) is a pure latency
//! optimization and must never change what the application computes.
//!
//! Every property here runs the same workload twice — once with the
//! machinery enabled (the defaults) and once ablated back to the
//! classic one-page-per-round-trip protocol (`with_prefetch_depth(0)`
//! plus `with_adaptive_migration(false)`) — and demands bit-identical
//! application digests: fault-free, under random barrier-synchronized
//! write schedules, and across injected crash recovery on a lossy
//! network. Schedules are drawn from `minicheck` streams, so failures
//! report a reproducing seed.

use std::cell::Cell;

use ccl_apps::App;
use ccl_core::{run_program, ClusterSpec, CrashPlan, Dsm, FaultPlan, Protocol, SimTime};
use minicheck::{check, Rng};

const NODES: usize = 4;
const PAGE: usize = 256;
const CASES: u64 = 8;

fn tiny_spec(app: App, protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(NODES, app.tiny_pages(PAGE) + 4)
        .with_page_size(PAGE)
        .with_protocol(protocol)
}

/// Ablate a spec back to the pre-batching protocol: single-page
/// fetches, no prediction, homes fixed for the whole run.
fn ablated(spec: ClusterSpec) -> ClusterSpec {
    spec.with_prefetch_depth(0).with_adaptive_migration(false)
}

/// Run `app` under `spec` and return its digest (asserting every node
/// agrees on it), the prefetches it issued, and its virtual execution
/// time.
fn digest_of(app: App, spec: ClusterSpec) -> (u64, u64, SimTime) {
    let out = run_program(spec, move |dsm| app.run_tiny(dsm));
    let digest = out.nodes[0].result;
    for n in &out.nodes {
        assert_eq!(n.result, digest, "{}: nodes disagree", app.name());
    }
    (digest, out.total_stats().prefetch_issued, out.exec_time())
}

/// Fault-free matrix: for every application and Table 2 protocol the
/// enabled and ablated digests agree (and match the serial reference).
/// The enabled side must actually predict something somewhere, or the
/// property would be vacuous — and on 3D-FFT, the fetch-bound
/// application, it must pay: at least 10 % of virtual execution time
/// under None and CCL (virtual time is deterministic, so this has no
/// machine-load slack), and exactly nothing under ML, whose default
/// depth is 0 because logging speculative page contents costs it more
/// than the hidden latency repays.
#[test]
fn fetch_hiding_is_digest_transparent_fault_free() {
    let mut issued_total = 0;
    for app in App::ALL {
        let reference = app.tiny_reference();
        for protocol in Protocol::TABLE2 {
            let (on, issued, t_on) = digest_of(app, tiny_spec(app, protocol));
            let (off, _, t_off) = digest_of(app, ablated(tiny_spec(app, protocol)));
            if app == App::Fft3d {
                let (t_on, t_off) = (t_on.as_nanos(), t_off.as_nanos());
                if protocol == Protocol::Ml {
                    assert_eq!(t_on, t_off, "3D-FFT/Ml: depth 0 by design");
                } else {
                    assert!(
                        10 * t_on <= 9 * t_off,
                        "3D-FFT/{protocol:?}: fetch hiding wins {:.1} %, under 10 %",
                        100.0 * (1.0 - t_on as f64 / t_off as f64)
                    );
                }
            }
            assert_eq!(
                on,
                reference,
                "{}/{protocol:?}: enabled digest drifted",
                app.name()
            );
            assert_eq!(
                off,
                reference,
                "{}/{protocol:?}: ablated digest drifted",
                app.name()
            );
            issued_total += issued;
        }
    }
    assert!(issued_total > 0, "no run issued a single prefetch");
}

/// Random DRF write schedules (one writer per cell per round): the
/// final shared state read back with prefetch enabled must match the
/// ablated run cell for cell.
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

    for protocol in [Protocol::None, Protocol::Ccl] {
        let name = format!("prefetch-schedules-{protocol:?}");
        check(&name, CASES, |rng| {
            let schedule = arb_schedule(rng);
            let spec = ClusterSpec::new(NODES, 8)
                .with_page_size(PAGE)
                .with_protocol(protocol);
            let on = run_program(spec.clone(), program(schedule.clone()));
            let off = run_program(ablated(spec), program(schedule));
            for (a, b) in on.nodes.iter().zip(&off.nodes) {
                assert_eq!(
                    a.result, b.result,
                    "{protocol:?}: node {} diverges from its ablated twin",
                    a.node
                );
            }
        });
    }
}

/// Chaos recovery: a random crash on a random lossy network, for both
/// recovery protocols. The recovered digest with the fetch-hiding
/// machinery on equals the ablated one (both equal the reference). At
/// least one drawn schedule must actually recover, or the property is
/// vacuous.
#[test]
fn chaos_recovery_agrees_with_ablated_runs() {
    let app = App::Fft3d;
    let reference = app.tiny_reference();
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let recovered = Cell::new(0u64);
        let name = format!("prefetch-chaos-{protocol:?}");
        check(&name, CASES, |rng| {
            let victim = rng.usize_in(1, NODES);
            let after = rng.u64_in(1, 5);
            let faults = FaultPlan::lossy(rng.next_u64(), rng.u32_in(5, 30) as u16, 10);
            // Depth forced on explicitly: ML's *default* resolves to 0
            // (speculative copies bloat its content log), but its
            // replay must still absorb trailing batches correctly when
            // a user opts in — this is the test that holds it to that.
            let build = || {
                tiny_spec(app, protocol)
                    .with_prefetch_depth(8)
                    .with_faults(faults.clone())
                    .with_crash(CrashPlan::new(victim, after))
            };
            let on = run_program(build(), move |dsm| app.run_tiny(dsm));
            let off = run_program(ablated(build()), move |dsm| app.run_tiny(dsm));
            for (a, b) in on.nodes.iter().zip(&off.nodes) {
                assert_eq!(a.result, reference, "{protocol:?}: enabled digest drifted");
                assert_eq!(b.result, reference, "{protocol:?}: ablated digest drifted");
            }
            if on.recovery_time().is_some() {
                recovered.set(recovered.get() + 1);
            }
        });
        assert!(
            recovered.get() > 0,
            "{protocol:?}: no schedule exercised recovery"
        );
    }
}
