//! Cross-crate coherence integration through the public API: sharing
//! patterns the applications rely on, exercised directly.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use ccl_core::{run_program, ClusterSpec, Dsm, Protocol};

fn spec(nodes: usize) -> ClusterSpec {
    ClusterSpec::new(nodes, 32).with_page_size(256)
}

#[test]
fn single_writer_many_readers() {
    let out = run_program(spec(4), |dsm| {
        let a = dsm.alloc_blocked::<f64>(64);
        if dsm.me() == 0 {
            for i in 0..64 {
                dsm.write(&a, i, i as f64 * 1.5);
            }
        }
        dsm.barrier();
        let mut sum = 0.0;
        for i in 0..64 {
            sum += dsm.read(&a, i);
        }
        sum
    });
    let expect: f64 = (0..64).map(|i| i as f64 * 1.5).sum();
    assert!(out.nodes.iter().all(|n| n.result == expect));
}

#[test]
fn false_sharing_multiple_writers_one_page() {
    // All four nodes write disjoint elements of the SAME page every
    // round: the multiple-writer protocol must merge all diffs at the
    // home without losing any.
    let out = run_program(spec(4), |dsm| {
        let a = dsm.alloc::<u64>(32); // one 256-byte page
        let me = dsm.me();
        for round in 1..=5u64 {
            for i in 0..8 {
                dsm.write(&a, me * 8 + i, round * 100 + (me * 8 + i) as u64);
            }
            dsm.barrier();
            // verify the full page every round
            for j in 0..32 {
                assert_eq!(dsm.read(&a, j), round * 100 + j as u64, "round {round}");
            }
            dsm.barrier();
        }
        true
    });
    assert!(out.nodes.iter().all(|n| n.result));
}

#[test]
fn migratory_data_through_locks() {
    // A value bounces between nodes under a lock (migratory pattern):
    // each holder increments it; the count must be exact.
    const ROUNDS: usize = 6;
    let out = run_program(spec(3), move |dsm| {
        let a = dsm.alloc::<u64>(4);
        for _ in 0..ROUNDS {
            dsm.acquire(11);
            let v = dsm.read(&a, 0);
            dsm.write(&a, 0, v + 1);
            dsm.release(11);
        }
        dsm.barrier();
        dsm.read(&a, 0)
    });
    assert!(out.nodes.iter().all(|n| n.result == (3 * ROUNDS) as u64));
}

#[test]
fn producer_consumer_chains_through_locks() {
    // Node 0 produces under lock A; node 1 consumes under A and
    // produces under B; node 2 consumes under B — the notice chains
    // must carry visibility transitively.
    let out = run_program(spec(3), |dsm| {
        let a = dsm.alloc::<u64>(4);
        let b = dsm.alloc::<u64>(4);
        match dsm.me() {
            0 => {
                dsm.acquire(1);
                dsm.write(&a, 0, 77);
                dsm.release(1);
                dsm.barrier(); // A written
                dsm.barrier(); // B written
                0
            }
            1 => {
                dsm.barrier();
                dsm.acquire(1);
                let v = dsm.read(&a, 0);
                dsm.release(1);
                dsm.acquire(2);
                dsm.write(&b, 0, v + 1);
                dsm.release(2);
                dsm.barrier();
                v
            }
            _ => {
                dsm.barrier();
                dsm.barrier();
                dsm.acquire(2);
                let v = dsm.read(&b, 0);
                dsm.release(2);
                v
            }
        }
    });
    assert_eq!(out.nodes[1].result, 77);
    assert_eq!(out.nodes[2].result, 78);
}

#[test]
fn slice_ops_match_scalar_ops() {
    let out = run_program(spec(2), |dsm| {
        let a = dsm.alloc_blocked::<f64>(96);
        if dsm.me() == 0 {
            let vals: Vec<f64> = (0..96).map(|i| (i as f64).sqrt()).collect();
            dsm.write_slice(&a, 0, &vals);
        }
        dsm.barrier();
        let mut buf = vec![0.0; 96];
        dsm.read_slice(&a, 0, &mut buf);
        let scalar: Vec<f64> = (0..96).map(|i| dsm.read(&a, i)).collect();
        buf == scalar && buf[4] == 2.0
    });
    assert!(out.nodes.iter().all(|n| n.result));
}

/// Run `f` on a one-node cluster and re-raise its panic here, where
/// `#[should_panic]` reads the message.
fn on_one_node(f: impl Fn(&mut Dsm) + Send + Sync) {
    let out = run_program(spec(1), |dsm| {
        catch_unwind(AssertUnwindSafe(|| f(dsm))).err()
    });
    if let Some(payload) = out.nodes.into_iter().next().and_then(|n| n.result) {
        resume_unwind(payload);
    }
}

#[test]
#[should_panic(expected = "range 8..12 out of bounds (len 10)")]
fn read_slice_past_the_end_panics() {
    // The last two elements share the array's only page with its
    // padding: the bound is the array's, not the page's.
    on_one_node(|dsm| {
        let a = dsm.alloc::<f64>(10);
        dsm.read_slice(&a, 8, &mut [0.0; 4]);
    });
}

#[test]
#[should_panic(expected = "range 9..11 out of bounds (len 10)")]
fn write_slice_past_the_end_panics() {
    on_one_node(|dsm| {
        let a = dsm.alloc::<u64>(10);
        dsm.write_slice(&a, 9, &[1, 2]);
    });
}

#[test]
fn virtual_time_orders_with_protocol_cost() {
    // A run with more nodes on the same problem spends more time in
    // communication but finishes the sharing pattern correctly; the
    // exec time must be nonzero and fetches recorded.
    let out = run_program(spec(4), |dsm| {
        let a = dsm.alloc_blocked::<u64>(64);
        for r in 0..3u64 {
            if dsm.me() == (r as usize) % 4 {
                for i in 0..64 {
                    dsm.write(&a, i, r + i as u64);
                }
            }
            dsm.barrier();
            let _ = dsm.read(&a, 63);
            dsm.barrier();
        }
    });
    assert!(out.exec_time().as_nanos() > 0);
    let total = out.total_stats();
    assert!(total.page_fetches > 0);
    assert!(total.diffs_created > 0, "remote writers must produce diffs");
    assert_eq!(total.log_bytes, 0, "no logging configured");
}

#[test]
fn stats_fault_accounting_consistent() {
    let out = run_program(spec(2).with_protocol(Protocol::Ccl), |dsm| {
        let a = dsm.alloc_blocked::<u64>(64);
        if dsm.me() == 1 {
            dsm.write(&a, 0, 9); // page homed at node 0: write miss
        }
        dsm.barrier();
        let _ = dsm.read(&a, 0);
        dsm.barrier();
    });
    let w = &out.nodes[1].stats;
    assert!(w.write_faults >= 1);
    assert!(w.page_fetches >= 1);
    assert!(w.twins_created >= 1);
    assert!(w.diff_bytes > 0);
}
