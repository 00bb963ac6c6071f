//! End-to-end coherence tests for the HLRC protocol on a simulated
//! cluster: these exercise the actual message exchanges (fetches, diff
//! flushes, notices) across real threads.

use hlrc::{DsmConfig, FaultTolerance, HlrcNode, Msg, NoLogging, RecoveryImage, ServedCopies};
use pagemem::{IntervalId, VClock};
use simnet::{run_cluster, CostModel, SimDuration, SimTime};

fn spawn<F, R>(cfg: DsmConfig, f: F) -> Vec<R>
where
    F: Fn(HlrcNode) -> R + Send + Sync,
    R: Send,
{
    run_cluster(cfg.n_nodes, CostModel::default(), move |ctx| {
        let node = HlrcNode::new(ctx, cfg, Box::new(NoLogging));
        f(node)
    })
}

fn small_cfg(n: usize, pages: u32) -> DsmConfig {
    DsmConfig::new(n, pages).with_page_size(256)
}

#[test]
fn producer_consumer_through_barrier() {
    // Node 0 writes a value into a page homed at node 1; after a
    // barrier, node 1 (reading its home copy) and node 2 (fetching)
    // both see it.
    let cfg = small_cfg(3, 3); // page p is homed at node p
    let got = spawn(cfg, |mut node| {
        if node.inner.me() == 0 {
            node.write_u64(256 + 8, 4242); // page 1, homed at node 1
        }
        node.barrier();
        let v = node.read_u64(256 + 8);
        node.barrier();
        v
    });
    assert_eq!(got, vec![4242, 4242, 4242]);
}

#[test]
fn multiple_writers_merge_at_home() {
    // Two nodes write disjoint words of the same page (homed at a
    // third); after the barrier everyone sees both updates — the
    // multiple-writer protocol in action.
    let cfg = small_cfg(3, 3);
    let base = 2 * 256; // page 2, homed at node 2
    let got = spawn(cfg, move |mut node| {
        match node.inner.me() {
            0 => node.write_u64(base, 11),
            1 => node.write_u64(base + 64, 22),
            _ => {}
        }
        node.barrier();
        let a = node.read_u64(base);
        let b = node.read_u64(base + 64);
        node.barrier();
        (a, b)
    });
    assert!(got.iter().all(|&(a, b)| a == 11 && b == 22));
}

#[test]
fn lock_protected_counter_is_atomic() {
    // Classic mutual-exclusion increment: every node adds its id+1 to a
    // shared counter N times under a lock; total must be exact.
    const ROUNDS: u64 = 5;
    let cfg = small_cfg(4, 4);
    let got = spawn(cfg, move |mut node| {
        for _ in 0..ROUNDS {
            node.acquire(7);
            let v = node.read_u64(0);
            node.write_u64(0, v + node.inner.me() as u64 + 1);
            node.release(7);
        }
        node.barrier();
        let total = node.read_u64(0);
        node.barrier();
        total
    });
    let expect = ROUNDS * (1 + 2 + 3 + 4);
    assert!(got.iter().all(|&t| t == expect), "got {got:?}");
}

#[test]
fn invalidation_forces_refetch_of_new_data() {
    // Node 1 reads a page (cached), node 0 then modifies it across a
    // barrier; node 1's copy must be invalidated and re-fetched.
    let cfg = small_cfg(2, 2);
    let got = spawn(cfg, |mut node| {
        let addr = 0; // page 0, homed at node 0
        if node.inner.me() == 0 {
            node.write_u64(addr, 1);
        }
        node.barrier();
        let first = node.read_u64(addr);
        node.barrier();
        if node.inner.me() == 0 {
            node.write_u64(addr, 2);
        }
        node.barrier();
        let second = node.read_u64(addr);
        node.barrier();
        (first, second, node.inner.ctx.stats.page_fetches)
    });
    assert_eq!((got[0].0, got[0].1), (1, 2));
    assert_eq!((got[1].0, got[1].1), (1, 2));
    // node 1 fetched the page twice (once per read generation)
    assert_eq!(got[1].2, 2);
}

#[test]
fn home_accesses_take_no_fetches() {
    let cfg = small_cfg(2, 2);
    let got = spawn(cfg, |mut node| {
        if node.inner.me() == 0 {
            for i in 0..8 {
                node.write_u64(i * 8, i as u64);
            }
            for i in 0..8 {
                assert_eq!(node.read_u64(i * 8), i as u64);
            }
        }
        node.barrier();
        (
            node.inner.ctx.stats.page_fetches,
            node.inner.ctx.stats.twins_created,
            node.inner.ctx.stats.write_faults,
        )
    });
    let (fetches, twins, wfaults) = got[0];
    assert_eq!(fetches, 0, "home accesses never fetch");
    assert_eq!(twins, 0, "home writes make no twins");
    assert_eq!(wfaults, 1, "one write-detection trap per interval");
}

#[test]
fn diffs_flow_to_home_not_whole_pages() {
    // A remote writer modifying one word sends a diff, not the page.
    let cfg = small_cfg(2, 2);
    let got = spawn(cfg, |mut node| {
        if node.inner.me() == 1 {
            node.write_u64(8, 99); // page 0, homed at node 0
        }
        node.barrier();
        (
            node.inner.ctx.stats.diffs_created,
            node.inner.ctx.stats.diff_bytes,
        )
    });
    assert_eq!(got[1].0, 1);
    assert!(
        got[1].1 < 64,
        "single-word diff should be tiny, got {} bytes",
        got[1].1
    );
    // And the home sees the update.
    let cfg2 = small_cfg(2, 2);
    let vals = spawn(cfg2, |mut node| {
        if node.inner.me() == 1 {
            node.write_u64(8, 99);
        }
        node.barrier();
        node.read_u64(8)
    });
    assert_eq!(vals, vec![99, 99]);
}

#[test]
fn successive_intervals_accumulate_at_home() {
    // A writer updates the same remote page across several barriers;
    // each interval's diff lands at the home in order.
    let cfg = small_cfg(2, 2);
    let got = spawn(cfg, |mut node| {
        for round in 1..=4u64 {
            if node.inner.me() == 1 {
                node.write_u64(16, round * 10);
                node.write_u64(24, round);
            }
            node.barrier();
            let a = node.read_u64(16);
            let b = node.read_u64(24);
            assert_eq!((a, b), (round * 10, round));
            node.barrier();
        }
        node.inner.vc.get(1)
    });
    // Node 1 produced one interval per round.
    assert!(got.iter().all(|&c| c == 4));
}

#[test]
fn clocks_synchronize_at_barriers() {
    // After a barrier, everyone's virtual clock is at least the
    // latest arrival (no node "time travels" past the barrier).
    let cfg = small_cfg(3, 3);
    let got = spawn(cfg, |mut node| {
        if node.inner.me() == 2 {
            // Straggler: burn compute before arriving.
            node.inner.ctx.charge_flops(1_000_000);
        }
        let before = node.inner.ctx.now();
        node.barrier();
        let after = node.inner.ctx.now();
        (before, after)
    });
    let slowest_before: SimTime = got.iter().map(|&(b, _)| b).max().unwrap();
    assert!(
        got.iter().all(|&(_, a)| a >= slowest_before),
        "barrier must not release before the last arrival: {got:?}"
    );
}

#[test]
fn lock_chain_transfers_notices_without_barrier() {
    // P0 writes under the lock, P1 acquires the same lock next and must
    // see the write (notice chain through the lock manager).
    let cfg = small_cfg(2, 2);
    let got = spawn(cfg, |mut node| {
        let addr = 256; // page 1, homed at node 1
        let v = if node.inner.me() == 0 {
            node.acquire(0);
            node.write_u64(addr, 7);
            node.release(0);
            node.barrier();
            0
        } else {
            // The barrier orders the second acquire after P0's release
            // (keeps the test deterministic without relying on timing).
            node.barrier();
            node.acquire(0);
            let v = node.read_u64(addr);
            node.release(0);
            v
        };
        // Final barrier keeps every node alive until all lock traffic
        // (including requests to managers) has been served.
        node.barrier();
        v
    });
    assert_eq!(got[1], 7);
}

#[test]
fn eight_node_stress_mixed_traffic() {
    // All 8 nodes write their own stripe of a shared array (pages homed
    // block-wise), then read a neighbour's stripe each round.
    let cfg = small_cfg(8, 16);
    let got = spawn(cfg, |mut node| {
        let me = node.inner.me();
        let stripe = 2 * 256; // two pages per node
        for round in 0..3u64 {
            for w in 0..(stripe / 8) {
                node.write_u64(me * stripe + w * 8, round * 1000 + me as u64);
            }
            node.barrier();
            let neigh = (me + 1) % 8;
            let v = node.read_u64(neigh * stripe);
            assert_eq!(v, round * 1000 + neigh as u64);
            node.barrier();
        }
        node.inner.ctx.stats.barriers
    });
    assert!(got.iter().all(|&b| b == 6));
}

#[test]
fn contended_lock_queues_grant_in_order() {
    // All nodes pile onto one lock at once; the manager queues and
    // grants one at a time, and every critical section is atomic.
    let cfg = small_cfg(4, 4);
    let got = spawn(cfg, |mut node| {
        node.barrier(); // align the contention burst
        node.acquire(3);
        let v = node.read_u64(0);
        // A tiny compute gap inside the critical section.
        node.inner.ctx.charge_flops(10_000);
        node.write_u64(0, v + 1);
        node.release(3);
        node.barrier();
        let v = node.read_u64(0);
        node.barrier(); // keep the home reachable until everyone has read
        v
    });
    assert!(got.iter().all(|&v| v == 4), "{got:?}");
}

#[test]
fn two_locks_do_not_interfere() {
    let cfg = small_cfg(4, 4);
    let got = spawn(cfg, |mut node| {
        let (lock, addr) = if node.inner.me() % 2 == 0 {
            (10, 0)
        } else {
            (11, 256)
        };
        for _ in 0..4 {
            node.acquire(lock);
            let v = node.read_u64(addr);
            node.write_u64(addr, v + 1);
            node.release(lock);
        }
        node.barrier();
        let a = node.read_u64(0);
        let b = node.read_u64(256);
        node.barrier();
        (a, b)
    });
    assert!(got.iter().all(|&(a, b)| a == 8 && b == 8), "{got:?}");
}

#[test]
fn write_faults_on_read_only_copy_upgrade_in_place() {
    // Read a remote page (ReadOnly copy), then write it: the upgrade
    // must twin the existing copy without a second fetch.
    let cfg = small_cfg(2, 2);
    let got = spawn(cfg, |mut node| {
        if node.inner.me() == 0 {
            node.write_u64(256, 5); // page 1, homed at node 1
        }
        node.barrier();
        if node.inner.me() == 0 {
            let before_fetches = node.inner.ctx.stats.page_fetches;
            let v = node.read_u64(256); // may refetch after invalidation
            let fetches_after_read = node.inner.ctx.stats.page_fetches;
            node.write_u64(256, v + 1); // upgrade: no new fetch
            assert_eq!(node.inner.ctx.stats.page_fetches, fetches_after_read);
            let _ = before_fetches;
        }
        node.barrier();
        let v = node.read_u64(256);
        node.barrier();
        v
    });
    assert!(got.iter().all(|&v| v == 6));
}

#[test]
fn empty_intervals_produce_no_notices() {
    // Barriers without writes must not generate diffs, notices, or
    // invalidations.
    let cfg = small_cfg(3, 3);
    let got = spawn(cfg, |mut node| {
        if node.inner.me() == 0 {
            node.write_u64(0, 1);
        }
        node.barrier();
        let _ = node.read_u64(0); // everyone caches page 0
        node.barrier();
        for _ in 0..5 {
            node.barrier(); // idle barriers
        }
        let fetches_before = node.inner.ctx.stats.page_fetches;
        let v = node.read_u64(0); // still cached: no refetch
        let fetches_after = node.inner.ctx.stats.page_fetches;
        node.barrier();
        (v, fetches_after - fetches_before)
    });
    for (i, &(v, extra_fetches)) in got.iter().enumerate() {
        assert_eq!(v, 1);
        if i != 0 {
            assert_eq!(extra_fetches, 0, "node {i} refetched despite no writes");
        }
    }
}

#[test]
fn homes_remember_who_fetched_what_until_they_crash() {
    // Node 1 gets pages homed at node 0 in every way the protocol
    // offers — demand request, batched demand page with two predicted
    // extras, recovery fetch — and says hello as a recovering node
    // would. A demand page is always held and so is a recovery fetch;
    // an extra is held only once node 1 has reported touching it, on a
    // later request, and the one it never reports never is. After
    // node 0 itself crashes, its copysets are gone and it must say so.
    let cfg = small_cfg(2, 12); // pages 0..6 homed at node 0
    let go = Msg::DiffAck {
        writer: IntervalId { node: 1, seq: 0 },
    };
    let got = spawn(cfg, move |mut node| {
        if node.inner.me() == 0 {
            node.barrier(); // serves node 1's requests while gathering
            let held = node.inner.pages.held_by(1);
            let complete = node.inner.pages.copysets_complete();
            let (mut node, _) = node.restart(Box::new(NoLogging));
            // Serve the post-crash hello until node 1 releases us.
            node.wait_for(|m| matches!(m, Msg::DiffAck { .. }));
            vec![(held, complete)]
        } else {
            let ask = |node: &mut HlrcNode, m: Msg| node.inner.ctx.send(0, m).expect("send");
            let mut replies = Vec::new();
            let mut hello = |node: &mut HlrcNode| {
                ask(node, Msg::RecoveryHello);
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryHelloReply { .. }));
                let Msg::RecoveryHelloReply { held, complete, .. } = env.payload else {
                    unreachable!()
                };
                replies.push((held, complete));
            };
            ask(
                &mut node,
                Msg::PageRequestBatch {
                    page: 0,
                    extras: vec![],
                    hits: vec![],
                },
            );
            node.wait_for(|m| matches!(m, Msg::PageReply { page: 0, .. }));
            ask(
                &mut node,
                Msg::PageRequestBatch {
                    page: 1,
                    extras: vec![2, 4],
                    hits: vec![],
                },
            );
            node.wait_for(|m| matches!(m, Msg::PageReply { page: 1, .. }));
            let env = node.wait_for(|m| matches!(m, Msg::PageReplyBatch { after: 1, .. }));
            let Msg::PageReplyBatch { pages, .. } = env.payload else {
                unreachable!()
            };
            let shipped: Vec<u32> = pages.iter().map(|(p, _, _)| *p).collect();
            assert_eq!(shipped, vec![2, 4], "both extras were shipped");
            hello(&mut node);
            // The next fault at node 0 carries the report: node 1 has
            // touched extra 2.
            ask(
                &mut node,
                Msg::PageRequestBatch {
                    page: 1,
                    extras: vec![],
                    hits: vec![2],
                },
            );
            node.wait_for(|m| matches!(m, Msg::PageReply { page: 1, .. }));
            let required = node.inner.vc.clone();
            let request = Msg::RecoveryPageRequest {
                page: 3,
                required,
                held: None,
            };
            ask(&mut node, request);
            node.wait_for(|m| matches!(m, Msg::RecoveryPageReply { page: 3, .. }));
            hello(&mut node);
            node.barrier();
            hello(&mut node);
            ask(&mut node, go.clone());
            replies
        }
    });
    let touched = vec![0, 1, 2, 3];
    assert_eq!(got[0], vec![(touched.clone(), true)], "home's own view");
    assert_eq!(
        got[1][0],
        (vec![0, 1], true),
        "before any extra is reported"
    );
    assert_eq!(got[1][1], (touched, true), "hello reply before the crash");
    assert_eq!(got[1][2], (vec![], false), "hello reply after the crash");
}

#[test]
fn a_used_prediction_is_reported_with_the_next_fault_at_its_home() {
    // The requester's half, on the real fetch path. Node 1 faults on
    // page 0 and is shipped page 1 with it; the copy installs while it
    // waits for page 8 from another home; reading page 1 then costs no
    // fetch and leaves one first touch owed to node 0. Across a barrier
    // nothing tells node 0, which lists page 0 alone; node 1's next
    // fault at node 0 (page 2) carries the report, and the list grows
    // by both pages.
    let cfg = small_cfg(3, 12); // four pages each: 0.. at node 0, 8.. at node 2
    let got = spawn(cfg, |mut node| {
        let me = node.inner.me();
        match me {
            0 => {
                node.write_u64(0, 1);
                node.write_u64(256, 2);
            }
            2 => node.write_u64(8 * 256, 3),
            _ => {}
        }
        node.barrier();
        let mut owed = Vec::new();
        if me == 1 {
            let sum = node.read_u64(0) + node.read_u64(8 * 256);
            let fetches = node.inner.ctx.stats.page_fetches;
            owed.push(node.inner.prefetch.unreported_hits());
            assert_eq!(sum + node.read_u64(256), 6);
            assert_eq!(
                node.inner.ctx.stats.page_fetches, fetches,
                "page 1 was fetched"
            );
            owed.push(node.inner.prefetch.unreported_hits());
        }
        node.barrier();
        let before = node.inner.pages.held_by(1);
        if me == 1 {
            node.read_u64(2 * 256);
            owed.push(node.inner.prefetch.unreported_hits());
        }
        node.barrier();
        (owed, before, node.inner.pages.held_by(1))
    });
    assert_eq!(got[1].0, vec![0, 1, 0], "first touches owed by node 1");
    assert_eq!((&got[0].1, &got[0].2), (&vec![0], &vec![0, 1, 2]));
    assert_eq!((&got[2].1, &got[2].2), (&vec![8], &vec![8]));
}

/// A logging layer that logs nothing but makes homes retain the pages
/// they serve, as CCL does.
struct Retaining;

impl FaultTolerance for Retaining {
    fn served_copies(&self) -> ServedCopies {
        ServedCopies::Retain
    }
}

#[test]
fn a_home_restores_a_peer_from_what_it_served_until_it_crashes() {
    // Node 0 commits 0xA1 to its page 0 and node 1 fetches it. Node 1
    // then asks as a replaying node would: at a clock that covers
    // nothing (the checkpoint base, image 0), and at a clock that
    // covers the write while it holds image 0 (the buffer it was sent,
    // as a one-word diff). After node 0 itself crashed the served log
    // is gone, and it must say so rather than hand out its base.
    let cfg = small_cfg(2, 4); // pages 0..2 homed at node 0
    let go = Msg::DiffAck {
        writer: IntervalId { node: 1, seq: 0 },
    };
    let got = run_cluster(cfg.n_nodes, CostModel::default(), move |ctx| {
        let mut node = HlrcNode::new(ctx, cfg, Box::new(Retaining));
        if node.inner.me() == 0 {
            node.write_u64(8, 0xA1);
            node.barrier(); // serves node 1's requests while gathering
            let (mut node, _) = node.restart(Box::new(Retaining));
            node.wait_for(|m| matches!(m, Msg::DiffAck { .. }));
            Vec::new()
        } else {
            let ask = |node: &mut HlrcNode, required: VClock, held| {
                let request = Msg::RecoveryPageRequest {
                    page: 0,
                    required,
                    held,
                };
                node.inner.ctx.send(0, request).expect("send");
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryPageReply { .. }));
                let Msg::RecoveryPageReply { image, .. } = env.payload else {
                    unreachable!()
                };
                image
            };
            node.inner
                .ctx
                .send(
                    0,
                    Msg::PageRequestBatch {
                        page: 0,
                        extras: vec![],
                        hits: vec![],
                    },
                )
                .expect("send");
            let fetched = node.wait_for(|m| matches!(m, Msg::PageReply { .. }));
            let Msg::PageReply { data, .. } = fetched.payload else {
                unreachable!()
            };
            let mut written = VClock::new(2);
            written.observe(IntervalId { node: 0, seq: 0 });
            let mut answers = vec![
                RecoveryImage::Image { pos: 1, data },
                ask(&mut node, VClock::new(2), None),
                ask(&mut node, written.clone(), Some(0)),
                ask(&mut node, written.clone(), None),
            ];
            node.barrier();
            answers.push(ask(&mut node, written, None));
            node.inner.ctx.send(0, go.clone()).expect("send");
            answers
        }
    });
    let answers = &got[1];
    let RecoveryImage::Image { data: sent, .. } = &answers[0] else {
        unreachable!()
    };
    assert_eq!(
        answers[1],
        RecoveryImage::Image {
            pos: 0,
            data: vec![0; 256].into()
        },
        "nothing covered: the checkpoint base"
    );
    let RecoveryImage::Delta { pos: 1, diff } = &answers[2] else {
        panic!("expected a delta to image 1, got {:?}", answers[2]);
    };
    let mut copy = pagemem::PageFrame::zeroed(256);
    diff.apply(&mut copy);
    assert_eq!(
        copy.bytes(),
        &sent[..],
        "the delta leads to the buffer sent"
    );
    assert_eq!(diff.payload_bytes(), 4, "one 4-byte diff word changed");
    assert_eq!(&answers[3], &answers[0], "no held image: the whole buffer");
    assert_eq!(
        answers[4],
        RecoveryImage::Absent,
        "a crashed home retains nothing"
    );
}

/// A recovery fetch serviced while the home has an *open* interval on
/// the page must not see the live frame: the open-interval words are in
/// no version the replaying peer can have required, and their extent
/// depends on real scheduling. No twin was ever made; the answer is the
/// buffer node 1 was sent when it fetched the page — 0xA1, not the live
/// 0xA2. Asked again by a requester that holds that image, the home
/// sends an empty delta.
#[test]
fn recovery_fetch_of_a_dirty_home_page_serves_the_image_it_retained() {
    let cfg = small_cfg(2, 4);
    let mut out = run_cluster(2, CostModel::default(), move |ctx| {
        let mut node = HlrcNode::new(ctx, cfg, Box::new(Retaining));
        if node.inner.me() == 0 {
            // Commit 0xA1 on the locally-homed page 0, then let node 1
            // install a copy (its fetch is serviced inside the barrier
            // gather loops).
            node.write_u64(8, 0xA1);
            node.barrier();
            node.barrier();
            // Open a new interval on the page, say so, and serve node
            // 1's recovery fetches while still mid-interval.
            node.write_u64(8, 0xA2);
            let go = Msg::DiffAck {
                writer: IntervalId { node: 0, seq: 0 },
            };
            node.inner.ctx.send(1, go).expect("send go signal");
            for _ in 0..2 {
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryPageRequest { .. }));
                let done = node.inner.ctx.service_time(&env);
                node.inner.serve_recovery_page(&env, done);
            }
            node.barrier();
            (Vec::new(), node.inner.ctx.stats.twins_created)
        } else {
            node.barrier();
            assert_eq!(node.read_u64(8), 0xA1);
            node.barrier();
            let required = node.inner.vc.clone();
            node.wait_for(|m| matches!(m, Msg::DiffAck { .. }));
            // As a replaying node would: twice, the second time naming
            // what the first answer said it now holds.
            let mut images = Vec::new();
            let mut held = None;
            for _ in 0..2 {
                let request = Msg::RecoveryPageRequest {
                    page: 0,
                    required: required.clone(),
                    held,
                };
                node.inner.ctx.send(0, request).expect("send");
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryPageReply { .. }));
                let Msg::RecoveryPageReply { image, .. } = env.payload else {
                    unreachable!()
                };
                if let RecoveryImage::Image { pos, .. } = &image {
                    held = Some(*pos);
                }
                images.push(image);
            }
            node.barrier();
            (images, 0)
        }
    });
    let (images, _) = out.pop().expect("node 1");
    let (_, twins) = out.pop().expect("node 0");
    assert_eq!(twins, 0, "a home that retains served pages twins nothing");
    let RecoveryImage::Image { pos: 1, data } = &images[0] else {
        panic!("expected the retained image, got {:?}", images[0]);
    };
    assert_eq!(u64::from_le_bytes(data[8..16].try_into().unwrap()), 0xA1);
    assert!(
        matches!(&images[1], RecoveryImage::Delta { pos: 1, diff } if diff.is_empty()),
        "expected an empty delta against the held image, got {:?}",
        images[1]
    );
}

/// [`Retaining`], plus the one thing a CCL home that may be asked again
/// does when it recovers: it rebuilds its served logs. The test below is
/// the replay.
struct Rebuilding {
    replaying: bool,
    updates: Vec<(u32, IntervalId)>,
}

impl FaultTolerance for Rebuilding {
    fn served_copies(&self) -> ServedCopies {
        ServedCopies::Retain
    }
    fn begin_recovery(&mut self, inner: &mut hlrc::NodeInner) -> Option<Vec<u8>> {
        self.replaying = true;
        inner
            .pages
            .rebuild_served_logs(self.updates.iter().copied());
        None
    }
    fn in_recovery(&self) -> bool {
        self.replaying
    }
    fn finish_recovery(&mut self, _inner: &mut hlrc::NodeInner) {
        self.replaying = false;
    }
}

#[test]
fn a_held_position_from_before_the_homes_crash_is_answered_with_a_whole_page() {
    // Page 2 is homed at node 1. Live, node 0's diff (0xD1) reaches the
    // home while the home's own interval is open with 0xA1 written and
    // 0xB2 still to come, and node 0 is restored from the image at
    // position 1: {A1, D1}. The home crashes and replays — its own
    // interval first, then the recorded update — so its rebuilt image
    // at position 1 is {A1, B2}. A request that still names position 1
    // as held would get "D1" as the delta to position 2, and end up
    // without B2. It must get the whole page; and while the home has
    // not re-applied D1, no answer at all.
    const PAGE2: usize = 2 * 256;
    let cfg = small_cfg(2, 4);
    let mark = |seq| Msg::DiffAck {
        writer: IntervalId { node: 9, seq },
    };
    let is_mark =
        |m: &Msg, n| matches!(m, Msg::DiffAck { writer } if writer.node == 9 && writer.seq == n);
    let d1 = IntervalId { node: 0, seq: 0 };
    let diff = || pagemem::PageDiff {
        page: 2,
        runs: vec![pagemem::DiffRun {
            offset: 16,
            data: 0xD1u64.to_le_bytes().to_vec(),
        }],
    };
    let word = |data: &[u8], at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
    let rebuilding = move || {
        Box::new(Rebuilding {
            replaying: false,
            updates: vec![(2, d1)],
        })
    };
    let got = run_cluster(cfg.n_nodes, CostModel::default(), move |ctx| {
        let mut node = HlrcNode::new(ctx, cfg, rebuilding());
        let send = |node: &mut HlrcNode, to, msg| node.inner.ctx.send(to, msg).expect("send");
        if node.inner.me() == 1 {
            node.write_u64(PAGE2 + 8, 0xA1);
            send(&mut node, 0, mark(0));
            node.wait_for(|m| is_mark(m, 1)); // serves the flush and both fetches
            node.write_u64(PAGE2 + 24, 0xB2);
            node.barrier();
            let (mut node, _) = node.restart(rebuilding());
            // Replay, by hand: the interval, then the update.
            node.write_u64(PAGE2 + 8, 0xA1);
            node.write_u64(PAGE2 + 24, 0xB2);
            node.inner.close_interval();
            send(&mut node, 0, mark(2));
            node.wait_for(|m| is_mark(m, 3));
            assert!(
                node.inner.has_parked_fetches(),
                "answered before D1 was back"
            );
            node.inner.apply_home_diff(&diff(), d1);
            let now = node.inner.ctx.now();
            node.inner.serve_parked_fetches(now);
            assert!(!node.inner.has_parked_fetches());
            node.barrier(); // leaves recovery; serves the last request
            node.barrier();
            Vec::new()
        } else {
            let ask = |node: &mut HlrcNode, required: &VClock, held| {
                let request = Msg::RecoveryPageRequest {
                    page: 2,
                    required: required.clone(),
                    held,
                };
                send(node, 1, request);
            };
            let answer = |node: &mut HlrcNode| {
                let env = node.wait_for(|m| matches!(m, Msg::RecoveryPageReply { .. }));
                let Msg::RecoveryPageReply { image, .. } = env.payload else {
                    unreachable!()
                };
                image
            };
            node.wait_for(|m| is_mark(m, 0));
            let flush = Msg::DiffFlush {
                writer: d1,
                diffs: vec![diff()],
            };
            send(&mut node, 1, flush);
            node.wait_for(|m| matches!(m, Msg::DiffAck { writer } if *writer == d1));
            send(
                &mut node,
                1,
                Msg::PageRequestBatch {
                    page: 2,
                    extras: vec![],
                    hits: vec![],
                },
            );
            node.wait_for(|m| matches!(m, Msg::PageReply { .. }));
            let mut required = VClock::new(2);
            required.observe(d1);
            ask(&mut node, &required, None);
            let mut answers = vec![answer(&mut node)];
            send(&mut node, 1, mark(1));
            node.barrier();
            node.wait_for(|m| is_mark(m, 2));
            required.observe(IntervalId { node: 1, seq: 0 });
            ask(&mut node, &required, Some(1));
            // The mark must reach the home after the request. Arrival
            // goes by departure and size, and the mark is the smaller
            // message, so it leaves later.
            let later = node.inner.ctx.now() + SimDuration::from_micros(10);
            node.inner.ctx.send_from(later, 1, mark(3)).expect("send");
            answers.push(answer(&mut node));
            ask(&mut node, &required, Some(2));
            answers.push(answer(&mut node));
            node.barrier();
            answers
        }
    });
    let answers = &got[0];
    let RecoveryImage::Image { pos: 1, data } = &answers[0] else {
        panic!("before the crash: {:?}", answers[0]);
    };
    assert_eq!(
        (word(data, 8), word(data, 16), word(data, 24)),
        (0xA1, 0xD1, 0)
    );
    let RecoveryImage::Image { pos: 2, data } = &answers[1] else {
        panic!(
            "a stale held position must yield the whole page, got {:?}",
            answers[1]
        );
    };
    assert_eq!(
        (word(data, 8), word(data, 16), word(data, 24)),
        (0xA1, 0xD1, 0xB2)
    );
    // Position 2 was sent by this incarnation: naming it is fine.
    assert!(
        matches!(&answers[2], RecoveryImage::Delta { pos: 2, diff } if diff.is_empty()),
        "{:?}",
        answers[2]
    );
}

/// The epoch fence. Node 1 sends node 2 (manager of lock 2) a request
/// stamped with epoch 1 while node 2 is still parked in barrier 0 — as a
/// node that left the barrier one release transfer earlier would. Node
/// 2 must not answer from inside the barrier: the grant leaves only
/// after it has consumed its own release, at its next protocol entry.
/// If node 2 crashes at that barrier instead, the request survives the
/// crash and is answered once node 2 is back at epoch 1.
fn early_lock_request_waits_out_the_barrier(crash: bool) {
    let lock_grant = (0..hlrc::MSG_KINDS)
        .find(|&k| hlrc::kind_label(k) == "LockGrant")
        .expect("a message kind");
    let grants = move |node: &HlrcNode| node.inner.ctx.stats.msgs_by_kind[lock_grant];
    let cfg = small_cfg(3, 3);
    let times = spawn(cfg, move |mut node| match node.inner.me() {
        1 => {
            let early = Msg::LockRequest {
                lock: 2,
                epoch: 1,
                vc: VClock::new(3),
            };
            node.inner.ctx.send(2, early).expect("send");
            // Arrive late, so the request sits at node 2 for a while.
            node.inner.ctx.charge_flops(100_000);
            node.barrier();
            let grant = node.wait_for(|m| matches!(m, Msg::LockGrant { lock: 2, .. }));
            let release = Msg::LockRelease {
                lock: 2,
                vc: VClock::new(3),
                notices: vec![],
            };
            node.inner.ctx.send(2, release).expect("send");
            node.barrier();
            (grant.sent_at, grant.sent_at)
        }
        2 => {
            node.barrier();
            let left = node.inner.ctx.now();
            assert_eq!(grants(&node), 0, "granted from inside the barrier");
            if crash {
                // No log: the restart re-executes barrier 0, which the
                // manager answers from its release history.
                node = node.restart(Box::new(NoLogging)).0;
                assert_eq!(grants(&node), 0, "granted at epoch 0 after the crash");
                node.barrier();
            }
            let back = node.inner.ctx.now();
            node.barrier(); // the next protocol entry: the grant goes out
            assert_eq!(grants(&node), 1, "one grant");
            (left, back)
        }
        _ => {
            node.barrier();
            node.barrier();
            (SimTime::ZERO, SimTime::ZERO)
        }
    });
    let granted_at = times[1].0;
    let (left, back) = times[2];
    assert!(
        granted_at >= left && granted_at >= back,
        "granted at {granted_at:?}: node 2 left the barrier at {left:?} and was back at {back:?}"
    );
}

#[test]
fn a_lock_request_from_the_next_epoch_is_answered_after_the_release() {
    early_lock_request_waits_out_the_barrier(false);
}

#[test]
fn a_lock_request_from_the_next_epoch_survives_a_crash_at_the_barrier() {
    early_lock_request_waits_out_the_barrier(true);
}
