//! The three notice merges — the barrier manager's union of arrivals,
//! a lock's release chain and a receiver's fresh set — keep the first
//! occurrence of each notice, in order: exactly the list a
//! `Vec::contains` scan builds, which is what every merge was before
//! it kept a set index.

use std::cell::RefCell;

use hlrc::{BarrierMgr, DsmConfig, LockTable, Msg, NodeInner, WriteNotice};
use minicheck::{check, Rng};
use pagemem::{IntervalId, VClock};
use simnet::{run_cluster, CostModel, SimTime};

const CASES: u64 = 256;
const NODES: usize = 4;

/// A list drawn from a few pages and a few intervals, so that repeats
/// and `A B A` orders are the rule.
fn arb_list(rng: &mut Rng) -> Vec<WriteNotice> {
    (0..rng.usize_in(0, 24))
        .map(|_| WriteNotice {
            page: rng.u32_in(0, 4),
            interval: IntervalId {
                node: rng.u32_in(0, NODES as u32),
                seq: rng.u32_in(0, 3),
            },
        })
        .collect()
}

fn arb_clock(rng: &mut Rng) -> VClock {
    let mut vc = VClock::new(NODES);
    for node in 0..NODES as u32 {
        vc.set(node, rng.u32_in(0, 4));
    }
    vc
}

/// The quadratic merge every indexed one must reproduce.
fn reference<'a>(lists: impl IntoIterator<Item = &'a WriteNotice>) -> Vec<WriteNotice> {
    let mut out: Vec<WriteNotice> = Vec::new();
    for n in lists {
        if !out.contains(n) {
            out.push(*n);
        }
    }
    out
}

#[test]
fn barrier_arrivals_merge_like_the_contains_scan() {
    check(
        "barrier_arrivals_merge_like_the_contains_scan",
        CASES,
        |rng| {
            let vc = VClock::new(NODES);
            let mut mgr = BarrierMgr::new(NODES);
            // Two episodes: the second must not remember the first.
            for _ in 0..2 {
                let lists: Vec<_> = (0..NODES).map(|_| arb_list(rng)).collect();
                for (node, list) in lists.iter().enumerate() {
                    mgr.arrive(node, &vc, list, SimTime(node as u64));
                }
                assert_eq!(
                    mgr.merged_notices.as_slice(),
                    reference(lists.iter().flatten())
                );
                mgr.reset();
            }
        },
    );
}

#[test]
fn a_lock_chain_merges_like_the_contains_scan() {
    check("a_lock_chain_merges_like_the_contains_scan", CASES, |rng| {
        let mut locks = LockTable::new(NODES);
        let st = locks.state_mut(0);
        let lists: Vec<_> = (0..rng.usize_in(1, 6)).map(|_| arb_list(rng)).collect();
        for (i, list) in lists.iter().enumerate() {
            st.record_release(&VClock::new(NODES), list, SimTime(i as u64));
        }
        let merged = reference(lists.iter().flatten());
        assert_eq!(st.notices.as_slice(), merged);
        let acquirer = arb_clock(rng);
        let unseen: Vec<_> = merged
            .into_iter()
            .filter(|n| !acquirer.covers(n.interval))
            .collect();
        assert_eq!(st.notices_for(&acquirer), unseen);
    });
}

#[test]
fn a_receiver_admits_like_the_contains_scan() {
    let cfg = DsmConfig::new(NODES, 4).with_page_size(64);
    run_cluster::<Msg, _, _>(NODES, CostModel::default(), move |ctx| {
        if ctx.id() != 0 {
            return;
        }
        // `check` takes an `Fn`; each case sets the receiver's clock.
        let inner = RefCell::new(NodeInner::new(ctx, cfg));
        check("a_receiver_admits_like_the_contains_scan", CASES, |rng| {
            let mut inner = inner.borrow_mut();
            inner.vc = arb_clock(rng);
            let list = arb_list(rng);
            let vc_in = arb_clock(rng);
            let fresh = reference(list.iter().filter(|n| !inner.vc.covers(n.interval)));
            let mut vc = inner.vc.clone();
            fresh.iter().for_each(|n| vc.observe(n.interval));
            vc.join(&vc_in);
            assert_eq!(inner.notices_admitted(&list, &vc_in), (fresh, vc));
        });
    });
}
