//! The page-fetch exchange, both ends: the faulting node's request,
//! with its deterministic predictors, and the home's reply.
//!
//! There is one fetch path, whatever the logging protocol. A fault
//! sends the home one [`Msg::PageRequestBatch`] naming the faulting
//! page plus up to [`MAX_EXTRAS`] predicted same-home pages; the home
//! answers the demand page with an ordinary [`Msg::PageReply`] and
//! ships the predicted copies in one trailing [`Msg::PageReplyBatch`]
//! that installs asynchronously at the next inbox drain. A wrong
//! prediction costs bytes on the wire, never an extra stall.
//!
//! A predicted copy is held as the buffer it was shipped in, as every
//! copy is until its first write; its first touch hands the logging
//! layer the [`Msg::PageReply`] it arrived as: a protocol that logs
//! the page contents a node reads (ML) logs exactly the predictions
//! that were used, at the point a demand reply would have been logged,
//! and the ones never read cost it nothing. Nothing needs logging
//! earlier — an untouched copy cannot change (a write traps first, a
//! notice drops it).
//!
//! The home's copyset (what it tells a recovering peer it held) records
//! pages a node *touched*, not pages it was shipped: the demand page of
//! every request, and the extras the requester reports it has since
//! first touched — a list riding its next request to the same home.

use std::collections::{BTreeMap, BTreeSet};

use pagemem::{PageId, PageState};
use simnet::{Envelope, NodeId, SimTime, TraceKind};

use crate::msg::{Msg, PageCopy};
use crate::node::{HlrcNode, NodeInner};

/// Most predicted pages one demand fetch may pull along.
pub const MAX_EXTRAS: usize = 8;

/// Deterministic fetch-prediction state. Every input is a virtual-time
/// protocol event (fault page ids, invalidation notices), so prediction
/// is a pure function of the deterministic execution and the `report`
/// goldens' bit-reproducibility proof covers prefetch-enabled runs.
#[derive(Debug, Default)]
pub struct PrefetchState {
    /// Page of the previous demand fault.
    last_fault: Option<PageId>,
    /// Candidate stride between the last two demand faults, in pages.
    stride: i64,
    /// Two consecutive faults agreed on `stride` (two-miss confirmation
    /// before any stride prediction is issued).
    confirmed: bool,
    /// Remote pages named by the most recent notice batch that named
    /// any: the write-notice sets already carried by lock grants and
    /// barrier releases are a free predictor of what will fault next.
    /// Every remote page a fresh notice names is here, whether this
    /// node held a copy of it or not — the set is what the cluster
    /// wrote, not what this node was reading.
    recent_invalidated: BTreeSet<PageId>,
    /// Trailing prefetch batches not yet arrived, keyed by the demand
    /// page whose request issued them: `(demand page, sync_events at
    /// issue, predicted pages)`. The stamp gates the asynchronous
    /// install — extras are only as fresh as the acquire they were
    /// requested under, so a batch that crosses a synchronization
    /// operation is dropped, never installed stale.
    in_flight: Vec<(PageId, u64, Vec<PageId>)>,
    /// Predicted copies first touched since this node last asked their
    /// home for anything, by home: the next request to that home names
    /// them (see [`Msg::PageRequestBatch`]), so its copyset records
    /// them as held. Volatile like the rest — a crash before that
    /// request loses the report, and recovery restores such a page on
    /// demand instead of ahead of time.
    unreported_hits: BTreeMap<NodeId, BTreeSet<PageId>>,
    /// The page a demand fetch is currently blocked on, if any: an
    /// in-flight batch that carries it counts it as wasted instead of
    /// installing it mid-wait, where the demand reply would overwrite
    /// the copy and the prediction would be counted neither hit nor
    /// wasted. It protects that accounting and nothing else: without
    /// it no clock, log byte or digest moves, but `prefetch_wasted`
    /// loses exactly those predictions (616 of 25 592 on 3D-FFT, 88 of
    /// 5 725 on Shallow, 889 of 3 073 on the multi-writer kernel).
    demand: Option<PageId>,
}

impl PrefetchState {
    /// Record a demand fault at `page`, updating stride detection.
    fn note_fault(&mut self, page: PageId) {
        if let Some(prev) = self.last_fault {
            let s = i64::from(page) - i64::from(prev);
            if s != 0 && s == self.stride {
                self.confirmed = true;
            } else {
                self.stride = s;
                self.confirmed = false;
            }
        }
        self.last_fault = Some(page);
    }

    /// A confirmed stride, if any.
    fn stride(&self) -> Option<i64> {
        (self.confirmed && self.stride != 0).then_some(self.stride)
    }

    /// Is `page` predicted by a batch still in flight?
    fn in_flight(&self, page: PageId) -> bool {
        self.in_flight.iter().any(|(_, _, ps)| ps.contains(&page))
    }

    /// Remove the in-flight entry trailing demand page `after`, if any,
    /// and return its issue stamp.
    fn take_in_flight(&mut self, after: PageId) -> Option<u64> {
        let i = self.in_flight.iter().position(|(a, _, _)| *a == after)?;
        Some(self.in_flight.remove(i).1)
    }

    /// A notice batch invalidated `pages` (non-empty): the freshest
    /// invalidation set replaces the previous one as the notice-driven
    /// refetch predictor.
    pub(crate) fn note_invalidated(&mut self, pages: BTreeSet<PageId>) {
        self.recent_invalidated = pages;
    }

    /// The predicted copy of `page`, homed at `home`, was just touched
    /// for the first time: owe `home` a report.
    pub(crate) fn note_hit(&mut self, home: NodeId, page: PageId) {
        self.unreported_hits.entry(home).or_default().insert(page);
    }

    /// The first touches `home` has not been told of, ascending; they
    /// count as reported from here on.
    fn take_hits(&mut self, home: NodeId) -> Vec<PageId> {
        let hits = self.unreported_hits.remove(&home).unwrap_or_default();
        hits.into_iter().collect()
    }

    /// How many first touches are still owed to their homes.
    pub fn unreported_hits(&self) -> usize {
        self.unreported_hits.values().map(BTreeSet::len).sum()
    }
}

impl HlrcNode {
    /// Fetch `page` from its home, blocking for one round trip.
    pub(crate) fn fetch_page(&mut self, page: PageId) {
        self.drain_stalled(self.inner.ctx.now());
        let home = self.inner.pages.entry(page).home;
        self.inner.ctx.stats.page_fetches += 1;
        let extras = self.predict(page, home);
        let asked_at = self.inner.ctx.now();
        if !extras.is_empty() {
            self.inner.ctx.stats.prefetch_issued += extras.len() as u64;
            self.inner.ctx.trace(TraceKind::PrefetchIssued {
                page,
                count: extras.len() as u32,
            });
            self.inner
                .prefetch
                .in_flight
                .push((page, self.inner.sync_events, extras.clone()));
        }
        let hits = self.inner.prefetch.take_hits(home);
        let request = Msg::PageRequestBatch { page, extras, hits };
        self.inner
            .ctx
            .send(home, request)
            .expect("send page request");
        self.inner.prefetch.demand = Some(page);
        let env = self.wait_for(|m| matches!(m, Msg::PageReply { page: p, .. } if *p == page));
        self.inner.prefetch.demand = None;
        let page_size = self.inner.pages.page_size();
        self.inner.ctx.charge_copy(page_size);
        let waited = self.inner.ctx.now() - asked_at;
        self.inner
            .ctx
            .metrics
            .fetch_latency_ns
            .record(waited.as_nanos());
        self.inner.ctx.trace(TraceKind::PageFetch {
            page,
            from: home,
            wait_ns: waited.as_nanos(),
        });
        self.ft.on_incoming(&mut self.inner, &env.payload);
        if let Msg::PageReply { data, .. } = env.payload {
            self.inner
                .pages
                .install_copy(page, data, PageState::ReadOnly);
        }
    }

    /// Note the demand fault at `page` and return the predicted pages
    /// worth piggybacking on its request, all homed at `home` and
    /// currently invalid here: confirmed-stride projections first, then
    /// pages recently invalidated by write notices (likely to fault
    /// again), the scan stopping at the [`MAX_EXTRAS`]th. Ascending and
    /// deduplicated — a pure function of deterministic protocol state.
    fn predict(&mut self, page: PageId, home: NodeId) -> Vec<PageId> {
        self.inner.prefetch.note_fault(page);
        // A fault on a page already predicted by an in-flight batch
        // still pays one demand round trip (waiting out the batch could
        // stall longer than a fresh fetch), but issues no new
        // predictions — the in-flight batch already covers the window.
        if self.inner.prefetch.in_flight(page) {
            return Vec::new();
        }
        let n_pages = self.inner.pages.len() as i64;
        let mut out: Vec<PageId> = Vec::new();
        let want = |p: PageId, out: &mut Vec<PageId>| {
            if p == page || out.contains(&p) || out.len() >= MAX_EXTRAS {
                return;
            }
            let e = self.inner.pages.entry(p);
            if e.home == home && e.state == PageState::Invalid && !self.inner.prefetch.in_flight(p)
            {
                out.push(p);
            }
        };
        if let Some(stride) = self.inner.prefetch.stride() {
            let mut p = i64::from(page);
            for _ in 0..MAX_EXTRAS {
                p += stride;
                if p < 0 || p >= n_pages {
                    break;
                }
                want(p as PageId, &mut out);
            }
        }
        for &p in &self.inner.prefetch.recent_invalidated {
            if out.len() >= MAX_EXTRAS {
                break;
            }
            want(p, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// Install a trailing prefetch batch (see [`Msg::PageReplyBatch`]):
    /// gate on the issue-time synchronization stamp, then install every
    /// carried page that is still invalid, valid-until-invalidated, as
    /// the buffer it arrived in ([`crate::PageTable::install_predicted`]).
    /// Called from the asynchronous service path, so nothing here may
    /// block. Pages that went stale (a sync operation completed since
    /// the request) or valid (demand-fetched while the batch was in
    /// flight) count as wasted predictions. Nothing is logged here: a
    /// copy reaches the logging layer at its first touch, if it has one.
    pub(crate) fn install_prefetch_batch(&mut self, env: Envelope<Msg>) {
        let Msg::PageReplyBatch { after, pages } = env.payload else {
            unreachable!()
        };
        let stale = match self.inner.prefetch.take_in_flight(after) {
            // A batch from a pre-crash incarnation (the map resets with
            // the node) or one that crossed a synchronization operation
            // can no longer prove its copies fresh enough.
            None => true,
            Some(stamp) => stamp != self.inner.sync_events,
        };
        for (p, data, version) in pages {
            let e = self.inner.pages.entry(p);
            if stale || e.state != PageState::Invalid || self.inner.prefetch.demand == Some(p) {
                self.inner.ctx.stats.prefetch_wasted += 1;
                self.inner.ctx.trace(TraceKind::PrefetchWasted { page: p });
                continue;
            }
            self.inner.pages.install_predicted(p, data, version);
        }
    }

    /// Home side: answer `src`'s fetch of `page`, finishing service at
    /// `done`. The demand reply's timing never depends on how many
    /// `extras` ride along: their copies are made once it is on the
    /// wire. Nor does any timing depend on whether a copy is made
    /// afresh or is the buffer the clean frame already shares
    /// ([`crate::PageTable::serve_copy`]): the copy is priced either
    /// way.
    ///
    /// The copyset learns what `src` touches, not what it is shipped:
    /// the demand page, and each of `hits` — extras of earlier requests
    /// that `src` reports it has since first touched. An extra shipped
    /// here is noted when, and if, it comes back as a hit.
    pub(crate) fn serve_pages(
        &mut self,
        src: NodeId,
        page: PageId,
        extras: &[PageId],
        hits: &[PageId],
        done: SimTime,
    ) {
        let copy_of = |inner: &mut NodeInner, p: PageId| -> PageCopy {
            debug_assert!(inner.pages.is_home(p), "page request at non-home");
            let (data, version) = inner.pages.serve_copy(p);
            (p, data, version)
        };
        self.inner.pages.note_remote_fetch(page, src);
        for &hit in hits {
            debug_assert!(
                self.inner.pages.is_home(hit),
                "hit on a page homed elsewhere"
            );
            self.inner.pages.note_remote_fetch(hit, src);
        }
        let (_, data, version) = copy_of(&mut self.inner, page);
        let demand_cost = self.inner.ctx.cost.cpu.copy(data.len());
        let reply = Msg::PageReply {
            page,
            data,
            version,
        };
        self.inner
            .ctx
            .send_from(done + demand_cost, src, reply)
            .expect("send page reply");
        if extras.is_empty() {
            return;
        }
        let pages: Vec<PageCopy> = extras
            .iter()
            .map(|&p| copy_of(&mut self.inner, p))
            .collect();
        let total: usize = pages.iter().map(|(_, data, _)| data.len()).sum();
        let extras_cost = self.inner.ctx.cost.cpu.copy(total);
        self.inner
            .ctx
            .send_from(
                done + demand_cost + extras_cost,
                src,
                Msg::PageReplyBatch { after: page, pages },
            )
            .expect("send page reply batch");
    }
}

#[cfg(test)]
mod tests {
    use simnet::{run_cluster, CostModel};

    use super::*;
    use crate::{DsmConfig, NoLogging};

    /// With more eligible pages than [`MAX_EXTRAS`], interleaved with
    /// ineligible ones (homed elsewhere, valid here, already in flight),
    /// `predict` picks the confirmed stride's eligible projections
    /// first, then `recent_invalidated`'s in ascending order, and stops
    /// at eight: the first eight eligible pages, returned ascending.
    #[test]
    fn predict_returns_the_first_eight_eligible_pages() {
        let cfg = DsmConfig::new(3, 64).with_page_size(64);
        let picked = run_cluster(3, CostModel::default(), |ctx| {
            let mut node = HlrcNode::new(ctx, cfg, Box::new(NoLogging));
            if node.inner.me() != 0 {
                return Vec::new();
            }
            let pages = &mut node.inner.pages;
            for p in 0..64 {
                pages.set_home(p, 1);
            }
            for p in [2, 16, 28, 34, 41] {
                pages.set_home(p, 2);
            }
            for p in [4, 22, 31, 43] {
                pages.entry_mut(p).state = PageState::ReadOnly;
            }
            let prefetch = &mut node.inner.prefetch;
            prefetch.in_flight.push((60, 0, vec![6, 25, 45]));
            // Faults at 4 then 7 set the stride 3 that the fault at 10
            // confirms: it projects 13, 16, ..., 34.
            (prefetch.last_fault, prefetch.stride) = (Some(7), 3);
            prefetch.recent_invalidated =
                [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 40, 41, 42, 43, 44]
                    .into_iter()
                    .collect();
            node.predict(10, 1)
        });
        assert_eq!(picked[0], vec![1, 3, 5, 8, 9, 11, 13, 19]);
    }
}
