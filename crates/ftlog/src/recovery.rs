//! Shared replay helpers used by both ML- and CCL-recovery.

use hlrc::{EpochRelease, Msg, NodeInner};
use simnet::Envelope;

/// The barrier manager's retained release history: read locally when
/// this node *is* the manager, requested over the network otherwise,
/// `wait`ing for the reply the caller's way (ML defers everything else,
/// CCL keeps serving recovering peers). A crashed manager lost its
/// history and answers with an empty list; every consumer degrades
/// gracefully on that (single-failure best effort).
pub(crate) fn fetch_release_history(
    inner: &mut NodeInner,
    wait: impl FnOnce(&mut NodeInner, fn(&Msg) -> bool) -> Envelope<Msg>,
) -> Vec<EpochRelease> {
    let mgr = inner.cfg.barrier_manager();
    if mgr == inner.me() {
        return inner.release_history();
    }
    inner
        .ctx
        .send(mgr, Msg::ReleaseHistoryRequest)
        .expect("send release history request");
    let reply = wait(inner, |m| matches!(m, Msg::ReleaseHistoryReply { .. }));
    let Msg::ReleaseHistoryReply { releases } = reply.payload else {
        unreachable!("waited for a release history reply");
    };
    releases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::invalidate_named;
    use hlrc::{DsmConfig, SyncKind, WriteNotice};
    use pagemem::{IntervalId, PageState, VClock};
    use simnet::{run_cluster, CostModel};

    /// A replayed barrier, booked by `NodeInner::replay_sync` and
    /// invalidated the way ML replay does: the fresh notice drops the
    /// stale copy, the clock covers it, the episode is closed and
    /// counted — and the same notices again admit nothing.
    #[test]
    fn replay_notices_invalidate_and_merge() {
        let cfg = DsmConfig::new(2, 4).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(2, CostModel::default(), move |ctx| {
            if ctx.id() != 0 {
                return;
            }
            let mut inner = NodeInner::new(ctx, cfg);
            // Give node 0 a cached copy of remote page 2.
            inner
                .pages
                .install_copy(2, [1u8; 64].into(), PageState::ReadOnly);
            let iv = IntervalId { node: 1, seq: 0 };
            let mut vc_in = VClock::new(2);
            vc_in.observe(iv);
            let notices = [WriteNotice {
                page: 2,
                interval: iv,
            }];
            let fresh = inner.replay_sync(SyncKind::Barrier(0), &notices, &vc_in);
            invalidate_named(&mut inner, &fresh);
            assert_eq!(fresh.len(), 1);
            assert_eq!(inner.pages.entry(2).state, PageState::Invalid);
            assert!(inner.vc.covers(iv));
            assert_eq!(inner.barrier_epoch, 1);
            assert_eq!(inner.last_barrier_vc, vc_in);
            assert!(inner.history.is_empty(), "the closed episode covers it");
            // Replaying the same notices again is a no-op.
            let again = inner.replay_sync(SyncKind::Acquire(0), &notices, &vc_in);
            assert!(again.is_empty());
            assert_eq!(inner.barrier_epoch, 1, "an acquire is no episode");
            // Nor does it restore a grant clock: only ML's log holds one.
            assert!(inner.lock_grant_vcs.is_empty());
        });
    }
}
