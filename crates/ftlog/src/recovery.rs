//! Shared replay helpers used by both ML- and CCL-recovery.

use hlrc::{EpochRelease, Msg, NodeInner, WriteNotice};
use pagemem::VClock;
use simnet::Envelope;

/// Re-apply a synchronization operation's notices during replay: admit
/// them ([`NodeInner::admit_notices`], the rule live execution uses) and
/// invalidate the remote copies the fresh ones name — the recovery-mode
/// twin of the driver's failure-free notice processing, without
/// logging hooks or prefetch accounting.
///
/// Returns the notices that were fresh (not yet covered).
pub fn replay_apply_notices(
    inner: &mut NodeInner,
    notices: &[WriteNotice],
    vc_in: &VClock,
) -> Vec<WriteNotice> {
    let me = inner.me() as u32;
    let fresh = inner.admit_notices(notices, vc_in);
    for n in &fresh {
        if n.interval.node != me && !inner.pages.is_home(n.page) {
            inner.pages.invalidate(n.page, &mut inner.pool);
        }
    }
    fresh
}

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
    use hlrc::DsmConfig;
    use pagemem::{IntervalId, PageState};
    use simnet::{run_cluster, CostModel};

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
                .install_copy(2, &[1u8; 64], PageState::ReadOnly, &mut inner.pool);
            let iv = IntervalId { node: 1, seq: 0 };
            let mut vc_in = VClock::new(2);
            vc_in.observe(iv);
            let fresh = replay_apply_notices(
                &mut inner,
                &[WriteNotice {
                    page: 2,
                    interval: iv,
                }],
                &vc_in,
            );
            assert_eq!(fresh.len(), 1);
            assert_eq!(inner.pages.entry(2).state, PageState::Invalid);
            assert!(inner.vc.covers(iv));
            // Replaying the same notices again is a no-op.
            let again = replay_apply_notices(
                &mut inner,
                &[WriteNotice {
                    page: 2,
                    interval: iv,
                }],
                &vc_in,
            );
            assert!(again.is_empty());
        });
    }
}
