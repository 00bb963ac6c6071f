//! Adaptive home migration — the whole mechanism, so that removing it
//! is removing this file, `Msg::HomeMigrate` and the two barrier
//! envelope fields that carry its lists.
//!
//! A home profiles the diff bytes each remote writer flushes to its
//! pages. At a *migration window* (a checkpoint barrier, marked by the
//! cluster driver) it proposes to hand every page one remote writer
//! dominates to that writer; the manager rebroadcasts the merged list
//! on the release and every node applies it in the same order. The
//! checkpoint taken at that barrier captures the new mapping, so
//! migration and checkpoint are atomic with respect to crashes.

use std::collections::{BTreeMap, BTreeSet};

use pagemem::{Encode, IntervalId, PageDiff, PageId, SharedBytes};
use simnet::{Envelope, TraceKind};

use crate::msg::{HomeMigration, Msg};
use crate::node::{HlrcNode, NodeInner};

/// Volatile migration state of one node.
#[derive(Debug, Default)]
pub struct MigrationState {
    /// Home-side diff bytes per `(page, writer)` since the last
    /// migration window — the profile that drives the proposals.
    diff_traffic: BTreeMap<PageId, BTreeMap<u32, u64>>,
    /// Pages this node is adopting at the current barrier: the release
    /// named them but their [`Msg::HomeMigrate`] has not arrived yet.
    /// Page requests for them are stalled and re-serviced after the
    /// adoption completes.
    pending: BTreeSet<PageId>,
    /// The next barrier is a migration window (set by the cluster
    /// driver at checkpoint barriers); consumed at barrier arrival.
    pub window: bool,
}

impl NodeInner {
    /// Is `page` mid-adoption (mapping announced, data not yet here)?
    pub fn pending_migration(&self, page: PageId) -> bool {
        self.migration.pending.contains(&page)
    }

    /// The migration half of the stall predicate: traffic touching a
    /// page whose adoption this node has announced but not completed
    /// must wait — the old copy is stale and the new home has nothing
    /// to serve yet.
    pub(crate) fn stalls_on_migration(&self, msg: &Msg) -> bool {
        match msg {
            Msg::PageRequestBatch { page, extras, .. } => {
                self.pending_migration(*page) || extras.iter().any(|p| self.pending_migration(*p))
            }
            Msg::DiffFlush { diffs, .. } => diffs.iter().any(|d| self.pending_migration(d.page)),
            _ => false,
        }
    }

    /// Add one flushed interval to the diff-traffic profile.
    pub(crate) fn note_diff_traffic(&mut self, writer: IntervalId, diffs: &[PageDiff]) {
        for d in diffs {
            *self
                .migration
                .diff_traffic
                .entry(d.page)
                .or_default()
                .entry(writer.node)
                .or_default() += d.encoded_size() as u64;
        }
    }

    /// Home-migration proposals this node piggybacks on its barrier
    /// arrival: at a migration window, every home page whose diff
    /// traffic since the last window is dominated by one remote writer
    /// (strict majority of bytes) is proposed to move to that writer.
    /// Pages migrate at most once (`migrated` blocks re-proposals), so
    /// placement cannot ping-pong.
    pub(crate) fn migration_proposals(&mut self) -> Vec<HomeMigration> {
        if !std::mem::take(&mut self.migration.window) {
            return Vec::new();
        }
        let me = self.me() as u32;
        let mut out: Vec<HomeMigration> = Vec::new();
        for (page, writers) in std::mem::take(&mut self.migration.diff_traffic) {
            let e = self.pages.entry(page);
            if e.home as u32 != me || e.migrated {
                continue;
            }
            let total: u64 = writers.values().sum();
            // Strictly-greater wins, so BTreeMap order breaks byte
            // ties toward the lowest writer id — deterministic.
            let mut best_w = u32::MAX;
            let mut best_b = 0u64;
            for (&w, &b) in &writers {
                if b > best_b {
                    best_b = b;
                    best_w = w;
                }
            }
            if best_w != u32::MAX && best_w != me && best_b * 2 > total {
                out.push((page, best_w));
            }
        }
        out
    }
}

impl HlrcNode {
    /// Apply a barrier's committed migration list. Every node walks the
    /// *same sorted list in the same order*, so the cross-node handshake
    /// (old home sends [`Msg::HomeMigrate`], new home adopts) cannot
    /// deadlock: sends are non-blocking, adoptions are the only blocking
    /// entries, and by induction on the list index the first entry any
    /// node blocks on has already had its `HomeMigrate` dispatched.
    pub(crate) fn apply_migrations(&mut self, migrations: &[HomeMigration]) {
        if migrations.is_empty() {
            return;
        }
        let me = self.inner.me();
        // Pass 1: reserve every page this node is adopting, so a racing
        // request stalls (see `service`) instead of being answered by a
        // home role that is mid-handover.
        for &(page, to) in migrations {
            if to as usize == me && self.inner.pages.entry(page).home != me {
                self.inner.migration.pending.insert(page);
            }
        }
        for &(page, to) in migrations {
            let to = to as usize;
            let home = self.inner.pages.entry(page).home;
            if home == to {
                // Already applied — a replayed or re-delivered release
                // after a crash that preserved the post-migration
                // mapping. Idempotent skip.
                self.inner.migration.pending.remove(&page);
                continue;
            }
            if to == me {
                // Adopt. In-migrations arrive in deterministic but
                // list-order-unrelated order, so absorb whichever
                // `HomeMigrate` comes until *this* page is in.
                while self.inner.pending_migration(page) {
                    let env = self.wait_for(|m| matches!(m, Msg::HomeMigrate { .. }));
                    self.adopt_migrated(env);
                }
            } else if home == me {
                let page_size = self.inner.pages.page_size();
                let pages = &self.inner.pages;
                let data = SharedBytes::copy_of(pages.frame(page).bytes());
                let version = pages.home_state(page).version.clone();
                self.inner.ctx.charge_copy(page_size);
                let handover = Msg::HomeMigrate {
                    page,
                    data,
                    version,
                };
                self.inner
                    .ctx
                    .send(to, handover)
                    .expect("send home migrate");
                self.inner.pages.demote_home(page, to);
                self.inner.ctx.stats.home_migrations += 1;
                self.inner
                    .ctx
                    .trace(TraceKind::HomeMigrated { page, from: me, to });
            } else {
                self.inner.pages.note_migrated(page, to);
            }
        }
        debug_assert!(
            self.inner.migration.pending.is_empty(),
            "unadopted migrations left at node {me}"
        );
        self.drain_stalled(self.inner.ctx.now());
    }

    /// Absorb one [`Msg::HomeMigrate`]: log it (ML replays adoptions
    /// from these records), install the transferred home copy, and
    /// clear the page's reservation.
    pub(crate) fn adopt_migrated(&mut self, env: Envelope<Msg>) {
        self.ft.on_incoming(&mut self.inner, &env.payload);
        let Msg::HomeMigrate {
            page,
            data,
            version,
        } = env.payload
        else {
            unreachable!()
        };
        debug_assert!(
            self.inner.pending_migration(page),
            "home migrate for page {page} outside an adoption window"
        );
        self.inner.ctx.charge_copy(data.len());
        self.inner.pages.adopt_home(page, &data, version);
        self.inner.migration.pending.remove(&page);
    }
}
