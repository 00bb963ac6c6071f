//! The application-facing DSM handle.

use std::marker::PhantomData;
use std::panic::panic_any;

use hlrc::{FaultTolerance, HlrcNode};
use pagemem::Access;
use simnet::NodeId;

use crate::shared::{ArrayHandle, SharedVal, ELEM_BYTES};
use crate::spec::CrashPlan;

/// Panic payload used to unwind out of the application at the injected
/// crash point (caught by the program runner).
pub(crate) struct CrashToken;

/// One node's view of the distributed shared memory: typed array access,
/// synchronization, allocation, checkpointing, and (for experiments)
/// crash injection.
pub struct Dsm {
    pub(crate) node: HlrcNode,
    alloc_cursor: usize,
    /// The cluster's crash events, in schedule order; only this
    /// node's fire here.
    crashes: Vec<CrashPlan>,
    /// Which of `crashes` have already fired (each fires once).
    pub(crate) fired: Vec<bool>,
    barriers_done: u64,
    restored: Option<Vec<u8>>,
    /// Coordinated-checkpoint cadence (every `n` barriers), if any.
    checkpoint_every: Option<u64>,
    /// Application blob the next cadence checkpoint will save, set via
    /// [`Dsm::set_checkpoint_state`].
    ckpt_state: Vec<u8>,
}

impl Dsm {
    pub(crate) fn new(
        node: HlrcNode,
        crashes: Vec<CrashPlan>,
        checkpoint_every: Option<u64>,
    ) -> Dsm {
        let fired = vec![false; crashes.len()];
        Dsm {
            node,
            alloc_cursor: 0,
            crashes,
            fired,
            barriers_done: 0,
            restored: None,
            checkpoint_every,
            ckpt_state: Vec::new(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node.inner.me()
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.node.inner.cfg.n_nodes
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.node.inner.cfg.layout.page_size()
    }

    // ------------------------------------------------------------
    // Allocation (run identically on every node, before first use)
    // ------------------------------------------------------------

    /// Allocate a page-aligned shared array of `len` elements with the
    /// cluster's default home assignment.
    pub fn alloc<T: SharedVal>(&mut self, len: usize) -> ArrayHandle<T> {
        self.alloc_inner(len, None)
    }

    /// Allocate with the array's pages block-distributed across nodes —
    /// node `k` homes the `k`-th contiguous chunk, matching how the
    /// paper's applications partition their grids.
    pub fn alloc_blocked<T: SharedVal>(&mut self, len: usize) -> ArrayHandle<T> {
        self.alloc_inner(len, Some(AllocHomes::Blocked))
    }

    /// Allocate with every page homed at one node (private/owner data).
    pub fn alloc_at<T: SharedVal>(&mut self, len: usize, home: NodeId) -> ArrayHandle<T> {
        self.alloc_inner(len, Some(AllocHomes::Fixed(home)))
    }

    fn alloc_inner<T: SharedVal>(
        &mut self,
        len: usize,
        homes: Option<AllocHomes>,
    ) -> ArrayHandle<T> {
        let page_size = self.page_size();
        let bytes = len * ELEM_BYTES;
        let base = self.alloc_cursor;
        debug_assert_eq!(base % page_size, 0);
        let pages = bytes.div_ceil(page_size).max(1);
        self.alloc_cursor = base + pages * page_size;
        let first_page = (base / page_size) as u32;
        let total = self.node.inner.pages.len() as u32;
        assert!(
            first_page + pages as u32 <= total,
            "shared space exhausted: need {} pages, have {}",
            first_page + pages as u32,
            total
        );
        match homes {
            None => {}
            Some(AllocHomes::Fixed(home)) => {
                for p in 0..pages as u32 {
                    self.node.inner.pages.set_home(first_page + p, home);
                }
            }
            Some(AllocHomes::Blocked) => {
                let n = self.nodes();
                let per = pages.div_ceil(n);
                for p in 0..pages {
                    let home = (p / per).min(n - 1);
                    self.node.inner.pages.set_home(first_page + p as u32, home);
                }
            }
        }
        ArrayHandle {
            base,
            len,
            _t: PhantomData,
        }
    }

    // ------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------

    /// Read element `i`.
    #[inline]
    pub fn read<T: SharedVal>(&mut self, h: &ArrayHandle<T>, i: usize) -> T {
        T::from_bits(self.node.read_u64(h.addr(i)))
    }

    /// Write element `i`.
    #[inline]
    pub fn write<T: SharedVal>(&mut self, h: &ArrayHandle<T>, i: usize, v: T) {
        self.node.write_u64(h.addr(i), v.to_bits());
    }

    /// Read `out.len()` elements starting at `start`, one access check
    /// and one copy per page: fault for fault what [`Dsm::read`] does
    /// over the same range in address order.
    pub fn read_slice<T: SharedVal>(&mut self, h: &ArrayHandle<T>, start: usize, out: &mut [T]) {
        for (page, off, run) in h.page_runs(self.node.inner.cfg.layout, start, out.len()) {
            self.node.ensure_access(page, Access::Read);
            let words = self.node.frame(page).read_u64_run(off, run.len());
            for (dst, w) in out[run].iter_mut().zip(words) {
                *dst = T::from_bits(w);
            }
        }
    }

    /// Write `src.len()` elements starting at `start`, one access check
    /// and one copy per page: fault for fault what [`Dsm::write`] does
    /// over the same range in address order.
    pub fn write_slice<T: SharedVal>(&mut self, h: &ArrayHandle<T>, start: usize, src: &[T]) {
        for (page, off, run) in h.page_runs(self.node.inner.cfg.layout, start, src.len()) {
            self.node.ensure_access(page, Access::Write);
            let words = src[run].iter().map(|v| v.to_bits());
            self.node.frame_mut(page).write_u64_run(off, words);
        }
    }

    // ------------------------------------------------------------
    // Synchronization and time
    // ------------------------------------------------------------

    /// Acquire a global lock.
    pub fn acquire(&mut self, lock: u32) {
        self.node.acquire(lock);
    }

    /// Release a global lock.
    pub fn release(&mut self, lock: u32) {
        self.node.release(lock);
    }

    /// Global barrier. Injected crashes fire immediately after their
    /// configured barrier completes. `barriers_done` counts within the
    /// current program incarnation, so a recovered node counts from
    /// zero again and a later crash event of the same node fires at its
    /// own barrier count of the re-run.
    pub fn barrier(&mut self) {
        self.barrier_without_crash();
        let me = self.me();
        for (i, plan) in self.crashes.iter().enumerate() {
            if !self.fired[i] && plan.node == me && self.barriers_done == plan.after_barriers {
                self.fired[i] = true;
                if let Some(tear) = plan.torn_tail {
                    // The crash lands mid-flush: damage the last
                    // flushed log batch before the unwind, so recovery
                    // sees a torn tail instead of a clean log.
                    self.node
                        .inner
                        .ctx
                        .disk
                        .tear_last_flush(tear.seed, tear.garble);
                }
                panic_any(CrashToken);
            }
        }
    }

    /// [`Dsm::barrier`] without its crash point: the runner's implicit
    /// final barrier, which runs outside the unwind a crash needs.
    pub(crate) fn barrier_without_crash(&mut self) {
        self.node.barrier();
        self.barriers_done += 1;
        // Cadence checkpoint, the only trigger of one: every node
        // reaches this barrier, so the cut is coordinated. Taken before
        // any crash scheduled at the same barrier fires (the checkpoint
        // completes, then the node dies), and suppressed during log
        // replay — truncating the log being replayed would destroy it.
        if let Some(n) = self.checkpoint_every {
            if self.barriers_done.is_multiple_of(n) && !self.node.ft.in_recovery() {
                ftlog::checkpoint(&mut self.node, &self.ckpt_state);
            }
        }
    }

    /// Charge application compute (arithmetic operations).
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.node.inner.ctx.charge_flops(n);
    }

    /// Current virtual time at this node.
    pub fn now(&self) -> simnet::SimTime {
        self.node.inner.ctx.now()
    }

    /// This node's protocol state, read-only — its page table, stable
    /// storage and counters — for a program that inspects what the
    /// protocol did. Nothing is charged.
    pub fn node(&self) -> &HlrcNode {
        &self.node
    }

    // ------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------

    /// The application blob saved by the last checkpoint, present only
    /// when this program invocation is a post-crash restart. Consume it
    /// at program start to fast-forward initialization.
    pub fn restored_state(&mut self) -> Option<Vec<u8>> {
        self.restored.take()
    }

    /// Set the application blob that cadence-driven checkpoints (see
    /// [`crate::ClusterSpec::with_checkpoint_cadence`]) will save.
    /// Update it whenever the program's restart point advances; a
    /// program that never calls this checkpoints an empty blob.
    pub fn set_checkpoint_state(&mut self, blob: &[u8]) {
        self.ckpt_state.clear();
        self.ckpt_state.extend_from_slice(blob);
    }

    // ------------------------------------------------------------
    // Runner plumbing
    // ------------------------------------------------------------

    /// The program unwound from an injected crash: restart the node with
    /// the fault-tolerance layer `ft`, built fresh ([`HlrcNode::restart`]),
    /// and build the handle the program re-runs on, as [`Dsm::new`]
    /// builds one. The handle keeps only the crash schedule (which
    /// events already fired) and the checkpoint cadence.
    pub(crate) fn restart(self, ft: Box<dyn FaultTolerance>) -> Dsm {
        let Dsm {
            node,
            crashes,
            fired,
            checkpoint_every,
            ..
        } = self;
        let (node, restored) = node.restart(ft);
        Dsm {
            fired,
            restored,
            ..Dsm::new(node, crashes, checkpoint_every)
        }
    }
}

enum AllocHomes {
    Fixed(NodeId),
    Blocked,
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use hlrc::PageEntry;
    use minicheck::{check, Rng};
    use pagemem::{PageFrame, PageState, Twin, VClock};
    use simnet::SimTime;

    use super::Dsm;
    use crate::{run_program, ClusterSpec, Protocol};

    /// Pages the measured range may span. Two primer pages follow them.
    const SPAN: usize = 4;

    /// What node 0's entry of a page is when the measured access
    /// reaches it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Kind {
        InvalidRemote,
        ReadOnly,
        WritableDirty,
        HomeClean,
        HomeDirty,
        Predicted,
    }

    const KINDS: [Kind; 6] = [
        Kind::InvalidRemote,
        Kind::ReadOnly,
        Kind::WritableDirty,
        Kind::HomeClean,
        Kind::HomeDirty,
        Kind::Predicted,
    ];

    fn kind_of(e: &PageEntry) -> Kind {
        match (e.home == 0, e.dirty, e.predicted.is_some(), e.state) {
            (true, false, _, _) => Kind::HomeClean,
            (true, true, _, _) => Kind::HomeDirty,
            (false, _, true, _) => Kind::Predicted,
            (false, _, false, PageState::Invalid) => Kind::InvalidRemote,
            (false, _, false, PageState::ReadOnly) => Kind::ReadOnly,
            (false, _, false, PageState::Writable) => Kind::WritableDirty,
        }
    }

    /// Everything an access may read or change in a page entry.
    #[derive(Debug, PartialEq)]
    struct EntryState {
        state: PageState,
        dirty: bool,
        frame: Option<PageFrame>,
        /// Is the frame a shared buffer? (Frames compare by bytes.)
        shared: Option<bool>,
        twin: Option<Twin>,
        version: Option<VClock>,
        predicted: Option<VClock>,
    }

    impl EntryState {
        fn of(e: &PageEntry) -> EntryState {
            EntryState {
                state: e.state,
                dirty: e.dirty,
                frame: e.frame.clone(),
                shared: e.frame.as_ref().map(PageFrame::is_shared),
                twin: e.twin.clone(),
                version: e.home_state.as_ref().map(|h| h.version.clone()),
                predicted: e.predicted.clone(),
            }
        }
    }

    /// What node 0 saw of the measured access.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// The kinds of the spanned pages just before the access.
        before: Vec<Kind>,
        words: Vec<u64>,
        now: SimTime,
        entries: Vec<EntryState>,
    }

    #[derive(Clone, Debug)]
    struct Case {
        page_size: usize,
        protocol: Protocol,
        kinds: [Kind; SPAN],
        /// Elements `start..start + len` of the array.
        start: usize,
        len: usize,
        /// `Some(values)` writes them; `None` reads.
        write: Option<Vec<u64>>,
    }

    impl Case {
        fn per_page(&self) -> usize {
            self.page_size / 8
        }

        /// The spanned pages, as indices into the array.
        fn pages(&self) -> std::ops::Range<usize> {
            let per = self.per_page();
            self.start / per..(self.start + self.len - 1) / per + 1
        }
    }

    fn arb_case(rng: &mut Rng) -> Case {
        let page_size = 1 << rng.usize_in(6, 13);
        let per = page_size / 8;
        let crossings = rng.usize_in(0, SPAN);
        let first = rng.usize_in(0, SPAN - crossings);
        let last = first + crossings;
        let start = first * per + rng.usize_in(0, per);
        let end_lo = if crossings == 0 { start } else { last * per } + 1;
        let end = rng.usize_in(end_lo, (last + 1) * per + 1);
        let len = end - start;
        let write = rng
            .bool()
            .then(|| (0..len).map(|_| rng.u64_in(1, u64::MAX)).collect());
        Case {
            page_size,
            protocol: Protocol::ALL[rng.usize_in(0, 3)],
            kinds: std::array::from_fn(|_| KINDS[rng.usize_in(0, KINDS.len())]),
            start,
            len,
            write,
        }
    }

    /// Two nodes: node 1 homes every page but the `HomeClean` /
    /// `HomeDirty` ones, which node 0 homes. Node 0 puts each spanned
    /// page into its drawn kind, then accesses the range either with
    /// one slice call or with the per-element loop.
    fn program(case: Case, sliced: bool) -> impl Fn(&mut Dsm) -> Option<Observed> + Send + Sync {
        move |dsm: &mut Dsm| {
            let per = case.per_page();
            let (primer, second_primer) = (SPAN * per, (SPAN + 1) * per);
            let a = dsm.alloc_at::<u64>((SPAN + 2) * per, 1);
            let first_page = (a.base / case.page_size) as u32;
            let page = |k: usize| first_page + k as u32;
            for (k, kind) in case.kinds.iter().enumerate() {
                if matches!(kind, Kind::HomeClean | Kind::HomeDirty) {
                    dsm.node.inner.pages.set_home(page(k), 0);
                }
            }
            let me = dsm.me();
            // Interval 1: every home fills its pages.
            for k in 0..SPAN + 2 {
                if dsm.node.inner.pages.entry(page(k)).home == me {
                    for i in k * per..(k + 1) * per {
                        dsm.write(&a, i, (i as u64 + 1) * 0x9E37_79B9);
                    }
                }
            }
            dsm.barrier();
            // Interval 2: node 1's notices name the pages node 0 will
            // predict, and the primer it will fault on to predict them.
            if me == 1 {
                for (k, kind) in case.kinds.iter().enumerate() {
                    if *kind == Kind::Predicted {
                        dsm.write(&a, k * per, 7);
                    }
                }
                dsm.write(&a, primer, 7);
            }
            dsm.barrier();
            let observed = (me == 0).then(|| {
                // The primer's fetch ships the predicted copies; the
                // second primer's fetch waits while they install.
                dsm.read(&a, primer);
                dsm.read(&a, second_primer);
                for (k, kind) in case.kinds.iter().enumerate() {
                    match kind {
                        Kind::ReadOnly => {
                            dsm.read(&a, k * per);
                        }
                        Kind::WritableDirty | Kind::HomeDirty => dsm.write(&a, k * per, 9),
                        _ => {}
                    }
                }
                let pages = &dsm.node.inner.pages;
                let before = case
                    .pages()
                    .map(|k| kind_of(pages.entry(page(k))))
                    .collect();
                let (start, len) = (case.start, case.len);
                let mut words = vec![0; len];
                match (&case.write, sliced) {
                    (Some(src), true) => dsm.write_slice(&a, start, src),
                    (Some(src), false) => {
                        for (i, &v) in src.iter().enumerate() {
                            dsm.write(&a, start + i, v);
                        }
                    }
                    (None, true) => dsm.read_slice(&a, start, &mut words),
                    (None, false) => {
                        for (i, w) in words.iter_mut().enumerate() {
                            *w = dsm.read(&a, start + i);
                        }
                    }
                }
                Observed {
                    before,
                    words,
                    now: dsm.now(),
                    entries: (0..SPAN + 2)
                        .map(|k| EntryState::of(dsm.node.inner.pages.entry(page(k))))
                        .collect(),
                }
            });
            dsm.barrier();
            observed
        }
    }

    /// A slice call is the per-element loop over the same range, fault
    /// for fault: the same words, clock, entries, counters and trace on
    /// every node, from every kind of entry, across 0-3 page boundaries
    /// and at page sizes from 64 B to 4 KiB. The kinds the cases put
    /// the spanned pages in are counted; each must occur.
    #[test]
    fn a_slice_call_faults_like_the_per_element_loop() {
        let seen: [AtomicUsize; 6] = Default::default();
        check("a_slice_call_faults_like_the_per_element_loop", 48, |rng| {
            let case = arb_case(rng);
            let spec = ClusterSpec::new(2, SPAN as u32 + 2)
                .with_page_size(case.page_size)
                .with_protocol(case.protocol);
            let each = run_program(spec.clone(), program(case.clone(), false));
            let sliced = run_program(spec, program(case.clone(), true));
            for (e, s) in each.nodes.iter().zip(&sliced.nodes) {
                let who = format!("node {} of {case:?}", e.node);
                assert_eq!(e.result, s.result, "{who}: what node 0 observed");
                assert_eq!(e.stats, s.stats, "{who}: stats");
                assert_eq!(e.trace, s.trace, "{who}: trace");
                assert_eq!(e.finish, s.finish, "{who}: finish");
            }
            let observed = each.nodes[0].result.as_ref().expect("node 0 observes");
            for kind in &observed.before {
                let i = KINDS.iter().position(|k| k == kind).expect("a kind");
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (kind, n) in KINDS.iter().zip(&seen) {
            assert!(
                n.load(Ordering::Relaxed) > 0,
                "no case reached a {kind:?} page"
            );
        }
    }
}
