//! Property tests for the served-image log: which retained reply buffer
//! a home hands a replaying peer, and in what form.
//!
//! The model behind the first property: a three-node cluster seen from
//! its home (node 0). Every write event puts a fresh non-zero value
//! into a word of the page that no other event ever touches, so "image
//! X holds interval I" is decidable from the bytes: all of I's words
//! carry I's values.
//!
//! The second property wipes that home and rebuilds its logs the way a
//! replay does — each window's own interval first, then the window's
//! recorded updates — and holds the rebuilt logs to the same invariant.
//!
//! The last property needs the opposite: a handful of words that keep
//! returning to values they had before, written by the requester too —
//! the case in which the requester's own copy is no base for a delta.

use std::cell::Cell;

use hlrc::{DsmConfig, PageTable, RecoveryImage, ServedCopies};
use minicheck::{check, Rng};
use pagemem::{DiffRun, Encode, IntervalId, PageDiff, PageFrame, SharedBytes, VClock};

const CASES: u64 = 256;
const NODES: usize = 3;
const PAGE: usize = 512;
const WORDS: usize = PAGE / 4;

/// One history entry of the model: an interval and the `(word, value)`
/// pairs it wrote.
type Entry = (IntervalId, Vec<(usize, u32)>);

/// What the test knows about one home page.
#[derive(Default)]
struct PageModel {
    /// Completed writes since the last checkpoint, in apply order.
    entries: Vec<Entry>,
    /// Words the home wrote in its still-open interval.
    open: Vec<(usize, u32)>,
    /// Next never-written word.
    next_word: usize,
}

fn holds(image: &[u8], writes: &[(usize, u32)]) -> bool {
    writes.iter().all(|&(word, value)| {
        u32::from_le_bytes(image[word * 4..word * 4 + 4].try_into().unwrap()) == value
    })
}

/// A clock covering a random prefix of each node's intervals.
fn arb_required(rng: &mut Rng, next_seq: &[u32; NODES]) -> VClock {
    let mut vc = VClock::new(NODES);
    for (node, &n) in next_seq.iter().enumerate() {
        vc.set(node as u32, rng.u32_in(0, n + 1));
    }
    vc
}

/// What the home did since the last checkpoint, as its replay sees it:
/// its own writes, the ends of its intervals (each one a sync, hence a
/// window of its log) and the diffs it applied — the `Updates` records.
#[derive(Clone, Copy)]
enum Op {
    Write(u32, usize, u32),
    Close(IntervalId),
    Diff(u32, IntervalId, usize, u32),
}

struct Home {
    cfg: DsmConfig,
    table: PageTable,
    pages: Vec<PageModel>,
    next_seq: [u32; NODES],
    next_value: u32,
    ops: Vec<Op>,
    /// The home's own intervals at the last checkpoint.
    base_seq: u32,
    /// Each page's checkpoint image and version, as a disk would hold
    /// them: the zeroed page at version zero before any checkpoint.
    checkpointed: Vec<(Vec<u8>, VClock)>,
}

impl Home {
    fn new(n_pages: usize) -> Home {
        // Pages `0..n_pages` are homed at node 0.
        let cfg = DsmConfig::new(NODES, (NODES * n_pages) as u32).with_page_size(PAGE);
        let mut table = PageTable::new(&cfg, 0);
        table.keep_served_copies(ServedCopies::Retain);
        Home {
            cfg,
            table,
            pages: (0..n_pages).map(|_| PageModel::default()).collect(),
            next_seq: [0; NODES],
            next_value: 1,
            ops: Vec::new(),
            base_seq: 0,
            checkpointed: vec![(vec![0; PAGE], VClock::new(NODES)); n_pages],
        }
    }

    fn fresh_write(&mut self, page: usize) -> Option<(usize, u32)> {
        let m = &mut self.pages[page];
        (m.next_word < WORDS).then(|| {
            m.next_word += 1;
            self.next_value += 1;
            (m.next_word - 1, self.next_value)
        })
    }

    /// The home writes one word of `page` in its open interval.
    fn home_write(&mut self, page: usize) {
        let Some((word, value)) = self.fresh_write(page) else {
            return;
        };
        // The interval's first write traps, and the frame turns private.
        if !self.table.entry(page as u32).dirty {
            self.table.before_home_write(page as u32);
        }
        self.table.frame_mut(page as u32).write_u32(word * 4, value);
        self.table.entry_mut(page as u32).dirty = true;
        self.pages[page].open.push((word, value));
        self.ops.push(Op::Write(page as u32, word, value));
    }

    /// The home closes its interval: every dirty page gets one last
    /// word (so no image taken while the interval was open can hold all
    /// of it) and a history entry.
    fn home_close(&mut self) {
        let iv = IntervalId {
            node: 0,
            seq: self.next_seq[0],
        };
        let dirty = self.table.dirty_pages();
        for &page in &dirty {
            self.home_write(page as usize);
        }
        self.ops.push(Op::Close(iv));
        if dirty.is_empty() {
            return;
        }
        self.next_seq[0] += 1;
        for page in dirty {
            self.table.entry_mut(page).dirty = false;
            self.table.note_home_write(page, iv);
            let m = &mut self.pages[page as usize];
            let writes = std::mem::take(&mut m.open);
            m.entries.push((iv, writes));
        }
    }

    /// Remote `writer` flushes a one-word diff of `page`.
    fn remote_diff(&mut self, page: usize, writer: usize) {
        let Some((word, value)) = self.fresh_write(page) else {
            return;
        };
        let iv = IntervalId {
            node: writer as u32,
            seq: self.next_seq[writer],
        };
        self.next_seq[writer] += 1;
        let diff = PageDiff {
            page: page as u32,
            runs: vec![DiffRun {
                offset: (word * 4) as u32,
                data: value.to_le_bytes().to_vec(),
            }],
        };
        self.table.before_home_write(page as u32);
        self.table.apply_home_diff(&diff, iv);
        self.pages[page].entries.push((iv, vec![(word, value)]));
        self.ops.push(Op::Diff(page as u32, iv, word, value));
    }

    /// A barrier-aligned checkpoint: intervals closed, base promoted.
    fn checkpoint(&mut self) {
        self.home_close();
        self.table.promote_base();
        for (p, image) in self.checkpointed.iter_mut().enumerate() {
            let version = self.table.home_state(p as u32).version.clone();
            *image = (self.table.frame(p as u32).bytes().to_vec(), version);
        }
        self.ops.clear();
        self.base_seq = self.next_seq[0];
        let all = {
            let mut vc = VClock::new(NODES);
            for (node, &n) in self.next_seq.iter().enumerate() {
                vc.set(node as u32, n);
            }
            vc
        };
        for (p, m) in self.pages.iter_mut().enumerate() {
            m.entries.clear();
            let page = p as u32;
            assert!(
                self.table.home_state(page).served.images().len() <= 1,
                "a checkpoint keeps at most one image a page"
            );
            // A replay from this checkpoint asks at its clock first —
            // the copy cached before it and re-touched after it.
            let (pos, image) = self
                .table
                .recovery_image(page, &all)
                .expect("the checkpoint state is always restorable");
            assert_eq!(pos, 0);
            assert_eq!(&image[..], self.table.frame(page).bytes());
        }
    }

    /// The selection rule, checked against the model for one request.
    fn check_selection(&mut self, page: usize, required: &VClock) -> Option<u32> {
        let before: Vec<(u32, SharedBytes)> =
            self.table.home_state(page as u32).served.images().to_vec();
        let (pos, image) = (self.table).recovery_image(page as u32, required)?;
        let covered: Vec<&Entry> = self.pages[page]
            .entries
            .iter()
            .filter(|(iv, _)| required.covers(*iv))
            .collect();
        for (iv, writes) in &covered {
            assert!(
                holds(&image, writes),
                "image {pos} of page {page} misses covered interval {iv}"
            );
        }
        for (earlier, old) in before.iter().filter(|(p, _)| *p < pos) {
            assert!(
                covered.iter().any(|(_, writes)| !holds(old, writes)),
                "image {earlier} of page {page} already held every covered write, \
                 yet the later image {pos} was chosen"
            );
        }
        Some(pos)
    }
}

#[test]
fn the_selected_image_is_the_earliest_that_holds_every_covered_write() {
    check("served_selection", CASES, |rng| {
        let n_pages = rng.usize_in(2, 4);
        let mut home = Home::new(n_pages);
        for _ in 0..rng.usize_in(5, 60) {
            let page = rng.usize_in(0, n_pages);
            match rng.u32_in(0, 12) {
                0..=2 => home.home_write(page),
                3..=4 => home.home_close(),
                5..=6 => home.remote_diff(page, rng.usize_in(1, NODES)),
                7..=9 => {
                    // Every fetch of one version is one buffer.
                    let kept = home.table.home_state(page as u32).served.images().len();
                    let (first, _) = home.table.serve_copy(page as u32);
                    for _ in 0..100 {
                        let again = home.table.serve_copy(page as u32).0;
                        assert!(again.ptr_eq(&first));
                    }
                    assert!(home.table.home_state(page as u32).served.images().len() <= kept + 1);
                }
                10 => home.checkpoint(),
                _ => {
                    let required = arb_required(rng, &home.next_seq);
                    let chosen = home.check_selection(page, &required);
                    // A clock that covers more never selects an earlier
                    // image.
                    let mut more = arb_required(rng, &home.next_seq);
                    more.join(&required);
                    let later = home.check_selection(page, &more);
                    if let (Some(pos), Some(later)) = (chosen, later) {
                        assert!(
                            later >= pos,
                            "{more:?} chose {later}, {required:?} chose {pos}"
                        );
                    }
                }
            }
        }
        // However the run ended, every page still answers consistently.
        for page in 0..n_pages {
            let required = arb_required(rng, &home.next_seq);
            home.check_selection(page, &required);
        }
    });
}

/// One write-history entry of a rebuilt log: the window of the home's
/// log it was re-reached in, the interval, the words.
type Rebuilt = (usize, IntervalId, Vec<(usize, u32)>);

fn one_word_diff(page: u32, word: usize, value: u32) -> PageDiff {
    PageDiff {
        page,
        runs: vec![DiffRun {
            offset: (word * 4) as u32,
            data: value.to_le_bytes().to_vec(),
        }],
    }
}

impl Home {
    /// The write histories a replay of `ops` re-forms, per page: window
    /// by window, the home's own interval first, then the updates in
    /// record order — not the order they had live, where the updates of
    /// a window arrived while its interval was open.
    fn rebuilt_order(&self) -> Vec<Vec<Rebuilt>> {
        let mut order: Vec<Vec<Rebuilt>> = vec![Vec::new(); self.pages.len()];
        let mut own: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.pages.len()];
        let mut updates: Vec<Op> = Vec::new();
        let mut window = 0;
        for op in &self.ops {
            match *op {
                Op::Write(page, word, value) => own[page as usize].push((word, value)),
                Op::Diff(..) => updates.push(*op),
                Op::Close(iv) => {
                    for (page, writes) in own.iter_mut().enumerate() {
                        if !writes.is_empty() {
                            order[page].push((window, iv, std::mem::take(writes)));
                        }
                    }
                    for update in updates.drain(..) {
                        let Op::Diff(page, iv, word, value) = update else {
                            unreachable!()
                        };
                        order[page as usize].push((window, iv, vec![(word, value)]));
                    }
                    window += 1;
                }
            }
        }
        order
    }

    /// The selection invariant against a rebuilt log, for the requests
    /// the home would not park: the selected image holds every write
    /// `required` covers, and no write of a window after the last one
    /// that holds a covered write — those are the home's *later* writes,
    /// which the requester may have read the old value of. (An uncovered
    /// write of that window or an earlier one is concurrent with the
    /// requester, hence unread.)
    fn check_rebuilt(
        &mut self,
        order: &[Vec<Rebuilt>],
        closed: u32,
        requests: &[(u32, VClock)],
    ) -> Result<(), String> {
        for (page, required) in requests {
            if self.table.awaits_rebuild(*page, required, closed) {
                continue;
            }
            let Some((pos, image)) = self.table.recovery_image(*page, required) else {
                return Err(format!("page {page} absent at {required:?}"));
            };
            let entries = &order[*page as usize];
            let last = entries
                .iter()
                .filter(|(_, iv, _)| required.covers(*iv))
                .map(|(window, ..)| *window)
                .max();
            for (window, iv, writes) in entries {
                if required.covers(*iv) {
                    if !holds(&image, writes) {
                        return Err(format!("image {pos} of page {page} misses covered {iv}"));
                    }
                } else if last.is_none_or(|w| *window > w)
                    && writes.iter().any(|w| holds(&image, &[*w]))
                {
                    return Err(format!("image {pos} of page {page} holds the later {iv}"));
                }
            }
        }
        Ok(())
    }

    /// Crash the home and rebuild its served logs by replaying `ops`,
    /// checking `requests` after every step. `retain_after` is the
    /// mutant: the image is kept after the frame changed, not before
    /// (the frame turning private first, as it must for the change).
    fn crash_and_rebuild(
        &mut self,
        requests: &[(u32, VClock)],
        retain_after: bool,
    ) -> Result<(), String> {
        let order = self.rebuilt_order();
        let ops = self.ops.clone();
        // The crash: the table restarts from the home map, and the
        // checkpoint restore brings every home page's base back.
        self.table = PageTable::restarted(&self.cfg, 0, self.table.home_map());
        self.table.keep_served_copies(ServedCopies::Retain);
        for (page, (image, version)) in self.checkpointed.iter().enumerate() {
            self.table.restore_home(page as u32, image, version.clone());
        }
        self.table
            .rebuild_served_logs(ops.iter().filter_map(|op| match op {
                Op::Diff(page, iv, ..) => Some((*page, *iv)),
                _ => None,
            }));
        let mut closed = self.base_seq;
        let mut updates: Vec<Op> = Vec::new();
        for op in &ops {
            match *op {
                Op::Write(page, word, value) => {
                    let first = !self.table.entry(page).dirty;
                    if first {
                        self.before_change(page, retain_after);
                    }
                    self.table.frame_mut(page).write_u32(word * 4, value);
                    if first && retain_after {
                        self.table.before_home_write(page);
                    }
                    self.table.entry_mut(page).dirty = true;
                }
                Op::Diff(..) => updates.push(*op),
                Op::Close(iv) => {
                    let dirty = self.table.dirty_pages();
                    closed += u32::from(!dirty.is_empty());
                    for page in dirty {
                        self.table.entry_mut(page).dirty = false;
                        self.table.note_home_write(page, iv);
                    }
                    self.check_rebuilt(&order, closed, requests)?;
                    for update in updates.drain(..) {
                        let Op::Diff(page, iv, word, value) = update else {
                            unreachable!()
                        };
                        self.before_change(page, retain_after);
                        self.table
                            .apply_home_diff(&one_word_diff(page, word, value), iv);
                        if retain_after {
                            self.table.before_home_write(page);
                        }
                        self.check_rebuilt(&order, closed, requests)?;
                    }
                }
            }
        }
        self.table.finish_served_rebuild();
        for (page, required) in requests {
            assert!(!self.table.awaits_rebuild(*page, required, closed));
        }
        self.check_rebuilt(&order, closed, requests)
    }

    /// Home page `page` is about to change: retain its image and make it
    /// private — or, for the `retain_after` mutant, only make it private.
    fn before_change(&mut self, page: u32, retain_after: bool) {
        if retain_after {
            let frame = self.table.entry_mut(page).frame.as_mut().unwrap();
            frame.make_private();
        } else {
            self.table.before_home_write(page);
        }
    }
}

#[test]
fn a_log_rebuilt_by_replay_selects_as_soundly_as_the_one_it_replaces() {
    let caught = Cell::new(0u32);
    check("served_rebuild", CASES, |rng| {
        let n_pages = rng.usize_in(1, 3);
        let mut home = Home::new(n_pages);
        for _ in 0..rng.usize_in(5, 60) {
            let page = rng.usize_in(0, n_pages);
            match rng.u32_in(0, 10) {
                0..=2 => home.home_write(page),
                3..=4 => home.home_close(),
                5..=7 => home.remote_diff(page, rng.usize_in(1, NODES)),
                8 => drop(home.table.serve_copy(page as u32)),
                _ => home.checkpoint(),
            }
        }
        // The crash is barrier-aligned: no interval is open.
        home.home_close();
        let requests: Vec<(u32, VClock)> = (0..8)
            .map(|_| {
                let page = rng.usize_in(0, n_pages) as u32;
                (page, arb_required(rng, &home.next_seq))
            })
            .collect();
        if let Err(why) = home.crash_and_rebuild(&requests, false) {
            panic!("{why}");
        }
        // A position whose image this incarnation has sent to nobody is
        // no base for a delta, whatever the requester says it holds; once
        // sent, it is.
        home.crash_and_rebuild(&[], false)
            .expect("nothing to check");
        let (page, required) = &requests[0];
        let (pos, _) = home.table.recovery_image(*page, required).expect("whole");
        for held in (0..=home.table.home_state(*page).served.pos()).filter(|h| *h != pos) {
            let (answer, _) = home.table.recovery_answer(*page, required, Some(held));
            assert!(
                matches!(answer, RecoveryImage::Image { .. }),
                "a delta against the unsent image {held}: {answer:?}"
            );
        }
        let (answer, _) = home.table.recovery_answer(*page, required, Some(pos));
        assert!(matches!(answer, RecoveryImage::Delta { diff, .. } if diff.is_empty()));
        // Same run, same requests, images taken after the write.
        caught.set(caught.get() + u32::from(home.crash_and_rebuild(&requests, true).is_err()));
    });
    assert!(
        caught.get() > CASES as u32 / 4,
        "retaining after the write must break the invariant: caught in {} of {CASES} runs",
        caught.get()
    );
}

/// A page image that differs from `from` in about `density` per mille
/// of its words.
fn mutate(rng: &mut Rng, from: &[u8], density: u64) -> PageFrame {
    let mut frame = PageFrame::from_bytes(from);
    for word in 0..WORDS {
        if rng.below(1000) < density {
            frame.write_u32(word * 4, rng.next_u64() as u32 | 1);
        }
    }
    frame
}

#[test]
fn a_delta_rebuilds_the_image_and_is_sent_only_when_it_costs_less_copying_than_the_page() {
    let (deltas, wholes) = (Cell::new(0u32), Cell::new(0u32));
    check("served_delta", CASES, |rng| {
        let cfg = DsmConfig::new(2, 2).with_page_size(PAGE);
        let mut table = PageTable::new(&cfg, 0);
        table.keep_served_copies(ServedCopies::Retain);
        // A few versions of page 0, from a word here and there to a
        // rewrite of everything, each fetched once.
        let mut required = VClock::new(2);
        let mut clocks = Vec::new();
        for seq in 0..rng.u32_in(2, 7) {
            let density = *rng.pick(&[5, 50, 400, 1000]);
            let next = mutate(rng, table.frame(0).bytes(), density);
            table.before_home_write(0);
            table.frame_mut(0).copy_from(&next);
            let iv = IntervalId { node: 0, seq };
            table.note_home_write(0, iv);
            table.serve_copy(0);
            required.observe(iv);
            clocks.push(required.clone());
        }
        let images: Vec<(u32, SharedBytes)> = table.home_state(0).served.images().to_vec();
        for (_, a) in &images {
            for (_, b) in &images {
                let mut rebuilt = PageFrame::from_bytes(a);
                PageDiff::between(0, a, b).apply(&mut rebuilt);
                assert_eq!(rebuilt.bytes(), &b[..]);
            }
        }
        for required in &clocks {
            let (chosen, whole) = table.recovery_image(0, required).expect("retained");
            // No held image, or one the home does not retain: the page.
            for held in [None, Some(1000)] {
                let (answer, compared) = table.recovery_answer(0, required, held);
                assert!(!compared);
                assert_eq!(
                    answer,
                    RecoveryImage::Image {
                        pos: chosen,
                        data: whole.clone()
                    }
                );
            }
            for (held, old) in &images {
                let (answer, compared) = table.recovery_answer(0, required, Some(*held));
                assert_eq!(compared, *held != chosen);
                match answer {
                    RecoveryImage::Delta { pos, diff } => {
                        assert_eq!(pos, chosen);
                        // The requester copies the delta, then its payload.
                        let copied = diff.encoded_size() + diff.payload_bytes();
                        assert!(copied < PAGE, "a delta that copies more than the page");
                        assert!(*held != chosen || diff.is_empty());
                        let mut copy = PageFrame::from_bytes(old);
                        diff.apply_checked(&mut copy).expect("delta fits the page");
                        assert_eq!(copy.bytes(), &whole[..]);
                        deltas.set(deltas.get() + u32::from(!diff.is_empty()));
                    }
                    RecoveryImage::Image { pos, data } => {
                        assert_eq!(pos, chosen);
                        assert!(data.ptr_eq(&whole));
                        let diff = PageDiff::between(0, old, &whole);
                        assert!(
                            diff.encoded_size() + diff.payload_bytes() >= PAGE,
                            "a whole page sent where the delta copies less"
                        );
                        wholes.set(wholes.get() + 1);
                    }
                    other => panic!("unexpected answer {other:?}"),
                }
            }
        }
    });
    assert!(
        deltas.get() > 100 && wholes.get() > 100,
        "the generator must reach both answers: {} deltas, {} whole pages",
        deltas.get(),
        wholes.get()
    );
}

/// The requester's side of one page, as `ftlog::ccl` keeps it while it
/// replays: the image it was last restored from, and its copy — that
/// image plus whatever it re-executed since.
struct Held {
    pos: u32,
    image: Vec<u8>,
    copy: PageFrame,
}

#[test]
fn an_answer_restores_a_copy_the_requester_wrote_from_the_image_it_held() {
    const HOT: usize = 6;
    let (patched_wrong, stands) = (Cell::new(0u32), Cell::new(0u32));
    check("served_requester_writes", CASES, |rng| {
        let cfg = DsmConfig::new(NODES, NODES as u32).with_page_size(PAGE);
        let mut table = PageTable::new(&cfg, 0);
        table.keep_served_copies(ServedCopies::Retain);
        let mut next_seq = [0u32; NODES];
        let mut interval = |node: usize| {
            next_seq[node] += 1;
            IntervalId {
                node: node as u32,
                seq: next_seq[node] - 1,
            }
        };
        // Every clock here covers every interval so far, as one handed
        // out by a barrier does.
        let mut known = VClock::new(NODES);
        let mut held: Option<Held> = None;
        for _ in 0..rng.usize_in(10, 60) {
            // A few hot words and three values: words return to what
            // they were all the time.
            let writes: Vec<(usize, u32)> = (0..rng.usize_in(1, 4))
                .map(|_| (rng.usize_in(0, HOT), rng.u32_in(0, 3)))
                .collect();
            match rng.u32_in(0, 6) {
                // The home writes and closes an interval of its own.
                0 => {
                    table.before_home_write(0);
                    for &(word, value) in &writes {
                        table.frame_mut(0).write_u32(word * 4, value);
                    }
                    let iv = interval(0);
                    table.note_home_write(0, iv);
                    known.observe(iv);
                }
                // The requester (1) or the third node writes its copy
                // and flushes the words that changed.
                1..=3 => {
                    let writer = if rng.bool() { 1 } else { 2 };
                    let base = match (&mut held, writer) {
                        (Some(h), 1) => &mut h.copy,
                        (None, 1) => continue,
                        _ => &mut PageFrame::from_bytes(table.frame(0).bytes()),
                    };
                    let twin = base.clone();
                    for &(word, value) in &writes {
                        base.write_u32(word * 4, value);
                    }
                    let diff = PageDiff::between(0, twin.bytes(), base.bytes());
                    if !diff.is_empty() {
                        let iv = interval(writer);
                        table.before_home_write(0);
                        table.apply_home_diff(&diff, iv);
                        known.observe(iv);
                    }
                }
                // Somebody else fetches: an image in between.
                4 => drop(table.serve_copy(0)),
                // A replayed sync of the requester names the page.
                _ => {
                    let (chosen, whole) = table.recovery_image(0, &known).expect("clean home");
                    assert_eq!(&whole[..], table.frame(0).bytes());
                    let (answer, _) =
                        table.recovery_answer(0, &known, held.as_ref().map(|h| h.pos));
                    let restored = match (answer, held.take()) {
                        (RecoveryImage::Image { data, .. }, _) => PageFrame::from_bytes(&data),
                        (RecoveryImage::Delta { pos, diff }, Some(h)) if pos == h.pos => {
                            // "The image you hold": only ever said to a
                            // requester that has not written since.
                            assert!(diff.is_empty());
                            stands.set(stands.get() + 1);
                            h.copy
                        }
                        (RecoveryImage::Delta { diff, .. }, Some(h)) => {
                            // Patching the copy instead is wrong as soon
                            // as an own write was written back.
                            let mut patched = h.copy;
                            diff.apply(&mut patched);
                            if patched.bytes() != &whole[..] {
                                patched_wrong.set(patched_wrong.get() + 1);
                            }
                            let mut image = PageFrame::from_bytes(&h.image);
                            diff.apply(&mut image);
                            image
                        }
                        (other, _) => panic!("unexpected answer {other:?}"),
                    };
                    assert_eq!(restored.bytes(), &whole[..]);
                    held = Some(Held {
                        pos: chosen,
                        image: whole.to_vec(),
                        copy: restored,
                    });
                }
            }
        }
    });
    assert!(
        patched_wrong.get() > 20 && stands.get() > 20,
        "the generator must reach both cases: {} copies a delta would have left stale, \
         {} left standing",
        patched_wrong.get(),
        stands.get()
    );
}
