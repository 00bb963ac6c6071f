//! The served-image log: what a home remembers of the copies it sent.
//!
//! Sender-based payload logging, applied to the one message CCL
//! declines to log at the receiver — the page reply. The home already
//! has a reply buffer for every fetch — a clean frame's own, which the
//! frame shares until it changes; under a protocol that
//! [retains](crate::ServedCopies::Retain) what it serves
//! ([`FaultTolerance::served_copies`](crate::FaultTolerance::served_copies))
//! it keeps that buffer, one per distinct *(page, version served)*, and
//! a recovering peer's remote copies are restored from these buffers
//! instead of being reconstructed from diffs. Nothing is charged on any
//! clock and nothing reaches a disk: like the copyset, this is state
//! about a node kept *outside* that node, so the node's crash does not
//! take it along (DESIGN.md §13, "Volatile directory state").
//!
//! The home's *own* crash does take it along, and a home that may be
//! asked again rebuilds it by its own replay: the write history re-forms
//! as replay closes the home's intervals and re-applies the recorded
//! updates, and before a frame changes the home [retains](ServedLog::retain)
//! the image it leaves — a page copy, charged, which the live path gets
//! free with the reply buffer. Every image is handed in by the caller
//! (the page table's `image_of`), and only when one is taken. A
//! request for a write replay has not
//! re-reached [waits](ServedLog::awaits).
//!
//! Positions count writes since the last checkpoint: `pos` is the
//! length of the write history when an image was taken, and the
//! checkpoint base is the image at position 0. The log keeps that image
//! itself (see [`ServedLog::select`]); nothing else in memory holds a
//! home page's checkpoint state.

use pagemem::{IntervalId, SharedBytes, VClock};

/// Write history and served images of one home page.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServedLog {
    /// One entry per interval whose writes to the page became complete
    /// in the home frame — a remote diff applied, an own interval
    /// closed — in that order, since the last checkpoint.
    history: Vec<IntervalId>,
    /// Retained reply buffers `(pos, image)`, ascending and distinct in
    /// `pos`: the image holds every write of `history[..pos]` (and at
    /// most a prefix of the home's then-open interval).
    images: Vec<(u32, SharedBytes)>,
    /// Rebuild: the remote intervals this home's log records as applied
    /// to the page and its replay has yet to apply again.
    expected: Vec<IntervalId>,
    /// Rebuild: positions of images retained by replay and sent to
    /// nobody since. A peer that names one as held means the previous
    /// incarnation's image there, which may have been another.
    unsent: Vec<u32>,
    /// Image 0 while it is not in `images`: `None` (the zeroed page)
    /// until a checkpoint, the checkpoint frame after one, the restored
    /// image after a restart. It joins `images` only when
    /// [`ServedLog::select`] first needs it: in `images` before, a
    /// restarted home would answer a peer naming position 0 with a
    /// delta against an image it never sent.
    base: Option<SharedBytes>,
}

impl ServedLog {
    /// Interval `iv`'s writes to the page are now complete in the frame.
    pub fn note_write(&mut self, iv: IntervalId) {
        self.history.push(iv);
        self.unexpect(iv);
    }

    /// Rebuild: `iv`'s diff is applied again — or lost by its writer's log.
    pub fn unexpect(&mut self, iv: IntervalId) {
        if let Some(i) = self.expected.iter().position(|e| *e == iv) {
            self.expected.swap_remove(i);
        }
    }

    /// Rebuild: this home's log says it applied `iv`'s diff; replay will.
    pub fn expect_write(&mut self, iv: IntervalId) {
        self.expected.push(iv);
    }

    /// Rebuild: does `required` cover a write replay has yet to re-apply?
    /// No image shows the page as of `required` until it has.
    pub fn awaits(&self, required: &VClock) -> bool {
        self.expected.iter().any(|iv| required.covers(*iv))
    }

    /// Rebuild: the frame is about to change (or replay is over, and its
    /// next change a live one) — keep `image` of it at the current
    /// position if none is there. True when an image was taken, for the
    /// caller to charge as a page copy: this one is no reply buffer.
    pub fn retain(&mut self, image: impl FnOnce() -> SharedBytes) -> bool {
        let before = self.images.len();
        self.serve(image);
        let copied = self.images.len() > before;
        if copied {
            self.unsent.push(self.pos());
        }
        copied
    }

    /// The position an image taken now would get.
    pub fn pos(&self) -> u32 {
        self.history.len() as u32
    }

    /// Retained images, ascending in position.
    pub fn images(&self) -> &[(u32, SharedBytes)] {
        &self.images
    }

    /// The retained image taken at `pos` — the base of a delta for a
    /// peer that says it holds it — if any, and if this incarnation of
    /// the home ever sent it.
    pub fn image_at(&self, pos: u32) -> Option<&SharedBytes> {
        let at = self.images.binary_search_by_key(&pos, |(p, _)| *p).ok()?;
        (!self.unsent.contains(&pos)).then(|| &self.images[at].1)
    }

    /// The reply buffer for a fetch of the page as it stands: the
    /// buffer already retained at this position if there is one (every
    /// fetch of one version is answered with one image), else `image`
    /// of the frame, retained.
    pub fn serve(&mut self, image: impl FnOnce() -> SharedBytes) -> SharedBytes {
        let pos = self.pos();
        if let Some((last, image)) = self.images.last() {
            if *last == pos {
                return image.clone();
            }
        }
        let image = image();
        self.images.push((pos, image.clone()));
        image
    }

    /// The least position an image may have to show every write
    /// `required` covers: one past the last covered history entry.
    pub fn horizon(&self, required: &VClock) -> u32 {
        self.history
            .iter()
            .rposition(|iv| required.covers(*iv))
            .map_or(0, |i| i as u32 + 1)
    }

    /// The image a peer replaying at clock `required` is restored
    /// from: the **earliest** retained one at or past the horizon, the
    /// checkpoint base standing in at position 0 (a zeroed page of
    /// `page_size` bytes before any checkpoint). When nothing was
    /// retained there, `live` — the home frame's image, passed only
    /// while the frame is clean and its version is dominated by
    /// `required`, i.e. while it *is* the state at the horizon — is
    /// served and retained like any fetch. `None`: no admissible image
    /// exists (no fetch was ever answered at or past the horizon and
    /// the home has moved on), so the peer held no copy there before
    /// its crash either.
    ///
    /// Earliest, because the image the peer originally received in the
    /// interval it is replaying was taken at or past the same horizon
    /// (diffs are acked before a release, so every covered write was in
    /// the history by then): whatever an earlier image holds beyond the
    /// covered writes the original held too, concurrent with the peer's
    /// reads and so unread by a data-race-free program — while the
    /// home's *later* writes, which the peer may have read the old
    /// value of, are in no image at or before the original's position.
    pub fn select(
        &mut self,
        required: &VClock,
        live: Option<impl FnOnce() -> SharedBytes>,
        page_size: usize,
    ) -> Option<(u32, SharedBytes)> {
        let horizon = self.horizon(required);
        if horizon == 0 && self.images.first().is_none_or(|(pos, _)| *pos != 0) {
            let base = (self.base.clone()).unwrap_or_else(|| SharedBytes::from(vec![0; page_size]));
            self.images.insert(0, (0, base));
        }
        let at = self.images.partition_point(|(pos, _)| *pos < horizon);
        if at == self.images.len() {
            let live = live?;
            debug_assert_eq!(
                horizon,
                self.pos(),
                "a dominated version covers the history"
            );
            self.serve(live);
        }
        let (pos, image) = &self.images[at];
        self.unsent.retain(|p| p != pos);
        Some((*pos, image.clone()))
    }

    /// A coordinated checkpoint of the frame was taken: every later
    /// replay starts from it with a clock that covers the whole history,
    /// so no horizon falls before its end and no image taken before it
    /// can be selected again. Positions restart at the new base, the
    /// image `frame` gives of the frame; an image taken at the very end
    /// of the history equals it and stays, as the base.
    pub fn truncate_at_checkpoint(&mut self, frame: impl FnOnce() -> SharedBytes) {
        let end = self.pos();
        self.images.retain(|(pos, _)| *pos == end);
        for (pos, _) in &mut self.images {
            *pos = 0;
        }
        let base = match self.images.first() {
            Some((_, image)) => image.clone(),
            None => frame(),
        };
        self.base = Some(base);
        self.history.clear();
        // Position 0 is the base in every incarnation.
        self.unsent.clear();
    }

    /// Start over from `image` at position 0: the checkpoint image a
    /// restart restored.
    pub fn start_from(&mut self, image: SharedBytes) {
        *self = ServedLog {
            base: Some(image),
            ..ServedLog::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(node: u32, seq: u32) -> IntervalId {
        IntervalId { node, seq }
    }

    /// The image of a 64-byte page whose first word is `v`.
    fn frame(v: u64) -> impl FnOnce() -> SharedBytes {
        let mut page = vec![0u8; 64];
        page[..8].copy_from_slice(&v.to_le_bytes());
        move || page.into()
    }

    /// No live frame to fall back on.
    const NO_LIVE: Option<fn() -> SharedBytes> = None;

    fn word(image: &SharedBytes) -> u64 {
        u64::from_le_bytes(image[..8].try_into().unwrap())
    }

    #[test]
    fn one_version_is_one_buffer() {
        let mut log = ServedLog::default();
        let first = log.serve(frame(1));
        for _ in 0..99 {
            assert!(log.serve(frame(1)).ptr_eq(&first));
        }
        assert_eq!(log.images().len(), 1);
        log.note_write(iv(0, 0));
        assert!(!log.serve(frame(2)).ptr_eq(&first));
        assert_eq!(log.images().len(), 2);
    }

    #[test]
    fn the_earliest_image_past_the_horizon_is_chosen() {
        let mut log = ServedLog::default();
        log.note_write(iv(0, 0));
        log.serve(frame(1)); // pos 1
        log.note_write(iv(0, 1));
        log.note_write(iv(0, 2));
        log.serve(frame(3)); // pos 3
        let mut required = VClock::new(2);
        // Nothing covered: the base, which becomes image 0.
        let (pos, image) = log.select(&required, NO_LIVE, 64).unwrap();
        assert_eq!((pos, word(&image)), (0, 0));
        assert_eq!(log.images().len(), 3);
        // Interval 0 covered: image 1, not the later image 3.
        required.observe(iv(0, 0));
        let (pos, image) = log.select(&required, NO_LIVE, 64).unwrap();
        assert_eq!((pos, word(&image)), (1, 1));
        // Interval 1 covered: nothing was served at position 2, the
        // next one up is image 3 (its extra write is unread under DRF).
        required.observe(iv(0, 1));
        assert_eq!(log.select(&required, NO_LIVE, 64).unwrap().0, 3);
        // A fourth write nobody fetched after: only the live frame can
        // answer, and only if the caller vouches for it.
        log.note_write(iv(1, 0));
        required.observe(iv(1, 0));
        assert!(log.select(&required, NO_LIVE, 64).is_none());
        let (pos, image) = log.select(&required, Some(frame(4)), 64).unwrap();
        assert_eq!((pos, word(&image)), (4, 4));
        assert!(log.image_at(4).is_some(), "a served live frame is retained");
    }

    #[test]
    fn a_checkpoint_keeps_at_most_the_image_that_equals_the_base() {
        let mut log = ServedLog::default();
        log.serve(frame(0));
        log.note_write(iv(0, 0));
        let newest = log.serve(frame(1));
        log.truncate_at_checkpoint(frame(1));
        assert_eq!(log.pos(), 0);
        assert_eq!(log.images().len(), 1);
        assert!(log.image_at(0).unwrap().ptr_eq(&newest));
        // A write after the newest image: nothing survives, the base
        // answers at position 0.
        log.note_write(iv(0, 1));
        log.truncate_at_checkpoint(frame(2));
        assert!(
            log.images().is_empty(),
            "the base joins the images when selected"
        );
        let mut required = VClock::new(1);
        required.set(0, 2);
        let (pos, image) = log.select(&required, NO_LIVE, 64).unwrap();
        assert_eq!((pos, word(&image)), (0, 2));
    }
}
