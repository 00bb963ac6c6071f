//! Property test for copy-on-write page frames: a frame shares the
//! buffer it was shipped in until a write is booked on it, and nobody
//! else holding that buffer ever sees the write.
//!
//! A few frames run a random interleaving of what the page table does
//! to them: a home serving a frame (sharing a clean one's buffer,
//! copying a dirty one), holders cloning a served buffer, a buffer
//! installed as a copy, writes — the first of an interval booked the
//! way a write trap books it, through a twin or by making the frame
//! private — and interval ends. After every step
//! each holder's buffer still reads what it read when it was taken,
//! every dirty frame is private, and every frame reads what the model
//! of its writes says.

use minicheck::{check, Rng};
use pagemem::{PageFrame, SharedBytes, Twin};

const PAGE: usize = 64;
const FRAMES: usize = 4;
const CASES: u64 = 256;

/// One frame of the model: the frame, whether an interval wrote it,
/// the twin that write opened (if booked through one) with the bytes it
/// must keep, and the bytes the frame must read.
struct Slot {
    frame: PageFrame,
    dirty: bool,
    twin: Option<(Twin, Vec<u8>)>,
    model: Vec<u8>,
}

impl Slot {
    fn of(frame: PageFrame) -> Slot {
        let model = frame.bytes().to_vec();
        Slot {
            frame,
            dirty: false,
            twin: None,
            model,
        }
    }
}

/// A buffer someone holds, and what it read when they took it.
struct Held {
    bytes: SharedBytes,
    seen: Vec<u8>,
}

impl Held {
    fn of(bytes: SharedBytes) -> Held {
        let seen = bytes.to_vec();
        Held { bytes, seen }
    }
}

fn random_page(rng: &mut Rng) -> Vec<u8> {
    (0..PAGE).map(|_| rng.byte()).collect()
}

#[test]
fn no_holder_of_a_shared_buffer_sees_a_write_and_a_dirty_frame_is_private() {
    check("cow_frames", CASES, |rng| {
        let mut slots: Vec<Slot> = (0..FRAMES)
            .map(|_| Slot::of(PageFrame::from_bytes(&random_page(rng))))
            .collect();
        let mut held: Vec<Held> = Vec::new();
        for _ in 0..rng.usize_in(1, 80) {
            let i = rng.usize_in(0, FRAMES);
            match rng.u32_in(0, 6) {
                // Serve: a clean frame is shared as it stands, a dirty
                // one copied.
                0 => {
                    let s = &mut slots[i];
                    let bytes = if s.dirty {
                        SharedBytes::copy_of(s.frame.bytes())
                    } else {
                        s.frame.share()
                    };
                    held.push(Held::of(bytes));
                }
                // Another holder of a served buffer.
                1 if !held.is_empty() => {
                    let h = &held[rng.usize_in(0, held.len())];
                    let bytes = h.bytes.clone();
                    held.push(Held::of(bytes));
                }
                // Install a served buffer as a copy, in a slot no
                // interval is writing.
                2 if !held.is_empty() && !slots[i].dirty => {
                    let bytes = held[rng.usize_in(0, held.len())].bytes.clone();
                    slots[i] = Slot::of(PageFrame::shared(bytes));
                }
                // A write: the interval's first is booked, as a remote
                // write trap books it (twin) or a home's (private copy).
                3 | 4 => {
                    let s = &mut slots[i];
                    if !s.dirty {
                        if rng.bool() {
                            let twin = Twin::before_write(&mut s.frame);
                            s.twin = Some((twin, s.model.clone()));
                        } else {
                            s.frame.make_private();
                        }
                        s.dirty = true;
                    }
                    let offset = 4 * rng.usize_in(0, PAGE / 4);
                    let value = rng.u32_in(0, u32::MAX);
                    s.frame.write_u32(offset, value);
                    s.model[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
                }
                // The interval ends: the twin is done with.
                _ => {
                    let s = &mut slots[i];
                    s.twin = None;
                    s.dirty = false;
                }
            }
            for h in &held {
                assert_eq!(&h.bytes[..], &h.seen[..], "a holder saw a write");
            }
            for (k, s) in slots.iter().enumerate() {
                assert!(
                    !s.dirty || !s.frame.is_shared(),
                    "dirty frame {k} is shared"
                );
                assert_eq!(s.frame.bytes(), &s.model[..], "frame {k} lost a write");
                if let Some((twin, before)) = &s.twin {
                    assert_eq!(twin.bytes(), &before[..], "twin {k} saw a write");
                }
            }
        }
    });
}
