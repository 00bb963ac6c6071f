//! Bounded, packed sink for the structured telemetry stream.
//!
//! Every node appends events on the protocol hot path (message sends
//! and receives included), so the sink must be cheap and must never
//! grow without bound on a long run: past its capacity it counts drops
//! instead of allocating.
//!
//! A node's events are kept as one byte stream, a [`Trace`], not as a
//! `Vec<TraceEvent>` (56 bytes an event). Each event is one tag byte,
//! the `at` delta from the previous event as a zigzag LEB128 varint,
//! then every field as a LEB128 varint at its full width; a boolean is
//! one byte, a [`LogObj`] a tag byte and a varint. `&'static str`
//! labels (`msg`, `stream`) are interned in a small per-trace table,
//! compared by content, and stored as their index. The emitting node is
//! not stored: the trace knows its owner. Nothing is lost — iteration
//! decodes the very [`TraceEvent`]s that were pushed. The five
//! benchmark workloads pack into 5.65–5.90 bytes an event, so at the
//! 2^20-event cap one node's stream is about 6 MiB, held in an 8 MiB
//! buffer after `Vec` growth, where a `Vec<TraceEvent>` held 56 MiB. No
//! event takes more than 37 bytes (a `MsgSend` with every field at its
//! widest, while the label table is under 128 entries).

use std::fmt;

use crate::engine::{LogObj, TraceEvent, TraceKind};
use crate::router::NodeId;
use crate::time::SimTime;

/// Default per-node event capacity: generous for every workload in the
/// repo (paper-scale runs emit on the order of 10⁵ events per node)
/// while bounding one node's packed stream to about 6 MiB (an 8 MiB
/// buffer) at the densest measured 5.9 bytes an event.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Drop a consumed trace. This once returned the buffer to a
/// process-wide pool; packed traces are small enough that the pool
/// bought nothing (DESIGN.md §10, "What the trace costs"), so it is a
/// plain drop, kept only because the frozen benchmark calls it (ROADMAP
/// item 10).
pub fn recycle_trace_buffer(trace: Trace) {
    drop(trace);
}

/// One node's telemetry stream, packed (see the module docs). Iterating
/// yields [`TraceEvent`]s by value, in push order.
#[derive(Clone)]
pub struct Trace {
    node: NodeId,
    bytes: Vec<u8>,
    events: usize,
    /// The `at` of the last event, the base of the next one's delta.
    last_at: SimTime,
    labels: Vec<&'static str>,
}

impl Trace {
    /// An empty trace of `node`'s events.
    pub(crate) fn new(node: NodeId) -> Trace {
        Trace {
            node,
            bytes: Vec::new(),
            events: 0,
            last_at: SimTime::ZERO,
            labels: Vec::new(),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events
    }

    /// True when the trace holds no event.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Bytes of the packed event stream (the label table not counted).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The events, decoded in push order.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            trace: self,
            pos: 0,
            at: SimTime::ZERO,
            left: self.events,
        }
    }

    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    fn put_node(&mut self, n: NodeId) {
        self.put(n as u64);
    }

    fn put_label(&mut self, s: &'static str) {
        let i = match self.labels.iter().position(|l| *l == s) {
            Some(i) => i,
            None => {
                self.labels.push(s);
                self.labels.len() - 1
            }
        };
        self.put(i as u64);
    }

    /// Append one event stamped `at`.
    fn push(&mut self, at: SimTime, kind: TraceKind) {
        let delta = at.as_nanos().wrapping_sub(self.last_at.as_nanos()) as i64;
        self.last_at = at;
        self.events += 1;
        let tag = |t: &mut Trace, tag: u8| {
            t.bytes.push(tag);
            t.put(((delta << 1) ^ (delta >> 63)) as u64);
        };
        match kind {
            TraceKind::ReadFault { page } => {
                tag(self, 0);
                self.put(page.into());
            }
            TraceKind::WriteFault { page } => {
                tag(self, 1);
                self.put(page.into());
            }
            TraceKind::PageFetch {
                page,
                from,
                wait_ns,
            } => {
                tag(self, 2);
                self.put(page.into());
                self.put_node(from);
                self.put(wait_ns);
            }
            TraceKind::DiffFlush { to, bytes } => {
                tag(self, 3);
                self.put_node(to);
                self.put(bytes);
            }
            TraceKind::NoticesApplied { count } => {
                tag(self, 4);
                self.put(count.into());
            }
            TraceKind::LogAppend { bytes, obj } => {
                tag(self, 5);
                self.put(bytes);
                match obj {
                    LogObj::Page { page } => {
                        self.bytes.push(0);
                        self.put(page.into());
                    }
                    LogObj::Lock { lock } => {
                        self.bytes.push(1);
                        self.put(lock.into());
                    }
                    LogObj::Barrier { epoch } => {
                        self.bytes.push(2);
                        self.put(epoch.into());
                    }
                    LogObj::Meta => self.bytes.push(3),
                }
            }
            TraceKind::LogFlush { bytes, overlapped } => {
                tag(self, 6);
                self.put(bytes);
                self.bytes.push(overlapped.into());
            }
            TraceKind::Checkpoint {
                bytes,
                pages,
                compacted,
            } => {
                tag(self, 7);
                self.put(bytes);
                self.put(pages.into());
                self.put(compacted.into());
            }
            TraceKind::LockAcquire { lock, wait_ns } => {
                tag(self, 8);
                self.put(lock.into());
                self.put(wait_ns);
            }
            TraceKind::LockRelease { lock } => {
                tag(self, 9);
                self.put(lock.into());
            }
            TraceKind::LockGranted { lock, to, holder } => {
                tag(self, 10);
                self.put(lock.into());
                self.put_node(to);
                self.put_node(holder);
            }
            TraceKind::BarrierEnter { epoch } => {
                tag(self, 11);
                self.put(epoch.into());
            }
            TraceKind::BarrierExit { epoch } => {
                tag(self, 12);
                self.put(epoch.into());
            }
            TraceKind::BarrierReleased {
                epoch,
                straggler,
                spread_ns,
            } => {
                tag(self, 13);
                self.put(epoch.into());
                self.put_node(straggler);
                self.put(spread_ns);
            }
            TraceKind::FlushAckWait { home, wait_ns } => {
                tag(self, 14);
                self.put_node(home);
                self.put(wait_ns);
            }
            TraceKind::Crash => tag(self, 15),
            TraceKind::RecoveryBegin => tag(self, 16),
            TraceKind::RecoveryReplay { notices } => {
                tag(self, 17);
                self.put(notices.into());
            }
            TraceKind::RecoveryEnd => tag(self, 18),
            TraceKind::Timeout { to } => {
                tag(self, 19);
                self.put_node(to);
            }
            TraceKind::Retransmit { to, attempts } => {
                tag(self, 20);
                self.put_node(to);
                self.put(attempts.into());
            }
            TraceKind::DupSuppressed { from } => {
                tag(self, 21);
                self.put_node(from);
            }
            TraceKind::LogDeviceFailed => tag(self, 22),
            TraceKind::RecoveryDegraded => tag(self, 23),
            TraceKind::MsgSend {
                to,
                seq,
                bytes,
                msg,
            } => {
                tag(self, 24);
                self.put_node(to);
                self.put(seq);
                self.put(bytes.into());
                self.put_label(msg);
            }
            TraceKind::MsgRecv { from, seq, msg } => {
                tag(self, 25);
                self.put_node(from);
                self.put(seq);
                self.put_label(msg);
            }
            TraceKind::LogDeviceFull => tag(self, 26),
            TraceKind::TornTailDetected {
                stream,
                salvaged,
                discarded,
            } => {
                tag(self, 27);
                self.put_label(stream);
                self.put(salvaged.into());
                self.put(discarded.into());
            }
            TraceKind::CrcMismatch { stream } => {
                tag(self, 28);
                self.put_label(stream);
            }
            TraceKind::LogTruncated { stream, records } => {
                tag(self, 29);
                self.put_label(stream);
                self.put(records.into());
            }
            TraceKind::HomeRepair { notices, diffs } => {
                tag(self, 30);
                self.put(notices.into());
                self.put(diffs.into());
            }
            TraceKind::SyncSynthesized { records } => {
                tag(self, 31);
                self.put(records.into());
            }
            TraceKind::PrefetchIssued { page, count } => {
                tag(self, 32);
                self.put(page.into());
                self.put(count.into());
            }
            TraceKind::PrefetchHit { page } => {
                tag(self, 33);
                self.put(page.into());
            }
            TraceKind::PrefetchWasted { page } => {
                tag(self, 34);
                self.put(page.into());
            }
        }
    }
}

impl PartialEq for Trace {
    /// Equal when both decode to the same events, as two
    /// `Vec<TraceEvent>`s would compare.
    fn eq(&self, other: &Trace) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    /// The decoded events, formatted as a `Vec<TraceEvent>` would be.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEvent;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// Decoding iterator over a [`Trace`] (see [`Trace::iter`]).
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    trace: &'a Trace,
    pos: usize,
    at: SimTime,
    left: usize,
}

impl TraceIter<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.trace.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn u64(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A field pushed from a `u32`: the value fits.
    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    /// A field pushed from a `NodeId`: the value fits.
    fn node(&mut self) -> NodeId {
        self.u64() as NodeId
    }

    fn label(&mut self) -> &'static str {
        let i = self.u64() as usize;
        self.trace.labels[i]
    }

    fn kind(&mut self, tag: u8) -> TraceKind {
        match tag {
            0 => TraceKind::ReadFault { page: self.u32() },
            1 => TraceKind::WriteFault { page: self.u32() },
            2 => TraceKind::PageFetch {
                page: self.u32(),
                from: self.node(),
                wait_ns: self.u64(),
            },
            3 => TraceKind::DiffFlush {
                to: self.node(),
                bytes: self.u64(),
            },
            4 => TraceKind::NoticesApplied { count: self.u32() },
            5 => TraceKind::LogAppend {
                bytes: self.u64(),
                obj: match self.byte() {
                    0 => LogObj::Page { page: self.u32() },
                    1 => LogObj::Lock { lock: self.u32() },
                    2 => LogObj::Barrier { epoch: self.u32() },
                    3 => LogObj::Meta,
                    t => unreachable!("LogObj tag {t} was never written"),
                },
            },
            6 => TraceKind::LogFlush {
                bytes: self.u64(),
                overlapped: self.byte() != 0,
            },
            7 => TraceKind::Checkpoint {
                bytes: self.u64(),
                pages: self.u32(),
                compacted: self.u32(),
            },
            8 => TraceKind::LockAcquire {
                lock: self.u32(),
                wait_ns: self.u64(),
            },
            9 => TraceKind::LockRelease { lock: self.u32() },
            10 => TraceKind::LockGranted {
                lock: self.u32(),
                to: self.node(),
                holder: self.node(),
            },
            11 => TraceKind::BarrierEnter { epoch: self.u32() },
            12 => TraceKind::BarrierExit { epoch: self.u32() },
            13 => TraceKind::BarrierReleased {
                epoch: self.u32(),
                straggler: self.node(),
                spread_ns: self.u64(),
            },
            14 => TraceKind::FlushAckWait {
                home: self.node(),
                wait_ns: self.u64(),
            },
            15 => TraceKind::Crash,
            16 => TraceKind::RecoveryBegin,
            17 => TraceKind::RecoveryReplay {
                notices: self.u32(),
            },
            18 => TraceKind::RecoveryEnd,
            19 => TraceKind::Timeout { to: self.node() },
            20 => TraceKind::Retransmit {
                to: self.node(),
                attempts: self.u32(),
            },
            21 => TraceKind::DupSuppressed { from: self.node() },
            22 => TraceKind::LogDeviceFailed,
            23 => TraceKind::RecoveryDegraded,
            24 => TraceKind::MsgSend {
                to: self.node(),
                seq: self.u64(),
                bytes: self.u32(),
                msg: self.label(),
            },
            25 => TraceKind::MsgRecv {
                from: self.node(),
                seq: self.u64(),
                msg: self.label(),
            },
            26 => TraceKind::LogDeviceFull,
            27 => TraceKind::TornTailDetected {
                stream: self.label(),
                salvaged: self.u32(),
                discarded: self.u32(),
            },
            28 => TraceKind::CrcMismatch {
                stream: self.label(),
            },
            29 => TraceKind::LogTruncated {
                stream: self.label(),
                records: self.u32(),
            },
            30 => TraceKind::HomeRepair {
                notices: self.u32(),
                diffs: self.u32(),
            },
            31 => TraceKind::SyncSynthesized {
                records: self.u32(),
            },
            32 => TraceKind::PrefetchIssued {
                page: self.u32(),
                count: self.u32(),
            },
            33 => TraceKind::PrefetchHit { page: self.u32() },
            34 => TraceKind::PrefetchWasted { page: self.u32() },
            t => unreachable!("trace tag {t} was never written"),
        }
    }
}

impl Iterator for TraceIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let tag = self.byte();
        let z = self.u64();
        let delta = (z >> 1) ^ (z & 1).wrapping_neg();
        self.at = SimTime(self.at.as_nanos().wrapping_add(delta));
        Some(TraceEvent {
            at: self.at,
            node: self.trace.node,
            kind: self.kind(tag),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

/// A bounded append-only event stream owned by one node.
#[derive(Debug)]
pub(crate) struct TraceSink {
    trace: Trace,
    capacity: usize,
    dropped: u64,
}

impl TraceSink {
    /// A sink of `node`'s events holding at most
    /// [`DEFAULT_TRACE_CAPACITY`] of them.
    pub(crate) fn new(node: NodeId) -> TraceSink {
        TraceSink::with_capacity(node, DEFAULT_TRACE_CAPACITY)
    }

    /// A sink of `node`'s events holding at most `capacity` of them.
    pub(crate) fn with_capacity(node: NodeId, capacity: usize) -> TraceSink {
        TraceSink {
            trace: Trace::new(node),
            capacity,
            dropped: 0,
        }
    }

    /// Append one event stamped `at`, or count a drop once the sink is
    /// full.
    #[inline]
    pub(crate) fn push(&mut self, at: SimTime, kind: TraceKind) {
        if self.trace.len() < self.capacity {
            self.trace.push(at, kind);
        } else {
            self.dropped += 1;
        }
    }

    /// The events recorded so far.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Events discarded after the capacity was reached.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Take ownership of the recorded events (the sink keeps counting
    /// drops against its capacity but starts from an empty trace).
    pub(crate) fn take(&mut self) -> Trace {
        let fresh = Trace::new(self.trace.node);
        std::mem::replace(&mut self.trace, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicheck::{check, Rng};

    fn ev(n: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime(n),
            node: 0,
            kind: TraceKind::Crash,
        }
    }

    #[test]
    fn bounded_sink_counts_drops() {
        let mut s = TraceSink::with_capacity(0, 3);
        for i in 0..5 {
            s.push(SimTime(i), TraceKind::Crash);
        }
        assert_eq!(s.trace().len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.trace().iter().nth(2), Some(ev(2)));
    }

    #[test]
    fn take_leaves_sink_usable() {
        let mut s = TraceSink::with_capacity(0, 10);
        s.push(SimTime(1), TraceKind::Crash);
        let taken = s.take();
        assert_eq!(taken.len(), 1);
        assert!(s.trace().is_empty());
        s.push(SimTime(2), TraceKind::Crash);
        assert_eq!(s.trace().iter().collect::<Vec<_>>(), [ev(2)]);
        recycle_trace_buffer(taken);
    }

    fn arb_u32(rng: &mut Rng) -> u32 {
        match rng.below(3) {
            0 => *rng.pick(&[0, 127, 128, u32::MAX]),
            _ => rng.u32_any_width(),
        }
    }

    fn arb_u64(rng: &mut Rng) -> u64 {
        match rng.below(3) {
            0 => *rng.pick(&[0, 127, 128, u32::MAX.into(), u64::MAX]),
            1 => rng.u32_any_width().into(),
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    fn arb_node(rng: &mut Rng) -> NodeId {
        match rng.below(3) {
            0 => *rng.pick(&[0, 127, 128, NodeId::MAX]),
            _ => rng.usize_in(0, 256),
        }
    }

    fn arb_kind(rng: &mut Rng, labels: &[&'static str]) -> TraceKind {
        let label = |rng: &mut Rng| *rng.pick(labels);
        match rng.below(35) {
            0 => TraceKind::ReadFault { page: arb_u32(rng) },
            1 => TraceKind::WriteFault { page: arb_u32(rng) },
            2 => TraceKind::PageFetch {
                page: arb_u32(rng),
                from: arb_node(rng),
                wait_ns: arb_u64(rng),
            },
            3 => TraceKind::DiffFlush {
                to: arb_node(rng),
                bytes: arb_u64(rng),
            },
            4 => TraceKind::NoticesApplied {
                count: arb_u32(rng),
            },
            5 => TraceKind::LogAppend {
                bytes: arb_u64(rng),
                obj: match rng.below(4) {
                    0 => LogObj::Page { page: arb_u32(rng) },
                    1 => LogObj::Lock { lock: arb_u32(rng) },
                    2 => LogObj::Barrier {
                        epoch: arb_u32(rng),
                    },
                    _ => LogObj::Meta,
                },
            },
            6 => TraceKind::LogFlush {
                bytes: arb_u64(rng),
                overlapped: rng.bool(),
            },
            7 => TraceKind::Checkpoint {
                bytes: arb_u64(rng),
                pages: arb_u32(rng),
                compacted: arb_u32(rng),
            },
            8 => TraceKind::LockAcquire {
                lock: arb_u32(rng),
                wait_ns: arb_u64(rng),
            },
            9 => TraceKind::LockRelease { lock: arb_u32(rng) },
            10 => TraceKind::LockGranted {
                lock: arb_u32(rng),
                to: arb_node(rng),
                holder: arb_node(rng),
            },
            11 => TraceKind::BarrierEnter {
                epoch: arb_u32(rng),
            },
            12 => TraceKind::BarrierExit {
                epoch: arb_u32(rng),
            },
            13 => TraceKind::BarrierReleased {
                epoch: arb_u32(rng),
                straggler: arb_node(rng),
                spread_ns: arb_u64(rng),
            },
            14 => TraceKind::FlushAckWait {
                home: arb_node(rng),
                wait_ns: arb_u64(rng),
            },
            15 => TraceKind::Crash,
            16 => TraceKind::RecoveryBegin,
            17 => TraceKind::RecoveryReplay {
                notices: arb_u32(rng),
            },
            18 => TraceKind::RecoveryEnd,
            19 => TraceKind::Timeout { to: arb_node(rng) },
            20 => TraceKind::Retransmit {
                to: arb_node(rng),
                attempts: arb_u32(rng),
            },
            21 => TraceKind::DupSuppressed {
                from: arb_node(rng),
            },
            22 => TraceKind::LogDeviceFailed,
            23 => TraceKind::RecoveryDegraded,
            24 => TraceKind::MsgSend {
                to: arb_node(rng),
                seq: arb_u64(rng),
                bytes: arb_u32(rng),
                msg: label(rng),
            },
            25 => TraceKind::MsgRecv {
                from: arb_node(rng),
                seq: arb_u64(rng),
                msg: label(rng),
            },
            26 => TraceKind::LogDeviceFull,
            27 => TraceKind::TornTailDetected {
                stream: label(rng),
                salvaged: arb_u32(rng),
                discarded: arb_u32(rng),
            },
            28 => TraceKind::CrcMismatch { stream: label(rng) },
            29 => TraceKind::LogTruncated {
                stream: label(rng),
                records: arb_u32(rng),
            },
            30 => TraceKind::HomeRepair {
                notices: arb_u32(rng),
                diffs: arb_u32(rng),
            },
            31 => TraceKind::SyncSynthesized {
                records: arb_u32(rng),
            },
            32 => TraceKind::PrefetchIssued {
                page: arb_u32(rng),
                count: arb_u32(rng),
            },
            33 => TraceKind::PrefetchHit { page: arb_u32(rng) },
            _ => TraceKind::PrefetchWasted { page: arb_u32(rng) },
        }
    }

    /// The next stamp: mostly forward by a little, but also equal,
    /// backwards, and jumps to either end of the clock.
    fn arb_at(rng: &mut Rng, last: u64) -> u64 {
        match rng.below(6) {
            0 => last,
            1 => last.wrapping_sub(rng.below(1 << 20)),
            2 => *rng.pick(&[0, u64::MAX]),
            _ => last.wrapping_add(arb_u64(rng) >> rng.below(40)),
        }
    }

    /// The same label text at a second address, so interning must
    /// compare by content.
    fn copy_of(s: &str) -> &'static str {
        Box::leak(s.to_string().into_boxed_str())
    }

    /// A packed trace is a lossless `Vec<TraceEvent>`: same length, same
    /// events in the same order (every field, labels by content), same
    /// `Debug` text and equality, and drops past the capacity counted.
    #[test]
    fn packed_trace_round_trips_every_event() {
        let labels = ["PageReply", "ml.log", "", "x"];
        let copies = labels.map(copy_of);
        check("packed_trace_round_trips_every_event", 300, |rng| {
            let node = arb_node(rng);
            let capacity = rng.usize_in(0, 80);
            let mut sink = TraceSink::with_capacity(node, capacity);
            let mut same = TraceSink::with_capacity(node, capacity);
            let mut mixed = TraceSink::with_capacity(node, capacity);
            let mut reference = Vec::new();
            let mut last = 0;
            let pushes = rng.usize_in(0, 100);
            for i in 0..pushes {
                let at = arb_at(rng, last);
                last = at;
                let (kind, twin) = {
                    let mut r = rng.clone();
                    let k = arb_kind(rng, &labels);
                    (k, arb_kind(&mut r, &copies))
                };
                sink.push(SimTime(at), kind);
                same.push(SimTime(at), twin);
                mixed.push(SimTime(at), if i % 2 == 0 { kind } else { twin });
                if reference.len() < capacity {
                    reference.push(TraceEvent {
                        at: SimTime(at),
                        node,
                        kind,
                    });
                }
            }
            let trace = sink.trace();
            assert_eq!(trace.len(), reference.len());
            assert_eq!(trace.iter().len(), reference.len());
            assert_eq!(sink.dropped(), (pushes - reference.len()) as u64);
            assert!(trace.encoded_len() <= 37 * trace.len(), "the widest event");
            let decoded: Vec<TraceEvent> = trace.into_iter().collect();
            assert_eq!(decoded, reference);
            assert_eq!(format!("{trace:?}"), format!("{reference:?}"));
            assert_eq!(trace, same.trace(), "labels compare by content");
            assert_eq!(trace, mixed.trace());
            assert!(
                mixed.trace().labels.len() <= labels.len(),
                "a label and its copy intern to one entry"
            );
            if let Some(first) = reference.first() {
                let mut other = Trace::new(node);
                let changed = match first.kind {
                    TraceKind::Crash => TraceKind::RecoveryEnd,
                    _ => TraceKind::Crash,
                };
                other.push(first.at, changed);
                for e in &reference[1..] {
                    other.push(e.at, e.kind);
                }
                assert_ne!(*trace, other);
            }
        });
    }
}
