//! Interval numbering and vector timestamps.
//!
//! Lazy release consistency divides each process's execution into
//! *intervals* delimited by synchronization operations. A [`VClock`]
//! records, per process, the highest interval whose updates are visible —
//! the machinery HLRC uses to decide which write-invalidation notices an
//! acquirer still needs, and which the CCL recovery protocol uses to
//! decide whether a home copy has advanced past the interval being
//! replayed.

use std::cmp::Ordering;
use std::fmt;

use crate::codec::{ByteReader, CodecError, Decode, Encode, Sink};

/// A (process, interval sequence) pair naming one interval globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntervalId {
    /// The process whose interval this is.
    pub node: u32,
    /// That process's interval sequence number (starts at 0).
    pub seq: u32,
}

impl fmt::Display for IntervalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}#{}", self.node, self.seq)
    }
}

/// `var(node) var(seq)` ([`Sink::put_var`]): two bytes for any node
/// below 128 in its first 128 intervals.
impl Encode for IntervalId {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_var(self.node);
        w.put_var(self.seq);
    }
}

impl Decode for IntervalId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(IntervalId {
            node: r.get_var()?,
            seq: r.get_var()?,
        })
    }
}

/// Vector timestamp over the cluster's processes.
///
/// `clock[p]` = number of process `p`'s intervals whose updates are
/// visible; i.e. intervals `0..clock[p]` have been seen.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VClock {
    clock: Vec<u32>,
}

/// Result of comparing two vector timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VOrder {
    /// The two clocks are identical.
    Equal,
    /// Self dominated by other (self happened-before other).
    Before,
    /// Self dominates other.
    After,
    /// Neither dominates the other.
    Concurrent,
}

impl VClock {
    /// All-zero clock for an `n`-process cluster.
    pub fn new(n: usize) -> VClock {
        VClock { clock: vec![0; n] }
    }

    /// Number of processes this clock spans.
    pub fn len(&self) -> usize {
        self.clock.len()
    }

    /// Whether the clock spans zero processes.
    pub fn is_empty(&self) -> bool {
        self.clock.is_empty()
    }

    /// Visible interval count for process `node`.
    #[inline]
    pub fn get(&self, node: u32) -> u32 {
        self.clock[node as usize]
    }

    /// Set process `node`'s visible interval count.
    #[inline]
    pub fn set(&mut self, node: u32, v: u32) {
        self.clock[node as usize] = v;
    }

    /// Has interval `iv` been seen (its updates are visible)?
    #[inline]
    pub fn covers(&self, iv: IntervalId) -> bool {
        self.get(iv.node) > iv.seq
    }

    /// Record interval `iv` as seen (and everything before it from the
    /// same process, which interval numbering guarantees).
    pub fn observe(&mut self, iv: IntervalId) {
        let e = &mut self.clock[iv.node as usize];
        *e = (*e).max(iv.seq + 1);
    }

    /// Pointwise maximum (merge what another process has seen).
    pub fn join(&mut self, other: &VClock) {
        assert_eq!(self.len(), other.len(), "vector clock size mismatch");
        for (a, b) in self.clock.iter_mut().zip(&other.clock) {
            *a = (*a).max(*b);
        }
    }

    /// Compare under the standard vector-clock partial order.
    pub fn compare(&self, other: &VClock) -> VOrder {
        assert_eq!(self.len(), other.len(), "vector clock size mismatch");
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.clock.iter().zip(&other.clock) {
            match a.cmp(b) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
        match (less, greater) {
            (false, false) => VOrder::Equal,
            (true, false) => VOrder::Before,
            (false, true) => VOrder::After,
            (true, true) => VOrder::Concurrent,
        }
    }

    /// `self <= other` pointwise.
    pub fn dominated_by(&self, other: &VClock) -> bool {
        matches!(self.compare(other), VOrder::Equal | VOrder::Before)
    }

    /// Iterate over `(node, count)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.clock.iter().enumerate().map(|(i, &c)| (i as u32, c))
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.clock.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ">")
    }
}

/// Wire form: `var(len)` then `var(count)` per process. Interval counts
/// are small for the whole of any run this repository performs, so an
/// entry is one byte (two from 128 intervals): an 8-node clock is 9
/// bytes, a 128-node clock about 130.
impl Encode for VClock {
    fn encode<S: Sink>(&self, w: &mut S) {
        w.put_var(self.clock.len() as u32);
        for &c in &self.clock {
            w.put_var(c);
        }
    }
}

impl Decode for VClock {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.get_var()? as usize;
        let mut clock = Vec::with_capacity(r.capacity_for(n, 1));
        for _ in 0..n {
            clock.push(r.get_var()?);
        }
        Ok(VClock { clock })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_cover() {
        let mut v = VClock::new(4);
        let iv = IntervalId { node: 2, seq: 0 };
        assert!(!v.covers(iv));
        v.observe(iv);
        assert!(v.covers(iv));
        assert!(!v.covers(IntervalId { node: 2, seq: 1 }));
        // observing a later interval implies earlier ones
        v.observe(IntervalId { node: 2, seq: 5 });
        assert!(v.covers(IntervalId { node: 2, seq: 3 }));
        assert_eq!(v.get(2), 6);
    }

    #[test]
    fn observe_is_monotone() {
        let mut v = VClock::new(2);
        v.observe(IntervalId { node: 0, seq: 7 });
        v.observe(IntervalId { node: 0, seq: 2 });
        assert_eq!(v.get(0), 8);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = VClock::new(3);
        b.set(0, 2);
        b.set(1, 9);
        a.join(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 9);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn partial_order() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        assert_eq!(a.compare(&b), VOrder::Equal);
        a.set(0, 1);
        assert_eq!(a.compare(&b), VOrder::After);
        assert_eq!(b.compare(&a), VOrder::Before);
        b.set(1, 1);
        assert_eq!(a.compare(&b), VOrder::Concurrent);
        assert!(!a.dominated_by(&b));
        b.set(0, 1);
        assert!(a.dominated_by(&b));
    }

    #[test]
    fn codec_roundtrip() {
        let mut v = VClock::new(5);
        v.set(1, 42);
        v.set(4, 7);
        let bytes = v.encode_to_vec();
        assert_eq!(v.encoded_size(), bytes.len(), "the two sinks disagree");
        assert_eq!(bytes.len(), 1 + 5, "one byte per small entry");
        assert_eq!(VClock::decode_from_slice(&bytes).unwrap(), v);

        let iv = IntervalId { node: 3, seq: 11 };
        let bytes = iv.encode_to_vec();
        assert_eq!(bytes, [3, 11], "one byte per small id");
        assert_eq!(IntervalId::decode_from_slice(&bytes).unwrap(), iv);
    }

    #[test]
    fn display_formats() {
        let mut v = VClock::new(3);
        v.set(1, 2);
        assert_eq!(v.to_string(), "<0,2,0>");
        assert_eq!(IntervalId { node: 1, seq: 2 }.to_string(), "P1#2");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn join_size_mismatch_panics() {
        let mut a = VClock::new(2);
        a.join(&VClock::new(3));
    }
}
