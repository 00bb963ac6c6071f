//! A cheap immutable byte buffer for page payloads.
//!
//! Page-carrying messages used to own a fresh `Vec<u8>` copy of the
//! page, which the simnet router then deep-copied again for duplicate
//! deliveries and the loggers copied twice more into log records.
//! [`SharedBytes`] is an in-tree `Bytes`-style wrapper (an `Arc<[u8]>`,
//! no external deps): every clone is a reference-count bump, so one
//! allocation is shared across the envelope and its duplicates, and
//! ML's log record of the copy keeps it too: the encoder hands it over
//! through [`Sink::put_shared`](crate::Sink::put_shared) and the record
//! holds it as its shared span (`simnet::DiskRecord`), not as a copy.
//! Wire and log *accounting* always uses the logical length
//! ([`SharedBytes::len`]), never the physical sharing, so reported byte
//! counts are unchanged. A page frame can be such a buffer too
//! ([`PageFrame::shared`](crate::PageFrame::shared)): a copy is held
//! as the buffer it was shipped in until its first write.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply clonable byte string (`Arc<[u8]>` under the hood).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SharedBytes(Arc<[u8]>);

impl SharedBytes {
    /// Share a copy of `bytes` (one allocation, then free clones).
    pub fn copy_of(bytes: &[u8]) -> SharedBytes {
        SharedBytes(Arc::from(bytes))
    }

    /// Logical length in bytes — the number that enters wire and log
    /// accounting.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Do the two handles share one allocation (not merely equal
    /// contents)?
    pub fn ptr_eq(&self, other: &SharedBytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<SharedBytes> for Arc<[u8]> {
    fn from(v: SharedBytes) -> Arc<[u8]> {
        v.0
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> SharedBytes {
        SharedBytes(Arc::from(v))
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> SharedBytes {
        SharedBytes(Arc::from(v))
    }
}

impl<const N: usize> From<[u8; N]> for SharedBytes {
    fn from(v: [u8; N]) -> SharedBytes {
        SharedBytes(Arc::from(v.as_slice()))
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_allocation() {
        let a: SharedBytes = vec![1u8, 2, 3].into();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn equality_is_by_contents() {
        let a = SharedBytes::copy_of(&[5, 6]);
        let b: SharedBytes = vec![5u8, 6].into();
        assert_eq!(a, b);
        assert_ne!(a, SharedBytes::copy_of(&[5]));
    }

    #[test]
    fn len_and_deref() {
        let s: SharedBytes = (&[9u8, 9, 9][..]).into();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.as_slice(), &[9, 9, 9]);
        assert_eq!(s.iter().sum::<u8>(), 27);
    }
}
