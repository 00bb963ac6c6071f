//! Page protection state machine.
//!
//! On the paper's testbed, coherence is driven by VM page protection:
//! `mprotect` + SIGSEGV traps. We reproduce exactly that state machine
//! in software — typed array views check the protection state on every
//! page touch and invoke the DSM fault handler where the OS would have
//! delivered a signal (the Shasta/Blizzard-S "software access check"
//! substitution documented in DESIGN.md).

/// Protection state of one cached page on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// No valid local copy (PROT_NONE): any access faults.
    Invalid,
    /// Valid read-only copy (PROT_READ): writes fault (twin creation).
    ReadOnly,
    /// Writable copy (PROT_READ|PROT_WRITE): opened by a write fault,
    /// with a twin in place — or, in log replay, opened ahead of a
    /// write the log (or, for a home page, the barrier manager's
    /// history) names, with none.
    Writable,
}

/// The kind of access an application performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load from shared memory.
    Read,
    /// A store to shared memory.
    Write,
}

/// The fault a protection check raises, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Access to an invalid page: must fetch a fresh copy from home.
    ReadMiss,
    /// First write to a clean page: must make a twin and upgrade.
    WriteUpgrade,
    /// Write to an invalid page: fetch from home, then twin + upgrade.
    WriteMiss,
}

impl PageState {
    /// Would `access` fault in this state, and how?
    #[inline]
    pub fn fault_for(self, access: Access) -> Option<Fault> {
        match (self, access) {
            (PageState::Invalid, Access::Read) => Some(Fault::ReadMiss),
            (PageState::Invalid, Access::Write) => Some(Fault::WriteMiss),
            (PageState::ReadOnly, Access::Write) => Some(Fault::WriteUpgrade),
            (PageState::ReadOnly, Access::Read) => None,
            (PageState::Writable, _) => None,
        }
    }

    /// State after the fault handler finishes servicing `fault`.
    #[inline]
    pub fn after_fault(fault: Fault) -> PageState {
        match fault {
            Fault::ReadMiss => PageState::ReadOnly,
            Fault::WriteUpgrade | Fault::WriteMiss => PageState::Writable,
        }
    }

    /// Whether a local copy exists at all.
    #[inline]
    pub fn is_valid(self) -> bool {
        !matches!(self, PageState::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_faults_on_everything() {
        assert_eq!(
            PageState::Invalid.fault_for(Access::Read),
            Some(Fault::ReadMiss)
        );
        assert_eq!(
            PageState::Invalid.fault_for(Access::Write),
            Some(Fault::WriteMiss)
        );
    }

    #[test]
    fn read_only_faults_on_write_only() {
        assert_eq!(PageState::ReadOnly.fault_for(Access::Read), None);
        assert_eq!(
            PageState::ReadOnly.fault_for(Access::Write),
            Some(Fault::WriteUpgrade)
        );
    }

    #[test]
    fn writable_never_faults() {
        assert_eq!(PageState::Writable.fault_for(Access::Read), None);
        assert_eq!(PageState::Writable.fault_for(Access::Write), None);
    }

    #[test]
    fn fault_resolution_states() {
        assert_eq!(PageState::after_fault(Fault::ReadMiss), PageState::ReadOnly);
        assert_eq!(
            PageState::after_fault(Fault::WriteMiss),
            PageState::Writable
        );
        assert_eq!(
            PageState::after_fault(Fault::WriteUpgrade),
            PageState::Writable
        );
    }

    #[test]
    fn validity() {
        assert!(!PageState::Invalid.is_valid());
        assert!(PageState::ReadOnly.is_valid());
        assert!(PageState::Writable.is_valid());
    }
}
