//! # ccl-bench — paper-scale constants
//!
//! What `obsv`'s `report` pipeline needs beyond the applications: the
//! paper's cluster size ([`NODES`]) and where Figure 5's crash lands
//! ([`crash_point`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's cluster size.
pub const NODES: usize = 8;

/// The barrier after which a node that completes `barriers` of them
/// fails, for a crash at roughly `fraction` of its run (0.75 is the
/// paper's late-crash scenario): never before the first barrier, never
/// at the last.
pub fn crash_point(barriers: u64, fraction: f64) -> u64 {
    ((barriers as f64 * fraction) as u64).clamp(1, barriers.saturating_sub(1).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_stays_strictly_inside_the_run() {
        assert_eq!(crash_point(40, 0.75), 30);
        assert_eq!(crash_point(18, 0.75), 13);
        assert_eq!(crash_point(1, 0.75), 1);
        assert_eq!(crash_point(2, 0.99), 1);
        assert_eq!(crash_point(8, 0.0), 1);
    }
}
