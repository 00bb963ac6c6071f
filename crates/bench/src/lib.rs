//! # ccl-bench — paper-scale run helpers
//!
//! The paper's 8-node configuration as code ([`paper_spec`],
//! [`run_paper`], [`run_paper_with_crash`]), shared by the `report`
//! pipeline in `obsv` — which regenerates Tables 1–2 and Figures 4–5 —
//! and by the bench targets that go beyond the paper's own evaluation
//! (run `cargo bench -p ccl-bench`):
//!
//! * `ablation` — design-choice ablations (overlap, prefetch, page size),
//! * `homeless` — home-based vs homeless LRC,
//! * `related_work` — records-only and RSL logging on the home-based DSM,
//! * `micro`  — host-time micro-benchmarks of the substrate operations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ccl_apps::App;
use ccl_core::{run_program, ClusterSpec, CrashPlan, Protocol, RunOutput};

/// The paper's cluster size.
pub const NODES: usize = 8;

/// Build the paper-scale spec for `app` under `protocol`.
pub fn paper_spec(app: App, protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(NODES, app.paper_pages(4096) + 8).with_protocol(protocol)
}

/// Run the paper-scale workload failure-free.
pub fn run_paper(app: App, protocol: Protocol) -> RunOutput<u64> {
    run_program(paper_spec(app, protocol), move |dsm| app.run_paper(dsm))
}

/// The barrier after which a node that completes `barriers` of them
/// fails, for a crash at roughly `fraction` of its run (0.75 is the
/// paper's late-crash scenario): never before the first barrier, never
/// at the last.
pub fn crash_point(barriers: u64, fraction: f64) -> u64 {
    ((barriers as f64 * fraction) as u64).clamp(1, barriers.saturating_sub(1).max(1))
}

/// Run the paper-scale workload with node 1 crashing after its
/// `after_barriers`-th barrier (see [`crash_point`]).
pub fn run_paper_with_crash(app: App, protocol: Protocol, after_barriers: u64) -> RunOutput<u64> {
    let spec = paper_spec(app, protocol).with_crash(CrashPlan::new(1, after_barriers));
    run_program(spec, move |dsm| app.run_paper(dsm))
}

/// Seconds with three decimals.
pub fn secs(t: ccl_core::SimTime) -> String {
    format!("{:.3}", t.as_secs_f64())
}

/// Kilobytes with one decimal.
pub fn kb(bytes: f64) -> String {
    format!("{:.1}", bytes / 1024.0)
}

/// Megabytes with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(2048.0), "2.0");
        assert_eq!(mb(3 * 1024 * 1024), "3.00");
    }

    #[test]
    fn crash_point_stays_strictly_inside_the_run() {
        assert_eq!(crash_point(40, 0.75), 30);
        assert_eq!(crash_point(18, 0.75), 13);
        assert_eq!(crash_point(1, 0.75), 1);
        assert_eq!(crash_point(2, 0.99), 1);
        assert_eq!(crash_point(8, 0.0), 1);
    }
}
