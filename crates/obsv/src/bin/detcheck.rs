//! detcheck — the run-to-run determinism gate.
//!
//! Runs every application under every Table 2 protocol **twice with
//! identical specs** and requires the two runs to be bit-identical:
//! byte-for-byte equal `phases_json`, equal full trace fingerprints
//! (`MsgSend`/`MsgRecv` causal edges included), equal digests, virtual
//! execution times, and total log bytes, all compared exactly.
//! The fault-free matrix is then repeated under fixed chaos schedules
//! (lossy network, a partition window, and — for the logging
//! protocols — a mid-run crash) to show that determinism survives the
//! reliable layer and recovery, not just the happy path — and, under
//! CCL, two crashes: one after the other (the second victim restores
//! from a home that rebuilt its served logs) and both at once (two
//! replaying homes serving each other).
//!
//! Usage: `detcheck [--paper] [--chaos N]`
//!
//! * default scale is the 4-node smoke matrix (under a second in
//!   release); `--paper` runs the paper's 8-node workloads (about 20 s),
//! * `--chaos N` selects how many of the fixed chaos schedules to
//!   replay (default 2).
//!
//! Exit status is non-zero on the first mismatch, with the offending
//! field named. `scripts/verify.sh` runs the smoke matrix on every
//! verification pass.

use ccl_apps::App;
use ccl_core::{
    CrashPlan, DiskFaultPlan, FaultPlan, Partition, Protocol, RunOutput, SimDuration, SimTime,
};
use obsv::report::{trace_fingerprint, Scale};

/// Fixed chaos schedules, in replay order. Each is fully determined by
/// its constants, so two invocations build byte-identical fault plans.
fn chaos_plan(index: usize, n_nodes: usize) -> FaultPlan {
    match index % 4 {
        0 => FaultPlan::lossy(0xDE7_0001, 25, 15),
        1 => FaultPlan::lossy(0xDE7_0002, 40, 10).with_partition(Partition {
            a: 0,
            b: 2 % n_nodes,
            from: SimTime(400_000),
            until: SimTime(400_000) + SimDuration::from_micros(600),
        }),
        2 => FaultPlan::lossy(0xDE7_0003, 10, 40),
        _ => FaultPlan::lossy(0xDE7_0004, 50, 25).with_partition(Partition {
            a: 1,
            b: 3 % n_nodes,
            from: SimTime(1_200_000),
            until: SimTime(1_200_000) + SimDuration::from_micros(300),
        }),
    }
}

/// Everything detcheck compares between two same-spec runs.
struct Observables {
    phases_json: String,
    trace_fp: u64,
    digest: u64,
    exec_ns: u64,
    log_bytes: u64,
    /// The full rendered blame document: critical path, per-object
    /// attribution, log split. Byte-compared — the blame engine is a
    /// pure function of the deterministic trace.
    blame_json: String,
    trace_dropped: u64,
}

fn observe(label: &str, out: &RunOutput<u64>) -> Observables {
    Observables {
        phases_json: out.phases_json(label),
        trace_fp: trace_fingerprint(out),
        digest: out.nodes[0].result,
        exec_ns: out.exec_time().as_nanos(),
        log_bytes: out.total_log_bytes(),
        blame_json: obsv::blame_json(&obsv::analyze(out), label).pretty(),
        trace_dropped: out.nodes.iter().map(|n| n.trace_dropped).sum(),
    }
}

/// Run `make` twice and compare every observable exactly. Returns the
/// number of mismatched fields (0 = deterministic).
fn check_pair(label: &str, make: impl Fn() -> RunOutput<u64>) -> usize {
    let a = observe(label, &make());
    let b = observe(label, &make());
    let mut bad = 0;
    let mut field = |name: &str, equal: bool| {
        if !equal {
            eprintln!("FAIL {label}: {name} differs between same-seed runs");
            bad += 1;
        }
    };
    field("digest", a.digest == b.digest);
    field("exec_ns", a.exec_ns == b.exec_ns);
    field("log_bytes", a.log_bytes == b.log_bytes);
    field("trace_fingerprint", a.trace_fp == b.trace_fp);
    field("phases_json", a.phases_json == b.phases_json);
    field("blame_json", a.blame_json == b.blame_json);
    // A truncated trace silently falsifies every trace-derived
    // observable (fingerprint, blame path, log attribution), so any
    // drop is a hard failure, not a warning.
    if a.trace_dropped > 0 {
        eprintln!(
            "FAIL {label}: {} trace event(s) dropped — trace-derived checks are not trustworthy",
            a.trace_dropped
        );
        bad += 1;
    }
    if bad == 0 {
        println!(
            "ok   {label}: exec_ns={} log_bytes={} fp={:#018x}",
            a.exec_ns, a.log_bytes, a.trace_fp
        );
    }
    bad
}

fn main() {
    let mut scale = Scale::Smoke;
    let mut chaos = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--chaos" => {
                chaos = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--chaos takes a count");
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: detcheck [--paper] [--chaos N])");
                std::process::exit(2);
            }
        }
    }

    let mut failures = 0usize;
    println!("== fault-free matrix ({}) ==", scale.label());
    for app in App::ALL {
        for protocol in Protocol::TABLE2 {
            let label = format!("{}/{}", app.name(), protocol.label());
            failures += check_pair(&label, || scale.run(app, protocol));
        }
    }

    println!(
        "== chaos matrix ({}, {} schedule(s)) ==",
        scale.label(),
        chaos
    );
    for index in 0..chaos {
        let plan = chaos_plan(index, scale.nodes());
        for app in App::ALL {
            for protocol in Protocol::TABLE2 {
                let label = format!("{}/{}/chaos{}", app.name(), protocol.label(), index);
                let plan = plan.clone();
                failures += check_pair(&label, || {
                    let mut spec = scale.spec(app, protocol).with_faults(plan.clone());
                    // Logging protocols also replay a mid-run crash:
                    // recovery must be just as reproducible.
                    if protocol != Protocol::None {
                        spec = spec.with_crash(CrashPlan::new(1, 3));
                    }
                    scale.run_spec(app, spec)
                });
            }
        }
    }

    // Two failures: the served-log rebuild, the parked fetches and the
    // early update application only run here.
    println!("== two-crash matrix ({}) ==", scale.label());
    let app = App::Water;
    for (name, second) in [
        ("sequential", CrashPlan::new(2, 4)),
        ("overlapping", CrashPlan::new(2, 2)),
    ] {
        let label = format!("{}/ccl/{name}", app.name());
        failures += check_pair(&label, || {
            let spec = scale
                .spec(app, Protocol::Ccl)
                .with_crash(CrashPlan::new(1, 2))
                .with_crash(second);
            scale.run_spec(app, spec)
        });
    }

    // Stable-storage damage must be just as reproducible as network
    // chaos: the mid-flush tear, the salvage scan, the synthesized
    // replay horizon, and the repair wave are all seeded/deterministic,
    // so two same-spec runs must agree byte-for-byte here too.
    println!("== durability matrix ({}) ==", scale.label());
    let mut seed = 0xD15C_C4A5_4ED0_u64;
    for app in App::ALL {
        for protocol in [Protocol::Ml, Protocol::Ccl] {
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let torn_seed = seed;
            let label = format!("{}/{}/torn", app.name(), protocol.label());
            failures += check_pair(&label, || {
                let crash = if torn_seed.is_multiple_of(2) {
                    CrashPlan::new(1, 3).with_torn_tail(torn_seed)
                } else {
                    CrashPlan::new(1, 3).with_garbled_tail(torn_seed)
                };
                let spec = scale.spec(app, protocol).with_crash(crash);
                scale.run_spec(app, spec)
            });
            let rot_seed = seed.rotate_left(17);
            let label = format!("{}/{}/rot", app.name(), protocol.label());
            failures += check_pair(&label, || {
                let spec = scale
                    .spec(app, protocol)
                    .with_disk_fault(1, DiskFaultPlan::bit_rot(rot_seed, 350))
                    .with_crash(CrashPlan::new(1, 3));
                scale.run_spec(app, spec)
            });
        }
    }

    if failures > 0 {
        eprintln!("detcheck: {failures} observable(s) were not reproducible");
        std::process::exit(1);
    }
    println!("detcheck: every run was bit-reproducible");
}
