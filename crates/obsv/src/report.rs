//! The paper-artifact report pipeline.
//!
//! One invocation runs the full evaluation matrix — every application
//! under every protocol, the Figure 5 crash-recovery scenario under ML
//! and CCL, the 3D-FFT page-size sweep and, at smoke scale, the
//! [`chaos_cells`] — and turns the results into three artifacts:
//!
//! 1. a machine-readable report document ([`report_json`]): digests,
//!    times, log bytes, message counts, trace and phase fingerprints,
//!    the blame summary and a hash of the full blame document of every
//!    run, crash runs included (the documents themselves are
//!    [`Report::blame`]),
//! 2. Markdown tables for the paper's Table 1 / Table 2 / Figure 4 /
//!    Figure 5, the blame and traffic tables, and the ablation table,
//!    spliced into `EXPERIMENTS.md` between `<!-- report:* -->`
//!    markers ([`splice_tables`]),
//! 3. a regression verdict ([`compare`]) against a committed golden
//!    document ([`Scale::golden_path`]): every field must match
//!    exactly. The conservative virtual-time scheduler (DESIGN.md §12)
//!    makes the whole matrix — Water's lock-heavy schedule, lossy
//!    networks and crash-recovery timing included — a pure function of
//!    the spec, so this golden is also the determinism proof.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use ccl_apps::App;
use ccl_core::{
    run_program, ClusterSpec, CrashPlan, DiskCounters, DiskFaultPlan, FaultPlan, NodeMetrics,
    Partition, Protocol, RunOutput, SimDuration, SimTime,
};

use crate::blame::{blame_json, checked_analysis, Blame};
use crate::json::Json;

/// The paper's late-crash scenario: node 1 fails at ~75% of its
/// barriers (Figure 5).
pub const CRASH_FRACTION: f64 = 0.75;

/// Report document schema identifier.
pub const SCHEMA: &str = "ccl-report/v1";

/// Which size the matrix runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's 8-node configuration and workload sizes; the matrix
    /// takes about 9 s of wall clock in release. Golden:
    /// `REPORT_paper.json` at the repo root.
    Paper,
    /// 4 nodes, tiny workloads, 256-byte pages; about 0.1 s in release.
    /// Golden: `crates/obsv/smoke_baseline.json`.
    Smoke,
}

impl Scale {
    /// Cluster size at this scale.
    pub fn nodes(self) -> usize {
        match self {
            Scale::Paper => ccl_bench::NODES,
            Scale::Smoke => 4,
        }
    }

    /// Lowercase name used in the report document.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Smoke => "smoke",
        }
    }

    /// The committed golden document for this scale.
    pub fn golden_path(self) -> PathBuf {
        let obsv = Path::new(env!("CARGO_MANIFEST_DIR"));
        match self {
            Scale::Paper => obsv.join("../../REPORT_paper.json"),
            Scale::Smoke => obsv.join("smoke_baseline.json"),
        }
    }

    /// Read and parse the committed golden document for this scale.
    pub fn load_golden(self) -> Result<Json, String> {
        let path = self.golden_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        crate::json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    /// Coherence granularity at this scale, in bytes.
    fn page_size(self) -> usize {
        match self {
            Scale::Paper => 4096,
            Scale::Smoke => 256,
        }
    }

    /// The cluster spec for `app` under `protocol` at this scale; the
    /// [`chaos_cells`] stack their faults on it.
    pub fn spec(self, app: App, protocol: Protocol) -> ClusterSpec {
        self.spec_at(app, protocol, self.page_size())
    }

    /// [`Scale::spec`] with `page_size`-byte pages (ablation A3).
    fn spec_at(self, app: App, protocol: Protocol, page_size: usize) -> ClusterSpec {
        let pages = match self {
            Scale::Paper => app.paper_pages(page_size) + 8,
            Scale::Smoke => app.tiny_pages(page_size) + 4,
        };
        ClusterSpec::new(self.nodes(), pages)
            .with_page_size(page_size)
            .with_protocol(protocol)
    }

    /// Run `app`'s instance for this scale under `spec` — a
    /// [`Scale::spec`], plus whatever faults the caller stacked on it.
    pub fn run_spec(self, app: App, spec: ClusterSpec) -> RunOutput<u64> {
        match self {
            Scale::Paper => run_program(spec, move |dsm| app.run_paper(dsm)),
            Scale::Smoke => run_program(spec, move |dsm| app.run_tiny(dsm)),
        }
    }

    /// Run `app` under `protocol` failure-free at this scale.
    pub fn run(self, app: App, protocol: Protocol) -> RunOutput<u64> {
        self.run_spec(app, self.spec(app, protocol))
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// FNV-1a over every node's trace events, in node order — each
/// event's `at` stamp and its kind, including the `MsgSend`/`MsgRecv`
/// causal edges. The conservative virtual-time scheduler delivers
/// messages in `(arrival, src, seq)` order, so the full causal schedule
/// is deterministic and the fingerprint pins it, with *when* each event
/// happened: a change that only moves a home-page write trap relative
/// to a charge (it sends nothing) moves the fingerprint. The kinds hash
/// with their payloads, so the wait durations that `PageFetch`,
/// `LockAcquire` and `FlushAckWait` carry (`wait_ns`) and
/// `BarrierReleased`'s arrival spread (`spread_ns`) are pinned too.
pub fn trace_fingerprint(out: &RunOutput<u64>) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    for n in &out.nodes {
        for ev in &n.trace {
            h.0 = fnv1a(h.0, &ev.at.as_nanos().to_le_bytes());
            write!(h, "{:?}", ev.kind).expect("hashing never fails");
        }
    }
    h.0
}

/// FNV-1a state that `write!` feeds: the bytes hashed are the text
/// `format!` would have built, without building it.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// The run's phases document: the fault plan of `spec` and the fault
/// counters, every node's phase breakdown (nanoseconds) and recovery
/// phases, the cluster traffic per wire tag (zeros included), the
/// prefetch counters and the histograms. The goldens pin the FNV-1a of
/// its [`Json::compact`] text as `phases_fp`; `report --blame DIR`
/// writes it out. Byte-stable across same-spec runs, so wall-clock
/// scheduler telemetry (`sched_stalls`, `park_ns`) stays out. Numbers
/// follow the [`crate::json`] precision rule: a fault seed above 2^53
/// is rounded.
pub fn phases_json<R>(out: &RunOutput<R>, spec: &ClusterSpec, label: &str) -> Json {
    let num = Json::from_u64;
    let total = out.total_stats();
    let disk = |f: fn(&DiskCounters) -> u64| num(out.nodes.iter().map(|n| f(&n.disk)).sum());
    let mut doc = Json::obj();
    doc.set("run", Json::Str(label.to_string()));
    doc.set("exec_time_ns", num(out.exec_time().as_nanos()));
    let plan = &spec.faults;
    let mut f = Json::obj();
    f.set("seed", num(plan.seed));
    f.set("drop_per_mille", num(plan.drop_per_mille.into()));
    f.set("dup_per_mille", num(plan.dup_per_mille.into()));
    f.set("jitter_max_ns", num(plan.jitter_max.as_nanos()));
    f.set("partitions", num(plan.partitions.len() as u64));
    f.set("crashes", num(spec.failures.crashes.len() as u64));
    f.set(
        "disk_fault_nodes",
        num(spec.failures.disk_faults.len() as u64),
    );
    f.set("timeouts", num(total.timeouts));
    f.set("retransmits", num(total.retransmits));
    f.set("dups_suppressed", num(total.dups_suppressed));
    f.set("sends_to_stopped", num(total.sends_to_stopped));
    f.set("write_retries", disk(|d| d.write_retries));
    f.set("failed_writes", disk(|d| d.failed_writes));
    f.set("full_writes", disk(|d| d.full_writes));
    f.set("torn_records", disk(|d| d.torn_records));
    f.set("corrupted_records", disk(|d| d.corrupted_records));
    doc.set("faults", f);
    let nodes = out.nodes.iter().map(|n| {
        let mut j = Json::obj();
        j.set("node", num(n.node as u64));
        j.set("finish_ns", num(n.finish.as_nanos()));
        j.set("compute_ns", num(n.phases.compute.as_nanos()));
        j.set("wait_ns", num(n.phases.wait.as_nanos()));
        j.set("disk_ns", num(n.phases.disk.as_nanos()));
        j.set("hidden_ns", num(n.phases.hidden.as_nanos()));
        j.set("events", num(n.trace.len() as u64));
        if let Some(r) = n.recovery_phases {
            let mut rj = Json::obj();
            rj.set("compute_ns", num(r.compute.as_nanos()));
            rj.set("wait_ns", num(r.wait.as_nanos()));
            rj.set("disk_ns", num(r.disk.as_nanos()));
            j.set("recovery_phases", rj);
        }
        j
    });
    doc.set("nodes", Json::Arr(nodes.collect()));
    let mut traffic = Json::obj();
    for k in 0..ccl_core::MSG_KINDS {
        let mut t = Json::obj();
        t.set("msgs", num(total.msgs_by_kind[k]));
        t.set("bytes", num(total.bytes_by_kind[k]));
        traffic.set(ccl_core::kind_label(k), t);
    }
    doc.set("traffic", traffic);
    let mut pf = Json::obj();
    pf.set("issued", num(total.prefetch_issued));
    pf.set("hits", num(total.prefetch_hits));
    pf.set("wasted", num(total.prefetch_wasted));
    doc.set("prefetch", pf);
    doc.set("hist", hist_json(&out.total_metrics()));
    doc
}

/// Everything the report keeps from one run that is not a Figure 5
/// crash run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The protocol this run used.
    pub protocol: Protocol,
    /// Application digest (agrees across protocols).
    pub digest: u64,
    /// Virtual execution time in nanoseconds.
    pub exec_ns: u64,
    /// Total log bytes flushed cluster-wide (Table 2).
    pub log_bytes: u64,
    /// Total volatile-log flushes cluster-wide (Table 2).
    pub log_flushes: u64,
    /// Total protocol messages sent.
    pub msgs_sent: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Barriers completed at node 1 (sets the Figure 5 crash point).
    pub barriers_node1: u64,
    /// Total trace events captured.
    pub trace_events: u64,
    /// Trace events dropped by the bounded sinks (0 on sized workloads).
    pub trace_dropped: u64,
    /// Order fingerprint of the coherence-event schedule.
    pub trace_fp: u64,
    /// FNV-1a of the compact text of the run's [`phases_json`]: the
    /// fault counters, every node's phase breakdown and recovery
    /// phases, the traffic.
    pub phases_fp: u64,
    /// Cluster-merged histogram metrics.
    pub metrics: NodeMetrics,
    /// Compact blame-engine summary (see [`crate::blame`]).
    pub blame: BlameSummary,
    /// Hash of the full blame document this summary condenses (the
    /// document itself is in [`Report::blame`]).
    pub blame_fp: u64,
    /// Per-wire-tag cluster traffic, `(msgs, bytes)` indexed by wire
    /// tag (see [`ccl_core::kind_label`]).
    pub traffic: Vec<(u64, u64)>,
    /// Fetch-hiding effectiveness counters.
    pub prefetch: crate::blame::PrefetchSummary,
}

/// What the blame engine says about one run, compact enough for the
/// report matrix: where the makespan went (blame-path split) and where
/// the logged bytes went (per-object-class split).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlameSummary {
    /// Key of the most-blamed coherence object (`-` if nothing waited
    /// or logged).
    pub top_object: String,
    /// Blame-path compute ns.
    pub cp_compute_ns: u64,
    /// Blame-path recovery (log replay) ns.
    pub cp_recovery_ns: u64,
    /// Blame-path page-fetch wait ns.
    pub cp_wait_page_ns: u64,
    /// Blame-path lock wait ns.
    pub cp_wait_lock_ns: u64,
    /// Blame-path barrier wait ns.
    pub cp_wait_barrier_ns: u64,
    /// Blame-path diff-flush-ack wait ns.
    pub cp_wait_flush_ns: u64,
    /// Flushed log bytes attributed to pages.
    pub log_page_bytes: u64,
    /// Flushed log bytes attributed to locks.
    pub log_lock_bytes: u64,
    /// Flushed log bytes attributed to barrier episodes.
    pub log_barrier_bytes: u64,
    /// Flushed log bytes attributed to metadata/framing.
    pub log_meta_bytes: u64,
    /// Bytes appended but never flushed.
    pub unflushed_bytes: u64,
}

/// Reduce a full [`crate::blame::Blame`] analysis to the report's
/// summary row. The blame-path components sum to the run's `exec_ns`
/// and the log components (plus `unflushed`) to its `log_bytes` — the
/// same exactness the full analysis guarantees.
pub fn blame_summary(blame: &crate::blame::Blame) -> BlameSummary {
    let waits = blame.cp_wait_by_class();
    let class = |c: &str| waits.get(c).copied().unwrap_or(0);
    let log = |c: &str| blame.log_by_class.get(c).copied().unwrap_or(0);
    BlameSummary {
        top_object: blame
            .top_object()
            .map(|o| o.key())
            .unwrap_or_else(|| "-".to_string()),
        cp_compute_ns: blame.cp_compute_ns(),
        cp_recovery_ns: blame.cp_recovery_ns(),
        cp_wait_page_ns: class("page"),
        cp_wait_lock_ns: class("lock"),
        cp_wait_barrier_ns: class("barrier"),
        cp_wait_flush_ns: class("flush"),
        log_page_bytes: log("page"),
        log_lock_bytes: log("lock"),
        log_barrier_bytes: log("barrier"),
        log_meta_bytes: log("meta"),
        unflushed_bytes: blame.unflushed_bytes,
    }
}

/// The Figure 5 crash-recovery measurements for one application.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// Node 1's crash point, in completed barriers.
    pub crash_after_barriers: u64,
    /// Re-execution baseline: the clean run scaled to the crash point.
    pub reexec_ns: u64,
    /// ML recovery time (ns).
    pub ml_ns: u64,
    /// CCL recovery time (ns).
    pub ccl_ns: u64,
    /// Where the ML recovery window went, `[compute, wait, disk]` ns at
    /// the failed node; sums to `ml_ns`.
    pub ml_phases_ns: [u64; 3],
    /// Where the CCL recovery window went, `[compute, wait, disk]` ns
    /// at the failed node; sums to `ccl_ns`.
    pub ccl_phases_ns: [u64; 3],
    /// Hashes of the crash runs' full blame documents, in [`CRASHED`]
    /// order.
    pub blame_fp: [u64; 2],
    /// Requests CCL recovery sent: `RecoveryPageRequest` +
    /// `LoggedDiffRequest` (the benchmark's `ftlog.recovery_msgs`).
    pub ccl_requests: u64,
    /// The failed node's blocking waits in CCL recovery: fetch waves
    /// whose replies were not all in when replay reached them
    /// (`NodeStats::recovery_stalls`).
    pub ccl_stalls: u64,
    /// The page-protection traps the failed node took in its CCL
    /// recovery window (`NodeStats::recovery_traps`): what replay had to
    /// trap to learn, read faults included.
    pub ccl_traps: u64,
    /// The same in its ML recovery window.
    pub ml_traps: u64,
}

/// The protocols node 1 crashes under, once per application.
pub const CRASHED: [Protocol; 2] = [Protocol::Ml, Protocol::Ccl];

/// One application's slice of the report.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// The application.
    pub app: App,
    /// One failure-free record per protocol, in [`Protocol::ALL`] order.
    pub runs: Vec<RunRecord>,
    /// The crash-recovery scenario.
    pub recovery: RecoveryRecord,
    /// Ablation A3, 3D-FFT only (empty for the others): `[ml, ccl]` at
    /// the scale's page size × ¼, ½ and 2 — × 1 is in `runs`.
    pub page_sizes: Vec<(usize, [RunRecord; 2])>,
}

impl AppReport {
    /// The failure-free run under `protocol`.
    pub fn run(&self, protocol: Protocol) -> &RunRecord {
        let run = self.runs.iter().find(|r| r.protocol == protocol);
        run.unwrap_or_else(|| panic!("{}: no {} run", self.app.name(), protocol.label()))
    }
}

/// The full evaluation matrix at one scale.
#[derive(Debug, Clone)]
pub struct Report {
    /// The scale the matrix ran at.
    pub scale: Scale,
    /// All four applications, in `App::ALL` order.
    pub apps: Vec<AppReport>,
    /// The [`chaos_cells`] under their labels; smoke scale only (empty
    /// at paper scale, where they would double `report`'s wall time).
    pub chaos: Vec<(String, RunRecord)>,
    /// The full blame document (schema [`crate::blame::SCHEMA`]) of
    /// every run above, keyed by the label its `blame_fp` hashed —
    /// what `report --blame` writes.
    pub blame: Json,
    /// The [`phases_json`] document of every run that has a
    /// `phases_fp`, keyed by the same labels — what `report --blame`
    /// writes next to the blame documents.
    pub phases: Json,
}

/// One cell of the smoke golden's `chaos` object: an application run
/// under a fault schedule that recovery must come through.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// `{app}/{protocol}/{schedule}`: the cell's key under `chaos`.
    pub label: String,
    /// The application.
    pub app: App,
    /// A [`Scale::spec`] with the cell's faults stacked on it.
    pub spec: ClusterSpec,
}

impl ChaosCell {
    /// Whether every node must end on the failure-free digest: on all
    /// cells but the bit-rot ones, where recovery promises detection and
    /// completion, not digest equality (DESIGN.md §13), so only
    /// agreement between the nodes is required.
    pub fn reaches_fault_free(&self) -> bool {
        self.spec.failures.disk_faults.is_empty()
    }
}

/// The fault schedules the smoke golden pins, in golden order:
///
/// * `chaos0` / `chaos1` — every application under None, ML and CCL on
///   a lossy, duplicating network (plus a partition window in
///   `chaos1`); under ML and CCL node 1 also crashes after barrier 3;
/// * `Water/ccl/sequential` and `/overlapping` — two crashes, one after
///   the other (the second victim restores from a home that rebuilt its
///   served log) and both at once (two replaying homes serving each
///   other);
/// * `torn` / `rot` — every application under ML and CCL, node 1
///   crashing after barrier 3 mid-flush (a torn or garbled log tail) or
///   on a log device that rots bits.
pub fn chaos_cells(scale: Scale) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    let mut cell = |label: String, app: App, spec: ClusterSpec| {
        cells.push(ChaosCell { label, app, spec });
    };
    let partition_at = SimTime(400_000);
    let plans = [
        FaultPlan::lossy(0xDE7_0001, 25, 15),
        FaultPlan::lossy(0xDE7_0002, 40, 10).with_partition(Partition {
            a: 0,
            b: 2,
            from: partition_at,
            until: partition_at + SimDuration::from_micros(600),
        }),
    ];
    for (index, plan) in plans.into_iter().enumerate() {
        for app in App::ALL {
            for protocol in Protocol::ALL {
                let mut spec = scale.spec(app, protocol).with_faults(plan.clone());
                if protocol != Protocol::None {
                    spec = spec.with_crash(CrashPlan::new(1, 3));
                }
                let label = format!("{}/{}/chaos{index}", app.name(), protocol.label());
                cell(label, app, spec);
            }
        }
    }
    let app = App::Water;
    for (name, second) in [
        ("sequential", CrashPlan::new(2, 4)),
        ("overlapping", CrashPlan::new(2, 2)),
    ] {
        let spec = scale.spec(app, Protocol::Ccl);
        let spec = spec.with_crash(CrashPlan::new(1, 2)).with_crash(second);
        cell(format!("{}/ccl/{name}", app.name()), app, spec);
    }
    let mut seed = 0xD15C_C4A5_4ED0_u64;
    for app in App::ALL {
        for protocol in [Protocol::Ml, Protocol::Ccl] {
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let crash = CrashPlan::new(1, 3);
            let label = |damage| format!("{}/{}/{damage}", app.name(), protocol.label());
            let torn = if seed.is_multiple_of(2) {
                crash.with_torn_tail(seed)
            } else {
                crash.with_garbled_tail(seed)
            };
            let spec = scale.spec(app, protocol);
            cell(label("torn"), app, spec.with_crash(torn));
            let rot = DiskFaultPlan::bit_rot(seed.rotate_left(17), 350);
            let spec = scale.spec(app, protocol).with_disk_fault(1, rot);
            cell(label("rot"), app, spec.with_crash(crash));
        }
    }
    cells
}

/// `Err` naming `label` and the first node whose result is not
/// `want`: a run — a crash run above all — that computed something
/// else must not be timed, rendered and blessed.
fn check_digests(label: &str, want: u64, got: impl IntoIterator<Item = u64>) -> Result<(), String> {
    match got.into_iter().enumerate().find(|&(_, r)| r != want) {
        Some((node, r)) => Err(format!(
            "{label}: node {node} ended on {r:#x}, not on {want:#x}"
        )),
        None => Ok(()),
    }
}

/// The matrix at one scale as it runs: every run's blame document and
/// every recorded run's phases document, kept under its label.
struct Matrix {
    scale: Scale,
    blame: Json,
    phases: Json,
}

impl Matrix {
    /// Run `spec` and check it: every node must end on `digest` — the
    /// failure-free None run's; `None` where the nodes need only agree
    /// with node 0 — and its blame analysis must be exact
    /// ([`checked_analysis`]). Keeps the analysis's document under
    /// `label`; returns the run, the analysis and the document's hash.
    fn run(
        &mut self,
        label: &str,
        app: App,
        spec: ClusterSpec,
        digest: Option<u64>,
    ) -> Result<(RunOutput<u64>, Blame, u64), String> {
        let out = self.scale.run_spec(app, spec);
        let digest = digest.unwrap_or(out.nodes[0].result);
        check_digests(label, digest, out.nodes.iter().map(|n| n.result))?;
        let analysis = checked_analysis(label, &out)?;
        let doc = blame_json(&analysis, label);
        let blame_fp = fnv1a(FNV_OFFSET, doc.pretty().as_bytes());
        self.blame.set(label, doc);
        Ok((out, analysis, blame_fp))
    }

    /// [`Matrix::run`] `spec` and keep what the report needs.
    fn record(
        &mut self,
        label: &str,
        app: App,
        spec: ClusterSpec,
        digest: Option<u64>,
    ) -> Result<RunRecord, String> {
        let protocol = spec.protocol;
        let (out, analysis, blame_fp) = self.run(label, app, spec.clone(), digest)?;
        let phases = phases_json(&out, &spec, label);
        let phases_fp = fnv1a(FNV_OFFSET, phases.compact().as_bytes());
        self.phases.set(label, phases);
        let total = out.total_stats();
        let traffic = (0..ccl_core::MSG_KINDS)
            .map(|k| (total.msgs_by_kind[k], total.bytes_by_kind[k]))
            .collect();
        Ok(RunRecord {
            protocol,
            digest: out.nodes[0].result,
            exec_ns: out.exec_time().as_nanos(),
            log_bytes: total.log_bytes,
            log_flushes: total.log_flushes,
            msgs_sent: total.msgs_sent,
            bytes_sent: total.bytes_sent,
            barriers_node1: out.nodes[1].stats.barriers,
            trace_events: out.nodes.iter().map(|n| n.trace.len() as u64).sum(),
            trace_dropped: out.nodes.iter().map(|n| n.trace_dropped).sum(),
            trace_fp: trace_fingerprint(&out),
            phases_fp,
            metrics: out.total_metrics(),
            blame: blame_summary(&analysis),
            blame_fp,
            traffic,
            prefetch: analysis.prefetch,
        })
    }

    /// What the report keeps from one Figure 5 crash run: recovery
    /// time, its `[compute, wait, disk]` split, its stalls and its traps
    /// at the failed node, the hash of the run's blame document, and how many
    /// pages and logged diffs recovery asked its peers for. Every node
    /// must end on the failure-free `digest`.
    fn crash_record(
        &mut self,
        app: App,
        protocol: Protocol,
        at: u64,
        digest: u64,
    ) -> Result<CrashRecord, String> {
        let label = format!("{}/{}/crash", app.name(), protocol.label());
        let spec = self
            .scale
            .spec(app, protocol)
            .with_crash(CrashPlan::new(1, at));
        let (out, _, blame_fp) = self.run(&label, app, spec, Some(digest))?;
        let total = out.recovery_time().expect("crash run completed recovery");
        let failed = out
            .nodes
            .iter()
            .find(|n| n.recovery_phases.is_some())
            .expect("crash run recorded its recovery phases");
        let p = failed.recovery_phases.expect("just found");
        let sent = out.total_stats().msgs_by_kind;
        Ok(CrashRecord {
            ns: total.as_nanos(),
            phases_ns: [p.compute.as_nanos(), p.wait.as_nanos(), p.disk.as_nanos()],
            blame_fp,
            requests: sent[kind("RecoveryPageRequest")] + sent[kind("LoggedDiffRequest")],
            stalls: failed.stats.recovery_stalls,
            traps: failed.stats.recovery_traps,
        })
    }
}

/// One Figure 5 crash run, as [`Matrix::crash_record`] keeps it.
struct CrashRecord {
    ns: u64,
    phases_ns: [u64; 3],
    blame_fp: u64,
    requests: u64,
    stalls: u64,
    traps: u64,
}

/// The wire tag [`ccl_core::kind_label`] names `label`.
fn kind(label: &str) -> usize {
    (0..ccl_core::MSG_KINDS)
        .find(|&k| ccl_core::kind_label(k) == label)
        .expect("known wire-tag label")
}

/// Run the full matrix at `scale`: every application under every
/// failure-free protocol, one crash of node 1 per [`CRASHED`] protocol,
/// the 3D-FFT page-size sweep and, at smoke scale, the [`chaos_cells`].
/// Every run's blame analysis is hard-checked for exactness
/// ([`checked_analysis`]) and every node of every run must end on the
/// failure-free digest (the bit-rot cells' nodes on one digest:
/// [`ChaosCell::reaches_fault_free`]); the first violation is the error.
pub fn collect(scale: Scale) -> Result<Report, String> {
    let mut matrix = Matrix {
        scale,
        blame: Json::obj(),
        phases: Json::obj(),
    };
    let mut apps = Vec::new();
    for app in App::ALL {
        let mut runs: Vec<RunRecord> = Vec::new();
        for p in Protocol::ALL {
            let digest = runs.first().map(|none| none.digest);
            let label = format!("{}/{}", app.name(), p.label());
            runs.push(matrix.record(&label, app, scale.spec(app, p), digest)?);
        }
        let none = &runs[0];
        let digest = Some(none.digest);
        let at = ccl_bench::crash_point(none.barriers_node1, CRASH_FRACTION);
        let [ml, ccl] = CRASHED.map(|p| matrix.crash_record(app, p, at, none.digest));
        let (ml, ccl) = (ml?, ccl?);
        let recovery = RecoveryRecord {
            crash_after_barriers: at,
            reexec_ns: (none.exec_ns as f64 * CRASH_FRACTION) as u64,
            ml_ns: ml.ns,
            ccl_ns: ccl.ns,
            ml_phases_ns: ml.phases_ns,
            ccl_phases_ns: ccl.phases_ns,
            blame_fp: [ml.blame_fp, ccl.blame_fp],
            ccl_requests: ccl.requests,
            ccl_stalls: ccl.stalls,
            ccl_traps: ccl.traps,
            ml_traps: ml.traps,
        };
        let mut page_sizes = Vec::new();
        if app == App::Fft3d {
            let base = scale.page_size();
            for page_size in [base / 4, base / 2, base * 2] {
                let [ml, ccl] = [Protocol::Ml, Protocol::Ccl].map(|p| {
                    let label = format!("{}/{}/{page_size}B", app.name(), p.label());
                    matrix.record(&label, app, scale.spec_at(app, p, page_size), digest)
                });
                page_sizes.push((page_size, [ml?, ccl?]));
            }
        }
        apps.push(AppReport {
            app,
            runs,
            recovery,
            page_sizes,
        });
    }
    let mut chaos = Vec::new();
    if scale == Scale::Smoke {
        for cell in chaos_cells(scale) {
            let app = apps.iter().find(|a| a.app == cell.app);
            let none = app.expect("every app ran").run(Protocol::None);
            let digest = cell.reaches_fault_free().then_some(none.digest);
            let run = matrix.record(&cell.label, cell.app, cell.spec, digest)?;
            chaos.push((cell.label, run));
        }
    }
    let mut blame = Json::obj();
    blame.set("schema", Json::Str(crate::blame::SCHEMA.to_string()));
    blame.set("scale", Json::Str(scale.label().to_string()));
    blame.set("runs", matrix.blame);
    let mut phases = Json::obj();
    phases.set("scale", Json::Str(scale.label().to_string()));
    phases.set("runs", matrix.phases);
    Ok(Report {
        scale,
        apps,
        chaos,
        blame,
        phases,
    })
}

fn hist_json(metrics: &NodeMetrics) -> Json {
    let mut hists = Json::obj();
    for (name, h) in metrics.iter() {
        let mut j = Json::obj();
        j.set("count", Json::from_u64(h.count()));
        j.set("sum", Json::from_u64(h.sum()));
        j.set("min", Json::from_u64(h.min()));
        j.set("max", Json::from_u64(h.max()));
        j.set("p50", Json::from_u64(h.quantile(0.5)));
        j.set("p99", Json::from_u64(h.quantile(0.99)));
        hists.set(name, j);
    }
    hists
}

fn run_json(r: &RunRecord) -> Json {
    let mut j = Json::obj();
    j.set("digest", Json::from_hex(r.digest));
    j.set("exec_ns", Json::from_u64(r.exec_ns));
    j.set("log_bytes", Json::from_u64(r.log_bytes));
    j.set("log_flushes", Json::from_u64(r.log_flushes));
    j.set("msgs_sent", Json::from_u64(r.msgs_sent));
    j.set("bytes_sent", Json::from_u64(r.bytes_sent));
    j.set("barriers_node1", Json::from_u64(r.barriers_node1));
    j.set("trace_events", Json::from_u64(r.trace_events));
    j.set("trace_dropped", Json::from_u64(r.trace_dropped));
    j.set("trace_fp", Json::from_hex(r.trace_fp));
    j.set("phases_fp", Json::from_hex(r.phases_fp));
    let b = &r.blame;
    let mut bj = Json::obj();
    bj.set("top_object", Json::Str(b.top_object.clone()));
    bj.set("cp_compute_ns", Json::from_u64(b.cp_compute_ns));
    bj.set("cp_recovery_ns", Json::from_u64(b.cp_recovery_ns));
    bj.set("cp_wait_page_ns", Json::from_u64(b.cp_wait_page_ns));
    bj.set("cp_wait_lock_ns", Json::from_u64(b.cp_wait_lock_ns));
    bj.set("cp_wait_barrier_ns", Json::from_u64(b.cp_wait_barrier_ns));
    bj.set("cp_wait_flush_ns", Json::from_u64(b.cp_wait_flush_ns));
    bj.set("log_page_bytes", Json::from_u64(b.log_page_bytes));
    bj.set("log_lock_bytes", Json::from_u64(b.log_lock_bytes));
    bj.set("log_barrier_bytes", Json::from_u64(b.log_barrier_bytes));
    bj.set("log_meta_bytes", Json::from_u64(b.log_meta_bytes));
    bj.set("unflushed_bytes", Json::from_u64(b.unflushed_bytes));
    j.set("blame", bj);
    j.set("blame_fp", Json::from_hex(r.blame_fp));
    let mut tr = Json::obj();
    for (k, &(msgs, bytes)) in r.traffic.iter().enumerate() {
        if msgs == 0 && bytes == 0 {
            continue;
        }
        let mut t = Json::obj();
        t.set("msgs", Json::from_u64(msgs));
        t.set("bytes", Json::from_u64(bytes));
        tr.set(ccl_core::kind_label(k), t);
    }
    j.set("traffic", tr);
    let mut pf = Json::obj();
    pf.set("issued", Json::from_u64(r.prefetch.issued));
    pf.set("hits", Json::from_u64(r.prefetch.hits));
    pf.set("wasted", Json::from_u64(r.prefetch.wasted));
    j.set("prefetch", pf);
    j.set("hist", hist_json(&r.metrics));
    j
}

/// Render the report as its JSON document. Object keys are semantic
/// (application names, protocol labels) so golden-diff paths like
/// `apps.Water.runs.ccl.exec_ns` stay stable as the matrix grows.
pub fn report_json(report: &Report) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(SCHEMA.to_string()));
    doc.set("scale", Json::Str(report.scale.label().to_string()));
    doc.set("nodes", Json::from_u64(report.scale.nodes() as u64));
    doc.set("crash_fraction", Json::Num(CRASH_FRACTION));
    let mut apps = Json::obj();
    for a in &report.apps {
        let mut runs = Json::obj();
        for r in &a.runs {
            runs.set(r.protocol.label(), run_json(r));
        }
        let r = &a.recovery;
        let mut rec = Json::obj();
        let crash_after = Json::from_u64(r.crash_after_barriers);
        rec.set("crash_after_barriers", crash_after);
        rec.set("reexec_ns", Json::from_u64(r.reexec_ns));
        rec.set("ml_ns", Json::from_u64(r.ml_ns));
        rec.set("ccl_ns", Json::from_u64(r.ccl_ns));
        for (p, [compute, wait, disk]) in [("ccl", r.ccl_phases_ns), ("ml", r.ml_phases_ns)] {
            rec.set(&format!("{p}_compute_ns"), Json::from_u64(compute));
            rec.set(&format!("{p}_wait_ns"), Json::from_u64(wait));
            rec.set(&format!("{p}_disk_ns"), Json::from_u64(disk));
        }
        rec.set("ccl_requests", Json::from_u64(r.ccl_requests));
        rec.set("ccl_stalls", Json::from_u64(r.ccl_stalls));
        rec.set("ccl_traps", Json::from_u64(r.ccl_traps));
        rec.set("ml_traps", Json::from_u64(r.ml_traps));
        let mut fps = Json::obj();
        for (p, fp) in CRASHED.iter().zip(r.blame_fp) {
            fps.set(p.label(), Json::from_hex(fp));
        }
        rec.set("blame_fp", fps);
        let mut entry = Json::obj();
        entry.set("runs", runs);
        entry.set("recovery", rec);
        if !a.page_sizes.is_empty() {
            let mut sizes = Json::obj();
            for (page_size, [ml, ccl]) in &a.page_sizes {
                let mut runs = Json::obj();
                runs.set("ml", run_json(ml)).set("ccl", run_json(ccl));
                sizes.set(&page_size.to_string(), runs);
            }
            entry.set("page_sizes", sizes);
        }
        apps.set(a.app.name(), entry);
    }
    doc.set("apps", apps);
    if !report.chaos.is_empty() {
        let mut chaos = Json::obj();
        for (label, run) in &report.chaos {
            chaos.set(label, run_json(run));
        }
        doc.set("chaos", chaos);
    }
    doc
}

// ---------------------------------------------------------------------------
// Markdown renderers
// ---------------------------------------------------------------------------

/// Paper Figure 4 values (normalized execution time, None = 100).
fn paper_fig4(app: App) -> (f64, f64) {
    // (ML, CCL)
    match app {
        App::Fft3d => (124.0, 106.0),
        App::Mg => (118.0, 102.0),
        App::Shallow => (114.0, 102.0),
        App::Water => (109.0, 101.0),
    }
}

/// Paper Figure 5 values (normalized recovery time, re-execution = 100).
fn paper_fig5(app: App) -> (f64, f64) {
    // (ML-recovery, CCL recovery)
    match app {
        App::Fft3d => (34.0, 16.0),
        App::Mg => (42.0, 27.0),
        App::Shallow => (57.0, 45.0),
        App::Water => (43.0, 38.0),
    }
}

fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

fn protocol_display(p: Protocol) -> &'static str {
    match p {
        Protocol::None => "None",
        Protocol::Ml => "ML",
        Protocol::Ccl => "CCL",
    }
}

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// The Table 1 Markdown table: each application's paper-scale data
/// set and synchronization type, with the barrier and lock-acquire
/// counts measured in the failure-free None run (per node and
/// cluster-wide respectively).
pub fn table1_markdown(report: &Report) -> String {
    let mut s = String::new();
    s.push_str(
        "| Program | Data set (harness scale) | Synchronization | Barriers | Lock acquires |\n",
    );
    s.push_str("|---|---|---|---|---|\n");
    for a in &report.apps {
        let none = a.run(Protocol::None);
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            a.app.name(),
            a.app.data_set(),
            a.app.sync_kind(),
            none.barriers_node1,
            none.metrics.lock_wait_ns.count(),
        ));
    }
    s
}

/// The Table 2 Markdown table (all apps, Table 2 columns).
pub fn table2_markdown(report: &Report) -> String {
    let mut s = "| App | Protocol | Exec (s) | Mean log (KB) | Total log (MB) | Flushes |\n\
                 |---|---|---|---|---|---|\n"
        .to_string();
    for a in &report.apps {
        for p in Protocol::ALL {
            let r = a.run(p);
            let mean = match r.log_flushes {
                0 => "—".to_string(),
                n => format!("{:.1}", r.log_bytes as f64 / n as f64 / 1024.0),
            };
            let total = match r.log_bytes {
                0 => "0".to_string(),
                bytes => mb(bytes),
            };
            let (name, exec, flushes) = (a.app.name(), secs(r.exec_ns), r.log_flushes);
            let p_name = protocol_display(p);
            s += &format!("| {name} | {p_name} | {exec} | {mean} | {total} | {flushes} |\n");
        }
    }
    s
}

/// The Figure 4 Markdown table (normalized execution, paper columns).
pub fn fig4_markdown(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("| App | None | ML | CCL | Paper ML | Paper CCL |\n");
    s.push_str("|---|---|---|---|---|---|\n");
    for a in &report.apps {
        let base = a.run(Protocol::None).exec_ns as f64;
        let norm = |p| 100.0 * a.run(p).exec_ns as f64 / base;
        let (pml, pccl) = paper_fig4(a.app);
        s.push_str(&format!(
            "| {} | 100 | {:.1} | {:.1} | {:.0} | ~{:.0} |\n",
            a.app.name(),
            norm(Protocol::Ml),
            norm(Protocol::Ccl),
            pml,
            pccl,
        ));
    }
    s
}

/// The Figure 5 Markdown table (normalized recovery, paper columns),
/// plus where each recovery window went at the failed node (ML's
/// compute and disk, CCL's compute, wait and disk), how many of CCL's
/// fetch waves it blocked on and how many traps it took.
pub fn fig5_markdown(report: &Report) -> String {
    let mut s = String::new();
    s.push_str(
        "| App | Re-execution | ML-recovery | CCL recovery | Paper ML | Paper CCL \
         | ML compute (ms) | ML disk (ms) | CCL compute (ms) | CCL wait (ms) | CCL disk (ms) \
         | CCL stalls | CCL traps |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for a in &report.apps {
        let base = a.recovery.reexec_ns as f64;
        let (pml, pccl) = paper_fig5(a.app);
        let ms = |ns: u64| ns as f64 / 1e6;
        let [ml_compute, _, ml_disk] = a.recovery.ml_phases_ns.map(ms);
        let [compute, wait, disk] = a.recovery.ccl_phases_ns.map(ms);
        s.push_str(&format!(
            "| {} | 100 | {:.1} | {:.1} | {:.0} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} \
             | {} | {} |\n",
            a.app.name(),
            100.0 * a.recovery.ml_ns as f64 / base,
            100.0 * a.recovery.ccl_ns as f64 / base,
            pml,
            pccl,
            ml_compute,
            ml_disk,
            compute,
            wait,
            disk,
            a.recovery.ccl_stalls,
            a.recovery.ccl_traps,
        ));
    }
    s
}

/// The blame Markdown tables: where each run's makespan went (blame
/// path, percent of exec time) with the top blamed object, and the
/// per-object-class log-byte split per protocol.
pub fn blame_markdown(report: &Report) -> String {
    let mut s = String::new();
    s.push_str(
        "| App | Protocol | Top blamed object | Compute | Page wait | Lock wait \
         | Barrier wait | Flush-ack wait | Log: page / sync / meta (KB) |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for a in &report.apps {
        for r in Protocol::ALL.map(|p| a.run(p)) {
            let b = &r.blame;
            let pct = |ns: u64| format!("{:.1}%", 100.0 * ns as f64 / r.exec_ns as f64);
            let kb = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
            let log = if r.log_bytes == 0 {
                "—".to_string()
            } else {
                format!(
                    "{} / {} / {}",
                    kb(b.log_page_bytes),
                    kb(b.log_lock_bytes + b.log_barrier_bytes),
                    kb(b.log_meta_bytes),
                )
            };
            s.push_str(&format!(
                "| {} | {} | `{}` | {} | {} | {} | {} | {} | {} |\n",
                a.app.name(),
                protocol_display(r.protocol),
                b.top_object,
                pct(b.cp_compute_ns + b.cp_recovery_ns),
                pct(b.cp_wait_page_ns),
                pct(b.cp_wait_lock_ns),
                pct(b.cp_wait_barrier_ns),
                pct(b.cp_wait_flush_ns),
                log,
            ));
        }
    }
    s
}

/// The per-variant traffic Markdown table: how the fetch path's replies
/// split between demand pages and trailing batches of predicted copies,
/// how those copies fared, and each run's total message volume.
pub fn traffic_markdown(report: &Report) -> String {
    let single = kind("PageReply");
    let batch = kind("PageReplyBatch");
    let mut s = String::new();
    s.push_str(
        "| App | Protocol | Single fetches | Batched fetches | Pages/batch | \
         Prefetch issued / hit / wasted | Msgs | Sent (MB) |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|\n");
    for a in &report.apps {
        for r in Protocol::ALL.map(|p| a.run(p)) {
            let batches = r.traffic[batch].0;
            let per_batch = if batches == 0 {
                "—".to_string()
            } else {
                // Every batch carries its demand page; the extras are
                // exactly the issued prefetches.
                format!(
                    "{:.2}",
                    (batches + r.prefetch.issued) as f64 / batches as f64
                )
            };
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} / {} / {} | {} | {:.2} |\n",
                a.app.name(),
                protocol_display(r.protocol),
                r.traffic[single].0,
                batches,
                per_batch,
                r.prefetch.issued,
                r.prefetch.hits,
                r.prefetch.wasted,
                r.msgs_sent,
                r.bytes_sent as f64 / (1024.0 * 1024.0),
            ));
        }
    }
    s
}

/// The ablation Markdown table (A3): the swept application's log size
/// at each page size.
pub fn ablation_markdown(report: &Report) -> String {
    let mut s =
        "| App | Page size (B) | ML log (MB) | CCL log (MB) | CCL/ML |\n|---|---|---|---|---|\n"
            .to_string();
    for a in report.apps.iter().filter(|a| !a.page_sizes.is_empty()) {
        let mut rows = a.page_sizes.clone();
        let base = [Protocol::Ml, Protocol::Ccl].map(|p| a.run(p).clone());
        rows.push((report.scale.page_size(), base));
        rows.sort_by_key(|row| row.0);
        let name = a.app.name();
        for (page_size, [ml, ccl]) in rows {
            let ratio = 100.0 * ccl.log_bytes as f64 / ml.log_bytes as f64;
            let (ml, ccl) = (mb(ml.log_bytes), mb(ccl.log_bytes));
            s += &format!("| {name} | {page_size} | {ml} | {ccl} | {ratio:.2}% |\n");
        }
    }
    s
}

/// Replace the block between `<!-- report:{name} -->` and
/// `<!-- /report:{name} -->` in `doc` with `replacement`, keeping the
/// markers. Errors if the markers are missing or out of order.
pub fn splice(doc: &str, name: &str, replacement: &str) -> Result<String, String> {
    let begin = format!("<!-- report:{name} -->");
    let end = format!("<!-- /report:{name} -->");
    let b = doc
        .find(&begin)
        .ok_or_else(|| format!("marker {begin} not found"))?;
    let e = doc
        .find(&end)
        .ok_or_else(|| format!("marker {end} not found"))?;
    if e < b {
        return Err(format!("marker {end} precedes {begin}"));
    }
    let mut out = String::with_capacity(doc.len() + replacement.len());
    out.push_str(&doc[..b + begin.len()]);
    out.push('\n');
    out.push_str(replacement.trim_end());
    out.push('\n');
    out.push_str(&doc[e..]);
    Ok(out)
}

/// Splice every report table into `doc` (the text of `EXPERIMENTS.md`)
/// between its `<!-- report:* -->` markers. Returns the new text and
/// the names of the blocks that changed: empty means the document
/// already shows exactly what `report` measured. Errors if a marker is
/// missing, or if `doc` has a `<!-- report:NAME -->` block no table
/// renders: nothing would ever check it.
pub fn splice_tables(doc: &str, report: &Report) -> Result<(String, Vec<&'static str>), String> {
    let tables = [
        ("table1", table1_markdown(report)),
        ("table2", table2_markdown(report)),
        ("fig4", fig4_markdown(report)),
        ("fig5", fig5_markdown(report)),
        ("blame", blame_markdown(report)),
        ("traffic", traffic_markdown(report)),
        ("ablation", ablation_markdown(report)),
    ];
    let orphan = doc
        .split("<!-- report:")
        .skip(1)
        .filter_map(|rest| Some(rest.split_once(" -->")?.0))
        .filter(|name| name.chars().all(|c| c.is_ascii_alphanumeric()))
        .find(|name| tables.iter().all(|(known, _)| known != name));
    if let Some(name) = orphan {
        return Err(format!(
            "marker <!-- report:{name} --> names no report table"
        ));
    }
    let mut text = doc.to_string();
    let mut changed = Vec::new();
    for (name, table) in tables {
        let spliced = splice(&text, name, &table)?;
        if spliced != text {
            changed.push(name);
            text = spliced;
        }
    }
    Ok((text, changed))
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// Compare `current` against the committed `golden`, exactly: every
/// number, string and key. Returns one human-readable violation per
/// differing field, in the golden's document order and prefixed with
/// the field's dotted path (`apps.Water.runs.ccl.exec_ns: ...`); empty
/// means the documents agree.
pub fn compare(current: &Json, golden: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    walk(current, golden, "", &mut violations);
    violations
}

fn walk(current: &Json, golden: &Json, path: &str, violations: &mut Vec<String>) {
    let child = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (current, golden) {
        (Json::Obj(cur), Json::Obj(gold)) => {
            for (k, gv) in gold {
                match current.get(k) {
                    Some(cv) => walk(cv, gv, &child(k), violations),
                    None => violations.push(format!("{}: missing from current report", child(k))),
                }
            }
            for (k, _) in cur {
                if golden.get(k).is_none() {
                    violations.push(format!("{}: not present in the golden", child(k)));
                }
            }
        }
        (c, g) if c != g => {
            violations.push(format!("{path}: {} vs golden {}", brief(c), brief(g)));
        }
        _ => {}
    }
}

fn brief(j: &Json) -> String {
    match j {
        Json::Str(s) => format!("{s:?}"),
        other => {
            let mut s = other.pretty().trim_end().to_string();
            s.truncate(40);
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> Report {
        let run = |protocol, exec_ns, log_bytes, log_flushes| RunRecord {
            protocol,
            digest: 0xdead_beef_dead_beef,
            exec_ns,
            log_bytes,
            log_flushes,
            msgs_sent: 100,
            bytes_sent: 5000,
            barriers_node1: 8,
            trace_events: 40,
            trace_dropped: 0,
            trace_fp: 0x1234_5678_9abc_def0,
            phases_fp: 0x0123_4567_89ab_cdef,
            metrics: NodeMetrics::default(),
            blame: BlameSummary {
                top_object: "barrier:3".to_string(),
                cp_compute_ns: exec_ns / 2,
                cp_wait_barrier_ns: exec_ns / 2,
                log_page_bytes: log_bytes,
                ..BlameSummary::default()
            },
            blame_fp: 0x0fed_cba9_8765_4321,
            traffic: {
                let mut t = vec![(0u64, 0u64); ccl_core::MSG_KINDS];
                t[kind("PageReply")] = (40, 40 * 4096);
                t[kind("PageReplyBatch")] = (10, 12 * 4096);
                t
            },
            prefetch: crate::blame::PrefetchSummary {
                issued: 20,
                hits: 15,
                wasted: 3,
            },
        };
        let mut apps: Vec<AppReport> = App::ALL
            .iter()
            .map(|&app| AppReport {
                app,
                runs: vec![
                    run(Protocol::None, 1_000_000, 0, 0),
                    run(Protocol::Ml, 1_200_000, 90_000, 30),
                    run(Protocol::Ccl, 1_050_000, 9_000, 20),
                ],
                recovery: RecoveryRecord {
                    crash_after_barriers: 6,
                    reexec_ns: 750_000,
                    ml_ns: 500_000,
                    ccl_ns: 400_000,
                    ml_phases_ns: [400_000, 20_000, 80_000],
                    ccl_phases_ns: [300_000, 90_000, 10_000],
                    blame_fp: [0x1111, 0x2222],
                    ccl_requests: 40,
                    ccl_stalls: 3,
                    ccl_traps: 1,
                    ml_traps: 12,
                },
                page_sizes: Vec::new(),
            })
            .collect();
        let swept = [Protocol::Ml, Protocol::Ccl].map(|p| run(p, 1, 512, 1));
        apps[0].page_sizes.push((512, swept)); // 3D-FFT
        Report {
            scale: Scale::Smoke,
            apps,
            chaos: Vec::new(),
            blame: Json::obj(),
            phases: Json::obj(),
        }
    }

    fn committed(scale: Scale) -> Json {
        scale.load_golden().expect("committed golden")
    }

    fn member<'a>(j: &'a Json, path: &[&str]) -> &'a Json {
        path.iter()
            .try_fold(j, |j, k| j.get(k))
            .unwrap_or_else(|| panic!("nothing at {}", path.join(".")))
    }

    fn num(j: &Json, path: &[&str]) -> f64 {
        member(j, path)
            .as_f64()
            .unwrap_or_else(|| panic!("no number at {}", path.join(".")))
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let doc = report_json(&fake_report());
        assert_eq!(compare(&doc, &doc), Vec::<String>::new());
    }

    /// Every field compares exactly — a one-byte log drift and a 2 ns
    /// recovery drift are both violations — and violations come in
    /// document order, so the first one names the first differing path.
    #[test]
    fn exact_field_drift_is_a_violation_naming_its_path() {
        let doc = report_json(&fake_report());
        let mut drifted = fake_report();
        drifted.apps[0].runs[2].log_bytes += 1;
        drifted.apps[3].recovery.ml_ns += 2;
        let violations = compare(&doc, &report_json(&drifted));
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations[0].starts_with("apps.3D-FFT.runs.ccl.log_bytes: 9000 vs golden 9001"),
            "{violations:?}"
        );
        assert!(
            violations[1].starts_with("apps.Water.recovery.ml_ns"),
            "{violations:?}"
        );
    }

    #[test]
    fn missing_and_extra_fields_are_violations() {
        let doc = report_json(&fake_report());
        let mut golden = doc.clone();
        golden.set("extra_golden_field", Json::Num(1.0));
        assert_eq!(
            compare(&doc, &golden),
            ["extra_golden_field: missing from current report"]
        );
        assert_eq!(
            compare(&golden, &doc),
            ["extra_golden_field: not present in the golden"]
        );
    }

    #[test]
    fn markdown_tables_have_one_row_per_cell() {
        let report = fake_report();
        let t1 = table1_markdown(&report);
        assert_eq!(t1.lines().count(), 2 + 4);
        assert!(t1.contains("| Water | 512 molecules, 4 timesteps | locks and barriers | 8 | 0 |"));
        let t2 = table2_markdown(&report);
        assert_eq!(t2.lines().count(), 2 + 4 * 3);
        assert!(t2.contains("| 3D-FFT | CCL |"));
        let f4 = fig4_markdown(&report);
        assert_eq!(f4.lines().count(), 2 + 4);
        assert!(f4.contains("| 3D-FFT | 100 | 120.0 | 105.0 | 124 | ~106 |"));
        let f5 = fig5_markdown(&report);
        assert!(f5.contains(
            "| Water | 100 | 66.7 | 53.3 | 43 | 38 | 0.4 | 0.1 | 0.3 | 0.1 | 0.0 | 3 | 1 |"
        ));
        let bl = blame_markdown(&report);
        assert_eq!(bl.lines().count(), 2 + 4 * 3);
        assert!(
            bl.contains("| 3D-FFT | ML | `barrier:3` | 50.0% | 0.0% | 0.0% | 50.0% | 0.0% |"),
            "{bl}"
        );
        // A protocol with no log shows no log split.
        assert!(
            bl.contains("| 3D-FFT | None | `barrier:3` | 50.0% | 0.0% | 0.0% | 50.0% | 0.0% | — |")
        );
        let tr = traffic_markdown(&report);
        assert_eq!(tr.lines().count(), 2 + 4 * 3);
        // 10 batches carrying 10 demand pages + 20 prefetched extras.
        assert!(
            tr.contains("| 40 | 10 | 3.00 | 20 / 15 / 3 | 100 |"),
            "{tr}"
        );
        // One A3 row per page size, the unswept one included.
        let ab = ablation_markdown(&report);
        assert_eq!(ab.lines().count(), 2 + 2, "{ab}");
        assert!(ab.contains("| 3D-FFT | 256 | 0.09 | 0.01 | 10.00% |"));
    }

    #[test]
    fn report_json_carries_the_blame_summary() {
        let doc = report_json(&fake_report());
        let ml = member(&doc, &["apps", "Water", "runs", "ml"]);
        assert_eq!(
            member(ml, &["blame", "top_object"]).as_str(),
            Some("barrier:3")
        );
        assert_eq!(num(ml, &["blame", "cp_wait_barrier_ns"]), 600_000.0);
        assert_eq!(num(ml, &["blame", "log_page_bytes"]), 90_000.0);
        assert_eq!(
            ml.get("blame_fp"),
            Some(&Json::from_hex(0x0fed_cba9_8765_4321))
        );
        let crash_fps = member(&doc, &["apps", "Water", "recovery", "blame_fp"]);
        for (p, fp) in [("ml", 0x1111), ("ccl", 0x2222)] {
            assert_eq!(crash_fps.get(p), Some(&Json::from_hex(fp)), "{p}");
        }
    }

    /// A crash run any of whose nodes ended on another digest than the
    /// failure-free run's is an error naming the run and the node.
    #[test]
    fn a_diverged_run_is_reported_by_name() {
        assert_eq!(check_digests("3D-FFT/ccl/crash", 7, [7, 7, 7]), Ok(()));
        assert_eq!(check_digests("3D-FFT/ccl/crash", 7, []), Ok(()));
        let err = check_digests("3D-FFT/ml/crash", 7, [7, 9, 8]);
        assert_eq!(
            err.unwrap_err(),
            "3D-FFT/ml/crash: node 1 ended on 0x9, not on 0x7"
        );
    }

    /// The paper's headline, gated on the committed paper-scale report:
    /// CCL recovery < ML recovery < re-execution on all four apps. Each
    /// window's compute, wait and disk sum to it.
    #[test]
    fn committed_report_keeps_the_figure_5_ordering() {
        let doc = committed(Scale::Paper);
        for app in App::ALL {
            let name = app.name();
            let ns = |key: &str| num(&doc, &["apps", name, "recovery", key]);
            let (reexec, ml, ccl) = (ns("reexec_ns"), ns("ml_ns"), ns("ccl_ns"));
            assert!(ml < reexec, "{name}: ML {ml} !< re-execution {reexec}");
            assert!(ccl < ml, "{name}: CCL {ccl} !< ML {ml}");
            for (p, total) in [("ml", ml), ("ccl", ccl)] {
                let phase = |k: &str| ns(&format!("{p}_{k}_ns"));
                let parts = phase("compute") + phase("wait") + phase("disk");
                assert_eq!(parts, total, "{name}: {p} recovery phases leak");
            }
        }
    }

    /// Recovery restores what the victim touched, not what it was
    /// shipped: the requests CCL recovery sends on the committed reports
    /// stay at or below what they were when every predicted copy ever
    /// served counted as held (paper scale 4 902 / 518 / 630 / 103,
    /// smoke 144 / 94 / 102 / 53) — and 3D-FFT's, 92 % of whose
    /// predictions are never read, under 1 500. A change that lets
    /// speculation back into the copysets fails here.
    #[test]
    fn committed_recovery_asks_only_for_what_the_victim_touched() {
        let at_most = [
            (Scale::Paper, [1500.0, 518.0, 630.0, 103.0]),
            (Scale::Smoke, [144.0, 94.0, 102.0, 53.0]),
        ];
        for (scale, at_most) in at_most {
            let doc = committed(scale);
            for (app, at_most) in App::ALL.into_iter().zip(at_most) {
                let asked = num(&doc, &["apps", app.name(), "recovery", "ccl_requests"]);
                assert!(
                    0.0 < asked && asked <= at_most,
                    "{}/{}: {asked} recovery requests, at most {at_most} allowed",
                    scale.label(),
                    app.name()
                );
            }
        }
    }

    /// Replay traps only where neither its log nor the barrier
    /// manager's history tells it a write is coming, gated on the
    /// committed paper report: at most the one home write that comes
    /// before the manager's hello reply is in, plus each silent remote
    /// write (an empty diff, in no log record) — none on 3D-FFT, MG and
    /// Shallow, which write no remote page, two on Water. Before the
    /// manager's list the victim trapped on its home pages in every
    /// replayed interval: 832 / 675 / 2 032 / 14 traps.
    #[test]
    fn committed_report_keeps_replay_trap_free() {
        let doc = committed(Scale::Paper);
        let silent = [0.0, 0.0, 0.0, 2.0];
        for (app, silent) in App::ALL.into_iter().zip(silent) {
            let traps = num(&doc, &["apps", app.name(), "recovery", "ccl_traps"]);
            assert!(
                traps <= 1.0 + silent,
                "{}: CCL replay trapped {traps} times",
                app.name()
            );
        }
    }

    /// Figure 4's shape on the committed paper report: logging costs
    /// something and CCL costs less than ML (None < CCL < ML) on all
    /// four applications — and, the fact the served-image log
    /// establishes, an application whose CCL run creates no diff pays
    /// CCL at most 0.5 % of its execution time: such a run logs a few
    /// bytes of notices per interval and does nothing else (a home
    /// write is neither twinned nor diffed). The distance to the paper's
    /// 101–106 band is printed, not gated: these applications write
    /// only home pages, so they undershoot it for the same reason Table
    /// 2's log ratio does.
    #[test]
    fn committed_report_keeps_the_figure_4_ordering() {
        let doc = committed(Scale::Paper);
        for app in App::ALL {
            let run = |p: &str, key: &[&str]| {
                let mut path = vec!["apps", app.name(), "runs", p];
                path.extend_from_slice(key);
                num(&doc, &path)
            };
            let exec = |p: &str| run(p, &["exec_ns"]);
            let (none, ml, ccl) = (exec("none"), exec("ml"), exec("ccl"));
            assert!(none < ccl, "{}: None {none} !< CCL {ccl}", app.name());
            assert!(ccl < ml, "{}: CCL {ccl} !< ML {ml}", app.name());
            let overhead = 100.0 * (ccl - none) / none;
            if run("ccl", &["hist", "diff_bytes", "count"]) == 0.0 {
                assert!(
                    overhead <= 0.5,
                    "{}: CCL costs {overhead:.3} % without creating a diff",
                    app.name()
                );
            }
            let (_, paper) = paper_fig4(app);
            println!(
                "{}: CCL at {:.2} (paper ~{paper:.0}, band 101-106; not gated)",
                app.name(),
                100.0 + overhead
            );
        }
    }

    /// What every run record of a committed golden must show: no
    /// truncated trace, ordered histograms, blame summaries that are
    /// exact partitions of the run's time and log, and both fingerprints.
    fn check_run_shape(at: &str, r: &Json) {
        assert_eq!(num(r, &["trace_dropped"]), 0.0, "{at}: truncated trace");
        for (metric, h) in r.get("hist").and_then(Json::as_obj).expect("hist") {
            let q = |k| num(h, &[k]);
            assert!(
                q("min") <= q("p50") && q("p50") <= q("p99") && q("p99") <= q("max"),
                "{at}: {metric} quantiles out of order"
            );
        }
        let blame = |k| num(r, &["blame", k]);
        let path = blame("cp_compute_ns")
            + blame("cp_recovery_ns")
            + blame("cp_wait_page_ns")
            + blame("cp_wait_lock_ns")
            + blame("cp_wait_barrier_ns")
            + blame("cp_wait_flush_ns");
        assert_eq!(path, num(r, &["exec_ns"]), "{at}: blame path leaks time");
        let logged = blame("log_page_bytes")
            + blame("log_lock_bytes")
            + blame("log_barrier_bytes")
            + blame("log_meta_bytes");
        assert_eq!(
            logged,
            num(r, &["log_bytes"]),
            "{at}: log split leaks bytes"
        );
        for fp in ["blame_fp", "phases_fp"] {
            assert!(r.get(fp).and_then(Json::as_str).is_some(), "{at}: {fp}");
        }
    }

    /// The structural facts the paper's argument rests on, checked on
    /// both committed goldens: the full matrix is there, protocols and
    /// page sizes agree on every digest, None logs nothing, CCL logs
    /// less than ML, every run record has the shape [`check_run_shape`]
    /// asks for, and every recovery happened. The smoke golden also holds
    /// exactly the
    /// [`chaos_cells`], each ending on its application's failure-free
    /// digest unless it rotted bits; the paper golden holds none.
    #[test]
    fn committed_goldens_keep_their_shape() {
        for scale in [Scale::Smoke, Scale::Paper] {
            let doc = committed(scale);
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
            assert_eq!(doc.get("scale").and_then(Json::as_str), Some(scale.label()));
            let apps = doc.get("apps").and_then(Json::as_obj).expect("apps");
            let names: Vec<&str> = apps.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, App::ALL.map(App::name), "{}", scale.label());
            let none_digest = |app: &str| member(&doc, &["apps", app, "runs", "none", "digest"]);
            for (name, app) in apps {
                let at = format!("{}/{name}", scale.label());
                let runs = app.get("runs").and_then(Json::as_obj).expect("runs");
                let protocols = runs.iter().map(|(k, _)| k.as_str());
                assert!(protocols.eq(Protocol::ALL.map(Protocol::label)), "{at}");
                let run = |p| member(app, &["runs", p]);
                let sizes = app.get("page_sizes").and_then(Json::as_obj);
                let swept = sizes.unwrap_or_default().iter();
                let swept = swept.flat_map(|(_, r)| r.as_obj().expect("cells"));
                for (p, r) in runs.iter().chain(swept) {
                    let at = format!("{at}/{p}");
                    assert_eq!(r.get("digest"), Some(none_digest(name)), "{at}: digest");
                    check_run_shape(&at, r);
                }
                let log = |p| num(run(p), &["log_bytes"]);
                assert_eq!(log("none"), 0.0, "{at}: None logged bytes");
                assert!(0.0 < log("ccl") && log("ccl") < log("ml"), "{at}: CCL log");
                let rec = app.get("recovery").expect("recovery");
                for key in ["ml_ns", "ccl_ns"] {
                    assert!(num(rec, &[key]) > 0.0, "{at}: recovery.{key}");
                }
                for p in CRASHED.map(Protocol::label) {
                    let fp = member(rec, &["blame_fp", p]);
                    assert!(fp.as_str().is_some(), "{at}: crash blame_fp.{p}");
                }
            }
            let chaos = doc.get("chaos").and_then(Json::as_obj);
            if scale == Scale::Paper {
                assert!(chaos.is_none(), "the paper golden holds no chaos cells");
                continue;
            }
            let chaos = chaos.expect("the smoke golden holds the chaos cells");
            let cells = chaos_cells(scale);
            let labels = chaos.iter().map(|(label, _)| label);
            assert!(labels.eq(cells.iter().map(|c| &c.label)), "chaos labels");
            let rotted = cells.iter().filter(|c| !c.reaches_fault_free());
            assert_eq!((cells.len(), rotted.count()), (42, 8));
            for (cell, (_, r)) in cells.iter().zip(chaos) {
                let at = format!("smoke/chaos/{}", cell.label);
                check_run_shape(&at, r);
                if cell.reaches_fault_free() {
                    let want = Some(none_digest(cell.app.name()));
                    assert_eq!(r.get("digest"), want, "{at}: digest");
                }
            }
        }
    }

    /// Ablation A3, gated on the committed paper report: ML's log never
    /// shrinks as the page grows (it logs whole fetched pages) while
    /// CCL's stays within 1 % of it at every size. It holds at paper
    /// scale only: at smoke scale ML's log falls from 75 792 to 63 412 B
    /// between 64 B and 128 B pages.
    #[test]
    fn committed_report_keeps_the_page_size_ordering() {
        let doc = committed(Scale::Paper);
        let fft = member(&doc, &["apps", "3D-FFT"]);
        let logs = |runs: &Json| ["ml", "ccl"].map(|p| num(runs, &[p, "log_bytes"]));
        let mut sizes = vec![(Scale::Paper.page_size(), logs(member(fft, &["runs"])))];
        for (size, runs) in member(fft, &["page_sizes"]).as_obj().expect("page sizes") {
            sizes.push((size.parse().expect("page size"), logs(runs)));
        }
        sizes.sort_by_key(|&(size, _)| size);
        assert_eq!(sizes.len(), 4);
        for &(size, [ml, ccl]) in &sizes {
            assert!(ccl <= 0.01 * ml, "{size} B pages: CCL {ccl} B, ML {ml} B");
        }
        let grows = sizes.windows(2).all(|w| w[0].1[0] <= w[1].1[0]);
        assert!(grows, "ML's log shrank as the page grew: {sizes:?}");
    }

    /// Before the batched-prefetch path (DESIGN.md §15) 3D-FFT — the
    /// most remote-data-bound application — spent 58.3 % (None) and
    /// 56.8 % (CCL) of its blame path waiting on page fetches. A
    /// predictor or batching regression pushes the committed share back
    /// toward those stop-and-wait levels and fails here.
    #[test]
    fn committed_fft_page_wait_share_stays_below_its_pre_prefetch_level() {
        let doc = committed(Scale::Paper);
        for (protocol, before) in [("none", 0.583), ("ccl", 0.568)] {
            let run = member(&doc, &["apps", "3D-FFT", "runs", protocol]);
            let share = num(run, &["blame", "cp_wait_page_ns"]) / num(run, &["exec_ns"]);
            assert!(
                share < before,
                "3D-FFT/{protocol}: page-wait share {share:.3} not below {before}"
            );
        }
    }

    /// ML predicts like every other protocol and logs a predicted copy
    /// at its first touch, as the reply it arrived in: exactly where a
    /// non-predicting ML logged the demand reply for the same read. So
    /// on the committed paper report its log is byte for byte what it
    /// was when ML fetched one page per round trip (3D-FFT 40 739 312 B,
    /// MG 7 544 224, Shallow 8 776 000, Water 1 946 828 less what its
    /// logged coherence messages shed when diffs took word-granular run
    /// headers, interval ids became varints and notice lists began to
    /// name a repeated page set once), and its predictions were used. A change that logs
    /// copies as they are installed, or logs a hit twice, moves a log
    /// here.
    #[test]
    fn committed_report_ml_logs_what_it_reads() {
        let doc = committed(Scale::Paper);
        // Each of Water's `DiffFlush` messages is logged once, at its
        // home, and each `LockGrant` at its acquirer: the log shrank by
        // what that traffic did. Each `BarrierRelease` is logged at all
        // 8 nodes but sent to 7 (the manager logs its own unsent).
        let water_flush_shrink = 361_096.0 - 286_519.0;
        let water_grant_shrink = 10_512.0 - 9_896.0;
        let water_release_shrink = (14_609.0 - 13_489.0) / 7.0 * 8.0;
        let before = [
            40_739_312.0,
            7_544_224.0,
            8_776_000.0,
            1_946_828.0 - water_flush_shrink - water_grant_shrink - water_release_shrink,
        ];
        for (app, before) in App::ALL.into_iter().zip(before) {
            let ml = member(&doc, &["apps", app.name(), "runs", "ml"]);
            assert_eq!(num(ml, &["log_bytes"]), before, "{}: ML log", app.name());
            let hits = num(ml, &["prefetch", "hits"]);
            assert!(hits > 0.0, "{}: ML used no prediction", app.name());
        }
    }

    /// `report` fails on table drift instead of rewriting: a document
    /// whose tables were spliced from this report is clean, one doctored
    /// number is reported under its table's name, and a marked block no
    /// table renders is an error naming it.
    #[test]
    fn doctored_experiments_table_is_reported_as_drift() {
        let mut doc = "The `<!-- report:* -->` markers below.\n".to_string();
        let names = "table1 table2 fig4 fig5 blame traffic ablation";
        for name in names.split(' ') {
            doc += &format!("<!-- report:{name} -->\n<!-- /report:{name} -->\nprose\n");
        }
        let report = fake_report();
        let (spliced, changed) = splice_tables(&doc, &report).unwrap();
        assert_eq!(changed.len(), 7);
        assert_eq!(
            splice_tables(&spliced, &report).unwrap(),
            (spliced.clone(), vec![])
        );
        let doctored = spliced.replace("| 120.0 | 105.0 |", "| 124.0 | 105.0 |");
        assert_ne!(doctored, spliced);
        let (restored, changed) = splice_tables(&doctored, &report).unwrap();
        assert_eq!(changed, ["fig4"]);
        assert_eq!(restored, spliced);
        assert!(splice_tables("no markers", &report).is_err());
        let orphan = format!("{spliced}<!-- report:gone -->\n| stale |\n<!-- /report:gone -->\n");
        assert_eq!(
            splice_tables(&orphan, &report).unwrap_err(),
            "marker <!-- report:gone --> names no report table"
        );
    }

    /// The golden `phases_fp` is the FNV-1a of the compact text of
    /// [`phases_json`]: one smoke chaos cell, a lossy network with a
    /// crash, hashes to its committed value.
    #[test]
    fn phases_fp_hashes_the_compact_phases_document() {
        let label = "Shallow/ccl/chaos0";
        let cell = chaos_cells(Scale::Smoke)
            .into_iter()
            .find(|c| c.label == label)
            .expect("a chaos cell under this label");
        let out = Scale::Smoke.run_spec(cell.app, cell.spec.clone());
        let doc = phases_json(&out, &cell.spec, label);
        let nodes = doc.get("nodes").and_then(Json::as_arr).unwrap();
        assert!(nodes.iter().any(|n| n.get("recovery_phases").is_some()));
        let traffic = doc.get("traffic").and_then(Json::as_obj).unwrap();
        assert_eq!(traffic.len(), ccl_core::MSG_KINDS, "zeros included");
        let golden = committed(Scale::Smoke);
        let golden = member(&golden, &["chaos", label, "phases_fp"]).as_str();
        let fp = fnv1a(FNV_OFFSET, doc.compact().as_bytes());
        assert_eq!(golden.and_then(crate::json::hex_to_u64), Some(fp));
    }

    #[test]
    fn splice_replaces_only_the_marked_block() {
        let doc = "intro\n<!-- report:fig4 -->\nOLD\n<!-- /report:fig4 -->\noutro\n";
        let out = splice(doc, "fig4", "NEW TABLE\n").unwrap();
        assert_eq!(
            out,
            "intro\n<!-- report:fig4 -->\nNEW TABLE\n<!-- /report:fig4 -->\noutro\n"
        );
        assert!(splice(doc, "missing", "x").is_err());
    }
}
