//! The paper-artifact report pipeline.
//!
//! One invocation runs the full evaluation matrix — every application
//! under every Table 2 protocol, plus the Figure 5 crash-recovery
//! scenario — and turns the results into three artifacts:
//!
//! 1. a machine-readable report document ([`report_json`]) whose
//!    deterministic fields (digests, log bytes, flush counts, message
//!    counts, trace fingerprints) are bit-stable run to run,
//! 2. Markdown tables for the paper's Table 2 / Figure 4 / Figure 5,
//!    spliced into `EXPERIMENTS.md` between `<!-- report:* -->` markers,
//! 3. a regression verdict ([`compare`]) against a committed baseline:
//!    every field must match exactly. The conservative virtual-time
//!    scheduler (DESIGN.md §12) makes the whole matrix — Water's
//!    lock-heavy schedule and crash-recovery timing included — a pure
//!    function of the spec, so the tolerance annotations the baseline
//!    used to carry are gone; the annotation machinery remains for any
//!    future genuinely wall-clock measurement.

use ccl_apps::App;
use ccl_core::{run_program, ClusterSpec, CrashPlan, NodeMetrics, Protocol, RunOutput};

use crate::json::Json;

/// The paper's late-crash scenario: node 1 fails at ~75% of its
/// barriers (Figure 5).
pub const CRASH_FRACTION: f64 = 0.75;

/// Report document schema identifier.
pub const SCHEMA: &str = "ccl-report/v1";

/// Which size the matrix runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's 8-node configuration and workload sizes; minutes of
    /// wall clock. Baseline: `REPORT_paper.json` at the repo root.
    Paper,
    /// 4 nodes, tiny workloads, 256-byte pages; seconds of wall clock.
    /// Baseline: `crates/obsv/smoke_baseline.json`. Used by `verify.sh`.
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

    /// Crash-recovery trials. One at either scale: the conservative
    /// virtual-time scheduler makes recovery timing a pure function of
    /// the spec, so repeated trials return the same number (detcheck
    /// verifies exactly that) and a median would be waste.
    pub fn trials(self) -> usize {
        1
    }

    /// The cluster spec for `app` under `protocol` at this scale
    /// (shared with the `detcheck` determinism gate).
    pub fn spec(self, app: App, protocol: Protocol) -> ClusterSpec {
        match self {
            Scale::Paper => ccl_bench::paper_spec(app, protocol),
            Scale::Smoke => ClusterSpec::new(4, app.tiny_pages(256) + 4)
                .with_page_size(256)
                .with_protocol(protocol),
        }
    }

    /// Run `app` under `protocol` failure-free at this scale.
    pub fn run(self, app: App, protocol: Protocol) -> RunOutput<u64> {
        let spec = self.spec(app, protocol);
        match self {
            Scale::Paper => run_program(spec, move |dsm| app.run_paper(dsm)),
            Scale::Smoke => run_program(spec, move |dsm| app.run_tiny(dsm)),
        }
    }

    /// Run `app` under `protocol` with node 1 crashing after its
    /// `after_barriers`-th barrier.
    pub fn run_with_crash(
        self,
        app: App,
        protocol: Protocol,
        after_barriers: u64,
    ) -> RunOutput<u64> {
        let spec = self
            .spec(app, protocol)
            .with_crash(CrashPlan::new(1, after_barriers));
        match self {
            Scale::Paper => run_program(spec, move |dsm| app.run_paper(dsm)),
            Scale::Smoke => run_program(spec, move |dsm| app.run_tiny(dsm)),
        }
    }
}

/// FNV-1a over every node's trace event kinds, in node order —
/// including the `MsgSend`/`MsgRecv` causal edges. The conservative
/// virtual-time scheduler delivers messages in `(arrival, src, seq)`
/// order, so the full causal schedule is deterministic and the
/// fingerprint pins it. (The same coverage the determinism goldens
/// use.)
pub fn trace_fingerprint(out: &RunOutput<u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for n in &out.nodes {
        for ev in &n.trace {
            let tag = format!("{:?}", ev.kind);
            for b in tag.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

/// Everything the report keeps from one failure-free run.
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
    /// Cluster-merged histogram metrics.
    pub metrics: NodeMetrics,
    /// Compact blame-engine summary (see [`crate::blame`]).
    pub blame: BlameSummary,
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
    /// Crash runs per protocol (see [`Scale::trials`]).
    pub trials: usize,
    /// Re-execution baseline: the clean run scaled to the crash point.
    pub reexec_ns: u64,
    /// ML recovery time (ns).
    pub ml_ns: u64,
    /// CCL recovery time (ns).
    pub ccl_ns: u64,
    /// Where the CCL recovery window went, `[compute, wait, disk]` ns
    /// at the failed node; sums to `ccl_ns`.
    pub ccl_phases_ns: [u64; 3],
}

/// One application's slice of the report.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// The application.
    pub app: App,
    /// One record per Table 2 protocol, in `Protocol::TABLE2` order.
    pub runs: Vec<RunRecord>,
    /// The crash-recovery scenario.
    pub recovery: RecoveryRecord,
}

/// The full evaluation matrix at one scale.
#[derive(Debug, Clone)]
pub struct Report {
    /// The scale the matrix ran at.
    pub scale: Scale,
    /// All four applications, in `App::ALL` order.
    pub apps: Vec<AppReport>,
}

fn record(scale: Scale, app: App, protocol: Protocol) -> RunRecord {
    let out = scale.run(app, protocol);
    let total = out.total_stats();
    let analysis = crate::blame::analyze(&out);
    let blame = blame_summary(&analysis);
    let traffic = (0..ccl_core::MSG_KINDS)
        .map(|k| (total.msgs_by_kind[k], total.bytes_by_kind[k]))
        .collect();
    RunRecord {
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
        metrics: out.total_metrics(),
        blame,
        traffic,
        prefetch: analysis.prefetch,
    }
}

/// Recovery time and its `[compute, wait, disk]` split at the failed
/// node, from one crash run (see [`Scale::trials`]).
fn recovery_ns(scale: Scale, app: App, protocol: Protocol, at: u64) -> (u64, [u64; 3]) {
    let out = scale.run_with_crash(app, protocol, at);
    let total = out.recovery_time().expect("crash run completed recovery");
    let p = out
        .nodes
        .iter()
        .find_map(|n| n.recovery_phases)
        .expect("crash run recorded its recovery phases");
    (
        total.as_nanos(),
        [p.compute.as_nanos(), p.wait.as_nanos(), p.disk.as_nanos()],
    )
}

/// Run the full matrix at `scale`.
pub fn collect(scale: Scale) -> Report {
    let mut apps = Vec::new();
    for app in App::ALL {
        let runs: Vec<RunRecord> = Protocol::TABLE2
            .iter()
            .map(|p| record(scale, app, *p))
            .collect();
        let none = &runs[0];
        let barriers = none.barriers_node1;
        let at =
            ((barriers as f64 * CRASH_FRACTION) as u64).clamp(1, barriers.saturating_sub(1).max(1));
        let (ml_ns, _) = recovery_ns(scale, app, Protocol::Ml, at);
        let (ccl_ns, ccl_phases_ns) = recovery_ns(scale, app, Protocol::Ccl, at);
        let recovery = RecoveryRecord {
            crash_after_barriers: at,
            trials: scale.trials(),
            reexec_ns: (none.exec_ns as f64 * CRASH_FRACTION) as u64,
            ml_ns,
            ccl_ns,
            ccl_phases_ns,
        };
        apps.push(AppReport {
            app,
            runs,
            recovery,
        });
    }
    Report { scale, apps }
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

/// Render the report as its JSON document. Object keys are semantic
/// (application names, protocol labels) so baseline-diff paths like
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
            pf.set(
                "home_migrations",
                Json::from_u64(r.prefetch.home_migrations),
            );
            j.set("prefetch", pf);
            j.set("hist", hist_json(&r.metrics));
            runs.set(r.protocol.label(), j);
        }
        let mut rec = Json::obj();
        rec.set(
            "crash_after_barriers",
            Json::from_u64(a.recovery.crash_after_barriers),
        );
        rec.set("trials", Json::from_u64(a.recovery.trials as u64));
        rec.set("reexec_ns", Json::from_u64(a.recovery.reexec_ns));
        rec.set("ml_ns", Json::from_u64(a.recovery.ml_ns));
        rec.set("ccl_ns", Json::from_u64(a.recovery.ccl_ns));
        let [compute, wait, disk] = a.recovery.ccl_phases_ns;
        rec.set("ccl_compute_ns", Json::from_u64(compute));
        rec.set("ccl_wait_ns", Json::from_u64(wait));
        rec.set("ccl_disk_ns", Json::from_u64(disk));
        let mut entry = Json::obj();
        entry.set("runs", runs);
        entry.set("recovery", rec);
        apps.set(a.app.name(), entry);
    }
    doc.set("apps", apps);
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
        other => other.label(),
    }
}

/// The Table 2 Markdown table (all apps, Table 2 columns).
pub fn table2_markdown(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("| App | Protocol | Exec (s) | Mean log (KB) | Total log (MB) | Flushes |\n");
    s.push_str("|---|---|---|---|---|---|\n");
    for a in &report.apps {
        for r in &a.runs {
            let mean = if r.log_flushes == 0 {
                "—".to_string()
            } else {
                format!("{:.1}", r.log_bytes as f64 / r.log_flushes as f64 / 1024.0)
            };
            let total = if r.log_bytes == 0 {
                "0".to_string()
            } else {
                format!("{:.2}", r.log_bytes as f64 / (1024.0 * 1024.0))
            };
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                a.app.name(),
                protocol_display(r.protocol),
                secs(r.exec_ns),
                mean,
                total,
                r.log_flushes,
            ));
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
        let base = a.runs[0].exec_ns as f64;
        let norm = |r: &RunRecord| 100.0 * r.exec_ns as f64 / base;
        let (pml, pccl) = paper_fig4(a.app);
        s.push_str(&format!(
            "| {} | 100 | {:.1} | {:.1} | {:.0} | ~{:.0} |\n",
            a.app.name(),
            norm(&a.runs[1]),
            norm(&a.runs[2]),
            pml,
            pccl,
        ));
    }
    s
}

/// The Figure 5 Markdown table (normalized recovery, paper columns),
/// plus where the CCL recovery window went at the failed node.
pub fn fig5_markdown(report: &Report) -> String {
    let mut s = String::new();
    s.push_str(
        "| App | Re-execution | ML-recovery | CCL recovery | Paper ML | Paper CCL \
         | CCL compute (ms) | CCL wait (ms) | CCL disk (ms) |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for a in &report.apps {
        let base = a.recovery.reexec_ns as f64;
        let (pml, pccl) = paper_fig5(a.app);
        let [compute, wait, disk] = a.recovery.ccl_phases_ns.map(|ns| ns as f64 / 1e6);
        s.push_str(&format!(
            "| {} | 100 | {:.1} | {:.1} | {:.0} | {:.0} | {:.1} | {:.1} | {:.1} |\n",
            a.app.name(),
            100.0 * a.recovery.ml_ns as f64 / base,
            100.0 * a.recovery.ccl_ns as f64 / base,
            pml,
            pccl,
            compute,
            wait,
            disk,
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
        for r in &a.runs {
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

/// The per-variant traffic Markdown table: how the fetch path's
/// envelopes split between the legacy single-page round trip and the
/// batched one, how the speculative copies fared, and each run's total
/// message volume.
pub fn traffic_markdown(report: &Report) -> String {
    let ord = |label: &str| {
        (0..ccl_core::MSG_KINDS)
            .find(|&k| ccl_core::kind_label(k) == label)
            .expect("known wire-tag label")
    };
    let single = ord("PageReply");
    let batch = ord("PageReplyBatch");
    let migrate = ord("HomeMigrate");
    let mut s = String::new();
    s.push_str(
        "| App | Protocol | Single fetches | Batched fetches | Pages/batch | \
         Prefetch issued / hit / wasted | Home moves | Msgs | Sent (MB) |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for a in &report.apps {
        for r in &a.runs {
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
                "| {} | {} | {} | {} | {} | {} / {} / {} | {} | {} | {:.2} |\n",
                a.app.name(),
                protocol_display(r.protocol),
                r.traffic[single].0,
                batches,
                per_batch,
                r.prefetch.issued,
                r.prefetch.hits,
                r.prefetch.wasted,
                r.traffic[migrate].0,
                r.msgs_sent,
                r.bytes_sent as f64 / (1024.0 * 1024.0),
            ));
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

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// How a baseline field may differ from the current run.
#[derive(Debug, Clone, PartialEq)]
pub enum Band {
    /// Relative tolerance in percent of the baseline value.
    Pct(f64),
    /// Not compared at all (value varies run to run).
    Ignore,
}

/// One tolerance annotation: which field(s), how much slack, and the
/// recorded reason. Fields with no matching annotation must match the
/// baseline exactly.
#[derive(Debug, Clone)]
pub struct Tolerance {
    /// Dotted path pattern: `*` matches one segment, a trailing `**`
    /// matches any remainder (`apps.Water.runs.ccl.hist.**`).
    pub path: String,
    /// The allowed deviation.
    pub band: Band,
    /// Why this field is allowed to vary (recorded in the baseline).
    pub why: String,
}

/// The tolerance set a freshly blessed baseline is annotated with:
/// **empty** — every field compares exactly.
///
/// The annotations this set used to carry (Water's ~20–30% `exec_ns`
/// swing from physical lock-arrival order, MG's ±0.01% ack-timing
/// nudge from physical flush arrival, and crash-recovery timing that
/// depended on how far survivors ran ahead) all rooted in the router
/// delivering messages in physical arrival order. The conservative
/// virtual-time scheduler delivers in `(arrival, src, seq)` order
/// (DESIGN.md §12), which makes lock grants, flush service, and
/// recovery progress pure functions of virtual time — so the bands are
/// gone, not widened. The `Band`/path machinery stays: a future
/// genuinely physical measurement (e.g. wall-clock overhead) can
/// re-annotate itself, with a recorded reason, without rebuilding it.
pub fn default_tolerances() -> Vec<Tolerance> {
    Vec::new()
}

/// Serialize tolerances for embedding in a baseline document.
pub fn tolerances_json(rules: &[Tolerance]) -> Json {
    Json::Arr(
        rules
            .iter()
            .map(|t| {
                let mut j = Json::obj();
                j.set("path", Json::Str(t.path.clone()));
                match t.band {
                    Band::Pct(p) => {
                        j.set("kind", Json::Str("pct".to_string()));
                        j.set("pct", Json::Num(p));
                    }
                    Band::Ignore => {
                        j.set("kind", Json::Str("ignore".to_string()));
                    }
                }
                j.set("why", Json::Str(t.why.clone()));
                j
            })
            .collect(),
    )
}

/// Read the tolerance annotations out of a baseline document; falls
/// back to [`default_tolerances`] when the baseline has none.
pub fn parse_tolerances(baseline: &Json) -> Vec<Tolerance> {
    let Some(items) = baseline.get("tolerances").and_then(|t| t.as_arr()) else {
        return default_tolerances();
    };
    items
        .iter()
        .filter_map(|item| {
            let path = item.get("path")?.as_str()?.to_string();
            let band = match item.get("kind")?.as_str()? {
                "ignore" => Band::Ignore,
                "pct" => Band::Pct(item.get("pct")?.as_f64()?),
                _ => return None,
            };
            let why = item
                .get("why")
                .and_then(|w| w.as_str())
                .unwrap_or("")
                .to_string();
            Some(Tolerance { path, band, why })
        })
        .collect()
}

fn path_matches(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = path.split('.').collect();
    fn rec(pat: &[&str], segs: &[&str]) -> bool {
        match (pat.first(), segs.first()) {
            (None, None) => true,
            (Some(&"**"), _) => true,
            (Some(&p), Some(&s)) if p == "*" || p == s => rec(&pat[1..], &segs[1..]),
            _ => false,
        }
    }
    rec(&pat, &segs)
}

fn find_band<'a>(rules: &'a [Tolerance], path: &str) -> Option<&'a Band> {
    rules
        .iter()
        .find(|t| path_matches(&t.path, path))
        .map(|t| &t.band)
}

/// Outcome of one gate run.
#[derive(Debug, Default)]
pub struct GateResult {
    /// Fields compared (exactly or within a band).
    pub compared: usize,
    /// Fields skipped under an `ignore` annotation.
    pub ignored: usize,
    /// Human-readable violations; empty means the gate passed.
    pub violations: Vec<String>,
}

impl GateResult {
    /// Did the gate pass?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compare `current` against `baseline` under `rules`. The baseline's
/// top-level `tolerances` member is metadata, not data, and is skipped.
pub fn compare(current: &Json, baseline: &Json, rules: &[Tolerance]) -> GateResult {
    let mut result = GateResult::default();
    walk(current, baseline, rules, "", &mut result);
    result
}

fn note(result: &mut GateResult, path: &str, msg: String) {
    result.violations.push(format!("{path}: {msg}"));
}

fn walk(current: &Json, baseline: &Json, rules: &[Tolerance], path: &str, result: &mut GateResult) {
    if let Some(Band::Ignore) = find_band(rules, path) {
        result.ignored += 1;
        return;
    }
    match (current, baseline) {
        (Json::Obj(cur), Json::Obj(base)) => {
            for (k, bv) in base {
                if path.is_empty() && k == "tolerances" {
                    continue;
                }
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match cur.iter().find(|(ck, _)| ck == k) {
                    Some((_, cv)) => walk(cv, bv, rules, &child, result),
                    None => note(result, &child, "missing from current report".to_string()),
                }
            }
            for (k, _) in cur {
                if base.iter().all(|(bk, _)| bk != k) {
                    let child = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    note(result, &child, "not present in baseline".to_string());
                }
            }
        }
        (Json::Num(c), Json::Num(b)) => {
            result.compared += 1;
            match find_band(rules, path) {
                Some(Band::Pct(pct)) => {
                    let slack = (b.abs() * pct / 100.0).max(1.0);
                    if (c - b).abs() > slack {
                        note(
                            result,
                            path,
                            format!("{c} vs baseline {b} (±{pct}% allowed)"),
                        );
                    }
                }
                _ => {
                    if c != b {
                        note(result, path, format!("{c} vs baseline {b} (exact)"));
                    }
                }
            }
        }
        (c, b) => {
            result.compared += 1;
            if c != b {
                note(
                    result,
                    path,
                    format!("{} vs baseline {} (exact)", brief(c), brief(b)),
                );
            }
        }
    }
}

fn brief(j: &Json) -> String {
    match j {
        Json::Str(s) => format!("{s:?}"),
        other => {
            let mut s = other.pretty();
            s.truncate(40);
            s
        }
    }
}

/// Build the committed baseline document: the report plus its
/// tolerance annotations.
pub fn baseline_json(report: &Report, rules: &[Tolerance]) -> Json {
    let mut doc = report_json(report);
    doc.set("tolerances", tolerances_json(rules));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use simnet::NodeMetrics;

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
            metrics: NodeMetrics::default(),
            blame: BlameSummary {
                top_object: "barrier:3".to_string(),
                cp_compute_ns: exec_ns / 2,
                cp_wait_barrier_ns: exec_ns / 2,
                log_page_bytes: log_bytes,
                ..BlameSummary::default()
            },
            traffic: {
                let mut t = vec![(0u64, 0u64); ccl_core::MSG_KINDS];
                t[1] = (40, 40 * 4096); // PageReply
                t[16] = (10, 12 * 4096); // PageReplyBatch
                t
            },
            prefetch: crate::blame::PrefetchSummary {
                issued: 20,
                hits: 15,
                wasted: 3,
                home_migrations: 2,
            },
        };
        let apps = App::ALL
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
                    trials: 1,
                    reexec_ns: 750_000,
                    ml_ns: 500_000,
                    ccl_ns: 400_000,
                    ccl_phases_ns: [300_000, 90_000, 10_000],
                },
            })
            .collect();
        Report {
            scale: Scale::Smoke,
            apps,
        }
    }

    fn tol(path: &str, band: Band, why: &str) -> Tolerance {
        Tolerance {
            path: path.to_string(),
            band,
            why: why.to_string(),
        }
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let doc = report_json(&fake_report());
        let base = baseline_json(&fake_report(), &default_tolerances());
        let rules = parse_tolerances(&base);
        let res = compare(&doc, &base, &rules);
        assert!(res.passed(), "{:?}", res.violations);
        assert!(res.compared > 50);
        assert_eq!(
            res.ignored, 0,
            "the default tolerance set is empty: every field compares"
        );
    }

    #[test]
    fn exact_field_drift_is_a_violation() {
        let doc = report_json(&fake_report());
        let mut drifted = fake_report();
        drifted.apps[0].runs[2].log_bytes += 1;
        let base = baseline_json(&drifted, &default_tolerances());
        let rules = parse_tolerances(&base);
        let res = compare(&doc, &base, &rules);
        assert!(!res.passed());
        assert!(
            res.violations
                .iter()
                .any(|v| v.starts_with("apps.3D-FFT.runs.ccl.log_bytes")),
            "{:?}",
            res.violations
        );
    }

    /// With the empty default set, even a one-count drift on a field
    /// that used to carry a wide band (recovery timing) is a violation.
    #[test]
    fn recovery_timing_now_compares_exactly() {
        let doc = report_json(&fake_report());
        let mut drifted = fake_report();
        drifted.apps[3].recovery.ml_ns += 2;
        let base = baseline_json(&drifted, &default_tolerances());
        let res = compare(&doc, &base, &parse_tolerances(&base));
        assert!(!res.passed());
        assert!(
            res.violations
                .iter()
                .any(|v| v.starts_with("apps.Water.recovery.ml_ns")),
            "{:?}",
            res.violations
        );
    }

    /// The band machinery itself still works for baselines that carry
    /// explicit annotations (none do today, but the escape hatch stays
    /// tested): drift inside a `pct` band passes, outside fails.
    #[test]
    fn banded_fields_absorb_drift_within_tolerance() {
        let rules = vec![tol(
            "apps.*.recovery.ml_ns",
            Band::Pct(60.0),
            "synthetic band for the gate test",
        )];
        let doc = report_json(&fake_report());
        let mut drifted = fake_report();
        for a in &mut drifted.apps {
            a.recovery.ml_ns = (a.recovery.ml_ns as f64 * 1.4) as u64; // +40% < 60%
        }
        let base = baseline_json(&drifted, &rules);
        let res = compare(&doc, &base, &parse_tolerances(&base));
        assert!(res.passed(), "{:?}", res.violations);

        let mut way_off = fake_report();
        way_off.apps[0].recovery.ml_ns *= 3;
        let base = baseline_json(&way_off, &rules);
        let res = compare(&doc, &base, &parse_tolerances(&base));
        assert!(!res.passed());
    }

    /// `ignore` annotations skip exactly the matching fields and count
    /// them, leaving every other path exact.
    #[test]
    fn ignore_band_skips_only_matching_fields() {
        let rules = vec![tol(
            "apps.Water.runs.*.trace_fp",
            Band::Ignore,
            "synthetic ignore for the gate test",
        )];
        let doc = report_json(&fake_report());
        let mut drifted = fake_report();
        drifted.apps[3].runs[2].trace_fp ^= 1; // Water: ignored
        let base = baseline_json(&drifted, &rules);
        let res = compare(&doc, &base, &parse_tolerances(&base));
        assert!(res.passed(), "{:?}", res.violations);
        assert!(res.ignored > 0);

        let mut drifted = fake_report();
        drifted.apps[0].runs[2].trace_fp ^= 1; // 3D-FFT: exact
        let base = baseline_json(&drifted, &rules);
        let res = compare(&doc, &base, &parse_tolerances(&base));
        assert!(!res.passed());
    }

    #[test]
    fn missing_and_extra_fields_are_violations() {
        let doc = report_json(&fake_report());
        let mut base = baseline_json(&fake_report(), &default_tolerances());
        base.set("extra_baseline_field", Json::Num(1.0));
        let res = compare(&doc, &base, &parse_tolerances(&base));
        assert!(res
            .violations
            .iter()
            .any(|v| v.contains("missing from current report")));

        let mut doc2 = report_json(&fake_report());
        doc2.set("novel_field", Json::Num(1.0));
        let base = baseline_json(&fake_report(), &default_tolerances());
        let res = compare(&doc2, &base, &parse_tolerances(&base));
        assert!(res
            .violations
            .iter()
            .any(|v| v.contains("not present in baseline")));
    }

    #[test]
    fn path_patterns() {
        assert!(path_matches(
            "apps.*.recovery.ml_ns",
            "apps.Water.recovery.ml_ns"
        ));
        assert!(!path_matches(
            "apps.*.recovery.ml_ns",
            "apps.Water.recovery.ccl_ns"
        ));
        assert!(path_matches(
            "apps.Water.runs.*.hist.**",
            "apps.Water.runs.ccl.hist.flush_bytes.p99"
        ));
        assert!(!path_matches(
            "apps.Water.runs.*.hist.**",
            "apps.MG.runs.ccl.hist.p99"
        ));
        assert!(!path_matches(
            "apps.Water.runs.*.hist.**",
            "apps.Water.runs.ccl.exec_ns"
        ));
    }

    #[test]
    fn tolerances_round_trip_through_json() {
        let rules = vec![
            tol("apps.*.recovery.ml_ns", Band::Pct(60.0), "round trip"),
            tol("apps.Water.runs.*.hist.**", Band::Ignore, "round trip"),
        ];
        let mut doc = Json::obj();
        doc.set("tolerances", tolerances_json(&rules));
        let text = doc.pretty();
        let back = parse_tolerances(&json::parse(&text).unwrap());
        assert_eq!(back.len(), rules.len());
        for (a, b) in back.iter().zip(&rules) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.band, b.band);
        }
    }

    #[test]
    fn markdown_tables_have_one_row_per_cell() {
        let report = fake_report();
        let t2 = table2_markdown(&report);
        assert_eq!(t2.lines().count(), 2 + 4 * 3);
        assert!(t2.contains("| 3D-FFT | CCL |"));
        let f4 = fig4_markdown(&report);
        assert_eq!(f4.lines().count(), 2 + 4);
        assert!(f4.contains("| 3D-FFT | 100 | 120.0 | 105.0 | 124 | ~106 |"));
        let f5 = fig5_markdown(&report);
        assert!(f5.contains("| Water | 100 | 66.7 | 53.3 | 43 | 38 | 0.3 | 0.1 | 0.0 |"));
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
        assert!(tr.contains("| 40 | 10 | 3.00 | 20 / 15 / 3 | 0 |"), "{tr}");
    }

    #[test]
    fn report_json_carries_the_blame_summary() {
        let doc = report_json(&fake_report());
        let blame = doc
            .get("apps")
            .unwrap()
            .get("Water")
            .unwrap()
            .get("runs")
            .unwrap()
            .get("ml")
            .unwrap()
            .get("blame")
            .unwrap();
        assert_eq!(blame.get("top_object").unwrap().as_str(), Some("barrier:3"));
        assert_eq!(
            blame.get("cp_wait_barrier_ns").unwrap().as_f64(),
            Some(600_000.0)
        );
        assert_eq!(
            blame.get("log_page_bytes").unwrap().as_f64(),
            Some(90_000.0)
        );
    }

    /// The paper's headline, gated on the committed paper-scale report:
    /// CCL recovery < ML recovery < re-execution on 3D-FFT, MG and
    /// Shallow. On Water (98.6 % compute, one logged-diff round trip per
    /// replayed acquire) both must beat re-execution; the CCL-vs-ML
    /// residual is printed, not gated.
    #[test]
    fn committed_report_keeps_the_figure_5_ordering() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPORT_paper.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("REPORT_paper.json")).unwrap();
        let apps = doc.get("apps").expect("apps");
        for app in App::ALL {
            let rec = apps.get(app.name()).and_then(|a| a.get("recovery"));
            let ns = |key: &str| {
                rec.and_then(|r| r.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{}: recovery.{key} missing", app.name()))
            };
            let (reexec, ml, ccl) = (ns("reexec_ns"), ns("ml_ns"), ns("ccl_ns"));
            assert!(
                ml < reexec,
                "{}: ML {ml} !< re-execution {reexec}",
                app.name()
            );
            assert!(
                ccl < reexec,
                "{}: CCL {ccl} !< re-execution {reexec}",
                app.name()
            );
            if app == App::Water {
                println!(
                    "Water: ccl_ns - ml_ns = {:+.3} ms (not gated)",
                    (ccl - ml) / 1e6
                );
            } else {
                assert!(ccl < ml, "{}: CCL {ccl} !< ML {ml}", app.name());
            }
            let parts = ns("ccl_compute_ns") + ns("ccl_wait_ns") + ns("ccl_disk_ns");
            assert_eq!(parts, ccl, "{}: CCL recovery phases leak", app.name());
        }
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
