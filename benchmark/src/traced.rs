//! The traced run: one extra round in its own process, with spans around
//! every call into a layer and the counts read at the same boundaries.
//! Gives the per-layer rows and `benchmark/out/<workload>.trace.json`.
//! Each layer is measured from outside only: public `RunOutput`
//! counters, `obsv::analyze`, and timed calls into public functions.

use std::path::Path;

use ccl_core::{kind_label, NodeStats, RunOutput, TraceKind, MSG_KINDS};
use obsv::blame::Blame;

use crate::child::{Session, Virt};
use crate::kernels;
use crate::metrics::{count, real, with_note, Row};
use crate::spans::Tracer;
use crate::sys;
use crate::workloads::{Cell, Workload, CRASH_FRACTION, VICTIM};

const MIB: f64 = (1u64 << 20) as f64;

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Sum a per-kind traffic histogram over the message kinds in `labels`.
fn kinds(hist: &[u64], labels: &[&str]) -> u64 {
    (0..MSG_KINDS)
        .filter(|&k| labels.contains(&kind_label(k)))
        .map(|k| hist[k])
        .sum()
}

/// A figure the paper also reports: its value and our error beside it,
/// or "unvalidated" where the paper has no such workload.
fn paper_row(metric: &str, measured: f64, paper: Option<f64>) -> Row {
    let note = match paper {
        Some(p) => format!("paper {p:.1}, error {:+.1} points", measured - p),
        None => "unvalidated: the paper has no such workload".to_string(),
    };
    with_note(real(metric, measured), note)
}

/// The paper's own figures from the five cells' virtual outcomes.
fn paper_rows(workload: Workload, virt: &[Virt; 5]) -> Vec<Row> {
    let paper = workload.paper();
    let exec = |c: Cell| virt[c.index()].exec_ns as f64;
    let log = |c: Cell| virt[c.index()].log_bytes as f64;
    let recovery = |c: Cell| virt[c.index()].recovery_ns.unwrap_or(0) as f64;
    let reexec = CRASH_FRACTION * exec(Cell::None);
    vec![
        paper_row(
            "ftlog.overhead_pct.ml",
            pct(exec(Cell::Ml), exec(Cell::None)) - 100.0,
            paper.map(|p| p.fig4.0 - 100.0),
        ),
        paper_row(
            "ftlog.overhead_pct.ccl",
            pct(exec(Cell::Ccl), exec(Cell::None)) - 100.0,
            paper.map(|p| p.fig4.1 - 100.0),
        ),
        paper_row(
            "ftlog.log_ratio_pct",
            pct(log(Cell::Ccl), log(Cell::Ml)),
            paper.map(|p| p.log_ratio_pct),
        ),
        paper_row(
            "ftlog.recovery_pct.ml",
            pct(recovery(Cell::MlCrash), reexec),
            paper.map(|p| p.fig5.0),
        ),
        paper_row(
            "ftlog.recovery_pct.ccl",
            pct(recovery(Cell::CclCrash), reexec),
            paper.map(|p| p.fig5.1),
        ),
    ]
}

/// Counts and virtual times of the failure-free `ccl` cell, by layer.
fn failure_free_rows(out: &RunOutput<u64>, blame: &Blame) -> Vec<Row> {
    let stats: NodeStats = out.total_stats();
    let metrics = out.total_metrics();
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum_phase =
        |pick: fn(&ccl_core::NodeOutput<u64>) -> u64| -> u64 { out.nodes.iter().map(pick).sum() };
    let compute = sum_phase(|n| n.phases.compute.as_nanos());
    let wait = sum_phase(|n| n.phases.wait.as_nanos());
    let disk = sum_phase(|n| n.phases.disk.as_nanos());
    let hidden = sum_phase(|n| n.phases.hidden.as_nanos());
    let finish = sum_phase(|n| n.finish.as_nanos());
    let events: u64 = out.nodes.iter().map(|n| n.trace.len() as u64).sum();
    let dropped: u64 = out.nodes.iter().map(|n| n.trace_dropped).sum();
    let cp_wait = blame.cp_wait_by_class();
    let cp_pct = |class: &str| {
        pct(
            cp_wait.get(class).copied().unwrap_or(0) as f64,
            blame.exec_ns as f64,
        )
    };
    let log_class = |class: &str| blame.log_by_class.get(class).copied().unwrap_or(0) as f64;
    vec![
        // simnet
        count("simnet.msgs", stats.msgs_sent),
        real("simnet.wire_mib", stats.bytes_sent as f64 / MIB),
        real("simnet.net_wait_ms", ms(wait)),
        real("simnet.disk_busy_ms", ms(disk + hidden)),
        count(
            "simnet.disk_writes",
            out.nodes.iter().map(|n| n.disk.writes).sum(),
        ),
        count("simnet.sched_stalls", stats.sched_stalls),
        real("simnet.park_ms", ms(metrics.park_ns.sum())),
        count("simnet.trace_events", events),
        count("simnet.trace_dropped", dropped),
        count("simnet.retransmits", stats.retransmits),
        // pagemem
        count("pagemem.twins", stats.twins_created),
        count("pagemem.diffs", stats.diffs_created),
        real("pagemem.diff_kib", stats.diff_bytes as f64 / 1024.0),
        real(
            "pagemem.diff_mean_bytes",
            stats.diff_bytes as f64 / stats.diffs_created.max(1) as f64,
        ),
        // hlrc
        count("hlrc.read_faults", stats.read_faults),
        count("hlrc.write_faults", stats.write_faults),
        count("hlrc.page_fetches", stats.page_fetches),
        real("hlrc.fetch_wait_ms", ms(metrics.fetch_latency_ns.sum())),
        real(
            "hlrc.fetch_p50_us",
            metrics.fetch_latency_ns.quantile(0.5) as f64 / 1e3,
        ),
        real(
            "hlrc.fetch_p99_us",
            metrics.fetch_latency_ns.quantile(0.99) as f64 / 1e3,
        ),
        count("hlrc.prefetch_issued", stats.prefetch_issued),
        real(
            "hlrc.prefetch_hit_pct",
            pct(stats.prefetch_hits as f64, stats.prefetch_issued as f64),
        ),
        count("hlrc.prefetch_wasted", stats.prefetch_wasted),
        count("hlrc.home_migrations", stats.home_migrations),
        count("hlrc.lock_acquires", stats.lock_acquires),
        real("hlrc.lock_wait_ms", ms(metrics.lock_wait_ns.sum())),
        count("hlrc.barriers", stats.barriers),
        real(
            "hlrc.page_reply_mib",
            kinds(&stats.bytes_by_kind, &["PageReply", "PageReplyBatch"]) as f64 / MIB,
        ),
        real(
            "hlrc.diff_flush_mib",
            kinds(&stats.bytes_by_kind, &["DiffFlush"]) as f64 / MIB,
        ),
        real("hlrc.cp_page_wait_pct", cp_pct("page")),
        real("hlrc.cp_lock_wait_pct", cp_pct("lock")),
        real("hlrc.cp_barrier_wait_pct", cp_pct("barrier")),
        // ftlog, write path
        count("ftlog.flushes", stats.log_flushes),
        real(
            "ftlog.mean_flush_kib",
            stats.mean_log_flush_bytes() / 1024.0,
        ),
        real("ftlog.flush_disk_ms", ms(disk)),
        with_note(
            real(
                "ftlog.flush_hidden_pct",
                pct(hidden as f64, (disk + hidden) as f64),
            ),
            "disk time hidden behind communication, of all disk time".to_string(),
        ),
        real("ftlog.cp_flush_wait_pct", cp_pct("flush")),
        real("ftlog.log_page_kib", log_class("page") / 1024.0),
        real(
            "ftlog.log_sync_kib",
            (log_class("lock") + log_class("barrier")) / 1024.0,
        ),
        // core, apps
        real("core.phase_compute_pct", pct(compute as f64, finish as f64)),
        real("core.phase_wait_pct", pct(wait as f64, finish as f64)),
        real("apps.compute_ms", ms(compute)),
        real(
            "apps.cp_compute_pct",
            pct(blame.cp_compute_ns() as f64, blame.exec_ns as f64),
        ),
        count("obsv.blame_segments", blame.critical_path.len() as u64),
    ]
}

/// The read path: what recovery did in the `ccl-crash` cell.
fn recovery_rows(out: &RunOutput<u64>, blame: &Blame) -> Vec<Row> {
    let stats = out.total_stats();
    let victim = &out.nodes[VICTIM];
    let all_reads: u64 = out.nodes.iter().map(|n| n.disk.reads).sum();
    let all_read_bytes: u64 = out.nodes.iter().map(|n| n.disk.bytes_read).sum();
    let crc_events = out
        .nodes
        .iter()
        .flat_map(|n| &n.trace)
        .filter(|ev| matches!(ev.kind, TraceKind::CrcMismatch { .. }))
        .count() as u64;
    let crc = crc_events
        + out
            .nodes
            .iter()
            .map(|n| n.disk.corrupted_records)
            .sum::<u64>();
    vec![
        with_note(
            count("simnet.disk_reads", all_reads),
            "every node: the victim's log scan and survivors serving logged diffs".to_string(),
        ),
        real("simnet.disk_read_mib", all_read_bytes as f64 / MIB),
        count(
            "ftlog.replayed_records",
            blame.recovery.iter().map(|w| w.replayed).sum(),
        ),
        with_note(
            count(
                "ftlog.recovery_msgs",
                kinds(
                    &stats.msgs_by_kind,
                    &["LoggedDiffRequest", "RecoveryPageRequest"],
                ),
            ),
            "LoggedDiffRequest + RecoveryPageRequest".to_string(),
        ),
        with_note(
            count("ftlog.recovery_disk_reads", victim.disk.reads),
            "at the failed node".to_string(),
        ),
        real(
            "ftlog.recovery_read_mib",
            victim.disk.bytes_read as f64 / MIB,
        ),
        real(
            "ftlog.cp_recovery_pct",
            pct(blame.cp_recovery_ns() as f64, blame.exec_ns as f64),
        ),
        count("ftlog.crc_errors", crc),
    ]
}

fn write_trace(tracer: &Tracer, workload: Workload, seed: u64) -> std::io::Result<()> {
    let dir = Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&path, tracer.to_json(workload.name(), seed).pretty())?;
    println!("# spans written to {}", path.display());
    Ok(())
}

pub fn traced(workload: Workload, seed: u64) -> ! {
    let name = workload.name();
    let mut tracer = Tracer::new();
    let (mut session, _) = tracer.span("apps.reference_digest", "", |_| {
        Session::new(workload, seed, false)
    });
    // Untraced, so the traced round below is as warm as a timed round.
    session.warm_up();

    let mut outs: [Option<RunOutput<u64>>; 5] = Default::default();
    tracer.span("bench.traced_round", "", |tracer| {
        for cell in Cell::ALL {
            let (ran, span) =
                tracer.span("core.run_program", cell.label(), |_| session.run_cell(cell));
            if let Some((_, out)) = ran {
                let stats = out.total_stats();
                tracer.count(span, "msgs", stats.msgs_sent);
                tracer.count(span, "wire_bytes", stats.bytes_sent);
                tracer.count(span, "log_bytes", stats.log_bytes);
                tracer.count(span, "virtual_exec_ns", out.exec_time().as_nanos());
                outs[cell.index()] = Some(out);
            }
        }
    });
    let (Some(ccl), Some(crash), Some(virt)) = (
        outs[Cell::Ccl.index()].as_ref(),
        outs[Cell::CclCrash.index()].as_ref(),
        session.all_virt(),
    ) else {
        // A failed cell was already counted and reported.
        session.finish(&[]);
    };

    let events: u64 = ccl.nodes.iter().map(|n| n.trace.len() as u64).sum();
    let (blame, analyze) = tracer.span("obsv.analyze", "ccl", |_| obsv::analyze(ccl));
    tracer.count(analyze, "trace_events", events);
    tracer.count(analyze, "segments", blame.critical_path.len() as u64);
    let (doc, blame_json) = tracer.span("obsv.blame_json", "ccl", |_| {
        obsv::blame_json(&blame, name).pretty()
    });
    tracer.count(blame_json, "bytes", doc.len() as u64);
    let (doc, chrome) = tracer.span("obsv.chrome_trace", "ccl", |_| {
        obsv::chrome_trace(ccl, name)
    });
    tracer.count(chrome, "bytes", doc.len() as u64);
    drop(doc);
    let (_, fingerprint) = tracer.span("obsv.trace_fingerprint", "ccl", |_| {
        std::hint::black_box(obsv::trace_fingerprint(ccl))
    });
    let (crash_blame, _) = tracer.span("obsv.analyze", "ccl-crash", |_| obsv::analyze(crash));
    let (kernel_rows, _) = tracer.span("bench.kernels", "", kernels::run);

    let mut rows = failure_free_rows(ccl, &blame);
    rows.extend(recovery_rows(crash, &crash_blame));
    rows.extend(paper_rows(workload, &virt));
    let diffs = ccl.total_stats().diffs_created as f64;
    let kernel_ns = |metric: &str| {
        kernel_rows
            .iter()
            .find(|r| r.metric == metric)
            .map_or(0.0, Row::value)
    };
    rows.push(with_note(
        real(
            "pagemem.diff_host_ms_computed",
            diffs * (kernel_ns("pagemem.diff_create_ns") + kernel_ns("pagemem.diff_apply_ns"))
                / 1e6,
        ),
        "diffs x (create + apply kernel)".to_string(),
    ));
    rows.extend(kernel_rows);
    let span_ms = |i: usize| tracer.spans[i].dur_ms();
    rows.push(real("obsv.analyze_host_ms", span_ms(analyze)));
    rows.push(real("obsv.blame_json_host_ms", span_ms(blame_json)));
    rows.push(real("obsv.chrome_host_ms", span_ms(chrome)));
    rows.push(real("obsv.fingerprint_host_ms", span_ms(fingerprint)));
    rows.push(real(
        "obsv.analyze_ns_per_event",
        span_ms(analyze) * 1e6 / events.max(1) as f64,
    ));
    rows.push(real("obsv.traced_peak_rss_mb", sys::peak_rss_mb()));
    rows.push(Row::aux(
        "bench.traced_round_host_ms",
        format!("{:.4}", tracer.total_ms("core.run_program")),
        "ms",
    ));
    if let Err(e) = write_trace(&tracer, workload, seed) {
        eprintln!("FAILED {name}: cannot write the trace file: {e}");
        session.failed += 1;
    }
    session.finish(&rows);
}
