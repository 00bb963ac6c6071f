//! The metric table: every name the benchmark prints, with its unit,
//! clock and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repo root is generated from this table (`--contract`) and a
//! test keeps the two equal.

use crate::workloads::Workload;

/// Which of the system's two clocks a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time and deterministic counts: two runs of one commit
    /// with one seed agree exactly.
    Virtual,
    /// Wall clock, CPU time, memory of the simulator process: noisy.
    Host,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// `Some` for an end-to-end metric: the share of the parent's median
    /// by which it may worsen. `None` for a per-layer metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        clock,
        bound: None,
    }
}

const fn higher(mut def: MetricDef) -> MetricDef {
    def.better = Better::Higher;
    def
}

use Clock::{Host, Virtual};

/// Virtual metrics are deterministic; the bound only forgives us-scale
/// wire-format nudges between commits.
const VIRTUAL_BOUND: f64 = 0.001;
const HOST_BOUND: f64 = 0.10;
const SETUP_BOUND: f64 = 0.25;

pub const METRICS: &[MetricDef] = &[
    // ---- end to end -------------------------------------------------
    e2e("exec_ms.none", "ms", Virtual, VIRTUAL_BOUND),
    e2e("exec_ms.ml", "ms", Virtual, VIRTUAL_BOUND),
    e2e("exec_ms.ccl", "ms", Virtual, VIRTUAL_BOUND),
    e2e("log_mb.ml", "MiB", Virtual, VIRTUAL_BOUND),
    e2e("log_mb.ccl", "MiB", Virtual, VIRTUAL_BOUND),
    e2e("recovery_ms.ml", "ms", Virtual, VIRTUAL_BOUND),
    e2e("recovery_ms.ccl", "ms", Virtual, VIRTUAL_BOUND),
    e2e("crash_exec_ms.ml", "ms", Virtual, VIRTUAL_BOUND),
    e2e("crash_exec_ms.ccl", "ms", Virtual, VIRTUAL_BOUND),
    e2e("peak_rss_mb", "MB", Host, HOST_BOUND),
    e2e("setup_s", "s", Host, SETUP_BOUND),
    // ---- host time of the simulator ---------------------------------
    // Specified as end-to-end with a 10 % bound, demoted by the spec's
    // own rule: on this box the p10 moved 15-2800 % between ten runs
    // when the host was disturbed (README, "Measured noise"). Same
    // names, so a later benchmark issue can promote them back.
    layer("host_ms.none", "ms", Host),
    layer("host_ms.ml", "ms", Host),
    layer("host_ms.ccl", "ms", Host),
    layer("host_ms.crash", "ms", Host),
    // ---- simnet -----------------------------------------------------
    layer("simnet.msgs", "count", Virtual),
    layer("simnet.wire_mib", "MiB", Virtual),
    layer("simnet.net_wait_ms", "ms", Virtual),
    layer("simnet.disk_busy_ms", "ms", Virtual),
    layer("simnet.disk_writes", "count", Virtual),
    layer("simnet.disk_reads", "count", Virtual),
    layer("simnet.disk_read_mib", "MiB", Virtual),
    layer("simnet.sched_stalls", "count", Host),
    layer("simnet.park_ms", "ms", Host),
    layer("simnet.trace_events", "count", Virtual),
    layer("simnet.trace_dropped", "count", Virtual),
    layer("simnet.retransmits", "count", Virtual),
    layer("simnet.host_us_per_msg", "us", Host),
    layer("simnet.router_pingpong_ns", "ns", Host),
    layer("simnet.envelope_fanout_ns", "ns", Host),
    // ---- pagemem ----------------------------------------------------
    layer("pagemem.twins", "count", Virtual),
    layer("pagemem.diffs", "count", Virtual),
    layer("pagemem.diff_kib", "KiB", Virtual),
    layer("pagemem.diff_mean_bytes", "bytes", Virtual),
    layer("pagemem.diff_create_ns", "ns", Host),
    layer("pagemem.diff_apply_ns", "ns", Host),
    layer("pagemem.codec_roundtrip_ns", "ns", Host),
    layer("pagemem.diff_host_ms_computed", "ms", Host),
    // ---- hlrc -------------------------------------------------------
    layer("hlrc.read_faults", "count", Virtual),
    layer("hlrc.write_faults", "count", Virtual),
    layer("hlrc.page_fetches", "count", Virtual),
    layer("hlrc.fetch_wait_ms", "ms", Virtual),
    layer("hlrc.fetch_p50_us", "us", Virtual),
    layer("hlrc.fetch_p99_us", "us", Virtual),
    layer("hlrc.prefetch_issued", "count", Virtual),
    higher(layer("hlrc.prefetch_hit_pct", "%", Virtual)),
    layer("hlrc.prefetch_wasted", "count", Virtual),
    layer("hlrc.home_migrations", "count", Virtual),
    layer("hlrc.lock_acquires", "count", Virtual),
    layer("hlrc.lock_wait_ms", "ms", Virtual),
    layer("hlrc.barriers", "count", Virtual),
    layer("hlrc.page_reply_mib", "MiB", Virtual),
    layer("hlrc.diff_flush_mib", "MiB", Virtual),
    layer("hlrc.cp_page_wait_pct", "%", Virtual),
    layer("hlrc.cp_lock_wait_pct", "%", Virtual),
    layer("hlrc.cp_barrier_wait_pct", "%", Virtual),
    // ---- ftlog ------------------------------------------------------
    layer("ftlog.flushes", "count", Virtual),
    layer("ftlog.mean_flush_kib", "KiB", Virtual),
    layer("ftlog.flush_disk_ms", "ms", Virtual),
    higher(layer("ftlog.flush_hidden_pct", "%", Virtual)),
    layer("ftlog.cp_flush_wait_pct", "%", Virtual),
    layer("ftlog.log_page_kib", "KiB", Virtual),
    layer("ftlog.log_sync_kib", "KiB", Virtual),
    layer("ftlog.replayed_records", "count", Virtual),
    layer("ftlog.recovery_msgs", "count", Virtual),
    layer("ftlog.recovery_disk_reads", "count", Virtual),
    layer("ftlog.recovery_read_mib", "MiB", Virtual),
    layer("ftlog.cp_recovery_pct", "%", Virtual),
    layer("ftlog.crc_errors", "count", Virtual),
    layer("ftlog.frame_encode_ns", "ns", Host),
    layer("ftlog.salvage_ns_per_kib", "ns", Host),
    layer("ftlog.overhead_pct.ml", "%", Virtual),
    layer("ftlog.overhead_pct.ccl", "%", Virtual),
    layer("ftlog.log_ratio_pct", "%", Virtual),
    layer("ftlog.recovery_pct.ml", "%", Virtual),
    layer("ftlog.recovery_pct.ccl", "%", Virtual),
    // ---- core -------------------------------------------------------
    layer("core.run_host_ms.ml-crash", "ms", Host),
    layer("core.run_host_ms.ccl-crash", "ms", Host),
    layer("core.cpu_ms", "ms", Host),
    layer("core.phase_compute_pct", "%", Virtual),
    layer("core.phase_wait_pct", "%", Virtual),
    layer("core.sim_slowdown_x", "x", Host),
    layer("core.ops_failed", "count", Host),
    // ---- apps -------------------------------------------------------
    layer("apps.compute_ms", "ms", Virtual),
    higher(layer("apps.cp_compute_pct", "%", Virtual)),
    layer("apps.serial_ref_host_ms", "ms", Host),
    // ---- obsv -------------------------------------------------------
    layer("obsv.analyze_host_ms", "ms", Host),
    layer("obsv.blame_json_host_ms", "ms", Host),
    layer("obsv.chrome_host_ms", "ms", Host),
    layer("obsv.fingerprint_host_ms", "ms", Host),
    layer("obsv.blame_segments", "count", Virtual),
    layer("obsv.analyze_ns_per_event", "ns", Host),
    layer("obsv.traced_peak_rss_mb", "MB", Host),
    // ---- bench ------------------------------------------------------
    layer("bench.trace_overhead_pct", "%", Host),
    higher(layer("bench.rounds", "count", Host)),
    layer("bench.load_avg", "load", Host),
    layer("bench.virtual_fp", "hash", Host),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One printed result: `workload metric value unit  # note`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    /// The value as printed, with all its digits; `--agree` compares
    /// virtual metrics on this text.
    pub text: String,
    pub unit: String,
    pub note: String,
}

impl Row {
    pub fn new(metric: &str, text: String) -> Row {
        let unit = lookup(metric).map_or("", |m| m.unit).to_string();
        Row {
            metric: metric.to_string(),
            text,
            unit,
            note: String::new(),
        }
    }

    /// A row for a quantity outside the metric table (an intermediate
    /// the parent derives a metric from).
    pub fn aux(metric: &str, text: String, unit: &str) -> Row {
        Row {
            metric: metric.to_string(),
            text,
            unit: unit.to_string(),
            note: "aux".to_string(),
        }
    }

    pub fn value(&self) -> f64 {
        self.text.parse().unwrap_or(f64::NAN)
    }

    pub fn line(&self, workload: &str) -> String {
        let head = format!("{workload} {} {} {}", self.metric, self.text, self.unit);
        if self.note.is_empty() {
            head
        } else {
            format!("{head}  # {}", self.note)
        }
    }

    /// Parse a line printed by [`Row::line`] for `workload`; `None` for
    /// anything else (comments, other workloads).
    pub fn parse(line: &str, workload: &str) -> Option<Row> {
        let (head, note) = match line.split_once("  # ") {
            Some((h, n)) => (h, n),
            None => (line, ""),
        };
        let mut tok = head.split_whitespace();
        if tok.next()? != workload {
            return None;
        }
        let (metric, text, unit) = (tok.next()?, tok.next()?, tok.next()?);
        text.parse::<f64>().ok()?;
        Some(Row {
            metric: metric.to_string(),
            text: text.to_string(),
            unit: unit.to_string(),
            note: note.to_string(),
        })
    }
}

/// A count or an exact virtual quantity.
pub fn count(metric: &str, v: u64) -> Row {
    Row::new(metric, v.to_string())
}

/// Virtual nanoseconds as milliseconds, every digit kept.
pub fn virt_ms(metric: &str, ns: u64) -> Row {
    Row::new(metric, format!("{:.6}", ns as f64 / 1e6))
}

/// A measured or derived real number.
pub fn real(metric: &str, v: f64) -> Row {
    Row::new(metric, format!("{v:.4}"))
}

pub fn with_note(mut row: Row, note: String) -> Row {
    row.note = note;
    row
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn contract_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            json_str(w.name()),
            json_str(w.why())
        ));
    }
    s.push_str("  ],\n");
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let e2e: Vec<&MetricDef> = METRICS.iter().filter(|m| m.bound.is_some()).collect();
    s.push_str("  \"end_to_end\": [\n");
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(better(m.better)),
            m.bound.unwrap_or(0.0)
        ));
    }
    s.push_str("  ],\n");
    let layers: Vec<&MetricDef> = METRICS.iter().filter(|m| m.bound.is_none()).collect();
    s.push_str("  \"per_layer\": [\n");
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(better(m.better))
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The contract's last line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, rows: &[&Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&r.metric),
                r.text,
                json_str(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for (i, m) in METRICS.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(METRICS[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            }
        }
        assert!(METRICS.iter().filter(|m| m.bound.is_some()).count() <= 16);
        assert!(METRICS.iter().filter(|m| m.bound.is_none()).count() <= 128);
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn rows_round_trip_through_their_printed_line() {
        let row = with_note(
            virt_ms("exec_ms.none", 1_049_035_512),
            "table 2".to_string(),
        );
        let line = row.line("fft-failfree");
        assert_eq!(line, "fft-failfree exec_ms.none 1049.035512 ms  # table 2");
        assert_eq!(Row::parse(&line, "fft-failfree"), Some(row));
        assert_eq!(Row::parse(&line, "scale-128"), None);
        assert_eq!(Row::parse("# a comment", "fft-failfree"), None);
    }
}
