//! The single-threaded parent: runs each workload in its own child
//! process, one at a time, collects the printed rows, derives the
//! metrics that span children, and prints the result.

use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use obsv::Json;

use crate::child::{median, Budget};
use crate::metrics::{self, count, real, with_note, Clock, MetricDef, Row, METRICS};
use crate::sys::{self, HostInfo};
use crate::workloads::Workload;

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    /// One workload, or the whole suite.
    pub workload: Option<Workload>,
    pub seed: u64,
    pub rounds: Option<usize>,
    pub seconds: Option<f64>,
    /// Also make the traced run and print the per-layer metrics.
    pub trace: bool,
    pub poison: bool,
}

impl Options {
    pub fn budget(&self, w: Workload) -> Budget {
        match (self.rounds, self.seconds) {
            (Some(n), _) => Budget::Rounds(n),
            (None, Some(s)) => Budget::Seconds(s),
            (None, None) => Budget::Rounds(w.default_rounds()),
        }
    }
}

/// Everything one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn get(&self, metric: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.metric == metric)
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.get(metric).map(Row::value)
    }

    /// Insert or replace.
    fn put(&mut self, row: Row) {
        match self.rows.iter_mut().find(|r| r.metric == row.metric) {
            Some(slot) => *slot = row,
            None => self.rows.push(row),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run one child of this executable and fold what it printed into
/// `outcome`. A child that dies without reporting counts as one failed
/// operation.
fn run_child(mode: &str, opts: &Options, outcome: &mut Outcome, setups: &mut Vec<f64>) {
    let w = outcome.workload;
    let exe = std::env::current_exe().expect("own executable path");
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--spawned-at-ns", &spawned_at.to_string()]);
    match opts.budget(w) {
        Budget::Rounds(n) => cmd.args(["--rounds", &n.to_string()]),
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    if opts.poison {
        cmd.arg("--poison-reference");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn the workload child");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut reported = false;
    for line in text.lines() {
        let Some(row) = Row::parse(line, w.name()) else {
            println!("{line}");
            continue;
        };
        match row.metric.as_str() {
            "ops.attempted" => {
                outcome.attempted += row.value() as u64;
                reported = true;
            }
            "ops.failed" => outcome.failed += row.value() as u64,
            "setup_s" => setups.push(row.value()),
            _ => outcome.put(row),
        }
    }
    if !reported {
        eprintln!(
            "FAILED {}: the {mode} child ended without a report ({})",
            w.name(),
            output.status
        );
        outcome.attempted += 1;
        outcome.failed += 1;
    }
}

/// FNV-1a over `metric=value;` of every deterministic row, in table
/// order: one number that must not move when a change only speeds the
/// simulator up.
fn virtual_fingerprint(outcome: &Outcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for def in METRICS.iter().filter(|m| m.clock == Clock::Virtual) {
        if let Some(row) = outcome.get(def.name) {
            for b in format!("{}={};", row.metric, row.text).bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

/// Metrics that need numbers from more than one child.
fn derive(outcome: &mut Outcome, setups: &[f64], trace: bool) {
    if !setups.is_empty() {
        let samples: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
        outcome.put(with_note(
            real("setup_s", median(setups)),
            format!(
                "median of n={} set-ups: {}",
                setups.len(),
                samples.join(" ")
            ),
        ));
    }
    if !trace {
        return;
    }
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    if let Some(x) = ratio(
        outcome.value("host_ms.ccl").map(|ms| ms * 1e3),
        outcome.value("simnet.msgs"),
    ) {
        outcome.put(with_note(
            real("simnet.host_us_per_msg", x),
            "host_ms.ccl / simnet.msgs".to_string(),
        ));
    }
    if let Some(x) = ratio(
        outcome.value("host_ms.none"),
        outcome.value("apps.serial_ref_host_ms"),
    ) {
        outcome.put(with_note(
            real("core.sim_slowdown_x", x),
            "host_ms.none / apps.serial_ref_host_ms".to_string(),
        ));
    }
    if let Some(x) = ratio(
        outcome.value("bench.traced_round_host_ms"),
        outcome.value("bench.untraced_round_host_ms"),
    ) {
        outcome.put(with_note(
            real("bench.trace_overhead_pct", (x - 1.0) * 100.0),
            "traced core.run_program spans against the untraced medians".to_string(),
        ));
    }
    outcome.put(count("core.ops_failed", outcome.failed));
    let fp = virtual_fingerprint(outcome);
    // 48 bits survive a JSON number exactly; the note keeps all 64.
    outcome.put(with_note(
        count("bench.virtual_fp", fp & ((1 << 48) - 1)),
        format!("low 48 bits of {fp:#018x}"),
    ));
}

/// Warn, never fail: at seed 0 the paper workloads must tell the same
/// story as the committed report until a later PR merges the pipelines.
fn check_against_report(outcome: &Outcome) {
    let Some(paper) = outcome.workload.paper() else {
        return;
    };
    let Some(report) = std::fs::read_to_string("REPORT_paper.json")
        .ok()
        .and_then(|text| obsv::json::parse(&text).ok())
    else {
        println!("# consistency: REPORT_paper.json not readable, check skipped");
        return;
    };
    let app = report.get("apps").and_then(|a| a.get(paper.app.name()));
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(app?, |node, key| node.get(key))
            .and_then(Json::as_f64)
    };
    let checks: [(&str, &[&str], f64); 7] = [
        ("exec_ms.none", &["runs", "none", "exec_ns"], 1e6),
        ("exec_ms.ml", &["runs", "ml", "exec_ns"], 1e6),
        ("exec_ms.ccl", &["runs", "ccl", "exec_ns"], 1e6),
        (
            "log_mb.ml",
            &["runs", "ml", "log_bytes"],
            (1u64 << 20) as f64,
        ),
        (
            "log_mb.ccl",
            &["runs", "ccl", "log_bytes"],
            (1u64 << 20) as f64,
        ),
        ("recovery_ms.ml", &["recovery", "ml_ns"], 1e6),
        ("recovery_ms.ccl", &["recovery", "ccl_ns"], 1e6),
    ];
    let mut mismatches = 0;
    for (metric, path, scale) in checks {
        let (Some(row), Some(committed)) = (outcome.get(metric), field(path)) else {
            continue;
        };
        let committed = format!("{:.6}", committed / scale);
        if row.text != committed {
            mismatches += 1;
            println!(
                "# WARNING consistency: {} {metric} is {} here but {committed} in REPORT_paper.json",
                outcome.workload.name(),
                row.text
            );
        }
    }
    if mismatches == 0 {
        println!(
            "# consistency: {} agrees with REPORT_paper.json ({})",
            outcome.workload.name(),
            paper.app.name()
        );
    }
}

/// Run one workload: set-up samples, the timed child, and (with
/// `trace`) the traced child.
pub fn run_workload(w: Workload, opts: &Options) -> Outcome {
    let mut outcome = Outcome {
        workload: w,
        rows: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut setups = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        run_child("setup", opts, &mut outcome, &mut setups);
    }
    run_child("timed", opts, &mut outcome, &mut setups);
    if opts.trace {
        run_child("traced", opts, &mut outcome, &mut setups);
    }
    derive(&mut outcome, &setups, opts.trace);
    for def in METRICS {
        if let Some(row) = outcome.get(def.name) {
            println!("{}", row.line(w.name()));
        }
    }
    for row in outcome
        .rows
        .iter()
        .filter(|r| metrics::lookup(&r.metric).is_none())
    {
        println!("{}", row.line(w.name()));
    }
    println!(
        "{}",
        Row::aux("ops.attempted", outcome.attempted.to_string(), "count").line(w.name())
    );
    println!(
        "{}",
        Row::aux("ops.failed", outcome.failed.to_string(), "count").line(w.name())
    );
    if opts.seed == 0 {
        check_against_report(&outcome);
    }
    outcome
}

/// The contract's result line for one workload, or what is missing.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let wanted: Vec<&MetricDef> = METRICS
        .iter()
        .filter(|m| m.bound.is_none() == trace)
        .collect();
    let rows: Vec<&Row> = wanted.iter().filter_map(|m| outcome.get(m.name)).collect();
    if rows.len() != wanted.len() && outcome.correct() {
        let missing: Vec<&str> = wanted
            .iter()
            .filter(|m| outcome.get(m.name).is_none())
            .map(|m| m.name)
            .collect();
        return Err(format!("metrics missing from the run: {missing:?}"));
    }
    Ok(metrics::result_json(
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        &rows,
    ))
}

fn print_host(host: &HostInfo, opts: &Options) {
    println!(
        "# host: nproc {} | {} | {} | commit {}",
        host.nproc, host.cpu_model, host.rustc, host.git_commit
    );
    println!(
        "# seed {} | rounds {} | load average at start {:.2}",
        opts.seed,
        match (opts.rounds, opts.seconds) {
            (Some(n), _) => format!("{n}"),
            (None, Some(s)) => format!("as many as fit in {s} s"),
            (None, None) => "per workload table".to_string(),
        },
        sys::load_avg()
    );
}

fn suite(opts: &Options) -> Vec<Outcome> {
    let workloads = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    workloads
        .into_iter()
        .map(|w| {
            eprintln!("[benchmark] {} ...", w.name());
            run_workload(w, opts)
        })
        .collect()
}

fn outcomes_json(set: &[Outcome]) -> Json {
    let mut doc = Json::obj();
    for outcome in set {
        let mut o = Json::obj();
        o.set("attempted", Json::from_u64(outcome.attempted));
        o.set("failed", Json::from_u64(outcome.failed));
        let mut m = Json::obj();
        for row in &outcome.rows {
            let mut cell = Json::obj();
            cell.set("value", Json::Num(row.value()));
            cell.set("unit", Json::Str(row.unit.clone()));
            if !row.note.is_empty() {
                cell.set("note", Json::Str(row.note.clone()));
            }
            m.set(&row.metric, cell);
        }
        o.set("metrics", m);
        doc.set(outcome.workload.name(), o);
    }
    doc
}

/// `benchmark/out/results.json`: where and how the numbers were taken,
/// and every row of every set.
fn write_results(host: &HostInfo, opts: &Options, loads: (f64, f64), sets: &[Vec<Outcome>]) {
    let mut doc = Json::obj();
    doc.set("nproc", Json::from_u64(host.nproc as u64));
    doc.set("cpu_model", Json::Str(host.cpu_model.clone()));
    doc.set("rustc", Json::Str(host.rustc.clone()));
    doc.set("git_commit", Json::Str(host.git_commit.clone()));
    doc.set("seed", Json::from_u64(opts.seed));
    doc.set(
        "rounds",
        opts.rounds.map_or(Json::Null, |n| Json::from_u64(n as u64)),
    );
    doc.set("seconds", opts.seconds.map_or(Json::Null, Json::Num));
    doc.set("load_avg_start", Json::Num(loads.0));
    doc.set("load_avg_end", Json::Num(loads.1));
    doc.set(
        "sets",
        Json::Arr(sets.iter().map(|s| outcomes_json(s)).collect()),
    );
    let path = "benchmark/out/results.json";
    let written =
        std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(path, doc.pretty()));
    match written {
        Ok(()) => println!("# results written to {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// The default command: every metric of the chosen workloads; the
/// contract's JSON line last when exactly one workload was asked for.
pub fn run(opts: &Options) -> i32 {
    let host = HostInfo::collect();
    print_host(&host, opts);
    let load_start = sys::load_avg();
    let set = suite(opts);
    let load_end = sys::load_avg();
    println!("# load average at end {load_end:.2}");
    let failed: u64 = set.iter().map(|o| o.failed).sum();
    let attempted: u64 = set.iter().map(|o| o.attempted).sum();
    let mut code = if failed == 0 { 0 } else { 1 };
    if opts.workload.is_none() {
        write_results(&host, opts, (load_start, load_end), &[set]);
        println!("# operations attempted {attempted}, failed {failed}");
    } else {
        match result_line(&set[0], opts.trace) {
            Ok(line) => println!("{line}"),
            Err(why) => {
                eprintln!("error: {why}");
                code = 1;
            }
        }
    }
    code
}

/// One compared metric of `--agree`.
struct Agreement {
    line: String,
    ok: bool,
}

fn compare(def: &MetricDef, w: Workload, a: &Row, b: &Row) -> Agreement {
    let (x, y) = (a.value(), b.value());
    let rel = if x != 0.0 { (y - x) / x } else { y - x };
    let (rule, ok) = match (def.clock, def.bound) {
        (Clock::Virtual, _) => ("must be identical".to_string(), a.text == b.text),
        (Clock::Host, Some(bound)) => (format!("bound {:.1}%", bound * 100.0), rel.abs() <= bound),
        (Clock::Host, None) => ("per-layer, not gated".to_string(), true),
    };
    Agreement {
        line: format!(
            "{} {} {} vs {} {} ({:+.3}%, {rule}){}",
            w.name(),
            def.name,
            a.text,
            b.text,
            a.unit,
            rel * 100.0,
            if ok { "" } else { "  <-- DISAGREES" }
        ),
        ok,
    }
}

/// `--agree`: the whole suite twice on one build. Every virtual metric
/// must repeat exactly and every host end-to-end metric within its bound.
pub fn agree(opts: &Options) -> i32 {
    let host = HostInfo::collect();
    print_host(&host, opts);
    let load_start = sys::load_avg();
    println!("# --agree: first set");
    let first = suite(opts);
    println!("# --agree: second set");
    let second = suite(opts);
    let load_end = sys::load_avg();

    println!("# --agree: second set against the first, relative difference and rule");
    let mut disagreements = 0;
    for (a, b) in first.iter().zip(&second) {
        for def in METRICS {
            // Load and the hash of the virtual rows are not quantities.
            if matches!(def.name, "bench.load_avg" | "bench.virtual_fp") {
                continue;
            }
            if let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) {
                let agreement = compare(def, a.workload, x, y);
                println!("{}", agreement.line);
                disagreements += !agreement.ok as u32;
            }
        }
        let (fa, fb) = (virtual_fingerprint(a), virtual_fingerprint(b));
        let same = fa == fb;
        println!(
            "{} bench.virtual_fp {fa:#018x} vs {fb:#018x} ({}){}",
            a.workload.name(),
            if same { "identical" } else { "differ" },
            if same { "" } else { "  <-- DISAGREES" }
        );
        disagreements += !same as u32;
    }
    let failed: u64 = first.iter().chain(&second).map(|o| o.failed).sum();
    println!(
        "# load average at start {load_start:.2}, at end {load_end:.2}; \
         {disagreements} disagreements, {failed} failed operations"
    );
    write_results(&host, opts, (load_start, load_end), &[first, second]);
    if disagreements == 0 && failed == 0 {
        println!("# --agree: PASS");
        0
    } else {
        println!("# --agree: FAIL");
        1
    }
}
