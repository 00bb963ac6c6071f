//! blame — "why is my run slow?", as a command.
//!
//! ```console
//! $ cargo run --release -p obsv --bin blame               # paper scale
//! $ cargo run --release -p obsv --bin blame -- --smoke    # tiny matrix
//! ```
//!
//! Runs every application under every failure-free protocol of the
//! `report` matrix at the chosen scale, plus its mid-run crashes, and
//! renders the blame engine's analysis of each run: the virtual-time
//! blame path (an exact partition of the makespan), the most-blamed
//! coherence objects, the per-barrier straggler table, the per-object
//! log-byte split, and the recovery window's share of the makespan.
//!
//! Flags:
//!
//! * `--smoke`        the 4-node tiny matrix instead of the paper's.
//! * `--out PATH`     write the full blame JSON document to `PATH`.
//! * `--chrome PATH`  export the Water/CCL run as a Chrome trace with
//!   the blame path highlighted (open at <https://ui.perfetto.dev>).
//!
//! This is a diagnostic printer, not a gate: the `report` goldens pin
//! a hash of each of these documents (`blame_fp`; the 3D-FFT page-size
//! sweep's too, which this command does not rerun), and when one moves
//! this command shows the document behind it (`--out` at the parent and
//! at the change, then diff). Every run still goes through
//! `checked_analysis`: blame-path segment durations must sum to exactly
//! `exec_ns`, per-object log attribution must sum to exactly the run's
//! total log bytes, and no trace event may have been dropped.
//!
//! Exit status: 0 on success, 2 on a broken invariant, usage or I/O
//! error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ccl_apps::App;
use ccl_core::Protocol;
use obsv::blame::{blame_json, checked_analysis, Blame, SCHEMA};
use obsv::json::Json;
use obsv::report::{failure_free, Scale, CRASHED, CRASH_FRACTION};

struct Args {
    scale: Scale,
    out: Option<PathBuf>,
    chrome: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Paper,
        out: None,
        chrome: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.scale = Scale::Smoke,
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--chrome" => {
                args.chrome = Some(PathBuf::from(it.next().ok_or("--chrome needs a path")?))
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn summarize(label: &str, blame: &Blame) {
    let pct = |ns: u64| 100.0 * ns as f64 / blame.exec_ns.max(1) as f64;
    let waits = blame.cp_wait_by_class();
    let class = |c: &str| waits.get(c).copied().unwrap_or(0);
    let top = blame
        .top_object()
        .map(|o| o.key())
        .unwrap_or_else(|| "-".to_string());
    println!(
        "| {label} | `{top}` | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
        pct(blame.cp_compute_ns() + blame.cp_recovery_ns()),
        pct(class("page")),
        pct(class("lock")),
        pct(class("barrier")),
        pct(class("flush")),
    );
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let scale = args.scale;
    eprintln!(
        "blaming the {} matrix ({} nodes, {} apps x {} protocols + crash runs)...",
        scale.label(),
        scale.nodes(),
        App::ALL.len(),
        failure_free().count(),
    );

    let mut doc = Json::obj();
    doc.set("schema", Json::Str(SCHEMA.to_string()));
    doc.set("scale", Json::Str(scale.label().to_string()));
    let mut runs = Json::obj();
    println!("| Run | Top blamed object | Compute | Page | Lock | Barrier | Flush-ack |");
    println!("|---|---|---|---|---|---|---|");
    for app in App::ALL {
        let mut barriers = 0;
        for protocol in failure_free() {
            let label = format!("{}/{}", app.name(), protocol.label());
            let out = scale.run(app, protocol);
            if protocol == Protocol::None {
                barriers = out.nodes[1].stats.barriers;
            }
            let blame = checked_analysis(&label, &out)?;
            summarize(&label, &blame);
            runs.set(&label, blame_json(&blame, &label));
        }
        // One mid-run crash per `report` crash protocol: the recovery
        // window's share of the makespan is part of the blame story.
        let at = ccl_bench::crash_point(barriers, CRASH_FRACTION);
        for protocol in CRASHED {
            let label = format!("{}/{}/crash", app.name(), protocol.label());
            let out = scale.run_with_crash(app, protocol, at);
            let blame = checked_analysis(&label, &out)?;
            summarize(&label, &blame);
            runs.set(&label, blame_json(&blame, &label));
        }
    }
    doc.set("runs", runs);
    let text = doc.pretty();

    if let Some(out) = &args.out {
        write(out, &text)?;
        eprintln!("blame document written to {}", out.display());
    }
    if let Some(chrome) = &args.chrome {
        eprintln!("exporting blamed Water/CCL chrome trace...");
        let out = scale.run(App::Water, Protocol::Ccl);
        let label = format!("Water/ccl ({})", scale.label());
        let blame = checked_analysis(&label, &out)?;
        write(
            chrome,
            &obsv::chrome::chrome_trace_blamed(&out, &label, &blame),
        )?;
        eprintln!(
            "trace written to {} (open at https://ui.perfetto.dev)",
            chrome.display()
        );
    }

    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("blame: {msg}");
            ExitCode::from(2)
        }
    }
}
