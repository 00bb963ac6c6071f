//! The paper-artifact report pipeline, as a command — the one `obsv`
//! binary.
//!
//! ```console
//! $ cargo run --release -p obsv --bin report              # check
//! $ cargo run --release -p obsv --bin report -- --bless   # after an intended change
//! ```
//!
//! Runs the smoke matrix (4 nodes, its chaos cells included, ~0.2 s)
//! and the paper matrix (8 nodes, ~13 s) and checks each against its
//! committed golden — `crates/obsv/smoke_baseline.json` and
//! `REPORT_paper.json` — field by field, exactly; then checks that the
//! tables in `EXPERIMENTS.md` between the `<!-- report:* -->` markers
//! are the ones the paper matrix renders. Without flags it writes
//! nothing.
//!
//! Flags:
//!
//! * `--bless`        rewrite both goldens and the `EXPERIMENTS.md`
//!   tables from this run instead of checking them.
//! * `--out PATH`     also write the paper-scale report document to
//!   `PATH`.
//! * `--blame DIR`    also write the full blame document of every run
//!   to `DIR/smoke.json` and `DIR/paper.json`, keyed by the labels
//!   whose `blame_fp` the goldens pin, and the phases document behind
//!   every `phases_fp` to `DIR/smoke.phases.json` and
//!   `DIR/paper.phases.json`, keyed by the same labels: when a hash
//!   moves, write them at the parent and at the change, then diff.
//! * `--trace PATH`   also export the paper-scale 3D-FFT/CCL run as a
//!   Chrome-trace file loadable at <https://ui.perfetto.dev>, its blame
//!   path highlighted.
//!
//! Exit status: 0 on success; 1 if a number, a key or a table differs
//! (the first line names the first differing JSON path), a trace was
//! truncated, a blame invariant broke or a run ended on the wrong
//! digest; 2 on usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ccl_apps::App;
use ccl_core::Protocol;
use obsv::report::{compare, report_json, splice_tables, Report, Scale};

struct Args {
    bless: bool,
    out: Option<PathBuf>,
    blame: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bless: false,
        out: None,
        blame: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut path = |flag: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or(format!("{flag} needs a path"))
        };
        match a.as_str() {
            "--bless" => args.bless = true,
            "--out" => args.out = Some(path("--out")?),
            "--blame" => args.blame = Some(path("--blame")?),
            "--trace" => args.trace = Some(path("--trace")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run the matrix at `scale` and check (or, with `bless`, rewrite) its
/// golden, and write its blame and phases documents if `--blame` asked
/// for them.
/// `None` if a run broke a blame invariant or ended on the wrong digest.
fn gate_scale(
    scale: Scale,
    args: &Args,
    failures: &mut Vec<String>,
) -> Result<Option<Report>, String> {
    let chaos = if scale == Scale::Smoke {
        ", chaos cells"
    } else {
        ""
    };
    eprintln!(
        "collecting the {} matrix ({} nodes, {} apps x {} protocols + crash runs, \
         page-size sweep{chaos})...",
        scale.label(),
        scale.nodes(),
        App::ALL.len(),
        Protocol::ALL.len(),
    );
    let report = match obsv::collect(scale) {
        Ok(report) => report,
        Err(broken) => {
            failures.push(broken);
            return Ok(None);
        }
    };
    let path = scale.golden_path();
    let file = path.file_name().unwrap_or_default().to_string_lossy();
    let doc = report_json(&report);
    if args.bless {
        write(&path, &doc.pretty())?;
        eprintln!("blessed {file}");
    } else {
        let violations = compare(&doc, &scale.load_golden()?);
        if violations.is_empty() {
            eprintln!("the {} matrix matches {file}", scale.label());
        }
        failures.extend(violations.into_iter().map(|v| format!("{file}: {v}")));
    }
    if let Some(dir) = &args.blame {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", scale.label()));
        write(&path, &report.blame.pretty())?;
        let phases = dir.join(format!("{}.phases.json", scale.label()));
        write(&phases, &report.phases.pretty())?;
        eprintln!(
            "blame and phases documents written to {} and {}",
            path.display(),
            phases.display()
        );
    }
    Ok(Some(report))
}

/// Check (or, with `bless`, rewrite) the report tables in
/// `EXPERIMENTS.md` against the paper-scale `report`.
fn gate_tables(report: &Report, bless: bool, failures: &mut Vec<String>) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let (spliced, changed) = splice_tables(&text, report)?;
    if changed.is_empty() {
        eprintln!("the EXPERIMENTS.md tables match the paper matrix");
    } else if bless {
        write(&path, &spliced)?;
        eprintln!("regenerated {changed:?} in EXPERIMENTS.md");
    } else {
        failures.extend(changed.iter().map(|name| {
            format!("EXPERIMENTS.md: the table between the report:{name} markers is stale")
        }));
    }
    Ok(())
}

fn run() -> Result<Vec<String>, String> {
    let args = parse_args()?;
    let mut failures = Vec::new();
    gate_scale(Scale::Smoke, &args, &mut failures)?;
    let Some(report) = gate_scale(Scale::Paper, &args, &mut failures)? else {
        return Ok(failures);
    };
    gate_tables(&report, args.bless, &mut failures)?;
    if let Some(out) = &args.out {
        write(out, &report_json(&report).pretty())?;
        eprintln!("report written to {}", out.display());
    }
    if let Some(trace_path) = &args.trace {
        let run = Scale::Paper.run(App::Fft3d, Protocol::Ccl);
        let blame = obsv::analyze(&run);
        write(
            trace_path,
            &obsv::chrome::chrome_trace_blamed(&run, "3D-FFT/ccl (paper)", &blame),
        )?;
        eprintln!(
            "trace written to {} (open at https://ui.perfetto.dev)",
            trace_path.display()
        );
    }
    Ok(failures)
}

fn main() -> ExitCode {
    match run() {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!("report FAILED ({} difference(s)):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            eprintln!("(if the change is intended, rerun with --bless and commit the result)");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("report: {msg}");
            ExitCode::from(2)
        }
    }
}
