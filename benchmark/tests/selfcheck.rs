//! Tests of the benchmark itself, through its executable: a wrong output
//! is caught and turns into a non-zero exit, a good run prints the
//! contract's JSON line, and `BENCHMARK.json` is what the metric table
//! generates.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccl-benchmark"))
        .args(args)
        // Children write `benchmark/out/` relative to the repo root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark executable")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// `water-matrix` is the cheapest workload: 0.2 s a round.
const QUICK: [&str; 6] = [
    "--workload",
    "water-matrix",
    "--rounds",
    "1",
    "--trace",
    "0",
];

#[test]
fn a_wrong_reference_digest_fails_every_operation_and_the_exit_code() {
    let out = bench(&[&QUICK[..], &["--poison-reference"]].concat());
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": "),
        "{line}"
    );
    assert!(!line.contains("\"failed\": 0,"), "{line}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("differs from the serial reference"),
        "{stderr}"
    );
}

#[test]
fn a_good_run_ends_with_every_end_to_end_metric() {
    let out = bench(&[&QUICK[..], &["--seed", "7"]].concat());
    assert_eq!(out.status.code(), Some(0));
    let line = last_line(&out);
    let parsed = obsv::json::parse(&line).expect("the last line is JSON");
    let keys: Vec<&str> = parsed
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("failed").and_then(|f| f.as_f64()), Some(0.0));
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let contract = obsv::json::parse(&contract).expect("BENCHMARK.json is JSON");
    let metrics = parsed.get("metrics").expect("metrics");
    let wanted = contract.get("end_to_end").and_then(|e| e.as_arr()).unwrap();
    assert_eq!(metrics.as_obj().unwrap().len(), wanted.len());
    for m in wanted {
        let name = m.get("name").and_then(|n| n.as_str()).unwrap();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(got.get("unit"), m.get("unit"), "{name}");
        let value = got.get("value").and_then(|v| v.as_f64()).unwrap();
        assert!(value > 0.0, "{name} must never be 0");
    }
}

#[test]
fn benchmark_json_is_generated_from_the_metric_table() {
    let out = bench(&["--contract"]);
    assert!(out.status.success());
    let committed = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    assert!(
        out.stdout == committed,
        "regenerate: benchmark/run.sh --contract > BENCHMARK.json"
    );
}
