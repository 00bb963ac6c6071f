//! Golden determinism contract: runs are bit-reproducible, and the
//! committed goldens are what they reproduce.
//!
//! The simulator is deterministic by construction, which is what makes
//! every reported number (Tables 1–2, the figures) reviewable. These
//! tests hold tier-1 (`cargo test`) to the same two golden documents
//! the `report` binary checks — `crates/obsv/smoke_baseline.json` and
//! `REPORT_paper.json` — so any change to the hot path (diff kernel,
//! buffer pooling, shared payloads, codec sizing, fetch hiding) that
//! accidentally alters protocol behavior fails loudly instead of
//! silently shifting the paper's tables. There is no second copy of
//! any number here: an intended change is re-blessed once, with
//! `report --bless`.

use ccl_apps::App;
use ccl_core::Protocol;
use obsv::report::{collect, compare, report_json, trace_fingerprint, Scale};
use obsv::Json;

fn golden(scale: Scale) -> Json {
    scale.load_golden().expect("committed golden")
}

/// The whole smoke matrix — 12 failure-free runs, 8 crash runs, every
/// field `report` emits — matches its golden exactly; and `report`'s
/// verdict on a golden with one perturbed number names that number's
/// path first.
#[test]
fn fault_free_runs_match_goldens() {
    let doc = report_json(&collect(Scale::Smoke).expect("blame invariants hold"));
    let golden = golden(Scale::Smoke);
    assert_eq!(compare(&doc, &golden), Vec::<String>::new());

    let mut perturbed = golden.clone();
    bump(
        &mut perturbed,
        &["apps", "3D-FFT", "runs", "ccl", "exec_ns"],
    );
    let violations = compare(&doc, &perturbed);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0].starts_with("apps.3D-FFT.runs.ccl.exec_ns: "),
        "{violations:?}"
    );
}

/// Add one to the number at `path` — a temporary, doctored copy of a
/// golden.
fn bump(j: &mut Json, path: &[&str]) {
    match (j, path) {
        (Json::Num(n), []) => *n += 1.0,
        (Json::Obj(members), [key, rest @ ..]) => {
            let (_, child) = members
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no member {key}"));
            bump(child, rest)
        }
        (other, _) => panic!("cannot descend into {other:?}"),
    }
}

/// The paper-scale (8-node, 4 KiB pages) runs of lock-heavy Water and
/// of MG match the committed report exactly, trace fingerprint
/// included — the two workloads whose timing depended on physical
/// arrival order before the conservative virtual-time scheduler
/// (DESIGN.md §12).
#[test]
fn paper_scale_water_and_mg_match_goldens() {
    let golden = golden(Scale::Paper);
    for app in [App::Mg, App::Water] {
        for protocol in Protocol::TABLE2 {
            let label = format!("{}/{}", app.name(), protocol.label());
            let want = golden
                .get("apps")
                .and_then(|a| a.get(app.name()))
                .and_then(|a| a.get("runs"))
                .and_then(|r| r.get(protocol.label()))
                .unwrap_or_else(|| panic!("{label}: not in REPORT_paper.json"));
            let out = Scale::Paper.run(app, protocol);
            let got = [
                ("digest", Json::from_hex(out.nodes[0].result)),
                ("exec_ns", Json::from_u64(out.exec_time().as_nanos())),
                ("log_bytes", Json::from_u64(out.total_log_bytes())),
                ("trace_fp", Json::from_hex(trace_fingerprint(&out))),
            ];
            for (key, value) in got {
                assert_eq!(Some(&value), want.get(key), "{label}: {key} drifted");
            }
        }
    }
}

/// Same spec twice → byte-identical observables (run-to-run
/// determinism, independent of the golden capture).
#[test]
fn repeated_runs_are_identical() {
    let run = || Scale::Smoke.run(App::Fft3d, Protocol::Ccl);
    let (a, b) = (run(), run());
    assert_eq!(a.nodes[0].result, b.nodes[0].result);
    assert_eq!(a.exec_time(), b.exec_time());
    assert_eq!(a.total_log_bytes(), b.total_log_bytes());
    assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
}
