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
//! silently shifting the paper's tables. The smoke golden includes the
//! chaos cells (lossy networks, partitions, crashes, two crashes, torn
//! and rotted logs), so this is also where recovery is proven to reach
//! the fault-free digest reproducibly. There is no second copy of any
//! number here: an intended change is re-blessed once, with `report
//! --bless`.

use ccl_apps::App;
use ccl_core::{ClusterSpec, Protocol};
use obsv::report::{chaos_cells, collect, compare, report_json, trace_fingerprint, Scale};
use obsv::Json;

fn golden(scale: Scale) -> Json {
    scale.load_golden().expect("committed golden")
}

/// The whole smoke matrix — 24 failure-free runs, 12 crash runs, 6
/// page-size runs and the 42 chaos cells, every field `report` emits —
/// matches its golden exactly; and `report`'s verdict on a golden with
/// one perturbed number, in a failure-free run or in a chaos cell,
/// names that number's path and nothing else.
#[test]
fn the_smoke_matrix_matches_its_golden() {
    let doc = report_json(&collect(Scale::Smoke).expect("blame invariants hold"));
    let golden = golden(Scale::Smoke);
    assert_eq!(compare(&doc, &golden), Vec::<String>::new());

    for path in [
        &["apps", "3D-FFT", "runs", "ccl", "exec_ns"][..],
        &["chaos", "Shallow/ccl/chaos1", "log_bytes"],
    ] {
        let mut perturbed = golden.clone();
        bump(&mut perturbed, path);
        let violations = compare(&doc, &perturbed);
        assert_eq!(violations.len(), 1, "{violations:?}");
        let named = format!("{}: ", path.join("."));
        assert!(violations[0].starts_with(&named), "{violations:?}");
    }
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
        for protocol in Protocol::ALL {
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

/// Same spec twice in one process → byte-identical observables (every
/// node's digest, time, log bytes, trace fingerprint, phases document
/// and blame document), independent of the golden capture: on one cell of
/// each kind — failure-free, network chaos with a crash, two crashes, a
/// torn log tail.
#[test]
fn repeated_runs_are_identical() {
    let scale = Scale::Smoke;
    let (app, protocol) = (App::Fft3d, Protocol::Ccl);
    let mut runs = vec![("3D-FFT/ccl".to_string(), app, scale.spec(app, protocol))];
    let mut cells = chaos_cells(scale);
    for label in ["Shallow/ccl/chaos0", "Water/ccl/sequential", "MG/ml/torn"] {
        let at = cells.iter().position(|c| c.label == label);
        let cell = cells.swap_remove(at.unwrap_or_else(|| panic!("no chaos cell {label}")));
        runs.push((cell.label, cell.app, cell.spec));
    }
    let observe = |label: &str, app: App, spec: &ClusterSpec| {
        let out = scale.run_spec(app, spec.clone());
        let digests: Vec<u64> = out.nodes.iter().map(|n| n.result).collect();
        let blame = obsv::blame_json(&obsv::analyze(&out), label).pretty();
        let times = (
            out.exec_time(),
            out.total_log_bytes(),
            trace_fingerprint(&out),
        );
        let phases = obsv::phases_json(&out, spec, label).compact();
        (digests, times, phases, blame)
    };
    for (label, app, spec) in runs {
        let a = observe(&label, app, &spec);
        let b = observe(&label, app, &spec);
        assert_eq!(a.0, b.0, "{label}: digests");
        assert_eq!(a.1, b.1, "{label}: exec time, log bytes, trace fingerprint");
        assert!(a.2 == b.2, "{label}: phases document differs");
        assert!(a.3 == b.3, "{label}: blame document differs");
    }
}
