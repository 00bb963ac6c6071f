//! Cross-crate integration: the four paper applications run on the DSM
//! cluster and must produce *bit-identical* results to their serial
//! references, on every node, under every logging protocol.

use ccl_apps::App;
use ccl_core::{run_program, ClusterSpec, CrashPlan, Protocol};

fn tiny_spec(app: App, nodes: usize, protocol: Protocol) -> ClusterSpec {
    tiny_spec_at(app, nodes, protocol, 256)
}

fn tiny_spec_at(app: App, nodes: usize, protocol: Protocol, page: usize) -> ClusterSpec {
    ClusterSpec::new(nodes, app.tiny_pages(page) + 4)
        .with_page_size(page)
        .with_protocol(protocol)
}

fn check_app(app: App, nodes: usize, protocol: Protocol) {
    check_app_at(app, nodes, protocol, 256);
}

fn check_app_at(app: App, nodes: usize, protocol: Protocol, page: usize) {
    let expect = app.tiny_reference();
    let out = run_program(tiny_spec_at(app, nodes, protocol, page), move |dsm| {
        app.run_tiny(dsm)
    });
    for n in &out.nodes {
        assert_eq!(
            n.result,
            expect,
            "{} with {:?} on {} nodes at {} B pages: node {} digest mismatch",
            app.name(),
            protocol,
            nodes,
            page,
            n.node
        );
    }
}

#[test]
fn fft3d_matches_reference_no_logging() {
    check_app(App::Fft3d, 4, Protocol::None);
}

#[test]
fn mg_matches_reference_no_logging() {
    check_app(App::Mg, 4, Protocol::None);
}

#[test]
fn shallow_matches_reference_no_logging() {
    check_app(App::Shallow, 4, Protocol::None);
}

/// Tiny Shallow (16 rows) on 7 nodes gives 3 rows a node, so node 6
/// owns none: it builds an empty slice of the initial field, computes
/// nothing and still takes part in every barrier. The run matches the
/// serial reference under every protocol and across a crash of node 1.
#[test]
fn shallow_with_a_node_that_owns_no_rows_matches_reference() {
    let app = App::Shallow;
    for protocol in Protocol::ALL {
        check_app(app, 7, protocol);
    }
    let spec = tiny_spec(app, 7, Protocol::Ccl).with_crash(CrashPlan::new(1, 5));
    let out = run_program(spec, move |dsm| app.run_tiny(dsm));
    assert!(out.recovery_time().is_some(), "node 1 recovered");
    for n in &out.nodes {
        assert_eq!(
            n.result,
            app.tiny_reference(),
            "node {} after the crash",
            n.node
        );
    }
}

#[test]
fn water_matches_reference_no_logging() {
    check_app(App::Water, 4, Protocol::None);
}

/// Shallow and MG move whole grid rows and 3D-FFT whole z-runs, one
/// access check per page. At these page sizes a row or run spans
/// several pages (tiny Shallow's rows are 128 B, tiny MG's 64 B fine
/// and 32 B coarse, tiny 3D-FFT's z-runs 64 B; at 64 B a z-run is
/// exactly one page), so a slice call no longer faults in the
/// per-element loop's order — but the digest must still be the serial
/// one.
#[test]
fn rows_that_straddle_pages_match_reference() {
    for (app, page) in [
        (App::Shallow, 32),
        (App::Shallow, 64),
        (App::Mg, 16),
        (App::Mg, 32),
        (App::Fft3d, 16),
        (App::Fft3d, 32),
        (App::Fft3d, 64),
    ] {
        for protocol in [Protocol::None, Protocol::Ccl] {
            check_app_at(app, 4, protocol, page);
        }
    }
}

#[test]
fn all_apps_match_reference_under_ml() {
    for app in App::ALL {
        check_app(app, 4, Protocol::Ml);
    }
}

#[test]
fn all_apps_match_reference_under_ccl() {
    for app in App::ALL {
        check_app(app, 4, Protocol::Ccl);
    }
}

#[test]
fn apps_scale_to_eight_nodes() {
    for app in App::ALL {
        check_app(app, 8, Protocol::Ccl);
    }
}

#[test]
fn apps_run_on_two_nodes() {
    for app in App::ALL {
        check_app(app, 2, Protocol::Ml);
    }
}

#[test]
fn logging_never_changes_results() {
    // The same program must produce the same digest regardless of the
    // logging protocol (logging is supposed to be transparent).
    for app in App::ALL {
        let digests: Vec<u64> = Protocol::ALL
            .map(|p| {
                run_program(tiny_spec(app, 4, p), move |dsm| app.run_tiny(dsm)).nodes[0].result
            })
            .to_vec();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{}: digests differ across protocols: {digests:?}",
            app.name()
        );
    }
}

#[test]
fn single_node_degenerate_cluster_matches() {
    // A one-node "cluster" exercises the degenerate protocol paths
    // (every page home-local, manager talking to itself).
    for app in App::ALL {
        check_app(app, 1, Protocol::Ccl);
    }
}
