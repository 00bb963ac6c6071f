//! Weather prediction on the DSM: the NCAR shallow-water kernel, the
//! workload the paper's intro motivates (long-running scientific codes
//! that cannot afford to restart from scratch on a failure).
//!
//! Runs the same forecast twice — without fault tolerance and with CCL —
//! and reports what the protection costs.
//!
//! Run with: `cargo run --release --example weather_shallow`

use ccl_apps::shallow::{reference_digest, run, ShallowConfig};
use ccl_core::{run_program, ClusterSpec, Protocol};

fn main() {
    let cfg = ShallowConfig { n: 64, steps: 8 };
    let nodes = 4;
    let pages = cfg.shared_pages(4096) + 4;

    println!(
        "== shallow-water forecast: {}x{} grid, {} steps, {} nodes ==",
        cfg.n, cfg.n, cfg.steps, nodes
    );

    let expect = reference_digest(&cfg);
    let mut baseline = None;
    for protocol in [Protocol::None, Protocol::Ml, Protocol::Ccl] {
        let spec = ClusterSpec::new(nodes, pages).with_protocol(protocol);
        let out = run_program(spec, move |dsm| run(dsm, &cfg));
        let t = out.exec_time();
        let base = *baseline.get_or_insert(t);
        let overhead = 100.0 * (t.as_secs_f64() / base.as_secs_f64() - 1.0);
        println!(
            "{:>14}: exec {:>10}  (+{overhead:5.1}% vs none)  log {:>9} bytes in {:>4} flushes",
            protocol.label(),
            format!("{t}"),
            out.total_log_bytes(),
            out.total_log_flushes(),
        );
        // Physics unaffected by the logging protocol:
        for n in &out.nodes {
            assert_eq!(
                n.result,
                expect,
                "{}: node {} diverged from the serial forecast",
                protocol.label(),
                n.node
            );
        }
    }
    println!("forecast digests match the serial reference under every protocol.");
}
