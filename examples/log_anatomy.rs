//! Log anatomy: run one small producer/consumer exchange under every
//! logging protocol and show exactly what reached stable storage — the
//! concrete version of the paper's Table 2 argument.
//!
//! Run with: `cargo run --example log_anatomy`

use ccl_core::{run_program, ClusterSpec, Dsm, Protocol};

fn exchange(dsm: &mut Dsm) -> u64 {
    let a = dsm.alloc_blocked::<u64>(128); // one 4 KB page per node... scaled by spec
    let me = dsm.me();
    // Round 1: node 0 writes a remote page, everyone reads it.
    if me == 0 {
        dsm.write(&a, 96, 7); // page homed at the last node
    }
    dsm.barrier();
    let v = dsm.read(&a, 96);
    dsm.barrier();
    // Round 2: a lock-protected increment chain.
    dsm.acquire(1);
    let c = dsm.read(&a, 0);
    dsm.write(&a, 0, c + v);
    dsm.release(1);
    dsm.barrier();
    let total = dsm.read(&a, 0);
    dsm.barrier();
    total
}

fn main() {
    println!("== what each protocol logs for one tiny exchange (4 nodes) ==");
    println!();
    println!(
        "{:<28} {:>12} {:>10} {:>14} {:>14}",
        "protocol", "log bytes", "flushes", "mean flush B", "exec"
    );
    println!("{:-<84}", "");
    for protocol in Protocol::ALL {
        let spec = ClusterSpec::new(4, 8).with_protocol(protocol);
        let out = run_program(spec, exchange);
        assert!(out.nodes.windows(2).all(|w| w[0].result == w[1].result));
        println!(
            "{:<28} {:>12} {:>10} {:>14.0} {:>14}",
            protocol.label(),
            out.total_log_bytes(),
            out.total_log_flushes(),
            out.mean_log_bytes(),
            format!("{}", out.exec_time()),
        );
    }
    println!("{:-<84}", "");
    println!();
    println!("ML's log dwarfs CCL's because it contains the full 4 KB page copies");
    println!("the readers fetched; CCL keeps only notices, update records and the");
    println!("writers' diffs. Both logs are enough to rebuild a crashed node's");
    println!("home-based memory image: ML replays the copies it logged, while CCL");
    println!("refetches pages from their homes and diffs from their writers' logs.");
}
