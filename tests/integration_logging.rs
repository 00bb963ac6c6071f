//! Logging-protocol integration: the failure-free properties Table 2
//! rests on — log contents, sizes, flush counts, and the CCL overlap —
//! measured on real application workloads.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccl_apps::App;
use ccl_core::{
    run_program, ClusterSpec, CostModel, CrashPlan, Dsm, LogObj, NodeOutput, Protocol, RunOutput,
    SimDuration, SimTime, TraceEvent, TraceKind,
};
use hlrc::Msg;
use pagemem::{Decode, Encode};

fn run_app(app: App, protocol: Protocol) -> RunOutput<u64> {
    let page = 256;
    let spec = ClusterSpec::new(4, app.tiny_pages(page) + 4)
        .with_page_size(page)
        .with_protocol(protocol);
    run_program(spec, move |dsm| app.run_tiny(dsm))
}

#[test]
fn ccl_log_is_fraction_of_ml_log() {
    // The paper's headline log-size result: CCL's total log is a small
    // fraction of ML's (4.5%-12.5% on the paper's workloads; we only
    // require a clear separation at test scale).
    for app in App::ALL {
        let ml = run_app(app, Protocol::Ml);
        let ccl = run_app(app, Protocol::Ccl);
        let ratio = ccl.total_log_bytes() as f64 / ml.total_log_bytes() as f64;
        assert!(
            ratio < 0.6,
            "{}: CCL/ML log ratio {ratio:.3} not clearly below 1 \
             (ccl={} ml={})",
            app.name(),
            ccl.total_log_bytes(),
            ml.total_log_bytes()
        );
    }
}

/// ML logs a page copy where it is consumed: each demand reply, and
/// each predicted copy at its first touch. On every node the page
/// records are exactly the fetches plus the prediction hits, so a
/// wasted prediction logs nothing; and a node that crashes after using
/// predictions replays those records into the reference digest.
#[test]
fn ml_logs_the_pages_it_reads_not_the_ones_it_is_shipped() {
    let app = App::Fft3d;
    let page_records = |node: &NodeOutput<u64>| {
        let page = |ev: &TraceEvent| {
            matches!(
                ev.kind,
                TraceKind::LogAppend {
                    obj: LogObj::Page { .. },
                    ..
                }
            )
        };
        node.trace.iter().filter(|ev| page(ev)).count() as u64
    };
    let out = run_app(app, Protocol::Ml);
    let total = out.total_stats();
    // No diff is logged (they would be page records too), and some
    // predictions were used and some wasted.
    assert_eq!(total.diffs_created, 0);
    assert!(total.prefetch_hits > 0 && total.prefetch_wasted > 0);
    for node in &out.nodes {
        let s = &node.stats;
        assert_eq!(
            page_records(node),
            s.page_fetches + s.prefetch_hits,
            "node {}: {} fetches, {} hits, {} wasted",
            node.node,
            s.page_fetches,
            s.prefetch_hits,
            s.prefetch_wasted
        );
    }

    let victim = 1;
    let spec = ClusterSpec::new(4, app.tiny_pages(256) + 4)
        .with_page_size(256)
        .with_protocol(Protocol::Ml)
        .with_crash(CrashPlan::new(victim, 4));
    let out = run_program(spec, move |dsm| app.run_tiny(dsm));
    let node = &out.nodes[victim];
    let crashed = node.crashed_at.expect("the crash was injected");
    let hits_before = node
        .trace
        .iter()
        .filter(|ev| matches!(ev.kind, TraceKind::PrefetchHit { .. }) && ev.at < crashed)
        .count();
    assert!(
        hits_before > 0,
        "the victim used no prediction before the crash"
    );
    assert!(out.recovery_time().is_some());
    for n in &out.nodes {
        assert_eq!(n.result, app.tiny_reference(), "node {} diverged", n.node);
    }
}

/// A page version: the page and its encoded version clock.
type Version = (u32, Vec<u8>);

/// The page records of this node's ML log, after a barrier flushed
/// them: page, version and the buffer each record keeps the page in.
fn logged_pages(dsm: &mut Dsm) -> Vec<(u32, Vec<u8>, Arc<[u8]>)> {
    dsm.barrier();
    let log = dsm.node().inner.ctx.disk.peek_stream(ftlog::ML_STREAM);
    let page = |record: &simnet::DiskRecord| {
        let payload = ftlog::frame::payload(record);
        match Msg::decode_from_slice(&payload).expect("own record") {
            Msg::PageReply { page, version, .. } => {
                let buffer = record.shared().expect("a page record shares its buffer");
                Some((page, version.encode_to_vec(), buffer.clone()))
            }
            _ => None,
        }
    };
    log.iter().filter_map(page).collect()
}

/// ML keeps each page version once: a page record holds the buffer the
/// home shipped, and under ML a home names every clean copy it ships,
/// so every reader of one clean version logs the same allocation. On
/// tiny 3D-FFT the distinct buffers across all nodes' ML logs are
/// exactly the distinct (page, version) copies logged — homes never
/// move, so the page names its home — and each holds that version's
/// bytes.
#[test]
fn ml_logs_each_clean_page_version_in_one_buffer() {
    let app = App::Fft3d;
    let spec = ClusterSpec::new(4, app.tiny_pages(256) + 4)
        .with_page_size(256)
        .with_protocol(Protocol::Ml);
    let out = run_program(spec, move |dsm| {
        app.run_tiny(dsm);
        logged_pages(dsm)
    });
    let mut versions: BTreeMap<Version, Vec<Arc<[u8]>>> = BTreeMap::new();
    let mut records = 0;
    for node in &out.nodes {
        for (page, version, buffer) in &node.result {
            versions
                .entry((*page, version.clone()))
                .or_default()
                .push(buffer.clone());
            records += 1;
        }
    }
    let mut buffers: Vec<*const u8> = versions.values().flatten().map(|b| b.as_ptr()).collect();
    buffers.sort_unstable();
    buffers.dedup();
    assert_eq!(buffers.len(), versions.len(), "one buffer per version");
    for (key, held) in &versions {
        assert!(held.iter().all(|b| Arc::ptr_eq(b, &held[0])), "{key:?}");
    }
    assert!(
        records > versions.len(),
        "{records} records of {} versions: nothing shared",
        versions.len()
    );
}

/// The buffer node `dsm`'s frame of page 0 shares, if it is shared.
fn shared_frame(dsm: &Dsm) -> Option<Arc<[u8]>> {
    let frame = dsm.node().inner.pages.entry(0).frame.as_ref()?;
    frame.as_shared().map(|b| Arc::from(b.clone()))
}

/// The first word of a page buffer.
fn first_word(page: &[u8]) -> u64 {
    u64::from_le_bytes(page[..8].try_into().unwrap())
}

/// A home serves a clean page as its frame's own buffer, under every
/// protocol, and the reader holds it as it came: node 1 reads page 0,
/// homed at node 0, on demand, and node 1's copy, node 0's frame and —
/// under ML — node 1's page record are one allocation. No second buffer
/// holds the version anywhere.
#[test]
fn a_home_shares_a_clean_page_with_the_copies_it_serves() {
    for protocol in Protocol::ALL {
        let spec = ClusterSpec::new(2, 2)
            .with_page_size(256)
            .with_protocol(protocol);
        let out = run_program(spec, |dsm| {
            let a = dsm.alloc_at::<u64>(32, 0);
            if dsm.me() == 0 {
                dsm.write(&a, 0, 5);
            }
            dsm.barrier();
            if dsm.me() == 1 {
                assert_eq!(dsm.read(&a, 0), 5);
            }
            let logged: Vec<_> = logged_pages(dsm).into_iter().map(|(.., b)| b).collect();
            (shared_frame(dsm), logged)
        });
        let (home, _) = &out.nodes[0].result;
        let (copy, logged) = &out.nodes[1].result;
        let (Some(home), Some(copy)) = (home, copy) else {
            panic!("{protocol:?}: home {home:?}, copy {copy:?}: both shared expected")
        };
        assert!(Arc::ptr_eq(home, copy), "{protocol:?}: one buffer");
        assert_eq!(first_word(copy), 5);
        match protocol {
            Protocol::Ml => {
                let [logged] = &logged[..] else {
                    panic!("{logged:?}: one page record expected")
                };
                assert!(Arc::ptr_eq(logged, copy), "the record is the copy");
            }
            _ => assert!(logged.is_empty()),
        }
    }
}

/// What one node saw of a copy's first write (see
/// [`first_write_after_a_shared_read`]).
#[derive(Debug, Clone)]
struct FirstWrite {
    /// What the protocol keeps of the copy here: ML's page record at
    /// the reader, CCL's served image at the home.
    keeper: Option<Arc<[u8]>>,
    /// The buffer the reader's read-only copy shared.
    copy: Option<Arc<[u8]>>,
    /// Is the reader's frame still shared right after its write?
    shared_after_write: bool,
}

/// Node 1 reads page 0 (homed at node 0, whose first word is 5), then
/// writes 99 into it; once the write reached the home, the keeper must
/// still read 5. Each node reports what it saw.
fn first_write_after_a_shared_read(protocol: Protocol) -> [FirstWrite; 2] {
    let spec = ClusterSpec::new(2, 2)
        .with_page_size(256)
        .with_protocol(protocol);
    let out = run_program(spec, move |dsm| {
        let a = dsm.alloc_at::<u64>(32, 0);
        let reader = dsm.me() == 1;
        if !reader {
            dsm.write(&a, 0, 5);
        }
        dsm.barrier();
        if reader {
            dsm.read(&a, 0);
        }
        // After this barrier, ML's record is on its stream, and CCL's
        // image in the home's served log.
        let logged = logged_pages(dsm);
        let keeper = match (protocol, reader) {
            (Protocol::Ml, true) => logged.into_iter().map(|(.., b)| b).next(),
            (Protocol::Ccl, false) => {
                let served = &dsm.node().inner.pages.home_state(0).served;
                served.images().last().map(|(_, b)| Arc::from(b.clone()))
            }
            _ => None,
        };
        let copy = reader.then(|| shared_frame(dsm)).flatten();
        if reader {
            dsm.write(&a, 0, 99);
        }
        let shared_after_write = reader && shared_frame(dsm).is_some();
        dsm.barrier();
        assert_eq!(dsm.read(&a, 0), 99, "the write reached the home");
        if let Some(keeper) = &keeper {
            assert_eq!(first_word(keeper), 5, "the write reached the keeper");
        }
        FirstWrite {
            keeper,
            copy,
            shared_after_write,
        }
    });
    [0, 1].map(|n| out.nodes[n].result.clone())
}

/// Under ML a remote read-only copy is the buffer its page record keeps,
/// and its first write leaves the record as it was logged: the write
/// trap makes the copy private, the shared buffer becoming its twin.
#[test]
fn an_ml_page_record_is_the_copy_until_the_reader_writes() {
    let [_, reader] = first_write_after_a_shared_read(Protocol::Ml);
    let (Some(record), Some(copy)) = (&reader.keeper, &reader.copy) else {
        panic!("{reader:?}: a page record and a shared copy expected")
    };
    assert!(Arc::ptr_eq(record, copy), "the copy is the record");
    assert!(
        !reader.shared_after_write,
        "the write made the copy private"
    );
}

/// Under CCL a remote read-only copy is the image the home's served log
/// retains, and neither the reader's first write nor the home applying
/// its diff reaches that image: a restore still finds the version the
/// reader read.
#[test]
fn a_ccl_served_image_is_the_copy_until_the_reader_writes() {
    let [home, reader] = first_write_after_a_shared_read(Protocol::Ccl);
    let (Some(image), Some(copy)) = (&home.keeper, &reader.copy) else {
        panic!("{home:?}, {reader:?}: a served image and a shared copy expected")
    };
    assert!(Arc::ptr_eq(image, copy), "the copy is the served image");
    assert!(
        !reader.shared_after_write,
        "the write made the copy private"
    );
}

#[test]
fn ml_mean_flush_is_larger_than_ccl() {
    for app in [App::Fft3d, App::Shallow] {
        let ml = run_app(app, Protocol::Ml);
        let ccl = run_app(app, Protocol::Ccl);
        assert!(
            ml.mean_log_bytes() > ccl.mean_log_bytes(),
            "{}: ML mean flush {} <= CCL mean flush {}",
            app.name(),
            ml.mean_log_bytes(),
            ccl.mean_log_bytes()
        );
    }
}

#[test]
fn no_logging_baseline_is_fastest() {
    // The ordering None <= CCL <= ML holds strictly for both the
    // barrier-only workload (MG) and the lock-based one (Water): under
    // the conservative virtual-time scheduler (DESIGN.md §12) lock
    // grants are a pure function of virtual request-arrival time, so
    // Water's contended acquisition order — and with it its execution
    // time — is exactly reproducible and the ~1% protocol deltas are
    // no longer swamped by scheduling noise. (This test carried a 1.25
    // tolerance factor on Water before the scheduler landed.)
    for app in [App::Mg, App::Water] {
        let none = run_app(app, Protocol::None);
        let ml = run_app(app, Protocol::Ml);
        let ccl = run_app(app, Protocol::Ccl);
        assert!(
            none.exec_time() <= ccl.exec_time(),
            "{}: none {} above ccl {}",
            app.name(),
            none.exec_time(),
            ccl.exec_time()
        );
        assert!(
            ccl.exec_time() <= ml.exec_time(),
            "{}: ccl {} above ml {}",
            app.name(),
            ccl.exec_time(),
            ml.exec_time()
        );
    }
}

#[test]
fn overlap_hides_ccl_disk_time() {
    // Part of CCL's disk time disappears behind the diff round trips.
    let hidden = run_app(App::Fft3d, Protocol::Ccl)
        .total_stats()
        .disk_time_overlapped;
    assert!(hidden.as_nanos() > 0, "no disk time was overlapped at all");
}

/// What the writer of [`close_interval_with_remote_diffs`] did at the
/// end of its interval.
struct IntervalEnd {
    /// When the interval was closed: the writer entered the barrier.
    at: SimTime,
    /// Its ack wait, as traced (`FlushAckWait`).
    ack_wait: SimDuration,
    /// The bytes it logged as it closed the interval (CCL only).
    flushed: usize,
}

/// Node 1 of 8 writes `k` whole 4 KiB pages, homed round-robin on the
/// other seven nodes, and closes the interval at a barrier: `k` remote
/// diffs, one `DiffFlush` per home.
fn close_interval_with_remote_diffs(protocol: Protocol, k: usize) -> IntervalEnd {
    const WRITER: usize = 1;
    let words = 4096 / 8;
    let spec = ClusterSpec::new(8, k as u32).with_protocol(protocol);
    let out = run_program(spec, move |dsm| {
        let homes = (0..dsm.nodes()).filter(|&n| n != WRITER).cycle();
        let pages: Vec<_> = homes
            .take(k)
            .map(|h| dsm.alloc_at::<u64>(words, h))
            .collect();
        if dsm.me() == WRITER {
            for (i, page) in pages.iter().enumerate() {
                // Both halves nonzero: every word of the page changes.
                let vals: Vec<u64> = (0..words as u64)
                    .map(|w| ((i as u64 + 1) << 32) | (w + 1))
                    .collect();
                dsm.write_slice(page, 0, &vals);
            }
        }
        dsm.barrier();
        0u64
    });
    let trace: Vec<_> = out.nodes[WRITER].trace.iter().collect();
    let enter = trace
        .iter()
        .position(|ev| matches!(ev.kind, TraceKind::BarrierEnter { .. }))
        .expect("the writer entered the barrier");
    let interval = &trace[..enter];
    let ack_wait = interval
        .iter()
        .find_map(|ev| match ev.kind {
            TraceKind::FlushAckWait { wait_ns, .. } => Some(SimDuration::from_nanos(wait_ns)),
            _ => None,
        })
        .expect("the writer waited for its diff acks");
    let flushed = interval
        .iter()
        .map(|ev| match ev.kind {
            TraceKind::LogFlush { bytes, .. } => bytes as usize,
            _ => 0,
        })
        .sum();
    IntervalEnd {
        at: trace[enter].at,
        ack_wait,
        flushed,
    }
}

/// CCL writes its log while the diffs it just sent are acked: the
/// writer resumes at the later of write and acks, i.e. None's time plus
/// the part of the `write()` copy that outlasts the ack round trip.
#[test]
fn ccl_log_write_overlaps_the_diff_round_trip() {
    let disk = CostModel::default().disk;
    for (k, write_is_hidden) in [(1, true), (28, false)] {
        let none = close_interval_with_remote_diffs(Protocol::None, k);
        let ccl = close_interval_with_remote_diffs(Protocol::Ccl, k);
        assert_eq!(none.flushed, 0);
        assert!(ccl.flushed > k * 4096, "k={k}: the diffs were not logged");

        let rtt = none.ack_wait;
        let write = disk.buffered_write_cost(ccl.flushed);
        assert_eq!(
            write < rtt,
            write_is_hidden,
            "k={k}: write {write}, acks {rtt}"
        );
        let residual = write.saturating_sub(rtt);
        assert_eq!(ccl.at, none.at + residual, "k={k}: CCL's end of interval");
        assert_eq!(
            ccl.ack_wait,
            rtt.saturating_sub(write),
            "k={k}: the trace must record only the ack wait the write left"
        );
    }
}

#[test]
fn log_flushes_track_synchronization() {
    // Every node flushes at most a few times per synchronization event;
    // flush counts must be nonzero for both protocols and of the same
    // order as the barrier count.
    let app = App::Shallow;
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let out = run_app(app, protocol);
        let total = out.total_stats();
        assert!(total.log_flushes > 0);
        let barriers = total.barriers;
        assert!(
            total.log_flushes <= 3 * barriers + total.lock_acquires,
            "{protocol:?}: {} flushes vs {} barriers",
            total.log_flushes,
            barriers
        );
    }
}

#[test]
fn disk_counters_match_logged_bytes() {
    let app = App::Mg;
    let out = run_app(app, Protocol::Ccl);
    for node in &out.nodes {
        assert!(
            node.disk.bytes_written >= node.stats.log_bytes,
            "disk wrote less than the log claims"
        );
        assert_eq!(node.disk.reads, 0, "no recovery => no disk reads");
    }
}

#[test]
fn water_locks_generate_lock_traffic_in_logs() {
    // Water (locks + barriers) must log lock-grant records under ML.
    let out = run_app(App::Water, Protocol::Ml);
    let total = out.total_stats();
    assert!(total.lock_acquires > 0, "water must use locks");
    assert!(total.log_bytes > 0);
}
