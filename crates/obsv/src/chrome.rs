//! Chrome-trace / Perfetto export of a run's telemetry.
//!
//! One cluster run becomes one JSON document in the Chrome Trace Event
//! format (the `traceEvents` array flavor), loadable in the Perfetto UI
//! (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!
//! * each node is a thread (`tid` = node id) of one process;
//! * the node's whole run is a `"X"` slice whose args carry the phase
//!   breakdown — compute, wait, disk, and the fault-hidden time
//!   (disk work overlapped behind communication) attributed to the span;
//! * the recovery window (crash → resumed live) is a nested slice;
//! * every coherence event is an instant (`"i"`) named by its
//!   [`TraceKind::label`];
//! * every accepted message is a causal edge: the sender's `MsgSend`
//!   emits a zero-width slice plus a flow-start (`"s"`), the receiver's
//!   `MsgRecv` a zero-width slice plus a flow-finish (`"f"`), joined by
//!   an id derived from the per-link sequence number stamped by the
//!   reliable layer — so arrows in the UI resolve to the exact
//!   envelope, not just to the node pair.
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! precision kept in the fraction.

use std::fmt::Write as _;

use ccl_core::{NodeOutput, RunOutput, TraceKind};

use crate::blame::{Blame, BlameObj, SegmentKind};
use crate::json::quoted;

/// Identity of one message envelope, shared by its send and receive
/// halves: per-link sequence numbers make `(src, dst, seq)` unique.
fn flow_id(src: usize, dst: usize, seq: u64) -> String {
    format!("{src}>{dst}#{seq}")
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(body);
}

fn node_events<R>(out: &mut String, first: &mut bool, n: &NodeOutput<R>) {
    let tid = n.node;
    push_event(
        out,
        first,
        &format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"node {tid}\"}}}}"
        ),
    );
    // The whole run as one slice; its args attribute the node's time,
    // including the fault-hidden portion (disk writes the CCL overlap
    // hid behind communication waits).
    push_event(
        out,
        first,
        &format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":0,\"dur\":{},\
             \"name\":\"node {tid} run\",\"cat\":\"run\",\"args\":{{\
             \"compute_ns\":{},\"wait_ns\":{},\"disk_ns\":{},\
             \"hidden_ns\":{},\"trace_dropped\":{}}}}}",
            us(n.finish.as_nanos()),
            n.phases.compute.as_nanos(),
            n.phases.wait.as_nanos(),
            n.phases.disk.as_nanos(),
            n.phases.hidden.as_nanos(),
            n.trace_dropped,
        ),
    );
    // Scheduler-health counter track: window stalls next to the
    // compute/wait/disk phases, so physical scheduler overhead is
    // visible in the same UI as the virtual-time story. Counters are
    // cumulative per node (0 at start, the final count at finish), and
    // the run slice's args carry the park-duration summary. Both are
    // wall-clock telemetry: they may differ between bit-identical runs,
    // which is fine because the chrome export is a debugging artifact,
    // never a determinism-gated golden.
    push_event(
        out,
        first,
        &format!(
            "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":0,\
             \"name\":\"sched_stalls node {tid}\",\"cat\":\"sched\",\
             \"args\":{{\"stalls\":0}}}}"
        ),
    );
    push_event(
        out,
        first,
        &format!(
            "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{},\
             \"name\":\"sched_stalls node {tid}\",\"cat\":\"sched\",\
             \"args\":{{\"stalls\":{}}}}}",
            us(n.finish.as_nanos()),
            n.stats.sched_stalls,
        ),
    );
    push_event(
        out,
        first,
        &format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":0,\"dur\":0,\
             \"name\":\"sched park summary\",\"cat\":\"sched\",\"args\":{{\
             \"parks\":{},\"park_ns_sum\":{},\"park_ns_p50\":{},\
             \"park_ns_p99\":{},\"park_ns_max\":{}}}}}",
            n.metrics.park_ns.count(),
            n.metrics.park_ns.sum(),
            n.metrics.park_ns.quantile(0.5),
            n.metrics.park_ns.quantile(0.99),
            n.metrics.park_ns.max(),
        ),
    );
    if let (Some(crash), Some(exit)) = (n.crashed_at, n.recovery_exit) {
        push_event(
            out,
            first,
            &format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"name\":\"recovery\",\"cat\":\"recovery\",\"args\":{{}}}}",
                us(crash.as_nanos()),
                us(exit.saturating_since(crash).as_nanos()),
            ),
        );
    }
    for ev in &n.trace {
        let ts = us(ev.at.as_nanos());
        match ev.kind {
            TraceKind::MsgSend {
                to,
                seq,
                bytes,
                msg,
            } => {
                let id = flow_id(tid, to, seq);
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":0,\
                         \"name\":{},\"cat\":\"msg\",\"args\":{{\"to\":{to},\
                         \"seq\":{seq},\"bytes\":{bytes}}}}}",
                        quoted(msg)
                    ),
                );
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"ph\":\"s\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                         \"id\":\"{id}\",\"name\":{},\"cat\":\"msg\"}}",
                        quoted(msg)
                    ),
                );
            }
            TraceKind::MsgRecv { from, seq, msg } => {
                let id = flow_id(from, tid, seq);
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":0,\
                         \"name\":{},\"cat\":\"msg\",\"args\":{{\"from\":{from},\
                         \"seq\":{seq}}}}}",
                        quoted(msg)
                    ),
                );
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                         \"id\":\"{id}\",\"name\":{},\"cat\":\"msg\"}}",
                        quoted(msg)
                    ),
                );
            }
            // Wildcard-free on purpose: a new `TraceKind` variant must
            // be added to this list (or get its own arm) before the
            // crate compiles, so no event kind can silently fall out of
            // the Perfetto export.
            kind @ (TraceKind::ReadFault { .. }
            | TraceKind::WriteFault { .. }
            | TraceKind::PageFetch { .. }
            | TraceKind::DiffFlush { .. }
            | TraceKind::NoticesApplied { .. }
            | TraceKind::LogAppend { .. }
            | TraceKind::LogFlush { .. }
            | TraceKind::Checkpoint { .. }
            | TraceKind::LockAcquire { .. }
            | TraceKind::LockRelease { .. }
            | TraceKind::LockGranted { .. }
            | TraceKind::BarrierEnter { .. }
            | TraceKind::BarrierExit { .. }
            | TraceKind::BarrierReleased { .. }
            | TraceKind::FlushAckWait { .. }
            | TraceKind::Crash
            | TraceKind::RecoveryBegin
            | TraceKind::RecoveryReplay { .. }
            | TraceKind::RecoveryEnd
            | TraceKind::Timeout { .. }
            | TraceKind::Retransmit { .. }
            | TraceKind::DupSuppressed { .. }
            | TraceKind::LogDeviceFailed
            | TraceKind::RecoveryDegraded
            | TraceKind::LogDeviceFull
            | TraceKind::TornTailDetected { .. }
            | TraceKind::CrcMismatch { .. }
            | TraceKind::LogTruncated { .. }
            | TraceKind::HomeRepair { .. }
            | TraceKind::SyncSynthesized { .. }
            | TraceKind::PrefetchIssued { .. }
            | TraceKind::PrefetchHit { .. }
            | TraceKind::PrefetchWasted { .. }) => {
                let object = match event_object(&kind) {
                    Some(obj) => format!(",\"object\":{}", quoted(&obj.key())),
                    None => String::new(),
                };
                push_event(
                    out,
                    first,
                    &format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                         \"name\":{},\"cat\":\"coherence\",\
                         \"args\":{{\"detail\":{}{object}}}}}",
                        quoted(kind.label()),
                        quoted(&format!("{kind:?}")),
                    ),
                );
            }
        }
    }
}

/// The coherence object an instant event is about, when it has one —
/// surfaced as an `object` arg so Perfetto queries can group events by
/// the same keys the blame engine uses.
fn event_object(kind: &TraceKind) -> Option<BlameObj> {
    match *kind {
        TraceKind::ReadFault { page }
        | TraceKind::WriteFault { page }
        | TraceKind::PageFetch { page, .. }
        | TraceKind::PrefetchIssued { page, .. }
        | TraceKind::PrefetchHit { page }
        | TraceKind::PrefetchWasted { page } => Some(BlameObj::Page(page)),
        TraceKind::LockAcquire { lock, .. }
        | TraceKind::LockRelease { lock }
        | TraceKind::LockGranted { lock, .. } => Some(BlameObj::Lock(lock)),
        TraceKind::BarrierEnter { epoch }
        | TraceKind::BarrierExit { epoch }
        | TraceKind::BarrierReleased { epoch, .. } => Some(BlameObj::Barrier(epoch)),
        TraceKind::FlushAckWait { home, .. } => Some(BlameObj::Flush(home)),
        TraceKind::LogAppend { obj, .. } => Some(obj.into()),
        _ => None,
    }
}

/// The blame path as its own Perfetto process (`pid` 1): one
/// contiguous track of slices partitioning `[0, exec_ns]`, each wait
/// slice naming the blamed object and the causing node.
fn blame_events(out: &mut String, first: &mut bool, blame: &Blame) {
    push_event(
        out,
        first,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"blame path\"}}",
    );
    for seg in &blame.critical_path {
        let (name, extra) = match seg.kind {
            SegmentKind::Compute => (format!("compute@node{}", seg.node), String::new()),
            SegmentKind::Recovery => (format!("recovery@node{}", seg.node), String::new()),
            SegmentKind::Wait { obj, causer } => (
                format!("wait {}", obj.key()),
                format!(
                    ",\"object\":{},\"class\":\"{}\",\"causer\":{causer}",
                    quoted(&obj.key()),
                    obj.class()
                ),
            ),
        };
        push_event(
            out,
            first,
            &format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"name\":{},\"cat\":\"blame\",\
                 \"args\":{{\"node\":{}{extra}}}}}",
                us(seg.start_ns),
                us(seg.dur_ns()),
                quoted(&name),
                seg.node,
            ),
        );
    }
}

/// Render `out` as a Chrome Trace Event JSON document titled `label`.
pub fn chrome_trace<R>(run: &RunOutput<R>, label: &str) -> String {
    render(run, label, None)
}

/// Like [`chrome_trace`], plus the blame analysis: the critical path
/// is highlighted as its own `blame path` process, and wait slices
/// carry the blamed object and causing node as args.
pub fn chrome_trace_blamed<R>(run: &RunOutput<R>, label: &str, blame: &Blame) -> String {
    render(run, label, Some(blame))
}

fn render<R>(run: &RunOutput<R>, label: &str, blame: Option<&Blame>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"label\":{},\
         \"process_name\":\"ccl-dsm cluster\"}},\"traceEvents\":[",
        quoted(label)
    );
    let mut first = true;
    for n in &run.nodes {
        node_events(&mut out, &mut first, n);
    }
    if let Some(b) = blame {
        blame_events(&mut out, &mut first, b);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use ccl_core::{run_program, ClusterSpec, Protocol};

    fn tiny_run() -> RunOutput<u64> {
        let spec = ClusterSpec::new(3, 12)
            .with_page_size(256)
            .with_protocol(Protocol::Ccl);
        run_program(spec, |dsm| {
            let arr = dsm.alloc::<u64>(8);
            for round in 0..3 {
                if dsm.me() == round % dsm.nodes() {
                    let v = dsm.read(&arr, 0);
                    dsm.write(&arr, 0, v + 1);
                }
                dsm.barrier();
            }
            dsm.read(&arr, 0)
        })
    }

    #[test]
    fn export_is_valid_json_with_matched_flows() {
        let run = tiny_run();
        let text = chrome_trace(&run, "tiny/ccl");
        let doc = json::parse(&text).expect("chrome trace parses as JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());

        let mut starts = Vec::new();
        let mut finishes = Vec::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            match ph {
                "s" => starts.push(ev.get("id").unwrap().as_str().unwrap().to_string()),
                "f" => finishes.push(ev.get("id").unwrap().as_str().unwrap().to_string()),
                _ => {}
            }
        }
        assert!(!finishes.is_empty(), "a CCL run must have message flows");
        // Every finish resolves to exactly one start: the flow id names
        // one concrete envelope.
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        let dup_free = {
            let mut d = sorted.clone();
            d.dedup();
            d.len() == sorted.len()
        };
        assert!(dup_free, "flow ids must be unique per envelope");
        for f in &finishes {
            assert!(
                sorted.binary_search(f).is_ok(),
                "flow finish {f} has no matching send"
            );
        }
        // Each finish's id encodes its own thread as destination.
        for ev in events {
            if ev.get("ph").unwrap().as_str() == Some("f") {
                let id = ev.get("id").unwrap().as_str().unwrap();
                let tid = ev.get("tid").unwrap().as_f64().unwrap() as usize;
                let dst: usize = id[id.find('>').unwrap() + 1..id.find('#').unwrap()]
                    .parse()
                    .unwrap();
                assert_eq!(dst, tid, "flow {id} landed on the wrong thread");
            }
        }
    }

    /// A label with a quote, a newline and a tab is escaped in the
    /// text, the document is valid JSON, and the label reads back
    /// unchanged.
    #[test]
    fn a_label_with_control_characters_round_trips() {
        let label = "a\"b\nc\td";
        let text = chrome_trace(&tiny_run(), label);
        assert!(
            text.contains(r#""label":"a\"b\nc\td""#),
            "escaped in the text"
        );
        let doc = json::parse(&text).expect("valid JSON");
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("label").unwrap().as_str(), Some(label));
    }

    #[test]
    fn every_accepted_envelope_appears_as_a_flow_finish() {
        let run = tiny_run();
        let total_recv: u64 = run.nodes.iter().map(|n| n.stats.msgs_recv).sum();
        let text = chrome_trace(&run, "tiny/ccl");
        let finishes = text.matches("\"ph\":\"f\"").count() as u64;
        assert_eq!(finishes, total_recv);
    }

    #[test]
    fn every_node_gets_a_sched_counter_track() {
        let run = tiny_run();
        let text = chrome_trace(&run, "tiny/ccl");
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        // Two counter samples per node: 0 at ts=0, the final stall
        // count at the node's finish time.
        assert_eq!(counters.len(), 2 * run.nodes.len());
        for node in &run.nodes {
            let last = counters
                .iter()
                .filter(|e| {
                    e.get("tid").unwrap().as_f64().unwrap() as usize == node.node
                        && e.get("ts").unwrap().as_f64().unwrap() > 0.0
                })
                .count();
            assert_eq!(last, 1, "node {} missing its final sample", node.node);
        }
        // The park summary rides along once per node.
        let parks = events
            .iter()
            .filter(|e| e.get("name").and_then(|s| s.as_str()) == Some("sched park summary"))
            .count();
        assert_eq!(parks, run.nodes.len());
    }

    fn locky_run() -> RunOutput<u64> {
        let spec = ClusterSpec::new(3, 12)
            .with_page_size(256)
            .with_protocol(Protocol::Ccl);
        run_program(spec, |dsm| {
            let arr = dsm.alloc::<u64>(8);
            for _ in 0..3 {
                dsm.acquire(2);
                let v = dsm.read(&arr, 0);
                dsm.write(&arr, 0, v + 1);
                dsm.release(2);
                dsm.barrier();
            }
            dsm.read(&arr, 0)
        })
    }

    #[test]
    fn blame_relevant_kinds_export_with_labels_and_objects() {
        let run = locky_run();
        let text = chrome_trace(&run, "tiny/ccl");
        // The cause-carrying kinds the blame engine reads must appear
        // as instants under their stable labels...
        for label in [
            "lock_granted",
            "lock_acquire",
            "barrier_released",
            "page_fetch",
        ] {
            assert!(
                text.contains(&format!("\"name\":\"{label}\"")),
                "export must contain {label} instants"
            );
        }
        // ...and carry the blame engine's object key as an arg.
        assert!(text.contains("\"object\":\"lock:2\""));
        assert!(text.contains("\"object\":\"barrier:"));
        assert!(text.contains("\"object\":\"page:"));
    }

    #[test]
    fn blamed_export_highlights_a_gapless_critical_path() {
        let run = locky_run();
        let blame = crate::blame::analyze(&run);
        let text = chrome_trace_blamed(&run, "tiny/ccl", &blame);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let cp: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("blame"))
            .collect();
        assert_eq!(cp.len(), blame.critical_path.len());
        let dur_us: f64 = cp
            .iter()
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        let exec_us = blame.exec_ns as f64 / 1000.0;
        assert!(
            (dur_us - exec_us).abs() < 0.5,
            "highlighted path must span the whole makespan ({dur_us} vs {exec_us})"
        );
        // Wait slices carry their blame args.
        assert!(text.contains("\"cat\":\"blame\""));
        assert!(cp
            .iter()
            .any(|e| e.get("args").unwrap().get("causer").is_some()));
        // The plain export has no blame track.
        assert!(!chrome_trace(&run, "tiny/ccl").contains("\"cat\":\"blame\""));
    }

    #[test]
    fn run_slices_carry_phase_args() {
        let run = tiny_run();
        let text = chrome_trace(&run, "tiny/ccl");
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let run_slices: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("run"))
            .collect();
        assert_eq!(run_slices.len(), run.nodes.len());
        for (slice, node) in run_slices.iter().zip(&run.nodes) {
            let args = slice.get("args").unwrap();
            assert_eq!(
                args.get("hidden_ns").unwrap().as_f64().unwrap() as u64,
                node.phases.hidden.as_nanos()
            );
        }
    }
}
