//! Kernel section: timed calls into each crate's public hot functions,
//! from outside. Single-threaded except the 2-endpoint ping-pong, so no
//! kernel uses more threads than the 2 cores this box has. Each kernel
//! reports ns/op as the best of nine repetitions, with its op count and
//! the bytes it computes over printed beside it (a CPU box measures
//! those, not bandwidth).
//!
//! The page pairs are the density mix of `crates/bench/benches/hotpath.rs`,
//! copied here so the old file stays untouched until it is deleted.

use std::sync::Arc;
use std::time::Instant;

use hlrc::{Msg, WriteNotice};
use pagemem::{Decode, Encode, IntervalId, PageDiff, PageFrame, Twin, VClock};
use simnet::{make_endpoints, Envelope, SimTime, WireSized};

use crate::metrics::{real, with_note, Row};
use crate::spans::Tracer;

const PAGE: usize = 4096;
const REPS: usize = 9;
/// Destinations of one barrier release on the paper's 8-node cluster.
const FANOUT: usize = 7;

#[inline]
fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn base_page(size: usize, seed: u64) -> (PageFrame, u64) {
    let mut base = PageFrame::zeroed(size);
    let mut s = seed;
    for off in (0..size).step_by(8) {
        s = lcg(s);
        base.write_u64(off, s);
    }
    (base, s)
}

/// Page pair with ~`density_pct`% of 64-byte blocks rewritten: the shape
/// application writes take (array rows, structs), few long runs.
fn page_pair_blocks(size: usize, density_pct: usize, seed: u64) -> (PageFrame, PageFrame) {
    let (base, mut s) = base_page(size, seed);
    let mut modified = base.clone();
    for block in (0..size).step_by(64) {
        s = lcg(s);
        if (s >> 33) % 100 < density_pct as u64 {
            for off in (block..(block + 64).min(size)).step_by(4) {
                s = lcg(s);
                modified.write_u32(off, (s >> 7) as u32);
            }
        }
    }
    (base, modified)
}

/// Page pair with ~`density_pct`% of single words modified in isolation:
/// every changed word is its own run, the fragmentation worst case.
fn page_pair_scatter(size: usize, density_pct: usize, seed: u64) -> (PageFrame, PageFrame) {
    let (base, mut s) = base_page(size, seed);
    let mut modified = base.clone();
    for off in (0..size).step_by(4) {
        s = lcg(s);
        if (s >> 33) % 100 < density_pct as u64 {
            modified.write_u32(off, (s >> 7) as u32);
        }
    }
    (base, modified)
}

/// Silent (0 %), sparse, quarter, dense and near-full block writes, plus
/// one word-scatter page.
fn density_mix() -> Vec<(Twin, PageFrame)> {
    [0usize, 3, 25, 60, 95]
        .iter()
        .enumerate()
        .map(|(i, &d)| page_pair_blocks(PAGE, d, 0x9E3779B97F4A7C15 ^ (i as u64) << 17))
        .chain(std::iter::once(page_pair_scatter(
            PAGE,
            10,
            0xD1B54A32D192ED03,
        )))
        .map(|(b, m)| (Twin::of(&b), m))
        .collect()
}

/// Fastest of `REPS` repetitions after one warm-up, in seconds:
/// competing load can only slow a repetition down.
fn timed_best(mut body: impl FnMut()) -> f64 {
    body();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One kernel row: ns/op, with ops and computed bytes per repetition.
fn kernel_row(metric: &str, secs: f64, ops: usize, bytes: usize) -> Row {
    with_note(
        real(metric, secs * 1e9 / ops as f64),
        format!("best of {REPS}, {ops} ops and {bytes} bytes computed per repetition"),
    )
}

#[derive(Debug, Clone)]
struct Ping(u64);

impl WireSized for Ping {
    fn wire_size(&self) -> usize {
        8
    }
}

/// One round trip between two endpoints on two threads: send, park,
/// wake, deliver — the router path every simulated message takes.
fn router_pingpong(round_trips: u64) -> f64 {
    let env = |src: usize, dst: usize, at: u64| Envelope {
        src,
        dst,
        sent_at: SimTime(at.saturating_sub(1)),
        arrive_at: SimTime(at),
        seq: at,
        payload: Ping(at),
    };
    timed_best(|| {
        let eps = make_endpoints::<Ping>(2);
        std::thread::scope(|s| {
            let (a, b) = (&eps[0], &eps[1]);
            s.spawn(move || {
                for r in 1..=round_trips {
                    a.send(env(0, 1, r)).expect("peer alive");
                    std::hint::black_box(a.recv().expect("reply").payload.0);
                }
            });
            s.spawn(move || {
                for r in 1..=round_trips {
                    std::hint::black_box(b.recv().expect("ping").payload.0);
                    b.send(env(1, 0, r)).expect("peer alive");
                }
            });
        });
    })
}

/// Run every kernel inside its own span and return the per-layer rows.
pub fn run(tracer: &mut Tracer) -> Vec<Row> {
    let mut rows = Vec::new();
    let pairs = density_mix();
    let page_bytes = pairs.len() * PAGE;
    let iters = 200;

    // pagemem: diff creation over the density mix.
    let (secs, _) = tracer.span("pagemem.diff_create", "", |_| {
        let mut runs = 0usize;
        let secs = timed_best(|| {
            for _ in 0..iters {
                for (t, m) in &pairs {
                    runs += std::hint::black_box(PageDiff::create(0, t, m).runs.len());
                }
            }
        });
        std::hint::black_box(runs);
        secs
    });
    let ops = iters * pairs.len();
    rows.push(kernel_row(
        "pagemem.diff_create_ns",
        secs,
        ops,
        iters * page_bytes,
    ));

    // pagemem: applying the same diffs to a frame.
    let diffs: Vec<PageDiff> = pairs
        .iter()
        .map(|(t, m)| PageDiff::create(0, t, m))
        .collect();
    let payload: usize = diffs.iter().map(PageDiff::payload_bytes).sum();
    let (secs, _) = tracer.span("pagemem.diff_apply", "", |_| {
        let mut target = pairs[0].0.frame().clone();
        timed_best(|| {
            for _ in 0..iters * 4 {
                for d in &diffs {
                    d.apply(&mut target);
                }
            }
            std::hint::black_box(&target);
        })
    });
    let ops = iters * 4 * diffs.len();
    rows.push(kernel_row(
        "pagemem.diff_apply_ns",
        secs,
        ops,
        iters * 4 * payload,
    ));

    // pagemem codec under the message every fetch carries.
    let mut vc = VClock::new(FANOUT + 1);
    let notices: Arc<[WriteNotice]> = (0..256u32)
        .map(|i| {
            let interval = IntervalId {
                node: i % (FANOUT as u32 + 1),
                seq: i,
            };
            vc.observe(interval);
            WriteNotice { page: i, interval }
        })
        .collect::<Vec<_>>()
        .into();
    let reply = Msg::PageReply {
        page: 3,
        data: vec![0xA5u8; PAGE].into(),
        version: vc.clone(),
    };
    let wire = reply.encode_to_vec().len();
    let (secs, _) = tracer.span("pagemem.codec_roundtrip", "", |_| {
        timed_best(|| {
            for _ in 0..iters * 4 {
                let buf = reply.encode_to_vec();
                std::hint::black_box(Msg::decode_from_slice(&buf).expect("roundtrip"));
            }
        })
    });
    let ops = iters * 4;
    rows.push(kernel_row(
        "pagemem.codec_roundtrip_ns",
        secs,
        ops,
        ops * wire,
    ));

    // simnet: what the barrier manager does at every release — clone one
    // release and one page reply per destination and size each clone.
    let release = Msg::BarrierRelease {
        epoch: 7,
        vc: Arc::new(vc),
        notices,
        migrations: Vec::new().into(),
    };
    let per_round = (release.wire_size() + reply.wire_size()) * FANOUT;
    let (secs, _) = tracer.span("simnet.envelope_fanout", "", |_| {
        timed_best(|| {
            let mut logical = 0usize;
            for _ in 0..iters * 16 {
                for _ in 0..FANOUT {
                    logical += std::hint::black_box(release.clone()).wire_size();
                    logical += std::hint::black_box(reply.clone()).wire_size();
                }
            }
            std::hint::black_box(logical);
        })
    });
    let ops = iters * 16 * FANOUT * 2;
    rows.push(kernel_row(
        "simnet.envelope_fanout_ns",
        secs,
        ops,
        iters * 16 * per_round,
    ));

    // simnet: the router, two endpoints on two threads.
    let round_trips = 2000u64;
    let (secs, _) = tracer.span("simnet.router_pingpong", "", |_| {
        router_pingpong(round_trips)
    });
    rows.push(kernel_row(
        "simnet.router_pingpong_ns",
        secs,
        2 * round_trips as usize,
        2 * round_trips as usize * 8,
    ));

    // ftlog: framing one 4 KiB record (header + CRC) ...
    let record = vec![0x5Au8; PAGE];
    let (secs, _) = tracer.span("ftlog.frame_record", "", |_| {
        timed_best(|| {
            for seq in 0..iters as u32 * 4 {
                std::hint::black_box(ftlog::frame_record(1, seq, &record));
            }
        })
    });
    let ops = iters * 4;
    rows.push(kernel_row("ftlog.frame_encode_ns", secs, ops, ops * PAGE));

    // ... and the recovery scan that verifies a stream of them.
    let stream: Vec<Vec<u8>> = (0..64u32)
        .map(|seq| ftlog::frame_record(1, seq, &record))
        .collect();
    let stream_bytes: usize = stream.iter().map(Vec::len).sum();
    let (secs, _) = tracer.span("ftlog.salvage", "", |_| {
        timed_best(|| {
            for _ in 0..iters / 10 {
                let s = ftlog::salvage(&stream);
                assert!(s.is_clean(), "freshly framed stream must verify");
                std::hint::black_box(s);
            }
        })
    });
    let scans = iters / 10;
    let kib = (scans * stream_bytes) as f64 / 1024.0;
    rows.push(with_note(
        real("ftlog.salvage_ns_per_kib", secs * 1e9 / kib),
        format!(
            "best of {REPS}, {scans} scans of {} records and {} bytes computed per repetition",
            stream.len(),
            scans * stream_bytes
        ),
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_mix_has_a_silent_page_and_five_dirty_ones() {
        let diffs: Vec<usize> = density_mix()
            .iter()
            .map(|(t, m)| PageDiff::create(0, t, m).payload_bytes())
            .collect();
        assert_eq!(diffs.len(), 6);
        assert_eq!(diffs[0], 0);
        assert!(diffs[1..].iter().all(|&b| b > 0));
        assert!(diffs[4] > diffs[1], "95% density must outweigh 3%");
    }

    #[test]
    fn every_kernel_reports_a_positive_time() {
        let mut tracer = Tracer::new();
        let rows = run(&mut tracer);
        assert_eq!(rows.len(), 7);
        assert_eq!(tracer.spans.len(), 7);
        for row in &rows {
            assert!(row.value() > 0.0, "{}", row.metric);
            assert!(row.note.contains("bytes computed"), "{}", row.metric);
        }
    }
}
