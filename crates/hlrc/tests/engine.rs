//! Coherence and telemetry contracts.
//!
//! For any race-free schedule HLRC must compute what a serial execution
//! of the same schedule computes, and the trace stream must be
//! time-ordered.

use hlrc::{DsmConfig, HlrcNode, NoLogging};
use minicheck::{check, Rng};
use simnet::{run_cluster, CostModel, SimTime};

const PAGE: usize = 256;

/// One pseudorandom, race-free barrier schedule: `rounds` rounds, each
/// node writing words of its own stripe (word w belongs to node
/// w % nodes) with seed-derived values, then all nodes reading the same
/// seed-chosen sample after the barrier and folding it into a digest.
#[derive(Clone, Copy)]
struct Schedule {
    seed: u64,
    nodes: usize,
    pages: u32,
    rounds: u32,
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

impl Schedule {
    fn words(&self) -> usize {
        self.pages as usize * PAGE / 8
    }

    /// The words node `me` writes in `round`, with their values. Race
    /// free: each word has exactly one writer.
    fn writes(&self, round: u64, me: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let words = self.words();
        (0..mix(self.seed ^ round) % 6 + 1).filter_map(move |k| {
            let w = mix(self.seed ^ (round << 24) ^ (me as u64 * 31) ^ k) as usize % words;
            let w = w - (w % self.nodes) + me; // my stripe
            (w < words).then(|| (w, mix(self.seed ^ round ^ w as u64)))
        })
    }

    /// The seed-chosen words every node samples after `round`'s writes.
    fn reads(&self, round: u64) -> impl Iterator<Item = usize> + '_ {
        let words = self.words();
        (0..mix(self.seed ^ round ^ 0xABCD) % 8 + 1)
            .map(move |k| mix(self.seed ^ (round << 16) ^ (k * 7919)) as usize % words)
    }

    /// Node `me`'s digest when the schedule runs on HLRC.
    fn run(&self, node: &mut HlrcNode) -> u64 {
        let me = node.inner.me();
        let mut digest = DIGEST_SEED;
        for round in 0..self.rounds as u64 {
            for (w, v) in self.writes(round, me) {
                node.write_u64(w * 8, v);
            }
            node.barrier();
            for w in self.reads(round) {
                digest = fold(digest, node.read_u64(w * 8));
            }
            node.barrier();
        }
        digest
    }

    /// The specification: the digest of a serial execution, in which
    /// every node's writes of a round land in one flat memory before
    /// that round's reads.
    fn serial(&self) -> u64 {
        let mut mem = vec![0u64; self.words()];
        let mut digest = DIGEST_SEED;
        for round in 0..self.rounds as u64 {
            for me in 0..self.nodes {
                for (w, v) in self.writes(round, me) {
                    mem[w] = v;
                }
            }
            for w in self.reads(round) {
                digest = fold(digest, mem[w]);
            }
        }
        digest
    }
}

fn run_hlrc(s: Schedule) -> Vec<u64> {
    let cfg = DsmConfig::new(s.nodes, s.pages).with_page_size(PAGE);
    run_cluster(s.nodes, CostModel::default(), move |ctx| {
        let mut node = HlrcNode::new(ctx, cfg, Box::new(NoLogging));
        let digest = s.run(&mut node);
        node.barrier();
        digest
    })
}

/// Release consistency on a data-race-free program is sequential
/// consistency: every node must read what the serial model reads.
#[test]
fn hlrc_matches_the_serial_model_on_random_schedules() {
    check("serial-model", 12, |rng: &mut Rng| {
        let s = Schedule {
            seed: rng.next_u64(),
            nodes: rng.usize_in(2, 4),
            pages: rng.u32_in(2, 6),
            rounds: rng.u32_in(1, 4),
        };
        let want = s.serial();
        let got = run_hlrc(s);
        assert!(
            got.iter().all(|&d| d == want),
            "HLRC diverges from the serial model (seed {:#x}, {} nodes, {} pages, \
             {} rounds): {got:#x?} vs {want:#x}",
            s.seed,
            s.nodes,
            s.pages,
            s.rounds
        );
    });
}

#[test]
fn hlrc_trace_is_nondecreasing_in_virtual_time() {
    let cfg = DsmConfig::new(3, 3).with_page_size(PAGE);
    let traces = run_cluster(3, CostModel::default(), move |ctx| {
        let mut node = HlrcNode::new(ctx, cfg, Box::new(NoLogging));
        if node.inner.me() == 0 {
            node.write_u64(256 + 8, 17); // remote page: fault + fetch + diff
        }
        node.barrier();
        let _ = node.read_u64(256 + 8);
        node.barrier();
        node.inner.ctx.take_trace()
    });
    for (node, trace) in traces.iter().enumerate() {
        assert!(!trace.is_empty(), "node {node} emitted no telemetry");
        let mut last = SimTime::ZERO;
        for ev in trace {
            assert_eq!(ev.node, node, "foreign event in node {node}'s stream");
            assert!(
                ev.at >= last,
                "node {node} trace goes backwards: {ev:?} after {last:?}"
            );
            last = ev.at;
        }
    }
}
