//! Log-binned histogram metrics.
//!
//! The paper's tables report means, but distribution shape is what
//! separates the protocols: ML's few huge flushes vs CCL's many small
//! ones, the long tail of lock waits under contention. Each node keeps
//! a [`NodeMetrics`] set of power-of-two-binned [`Histogram`]s recorded
//! on the hot path (fixed-size arrays, no allocation), mergeable across
//! nodes for cluster totals and serialized into the run telemetry.

/// Number of bins: bin 0 holds exact zeros, bin `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. 64 value bins cover the full `u64` range.
pub const HIST_BINS: usize = 65;

/// A power-of-two ("log2") binned histogram over `u64` samples.
///
/// Recording is branch-light constant time; exact count, sum, min and
/// max are kept alongside the bins so means are exact even though
/// quantiles are bin-resolution estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: [u64; HIST_BINS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            bins: [0; HIST_BINS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bin index of a sample value.
#[inline]
fn bin_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.bins[bin_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        let Histogram {
            bins,
            count,
            sum,
            min,
            max,
        } = other;
        for (mine, theirs) in self.bins.iter_mut().zip(bins.iter()) {
            *mine += theirs;
        }
        self.count += count;
        self.sum = self.sum.saturating_add(*sum);
        self.min = self.min.min(*min);
        self.max = self.max.max(*max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bin-resolution quantile estimate: the inclusive upper bound of
    /// the first bin at which the cumulative count reaches `q * count`,
    /// clamped to the observed max.
    ///
    /// **Bin-upper-bound convention.** Bin 0 holds exact zeros (upper
    /// bound 0); bin `b >= 1` holds `[2^(b-1), 2^b)` and reports upper
    /// bound `2^b - 1` (saturating to `u64::MAX` for `b >= 64`). The
    /// estimate therefore never *under*-reports a quantile by more
    /// than bin resolution, and never exceeds the observed maximum.
    ///
    /// **Edge behavior.**
    /// * Empty histogram: returns 0 for every `q`.
    /// * `q` outside `[0, 1]` is clamped into the interval.
    /// * `q = 0.0` ranks the first sample (rank is at least 1), so it
    ///   reports the lowest occupied bin, not 0.
    /// * `q = 1.0` ranks the last sample and is clamped to the exact
    ///   observed max.
    /// * Single sample: every `q` reports that sample's bin bound
    ///   clamped to the sample itself.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Non-empty bins as `(bin_index, count)` pairs, for sparse
    /// serialization.
    pub fn nonzero_bins(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
    }
}

/// The per-node histogram registry: one distribution per hot-path
/// quantity the mean-only [`crate::NodeStats`] counters flatten.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Bytes per volatile-log flush to stable storage.
    pub flush_bytes: Histogram,
    /// Encoded bytes per created (non-empty) page diff.
    pub diff_bytes: Histogram,
    /// Virtual nanoseconds from page-fetch request to installed copy.
    pub fetch_latency_ns: Histogram,
    /// Virtual nanoseconds from lock request to applied grant.
    pub lock_wait_ns: Histogram,
    /// Virtual nanoseconds of retransmission backoff per faulted send.
    pub retransmit_backoff_ns: Histogram,
    /// *Wall-clock* nanoseconds per scheduler park (one sample per park
    /// of this node's endpoint). Physical-layer telemetry like
    /// `sched_stalls`: two identical runs may park differently, so this
    /// histogram is deliberately absent from [`NodeMetrics::iter`] (the
    /// deterministic exporter surface) and flows out only through the
    /// Chrome trace's scheduler counter track.
    pub park_ns: Histogram,
}

impl NodeMetrics {
    /// Fold another node's distributions into this one (cluster
    /// totals). Full-struct destructuring: adding a histogram without
    /// merging it is a compile error.
    pub fn merge(&mut self, other: &NodeMetrics) {
        let NodeMetrics {
            flush_bytes,
            diff_bytes,
            fetch_latency_ns,
            lock_wait_ns,
            retransmit_backoff_ns,
            park_ns,
        } = other;
        self.flush_bytes.merge(flush_bytes);
        self.diff_bytes.merge(diff_bytes);
        self.fetch_latency_ns.merge(fetch_latency_ns);
        self.lock_wait_ns.merge(lock_wait_ns);
        self.retransmit_backoff_ns.merge(retransmit_backoff_ns);
        self.park_ns.merge(park_ns);
    }

    /// The registry as `(name, histogram)` pairs, in a fixed order the
    /// exporters key on. `park_ns` is intentionally excluded: it is
    /// wall-clock (nondeterministic) data, and this iterator feeds the
    /// byte-stable phases document the report hashes.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        let NodeMetrics {
            flush_bytes,
            diff_bytes,
            fetch_latency_ns,
            lock_wait_ns,
            retransmit_backoff_ns,
            park_ns: _,
        } = self;
        [
            ("flush_bytes", flush_bytes),
            ("diff_bytes", diff_bytes),
            ("fetch_latency_ns", fetch_latency_ns),
            ("lock_wait_ns", lock_wait_ns),
            ("retransmit_backoff_ns", retransmit_backoff_ns),
        ]
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_power_of_two() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 1);
        assert_eq!(bin_of(2), 2);
        assert_eq!(bin_of(3), 2);
        assert_eq!(bin_of(4), 3);
        assert_eq!(bin_of(1023), 10);
        assert_eq!(bin_of(1024), 11);
        assert_eq!(bin_of(u64::MAX), 64);
    }

    #[test]
    fn record_tracks_exact_moments() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 of uniform 1..=1000 is ~500; the bin estimate returns the
        // upper bound of the bin holding the median (bin 9: 256..511).
        let p50 = h.quantile(0.5);
        assert!((256..=1023).contains(&p50), "p50 estimate {p50}");
        assert_eq!(h.quantile(1.0), 1000); // clamped to observed max
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
    }

    #[test]
    fn quantile_of_a_single_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.record(37);
        // One sample occupies bin 6 (32..63, upper bound 63); the
        // clamp to the observed max makes every q exact.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 37, "q={q}");
        }
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), 0, "bin 0 holds exact zeros");
    }

    #[test]
    fn quantile_clamps_q_into_the_unit_interval() {
        let mut h = Histogram::new();
        for v in [1, 2, 4, 8, 1000] {
            h.record(v);
        }
        // Out-of-range q behaves like the nearest endpoint.
        assert_eq!(h.quantile(-3.5), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(1.0), 1000, "q=1.0 is the observed max");
        // q=0.0 still ranks the first sample: the lowest occupied bin.
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        // Every q — in range or not — reports 0 on an empty histogram.
        for q in [-1.0, 0.0, 1.0, 2.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.nonzero_bins().count(), 0);
    }

    #[test]
    fn merge_is_sample_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3, 900, 4096] {
            a.record(v);
            whole.record(v);
        }
        for v in [0, 17] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn node_metrics_merge_covers_every_histogram() {
        let mut a = NodeMetrics::default();
        let mut b = NodeMetrics::default();
        // One distinct sample per histogram on each side.
        for (i, (_, _)) in a.iter().enumerate() {
            let _ = i;
        }
        a.flush_bytes.record(1);
        a.diff_bytes.record(2);
        a.fetch_latency_ns.record(3);
        a.lock_wait_ns.record(4);
        a.retransmit_backoff_ns.record(5);
        a.park_ns.record(6);
        b.flush_bytes.record(10);
        b.diff_bytes.record(20);
        b.fetch_latency_ns.record(30);
        b.lock_wait_ns.record(40);
        b.retransmit_backoff_ns.record(50);
        b.park_ns.record(60);
        a.merge(&b);
        for (name, h) in a.iter() {
            assert_eq!(h.count(), 2, "{name} not merged");
        }
        assert_eq!(a.flush_bytes.sum(), 11);
        assert_eq!(a.retransmit_backoff_ns.sum(), 55);
        // park_ns merges but stays off the deterministic iter() surface.
        assert_eq!(a.park_ns.sum(), 66);
        assert!(a.iter().all(|(name, _)| name != "park_ns"));
    }

    #[test]
    fn registry_names_are_unique_and_snake_case() {
        let m = NodeMetrics::default();
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }
}
