//! Per-node execution statistics.
//!
//! These counters feed the paper's Table 2 (log sizes, flush counts,
//! execution times) and the message/traffic analysis behind Figures 4–5.

use crate::time::SimDuration;

/// Width of the per-message-kind traffic histograms: one slot per wire
/// ordinal (see [`WireSized::kind_ordinal`](crate::WireSized)), sized
/// with headroom above any current protocol's kind count. Out-of-range
/// ordinals are clamped into the last slot rather than dropped.
pub const TRAFFIC_KINDS: usize = 24;

/// Counters accumulated by one DSM node over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Protocol messages sent / received.
    pub msgs_sent: u64,
    /// Protocol messages received.
    pub msgs_recv: u64,
    /// Payload bytes sent / received.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Page-protection faults taken (read + write).
    pub read_faults: u64,
    /// Write faults taken.
    pub write_faults: u64,
    /// Full pages fetched from a home node.
    pub page_fetches: u64,
    /// Predicted extra pages requested on batched fetches.
    pub prefetch_issued: u64,
    /// Predicted copies touched while still valid (fetch stalls hidden).
    pub prefetch_hits: u64,
    /// Predicted copies invalidated before first use (wasted bytes).
    pub prefetch_wasted: u64,
    /// Always 0: homes never move. Kept for the benchmark's
    /// `hlrc.home_migrations` row until ROADMAP item 10 drops both.
    pub home_migrations: u64,
    /// Messages sent, bucketed by wire-kind ordinal.
    pub msgs_by_kind: [u64; TRAFFIC_KINDS],
    /// Payload bytes sent, bucketed by wire-kind ordinal.
    pub bytes_by_kind: [u64; TRAFFIC_KINDS],
    /// Diffs created at releases/barriers, and their encoded bytes.
    pub diffs_created: u64,
    /// Diff bytes encoded at releases/barriers.
    pub diff_bytes: u64,
    /// Twin copies made.
    pub twins_created: u64,
    /// Volatile-log flushes to stable storage, and the bytes flushed.
    pub log_flushes: u64,
    /// Bytes flushed to the log.
    pub log_bytes: u64,
    /// Lock acquisitions and barrier episodes completed.
    pub lock_acquires: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Retransmission-timeout expiries at this sender (reliable layer).
    pub timeouts: u64,
    /// Transmissions resent after a simulated drop or partition.
    pub retransmits: u64,
    /// Duplicate deliveries suppressed by sequence number on receive.
    pub dups_suppressed: u64,
    /// Sends addressed to a peer that had already finished its program
    /// (tolerated under failure injection, not an error).
    pub sends_to_stopped: u64,
    /// Fabric calls (receives and polls) that had to wait for the
    /// conservative scheduler's next window instead of carrying on
    /// within the current one. Physical-layer telemetry: the count
    /// depends on real thread interleaving, so it is reported alongside
    /// the deterministic counters but excluded from the byte-stable
    /// phases document the report hashes.
    pub sched_stalls: u64,
    /// Recovery fetch waves — a replayed sync's, or the on-demand
    /// restore of a page replay faulted on — whose replies were not all
    /// in when replay reached them: the waits recovery could not hide.
    pub recovery_stalls: u64,
    /// Page-protection traps — read and write faults — taken between
    /// this node's crash and its recovery exit: what replay still had
    /// to trap to learn, its log notwithstanding. Also counted in
    /// `read_faults` / `write_faults`.
    pub recovery_traps: u64,
    /// Virtual time spent in application compute charges.
    pub compute_time: SimDuration,
    /// Virtual time spent blocked on remote replies / synchronization.
    pub wait_time: SimDuration,
    /// Virtual time spent on (non-overlapped) stable-storage accesses.
    pub disk_time: SimDuration,
    /// Disk time that was hidden behind communication (CCL overlap).
    pub disk_time_overlapped: SimDuration,
}

impl NodeStats {
    /// Merge another node's counters into this one (cluster totals).
    ///
    /// `other` is fully destructured (no `..` rest pattern), so adding
    /// a counter to `NodeStats` without deciding how it merges is a
    /// compile error here rather than a silently-dropped column in
    /// every cluster total.
    pub fn merge(&mut self, other: &NodeStats) {
        let NodeStats {
            msgs_sent,
            msgs_recv,
            bytes_sent,
            bytes_recv,
            read_faults,
            write_faults,
            page_fetches,
            prefetch_issued,
            prefetch_hits,
            prefetch_wasted,
            home_migrations,
            msgs_by_kind,
            bytes_by_kind,
            diffs_created,
            diff_bytes,
            twins_created,
            log_flushes,
            log_bytes,
            lock_acquires,
            barriers,
            timeouts,
            retransmits,
            dups_suppressed,
            sends_to_stopped,
            sched_stalls,
            recovery_stalls,
            recovery_traps,
            compute_time,
            wait_time,
            disk_time,
            disk_time_overlapped,
        } = *other;
        self.msgs_sent += msgs_sent;
        self.msgs_recv += msgs_recv;
        self.bytes_sent += bytes_sent;
        self.bytes_recv += bytes_recv;
        self.read_faults += read_faults;
        self.write_faults += write_faults;
        self.page_fetches += page_fetches;
        self.prefetch_issued += prefetch_issued;
        self.prefetch_hits += prefetch_hits;
        self.prefetch_wasted += prefetch_wasted;
        self.home_migrations += home_migrations;
        for k in 0..TRAFFIC_KINDS {
            self.msgs_by_kind[k] += msgs_by_kind[k];
            self.bytes_by_kind[k] += bytes_by_kind[k];
        }
        self.diffs_created += diffs_created;
        self.diff_bytes += diff_bytes;
        self.twins_created += twins_created;
        self.log_flushes += log_flushes;
        self.log_bytes += log_bytes;
        self.lock_acquires += lock_acquires;
        self.barriers += barriers;
        self.timeouts += timeouts;
        self.retransmits += retransmits;
        self.dups_suppressed += dups_suppressed;
        self.sends_to_stopped += sends_to_stopped;
        self.sched_stalls += sched_stalls;
        self.recovery_stalls += recovery_stalls;
        self.recovery_traps += recovery_traps;
        self.compute_time += compute_time;
        self.wait_time += wait_time;
        self.disk_time += disk_time;
        self.disk_time_overlapped += disk_time_overlapped;
    }

    /// Total page faults (read + write).
    pub fn faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }

    /// Bucket one sent message into the per-kind traffic histograms.
    /// Ordinals beyond the histogram width land in the last slot.
    pub fn count_kind(&mut self, ordinal: usize, bytes: u64) {
        let k = ordinal.min(TRAFFIC_KINDS - 1);
        self.msgs_by_kind[k] += 1;
        self.bytes_by_kind[k] += bytes;
    }

    /// Partition this node's time counters into the four-way phase
    /// breakdown (compute / wait / disk / hidden-behind-wait).
    pub fn phases(&self) -> crate::engine::PhaseBreakdown {
        crate::engine::PhaseBreakdown::from_stats(self)
    }

    /// Mean flushed-log size in bytes (Table 2's "Mean Log Size" column).
    pub fn mean_log_flush_bytes(&self) -> f64 {
        if self.log_flushes == 0 {
            0.0
        } else {
            self.log_bytes as f64 / self.log_flushes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats value with every field populated and no two fields
    /// equal, seeded from `base` so two instances never collide.
    fn fully_populated(base: u64) -> NodeStats {
        NodeStats {
            msgs_sent: base + 1,
            msgs_recv: base + 2,
            bytes_sent: base + 3,
            bytes_recv: base + 4,
            read_faults: base + 5,
            write_faults: base + 6,
            page_fetches: base + 7,
            diffs_created: base + 8,
            diff_bytes: base + 9,
            twins_created: base + 10,
            log_flushes: base + 11,
            log_bytes: base + 12,
            lock_acquires: base + 13,
            barriers: base + 14,
            timeouts: base + 15,
            retransmits: base + 16,
            dups_suppressed: base + 17,
            sends_to_stopped: base + 18,
            sched_stalls: base + 19,
            compute_time: SimDuration::from_nanos(base + 20),
            wait_time: SimDuration::from_nanos(base + 21),
            disk_time: SimDuration::from_nanos(base + 22),
            disk_time_overlapped: SimDuration::from_nanos(base + 23),
            prefetch_issued: base + 24,
            prefetch_hits: base + 25,
            prefetch_wasted: base + 26,
            home_migrations: base + 27,
            msgs_by_kind: std::array::from_fn(|i| base + 28 + i as u64),
            bytes_by_kind: std::array::from_fn(|i| base + 28 + TRAFFIC_KINDS as u64 + i as u64),
            recovery_stalls: base + 28 + 2 * TRAFFIC_KINDS as u64,
            recovery_traps: base + 29 + 2 * TRAFFIC_KINDS as u64,
        }
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = fully_populated(100);
        let b = fully_populated(1000);
        a.merge(&b);
        let expect = |off: u64| 100 + 1000 + 2 * off;
        let NodeStats {
            msgs_sent,
            msgs_recv,
            bytes_sent,
            bytes_recv,
            read_faults,
            write_faults,
            page_fetches,
            prefetch_issued,
            prefetch_hits,
            prefetch_wasted,
            home_migrations,
            msgs_by_kind,
            bytes_by_kind,
            diffs_created,
            diff_bytes,
            twins_created,
            log_flushes,
            log_bytes,
            lock_acquires,
            barriers,
            timeouts,
            retransmits,
            dups_suppressed,
            sends_to_stopped,
            sched_stalls,
            recovery_stalls,
            recovery_traps,
            compute_time,
            wait_time,
            disk_time,
            disk_time_overlapped,
        } = a;
        assert_eq!(msgs_sent, expect(1));
        assert_eq!(msgs_recv, expect(2));
        assert_eq!(bytes_sent, expect(3));
        assert_eq!(bytes_recv, expect(4));
        assert_eq!(read_faults, expect(5));
        assert_eq!(write_faults, expect(6));
        assert_eq!(page_fetches, expect(7));
        assert_eq!(diffs_created, expect(8));
        assert_eq!(diff_bytes, expect(9));
        assert_eq!(twins_created, expect(10));
        assert_eq!(log_flushes, expect(11));
        assert_eq!(log_bytes, expect(12));
        assert_eq!(lock_acquires, expect(13));
        assert_eq!(barriers, expect(14));
        assert_eq!(timeouts, expect(15));
        assert_eq!(retransmits, expect(16));
        assert_eq!(dups_suppressed, expect(17));
        assert_eq!(sends_to_stopped, expect(18));
        assert_eq!(sched_stalls, expect(19));
        assert_eq!(compute_time.as_nanos(), expect(20));
        assert_eq!(wait_time.as_nanos(), expect(21));
        assert_eq!(disk_time.as_nanos(), expect(22));
        assert_eq!(disk_time_overlapped.as_nanos(), expect(23));
        assert_eq!(prefetch_issued, expect(24));
        assert_eq!(prefetch_hits, expect(25));
        assert_eq!(prefetch_wasted, expect(26));
        assert_eq!(home_migrations, expect(27));
        for i in 0..TRAFFIC_KINDS {
            assert_eq!(msgs_by_kind[i], expect(28 + i as u64));
            assert_eq!(
                bytes_by_kind[i],
                expect(28 + TRAFFIC_KINDS as u64 + i as u64)
            );
        }
        assert_eq!(recovery_stalls, expect(28 + 2 * TRAFFIC_KINDS as u64));
        assert_eq!(recovery_traps, expect(29 + 2 * TRAFFIC_KINDS as u64));
    }

    #[test]
    fn count_kind_buckets_and_clamps() {
        let mut s = NodeStats::default();
        s.count_kind(3, 100);
        s.count_kind(3, 50);
        s.count_kind(TRAFFIC_KINDS + 7, 9);
        assert_eq!(s.msgs_by_kind[3], 2);
        assert_eq!(s.bytes_by_kind[3], 150);
        assert_eq!(s.msgs_by_kind[TRAFFIC_KINDS - 1], 1);
        assert_eq!(s.bytes_by_kind[TRAFFIC_KINDS - 1], 9);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NodeStats {
            msgs_sent: 3,
            log_bytes: 100,
            compute_time: SimDuration::from_nanos(5),
            ..Default::default()
        };
        let b = NodeStats {
            msgs_sent: 4,
            log_bytes: 50,
            compute_time: SimDuration::from_nanos(7),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 7);
        assert_eq!(a.log_bytes, 150);
        assert_eq!(a.compute_time.as_nanos(), 12);
    }

    #[test]
    fn mean_log_flush_handles_zero() {
        let s = NodeStats::default();
        assert_eq!(s.mean_log_flush_bytes(), 0.0);
        let s = NodeStats {
            log_flushes: 4,
            log_bytes: 1000,
            ..Default::default()
        };
        assert_eq!(s.mean_log_flush_bytes(), 250.0);
    }

    #[test]
    fn faults_sum_read_and_write() {
        let s = NodeStats {
            read_faults: 2,
            write_faults: 5,
            ..Default::default()
        };
        assert_eq!(s.faults(), 7);
    }
}
