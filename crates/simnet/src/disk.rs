//! Per-node simulated stable storage.
//!
//! A [`SimDisk`] stores byte-exact record streams (the fault-tolerance
//! layer's logs and checkpoints) and charges virtual time for every
//! access through its [`DiskModel`]. Contents survive a simulated crash
//! of the owning node — that is the whole point of stable storage — so
//! the recovery protocols read back exactly the bytes that were flushed.
//!
//! A stored [`DiskRecord`] is its own bytes plus at most one *shared
//! span*: a buffer the node already holds (a page copy as the home
//! shipped it) spliced in by reference instead of copied. Its logical
//! bytes are head ++ span ++ tail, and every length, capacity check,
//! fault and read is defined on those; the sharing is invisible except
//! to [`DiskRecord::shared`]. A fault that changes a record's bytes
//! flattens that record first, so damage never reaches a buffer some
//! other record (or node) shares.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::fault::{DiskFaultPlan, SplitMix64};
use crate::models::DiskModel;
use crate::time::{SimDuration, SimTime};

/// Aggregate disk counters (reported in Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Number of write accesses (log flushes, checkpoint writes).
    pub writes: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of read accesses (recovery log reads).
    pub reads: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Writes that needed one retry (transient fault, data persisted).
    pub write_retries: u64,
    /// Writes lost because the device had failed permanently.
    pub failed_writes: u64,
    /// Flushes refused whole because the device was at capacity.
    pub full_writes: u64,
    /// Records damaged or lost by a mid-flush crash (torn tail).
    pub torn_records: u64,
    /// Records silently damaged at rest by injected latent bit rot.
    pub corrupted_records: u64,
}

/// One persisted record: `bytes`, with at most one shared span spliced
/// in at `at`. Its logical bytes are `bytes[..at] ++ span ++ bytes[at..]`;
/// equality, length and every fault are on those.
#[derive(Clone, Default)]
pub struct DiskRecord {
    bytes: Vec<u8>,
    span: Option<(usize, Arc<[u8]>)>,
}

impl DiskRecord {
    /// A record whose logical bytes are `head ++ span ++ tail`, held as
    /// `bytes` = head ++ tail with the span shared, not copied.
    pub fn spliced(bytes: Vec<u8>, at: usize, span: Arc<[u8]>) -> DiskRecord {
        assert!(at <= bytes.len(), "span offset past the record's bytes");
        DiskRecord {
            bytes,
            span: Some((at, span)),
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len() + self.span.as_ref().map_or(0, |(_, s)| s.len())
    }

    /// Whether the record holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical bytes as head, span and tail (span and tail empty
    /// for a flat record).
    pub fn pieces(&self) -> [&[u8]; 3] {
        match &self.span {
            None => [&self.bytes, &[], &[]],
            Some((at, span)) => [&self.bytes[..*at], span, &self.bytes[*at..]],
        }
    }

    /// The shared span, if the record has one.
    pub fn shared(&self) -> Option<&Arc<[u8]>> {
        self.span.as_ref().map(|(_, span)| span)
    }

    /// The logical bytes, one at a time.
    fn logical(&self) -> impl Iterator<Item = &u8> {
        self.pieces().into_iter().flatten()
    }

    /// A private copy of the logical bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        self.pieces().concat()
    }

    /// The logical bytes to change in place: a spliced record is made
    /// flat first (its span copied), so no change reaches a shared
    /// buffer.
    pub fn flat_mut(&mut self) -> &mut Vec<u8> {
        if self.span.is_some() {
            self.bytes = self.to_vec();
            self.span = None;
        }
        &mut self.bytes
    }
}

impl From<Vec<u8>> for DiskRecord {
    fn from(bytes: Vec<u8>) -> DiskRecord {
        DiskRecord { bytes, span: None }
    }
}

impl PartialEq for DiskRecord {
    fn eq(&self, other: &DiskRecord) -> bool {
        self.len() == other.len() && self.logical().eq(other.logical())
    }
}

impl Eq for DiskRecord {}

impl PartialEq<Vec<u8>> for DiskRecord {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.len() == other.len() && self.logical().eq(other.iter())
    }
}

impl fmt::Debug for DiskRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.span {
            None => write!(f, "DiskRecord({:?})", self.bytes),
            Some((at, span)) => write!(
                f,
                "DiskRecord({} bytes, {} shared at {at})",
                self.len(),
                span.len()
            ),
        }
    }
}

/// A simulated local disk holding named append-only record streams.
#[derive(Debug)]
pub struct SimDisk {
    model: DiskModel,
    streams: BTreeMap<String, Vec<DiskRecord>>,
    counters: DiskCounters,
    /// Injected write-fault schedule, if any.
    faults: Option<DiskFaultState>,
    /// Permanently failed for writes. Previously persisted data stays
    /// readable (a dead log device, not media loss).
    failed: bool,
    /// At capacity: flushes are refused until a truncation frees space.
    full: bool,
    /// The most recent successful flush: `(stream, first record index)`.
    /// A mid-flush crash tears into exactly this batch.
    last_flush: Option<(String, usize)>,
    /// When the device finishes draining the batches queued behind the
    /// node's back so far ([`SimDisk::write_behind`]). The queue is the
    /// device's: it drains on through a crash of its node.
    free_at: SimTime,
}

/// One sequential scan of a stream from its first byte, continuing
/// where the head already is: started at one instant, it drains at the
/// device's bandwidth, so its first `n` bytes are in memory at
/// [`LogScan::ready_at`]`(n)`. Made by [`SimDisk::warm_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogScan {
    start: SimTime,
    model: DiskModel,
    /// Bytes handed out by reads so far.
    read: usize,
}

impl LogScan {
    /// When the scan holds its first `bytes` bytes.
    pub fn ready_at(&self, bytes: usize) -> SimTime {
        self.start + self.model.drain_time(bytes)
    }
}

#[derive(Debug)]
struct DiskFaultState {
    plan: DiskFaultPlan,
    rng: SplitMix64,
    writes_judged: u64,
}

impl SimDisk {
    /// Create a disk with the given cost model.
    pub fn new(model: DiskModel) -> SimDisk {
        SimDisk {
            model,
            streams: BTreeMap::new(),
            counters: DiskCounters::default(),
            faults: None,
            failed: false,
            full: false,
            last_flush: None,
            free_at: SimTime::ZERO,
        }
    }

    /// Arm a write-fault schedule (a no-op plan is not stored, keeping
    /// the fault-free write path untouched).
    pub fn set_faults(&mut self, plan: DiskFaultPlan) {
        if !plan.is_none() {
            self.faults = Some(DiskFaultState {
                rng: SplitMix64::new(plan.seed),
                plan,
                writes_judged: 0,
            });
        }
    }

    /// True once the device has failed permanently for writes.
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// True while the device is at its capacity bound: the last flush
    /// was refused and nothing will persist until a truncation frees
    /// space (the deterministic `LogDeviceFull` condition).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Total bytes persisted across all streams.
    pub fn used_bytes(&self) -> u64 {
        self.streams
            .values()
            .flatten()
            .map(|r| r.len() as u64)
            .sum()
    }

    /// Recompute the capacity condition after records were freed.
    fn update_full(&mut self) {
        if let Some(cap) = self.faults.as_ref().and_then(|st| st.plan.capacity_bytes) {
            self.full = self.used_bytes() >= cap;
        }
    }

    /// The disk's cost model.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// Snapshot of the access counters.
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    /// Flush a batch of records to `stream` in a single disk access.
    ///
    /// Returns the virtual time the access takes. The caller decides how
    /// that time lands on its clock: ML adds it to the critical path,
    /// CCL overlaps it with coherence communication.
    /// With an armed fault schedule a write may be refused by the
    /// capacity bound, cost a retry (transient) or be lost entirely once
    /// the device has failed permanently; callers poll
    /// [`SimDisk::has_failed`] after flushing to detect degradation.
    pub fn flush_records<I>(&mut self, stream: &str, records: I) -> SimDuration
    where
        I: IntoIterator,
        I::Item: Into<DiskRecord>,
    {
        let mut records: Vec<DiskRecord> = records.into_iter().map(Into::into).collect();
        let bytes: usize = records.iter().map(DiskRecord::len).sum();
        if !self.failed {
            // Capacity bound: a flush that would overflow is refused
            // whole (nothing persists) and the device reports itself
            // full until a truncation frees space. The caller pays one
            // futile access discovering ENOSPC. Only a bounded device
            // counts what it holds.
            if let Some(cap) = self.faults.as_ref().and_then(|st| st.plan.capacity_bytes) {
                self.full |= self.used_bytes() + bytes as u64 > cap;
            }
            if self.full {
                self.counters.full_writes += 1;
                return self.model.write_time(0);
            }
        }
        let mut retried = false;
        if let Some(st) = self.faults.as_mut().filter(|_| !self.failed) {
            st.writes_judged += 1;
            self.failed = st.plan.fail_after_writes == Some(st.writes_judged);
            retried = !self.failed
                && st.plan.transient_per_mille > 0
                && st.rng.below(1000) < st.plan.transient_per_mille as u64;
            // Latent bit rot is injected while the record is persisted
            // (deterministic regardless of read order); like real media
            // decay it is only *detected* when a recovery scan verifies
            // the record's frame CRC.
            let per_mille = st.plan.corrupt_per_mille;
            if !self.failed && per_mille > 0 {
                for r in &mut records {
                    if st.rng.below(1000) < per_mille as u64 && !r.is_empty() {
                        let bit = st.rng.below(r.len() as u64 * 8) as usize;
                        r.flat_mut()[bit / 8] ^= 1 << (bit % 8);
                        self.counters.corrupted_records += 1;
                    }
                }
            }
        }
        if self.failed {
            // The write is lost. The caller still pays one (futile)
            // access worth of latency discovering the failure.
            self.counters.failed_writes += 1;
            return self.model.write_time(0);
        }
        let dst = self.streams.entry(stream.to_string()).or_default();
        self.last_flush = Some((stream.to_string(), dst.len()));
        dst.extend(records);
        self.counters.writes += 1;
        self.counters.bytes_written += bytes as u64;
        let mut cost = self.model.write_time(bytes);
        if retried {
            self.counters.write_retries += 1;
            cost += self.model.write_time(bytes);
        }
        cost
    }

    /// Queue a batch the OS cache took at `now` behind whatever the
    /// device is still draining, `drain` long, and let it proceed in the
    /// background. Returns the backpressure: how long a writer would
    /// stall for the device to take the batch now.
    pub fn write_behind(&mut self, now: SimTime, drain: SimDuration) -> SimDuration {
        let backpressure = self.free_at.saturating_since(now);
        self.free_at = now.max(self.free_at) + drain;
        backpressure
    }

    /// Tear into the most recent successful flush, as a crash landing
    /// mid-access would: a seeded prefix of the batch stays fully
    /// persisted, the next record is damaged (`garble` flips one seeded
    /// bit; otherwise the record is truncated short), and the rest of
    /// the batch never reaches the platter. Returns false if there is
    /// no flushed batch to tear.
    ///
    /// All randomness comes from `seed`, so a given crash schedule
    /// tears identically in every run.
    pub fn tear_last_flush(&mut self, seed: u64, garble: bool) -> bool {
        let Some((stream, first)) = self.last_flush.clone() else {
            return false;
        };
        let Some(v) = self.streams.get_mut(&stream) else {
            return false;
        };
        if first >= v.len() {
            return false;
        }
        let batch = v.len() - first;
        let mut rng = SplitMix64::new(seed);
        let keep = rng.below(batch as u64) as usize;
        let victim = &mut v[first + keep];
        if garble && !victim.is_empty() {
            let bit = rng.below(victim.len() as u64 * 8) as usize;
            victim.flat_mut()[bit / 8] ^= 1 << (bit % 8);
        } else {
            let torn_len = rng.below(victim.len().max(1) as u64) as usize;
            victim.flat_mut().truncate(torn_len);
        }
        v.truncate(first + keep + 1);
        self.counters.torn_records += (batch - keep) as u64;
        self.last_flush = None;
        self.update_full();
        true
    }

    /// Number of records currently in `stream`.
    pub fn record_count(&self, stream: &str) -> usize {
        self.streams.get(stream).map_or(0, |v| v.len())
    }

    /// Total bytes currently in `stream`.
    pub fn stream_bytes(&self, stream: &str) -> usize {
        self.streams
            .get(stream)
            .map_or(0, |v| v.iter().map(|r| r.len()).sum())
    }

    /// A stream's records, without charging any access time.
    ///
    /// Recovery scans and replays its stable log from here and charges
    /// the reads it models explicitly: [`SimDisk::scan_read`] for each
    /// record an ML replay reads and each interval a CCL replay reads
    /// from a [`LogScan`], [`SimDisk::read_cost`] for a checkpoint.
    pub fn peek_stream(&self, stream: &str) -> &[DiskRecord] {
        self.streams.get(stream).map_or(&[], |v| v.as_slice())
    }

    /// A sequential scan that continues where the head already is, from
    /// `at` on: no seek. Nothing is counted until it is read
    /// ([`SimDisk::scan_read`]).
    pub fn warm_scan(&self, at: SimTime) -> LogScan {
        LogScan {
            start: at,
            model: self.model,
            read: 0,
        }
    }

    /// One `read()` call for the next `bytes` of `scan`, issued at
    /// `now`: [`DiskModel::READ_CALL`] plus the wait until the scan
    /// holds the last of them. Counts as one access; a zero-byte read
    /// is free and uncounted.
    pub fn scan_read(&mut self, scan: &mut LogScan, bytes: usize, now: SimTime) -> SimDuration {
        if !self.count_read(bytes) {
            return SimDuration::ZERO;
        }
        scan.read += bytes;
        DiskModel::READ_CALL + scan.ready_at(scan.read).saturating_since(now)
    }

    /// Cost of one cold read of `bytes`, head positioning included
    /// ([`DiskModel::read_time`]); counts as one access, and a
    /// zero-byte read is free and uncounted.
    pub fn read_cost(&mut self, bytes: usize) -> SimDuration {
        if !self.count_read(bytes) {
            return SimDuration::ZERO;
        }
        self.model.read_time(bytes)
    }

    /// Count one read access of `bytes`, unless it is empty; returns
    /// whether it counted.
    fn count_read(&mut self, bytes: usize) -> bool {
        if bytes == 0 {
            return false;
        }
        self.counters.reads += 1;
        self.counters.bytes_read += bytes as u64;
        true
    }

    /// Drop all records in `stream` (log truncation after a checkpoint).
    /// Free, like unlinking a file. A permanently failed device refuses:
    /// the persisted prefix is all the recovery data the node has left,
    /// and no new checkpoint can supersede it.
    pub fn truncate(&mut self, stream: &str) {
        if self.failed {
            return;
        }
        if let Some(v) = self.streams.get_mut(stream) {
            v.clear();
        }
        self.update_full();
    }

    /// Cut `stream` down to its first `keep` records (salvage repair:
    /// a verified prefix survives, the torn/corrupt tail is removed).
    /// Free, like `ftruncate`. A permanently failed device refuses,
    /// same as [`SimDisk::truncate`].
    pub fn truncate_records(&mut self, stream: &str, keep: usize) {
        if self.failed {
            return;
        }
        if let Some(v) = self.streams.get_mut(stream) {
            v.truncate(keep);
        }
        self.update_full();
    }

    /// Replace `stream`'s contents wholesale (checkpoint compaction:
    /// retained images plus newly written ones). Charges one write
    /// access of `charged_bytes` — only the *new* bytes; retained
    /// records are already on the platter and move by rename. A failed
    /// device refuses and the caller pays one futile access.
    pub fn rewrite_stream<R: Into<DiskRecord>>(
        &mut self,
        stream: &str,
        records: Vec<R>,
        charged_bytes: usize,
    ) -> SimDuration {
        if self.failed {
            self.counters.failed_writes += 1;
            return self.model.write_time(0);
        }
        let records = records.into_iter().map(Into::into).collect();
        self.streams.insert(stream.to_string(), records);
        self.last_flush = None;
        self.counters.writes += 1;
        self.counters.bytes_written += charged_bytes as u64;
        self.update_full();
        self.model.write_time(charged_bytes)
    }

    /// Names of all non-empty streams (diagnostics).
    pub fn stream_names(&self) -> Vec<&str> {
        self.streams
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel::ULTRA5_LOCAL)
    }

    #[test]
    fn flush_then_read_roundtrips() {
        let mut d = disk();
        let cost = d.flush_records("log", vec![vec![1, 2, 3], vec![4, 5]]);
        assert!(cost.as_nanos() > 0);
        assert_eq!(d.record_count("log"), 2);
        assert_eq!(d.stream_bytes("log"), 5);
        assert_eq!(d.peek_stream("log")[1], vec![4, 5]);
    }

    #[test]
    fn batch_flush_is_one_access() {
        let mut d = disk();
        d.flush_records("log", (0..10).map(|i| vec![i as u8; 100]));
        assert_eq!(d.counters().writes, 1);
        assert_eq!(d.counters().bytes_written, 1000);
    }

    #[test]
    fn batch_flush_cheaper_than_individual() {
        let mut a = disk();
        let batch = a.flush_records("log", (0..10).map(|i| vec![i as u8; 100]));
        let mut b = disk();
        let individual: SimDuration = (0..10)
            .map(|i| b.flush_records("log", vec![vec![i as u8; 100]]))
            .sum();
        assert!(batch < individual);
    }

    /// A replay read continues a scan: read from a fresh one, it pays
    /// one call plus bandwidth, no seek.
    #[test]
    fn replay_read_pays_one_call_plus_bandwidth() {
        let mut d = disk();
        let call = DiskModel::READ_CALL + DiskModel::ULTRA5_LOCAL.drain_time(30);
        assert_eq!(d.scan_read(&mut d.warm_scan(T0), 30, T0), call);
        assert_eq!(d.counters().reads, 1);
        assert_eq!(d.counters().bytes_read, 30);
        assert!(d.scan_read(&mut d.warm_scan(T0), 30, T0) < d.read_cost(30));
    }

    const T0: SimTime = SimTime::ZERO;

    fn at(ns: u64) -> SimTime {
        T0 + SimDuration::from_nanos(ns)
    }

    /// A read the scan has not reached yet pays the call and the wait
    /// for its last byte: at the scan's start, the whole drain.
    #[test]
    fn a_scan_read_before_the_scan_arrives_pays_the_wait() {
        let mut d = disk();
        let model = DiskModel::ULTRA5_LOCAL;
        let mut scan = d.warm_scan(T0);
        let first = DiskModel::READ_CALL + model.drain_time(100);
        assert_eq!(d.scan_read(&mut scan, 100, T0), first);
        // Halfway through the next 100 bytes' drain: half of it is left.
        let now = scan.ready_at(150);
        let rest = DiskModel::READ_CALL + model.drain_time(50);
        assert_eq!(d.scan_read(&mut scan, 100, now), rest);
        assert_eq!(d.counters().reads, 2);
        assert_eq!(d.counters().bytes_read, 200);
    }

    /// A read of bytes the scan already holds pays only the call.
    #[test]
    fn a_scan_read_after_the_scan_arrives_pays_only_the_call() {
        let mut d = disk();
        let mut scan = d.warm_scan(at(1_000));
        let later = scan.ready_at(300) + SimDuration::from_micros(5);
        assert_eq!(d.scan_read(&mut scan, 300, later), DiskModel::READ_CALL);
        assert_eq!(d.scan_read(&mut scan, 0, later), SimDuration::ZERO);
        assert_eq!(d.counters().reads, 1);
        assert_eq!(d.counters().bytes_read, 300);
    }

    /// An empty scan read is no access.
    #[test]
    fn a_zero_byte_scan_read_is_free_and_not_counted() {
        let mut d = disk();
        let mut scan = d.warm_scan(T0);
        assert_eq!(d.scan_read(&mut scan, 0, T0), SimDuration::ZERO);
        assert_eq!(d.counters(), DiskCounters::default());
    }

    #[test]
    fn truncate_clears_records() {
        let mut d = disk();
        d.flush_records("log", vec![vec![1u8; 8]]);
        d.truncate("log");
        assert_eq!(d.record_count("log"), 0);
        assert!(d.peek_stream("log").is_empty());
    }

    #[test]
    fn missing_record_returns_none() {
        let d = disk();
        assert!(d.peek_stream("nope").is_empty());
    }

    #[test]
    fn transient_fault_retries_cost_more_but_persist() {
        let mut clean = disk();
        let base = clean.flush_records("log", vec![vec![1u8; 100]]);
        let mut d = disk();
        d.set_faults(DiskFaultPlan::transient(1, 1000)); // always retry
        let cost = d.flush_records("log", vec![vec![1u8; 100]]);
        assert!(cost > base);
        assert_eq!(d.record_count("log"), 1);
        assert_eq!(d.counters().write_retries, 1);
        assert!(!d.has_failed());
    }

    #[test]
    fn permanent_fault_loses_writes_keeps_reads() {
        let mut d = disk();
        d.set_faults(DiskFaultPlan::permanent_at(2));
        d.flush_records("log", vec![vec![1u8; 8]]); // write 1: persisted
        d.flush_records("log", vec![vec![2u8; 8]]); // write 2: device dies
        d.flush_records("log", vec![vec![3u8; 8]]); // lost
        assert!(d.has_failed());
        assert_eq!(d.record_count("log"), 1);
        assert_eq!(d.counters().failed_writes, 2);
        // Persisted prefix still readable (dead device, not media loss).
        assert_eq!(d.peek_stream("log"), [vec![1u8; 8]]);
    }

    #[test]
    fn failed_device_refuses_truncation() {
        let mut d = disk();
        d.set_faults(DiskFaultPlan::permanent_at(2));
        d.flush_records("log", vec![vec![1u8; 8]]);
        d.flush_records("log", vec![vec![2u8; 8]]); // device dies
        d.truncate("log");
        assert_eq!(d.record_count("log"), 1, "prefix must survive");
    }

    #[test]
    fn noop_fault_plan_changes_nothing() {
        let mut a = disk();
        let mut b = disk();
        b.set_faults(DiskFaultPlan::none());
        let ca = a.flush_records("log", vec![vec![7u8; 64]]);
        let cb = b.flush_records("log", vec![vec![7u8; 64]]);
        assert_eq!(ca, cb);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn stream_names_filters_empty() {
        let mut d = disk();
        d.flush_records("a", vec![vec![1]]);
        d.flush_records("b", Vec::<Vec<u8>>::new());
        assert_eq!(d.stream_names(), vec!["a"]);
    }

    /// Read counters are exact: a zero-byte read, cold or replay, is
    /// not a disk access (Table 2 read counts must only reflect real
    /// transfers).
    #[test]
    fn empty_reads_are_not_accesses() {
        let mut d = disk();
        assert_eq!(d.scan_read(&mut d.warm_scan(T0), 0, T0), SimDuration::ZERO);
        assert_eq!(d.read_cost(0), SimDuration::ZERO);
        assert_eq!(d.counters().reads, 0);
        assert_eq!(d.counters().bytes_read, 0);
        // A real transfer still counts exactly once.
        d.read_cost(4);
        assert_eq!(d.counters().reads, 1);
        assert_eq!(d.counters().bytes_read, 4);
    }

    #[test]
    fn capacity_bound_refuses_overflow_until_truncation() {
        let mut d = disk();
        d.set_faults(DiskFaultPlan::none().with_capacity(100));
        d.flush_records("log", vec![vec![1u8; 60]]);
        assert!(!d.is_full());
        // This flush would overflow: refused whole, device now full.
        d.flush_records("log", vec![vec![2u8; 60]]);
        assert!(d.is_full());
        assert_eq!(d.record_count("log"), 1);
        assert_eq!(d.counters().full_writes, 1);
        // Still full: later flushes keep being refused.
        d.flush_records("log", vec![vec![3u8; 1]]);
        assert_eq!(d.counters().full_writes, 2);
        // Truncation frees space and clears the condition.
        d.truncate("log");
        assert!(!d.is_full());
        d.flush_records("log", vec![vec![4u8; 60]]);
        assert_eq!(d.record_count("log"), 1);
    }

    #[test]
    fn tear_last_flush_keeps_prefix_and_damages_tail() {
        let mut d = disk();
        d.flush_records("log", vec![vec![0u8; 8]]);
        d.flush_records("log", (0..5).map(|i| vec![i as u8 + 1; 16]));
        assert!(d.tear_last_flush(0xBEEF, false));
        // The earlier flush is untouched; the torn batch keeps a
        // prefix plus one short record, and the rest is gone.
        let n = d.record_count("log");
        assert!((2..=6).contains(&n), "{n} records survived");
        assert_eq!(d.peek_stream("log")[0], vec![0u8; 8]);
        let last = d.peek_stream("log").last().unwrap();
        assert!(last.len() < 16, "torn record must be short");
        assert!(d.counters().torn_records > 0);
        // The batch is consumed: a second tear finds nothing.
        assert!(!d.tear_last_flush(0xBEEF, false));
    }

    #[test]
    fn tear_is_deterministic_per_seed() {
        let run = |seed: u64, garble: bool| {
            let mut d = disk();
            d.flush_records("log", (0..6).map(|i| vec![i as u8; 32]));
            d.tear_last_flush(seed, garble);
            d.peek_stream("log").to_vec()
        };
        assert_eq!(run(7, false), run(7, false));
        assert_eq!(run(7, true), run(7, true));
        assert_ne!(run(7, false), run(8, false));
    }

    #[test]
    fn garbled_tear_flips_one_bit() {
        let mut d = disk();
        d.flush_records("log", vec![vec![0u8; 64]]);
        assert!(d.tear_last_flush(3, true));
        let rec = d.peek_stream("log")[0].to_vec();
        assert_eq!(rec.len(), 64, "garble keeps the length");
        let flipped: u32 = rec.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
    }

    #[test]
    fn bit_rot_damages_records_deterministically() {
        let mut d = disk();
        d.set_faults(DiskFaultPlan::bit_rot(42, 1000)); // every record
        d.flush_records("log", vec![vec![0u8; 32], vec![0u8; 32]]);
        assert_eq!(d.counters().corrupted_records, 2);
        for rec in d.peek_stream("log") {
            let flipped: u32 = rec.to_vec().iter().map(|b| b.count_ones()).sum();
            assert_eq!(flipped, 1);
        }
        let mut e = disk();
        e.set_faults(DiskFaultPlan::bit_rot(42, 1000));
        e.flush_records("log", vec![vec![0u8; 32], vec![0u8; 32]]);
        assert_eq!(d.peek_stream("log"), e.peek_stream("log"));
    }

    #[test]
    fn truncate_records_cuts_tail_only() {
        let mut d = disk();
        d.flush_records("log", (0..5).map(|i| vec![i as u8; 4]));
        d.truncate_records("log", 3);
        assert_eq!(d.record_count("log"), 3);
        assert_eq!(d.peek_stream("log")[2], vec![2u8; 4]);
    }

    #[test]
    fn rewrite_stream_replaces_and_charges_only_new_bytes() {
        let mut d = disk();
        d.flush_records("ckpt", (0..4).map(|i| vec![i as u8; 100]));
        let before = d.counters();
        let cost = d.rewrite_stream("ckpt", vec![vec![9u8; 100], vec![8u8; 50]], 50);
        assert_eq!(d.record_count("ckpt"), 2);
        assert_eq!(d.counters().writes, before.writes + 1);
        assert_eq!(d.counters().bytes_written, before.bytes_written + 50);
        assert_eq!(cost, DiskModel::ULTRA5_LOCAL.write_time(50));
    }
}
