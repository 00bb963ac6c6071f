//! Cost models for the simulated cluster hardware.
//!
//! The defaults are calibrated to the paper's testbed: eight Sun Ultra-5
//! workstations (270 MHz UltraSPARC-IIi, 64 MB RAM) connected by a
//! 100 Mbps fast-Ethernet switch, with late-1990s local disks used for
//! stable storage. Absolute values only set the scale of reported times;
//! the protocol *comparisons* depend on the ratios (network round-trip
//! vs. disk access vs. per-byte costs), which these defaults preserve.

use crate::time::SimDuration;

/// Point-to-point network cost model: `latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    /// One-way message latency (wire + protocol stack).
    pub latency: SimDuration,
    /// Transfer cost per payload byte (inverse bandwidth).
    pub ns_per_byte: u64,
}

impl NetworkModel {
    /// 100 Mbps switched Ethernet with a UDP/IP software stack of the era:
    /// ~120 us one-way latency, 80 ns/byte (= 100 Mbps).
    pub const FAST_ETHERNET: NetworkModel = NetworkModel {
        latency: SimDuration::from_micros(120),
        ns_per_byte: 80,
    };

    /// Time for one message carrying `bytes` of payload to cross the wire.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        self.latency + SimDuration::from_nanos(self.ns_per_byte.saturating_mul(bytes as u64))
    }

    /// A full request/reply round trip with the given payload sizes.
    #[inline]
    pub fn round_trip(&self, request_bytes: usize, reply_bytes: usize) -> SimDuration {
        self.transfer_time(request_bytes) + self.transfer_time(reply_bytes)
    }
}

/// Stable-storage (local disk) cost model: `access latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    /// Positioning cost per access (seek + rotational delay + syscall).
    pub access_latency: SimDuration,
    /// Sequential transfer cost per byte (device bandwidth).
    pub ns_per_byte: u64,
    /// CPU cost per byte of a *buffered* write: the `write()` syscall
    /// copies the log into the OS page cache; the device drains it in
    /// the background. This is the part of a log flush that is always
    /// on the critical path, even with write-behind.
    pub buffered_write_ns_per_byte: u64,
}

impl DiskModel {
    /// One `read()` call that continues a sequential scan: no seek.
    pub const READ_CALL: SimDuration = SimDuration::from_micros(20);

    /// A late-1990s local disk: ~8 ms per random access, ~16 MB/s
    /// sequential bandwidth (60 ns/byte), ~30 ns/byte for the buffered
    /// write() copy into the OS page cache.
    pub const ULTRA5_LOCAL: DiskModel = DiskModel {
        access_latency: SimDuration::from_millis(8),
        ns_per_byte: 60,
        buffered_write_ns_per_byte: 30,
    };

    /// Time to synchronously write `bytes` in one access.
    #[inline]
    pub fn write_time(&self, bytes: usize) -> SimDuration {
        self.access_latency + SimDuration::from_nanos(self.ns_per_byte.saturating_mul(bytes as u64))
    }

    /// Time to read `bytes` in one access (a cold read: it seeks).
    #[inline]
    pub fn read_time(&self, bytes: usize) -> SimDuration {
        // Reads and writes cost the same at the device under this model.
        self.write_time(bytes)
    }

    /// CPU cost of handing `bytes` to the OS page cache (buffered
    /// `write()`), independent of when the device drains them.
    #[inline]
    pub fn buffered_write_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.buffered_write_ns_per_byte.saturating_mul(bytes as u64))
    }

    /// Background drain time of `bytes` of *sequential log appends*:
    /// bandwidth only — the append-only log needs no per-flush seek
    /// (the cache coalesces adjacent writes).
    #[inline]
    pub fn drain_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.ns_per_byte.saturating_mul(bytes as u64))
    }
}

/// Processor-side cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuModel {
    /// Cost of one unit of application arithmetic (a "flop" charge).
    pub ns_per_flop: u64,
    /// Cost per byte of memory copy / comparison (twin creation,
    /// diff encode and apply).
    pub ns_per_byte_copy: u64,
    /// Fixed cost of taking a page-protection fault and entering the
    /// DSM handler (SIGSEGV + context switch on the paper's testbed).
    pub fault_trap: SimDuration,
    /// Fixed cost of servicing one incoming protocol message
    /// (interrupt-driven handler entry/exit).
    pub message_handler: SimDuration,
}

impl CpuModel {
    /// A 270 MHz UltraSPARC-IIi: ~12 cycles (45 ns) per application
    /// operation once cache misses, addressing and loop overhead are
    /// folded in, ~3 ns/byte for in-memory copies, ~60 us per VM trap,
    /// ~25 us per asynchronous message handler.
    pub const ULTRASPARC_270: CpuModel = CpuModel {
        ns_per_flop: 45,
        ns_per_byte_copy: 3,
        fault_trap: SimDuration::from_micros(60),
        message_handler: SimDuration::from_micros(25),
    };

    /// Cost of `n` application arithmetic units.
    #[inline]
    pub fn flops(&self, n: u64) -> SimDuration {
        SimDuration::from_nanos(self.ns_per_flop.saturating_mul(n))
    }

    /// Cost of copying or comparing `bytes` bytes of memory.
    #[inline]
    pub fn copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.ns_per_byte_copy.saturating_mul(bytes as u64))
    }
}

/// The complete hardware model for one cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Network cost model.
    pub net: NetworkModel,
    /// Stable-storage cost model.
    pub disk: DiskModel,
    /// Processor cost model.
    pub cpu: CpuModel,
}

impl CostModel {
    /// The paper's testbed: Ultra-5 nodes, fast Ethernet, local disks.
    pub const ULTRA5_CLUSTER: CostModel = CostModel {
        net: NetworkModel::FAST_ETHERNET,
        disk: DiskModel::ULTRA5_LOCAL,
        cpu: CpuModel::ULTRASPARC_270,
    };
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ULTRA5_CLUSTER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_transfer_scales_with_size() {
        let net = NetworkModel::FAST_ETHERNET;
        let small = net.transfer_time(64);
        let page = net.transfer_time(4096);
        assert!(page > small);
        // 4 KB page at 100 Mbps ~= 327 us of occupancy + 120 us latency.
        assert_eq!(page.as_nanos(), 120_000 + 4096 * 80);
    }

    #[test]
    fn round_trip_is_sum_of_legs() {
        let net = NetworkModel::FAST_ETHERNET;
        assert_eq!(
            net.round_trip(64, 4096),
            net.transfer_time(64) + net.transfer_time(4096)
        );
    }

    #[test]
    fn disk_latency_dominates_small_writes() {
        let disk = DiskModel::ULTRA5_LOCAL;
        let w = disk.write_time(512);
        // positioning cost >> transfer cost at this size
        assert!(w.as_nanos() > 8_000_000);
        assert!(w.as_nanos() < 9_000_000);
    }

    #[test]
    fn disk_read_equals_write() {
        let disk = DiskModel::ULTRA5_LOCAL;
        assert_eq!(disk.read_time(4096), disk.write_time(4096));
    }

    #[test]
    fn cpu_charges() {
        let cpu = CpuModel::ULTRASPARC_270;
        assert_eq!(cpu.flops(1000).as_nanos(), 45_000);
        assert_eq!(cpu.copy(4096).as_nanos(), 3 * 4096);
    }

    #[test]
    fn paper_scale_sanity_disk_slower_than_net_roundtrip() {
        // The key ratio behind the paper's overlap argument: one disk
        // access costs more than a diff round-trip, so overlapping the
        // flush with communication hides most of the communication, and
        // serial flushing (ML) pays the full disk latency on the
        // critical path.
        let m = CostModel::default();
        let diff_rt = m.net.round_trip(256, 32);
        let flush = m.disk.write_time(1024);
        assert!(flush > diff_rt);
    }
}
