//! Bounded, allocation-pooled sink for the structured telemetry stream.
//!
//! Every node appends [`TraceEvent`]s on the protocol hot path (message
//! sends and receives included), so the sink must be cheap and must
//! never grow without bound on a long run: past its capacity it counts
//! drops instead of allocating. Event buffers are recycled through a
//! process-wide pool — a bench or report process running dozens of
//! cluster runs reuses the same handful of multi-megabyte buffers
//! instead of re-growing one per node per run.

use std::sync::Mutex;

use crate::engine::TraceEvent;

/// Default per-node event capacity: generous for every workload in the
/// repo (paper-scale runs emit on the order of 10⁵ events per node)
/// while bounding worst-case memory to tens of MB per node.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// At most this many retired buffers are kept for reuse.
const POOL_LIMIT: usize = 64;

static POOL: Mutex<Vec<Vec<TraceEvent>>> = Mutex::new(Vec::new());

fn pool_get() -> Vec<TraceEvent> {
    POOL.lock()
        .map(|mut p| p.pop().unwrap_or_default())
        .unwrap_or_default()
}

/// Return a consumed event buffer to the pool (cleared, allocation
/// kept). Consumers that drain a run's trace — the Chrome-trace
/// exporter, report pipelines — call this when they are done so the
/// next run's sinks start with warm buffers.
pub fn recycle_trace_buffer(mut buf: Vec<TraceEvent>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    if let Ok(mut p) = POOL.lock() {
        if p.len() < POOL_LIMIT {
            p.push(buf);
        }
    }
}

/// A bounded append-only event stream owned by one node.
#[derive(Debug)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceSink {
    /// A sink holding at most `capacity` events; its buffer comes from
    /// the process-wide pool when one is available.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            events: pool_get(),
            capacity,
            dropped: 0,
        }
    }

    /// Append one event, or count a drop once the sink is full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Take ownership of the recorded events (the sink keeps counting
    /// drops against its capacity but starts from an empty, unpooled
    /// buffer).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        recycle_trace_buffer(std::mem::take(&mut self.events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TraceKind;
    use crate::time::SimTime;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime(n),
            node: 0,
            kind: TraceKind::Crash,
        }
    }

    #[test]
    fn bounded_sink_counts_drops() {
        let mut s = TraceSink::with_capacity(3);
        for i in 0..5 {
            s.push(ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.events()[2], ev(2));
    }

    #[test]
    fn take_leaves_sink_usable() {
        let mut s = TraceSink::with_capacity(10);
        s.push(ev(1));
        let taken = s.take();
        assert_eq!(taken.len(), 1);
        assert!(s.is_empty());
        s.push(ev(2));
        assert_eq!(s.len(), 1);
        recycle_trace_buffer(taken);
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut big = Vec::with_capacity(4096);
        big.push(ev(9));
        recycle_trace_buffer(big);
        let s = TraceSink::with_capacity(10);
        // Some pooled buffer with prior capacity may be handed out; the
        // sink must start logically empty either way.
        assert!(s.is_empty());
    }
}
