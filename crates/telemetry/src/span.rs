//! Bounded ring buffer of recent request-lifecycle spans.
//!
//! Histograms answer "what is p99 queue-wait"; the span ring answers
//! "what did the last slow request actually do" — one record per served
//! request with its per-stage breakdown, overwriting the oldest beyond a
//! fixed capacity so a long-running server never grows it.

use std::collections::VecDeque;
use std::sync::PoisonError;

use crate::lockcheck::{named_mutex, Mutex};

/// One request's lifecycle timing, all durations in nanoseconds. Stage
/// durations that are shared by the whole coalesced batch (coalesce /
/// kernel / sink — one kernel call serves the batch) carry the batch's
/// value; queue-wait is the request's own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    pub stream_id: u64,
    /// Per-stream sequence number of the request.
    pub seq: u64,
    /// Shard that served it.
    pub shard: usize,
    /// Size of the coalesced batch it was served in.
    pub batch_size: usize,
    /// Enqueue → drained by the worker.
    pub queue_wait_ns: u64,
    /// Drain → the batch's step begins (guard, model adoption).
    pub coalesce_ns: u64,
    /// The step: feature rows, encode, stream updates, predict, emission.
    pub kernel_ns: u64,
    /// Predictions → responses delivered to their completion lanes.
    pub sink_ns: u64,
}

impl SpanRecord {
    /// Total lifecycle time of this request as observed by the runtime.
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns
            .saturating_add(self.coalesce_ns)
            .saturating_add(self.kernel_ns)
            .saturating_add(self.sink_ns)
    }
}

/// Fixed-capacity ring of the most recent spans. Capacity 0 disables
/// recording entirely ([`Self::push_batch`] returns without taking the
/// lock). One ring is shared by every shard of a runtime, so writers take
/// its lock once per served batch, never per request.
#[derive(Debug)]
pub struct SpanRing {
    inner: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
}

impl SpanRing {
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            inner: named_mutex("serve.spans", VecDeque::with_capacity(capacity.min(4096))),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one served batch's spans under one lock (arrival order
    /// preserved), evicting the oldest beyond capacity. No-op at
    /// capacity 0.
    pub fn push_batch(&self, spans: impl IntoIterator<Item = SpanRecord>) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        ring.extend(spans);
        let excess = ring.len().saturating_sub(self.capacity);
        ring.drain(..excess);
    }

    /// The retained spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).iter().copied().collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> SpanRecord {
        SpanRecord { stream_id: 1, seq, queue_wait_ns: 10, kernel_ns: 5, ..Default::default() }
    }

    #[test]
    fn ring_keeps_most_recent_up_to_capacity() {
        let ring = SpanRing::new(3);
        ring.push_batch((0..2).map(span));
        assert_eq!(ring.len(), 2);
        ring.push_batch((2..5).map(span));
        let seqs: Vec<u64> = ring.recent().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest spans must be evicted first");
        // A single batch larger than the ring keeps its newest tail.
        ring.push_batch((5..12).map(span));
        let seqs: Vec<u64> = ring.recent().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![9, 10, 11]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let ring = SpanRing::new(0);
        ring.push_batch([span(0)]);
        assert!(ring.is_empty());
    }

    #[test]
    fn total_saturates() {
        let rec = SpanRecord { queue_wait_ns: u64::MAX, kernel_ns: 7, ..Default::default() };
        assert_eq!(rec.total_ns(), u64::MAX);
        assert_eq!(span(0).total_ns(), 15);
    }
}
