//! Request/response types of the serving runtime.

use serde::{Deserialize, Serialize};

/// Cache-block shift (64-byte blocks), re-exported through `dart-core` —
/// the same definition `dart-trace` preprocessing uses, so the serving
/// path's block arithmetic cannot drift from the training labels.
pub use dart_core::BLOCK_BITS;

/// One memory access from one client stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchRequest {
    /// Client stream identifier (e.g. a hardware context or user session).
    pub stream_id: u64,
    /// Program counter of the access.
    pub pc: u64,
    /// Byte address of the access.
    pub addr: u64,
}

impl PrefetchRequest {
    /// Cache-block address (`addr >> 6`).
    pub fn block(&self) -> u64 {
        self.addr >> BLOCK_BITS
    }
}

/// The runtime's answer to one request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrefetchResponse {
    /// Stream the prediction belongs to.
    pub stream_id: u64,
    /// Per-stream sequence number (0-based, contiguous): response `i` is
    /// the answer to the stream's `i`-th submitted request.
    pub seq: u64,
    /// Shard that served the request (for misrouting checks).
    pub shard: usize,
    /// Predicted prefetch targets as block addresses. Empty while the
    /// stream's history is still shorter than the model's sequence length,
    /// or when no bitmap bit clears the threshold.
    pub prefetch_blocks: Vec<u64>,
    /// Queue + inference latency observed by the runtime, in nanoseconds.
    pub latency_ns: u64,
    /// `None` for a normally served request. `Some(reason)` when the
    /// runtime **failed** the request instead of predicting it: its shard
    /// worker panicked while serving the batch, the request was still
    /// queued when the worker died or the queue shut down, or it was
    /// submitted to a shard that had already died. Failed responses carry
    /// no prefetches and `seq == u64::MAX` (the per-stream sequence number
    /// is assigned during serving, which never happened).
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_shifts_address() {
        let req = PrefetchRequest { stream_id: 1, pc: 0x400, addr: 0x1000 };
        assert_eq!(req.block(), 0x1000 >> 6);
    }
}
