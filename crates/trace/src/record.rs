//! Trace records and address arithmetic.

use serde::{Deserialize, Serialize};

/// Cache-block shift: 64-byte blocks (matching the paper's ChampSim
/// setup). The one workspace-wide definition — `dart-core` re-exports it
/// for the serving path (`dart_serve::request`) — so trace preprocessing
/// and serving can never drift apart on what a "block" is.
pub const BLOCK_BITS: u32 = 6;

/// Page size: 4 KiB.
pub const PAGE_BITS: u32 = 12;

/// One LLC access observed by the prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Retired-instruction index at which this access occurs (monotonically
    /// non-decreasing; gaps model non-memory instructions).
    pub instr_id: u64,
    /// Program counter of the triggering load/store.
    pub pc: u64,
    /// Virtual byte address accessed.
    pub addr: u64,
}

impl TraceRecord {
    /// Cache-block address (`addr >> 6`).
    #[inline]
    pub fn block(&self) -> u64 {
        self.addr >> BLOCK_BITS
    }

    /// Page address (`addr >> 12`).
    #[inline]
    pub fn page(&self) -> u64 {
        self.addr >> PAGE_BITS
    }
}

/// Signed block delta between two accesses (`to - from`, in blocks).
#[inline]
pub fn block_delta(from: u64, to: u64) -> i64 {
    (to >> BLOCK_BITS) as i64 - (from >> BLOCK_BITS) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_page_extraction() {
        let r = TraceRecord { instr_id: 0, pc: 0x400000, addr: 0x12345 };
        assert_eq!(r.block(), 0x12345 >> 6);
        assert_eq!(r.page(), 0x12345 >> 12);
    }

    #[test]
    fn delta_signs() {
        assert_eq!(block_delta(0x1000, 0x1040), 1);
        assert_eq!(block_delta(0x1040, 0x1000), -1);
        assert_eq!(block_delta(0x1000, 0x1000), 0);
        // Same block, different offset: delta 0.
        assert_eq!(block_delta(0x1000, 0x103F), 0);
    }
}
