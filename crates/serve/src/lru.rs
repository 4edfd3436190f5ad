//! Bounded LRU map for per-stream history state.
//!
//! A shard sees every stream id ever routed to it, so under stream-id
//! churn (sessions coming and going, the "millions of user streams" case)
//! an unbounded map is a leak. [`StreamLru`] caps resident streams at
//! `ServeConfig::max_streams_per_shard`, evicting the least-recently-seen
//! stream when a new one arrives at capacity.
//!
//! An evicted stream that returns is indistinguishable from a brand-new
//! one: it re-warms from scratch (cold responses for its first
//! `seq_len - 1` accesses, per-stream `seq` restarting at 0) instead of
//! predicting on a stale window — a prediction over a window that
//! straddles the eviction gap would silently mix accesses separated by an
//! arbitrary amount of wall time.
//!
//! Implementation: an intrusive doubly-linked recency list threaded
//! through a slab, with a `HashMap` from stream id to slot. Every
//! operation is O(1), and eviction **recycles** the victim's slot and
//! `StreamState` allocation in place (via [`StreamState::reset`]), so a
//! shard at capacity performs zero steady-state allocation no matter how
//! many streams churn through it — same discipline as the worker's
//! feature-staging buffers.

use std::collections::HashMap;

use dart_core::{StreamLookup, StreamState};

/// Sentinel slot index for "no neighbor".
const NIL: usize = usize::MAX;

struct Slot {
    key: u64,
    state: StreamState,
    /// Toward the most-recently-used end.
    prev: usize,
    /// Toward the least-recently-used end.
    next: usize,
}

/// A fixed-capacity LRU map from stream id to [`StreamState`].
pub struct StreamLru {
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot, or `NIL` when empty.
    head: usize,
    /// Least-recently-used slot (the eviction victim), or `NIL`.
    tail: usize,
    /// Slots vacated by [`StreamLru::remove`], reused before `slots`
    /// grows — removal must not strand capacity.
    free: Vec<usize>,
    cap: usize,
    evictions: u64,
    retirements: u64,
}

impl StreamLru {
    /// An empty map holding at most `cap` streams (`cap` is clamped to at
    /// least 1 — a zero-capacity stream map could never warm anything).
    pub fn new(cap: usize) -> StreamLru {
        let cap = cap.max(1);
        StreamLru {
            // Pre-size only up to a sane bound: the cap is user-provided
            // config, and `with_capacity(usize::MAX)` (a plausible
            // "effectively unbounded" sentinel) must not abort the shard
            // worker with a capacity overflow. Beyond the bound the map
            // grows on demand like any HashMap.
            map: HashMap::with_capacity(cap.min(1 << 16)),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            cap,
            evictions: 0,
            retirements: 0,
        }
    }

    /// Resident streams.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no stream is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Streams evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Streams explicitly retired so far (via [`StreamLru::remove`] /
    /// [`StreamLru::retire_prefix`]) — counted separately from cap
    /// evictions, which measure pressure rather than lifecycle.
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// True when `key` is resident (does not touch recency).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// The state for `key`, marked most-recently-used. A missing key is
    /// inserted fresh (cold history for a model window of `seq_len`),
    /// evicting the least-recently-used stream first if the map is at
    /// capacity — the victim's slot and history allocation are recycled in
    /// place.
    pub fn entry(&mut self, key: u64, seq_len: usize) -> &mut StreamState {
        if let Some(&slot) = self.map.get(&key) {
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return &mut self.slots[slot].state;
        }

        let slot = if self.map.len() == self.cap {
            // Evict the LRU stream and recycle its slot: reset the state
            // in place so the history VecDeque's allocation survives.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = self.slots[victim].key;
            self.map.remove(&old_key);
            self.evictions += 1;
            self.slots[victim].key = key;
            self.slots[victim].state.reset();
            victim
        } else if let Some(slot) = self.free.pop() {
            // Reuse a retired stream's slot (and its history allocation)
            // before growing the slab.
            self.slots[slot].key = key;
            self.slots[slot].state.reset();
            slot
        } else {
            self.slots.push(Slot { key, state: StreamState::new(seq_len), prev: NIL, next: NIL });
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        &mut self.slots[slot].state
    }

    /// Retire `key` outright (the stream's owner is gone — e.g. its
    /// connection disconnected). O(1); the slot goes onto the free list
    /// for reuse. Returns whether the key was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.map.remove(&key) else {
            return false;
        };
        self.unlink(slot);
        self.free.push(slot);
        self.retirements += 1;
        true
    }

    /// Retire every resident stream whose upper-32-bit namespace equals
    /// `prefix` (the serving-layer convention: the network front-end
    /// namespaces wire stream ids as `conn_id << 32 | stream`, so one
    /// call frees everything a dead connection left behind). O(resident)
    /// — disconnects are rare next to per-request traffic. Returns how
    /// many streams were retired.
    pub fn retire_prefix(&mut self, prefix: u32) -> usize {
        let victims: Vec<u64> =
            self.map.keys().copied().filter(|&k| (k >> 32) as u32 == prefix).collect();
        for key in &victims {
            self.remove(*key);
        }
        victims.len()
    }

    /// Resident stream ids in most-recent-first order (diagnostics/tests).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut at = self.head;
        while at != NIL {
            out.push(self.slots[at].key);
            at = self.slots[at].next;
        }
        out
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// The shard's lookup for [`dart_core::StreamEngine::step`].
impl StreamLookup for StreamLru {
    fn stream(&mut self, stream: u64, seq_len: usize) -> &mut StreamState {
        self.entry(stream, seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_residency_and_evicts_in_lru_order() {
        let mut lru = StreamLru::new(3);
        for key in 0..3u64 {
            lru.entry(key, 4);
        }
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.keys_by_recency(), vec![2, 1, 0]);

        // Key 3 evicts 0 (the oldest), not anyone else.
        lru.entry(3, 4);
        assert_eq!(lru.len(), 3);
        assert!(!lru.contains(0));
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.keys_by_recency(), vec![3, 2, 1]);
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut lru = StreamLru::new(3);
        for key in 0..3u64 {
            lru.entry(key, 4);
        }
        // Touch 0 — now 1 is the LRU victim.
        lru.entry(0, 4);
        lru.entry(9, 4);
        assert!(lru.contains(0), "touched entry must survive");
        assert!(!lru.contains(1), "untouched LRU entry must be evicted");
    }

    #[test]
    fn churn_stays_bounded_and_counts_evictions() {
        let cap = 16;
        let mut lru = StreamLru::new(cap);
        for key in 0..10 * cap as u64 {
            let state = lru.entry(key, 4);
            state.push(key, 0);
            assert!(lru.len() <= cap);
        }
        assert_eq!(lru.len(), cap);
        assert_eq!(lru.evictions(), 9 * cap as u64);
    }

    #[test]
    fn readmitted_stream_gets_fresh_state() {
        let mut lru = StreamLru::new(2);
        // Warm stream 7 fully.
        for i in 0..4u64 {
            assert_eq!(lru.entry(7, 4).push(100 + i, 0), i);
        }
        assert!(lru.entry(7, 4).warm());
        // Churn it out...
        lru.entry(8, 4);
        lru.entry(9, 4);
        assert!(!lru.contains(7));
        // ...and back in: cold history, seq restarted — never a stale
        // window straddling the eviction gap.
        let state = lru.entry(7, 4);
        assert!(!state.warm());
        assert_eq!(state.requests(), 0);
        assert_eq!(state.push(500, 0), 0, "per-stream seq restarts after eviction");
    }

    #[test]
    fn huge_capacity_does_not_preallocate() {
        // usize::MAX as an "effectively unbounded" sentinel must behave
        // like a working (if never-evicting) map, not abort the worker
        // with a capacity-overflow panic at construction.
        let mut lru = StreamLru::new(usize::MAX);
        assert_eq!(lru.capacity(), usize::MAX);
        for key in 0..100u64 {
            lru.entry(key, 4).push(key, 0);
        }
        assert_eq!(lru.len(), 100);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut lru = StreamLru::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.entry(1, 4);
        lru.entry(2, 4);
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(2));
    }

    #[test]
    fn remove_frees_the_slot_for_reuse() {
        let mut lru = StreamLru::new(4);
        for key in 0..4u64 {
            lru.entry(key, 4).push(key, 0);
        }
        assert!(lru.remove(2));
        assert!(!lru.remove(2), "double-remove must report absence");
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.retirements(), 1);
        assert_eq!(lru.evictions(), 0, "retirement is not an eviction");
        assert_eq!(lru.keys_by_recency(), vec![3, 1, 0]);
        // The freed slot is recycled (cold state), not leaked: inserting
        // again reaches capacity without evicting anyone.
        let state = lru.entry(9, 4);
        assert_eq!(state.requests(), 0);
        assert_eq!(state.push(7, 0), 0, "recycled slot must start a fresh seq");
        assert_eq!(lru.len(), 4);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn remove_handles_head_tail_and_middle() {
        let mut lru = StreamLru::new(8);
        for key in 0..3u64 {
            lru.entry(key, 4);
        }
        assert!(lru.remove(2), "head");
        assert_eq!(lru.keys_by_recency(), vec![1, 0]);
        assert!(lru.remove(0), "tail");
        assert_eq!(lru.keys_by_recency(), vec![1]);
        assert!(lru.remove(1), "last");
        assert!(lru.is_empty());
        assert_eq!(lru.keys_by_recency(), Vec::<u64>::new());
        // Links survive: the map refills cleanly after draining to empty.
        lru.entry(5, 4);
        lru.entry(6, 4);
        assert_eq!(lru.keys_by_recency(), vec![6, 5]);
    }

    #[test]
    fn retire_prefix_clears_one_namespace_only() {
        let mut lru = StreamLru::new(16);
        for conn in 1..=3u64 {
            for stream in 0..4u64 {
                lru.entry(conn << 32 | stream, 4);
            }
        }
        assert_eq!(lru.retire_prefix(2), 4);
        assert_eq!(lru.len(), 8);
        for stream in 0..4u64 {
            assert!(!lru.contains(2 << 32 | stream));
            assert!(lru.contains(1 << 32 | stream));
            assert!(lru.contains(3 << 32 | stream));
        }
        assert_eq!(lru.retirements(), 4);
        assert_eq!(lru.retire_prefix(2), 0, "already gone");
    }

    #[test]
    fn single_entry_touch_and_evict_keep_links_consistent() {
        let mut lru = StreamLru::new(1);
        lru.entry(5, 4);
        lru.entry(5, 4); // touch the head itself
        assert_eq!(lru.keys_by_recency(), vec![5]);
        lru.entry(6, 4);
        assert_eq!(lru.keys_by_recency(), vec![6]);
        assert_eq!(lru.evictions(), 1);
    }
}
