//! Versioned model state: the epoch-counted slot every shard worker
//! reads its model through, making zero-downtime hot swaps tear-free.
//!
//! The protocol has three actors:
//!
//! * **Publishers** ([`crate::registry::ModelRegistry`]) install a new
//!   `Arc<TabularModel>` under the slot lock and bump the epoch mirror.
//! * **Workers** hold a [`ModelHandle`] and call
//!   [`ModelHandle::current`] once per batch boundary. The fast path is
//!   a single atomic load (no lock); only when the epoch changed does
//!   the handle take the slot lock to adopt the new `(epoch, model)`
//!   pair. The whole batch then runs against the adopted `Arc`, so **a
//!   batch can never observe a torn model** — it either ran entirely on
//!   the old version or entirely on the new one.
//! * **Observers** read [`ModelSlot::adopted_epochs`] to learn how far
//!   each shard has moved. An old version's memory is reclaimed by the
//!   `Arc` refcount the moment the last handle drops it — which by
//!   construction is only after every shard that serves traffic has
//!   moved past it. A shard with *no* traffic keeps its version alive
//!   deliberately: it may still serve a batch on it.

use dart_telemetry::lockcheck::{named_mutex, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use dart_core::TabularModel;

/// The shared, versioned model cell (one per [`crate::ServeRuntime`]).
pub struct ModelSlot {
    /// The authoritative `(epoch, model)` pair. Written by publishers
    /// under this lock; read by workers only on the adoption slow path.
    current: Mutex<(u64, Arc<TabularModel>)>,
    /// Mirror of the epoch inside `current`, for the lock-free change
    /// check workers run once per batch. The mutex is what orders the
    /// pair itself; this cell only answers "did anything change?".
    stamp: AtomicU64,
    /// Epoch each shard most recently adopted (`Release` stored by the
    /// shard's worker right after adopting; `Acquire` read by
    /// observers). A dead or idle shard's entry stays at the last epoch
    /// it actually served with.
    adopted: Vec<AtomicU64>,
}

impl ModelSlot {
    /// Build a slot holding `model` as **version 1**, with `shards`
    /// adoption counters.
    pub fn new(model: Arc<TabularModel>, shards: usize) -> ModelSlot {
        ModelSlot {
            current: named_mutex("serve.model_slot", (1, model)),
            stamp: AtomicU64::new(1),
            adopted: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The current epoch (monotone, starts at 1).
    pub fn epoch(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    /// Clone the authoritative `(epoch, model)` pair.
    pub fn current(&self) -> (u64, Arc<TabularModel>) {
        let cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        (cur.0, Arc::clone(&cur.1))
    }

    /// Install `model` as the next epoch and return that epoch. Workers
    /// pick it up at their next batch boundary; in-progress batches
    /// finish on the version they adopted (tear-free by construction).
    pub fn install(&self, model: Arc<TabularModel>) -> u64 {
        let mut cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = cur.0 + 1;
        *cur = (epoch, model);
        // Published while still holding the lock, so a slow-path reader
        // can never observe a stamp newer than the pair it then locks.
        self.stamp.store(epoch, Ordering::Release);
        epoch
    }

    /// The epoch each shard most recently adopted (index = shard id).
    /// `0` means the shard has not completed its initial adoption yet.
    pub fn adopted_epochs(&self) -> Vec<u64> {
        self.adopted.iter().map(|a| a.load(Ordering::Acquire)).collect()
    }

    /// The oldest epoch any shard is still potentially serving with.
    /// Once this reaches `v`, every shard has moved past versions `< v`
    /// and their only remaining references are in flight to be dropped.
    pub fn min_adopted_epoch(&self) -> u64 {
        self.adopted.iter().map(|a| a.load(Ordering::Acquire)).min().unwrap_or(0)
    }

    /// Build the worker-side handle for `shard_id`, performing the
    /// initial adoption.
    pub(crate) fn handle(self: &Arc<Self>, shard_id: usize) -> ModelHandle {
        let (epoch, model) = self.current();
        let mut handle = ModelHandle { slot: Arc::clone(self), shard_id, epoch: 0, model };
        handle.adopt(epoch);
        handle
    }
}

/// One shard worker's private view of the [`ModelSlot`]: the adopted
/// `(epoch, model)` pair plus the change-detection fast path.
pub(crate) struct ModelHandle {
    slot: Arc<ModelSlot>,
    shard_id: usize,
    epoch: u64,
    model: Arc<TabularModel>,
}

impl ModelHandle {
    /// The model to serve the next batch with. One atomic load when
    /// nothing changed (the overwhelmingly common case); on an epoch
    /// change, adopts the new version (slot lock) before returning. Call
    /// once per batch boundary and use the returned `Arc` for the whole
    /// batch.
    pub fn current(&mut self) -> &Arc<TabularModel> {
        let stamp = self.slot.stamp.load(Ordering::Acquire);
        if stamp != self.epoch {
            self.adopt(stamp);
        }
        &self.model
    }

    /// The epoch this handle last adopted: the version of the model
    /// [`Self::current`] last returned. Per-stream token rows are keyed by
    /// it — rows encoded under another epoch are recomputed, never mixed
    /// into a window. (Observers read [`ModelSlot::adopted_epochs`].)
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopt the authoritative pair (re-read under the slot lock — the
    /// `hint` stamp only told us *something* changed) and publish the
    /// adoption so observers can see this shard moved.
    fn adopt(&mut self, _hint: u64) {
        (self.epoch, self.model) = self.slot.current();
        // Release pairs with observers' Acquire: the handle's model
        // switch above happens-before anyone sees the new adopted epoch.
        self.slot.adopted[self.shard_id].store(self.epoch, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{drill_model, drill_pre};

    #[test]
    fn install_bumps_epoch_and_handle_adopts_at_boundary() {
        let m1 = drill_model(&drill_pre(), 1);
        let slot = Arc::new(ModelSlot::new(Arc::clone(&m1), 2));
        assert_eq!(slot.epoch(), 1);
        let mut h = slot.handle(0);
        assert_eq!(h.epoch(), 1);
        assert!(Arc::ptr_eq(h.current(), &m1), "handle must serve the installed model");

        let m2 = drill_model(&drill_pre(), 2);
        let e2 = slot.install(Arc::clone(&m2));
        assert_eq!(e2, 2);
        assert_eq!(slot.epoch(), 2);
        // The handle only moves when asked at a batch boundary.
        assert!(Arc::ptr_eq(h.current(), &m2));
        assert_eq!(h.epoch(), 2);
        assert_eq!(slot.adopted_epochs(), vec![2, 0], "shard 1 never adopted");
        assert_eq!(slot.min_adopted_epoch(), 0);
    }

    #[test]
    fn old_version_is_reclaimed_once_every_handle_moves() {
        let m1 = drill_model(&drill_pre(), 3);
        let slot = Arc::new(ModelSlot::new(Arc::clone(&m1), 2));
        let mut h0 = slot.handle(0);
        let mut h1 = slot.handle(1);
        slot.install(drill_model(&drill_pre(), 4));
        h0.current();
        assert!(Arc::strong_count(&m1) > 1, "shard 1 still holds version 1");
        h1.current();
        // Only the test's own `m1` reference remains: the slot and both
        // handles dropped theirs — the "reclaimed only after every shard
        // has moved past it" contract, enforced by refcount.
        assert_eq!(Arc::strong_count(&m1), 1);
        assert_eq!(slot.min_adopted_epoch(), 2);
    }
}
