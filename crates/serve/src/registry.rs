//! The model registry: version metadata, promotion/rollback bookkeeping,
//! and the publishing front of the [`ModelSlot`].
//!
//! Every version that ever reached the slot has a record here — id
//! (identical to the slot epoch it was installed as), provenance,
//! training window, evaluation score, content fingerprint, and lifecycle
//! state. Rejected candidates (the A/B gate said no) are recorded too,
//! in a separate list, so a scrape of the registry tells the whole
//! promotion story. The registry retains the active version's model
//! **and its predecessor's** so [`ModelRegistry::rollback`] can restore
//! the previous version without re-training; older models are dropped
//! (their metadata stays).

use dart_telemetry::lockcheck::{named_mutex, Mutex};
use std::sync::{Arc, PoisonError};

use dart_core::TabularModel;

use crate::slot::ModelSlot;

/// Lifecycle state of a published version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VersionState {
    /// Currently installed in the slot.
    Active,
    /// Replaced by a newer promotion.
    Superseded,
    /// Replaced by an explicit rollback.
    RolledBack,
}

/// Metadata for one published model version.
#[derive(Clone, Debug)]
pub struct ModelVersion {
    /// Version id — identical to the slot epoch the model was installed
    /// as, so `ServeStats::model_version` indexes directly into this.
    pub id: u64,
    /// Where the version came from (`"startup"`, `"shadow-retrain"`,
    /// `"rollback to version N"`, or caller-supplied).
    pub provenance: String,
    /// Replay-sample counter range `[start, end)` the version was
    /// trained on (`None` for models trained outside the shadow loop).
    pub training_window: Option<(u64, u64)>,
    /// Held-out evaluation score (F1) at promotion time, if evaluated.
    pub eval_f1: Option<f64>,
    /// Content fingerprint ([`TabularModel::fingerprint`]): bit-identical
    /// models — e.g. a `clone` — share a fingerprint, so operators
    /// can tell a no-op swap from a real model change.
    pub fingerprint: u64,
    /// Lifecycle state.
    pub state: VersionState,
}

/// A candidate the A/B gate refused to promote. Never entered the slot,
/// so it has no version id.
#[derive(Clone, Debug)]
pub struct RejectedCandidate {
    /// Where the candidate came from.
    pub provenance: String,
    /// Why it was refused.
    pub cause: RejectionCause,
}

/// Why the A/B gate refused a candidate.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectionCause {
    /// Evaluated, and did not beat the incumbent by more than the margin.
    LostGate {
        /// The candidate's held-out F1.
        eval_f1: f64,
        /// The incumbent's F1 on the same held-out set (what it had to beat).
        incumbent_f1: f64,
    },
    /// Never evaluated — inconsistent, or not shaped like the traffic being
    /// served (what `swap_model` refuses too) — so it has no F1.
    Invalid {
        /// What does not fit.
        reason: String,
    },
}

/// What every path that publishes a model checks first: the candidate is
/// internally consistent ([`TabularModel::validate`]) and has the
/// `(seq_len, input_dim, output_dim)` of the traffic being served — the
/// three dimensions the shard workers' feature rows, token rings and
/// bitmap decode are sized by. An `Err` says which check failed.
pub(crate) fn check_candidate(
    model: &TabularModel,
    serving: (usize, usize, usize),
) -> Result<(), String> {
    model.validate().map_err(|e| format!("inconsistent candidate: {e}"))?;
    let c = &model.config;
    let dims = [
        ("seq_len", c.seq_len, serving.0),
        ("input_dim", c.input_dim, serving.1),
        ("output_dim", c.output_dim, serving.2),
    ];
    match dims.into_iter().find(|(_, candidate, serving)| candidate != serving) {
        Some((name, candidate, serving)) => {
            Err(format!("candidate {name} {candidate} != serving {name} {serving}"))
        }
        None => Ok(()),
    }
}

/// Monotone swap/rollback/rejection counters (surfaced in `ServeStats`
/// and the plaintext exposition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    /// Successful slot installs after startup (promotions + rollbacks).
    pub swaps: u64,
    /// Explicit rollbacks (each also counts as a swap).
    pub rollbacks: u64,
    /// Candidates the A/B gate rejected.
    pub rejections: u64,
}

struct RegistryInner {
    versions: Vec<ModelVersion>,
    rejected: Vec<RejectedCandidate>,
    /// `(id, model)` of the active version and its predecessor — the
    /// rollback inventory. Capped at 2; older models are released.
    retained: Vec<(u64, Arc<TabularModel>)>,
    counters: RegistryCounters,
}

/// The registry fronting one [`ModelSlot`] (one per `ServeRuntime`).
pub struct ModelRegistry {
    slot: Arc<ModelSlot>,
    inner: Mutex<RegistryInner>,
}

impl ModelRegistry {
    /// Wrap `slot`, recording its startup model as version 1.
    pub fn new(slot: Arc<ModelSlot>) -> ModelRegistry {
        let (id, model) = slot.current();
        let startup = ModelVersion {
            id,
            provenance: "startup".to_string(),
            training_window: None,
            eval_f1: None,
            fingerprint: model.fingerprint(),
            state: VersionState::Active,
        };
        ModelRegistry {
            slot,
            inner: named_mutex(
                "serve.model_registry",
                RegistryInner {
                    versions: vec![startup],
                    rejected: Vec::new(),
                    retained: vec![(id, model)],
                    counters: RegistryCounters::default(),
                },
            ),
        }
    }

    /// The slot this registry publishes through.
    pub fn slot(&self) -> &Arc<ModelSlot> {
        &self.slot
    }

    /// The active version id (== slot epoch).
    pub fn active_version(&self) -> u64 {
        self.slot.epoch()
    }

    /// The active `(version id, model)` pair.
    pub fn active(&self) -> (u64, Arc<TabularModel>) {
        self.slot.current()
    }

    /// Install `model` as a new version and return its id. Workers adopt
    /// it at their next batch boundary; the previous version is retained
    /// for [`Self::rollback`] and marked [`VersionState::Superseded`].
    pub fn publish(
        &self,
        model: Arc<TabularModel>,
        provenance: &str,
        training_window: Option<(u64, u64)>,
        eval_f1: Option<f64>,
    ) -> u64 {
        let fingerprint = model.fingerprint();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let id = self.slot.install(Arc::clone(&model));
        self.record_install(
            &mut inner,
            ModelVersion {
                id,
                provenance: provenance.to_string(),
                training_window,
                eval_f1,
                fingerprint,
                state: VersionState::Active,
            },
            model,
            VersionState::Superseded,
        );
        id
    }

    /// Re-install the previous version's model as a **new** version
    /// (epochs never move backwards — workers still adopt forward) and
    /// return its id. `None` when there is no predecessor to roll back
    /// to. The abandoned version is marked [`VersionState::RolledBack`].
    pub fn rollback(&self) -> Option<u64> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        // retained = [predecessor, active]; the predecessor is what we
        // restore. With only the startup entry there is nothing to do.
        if inner.retained.len() < 2 {
            return None;
        }
        let (prev_id, model) = inner.retained[0].clone();
        let prev_meta = inner.versions.iter().find(|v| v.id == prev_id);
        let (eval_f1, training_window, fingerprint) = match prev_meta {
            Some(v) => (v.eval_f1, v.training_window, v.fingerprint),
            None => (None, None, model.fingerprint()),
        };
        let id = self.slot.install(Arc::clone(&model));
        self.record_install(
            &mut inner,
            ModelVersion {
                id,
                provenance: format!("rollback to version {prev_id}"),
                training_window,
                eval_f1,
                fingerprint,
                state: VersionState::Active,
            },
            model,
            VersionState::RolledBack,
        );
        inner.counters.rollbacks += 1;
        Some(id)
    }

    /// Shared bookkeeping of a slot install: demote the old active
    /// record to `demote_to`, append the new record, rotate the retained
    /// models, and count the swap.
    fn record_install(
        &self,
        inner: &mut RegistryInner,
        record: ModelVersion,
        model: Arc<TabularModel>,
        demote_to: VersionState,
    ) {
        if let Some(active) = inner.versions.iter_mut().find(|v| v.state == VersionState::Active) {
            active.state = demote_to;
        }
        inner.retained.push((record.id, model));
        if inner.retained.len() > 2 {
            inner.retained.remove(0);
        }
        inner.versions.push(record);
        inner.counters.swaps += 1;
    }

    /// Record a candidate the A/B gate refused (it never touched the
    /// slot; see [`crate::shadow`]).
    pub fn record_rejection(&self, provenance: &str, cause: RejectionCause) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.rejected.push(RejectedCandidate { provenance: provenance.to_string(), cause });
        inner.counters.rejections += 1;
    }

    /// Every published version's metadata, oldest first.
    pub fn versions(&self) -> Vec<ModelVersion> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).versions.clone()
    }

    /// Every rejected candidate, oldest first.
    pub fn rejected(&self) -> Vec<RejectedCandidate> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).rejected.clone()
    }

    /// The monotone swap/rollback/rejection counters.
    pub fn counters(&self) -> RegistryCounters {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).counters
    }

    /// Whether every shard has adopted version `id` or newer — i.e. no
    /// shard can still serve a batch on anything older, so versions
    /// `< id` are fully reclaimed (their last `Arc`s dropped). Shards
    /// that never served a batch report epoch 0 and hold this `false`;
    /// they may still adopt an old epoch's successor lazily.
    pub fn fully_adopted(&self, id: u64) -> bool {
        self.slot.min_adopted_epoch() >= id
    }
}
