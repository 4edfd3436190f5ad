//! The shadow-retraining loop: sample live served traffic into a bounded
//! replay buffer, re-train → re-tabularize in the background, and
//! promote the candidate through an A/B gate.
//!
//! Pipeline of one round ([`ShadowTrainer::run_once`]):
//!
//! ```text
//!   ReplaySampler (bounded ring of live accesses, fed by shard workers)
//!        │ snapshot, group per stream, build_dataset per stream
//!        ▼
//!   shuffled merge ──split──► train set        held-out set
//!        │                       │                  │
//!        │     train student (optionally teacher → distill), tabularize
//!        ▼                       ▼                  │
//!   candidate TabularModel ──evaluate_tabular_f1────┤
//!                                                   ▼
//!   A/B gate: candidate promotes IFF its held-out F1 beats the
//!   incumbent's on the SAME held-out live traffic (by > margin);
//!   otherwise the rejection is recorded and serving is untouched.
//! ```
//!
//! Everything is deterministic given the sampler contents and
//! [`ShadowConfig::seed`], which is what the gate tests pin down. The
//! background thread ([`ShadowTrainer::spawn`]) just runs `run_once` on
//! an interval, installing the runtime's shared work-stealing pool so
//! retraining kernels never spawn threads of their own.

use dart_telemetry::lockcheck::{named_mutex, Mutex};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use dart_core::config::TabularConfig;
use dart_core::distill::{distill, DistillConfig};
use dart_core::eval::evaluate_tabular_f1;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_nn::train::{train_bce, Dataset, TrainConfig};
use dart_trace::{build_dataset, PreprocessConfig, TraceRecord};

use crate::registry::{check_candidate, ModelRegistry, RejectionCause};

/// One sampled access from the live serving path.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySample {
    /// Stream the access belongs to (replay keeps per-stream order).
    pub stream_id: u64,
    /// Program counter of the access.
    pub pc: u64,
    /// Byte address of the access.
    pub addr: u64,
}

/// A bounded ring of live served accesses, shared between the shard
/// workers (one bulk push per served batch) and the shadow trainer
/// (snapshot per round). Oldest samples fall off the front — replay
/// always holds the freshest window of traffic.
pub struct ReplaySampler {
    inner: Mutex<VecDeque<ReplaySample>>,
    capacity: usize,
    /// Total accesses ever sampled (monotone) — the training-window
    /// coordinate system recorded in the registry.
    total: AtomicU64,
}

impl ReplaySampler {
    /// A sampler holding at most `capacity` samples (clamped ≥ 1).
    pub fn new(capacity: usize) -> ReplaySampler {
        ReplaySampler {
            inner: named_mutex("serve.replay", VecDeque::new()),
            capacity: capacity.max(1),
            total: AtomicU64::new(0),
        }
    }

    /// Append one served batch's accesses (arrival order preserved).
    pub fn push_batch(&self, samples: impl IntoIterator<Item = ReplaySample>) {
        let mut ring = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pushed = 0u64;
        for s in samples {
            ring.push_back(s);
            pushed += 1;
        }
        while ring.len() > self.capacity {
            ring.pop_front();
        }
        drop(ring);
        // Relaxed: a monotone statistics counter — the ring mutex above
        // orders the samples themselves; nobody synchronizes on `total`.
        self.total.fetch_add(pushed, Ordering::Relaxed);
    }

    /// Samples currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing has been sampled (or everything aged out).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total accesses ever sampled (monotone across ring evictions).
    pub fn total_sampled(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Copy out the resident window plus its `[start, end)` coordinates
    /// in total-sampled space (the registry's training window). Samples
    /// stay resident — the next round sees a superset, not a gap.
    pub fn snapshot(&self) -> (Vec<ReplaySample>, (u64, u64)) {
        let ring = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let samples: Vec<ReplaySample> = ring.iter().copied().collect();
        drop(ring);
        let end = self.total.load(Ordering::Relaxed);
        let start = end.saturating_sub(samples.len() as u64);
        (samples, (start, end))
    }
}

/// Shadow-retraining configuration. `pre` must match the serving
/// runtime's preprocessing (the candidate must be dimension-compatible
/// with the incumbent or [`crate::ServeRuntime::swap_model`] refuses it).
#[derive(Clone, Debug)]
pub struct ShadowConfig {
    /// Preprocessing used to build datasets from replayed accesses —
    /// the same config the serving runtime was started with.
    pub pre: PreprocessConfig,
    /// Architecture of the (re)trained student.
    pub student: ModelConfig,
    /// Student training-loop settings.
    pub train: TrainConfig,
    /// When set, a teacher of this architecture is trained on the replay
    /// window first and the student is **distilled** from it (the
    /// paper's pipeline); `None` trains the student directly with BCE
    /// (the "Stu w/o KD" shape — much cheaper, weaker).
    pub teacher: Option<(ModelConfig, DistillConfig)>,
    /// Tabularization settings for the candidate. Built from
    /// `TabularConfig::default()` like every caller's, a retrained model
    /// uses the hash-tree encoder — whatever encoder the incumbent it
    /// challenges was built with (a model records its own).
    pub tabular: TabularConfig,
    /// Minimum resident replay samples before a round will train.
    pub min_samples: usize,
    /// Fraction of the replay dataset held out for the A/B gate.
    pub holdout_frac: f32,
    /// The candidate must beat the incumbent's held-out F1 by more than
    /// this margin to promote (0.0 = any strict improvement).
    pub margin: f64,
    /// Dataset stride handed to `build_dataset` per stream.
    pub stride: usize,
    /// Seed for the train/holdout shuffle and the student/teacher init.
    pub seed: u64,
    /// Evaluation batch size for `evaluate_tabular_f1`.
    pub eval_batch: usize,
}

/// What one shadow round did.
#[derive(Clone, Debug, PartialEq)]
pub enum ShadowOutcome {
    /// Not enough replay yet (`resident < min_samples`), or the window
    /// produced no trainable samples; nothing was trained.
    NotEnoughSamples {
        /// Replay samples resident when the round gave up.
        resident: usize,
    },
    /// The candidate beat the incumbent and was published.
    Promoted {
        /// The new version id.
        version: u64,
        /// Candidate held-out F1.
        candidate_f1: f64,
        /// Incumbent held-out F1 it beat.
        incumbent_f1: f64,
    },
    /// The candidate did not beat the incumbent; serving untouched.
    Rejected {
        /// Candidate held-out F1.
        candidate_f1: f64,
        /// Incumbent held-out F1 it failed to beat.
        incumbent_f1: f64,
    },
    /// The candidate is inconsistent, or not shaped like the incumbent: it
    /// was never evaluated (so there is no F1), counted as a registry
    /// rejection; serving untouched.
    Invalid {
        /// What does not fit.
        reason: String,
    },
}

/// The A/B gate, exposed on its own so tests (and operators promoting a
/// hand-built model) can drive it without a training round: evaluate
/// `candidate` and the incumbent on the same `holdout`, publish the
/// candidate IFF it wins by more than `margin`, record the rejection
/// otherwise. A candidate that fails [`TabularModel::validate`] or differs
/// from the incumbent in `seq_len` / `input_dim` / `output_dim` — what
/// [`crate::ServeRuntime::swap_model`] refuses — is rejected before it is
/// run on anything ([`ShadowOutcome::Invalid`]).
pub fn gate_candidate(
    registry: &ModelRegistry,
    candidate: Arc<TabularModel>,
    holdout: &Dataset,
    margin: f64,
    provenance: &str,
    training_window: Option<(u64, u64)>,
    eval_batch: usize,
) -> ShadowOutcome {
    let (_, incumbent) = registry.active();
    let serving = &incumbent.config;
    if let Err(reason) =
        check_candidate(&candidate, (serving.seq_len, serving.input_dim, serving.output_dim))
    {
        registry.record_rejection(provenance, RejectionCause::Invalid { reason: reason.clone() });
        return ShadowOutcome::Invalid { reason };
    }
    let candidate_f1 = evaluate_tabular_f1(&candidate, holdout, eval_batch);
    let incumbent_f1 = evaluate_tabular_f1(&incumbent, holdout, eval_batch);
    if candidate_f1 > incumbent_f1 + margin {
        let version = registry.publish(candidate, provenance, training_window, Some(candidate_f1));
        ShadowOutcome::Promoted { version, candidate_f1, incumbent_f1 }
    } else {
        registry.record_rejection(
            provenance,
            RejectionCause::LostGate { eval_f1: candidate_f1, incumbent_f1 },
        );
        ShadowOutcome::Rejected { candidate_f1, incumbent_f1 }
    }
}

/// The shadow trainer: owns the retraining recipe; rounds are driven
/// either manually ([`Self::run_once`] — deterministic, what the tests
/// use) or by the background thread ([`Self::spawn`]).
pub struct ShadowTrainer {
    cfg: ShadowConfig,
    /// Round counter, stamped into each candidate's provenance.
    rounds: AtomicU64,
}

impl ShadowTrainer {
    /// Build a trainer with `cfg`.
    pub fn new(cfg: ShadowConfig) -> ShadowTrainer {
        ShadowTrainer { cfg, rounds: AtomicU64::new(0) }
    }

    /// The configuration this trainer runs with.
    pub fn config(&self) -> &ShadowConfig {
        &self.cfg
    }

    /// Run one complete shadow round: snapshot replay, build the
    /// dataset, train, tabularize, gate. Deterministic given the sampler
    /// contents and `cfg.seed`.
    pub fn run_once(&self, registry: &ModelRegistry, sampler: &ReplaySampler) -> ShadowOutcome {
        // Relaxed: provenance labels only; rounds are not synchronized on.
        let round = self.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        let (samples, window) = sampler.snapshot();
        if samples.len() < self.cfg.min_samples.max(1) {
            return ShadowOutcome::NotEnoughSamples { resident: samples.len() };
        }
        let Some(data) = replay_to_dataset(&samples, &self.cfg.pre, self.cfg.stride, self.cfg.seed)
        else {
            return ShadowOutcome::NotEnoughSamples { resident: samples.len() };
        };
        let (train, holdout) = data.split(1.0 - self.cfg.holdout_frac.clamp(0.05, 0.95));
        if train.is_empty() || holdout.is_empty() {
            return ShadowOutcome::NotEnoughSamples { resident: samples.len() };
        }

        let student = match &self.cfg.teacher {
            Some((teacher_cfg, dcfg)) => {
                // The paper's full pipeline, on live traffic: fit the
                // teacher, then distill the serving-sized student.
                let mut teacher = AccessPredictor::new(teacher_cfg.clone(), self.cfg.seed ^ 0x7EAC)
                    .expect("valid shadow teacher config");
                train_bce(&mut teacher, &train, &self.cfg.train);
                distill(&mut teacher, self.cfg.student.clone(), &train, dcfg).0
            }
            None => {
                let mut student = AccessPredictor::new(self.cfg.student.clone(), self.cfg.seed)
                    .expect("valid shadow student config");
                train_bce(&mut student, &train, &self.cfg.train);
                student
            }
        };
        let (candidate, _report) = tabularize(&student, &train.inputs, &self.cfg.tabular);
        gate_candidate(
            registry,
            Arc::new(candidate),
            &holdout,
            self.cfg.margin,
            &format!("shadow-retrain round {round}"),
            Some(window),
            self.cfg.eval_batch.max(1),
        )
    }

    /// Spawn the background loop: every `interval`, run one round on
    /// `pool` (the runtime's shared work-stealing pool — retraining
    /// kernels help-wait there instead of spawning threads; `None` uses
    /// the process-global pool). Stop and join via
    /// [`ShadowHandle::stop`].
    pub fn spawn(
        self,
        registry: Arc<ModelRegistry>,
        sampler: Arc<ReplaySampler>,
        pool: Option<Arc<rayon::ThreadPool>>,
        interval: Duration,
    ) -> ShadowHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("dart-serve-shadow".to_string())
            .spawn(move || {
                let mut outcomes = Vec::new();
                loop {
                    // Sleep in short slices so stop() never waits a full
                    // interval; SeqCst is overkill-but-clear for a
                    // once-per-run flag off the hot path.
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if stop_flag.load(Ordering::SeqCst) {
                            return outcomes;
                        }
                        let step = Duration::from_millis(20).min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if stop_flag.load(Ordering::SeqCst) {
                        return outcomes;
                    }
                    let outcome = match &pool {
                        Some(p) => p.install(|| self.run_once(&registry, &sampler)),
                        None => self.run_once(&registry, &sampler),
                    };
                    outcomes.push(outcome);
                }
            })
            .expect("spawn shadow trainer");
        ShadowHandle { stop, join: Some(join) }
    }
}

/// Handle to a running background shadow loop.
pub struct ShadowHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<Vec<ShadowOutcome>>>,
}

impl ShadowHandle {
    /// Flag the loop to stop, join it, and return every round's outcome
    /// (oldest first).
    pub fn stop(mut self) -> Vec<ShadowOutcome> {
        self.stop.store(true, Ordering::SeqCst);
        match self.join.take() {
            Some(h) => h.join().expect("shadow trainer panicked"),
            None => Vec::new(),
        }
    }
}

impl Drop for ShadowHandle {
    /// Dropping without [`Self::stop`] still stops and joins the thread
    /// (outcomes are discarded) — no leaked background trainer.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

/// Turn a replay window into one training dataset: group samples per
/// stream (replay preserves arrival order, and per-stream order is the
/// only order that means anything to the feature pipeline), run
/// [`build_dataset`] on each stream's trace, then concatenate with a
/// seeded sample shuffle so the positional train/holdout split doesn't
/// put whole streams on one side. `None` when no stream is long enough
/// to produce a single labeled sample.
fn replay_to_dataset(
    samples: &[ReplaySample],
    pre: &PreprocessConfig,
    stride: usize,
    seed: u64,
) -> Option<Dataset> {
    let mut per_stream: HashMap<u64, Vec<TraceRecord>> = HashMap::new();
    for s in samples {
        let trace = per_stream.entry(s.stream_id).or_default();
        let instr_id = trace.len() as u64;
        trace.push(TraceRecord { instr_id, pc: s.pc, addr: s.addr });
    }
    // Deterministic iteration: HashMap order is arbitrary, so sort the
    // streams before building (the shuffle below is seeded too).
    let mut streams: Vec<(u64, Vec<TraceRecord>)> = per_stream.into_iter().collect();
    streams.sort_by_key(|(id, _)| *id);
    let parts: Vec<Dataset> = streams
        .iter()
        .map(|(_, trace)| build_dataset(trace, pre, stride.max(1)))
        .filter(|d| !d.is_empty())
        .collect();
    let merged = concat_datasets(&parts)?;
    // Seeded Fisher–Yates over sample indices, materialized via gather.
    let n = merged.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = InitRng::new(seed | 1);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    Some(merged.gather(&order))
}

/// Stack several datasets (same `seq_len` and dims) into one.
fn concat_datasets(parts: &[Dataset]) -> Option<Dataset> {
    let first = parts.first()?;
    let t = first.seq_len;
    let di = first.inputs.cols();
    let dout = first.targets.cols();
    let total: usize = parts.iter().map(Dataset::len).sum();
    if total == 0 {
        return None;
    }
    let mut inputs = Matrix::zeros(total * t, di);
    let mut targets = Matrix::zeros(total, dout);
    let mut at = 0usize;
    for part in parts {
        inputs.set_rows(at * t, &part.inputs);
        targets.set_rows(at, &part.targets);
        at += part.len();
    }
    Some(Dataset::new(inputs, targets, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_ring_is_bounded_and_tracks_totals() {
        let sampler = ReplaySampler::new(4);
        sampler.push_batch((0..6).map(|i| ReplaySample { stream_id: 1, pc: 0x400, addr: i << 6 }));
        assert_eq!(sampler.len(), 4, "ring must drop the oldest beyond capacity");
        assert_eq!(sampler.total_sampled(), 6);
        let (samples, window) = sampler.snapshot();
        assert_eq!(window, (2, 6));
        assert_eq!(samples[0].addr, 2 << 6, "oldest resident sample must be #2");
        // Snapshot keeps samples resident.
        assert_eq!(sampler.len(), 4);
    }

    #[test]
    fn replay_to_dataset_groups_streams_and_is_deterministic() {
        let pre = PreprocessConfig {
            seq_len: 4,
            addr_segments: 3,
            seg_bits: 4,
            pc_segments: 1,
            delta_range: 4,
            lookforward: 2,
        };
        // Two interleaved sequential streams, long enough to label.
        let mut samples = Vec::new();
        for i in 0..32u64 {
            for sid in [7u64, 9] {
                samples.push(ReplaySample {
                    stream_id: sid,
                    pc: 0x400,
                    addr: (sid * 1000 + i) << 6,
                });
            }
        }
        let a = replay_to_dataset(&samples, &pre, 1, 42).expect("datasets");
        let b = replay_to_dataset(&samples, &pre, 1, 42).expect("datasets");
        assert!(!a.is_empty());
        assert_eq!(a.inputs.as_slice(), b.inputs.as_slice(), "must be deterministic");
        assert_eq!(a.targets.as_slice(), b.targets.as_slice());
        // Too-short traces produce no dataset at all.
        assert!(replay_to_dataset(&samples[..4], &pre, 1, 42).is_none());
    }
}
