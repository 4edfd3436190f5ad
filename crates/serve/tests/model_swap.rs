//! Hot-swap integration tests: the versioned model slot under live
//! traffic, the registry's promotion/rollback bookkeeping, and the
//! shadow-retraining A/B gate.
//!
//! The two load-bearing properties:
//!
//! 1. **Zero downtime, zero divergence**: swapping in a bit-identical
//!    `clone` mid-traffic must change *nothing* — every request
//!    still gets exactly one response and every response is
//!    bit-for-bit what the un-swapped run produced. Any lost, failed,
//!    or changed response is the swap machinery's fault.
//! 2. **The swap actually lands**: a *different* model swapped in mid
//!    stream serves subsequent requests with the new weights while the
//!    per-stream history survives the swap.
//!
//! This suite also runs under `--features lockcheck` in CI, which turns
//! any lock-order inversion between the slot, registry, replay ring and
//! the serving-path locks into a panic.

use std::collections::HashMap;
use std::sync::Arc;

use dart_core::config::TabularConfig;
use dart_core::eval::evaluate_tabular_f1;
use dart_core::tabularize::tabularize;
use dart_core::TabularModel;
use dart_nn::init::InitRng;
use dart_nn::matrix::Matrix;
use dart_nn::model::{AccessPredictor, ModelConfig};
use dart_nn::train::{train_bce, Dataset, TrainConfig};
use dart_serve::{
    drill_model, drill_pre, gate_candidate, generate_requests, LoadGenConfig, ModelRegistry,
    ModelSlot, PrefetchRequest, RejectionCause, ServeConfig, ServeRuntime, ShadowConfig,
    ShadowOutcome, ShadowTrainer, VersionState,
};
use dart_trace::PreprocessConfig;

fn model_cfg(pre: &PreprocessConfig) -> ModelConfig {
    ModelConfig {
        input_dim: pre.input_dim(),
        dim: 8,
        heads: 2,
        layers: 1,
        ffn_dim: 16,
        output_dim: pre.output_dim(),
        seq_len: pre.seq_len,
    }
}

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig { shards, max_batch: 16, threshold: 0.0, max_degree: 4, ..ServeConfig::default() }
}

/// Serial single-sample replay of the serving emit policy (threshold
/// 0.0, degree 4) for one warm window — the ground truth a response is
/// compared against. Mirrors `batched_serving_matches_serial_replay`.
fn serial_predict(
    model: &TabularModel,
    pre: &PreprocessConfig,
    window: &[(u64, u64)], // (block, pc), len == seq_len
) -> Vec<u64> {
    let mut feats = Matrix::zeros(pre.seq_len, pre.input_dim());
    for (t, &(block, pc)) in window.iter().enumerate() {
        pre.write_token_features(block, pc, feats.row_mut(t));
    }
    let probs = model.forward_probs(&feats);
    let anchor = window.last().unwrap().0;
    let mut candidates: Vec<(f32, usize)> =
        probs.row(0).iter().enumerate().map(|(bit, &p)| (p, bit)).collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    candidates
        .into_iter()
        .take(4)
        .filter_map(|(_, bit)| {
            let target = anchor as i64 + pre.bit_to_delta(bit);
            (target > 0).then_some(target as u64)
        })
        .collect()
}

/// The zero-divergence property: swap a bit-identical `clone` of
/// the active model into a loaded runtime — repeatedly, mid-traffic —
/// and every response must be bit-for-bit identical to a run that never
/// swapped, with exactly one response per request and zero failures.
#[test]
fn bit_identical_swap_mid_load_changes_no_response() {
    let pre = drill_pre();
    let model = drill_model(&pre, 3);
    let reqs = generate_requests(&LoadGenConfig { streams: 24, accesses_per_stream: 40, seed: 7 });
    let total = reqs.len();

    // Reference run: no swap ever.
    let reference: HashMap<(u64, u64), Vec<u64>> = {
        let runtime = ServeRuntime::start(Arc::clone(&model), pre, serve_cfg(3));
        runtime.submit_all(reqs.iter().copied());
        runtime.wait_idle();
        let responses = runtime.drain_completed();
        assert_eq!(responses.len(), total);
        runtime.shutdown();
        responses.into_iter().map(|r| ((r.stream_id, r.seq), r.prefetch_blocks)).collect()
    };

    // Swapping run: same traffic in chunks, a hot-swap fired between the
    // chunks while earlier requests are still in flight (no wait_idle
    // until the end).
    let runtime = ServeRuntime::start(model, pre, serve_cfg(3));
    let swaps = 3usize;
    let chunk = total.div_ceil(swaps + 1);
    for (i, part) in reqs.chunks(chunk).enumerate() {
        runtime.submit_all(part.iter().copied());
        if i < swaps {
            let (_, active) = runtime.registry().active();
            let clone = Arc::new(TabularModel::clone(&active));
            runtime.swap_model(clone, "test clone swap").expect("clone is dimension-compatible");
        }
    }
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), total, "a swap lost or duplicated responses");

    let mut seen = std::collections::HashSet::new();
    for resp in &responses {
        assert!(resp.error.is_none(), "a swap failed a response: {:?}", resp.error);
        assert!(seen.insert((resp.stream_id, resp.seq)), "duplicate response");
        assert_eq!(
            reference.get(&(resp.stream_id, resp.seq)),
            Some(&resp.prefetch_blocks),
            "stream {} seq {} diverged across a bit-identical swap",
            resp.stream_id,
            resp.seq
        );
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.requests as usize, total);
    assert_eq!(stats.failed, 0, "zero-downtime means zero failures");
    assert_eq!(stats.model_swaps, swaps as u64);
    assert_eq!(stats.model_version, 1 + swaps as u64);
    // Every shard finished on the final version.
    assert!(stats.per_shard_model_version.iter().all(|&v| v == 1 + swaps as u64));
}

/// A *different* model swapped in mid-stream must take effect — and the
/// per-stream history must survive the swap, so the first post-swap
/// prediction's window still includes pre-swap accesses.
#[test]
fn swapped_model_takes_effect_and_stream_state_survives() {
    let pre = drill_pre();
    let model_a = drill_model(&pre, 3);
    let model_b = drill_model(&pre, 99);
    assert_ne!(
        model_a.fingerprint(),
        model_b.fingerprint(),
        "test needs two genuinely different models"
    );

    let runtime = ServeRuntime::start(Arc::clone(&model_a), pre, serve_cfg(1));
    let mut history: Vec<(u64, u64)> = Vec::new(); // (block, pc)
    let pc = 0x400u64;

    // Warm the stream on model A and drain those responses.
    for i in 0..(pre.seq_len as u64 + 2) {
        let addr = (100 + i) << 6;
        history.push((addr >> 6, pc));
        runtime.submit(PrefetchRequest { stream_id: 7, pc, addr });
    }
    runtime.wait_idle();
    let pre_swap = runtime.drain_completed();
    assert_eq!(pre_swap.len(), pre.seq_len + 2);

    // Swap to B, then keep the same stream going.
    let v = runtime.swap_model(Arc::clone(&model_b), "test model change").unwrap();
    assert_eq!(v, 2);
    let post_accesses = 6u64;
    let first_post_seq = pre.seq_len as u64 + 2;
    for i in 0..post_accesses {
        let addr = (100 + pre.seq_len as u64 + 2 + i) << 6;
        history.push((addr >> 6, pc));
        runtime.submit(PrefetchRequest { stream_id: 7, pc, addr });
    }
    runtime.wait_idle();
    let mut post_swap = runtime.drain_completed();
    post_swap.sort_by_key(|r| r.seq);
    assert_eq!(post_swap.len(), post_accesses as usize);

    let mut some_window_distinguishes = false;
    for resp in &post_swap {
        let upto = (resp.seq + 1) as usize;
        let window = &history[upto - pre.seq_len..upto];
        let expect_b = serial_predict(&model_b, &pre, window);
        let expect_a = serial_predict(&model_a, &pre, window);
        assert_eq!(
            resp.prefetch_blocks, expect_b,
            "seq {} not served by the swapped-in model (history window lost?)",
            resp.seq
        );
        some_window_distinguishes |= expect_a != expect_b;
        // The first post-swap window still spans pre-swap accesses: the
        // stream re-warming from scratch would have emitted nothing.
        if resp.seq == first_post_seq {
            assert!(!resp.prefetch_blocks.is_empty(), "stream state was lost across the swap");
        }
    }
    assert!(
        some_window_distinguishes,
        "models A and B agree on every tested window; the test has no power"
    );
    runtime.shutdown();
}

/// A swap candidate with the wrong dimensions is refused outright: an
/// error comes back, no version is published, and serving continues on
/// the incumbent.
#[test]
fn dimension_mismatched_candidate_is_refused_without_state_change() {
    let pre = drill_pre();
    let runtime = ServeRuntime::start(drill_model(&pre, 3), pre, serve_cfg(1));

    let mut wrong_pre = drill_pre();
    wrong_pre.seq_len = 5;
    let wrong = drill_model(&wrong_pre, 3);
    let err = runtime.swap_model(wrong, "bad candidate").unwrap_err();
    assert!(err.contains("seq_len"), "error must name the mismatched dimension: {err}");
    assert_eq!(runtime.model_version(), 1, "a refused candidate must not bump the version");
    assert_eq!(runtime.registry().counters().swaps, 0);

    for i in 0..8u64 {
        runtime.submit(PrefetchRequest { stream_id: 1, pc: 0x10, addr: (300 + i) << 6 });
    }
    runtime.wait_idle();
    assert_eq!(runtime.drain_completed().len(), 8);
    let stats = runtime.shutdown();
    assert_eq!(stats.failed, 0);
}

/// The deterministic A/B gate test: a trained candidate and an untrained
/// one are evaluated on the same held-out live-shaped data. The gate
/// must promote the better model over the worse incumbent and reject
/// the worse candidate against the better incumbent — and the margin
/// knob must be able to veto an otherwise-winning candidate.
#[test]
fn gate_promotes_better_and_rejects_worse_deterministically() {
    // A deterministic, genuinely learnable multi-label task (the same
    // shape the eval-crate tests use): each sample's "level" decides
    // which output bits are on, so a trained model scores high F1 while
    // a model trained against all-zero targets scores exactly 0 (it
    // learns to predict nothing).
    let (seq, di, dout, n) = (4usize, 4usize, 6usize, 220usize);
    let mut rng = InitRng::new(41);
    let mut inputs = Matrix::zeros(n * seq, di);
    let mut targets = Matrix::zeros(n, dout);
    for i in 0..n {
        let level = rng.next_f32();
        for t in 0..seq {
            for d in 0..di {
                inputs.set(i * seq + t, d, level + rng.normal() * 0.05);
            }
        }
        for b in 0..dout {
            if level > (b + 1) as f32 / (dout + 1) as f32 {
                targets.set(i, b, 1.0);
            }
        }
    }
    let data = Dataset::new(inputs, targets, seq);
    let (train, holdout) = data.split(0.8);
    assert!(!holdout.is_empty());

    let cfg = ModelConfig {
        input_dim: di,
        dim: 8,
        heads: 2,
        layers: 1,
        ffn_dim: 16,
        output_dim: dout,
        seq_len: seq,
    };
    let tcfg = TrainConfig { epochs: 25, batch_size: 32, ..TrainConfig::default() };
    let tab_cfg = TabularConfig { k: 128, c: 2, fine_tune_epochs: 6, ..Default::default() };
    let good = {
        let mut student = AccessPredictor::new(cfg.clone(), 5).unwrap();
        train_bce(&mut student, &train, &tcfg);
        Arc::new(tabularize(&student, &train.inputs, &tab_cfg).0)
    };
    let bad = {
        // Trained to predict nothing: all-zero targets drive every
        // logit negative, so held-out F1 is 0 by construction.
        let zeroed = Dataset::new(train.inputs.clone(), Matrix::zeros(train.len(), dout), seq);
        let mut student = AccessPredictor::new(cfg, 12_345).unwrap();
        train_bce(&mut student, &zeroed, &tcfg);
        Arc::new(tabularize(&student, &zeroed.inputs, &tab_cfg).0)
    };

    // Precondition the whole test rests on: the models are separable.
    let f1_good = evaluate_tabular_f1(&good, &holdout, 64);
    let f1_bad = evaluate_tabular_f1(&bad, &holdout, 64);
    assert!(
        f1_good > f1_bad,
        "precondition failed: trained F1 {f1_good} must beat predict-nothing F1 {f1_bad}"
    );

    // Worse candidate vs better incumbent: rejected, slot untouched.
    let registry = ModelRegistry::new(Arc::new(ModelSlot::new(Arc::clone(&good), 1)));
    let outcome =
        gate_candidate(&registry, Arc::clone(&bad), &holdout, 0.0, "worse candidate", None, 64);
    match outcome {
        ShadowOutcome::Rejected { candidate_f1, incumbent_f1 } => {
            assert_eq!(candidate_f1, f1_bad);
            assert_eq!(incumbent_f1, f1_good);
        }
        other => panic!("worse candidate must be rejected, got {other:?}"),
    }
    assert_eq!(registry.active_version(), 1);
    assert_eq!(registry.versions().len(), 1);
    assert_eq!(registry.rejected().len(), 1);
    assert_eq!(registry.counters().rejections, 1);
    assert_eq!(registry.counters().swaps, 0);

    // Better candidate vs worse incumbent: promoted, with the eval score
    // and training window recorded on the new version.
    let registry = ModelRegistry::new(Arc::new(ModelSlot::new(Arc::clone(&bad), 1)));
    let outcome = gate_candidate(
        &registry,
        Arc::clone(&good),
        &holdout,
        0.0,
        "better candidate",
        Some((10, 20)),
        64,
    );
    match outcome {
        ShadowOutcome::Promoted { version, candidate_f1, incumbent_f1 } => {
            assert_eq!(version, 2);
            assert_eq!(candidate_f1, f1_good);
            assert_eq!(incumbent_f1, f1_bad);
        }
        other => panic!("better candidate must be promoted, got {other:?}"),
    }
    assert_eq!(registry.active_version(), 2);
    let versions = registry.versions();
    assert_eq!(versions.len(), 2);
    assert_eq!(versions[0].state, VersionState::Superseded);
    assert_eq!(versions[1].state, VersionState::Active);
    assert_eq!(versions[1].eval_f1, Some(f1_good));
    assert_eq!(versions[1].training_window, Some((10, 20)));
    assert_eq!(versions[1].fingerprint, good.fingerprint());

    // An unreachable margin vetoes even a genuinely better candidate.
    let registry = ModelRegistry::new(Arc::new(ModelSlot::new(Arc::clone(&bad), 1)));
    let outcome =
        gate_candidate(&registry, good, &holdout, 2.0, "margin-vetoed candidate", None, 64);
    assert!(
        matches!(outcome, ShadowOutcome::Rejected { .. }),
        "a margin no candidate can clear must reject, got {outcome:?}"
    );
    assert_eq!(registry.active_version(), 1);
}

/// The gate validates before it evaluates: a candidate shaped for other
/// traffic, and one whose parts do not fit together, used to panic the
/// caller inside `evaluate_tabular_f1` (or, had it scored well, reach the
/// shard workers). Both are counted rejections that say why, carry no F1,
/// and leave the active version alone.
#[test]
fn ab_gate_refuses_invalid_candidates_without_evaluating_them() {
    let pre = drill_pre();
    let incumbent = drill_model(&pre, 3);
    let registry = ModelRegistry::new(Arc::new(ModelSlot::new(Arc::clone(&incumbent), 1)));
    let mut rng = InitRng::new(77);
    let holdout = Dataset::new(
        Matrix::from_fn(6 * pre.seq_len, pre.input_dim(), |_, _| rng.next_f32()),
        Matrix::zeros(6, pre.output_dim()),
        pre.seq_len,
    );

    // A bitmap twice as wide: consistent in itself, wrong for this traffic.
    let wide = drill_model(&PreprocessConfig { delta_range: 2 * pre.delta_range, ..pre }, 3);
    assert_eq!(wide.validate(), Ok(()));
    // input_linear's quantizer splits its 4 input dims 2 + 2; the file
    // says 1 + 3 over codebook blocks that are still 2-dimensional.
    let json = incumbent.to_json();
    let torn_json = json.replacen("\"bounds\":[[0,2],[2,4]]", "\"bounds\":[[0,1],[1,4]]", 1);
    assert_ne!(torn_json, json, "fixture drifted");
    let torn: TabularModel = serde_json::from_str(&torn_json).unwrap();

    for (candidate, name, says) in
        [(wide, "wide bitmap", "output_dim"), (Arc::new(torn), "torn quantizer", "codebook")]
    {
        let outcome = gate_candidate(&registry, candidate, &holdout, 0.0, name, None, 64);
        let ShadowOutcome::Invalid { reason } = outcome else {
            panic!("{name} must be refused as invalid, got {outcome:?}")
        };
        assert!(reason.contains(says), "{name}: {reason}");
        let recorded = registry.rejected().pop().unwrap();
        assert_eq!(recorded.provenance, name);
        assert_eq!(recorded.cause, RejectionCause::Invalid { reason });
    }
    assert_eq!(registry.counters().rejections, 2);
    assert_eq!(registry.counters().swaps, 0);
    assert_eq!(registry.active_version(), 1);
    assert_eq!(registry.versions().len(), 1);
}

/// Rollback restores the predecessor's model under a NEW forward
/// version id (epochs never move backwards), demotes the abandoned
/// version to `RolledBack`, and counts in both swap and rollback
/// counters — all visible in `ServeStats`.
#[test]
fn rollback_restores_previous_model_as_a_new_version() {
    let pre = drill_pre();
    let model_a = drill_model(&pre, 3);
    let model_b = drill_model(&pre, 99);
    let runtime = ServeRuntime::start(Arc::clone(&model_a), pre, serve_cfg(1));
    let registry = Arc::clone(runtime.registry());

    // Nothing to roll back to at startup.
    assert_eq!(registry.rollback(), None);

    runtime.swap_model(Arc::clone(&model_b), "promotion").unwrap();
    assert_eq!(registry.active().1.fingerprint(), model_b.fingerprint());

    let rolled = registry.rollback().expect("a predecessor exists now");
    assert_eq!(rolled, 3, "rollback must install a NEW forward version");
    let (active_id, active) = registry.active();
    assert_eq!(active_id, 3);
    assert_eq!(active.fingerprint(), model_a.fingerprint(), "rollback must restore A's bits");

    let versions = registry.versions();
    assert_eq!(versions.len(), 3);
    assert_eq!(versions[1].state, VersionState::RolledBack, "the abandoned version is marked");
    assert_eq!(versions[2].provenance, "rollback to version 1");
    assert_eq!(versions[2].fingerprint, model_a.fingerprint());

    // The rolled-back-to model serves traffic, and the stats surface
    // the full story.
    for i in 0..8u64 {
        runtime.submit(PrefetchRequest { stream_id: 1, pc: 0x10, addr: (300 + i) << 6 });
    }
    runtime.wait_idle();
    assert_eq!(runtime.drain_completed().len(), 8);
    let stats = runtime.shutdown();
    assert_eq!(stats.model_version, 3);
    assert_eq!(stats.model_swaps, 2, "the rollback also counts as a swap");
    assert_eq!(stats.model_rollbacks, 1);
    assert_eq!(stats.failed, 0);
}

/// Regression guard: a worker that panics around a swap must not break
/// the exactly-one-response invariant. The model handle is refreshed
/// *after* the batch guard arms, so even a panic during adoption fails
/// the batch cleanly instead of leaking in-flight slots — and a swap
/// published to a dead shard must not hang anything.
#[test]
fn worker_panic_during_swap_keeps_exactly_one_response_accounting() {
    let pre = drill_pre();
    let model = drill_model(&pre, 3);
    let mut cfg = serve_cfg(1);
    cfg.panic_on_stream = Some(3);
    let runtime = ServeRuntime::start(Arc::clone(&model), pre, cfg);

    // Interleaved backlog with the poison stream buried mid-batch; the
    // swap lands while that backlog is in flight.
    let mut reqs = Vec::new();
    for k in 0..20u64 {
        for s in 0..5u64 {
            reqs.push(PrefetchRequest { stream_id: s, pc: 0x40, addr: (500 + s * 1000 + k) << 6 });
        }
    }
    let total = reqs.len();
    runtime.submit_all(reqs);
    runtime
        .swap_model(Arc::new(TabularModel::clone(&model)), "swap racing a worker death")
        .expect("publishing must not depend on worker health");

    // Must return, not hang: the dying batch and the drained backlog are
    // all answered as failures.
    runtime.wait_idle();
    let responses = runtime.drain_completed();
    assert_eq!(responses.len(), total, "every submit gets exactly one response across the panic");

    // A swap *after* the only worker died still publishes (nobody left
    // to adopt it — that is a health problem, not a registry problem).
    runtime
        .swap_model(Arc::new(TabularModel::clone(&model)), "swap after worker death")
        .expect("swap on a dead runtime must not error or hang");

    let stats = runtime.shutdown();
    assert_eq!(stats.worker_panics.len(), 1);
    assert_eq!((stats.requests + stats.failed) as usize, total);
    assert!(stats.model_swaps >= 2);
}

fn shadow_cfg(pre: PreprocessConfig, min_samples: usize) -> ShadowConfig {
    ShadowConfig {
        pre,
        student: model_cfg(&pre),
        train: TrainConfig { epochs: 3, batch_size: 32, ..TrainConfig::default() },
        teacher: None,
        tabular: TabularConfig { k: 8, c: 2, fine_tune_epochs: 0, ..Default::default() },
        min_samples,
        holdout_frac: 0.25,
        margin: 0.0,
        stride: 1,
        seed: 0xFEED,
        eval_batch: 32,
    }
}

/// The shadow loop end-to-end against a live runtime: served traffic
/// lands in the replay ring, a round trains and gates a candidate, and
/// the registry's books agree with the outcome — while serving keeps
/// answering.
#[test]
fn shadow_round_trains_on_live_replay_and_updates_the_registry() {
    let pre = drill_pre();
    let mut cfg = serve_cfg(2);
    cfg.replay_capacity = 4096;
    let runtime = ServeRuntime::start(drill_model(&pre, 3), pre, cfg);

    // Not-enough-samples first: an empty ring trains nothing.
    let trainer = ShadowTrainer::new(shadow_cfg(pre, 64));
    let sampler = Arc::clone(runtime.replay().expect("replay_capacity > 0 enables the sampler"));
    assert_eq!(
        trainer.run_once(runtime.registry(), &sampler),
        ShadowOutcome::NotEnoughSamples { resident: 0 }
    );

    // Live traffic fills the ring (sequential streams — learnable).
    let reqs = generate_requests(&LoadGenConfig { streams: 8, accesses_per_stream: 80, seed: 13 });
    let total = reqs.len();
    runtime.submit_all(reqs);
    runtime.wait_idle();
    assert_eq!(runtime.drain_completed().len(), total);
    // The replay push lands *after* response delivery (sampling never
    // adds request latency), so `wait_idle` can return a beat before the
    // final batch's samples arrive — poll briefly before asserting.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while (sampler.total_sampled() as usize) < total && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(sampler.total_sampled() as usize, total, "every served access must be sampled");
    assert!(sampler.len() >= 64);

    let outcome = trainer.run_once(runtime.registry(), &sampler);
    let registry = runtime.registry();
    match outcome {
        ShadowOutcome::Promoted { version, candidate_f1, incumbent_f1 } => {
            assert_eq!(version, 2);
            assert_eq!(registry.active_version(), 2);
            assert!(candidate_f1 > incumbent_f1);
            let v = &registry.versions()[1];
            assert_eq!(v.provenance, "shadow-retrain round 2");
            assert_eq!(v.eval_f1, Some(candidate_f1));
            let (start, end) = v.training_window.expect("shadow promotions record their window");
            assert!(start < end && end == total as u64);
        }
        ShadowOutcome::Rejected { .. } => {
            assert_eq!(registry.active_version(), 1);
            assert_eq!(registry.rejected().len(), 1);
            assert_eq!(registry.rejected()[0].provenance, "shadow-retrain round 2");
        }
        ShadowOutcome::NotEnoughSamples { resident } => {
            panic!("{resident} resident samples must be enough to train")
        }
        ShadowOutcome::Invalid { reason } => {
            panic!("a retrained candidate is shaped like its incumbent: {reason}")
        }
    }

    // Serving is alive either way — the whole point of shadow training.
    for i in 0..8u64 {
        runtime.submit(PrefetchRequest { stream_id: 999, pc: 0x10, addr: (300 + i) << 6 });
    }
    runtime.wait_idle();
    assert_eq!(runtime.drain_completed().len(), 8);
    let stats = runtime.shutdown();
    assert_eq!(stats.failed, 0);
}

/// The background loop spawns, runs rounds on an interval, and
/// stop() joins it deterministically, returning every round's outcome.
#[test]
fn background_shadow_loop_stops_cleanly_and_reports_outcomes() {
    let pre = drill_pre();
    let mut cfg = serve_cfg(1);
    cfg.replay_capacity = 256;
    let runtime = ServeRuntime::start(drill_model(&pre, 3), pre, cfg);
    let sampler = Arc::clone(runtime.replay().unwrap());

    // min_samples is unreachably high, so every round is a cheap
    // NotEnoughSamples — this test is about the loop lifecycle, not
    // training.
    let trainer = ShadowTrainer::new(shadow_cfg(pre, usize::MAX));
    let handle = trainer.spawn(
        Arc::clone(runtime.registry()),
        sampler,
        runtime.kernel_pool(),
        std::time::Duration::from_millis(20),
    );
    std::thread::sleep(std::time::Duration::from_millis(250));
    let outcomes = handle.stop();
    assert!(!outcomes.is_empty(), "250ms at a 20ms interval must run at least one round");
    assert!(outcomes.iter().all(|o| matches!(o, ShadowOutcome::NotEnoughSamples { .. })));
    assert_eq!(runtime.model_version(), 1, "no round had data, so no promotion");
    runtime.shutdown();
}
